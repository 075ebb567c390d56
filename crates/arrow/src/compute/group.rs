//! Group ids: the dense group number of every row of a GROUP BY, read
//! from each key column's codes rather than from a hash of the row.
//!
//! A column's *codes* number its distinct values densely in order of
//! first appearance, null being one more value with a code of its own.
//! How a column gets its codes is its encoding's [`GroupCode`]:
//!
//! * `DictUtf8`: the `u32` keys index a direct remap table. Every
//!   dictionary is deduplicated, so equal keys are equal values. A
//!   dictionary far larger than the rows (a slice or a filtered batch
//!   keeps its table's whole dictionary) hashes the keys instead, so the
//!   table stays the size of the rows.
//! * `Bool`: false, true and null index a three-slot remap table.
//! * `Int64` and `Float64`: one hash table per call, keyed by the value's
//!   64 bits, which are their own hash, so one compare decides a probe.
//!   Floats group by bit pattern: a NaN payload is one group, and `-0.0`
//!   is not `0.0`.
//! * `Utf8`: one hash table per call, keyed by a hash of the bytes, each
//!   candidate checked against the bytes of its code's first row.
//!
//! A key of several columns combines the codes column by column: the pair
//! `(codes so far, next column's code)` is renumbered through a hash table
//! of the pair.

use super::utf8_slots;
use crate::array::{BoolArray, DictUtf8Array, PrimitiveArray, Utf8Array};
use crate::batch::RecordBatch;
use crate::buffer::Bitmap;
use crate::each_variant;

/// The group of every row of a GROUP BY, and what assigning them cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupIds {
    /// Row `r`'s group: dense, numbered in order of first appearance.
    pub ids: Vec<u32>,
    /// Each group's first row, so ascending.
    pub first_rows: Vec<u32>,
    /// Slots of the hash tables built; 0 when every code came from a
    /// direct table.
    pub slots: u64,
    /// Probes that passed a slot holding another key.
    pub collisions: u64,
    /// Times a table doubled.
    pub rehashes: u64,
}

/// The groups of `batch`'s rows under the key columns `cols`, of which
/// there is at least one: rows fall in one group exactly when each key
/// column holds equal values in them, null equalling null.
pub fn group_ids(batch: &RecordBatch, cols: &[usize]) -> GroupIds {
    let (&first, rest) = cols.split_first().expect("a group key has a column");
    let mut out = GroupIds::default();
    let codes = |c: usize, out: &mut GroupIds| each_variant!(batch.column(c), a => a.codes(out));
    let mut key = codes(first, &mut out);
    for &c in rest {
        let next = codes(c, &mut out);
        key = combine(&key, &next, &mut out);
    }
    out.ids = key.codes;
    out.first_rows = key.firsts;
    out
}

/// Dense codes, one per row, and the first row of each code.
struct Codes {
    codes: Vec<u32>,
    firsts: Vec<u32>,
}

/// How an encoding numbers its values for grouping: each typed array
/// gives its rows' codes, counting any hash table it builds into `cost`.
trait GroupCode {
    fn codes(&self, cost: &mut GroupIds) -> Codes;
}

impl GroupCode for DictUtf8Array {
    fn codes(&self, cost: &mut GroupIds) -> Codes {
        // Slot 0 is null, slot `k + 1` dictionary entry `k`.
        let slots = self.dictionary().len() + 1;
        let keys = self.keys();
        if slots > 2 * self.len() + 64 {
            // A key is its own hash.
            let hashes = keys.iter_raw().map(|k| (k as u64, ()));
            return hashed(self.len(), keys.validity(), hashes, |_, _| true, cost);
        }
        match keys.validity() {
            None => direct(self.len(), slots, keys.iter_raw().map(|k| k as usize + 1)),
            Some(valid) => {
                let keys = keys.iter_raw().enumerate();
                direct(
                    self.len(),
                    slots,
                    keys.map(|(r, k)| if valid.get(r) { k as usize + 1 } else { 0 }),
                )
            }
        }
    }
}

impl GroupCode for BoolArray {
    fn codes(&self, _: &mut GroupIds) -> Codes {
        direct(
            self.len(),
            3,
            self.iter().map(|v| v.map_or(0, |b| 1 + b as usize)),
        )
    }
}

impl GroupCode for PrimitiveArray<i64> {
    fn codes(&self, cost: &mut GroupIds) -> Codes {
        let keys = self.values().iter::<i64>().map(|v| (v as u64, ()));
        hashed(self.len(), self.validity(), keys, |_, _| true, cost)
    }
}

impl GroupCode for PrimitiveArray<f64> {
    fn codes(&self, cost: &mut GroupIds) -> Codes {
        let keys = self.values().iter::<f64>().map(|v| (v.to_bits(), ()));
        hashed(self.len(), self.validity(), keys, |_, _| true, cost)
    }
}

impl GroupCode for Utf8Array {
    fn codes(&self, cost: &mut GroupIds) -> Codes {
        let keys = utf8_slots(self).map(|b| (hash_bytes(b), b));
        hashed(self.len(), self.validity(), keys, |rep, b| rep == b, cost)
    }
}

/// The codes of `prev`'s rows refined by `next`'s. A pair of codes,
/// numbered densely as one `u64`, is its own hash.
fn combine(prev: &Codes, next: &Codes, cost: &mut GroupIds) -> Codes {
    let width = next.firsts.len() as u64;
    let pairs = prev.codes.iter().zip(&next.codes);
    let pairs = pairs.map(|(&a, &b)| (a as u64 * width + b as u64, ()));
    hashed(prev.codes.len(), None, pairs, |_, _| true, cost)
}

const NONE: u32 = u32::MAX;

/// Codes through a direct table: each of the `n` rows' slot, below
/// `slots`, is renumbered in order of first appearance.
fn direct(n: usize, slots: usize, slot_of: impl Iterator<Item = usize>) -> Codes {
    let mut remap = vec![NONE; slots];
    let mut codes = Vec::with_capacity(n);
    let mut firsts = Vec::new();
    for (r, s) in slot_of.enumerate() {
        let code = &mut remap[s];
        if *code == NONE {
            *code = firsts.len() as u32;
            firsts.push(r as u32);
        }
        codes.push(*code);
    }
    Codes { codes, firsts }
}

/// Codes through one hash table: each row's key with its hash (the rows
/// `valid` marks null keyed by their own code), and `same(rep, key)`
/// deciding whether `key` equals the key `rep` a code was made for, once
/// their hashes are equal.
fn hashed<K: Copy>(
    n: usize,
    valid: Option<&Bitmap>,
    keys: impl Iterator<Item = (u64, K)>,
    same: impl Fn(K, K) -> bool,
    cost: &mut GroupIds,
) -> Codes {
    let mut table = CodeTable::new();
    let mut codes = Vec::with_capacity(n);
    let mut firsts: Vec<u32> = Vec::new();
    // The key of each code; the null's code has none.
    let mut reps: Vec<Option<K>> = Vec::new();
    let mut null = NONE;
    for (r, (h, k)) in keys.enumerate() {
        let next = firsts.len() as u32;
        let code = if valid.is_some_and(|v| !v.get(r)) {
            if null == NONE {
                null = next;
                reps.push(None);
            }
            null
        } else {
            let same = |c: u32| reps[c as usize].is_some_and(|rep| same(rep, k));
            let code = table.code_of(h, next, same, cost);
            if code == next {
                reps.push(Some(k));
            }
            code
        };
        if code == next {
            firsts.push(r as u32);
        }
        codes.push(code);
    }
    cost.slots += table.slots.len() as u64;
    Codes { codes, firsts }
}

/// Fibonacci hashing's multiplier (2^64 / the golden ratio).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A hash of a string's bytes and length, read in whole words: eight
/// bytes at a time with the last word overlapping the one before, a
/// shorter string as two overlapping halves or three single bytes.
#[inline]
fn hash_bytes(b: &[u8]) -> u64 {
    let n = b.len();
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    let half = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes")) as u64;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(FIB);
    let mut h = n as u64;
    if n >= 8 {
        let mut i = 0;
        while i + 8 < n {
            h = mix(h, word(i));
            i += 8;
        }
        mix(h, word(n - 8))
    } else if n >= 4 {
        mix(h, half(0) | half(n - 4) << 32)
    } else if n > 0 {
        mix(
            h,
            b[0] as u64 | (b[n / 2] as u64) << 8 | (b[n - 1] as u64) << 16,
        )
    } else {
        h
    }
}

/// A linear-probing table from a 64-bit key hash to a code, starting at 16
/// slots and doubling before it is half full. A slot holds the hash beside
/// the code, so a probe reads one slot and only equal hashes reach the
/// caller's key check.
struct CodeTable {
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots)`: a bucket is the top bits of the mixed hash.
    shift: u32,
    used: usize,
}

impl CodeTable {
    fn new() -> CodeTable {
        CodeTable {
            slots: vec![(0, NONE); 16],
            shift: 60,
            used: 0,
        }
    }

    #[inline]
    fn bucket(&self, h: u64) -> usize {
        ((h ^ (h >> 29)).wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The code of the key hashing to `h` for which `same(code)` holds,
    /// or `next`, inserted, when there is none.
    #[inline]
    fn code_of(
        &mut self,
        h: u64,
        next: u32,
        same: impl Fn(u32) -> bool,
        cost: &mut GroupIds,
    ) -> u32 {
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow(cost);
        }
        let mask = self.slots.len() - 1;
        let mut b = self.bucket(h);
        loop {
            match self.slots[b] {
                (_, NONE) => {
                    self.slots[b] = (h, next);
                    self.used += 1;
                    return next;
                }
                (kh, code) if kh == h && same(code) => return code,
                _ => {
                    cost.collisions += 1;
                    b = (b + 1) & mask;
                }
            }
        }
    }

    fn grow(&mut self, cost: &mut GroupIds) {
        cost.rehashes += 1;
        let wider = vec![(0, NONE); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, wider);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (h, code) in old.into_iter().filter(|s| s.1 != NONE) {
            let mut b = self.bucket(h);
            while self.slots[b].1 != NONE {
                b = (b + 1) & mask;
            }
            self.slots[b] = (h, code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{Array, Value};
    use crate::schema::{Field, Schema};

    fn batch(cols: Vec<Array>) -> RecordBatch {
        let fields = cols
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type(), true))
            .collect();
        RecordBatch::try_new(Schema::new(fields), cols).unwrap()
    }

    /// Groups numbered by first appearance of the rows' `Value`s, floats
    /// by bit pattern: the reference `group_ids` must equal.
    fn reference(b: &RecordBatch, cols: &[usize]) -> (Vec<u32>, Vec<u32>) {
        let key = |r: usize| -> Vec<String> {
            let render = |v: Value| match v {
                Value::F64(f) => format!("f{:x}", f.to_bits()),
                Value::Null => "null".into(),
                v => format!("{v:?}"),
            };
            cols.iter()
                .map(|&c| render(b.column(c).value_at(r)))
                .collect()
        };
        let mut seen: Vec<Vec<String>> = Vec::new();
        let mut ids = Vec::new();
        let mut firsts = Vec::new();
        for r in 0..b.num_rows() {
            let k = key(r);
            let id = match seen.iter().position(|s| *s == k) {
                Some(id) => id,
                None => {
                    seen.push(k);
                    firsts.push(r as u32);
                    seen.len() - 1
                }
            };
            ids.push(id as u32);
        }
        (ids, firsts)
    }

    #[test]
    fn every_encoding_and_pair_matches_value_level_numbering() {
        let strs = [Some("b"), None, Some(""), Some("b"), Some("a\0"), Some("a")];
        let strs: Vec<Option<&str>> = (0..40).map(|i| strs[i * 7 % 6]).collect();
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let floats = [Some(0.0), Some(-0.0), None, Some(f64::NAN), Some(nan2)];
        let cols = vec![
            Array::from_opt_i64((0..40).map(|i| (i % 7 != 0).then_some(i % 5)).collect()),
            Array::from_opt_f64((0..40).map(|i| floats[i * 3 % 5]).collect()),
            Array::from_opt_bool(
                (0..40)
                    .map(|i| [Some(true), None, Some(false)][i % 3])
                    .collect(),
            ),
            Array::from_opt_utf8(strs.clone()),
            Array::from_opt_dict_utf8(strs),
        ];
        let b = batch(cols);
        for a in 0..5 {
            let (ids, firsts) = reference(&b, &[a]);
            let got = group_ids(&b, &[a]);
            assert_eq!((&got.ids, &got.first_rows), (&ids, &firsts), "column {a}");
            for c in 0..5 {
                let (ids, firsts) = reference(&b, &[a, c]);
                let got = group_ids(&b, &[a, c]);
                assert_eq!((&got.ids, &got.first_rows), (&ids, &firsts), "{a} x {c}");
            }
        }
        // Only the dictionary and the booleans build no table.
        for (c, tables) in [(0, true), (1, true), (2, false), (3, true), (4, false)] {
            assert_eq!(group_ids(&b, &[c]).slots > 0, tables, "column {c}");
        }
    }

    #[test]
    fn tables_double_and_count_what_they_did() {
        let n = 1000;
        let b = batch(vec![Array::from_i64((0..n).collect())]);
        let got = group_ids(&b, &[0]);
        assert_eq!(got.first_rows.len(), n as usize);
        // 16 slots doubled to the first power of two above 2 * 1000.
        assert_eq!((got.slots, got.rehashes), (2048, 7));
        // A pair of keys renumbers through a third table, of pairs.
        let wide = batch(vec![
            Array::from_i64((0..n).collect()),
            Array::from_i64((0..n).rev().collect()),
        ]);
        let got = group_ids(&wide, &[0, 1]);
        assert_eq!(got.ids, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(got.slots, 3 * 2048);
        let narrow = batch(vec![
            Array::from_i64((0..n).map(|i| i % 4).collect()),
            Array::from_i64((0..n).map(|i| i % 6).collect()),
        ]);
        let got = group_ids(&narrow, &[0, 1]);
        assert_eq!((got.first_rows.len(), got.slots), (12, 16 + 16 + 32));
    }

    #[test]
    fn a_short_slice_of_a_large_dictionary_hashes_its_keys() {
        let n = 1000;
        let words: Vec<Option<String>> = (0..n)
            .map(|i| (i % 7 != 3).then(|| format!("w{i}")))
            .collect();
        let words: Vec<Option<&str>> = words.iter().map(Option::as_deref).collect();
        let full = batch(vec![Array::from_opt_dict_utf8(words)]);
        // The whole column reads its keys through the direct table.
        assert_eq!(group_ids(&full, &[0]).slots, 0);
        for (lo, hi) in [(0, 10), (500, 540), (990, 1000), (3, 3)] {
            let short = full.slice(lo, hi);
            let got = group_ids(&short, &[0]);
            let (ids, firsts) = reference(&short, &[0]);
            assert_eq!(
                (&got.ids, &got.first_rows),
                (&ids, &firsts),
                "rows {lo}..{hi}"
            );
            // A table the size of the rows, not of the dictionary.
            let slots = got.slots as usize;
            assert!(slots > 0 && slots <= 4 * (hi - lo) + 16, "rows {lo}..{hi}");
        }
    }

    use crate::datatype::DataType;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A join's build column gathered as codes: for build columns with
        /// nulls and duplicates, all null or empty, and any row selection
        /// (repeats, any order, none), the codes are the plain gather's
        /// values and group into the same ids and first rows — through the
        /// direct table, and through the hashed one when the dictionary is
        /// far larger than the rows picked.
        #[test]
        fn prop_codes_gather_equals_plain_gather(
            raw in prop::collection::vec(prop::option::of(0usize..600), 0..400),
            distinct in 1usize..600,
            all_null in any::<bool>(),
            picks in prop::collection::vec(any::<u32>(), 0..48),
        ) {
            let word = |v: usize| match v % distinct {
                0 => String::new(),
                k => format!("{}{k}", ["a", "é", "\0"][k % 3]),
            };
            let words: Vec<Option<String>> =
                raw.iter().map(|v| v.filter(|_| !all_null).map(word)).collect();
            let col = Array::from_opt_utf8(words.iter().map(Option::as_deref));
            let rows: Vec<u32> = match col.len() {
                0 => Vec::new(),
                n => picks.iter().map(|&p| p % n as u32).collect(),
            };
            let plain = col.take_rows(&rows);
            let codes = col.take_rows_as_codes(&rows);
            prop_assert_eq!(codes.data_type(), DataType::DictUtf8);
            prop_assert_eq!(&codes.dict_decoded(), &plain);
            let values = |a: &Array| (0..a.len()).map(|r| a.value_at(r)).collect::<Vec<_>>();
            prop_assert_eq!(values(&codes), values(&plain));
            let (p, c) = (batch(vec![plain]), batch(vec![codes]));
            let (p, c) = (group_ids(&p, &[0]), group_ids(&c, &[0]));
            prop_assert_eq!((p.ids, p.first_rows), (c.ids, c.first_rows));
        }
    }
}
