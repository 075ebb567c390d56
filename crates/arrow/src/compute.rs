//! Compute kernels over columnar data.
//!
//! These are the handcrafted operators the simulated vertices execute when
//! an experiment actually materializes data (most experiments only *price*
//! data movement, but the examples and the SQL frontend run real queries
//! end-to-end on small inputs).
//!
//! Kernels are *vectorized*: each matches on the array variant once and
//! then runs a tight loop over raw values with bitmap validity, instead
//! of round-tripping every row through the boxed [`Value`] enum. Row
//! selections travel as `&[usize]` selection vectors ([`mask_to_indices`]
//! / [`take_indices`]), so a fused conjunction gathers its batch once.

use std::collections::BinaryHeap;

use crate::array::{Array, BoolArray, Utf8Array, Value};
use crate::batch::RecordBatch;
use crate::buffer::{Bitmap, Buffer};
use crate::each_variant;
use crate::error::ArrowError;

mod group;

pub use group::{group_ids, GroupIds};

/// Selects the rows of `batch` where `mask` is true (null mask = false).
pub fn filter(batch: &RecordBatch, mask: &Array) -> Result<RecordBatch, ArrowError> {
    if mask.len() != batch.num_rows() {
        return Err(ArrowError::ShapeMismatch(format!(
            "mask has {} rows, batch has {}",
            mask.len(),
            batch.num_rows()
        )));
    }
    take_indices(batch, &mask_to_indices(mask)?)
}

/// Converts a boolean mask into a selection vector of the row indices
/// where it is true (null = false). The selection can be applied with
/// [`take_indices`], letting a chain of filters gather once instead of
/// rebuilding a batch per step.
pub fn mask_to_indices(mask: &Array) -> Result<Vec<usize>, ArrowError> {
    let mask = mask.as_bool()?;
    let n = mask.len();
    let vals = mask.values().buffer().as_slice();
    let valid = mask.validity().map(|v| v.buffer().as_slice());
    let mut out = Vec::new();
    // Scan 64 rows per iteration: AND the value and validity words, skip
    // all-false words with one compare, and walk set bits by
    // `trailing_zeros` so cost tracks selected rows, not total rows.
    let whole_words = n / 64;
    for w in 0..whole_words {
        let at = w * 8;
        let mut word = u64::from_le_bytes(vals[at..at + 8].try_into().expect("8 bytes"));
        if let Some(vv) = valid {
            word &= u64::from_le_bytes(vv[at..at + 8].try_into().expect("8 bytes"));
        }
        let base = w * 64;
        while word != 0 {
            out.push(base + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
    // Tail bytes; the final byte's padding bits are guarded against `n`
    // (an `all_set` values bitmap leaves them set).
    for i in whole_words * 8..n.div_ceil(8) {
        let mut byte = vals[i];
        if let Some(vv) = valid {
            byte &= vv[i];
        }
        let base = i * 8;
        while byte != 0 {
            let row = base + byte.trailing_zeros() as usize;
            if row < n {
                out.push(row);
            }
            byte &= byte - 1;
        }
    }
    Ok(out)
}

/// Reorders/selects rows by index.
pub fn take(batch: &RecordBatch, indices: &Array) -> Result<RecordBatch, ArrowError> {
    let idx = indices.as_i64()?;
    let mut out = Vec::with_capacity(idx.len());
    for i in 0..idx.len() {
        let v = idx
            .get(i)
            .ok_or_else(|| ArrowError::ShapeMismatch("take index may not be null".into()))?;
        let v = usize::try_from(v).map_err(|_| ArrowError::IndexOutOfBounds {
            index: 0,
            len: batch.num_rows(),
        })?;
        if v >= batch.num_rows() {
            return Err(ArrowError::IndexOutOfBounds {
                index: v,
                len: batch.num_rows(),
            });
        }
        out.push(v);
    }
    take_indices(batch, &out)
}

/// Gathers the rows at `indices` (a selection vector) into a new batch,
/// column-at-a-time through the typed gather paths.
pub fn take_indices(batch: &RecordBatch, indices: &[usize]) -> Result<RecordBatch, ArrowError> {
    for &i in indices {
        if i >= batch.num_rows() {
            return Err(ArrowError::IndexOutOfBounds {
                index: i,
                len: batch.num_rows(),
            });
        }
    }
    let columns = batch
        .columns()
        .iter()
        .map(|col| col.take_rows(indices))
        .collect();
    RecordBatch::try_new(batch.schema().clone(), columns)
}

/// Comparison operators for scalar predicates: the SQL vocabulary's one
/// operator type.
pub use skadi_ir::CmpOp;

/// Compares each element of a column against a scalar, producing a `Bool`
/// mask. Null inputs produce null outputs.
///
/// Dispatches on the (column variant, scalar variant) pair and on the
/// operator once, then runs one tight loop that packs eight comparisons
/// per mask byte; the input's validity bitmap is carried over unchanged,
/// and ANDing its bytes into the mask clears the value bits at null slots
/// (the canonical form).
pub fn cmp_scalar(col: &Array, op: CmpOp, scalar: &Value) -> Result<Array, ArrowError> {
    let n = col.len();
    if matches!(scalar, Value::Null) {
        return Ok(Array::from_opt_bool(vec![None; n]));
    }
    let mut bits: Vec<u8> = match (col, scalar) {
        (Array::Int64(a), Value::I64(b)) => op_mask(op, n, a.values().iter::<i64>(), *b),
        (Array::Int64(a), Value::F64(b)) => {
            op_mask(op, n, a.values().iter::<i64>().map(|x| x as f64), *b)
        }
        (Array::Float64(a), Value::F64(b)) => op_mask(op, n, a.values().iter::<f64>(), *b),
        (Array::Float64(a), Value::I64(b)) => op_mask(op, n, a.values().iter::<f64>(), *b as f64),
        // UTF-8's code-point order equals its byte order, so every
        // operator runs over the raw offsets and bytes: no per-row UTF-8
        // validation or `&str`, and equality reads the bytes only when
        // the lengths agree. A null slot spans an empty range.
        (Array::Utf8(a), Value::Str(b)) => op_mask(op, n, utf8_slots(a), b.as_bytes()),
        (Array::DictUtf8(a), Value::Str(b)) => {
            // One verdict per dictionary entry, then one lookup per row:
            // the string bytes are never touched per row. An empty
            // dictionary (every slot null) gets one verdict for the
            // placeholder key the null slots hold.
            let entries = utf8_slots(a.dictionary());
            let mut verdicts: Vec<bool> = entries.map(|e| op.eval(e, b.as_bytes())).collect();
            verdicts.resize(verdicts.len().max(1), false);
            let keys = a.keys().values().iter::<u32>();
            pack(n, keys.map(|k| verdicts[k as usize]))
        }
        (Array::Bool(a), Value::Bool(b)) => op_mask(op, n, a.values().iter(), *b),
        _ => {
            return Err(ArrowError::ShapeMismatch(format!(
                "cannot compare {} with {}",
                col.data_type(),
                scalar
            )))
        }
    };
    let validity = col.validity().cloned();
    if let Some(v) = &validity {
        for (byte, valid) in bits.iter_mut().zip(v.buffer().as_slice()) {
            *byte &= valid;
        }
    }
    let values = Bitmap::from_buffer(Buffer::from_vec(bits), n);
    Ok(BoolArray::from_parts(values, validity).into())
}

/// The packed mask of `x op b` over `values`, the operator matched once:
/// each arm is its own loop.
fn op_mask<T: PartialOrd>(op: CmpOp, n: usize, values: impl Iterator<Item = T>, b: T) -> Vec<u8> {
    match op {
        CmpOp::Eq => pack(n, values.map(|x| x == b)),
        CmpOp::Ne => pack(n, values.map(|x| x != b)),
        CmpOp::Lt => pack(n, values.map(|x| x < b)),
        CmpOp::Le => pack(n, values.map(|x| x <= b)),
        CmpOp::Gt => pack(n, values.map(|x| x > b)),
        CmpOp::Ge => pack(n, values.map(|x| x >= b)),
    }
}

/// `n` booleans packed LSB-first, eight to a byte, the final byte's
/// padding bits clear.
#[inline]
fn pack(n: usize, bits: impl Iterator<Item = bool>) -> Vec<u8> {
    let mut out = Vec::with_capacity(n.div_ceil(8));
    let mut byte = 0u8;
    for (i, bit) in bits.enumerate() {
        byte |= (bit as u8) << (i % 8);
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
    out
}

/// Each row's bytes as the offsets delimit them (empty at a null slot).
fn utf8_slots(a: &Utf8Array) -> impl Iterator<Item = &[u8]> {
    let data = a.data().as_slice();
    let ends = a.offsets().iter::<i32>().skip(1);
    let spans = a.offsets().iter::<i32>().zip(ends);
    spans.map(move |(start, end)| &data[start as usize..end as usize])
}

/// Elementwise AND of two boolean masks (null-safe: null AND x = null
/// unless x is false).
///
/// Runs byte-at-a-time over the packed bitmaps (64 rows per two loads on
/// the fast path), producing canonical outputs: value bits false wherever
/// the result is null or false, validity omitted when nothing is null.
pub fn and(a: &Array, b: &Array) -> Result<Array, ArrowError> {
    let (a, b) = (a.as_bool()?, b.as_bool()?);
    let n = a.len();
    if n != b.len() {
        return Err(ArrowError::ShapeMismatch("mask length mismatch".into()));
    }
    let bytes = n.div_ceil(8);
    let av = a.values().buffer().as_slice();
    let bv = b.values().buffer().as_slice();
    // Validity bytes, treating an absent bitmap as all-set.
    let byte_at = |bm: Option<&Bitmap>, i: usize| -> u8 {
        match bm {
            None => 0xFF,
            Some(m) => m.buffer().as_slice()[i],
        }
    };
    let mut out_vals = vec![0u8; bytes];
    let mut out_valid = vec![0u8; bytes];
    let mut all_valid = true;
    for i in 0..bytes {
        let (xa, xb) = (av[i], bv[i]);
        let (va, vb) = (byte_at(a.validity(), i), byte_at(b.validity(), i));
        // Definite-false on either side dominates a null on the other.
        let false_a = va & !xa;
        let false_b = vb & !xb;
        let true_both = va & xa & vb & xb;
        out_vals[i] = true_both;
        out_valid[i] = false_a | false_b | true_both;
        // Only the real bits of the final byte count toward validity.
        let live = if (i + 1) * 8 <= n {
            0xFF
        } else {
            (1u16 << (n % 8)) as u8 - 1
        };
        if out_valid[i] & live != live {
            all_valid = false;
        }
    }
    // Zero the padding bits so logical equality sees canonical buffers.
    if n % 8 != 0 {
        let live = (1u16 << (n % 8)) as u8 - 1;
        if let Some(last) = out_vals.last_mut() {
            *last &= live;
        }
    }
    let values = Bitmap::from_buffer(Buffer::from_vec(out_vals), n);
    let validity = (!all_valid).then(|| Bitmap::from_buffer(Buffer::from_vec(out_valid), n));
    Ok(BoolArray::from_parts(values, validity).into())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fnv_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of one row's values across the given columns; used for hash
/// partitioning keyed edges. [`hash_column_into`] over each of `cols` in
/// turn, starting from the FNV offset, gives the same hash.
pub fn hash_row(batch: &RecordBatch, cols: &[usize], row: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for &c in cols {
        match batch.column(c).value_at(row) {
            Value::Null => h = fnv_feed(h, &[0xFF]),
            Value::I64(v) => h = fnv_feed(h, &v.to_le_bytes()),
            Value::F64(v) => h = fnv_feed(h, &v.to_bits().to_le_bytes()),
            Value::Bool(v) => h = fnv_feed(h, &[v as u8]),
            Value::Str(s) => h = fnv_feed(h, s.as_bytes()),
        }
    }
    h
}

/// Folds one column's key bytes into a running hash per row, matching
/// [`hash_row`] bit-for-bit but dispatching on the variant once and never
/// rendering a value. Nulls feed the `0xFF` marker byte.
pub fn hash_column_into(col: &Array, hashes: &mut [u64]) {
    assert_eq!(col.len(), hashes.len(), "hash_column_into length mismatch");
    each_variant!(col, a => {
        for (h, key) in hashes.iter_mut().zip(a.iter_key_bytes()) {
            // Two calls, not `unwrap_or`: a fixed-width key keeps its
            // compile-time length and its feed unrolls.
            *h = match key {
                Some(bytes) => fnv_feed(*h, bytes),
                None => fnv_feed(*h, &[0xFF]),
            };
        }
    })
}

/// Per-row FNV-1a hash of a single key column over its raw bytes (the
/// join build/probe and shuffle hash). A `Float64` key equal to an integer
/// ([`i64_f64_key_eq`]) hashes as that integer's `Int64` bytes, so an
/// `Int64` column and a `Float64` column holding numerically-equal keys
/// land in the same bucket whichever types a join's keys turn out to have,
/// while an `Int64` key hashes exactly as [`hash_row`] does. Null rows
/// get the null-marker hash; join callers skip them.
pub fn hash_key_column(col: &Array) -> Vec<u64> {
    let null_hash = fnv_feed(FNV_OFFSET, &[0xFF]);
    match col {
        Array::Float64(a) => a
            .iter()
            .map(|v| match v {
                // `as` saturates; the integer is used only if it is exact.
                Some(f) if i64_f64_key_eq(f as i64, f) => {
                    fnv_feed(FNV_OFFSET, &(f as i64).to_le_bytes())
                }
                Some(f) => fnv_feed(FNV_OFFSET, &f.to_bits().to_le_bytes()),
                None => null_hash,
            })
            .collect(),
        Array::DictUtf8(a) => {
            // The key hash starts from a fixed seed, so each dictionary
            // entry's full hash can be computed once and gathered per row —
            // bit-identical to hashing the decoded strings.
            let entry_hashes: Vec<u64> = a
                .dictionary()
                .iter_key_bytes()
                .map(|entry| fnv_feed(FNV_OFFSET, entry.expect("dict entry")))
                .collect();
            let keys = a.keys().iter();
            keys.map(|k| k.map_or(null_hash, |k| entry_hashes[k as usize]))
                .collect()
        }
        _ => {
            let mut hashes = vec![FNV_OFFSET; col.len()];
            hash_column_into(col, &mut hashes);
            hashes
        }
    }
}

/// Exact `i64` ↔ `f64` join-key equality: true only when `f` is a whole
/// number that round-trips to exactly `i`. The old `i as f64 == f` check
/// rounded |i| > 2^53 onto nearby floats and manufactured matches between
/// distinct keys.
///
/// Bit-level on the float side (`-0.0` does not match `0`), which keeps
/// it consistent with [`hash_key_column`]'s bucketing: any pair this
/// returns true for hashes into the same bucket.
#[inline]
pub fn i64_f64_key_eq(i: i64, f: f64) -> bool {
    // Only floats in [-2^63, 2^63) can equal an i64; this also rejects
    // NaN and the infinities before the `as` casts below can saturate.
    if !(-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&f) {
        return false;
    }
    f as i64 == i && ((f as i64) as f64).to_bits() == f.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Field, Schema};

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("score", DataType::Float64, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3, 4]),
                Array::from_opt_f64(vec![Some(0.1), None, Some(0.3), Some(0.4)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_true_rows() {
        let b = sample();
        let mask = Array::from_bool(&[true, false, true, false]);
        let out = filter(&b, &mask).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).value_at(1), Value::I64(3));
    }

    #[test]
    fn filter_null_mask_drops() {
        let b = sample();
        let mask = Array::from_opt_bool(vec![Some(true), None, None, Some(true)]);
        assert_eq!(filter(&b, &mask).unwrap().num_rows(), 2);
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let b = sample();
        let mask = Array::from_bool(&[true]);
        assert!(filter(&b, &mask).is_err());
    }

    #[test]
    fn take_reorders() {
        let b = sample();
        let out = take(&b, &Array::from_i64(vec![3, 0, 0])).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.column(0).value_at(0), Value::I64(4));
        assert_eq!(out.column(0).value_at(2), Value::I64(1));
    }

    #[test]
    fn take_out_of_bounds_errors() {
        let b = sample();
        assert!(matches!(
            take(&b, &Array::from_i64(vec![99])),
            Err(ArrowError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn cmp_scalar_produces_mask() {
        let b = sample();
        let mask = cmp_scalar(b.column(0), CmpOp::Gt, &Value::I64(2)).unwrap();
        let bools: Vec<Option<bool>> = (0..4)
            .map(|i| match mask.value_at(i) {
                Value::Bool(v) => Some(v),
                Value::Null => None,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            bools,
            vec![Some(false), Some(false), Some(true), Some(true)]
        );
    }

    #[test]
    fn cmp_nulls_propagate() {
        let b = sample();
        let mask = cmp_scalar(b.column(1), CmpOp::Lt, &Value::F64(0.35)).unwrap();
        assert_eq!(mask.value_at(1), Value::Null);
        assert_eq!(mask.value_at(0), Value::Bool(true));
    }

    #[test]
    fn cmp_mixed_numeric_coerces() {
        let col = Array::from_i64(vec![1, 5]);
        let mask = cmp_scalar(&col, CmpOp::Ge, &Value::F64(2.5)).unwrap();
        assert_eq!(mask.value_at(0), Value::Bool(false));
        assert_eq!(mask.value_at(1), Value::Bool(true));
    }

    #[test]
    fn cmp_incompatible_errors() {
        let col = Array::from_i64(vec![1]);
        assert!(cmp_scalar(&col, CmpOp::Eq, &Value::Str("x".into())).is_err());
    }

    #[test]
    fn utf8_cmp_fast_path_matches_str_semantics() {
        // Length-prefiltered equality and raw-byte ordering must agree
        // with `&str` comparison everywhere: empty strings, shared
        // prefixes, multi-byte code points, nulls.
        let vals = [
            Some(""),
            Some("a"),
            Some("ab"),
            Some("abc"),
            None,
            Some("b"),
            Some("naïve"),
            Some("z\u{10348}"),
        ];
        let col = Array::from_opt_utf8(vals.to_vec());
        for needle in ["", "ab", "abd", "naïve", "z", "\u{10348}"] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let mask = cmp_scalar(&col, op, &Value::Str(needle.into())).unwrap();
                for (i, v) in vals.iter().enumerate() {
                    let want = match v {
                        Some(s) => Value::Bool(op.eval(*s, needle)),
                        None => Value::Null,
                    };
                    assert_eq!(mask.value_at(i), want, "{v:?} {op:?} {needle:?} (row {i})");
                }
            }
        }
    }

    #[test]
    fn and_truth_table() {
        let a = Array::from_opt_bool(vec![Some(true), Some(true), Some(false), None]);
        let b = Array::from_opt_bool(vec![Some(true), None, None, None]);
        let r = and(&a, &b).unwrap();
        assert_eq!(r.value_at(0), Value::Bool(true));
        assert_eq!(r.value_at(1), Value::Null);
        assert_eq!(r.value_at(2), Value::Bool(false));
        assert_eq!(r.value_at(3), Value::Null);
    }

    #[test]
    fn hash_row_distinguishes_null_from_zero() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64, true)]);
        let b =
            RecordBatch::try_new(schema, vec![Array::from_opt_i64(vec![Some(0), None])]).unwrap();
        assert_ne!(hash_row(&b, &[0], 0), hash_row(&b, &[0], 1));
    }

    /// Row `r`'s comparison at the `Value` level, sharing nothing with the
    /// kernel's typed loops: `None` for a null row.
    fn value_cmp(col: &Array, r: usize, op: CmpOp, scalar: &Value) -> Option<bool> {
        Some(match (col.value_at(r), scalar) {
            (Value::Null, _) => return None,
            (Value::I64(x), Value::I64(b)) => op.eval(x, *b),
            (Value::I64(x), Value::F64(b)) => op.eval(x as f64, *b),
            (Value::F64(x), Value::F64(b)) => op.eval(x, *b),
            (Value::F64(x), Value::I64(b)) => op.eval(x, *b as f64),
            (Value::Str(x), Value::Str(b)) => op.eval(x.as_str(), b.as_str()),
            (Value::Bool(x), Value::Bool(b)) => op.eval(x, *b),
            (v, b) => unreachable!("{v:?} against {b:?}"),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Every operator over every column type (a dictionary and an
        /// `Int64` column against a float among them) and null pattern, at
        /// lengths on and off a byte boundary, against [`value_cmp`]: the
        /// mask is the reference's canonical form byte for byte — value
        /// bits clear at nulls and in the padding, the column's validity.
        #[test]
        fn prop_cmp_scalar_matches_value_level_reference(
            vals in proptest::collection::vec(-3i64..4, 0..41),
            pattern in 0usize..4,
            b in -3i64..4,
        ) {
            let nulls = |r: usize| match pattern {
                0 => false,
                1 => r % 2 == 1,
                2 => r.is_multiple_of(3) || r == vals.len() - 1,
                _ => true,
            };
            let keys: Vec<Option<i64>> =
                vals.iter().enumerate().map(|(r, &v)| (!nulls(r)).then_some(v)).collect();
            let float = |v: i64| match v {
                3 => f64::NAN,
                -3 => -0.0,
                v => v as f64 / 2.0,
            };
            let word = |v: i64| ["", "a", "ab", "b", "ba", "\u{e9}", "aa"][(v + 3) as usize];
            let words: Vec<Option<&str>> = keys.iter().map(|k| k.map(word)).collect();
            let cols = [
                Array::from_opt_i64(keys.clone()),
                Array::from_opt_f64(keys.iter().map(|k| k.map(float)).collect()),
                Array::from_opt_bool(keys.iter().map(|k| k.map(|v| v % 2 == 0)).collect()),
                Array::from_opt_utf8(words.clone()),
                Array::from_opt_dict_utf8(words),
            ];
            let scalars = [
                Value::I64(b),
                Value::F64(float(b)),
                Value::Bool(b % 2 == 0),
                Value::Str(word(b).into()),
            ];
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            for col in &cols {
                for scalar in &scalars {
                    let fits = matches!(
                        (col.data_type(), scalar),
                        (DataType::Int64 | DataType::Float64, Value::I64(_) | Value::F64(_))
                            | (DataType::Bool, Value::Bool(_))
                            | (DataType::Utf8 | DataType::DictUtf8, Value::Str(_))
                    );
                    if !fits {
                        proptest::prop_assert!(cmp_scalar(col, CmpOp::Eq, scalar).is_err());
                        continue;
                    }
                    for op in ops {
                        let got = cmp_scalar(col, op, scalar).unwrap();
                        let want: Vec<bool> = (0..col.len())
                            .map(|r| value_cmp(col, r, op, scalar) == Some(true))
                            .collect();
                        let want = BoolArray::from_parts(
                            Bitmap::from_bools(&want),
                            col.validity().cloned(),
                        );
                        let got = got.as_bool().unwrap();
                        let at = format!("{} {op:?} {scalar:?} over {keys:?}", col.data_type());
                        proptest::prop_assert_eq!(
                            got.values().buffer().as_slice(),
                            want.values().buffer().as_slice(),
                            "values of {}", at
                        );
                        proptest::prop_assert_eq!(got.validity(), want.validity(), "{}", at);
                        proptest::prop_assert_eq!(got.len(), col.len());
                    }
                }
            }
        }
    }

    fn mixed_batch() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("i", DataType::Int64, true),
                Field::new("f", DataType::Float64, true),
                Field::new("b", DataType::Bool, true),
                Field::new("s", DataType::Utf8, true),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), None, Some(-3), Some(0), Some(7)]),
                Array::from_opt_f64(vec![Some(0.5), Some(-0.0), None, Some(f64::NAN), Some(2.0)]),
                Array::from_opt_bool(vec![Some(true), Some(false), None, Some(true), None]),
                Array::from_opt_utf8(vec![Some("a"), None, Some(""), Some("xyz"), Some("a")]),
            ],
        )
        .unwrap()
    }

    /// Every row's hash across `cols`, one column at a time.
    pub(super) fn chained_hashes(batch: &RecordBatch, cols: &[usize]) -> Vec<u64> {
        let mut hashes = vec![FNV_OFFSET; batch.num_rows()];
        for &c in cols {
            hash_column_into(batch.column(c), &mut hashes);
        }
        hashes
    }

    #[test]
    fn hash_column_into_chains_like_hash_row() {
        let b = mixed_batch();
        for cols in [vec![0usize], vec![1, 2], vec![0, 1, 2, 3], vec![3, 0]] {
            let vectorized = chained_hashes(&b, &cols);
            assert_eq!(vectorized.len(), b.num_rows());
            for (r, &h) in vectorized.iter().enumerate() {
                assert_eq!(h, hash_row(&b, &cols, r), "cols {cols:?} row {r}");
            }
        }
    }

    #[test]
    fn mask_to_indices_keeps_valid_true_rows() {
        let mask = Array::from_opt_bool(vec![Some(true), Some(false), None, Some(true)]);
        assert_eq!(mask_to_indices(&mask).unwrap(), vec![0, 3]);
        assert!(mask_to_indices(&Array::from_i64(vec![1])).is_err());
    }

    #[test]
    fn hash_key_column_coerces_ints_onto_float_hashes() {
        let ints = Array::from_opt_i64(vec![Some(1), Some(2), None]);
        let floats = Array::from_opt_f64(vec![Some(1.0), Some(2.0), None]);
        // Whole float keys hash as the equal int keys...
        assert_eq!(hash_key_column(&floats), hash_key_column(&ints));
        // ...which hash their raw i64 bytes (and match the row-hash path).
        let schema = Schema::new(vec![Field::new("k", DataType::Int64, true)]);
        let b = RecordBatch::try_new(schema, vec![ints.clone()]).unwrap();
        assert_eq!(hash_key_column(&ints), chained_hashes(&b, &[0]));
        // A float that equals no integer keeps its own bits' hash.
        let halves = Array::from_f64(vec![0.5, -0.0]);
        let schema = Schema::new(vec![Field::new("k", DataType::Float64, false)]);
        let b = RecordBatch::try_new(schema, vec![halves.clone()]).unwrap();
        assert_eq!(hash_key_column(&halves), chained_hashes(&b, &[0]));
    }

    #[test]
    fn take_rows_matches_value_gather_on_all_types() {
        let b = mixed_batch();
        let indices = vec![4usize, 0, 0, 2, 3, 1];
        let fast = take_indices(&b, &indices).unwrap();
        for c in 0..b.num_columns() {
            let values: Vec<Value> = indices.iter().map(|&r| b.column(c).value_at(r)).collect();
            let slow = Array::from_values(b.column(c).data_type(), &values).unwrap();
            assert_eq!(fast.column(c), &slow, "column {c}");
        }
    }

    #[test]
    fn and_matches_three_valued_reference_across_byte_boundaries() {
        // 20 elements forces the kernel across byte boundaries and into
        // the final partial byte.
        let pick = |i: usize, salt: usize| match (i + salt) % 3 {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        };
        let a_vals: Vec<Option<bool>> = (0..20).map(|i| pick(i, 0)).collect();
        let b_vals: Vec<Option<bool>> = (0..20).map(|i| pick(i, 1)).collect();
        let out = and(
            &Array::from_opt_bool(a_vals.clone()),
            &Array::from_opt_bool(b_vals.clone()),
        )
        .unwrap();
        let reference: Vec<Option<bool>> = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(x, y)| match (x, y) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
            .collect();
        assert_eq!(out, Array::from_opt_bool(reference));
    }
}

/// Sort order for [`sort_to_indices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first; NULLs first.
    Ascending,
    /// Largest first; NULLs last.
    Descending,
}

/// Computes the row permutation that sorts `col`. NULLs sort lowest.
/// Numeric columns sort numerically; strings lexicographically; booleans
/// false-before-true.
///
/// Dispatches on the variant once and sorts over typed keys gathered
/// into a flat vector — no `Value` boxing in the comparator.
pub fn sort_to_indices(col: &Array, order: SortOrder) -> Array {
    let idx = SortKeys::new(col).sort_range(order, 0, col.len() as u32);
    Array::from_i64(idx.into_iter().map(|i| i as i64).collect())
}

/// The top-N kernel: the first `n` rows of `batch` stably sorted by
/// `column` under `order` — what sorting every row and cutting at `n`
/// returns — selected without sorting the rest (`SortKeys::top_n`) and
/// gathered alone: `n` rows move, not all of them.
pub fn top_n(
    batch: &RecordBatch,
    column: &str,
    order: SortOrder,
    n: usize,
) -> Result<RecordBatch, ArrowError> {
    let kept = SortKeys::new(batch.column_by_name(column)?).top_n(order, n);
    let rows: Vec<usize> = kept.into_iter().map(|r| r as usize).collect();
    take_indices(batch, &rows)
}

/// Typed sort keys extracted from a column once, reusable across range
/// sorts and run merges. Owned (the `Utf8` variant holds an O(1) clone of
/// the array's shared buffers) and `Send + Sync`, so morsel-parallel sorts
/// can share one extraction across worker threads.
///
/// The comparison rules are exactly [`sort_to_indices`]'s: NULLs lowest,
/// floats by `total_cmp` (NaN above +inf), strings by code-point order,
/// dictionary columns via precomputed entry ranks.
pub struct SortKeys {
    repr: KeyRepr,
}

enum KeyRepr {
    // `(valid, bits)` per row, ordered like the key it encodes: NULL is
    // `(false, 0)`, below every value.
    Fixed(Vec<(bool, u64)>),
    // Owned clone of the Utf8 array; comparisons read raw offset/data
    // buffers (UTF-8 byte order equals code-point order).
    Utf8(Utf8Array),
}

fn fixed_keys(keys: impl Iterator<Item = Option<u64>>) -> KeyRepr {
    KeyRepr::Fixed(keys.map(|k| (k.is_some(), k.unwrap_or(0))).collect())
}

/// Row `r`'s `(valid, bits, row)` packed into one integer that orders
/// like its key under the sort direction, ties broken by row: descending
/// flips the key and keeps the row.
#[inline]
fn packed(keys: &[(bool, u64)], r: u32, descending: bool) -> u128 {
    let (valid, bits) = keys[r as usize];
    let bits = if descending { !bits } else { bits };
    ((valid != descending) as u128) << 96 | (bits as u128) << 32 | r as u128
}

/// Maps an `i64` to the `u64` with the same order.
fn i64_key(v: i64) -> u64 {
    v as u64 ^ (1 << 63)
}

/// Maps an `f64` to a `u64` ordered like `total_cmp`, not `partial_cmp`:
/// NaN has no partial order, and IEEE total order puts NaN above +inf (and
/// -NaN below -inf), so NaNs sort last ascending, deterministically.
fn f64_key(v: f64) -> u64 {
    let bits = v.to_bits() as i64;
    i64_key(bits ^ (((bits >> 63) as u64) >> 1) as i64)
}

impl SortKeys {
    /// Extracts sort keys from `col` (one pass; O(dict) extra for
    /// dictionary rank assignment).
    pub fn new(col: &Array) -> SortKeys {
        let repr = match col {
            Array::Int64(a) => fixed_keys(a.iter().map(|v| v.map(i64_key))),
            Array::Float64(a) => fixed_keys(a.iter().map(|v| v.map(f64_key))),
            Array::Bool(a) => fixed_keys(a.iter().map(|v| v.map(u64::from))),
            Array::Utf8(a) => KeyRepr::Utf8(a.clone()),
            Array::DictUtf8(a) => {
                // Rank each dictionary entry once (entries are
                // deduplicated, so ranks are a total order identical to
                // string order); comparisons then work over ranks, never
                // string bytes.
                let dict = a.dictionary();
                let mut by_str: Vec<u32> = (0..dict.len() as u32).collect();
                by_str.sort_by(|&x, &y| dict.get(x as usize).cmp(&dict.get(y as usize)));
                let mut rank = vec![0u64; dict.len()];
                for (r, k) in by_str.iter().enumerate() {
                    rank[*k as usize] = r as u64;
                }
                fixed_keys(a.keys().iter().map(|k| k.map(|k| rank[k as usize])))
            }
        };
        SortKeys { repr }
    }

    fn len(&self) -> usize {
        match &self.repr {
            KeyRepr::Fixed(k) => k.len(),
            KeyRepr::Utf8(a) => a.len(),
        }
    }

    /// Ascending-semantics comparison of two rows' keys (NULLs first).
    #[inline]
    fn cmp_rows(&self, x: u32, y: u32) -> std::cmp::Ordering {
        let (x, y) = (x as usize, y as usize);
        match &self.repr {
            KeyRepr::Fixed(k) => k[x].cmp(&k[y]),
            KeyRepr::Utf8(a) => a.key_bytes(x).cmp(&a.key_bytes(y)),
        }
    }

    /// Stably sorts the row range `lo..hi` into an index run: indices
    /// ordered by `(key under order, row ascending)`. With the full range
    /// this is exactly [`sort_to_indices`].
    pub fn sort_range(&self, order: SortOrder, lo: u32, hi: u32) -> Vec<u32> {
        let descending = order == SortOrder::Descending;
        if let KeyRepr::Fixed(k) = &self.repr {
            // Packed keys are all distinct, so an unstable sort has one
            // possible outcome, the stable one.
            let mut run: Vec<u128> = (lo..hi).map(|r| packed(k, r, descending)).collect();
            run.sort_unstable();
            return run.into_iter().map(|packed| packed as u32).collect();
        }
        let mut idx: Vec<u32> = (lo..hi).collect();
        // Stable sorts keep equal keys in row order.
        idx.sort_by(|&x, &y| {
            let ord = self.cmp_rows(x, y);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        idx
    }

    /// The first `n` entries of [`Self::sort_range`] over every row — the
    /// rows a stable sort cut at `n` keeps, in its order — without
    /// sorting the rest. Fixed-width keys stream through a bounded
    /// max-heap of the `n` smallest packed `(key, row)` integers, where
    /// almost every row is one compare against the heap's largest, and
    /// only the kept `n` are sorted. Plain strings sort every row and cut.
    fn top_n(&self, order: SortOrder, n: usize) -> Vec<u32> {
        let len = self.len();
        let descending = order == SortOrder::Descending;
        match &self.repr {
            KeyRepr::Fixed(k) if n < len => {
                let mut heap: BinaryHeap<u128> =
                    (0..n as u32).map(|r| packed(k, r, descending)).collect();
                for r in n as u32..len as u32 {
                    let key = packed(k, r, descending);
                    if let Some(mut largest) = heap.peek_mut() {
                        if key < *largest {
                            *largest = key;
                        }
                    }
                }
                let mut kept = heap.into_vec();
                kept.sort_unstable();
                kept.into_iter().map(|packed| packed as u32).collect()
            }
            _ => {
                let mut run = self.sort_range(order, 0, len as u32);
                run.truncate(n);
                run
            }
        }
    }

    /// Merges two sorted index runs, breaking key ties by row index so the
    /// result is ordered by `(key under order, row ascending)` — merging
    /// per-morsel runs therefore reproduces the stable full sort
    /// bit-for-bit, independent of how rows were split into runs.
    pub fn merge(&self, order: SortOrder, a: &[u32], b: &[u32]) -> Vec<u32> {
        let dir = |ord: std::cmp::Ordering| match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        };
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if dir(self.cmp_rows(x, y)).then(x.cmp(&y)) != std::cmp::Ordering::Greater {
                out.push(x);
                i += 1;
            } else {
                out.push(y);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }
}

#[cfg(test)]
mod kernel_extension_tests {
    use super::tests::chained_hashes;
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Field, Schema};

    #[test]
    fn sort_numeric_with_nulls() {
        let col = Array::from_opt_f64(vec![Some(3.0), None, Some(1.0), Some(2.0)]);
        let asc = sort_to_indices(&col, SortOrder::Ascending);
        let order: Vec<i64> = (0..4)
            .map(|i| match asc.value_at(i) {
                Value::I64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3, 0]); // null, 1.0, 2.0, 3.0
        let desc = sort_to_indices(&col, SortOrder::Descending);
        assert_eq!(desc.value_at(0), Value::I64(0));
        assert_eq!(desc.value_at(3), Value::I64(1)); // null last
    }

    #[test]
    fn sort_strings() {
        let col = Array::from_utf8(&["pear", "apple", "fig"]);
        let idx = sort_to_indices(&col, SortOrder::Ascending);
        assert_eq!(idx.value_at(0), Value::I64(1));
        assert_eq!(idx.value_at(2), Value::I64(0));
    }

    #[test]
    fn sort_feeds_take() {
        let schema = Schema::new(vec![Field::new("v", DataType::Int64, false)]);
        let b = RecordBatch::try_new(schema, vec![Array::from_i64(vec![9, 1, 5])]).unwrap();
        let idx = sort_to_indices(b.column(0), SortOrder::Ascending);
        let sorted = take(&b, &idx).unwrap();
        assert_eq!(sorted.column(0).value_at(0), Value::I64(1));
        assert_eq!(sorted.column(0).value_at(2), Value::I64(9));
    }

    #[test]
    fn sort_float_with_nan_is_total_and_deterministic() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` is not a total
        // order with NaN present — `sort_by` may panic or place NaN
        // arbitrarily. `total_cmp` sorts NaN after +inf, before nothing.
        let col = Array::from_opt_f64(vec![
            Some(f64::NAN),
            Some(1.0),
            None,
            Some(f64::INFINITY),
            Some(-1.0),
            Some(f64::NAN),
            Some(f64::NEG_INFINITY),
        ]);
        let asc = sort_to_indices(&col, SortOrder::Ascending);
        let order: Vec<i64> = (0..7)
            .map(|i| match asc.value_at(i) {
                Value::I64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        // null, -inf, -1, 1, +inf, NaN, NaN (stable: row 0 before row 5).
        assert_eq!(order, vec![2, 6, 4, 1, 3, 0, 5]);
        // Descending is the exact reverse ordering rule, still total.
        let desc = sort_to_indices(&col, SortOrder::Descending);
        assert_eq!(desc.value_at(0), Value::I64(0)); // first NaN (stable)
        assert_eq!(desc.value_at(6), Value::I64(2)); // null last
                                                     // Deterministic across invocations.
        assert_eq!(asc, sort_to_indices(&col, SortOrder::Ascending));
    }

    #[test]
    fn i64_f64_key_eq_is_exact_at_the_2_53_boundary() {
        let b = 1i64 << 53;
        // Exactly representable values match their float twins...
        assert!(i64_f64_key_eq(b, b as f64));
        assert!(i64_f64_key_eq(0, 0.0));
        assert!(i64_f64_key_eq(-7, -7.0));
        // ...but 2^53 + 1 rounds to 2^53 as f64 and must NOT match.
        assert!(!i64_f64_key_eq(b + 1, (b + 1) as f64));
        assert!(!i64_f64_key_eq(b + 1, b as f64));
        // Saturation edge: 2^63 as f64 is one past i64::MAX.
        assert!(!i64_f64_key_eq(i64::MAX, i64::MAX as f64));
        assert!(i64_f64_key_eq(i64::MIN, i64::MIN as f64));
        // Non-integers, NaN, infinities, and -0.0 (bit-level, consistent
        // with the coerced hash) never match.
        assert!(!i64_f64_key_eq(1, 1.5));
        assert!(!i64_f64_key_eq(0, f64::NAN));
        assert!(!i64_f64_key_eq(i64::MAX, f64::INFINITY));
        assert!(!i64_f64_key_eq(0, -0.0));
    }

    fn dict_pair(vals: &[Option<&'static str>]) -> (Array, Array) {
        (
            Array::from_opt_utf8(vals.to_vec()),
            Array::from_opt_dict_utf8(vals.to_vec()),
        )
    }

    #[test]
    fn dict_cmp_scalar_matches_plain() {
        let vals = [
            Some("b"),
            Some("a"),
            None,
            Some(""),
            Some("b"),
            Some("naïve"),
        ];
        let (plain, dict) = dict_pair(&vals);
        for needle in ["", "a", "b", "zz", "naïve"] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let want = cmp_scalar(&plain, op, &Value::Str(needle.into())).unwrap();
                let got = cmp_scalar(&dict, op, &Value::Str(needle.into())).unwrap();
                assert_eq!(got, want, "{op:?} {needle:?}");
            }
        }
        // All-null dict column (empty dictionary) must not panic.
        let all_null = Array::from_opt_dict_utf8(vec![None, None]);
        let m = cmp_scalar(&all_null, CmpOp::Lt, &Value::Str("x".into())).unwrap();
        assert_eq!(m.value_at(0), Value::Null);
    }

    #[test]
    fn dict_hashes_match_plain_bit_for_bit() {
        let vals = [Some("a"), None, Some(""), Some("xyz"), Some("a")];
        let (plain, dict) = dict_pair(&vals);
        assert_eq!(hash_key_column(&dict), hash_key_column(&plain));
        // Multi-column row hashes chain identically.
        let schema_p = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("s", DataType::Utf8, true),
        ]);
        let schema_d = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("s", DataType::DictUtf8, true),
        ]);
        let ints = Array::from_i64(vec![1, 2, 3, 4, 5]);
        let bp = RecordBatch::try_new(schema_p, vec![ints.clone(), plain]).unwrap();
        let bd = RecordBatch::try_new(schema_d, vec![ints, dict]).unwrap();
        assert_eq!(chained_hashes(&bp, &[0, 1]), chained_hashes(&bd, &[0, 1]));
        assert_eq!(chained_hashes(&bp, &[1]), chained_hashes(&bd, &[1]));
    }

    #[test]
    fn sorted_run_merge_reproduces_full_stable_sort() {
        // Split rows into uneven runs, sort each range, merge pairwise in
        // arbitrary order: the result must equal the one-shot stable sort
        // for every type, with nulls, NaN, extremes and duplicate keys
        // present — and the one-shot sort must equal a stable comparator
        // sort over `Value`s, which shares nothing with the packed keys.
        let cols = vec![
            Array::from_opt_i64(
                (0..97)
                    .map(|i| match i % 7 {
                        0 => None,
                        1 => Some(i64::MIN),
                        2 => Some(i64::MAX),
                        _ => Some(i % 5 - 2),
                    })
                    .collect(),
            ),
            Array::from_opt_f64(
                (0..97)
                    .map(|i| match i % 9 {
                        0 => None,
                        1 => Some(f64::NAN),
                        2 => Some(-0.0),
                        3 => Some(-f64::NAN),
                        4 => Some(f64::NEG_INFINITY),
                        _ => Some(((i * 13) % 11) as f64 - 5.0),
                    })
                    .collect(),
            ),
            Array::from_opt_bool(
                (0..97)
                    .map(|i| (i % 4 != 0).then_some(i % 3 == 0))
                    .collect(),
            ),
            Array::from_opt_utf8(
                (0..97)
                    .map(|i| [None, Some("a"), Some(""), Some("bb"), Some("a")][i % 5])
                    .collect::<Vec<_>>(),
            ),
            Array::from_opt_dict_utf8(
                (0..97)
                    .map(|i| [Some("x"), None, Some("m"), Some("x"), Some("")][i % 5])
                    .collect::<Vec<_>>(),
            ),
        ];
        let reference_cmp = |a: &Value, b: &Value| match (a, b) {
            (Value::Null, Value::Null) => std::cmp::Ordering::Equal,
            (Value::Null, _) => std::cmp::Ordering::Less,
            (_, Value::Null) => std::cmp::Ordering::Greater,
            (Value::I64(x), Value::I64(y)) => x.cmp(y),
            (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            _ => unreachable!("one type per column"),
        };
        for col in &cols {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let mut reference: Vec<i64> = (0..97).collect();
                reference.sort_by(|&x, &y| {
                    let ord = reference_cmp(&col.value_at(x as usize), &col.value_at(y as usize));
                    match order {
                        SortOrder::Ascending => ord,
                        SortOrder::Descending => ord.reverse(),
                    }
                });
                assert_eq!(
                    sort_to_indices(col, order),
                    Array::from_i64(reference),
                    "{:?} {order:?}",
                    col.data_type()
                );
                let keys = SortKeys::new(col);
                let bounds = [0u32, 10, 11, 40, 96, 97];
                let mut runs: Vec<Vec<u32>> = bounds
                    .windows(2)
                    .map(|w| keys.sort_range(order, w[0], w[1]))
                    .collect();
                // Merge in a non-left-to-right order to show the merge
                // tree shape doesn't matter.
                while runs.len() > 1 {
                    let b = runs.pop().unwrap();
                    let a = runs.remove(0);
                    runs.push(keys.merge(order, &a, &b));
                }
                let merged: Vec<i64> = runs.pop().unwrap().into_iter().map(i64::from).collect();
                assert_eq!(
                    Array::from_i64(merged),
                    sort_to_indices(col, order),
                    "{:?} {order:?}",
                    col.data_type()
                );
            }
        }
    }

    #[test]
    fn mask_to_indices_word_scan_matches_naive() {
        // Cross word boundaries, with and without validity, and with an
        // `all_set` values bitmap whose padding bits are set.
        for n in [0usize, 1, 63, 64, 65, 127, 130, 517] {
            let bools: Vec<bool> = (0..n).map(|i| (i * 11 + 3) % 7 < 3).collect();
            let plain = Array::from_bool(&bools);
            let want: Vec<usize> = (0..n).filter(|&i| bools[i]).collect();
            assert_eq!(mask_to_indices(&plain).unwrap(), want, "plain n={n}");

            let opts: Vec<Option<bool>> = (0..n)
                .map(|i| match (i * 5 + 1) % 4 {
                    0 => None,
                    k => Some(k % 2 == 0 && bools[i]),
                })
                .collect();
            let masked = Array::from_opt_bool(opts.clone());
            let want: Vec<usize> = (0..n).filter(|&i| opts[i] == Some(true)).collect();
            assert_eq!(mask_to_indices(&masked).unwrap(), want, "valid n={n}");

            let all = Array::from(BoolArray::from_parts(Bitmap::all_set(n), None));
            assert_eq!(
                mask_to_indices(&all).unwrap(),
                (0..n).collect::<Vec<_>>(),
                "all_set n={n}"
            );
        }
    }

    /// A splitmix64 draw below `n`: each top-N case is a pure function of
    /// its seed.
    fn draw(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// Up to 40 rows over small domains, so keys repeat: a nullable key
    /// column per encoding — floats holding NaN and both zeros — and the
    /// row number, which shows where every row went.
    fn top_n_batch(seed: u64) -> RecordBatch {
        let mut s = seed;
        let n = draw(&mut s, 41) as usize;
        let mut pick = |k: u64| -> Vec<Option<usize>> {
            (0..n)
                .map(|_| (draw(&mut s, 5) != 0).then(|| draw(&mut s, k) as usize))
                .collect()
        };
        let (ints, floats, bools, strs, dicts) = (pick(4), pick(5), pick(2), pick(4), pick(4));
        const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.0, 2.5, f64::NEG_INFINITY];
        const WORDS: [&str; 4] = ["", "b", "a", "ab"];
        let words = |v: &[Option<usize>]| v.iter().map(|w| w.map(|w| WORDS[w])).collect::<Vec<_>>();
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("i", DataType::Int64, true),
                Field::new("f", DataType::Float64, true),
                Field::new("b", DataType::Bool, true),
                Field::new("s", DataType::Utf8, true),
                Field::new("d", DataType::DictUtf8, true),
                Field::new("row", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(ints.iter().map(|v| v.map(|v| v as i64 - 1)).collect()),
                Array::from_opt_f64(floats.iter().map(|v| v.map(|v| FLOATS[v])).collect()),
                Array::from_opt_bool(bools.iter().map(|v| v.map(|v| v == 1)).collect()),
                Array::from_opt_utf8(words(&strs)),
                Array::from_opt_dict_utf8(words(&dicts)),
                Array::from_i64((0..n as i64).collect()),
            ],
        )
        .unwrap()
    }

    /// `top_n` against the stable sort of every row cut at `n`, as
    /// frames, for every key column, both orders and the cuts that
    /// matter: none, one row, inside a run of equal keys, one short, all,
    /// past the end. Returns how many cuts fell inside a run.
    fn check_top_n(seed: u64) -> usize {
        let batch = top_n_batch(seed);
        let len = batch.num_rows();
        let mut inside_runs = 0;
        for name in ["i", "f", "b", "s", "d"] {
            let col = batch.column_by_name(name).unwrap();
            let keys = SortKeys::new(col);
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let sorted = take(&batch, &sort_to_indices(col, order)).unwrap();
                let perm = keys.sort_range(order, 0, len as u32);
                let tie = (1..len).find(|&i| keys.cmp_rows(perm[i - 1], perm[i]).is_eq());
                inside_runs += tie.is_some() as usize;
                let cuts = [
                    Some(0),
                    Some(1),
                    tie,
                    len.checked_sub(1),
                    Some(len),
                    Some(len + 5),
                ];
                for n in cuts.into_iter().flatten() {
                    let got = top_n(&batch, name, order, n).unwrap();
                    let want = sorted.slice(0, n.min(len));
                    assert_eq!(
                        crate::ipc::encode(&got).as_slice(),
                        crate::ipc::encode(&want).as_slice(),
                        "seed {seed}: {name} {order:?} n={n} of {len}"
                    );
                }
            }
        }
        inside_runs
    }

    #[test]
    fn top_n_cuts_inside_runs_of_equal_keys() {
        let cut = (0..64).map(check_top_n).sum::<usize>();
        assert!(
            cut >= 64 * 5,
            "only {cut} cuts fell inside a run of equal keys"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn prop_top_n_equals_stable_sort_then_truncate(seed in proptest::prelude::any::<u64>()) {
            check_top_n(seed);
        }
    }

    #[test]
    fn dict_sort_matches_plain() {
        let vals = [
            Some("pear"),
            None,
            Some("apple"),
            Some("fig"),
            Some("apple"),
            Some(""),
        ];
        let (plain, dict) = dict_pair(&vals);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            assert_eq!(
                sort_to_indices(&dict, order),
                sort_to_indices(&plain, order),
                "{order:?}"
            );
        }
    }
}
