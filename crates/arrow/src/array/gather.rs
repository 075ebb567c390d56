//! The multi-source gather: rows picked from several arrays of one type
//! into one array, in the order picked (see
//! [`Array::gather`](super::Array::gather)). A shard's input is
//! assembled with it from the rows a shuffle selected out of each
//! producer's output. Each value's bytes move once, from its source
//! buffer straight into the output's, one fixed-width copy per row with
//! no branch on the data: shuffled rows come one or two at a time, and
//! copying stretches of consecutive rows instead measured 2.5x slower
//! (16,652 rows picked from four 16,384-row parts, 63 against 25 µs on a
//! 2-vCPU host).

use super::{normal_validity, BoolArray, DictBuilder, DictUtf8Array, PrimitiveArray, Utf8Array};
use crate::buffer::{Bitmap, Buffer, Native};

/// Validity of the picked rows; `None` when none is null.
fn picked_validity(validity: &[Option<&Bitmap>], picks: &[(u32, u32)]) -> Option<Bitmap> {
    if validity.iter().all(Option::is_none) {
        return None;
    }
    let valid: Vec<bool> = picks
        .iter()
        .map(|&(p, r)| validity[p as usize].is_none_or(|v| v.get(r as usize)))
        .collect();
    normal_validity(&valid)
}

impl<T: Native> PrimitiveArray<T> {
    /// The picked rows' stored bytes, in the order picked.
    pub(crate) fn gather(parts: &[&Self], picks: &[(u32, u32)]) -> Self {
        let srcs: Vec<&[u8]> = parts.iter().map(|p| p.values.as_slice()).collect();
        let mut raw = Vec::with_capacity(picks.len() * T::WIDTH);
        for &(p, r) in picks {
            let at = r as usize * T::WIDTH;
            raw.extend_from_slice(&srcs[p as usize][at..at + T::WIDTH]);
        }
        let validity: Vec<_> = parts.iter().map(|p| p.validity()).collect();
        Self::from_raw(Buffer::from_vec(raw), picked_validity(&validity, picks))
    }
}

impl BoolArray {
    /// The picked rows' bits, in the order picked.
    pub(crate) fn gather(parts: &[&BoolArray], picks: &[(u32, u32)]) -> BoolArray {
        let bits: Vec<bool> = picks
            .iter()
            .map(|&(p, r)| parts[p as usize].values.get(r as usize))
            .collect();
        let validity: Vec<_> = parts.iter().map(|p| p.validity()).collect();
        BoolArray {
            values: Bitmap::from_bools(&bits),
            validity: picked_validity(&validity, picks),
        }
    }
}

impl Utf8Array {
    /// The picked rows' string bytes, in the order picked, into data
    /// sized from the parts' mean row length.
    pub(crate) fn gather(parts: &[&Utf8Array], picks: &[(u32, u32)]) -> Utf8Array {
        let srcs: Vec<(&[u8], &[u8])> = parts
            .iter()
            .map(|p| (p.offsets.as_slice(), p.data.as_slice()))
            .collect();
        let (rows, bytes) = parts
            .iter()
            .fold((0, 0), |(n, b), p| (n + p.len(), b + p.data.len()));
        let mut offsets: Vec<i32> = Vec::with_capacity(picks.len() + 1);
        offsets.push(0);
        let mut data: Vec<u8> = Vec::with_capacity(picks.len() * bytes / rows.max(1));
        for &(p, r) in picks {
            let (offsets_at, src) = srcs[p as usize];
            let at = |i: usize| <i32 as Native>::from_le(&offsets_at[i * 4..i * 4 + 4]) as usize;
            let r = r as usize;
            data.extend_from_slice(&src[at(r)..at(r + 1)]);
            let end = i32::try_from(data.len()).expect("utf8 data exceeds 2 GiB");
            offsets.push(end);
        }
        let validity: Vec<_> = parts.iter().map(|p| p.validity()).collect();
        let validity = picked_validity(&validity, picks);
        Self::from_raw(offsets.into(), Buffer::from_vec(data), validity)
    }
}

impl DictUtf8Array {
    /// The picked rows' keys, in the order picked, remapped into one
    /// merged dictionary: the entries the picked rows use, in order of
    /// first appearance over the parts in order and each part's rows
    /// ascending — whatever order the rows are picked in — which is the
    /// dictionary [`DictUtf8Array::concat`] builds for the picked rows
    /// laid end to end part by part. Each entry is hashed once.
    pub(crate) fn gather(parts: &[&DictUtf8Array], picks: &[(u32, u32)]) -> DictUtf8Array {
        // Every part's entries numbered in one space, part by part: entry
        // `k` of part `p` is `base[p] + k`, owned by `(p, k)`.
        let mut base: Vec<u32> = Vec::with_capacity(parts.len());
        let mut owner: Vec<(usize, u32)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            base.push(owner.len() as u32);
            owner.extend((0..part.dict.len() as u32).map(|k| (p, k)));
        }
        let srcs: Vec<&[u8]> = parts.iter().map(|p| p.keys.values.as_slice()).collect();
        let global = |&(p, r): &(u32, u32)| {
            let (p, r) = (p as usize, r as usize);
            (base[p] + <u32 as Native>::from_le(&srcs[p][r * 4..r * 4 + 4])) as usize
        };
        let validity: Vec<_> = parts.iter().map(|p| p.validity()).collect();
        let validity = picked_validity(&validity, picks);
        // A null row's placeholder key names no entry: it is never merged
        // and keeps the placeholder.
        let valid = |i: usize| validity.as_ref().is_none_or(|v| v.get(i));
        let mut merged = DictBuilder::default();
        let mut remap = vec![u32::MAX; owner.len()];
        if !picks.is_sorted_by_key(|&(p, r)| (p as u64) << 32 | r as u64) {
            // Out of (part, row) order: each entry merges up front, in
            // the order of the parts and of its first row in its part.
            let mut first = vec![u32::MAX; owner.len()];
            for (i, pick) in picks.iter().enumerate() {
                if valid(i) {
                    let g = global(pick);
                    first[g] = first[g].min(pick.1);
                }
            }
            let mut seen: Vec<usize> = (0..owner.len()).filter(|&g| first[g] != u32::MAX).collect();
            seen.sort_by_key(|&g| (owner[g].0, first[g]));
            for g in seen {
                let (p, k) = owner[g];
                remap[g] = merged.key_of(parts[p].entry(k));
            }
        }
        // In (part, row) order an entry merges where it first appears.
        let mut keys: Vec<u32> = Vec::with_capacity(picks.len());
        for (i, pick) in picks.iter().enumerate() {
            let key = if valid(i) {
                let g = global(pick);
                if remap[g] == u32::MAX {
                    let (p, k) = owner[g];
                    remap[g] = merged.key_of(parts[p].entry(k));
                }
                remap[g]
            } else {
                0
            };
            keys.push(key);
        }
        DictUtf8Array {
            keys: PrimitiveArray::from_raw(keys.into(), validity),
            dict: Utf8Array::new(&merged.entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;

    #[test]
    fn a_gather_of_every_row_in_order_is_the_concatenation() {
        let a = Array::from_opt_dict_utf8(vec![Some("x"), None, Some("y")]);
        let b = Array::from_opt_dict_utf8(vec![Some("z"), Some("x")]);
        let picks = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)];
        let got = Array::gather(&[&a, &b], &picks).unwrap();
        let want = Array::concat(&[&a, &b]).unwrap();
        let dict = |a: &Array| a.as_dict_utf8().unwrap().dictionary().clone();
        assert_eq!(got, want);
        assert_eq!(dict(&got), dict(&want));
        // Picked in another order, the dictionary is still by part, then
        // by row: x, y, z.
        let got = Array::gather(&[&a, &b], &[(1, 0), (0, 2), (1, 1), (0, 0)]).unwrap();
        assert_eq!(dict(&got), Utf8Array::new(&["x", "y", "z"]));
        assert_eq!(got, Array::from_dict_utf8(&["z", "y", "x", "x"]));
    }
}
