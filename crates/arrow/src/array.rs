//! Typed columnar arrays.
//!
//! Arrays are immutable and buffer-backed; cloning is cheap. Nullability
//! is canonical: an array with no nulls stores `validity = None`, so two
//! logically-equal arrays built by different paths (builder, IPC decode,
//! kernel output) compare equal.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::buffer::{Bitmap, Buffer};
use crate::datatype::DataType;
use crate::error::ArrowError;

fn check_range(lo: usize, hi: usize, len: usize) {
    assert!(
        lo <= hi && hi <= len,
        "range {lo}..{hi} out of bounds for {len}"
    );
}

/// Validity of rows `lo..hi`: `None` when the range holds no null, the
/// normal form every constructor produces.
fn slice_validity(validity: Option<&Bitmap>, lo: usize, hi: usize) -> Option<Bitmap> {
    let v = validity?.slice(lo, hi);
    (v.count_set() < v.len()).then_some(v)
}

/// Validity of parts laid end to end, each `(validity, rows)`; `None`
/// when no part holds a null.
fn concat_validity(parts: &[(Option<&Bitmap>, usize)]) -> Option<Bitmap> {
    if parts.iter().all(|(v, _)| v.is_none()) {
        return None;
    }
    let runs: Vec<_> = parts.iter().map(|&(v, rows)| (v, 0, rows)).collect();
    let v = Bitmap::from_runs(&runs);
    (v.count_set() < v.len()).then_some(v)
}

/// The first `rows * width` bytes of each buffer, appended.
fn concat_fixed(parts: &[(&Buffer, usize)], width: usize) -> Buffer {
    let rows: usize = parts.iter().map(|p| p.1).sum();
    let mut raw = Vec::with_capacity(rows * width);
    for (values, rows) in parts {
        raw.extend_from_slice(&values.as_slice()[..rows * width]);
    }
    Buffer::from_vec(raw)
}

/// One dynamically-typed value, used at the row-oriented edges of the
/// system (the marshalling baseline, tests, display).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A fixed-width 64-bit integer array.
#[derive(Debug, Clone, PartialEq)]
pub struct Int64Array {
    values: Buffer,
    validity: Option<Bitmap>,
    len: usize,
}

impl Int64Array {
    /// Builds from values with no nulls.
    pub fn new(values: Vec<i64>) -> Self {
        let len = values.len();
        Int64Array {
            values: values.into(),
            validity: None,
            len,
        }
    }

    /// Builds from optional values.
    pub fn from_options(values: Vec<Option<i64>>) -> Self {
        let len = values.len();
        let mut raw = Vec::with_capacity(len);
        let mut valid = Vec::with_capacity(len);
        let mut any_null = false;
        for v in values {
            match v {
                Some(x) => {
                    raw.push(x);
                    valid.push(true);
                }
                None => {
                    raw.push(0);
                    valid.push(false);
                    any_null = true;
                }
            }
        }
        Int64Array {
            values: raw.into(),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len,
        }
    }

    /// Reconstructs from raw parts (IPC decode).
    pub fn from_parts(values: Buffer, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(values.len() >= len * 8, "values buffer too short");
        Int64Array {
            values,
            validity,
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<i64> {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(self.values.get_i64(i)),
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<i64>> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates the raw values without consulting validity (null slots
    /// yield their placeholder `0`). The vectorized kernels pair this
    /// with [`Int64Array::validity`] to keep the inner loop branch-free.
    pub fn iter_raw(&self) -> impl Iterator<Item = i64> + '_ {
        self.values.iter_i64(self.len)
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Int64Array {
        match &self.validity {
            None => {
                let raw: Vec<i64> = indices
                    .iter()
                    .map(|&i| {
                        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
                        self.values.get_i64(i)
                    })
                    .collect();
                Int64Array::new(raw)
            }
            Some(v) => {
                let mut raw = Vec::with_capacity(indices.len());
                let mut valid = Vec::with_capacity(indices.len());
                let mut any_null = false;
                for &i in indices {
                    assert!(i < self.len, "index {i} out of bounds for {}", self.len);
                    if v.get(i) {
                        raw.push(self.values.get_i64(i));
                        valid.push(true);
                    } else {
                        raw.push(0);
                        valid.push(false);
                        any_null = true;
                    }
                }
                Int64Array {
                    values: raw.into(),
                    validity: any_null.then(|| Bitmap::from_bools(&valid)),
                    len: indices.len(),
                }
            }
        }
    }

    /// Rows `lo..hi` as a view: the values alias this array's buffer.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Int64Array {
        check_range(lo, hi, self.len);
        Int64Array {
            values: self.values.slice(lo * 8, (hi - lo) * 8),
            validity: slice_validity(self.validity.as_ref(), lo, hi),
            len: hi - lo,
        }
    }

    /// The parts laid end to end, raw buffers appended.
    pub(crate) fn concat(parts: &[&Int64Array]) -> Int64Array {
        let values: Vec<_> = parts.iter().map(|p| (&p.values, p.len)).collect();
        let validity: Vec<_> = parts.iter().map(|p| (p.validity.as_ref(), p.len)).collect();
        Int64Array {
            values: concat_fixed(&values, 8),
            validity: concat_validity(&validity),
            len: parts.iter().map(|p| p.len).sum(),
        }
    }

    /// The raw values buffer.
    pub fn values(&self) -> &Buffer {
        &self.values
    }

    /// The validity bitmap, if any value is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

/// A fixed-width 64-bit float array.
#[derive(Debug, Clone, PartialEq)]
pub struct Float64Array {
    values: Buffer,
    validity: Option<Bitmap>,
    len: usize,
}

impl Float64Array {
    /// Builds from values with no nulls.
    pub fn new(values: Vec<f64>) -> Self {
        let len = values.len();
        Float64Array {
            values: values.into(),
            validity: None,
            len,
        }
    }

    /// Builds from optional values.
    pub fn from_options(values: Vec<Option<f64>>) -> Self {
        let len = values.len();
        let mut raw = Vec::with_capacity(len);
        let mut valid = Vec::with_capacity(len);
        let mut any_null = false;
        for v in values {
            match v {
                Some(x) => {
                    raw.push(x);
                    valid.push(true);
                }
                None => {
                    raw.push(0.0);
                    valid.push(false);
                    any_null = true;
                }
            }
        }
        Float64Array {
            values: raw.into(),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len,
        }
    }

    /// Reconstructs from raw parts (IPC decode).
    pub fn from_parts(values: Buffer, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(values.len() >= len * 8, "values buffer too short");
        Float64Array {
            values,
            validity,
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<f64> {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(self.values.get_f64(i)),
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates the raw values without consulting validity (null slots
    /// yield their placeholder `0.0`).
    pub fn iter_raw(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter_f64(self.len)
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Float64Array {
        match &self.validity {
            None => {
                let raw: Vec<f64> = indices
                    .iter()
                    .map(|&i| {
                        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
                        self.values.get_f64(i)
                    })
                    .collect();
                Float64Array::new(raw)
            }
            Some(v) => {
                let mut raw = Vec::with_capacity(indices.len());
                let mut valid = Vec::with_capacity(indices.len());
                let mut any_null = false;
                for &i in indices {
                    assert!(i < self.len, "index {i} out of bounds for {}", self.len);
                    if v.get(i) {
                        raw.push(self.values.get_f64(i));
                        valid.push(true);
                    } else {
                        raw.push(0.0);
                        valid.push(false);
                        any_null = true;
                    }
                }
                Float64Array {
                    values: raw.into(),
                    validity: any_null.then(|| Bitmap::from_bools(&valid)),
                    len: indices.len(),
                }
            }
        }
    }

    /// Rows `lo..hi` as a view: the values alias this array's buffer.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Float64Array {
        check_range(lo, hi, self.len);
        Float64Array {
            values: self.values.slice(lo * 8, (hi - lo) * 8),
            validity: slice_validity(self.validity.as_ref(), lo, hi),
            len: hi - lo,
        }
    }

    /// The parts laid end to end, raw buffers appended.
    pub(crate) fn concat(parts: &[&Float64Array]) -> Float64Array {
        let values: Vec<_> = parts.iter().map(|p| (&p.values, p.len)).collect();
        let validity: Vec<_> = parts.iter().map(|p| (p.validity.as_ref(), p.len)).collect();
        Float64Array {
            values: concat_fixed(&values, 8),
            validity: concat_validity(&validity),
            len: parts.iter().map(|p| p.len).sum(),
        }
    }

    /// The raw values buffer.
    pub fn values(&self) -> &Buffer {
        &self.values
    }

    /// The validity bitmap, if any value is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

/// A bit-packed boolean array.
#[derive(Debug, Clone, PartialEq)]
pub struct BoolArray {
    values: Bitmap,
    validity: Option<Bitmap>,
}

impl BoolArray {
    /// Builds from values with no nulls.
    pub fn new(values: &[bool]) -> Self {
        BoolArray {
            values: Bitmap::from_bools(values),
            validity: None,
        }
    }

    /// Builds from optional values.
    pub fn from_options(values: Vec<Option<bool>>) -> Self {
        let raw: Vec<bool> = values.iter().map(|v| v.unwrap_or(false)).collect();
        let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
        let any_null = valid.iter().any(|v| !v);
        BoolArray {
            values: Bitmap::from_bools(&raw),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
        }
    }

    /// Reconstructs from raw parts (IPC decode).
    pub fn from_parts(values: Bitmap, validity: Option<Bitmap>) -> Self {
        BoolArray { values, validity }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<bool> {
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(self.values.get(i)),
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<bool>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    pub fn take_rows(&self, indices: &[usize]) -> BoolArray {
        let opts: Vec<Option<bool>> = indices.iter().map(|&i| self.get(i)).collect();
        BoolArray::from_options(opts)
    }

    /// Rows `lo..hi` as an array of their own.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> BoolArray {
        check_range(lo, hi, self.len());
        BoolArray {
            values: self.values.slice(lo, hi),
            validity: slice_validity(self.validity.as_ref(), lo, hi),
        }
    }

    /// The parts laid end to end, bits appended.
    pub(crate) fn concat(parts: &[&BoolArray]) -> BoolArray {
        let values: Vec<_> = parts
            .iter()
            .map(|p| (Some(&p.values), 0, p.len()))
            .collect();
        let validity: Vec<_> = parts
            .iter()
            .map(|p| (p.validity.as_ref(), p.len()))
            .collect();
        BoolArray {
            values: Bitmap::from_runs(&values),
            validity: concat_validity(&validity),
        }
    }

    /// The packed value bits.
    pub fn values(&self) -> &Bitmap {
        &self.values
    }

    /// The validity bitmap, if any value is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

/// The dictionary encoding of a [`Utf8Array`], computed on first use and
/// shared by every clone of the array: a registered table pays for it
/// once, not once per scan shard per query. Holds `None` when the column
/// is not worth encoding. Never part of the array's value: any two memos
/// compare equal.
#[derive(Clone, Default)]
struct DictMemo(Arc<OnceLock<Option<DictUtf8Array>>>);

impl PartialEq for DictMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for DictMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "DictMemo(set)"
        } else {
            "DictMemo(unset)"
        })
    }
}

/// A UTF-8 string array with 32-bit offsets (Arrow `Utf8` layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Utf8Array {
    /// `len + 1` little-endian i32 offsets into `data`.
    offsets: Buffer,
    data: Buffer,
    validity: Option<Bitmap>,
    len: usize,
    dict: DictMemo,
}

impl Utf8Array {
    /// Builds from string slices with no nulls.
    pub fn new<S: AsRef<str>>(values: &[S]) -> Self {
        Self::from_options_impl(values.iter().map(|s| Some(s.as_ref())))
    }

    /// Builds from optional string slices.
    pub fn from_options<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        Self::from_options_impl(values.into_iter())
    }

    fn from_options_impl<'a>(values: impl Iterator<Item = Option<&'a str>>) -> Self {
        let mut offsets: Vec<i32> = vec![0];
        let mut data: Vec<u8> = Vec::new();
        let mut valid: Vec<bool> = Vec::new();
        let mut any_null = false;
        for v in values {
            match v {
                Some(s) => {
                    data.extend_from_slice(s.as_bytes());
                    valid.push(true);
                }
                None => {
                    valid.push(false);
                    any_null = true;
                }
            }
            let end = i32::try_from(data.len()).expect("utf8 data exceeds 2 GiB");
            offsets.push(end);
        }
        let len = valid.len();
        Utf8Array {
            offsets: offsets.into(),
            data: Buffer::from_vec(data),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len,
            dict: DictMemo::default(),
        }
    }

    /// Reconstructs from raw parts (IPC decode).
    pub fn from_parts(offsets: Buffer, data: Buffer, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(offsets.len() >= (len + 1) * 4, "offsets buffer too short");
        Utf8Array {
            offsets,
            data,
            validity,
            len,
            dict: DictMemo::default(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<&str> {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => {
                let start = self.offsets.get_i32(i) as usize;
                let end = self.offsets.get_i32(i + 1) as usize;
                Some(
                    std::str::from_utf8(&self.data.as_slice()[start..end])
                        .expect("invariant: utf8 data"),
                )
            }
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Gathers the rows at `indices` into a new array (typed `take`):
    /// string bytes are copied slice-to-slice, never through an owned
    /// `String`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Utf8Array {
        let mut offsets: Vec<i32> = Vec::with_capacity(indices.len() + 1);
        offsets.push(0);
        let mut data: Vec<u8> = Vec::new();
        let mut valid = Vec::with_capacity(indices.len());
        let mut any_null = false;
        let bytes = self.data.as_slice();
        for &i in indices {
            assert!(i < self.len, "index {i} out of bounds for {}", self.len);
            let is_valid = self.validity.as_ref().is_none_or(|v| v.get(i));
            if is_valid {
                let start = self.offsets.get_i32(i) as usize;
                let end = self.offsets.get_i32(i + 1) as usize;
                data.extend_from_slice(&bytes[start..end]);
                valid.push(true);
            } else {
                valid.push(false);
                any_null = true;
            }
            let end = i32::try_from(data.len()).expect("utf8 data exceeds 2 GiB");
            offsets.push(end);
        }
        Utf8Array {
            offsets: offsets.into(),
            data: Buffer::from_vec(data),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len: indices.len(),
            dict: DictMemo::default(),
        }
    }

    /// Rows `lo..hi` as a view: the string bytes alias this array's
    /// buffer; the offsets do too when the range starts at byte 0, and
    /// are rebased to it otherwise (the frame layout starts at 0).
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Utf8Array {
        check_range(lo, hi, self.len);
        let start = self.offsets.get_i32(lo);
        let end = self.offsets.get_i32(hi);
        let offsets = if start == 0 {
            self.offsets.slice(lo * 4, (hi - lo + 1) * 4)
        } else {
            let rebased: Vec<i32> = (lo..=hi).map(|i| self.offsets.get_i32(i) - start).collect();
            rebased.into()
        };
        Utf8Array {
            offsets,
            data: self.data.slice(start as usize, (end - start) as usize),
            validity: slice_validity(self.validity.as_ref(), lo, hi),
            len: hi - lo,
            dict: DictMemo::default(),
        }
    }

    /// The parts laid end to end: string bytes appended, offsets rebased.
    pub(crate) fn concat(parts: &[&Utf8Array]) -> Utf8Array {
        let span = |p: &Utf8Array| (p.offsets.get_i32(0), p.offsets.get_i32(p.len));
        let len: usize = parts.iter().map(|p| p.len).sum();
        let bytes: usize = parts.iter().map(|p| (span(p).1 - span(p).0) as usize).sum();
        i32::try_from(bytes).expect("utf8 data exceeds 2 GiB");
        let mut offsets: Vec<i32> = Vec::with_capacity(len + 1);
        offsets.push(0);
        let mut data: Vec<u8> = Vec::with_capacity(bytes);
        for p in parts {
            let (first, last) = span(p);
            let shift = data.len() as i32 - first;
            offsets.extend((1..=p.len).map(|i| p.offsets.get_i32(i) + shift));
            data.extend_from_slice(&p.data.as_slice()[first as usize..last as usize]);
        }
        let validity: Vec<_> = parts.iter().map(|p| (p.validity.as_ref(), p.len)).collect();
        Utf8Array {
            offsets: offsets.into(),
            data: Buffer::from_vec(data),
            validity: concat_validity(&validity),
            len,
            dict: DictMemo::default(),
        }
    }

    /// This column dictionary-encoded, if its cardinality is low enough
    /// to pay off: each entry repeats at least twice on average and the
    /// dictionary stays under [`DICT_MAX_CARDINALITY`]. Encoded at most
    /// once for this array and all its clones.
    fn dict_encoded(&self) -> Option<DictUtf8Array> {
        let memo = self.dict.0.get_or_init(|| {
            let d = DictUtf8Array::from_utf8(self);
            let distinct = d.dictionary().len();
            (distinct <= DICT_MAX_CARDINALITY && distinct * 2 <= self.len).then_some(d)
        });
        memo.clone()
    }

    /// The offsets buffer.
    pub fn offsets(&self) -> &Buffer {
        &self.offsets
    }

    /// The string data buffer.
    pub fn data(&self) -> &Buffer {
        &self.data
    }

    /// The validity bitmap, if any value is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

/// Dictionaries larger than this are not "low cardinality":
/// [`Array::dict_encoded`] falls back to plain `Utf8` beyond it.
pub const DICT_MAX_CARDINALITY: usize = 1 << 16;

/// A dictionary-encoded (LowCardinality) UTF-8 array: `u32` keys into a
/// deduplicated, never-null [`Utf8Array`] dictionary.
///
/// Logically identical to a plain [`Utf8Array`]; the encoding only
/// changes how kernels move the bytes — comparisons resolve against the
/// dictionary once and then touch only the fixed-width keys. Null slots
/// store the canonical placeholder key `0`.
#[derive(Debug, Clone)]
pub struct DictUtf8Array {
    /// `len` little-endian u32 keys into `dict`.
    keys: Buffer,
    dict: Utf8Array,
    validity: Option<Bitmap>,
    len: usize,
}

impl PartialEq for DictUtf8Array {
    /// Equality is *logical*: two dict arrays are equal when they decode
    /// to the same values, regardless of dictionary order or unused
    /// entries (a filtered array keeps its parent's dictionary; a rebuilt
    /// one starts fresh).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl DictUtf8Array {
    /// Builds from string slices with no nulls.
    pub fn new<S: AsRef<str>>(values: &[S]) -> Self {
        Self::from_options(values.iter().map(|s| Some(s.as_ref())))
    }

    /// Builds from optional string slices, deduplicating into a
    /// first-appearance-ordered dictionary.
    pub fn from_options<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        let mut map: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut entries: Vec<&str> = Vec::new();
        let mut keys: Vec<u32> = Vec::new();
        let mut valid: Vec<bool> = Vec::new();
        let mut any_null = false;
        for v in values {
            match v {
                Some(s) => {
                    let k = *map.entry(s).or_insert_with(|| {
                        entries.push(s);
                        u32::try_from(entries.len() - 1).expect("dictionary exceeds u32 keys")
                    });
                    keys.push(k);
                    valid.push(true);
                }
                None => {
                    keys.push(0);
                    valid.push(false);
                    any_null = true;
                }
            }
        }
        let len = keys.len();
        DictUtf8Array {
            keys: keys.into(),
            dict: Utf8Array::new(&entries),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len,
        }
    }

    /// Dictionary-encodes a plain array, whatever its cardinality.
    pub fn from_utf8(src: &Utf8Array) -> Self {
        Self::from_options(src.iter())
    }

    /// Reconstructs from raw parts (IPC decode). The dictionary must be
    /// null-free; callers are responsible for keys being in bounds.
    pub fn from_parts(keys: Buffer, dict: Utf8Array, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(keys.len() >= len * 4, "keys buffer too short");
        assert!(
            dict.validity().is_none(),
            "dictionary entries may not be null"
        );
        DictUtf8Array {
            keys,
            dict,
            validity,
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw key at `i` without consulting validity (null slots yield
    /// the placeholder `0`).
    pub fn key_at(&self, i: usize) -> u32 {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        self.keys.get_u32(i)
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<&str> {
        assert!(i < self.len, "index {i} out of bounds for {}", self.len);
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(
                self.dict
                    .get(self.keys.get_u32(i) as usize)
                    .expect("invariant: dictionary entries are never null"),
            ),
        }
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Gathers the rows at `indices` into a new array: only the
    /// fixed-width keys move; the dictionary is shared (O(1) clone).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> DictUtf8Array {
        let mut keys = Vec::with_capacity(indices.len());
        let mut valid = Vec::with_capacity(indices.len());
        let mut any_null = false;
        for &i in indices {
            assert!(i < self.len, "index {i} out of bounds for {}", self.len);
            if self.validity.as_ref().is_none_or(|v| v.get(i)) {
                keys.push(self.keys.get_u32(i));
                valid.push(true);
            } else {
                keys.push(0);
                valid.push(false);
                any_null = true;
            }
        }
        DictUtf8Array {
            keys: keys.into(),
            dict: self.dict.clone(),
            validity: any_null.then(|| Bitmap::from_bools(&valid)),
            len: indices.len(),
        }
    }

    /// Decodes back to a plain [`Utf8Array`].
    pub fn to_utf8(&self) -> Utf8Array {
        Utf8Array::from_options(self.iter())
    }

    /// Rows `lo..hi` as a view: the keys alias this array's buffer and
    /// the dictionary is shared whole.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> DictUtf8Array {
        check_range(lo, hi, self.len);
        DictUtf8Array {
            keys: self.keys.slice(lo * 4, (hi - lo) * 4),
            dict: self.dict.clone(),
            validity: slice_validity(self.validity.as_ref(), lo, hi),
            len: hi - lo,
        }
    }

    /// Concatenates several dict arrays, merging their dictionaries by
    /// first appearance and remapping keys (entries no row uses are
    /// dropped). Each part's entry is hashed once, not once per row.
    pub fn concat(parts: &[&DictUtf8Array]) -> DictUtf8Array {
        let len: usize = parts.iter().map(|p| p.len).sum();
        let mut merged: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut entries: Vec<&str> = Vec::new();
        let mut keys: Vec<u32> = Vec::with_capacity(len);
        for p in parts {
            // This part's key -> merged key, filled as entries first appear.
            let mut remap: Vec<Option<u32>> = vec![None; p.dict.len()];
            for i in 0..p.len {
                if p.validity.as_ref().is_some_and(|v| !v.get(i)) {
                    keys.push(0);
                    continue;
                }
                let k = p.keys.get_u32(i) as usize;
                let key = *remap[k].get_or_insert_with(|| {
                    let s = p
                        .dict
                        .get(k)
                        .expect("invariant: dictionary entries are never null");
                    *merged.entry(s).or_insert_with(|| {
                        entries.push(s);
                        u32::try_from(entries.len() - 1).expect("dictionary exceeds u32 keys")
                    })
                });
                keys.push(key);
            }
        }
        let validity: Vec<_> = parts.iter().map(|p| (p.validity.as_ref(), p.len)).collect();
        DictUtf8Array {
            keys: keys.into(),
            dict: Utf8Array::new(&entries),
            validity: concat_validity(&validity),
            len,
        }
    }

    /// The raw keys buffer (`len` little-endian u32 values).
    pub fn keys(&self) -> &Buffer {
        &self.keys
    }

    /// The dictionary entries (deduplicated, never null).
    pub fn dictionary(&self) -> &Utf8Array {
        &self.dict
    }

    /// The validity bitmap, if any value is null.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

/// A dynamically-typed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Array {
    /// 64-bit integers.
    Int64(Int64Array),
    /// 64-bit floats.
    Float64(Float64Array),
    /// Booleans.
    Bool(BoolArray),
    /// UTF-8 strings.
    Utf8(Utf8Array),
    /// Dictionary-encoded (LowCardinality) UTF-8 strings.
    DictUtf8(DictUtf8Array),
}

impl Array {
    /// Builds an `Int64` column with no nulls.
    pub fn from_i64(values: Vec<i64>) -> Array {
        Array::Int64(Int64Array::new(values))
    }

    /// Builds an `Int64` column from optional values.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Array {
        Array::Int64(Int64Array::from_options(values))
    }

    /// Builds a `Float64` column with no nulls.
    pub fn from_f64(values: Vec<f64>) -> Array {
        Array::Float64(Float64Array::new(values))
    }

    /// Builds a `Float64` column from optional values.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Array {
        Array::Float64(Float64Array::from_options(values))
    }

    /// Builds a `Bool` column with no nulls.
    pub fn from_bool(values: &[bool]) -> Array {
        Array::Bool(BoolArray::new(values))
    }

    /// Builds a `Bool` column from optional values.
    pub fn from_opt_bool(values: Vec<Option<bool>>) -> Array {
        Array::Bool(BoolArray::from_options(values))
    }

    /// Builds a `Utf8` column with no nulls.
    pub fn from_utf8<S: AsRef<str>>(values: &[S]) -> Array {
        Array::Utf8(Utf8Array::new(values))
    }

    /// Builds a `Utf8` column from optional values.
    pub fn from_opt_utf8<'a, I>(values: I) -> Array
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        Array::Utf8(Utf8Array::from_options(values))
    }

    /// Builds a `DictUtf8` column with no nulls.
    pub fn from_dict_utf8<S: AsRef<str>>(values: &[S]) -> Array {
        Array::DictUtf8(DictUtf8Array::new(values))
    }

    /// Builds a `DictUtf8` column from optional values.
    pub fn from_opt_dict_utf8<'a, I>(values: I) -> Array
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        Array::DictUtf8(DictUtf8Array::from_options(values))
    }

    /// Dictionary-encodes a `Utf8` column when its cardinality is low
    /// enough to pay off (each entry repeats at least twice on average
    /// and the dictionary stays under [`DICT_MAX_CARDINALITY`]); other
    /// columns — and high-cardinality strings — pass through unchanged.
    /// A column is encoded at most once: the result is kept with the
    /// array and shared by its clones.
    pub fn dict_encoded(&self) -> Array {
        match self {
            Array::Utf8(a) => a
                .dict_encoded()
                .map_or_else(|| self.clone(), Array::DictUtf8),
            _ => self.clone(),
        }
    }

    /// Decodes a `DictUtf8` column back to plain `Utf8`; other columns
    /// pass through unchanged.
    pub fn dict_decoded(&self) -> Array {
        match self {
            Array::DictUtf8(a) => Array::Utf8(a.to_utf8()),
            _ => self.clone(),
        }
    }

    /// The logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Array::Int64(_) => DataType::Int64,
            Array::Float64(_) => DataType::Float64,
            Array::Bool(_) => DataType::Bool,
            Array::Utf8(_) => DataType::Utf8,
            Array::DictUtf8(_) => DataType::DictUtf8,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Array::Int64(a) => a.len(),
            Array::Float64(a) => a.len(),
            Array::Bool(a) => a.len(),
            Array::Utf8(a) => a.len(),
            Array::DictUtf8(a) => a.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap, if any rows are null.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Array::Int64(a) => a.validity(),
            Array::Float64(a) => a.validity(),
            Array::Bool(a) => a.validity(),
            Array::Utf8(a) => a.validity(),
            Array::DictUtf8(a) => a.validity(),
        }
    }

    /// True if row `i` is null. Consults the validity bitmap directly —
    /// no [`Value`] boxing (a `Utf8` `value_at` would allocate).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_null(&self, i: usize) -> bool {
        assert!(i < self.len(), "index {i} out of bounds for {}", self.len());
        self.validity().is_some_and(|v| !v.get(i))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        let validity = match self {
            Array::Int64(a) => a.validity(),
            Array::Float64(a) => a.validity(),
            Array::Bool(a) => a.validity(),
            Array::Utf8(a) => a.validity(),
            Array::DictUtf8(a) => a.validity(),
        };
        match validity {
            Some(v) => v.len() - v.count_set(),
            None => 0,
        }
    }

    /// The dynamically-typed value at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Array::Int64(a) => a.get(i).map(Value::I64).unwrap_or(Value::Null),
            Array::Float64(a) => a.get(i).map(Value::F64).unwrap_or(Value::Null),
            Array::Bool(a) => a.get(i).map(Value::Bool).unwrap_or(Value::Null),
            Array::Utf8(a) => a
                .get(i)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
            Array::DictUtf8(a) => a
                .get(i)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
        }
    }

    /// Gathers the rows at `indices` into a new column of the same type,
    /// dispatching on the variant once and gathering through typed slices
    /// (no per-row [`Value`] boxing).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Array {
        match self {
            Array::Int64(a) => Array::Int64(a.take_rows(indices)),
            Array::Float64(a) => Array::Float64(a.take_rows(indices)),
            Array::Bool(a) => Array::Bool(a.take_rows(indices)),
            Array::Utf8(a) => Array::Utf8(a.take_rows(indices)),
            Array::DictUtf8(a) => Array::DictUtf8(a.take_rows(indices)),
        }
    }

    /// Rows `lo..hi` as a view over this column's buffers: O(1) for the
    /// value bytes, a copy only of what the frame layout cannot alias
    /// (validity bits, bit-packed booleans, string offsets that do not
    /// start at 0). Equal to `take_rows` of the same range as an array
    /// and as IPC bytes; `validity` is `None` exactly when the range
    /// holds no null.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> Array {
        match self {
            Array::Int64(a) => Array::Int64(a.slice(lo, hi)),
            Array::Float64(a) => Array::Float64(a.slice(lo, hi)),
            Array::Bool(a) => Array::Bool(a.slice(lo, hi)),
            Array::Utf8(a) => Array::Utf8(a.slice(lo, hi)),
            Array::DictUtf8(a) => Array::DictUtf8(a.slice(lo, hi)),
        }
    }

    /// Columns of one type laid end to end, raw buffers appended. A
    /// single part passes through as an O(1) clone — except a `DictUtf8`
    /// one, whose dictionary is still rebuilt to the entries in use.
    pub(crate) fn concat(parts: &[&Array]) -> Result<Array, ArrowError> {
        fn typed<'a, T>(
            parts: &[&'a Array],
            downcast: impl Fn(&'a Array) -> Result<&'a T, ArrowError>,
        ) -> Result<Vec<&'a T>, ArrowError> {
            parts.iter().map(|p| downcast(p)).collect()
        }
        let first = *parts
            .first()
            .ok_or_else(|| ArrowError::ShapeMismatch("concat of zero columns".into()))?;
        if parts.len() == 1 && !matches!(first, Array::DictUtf8(_)) {
            return Ok(first.clone());
        }
        Ok(match first {
            Array::Int64(_) => Array::Int64(Int64Array::concat(&typed(parts, Array::as_i64)?)),
            Array::Float64(_) => {
                Array::Float64(Float64Array::concat(&typed(parts, Array::as_f64)?))
            }
            Array::Bool(_) => Array::Bool(BoolArray::concat(&typed(parts, Array::as_bool)?)),
            Array::Utf8(_) => Array::Utf8(Utf8Array::concat(&typed(parts, Array::as_utf8)?)),
            Array::DictUtf8(_) => {
                Array::DictUtf8(DictUtf8Array::concat(&typed(parts, Array::as_dict_utf8)?))
            }
        })
    }

    /// Approximate in-memory footprint in bytes (values + offsets +
    /// validity).
    pub fn byte_size(&self) -> usize {
        match self {
            Array::Int64(a) => a.values().len() + a.validity().map_or(0, |v| v.buffer().len()),
            Array::Float64(a) => a.values().len() + a.validity().map_or(0, |v| v.buffer().len()),
            Array::Bool(a) => {
                a.values().buffer().len() + a.validity().map_or(0, |v| v.buffer().len())
            }
            Array::Utf8(a) => {
                a.offsets().len() + a.data().len() + a.validity().map_or(0, |v| v.buffer().len())
            }
            Array::DictUtf8(a) => {
                a.keys().len()
                    + a.dictionary().offsets().len()
                    + a.dictionary().data().len()
                    + a.validity().map_or(0, |v| v.buffer().len())
            }
        }
    }

    /// Downcasts to `Int64`, or reports the actual type.
    pub fn as_i64(&self) -> Result<&Int64Array, ArrowError> {
        match self {
            Array::Int64(a) => Ok(a),
            other => Err(ArrowError::TypeMismatch {
                expected: DataType::Int64,
                actual: other.data_type(),
            }),
        }
    }

    /// Downcasts to `Float64`, or reports the actual type.
    pub fn as_f64(&self) -> Result<&Float64Array, ArrowError> {
        match self {
            Array::Float64(a) => Ok(a),
            other => Err(ArrowError::TypeMismatch {
                expected: DataType::Float64,
                actual: other.data_type(),
            }),
        }
    }

    /// Downcasts to `Bool`, or reports the actual type.
    pub fn as_bool(&self) -> Result<&BoolArray, ArrowError> {
        match self {
            Array::Bool(a) => Ok(a),
            other => Err(ArrowError::TypeMismatch {
                expected: DataType::Bool,
                actual: other.data_type(),
            }),
        }
    }

    /// Downcasts to `Utf8`, or reports the actual type.
    pub fn as_utf8(&self) -> Result<&Utf8Array, ArrowError> {
        match self {
            Array::Utf8(a) => Ok(a),
            other => Err(ArrowError::TypeMismatch {
                expected: DataType::Utf8,
                actual: other.data_type(),
            }),
        }
    }

    /// Downcasts to `DictUtf8`, or reports the actual type.
    pub fn as_dict_utf8(&self) -> Result<&DictUtf8Array, ArrowError> {
        match self {
            Array::DictUtf8(a) => Ok(a),
            other => Err(ArrowError::TypeMismatch {
                expected: DataType::DictUtf8,
                actual: other.data_type(),
            }),
        }
    }

    /// Builds a column of type `dt` from dynamically-typed values.
    /// `Value::Null` becomes a null; other variants must match `dt`.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Array, ArrowError> {
        fn bad(dt: DataType, v: &Value) -> ArrowError {
            ArrowError::ShapeMismatch(format!("value {v} does not fit column type {dt}"))
        }
        Ok(match dt {
            DataType::Int64 => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::I64(x) => Some(*x),
                        other => return Err(bad(dt, other)),
                    });
                }
                Array::from_opt_i64(out)
            }
            DataType::Float64 => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::F64(x) => Some(*x),
                        other => return Err(bad(dt, other)),
                    });
                }
                Array::from_opt_f64(out)
            }
            DataType::Bool => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Bool(x) => Some(*x),
                        other => return Err(bad(dt, other)),
                    });
                }
                Array::from_opt_bool(out)
            }
            DataType::Utf8 => {
                let mut out: Vec<Option<&str>> = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Str(s) => Some(s.as_str()),
                        other => return Err(bad(dt, other)),
                    });
                }
                Array::from_opt_utf8(out)
            }
            DataType::DictUtf8 => {
                let mut out: Vec<Option<&str>> = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Str(s) => Some(s.as_str()),
                        other => return Err(bad(dt, other)),
                    });
                }
                Array::from_opt_dict_utf8(out)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_round_trip() {
        let a = Int64Array::new(vec![1, -2, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1), Some(-2));
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![Some(1), Some(-2), Some(3)]
        );
        assert!(a.validity().is_none());
    }

    #[test]
    fn i64_nulls() {
        let a = Int64Array::from_options(vec![Some(1), None, Some(3)]);
        assert_eq!(a.get(0), Some(1));
        assert_eq!(a.get(1), None);
        assert_eq!(Array::Int64(a).null_count(), 1);
    }

    #[test]
    fn no_null_options_canonicalize_to_no_validity() {
        let a = Int64Array::from_options(vec![Some(1), Some(2)]);
        let b = Int64Array::new(vec![1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn utf8_layout() {
        let a = Utf8Array::new(&["hello", "", "world"]);
        assert_eq!(a.get(0), Some("hello"));
        assert_eq!(a.get(1), Some(""));
        assert_eq!(a.get(2), Some("world"));
        // Offsets are [0, 5, 5, 10].
        assert_eq!(a.offsets().get_i32(3), 10);
    }

    #[test]
    fn utf8_nulls_and_unicode() {
        let a = Utf8Array::from_options(vec![Some("héllo"), None, Some("wörld")]);
        assert_eq!(a.get(0), Some("héllo"));
        assert_eq!(a.get(1), None);
        assert_eq!(a.get(2), Some("wörld"));
    }

    #[test]
    fn bool_packing() {
        let vals: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let a = BoolArray::new(&vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(a.get(i), Some(*v));
        }
    }

    #[test]
    fn float_nulls() {
        let a = Float64Array::from_options(vec![Some(1.5), None]);
        assert_eq!(a.get(0), Some(1.5));
        assert_eq!(a.get(1), None);
    }

    #[test]
    fn dynamic_values() {
        let a = Array::from_opt_utf8(vec![Some("x"), None]);
        assert_eq!(a.value_at(0), Value::Str("x".into()));
        assert_eq!(a.value_at(1), Value::Null);
        assert!(a.is_null(1));
        assert!(!a.is_null(0));
    }

    #[test]
    fn from_values_round_trip() {
        let vals = vec![Value::I64(1), Value::Null, Value::I64(3)];
        let a = Array::from_values(DataType::Int64, &vals).unwrap();
        assert_eq!((0..3).map(|i| a.value_at(i)).collect::<Vec<_>>(), vals);
    }

    #[test]
    fn from_values_type_checks() {
        let err = Array::from_values(DataType::Int64, &[Value::Str("x".into())]).unwrap_err();
        assert!(matches!(err, ArrowError::ShapeMismatch(_)));
    }

    #[test]
    fn downcasts() {
        let a = Array::from_i64(vec![1]);
        assert!(a.as_i64().is_ok());
        let err = a.as_utf8().unwrap_err();
        assert_eq!(
            err,
            ArrowError::TypeMismatch {
                expected: DataType::Utf8,
                actual: DataType::Int64
            }
        );
    }

    #[test]
    fn byte_size_reflects_content() {
        let small = Array::from_i64(vec![1, 2]);
        let big = Array::from_i64((0..1000).collect());
        assert!(big.byte_size() > small.byte_size() * 100);
        let s = Array::from_utf8(&["aaaa", "bbbb"]);
        assert!(s.byte_size() >= 8 + 12); // data + offsets
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        Int64Array::new(vec![1]).get(1);
    }

    #[test]
    fn dict_deduplicates_and_round_trips() {
        let vals = vec![Some("a"), Some("b"), None, Some("a"), Some("a"), Some("b")];
        let d = DictUtf8Array::from_options(vals.clone());
        assert_eq!(d.dictionary().len(), 2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vals);
        assert_eq!(d.to_utf8(), Utf8Array::from_options(vals));
        assert_eq!(d.key_at(0), d.key_at(3));
        assert_eq!(d.key_at(2), 0); // null placeholder
    }

    #[test]
    fn dict_equality_is_logical() {
        // Same values, different dictionary orders.
        let a = DictUtf8Array::new(&["x", "y", "x"]);
        let b = DictUtf8Array::from_utf8(&Utf8Array::new(&["x", "y", "x"]));
        assert_eq!(a, b);
        // A filtered array keeps unused parent entries; still equal.
        let parent = DictUtf8Array::new(&["q", "x", "y", "x"]);
        let filtered = parent.take_rows(&[1, 2, 3]);
        assert_eq!(filtered, a);
        assert_eq!(
            Array::DictUtf8(filtered).dict_decoded(),
            Array::from_utf8(&["x", "y", "x"])
        );
    }

    #[test]
    fn dict_take_rows_moves_keys_only() {
        let d = DictUtf8Array::from_options(vec![Some("aa"), None, Some("bb"), Some("aa")]);
        let t = d.take_rows(&[3, 1, 0]);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![Some("aa"), None, Some("aa")]
        );
        // Dictionary is shared, not rebuilt.
        assert_eq!(t.dictionary(), d.dictionary());
    }

    #[test]
    fn dict_encoded_policy() {
        // Low cardinality encodes...
        let low = Array::from_utf8(&["a", "b", "a", "b", "a", "b"]);
        assert_eq!(low.dict_encoded().data_type(), DataType::DictUtf8);
        // ...mostly-unique columns stay plain...
        let high = Array::from_utf8(&["a", "b", "c", "d"]);
        assert_eq!(high.dict_encoded().data_type(), DataType::Utf8);
        // ...and either way the values are unchanged.
        assert_eq!(low.dict_encoded().dict_decoded(), low);
        // Non-string columns pass through.
        let ints = Array::from_i64(vec![1, 2]);
        assert_eq!(ints.dict_encoded(), ints);
    }

    #[test]
    fn dict_all_null_has_empty_dictionary() {
        let d = DictUtf8Array::from_options(vec![None, None, None]);
        assert_eq!(d.dictionary().len(), 0);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(1), None);
        assert_eq!(Array::DictUtf8(d).null_count(), 3);
    }

    #[test]
    fn dict_concat_merges_dictionaries() {
        let a = DictUtf8Array::new(&["x", "y"]);
        let b = DictUtf8Array::from_options(vec![Some("y"), None, Some("z")]);
        let c = DictUtf8Array::concat(&[&a, &b]);
        assert_eq!(c.dictionary().len(), 3);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![Some("x"), Some("y"), Some("y"), None, Some("z")]
        );
    }
}
