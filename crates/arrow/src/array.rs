//! Typed columnar arrays.
//!
//! Arrays are immutable and buffer-backed; cloning is cheap. Nullability
//! is canonical: an array with no nulls stores `validity = None`, so two
//! logically-equal arrays built by different paths (builder, IPC decode,
//! kernel output) compare equal. So are lengths: every buffer holds
//! exactly the bytes of the array's rows, so `len`, `byte_size`, `concat`
//! and the IPC frame agree by construction.
//!
//! Code that works on any column dispatches through [`each_variant!`](crate::each_variant)
//! once and then runs typed code; what a row contributes to a key hash
//! and is compared by is each encoding's `key_bytes`. The per-row
//! accessors (`get`, `key_bytes`) are `#[inline(always)]`: with the hint
//! alone they stayed calls inside the gather, probe and sort loops.

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

use crate::buffer::{Bitmap, Buffer, Native};
use crate::datatype::DataType;
use crate::error::ArrowError;

mod gather;

fn check_range(lo: usize, hi: usize, len: usize) {
    assert!(
        lo <= hi && hi <= len,
        "range {lo}..{hi} out of bounds for {len}"
    );
}

#[inline]
fn check_index(i: usize, len: usize) {
    assert!(i < len, "index {i} out of bounds for {len}");
}

/// `valid` as a validity bitmap in normal form: `None` when no row is
/// null.
fn normal_validity(valid: &[bool]) -> Option<Bitmap> {
    // A reduction, not a search: no early exit, so the scan vectorizes.
    let all_valid = valid.iter().fold(true, |all, &ok| all & ok);
    (!all_valid).then(|| Bitmap::from_bools(valid))
}

/// Validity of rows `lo..hi`: `None` when the range holds no null, the
/// normal form every constructor produces.
fn slice_validity(validity: Option<&Bitmap>, lo: usize, hi: usize) -> Option<Bitmap> {
    let v = validity?.slice(lo, hi);
    (v.count_set() < v.len()).then_some(v)
}

/// Validity of parts laid end to end, each `(validity, rows)`; `None`
/// when no part holds a null.
fn concat_validity<'a>(parts: impl Iterator<Item = (Option<&'a Bitmap>, usize)>) -> Option<Bitmap> {
    let runs: Vec<_> = parts.map(|(v, rows)| (v, 0, rows)).collect();
    if runs.iter().all(|r| r.0.is_none()) {
        return None;
    }
    let v = Bitmap::from_runs(&runs);
    (v.count_set() < v.len()).then_some(v)
}

fn validity_bytes(validity: Option<&Bitmap>) -> usize {
    validity.map_or(0, |v| v.buffer().len())
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

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v.into())
            }
        }
    )*};
}
value_from!(i64 => I64, f64 => F64, bool => Bool, &str => Str);

/// A fixed-width array of `T`s: the `Int64` and `Float64` columns, and
/// the keys of a [`DictUtf8Array`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveArray<T: Native> {
    /// `len * T::WIDTH` bytes; every builder and gather writes `T::ZERO`
    /// in the null slots.
    values: Buffer,
    validity: Option<Bitmap>,
    _type: PhantomData<T>,
}

/// A fixed-width 64-bit integer array.
pub type Int64Array = PrimitiveArray<i64>;

/// A fixed-width 64-bit float array.
pub type Float64Array = PrimitiveArray<f64>;

impl<T: Native> PrimitiveArray<T> {
    fn from_raw(values: Buffer, validity: Option<Bitmap>) -> Self {
        PrimitiveArray {
            values,
            validity,
            _type: PhantomData,
        }
    }

    /// Builds from values with no nulls.
    pub fn new(values: Vec<T>) -> Self {
        Self::from_raw(values.into(), None)
    }

    /// Builds from optional values.
    pub fn from_options(values: impl IntoIterator<Item = Option<T>>) -> Self {
        let values = values.into_iter();
        let rows = values.size_hint().0;
        let mut raw = Vec::with_capacity(rows * T::WIDTH);
        let mut valid = Vec::with_capacity(rows);
        for v in values {
            v.unwrap_or(T::ZERO).write_le(&mut raw);
            valid.push(v.is_some());
        }
        Self::from_raw(Buffer::from_vec(raw), normal_validity(&valid))
    }

    /// Reconstructs from raw parts (IPC decode), keeping exactly the
    /// `len` values the array holds.
    pub fn from_parts(values: Buffer, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(values.len() >= len * T::WIDTH, "values buffer too short");
        Self::from_raw(values.slice(0, len * T::WIDTH), validity)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len() / T::WIDTH
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `i`, or `None` if null.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<T> {
        check_index(i, self.len());
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(self.values.get(i)),
        }
    }

    /// Iterates all values, in one pass over the raw bytes.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        self.iter_raw()
            .enumerate()
            .map(move |(i, x)| match &self.validity {
                Some(v) if !v.get(i) => None,
                _ => Some(x),
            })
    }

    /// Iterates the raw values without consulting validity (null slots
    /// yield their placeholder `T::ZERO`). The vectorized kernels pair
    /// this with [`PrimitiveArray::validity`] to keep the inner loop
    /// branch-free.
    #[inline]
    pub fn iter_raw(&self) -> impl Iterator<Item = T> + '_ {
        self.values.iter()
    }

    /// The stored bytes of row `i` — what the row contributes to a key
    /// hash and is compared by (for a float, its bit pattern) — or `None`
    /// if null.
    #[inline(always)]
    pub fn key_bytes(&self, i: usize) -> Option<&[u8]> {
        match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(&self.values.as_slice()[i * T::WIDTH..(i + 1) * T::WIDTH]),
        }
    }

    /// [`Self::key_bytes`] of every row in order, in one pass over the
    /// raw values.
    #[inline]
    pub fn iter_key_bytes(&self) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        let rows = self.values.as_slice().chunks_exact(T::WIDTH).enumerate();
        rows.map(move |(i, bytes)| match &self.validity {
            Some(v) if !v.get(i) => None,
            _ => Some(bytes),
        })
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Self {
        if self.validity.is_some() {
            return Self::from_options(indices.iter().map(|&i| self.get(i)));
        }
        // No null: the stored bytes move as they are, in one pass.
        let (len, src) = (self.len(), self.values.as_slice());
        let mut raw = Vec::with_capacity(indices.len() * T::WIDTH);
        for &i in indices {
            check_index(i, len);
            raw.extend_from_slice(&src[i * T::WIDTH..(i + 1) * T::WIDTH]);
        }
        Self::from_raw(Buffer::from_vec(raw), None)
    }

    /// Rows `lo..hi` as a view: the values alias this array's buffer.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Self {
        check_range(lo, hi, self.len());
        Self::from_raw(
            self.values.slice(lo * T::WIDTH, (hi - lo) * T::WIDTH),
            slice_validity(self.validity.as_ref(), lo, hi),
        )
    }

    /// The parts laid end to end, raw buffers appended.
    pub(crate) fn concat(parts: &[&Self]) -> Self {
        let mut raw = Vec::with_capacity(parts.iter().map(|p| p.values.len()).sum());
        for p in parts {
            raw.extend_from_slice(p.values.as_slice());
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity(), p.len())));
        Self::from_raw(Buffer::from_vec(raw), validity)
    }

    /// The raw values buffer.
    #[inline]
    pub fn values(&self) -> &Buffer {
        &self.values
    }

    /// The validity bitmap, if any value is null.
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    fn byte_size(&self) -> usize {
        self.values.len() + validity_bytes(self.validity())
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
    pub fn from_options(values: impl IntoIterator<Item = Option<bool>>) -> Self {
        let (raw, valid): (Vec<bool>, Vec<bool>) = values
            .into_iter()
            .map(|v| (v.unwrap_or(false), v.is_some()))
            .unzip();
        BoolArray {
            values: Bitmap::from_bools(&raw),
            validity: normal_validity(&valid),
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
    #[inline(always)]
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

    /// The one byte (`0` or `1`) row `i` contributes to a key hash and is
    /// compared by, or `None` if null.
    #[inline(always)]
    pub fn key_bytes(&self, i: usize) -> Option<&[u8]> {
        self.get(i).map(|b| if b { &[1u8][..] } else { &[0u8][..] })
    }

    /// [`Self::key_bytes`] of every row in order.
    #[inline]
    pub fn iter_key_bytes(&self) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        (0..self.len()).map(move |i| self.key_bytes(i))
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    pub fn take_rows(&self, indices: &[usize]) -> BoolArray {
        BoolArray::from_options(indices.iter().map(|&i| self.get(i)))
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
        BoolArray {
            values: Bitmap::from_runs(&values),
            validity: concat_validity(parts.iter().map(|p| (p.validity(), p.len()))),
        }
    }

    /// The packed value bits.
    pub fn values(&self) -> &Bitmap {
        &self.values
    }

    /// The validity bitmap, if any value is null.
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    fn byte_size(&self) -> usize {
        self.values.buffer().len() + validity_bytes(self.validity())
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
    dict: DictMemo,
}

impl Utf8Array {
    fn from_raw(offsets: Buffer, data: Buffer, validity: Option<Bitmap>) -> Self {
        Utf8Array {
            offsets,
            data,
            validity,
            dict: DictMemo::default(),
        }
    }

    /// Builds from string slices with no nulls.
    pub fn new<S: AsRef<str>>(values: &[S]) -> Self {
        Self::from_byte_options(values.iter().map(|s| Some(s.as_ref().as_bytes())))
    }

    /// Builds from optional string slices.
    pub fn from_options<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        Self::from_byte_options(values.into_iter().map(|v| v.map(str::as_bytes)))
    }

    /// Builds from optional byte slices, each of which must be UTF-8:
    /// bytes are copied slice-to-slice, never through an owned `String`.
    fn from_byte_options<'a>(values: impl Iterator<Item = Option<&'a [u8]>>) -> Self {
        let rows = values.size_hint().0;
        let mut offsets: Vec<i32> = Vec::with_capacity(rows + 1);
        offsets.push(0);
        let mut data: Vec<u8> = Vec::new();
        let mut valid: Vec<bool> = Vec::with_capacity(rows);
        for v in values {
            if let Some(bytes) = v {
                data.extend_from_slice(bytes);
            }
            valid.push(v.is_some());
            offsets.push(i32::try_from(data.len()).expect("utf8 data exceeds 2 GiB"));
        }
        Self::from_raw(
            offsets.into(),
            Buffer::from_vec(data),
            normal_validity(&valid),
        )
    }

    /// Reconstructs from raw parts (IPC decode), keeping exactly the
    /// `len + 1` offsets the array holds and the bytes they reach.
    pub fn from_parts(offsets: Buffer, data: Buffer, validity: Option<Bitmap>, len: usize) -> Self {
        assert!(offsets.len() >= (len + 1) * 4, "offsets buffer too short");
        let end = offsets.get::<i32>(len) as usize;
        Self::from_raw(
            offsets.slice(0, (len + 1) * 4),
            data.slice(0, end),
            validity,
        )
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() / 4 - 1
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<&str> {
        check_index(i, self.len());
        self.key_bytes(i)
            .map(|b| std::str::from_utf8(b).expect("invariant: utf8 data"))
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The bytes of row `i`, `None` if null — the one accessor hashing,
    /// key equality and ordering read strings through: no UTF-8
    /// validation, the bytes as they are.
    #[inline(always)]
    pub fn key_bytes(&self, i: usize) -> Option<&[u8]> {
        if self.validity.as_ref().is_some_and(|v| !v.get(i)) {
            return None;
        }
        let start = self.offsets.get::<i32>(i) as usize;
        let end = self.offsets.get::<i32>(i + 1) as usize;
        Some(&self.data.as_slice()[start..end])
    }

    /// [`Self::key_bytes`] of every row in order.
    #[inline]
    pub fn iter_key_bytes(&self) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        (0..self.len()).map(move |i| self.key_bytes(i))
    }

    /// Gathers the rows at `indices` into a new array (typed `take`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Utf8Array {
        let len = self.len();
        Self::from_byte_options(indices.iter().map(|&i| {
            check_index(i, len);
            self.key_bytes(i)
        }))
    }

    /// Rows `lo..hi` as a view: the string bytes alias this array's
    /// buffer; the offsets do too when the range starts at byte 0, and
    /// are rebased to it otherwise (the frame layout starts at 0).
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Utf8Array {
        check_range(lo, hi, self.len());
        let start = self.offsets.get::<i32>(lo);
        let end = self.offsets.get::<i32>(hi);
        let offsets = if start == 0 {
            self.offsets.slice(lo * 4, (hi - lo + 1) * 4)
        } else {
            let rebased: Vec<i32> = (lo..=hi)
                .map(|i| self.offsets.get::<i32>(i) - start)
                .collect();
            rebased.into()
        };
        Self::from_raw(
            offsets,
            self.data.slice(start as usize, (end - start) as usize),
            slice_validity(self.validity.as_ref(), lo, hi),
        )
    }

    /// The parts laid end to end: string bytes appended, offsets rebased.
    pub(crate) fn concat(parts: &[&Utf8Array]) -> Utf8Array {
        let span = |p: &Utf8Array| (p.offsets.get::<i32>(0), p.offsets.get::<i32>(p.len()));
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let bytes: usize = parts.iter().map(|p| (span(p).1 - span(p).0) as usize).sum();
        i32::try_from(bytes).expect("utf8 data exceeds 2 GiB");
        let mut offsets: Vec<i32> = Vec::with_capacity(len + 1);
        offsets.push(0);
        let mut data: Vec<u8> = Vec::with_capacity(bytes);
        for p in parts {
            let (first, last) = span(p);
            let shift = data.len() as i32 - first;
            offsets.extend(p.offsets.iter::<i32>().skip(1).map(|o| o + shift));
            data.extend_from_slice(&p.data.as_slice()[first as usize..last as usize]);
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity(), p.len())));
        Self::from_raw(offsets.into(), Buffer::from_vec(data), validity)
    }

    /// This column dictionary-encoded, if its cardinality is low enough
    /// to pay off: each entry repeats at least twice on average and the
    /// dictionary stays under [`DICT_MAX_CARDINALITY`]. Encoded at most
    /// once for this array and all its clones.
    fn dict_encoded(&self) -> Option<DictUtf8Array> {
        let memo = self.dict.0.get_or_init(|| {
            let d = DictUtf8Array::from_utf8(self);
            let distinct = d.dictionary().len();
            (distinct <= DICT_MAX_CARDINALITY && distinct * 2 <= self.len()).then_some(d)
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
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    fn byte_size(&self) -> usize {
        self.offsets.len() + self.data.len() + validity_bytes(self.validity())
    }
}

/// Dictionaries larger than this are not "low cardinality":
/// [`Array::dict_encoded`] falls back to plain `Utf8` beyond it.
pub const DICT_MAX_CARDINALITY: usize = 1 << 16;

/// A dictionary under construction: entries in first-appearance order.
#[derive(Default)]
struct DictBuilder<'a> {
    keys: HashMap<&'a str, u32>,
    entries: Vec<&'a str>,
}

impl<'a> DictBuilder<'a> {
    /// The key of `s`, appending it as a new entry on first sight.
    fn key_of(&mut self, s: &'a str) -> u32 {
        *self.keys.entry(s).or_insert_with(|| {
            self.entries.push(s);
            u32::try_from(self.entries.len() - 1).expect("dictionary exceeds u32 keys")
        })
    }
}

/// A dictionary-encoded (LowCardinality) UTF-8 array: `u32` keys into a
/// deduplicated, never-null [`Utf8Array`] dictionary.
///
/// Logically identical to a plain [`Utf8Array`]; the encoding only
/// changes how kernels move the bytes — comparisons resolve against the
/// dictionary once and then touch only the fixed-width keys. Null slots
/// store the canonical placeholder key `0`.
#[derive(Debug, Clone)]
pub struct DictUtf8Array {
    /// One key into `dict` per row; validity, gathers and views ride with
    /// the keys.
    keys: PrimitiveArray<u32>,
    dict: Utf8Array,
}

impl PartialEq for DictUtf8Array {
    /// Equality is *logical*: two dict arrays are equal when they decode
    /// to the same values, regardless of dictionary order or unused
    /// entries (a filtered array keeps its parent's dictionary; a rebuilt
    /// one starts fresh).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter_key_bytes().eq(other.iter_key_bytes())
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
        let mut dict = DictBuilder::default();
        let keys = values.into_iter().map(|v| v.map(|s| dict.key_of(s)));
        DictUtf8Array {
            keys: PrimitiveArray::from_options(keys),
            dict: Utf8Array::new(&dict.entries),
        }
    }

    /// Dictionary-encodes a plain array, whatever its cardinality.
    pub fn from_utf8(src: &Utf8Array) -> Self {
        Self::from_options(src.iter())
    }

    /// Reconstructs from raw parts (IPC decode). The dictionary must be
    /// null-free; callers are responsible for keys being in bounds.
    pub fn from_parts(keys: PrimitiveArray<u32>, dict: Utf8Array) -> Self {
        assert!(
            dict.validity().is_none(),
            "dictionary entries may not be null"
        );
        DictUtf8Array { keys, dict }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The raw key at `i` without consulting validity (null slots yield
    /// the placeholder `0`).
    pub fn key_at(&self, i: usize) -> u32 {
        check_index(i, self.len());
        self.keys.values.get(i)
    }

    /// The value at `i`, or `None` if null.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.keys.get(i).map(|k| self.entry(k))
    }

    fn entry(&self, key: u32) -> &str {
        self.dict
            .get(key as usize)
            .expect("invariant: dictionary entries are never null")
    }

    /// Iterates all values.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The bytes of the entry row `i` points at, `None` if null: the
    /// same bytes the plain [`Utf8Array`] of these values would give.
    #[inline(always)]
    pub fn key_bytes(&self, i: usize) -> Option<&[u8]> {
        let key = self.keys.get(i)?;
        self.dict.key_bytes(key as usize)
    }

    /// [`Self::key_bytes`] of every row in order, with each entry's byte
    /// slice resolved once rather than once per row.
    #[inline]
    pub fn iter_key_bytes(&self) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        let entries = self.dict.iter_key_bytes();
        let entries: Vec<&[u8]> = entries.map(|e| e.expect("dict entry")).collect();
        let rows = self.keys.iter_raw().enumerate();
        rows.map(move |(i, k)| match self.validity() {
            Some(v) if !v.get(i) => None,
            _ => Some(entries[k as usize]),
        })
    }

    /// Gathers the rows at `indices` into a new array: only the
    /// fixed-width keys move; the dictionary is shared (O(1) clone).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> DictUtf8Array {
        DictUtf8Array {
            keys: self.keys.take_rows(indices),
            dict: self.dict.clone(),
        }
    }

    /// Decodes back to a plain [`Utf8Array`].
    pub fn to_utf8(&self) -> Utf8Array {
        Utf8Array::from_byte_options(self.iter_key_bytes())
    }

    /// Rows `lo..hi` as a view: the keys alias this array's buffer and
    /// the dictionary is shared whole.
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> DictUtf8Array {
        DictUtf8Array {
            keys: self.keys.slice(lo, hi),
            dict: self.dict.clone(),
        }
    }

    /// Concatenates several dict arrays, merging their dictionaries by
    /// first appearance and remapping keys (entries no row uses are
    /// dropped). Each part's entry is hashed once, not once per row.
    pub fn concat(parts: &[&DictUtf8Array]) -> DictUtf8Array {
        let mut merged = DictBuilder::default();
        let mut keys: Vec<u32> = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            // This part's key -> merged key, filled as entries first appear.
            let mut remap: Vec<Option<u32>> = vec![None; p.dict.len()];
            keys.extend(p.keys.iter().map(|k| {
                k.map_or(0, |k| {
                    *remap[k as usize].get_or_insert_with(|| merged.key_of(p.entry(k)))
                })
            }));
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity(), p.len())));
        DictUtf8Array {
            keys: PrimitiveArray::from_raw(keys.into(), validity),
            dict: Utf8Array::new(&merged.entries),
        }
    }

    /// The keys, one per row, carrying the array's validity.
    pub fn keys(&self) -> &PrimitiveArray<u32> {
        &self.keys
    }

    /// The dictionary entries (deduplicated, never null).
    pub fn dictionary(&self) -> &Utf8Array {
        &self.dict
    }

    /// The validity bitmap, if any value is null.
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        self.keys.validity()
    }

    fn byte_size(&self) -> usize {
        self.keys.byte_size() + self.dict.byte_size()
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

/// Downcasts `$col` once and evaluates `$body` with `$a` bound to the
/// typed array, whichever variant it is: the body is compiled per
/// encoding, so a loop inside it runs typed code with no per-row
/// dispatch. Every method the typed arrays share by name (`len`,
/// `validity`, `get`, `key_bytes`, `take_rows`, …) can be called on `$a`.
#[macro_export]
macro_rules! each_variant {
    ($col:expr, $a:ident => $body:expr) => {
        match $col {
            $crate::array::Array::Int64($a) => $body,
            $crate::array::Array::Float64($a) => $body,
            $crate::array::Array::Bool($a) => $body,
            $crate::array::Array::Utf8($a) => $body,
            $crate::array::Array::DictUtf8($a) => $body,
        }
    };
}

/// The variant list: per variant, the wrap into [`Array`], the checked
/// downcast out of it, and the concatenation and gather of columns of
/// that type.
macro_rules! variants {
    ($($variant:ident($ty:ty) as $downcast:ident),*) => {$(
        impl From<$ty> for Array {
            fn from(a: $ty) -> Array {
                Array::$variant(a)
            }
        }

        impl Array {
            #[doc = concat!("Downcasts to `", stringify!($variant), "`, or reports the actual type.")]
            pub fn $downcast(&self) -> Result<&$ty, ArrowError> {
                match self {
                    Array::$variant(a) => Ok(a),
                    other => Err(ArrowError::TypeMismatch {
                        expected: DataType::$variant,
                        actual: other.data_type(),
                    }),
                }
            }
        }

        impl $ty {
            /// `parts`, all of this array's type, laid end to end (the
            /// receiver only names the type: it is `parts[0]`).
            fn concat_columns(&self, parts: &[&Array]) -> Result<Array, ArrowError> {
                let typed = parts.iter().map(|p| p.$downcast());
                Ok(<$ty>::concat(&typed.collect::<Result<Vec<_>, _>>()?).into())
            }

            /// [`Array::gather`] over `parts` of this array's type.
            fn gather_columns(&self, parts: &[&Array], picks: &[(u32, u32)]) -> Result<Array, ArrowError> {
                let typed = parts.iter().map(|p| p.$downcast());
                Ok(<$ty>::gather(&typed.collect::<Result<Vec<_>, _>>()?, picks).into())
            }
        }
    )*};
}
variants!(
    Int64(Int64Array) as as_i64,
    Float64(Float64Array) as as_f64,
    Bool(BoolArray) as as_bool,
    Utf8(Utf8Array) as as_utf8,
    DictUtf8(DictUtf8Array) as as_dict_utf8
);

impl Array {
    /// Builds an `Int64` column with no nulls.
    pub fn from_i64(values: Vec<i64>) -> Array {
        Int64Array::new(values).into()
    }

    /// Builds an `Int64` column from optional values.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Array {
        Int64Array::from_options(values).into()
    }

    /// Builds a `Float64` column with no nulls.
    pub fn from_f64(values: Vec<f64>) -> Array {
        Float64Array::new(values).into()
    }

    /// Builds a `Float64` column from optional values.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Array {
        Float64Array::from_options(values).into()
    }

    /// Builds a `Bool` column with no nulls.
    pub fn from_bool(values: &[bool]) -> Array {
        BoolArray::new(values).into()
    }

    /// Builds a `Bool` column from optional values.
    pub fn from_opt_bool(values: Vec<Option<bool>>) -> Array {
        BoolArray::from_options(values).into()
    }

    /// Builds a `Utf8` column with no nulls.
    pub fn from_utf8<S: AsRef<str>>(values: &[S]) -> Array {
        Utf8Array::new(values).into()
    }

    /// Builds a `Utf8` column from optional values.
    pub fn from_opt_utf8<'a, I>(values: I) -> Array
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        Utf8Array::from_options(values).into()
    }

    /// Builds a `DictUtf8` column with no nulls.
    pub fn from_dict_utf8<S: AsRef<str>>(values: &[S]) -> Array {
        DictUtf8Array::new(values).into()
    }

    /// Builds a `DictUtf8` column from optional values.
    pub fn from_opt_dict_utf8<'a, I>(values: I) -> Array
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        DictUtf8Array::from_options(values).into()
    }

    /// Dictionary-encodes a `Utf8` column when its cardinality is low
    /// enough to pay off (each entry repeats at least twice on average
    /// and the dictionary stays under [`DICT_MAX_CARDINALITY`]); other
    /// columns — and high-cardinality strings — pass through unchanged.
    /// A column is encoded at most once: the result is kept with the
    /// array and shared by its clones.
    pub fn dict_encoded(&self) -> Array {
        match self {
            Array::Utf8(a) => a.dict_encoded().map_or_else(|| self.clone(), Array::from),
            _ => self.clone(),
        }
    }

    /// Decodes a `DictUtf8` column back to plain `Utf8`; other columns
    /// pass through unchanged.
    pub fn dict_decoded(&self) -> Array {
        match self {
            Array::DictUtf8(a) => a.to_utf8().into(),
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
        each_variant!(self, a => a.len())
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap, if any rows are null.
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        each_variant!(self, a => a.validity())
    }

    /// True if row `i` is null. Consults the validity bitmap directly —
    /// no [`Value`] boxing (a `Utf8` `value_at` would allocate).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_null(&self, i: usize) -> bool {
        check_index(i, self.len());
        self.validity().is_some_and(|v| !v.get(i))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.len() - v.count_set())
    }

    /// The dynamically-typed value at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        each_variant!(self, a => a.get(i).map_or(Value::Null, Value::from))
    }

    /// Gathers the rows at `indices` into a new column of the same type,
    /// dispatching on the variant once and gathering through typed slices
    /// (no per-row [`Value`] boxing).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, indices: &[usize]) -> Array {
        each_variant!(self, a => a.take_rows(indices).into())
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
        each_variant!(self, a => a.slice(lo, hi).into())
    }

    /// Columns of one type laid end to end, raw buffers appended. A
    /// single part passes through as an O(1) clone — except a `DictUtf8`
    /// one, whose dictionary is still rebuilt to the entries in use.
    pub fn concat(parts: &[&Array]) -> Result<Array, ArrowError> {
        let first = *parts
            .first()
            .ok_or_else(|| ArrowError::ShapeMismatch("concat of zero columns".into()))?;
        if parts.len() == 1 && first.data_type() != DataType::DictUtf8 {
            return Ok(first.clone());
        }
        each_variant!(first, a => a.concat_columns(parts))
    }

    /// Rows picked from several columns of one type, in the order picked:
    /// output row `i` is row `picks[i].1` of `parts[picks[i].0]`. Each
    /// value's bytes are copied once, from its source buffer straight into
    /// the output's. A `DictUtf8` result's dictionary is the one
    /// [`Array::concat`] builds for the picked rows laid end to end, part
    /// by part, each part's rows ascending.
    ///
    /// # Panics
    ///
    /// Panics if a pick names a part or a row that does not exist.
    pub(crate) fn gather(parts: &[&Array], picks: &[(u32, u32)]) -> Result<Array, ArrowError> {
        let first = *parts
            .first()
            .ok_or_else(|| ArrowError::ShapeMismatch("gather of zero columns".into()))?;
        each_variant!(first, a => a.gather_columns(parts, picks))
    }

    /// Approximate in-memory footprint in bytes (values + offsets +
    /// validity).
    pub fn byte_size(&self) -> usize {
        each_variant!(self, a => a.byte_size())
    }

    /// Builds a column of type `dt` from dynamically-typed values.
    /// `Value::Null` becomes a null; other variants must match `dt`.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Array, ArrowError> {
        // `values` through `pick`, the column type's own `Value` variant.
        fn typed<'a, T>(
            dt: DataType,
            values: &'a [Value],
            pick: impl Fn(&'a Value) -> Option<T>,
        ) -> Result<Vec<Option<T>>, ArrowError> {
            let fit = |v: &'a Value| match v {
                Value::Null => Ok(None),
                v => pick(v).map(Some).ok_or_else(|| {
                    ArrowError::ShapeMismatch(format!("value {v} does not fit column type {dt}"))
                }),
            };
            values.iter().map(fit).collect()
        }
        fn str_of(v: &Value) -> Option<&str> {
            match v {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        Ok(match dt {
            DataType::Int64 => Array::from_opt_i64(typed(dt, values, |v| match v {
                Value::I64(x) => Some(*x),
                _ => None,
            })?),
            DataType::Float64 => Array::from_opt_f64(typed(dt, values, |v| match v {
                Value::F64(x) => Some(*x),
                _ => None,
            })?),
            DataType::Bool => Array::from_opt_bool(typed(dt, values, |v| match v {
                Value::Bool(x) => Some(*x),
                _ => None,
            })?),
            DataType::Utf8 => Array::from_opt_utf8(typed(dt, values, str_of)?),
            DataType::DictUtf8 => Array::from_opt_dict_utf8(typed(dt, values, str_of)?),
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
        assert_eq!(a.offsets().get::<i32>(3), 10);
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
