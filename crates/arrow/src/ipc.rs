//! Framed wire format with a zero-copy decode path.
//!
//! This stands in for Arrow IPC: encode writes the schema header followed
//! by the raw column buffers; decode reconstructs arrays whose buffers
//! *alias* the wire bytes (O(1) per buffer, no per-value work). Experiment
//! E9 contrasts this with the conventional row-at-a-time marshalling
//! baseline the bench crate keeps.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "SKAR" | version u8 | ncols u16 | nrows u64
//! ncols x field:  name_len u16 | name bytes | type tag u8 | nullable u8
//! ncols x column: has_validity u8 [| validity bits ceil(nrows/8)]
//!                 Int64/Float64: values (nrows * 8)
//!                 Bool:          value bits ceil(nrows/8)
//!                 Utf8:          offsets ((nrows+1) * 4) | data_len u64 | data
//!                 DictUtf8:      keys (nrows * 4) | dict_len u64
//!                                | dict offsets ((dict_len+1) * 4)
//!                                | dict data_len u64 | dict data
//! ```

use bytes::Bytes;

use crate::array::{Array, BoolArray, DictUtf8Array, PrimitiveArray, Utf8Array};
use crate::batch::RecordBatch;
use crate::buffer::{Bitmap, Buffer, Native};
use crate::datatype::DataType;
use crate::error::ArrowError;
use crate::schema::{Field, Schema};

const MAGIC: &[u8; 4] = b"SKAR";
const VERSION: u8 = 1;

/// Encodes a batch into a self-describing frame.
pub fn encode(batch: &RecordBatch) -> Bytes {
    let mut out: Vec<u8> = Vec::with_capacity(encoded_len(batch));
    frame_parts(batch, |part| out.extend_from_slice(part));
    Bytes::from(out)
}

/// The length of `batch`'s frame — `encode(batch).len()` — summed over
/// buffer lengths, without making the frame.
pub fn encoded_len(batch: &RecordBatch) -> usize {
    let mut len = 0;
    frame_parts(batch, |part| len += part.len());
    len
}

/// The length of the frame of `batch`'s `rows` gathered into a batch of
/// their own (`compute::take_indices`, every column's `take_rows`) —
/// `encoded_len` of that batch — summed from the rows without gathering
/// them. A gathered `DictUtf8` column keeps its whole dictionary, and a
/// column has a validity bitmap only when one of the rows is null.
/// Every row must index `batch`.
pub fn encoded_len_of_rows(batch: &RecordBatch, rows: &[u32]) -> usize {
    let n = rows.len();
    let mut len = 0;
    header_parts(batch, n, &mut |part: &[u8]| len += part.len());
    for col in batch.columns() {
        let has_null = col
            .validity()
            .is_some_and(|v| rows.iter().any(|&r| !v.get(r as usize)));
        len += 1 + if has_null { n.div_ceil(8) } else { 0 };
        len += match col.data_type() {
            DataType::Int64 | DataType::Float64 => 8 * n,
            DataType::Bool => n.div_ceil(8),
            DataType::Utf8 => {
                let string = |a: &Utf8Array, r: u32| a.key_bytes(r as usize).map_or(0, <[u8]>::len);
                let strings = col
                    .as_utf8()
                    .map_or(0, |a| rows.iter().map(|&r| string(a, r)).sum());
                utf8_len(n, strings)
            }
            DataType::DictUtf8 => {
                let dict = col.as_dict_utf8().map(DictUtf8Array::dictionary);
                4 * n + 8 + dict.map_or(0, |d| utf8_len(d.len(), d.data().len()))
            }
        };
    }
    len
}

/// The length of the `Utf8` layout of `rows` strings holding `data`
/// bytes in all.
fn utf8_len(rows: usize, data: usize) -> usize {
    4 * (rows + 1) + 8 + data
}

/// Hands `put` the header of a frame of `rows` rows with `batch`'s
/// schema: magic, version, counts and fields.
fn header_parts(batch: &RecordBatch, rows: usize, put: &mut impl FnMut(&[u8])) {
    put(MAGIC);
    put(&[VERSION]);
    put(&(batch.num_columns() as u16).to_le_bytes());
    put(&(rows as u64).to_le_bytes());

    for field in batch.schema().fields() {
        let name = field.name.as_bytes();
        put(&(name.len() as u16).to_le_bytes());
        put(name);
        put(&[field.data_type.tag(), field.nullable as u8]);
    }
}

/// Hands `put` every byte run of `batch`'s frame in order: the one walk
/// [`encode`] and [`encoded_len`] both take, so the two cannot disagree.
fn frame_parts(batch: &RecordBatch, mut put: impl FnMut(&[u8])) {
    header_parts(batch, batch.num_rows(), &mut put);

    for col in batch.columns() {
        match col.validity() {
            Some(v) => {
                put(&[1]);
                put(v.buffer().as_slice());
            }
            None => put(&[0]),
        }
        match col {
            Array::Int64(a) => put(a.values().as_slice()),
            Array::Float64(a) => put(a.values().as_slice()),
            Array::Bool(a) => put(a.values().buffer().as_slice()),
            Array::Utf8(a) => put_utf8(&mut put, a),
            Array::DictUtf8(a) => {
                put(a.keys().values().as_slice());
                put(&(a.dictionary().len() as u64).to_le_bytes());
                put_utf8(&mut put, a.dictionary());
            }
        }
    }
}

/// The `Utf8` layout, shared by string columns and dictionaries.
fn put_utf8(put: &mut impl FnMut(&[u8]), a: &Utf8Array) {
    put(a.offsets().as_slice());
    put(&(a.data().len() as u64).to_le_bytes());
    put(a.data().as_slice());
}

/// A bounds-checked cursor over shared bytes that can hand out aliasing
/// sub-buffers.
struct Cursor {
    data: Bytes,
    pos: usize,
}

impl Cursor {
    fn new(data: Bytes) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<Bytes, ArrowError> {
        // `n` may come from a corrupt header; checked add so a huge value
        // is reported as truncation rather than overflowing.
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(ArrowError::Corrupt(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        };
        let b = self.data.slice(self.pos..end);
        self.pos = end;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, ArrowError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArrowError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, ArrowError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.as_ref().try_into().expect("8 bytes")))
    }
}

/// `count * width` with overflow reported as corruption: the counts come
/// straight from the (possibly hostile) frame header.
fn frame_size(count: usize, width: usize) -> Result<usize, ArrowError> {
    count
        .checked_mul(width)
        .ok_or_else(|| ArrowError::Corrupt(format!("frame size overflow: {count} x {width}")))
}

/// Reads `len` fixed-width values as an array aliasing the frame.
fn take_primitive<T: Native>(
    cur: &mut Cursor,
    len: usize,
    validity: Option<Bitmap>,
) -> Result<PrimitiveArray<T>, ArrowError> {
    let values = Buffer::from_bytes(cur.take(frame_size(len, T::WIDTH)?)?);
    Ok(PrimitiveArray::from_parts(values, validity, len))
}

/// Reads the `Utf8` layout of `len` strings, validating the offsets and
/// the bytes so later accesses cannot slice out of bounds or split UTF-8.
/// `what` / `whose` name the buffers in errors (a column's or a
/// dictionary's).
fn take_utf8(
    cur: &mut Cursor,
    len: usize,
    validity: Option<Bitmap>,
    (what, whose): (&str, &str),
) -> Result<Utf8Array, ArrowError> {
    let noffs = len
        .checked_add(1)
        .ok_or_else(|| ArrowError::Corrupt("row count overflow".into()))?;
    let offsets = Buffer::from_bytes(cur.take(frame_size(noffs, 4)?)?);
    let data_len = cur.u64()? as usize;
    let strings = Buffer::from_bytes(cur.take(data_len)?);
    let mut prev = 0i32;
    for (i, o) in offsets.iter::<i32>().enumerate() {
        if o < prev || o as usize > data_len {
            return Err(ArrowError::Corrupt(format!("bad {what} offset {o} at {i}")));
        }
        prev = o;
    }
    std::str::from_utf8(strings.as_slice())
        .map_err(|_| ArrowError::Corrupt(format!("{whose} is not UTF-8")))?;
    Ok(Utf8Array::from_parts(offsets, strings, validity, len))
}

/// Decodes a frame produced by [`encode`]. Column buffers alias `data`.
pub fn decode(data: Bytes) -> Result<RecordBatch, ArrowError> {
    let mut cur = Cursor::new(data);
    let magic = cur.take(4)?;
    if magic.as_ref() != MAGIC {
        return Err(ArrowError::Corrupt("bad magic".into()));
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(ArrowError::Corrupt(format!("unknown version {version}")));
    }
    let ncols = cur.u16()? as usize;
    let nrows = cur.u64()? as usize;

    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = cur.u16()? as usize;
        let name_bytes = cur.take(name_len)?;
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| ArrowError::Corrupt("field name is not UTF-8".into()))?
            .to_string();
        let tag = cur.u8()?;
        let dt = DataType::from_tag(tag)
            .ok_or_else(|| ArrowError::Corrupt(format!("unknown type tag {tag}")))?;
        let nullable = cur.u8()? != 0;
        fields.push(Field::new(name, dt, nullable));
    }
    let schema = Schema::new(fields);

    let bitmap_bytes = nrows.div_ceil(8);
    let mut columns = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let has_validity = cur.u8()? != 0;
        let validity = if has_validity {
            let bits = Buffer::from_bytes(cur.take(bitmap_bytes)?);
            Some(Bitmap::from_buffer(bits, nrows))
        } else {
            None
        };
        let array: Array = match schema.field(c).data_type {
            DataType::Int64 => take_primitive::<i64>(&mut cur, nrows, validity)?.into(),
            DataType::Float64 => take_primitive::<f64>(&mut cur, nrows, validity)?.into(),
            DataType::Bool => {
                let bits = Buffer::from_bytes(cur.take(bitmap_bytes)?);
                BoolArray::from_parts(Bitmap::from_buffer(bits, nrows), validity).into()
            }
            DataType::Utf8 => take_utf8(&mut cur, nrows, validity, ("utf8", "utf8 column"))?.into(),
            DataType::DictUtf8 => {
                let keys = take_primitive::<u32>(&mut cur, nrows, validity)?;
                let dict_len = cur.u64()? as usize;
                if dict_len > u32::MAX as usize {
                    return Err(ArrowError::Corrupt(format!(
                        "dictionary of {dict_len} entries exceeds u32 keys"
                    )));
                }
                let dict = take_utf8(&mut cur, dict_len, None, ("dict", "dict data"))?;
                // Keys must resolve: valid slots index the dictionary,
                // null slots hold the canonical placeholder 0.
                for (i, k) in keys.iter_raw().enumerate() {
                    let is_valid = keys.validity().is_none_or(|v| v.get(i));
                    if is_valid && k as usize >= dict_len {
                        return Err(ArrowError::Corrupt(format!(
                            "dict key {k} at row {i} outside dictionary of {dict_len}"
                        )));
                    }
                    if !is_valid && k != 0 {
                        return Err(ArrowError::Corrupt(format!(
                            "non-canonical key {k} at null row {i}"
                        )));
                    }
                }
                DictUtf8Array::from_parts(keys, dict).into()
            }
        };
        columns.push(array);
    }

    RecordBatch::try_new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("score", DataType::Float64, true),
            Field::new("flag", DataType::Bool, true),
            Field::new("name", DataType::Utf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_opt_f64(vec![Some(0.5), None, Some(-1.25)]),
                Array::from_opt_bool(vec![Some(true), Some(false), None]),
                Array::from_opt_utf8(vec![Some("alpha"), None, Some("gamma")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_all_types() {
        let b = sample();
        let bytes = encode(&b);
        let back = decode(bytes).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn round_trip_empty_batch() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let b = RecordBatch::empty(schema);
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    #[test]
    fn decode_is_zero_copy() {
        let b = sample();
        let bytes = encode(&b);
        let base = bytes.as_ref().as_ptr() as usize;
        let end = base + bytes.len();
        let back = decode(bytes).unwrap();
        // The decoded int column's value buffer points into the frame.
        let col = back.column(0).as_i64().unwrap();
        let p = col.values().as_slice().as_ptr() as usize;
        assert!(p >= base && p < end, "decoded buffer does not alias frame");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode(Bytes::from_static(b"NOPE\x01\x00\x00")).unwrap_err();
        assert!(matches!(err, ArrowError::Corrupt(_)));
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = encode(&sample());
        let cut = bytes.slice(0..bytes.len() - 5);
        assert!(matches!(decode(cut), Err(ArrowError::Corrupt(_))));
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        let b = RecordBatch::try_new(schema, vec![Array::from_utf8(&["ab", "cd"])]).unwrap();
        let mut raw = encode(&b).to_vec();
        // Flip a byte inside the offsets region (last 4-byte offset).
        let data_start = raw.len() - 4; // "abcd"
        raw[data_start - 8 - 2] = 0xFF; // Corrupt the middle offset.
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(ArrowError::Corrupt(_))
        ));
    }

    /// Parts longer than the array they describe: every constructor keeps
    /// exactly the array's bytes, so the batch is the one built from
    /// exact parts — as arrays, in size, as a frame, and concatenated.
    #[test]
    fn over_long_parts_round_trip_for_every_encoding() {
        let ints: Buffer = vec![7i64, 0, 9, 10].into();
        let floats: Buffer = vec![0.5f64, -0.0, 2.5].into();
        let keys: Buffer = vec![1u32, 0, 1, 1, 0].into();
        // Nine bits in two bytes; two rows keep the first byte.
        let bits = |first: bool, second: bool| {
            let mut long = [false; 9];
            (long[0], long[1], long[8]) = (first, second, true);
            Bitmap::from_buffer(Bitmap::from_bools(&long).buffer().clone(), 2)
        };
        let utf8 = |values: [&str; 3], validity| {
            let long = Utf8Array::new(&values);
            Utf8Array::from_parts(long.offsets().clone(), long.data().clone(), validity, 2)
        };
        let dict = |keys, entries| {
            let keys = PrimitiveArray::from_parts(keys, Some(bits(true, false)), 2);
            Array::from(DictUtf8Array::from_parts(keys, entries))
        };
        let batch = |columns| {
            let field = |name: &str, dt, nullable| Field::new(name, dt, nullable);
            let schema = Schema::new(vec![
                field("i", DataType::Int64, false),
                field("j", DataType::Int64, true),
                field("f", DataType::Float64, false),
                field("b", DataType::Bool, true),
                field("s", DataType::Utf8, false),
                field("t", DataType::Utf8, true),
                field("d", DataType::DictUtf8, true),
            ]);
            RecordBatch::try_new(schema, columns).unwrap()
        };
        let long = batch(vec![
            PrimitiveArray::<i64>::from_parts(ints.clone(), None, 2).into(),
            PrimitiveArray::<i64>::from_parts(ints, Some(bits(true, false)), 2).into(),
            PrimitiveArray::<f64>::from_parts(floats, None, 2).into(),
            BoolArray::from_parts(bits(false, true), Some(bits(false, true))).into(),
            utf8(["ab", "c", "def"], None).into(),
            utf8(["", "c", "def"], Some(bits(false, true))).into(),
            dict(keys, utf8(["ab", "c", "def"], None)),
        ]);
        let exact = batch(vec![
            Array::from_i64(vec![7, 0]),
            Array::from_opt_i64(vec![Some(7), None]),
            Array::from_f64(vec![0.5, -0.0]),
            Array::from_opt_bool(vec![None, Some(true)]),
            Array::from_utf8(&["ab", "c"]),
            Array::from_opt_utf8(vec![None, Some("c")]),
            dict(vec![1u32, 0].into(), Utf8Array::new(&["ab", "c"])),
        ]);
        assert_eq!(long, exact);
        assert_eq!(long.byte_size(), exact.byte_size());
        let frame = encode(&long);
        assert_eq!(frame.as_slice(), encode(&exact).as_slice());
        assert_eq!(decode(frame).unwrap(), long);
        let twice =
            |b: &RecordBatch| encode(&RecordBatch::concat(&[b.clone(), b.clone()]).unwrap());
        assert_eq!(twice(&long).as_slice(), twice(&exact).as_slice());
    }

    #[test]
    fn unknown_version_rejected() {
        let mut raw = encode(&sample()).to_vec();
        raw[4] = 99;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(ArrowError::Corrupt(_))
        ));
    }

    fn dict_sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("kind", DataType::DictUtf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3, 4, 5]),
                Array::from_opt_dict_utf8(vec![
                    Some("click"),
                    Some("view"),
                    None,
                    Some("click"),
                    Some("click"),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dict_round_trip() {
        let b = dict_sample();
        let back = decode(encode(&b)).unwrap();
        assert_eq!(b, back);
        // Still dictionary-encoded after the round trip, not decoded.
        assert_eq!(back.column(1).data_type(), DataType::DictUtf8);
        let d = back.column(1).as_dict_utf8().unwrap();
        assert_eq!(d.dictionary().len(), 2);
    }

    #[test]
    fn dict_frame_is_smaller_than_plain_for_repetitive_strings() {
        let n = 2000;
        let plain: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "click" } else { "view" })
            .collect();
        let pb = RecordBatch::try_new(
            Schema::new(vec![Field::new("kind", DataType::Utf8, false)]),
            vec![Array::from_utf8(&plain)],
        )
        .unwrap();
        let db = RecordBatch::try_new(
            Schema::new(vec![Field::new("kind", DataType::DictUtf8, false)]),
            vec![Array::from_dict_utf8(&plain)],
        )
        .unwrap();
        let (pe, de) = (encode(&pb), encode(&db));
        assert!(
            de.len() < pe.len(),
            "dict frame {} !< plain frame {}",
            de.len(),
            pe.len()
        );
    }

    #[test]
    fn dict_out_of_range_key_rejected() {
        let mut raw = encode(&dict_sample()).to_vec();
        // Keys for column 1 sit right after its validity byte + bitmap.
        // Find them by corrupting every byte in turn and requiring that
        // the decoder never panics and that at least one corruption is
        // caught as an out-of-range key.
        let mut saw_key_error = false;
        for i in 0..raw.len() {
            let orig = raw[i];
            raw[i] = 0xEE;
            match decode(Bytes::from(raw.clone())) {
                Ok(_) => {}
                Err(ArrowError::Corrupt(msg)) => {
                    if msg.contains("outside dictionary") {
                        saw_key_error = true;
                    }
                }
                Err(_) => {}
            }
            raw[i] = orig;
        }
        assert!(saw_key_error, "no corruption tripped the key-range check");
    }

    #[test]
    fn dict_all_null_round_trips() {
        let schema = Schema::new(vec![Field::new("s", DataType::DictUtf8, true)]);
        let b = RecordBatch::try_new(
            schema,
            vec![Array::from_opt_dict_utf8(vec![None, None, None])],
        )
        .unwrap();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    /// A batch of every encoding over `n` rows drawn from `seed`, nullable
    /// columns carrying validity bitmaps when `nulls` is set.
    fn every_encoding(n: usize, seed: u64, nulls: bool) -> RecordBatch {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut draw = |i: usize| (next(), !nulls || i % 3 != 1);
        let rows: Vec<(u64, bool)> = (0..n).map(&mut draw).collect();
        let words = ["", "a", "bb", "click", "view", "ünï"];
        let word = |r: u64| words[r as usize % words.len()];
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64, nulls),
            Field::new("f", DataType::Float64, nulls),
            Field::new("b", DataType::Bool, nulls),
            Field::new("s", DataType::Utf8, nulls),
            Field::new("d", DataType::DictUtf8, nulls),
        ]);
        let columns = vec![
            Array::from_opt_i64(rows.iter().map(|&(r, k)| k.then_some(r as i64)).collect()),
            Array::from_opt_f64(rows.iter().map(|&(r, k)| k.then_some(r as f64)).collect()),
            Array::from_opt_bool(rows.iter().map(|&(r, k)| k.then_some(r % 2 == 0)).collect()),
            Array::from_opt_utf8(rows.iter().map(|&(r, k)| k.then_some(word(r)))),
            Array::from_opt_dict_utf8(rows.iter().map(|&(r, k)| k.then_some(word(r >> 8)))),
        ];
        RecordBatch::try_new(schema, columns).unwrap()
    }

    #[test]
    fn encoded_len_of_the_empty_batch_is_its_frame_length() {
        let empty = RecordBatch::empty(Schema::new(vec![]));
        assert_eq!(encoded_len(&empty), encode(&empty).len());
        let no_rows = every_encoding(0, 3, true);
        assert_eq!(encoded_len(&no_rows), encode(&no_rows).len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A frame's length is arithmetic over the batch's buffers: for
        /// every encoding, with and without validity bitmaps, over whole
        /// batches and `slice` views at any offset.
        #[test]
        fn encoded_len_is_the_frame_length(
            n in 0usize..300,
            seed in any::<u64>(),
            nulls in any::<bool>(),
            cut in (0usize..300, 0usize..300),
        ) {
            let batch = every_encoding(n, seed, nulls);
            prop_assert_eq!(encoded_len(&batch), encode(&batch).len());
            let (a, b) = (cut.0.min(n), cut.1.min(n));
            let view = batch.slice(a.min(b), a.max(b));
            prop_assert_eq!(encoded_len(&view), encode(&view).len());
        }
    }

    /// Every encoding over `n` rows, each row null.
    fn all_null(n: usize) -> RecordBatch {
        let schema = Schema::new(
            ["i", "f", "b", "s", "d"]
                .iter()
                .zip([
                    DataType::Int64,
                    DataType::Float64,
                    DataType::Bool,
                    DataType::Utf8,
                    DataType::DictUtf8,
                ])
                .map(|(name, dt)| Field::new(*name, dt, true))
                .collect(),
        );
        let columns = vec![
            Array::from_opt_i64(vec![None; n]),
            Array::from_opt_f64(vec![None; n]),
            Array::from_opt_bool(vec![None; n]),
            Array::from_opt_utf8(vec![None; n]),
            Array::from_opt_dict_utf8(vec![None; n]),
        ];
        RecordBatch::try_new(schema, columns).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A selection's frame length is arithmetic over its rows: for
        /// any ascending selection — none, some or every row — of a batch
        /// of every encoding (no nulls, a null every third row, every row
        /// null) and of a `slice` view of it, it is the length of the
        /// frame of the rows gathered by `take_indices`, which keeps a
        /// `DictUtf8` column's dictionary whole.
        #[test]
        fn encoded_len_of_rows_is_the_gathered_frame_length(
            n in 0usize..300,
            seed in any::<u64>(),
            nulls in 0u8..3,
            keep in 0u64..5,
            from in 0usize..300,
        ) {
            let whole = match nulls {
                0 => every_encoding(n, seed, false),
                1 => every_encoding(n, seed, true),
                _ => all_null(n),
            };
            let view = whole.slice(from.min(n), n);
            for batch in [&whole, &view] {
                let mut x = seed;
                let rows: Vec<u32> = (0..batch.num_rows() as u32)
                    .filter(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (x >> 33) % 4 < keep
                    })
                    .collect();
                let indices: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                let gathered = crate::compute::take_indices(batch, &indices).unwrap();
                prop_assert_eq!(encoded_len_of_rows(batch, &rows), encode(&gathered).len());
            }
        }
    }

    #[test]
    fn large_batch_round_trip() {
        let n = 10_000;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Utf8, false),
        ]);
        let strings: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
        let b = RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64((0..n as i64).collect()),
                Array::from_utf8(&strings),
            ],
        )
        .unwrap();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }
}
