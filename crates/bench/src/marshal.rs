//! Row-at-a-time marshalling: the *costly* baseline.
//!
//! This is the conventional way systems without a shared format exchange
//! data between heterogeneous runtimes: walk every row, tag every value,
//! copy every string, and re-parse on the other side. The Skadi paper
//! (§1, data-plane benefit 2) argues that a shared columnar format
//! eliminates this per-value work; experiment E9 measures the difference
//! against [`skadi_arrow::ipc`]. Bench and test only: one columnar format
//! ships, and CI greps that nothing under `crates/*/src` outside this
//! crate names this one.
//!
//! Layout per row, per column: `tag u8` (0 = null, else type tag + 1)
//! followed by the value (`i64`/`f64` as 8 LE bytes, bool as 1 byte,
//! strings as `u32 len | bytes`).

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::datatype::DataType;
use skadi_arrow::error::ArrowError;
use skadi_arrow::schema::{Field, Schema};

/// Serializes a batch row-by-row with per-value tags and string copies.
pub fn to_rows(batch: &RecordBatch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(batch.num_columns() as u16).to_le_bytes());
    out.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());
    for field in batch.schema().fields() {
        let name = field.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.push(field.data_type.tag());
        out.push(field.nullable as u8);
    }
    for r in 0..batch.num_rows() {
        for c in 0..batch.num_columns() {
            match batch.column(c).value_at(r) {
                Value::Null => out.push(0),
                Value::I64(v) => {
                    out.push(DataType::Int64.tag() + 1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::F64(v) => {
                    out.push(DataType::Float64.tag() + 1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::Bool(v) => {
                    out.push(DataType::Bool.tag() + 1);
                    out.push(v as u8);
                }
                Value::Str(s) => {
                    out.push(DataType::Utf8.tag() + 1);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArrowError> {
        if self.pos + n > self.data.len() {
            return Err(ArrowError::Corrupt("truncated row encoding".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArrowError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArrowError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ArrowError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ArrowError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Deserializes a row encoding back into a columnar batch. Every value is
/// re-parsed and strings are copied — deliberately, that is the cost this
/// baseline exists to demonstrate.
pub fn from_rows(data: &[u8]) -> Result<RecordBatch, ArrowError> {
    let mut rd = Reader { data, pos: 0 };
    let ncols = rd.u16()? as usize;
    let nrows = rd.u64()? as usize;
    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = rd.u16()? as usize;
        let name = std::str::from_utf8(rd.take(name_len)?)
            .map_err(|_| ArrowError::Corrupt("field name is not UTF-8".into()))?
            .to_string();
        let tag = rd.u8()?;
        let dt = DataType::from_tag(tag)
            .ok_or_else(|| ArrowError::Corrupt(format!("unknown type tag {tag}")))?;
        let nullable = rd.u8()? != 0;
        fields.push(Field::new(name, dt, nullable));
    }
    let schema = Schema::new(fields);

    let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(nrows); ncols];
    for _ in 0..nrows {
        for col in cols.iter_mut() {
            let tag = rd.u8()?;
            let v = if tag == 0 {
                Value::Null
            } else {
                match DataType::from_tag(tag - 1) {
                    Some(DataType::Int64) => {
                        Value::I64(i64::from_le_bytes(rd.take(8)?.try_into().expect("8")))
                    }
                    Some(DataType::Float64) => {
                        Value::F64(f64::from_le_bytes(rd.take(8)?.try_into().expect("8")))
                    }
                    Some(DataType::Bool) => Value::Bool(rd.u8()? != 0),
                    Some(DataType::Utf8) => {
                        let len = rd.u32()? as usize;
                        let s = std::str::from_utf8(rd.take(len)?)
                            .map_err(|_| ArrowError::Corrupt("string is not UTF-8".into()))?;
                        Value::Str(s.to_string())
                    }
                    // Dict columns marshal their values with the plain
                    // Utf8 tag, so a DictUtf8 *value* tag never appears.
                    Some(DataType::DictUtf8) | None => {
                        return Err(ArrowError::Corrupt(format!("unknown value tag {tag}")))
                    }
                }
            };
            col.push(v);
        }
    }

    let mut arrays = Vec::with_capacity(ncols);
    for (i, values) in cols.into_iter().enumerate() {
        arrays.push(Array::from_values(schema.field(i).data_type, &values)?);
    }
    RecordBatch::try_new(schema, arrays)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("score", DataType::Float64, true),
            Field::new("ok", DataType::Bool, true),
            Field::new("name", DataType::Utf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![10, 20]),
                Array::from_opt_f64(vec![None, Some(2.5)]),
                Array::from_opt_bool(vec![Some(false), None]),
                Array::from_opt_utf8(vec![Some("x"), Some("yz")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let b = sample();
        assert_eq!(from_rows(&to_rows(&b)).unwrap(), b);
    }

    #[test]
    fn truncation_detected() {
        let raw = to_rows(&sample());
        assert!(from_rows(&raw[..raw.len() - 3]).is_err());
    }

    #[test]
    fn garbage_tag_detected() {
        let mut raw = to_rows(&sample());
        let n = raw.len();
        raw[n - 4] = 200; // Clobber a value tag near the end.
        assert!(from_rows(&raw).is_err());
    }

    #[test]
    fn marshalled_form_is_larger_than_ipc_for_strings() {
        // Per-row tags and lengths cost more than columnar buffers.
        let strings: Vec<String> = (0..1000).map(|i| format!("row-{i}")).collect();
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        let b = RecordBatch::try_new(schema, vec![Array::from_utf8(&strings)]).unwrap();
        let rows = to_rows(&b).len();
        let ipc = skadi_arrow::ipc::encode(&b).len();
        assert!(rows as f64 > ipc as f64 * 0.9, "rows={rows} ipc={ipc}");
    }
}
