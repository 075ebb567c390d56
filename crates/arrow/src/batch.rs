//! Record batches: a schema plus equal-length columns.

use std::fmt;

use crate::array::{Array, Value};
use crate::error::ArrowError;
use crate::schema::{Field, Schema, SchemaRef};

/// An immutable table fragment: one schema, N equal-length columns.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Array>,
    rows: usize,
}

impl RecordBatch {
    /// Creates a batch, validating column count, column types, and lengths
    /// against the schema.
    pub fn try_new(schema: SchemaRef, columns: Vec<Array>) -> Result<Self, ArrowError> {
        let rows = columns.first().map_or(0, Array::len);
        RecordBatch::try_with_rows(schema, columns, rows)
    }

    /// [`RecordBatch::try_new`] with the row count given rather than read
    /// from the first column, so a batch of no columns keeps its rows (a
    /// join whose columns nothing reads still has a row per match).
    pub fn try_with_rows(
        schema: SchemaRef,
        columns: Vec<Array>,
        rows: usize,
    ) -> Result<Self, ArrowError> {
        if schema.len() != columns.len() {
            return Err(ArrowError::ShapeMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        for (i, col) in columns.iter().enumerate() {
            let field = schema.field(i);
            if col.data_type() != field.data_type {
                return Err(ArrowError::TypeMismatch {
                    expected: field.data_type,
                    actual: col.data_type(),
                });
            }
            if col.len() != rows {
                return Err(ArrowError::ShapeMismatch(format!(
                    "column {} has {} rows, expected {rows}",
                    field.name,
                    col.len()
                )));
            }
            if !field.nullable && col.null_count() > 0 {
                return Err(ArrowError::ShapeMismatch(format!(
                    "column {} is non-nullable but contains {} nulls",
                    field.name,
                    col.null_count()
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Array::from_values(f.data_type, &[]).expect("empty column is always valid"))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Array] {
        &self.columns
    }

    /// The column at index `i`.
    pub fn column(&self, i: usize) -> &Array {
        &self.columns[i]
    }

    /// The column with the given name.
    pub fn column_by_name(&self, name: &str) -> Result<&Array, ArrowError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Total in-memory footprint of all columns, in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Array::byte_size).sum()
    }

    /// One row as dynamically-typed values (used by the marshalling
    /// baseline and tests).
    pub fn row(&self, i: usize) -> Vec<Value> {
        assert!(i < self.rows, "row {i} out of bounds for {}", self.rows);
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Keeps only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<RecordBatch, ArrowError> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        for n in names {
            columns.push(self.column_by_name(n)?.clone());
        }
        RecordBatch::try_new(schema, columns)
    }

    /// Dictionary-encodes every eligible `Utf8` column (the cardinality
    /// policy lives in [`Array::dict_encoded`]), flipping the schema
    /// types to match. Columns that don't benefit stay plain.
    pub fn dict_encoded(&self) -> RecordBatch {
        self.recode(Array::dict_encoded)
    }

    /// Decodes every `DictUtf8` column back to plain `Utf8`, flipping
    /// the schema types to match. Output boundaries call this so results
    /// are identical whether or not the pipeline ran dictionary-encoded.
    pub fn dict_decoded(&self) -> RecordBatch {
        self.recode(Array::dict_decoded)
    }

    fn recode(&self, f: impl Fn(&Array) -> Array) -> RecordBatch {
        let columns: Vec<Array> = self.columns.iter().map(f).collect();
        let fields: Vec<Field> = self
            .schema
            .fields()
            .iter()
            .zip(&columns)
            .map(|(fld, col)| Field::new(fld.name.clone(), col.data_type(), fld.nullable))
            .collect();
        RecordBatch {
            schema: Schema::new(fields),
            columns,
            rows: self.rows,
        }
    }

    /// Rows `lo..hi` as a view over this batch's buffers (see
    /// [`Array::slice`]): what `take_indices` of the same contiguous
    /// range returns, without the gather.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> RecordBatch {
        assert!(
            lo <= hi && hi <= self.rows,
            "rows {lo}..{hi} out of bounds for {}",
            self.rows
        );
        RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(lo, hi)).collect(),
            rows: hi - lo,
        }
    }

    /// Concatenates batches with identical schemas, appending raw column
    /// buffers. `DictUtf8` columns merge their dictionaries by first
    /// appearance; any other column of a single batch is an O(1) clone.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch, ArrowError> {
        let parts: Vec<&RecordBatch> = batches.iter().collect();
        let schema = one_schema(&parts, "concat")?;
        let mut columns = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let parts: Vec<&Array> = batches.iter().map(|b| b.column(c)).collect();
            columns.push(Array::concat(&parts)?);
        }
        RecordBatch::try_new(schema, columns)
    }

    /// Rows picked from several batches with identical schemas, in the
    /// order picked: output row `i` is row `picks[i].1` of
    /// `parts[picks[i].0]` (`Array::gather`, column by column). Each
    /// value's bytes are copied once, from the part's buffer straight into
    /// the output's — except that picking every row of every part in
    /// order is [`RecordBatch::concat`], which appends whole buffers.
    ///
    /// # Panics
    ///
    /// Panics if a pick names a part or a row that does not exist.
    pub fn gather(parts: &[&RecordBatch], picks: &[(u32, u32)]) -> Result<RecordBatch, ArrowError> {
        let schema = one_schema(parts, "gather")?;
        let every = parts.iter().enumerate().flat_map(|(p, b)| {
            let rows = 0..b.rows as u32;
            rows.map(move |r| (p as u32, r))
        });
        let whole = picks.iter().copied().eq(every);
        let mut columns = Vec::with_capacity(schema.len());
        for c in 0..schema.len() {
            let cols: Vec<&Array> = parts.iter().map(|b| b.column(c)).collect();
            columns.push(if whole {
                Array::concat(&cols)?
            } else {
                Array::gather(&cols, picks)?
            });
        }
        RecordBatch::try_new(schema, columns)
    }
}

/// The schema every one of `parts` has: `what` of zero batches, or of
/// batches whose schemas differ, is an error.
fn one_schema(parts: &[&RecordBatch], what: &str) -> Result<SchemaRef, ArrowError> {
    let first = parts
        .first()
        .ok_or_else(|| ArrowError::ShapeMismatch(format!("{what} of zero batches")))?;
    if parts.iter().any(|b| b.schema != first.schema) {
        return Err(ArrowError::ShapeMismatch(format!(
            "{what} of batches with differing schemas"
        )));
    }
    Ok(first.schema.clone())
}

impl fmt::Display for RecordBatch {
    /// Compact textual rendering: header plus up to 10 rows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for i in 0..self.rows.min(10) {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", row.join(" | "))?;
        }
        if self.rows > 10 {
            writeln!(f, "... {} more rows", self.rows - 10)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Field, Schema};

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_opt_utf8(vec![Some("a"), None, Some("c")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64, false)]);
        // Wrong column count.
        assert!(RecordBatch::try_new(schema.clone(), vec![]).is_err());
        // Wrong type.
        let err = RecordBatch::try_new(schema.clone(), vec![Array::from_f64(vec![1.0])]);
        assert!(matches!(err, Err(ArrowError::TypeMismatch { .. })));
        // Nulls in non-nullable column.
        let err = RecordBatch::try_new(schema, vec![Array::from_opt_i64(vec![None])]);
        assert!(matches!(err, Err(ArrowError::ShapeMismatch(_))));
    }

    #[test]
    fn ragged_columns_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ]);
        let err = RecordBatch::try_new(
            schema,
            vec![Array::from_i64(vec![1]), Array::from_i64(vec![1, 2])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn row_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(1), vec![Value::I64(2), Value::Null]);
    }

    #[test]
    fn column_by_name() {
        let b = sample();
        assert_eq!(b.column_by_name("id").unwrap().len(), 3);
        assert!(b.column_by_name("zzz").is_err());
    }

    #[test]
    fn projection() {
        let b = sample().project(&["name"]).unwrap();
        assert_eq!(b.num_columns(), 1);
        assert_eq!(b.schema().field(0).name, "name");
    }

    #[test]
    fn concat_stacks_rows() {
        let b = sample();
        let c = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(3), c.row(0));
    }

    #[test]
    fn concat_schema_mismatch_errors() {
        let other = RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Array::from_i64(vec![9])],
        )
        .unwrap();
        assert!(RecordBatch::concat(&[sample(), other]).is_err());
    }

    #[test]
    fn empty_batch() {
        let b = RecordBatch::empty(sample().schema().clone());
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.num_columns(), 2);
    }

    #[test]
    fn dict_encode_decode_round_trips_batch() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, true),
        ]);
        let b = RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3, 4]),
                Array::from_opt_utf8(vec![Some("a"), Some("b"), Some("a"), None]),
            ],
        )
        .unwrap();
        let enc = b.dict_encoded();
        assert_eq!(enc.column(1).data_type(), DataType::DictUtf8);
        assert_eq!(enc.schema().field(1).data_type, DataType::DictUtf8);
        assert_eq!(enc.column(0).data_type(), DataType::Int64);
        let dec = enc.dict_decoded();
        assert_eq!(dec, b);
    }

    #[test]
    fn display_truncates() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64, false)]);
        let b = RecordBatch::try_new(schema, vec![Array::from_i64((0..20).collect())]).unwrap();
        let s = b.to_string();
        assert!(s.contains("more rows"), "{s}");
    }

    use crate::array::{DictUtf8Array, Value};
    use crate::{compute, ipc};
    use proptest::prelude::*;

    const WORDS: [&str; 4] = ["", "a", "bb", "héllo"];

    /// One column per encoding from the same rows (numbers from the first
    /// cell, strings from the second; `None` is a null). The `DictUtf8`
    /// column's dictionary carries an entry no row uses.
    fn five_encodings(rows: &[(Option<i64>, Option<usize>)]) -> RecordBatch {
        let words: Vec<Option<&str>> = rows.iter().map(|r| r.1.map(|w| WORDS[w])).collect();
        let with_spare: Vec<Option<&str>> = std::iter::once(Some("spare"))
            .chain(words.iter().copied())
            .collect();
        let dict = DictUtf8Array::from_options(with_spare).slice(1, rows.len() + 1);
        assert_eq!(dict.dictionary().get(0), Some("spare"));
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("i", DataType::Int64, true),
                Field::new("f", DataType::Float64, true),
                Field::new("b", DataType::Bool, true),
                Field::new("s", DataType::Utf8, true),
                Field::new("d", DataType::DictUtf8, true),
            ]),
            vec![
                Array::from_opt_i64(rows.iter().map(|r| r.0).collect()),
                Array::from_opt_f64(rows.iter().map(|r| r.0.map(|v| v as f64 / 2.0)).collect()),
                Array::from_opt_bool(rows.iter().map(|r| r.0.map(|v| v % 2 == 0)).collect()),
                Array::from_opt_utf8(words),
                Array::DictUtf8(dict),
            ],
        )
        .unwrap()
    }

    /// The per-value concatenation `concat` used to be: every value
    /// through `Option`, dictionaries rebuilt by first appearance.
    fn per_value_concat(batches: &[RecordBatch]) -> RecordBatch {
        let columns = (0..batches[0].num_columns())
            .map(|c| {
                let cols = batches.iter().map(move |b| b.column(c));
                match batches[0].column(c) {
                    Array::Int64(_) => {
                        Array::from_opt_i64(cols.flat_map(|a| a.as_i64().unwrap().iter()).collect())
                    }
                    Array::Float64(_) => {
                        Array::from_opt_f64(cols.flat_map(|a| a.as_f64().unwrap().iter()).collect())
                    }
                    Array::Bool(_) => Array::from_opt_bool(
                        cols.flat_map(|a| a.as_bool().unwrap().iter()).collect(),
                    ),
                    Array::Utf8(_) => {
                        Array::from_opt_utf8(cols.flat_map(|a| a.as_utf8().unwrap().iter()))
                    }
                    Array::DictUtf8(_) => Array::from_opt_dict_utf8(
                        cols.flat_map(|a| a.as_dict_utf8().unwrap().iter()),
                    ),
                }
            })
            .collect();
        RecordBatch::try_new(batches[0].schema().clone(), columns).unwrap()
    }

    /// Equal as arrays and as frames: `DictUtf8` equality is logical, so
    /// only the frame sees a dictionary that differs.
    fn assert_same(got: &RecordBatch, want: &RecordBatch, what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(
            ipc::encode(got).as_slice(),
            ipc::encode(want).as_slice(),
            "{what}: frames differ"
        );
    }

    fn check_slices(b: &RecordBatch) {
        let n = b.num_rows();
        for lo in [0, 1, 3, 7, 8, 9, n / 2, n] {
            for len in [0, 1, 5, 8, 13, n] {
                let (lo, hi) = (lo.min(n), (lo + len).min(n));
                let rows: Vec<usize> = (lo..hi).collect();
                let taken = compute::take_indices(b, &rows).unwrap();
                let sliced = b.slice(lo, hi);
                assert_same(&sliced, &taken, &format!("slice {lo}..{hi} of {n}"));
                for (c, col) in sliced.columns().iter().enumerate() {
                    let nulls = rows.iter().filter(|&&r| b.column(c).is_null(r)).count();
                    assert_eq!(col.validity().is_none(), nulls == 0, "{lo}..{hi} col {c}");
                }
            }
        }
    }

    const OPS: [compute::CmpOp; 6] = {
        use compute::CmpOp::*;
        [Eq, Ne, Lt, Le, Gt, Ge]
    };

    /// The key kernels on every `slice(lo, hi)` view of every column:
    /// hashes against the `Value`-level reference, and sort runs, merges
    /// and comparison masks against the gathered copy of the same rows.
    fn check_kernels_on_views(b: &RecordBatch) {
        let n = b.num_rows();
        for lo in [0, 1, 8, n / 2] {
            for len in [0, 1, 13, n] {
                let (lo, hi) = (lo.min(n), (lo + len).min(n));
                let at = format!("view {lo}..{hi} of {n}");
                let view = b.slice(lo, hi);
                let rows: Vec<usize> = (lo..hi).collect();
                let copy = compute::take_indices(b, &rows).unwrap();

                for cols in [&[0][..], &[4, 1], &[0, 1, 2, 3, 4], &[3, 0]] {
                    let mut hashes = vec![compute::hash_row(&view, &[], 0); hi - lo];
                    for &c in cols {
                        compute::hash_column_into(view.column(c), &mut hashes);
                    }
                    let want: Vec<u64> = (0..hi - lo)
                        .map(|r| compute::hash_row(&view, cols, r))
                        .collect();
                    assert_eq!(hashes, want, "{at}: hash of columns {cols:?}");
                }
                // The two string columns hold the same values, and the
                // integers hash as the floats equal to them.
                let (ints, plain, dict) = (view.column(0), view.column(3), view.column(4));
                assert_eq!(
                    compute::hash_key_column(plain),
                    compute::hash_key_column(dict),
                    "{at}: utf8 against dict key hashes"
                );
                let as_floats = ints.as_i64().unwrap().iter().map(|v| v.map(|v| v as f64));
                assert_eq!(
                    compute::hash_key_column(ints),
                    compute::hash_key_column(&Array::from_opt_f64(as_floats.collect())),
                    "{at}: int against float key hashes"
                );

                let mid = ((hi - lo) / 2) as u32;
                let end = (hi - lo) as u32;
                let scalars = [
                    Value::I64(0),
                    Value::F64(0.5),
                    Value::Bool(true),
                    Value::Str("a".into()),
                    Value::Str("bb".into()),
                ];
                for (c, scalar) in scalars.iter().enumerate() {
                    let (v, g) = (view.column(c), copy.column(c));
                    let (vk, gk) = (compute::SortKeys::new(v), compute::SortKeys::new(g));
                    for order in [
                        compute::SortOrder::Ascending,
                        compute::SortOrder::Descending,
                    ] {
                        let runs = |k: &compute::SortKeys| {
                            let (a, z) =
                                (k.sort_range(order, 0, mid), k.sort_range(order, mid, end));
                            let merged = k.merge(order, &a, &z);
                            (a, z, merged)
                        };
                        assert_eq!(runs(&vk), runs(&gk), "{at}: column {c} sorted {order:?}");
                        assert_eq!(
                            runs(&vk).2,
                            vk.sort_range(order, 0, end),
                            "{at}: column {c}"
                        );
                    }
                    for op in OPS {
                        assert_eq!(
                            compute::cmp_scalar(v, op, scalar).unwrap(),
                            compute::cmp_scalar(g, op, scalar).unwrap(),
                            "{at}: column {c} {op:?} {scalar}"
                        );
                    }
                }
            }
        }
    }

    fn check_concat(b: &RecordBatch, cut1: usize, cut2: usize) {
        let n = b.num_rows();
        let (a, z) = (cut1.min(cut2).min(n), cut1.max(cut2).min(n));
        // Views and gathers of the same ranges, an empty part among them.
        let rows = |lo: usize, hi: usize| (lo..hi).collect::<Vec<usize>>();
        let parts = [
            b.slice(0, a),
            compute::take_indices(b, &rows(a, z)).unwrap(),
            b.slice(z, z),
            b.slice(z, n),
        ];
        for take in [&parts[..], &parts[..1], &parts[1..3]] {
            let got = RecordBatch::concat(take).unwrap();
            assert_same(
                &got,
                &per_value_concat(take),
                &format!("cuts {a},{z} of {n}"),
            );
        }
    }

    /// `gather` of picks that interleave three parts of `b` (a view, a
    /// gather, a view) against the same rows built value by value. The
    /// picks take each part's rows from the last one down, skipping every
    /// third, so no part's rows come in order — the `DictUtf8` dictionary
    /// must still list entries by first appearance over the parts in
    /// order, rows ascending.
    fn check_gather(b: &RecordBatch, cut: usize) {
        let n = b.num_rows();
        let (a, z) = (cut.min(n), (cut + n / 3).min(n));
        let rows: Vec<usize> = (a..z).rev().collect();
        let parts = [
            b.slice(0, a),
            compute::take_indices(b, &rows).unwrap(),
            b.slice(z, n),
        ];
        let refs: Vec<&RecordBatch> = parts.iter().collect();
        let mut left: Vec<usize> = parts.iter().map(RecordBatch::num_rows).collect();
        let mut picks: Vec<(u32, u32)> = Vec::new();
        while left.iter().any(|&l| l > 0) {
            for (p, l) in left.iter_mut().enumerate() {
                if *l > 0 {
                    *l -= 1;
                    if *l % 3 != 1 {
                        picks.push((p as u32, *l as u32));
                    }
                }
            }
        }
        let got = RecordBatch::gather(&refs, &picks).unwrap();
        let columns = (0..b.num_columns())
            .map(|c| {
                let value = |&(p, i): &(u32, u32)| parts[p as usize].column(c).value_at(i as usize);
                let values: Vec<Value> = picks.iter().map(value).collect();
                let dt = b.column(c).data_type();
                if dt != DataType::DictUtf8 {
                    return Array::from_values(dt, &values).unwrap();
                }
                // The entries in (part, row) order lead, so they are the
                // dictionary's order; the gathered rows follow.
                let mut by_part = picks.clone();
                by_part.sort_unstable();
                let mut lead: Vec<Value> = Vec::new();
                for v in by_part.iter().map(value) {
                    if v != Value::Null && !lead.contains(&v) {
                        lead.push(v);
                    }
                }
                let all: Vec<Value> = lead.iter().cloned().chain(values).collect();
                Array::from_values(dt, &all)
                    .unwrap()
                    .slice(lead.len(), all.len())
            })
            .collect();
        let want = RecordBatch::try_new(b.schema().clone(), columns).unwrap();
        assert_same(&got, &want, &format!("gather around {a}..{z} of {n}"));
    }

    #[test]
    fn slice_and_concat_edge_shapes() {
        // A run of nulls that covers whole ranges (rows 8..16), ranges
        // with no null at all (0..8), empty strings, and an empty batch.
        let rows: Vec<(Option<i64>, Option<usize>)> = (0..21)
            .map(|i| match i {
                8..=15 => (None, None),
                _ => (Some(i as i64 - 4), Some(i % 4)),
            })
            .collect();
        let b = five_encodings(&rows);
        check_slices(&b);
        check_kernels_on_views(&b);
        for (c1, c2) in [(0, 0), (8, 16), (3, 11), (16, 21), (21, 21)] {
            check_concat(&b, c1, c2);
            check_gather(&b, c1);
        }
        let all_null = five_encodings(&[(None, None); 9]);
        check_slices(&all_null);
        check_kernels_on_views(&all_null);
        check_concat(&all_null, 2, 7);
        check_gather(&all_null, 2);
        let empty = five_encodings(&[]);
        check_slices(&empty);
        check_kernels_on_views(&empty);
        check_concat(&empty, 0, 0);
        check_gather(&empty, 0);
    }

    #[test]
    fn gather_of_every_row_is_a_concatenation_only_in_order() {
        let rows: Vec<(Option<i64>, Option<usize>)> = (0..9)
            .map(|i| (Some(i), (i % 4 != 3).then_some(i as usize % 4)))
            .collect();
        let b = five_encodings(&rows);
        let parts = [b.slice(0, 4), b.slice(4, 9)];
        let refs: Vec<&RecordBatch> = parts.iter().collect();
        let every: Vec<(u32, u32)> = (0..4)
            .map(|r| (0, r))
            .chain((0..5).map(|r| (1, r)))
            .collect();
        let concat = RecordBatch::concat(&parts).unwrap();
        assert_same(
            &RecordBatch::gather(&refs, &every).unwrap(),
            &concat,
            "in order",
        );
        let reversed: Vec<(u32, u32)> = every.iter().rev().copied().collect();
        let backwards: Vec<usize> = (0..9).rev().collect();
        assert_eq!(
            RecordBatch::gather(&refs, &reversed).unwrap(),
            compute::take_indices(&concat, &backwards).unwrap(),
            "every row, out of order"
        );
    }

    #[test]
    fn dictionary_memo_is_shared_by_clones_and_changes_nothing() {
        let words: Vec<&str> = (0..40).map(|i| WORDS[i % 3]).collect();
        let plain = Array::from_utf8(&words);
        let clone = plain.clone();
        let first = plain.dict_encoded();
        let again = clone.dict_encoded();
        // Same key buffer: the clone answered from the first call's memo.
        let keys = |a: &Array| {
            a.as_dict_utf8()
                .unwrap()
                .keys()
                .values()
                .as_slice()
                .as_ptr()
        };
        assert_eq!(keys(&first), keys(&again));
        // A fresh array of the same values encodes to the same frame.
        let fresh = Array::from_utf8(&words).dict_encoded();
        let frame = |a: Array| {
            let schema = Schema::new(vec![Field::new("s", a.data_type(), false)]);
            ipc::encode(&RecordBatch::try_new(schema, vec![a]).unwrap())
        };
        assert_eq!(frame(first).as_slice(), frame(fresh).as_slice());
        // The memo is not part of the value.
        assert_eq!(plain, Array::from_utf8(&words));
        // A column not worth encoding stays plain on every call.
        let unique = Array::from_utf8(&["p", "q", "r"]);
        assert_eq!(unique.dict_encoded().data_type(), DataType::Utf8);
        assert_eq!(unique.clone().dict_encoded().data_type(), DataType::Utf8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_slice_equals_take_of_the_range(
            rows in proptest::collection::vec(
                (proptest::option::of(-6i64..6), proptest::option::of(0usize..4)),
                0..80,
            ),
        ) {
            check_slices(&five_encodings(&rows));
        }

        #[test]
        fn prop_key_kernels_on_a_view_equal_those_on_the_gathered_rows(
            rows in proptest::collection::vec(
                (proptest::option::of(-6i64..6), proptest::option::of(0usize..4)),
                0..80,
            ),
        ) {
            check_kernels_on_views(&five_encodings(&rows));
        }

        #[test]
        fn prop_concat_equals_per_value_concat(
            rows in proptest::collection::vec(
                (proptest::option::of(-6i64..6), proptest::option::of(0usize..4)),
                0..80,
            ),
            cut1 in 0usize..80,
            cut2 in 0usize..80,
        ) {
            check_concat(&five_encodings(&rows), cut1, cut2);
        }

        #[test]
        fn prop_gather_equals_per_value_gather(
            rows in proptest::collection::vec(
                (proptest::option::of(-6i64..6), proptest::option::of(0usize..4)),
                0..80,
            ),
            cut in 0usize..80,
        ) {
            check_gather(&five_encodings(&rows), cut);
        }
    }
}
