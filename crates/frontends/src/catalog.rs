//! Table catalog: each table's schema and cardinality hints for planning.

use std::collections::BTreeMap;

use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema, SchemaRef};

/// One base table's description. The planner resolves and types every
/// column from the schema and sizes stages from the estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// The table's columns, in table order: names, types, nullability.
    pub schema: SchemaRef,
    /// Estimated row count.
    pub rows: u64,
    /// Estimated total size in bytes.
    pub bytes: u64,
}

impl TableDef {
    /// Builds a table definition.
    pub fn new(schema: SchemaRef, rows: u64, bytes: u64) -> Self {
        TableDef {
            schema,
            rows,
            bytes,
        }
    }
}

/// The planner's table catalog.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table.
    pub fn table(mut self, name: &str, def: TableDef) -> Self {
        self.tables.insert(name.to_string(), def);
        self
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name)
    }

    /// A small demo catalog used by examples and tests: web events and a
    /// user dimension table.
    pub fn demo() -> Catalog {
        use DataType::{Float64, Int64, Utf8};
        let schema = |cols: &[(&str, DataType)]| {
            Schema::new(cols.iter().map(|&(n, t)| Field::new(n, t, true)).collect())
        };
        let events = [
            ("user_id", Int64),
            ("ts", Int64),
            ("kind", Utf8),
            ("value", Float64),
        ];
        let users = [("user_id", Int64), ("country", Utf8), ("age", Int64)];
        Catalog::new()
            .table(
                "events",
                TableDef::new(schema(&events), 10_000_000, 640 << 20),
            )
            .table("users", TableDef::new(schema(&users), 1_000_000, 48 << 20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup() {
        let c = Catalog::demo();
        assert!(c.get("events").is_some());
        assert!(c.get("nope").is_none());
        let users = &c.get("users").unwrap().schema;
        assert_eq!(
            users.field(users.index_of("country").unwrap()).data_type,
            DataType::Utf8
        );
        assert!(users.index_of("value").is_err());
    }
}
