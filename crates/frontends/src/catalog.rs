//! Table catalog: column names and cardinality hints for planning.

use std::collections::BTreeMap;

/// One base table's description. The planner resolves names and sizes
/// stages; it never reads a column's type, so none is kept.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Column names, in table order.
    pub columns: Vec<String>,
    /// Estimated row count.
    pub rows: u64,
    /// Estimated total size in bytes.
    pub bytes: u64,
}

impl TableDef {
    /// Builds a table definition.
    pub fn new(columns: &[&str], rows: u64, bytes: u64) -> Self {
        TableDef {
            columns: columns.iter().map(|n| n.to_string()).collect(),
            rows,
            bytes,
        }
    }

    /// True if the table has the named column.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|n| n == name)
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
        Catalog::new()
            .table(
                "events",
                TableDef::new(&["user_id", "ts", "kind", "value"], 10_000_000, 640 << 20),
            )
            .table(
                "users",
                TableDef::new(&["user_id", "country", "age"], 1_000_000, 48 << 20),
            )
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
        assert!(c.get("users").unwrap().has_column("country"));
        assert!(!c.get("users").unwrap().has_column("value"));
    }
}
