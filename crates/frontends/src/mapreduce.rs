//! MapReduce frontend.
//!
//! The classic map -> shuffle -> reduce pattern expressed on FlowGraph:
//! a source feeds a map vertex, a keyed edge shuffles to the reduce
//! vertex, and the reduction lands in a sink.

use skadi_flowgraph::{FlowGraph, GraphError, VertexId};
use skadi_ir::Op;

/// A declared MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReduceJob {
    /// Input dataset name.
    pub input: String,
    /// Input rows.
    pub input_rows: u64,
    /// Input bytes.
    pub input_bytes: u64,
    /// Shuffle key.
    pub key: String,
    /// Fraction of input surviving the map phase, `(0, 1]`.
    pub map_selectivity: f64,
    /// Fraction of shuffled data surviving the reduce, `(0, 1]`.
    pub reduce_factor: f64,
}

impl MapReduceJob {
    /// A job over `input` keyed by `key` with neutral size factors.
    pub fn new(input: &str, rows: u64, bytes: u64, key: &str) -> Self {
        MapReduceJob {
            input: input.to_string(),
            input_rows: rows,
            input_bytes: bytes,
            key: key.to_string(),
            map_selectivity: 1.0,
            reduce_factor: 0.05,
        }
    }

    /// Sets the map-phase selectivity.
    pub fn map_selectivity(mut self, s: f64) -> Self {
        assert!(s > 0.0 && s <= 1.0, "selectivity must be in (0, 1]");
        self.map_selectivity = s;
        self
    }

    /// Sets the reduce-phase output factor.
    pub fn reduce_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "reduce factor must be in (0, 1]");
        self.reduce_factor = f;
        self
    }

    /// Builds the FlowGraph, returning `(graph, sink)`.
    pub fn to_flowgraph(&self) -> Result<(FlowGraph, VertexId), GraphError> {
        let mut g = FlowGraph::new();
        let src = g.add_source(&self.input, self.input_rows, self.input_bytes);
        let map_rows = ((self.input_rows as f64) * self.map_selectivity).max(1.0) as u64;
        let map_bytes = ((self.input_bytes as f64) * self.map_selectivity).max(1.0) as u64;
        // A map is a per-row transform: the fusable tensor.map op name
        // would be wrong here (frames), so use rel.project + rel.filter
        // semantics rolled into a filter-like op.
        let map = g.add_ir_op(Op::Filter, map_rows, map_bytes);
        let red_bytes = ((map_bytes as f64) * self.reduce_factor).max(64.0) as u64;
        let red = g.add_ir_op(Op::Aggregate, map_rows, red_bytes);
        let sink = g.add_sink(&format!("{}-result", self.input));
        g.connect(src, map)?;
        g.connect_keyed(map, red, &self.key)?;
        g.connect(red, sink)?;
        g.validate()?;
        Ok((g, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_flowgraph::EdgeKind;

    #[test]
    fn builds_map_shuffle_reduce() {
        let (g, sink) = MapReduceJob::new("logs", 1 << 20, 128 << 20, "word")
            .to_flowgraph()
            .unwrap();
        assert_eq!(g.len(), 4);
        let names: Vec<&str> = g.vertices().iter().map(|v| v.body.name()).collect();
        assert_eq!(
            names,
            vec!["logs", "rel.filter", "rel.aggregate", "logs-result"]
        );
        // The shuffle edge is keyed on the word.
        let keyed = g
            .edges()
            .iter()
            .find(|e| matches!(e.kind, EdgeKind::Keyed(_)))
            .unwrap();
        assert_eq!(keyed.kind, EdgeKind::Keyed("word".into()));
        assert_eq!(g.outputs_of(g.inputs_of(sink)[0]), vec![sink]);
    }

    #[test]
    fn selectivities_shrink_data() {
        let (g, _) = MapReduceJob::new("logs", 1000, 1 << 20, "k")
            .map_selectivity(0.1)
            .reduce_factor(0.01)
            .to_flowgraph()
            .unwrap();
        let map = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Filter])
            .unwrap();
        assert_eq!(map.rows_hint, 100);
        let red = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Aggregate])
            .unwrap();
        assert!(red.output_bytes_hint < map.output_bytes_hint);
    }

    #[test]
    #[should_panic(expected = "selectivity must be")]
    fn bad_selectivity_panics() {
        let _ = MapReduceJob::new("x", 1, 1, "k").map_selectivity(0.0);
    }
}
