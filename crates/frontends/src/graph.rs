//! Graph-processing frontend (Pregel-style vertex programs).
//!
//! Iterative graph computation (PageRank, SSSP, connected components) is
//! expressed as supersteps; each superstep gathers messages shuffled by
//! destination vertex, applies the vertex program, and scatters new
//! messages. FlowGraph is a DAG, so the supersteps are *unrolled* — the
//! paper notes that whether to finalize such structure at compile time or
//! reshape at runtime is an open question (§2.2); unrolling is the
//! compile-time answer.

use skadi_flowgraph::{FlowGraph, GraphError, VertexId};
use skadi_ir::Op;

/// A declared iterative vertex program.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexProgram {
    /// Graph dataset name.
    pub graph: String,
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: u64,
    /// The per-superstep compute op name (for diagnostics).
    pub program: String,
    /// Number of supersteps to unroll.
    pub supersteps: u32,
}

impl VertexProgram {
    /// PageRank over the named graph.
    pub fn pagerank(graph: &str, vertices: u64, edges: u64, iterations: u32) -> Self {
        VertexProgram {
            graph: graph.to_string(),
            vertices,
            edges,
            program: "pagerank".to_string(),
            supersteps: iterations,
        }
    }

    /// Estimated bytes of one superstep's message volume.
    fn message_bytes(&self) -> u64 {
        // One 16-byte message per edge.
        self.edges.saturating_mul(16).max(64)
    }

    /// Builds the unrolled FlowGraph, returning `(graph, sink)`.
    pub fn to_flowgraph(&self) -> Result<(FlowGraph, VertexId), GraphError> {
        assert!(self.supersteps > 0, "need at least one superstep");
        let mut g = FlowGraph::new();
        let topo_bytes = self.edges.saturating_mul(8).max(64);
        let src = g.add_source(&self.graph, self.vertices, topo_bytes);
        let msg_bytes = self.message_bytes();
        let mut head = src;
        for _ in 0..self.supersteps {
            // Gather + apply: aggregate messages by destination vertex.
            let apply = g.add_ir_op(Op::Aggregate, self.edges, msg_bytes);
            g.connect_keyed(head, apply, "dst")?;
            head = apply;
        }
        let sink = g.add_sink(&format!("{}-{}", self.graph, self.program));
        g.connect(head, sink)?;
        g.validate()?;
        Ok((g, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_flowgraph::EdgeKind;

    #[test]
    fn unrolls_supersteps() {
        let (g, _) = VertexProgram::pagerank("web", 1_000_000, 10_000_000, 5)
            .to_flowgraph()
            .unwrap();
        // source + 5 supersteps + sink.
        assert_eq!(g.len(), 7);
        let aggs = g
            .vertices()
            .iter()
            .filter(|v| v.body.ops() == [Op::Aggregate])
            .count();
        assert_eq!(aggs, 5);
    }

    #[test]
    fn supersteps_form_a_keyed_chain() {
        let (g, sink) = VertexProgram::pagerank("web", 100, 1000, 3)
            .to_flowgraph()
            .unwrap();
        // Every non-sink edge is keyed on dst.
        let keyed = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Keyed("dst".into()))
            .count();
        assert_eq!(keyed, 3);
        // The chain ends at the sink.
        let last = g.inputs_of(sink)[0];
        assert_eq!(g.vertex(last).body.ops(), [Op::Aggregate]);
    }

    #[test]
    fn message_volume_scales_with_edges() {
        let small = VertexProgram::pagerank("a", 10, 100, 1);
        let big = VertexProgram::pagerank("b", 10, 100_000, 1);
        let (gs, _) = small.to_flowgraph().unwrap();
        let (gb, _) = big.to_flowgraph().unwrap();
        let s = gs
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Aggregate])
            .unwrap();
        let b = gb
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Aggregate])
            .unwrap();
        assert!(b.output_bytes_hint > s.output_bytes_hint * 100);
    }

    #[test]
    #[should_panic(expected = "at least one superstep")]
    fn zero_supersteps_panics() {
        let _ = VertexProgram::pagerank("x", 1, 1, 0).to_flowgraph();
    }
}
