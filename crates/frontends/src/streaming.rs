//! Streaming frontend (micro-batch, D-Streams style).
//!
//! Streaming is one of the execution models the paper's runtime must host
//! (§1: "BSP, task-parallel, streaming, graph, ML"). Following Discretized
//! Streams, a stream is a sequence of micro-batches; each batch flows
//! through a per-batch transform, and a *stateful* windowed aggregation
//! chains batch to batch (state carried on a FlowGraph edge, the same way
//! the ML frontend threads weights).

use skadi_flowgraph::{FlowGraph, GraphError, VertexId};
use skadi_ir::Op;

/// A declared micro-batch streaming job.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamJob {
    /// Stream source name.
    pub source: String,
    /// Events per micro-batch.
    pub batch_rows: u64,
    /// Bytes per micro-batch.
    pub batch_bytes: u64,
    /// Key for the windowed aggregation.
    pub key: String,
    /// Micro-batches to unroll.
    pub batches: u32,
    /// Fraction of events surviving the per-batch transform.
    pub transform_selectivity: f64,
}

impl StreamJob {
    /// A job over `source` keyed by `key`.
    pub fn new(source: &str, batch_rows: u64, batch_bytes: u64, key: &str) -> Self {
        StreamJob {
            source: source.to_string(),
            batch_rows,
            batch_bytes,
            key: key.to_string(),
            batches: 4,
            transform_selectivity: 0.5,
        }
    }

    /// Number of micro-batches to unroll.
    pub fn batches(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one micro-batch");
        self.batches = n;
        self
    }

    /// Per-batch transform selectivity.
    pub fn transform_selectivity(mut self, s: f64) -> Self {
        assert!(s > 0.0 && s <= 1.0, "selectivity must be in (0, 1]");
        self.transform_selectivity = s;
        self
    }

    /// Builds the FlowGraph, returning `(graph, sink)`.
    pub fn to_flowgraph(&self) -> Result<(FlowGraph, VertexId), GraphError> {
        let mut g = FlowGraph::new();
        let t_rows = ((self.batch_rows as f64) * self.transform_selectivity).max(1.0) as u64;
        let t_bytes = ((self.batch_bytes as f64) * self.transform_selectivity).max(1.0) as u64;
        // Window state is small relative to the batch.
        let state_bytes = (t_bytes / 16).max(64);

        let mut window_state: Option<VertexId> = None;
        for b in 0..self.batches {
            let src = g.add_source(
                &format!("{}-batch-{b}", self.source),
                self.batch_rows,
                self.batch_bytes,
            );
            // Per-batch stateless transform (fusable per-row work).
            let transform = g.add_ir_op(Op::Filter, self.batch_rows, t_bytes);
            g.connect(src, transform)?;
            // Stateful windowed aggregation: shuffled by key, fed by the
            // previous window's state.
            let window = g.add_ir_op(Op::Aggregate, t_rows, state_bytes);
            g.connect_keyed(transform, window, &self.key)?;
            if let Some(prev) = window_state {
                g.connect_keyed(prev, window, &self.key)?;
            }
            window_state = Some(window);
        }
        // `batches` is a public field, so the builder's check can be
        // bypassed: a job of no micro-batch has no window to sink.
        let Some(last) = window_state else {
            return Err(GraphError::Invalid(format!(
                "stream {} has no micro-batch",
                self.source
            )));
        };
        let sink = g.add_sink(&format!("{}-windows", self.source));
        g.connect(last, sink)?;
        g.validate()?;
        Ok((g, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_flowgraph::EdgeKind;

    #[test]
    fn unrolls_micro_batches() {
        let (g, _) = StreamJob::new("clicks", 10_000, 1 << 20, "user")
            .batches(5)
            .to_flowgraph()
            .unwrap();
        // 5 x (source + transform + window) + sink.
        assert_eq!(g.len(), 16);
        let windows = g
            .vertices()
            .iter()
            .filter(|v| v.body.ops() == [Op::Aggregate])
            .count();
        assert_eq!(windows, 5);
    }

    #[test]
    fn window_state_chains_batches() {
        let (g, sink) = StreamJob::new("clicks", 100, 1 << 10, "user")
            .batches(3)
            .to_flowgraph()
            .unwrap();
        // Each window after the first has two keyed inputs: the batch
        // transform and the previous window.
        let windows: Vec<VertexId> = g
            .vertices()
            .iter()
            .filter(|v| v.body.ops() == [Op::Aggregate])
            .map(|v| v.id)
            .collect();
        assert_eq!(g.inputs_of(windows[0]).len(), 1);
        assert_eq!(g.inputs_of(windows[1]).len(), 2);
        assert_eq!(g.inputs_of(windows[2]).len(), 2);
        // Only the last window reaches the sink.
        assert_eq!(g.inputs_of(sink), vec![windows[2]]);
    }

    #[test]
    fn edges_keyed_on_stream_key() {
        let (g, _) = StreamJob::new("clicks", 100, 1 << 10, "user")
            .batches(2)
            .to_flowgraph()
            .unwrap();
        let keyed = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Keyed("user".into()))
            .count();
        // 2 transform->window + 1 window->window.
        assert_eq!(keyed, 3);
    }

    #[test]
    fn selectivity_shrinks_transform_output() {
        let (g, _) = StreamJob::new("s", 1000, 1 << 20, "k")
            .transform_selectivity(0.1)
            .to_flowgraph()
            .unwrap();
        let t = g
            .vertices()
            .iter()
            .find(|v| v.body.ops() == [Op::Filter])
            .unwrap();
        assert_eq!(t.rows_hint, 1000);
        assert_eq!(t.output_bytes_hint, (1u64 << 20) / 10);
    }

    #[test]
    fn zero_batches_set_directly_is_an_error() {
        let job = StreamJob {
            batches: 0,
            ..StreamJob::new("s", 1, 1, "k")
        };
        assert_eq!(
            job.to_flowgraph().unwrap_err(),
            GraphError::Invalid("stream s has no micro-batch".into())
        );
    }

    #[test]
    #[should_panic(expected = "at least one micro-batch")]
    fn zero_batches_panics() {
        let _ = StreamJob::new("s", 1, 1, "k").batches(0);
    }
}
