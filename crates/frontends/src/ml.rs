//! ML training frontend.
//!
//! Declares a mini-batch training pipeline (the "ML training (e.g., a
//! python script)" input of §2.1) and lowers it onto FlowGraph: per
//! step, a data batch flows through feature extraction into a forward
//! pass, loss, backward pass, and an optimizer step; the updated weights
//! feed the next step over a broadcast edge. Marking the per-step
//! compute as a gang yields the SPMD sub-graph the paper's
//! gang-scheduling discussion targets.

use skadi_flowgraph::{FlowGraph, GraphError, VertexId};
use skadi_ir::Op;

/// A declared training pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingPipeline {
    /// Training-data dataset name.
    pub dataset: String,
    /// Rows per mini-batch.
    pub batch_rows: u64,
    /// Bytes per mini-batch.
    pub batch_bytes: u64,
    /// Model parameter bytes.
    pub weight_bytes: u64,
    /// Optimizer steps to unroll.
    pub steps: u32,
}

impl TrainingPipeline {
    /// A pipeline over `dataset`.
    pub fn new(dataset: &str, batch_rows: u64, batch_bytes: u64, weight_bytes: u64) -> Self {
        TrainingPipeline {
            dataset: dataset.to_string(),
            batch_rows,
            batch_bytes,
            weight_bytes,
            steps: 1,
        }
    }

    /// Number of optimizer steps to unroll.
    pub fn steps(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one step");
        self.steps = n;
        self
    }

    /// Builds the FlowGraph, returning `(graph, sink)`. The sink receives
    /// the final weights.
    pub fn to_flowgraph(&self) -> Result<(FlowGraph, VertexId), GraphError> {
        let mut g = FlowGraph::new();
        let weights0 = g.add_source(
            &format!("{}-init-weights", self.dataset),
            1,
            self.weight_bytes,
        );
        let mut weights = weights0;
        for step in 0..self.steps {
            let batch = g.add_source(
                &format!("{}-batch-{step}", self.dataset),
                self.batch_rows,
                self.batch_bytes,
            );
            // Feature extraction: frame -> tensor (fusable, cross-domain).
            let feats = g.add_ir_op(Op::FromFrame, self.batch_rows, self.batch_bytes);
            g.connect(batch, feats)?;
            // Forward pass.
            let fwd = g.add_ir_op(Op::MatMul, self.batch_rows, self.batch_bytes);
            g.connect(feats, fwd)?;
            g.connect_broadcast(weights, fwd)?;
            // Activation.
            let act = g.add_ir_op(Op::Map, self.batch_rows, self.batch_bytes);
            g.connect(fwd, act)?;
            // Backward pass (gradient wrt weights).
            let grad = g.add_ir_op(Op::MatMul, self.batch_rows, self.weight_bytes);
            g.connect(act, grad)?;
            // Optimizer step: new weights.
            let sgd = g.add_ir_op(Op::SgdStep, 1, self.weight_bytes);
            g.connect(grad, sgd)?;
            g.connect_broadcast(weights, sgd)?;
            weights = sgd;
        }
        let sink = g.add_sink(&format!("{}-weights", self.dataset));
        g.connect(weights, sink)?;
        g.validate()?;
        Ok((g, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_flowgraph::EdgeKind;

    #[test]
    fn single_step_shape() {
        let (g, _) = TrainingPipeline::new("mnist", 1 << 10, 4 << 20, 1 << 20)
            .to_flowgraph()
            .unwrap();
        let ops: Vec<&[Op]> = g.vertices().iter().map(|v| v.body.ops()).collect();
        for op in [Op::MatMul, Op::SgdStep, Op::FromFrame] {
            assert!(ops.contains(&&[op][..]), "{op:?}");
        }
        // init weights + batch + 5 compute + sink.
        assert_eq!(g.len(), 8);
    }

    #[test]
    fn steps_chain_through_weights() {
        let (g, sink) = TrainingPipeline::new("d", 128, 1 << 16, 1 << 12)
            .steps(3)
            .to_flowgraph()
            .unwrap();
        let sgd_count = g
            .vertices()
            .iter()
            .filter(|v| v.body.ops() == [Op::SgdStep])
            .count();
        assert_eq!(sgd_count, 3);
        // The sink consumes the last sgd step.
        let last = g.inputs_of(sink)[0];
        assert_eq!(g.vertex(last).body.ops(), [Op::SgdStep]);
        g.validate().unwrap();
    }

    #[test]
    fn weights_travel_on_broadcast_edges() {
        let (g, _) = TrainingPipeline::new("d", 128, 1 << 16, 1 << 12)
            .steps(2)
            .to_flowgraph()
            .unwrap();
        let bcast = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Broadcast)
            .count();
        // Two per step: into the forward pass and into the sgd step.
        assert_eq!(bcast, 4);
    }

    #[test]
    fn batches_are_distinct_sources() {
        let (g, _) = TrainingPipeline::new("d", 128, 1 << 16, 1 << 12)
            .steps(2)
            .to_flowgraph()
            .unwrap();
        let batches = g
            .vertices()
            .iter()
            .filter(|v| v.body.name().contains("batch"))
            .count();
        assert_eq!(batches, 2);
    }
}
