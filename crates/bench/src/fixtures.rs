//! Estimate-only workload fixtures for the experiments.
//!
//! SQL is the library's one frontend that lowers onto real rows. The
//! experiments of the paper's Figure 1 and Table 1 also need a data
//! processing stage and an ML training stage in the same job, so this
//! module declares those two as FlowGraphs of sized vertices: every
//! vertex is an `add_ir_op` whose rows and bytes come from the
//! declaration, with no executable descriptor. The runtime prices them
//! (`LengthOnly` hands each task its planned sizes) but runs no kernel.
//!
//! - [`MapReduceJob`]: map -> keyed shuffle -> reduce.
//! - [`TrainingPipeline`]: mini-batch training steps chained through
//!   broadcast weights.
//! - [`fig1_pipeline`]: the integrated ingest -> SQL -> train pipeline of
//!   E1, E6 and E16.

use skadi::flowgraph::{FlowGraph, GraphError, VertexId};
use skadi::ir::Op;
use skadi::{PipelineBuilder, Session, SkadiError};

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
        // A map is a per-row transform over frames: a filter-like op.
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

/// A declared mini-batch training pipeline: per step, a data batch flows
/// through feature extraction into a forward pass, an activation, a
/// backward pass and an optimizer step; the updated weights feed the
/// next step over broadcast edges.
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

/// The canonical integrated pipeline of experiment E1 (Figure 1): data
/// ingestion (MapReduce, system `"dp"`) -> SQL analytics -> ML training
/// (system `"ml"`), sized by `scale` (1 = the default workload).
pub fn fig1_pipeline(session: &Session, scale: u64) -> Result<PipelineBuilder<'_>, SkadiError> {
    let scale = scale.max(1);
    let (ingest, _) = MapReduceJob::new("raw-events", scale << 18, scale << 26, "user_id")
        .map_selectivity(0.8)
        .reduce_factor(0.25)
        .to_flowgraph()?;
    let (train, _) = TrainingPipeline::new("features", scale << 12, scale << 22, 1 << 20)
        .steps(4)
        .to_flowgraph()?;
    Ok(session
        .pipeline()
        .named("fig1-integrated-pipeline")
        .stage("dp", ingest)
        .sql("SELECT kind, sum(value) FROM events WHERE value > 0.25 GROUP BY kind")?
        .stage("ml", train))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi::flowgraph::EdgeKind;
    use skadi::prelude::*;

    fn session(cfg: RuntimeConfig) -> Session {
        Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .runtime(cfg)
            .build()
    }

    #[test]
    fn mapreduce_builds_map_shuffle_reduce() {
        let (g, sink) = MapReduceJob::new("logs", 1 << 20, 128 << 20, "word")
            .to_flowgraph()
            .unwrap();
        let names: Vec<&str> = g.vertices().iter().map(|v| v.body.name()).collect();
        assert_eq!(
            names,
            vec!["logs", "rel.filter", "rel.aggregate", "logs-result"]
        );
        let keyed = g
            .edges()
            .iter()
            .find(|e| matches!(e.kind, EdgeKind::Keyed(_)))
            .unwrap();
        assert_eq!(keyed.kind, EdgeKind::Keyed("word".into()));
        assert_eq!(g.outputs_of(g.inputs_of(sink)[0]), vec![sink]);
    }

    #[test]
    fn mapreduce_selectivities_shrink_data() {
        let (g, _) = MapReduceJob::new("logs", 1000, 1 << 20, "k")
            .map_selectivity(0.1)
            .reduce_factor(0.01)
            .to_flowgraph()
            .unwrap();
        let by_op = |op: Op| g.vertices().iter().find(|v| v.body.ops() == [op]).unwrap();
        assert_eq!(by_op(Op::Filter).rows_hint, 100);
        assert!(by_op(Op::Aggregate).output_bytes_hint < by_op(Op::Filter).output_bytes_hint);
    }

    #[test]
    #[should_panic(expected = "selectivity must be")]
    fn bad_selectivity_panics() {
        let _ = MapReduceJob::new("x", 1, 1, "k").map_selectivity(0.0);
    }

    #[test]
    fn training_steps_chain_through_broadcast_weights() {
        let (g, sink) = TrainingPipeline::new("d", 128, 1 << 16, 1 << 12)
            .steps(3)
            .to_flowgraph()
            .unwrap();
        let count = |op: Op| g.vertices().iter().filter(|v| v.body.ops() == [op]).count();
        assert_eq!(count(Op::SgdStep), 3);
        assert_eq!(count(Op::FromFrame), 3);
        // The sink consumes the last optimizer step.
        let last = g.inputs_of(sink)[0];
        assert_eq!(g.vertex(last).body.ops(), [Op::SgdStep]);
        // Two broadcasts per step: into the forward pass and the step.
        let bcast = g.edges().iter().filter(|e| e.kind == EdgeKind::Broadcast);
        assert_eq!(bcast.count(), 6);
    }

    #[test]
    fn training_uses_gpus() {
        let (g, _) = TrainingPipeline::new("mnist", 1 << 14, 8 << 20, 4 << 20)
            .steps(2)
            .to_flowgraph()
            .unwrap();
        let r = session(RuntimeConfig::skadi_gen2())
            .run_graph("train", g, "ml")
            .unwrap();
        assert!(r.backends.gpu > 0, "matmuls should land on GPUs: {r}");
        assert!(r.stats.finished > 0);
    }

    #[test]
    fn fig1_chains_three_systems_into_one_job() {
        let s = session(RuntimeConfig::skadi_gen2());
        let (job, report) = fig1_pipeline(&s, 1).unwrap().compile().unwrap();
        assert!(report.physical_vertices > 10);
        // One DAG: only the first stage's sources have no inputs.
        let roots = job.tasks.values().filter(|t| t.inputs.is_empty()).count();
        let dp_sources = job
            .tasks
            .values()
            .filter(|t| t.system == "dp" && t.inputs.is_empty())
            .count();
        assert_eq!(roots, dp_sources);
        for sys in ["dp", "sql", "ml"] {
            assert!(job.tasks.values().any(|t| t.system == sys), "{sys} missing");
        }
    }

    #[test]
    fn fig1_skadi_beats_stateless_and_serverful_pays_at_boundaries() {
        let run = |cfg| {
            fig1_pipeline(&session(cfg), 1)
                .unwrap()
                .run()
                .unwrap()
                .stats
        };
        let skadi = run(RuntimeConfig::skadi_gen2());
        let stateless = run(RuntimeConfig::stateless_serverless());
        let serverful = run(RuntimeConfig::serverful());
        assert_eq!(skadi.abandoned, 0);
        assert_eq!(stateless.abandoned, 0);
        assert!(skadi.durable_trips < stateless.durable_trips);
        assert!(skadi.makespan < stateless.makespan);
        assert!(serverful.durable_trips > 0, "boundaries must bounce");
        assert!(serverful.durable_trips < stateless.durable_trips);
    }
}
