//! Integrated multi-system pipelines.
//!
//! The paper's motivating trend is *data systems integration*: "multiple
//! data systems are deployed onto one pipeline that jointly runs business
//! logic, data management, HPC, and ML" (§1, citing BigQuery). A
//! [`PipelineBuilder`] chains several declarations — each tagged with the
//! data system it belongs to — into **one** job on **one** runtime, so
//! intermediate results flow through the caching layer (futures) instead
//! of bouncing via durable storage. Under the serverful deployment the
//! same pipeline pays durable round-trips at every system boundary, which
//! is exactly the Figure-1 comparison.

use skadi_flowgraph::logical::FlowGraph;
use skadi_flowgraph::optimize::optimize_graph;
use skadi_frontends::mapreduce::MapReduceJob;
use skadi_frontends::ml::TrainingPipeline;
use skadi_frontends::sql;
use skadi_runtime::task::{TaskId, TaskSpec};
use skadi_runtime::{Cluster, FailurePlan, Job};

use crate::report::{BackendCounts, JobReport};
use crate::session::{Session, SkadiError};

/// One pipeline stage: a system label plus its logical graph.
struct Stage {
    system: String,
    graph: FlowGraph,
}

/// Builds an integrated pipeline over one session.
pub struct PipelineBuilder<'a> {
    session: &'a Session,
    name: String,
    stages: Vec<Stage>,
}

impl<'a> PipelineBuilder<'a> {
    pub(crate) fn new(session: &'a Session) -> Self {
        PipelineBuilder {
            session,
            name: "pipeline".to_string(),
            stages: Vec::new(),
        }
    }

    /// Names the pipeline (reporting only).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Appends a SQL stage.
    pub fn sql(mut self, statement: &str) -> Result<Self, SkadiError> {
        let (g, _) = sql::plan_sql(statement, self.session.catalog())?;
        self.stages.push(Stage {
            system: "sql".to_string(),
            graph: g,
        });
        Ok(self)
    }

    /// Appends a MapReduce stage (the "data processing" system).
    pub fn mapreduce(mut self, job: &MapReduceJob) -> Result<Self, SkadiError> {
        let (g, _) = job.to_flowgraph()?;
        self.stages.push(Stage {
            system: "dp".to_string(),
            graph: g,
        });
        Ok(self)
    }

    /// Appends an ML training stage.
    pub fn train(mut self, pipeline: &TrainingPipeline) -> Result<Self, SkadiError> {
        let (g, _) = pipeline.to_flowgraph()?;
        self.stages.push(Stage {
            system: "ml".to_string(),
            graph: g,
        });
        Ok(self)
    }

    /// Appends an arbitrary FlowGraph stage under a system label.
    pub fn stage(mut self, system: &str, graph: FlowGraph) -> Self {
        self.stages.push(Stage {
            system: system.to_string(),
            graph,
        });
        self
    }

    /// Number of stages added so far.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if no stages were added.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Compiles the pipeline into one job (exposed for the benchmark
    /// harness, which wants to run the same job under many configs).
    pub fn compile(mut self) -> Result<(Job, JobReport), SkadiError> {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        let mut before = 0usize;
        let mut after = 0usize;
        let mut optimize = skadi_flowgraph::optimize::OptimizeReport::default();
        let mut counts = BackendCounts::default();
        let mut pv = 0usize;
        let mut pe = 0usize;

        let mut all_tasks: Vec<TaskSpec> = Vec::new();
        let mut offset: u64 = 0;
        let mut prev_terminals: Vec<(TaskId, u64)> = Vec::new();

        for stage in &mut self.stages {
            before += stage.graph.len();
            if self.session.optimize {
                let rep = optimize_graph(&mut stage.graph);
                optimize.pruned += rep.pruned;
                optimize.fused += rep.fused;
            }
            after += stage.graph.len();
            let (job, c, v, e) = self.session.compile(&stage.graph, &stage.system)?;
            counts.cpu += c.cpu;
            counts.gpu += c.gpu;
            counts.fpga += c.fpga;
            pv += v;
            pe += e;

            // Re-ID this stage's tasks into the combined space.
            let (mut renumbered, next) = job.shifted(offset);
            offset = next;

            // Bridge from the previous stage's terminals to this stage's
            // roots: the downstream system consumes the upstream result.
            if !prev_terminals.is_empty() {
                let roots: Vec<TaskId> = renumbered
                    .iter()
                    .filter(|t| t.inputs.is_empty())
                    .map(|t| t.id)
                    .collect();
                for spec in renumbered.iter_mut() {
                    if !roots.contains(&spec.id) {
                        continue;
                    }
                    for (term, bytes) in &prev_terminals {
                        let share = (bytes / roots.len() as u64).max(1);
                        spec.inputs.insert(*term, share);
                    }
                }
            }

            // This stage's terminals: tasks no one inside the stage
            // consumes. Their handoff size is the stage's result — sink
            // vertices have no output of their own, so fall back to the
            // bytes flowing into them.
            let consumed: Vec<TaskId> = renumbered
                .iter()
                .flat_map(|t| t.inputs.keys().copied())
                .collect();
            prev_terminals = renumbered
                .iter()
                .filter(|t| !consumed.contains(&t.id))
                .map(|t| {
                    let inflow: u64 = t.inputs.values().sum();
                    (t.id, t.output_bytes.max(inflow).max(1))
                })
                .collect();

            all_tasks.extend(renumbered);
        }

        let job = Job::new(&self.name, all_tasks)?;
        let report = JobReport {
            name: self.name.clone(),
            logical_vertices_before: before,
            logical_vertices_after: after,
            optimize,
            physical_vertices: pv,
            physical_edges: pe,
            backends: counts,
            stats: Default::default(),
            profile: None,
        };
        Ok((job, report))
    }

    /// Compiles and runs the pipeline.
    pub fn run(self) -> Result<JobReport, SkadiError> {
        self.run_with_failures(&FailurePlan::none())
    }

    /// Compiles and runs the pipeline under a failure schedule.
    pub fn run_with_failures(self, failures: &FailurePlan) -> Result<JobReport, SkadiError> {
        let session = self.session;
        let (job, mut report) = self.compile()?;
        let mut cluster = Cluster::new(&session.topology, session.runtime.clone());
        report.stats = cluster.run_with_failures(&job, failures)?;
        Ok(report)
    }
}

/// The canonical integrated pipeline of experiment E1 (Figure 1): data
/// ingestion (MapReduce) -> SQL analytics -> ML training, sized by
/// `scale` (1 = the default workload).
pub fn fig1_pipeline(session: &Session, scale: u64) -> Result<PipelineBuilder<'_>, SkadiError> {
    let scale = scale.max(1);
    let ingest = MapReduceJob::new("raw-events", scale << 18, scale << 26, "user_id")
        .map_selectivity(0.8)
        .reduce_factor(0.25);
    let train = TrainingPipeline::new("features", scale << 12, scale << 22, 1 << 20).steps(4);
    session
        .pipeline()
        .named("fig1-integrated-pipeline")
        .mapreduce(&ingest)?
        .sql("SELECT kind, sum(value) FROM events WHERE value > 0.25 GROUP BY kind")?
        .train(&train)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::topology::presets;
    use skadi_frontends::catalog::Catalog;
    use skadi_runtime::RuntimeConfig;

    fn session(cfg: RuntimeConfig) -> Session {
        Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .runtime(cfg)
            .build()
    }

    #[test]
    fn pipeline_chains_stages() {
        let s = session(RuntimeConfig::skadi_gen2());
        let (job, report) = fig1_pipeline(&s, 1).unwrap().compile().unwrap();
        assert!(report.physical_vertices > 10);
        // The combined job is one DAG: every stage's roots (except the
        // first stage's) have inputs.
        let roots: usize = job.tasks.values().filter(|t| t.inputs.is_empty()).count();
        let first_stage_sources = job
            .tasks
            .values()
            .filter(|t| t.system == "dp" && t.inputs.is_empty())
            .count();
        assert_eq!(roots, first_stage_sources);
        // Systems all present.
        for sys in ["dp", "sql", "ml"] {
            assert!(job.tasks.values().any(|t| t.system == sys), "{sys} missing");
        }
    }

    #[test]
    fn skadi_beats_stateless_on_integrated_pipeline() {
        let skadi = session(RuntimeConfig::skadi_gen2());
        let a = fig1_pipeline(&skadi, 1).unwrap().run().unwrap();
        let stateless = session(RuntimeConfig::stateless_serverless());
        let b = fig1_pipeline(&stateless, 1).unwrap().run().unwrap();
        assert_eq!(a.stats.abandoned, 0);
        assert_eq!(b.stats.abandoned, 0);
        assert!(a.stats.durable_trips < b.stats.durable_trips);
        assert!(
            a.stats.makespan < b.stats.makespan,
            "skadi {} vs stateless {}",
            a.stats.makespan,
            b.stats.makespan
        );
    }

    #[test]
    fn serverful_pays_at_system_boundaries_only() {
        let sf = session(RuntimeConfig::serverful());
        let r = fig1_pipeline(&sf, 1).unwrap().run().unwrap();
        let sl = session(RuntimeConfig::stateless_serverless());
        let r2 = fig1_pipeline(&sl, 1).unwrap().run().unwrap();
        assert!(r.stats.durable_trips > 0, "boundaries must bounce");
        assert!(
            r.stats.durable_trips < r2.stats.durable_trips,
            "serverful {} vs stateless {}",
            r.stats.durable_trips,
            r2.stats.durable_trips
        );
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let s = session(RuntimeConfig::skadi_gen2());
        let _ = s.pipeline().compile();
    }
}
