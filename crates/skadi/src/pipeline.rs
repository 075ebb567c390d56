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

use std::collections::BTreeMap;

use skadi_flowgraph::logical::FlowGraph;
use skadi_flowgraph::optimize::optimize_graph;
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
        let mut planned_rows = BTreeMap::new();
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
            let cfg = self.session.lower_config();
            let compiled = self.session.compile(&stage.graph, &cfg, &stage.system)?;
            counts.cpu += compiled.backends.cpu;
            counts.gpu += compiled.backends.gpu;
            counts.fpga += compiled.backends.fpga;
            pv += compiled.phys.len();
            pe += compiled.phys.edges().len();

            // Re-ID this stage's tasks into the combined space.
            let (shifted, next) = compiled.job.shifted(offset);
            offset = next;
            planned_rows.extend(shifted.planned_rows);
            let mut renumbered: Vec<TaskSpec> = shifted.tasks.into_values().collect();

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

        let mut job = Job::new(&self.name, all_tasks)?;
        job.planned_rows = planned_rows;
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
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let s = session(RuntimeConfig::skadi_gen2());
        let _ = s.pipeline().compile();
    }
}
