//! Jobs (validated task DAGs) and run statistics.

use std::collections::BTreeMap;

use skadi_dcsim::network::NetStats;
use skadi_dcsim::span::Trace;
use skadi_dcsim::time::SimDuration;
use skadi_dcsim::trace::Metrics;
use skadi_flowgraph::physical::PhysicalGraph;

use crate::error::RuntimeError;
use crate::task::{TaskId, TaskSpec};

/// A validated set of tasks forming a DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job name (reporting).
    pub name: String,
    /// The tasks, keyed by ID.
    pub tasks: BTreeMap<TaskId, TaskSpec>,
    /// The tasks priced by their rows, each with the input rows its
    /// `compute_us` was planned at: when it starts, the part of
    /// `compute_us` beyond its backend's launch scales with the rows its
    /// inputs hand it. A task not listed runs for its `compute_us`.
    pub planned_rows: BTreeMap<TaskId, u64>,
}

impl Job {
    /// Builds a job, validating that every dependency exists and the
    /// graph is acyclic.
    pub fn new(name: &str, tasks: Vec<TaskSpec>) -> Result<Job, RuntimeError> {
        let map: BTreeMap<TaskId, TaskSpec> = tasks.into_iter().map(|t| (t.id, t)).collect();
        for t in map.values() {
            for dep in t.inputs.keys() {
                if !map.contains_key(dep) {
                    return Err(RuntimeError::UnknownDependency {
                        task: t.id,
                        dep: *dep,
                    });
                }
            }
        }
        // Kahn's algorithm for cycle detection.
        let mut indeg: BTreeMap<TaskId, usize> =
            map.values().map(|t| (t.id, t.inputs.len())).collect();
        let mut ready: Vec<TaskId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(t, _)| *t)
            .collect();
        let mut seen = 0usize;
        while let Some(t) = ready.pop() {
            seen += 1;
            // Both maps hold the same IDs in the same order.
            for (candidate, d) in map.values().zip(indeg.values_mut()) {
                if candidate.inputs.contains_key(&t) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(candidate.id);
                    }
                }
            }
        }
        if seen != map.len() {
            return Err(RuntimeError::CyclicJob);
        }
        Ok(Job {
            name: name.to_string(),
            tasks: map,
            planned_rows: BTreeMap::new(),
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the job has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total bytes carried by all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.tasks.values().flat_map(|t| t.inputs.values()).sum()
    }

    /// Total compute across all tasks, microseconds.
    pub fn total_compute_us(&self) -> f64 {
        self.tasks.values().map(|t| t.compute_us).sum()
    }

    /// The job with every task and input ID shifted up by `offset`, and
    /// the offset the next job renumbered into the same ID space starts
    /// at: one past the largest shifted ID (`offset` for an empty job).
    pub fn shifted(&self, offset: u64) -> (Job, u64) {
        let shift = |t: &TaskId| TaskId(t.0 + offset);
        let spec = |spec: &TaskSpec| TaskSpec {
            id: shift(&spec.id),
            inputs: spec.inputs.iter().map(|(t, b)| (shift(t), *b)).collect(),
            ..spec.clone()
        };
        let job = Job {
            name: self.name.clone(),
            tasks: self
                .tasks
                .iter()
                .map(|(t, s)| (shift(t), spec(s)))
                .collect(),
            planned_rows: self
                .planned_rows
                .iter()
                .map(|(t, r)| (shift(t), *r))
                .collect(),
        };
        let next = job.tasks.keys().last().map_or(offset, |t| t.0 + 1);
        (job, next)
    }
}

/// Converts a physical sharded graph into a job: one task per physical
/// vertex, labeled as belonging to `system`. Every vertex that computes
/// is priced by its rows, from the rows it was planned at
/// ([`Job::planned_rows`]).
pub fn job_from_physical(name: &str, g: &PhysicalGraph, system: &str) -> Result<Job, RuntimeError> {
    let mut tasks = Vec::with_capacity(g.len());
    let mut planned_rows = BTreeMap::new();
    for v in g.vertices() {
        // Sinks hold the job result but declare no output of their own;
        // size them by their inflow so downstream consumers (pipeline
        // bridges, durable bounces) move the real result.
        let inflow: u64 = g.in_edges(v.id).iter().map(|e| e.bytes).sum();
        let out = match v.kind {
            skadi_flowgraph::physical::PVertexKind::Sink => v.output_bytes.max(inflow),
            _ => v.output_bytes,
        };
        let mut spec = TaskSpec::new(v.id.0 as u64, v.compute_us, out.max(1))
            .on(v.backend)
            .in_system(system)
            .named(&v.op);
        for e in g.in_edges(v.id) {
            spec = spec.after(TaskId(e.from.0 as u64), e.bytes.max(1));
        }
        if v.compute_us > 0.0 {
            planned_rows.insert(spec.id, v.rows);
        }
        tasks.push(spec);
    }
    let mut job = Job::new(name, tasks)?;
    job.planned_rows = planned_rows;
    Ok(job)
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Wall-clock (virtual) job completion time.
    pub makespan: SimDuration,
    /// Tasks that reached `Finished`.
    pub finished: u64,
    /// Task executions beyond the first attempt (lineage re-runs).
    pub retries: u64,
    /// Tasks abandoned after exhausting retries (0 on success).
    pub abandoned: u64,
    /// Network traffic by hop class.
    pub net: NetStats,
    /// Trips to durable storage (reads + writes).
    pub durable_trips: u64,
    /// Total protocol-induced stall across all input resolutions: the
    /// sum of the `stall` histogram in [`JobStats::metrics`].
    pub stall_total: SimDuration,
    /// Total busy compute time across all tasks: the sum of the
    /// `task.run` histogram in [`JobStats::metrics`].
    pub compute_total: SimDuration,
    /// Monetary-ish cost in abstract units (deployment-dependent model).
    pub cost_units: f64,
    /// Mean compute-slot utilization over the job's makespan, in [0, 1]
    /// (busy slot-time / total slot-time across compute-capable nodes).
    pub utilization: f64,
    /// Objects spilled by the caching layer.
    pub spills: u64,
    /// Bytes spilled.
    pub spill_bytes: u64,
    /// Full metric sink (histograms: `stall`, `task.wait`, `task.run`,
    /// `query_latency` — one sample per job, so multi-job runs record a
    /// latency distribution with p50/p99; counters: `control_msgs`,
    /// `cold_starts`, ...). Exportable via
    /// [`Metrics::to_prometheus`](skadi_dcsim::trace::Metrics::to_prometheus).
    pub metrics: Metrics,
    /// Causal span trace of the run. Empty unless the config enabled
    /// [`RuntimeConfig::tracing`](crate::config::RuntimeConfig::tracing).
    pub trace: Trace,
    /// Measured output sizes (real encoded bytes, whole) per task, for
    /// tasks executed through a data plane ([`Cluster::set_executor`]);
    /// empty on estimate-only runs, whose length-only payloads have no
    /// bytes.
    ///
    /// [`Cluster::set_executor`]: crate::cluster::Cluster::set_executor
    pub measured_output_bytes: BTreeMap<TaskId, u64>,
}

impl JobStats {
    /// Mean protocol stall per resolved input edge.
    pub fn mean_stall(&self) -> SimDuration {
        match self.metrics.histogram("stall") {
            Some(h) if !h.is_empty() => h.mean(),
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_flowgraph::logical::FlowGraph;
    use skadi_flowgraph::lower::{lower_graph, LowerConfig};
    use skadi_ir::{BackendPolicy, Op};

    #[test]
    fn job_validates_dependencies() {
        let err = Job::new("bad", vec![TaskSpec::new(0, 1.0, 1).after(TaskId(9), 10)]).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownDependency { .. }));
    }

    #[test]
    fn job_rejects_cycles() {
        let err = Job::new(
            "cyclic",
            vec![
                TaskSpec::new(0, 1.0, 1).after(TaskId(1), 1),
                TaskSpec::new(1, 1.0, 1).after(TaskId(0), 1),
            ],
        )
        .unwrap_err();
        assert_eq!(err, RuntimeError::CyclicJob);
    }

    #[test]
    fn job_aggregates() {
        let job = Job::new(
            "ok",
            vec![
                TaskSpec::new(0, 10.0, 100),
                TaskSpec::new(1, 20.0, 100).after(TaskId(0), 64),
            ],
        )
        .unwrap();
        assert_eq!(job.len(), 2);
        assert_eq!(job.total_edge_bytes(), 64);
        assert!((job.total_compute_us() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn shifted_ids_continue_past_the_largest() {
        let job = Job::new(
            "sparse",
            vec![
                TaskSpec::new(3, 1.0, 1),
                TaskSpec::new(9, 1.0, 1).after(TaskId(3), 8),
            ],
        )
        .unwrap();
        let (shifted, next) = job.shifted(100);
        let ids: Vec<u64> = shifted.tasks.keys().map(|t| t.0).collect();
        assert_eq!(ids, [103, 109]);
        assert_eq!(
            shifted.tasks[&TaskId(109)].inputs.get(&TaskId(103)),
            Some(&8)
        );
        assert_eq!(next, 110);
        let empty = Job::new("empty", Vec::new()).unwrap();
        assert_eq!(empty.shifted(next), (empty.clone(), next));
    }

    #[test]
    fn physical_graph_converts() {
        let mut g = FlowGraph::new();
        let src = g.add_source("in", 1 << 20, 8 << 20);
        let filt = g.add_ir_op(Op::Filter, 1 << 20, 4 << 20);
        let agg = g.add_ir_op(Op::Aggregate, 1 << 20, 1024);
        g.connect(src, filt).unwrap();
        g.connect_keyed(filt, agg, "k").unwrap();
        let phys = lower_graph(&g, &LowerConfig::new(4, BackendPolicy::cost_based())).unwrap();
        let job = job_from_physical("pipeline", &phys, "sql").unwrap();
        assert_eq!(job.len(), phys.len());
        // Shuffle edges: 4 producers x 4 consumers on each agg task.
        let agg_task = job
            .tasks
            .values()
            .find(|t| t.op == Op::Aggregate.name())
            .unwrap();
        assert_eq!(agg_task.inputs.len(), 4);
        assert!(job.tasks.values().all(|t| t.system == "sql"));
        // Every vertex is priced by its planned rows: none is a sink.
        for v in phys.vertices() {
            assert_eq!(job.planned_rows[&TaskId(v.id.0 as u64)], v.rows, "{}", v.op);
        }
    }
}
