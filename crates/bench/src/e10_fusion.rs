//! E10 / §2.2: cross-domain operator fusion enabled by the common IR —
//! "a common IR enables graph-level optimizations such as op-fusing
//! across application domains".

use skadi::flowgraph::lower::{lower_graph, LowerConfig};
use skadi::flowgraph::optimize::optimize_graph;
use skadi::flowgraph::FlowGraph;
use skadi::ir::Op;
use skadi::prelude::*;
use skadi::runtime::{job_from_physical, Cluster};

use crate::table::Table;

/// A cross-domain per-row chain: scan -> filter -> project ->
/// tensor.from_frame -> tensor.map -> sink (SQL feeding ML featurization).
pub fn cross_domain_graph(rows: u64, bytes: u64) -> FlowGraph {
    let mut g = FlowGraph::new();
    let src = g.add_source("events", rows, bytes);
    let f = g.add_ir_op(Op::Filter, rows, bytes / 2);
    let p = g.add_ir_op(Op::Project, rows, bytes / 4);
    let tf = g.add_ir_op(Op::FromFrame, rows, bytes / 4);
    let m = g.add_ir_op(Op::Map, rows, bytes / 4);
    let sink = g.add_sink("features");
    g.connect(src, f).unwrap();
    g.connect(f, p).unwrap();
    g.connect(p, tf).unwrap();
    g.connect(tf, m).unwrap();
    g.connect(m, sink).unwrap();
    g
}

/// Compiles + runs with or without fusion; returns
/// `(logical_v, physical_tasks, edge_bytes, stats)`.
pub fn run_variant(fuse: bool, rows: u64, bytes: u64) -> (usize, usize, u64, JobStats) {
    let mut g = cross_domain_graph(rows, bytes);
    if fuse {
        optimize_graph(&mut g);
    }
    let phys = lower_graph(&g, &LowerConfig::new(4, BackendPolicy::cost_based())).unwrap();
    let job = job_from_physical("fusion", &phys, "sql").unwrap();
    let topo = presets::small_disagg_cluster();
    let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
    let stats = c.run(&job).expect("runs");
    (g.len(), phys.len(), phys.total_edge_bytes(), stats)
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e10_fusion",
        "Cross-domain op fusion: SQL chain feeding tensor featurization",
        "Fusing per-row ops across the relational->tensor boundary removes \
         task launches and intermediate objects (paper §1/§2.2).",
        &[
            "rows",
            "fusion",
            "logical_v",
            "tasks",
            "edge_MB",
            "makespan",
        ],
    );
    for rows in [1u64 << 18, 1 << 20, 1 << 22] {
        let bytes = rows * 64;
        for fuse in [false, true] {
            let (lv, tasks, eb, stats) = run_variant(fuse, rows, bytes);
            t.row(vec![
                rows.to_string(),
                (if fuse { "on" } else { "off" }).to_string(),
                lv.to_string(),
                tasks.to_string(),
                format!("{:.1}", eb as f64 / 1e6),
                stats.makespan.to_string(),
            ]);
        }
    }
    let (_, tasks_off, eb_off, _) = run_variant(false, 1 << 22, (1 << 22) * 64);
    let (_, tasks_on, eb_on, _) = run_variant(true, 1 << 22, (1 << 22) * 64);
    t.takeaway(format!(
        "fusion cuts intermediate bytes {:.1}x and task launches {:.1}x; makespan \
         stays roughly neutral because the unfused plan spreads stages over \
         more device types",
        eb_off as f64 / eb_on as f64,
        tasks_off as f64 / tasks_on as f64
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_reduces_everything() {
        let (lv_off, tasks_off, eb_off, s_off) = run_variant(false, 1 << 20, 64 << 20);
        let (lv_on, tasks_on, eb_on, s_on) = run_variant(true, 1 << 20, 64 << 20);
        assert!(lv_on < lv_off, "logical vertices {lv_on} vs {lv_off}");
        assert!(tasks_on < tasks_off);
        assert!(eb_on < eb_off);
        // Fusion trades device-type parallelism for fewer launches and no
        // intermediates: makespan must stay within a small factor.
        assert!(
            s_on.makespan.as_secs_f64() < s_off.makespan.as_secs_f64() * 1.2,
            "fused {} vs unfused {}",
            s_on.makespan,
            s_off.makespan
        );
    }

    #[test]
    fn whole_chain_fuses_to_one_kernel() {
        let mut g = cross_domain_graph(1000, 64_000);
        let report = optimize_graph(&mut g);
        assert_eq!(report.fused, 3);
        assert_eq!(g.len(), 3); // source + fused + sink
    }
}
