//! E2 / Figure 2 (top half): the tiered access layer — declarations
//! lower onto one logical graph, get optimized, then shard into a
//! physical graph whose parallelism is a lowering decision.

use skadi::flowgraph::lower::{lower_graph, LowerConfig};
use skadi::flowgraph::optimize::optimize_graph;
use skadi::frontends::catalog::Catalog;
use skadi::frontends::sql::plan_sql;
use skadi::ir::BackendPolicy;
use skadi::prelude::*;

use crate::fixtures::TrainingPipeline;
use crate::table::Table;

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "fig2_access",
        "Access layer: logical graph -> optimized -> physical sharded graph",
        "Domain declarations (SQL + ML) lower onto one FlowGraph; predefined \
         rules optimize it; lowering decides parallelism and creates sharded \
         vertices along keyed edges (paper §2.1, Figure 2).",
        &[
            "parallelism",
            "logical_v",
            "optimized_v",
            "physical_v",
            "physical_e",
            "shuffle_e",
            "makespan",
        ],
    );

    let catalog = Catalog::demo();
    for par in [1u32, 2, 4, 8, 16] {
        // One SQL declaration, one ML declaration — same access layer.
        let (mut g, _) = plan_sql(
            "SELECT kind, sum(value) FROM events WHERE value > 0.5 GROUP BY kind",
            &catalog,
        )
        .expect("valid sql");
        let logical = g.len();
        optimize_graph(&mut g);
        let optimized = g.len();
        let phys =
            lower_graph(&g, &LowerConfig::new(par, BackendPolicy::cost_based())).expect("lowers");
        let shuffles = phys
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, skadi::flowgraph::PEdgeKind::Shuffle { .. }))
            .count();

        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .parallelism(par)
            .build();
        let report = session
            .sql("SELECT kind, sum(value) FROM events WHERE value > 0.5 GROUP BY kind")
            .expect("runs");

        t.row(vec![
            par.to_string(),
            logical.to_string(),
            optimized.to_string(),
            phys.len().to_string(),
            phys.edges().len().to_string(),
            shuffles.to_string(),
            report.stats.makespan.to_string(),
        ]);
    }

    // One ML pipeline for the cross-domain point.
    let ml = TrainingPipeline::new("features", 1 << 14, 8 << 20, 2 << 20).steps(2);
    let (g, _) = ml.to_flowgraph().expect("builds");
    t.takeaway(format!(
        "physical vertices scale with the parallelism decision (shuffles are \
         all-to-all: p^2 edges); the same FlowGraph also hosts the {}-vertex ML stage",
        g.len()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_scales_with_parallelism() {
        let t = run();
        let pv = |r: usize| t.cell_f64(r, "physical_v").unwrap();
        let sh = |r: usize| t.cell_f64(r, "shuffle_e").unwrap();
        assert!(pv(4) > pv(0), "more shards at higher parallelism");
        // Shuffle edges grow quadratically: 16^2 vs 1.
        assert_eq!(sh(0), 1.0);
        assert_eq!(sh(4), 256.0);
        // Logical size is parallelism-independent.
        assert_eq!(
            t.cell(0, "optimized_v").unwrap(),
            t.cell(4, "optimized_v").unwrap()
        );
    }
}
