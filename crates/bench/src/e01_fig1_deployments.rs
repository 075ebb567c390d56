//! E1 / Figure 1: serverful vs stateless serverless vs distributed
//! runtime on one integrated pipeline (ingest -> SQL -> ML).

use skadi::prelude::*;

use crate::fixtures::fig1_pipeline;
use crate::table::Table;

fn session(cfg: RuntimeConfig) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(cfg)
        .build()
}

/// Runs the pipeline under one deployment, returning its stats.
pub fn run_deployment(cfg: RuntimeConfig, scale: u64) -> JobStats {
    let s = session(cfg);
    fig1_pipeline(&s, scale)
        .expect("pipeline builds")
        .run()
        .expect("pipeline runs")
        .stats
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "fig1",
        "Integrated pipeline under three deployment models",
        "Stateless serverless bounces data via durable storage (Fig 1b); the \
         distributed runtime keeps it in the caching layer (Fig 1c); serverful \
         pays only at system boundaries but reserves whole clusters (Fig 1a).",
        &[
            "deployment",
            "makespan",
            "durable_trips",
            "network_MB",
            "durable_MB",
            "cost",
        ],
    );
    let configs = [
        ("serverful", RuntimeConfig::serverful()),
        (
            "stateless-serverless",
            RuntimeConfig::stateless_serverless(),
        ),
        ("distributed-runtime", RuntimeConfig::skadi_gen2()),
    ];
    let mut results = Vec::new();
    for (name, cfg) in configs {
        let s = run_deployment(cfg, 1);
        t.row(vec![
            name.to_string(),
            s.makespan.to_string(),
            s.durable_trips.to_string(),
            format!("{:.1}", s.net.network_bytes() as f64 / 1e6),
            format!("{:.1}", s.net.durable_bytes as f64 / 1e6),
            format!("{:.3}", s.cost_units),
        ]);
        results.push((name, s));
    }
    let skadi = &results[2].1;
    let stateless = &results[1].1;
    let serverful = &results[0].1;
    t.takeaway(format!(
        "distributed runtime: {:.1}x faster than stateless serverless ({} vs {} durable trips), {:.0}x cheaper than serverful reservation",
        stateless.makespan.as_secs_f64() / skadi.makespan.as_secs_f64(),
        skadi.durable_trips,
        stateless.durable_trips,
        serverful.cost_units / skadi.cost_units.max(1e-9),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_figure_1() {
        let t = run();
        assert_eq!(t.rows.len(), 3);
        let durable = |r: usize| t.cell_f64(r, "durable_trips").unwrap();
        // Stateless bounces everything; skadi bounces nothing; serverful
        // sits in between.
        assert_eq!(durable(2), 0.0);
        assert!(durable(0) > 0.0);
        assert!(durable(1) > durable(0));
    }
}
