//! E6 / Table 1: the related-work feature matrix, made executable — the
//! same mixed workload under configurations emulating each system
//! family's capabilities.

use skadi::prelude::*;

use crate::fixtures::fig1_pipeline;
use crate::table::Table;

/// One baseline: a name, the Table-1 feature flags, and a runtime config
/// emulating its capabilities on our simulator.
pub struct BaselineRow {
    /// System family name.
    pub name: &'static str,
    /// Declarative API?
    pub d_api: bool,
    /// Hardware-agnostic IR?
    pub ir: bool,
    /// Stateful serverless?
    pub stateful: bool,
    /// Physically-disaggregated devices?
    pub phys_disagg: bool,
    /// Integrated pipelines?
    pub integration: bool,
    /// The emulating config.
    pub cfg: RuntimeConfig,
    /// Whether accelerator backends are allowed (no = CPU-only lowering,
    /// the "no DSA access" emulation).
    pub accel: bool,
}

/// The baselines, mirroring Table 1's families.
pub fn baselines() -> Vec<BaselineRow> {
    vec![
        BaselineRow {
            name: "dryad-like",
            d_api: true,
            ir: false,
            stateful: false,
            phys_disagg: false,
            integration: true,
            cfg: RuntimeConfig::dryad_like(),
            accel: false,
        },
        BaselineRow {
            name: "cloudburst-like",
            d_api: false,
            ir: false,
            stateful: true,
            phys_disagg: false,
            integration: false,
            cfg: RuntimeConfig::cloudburst_like(),
            accel: false,
        },
        BaselineRow {
            name: "ray-like",
            d_api: false,
            ir: false,
            stateful: true,
            phys_disagg: false,
            integration: true,
            cfg: RuntimeConfig::ray_like(),
            accel: false,
        },
        BaselineRow {
            name: "skadi-gen1",
            d_api: true,
            ir: true,
            stateful: true,
            phys_disagg: true,
            integration: true,
            cfg: RuntimeConfig::skadi_gen1(),
            accel: true,
        },
        BaselineRow {
            name: "skadi-gen2",
            d_api: true,
            ir: true,
            stateful: true,
            phys_disagg: true,
            integration: true,
            cfg: RuntimeConfig::skadi_gen2(),
            accel: true,
        },
    ]
}

/// Runs one baseline over the integrated pipeline.
pub fn run_baseline(b: &BaselineRow) -> JobStats {
    let policy = if b.accel {
        BackendPolicy::cost_based()
    } else {
        BackendPolicy::cpu_only()
    };
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(b.cfg.clone())
        .backend_policy(policy)
        .build();
    fig1_pipeline(&session, 1)
        .expect("builds")
        .run()
        .expect("runs")
        .stats
}

fn mark(b: bool) -> String {
    (if b { "yes" } else { "-" }).to_string()
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "table1",
        "Related-work capability matrix, executed",
        "Skadi is the only row with declarative API + IR + stateful serverless \
         + physical disaggregation + integration (paper Table 1); each missing \
         capability costs measurable performance on the integrated pipeline.",
        &[
            "system",
            "D-API",
            "IR",
            "stateful",
            "phys-disagg",
            "integr",
            "makespan",
            "durable_trips",
            "stall_ms",
        ],
    );
    let mut skadi_jct = f64::NAN;
    let mut worst_jct: f64 = 0.0;
    for b in baselines() {
        let s = run_baseline(&b);
        let jct = s.makespan.as_secs_f64();
        if b.name == "skadi-gen2" {
            skadi_jct = jct;
        }
        worst_jct = worst_jct.max(jct);
        t.row(vec![
            b.name.to_string(),
            mark(b.d_api),
            mark(b.ir),
            mark(b.stateful),
            mark(b.phys_disagg),
            mark(b.integration),
            s.makespan.to_string(),
            s.durable_trips.to_string(),
            format!("{:.2}", s.stall_total.as_secs_f64() * 1e3),
        ]);
    }
    t.takeaway(format!(
        "skadi-gen2 outruns the weakest baseline {:.1}x on the same pipeline",
        worst_jct / skadi_jct
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skadi_is_the_only_full_row() {
        let rows = baselines();
        let full: Vec<&str> = rows
            .iter()
            .filter(|b| b.d_api && b.ir && b.stateful && b.phys_disagg && b.integration)
            .map(|b| b.name)
            .collect();
        assert_eq!(full, vec!["skadi-gen1", "skadi-gen2"]);
    }

    #[test]
    fn skadi_beats_stateless_baseline() {
        let rows = baselines();
        let dryad = run_baseline(&rows[0]);
        let skadi = run_baseline(&rows[4]);
        assert!(skadi.makespan < dryad.makespan);
        assert!(skadi.durable_trips < dryad.durable_trips);
    }

    #[test]
    fn capability_order_shows_in_makespan() {
        // Each added capability helps: skadi (DSAs via phys-disagg) beats
        // the CPU-only ray-like runtime, which beats the non-integrated
        // cloudburst-like one, and gen2 beats gen1.
        let rows = baselines();
        let cloudburst = run_baseline(&rows[1]);
        let ray = run_baseline(&rows[2]);
        let gen1 = run_baseline(&rows[3]);
        let gen2 = run_baseline(&rows[4]);
        assert!(ray.makespan < cloudburst.makespan);
        assert!(gen1.makespan < ray.makespan);
        assert!(gen2.makespan < gen1.makespan);
    }
}
