//! E16 (co-design sweep): how fast must the fabric be for
//! physically-disaggregated accelerators to pay off?
//!
//! The paper's premise is a *co-design* of runtime and data-center
//! infrastructure — disaggregated DSA pools ride high-speed fabrics (its
//! Aquila and tightly-coupled-cluster citations). This sweep makes that
//! dependency quantitative: the same integrated pipeline, executed with
//! DSAs (skadi-gen2) and CPU-only (ray-like), across NIC bandwidths. Below
//! a crossover bandwidth, shipping data to accelerators loses to computing
//! where the data already is.

use skadi::dcsim::network::LinkParams;
use skadi::prelude::*;
use skadi::runtime::Cluster;

use crate::fixtures::fig1_pipeline;
use crate::table::Table;

/// Runs the fig1 pipeline under `cfg` with the given NIC bandwidth
/// (bytes/sec).
pub fn run_with_bandwidth(cfg: RuntimeConfig, accel: bool, nic_bps: u64) -> JobStats {
    let links = LinkParams {
        nic_bandwidth_bps: nic_bps,
        ..LinkParams::default()
    };
    let policy = if accel {
        BackendPolicy::cost_based()
    } else {
        BackendPolicy::cpu_only()
    };
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(cfg.clone())
        .backend_policy(policy)
        .build();
    let (job, _) = fig1_pipeline(&session, 1)
        .expect("builds")
        .compile()
        .expect("compiles");
    let mut cluster = Cluster::with_links(session.topology(), cfg, links);
    cluster.run(&job).expect("runs")
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e16_fabric",
        "Fabric-bandwidth sensitivity: when do disaggregated DSAs pay off?",
        "The distributed runtime 'transparently evolves with novel data-center \
         architectures' (paper §1) — but DSA pools presuppose fast fabrics \
         (the paper's Aquila / tightly-coupled citations). This sweep finds \
         the crossover.",
        &["fabric_Gbps", "dsa_makespan", "cpu_makespan", "dsa_wins"],
    );
    let mut crossover: Option<u64> = None;
    for gbps in [10u64, 25, 50, 100, 200, 400] {
        let nic_bps = gbps * 1_000_000_000 / 8;
        let dsa = run_with_bandwidth(RuntimeConfig::skadi_gen2(), true, nic_bps);
        let cpu = run_with_bandwidth(RuntimeConfig::ray_like(), false, nic_bps);
        let wins = dsa.makespan < cpu.makespan;
        if wins && crossover.is_none() {
            crossover = Some(gbps);
        }
        t.row(vec![
            gbps.to_string(),
            dsa.makespan.to_string(),
            cpu.makespan.to_string(),
            (if wins { "yes" } else { "-" }).to_string(),
        ]);
    }
    t.takeaway(match crossover {
        Some(g) => format!(
            "disaggregated DSAs start paying off at ~{g} Gb/s fabric bandwidth — \
             the runtime and the network must be co-designed, as the paper argues"
        ),
        None => "CPU-local execution wins at every tested bandwidth".to_string(),
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_fabric_favors_cpu_fast_fabric_favors_dsa() {
        let slow = 10u64 * 1_000_000_000 / 8;
        let fast = 400u64 * 1_000_000_000 / 8;
        let dsa_slow = run_with_bandwidth(RuntimeConfig::skadi_gen2(), true, slow);
        let cpu_slow = run_with_bandwidth(RuntimeConfig::ray_like(), false, slow);
        let dsa_fast = run_with_bandwidth(RuntimeConfig::skadi_gen2(), true, fast);
        let cpu_fast = run_with_bandwidth(RuntimeConfig::ray_like(), false, fast);
        assert!(
            dsa_slow.makespan > cpu_slow.makespan,
            "at 10 Gb/s DSAs should lose: {} vs {}",
            dsa_slow.makespan,
            cpu_slow.makespan
        );
        assert!(
            dsa_fast.makespan < cpu_fast.makespan,
            "at 400 Gb/s DSAs should win: {} vs {}",
            dsa_fast.makespan,
            cpu_fast.makespan
        );
    }

    #[test]
    fn dsa_runs_improve_monotonically_with_bandwidth() {
        let a = run_with_bandwidth(RuntimeConfig::skadi_gen2(), true, 10 * 1_000_000_000 / 8);
        let b = run_with_bandwidth(RuntimeConfig::skadi_gen2(), true, 100 * 1_000_000_000 / 8);
        assert!(b.makespan <= a.makespan);
    }
}
