//! E4 / Figure 3(a): pull-based future resolution stalls short-lived
//! ops; the push-based model removes the stalls.

use skadi::dcsim::network::{LinkParams, Network};
use skadi::dcsim::span::Tracer;
use skadi::dcsim::time::SimTime;
use skadi::dcsim::topology::presets;
use skadi::runtime::resolve::{resolve, ResolutionMode, ResolveScenario, ResolveSpanCtx};
use skadi::runtime::Generation;

use crate::table::Table;

/// Stall of one resolution between two devices at the given op duration,
/// for both protocols (fresh network each, so NIC state doesn't leak).
pub fn stalls_at(op_us: u64, generation: Generation) -> (f64, f64) {
    let topo = presets::device_rack();
    let devs = topo.accel_devices(None);
    let t = SimTime::from_micros(op_us);
    let scenario = ResolveScenario {
        owner: topo.servers()[0],
        producer: devs[0],
        consumer: devs[1],
        bytes: 4 << 10,
        value_ready: t,
        consumer_ready: t,
    };
    let stall = |mode| {
        let mut net = Network::new(&topo, LinkParams::default());
        let mut tracer = Tracer::new(false);
        let ctx = ResolveSpanCtx::detached();
        let out = resolve(mode, &mut net, &scenario, generation, &mut tracer, &ctx);
        out.stall.as_micros_f64()
    };
    (stall(ResolutionMode::Pull), stall(ResolutionMode::Push))
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "fig3_pullpush",
        "Future resolution: pull vs push between two devices",
        "Ray's pull model makes the consumer fetch on demand through the owner \
         — 4 control messages before any data moves — which 'creates long \
         stalls for short-lived ops'; Skadi adds a push model where the \
         producer sends data proactively (paper §2.3.2).",
        &[
            "op_us",
            "pull_stall_us",
            "push_stall_us",
            "stall_ratio",
            "pull_overhead_%",
            "push_overhead_%",
        ],
    );
    for op_us in [1u64, 5, 10, 50, 100, 500, 1000, 10_000] {
        let (pull, push) = stalls_at(op_us, Generation::Gen1);
        t.row(vec![
            op_us.to_string(),
            format!("{pull:.2}"),
            format!("{push:.2}"),
            format!("{:.1}x", pull / push.max(1e-9)),
            format!("{:.1}", 100.0 * pull / op_us as f64),
            format!("{:.1}", 100.0 * push / op_us as f64),
        ]);
    }
    let (pull_1us, push_1us) = stalls_at(1, Generation::Gen1);
    t.takeaway(format!(
        "for a 1 us op, pull stalls {:.0}x the op itself; push cuts the stall {:.1}x",
        pull_1us,
        pull_1us / push_1us.max(1e-9)
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERATIONS: [Generation; 2] = [Generation::Gen1, Generation::Gen2];

    #[test]
    fn pull_always_stalls_more() {
        for generation in GENERATIONS {
            for op in [1, 100, 10_000] {
                let (pull, push) = stalls_at(op, generation);
                assert!(
                    pull > push,
                    "{generation:?} op {op}: pull {pull} push {push}"
                );
            }
        }
    }

    #[test]
    fn stall_is_duration_independent() {
        // The absolute stall is protocol overhead, roughly constant.
        for generation in GENERATIONS {
            let (p1, _) = stalls_at(1, generation);
            let (p2, _) = stalls_at(10_000, generation);
            assert!((p1 - p2).abs() / p1 < 0.1, "{generation:?}: {p1} vs {p2}");
        }
    }

    #[test]
    fn gen2_routing_shrinks_both() {
        let (pull_g1, push_g1) = stalls_at(10, Generation::Gen1);
        let (pull_g2, push_g2) = stalls_at(10, Generation::Gen2);
        assert!(pull_g2 < pull_g1);
        assert!(push_g2 <= push_g1);
    }
}
