//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the root of the repository is
//! `skadi-benchmark describe` of these tables, and a test holds the two
//! together.

use crate::data::Class;
use crate::json::Json;

/// How long one run measures when nobody says otherwise.
pub const RUN_SECONDS: u64 = 20;

/// Which engine answers and over which transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One connection, closed loop.
    Closed { distributed: bool, tcp: bool },
    /// Two connections, Poisson arrivals at a frozen rate.
    Open,
    /// No SQL: 10k-node chaos runs on one thread.
    Sim,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// `(class, count per cycle)`; for the open loop the counts are weights.
    pub mix: &'static [(Class, usize)],
}

impl Workload {
    /// Share of each class in the workload's operations, by `Class::index`.
    pub fn shares(&self) -> [f64; Class::ALL.len()] {
        let total: usize = self.mix.iter().map(|m| m.1).sum();
        let mut out = [0.0; Class::ALL.len()];
        for &(class, n) in self.mix {
            out[class.index()] = n as f64 / total as f64;
        }
        out
    }

    pub fn classes(&self) -> Vec<Class> {
        self.mix.iter().map(|m| m.0).collect()
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "local_duplex",
        why: "local engine over the in-memory duplex, 16 point + groupby/join/topn/scan per cycle: kernels and the front door do the work, no socket",
        kind: Kind::Closed { distributed: false, tcp: false },
        mix: &[
            (Class::Point, 16),
            (Class::Groupby, 1),
            (Class::Join, 1),
            (Class::Topn, 1),
            (Class::Scan, 1),
        ],
    },
    Workload {
        name: "local_tcp",
        why: "same server behind serve_tcp on loopback, 3 point + 1 scan per cycle: the socket path (Nagle, syscalls per block) does the work that local_duplex bypasses",
        kind: Kind::Closed { distributed: false, tcp: true },
        mix: &[(Class::Point, 3), (Class::Scan, 1)],
    },
    Workload {
        name: "dist_duplex",
        why: "distributed engine at parallelism 4, 4 point + the four analytic classes per cycle: sharding, shuffle IPC+SKLZ and the simulated cluster do the work; same kernels reached another way",
        kind: Kind::Closed { distributed: true, tcp: false },
        mix: &[
            (Class::Point, 4),
            (Class::Groupby, 1),
            (Class::Join, 1),
            (Class::Topn, 1),
            (Class::Scan, 1),
        ],
    },
    Workload {
        name: "open_duplex",
        why: "2 connections, Poisson arrivals at a frozen rate, point 1/2 groupby 1/4 topn 1/4, timed from due time: queueing, admission and pool contention, which a closed loop hides",
        kind: Kind::Open,
        mix: &[(Class::Point, 2), (Class::Groupby, 1), (Class::Topn, 1)],
    },
    Workload {
        name: "sim_scale",
        why: "no SQL: 32-job chaos runs on a 10,000-node topology on one thread: placement, event queue, store and ownership do the work; no kernel or wire code runs",
        kind: Kind::Sim,
        mix: &[(Class::Sim, 1)],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever 0.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "request_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`. Reported by every workload; a layer that does
/// not run on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    // wire
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.stream_us", "us", "lower"),
    ("wire.transport_us", "us", "lower"),
    ("wire.packets_per_query", "count", "lower"),
    ("wire.bytes_per_query", "B", "lower"),
    // skadi::server
    ("server.chunking_us", "us", "lower"),
    ("server.admission_us", "us", "lower"),
    ("server.residual_us", "us", "lower"),
    ("server.queued_max", "count", "lower"),
    ("server.running_max", "count", "lower"),
    // frontends::sql
    ("sql.tokenize_us", "us", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.plan_us", "us", "lower"),
    // frontends::exec + arrow::compute
    ("exec.local_us", "us", "lower"),
    ("exec.scan_us", "us", "lower"),
    ("exec.filter_us", "us", "lower"),
    ("exec.join_us", "us", "lower"),
    ("exec.aggregate_us", "us", "lower"),
    ("exec.sort_us", "us", "lower"),
    ("exec.rows_in_per_query", "count", "lower"),
    ("exec.rows_out_per_query", "count", "lower"),
    ("exec.pool_threads", "count", "higher"),
    // arrow::ipc + arrow::compression
    ("ipc.encode_us", "us", "lower"),
    ("ipc.decode_us", "us", "lower"),
    ("sklz.compress_us", "us", "lower"),
    ("sklz.decompress_us", "us", "lower"),
    ("ipc.result_bytes", "B", "lower"),
    ("sklz.ratio", "ratio", "higher"),
    // flowgraph
    ("flowgraph.optimize_us", "us", "lower"),
    ("flowgraph.lower_us", "us", "lower"),
    ("flowgraph.physical_vertices", "count", "lower"),
    ("flowgraph.physical_edges", "count", "lower"),
    // runtime (+ dcsim, store, ownership inside it)
    ("runtime.job_build_us", "us", "lower"),
    ("runtime.cluster_new_us", "us", "lower"),
    ("runtime.sim_estimate_us", "us", "lower"),
    ("runtime.tasks_per_query", "count", "lower"),
    ("runtime.control_msgs", "count", "lower"),
    ("runtime.retries", "count", "lower"),
    ("runtime.scale_run_ms", "ms", "lower"),
    ("runtime.tasks_finished", "count", "higher"),
    ("runtime.elections", "count", "lower"),
    ("sim_makespan_us", "us", "lower"),
    // skadi::distributed + frontends::shard
    ("dataplane.total_us", "us", "lower"),
    ("dataplane.staging_us", "us", "lower"),
    ("dataplane.result_decode_us", "us", "lower"),
    ("dataplane.shuffle_bytes", "B", "lower"),
    ("dataplane.shuffle_rows", "count", "lower"),
    ("shard.kernel_us", "us", "lower"),
    ("shard.scan_us", "us", "lower"),
    ("shard.filter_us", "us", "lower"),
    ("shard.join_us", "us", "lower"),
    ("shard.aggregate_us", "us", "lower"),
    ("shard.collect_us", "us", "lower"),
    // client and load generator
    ("client.decode_us", "us", "lower"),
    ("client.wire_kb_per_query", "kB", "lower"),
    ("client.scan_ttfb_p50_ms", "ms", "lower"),
    ("client.point_p50_ms", "ms", "lower"),
    ("client.groupby_p50_ms", "ms", "lower"),
    ("client.join_p50_ms", "ms", "lower"),
    ("client.topn_p50_ms", "ms", "lower"),
    ("client.scan_p50_ms", "ms", "lower"),
    ("client.sim_p50_ms", "ms", "lower"),
    ("client.point_p99_ms", "ms", "lower"),
    ("client.groupby_p99_ms", "ms", "lower"),
    ("client.join_p99_ms", "ms", "lower"),
    ("client.topn_p99_ms", "ms", "lower"),
    ("client.scan_p99_ms", "ms", "lower"),
    ("client.sim_p99_ms", "ms", "lower"),
    ("client.point_samples", "count", "higher"),
    ("client.groupby_samples", "count", "higher"),
    ("client.join_samples", "count", "higher"),
    ("client.topn_samples", "count", "higher"),
    ("client.scan_samples", "count", "higher"),
    ("client.sim_samples", "count", "higher"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.rate_target_qps", "1/s", "higher"),
    ("loadgen.over_limit_share", "share", "lower"),
    ("process.cpu_ms_per_op", "ms", "lower"),
    // how much of each class's latency the replayed stages account for
    ("trace.point_coverage", "ratio", "higher"),
    ("trace.groupby_coverage", "ratio", "higher"),
    ("trace.join_coverage", "ratio", "higher"),
    ("trace.topn_coverage", "ratio", "higher"),
    ("trace.scan_coverage", "ratio", "higher"),
];

/// The document `BENCHMARK.json` holds.
pub fn describe() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = named(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| Json::obj(named(name, unit, better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(well_formed(name, 64), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!((w.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `skadi-benchmark describe`"
        );
    }
}
