//! From samples and spans to the named metrics.

use crate::data::Class;
use crate::load::{self, Measurement, Round, OPEN_RATE_QPS};
use crate::metrics::{Kind, Workload, END_TO_END, PER_LAYER};
use crate::replay::{Counters, Replay, SHARD_SPANS};
use crate::stats::{median, percentile, sorted};
use crate::trace::NameTotal;

/// One reported end-to-end value and, for a per-round statistic, the
/// rounds it was taken from.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub rounds: Vec<f64>,
}

/// Mix-weighted median latency of one round: each class's median times
/// its share of the workload's operations. A plain median over a mix of
/// 0.1 ms and 20 ms queries would sit on the boundary between two
/// classes and jump with their counts.
fn request_p50_ms(w: &Workload, round: &Round) -> f64 {
    let shares = w.shares();
    Class::ALL
        .iter()
        .map(|c| shares[c.index()] * median(&round.latency_ms[c.index()]))
        .sum()
}

/// The value reported for a per-round statistic: that of the best round,
/// not the median over rounds. On a shared host a run is slowed for
/// seconds at a time (a neighbour takes the cache, the kernel parks the
/// pool's worker on the caller's core), and which rounds are hit changes
/// from run to run: medians over rounds moved 25 % between runs of the
/// same code where best rounds moved 5 %. Interference only ever slows a
/// round, so the best round is the program with the host out of the way.
fn best_round(rounds: &[f64], lower_is_better: bool) -> f64 {
    let best = if lower_is_better { f64::min } else { f64::max };
    rounds.iter().copied().reduce(best).unwrap_or(0.0)
}

/// The end-to-end metrics, in [`END_TO_END`] order.
pub fn end_to_end(w: &Workload, setup_s: &[f64], m: &Measurement) -> Vec<Reported> {
    let ops_per_s: Vec<f64> = m
        .rounds
        .iter()
        .map(|r| r.ok_ops() as f64 / r.elapsed_s)
        .collect();
    let p50_ms: Vec<f64> = m.rounds.iter().map(|r| request_p50_ms(w, r)).collect();
    let values = [
        (best_round(&ops_per_s, false), ops_per_s),
        (best_round(&p50_ms, true), p50_ms),
        (load::peak_rss_mb(), Vec::new()),
        // The first set-up of a process is the cold one, so the spread of
        // the repetitions says nothing about the median's; like the
        // driver, `compare` judges `setup_s` on the value alone.
        (median(setup_s), Vec::new()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, rounds))| Reported {
            name: def.name,
            value,
            rounds,
        })
        .collect()
}

/// One traced run's samples, spans and counts, with the arithmetic the
/// per-layer metrics share.
struct Layers<'a> {
    shares: [f64; Class::ALL.len()],
    rounds: &'a [Round],
    counters: &'a [Counters],
    by_name: Vec<NameTotal>,
    /// `(class, summed stage durations)` per replayed request.
    staged: Vec<(&'static str, u64)>,
    /// The real server's answers to the replayed statements.
    paired: &'a Round,
}

impl Layers<'_> {
    fn requests(&self, c: Class) -> f64 {
        self.counters[c.index()].requests.max(1) as f64
    }

    /// A per-request value of each class, weighted by the workload's mix.
    fn mix(&self, per_class: impl Fn(Class) -> f64) -> f64 {
        Class::ALL
            .iter()
            .filter(|c| self.shares[c.index()] > 0.0)
            .map(|&c| self.shares[c.index()] * per_class(c))
            .sum()
    }

    /// Mean microseconds per request in spans called `name`: their self
    /// time, or with `whole` their full duration.
    fn span_us(&self, name: &str, whole: bool) -> f64 {
        self.mix(|c| {
            let ns: u64 = self
                .by_name
                .iter()
                .filter(|t| t.class == c.name() && t.name == name)
                .map(|t| if whole { t.total_ns } else { t.self_ns })
                .sum();
            ns as f64 / 1e3 / self.requests(c)
        })
    }

    fn us(&self, name: &str) -> f64 {
        self.span_us(name, false)
    }

    /// Mean of a counter per request.
    fn count(&self, field: impl Fn(&Counters) -> u64) -> f64 {
        self.mix(|c| field(&self.counters[c.index()]) as f64 / self.requests(c))
    }

    /// Every latency the clients saw for `c`, ascending.
    fn latencies(&self, c: Class) -> Vec<f64> {
        let all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latency_ms[c.index()].iter().copied())
            .collect();
        sorted(&all)
    }

    /// Median over rounds of a per-round median, skipping empty rounds.
    fn round_median<'r>(&'r self, samples: impl Fn(&'r Round) -> &'r [f64]) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(samples)
            .filter(|s| !s.is_empty())
            .map(median)
            .collect();
        median(&per_round)
    }

    fn p50_ms(&self, c: Class) -> f64 {
        self.round_median(|r| &r.latency_ms[c.index()])
    }

    /// What the replayed stages of one request of `c` account for: the
    /// median over its requests, to set beside the clients' median.
    fn staged_us(&self, c: Class) -> f64 {
        let per_request: Vec<f64> = self
            .staged
            .iter()
            .filter(|(class, _)| *class == c.name())
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        median(&per_request)
    }

    /// Median latency of the real server on the replayed statements of
    /// `c`, sent just before their replay.
    fn paired_us(&self, c: Class) -> f64 {
        median(&self.paired.latency_ms[c.index()]) * 1e3
    }

    fn sum(&self, field: impl Fn(&Round) -> u64) -> f64 {
        self.rounds.iter().map(field).sum::<u64>() as f64
    }

    fn max(&self, field: impl Fn(&Round) -> usize) -> f64 {
        self.rounds.iter().map(field).max().unwrap_or(0) as f64
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order. A layer that does not
/// run on the workload reads 0.
pub fn per_layer(w: &Workload, m: &Measurement, replay: &Replay) -> Vec<(&'static str, f64)> {
    let l = Layers {
        shares: w.shares(),
        rounds: &m.rounds,
        counters: &replay.counters,
        by_name: replay.recorder.by_name(),
        staged: replay.recorder.staged_ns(),
        paired: &replay.paired,
    };
    let sql = w.kind != Kind::Sim;
    let open = w.kind == Kind::Open;
    let (encode, decode, stream) = (
        l.us("wire.encode"),
        l.us("wire.decode"),
        l.us("wire.stream"),
    );
    // The data plane is the executor-driven run less the control plane
    // the same job costs with no executor.
    let dataplane = (l.span_us("dataplane.run", true) - l.us("runtime.sim_estimate")).max(0.0);
    let shard_us = |kind: usize| l.count(|k| k.shard_ns[kind]) / 1e3;
    let kernel: f64 = (0..SHARD_SPANS.len()).map(shard_us).sum();
    let lag: Vec<f64> = m
        .rounds
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let payload = l.count(|k| k.payload_bytes);
    let ok_ops = l.sum(Round::ok_ops).max(1.0);

    let mut values: Vec<(String, f64)> = [
        ("wire.encode_us", encode),
        ("wire.decode_us", decode),
        ("wire.stream_us", stream),
        ("wire.transport_us", (stream - encode - decode).max(0.0)),
        ("wire.packets_per_query", l.count(|k| k.packets)),
        ("wire.bytes_per_query", l.count(|k| k.wire_bytes)),
        ("server.chunking_us", l.us("server.chunking")),
        ("server.admission_us", l.us("server.admission")),
        // Thread hand-off, table clone, anything the replay does not see.
        (
            "server.residual_us",
            if sql {
                l.mix(|c| l.paired_us(c) - l.staged_us(c))
            } else {
                0.0
            },
        ),
        ("server.queued_max", l.max(|r| r.queued_max)),
        ("server.running_max", l.max(|r| r.running_max)),
        ("sql.tokenize_us", l.us("sql.tokenize")),
        ("sql.parse_us", l.us("sql.parse")),
        ("sql.plan_us", l.us("sql.plan")),
        ("exec.local_us", l.us("exec.execute")),
        ("exec.scan_us", l.us("exec.scan")),
        ("exec.filter_us", l.us("exec.filter")),
        ("exec.join_us", l.us("exec.join")),
        ("exec.aggregate_us", l.us("exec.aggregate")),
        ("exec.sort_us", l.us("exec.sort")),
        ("exec.rows_in_per_query", l.count(|k| k.rows_in)),
        ("exec.rows_out_per_query", l.count(|k| k.rows_out)),
        (
            "exec.pool_threads",
            skadi::frontends::exec::pool::global_threads() as f64,
        ),
        ("ipc.encode_us", l.us("ipc.encode")),
        ("ipc.decode_us", l.us("ipc.decode")),
        ("sklz.compress_us", l.us("sklz.compress")),
        ("sklz.decompress_us", l.us("sklz.decompress")),
        ("ipc.result_bytes", l.count(|k| k.ipc_bytes)),
        (
            "sklz.ratio",
            if payload > 0.0 {
                l.count(|k| k.ipc_bytes) / payload
            } else {
                0.0
            },
        ),
        ("flowgraph.optimize_us", l.us("flowgraph.optimize")),
        ("flowgraph.lower_us", l.us("flowgraph.lower")),
        (
            "flowgraph.physical_vertices",
            l.count(|k| k.physical_vertices),
        ),
        ("flowgraph.physical_edges", l.count(|k| k.physical_edges)),
        ("runtime.job_build_us", l.us("runtime.job_build")),
        ("runtime.cluster_new_us", l.us("runtime.cluster_new")),
        ("runtime.sim_estimate_us", l.us("runtime.sim_estimate")),
        ("runtime.tasks_per_query", l.count(|k| k.tasks)),
        ("runtime.control_msgs", l.count(|k| k.control_msgs)),
        ("runtime.retries", l.count(|k| k.retries)),
        (
            "runtime.scale_run_ms",
            if sql {
                0.0
            } else {
                l.staged_us(Class::Sim) / 1e3
            },
        ),
        ("runtime.tasks_finished", l.count(|k| k.tasks_finished)),
        ("runtime.elections", l.count(|k| k.elections)),
        ("sim_makespan_us", l.count(|k| k.sim_makespan_ns) / 1e3),
        ("dataplane.total_us", dataplane),
        // Payload decode, decompress, partition, encode, compress.
        ("dataplane.staging_us", (dataplane - kernel).max(0.0)),
        (
            "dataplane.result_decode_us",
            l.us("dataplane.result_decode"),
        ),
        ("dataplane.shuffle_bytes", l.count(|k| k.shuffle_bytes)),
        ("dataplane.shuffle_rows", l.count(|k| k.shuffle_rows)),
        ("shard.kernel_us", kernel),
        (
            "client.decode_us",
            l.us("sklz.decompress") + l.us("ipc.decode") + l.us("client.concat"),
        ),
        (
            "client.wire_kb_per_query",
            l.sum(|r| r.payload_bytes) / ok_ops / 1e3,
        ),
        // All threads, the load generator's included; the kernel counts it
        // in 10 ms ticks, so it is taken over the whole load phase.
        ("process.cpu_ms_per_op", m.cpu_s * 1e3 / ok_ops),
        (
            "client.scan_ttfb_p50_ms",
            l.round_median(|r| &r.scan_ttfb_ms),
        ),
        ("loadgen.lag_p99_ms", percentile(&sorted(&lag), 0.99)),
        (
            "loadgen.rate_target_qps",
            if open { OPEN_RATE_QPS } else { 0.0 },
        ),
        (
            "loadgen.over_limit_share",
            if open {
                l.sum(|r| r.over_limit) / l.sum(|r| r.attempted).max(1.0)
            } else {
                0.0
            },
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    for (kind, span) in SHARD_SPANS.iter().enumerate() {
        values.push((format!("{span}_us"), shard_us(kind)));
    }
    for c in Class::ALL {
        let name = c.name();
        let latencies = l.latencies(c);
        values.push((format!("client.{name}_p50_ms"), l.p50_ms(c)));
        values.push((
            format!("client.{name}_p99_ms"),
            percentile(&latencies, 0.99),
        ));
        values.push((format!("client.{name}_samples"), latencies.len() as f64));
        // Outside 0.8 to 1.2 the replay no longer mirrors the server.
        let real_us = l.paired_us(c);
        let coverage = if real_us > 0.0 {
            l.staged_us(c) / real_us
        } else {
            0.0
        };
        values.push((format!("trace.{name}_coverage"), coverage));
    }
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let found = values.iter().find(|(n, _)| n == name);
            (
                name,
                found.expect("every per-layer metric is computed above").1,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;
    use crate::trace::Recorder;

    #[test]
    fn every_per_layer_metric_is_computed() {
        let nothing = Measurement {
            rounds: Vec::new(),
            cpu_s: 0.0,
        };
        let replay = Replay {
            recorder: Recorder::new(),
            counters: Default::default(),
            paired: Round::default(),
        };
        for w in &WORKLOADS {
            let values = per_layer(w, &nothing, &replay);
            assert_eq!(values.len(), PER_LAYER.len());
            assert!(values.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
        }
    }

    #[test]
    fn reported_value_is_the_best_round() {
        // Two of six rounds were disturbed.
        assert_eq!(best_round(&[3.0, 3.1, 5.2, 3.2, 6.0, 3.05], true), 3.0);
        assert_eq!(
            best_round(&[100.0, 98.0, 60.0, 99.0, 55.0, 101.0], false),
            101.0
        );
        assert_eq!(best_round(&[], true), 0.0);
    }

    #[test]
    fn request_p50_weighs_classes_by_the_mix() {
        let w = &WORKLOADS[1]; // 3 point + 1 scan
        let mut round = Round::default();
        round.latency_ms[Class::Point.index()] = vec![1.0, 2.0, 3.0];
        round.latency_ms[Class::Scan.index()] = vec![40.0];
        assert!((request_p50_ms(w, &round) - (0.75 * 2.0 + 0.25 * 40.0)).abs() < 1e-12);
    }
}
