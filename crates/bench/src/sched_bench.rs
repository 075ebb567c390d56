//! `sched` benchmarks: the scheduler core at 10k-node scale.
//!
//! Three sections, one results file (`BENCH_sched.json`):
//!
//! - **queue** — the discrete-event core. The calendar
//!   [`EventQueue`](skadi_dcsim::engine::EventQueue) vs a faithful
//!   replica of the engine *before* the refactor: one global
//!   `BinaryHeap` with a sequence tie-break, whose `pending_at` is an
//!   O(n) sweep. Both run the identical seeded workload (batched drains,
//!   same-instant follow-ups, periodic same-instant inspection) and must
//!   agree on every delivery before timing starts. Reported as events/sec at 100/1k/10k nodes.
//! - **policies** — makespan of the hot-key-skew query per
//!   [`PlacementPolicy`], static vs `SessionBuilder::adaptive(true)`
//!   lowering. Adaptive re-planning must strictly shrink makespan.
//! - **scale** — staggered multi-job chaos ([`run_chaos_multi_scaled`])
//!   at 100/1k/10k nodes: the run must complete, converge to the
//!   failure-free manifest, and is timed wall-clock.
//!
//! Modes (see the `sched-bench` binary): `smoke` rewrites the JSON with
//! short budgets, `full` lengthens them, `check` re-measures and gates
//! the committed file (CI).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use skadi::prelude::*;
use skadi_arrow::array::Array;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::rng::DetRng;
use skadi_dcsim::time::SimTime;
use skadi_frontends::exec::MemDb;
use skadi_runtime::chaos::{chaos_config, chaos_topology_scaled, run_chaos_multi_scaled};
use skadi_runtime::{FtMode, PlacementPolicy, RuntimeConfig};

/// Path of the recorded trajectory, relative to this crate.
pub const RESULTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");

/// Node counts every section sweeps.
pub const NODE_COUNTS: [usize; 3] = [100, 1_000, 10_000];

/// The events/sec multiple the calendar queue must hold over the heap
/// baseline at 10k nodes (the acceptance bar of the refactor).
pub const QUEUE_SPEEDUP_FLOOR: f64 = 5.0;

// ---------------------------------------------------------------------
// Heap baseline: the event queue before the calendar refactor
// ---------------------------------------------------------------------

/// Pre-refactor event queue: one global `BinaryHeap` of
/// `(Reverse(time), Reverse(seq))` entries. Same delivery order contract
/// as the calendar queue (ascending time, FIFO per instant), but pop and
/// push are O(log n) and [`HeapQueue::pending_at`] walks every entry.
pub struct HeapQueue<E> {
    heap: BinaryHeap<(Reverse<SimTime>, Reverse<u64>, HeapSlot<E>)>,
    seq: u64,
    now: SimTime,
    delivered: u64,
}

/// Payload wrapper that opts out of the tuple's `Ord` (the seq number is
/// already a total tie-break, so the payload is never compared).
struct HeapSlot<E>(E);

impl<E> PartialEq for HeapSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for HeapSlot<E> {}
impl<E> PartialOrd for HeapSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules `event` at absolute `at` (O(log n)).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "heap baseline: scheduling into the past");
        self.heap
            .push((Reverse(at), Reverse(self.seq), HeapSlot(event)));
        self.seq += 1;
    }

    /// Timestamp of the next event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|(Reverse(t), _, _)| *t)
    }

    /// Pops every event at the earliest pending instant, in scheduling
    /// order — O(k log n) heap churn for a k-way tie.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        let (Reverse(t), _, HeapSlot(first)) = self.heap.pop()?;
        self.now = t;
        self.delivered += 1;
        let mut batch = vec![first];
        while self.peek_time() == Some(t) {
            let (_, _, HeapSlot(e)) = self.heap.pop().expect("peeked");
            batch.push(e);
            self.delivered += 1;
        }
        Some((t, batch))
    }

    /// Events pending at exactly `at`, in scheduling order — the O(n)
    /// full sweep the calendar layout exists to kill.
    pub fn pending_at(&self, at: SimTime) -> Vec<&E> {
        let mut hits: Vec<(u64, &E)> = self
            .heap
            .iter()
            .filter(|(Reverse(t), _, _)| *t == at)
            .map(|(_, Reverse(s), HeapSlot(e))| (*s, e))
            .collect();
        hits.sort_by_key(|&(s, _)| s);
        hits.into_iter().map(|(_, e)| e).collect()
    }
}

// ---------------------------------------------------------------------
// Queue workload
// ---------------------------------------------------------------------

/// How often the workload inspects the current instant, in batches: every
/// batch, the O(n) sweep that makes the heap's cost per event grow with
/// the pending set. The cluster simulation makes no such inspection (it
/// runs each task at its own finish; neither gang admission nor the
/// invariant pass looks at what else is due), so this row measures the
/// two queue shapes, not the cluster's hot path.
const INSPECT_EVERY: u64 = 1;

/// One seeded scheduling decision, identical for both queue shapes.
fn follow_up(rng: &mut DetRng, now: SimTime) -> SimTime {
    // Half the follow-ups land at or next to `now` (cost models collapse
    // many latencies to ties); the rest spread over a short horizon.
    if rng.chance(0.5) {
        SimTime::from_micros(now.as_micros() + rng.below(2))
    } else {
        SimTime::from_micros(now.as_micros() + 1 + rng.below(200))
    }
}

/// Drives `nodes` concurrent event chains for `target` deliveries and
/// returns `(wall, deliveries, fingerprint)`. The fingerprint folds
/// every delivery's `(time, payload)` plus every inspection's hit count,
/// so two queue shapes that disagree on ordering cannot produce the same
/// value.
macro_rules! drive_queue {
    ($q:expr, $nodes:expr, $target:expr, $seed:expr) => {{
        let mut q = $q;
        let mut rng = DetRng::seed($seed);
        for node in 0..$nodes as u64 {
            q.schedule_at(SimTime::from_micros(rng.below(1_000)), node);
        }
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        let mut batches = 0u64;
        let start = Instant::now();
        while q.delivered() < $target {
            let (t, batch) = q.pop_batch().expect("workload keeps the queue warm");
            for &e in &batch {
                fp = (fp ^ (t.as_micros().wrapping_mul(31).wrapping_add(e)))
                    .wrapping_mul(0x1000_0000_01b3);
                q.schedule_at(follow_up(&mut rng, t), e);
            }
            batches += 1;
            if batches.is_multiple_of(INSPECT_EVERY) {
                if let Some(next) = q.peek_time() {
                    fp = fp.wrapping_add(q.pending_at(next).len() as u64);
                }
            }
        }
        (start.elapsed(), q.delivered(), fp)
    }};
}

/// One measured node count.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueEntry {
    /// Simulated node count (= concurrent event chains = pending set size).
    pub nodes: usize,
    /// Deliveries timed.
    pub events: u64,
    /// Events/sec through the heap baseline.
    pub heap_eps: u64,
    /// Events/sec through the calendar queue.
    pub calendar_eps: u64,
}

impl QueueEntry {
    /// calendar / heap (higher is better).
    pub fn speedup(&self) -> f64 {
        self.calendar_eps as f64 / self.heap_eps.max(1) as f64
    }
}

/// Times both queue shapes on the identical workload at each node count.
/// Before timing, a correctness pass asserts both shapes produce the
/// same delivery fingerprint — the baseline really is a faithful replica.
pub fn run_queue_suite(node_counts: &[usize], events_per_node: u64) -> Vec<QueueEntry> {
    let mut out = Vec::new();
    for &nodes in node_counts {
        let target = nodes as u64 * events_per_node;
        let (_, _, fp_cal) = drive_queue!(EventQueue::<u64>::new(), nodes, target, 42);
        let (_, _, fp_heap) = drive_queue!(HeapQueue::<u64>::new(), nodes, target, 42);
        assert_eq!(
            fp_cal, fp_heap,
            "queue shapes disagree at {nodes} nodes — baseline is not faithful"
        );
        // Best of 3: the workload is deterministic, so variance is noise.
        let mut best_cal = Duration::MAX;
        let mut best_heap = Duration::MAX;
        for _ in 0..3 {
            best_cal = best_cal.min(drive_queue!(EventQueue::<u64>::new(), nodes, target, 42).0);
            best_heap = best_heap.min(drive_queue!(HeapQueue::<u64>::new(), nodes, target, 42).0);
        }
        let eps = |d: Duration| (target as f64 / d.as_secs_f64().max(1e-9)) as u64;
        out.push(QueueEntry {
            nodes,
            events: target,
            heap_eps: eps(best_heap),
            calendar_eps: eps(best_cal),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Placement policies on the hot-key-skew workload
// ---------------------------------------------------------------------

/// Hot-key-skewed fact table (3 distinct keys) — the same shape
/// `tests/adaptive.rs` pins byte-identity on.
fn skewed_facts(n: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let keys: Vec<i64> = (0..n).map(|_| (rng.below(100) % 3) as i64).collect();
    let vals: Vec<f64> = (0..n).map(|_| rng.unit() * 40.0 - 10.0).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]),
        vec![Array::from_i64(keys), Array::from_f64(vals)],
    )
    .expect("skewed facts")
}

fn skew_db() -> MemDb {
    let labels = ["a0", "b1", "c2", "d0", "e1", "f2", "g0", "h1", "i2"];
    let dim = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("label", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![0, 1, 2, 0, 1, 2, 0, 1, 2]),
            Array::from_utf8(&labels),
        ],
    )
    .expect("dim table");
    MemDb::new()
        .register("facts", skewed_facts(12_000, 7))
        .register("tiny", dim)
}

/// The skewed join+group-by both lowering modes run.
pub const SKEW_SQL: &str = "SELECT label, sum(v) AS s, count(*) AS n \
     FROM tiny JOIN facts ON k = k GROUP BY label ORDER BY s";

/// Static vs adaptive lowering of [`SKEW_SQL`] under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEntry {
    /// Placement policy name (`Display` form).
    pub policy: String,
    /// Simulated makespan of the static plan, microseconds.
    pub static_us: u64,
    /// Simulated makespan of the adaptive plan, microseconds.
    pub adaptive_us: u64,
    /// Pilot re-plans the adaptive run applied.
    pub replans: u64,
    /// Join build-side swaps the adaptive run performed.
    pub build_swaps: u64,
}

impl PolicyEntry {
    /// static / adaptive makespan (higher is better; > 1.0 = adaptive won).
    pub fn gain(&self) -> f64 {
        self.static_us as f64 / self.adaptive_us.max(1) as f64
    }
}

/// Runs [`SKEW_SQL`] at parallelism 16 — twice the cluster's server
/// count, so static lowering's mostly-empty shard flood queues in waves
/// while the adaptive plan's three real shards run in one — under every
/// placement policy, static and adaptive. Both runs are asserted equal
/// to the local engine before their makespans are recorded — the perf
/// claim never outruns the correctness one.
pub fn run_policy_suite() -> Vec<PolicyEntry> {
    let db = skew_db();
    let expected = db.query(SKEW_SQL).expect("local reference");
    let run = |policy: PlacementPolicy, adaptive: bool| {
        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .parallelism(16)
            .adaptive(adaptive)
            .runtime(RuntimeConfig::skadi_gen2().with_placement(policy))
            .build();
        let r = session
            .sql_distributed(&db, SKEW_SQL)
            .expect("distributed run");
        assert_eq!(r.batch, expected, "{policy} adaptive={adaptive} diverged");
        r
    };
    PlacementPolicy::ALL
        .into_iter()
        .map(|policy| {
            let fixed = run(policy, false);
            let adaptive = run(policy, true);
            PolicyEntry {
                policy: policy.to_string(),
                static_us: fixed.report.stats.makespan.as_micros(),
                adaptive_us: adaptive.report.stats.makespan.as_micros(),
                replans: adaptive.replans.len() as u64,
                build_swaps: adaptive.data_plane.build_swaps(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Multi-job chaos at scale
// ---------------------------------------------------------------------

/// One multi-job chaos run at one cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEntry {
    /// Simulated servers.
    pub nodes: usize,
    /// Staggered jobs.
    pub jobs: usize,
    /// Wall milliseconds for baseline + chaos runs.
    pub wall_ms: u64,
    /// True when the chaos manifest matched the failure-free manifest.
    pub converged: bool,
}

/// Runs the staggered multi-job chaos suite at each node count. The
/// debug invariant checker (O(nodes) per event) stays on at 100 nodes
/// and is disabled above, where it would dominate the measurement.
pub fn run_scale_suite(node_counts: &[usize], jobs: usize) -> Vec<ScaleEntry> {
    node_counts
        .iter()
        .map(|&nodes| {
            let topo = chaos_topology_scaled(nodes as u32);
            let cfg = chaos_config(FtMode::Lineage).with_debug_invariants(nodes <= 100);
            let start = Instant::now();
            let v = run_chaos_multi_scaled(&topo, 11, jobs, cfg)
                .unwrap_or_else(|e| panic!("{nodes}-node chaos run failed: {e}"));
            ScaleEntry {
                nodes,
                jobs,
                wall_ms: start.elapsed().as_millis() as u64,
                converged: v.equivalent(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// BENCH_sched.json (hand-rolled; the tree has no serde)
// ---------------------------------------------------------------------

/// Renders the results file, one entry object per line so the parser
/// stays line-oriented. Sections are keyed by a per-line `"section"`
/// field, so one parser handles all three.
pub fn render_json(
    mode: &str,
    queue: &[QueueEntry],
    policies: &[PolicyEntry],
    scale: &[ScaleEntry],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"sched\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"entries\": [\n");
    let mut lines: Vec<String> = Vec::new();
    for q in queue {
        lines.push(format!(
            "    {{\"section\": \"queue\", \"nodes\": {}, \"events\": {}, \"heap_eps\": {}, \"calendar_eps\": {}, \"speedup\": {:.2}}}",
            q.nodes, q.events, q.heap_eps, q.calendar_eps, q.speedup()
        ));
    }
    for p in policies {
        lines.push(format!(
            "    {{\"section\": \"policy\", \"policy\": \"{}\", \"static_us\": {}, \"adaptive_us\": {}, \"replans\": {}, \"build_swaps\": {}, \"gain\": {:.2}}}",
            p.policy, p.static_us, p.adaptive_us, p.replans, p.build_swaps, p.gain()
        ));
    }
    for e in scale {
        lines.push(format!(
            "    {{\"section\": \"scale\", \"nodes\": {}, \"jobs\": {}, \"wall_ms\": {}, \"converged\": {}}}",
            e.nodes, e.jobs, e.wall_ms, e.converged
        ));
    }
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Everything [`render_json`] recorded, parsed back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedResults {
    /// `"queue"` section entries.
    pub queue: Vec<QueueEntry>,
    /// `"policy"` section entries.
    pub policies: Vec<PolicyEntry>,
    /// `"scale"` section entries.
    pub scale: Vec<ScaleEntry>,
}

/// Parses a [`render_json`] file back into its sections.
pub fn parse_results(text: &str) -> SchedResults {
    let mut out = SchedResults::default();
    for line in text.lines() {
        match json_field(line, "section") {
            Some("queue") => {
                if let (Some(nodes), Some(events), Some(h), Some(c)) = (
                    json_field(line, "nodes").and_then(|v| v.parse().ok()),
                    json_field(line, "events").and_then(|v| v.parse().ok()),
                    json_field(line, "heap_eps").and_then(|v| v.parse().ok()),
                    json_field(line, "calendar_eps").and_then(|v| v.parse().ok()),
                ) {
                    out.queue.push(QueueEntry {
                        nodes,
                        events,
                        heap_eps: h,
                        calendar_eps: c,
                    });
                }
            }
            Some("policy") => {
                if let (Some(policy), Some(s), Some(a), Some(r), Some(b)) = (
                    json_field(line, "policy").map(str::to_string),
                    json_field(line, "static_us").and_then(|v| v.parse().ok()),
                    json_field(line, "adaptive_us").and_then(|v| v.parse().ok()),
                    json_field(line, "replans").and_then(|v| v.parse().ok()),
                    json_field(line, "build_swaps").and_then(|v| v.parse().ok()),
                ) {
                    out.policies.push(PolicyEntry {
                        policy,
                        static_us: s,
                        adaptive_us: a,
                        replans: r,
                        build_swaps: b,
                    });
                }
            }
            Some("scale") => {
                if let (Some(nodes), Some(jobs), Some(w), Some(conv)) = (
                    json_field(line, "nodes").and_then(|v| v.parse().ok()),
                    json_field(line, "jobs").and_then(|v| v.parse().ok()),
                    json_field(line, "wall_ms").and_then(|v| v.parse().ok()),
                    json_field(line, "converged").and_then(|v| v.parse().ok()),
                ) {
                    out.scale.push(ScaleEntry {
                        nodes,
                        jobs,
                        wall_ms: w,
                        converged: conv,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The committed-file gate (`sched-bench check`), hardware-independent
/// parts: the 10k-node queue speedup floor, adaptive strictly beating
/// static under every policy, and every scale run converged — including
/// the 10k-node one, which must be present. Returns human-readable
/// violations (empty = pass).
pub fn find_committed_problems(results: &SchedResults) -> Vec<String> {
    let mut problems = Vec::new();
    match results.queue.iter().find(|q| q.nodes == 10_000) {
        None => problems.push("queue: no 10k-node entry".into()),
        Some(q) if q.speedup() < QUEUE_SPEEDUP_FLOOR => problems.push(format!(
            "queue @ 10k nodes: calendar only {:.2}x the heap baseline, need {QUEUE_SPEEDUP_FLOOR}x",
            q.speedup()
        )),
        Some(_) => {}
    }
    if results.policies.is_empty() {
        problems.push("policy: no entries".into());
    }
    for p in &results.policies {
        if p.adaptive_us >= p.static_us {
            problems.push(format!(
                "policy {}: adaptive makespan {}us did not beat static {}us",
                p.policy, p.adaptive_us, p.static_us
            ));
        }
        if p.replans == 0 {
            problems.push(format!(
                "policy {}: adaptive run never re-planned",
                p.policy
            ));
        }
    }
    match results.scale.iter().find(|e| e.nodes == 10_000) {
        None => problems.push("scale: no 10k-node chaos entry".into()),
        Some(e) if !e.converged => {
            problems.push("scale @ 10k nodes: chaos run did not converge".into())
        }
        Some(_) => {}
    }
    for e in &results.scale {
        if !e.converged {
            problems.push(format!(
                "scale @ {} nodes: chaos run did not converge",
                e.nodes
            ));
        }
    }
    problems
}

/// Pretty stdout tables for all three sections.
pub fn render_table(results: &SchedResults) -> String {
    let mut s = format!(
        "{:<8} {:>9} {:>12} {:>14} {:>9}\n",
        "queue", "nodes", "heap_eps", "calendar_eps", "speedup"
    );
    for q in &results.queue {
        s.push_str(&format!(
            "{:<8} {:>9} {:>12} {:>14} {:>8.2}x\n",
            "",
            q.nodes,
            q.heap_eps,
            q.calendar_eps,
            q.speedup()
        ));
    }
    s.push_str(&format!(
        "{:<14} {:>11} {:>12} {:>8} {:>6} {:>7}\n",
        "policy", "static_us", "adaptive_us", "replans", "swaps", "gain"
    ));
    for p in &results.policies {
        s.push_str(&format!(
            "{:<14} {:>11} {:>12} {:>8} {:>6} {:>6.2}x\n",
            p.policy,
            p.static_us,
            p.adaptive_us,
            p.replans,
            p.build_swaps,
            p.gain()
        ));
    }
    s.push_str(&format!(
        "{:<8} {:>9} {:>6} {:>9} {:>10}\n",
        "scale", "nodes", "jobs", "wall_ms", "converged"
    ));
    for e in &results.scale {
        s.push_str(&format!(
            "{:<8} {:>9} {:>6} {:>9} {:>10}\n",
            "", e.nodes, e.jobs, e.wall_ms, e.converged
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The heap replica and the calendar queue must agree delivery by
    /// delivery (fingerprint asserted inside the suite), and the 10k
    /// regime must clear the committed speedup floor on this host.
    #[test]
    fn queue_shapes_agree_and_calendar_wins_at_scale() {
        let entries = run_queue_suite(&[100, 10_000], 5);
        assert_eq!(entries.len(), 2);
        let big = &entries[1];
        assert!(
            big.speedup() > 1.0,
            "calendar slower than the heap at 10k nodes: {:?}",
            big
        );
    }

    #[test]
    fn policy_suite_shows_adaptive_beating_static() {
        let entries = run_policy_suite();
        assert_eq!(entries.len(), PlacementPolicy::ALL.len());
        for p in &entries {
            assert!(
                p.adaptive_us < p.static_us,
                "{}: adaptive {}us vs static {}us",
                p.policy,
                p.adaptive_us,
                p.static_us
            );
            assert!(p.replans > 0 && p.build_swaps > 0, "{p:?}");
        }
    }

    #[test]
    fn json_roundtrips_and_gate_fires() {
        let results = SchedResults {
            queue: vec![QueueEntry {
                nodes: 10_000,
                events: 50_000,
                heap_eps: 1_000_000,
                calendar_eps: 6_000_000,
            }],
            policies: vec![PolicyEntry {
                policy: "data-centric".into(),
                static_us: 900,
                adaptive_us: 700,
                replans: 1,
                build_swaps: 8,
            }],
            scale: vec![ScaleEntry {
                nodes: 10_000,
                jobs: 6,
                wall_ms: 1234,
                converged: true,
            }],
        };
        let text = render_json("test", &results.queue, &results.policies, &results.scale);
        assert_eq!(parse_results(&text), results);
        assert!(find_committed_problems(&results).is_empty());

        // Each gate fires on its own violation.
        let mut slow = results.clone();
        slow.queue[0].calendar_eps = 2_000_000;
        assert_eq!(find_committed_problems(&slow).len(), 1);
        let mut regressed = results.clone();
        regressed.policies[0].adaptive_us = 901;
        assert_eq!(find_committed_problems(&regressed).len(), 1);
        let mut diverged = results.clone();
        diverged.scale[0].converged = false;
        assert_eq!(find_committed_problems(&diverged).len(), 2);
        let missing = SchedResults::default();
        assert_eq!(find_committed_problems(&missing).len(), 3);
    }

    /// Small-scale chaos through the scaled runner, invariants on.
    #[test]
    fn scale_suite_converges_at_small_size() {
        let entries = run_scale_suite(&[64], 3);
        assert!(entries[0].converged, "{:?}", entries[0]);
    }
}
