//! Query-profile consistency, determinism, skew detection, and the
//! Prometheus metrics surface.
//!
//! The profiling subsystem promises four things, each pinned here:
//!
//! 1. **Conservation** — rows recorded flowing over every physical edge
//!    reconcile exactly with the producer's `rows_out` and the
//!    consumer's `rows_in` (no rows invented or dropped by the
//!    bookkeeping), and the per-shard `output_bytes` in the profile sum
//!    to the run's `JobStats::measured_output_bytes`.
//! 2. **Determinism** — the JSON profile artifact and the untimed
//!    rendering are byte-identical across same-seed runs (wall times are
//!    excluded from both).
//! 3. **Goldens** — `EXPLAIN ANALYZE` output for three representative
//!    queries at parallelism 1 and 4 is pinned character-for-character.
//! 4. **Skew** — an artificially hot key at parallelism 4 raises the
//!    `[SKEW]` flag on the shuffled consumer.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::schema::{Field, Schema};
use skadi::dcsim::trace::validate_prometheus;
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;

/// Small fixed tables: readable goldens, duplicate join keys, an
/// unmatched customer.
fn golden_db() -> MemDb {
    let orders = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("order_id", DataType::Int64, false),
            Field::new("cust", DataType::Int64, false),
            Field::new("amount", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            Array::from_i64(vec![10, 20, 10, 30, 20, 10, 40, 20]),
            Array::from_f64(vec![5.0, 2.5, 9.0, 1.0, 4.0, 7.0, 3.0, 6.0]),
            Array::from_utf8(&["a", "b", "a", "b", "a", "b", "a", "b"]),
        ],
    )
    .unwrap();
    let custs = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("cust", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![10, 20, 30, 40, 50]),
            Array::from_utf8(&["alice", "bob", "carol", "dave", "erin"]),
        ],
    )
    .unwrap();
    MemDb::new()
        .register("orders", orders)
        .register("custs", custs)
}

fn session(parallelism: u32) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .runtime(RuntimeConfig::skadi_gen2())
        .build()
}

const Q_GROUP: &str = "SELECT tag, sum(amount) AS s, count(*) AS n FROM orders GROUP BY tag";
const Q_JOIN_GROUP: &str =
    "SELECT name, sum(amount) AS s FROM orders JOIN custs ON cust = cust GROUP BY name";
const Q_FILTER_TOP: &str =
    "SELECT order_id, amount FROM orders WHERE amount > 2 ORDER BY amount DESC LIMIT 3";

/// Rows are conserved across every recorded physical edge: a consumer's
/// `rows_in` is exactly the sum of rows delivered to it, and each
/// producer's `rows_out` is either partitioned across its consumers
/// (shuffle/scatter: deliveries sum to `rows_out`) or replicated to each
/// (pipeline/gather/broadcast: every delivery equals `rows_out`).
#[test]
fn edge_rows_reconcile_with_operator_counts() {
    let db = golden_db();
    for parallelism in [1u32, 2, 4] {
        for q in [Q_GROUP, Q_JOIN_GROUP, Q_FILTER_TOP] {
            let run = session(parallelism).sql_distributed(&db, q).unwrap();
            let dp = &run.data_plane;
            // Last execution per task wins (matches the profile).
            let mut by_task = std::collections::BTreeMap::new();
            for t in &dp.timings {
                by_task.insert(t.task.0, t);
            }
            for (task, t) in &by_task {
                let delivered: usize = dp
                    .edge_rows
                    .iter()
                    .filter(|((_, to), _)| to == task)
                    .map(|(_, rows)| rows)
                    .sum();
                assert_eq!(
                    t.rows_in, delivered,
                    "{q:?} x{parallelism}: task {task} rows_in vs delivered"
                );
            }
            for (producer, t) in &by_task {
                let out: Vec<usize> = dp
                    .edge_rows
                    .iter()
                    .filter(|((from, _), _)| from == producer)
                    .map(|(_, &rows)| rows)
                    .collect();
                if out.is_empty() {
                    continue; // the sink
                }
                let partitioned = out.iter().sum::<usize>() == t.rows_out;
                let replicated = out.iter().all(|&r| r == t.rows_out);
                assert!(
                    partitioned || replicated,
                    "{q:?} x{parallelism}: task {producer} rows_out={} vs deliveries {out:?}",
                    t.rows_out
                );
            }
        }
    }
}

/// The profile's per-shard `output_bytes` are the same measurements the
/// runtime prices: summed, they equal `JobStats::measured_output_bytes`.
#[test]
fn profile_bytes_match_job_stats() {
    let db = golden_db();
    for parallelism in [1u32, 4] {
        let run = session(parallelism)
            .sql_distributed(&db, Q_JOIN_GROUP)
            .unwrap();
        let profile = run.report.profile.as_ref().expect("distributed profile");
        let profile_bytes: u64 = profile
            .ops
            .iter()
            .flat_map(|o| o.shards.iter().map(|s| s.output_bytes))
            .sum();
        let stats_bytes: u64 = run.report.stats.measured_output_bytes.values().sum();
        assert_eq!(profile_bytes, stats_bytes, "x{parallelism}");
        assert!(stats_bytes > 0);
    }
}

/// Same-seed runs produce byte-identical JSON artifacts and untimed
/// renderings — distributed and local.
#[test]
fn profile_artifacts_are_deterministic() {
    let one = session(4)
        .sql_distributed(&golden_db(), Q_JOIN_GROUP)
        .unwrap();
    let two = session(4)
        .sql_distributed(&golden_db(), Q_JOIN_GROUP)
        .unwrap();
    let (p1, p2) = (one.report.profile.unwrap(), two.report.profile.unwrap());
    assert_eq!(p1.to_json(), p2.to_json());
    assert_eq!(p1.render(false), p2.render(false));

    let (_, l1) = golden_db().query_profiled(Q_JOIN_GROUP).unwrap();
    let (_, l2) = golden_db().query_profiled(Q_JOIN_GROUP).unwrap();
    assert_eq!(l1.to_json(), l2.to_json());
    assert_eq!(l1.render(false), l2.render(false));
}

/// In the local engine's linear profile, every operator's `rows_in`
/// equals its parent's `rows_out` (the chain invariant the distributed
/// edge test pins graph-wide). Joins are the exception: their `rows_in`
/// counts both sides, but only the left side is their chain parent, so
/// the invariant weakens to `>=` there.
#[test]
fn local_chain_conserves_rows() {
    let db = golden_db();
    for q in [Q_GROUP, Q_JOIN_GROUP, Q_FILTER_TOP] {
        let (_, profile) = db.query_profiled(q).unwrap();
        for op in &profile.ops {
            for &(parent, _) in &op.inputs {
                let p = profile.op(parent).expect("parent exists");
                if op.op.contains("join") {
                    assert!(
                        op.total_rows_in() >= p.total_rows_out(),
                        "{q:?}: join #{} rows_in {} < parent #{parent} rows_out {}",
                        op.op_id,
                        op.total_rows_in(),
                        p.total_rows_out()
                    );
                } else {
                    assert_eq!(
                        p.total_rows_out(),
                        op.total_rows_in(),
                        "{q:?}: op #{} rows_in vs parent #{parent} rows_out",
                        op.op_id
                    );
                }
            }
        }
    }
}

fn explain(parallelism: u32, q: &str) -> String {
    let run = session(parallelism)
        .sql_distributed(&golden_db(), q)
        .unwrap();
    run.report.profile.unwrap().render(false)
}

/// `EXPLAIN ANALYZE` golden output: three representative queries, each at
/// parallelism 1 and 4, untimed rendering (the deterministic portion).
#[test]
fn explain_analyze_goldens() {
    let cases: [(&str, u32, &str); 6] = [
        (Q_GROUP, 1, GOLDEN_GROUP_X1),
        (Q_GROUP, 4, GOLDEN_GROUP_X4),
        (Q_JOIN_GROUP, 1, GOLDEN_JOIN_GROUP_X1),
        (Q_JOIN_GROUP, 4, GOLDEN_JOIN_GROUP_X4),
        (Q_FILTER_TOP, 1, GOLDEN_FILTER_TOP_X1),
        (Q_FILTER_TOP, 4, GOLDEN_FILTER_TOP_X4),
    ];
    for (q, parallelism, want) in cases {
        let got = explain(parallelism, q);
        assert_eq!(got, want, "golden mismatch for {q:?} x{parallelism}");
    }
}

/// The timed `EXPLAIN ANALYZE` entry points run end to end and include
/// wall-time columns (not golden-able: wall times are real).
#[test]
fn timed_explain_analyze_runs() {
    let db = golden_db();
    let text = session(4)
        .explain_analyze(&db, &format!("EXPLAIN ANALYZE {Q_JOIN_GROUP}"))
        .unwrap();
    assert!(text.contains("rel.join"), "{text}");
    assert!(text.contains("time["), "{text}");
    let local = db
        .explain_analyze(&format!("EXPLAIN ANALYZE {Q_GROUP}"))
        .unwrap();
    assert!(local.contains("rel.aggregate"), "{local}");
    assert!(local.contains("time["), "{local}");
}

/// An artificially hot grouping key at parallelism 4: one shuffle
/// partition receives nearly every row, so the shuffled consumer's
/// `rows_in` spread crosses the skew threshold and the profile flags it.
#[test]
fn skewed_key_distribution_is_flagged() {
    let n = 4000usize;
    // 90% of rows share key 0; the rest spread over 400 keys.
    let keys: Vec<i64> = (0..n)
        .map(|i| if i % 10 == 0 { 1 + (i as i64 % 400) } else { 0 })
        .collect();
    let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("key", DataType::Int64, false),
            Field::new("val", DataType::Float64, false),
        ]),
        vec![Array::from_i64(keys), Array::from_f64(vals)],
    )
    .unwrap();
    let db = MemDb::new().register("events", events);
    let run = session(4)
        .sql_distributed(&db, "SELECT key, sum(val) AS s FROM events GROUP BY key")
        .unwrap();
    let profile = run.report.profile.unwrap();
    let skewed = profile.skewed_ops();
    assert!(
        skewed.iter().any(|o| o.op.contains("aggregate")),
        "expected the aggregate flagged, got {:?}",
        skewed.iter().map(|o| o.op.as_str()).collect::<Vec<_>>()
    );
    assert!(profile.render(false).contains("[SKEW]"));

    // A uniform key distribution must NOT raise the flag.
    let keys: Vec<i64> = (0..n).map(|i| i as i64 % 16).collect();
    let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("key", DataType::Int64, false),
            Field::new("val", DataType::Float64, false),
        ]),
        vec![Array::from_i64(keys), Array::from_f64(vals)],
    )
    .unwrap();
    let db = MemDb::new().register("events", events);
    let run = session(4)
        .sql_distributed(&db, "SELECT key, sum(val) AS s FROM events GROUP BY key")
        .unwrap();
    let profile = run.report.profile.unwrap();
    assert!(
        profile.skewed_ops().is_empty(),
        "uniform keys flagged: {}",
        profile.render(false)
    );
}

/// A finished run's metrics export as valid Prometheus text exposition
/// and include the per-query latency histogram.
#[test]
fn prometheus_exposition_validates() {
    let run = session(4)
        .sql_distributed(&golden_db(), Q_JOIN_GROUP)
        .unwrap();
    let text = run.report.stats.metrics.to_prometheus();
    let series = validate_prometheus(&text).expect("valid exposition");
    assert!(series > 0);
    assert!(text.contains("query_latency"), "{text}");
    let h = run
        .report
        .stats
        .metrics
        .histogram("query_latency")
        .expect("latency histogram");
    assert_eq!(h.count(), 1, "one sample per job");
}

// ---------------------------------------------------------------------
// Goldens (regenerate by running the queries and pasting `render(false)`)
// ---------------------------------------------------------------------

const GOLDEN_GROUP_X1: &str = "\
EXPLAIN ANALYZE SELECT tag, sum(amount) AS s, count(*) AS n FROM orders GROUP BY tag (parallelism=1, skew>2x median)
#2 result shards=1 rows_in[min=2 med=2.0 max=2] rows_out[min=2 med=2.0 max=2] bytes=89
  #1 rel.aggregate shards=1 rows_in[min=8 med=8.0 max=8] rows_out[min=2 med=2.0 max=2] bytes=131 groups=2
    #0 kernel.fused [orders: rel.scan+rel.project] shards=1 rows_in[min=0 med=0.0 max=0] rows_out[min=8 med=8.0 max=8] bytes=234
";

const GOLDEN_GROUP_X4: &str = "\
EXPLAIN ANALYZE SELECT tag, sum(amount) AS s, count(*) AS n FROM orders GROUP BY tag (parallelism=4, skew>2x median)
#2 result shards=1 rows_in[min=2 med=2.0 max=2] rows_out[min=2 med=2.0 max=2] bytes=89
  #1 rel.aggregate shards=4 rows_in[min=0 med=2.0 max=4] rows_out[min=0 med=0.5 max=1] bytes=326 groups=2
    #0 kernel.fused [orders: rel.scan+rel.project] shards=4 rows_in[min=0 med=0.0 max=0] rows_out[min=2 med=2.0 max=2] bytes=456
";

const GOLDEN_JOIN_GROUP_X1: &str = "\
EXPLAIN ANALYZE SELECT name, sum(amount) AS s FROM orders JOIN custs ON cust = cust GROUP BY name (parallelism=1, skew>2x median)
#4 result shards=1 rows_in[min=4 med=4.0 max=4] rows_out[min=4 med=4.0 max=4] bytes=107
  #3 rel.aggregate shards=1 rows_in[min=8 med=8.0 max=8] rows_out[min=4 med=4.0 max=4] bytes=173 groups=4
    #2 rel.join shards=1 rows_in[min=13 med=13.0 max=13] rows_out[min=8 med=8.0 max=8] bytes=266 ht[slots=16 collisions=1]
      #0 kernel.fused [orders: rel.scan+rel.project] shards=1 rows_in[min=0 med=0.0 max=0] rows_out[min=8 med=8.0 max=8] bytes=237
      #1 custs shards=1 rows_in[min=0 med=0.0 max=0] rows_out[min=5 med=5.0 max=5] bytes=176
";

const GOLDEN_JOIN_GROUP_X4: &str = "\
EXPLAIN ANALYZE SELECT name, sum(amount) AS s FROM orders JOIN custs ON cust = cust GROUP BY name (parallelism=4, skew>2x median)
#4 result shards=1 rows_in[min=4 med=4.0 max=4] rows_out[min=4 med=4.0 max=4] bytes=107
  #3 rel.aggregate shards=4 rows_in[min=0 med=2.0 max=4] rows_out[min=0 med=1.0 max=2] bytes=353 groups=4
    #2 rel.join shards=4 rows_in[min=0 med=3.0 max=7] rows_out[min=0 med=2.0 max=4] bytes=461 ht[slots=64 collisions=0] [SKEW]
      #0 kernel.fused [orders: rel.scan+rel.project] shards=4 rows_in[min=0 med=0.0 max=0] rows_out[min=2 med=2.0 max=2] bytes=372
      #1 custs shards=4 rows_in[min=0 med=0.0 max=0] rows_out[min=1 med=1.0 max=2] bytes=341
";

const GOLDEN_FILTER_TOP_X1: &str = "\
EXPLAIN ANALYZE SELECT order_id, amount FROM orders WHERE amount > 2 ORDER BY amount DESC LIMIT 3 (parallelism=1, skew>2x median)
#1 result shards=1 rows_in[min=3 med=3.0 max=3] rows_out[min=3 med=3.0 max=3] bytes=87
  #0 kernel.fused [orders: rel.scan+rel.project+rel.filter+rel.limit] shards=1 rows_in[min=0 med=0.0 max=0] rows_out[min=3 med=3.0 max=3] bytes=121 sel=0.8750
";

const GOLDEN_FILTER_TOP_X4: &str = "\
EXPLAIN ANALYZE SELECT order_id, amount FROM orders WHERE amount > 2 ORDER BY amount DESC LIMIT 3 (parallelism=4, skew>2x median)
#1 result shards=1 rows_in[min=7 med=7.0 max=7] rows_out[min=3 med=3.0 max=3] bytes=87
  #0 kernel.fused [orders: rel.scan+rel.project+rel.filter+rel.limit] shards=4 rows_in[min=0 med=0.0 max=0] rows_out[min=1 med=2.0 max=2] bytes=364 sel=0.8750
";
