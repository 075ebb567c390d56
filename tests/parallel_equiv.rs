//! Thread-count invariance for the morsel-driven parallel engine.
//!
//! The parallelism layer's headline guarantee: the worker-pool size
//! changes wall-clock time and nothing else. Every test here sweeps the
//! shared pool across 1/2/4/8 threads and asserts byte-identical result
//! frames, identical `QueryProfile::to_json` (already wall-free by
//! construction), and identical simulated pricing — locally, through the
//! distributed data plane at every parallelism, and under chaos
//! kill/recover in every fault-tolerance mode. A property test drives
//! the partitioned join/group-by kernels against the stringly
//! row-at-a-time reference from `skadi_bench` at sizes above the morsel
//! threshold, where the partitioned code paths are active.

use proptest::prelude::*;

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::{self, pool, MemDb};
use skadi::frontends::sql::{parse, tokenize};
use skadi::prelude::*;
use skadi::runtime::config::FtMode;
use skadi::store::ec::EcConfig;
use skadi_bench::baseline::{baseline_group_sum_count, baseline_join};
use skadi_dcsim::rng::DetRng;
use skadi_dcsim::time::SimTime;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Pool-resizing tests share the process-wide pool; serialize them.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` seeded rows: a skewed i64 key, a float value with nulls, and a
/// low-cardinality tag. Sized by callers to straddle the 16k-row morsel
/// threshold, so both the serial and the partitioned code paths run.
fn events(n: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let keys: Vec<i64> = (0..n).map(|_| rng.below(97) as i64).collect();
    let vals: Vec<Option<f64>> = (0..n)
        .map(|_| (!rng.chance(0.04)).then(|| rng.unit() * 100.0 - 50.0))
        .collect();
    let tags: Vec<&str> = (0..n)
        .map(|_| *rng.pick(&["red", "green", "blue", "cyan"]))
        .collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, true),
            Field::new("tag", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(keys),
            Array::from_opt_f64(vals),
            Array::from_utf8(&tags),
        ],
    )
    .unwrap()
}

fn dims() -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("label", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64((0..97).collect()),
            Array::from_utf8(
                &(0..97)
                    .map(|i| format!("dim-{i:02}"))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            ),
        ],
    )
    .unwrap()
}

/// 40k fact rows: comfortably past `PARALLEL_MIN_ROWS`, so filters,
/// joins, group-bys, and sorts all take their partitioned/morsel paths.
fn big_db() -> MemDb {
    MemDb::new()
        .register("events", events(40_000, 11))
        .register("dims", dims())
}

/// Queries covering every parallel kernel: multi-conjunct filter,
/// partitioned join, partitioned group-by, global aggregate, parallel
/// sort, top-n.
const QUERIES: &[&str] = &[
    "SELECT k, sum(v) AS s, count(*) AS n FROM events GROUP BY k",
    "SELECT label, sum(v) AS s, count(*) AS n FROM events JOIN dims ON k = k GROUP BY label ORDER BY s",
    "SELECT k, v FROM events WHERE tag = 'red' AND v > 10 ORDER BY v DESC LIMIT 25",
    "SELECT sum(v) AS total, avg(v) AS m, min(v) AS lo, max(v) AS hi FROM events",
    "SELECT k, v, tag FROM events WHERE v > 49 ORDER BY v",
    "SELECT tag, avg(v) AS m FROM events WHERE v > -40 GROUP BY tag ORDER BY m DESC",
];

#[test]
fn local_queries_are_thread_invariant() {
    let _guard = pool_lock();
    let restore = pool::global_threads();
    let db = big_db();
    for sql in QUERIES {
        pool::set_global_threads(1);
        let (batch, profile) = db.query_profiled(sql).unwrap();
        let want_bytes = ipc::encode(&batch).to_vec();
        let want_json = profile.to_json();
        for &t in &THREADS[1..] {
            pool::set_global_threads(t);
            let (got, got_profile) = db.query_profiled(sql).unwrap();
            assert_eq!(
                ipc::encode(&got).as_slice(),
                want_bytes.as_slice(),
                "{sql:?} changed result bytes at {t} threads"
            );
            assert_eq!(
                got_profile.to_json(),
                want_json,
                "{sql:?} changed its profile at {t} threads"
            );
        }
    }
    pool::set_global_threads(restore);
}

/// One distributed run's thread-invariant observables: result frame,
/// profile JSON, and the simulated pricing the cluster computed from
/// measured output bytes.
struct RunDigest {
    bytes: Vec<u8>,
    profile_json: String,
    cost_bits: u64,
    makespan: skadi_dcsim::time::SimDuration,
    measured: std::collections::BTreeMap<skadi::runtime::TaskId, u64>,
    finished: u64,
}

fn digest(run: &skadi::DistributedRun) -> RunDigest {
    RunDigest {
        bytes: ipc::encode(&run.batch).to_vec(),
        profile_json: run.report.profile.as_ref().expect("profile").to_json(),
        cost_bits: run.report.stats.cost_units.to_bits(),
        makespan: run.report.stats.makespan,
        measured: run.report.stats.measured_output_bytes.clone(),
        finished: run.report.stats.finished,
    }
}

fn assert_digests_match(a: &RunDigest, b: &RunDigest, ctx: &str) {
    assert_eq!(a.bytes, b.bytes, "{ctx}: result bytes changed");
    assert_eq!(a.profile_json, b.profile_json, "{ctx}: profile changed");
    assert_eq!(a.cost_bits, b.cost_bits, "{ctx}: cost_units changed");
    assert_eq!(a.makespan, b.makespan, "{ctx}: simulated makespan changed");
    assert_eq!(a.measured, b.measured, "{ctx}: measured bytes changed");
    assert_eq!(a.finished, b.finished, "{ctx}: finished count changed");
}

#[test]
fn distributed_runs_are_thread_invariant_at_every_parallelism() {
    let _guard = pool_lock();
    let restore = pool::global_threads();
    let db = MemDb::new()
        .register("events", events(20_000, 23))
        .register("dims", dims());
    let sql =
        "SELECT label, sum(v) AS s, count(*) AS n FROM events JOIN dims ON k = k GROUP BY label ORDER BY s";
    for &p in &[1u32, 2, 4, 8] {
        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .parallelism(p)
            .build();
        pool::set_global_threads(1);
        let reference = digest(&session.sql_distributed(&db, sql).unwrap());
        let local = ipc::encode(&db.query(sql).unwrap()).to_vec();
        assert_eq!(
            reference.bytes, local,
            "parallelism {p}: distributed diverged from MemDb"
        );
        for &t in &THREADS[1..] {
            pool::set_global_threads(t);
            let run = digest(&session.sql_distributed(&db, sql).unwrap());
            assert_digests_match(&reference, &run, &format!("parallelism {p}, {t} threads"));
        }
    }
    pool::set_global_threads(restore);
}

#[test]
fn chaos_runs_are_thread_invariant_in_every_ft_mode() {
    let _guard = pool_lock();
    let restore = pool::global_threads();
    let db = MemDb::new()
        .register("events", events(20_000, 31))
        .register("dims", dims());
    let sql = "SELECT k, sum(v) AS s, count(*) AS n FROM events GROUP BY k";
    let topo = presets::small_disagg_cluster();
    let servers = topo.servers();
    let mut plan = FailurePlan::none();
    for (i, &node) in servers.iter().take(2).enumerate() {
        plan = plan.kill_and_recover(
            node,
            SimTime::from_micros(2 + 3 * i as u64),
            SimTime::from_millis(6 + i as u64),
        );
    }
    for ft in [
        FtMode::Lineage,
        FtMode::Replication(2),
        FtMode::ErasureCoding(EcConfig::RS_4_2),
    ] {
        let session = Session::builder()
            .topology(topo.clone())
            .parallelism(4)
            .runtime(RuntimeConfig::skadi_gen2().with_ft(ft))
            .build();
        pool::set_global_threads(1);
        let reference = digest(
            &session
                .sql_distributed_with_failures(&db, sql, &plan)
                .unwrap(),
        );
        let local = ipc::encode(&db.query(sql).unwrap()).to_vec();
        assert_eq!(
            reference.bytes, local,
            "{ft:?}: chaos run diverged from MemDb"
        );
        for &t in &THREADS[1..] {
            pool::set_global_threads(t);
            let run = digest(
                &session
                    .sql_distributed_with_failures(&db, sql, &plan)
                    .unwrap(),
            );
            assert_digests_match(&reference, &run, &format!("{ft:?}, {t} threads"));
        }
    }
    pool::set_global_threads(restore);
}

// The partitioned kernels against the engine-independent stringly
// reference, at a size where the partitioned paths are active. Sweeping
// seeds varies key skew, null placement, and partition occupancy.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn partitioned_kernels_match_stringly_reference(seed in 0u64..1000) {
        let _guard = pool_lock();
        let restore = pool::global_threads();
        let left = events(17_000, seed);
        let right = dims();
        let q = parse(&tokenize(
            "SELECT k, sum(v) AS s, count(*) AS n FROM events GROUP BY k",
        ).unwrap()).unwrap();

        pool::set_global_threads(1);
        let join1 = exec::hash_join(&left, &right, "k", "k").unwrap();
        let agg1 = exec::aggregate(&q, &left).unwrap();
        prop_assert_eq!(&join1, &baseline_join(&left, &right, "k", "k"));
        prop_assert_eq!(&agg1, &baseline_group_sum_count(&left, "k", "v"));

        for t in [2usize, 4, 8] {
            pool::set_global_threads(t);
            let join_t = exec::hash_join(&left, &right, "k", "k").unwrap();
            let agg_t = exec::aggregate(&q, &left).unwrap();
            prop_assert_eq!(&join_t, &join1, "join changed at {} threads", t);
            prop_assert_eq!(&agg_t, &agg1, "group-by changed at {} threads", t);
        }
        pool::set_global_threads(restore);
    }
}
