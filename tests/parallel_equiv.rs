//! Thread-count invariance for the morsel-driven parallel engine.
//!
//! The parallelism layer's headline guarantee: the worker-pool size
//! changes wall-clock time and nothing else. Every test here sweeps the
//! shared pool across 1/2/4/8 threads and asserts byte-identical result
//! frames, identical `QueryProfile::to_json` (already wall-free by
//! construction), and identical simulated pricing — locally, through the
//! distributed data plane at every parallelism, and under chaos
//! kill/recover in every fault-tolerance mode. A property test drives
//! the partitioned join and the group-by kernels against the
//! row-at-a-time reference from `skadi_bench` at sizes above the morsel
//! threshold, where the join's partitioned code paths are active.

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
use skadi_bench::baseline::{baseline_group_sum_count, baseline_groups, baseline_join};
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
/// joins and sorts all take their partitioned/morsel paths.
fn big_db() -> MemDb {
    MemDb::new()
        .register("events", events(40_000, 11))
        .register("dims", dims())
}

/// Queries covering every parallel kernel: multi-conjunct filter,
/// partitioned join, group-by, global aggregate, parallel sort, top-n.
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

// The partitioned kernels against the engine-independent row-at-a-time
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
        prop_assert_eq!(&agg1, &baseline_group_sum_count(&left, &["k"], "v"));

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

/// Codes a generated key column draws for its ordinary rows; code
/// [`DRAWN`] is drawn only by the rows that hold the order-sensitive
/// group.
const DRAWN: usize = 7;

/// The values a generated GROUP BY key column draws from, by encoding
/// (`Int64`, `Float64`, `Bool`, `Utf8`, `DictUtf8`), each with its type's
/// edge cases: 2^53 + 1 beside 2^53 and `i64::MIN`, 9 beside 10; NaN, both
/// zeros and ±2^53 among the floats; the empty and a non-ASCII string, the
/// string `"null"` beside NULL, and `"a\u{1}a"`, whose pairs with `"a"`
/// render alike when keys are joined by `\u{1}`.
fn key_column(kind: usize, codes: &[Option<usize>]) -> Array {
    const INTS: [i64; DRAWN + 1] = [0, 1, -1, 1 << 53, (1 << 53) + 1, 10, 9, i64::MIN];
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    const FLOATS: [f64; DRAWN + 1] = [0.0, -0.0, f64::NAN, TWO_53, -TWO_53, 10.0, 9.0, 1.5];
    const WORDS: [&str; DRAWN + 1] = ["", "a", "b", "ab", "\u{e9}", "null", "a\u{1}a", "a b"];
    let pick = |table: &[f64]| codes.iter().map(|c| c.map(|c| table[c])).collect();
    match kind {
        0 => Array::from_opt_i64(codes.iter().map(|c| c.map(|c| INTS[c])).collect()),
        1 => Array::from_opt_f64(pick(&FLOATS)),
        2 => Array::from_opt_bool(codes.iter().map(|c| c.map(|c| c % 2 == 0)).collect()),
        3 => Array::from_opt_utf8(
            codes
                .iter()
                .map(|c| c.map(|c| WORDS[c]))
                .collect::<Vec<_>>(),
        ),
        _ => Array::from_opt_dict_utf8(
            codes
                .iter()
                .map(|c| c.map(|c| WORDS[c]))
                .collect::<Vec<_>>(),
        ),
    }
}

/// `n` seeded rows: one key column `k{i}` per entry of `kinds`, a
/// nullable float `v` and a nullable integer `i`. Rows 0, n/2 and n - 1
/// form one group of their own holding `v` = 1e16, 1.0, -1e16 in that
/// order, which sum to 0.0 only when folded in row order.
fn keyed_table(n: usize, seed: u64, kinds: &[usize]) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let special = |r: usize| n >= 3 && (r == 0 || r == n / 2 || r == n - 1);
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let codes: Vec<Option<usize>> = (0..n)
            .map(|r| match special(r) {
                true => Some(DRAWN),
                false => (!rng.chance(0.1)).then(|| rng.below(DRAWN as u64) as usize),
            })
            .collect();
        let col = key_column(kind, &codes);
        fields.push(Field::new(format!("k{i}"), col.data_type(), true));
        columns.push(col);
    }
    let big = [1e16, 1.0, -1e16];
    let mut seen = 0;
    let vals: Vec<Option<f64>> = (0..n)
        .map(|r| match special(r) {
            true => {
                seen += 1;
                Some(big[seen - 1])
            }
            false => (!rng.chance(0.1)).then(|| rng.unit() * 100.0 - 50.0),
        })
        .collect();
    let ints: Vec<Option<i64>> = (0..n)
        .map(|_| (!rng.chance(0.1)).then(|| rng.below(1000) as i64 - 500))
        .collect();
    fields.push(Field::new("v", DataType::Float64, true));
    fields.push(Field::new("i", DataType::Int64, true));
    columns.push(Array::from_opt_f64(vals));
    columns.push(Array::from_opt_i64(ints));
    RecordBatch::try_new(Schema::new(fields), columns).unwrap()
}

/// Every aggregate function over `v` and `i`, per group of the key
/// columns `keys` (`baseline_groups`: boxed key tuples, groups in order of
/// first row), folded value by value in row order from each function's
/// identity — the engine-independent reference for the aggregates
/// `baseline_group_sum_count` does not compute.
fn folded_reference(t: &RecordBatch, keys: &[&str]) -> RecordBatch {
    use skadi::arrow::array::Value;
    let cols: Vec<usize> = keys
        .iter()
        .map(|k| t.schema().index_of(k).unwrap())
        .collect();
    let groups = baseline_groups(t, &cols);
    let floats = |rows: &[usize]| -> Vec<f64> {
        let v = t.column_by_name("v").unwrap();
        rows.iter()
            .filter_map(|&r| v.as_f64().unwrap().get(r))
            .collect()
    };
    let ints = |rows: &[usize]| -> Vec<i64> {
        let i = t.column_by_name("i").unwrap();
        rows.iter()
            .filter_map(|&r| i.as_i64().unwrap().get(r))
            .collect()
    };
    let nonempty = |n: usize, x| (n > 0).then_some(x);
    let mut key_vals: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
    let mut out: Vec<Vec<Value>> = vec![Vec::new(); 8];
    for rows in &groups {
        for (vals, &c) in key_vals.iter_mut().zip(&cols) {
            vals.push(t.column(c).value_at(rows[0]));
        }
        let (f, i) = (floats(rows), ints(rows));
        let f_sum = f.iter().fold(0.0, |s, x| s + x);
        let i_sum = i.iter().fold(0.0, |s, &x| s + x as f64);
        let group = [
            Some(Value::I64(f.len() as i64)),
            nonempty(
                f.len(),
                Value::F64(f.iter().fold(f64::INFINITY, |a, &b| a.min(b))),
            ),
            nonempty(
                f.len(),
                Value::F64(f.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))),
            ),
            nonempty(f.len(), Value::F64(f_sum / f.len() as f64)),
            nonempty(i.len(), Value::I64(i.iter().sum())),
            nonempty(
                i.len(),
                Value::I64(i.iter().copied().fold(i64::MAX, i64::min)),
            ),
            nonempty(
                i.len(),
                Value::I64(i.iter().copied().fold(i64::MIN, i64::max)),
            ),
            nonempty(i.len(), Value::F64(i_sum / i.len() as f64)),
        ];
        for (col, v) in out.iter_mut().zip(group) {
            col.push(v.unwrap_or(Value::Null));
        }
    }
    let mut fields: Vec<Field> = cols.iter().map(|&c| t.schema().field(c).clone()).collect();
    let mut columns: Vec<Array> = cols
        .iter()
        .zip(&key_vals)
        .map(|(&c, vals)| Array::from_values(t.column(c).data_type(), vals).unwrap())
        .collect();
    let outputs = [
        ("c", DataType::Int64),
        ("lo", DataType::Float64),
        ("hi", DataType::Float64),
        ("m", DataType::Float64),
        ("si", DataType::Int64),
        ("li", DataType::Int64),
        ("xi", DataType::Int64),
        ("mi", DataType::Float64),
    ];
    for ((name, ty), vals) in outputs.into_iter().zip(&out) {
        fields.push(Field::new(name, ty, true));
        columns.push(Array::from_values(ty, vals).unwrap());
    }
    RecordBatch::try_new(Schema::new(fields), columns).unwrap()
}

// The GROUP BY key space: one- and two-column keys over every encoding,
// with nulls and each type's edge values, at sizes either side of
// `PARALLEL_MIN_ROWS`, every aggregate function, pool threads 1/2/4/8,
// plain and dictionary-encoded tables.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn group_by_key_space_matches_stringly_reference(
        seed in 0u64..1_000_000,
        first in 0usize..5,
        second in 0usize..6,
    ) {
        let _guard = pool_lock();
        let restore = pool::global_threads();
        let kinds: Vec<usize> = std::iter::once(first).chain((second < 5).then_some(second)).collect();
        let keys: Vec<String> = (0..kinds.len()).map(|i| format!("k{i}")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let list = keys.join(", ");
        let query = |items: &str| {
            let sql = format!("SELECT {list}, {items} FROM t GROUP BY {list}");
            parse(&tokenize(&sql).unwrap()).unwrap()
        };
        let sum_count = query("sum(v) AS s, count(*) AS n");
        let folds = query(
            "count(v) AS c, min(v) AS lo, max(v) AS hi, avg(v) AS m, \
             sum(i) AS si, min(i) AS li, max(i) AS xi, avg(i) AS mi",
        );
        let min = pool::PARALLEL_MIN_ROWS;
        for n in [seed as usize % 300, min + seed as usize % 700] {
            let t = keyed_table(n, seed, &kinds);
            let encoded = t.dict_encoded();
            let want = (
                baseline_group_sum_count(&t, &keys, "v"),
                folded_reference(&t, &keys),
            );
            let at = format!("{kinds:?} keys, {n} rows, seed {seed}");
            for threads in THREADS {
                pool::set_global_threads(threads);
                let got = (
                    exec::aggregate(&sum_count, &t).unwrap(),
                    exec::aggregate(&folds, &t).unwrap(),
                );
                prop_assert_eq!(&got, &want, "{} at {} threads", at, threads);
                for (q, plain) in [(&sum_count, &got.0), (&folds, &got.1)] {
                    let coded = exec::aggregate(q, &encoded).unwrap().dict_decoded();
                    prop_assert_eq!(
                        ipc::encode(&coded).as_slice(),
                        ipc::encode(&plain.dict_decoded()).as_slice(),
                        "dictionary-encoded table: {} at {} threads", at, threads
                    );
                }
            }
            if n >= 3 {
                // The order-sensitive group, found by its count: a group of
                // its own unless every key is a `Bool` (its code reads
                // `false`, which ordinary rows draw too).
                let sums = want.0.column_by_name("s").unwrap().as_f64().unwrap();
                let counts = want.0.column_by_name("n").unwrap().as_i64().unwrap();
                let row = (0..counts.len()).find(|&r| counts.get(r) == Some(3) && sums.get(r) == Some(0.0));
                prop_assert!(row.is_some() || kinds.iter().all(|&k| k == 2), "{}", at);
            }
        }
        pool::set_global_threads(restore);
    }
}
