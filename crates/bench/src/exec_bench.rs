//! `exec` micro-benchmarks: vectorized kernels vs the row-at-a-time
//! baseline engine of [`crate::baseline`] (every benchmark cross-checks
//! `baseline == vectorized` on the full result batch before timing
//! anything).
//!
//! Modes (see the `exec-bench` binary):
//!
//! - `smoke`: quick pass at 10k/100k rows; rewrites `BENCH_exec.json` at
//!   the repo root.
//! - `full`: adds the 1M-row points and longer timing budgets.
//! - `check`: re-measures the vectorized kernels and fails (non-zero
//!   exit) if any is >2x slower than the committed `BENCH_exec.json` —
//!   the CI regression gate.

use std::time::{Duration, Instant};

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::Bitmap;
use skadi_arrow::compression;
use skadi_arrow::compute::{self, CmpOp};
use skadi_frontends::exec::{self, pool};
use skadi_frontends::sql::{parse, tokenize, Query};

use crate::baseline::{
    baseline_filter, baseline_group_sum_count, baseline_join, baseline_sort, baseline_topn,
    coded_events_batch, codes_batch, events_batch, sklz_events_frame, sklz_keys_frame, users_batch,
};
use crate::sklz_ref;

/// Path of the recorded perf trajectory, relative to this crate.
pub const RESULTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");

/// One measured kernel at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Kernel name (`filter`, `join`, `filter_join_dict`, `group_by`,
    /// `group_by_dict`, `sort`, `topn`, `popcount`, `mask_scan`,
    /// `sklz_compress`, `sklz_decompress`, `sklz_compress_keys`).
    pub name: String,
    /// Input row count.
    pub rows: usize,
    /// Best-of-N wall time of the row-at-a-time baseline.
    pub baseline_ns: u64,
    /// Best-of-N wall time of the vectorized engine.
    pub vectorized_ns: u64,
}

impl BenchEntry {
    /// baseline / vectorized (higher is better).
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.vectorized_ns.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// Vectorized counterparts
// ---------------------------------------------------------------------

/// Fused vectorized filter: one typed mask per conjunct, combined with
/// `compute::and`, one gather.
pub fn vectorized_filter(batch: &RecordBatch, conjuncts: &[(&str, CmpOp, Value)]) -> RecordBatch {
    let mut mask: Option<Array> = None;
    for (col, op, rhs) in conjuncts {
        let c = batch.column_by_name(col).expect("filter column");
        let m = compute::cmp_scalar(c, *op, rhs).expect("cmp_scalar");
        mask = Some(match mask {
            Some(prev) => compute::and(&prev, &m).expect("and"),
            None => m,
        });
    }
    compute::filter(batch, &mask.expect("at least one conjunct")).expect("filter")
}

/// Filter then join: the fused mask gathers the passing rows into a
/// batch, which the join then probes — the engine's filter→join boundary.
pub fn filter_join(
    left: &RecordBatch,
    right: &RecordBatch,
    conjuncts: &[(&str, CmpOp, Value)],
    left_key: &str,
    right_key: &str,
) -> RecordBatch {
    let filtered = vectorized_filter(left, conjuncts);
    exec::hash_join(&filtered, right, left_key, right_key).expect("hash_join")
}

/// Vectorized sort: the engine's sort kernel (`exec::sort_by`).
pub fn vectorized_sort(batch: &RecordBatch, column: &str, descending: bool) -> RecordBatch {
    exec::sort_by(batch, column, descending).expect("sort_by")
}

/// Vectorized TopN: the engine's top-N kernel (`compute::top_n`), which
/// selects the `n` rows without sorting the rest and gathers only them.
pub fn vectorized_topn(batch: &RecordBatch, column: &str, n: usize) -> RecordBatch {
    compute::top_n(batch, column, compute::SortOrder::Descending, n).expect("top_n")
}

fn group_query(group_col: &str, val_col: &str, table: &str) -> Query {
    let sql = format!(
        "SELECT {group_col}, sum({val_col}) AS s, count(*) AS n FROM {table} GROUP BY {group_col}"
    );
    parse(&tokenize(&sql).expect("tokenize")).expect("parse")
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Best-of-N wall time: warm up once, then repeat until the budget is
/// spent (at least 3 timed iterations unless one iteration alone blows
/// far past the budget).
pub fn time_ns(budget: Duration, mut f: impl FnMut()) -> u64 {
    f();
    let wall = Instant::now();
    let mut best = u64::MAX;
    let mut iters = 0u32;
    loop {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
        iters += 1;
        let spent = wall.elapsed();
        if (iters >= 3 && spent >= budget) || spent >= budget * 8 {
            return best;
        }
    }
}

/// [`time_ns`] for two closures at once, alternating them iteration by
/// iteration so both see the same stretches of a host whose speed
/// drifts; returns each one's best.
pub fn time_pair_ns(budget: Duration, mut f: impl FnMut(), mut g: impl FnMut()) -> (u64, u64) {
    let timed = |h: &mut dyn FnMut()| {
        let t = Instant::now();
        h();
        t.elapsed().as_nanos() as u64
    };
    timed(&mut f);
    timed(&mut g);
    let wall = Instant::now();
    let (mut best_f, mut best_g) = (u64::MAX, u64::MAX);
    let mut iters = 0u32;
    loop {
        best_f = best_f.min(timed(&mut f));
        best_g = best_g.min(timed(&mut g));
        iters += 1;
        let spent = wall.elapsed();
        if (iters >= 3 && spent >= budget * 2) || spent >= budget * 16 {
            return (best_f, best_g);
        }
    }
}

/// Runs every kernel at every size, cross-checking baseline and
/// vectorized results for exact equality before timing them.
pub fn run_suite(sizes: &[usize], budget: Duration) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    for &n in sizes {
        let events = events_batch(n, 42);
        let users = users_batch((n / 10).max(1), 7);
        let conjuncts: Vec<(&str, CmpOp, Value)> = vec![
            ("kind", CmpOp::Eq, Value::Str("click".into())),
            ("value", CmpOp::Gt, Value::F64(50.0)),
        ];
        let q = group_query("user_id", "value", "events");

        // Dict-keyed datasets: the fact side's string key dictionary-
        // encodes (256 distinct codes), so joins and group-bys run over
        // u32 keys instead of string bytes. The stringly baseline sees
        // the plain batches; both sides produce plain output (the dict
        // path pays its decode inside the timed region).
        let coded = coded_events_batch(n, 11);
        let codes = codes_batch(5);
        let coded_dict = coded.dict_encoded();
        let codes_dict = codes.dict_encoded();
        assert!(
            matches!(coded_dict.column(0), Array::DictUtf8(_)),
            "code column should dictionary-encode at {n} rows"
        );
        let conjuncts_val: Vec<(&str, CmpOp, Value)> = vec![("value", CmpOp::Gt, Value::F64(50.0))];
        let q_dict = group_query("code", "value", "coded");

        // Golden cross-checks: the two engines must agree exactly.
        assert_eq!(
            baseline_filter(&events, &conjuncts),
            vectorized_filter(&events, &conjuncts),
            "filter mismatch at {n} rows"
        );
        assert_eq!(
            baseline_join(&events, &users, "user_id", "user_id"),
            exec::hash_join(&events, &users, "user_id", "user_id").expect("hash_join"),
            "join mismatch at {n} rows"
        );
        assert_eq!(
            baseline_group_sum_count(&events, "user_id", "value"),
            exec::aggregate(&q, &events).expect("aggregate"),
            "group_by mismatch at {n} rows"
        );
        assert_eq!(
            baseline_join(
                &baseline_filter(&coded, &conjuncts_val),
                &codes,
                "code",
                "code"
            ),
            filter_join(&coded_dict, &codes_dict, &conjuncts_val, "code", "code").dict_decoded(),
            "filter_join_dict mismatch at {n} rows"
        );
        assert_eq!(
            baseline_group_sum_count(&coded, "code", "value"),
            exec::aggregate(&q_dict, &coded_dict)
                .expect("aggregate")
                .dict_decoded(),
            "group_by_dict mismatch at {n} rows"
        );
        assert_eq!(
            baseline_sort(&events, "value", false),
            vectorized_sort(&events, "value", false),
            "sort mismatch at {n} rows"
        );
        assert_eq!(
            baseline_topn(&events, "value", 10),
            vectorized_topn(&events, "value", 10),
            "topn mismatch at {n} rows"
        );

        let mut push = |name: &str, baseline_ns: u64, vectorized_ns: u64| {
            out.push(BenchEntry {
                name: name.to_string(),
                rows: n,
                baseline_ns,
                vectorized_ns,
            });
        };
        push(
            "filter",
            time_ns(budget, || {
                std::hint::black_box(baseline_filter(&events, &conjuncts));
            }),
            time_ns(budget, || {
                std::hint::black_box(vectorized_filter(&events, &conjuncts));
            }),
        );
        push(
            "join",
            time_ns(budget, || {
                std::hint::black_box(baseline_join(&events, &users, "user_id", "user_id"));
            }),
            time_ns(budget, || {
                std::hint::black_box(
                    exec::hash_join(&events, &users, "user_id", "user_id").expect("hash_join"),
                );
            }),
        );
        // The dict-keyed join: the stringly baseline renders every probe
        // key into a `String` and walks a `BTreeMap`; the dict path
        // probes a hash table with precomputed per-entry hashes over u32
        // keys, then decodes the output back to plain strings.
        push(
            "filter_join_dict",
            time_ns(budget, || {
                std::hint::black_box(baseline_join(
                    &baseline_filter(&coded, &conjuncts_val),
                    &codes,
                    "code",
                    "code",
                ));
            }),
            time_ns(budget, || {
                std::hint::black_box(
                    filter_join(&coded_dict, &codes_dict, &conjuncts_val, "code", "code")
                        .dict_decoded(),
                );
            }),
        );
        push(
            "group_by",
            time_ns(budget, || {
                std::hint::black_box(baseline_group_sum_count(&events, "user_id", "value"));
            }),
            time_ns(budget, || {
                std::hint::black_box(exec::aggregate(&q, &events).expect("aggregate"));
            }),
        );
        push(
            "group_by_dict",
            time_ns(budget, || {
                std::hint::black_box(baseline_group_sum_count(&coded, "code", "value"));
            }),
            time_ns(budget, || {
                std::hint::black_box(
                    exec::aggregate(&q_dict, &coded_dict)
                        .expect("aggregate")
                        .dict_decoded(),
                );
            }),
        );
        push(
            "sort",
            time_ns(budget, || {
                std::hint::black_box(baseline_sort(&events, "value", false));
            }),
            time_ns(budget, || {
                std::hint::black_box(vectorized_sort(&events, "value", false));
            }),
        );
        push(
            "topn",
            time_ns(budget, || {
                std::hint::black_box(baseline_topn(&events, "value", 10));
            }),
            time_ns(budget, || {
                std::hint::black_box(vectorized_topn(&events, "value", 10));
            }),
        );

        // Bit-level kernels: the u64-word popcount/scan fast paths vs
        // their bit-at-a-time predecessors. The mask is the real
        // `value > 50` comparison output (nullable input, so the scan
        // must consult validity exactly like `mask_to_indices` does).
        let mask = compute::cmp_scalar(
            events.column_by_name("value").expect("value column"),
            CmpOp::Gt,
            &Value::F64(50.0),
        )
        .expect("cmp_scalar");
        let bits = Bitmap::from_bools(&(0..n).map(|i| i % 3 != 0).collect::<Vec<bool>>());
        assert_eq!(
            (0..bits.len()).filter(|&i| bits.get(i)).count(),
            bits.count_set(),
            "popcount mismatch at {n} bits"
        );
        assert_eq!(
            bitwise_mask_scan(&mask),
            compute::mask_to_indices(&mask).expect("mask_to_indices"),
            "mask_scan mismatch at {n} rows"
        );
        push(
            "popcount",
            time_ns(budget, || {
                std::hint::black_box((0..bits.len()).filter(|&i| bits.get(i)).count());
            }),
            time_ns(budget, || {
                std::hint::black_box(bits.count_set());
            }),
        );
        push(
            "mask_scan",
            time_ns(budget, || {
                std::hint::black_box(bitwise_mask_scan(&mask));
            }),
            time_ns(budget, || {
                std::hint::black_box(compute::mask_to_indices(&mask).expect("mask_to_indices"));
            }),
        );

        // Block codec: the tree's SKLZ kernels against the reference
        // codec they replaced, on the frames the data plane moves. Each
        // codec must decode the other's frames — the format is shared.
        let events_frame = sklz_events_frame(n, 42);
        let keys_frame = sklz_keys_frame(n, 42);
        let packed = compression::compress(&events_frame);
        for frame in [&events_frame, &keys_frame] {
            assert_eq!(
                &sklz_ref::decompress(&compression::compress(frame)).expect("ref decodes new"),
                frame,
                "sklz: reference decoder disagrees at {n} rows"
            );
            assert_eq!(
                &compression::decompress(&sklz_ref::compress(frame)).expect("new decodes ref"),
                frame,
                "sklz: decoder disagrees on a reference frame at {n} rows"
            );
        }
        // Timed in alternation: the speed-up over the reference is the
        // claim, and this host's speed drifts between two 120 ms windows.
        let (reference, tree) = time_pair_ns(
            budget,
            || drop(std::hint::black_box(sklz_ref::compress(&events_frame))),
            || drop(std::hint::black_box(compression::compress(&events_frame))),
        );
        push("sklz_compress", reference, tree);
        let (reference, tree) = time_pair_ns(
            budget,
            || drop(std::hint::black_box(sklz_ref::decompress(&packed))),
            || drop(std::hint::black_box(compression::decompress(&packed))),
        );
        push("sklz_decompress", reference, tree);
        let (reference, tree) = time_pair_ns(
            budget,
            || drop(std::hint::black_box(sklz_ref::compress(&keys_frame))),
            || drop(std::hint::black_box(compression::compress(&keys_frame))),
        );
        push("sklz_compress_keys", reference, tree);
    }
    out
}

/// Bit-at-a-time replica of `mask_to_indices` (the pre-word-scan shape):
/// one `get` per row, null-checked through the boxed accessor.
fn bitwise_mask_scan(mask: &Array) -> Vec<usize> {
    let b = mask.as_bool().expect("bool mask");
    (0..b.len()).filter(|&i| b.get(i) == Some(true)).collect()
}

// ---------------------------------------------------------------------
// Shuffle bytes: compression on vs off through the distributed plane
// ---------------------------------------------------------------------

/// Total `measured_output_bytes` of one distributed query, plain and
/// block-compressed. The fabric's NIC never pays for the codec, so the
/// run stores every output plain; the compressed figure compresses each
/// stored frame once it is made, as a link that paid would have.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleBytesReport {
    /// The SQL that was shuffled.
    pub query: String,
    /// Fact-table row count.
    pub rows: usize,
    /// Sum of per-task measured output bytes (plain frames).
    pub plain_bytes: u64,
    /// Sum of the same frames after `compression::maybe_compress`.
    pub compressed_bytes: u64,
}

impl ShuffleBytesReport {
    /// compressed / plain (lower is better; < 1.0 means compression won).
    pub fn ratio(&self) -> f64 {
        self.compressed_bytes as f64 / self.plain_bytes.max(1) as f64
    }
}

/// Runs a join+group-by over the simulated cluster at parallelism 4 and
/// reports its stored bytes plain and compressed. Feeds the `"shuffle"`
/// line of `BENCH_exec.json`.
pub fn shuffle_bytes_report(rows: usize) -> ShuffleBytesReport {
    use skadi::GraphExecutor;
    use skadi_dcsim::topology::presets;
    use skadi_flowgraph::lower::{lower_graph, LowerConfig};
    use skadi_flowgraph::optimize::optimize_graph;
    use skadi_ir::BackendPolicy;
    use skadi_runtime::{job_from_physical, Cluster, RuntimeConfig, TaskId};

    let db = exec::MemDb::new()
        .register("events", events_batch(rows, 42))
        .register("users", users_batch((rows / 10).max(1), 7));
    let q = "SELECT country, sum(value) AS total, count(*) AS n FROM events \
             JOIN users ON user_id = user_id GROUP BY country ORDER BY total DESC";
    let (mut graph, _sink) = skadi_frontends::sql::plan_sql(q, &db.catalog()).expect("plan");
    optimize_graph(&mut graph);
    let lower = LowerConfig::new(4, BackendPolicy::cost_based());
    let phys = lower_graph(&graph, &lower).expect("lower");
    let job = job_from_physical("sql", &phys, "sql").expect("job");
    let mut cluster = Cluster::new(
        &presets::small_disagg_cluster(),
        RuntimeConfig::skadi_gen2(),
    );
    cluster.set_executor(Box::new(GraphExecutor::new(
        phys.clone(),
        db.tables().clone(),
    )));
    let stats = cluster.run(&job).expect("distributed run");
    let compressed_bytes = (0..phys.len() as u64)
        .filter_map(|t| cluster.task_payload(TaskId(t)))
        .map(|frame| compression::maybe_compress(frame).len() as u64)
        .sum();
    ShuffleBytesReport {
        query: q.to_string(),
        rows,
        plain_bytes: stats.measured_output_bytes.values().sum(),
        compressed_bytes,
    }
}

// ---------------------------------------------------------------------
// Parallel scaling: the same kernel across pool sizes
// ---------------------------------------------------------------------

/// Thread counts the parallel suite sweeps (and the JSON records).
pub const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// One kernel at one size, timed at every [`PARALLEL_THREADS`] pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelEntry {
    /// Kernel name (`join`, `group_by`, `sort`, `topn`).
    pub kernel: String,
    /// Input row count.
    pub rows: usize,
    /// `(threads, best-of-N wall ns)` per swept pool size.
    pub threads_ns: Vec<(usize, u64)>,
}

impl ParallelEntry {
    /// Wall-time speedup of `threads` vs 1 thread (higher is better).
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        let t1 = self.threads_ns.iter().find(|&&(t, _)| t == 1)?.1;
        let tn = self.threads_ns.iter().find(|&&(t, _)| t == threads)?.1;
        Some(t1 as f64 / tn.max(1) as f64)
    }
}

/// The `"parallel"` section of `BENCH_exec.json`: scaling measurements
/// plus the core count of the machine that produced them — scaling is a
/// property of the host, so the regression gate reads its thresholds
/// from `host_cores` instead of assuming CI hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// `available_parallelism()` of the recording host.
    pub host_cores: usize,
    /// One entry per (kernel, rows).
    pub entries: Vec<ParallelEntry>,
}

/// Cores of the current host (what [`run_parallel_suite`] records).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweeps join/group_by/sort/topn over `sizes` × [`PARALLEL_THREADS`],
/// resizing the shared pool between runs. Before timing anything, every
/// kernel's output at every thread count is asserted byte-identical to
/// its 1-thread output — the determinism contract the engine documents.
///
/// Restores the pool to its original size before returning.
/// A named result-producing kernel closure measured by the parallel sweep.
type NamedKernel<'a> = (&'a str, Box<dyn Fn() -> RecordBatch + 'a>);

pub fn run_parallel_suite(sizes: &[usize], budget: Duration) -> ParallelReport {
    let restore = pool::global_threads();
    let mut entries = Vec::new();
    for &n in sizes {
        let events = events_batch(n, 42);
        let users = users_batch((n / 10).max(1), 7);
        let q = group_query("user_id", "value", "events");
        let db = exec::MemDb::new().register("events", events_batch(n, 42));
        let sort_sql = "SELECT user_id, kind, value FROM events ORDER BY value";
        let topn_sql = "SELECT user_id, kind, value FROM events ORDER BY value DESC LIMIT 10";

        let kernels: Vec<NamedKernel<'_>> = vec![
            (
                "join",
                Box::new(|| {
                    exec::hash_join(&events, &users, "user_id", "user_id").expect("hash_join")
                }),
            ),
            (
                "group_by",
                Box::new(|| exec::aggregate(&q, &events).expect("aggregate")),
            ),
            ("sort", Box::new(|| db.query(sort_sql).expect("sort query"))),
            ("topn", Box::new(|| db.query(topn_sql).expect("topn query"))),
        ];

        for (name, f) in &kernels {
            pool::set_global_threads(1);
            let reference = f();
            let mut threads_ns = Vec::with_capacity(PARALLEL_THREADS.len());
            for &t in &PARALLEL_THREADS {
                pool::set_global_threads(t);
                assert_eq!(
                    f(),
                    reference,
                    "{name} at {n} rows changed output at {t} threads"
                );
                threads_ns.push((
                    t,
                    time_ns(budget, || {
                        std::hint::black_box(f());
                    }),
                ));
            }
            entries.push(ParallelEntry {
                kernel: name.to_string(),
                rows: n,
                threads_ns,
            });
        }
    }
    pool::set_global_threads(restore);
    ParallelReport {
        host_cores: host_cores(),
        entries,
    }
}

/// The 4-thread speedup a host with `cores` cores must reach on the
/// join/group_by scaling entries. Honest about hardware: a 1-core
/// machine cannot speed up at all (the bound there only rejects gross
/// pool overhead), 2–3 cores can overlap half the work, and ≥4 cores
/// must show real morsel scaling.
pub fn required_speedup(cores: usize) -> f64 {
    if cores >= 4 {
        2.5
    } else if cores >= 2 {
        1.4
    } else {
        0.6
    }
}

/// The parallel scaling gate: join and group_by at the largest recorded
/// size must reach [`required_speedup`] for the recording host's cores
/// at 4 threads. Returns human-readable violations (empty = pass).
pub fn find_scaling_regressions(report: &ParallelReport) -> Vec<String> {
    find_scaling_regressions_with(report, required_speedup(report.host_cores))
}

/// [`find_scaling_regressions`] with an explicit speedup bar — the
/// `check` binary uses a relaxed bar for its fresh 100k-row re-measure
/// (morsel granularity caps speedup well below the 1M-row figures).
pub fn find_scaling_regressions_with(report: &ParallelReport, need: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let largest = report.entries.iter().map(|e| e.rows).max().unwrap_or(0);
    for kernel in ["join", "group_by"] {
        let entry = report
            .entries
            .iter()
            .find(|e| e.kernel == kernel && e.rows == largest);
        match entry {
            None => problems.push(format!("parallel: no {kernel} entry at {largest} rows")),
            Some(e) => match e.speedup_at(4) {
                None => problems.push(format!(
                    "parallel: {kernel} @ {largest} rows lacks 1- or 4-thread timings"
                )),
                Some(s) if s < need => problems.push(format!(
                    "parallel: {kernel} @ {largest} rows: {s:.2}x at 4 threads, \
                     need {need:.1}x on a {}-core host",
                    report.host_cores
                )),
                Some(_) => {}
            },
        }
    }
    problems
}

// ---------------------------------------------------------------------
// BENCH_exec.json (hand-rolled; the tree has no serde)
// ---------------------------------------------------------------------

/// Renders the result file: one entry object per line so the parser in
/// [`parse_results`] stays line-oriented. The optional shuffle report
/// becomes a single `"shuffle"` line that [`parse_results`] ignores (no
/// `"name"` field), so the regression gate sees exactly the kernels. The
/// optional parallel report renders one `"kernel"`-keyed line per entry
/// — likewise invisible to the `"name"`-keyed kernel parser.
pub fn render_json(
    mode: &str,
    entries: &[BenchEntry],
    shuffle: Option<&ShuffleBytesReport>,
    parallel: Option<&ParallelReport>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"exec\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"unit\": \"ns, best-of-N wall time\",\n");
    if let Some(sh) = shuffle {
        s.push_str(&format!(
            "  \"shuffle\": {{\"rows\": {}, \"plain_bytes\": {}, \"compressed_bytes\": {}, \"ratio\": {:.3}}},\n",
            sh.rows, sh.plain_bytes, sh.compressed_bytes, sh.ratio()
        ));
    }
    if let Some(p) = parallel {
        s.push_str(&format!(
            "  \"parallel\": {{\"host_cores\": {}, \"entries\": [\n",
            p.host_cores
        ));
        for (i, e) in p.entries.iter().enumerate() {
            let comma = if i + 1 == p.entries.len() { "" } else { "," };
            let mut fields = String::new();
            for &(t, ns) in &e.threads_ns {
                fields.push_str(&format!(", \"t{t}_ns\": {ns}"));
            }
            let speedup = e
                .speedup_at(4)
                .map_or(String::new(), |x| format!(", \"speedup4\": {x:.2}"));
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"rows\": {}{fields}{speedup}}}{comma}\n",
                e.kernel, e.rows
            ));
        }
        s.push_str("  ]},\n");
    }
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"baseline_ns\": {}, \"vectorized_ns\": {}, \"speedup\": {:.2}}}{comma}\n",
            e.name, e.rows, e.baseline_ns, e.vectorized_ns, e.speedup()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses a file produced by [`render_json`] back into entries.
pub fn parse_results(text: &str) -> Vec<BenchEntry> {
    text.lines()
        .filter_map(|line| {
            let name = json_field(line, "name")?.to_string();
            Some(BenchEntry {
                name,
                rows: json_field(line, "rows")?.parse().ok()?,
                baseline_ns: json_field(line, "baseline_ns")?.parse().ok()?,
                vectorized_ns: json_field(line, "vectorized_ns")?.parse().ok()?,
            })
        })
        .collect()
}

/// Parses `(rows, compressed_bytes)` out of the `"shuffle"` line of a
/// [`render_json`] file. Returns `None` when the file has no such line.
pub fn parse_shuffle(text: &str) -> Option<(usize, u64)> {
    let line = text.lines().find(|l| l.contains("\"shuffle\""))?;
    Some((
        json_field(line, "rows")?.parse().ok()?,
        json_field(line, "compressed_bytes")?.parse().ok()?,
    ))
}

/// The size gate: stored bytes are a pure function of the tables, the
/// plan and the codec, so on any host a fresh run may exceed the
/// committed figure by at most 1 %.
pub fn find_shuffle_regression(committed_bytes: u64, fresh: &ShuffleBytesReport) -> Option<String> {
    (fresh.compressed_bytes * 100 > committed_bytes * 101).then(|| {
        format!(
            "shuffle @ {} rows: {} compressed bytes vs committed {} (>1% larger)",
            fresh.rows, fresh.compressed_bytes, committed_bytes
        )
    })
}

/// Parses the `"parallel"` section back out of a [`render_json`] file.
/// Returns `None` when the file predates the section.
pub fn parse_parallel(text: &str) -> Option<ParallelReport> {
    let host_cores: usize = text
        .lines()
        .find(|l| l.contains("\"host_cores\""))
        .and_then(|l| json_field(l, "host_cores"))
        .and_then(|v| v.parse().ok())?;
    let entries: Vec<ParallelEntry> = text
        .lines()
        .filter_map(|line| {
            let kernel = json_field(line, "kernel")?.to_string();
            let rows = json_field(line, "rows")?.parse().ok()?;
            let threads_ns: Vec<(usize, u64)> = PARALLEL_THREADS
                .iter()
                .filter_map(|&t| {
                    let ns = json_field(line, &format!("t{t}_ns"))?.parse().ok()?;
                    Some((t, ns))
                })
                .collect();
            Some(ParallelEntry {
                kernel,
                rows,
                threads_ns,
            })
        })
        .collect();
    Some(ParallelReport {
        host_cores,
        entries,
    })
}

/// Pretty scaling table for stdout.
pub fn render_parallel_table(report: &ParallelReport) -> String {
    let mut s = format!(
        "parallel scaling ({}-core host)\n{:<10} {:>9}",
        report.host_cores, "kernel", "rows"
    );
    for t in PARALLEL_THREADS {
        s.push_str(&format!(" {:>11}", format!("t{t}_ns")));
    }
    s.push_str("  speedup@4\n");
    for e in &report.entries {
        s.push_str(&format!("{:<10} {:>9}", e.kernel, e.rows));
        for &(_, ns) in &e.threads_ns {
            s.push_str(&format!(" {ns:>11}"));
        }
        match e.speedup_at(4) {
            Some(x) => s.push_str(&format!("   {x:>6.2}x\n")),
            None => s.push('\n'),
        }
    }
    s
}

/// Pretty table for stdout.
pub fn render_table(entries: &[BenchEntry]) -> String {
    let mut s = format!(
        "{:<10} {:>9} {:>14} {:>14} {:>9}\n",
        "kernel", "rows", "baseline_ns", "vectorized_ns", "speedup"
    );
    for e in entries {
        s.push_str(&format!(
            "{:<10} {:>9} {:>14} {:>14} {:>8.2}x\n",
            e.name,
            e.rows,
            e.baseline_ns,
            e.vectorized_ns,
            e.speedup()
        ));
    }
    s
}

/// Compares a fresh vectorized measurement against the committed
/// baseline file; returns the list of regressions (>`factor`x slower).
/// Entries under 20µs are skipped — scheduler jitter dominates there.
/// Committed entries at row counts the fresh run never measured are
/// skipped too, so a `full`-mode artifact (with 1M-row points) can be
/// gated by a smoke-size re-measurement without false "missing" hits;
/// a kernel absent at a size the fresh run *did* cover still fails.
pub fn find_regressions(
    committed: &[BenchEntry],
    fresh: &[BenchEntry],
    factor: f64,
) -> Vec<String> {
    let fresh_sizes: std::collections::BTreeSet<usize> = fresh.iter().map(|f| f.rows).collect();
    let mut problems = Vec::new();
    for c in committed {
        if c.vectorized_ns < 20_000 || !fresh_sizes.contains(&c.rows) {
            continue;
        }
        match fresh.iter().find(|f| f.name == c.name && f.rows == c.rows) {
            None => problems.push(format!(
                "{} @ {} rows: missing from fresh run",
                c.name, c.rows
            )),
            Some(f) => {
                if f.vectorized_ns as f64 > c.vectorized_ns as f64 * factor {
                    problems.push(format!(
                        "{} @ {} rows: {}ns vs committed {}ns (>{factor:.1}x)",
                        c.name, c.rows, f.vectorized_ns, c.vectorized_ns
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_json_roundtrips() {
        let entries = run_suite(&[2_000], Duration::from_millis(5));
        assert_eq!(entries.len(), 12);
        let text = render_json("test", &entries, None, None);
        let back = parse_results(&text);
        assert_eq!(entries, back);
        assert!(find_regressions(&entries, &entries, 2.0).is_empty());
    }

    /// The parallel section renders, round-trips, stays invisible to the
    /// kernel-entry parser, and the scaling gate reads its thresholds
    /// from the recorded host cores.
    #[test]
    fn parallel_section_roundtrips_and_gates() {
        let report = ParallelReport {
            host_cores: 8,
            entries: ["join", "group_by", "sort", "topn"]
                .iter()
                .map(|k| ParallelEntry {
                    kernel: k.to_string(),
                    rows: 1_000_000,
                    threads_ns: vec![
                        (1, 4_000_000),
                        (2, 2_100_000),
                        (4, 1_500_000),
                        (8, 1_400_000),
                    ],
                })
                .collect(),
        };
        let entries = vec![BenchEntry {
            name: "join".into(),
            rows: 100,
            baseline_ns: 10,
            vectorized_ns: 5,
        }];
        let text = render_json("test", &entries, None, Some(&report));
        assert_eq!(
            parse_results(&text),
            entries,
            "parallel lines leaked into kernel entries"
        );
        assert_eq!(parse_parallel(&text).as_ref(), Some(&report));

        // 4M/1.5M ns = 2.67x: passes the 4-core bar, and trivially the
        // 1-core one.
        assert!(find_scaling_regressions(&report).is_empty());
        let one_core = ParallelReport {
            host_cores: 1,
            ..report.clone()
        };
        assert!(find_scaling_regressions(&one_core).is_empty());

        // Flat scaling on a multi-core host must fire for join and
        // group_by (and only those — sort/topn are recorded, not gated).
        let mut flat = report.clone();
        for e in &mut flat.entries {
            e.threads_ns = vec![
                (1, 1_000_000),
                (2, 1_000_000),
                (4, 1_000_000),
                (8, 1_000_000),
            ];
        }
        assert_eq!(find_scaling_regressions(&flat).len(), 2);
        // The same flat numbers are acceptable on a 1-core host…
        flat.host_cores = 1;
        assert!(find_scaling_regressions(&flat).is_empty());
        // …but gross pool overhead (4 threads 2x slower than 1) is not.
        for e in &mut flat.entries {
            e.threads_ns = vec![
                (1, 1_000_000),
                (2, 1_500_000),
                (4, 2_000_000),
                (8, 2_000_000),
            ];
        }
        assert_eq!(find_scaling_regressions(&flat).len(), 2);
    }

    /// A tiny end-to-end sweep: outputs must be byte-identical at every
    /// pool size (asserted inside the suite) and every entry must carry
    /// all four thread timings.
    #[test]
    fn parallel_suite_is_thread_invariant() {
        let _guard = pool_test_lock();
        let report = run_parallel_suite(&[2_000], Duration::from_millis(2));
        assert_eq!(report.entries.len(), 4);
        for e in &report.entries {
            assert_eq!(e.threads_ns.len(), PARALLEL_THREADS.len());
        }
        assert_eq!(report.host_cores, host_cores());
    }

    /// Serializes tests that resize the process-wide pool.
    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `"shuffle"` line must not confuse the line-oriented entry
    /// parser, and compression must strictly shrink shuffled bytes on a
    /// real distributed run.
    #[test]
    fn shuffle_compression_strictly_shrinks_measured_bytes() {
        let report = shuffle_bytes_report(4_000);
        assert!(
            report.compressed_bytes < report.plain_bytes,
            "compression on shipped {} bytes, off shipped {}",
            report.compressed_bytes,
            report.plain_bytes
        );
        let entries = vec![BenchEntry {
            name: "join".into(),
            rows: 100,
            baseline_ns: 10,
            vectorized_ns: 5,
        }];
        let text = render_json("test", &entries, Some(&report), None);
        assert!(text.contains("\"shuffle\""));
        assert_eq!(parse_results(&text), entries);
        // The size gate reads the line back and allows 1 % of growth.
        let (rows, committed) = parse_shuffle(&text).expect("shuffle line");
        assert_eq!((rows, committed), (report.rows, report.compressed_bytes));
        assert_eq!(find_shuffle_regression(committed, &report), None);
        assert_eq!(find_shuffle_regression(committed * 2, &report), None);
        assert_eq!(
            find_shuffle_regression(committed * 100 / 101 + 1, &report),
            None
        );
        assert!(find_shuffle_regression(committed * 100 / 102, &report).is_some());
    }

    #[test]
    fn regression_gate_fires() {
        let committed = vec![BenchEntry {
            name: "join".into(),
            rows: 100_000,
            baseline_ns: 1_000_000,
            vectorized_ns: 100_000,
        }];
        let mut fresh = committed.clone();
        fresh[0].vectorized_ns = 300_000;
        assert_eq!(find_regressions(&committed, &fresh, 2.0).len(), 1);
        // Sub-20µs entries are noise-exempt.
        let tiny = vec![BenchEntry {
            name: "filter".into(),
            rows: 10,
            baseline_ns: 10_000,
            vectorized_ns: 1_000,
        }];
        let mut tiny_fresh = tiny.clone();
        tiny_fresh[0].vectorized_ns = 9_000;
        assert!(find_regressions(&tiny, &tiny_fresh, 2.0).is_empty());
        // Committed sizes the fresh run never measured are skipped (a
        // full-mode artifact gated by a smoke re-measurement), but a
        // kernel missing at a size the fresh run covered still fails.
        let full = vec![
            BenchEntry {
                name: "join".into(),
                rows: 100_000,
                baseline_ns: 1_000_000,
                vectorized_ns: 100_000,
            },
            BenchEntry {
                name: "join".into(),
                rows: 1_000_000,
                baseline_ns: 10_000_000,
                vectorized_ns: 1_000_000,
            },
        ];
        let smoke_fresh = vec![full[0].clone()];
        assert!(find_regressions(&full, &smoke_fresh, 2.0).is_empty());
        let wrong_kernel = vec![BenchEntry {
            name: "sort".into(),
            rows: 100_000,
            baseline_ns: 1_000_000,
            vectorized_ns: 100_000,
        }];
        assert_eq!(find_regressions(&full, &wrong_kernel, 2.0).len(), 1);
    }
}
