//! Distributed-vs-reference equivalence for the SQL data plane.
//!
//! Every query here runs twice: once through [`MemDb::query`] (the
//! single-process vectorized engine) and once through
//! [`Session::sql_distributed`] (planned, sharded, and executed task by
//! task through the simulated cluster with real record batches). The
//! collected distributed result must be **byte-identical** — same IPC
//! frame — at parallelism 1, 2, 4 and 8, under failure injection for
//! every fault-tolerance mode, and across runtime seeds.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;
use skadi::runtime::config::FtMode;
use skadi::store::ec::EcConfig;
use skadi_dcsim::time::SimTime;

/// Same tables as `tests/exec_golden.rs`: duplicate join keys, null keys,
/// null values, mixed int/float join keys, and an empty relation.
fn golden_db() -> MemDb {
    let orders = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("order_id", DataType::Int64, false),
            Field::new("cust", DataType::Int64, true),
            Field::new("amount", DataType::Float64, true),
            Field::new("tag", DataType::Utf8, true),
        ]),
        vec![
            Array::from_i64(vec![1, 2, 3, 4, 5, 6]),
            Array::from_opt_i64(vec![Some(10), Some(20), None, Some(10), Some(30), Some(20)]),
            Array::from_opt_f64(vec![
                Some(5.0),
                Some(2.5),
                Some(9.0),
                None,
                Some(1.0),
                Some(4.0),
            ]),
            Array::from_opt_utf8(vec![Some("a"), Some("b"), Some("a"), None, Some("b"), None]),
        ],
    )
    .unwrap();
    let custs = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("cust", DataType::Int64, true),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_opt_i64(vec![Some(10), Some(10), Some(20), Some(99), None]),
            Array::from_utf8(&["ten-a", "ten-b", "twenty", "none", "null-key"]),
        ],
    )
    .unwrap();
    let ratios = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("fkey", DataType::Float64, false),
            Field::new("ratio", DataType::Float64, false),
        ]),
        vec![
            Array::from_f64(vec![10.0, 20.5]),
            Array::from_f64(vec![0.5, 0.25]),
        ],
    )
    .unwrap();
    let empty = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, true),
        ]),
        vec![Array::from_i64(vec![]), Array::from_opt_f64(vec![])],
    )
    .unwrap();
    MemDb::new()
        .register("orders", orders)
        .register("custs", custs)
        .register("ratios", ratios)
        .register("empty", empty)
}

/// A bigger seeded table so multi-shard scans, shuffles, and group-bys
/// carry real volume (float sums are order-sensitive — exactly what the
/// canonical-order machinery must get right).
fn big_db() -> MemDb {
    let mut rng = skadi_dcsim::rng::DetRng::seed(7);
    let n = 500;
    let keys: Vec<i64> = (0..n).map(|_| rng.below(17) as i64).collect();
    let vals: Vec<f64> = (0..n).map(|_| rng.unit() * 100.0 - 50.0).collect();
    let names = ["red", "green", "blue", "cyan"];
    let tags: Vec<&str> = (0..n).map(|_| *rng.pick(&names)).collect();
    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
            Field::new("tag", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(keys),
            Array::from_f64(vals),
            Array::from_utf8(&tags),
        ],
    )
    .unwrap();
    let dims = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("label", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64((0..17).collect()),
            Array::from_utf8(
                &(0..17)
                    .map(|i| format!("dim-{i}"))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            ),
        ],
    )
    .unwrap();
    MemDb::new()
        .register("events", events)
        .register("dims", dims)
}

/// The golden-suite queries plus coverage for every distributed operator
/// shape: scans, filters, joins (dup/null/mixed keys), grouped and
/// global aggregates, projection, sort, limit with and without order.
const QUERIES: &[&str] = &[
    "SELECT order_id, name FROM orders JOIN custs ON cust = cust ORDER BY order_id",
    "SELECT order_id, ratio FROM orders JOIN ratios ON cust = fkey ORDER BY order_id",
    "SELECT tag, count(*) AS n, sum(amount) AS s FROM orders GROUP BY tag",
    "SELECT sum(cust) AS s, min(cust) AS lo, max(cust) AS hi, avg(cust) AS m FROM orders",
    "SELECT count(*) AS n, sum(v) AS s FROM empty",
    "SELECT count(*) AS n, sum(amount) AS s FROM orders WHERE amount > 1000",
    "SELECT k, count(*) AS n FROM empty GROUP BY k",
    "SELECT order_id FROM orders WHERE cust >= 15.5 ORDER BY order_id",
    "SELECT order_id FROM orders WHERE amount < 5 AND cust = 20 ORDER BY order_id",
    "SELECT order_id, amount FROM orders ORDER BY amount LIMIT 3",
    "SELECT order_id, amount FROM orders LIMIT 4",
    "SELECT name, amount FROM orders JOIN custs ON cust = cust WHERE amount > 2 ORDER BY amount DESC LIMIT 3",
];

const BIG_QUERIES: &[&str] = &[
    "SELECT k, sum(v) AS s, count(*) AS n FROM events GROUP BY k",
    "SELECT tag, avg(v) AS m FROM events WHERE v > -10 GROUP BY tag ORDER BY m DESC",
    "SELECT label, sum(v) AS s FROM events JOIN dims ON k = k GROUP BY label ORDER BY s",
    "SELECT k, v FROM events WHERE tag = 'red' AND v > 0 ORDER BY v DESC LIMIT 10",
    "SELECT sum(v) AS total FROM events",
];

fn session_with(parallelism: u32) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(parallelism)
        .build()
}

fn assert_identical(db: &MemDb, sql: &str, run: &skadi::DistributedRun, ctx: &str) {
    let want = db.query(sql).unwrap();
    let want_bytes = ipc::encode(&want);
    let got_bytes = ipc::encode(&run.batch);
    assert_eq!(
        got_bytes.as_slice(),
        want_bytes.as_slice(),
        "{ctx}: distributed result diverged from MemDb for {sql:?}\nwant:\n{want}\ngot:\n{}",
        run.batch
    );
}

#[test]
fn distributed_matches_memdb_at_every_parallelism() {
    for (db, queries) in [(golden_db(), QUERIES), (big_db(), BIG_QUERIES)] {
        for &p in &[1u32, 2, 4, 8] {
            let session = session_with(p);
            for sql in queries {
                let run = session.sql_distributed(&db, sql).unwrap();
                assert_identical(&db, sql, &run, &format!("parallelism {p}"));
                assert!(run.report.stats.finished > 0);
                assert_eq!(run.report.stats.abandoned, 0);
            }
        }
    }
}

#[test]
fn distributed_survives_kill_and_recover_in_every_ft_mode() {
    let db = big_db();
    let sql = "SELECT label, sum(v) AS s, count(*) AS n FROM events JOIN dims ON k = k GROUP BY label ORDER BY s";
    let topo = presets::small_disagg_cluster();
    let victim = topo.servers()[0];
    let plan = FailurePlan::none().kill_and_recover(
        victim,
        SimTime::from_micros(3),
        SimTime::from_millis(4),
    );
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
        let run = session
            .sql_distributed_with_failures(&db, sql, &plan)
            .unwrap();
        assert_identical(&db, sql, &run, &format!("chaos under {ft:?}"));
        assert_eq!(run.report.stats.abandoned, 0, "under {ft:?}");
    }
}

#[test]
fn lineage_chaos_actually_retries_and_still_matches() {
    // A harsher schedule that must force re-execution under lineage:
    // kill several servers early, recover them later.
    let db = big_db();
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
    let session = Session::builder()
        .topology(topo)
        .parallelism(8)
        .runtime(RuntimeConfig::skadi_gen2().with_ft(FtMode::Lineage))
        .build();
    let run = session
        .sql_distributed_with_failures(&db, sql, &plan)
        .unwrap();
    assert_identical(&db, sql, &run, "lineage re-execution");
    assert!(
        run.report.stats.retries > 0,
        "this schedule is supposed to force re-execution (got {} retries)",
        run.report.stats.retries
    );
    // Re-executions append duplicate timing entries; every data-plane
    // task ran at least once, the recomputed ones more.
    assert!(run.data_plane.timings.len() > run.report.stats.finished as usize);
}

#[test]
fn determinism_across_seeds_and_runs() {
    let db = big_db();
    let sql = "SELECT label, sum(v) AS s FROM events JOIN dims ON k = k GROUP BY label ORDER BY s";
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    let mut shuffles = Vec::new();
    for seed in [1u64, 99] {
        let mut cfg = RuntimeConfig::skadi_gen2();
        cfg.seed = seed;
        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .parallelism(4)
            .runtime(cfg)
            .build();
        let run = session.sql_distributed(&db, sql).unwrap();
        outputs.push(ipc::encode(&run.batch).to_vec());
        shuffles.push(run.data_plane.shuffle_rows.clone());
    }
    assert_eq!(outputs[0], outputs[1], "result bytes differ across seeds");
    assert_eq!(
        shuffles[0], shuffles[1],
        "per-shard shuffle row counts differ across seeds"
    );
    assert!(!shuffles[0].is_empty(), "group-by query must shuffle");
}

/// The data plane, gated on counts that repeat exactly on any host: at
/// parallelism 4 on the fabric's NIC every golden query stores no
/// compressed output, decodes no payload, makes no frame, and
/// hash-partitions each shuffle producer's output once (it used to be
/// once per consumer shard). Reading every stored payload makes each
/// frame once. A second, cold executor — fed those bytes alone, through
/// plain `TaskExecutor::execute` — decodes every input from them and
/// must store the very same bytes, so what the first run handed over by
/// reference was what the bytes hold.
#[test]
fn every_output_is_staged_once_and_a_cold_executor_agrees() {
    use skadi::dcsim::network::LinkParams;
    use skadi::flowgraph::lower::{lower_graph, LowerConfig};
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::physical::PEdgeKind;
    use skadi::frontends::sql;
    use skadi::ir::BackendPolicy;
    use skadi::runtime::{job_from_physical, Cluster, Payload, ReadyTask, TaskExecutor, TaskId};
    use skadi::GraphExecutor;
    use std::collections::BTreeSet;

    let topo = presets::small_disagg_cluster();
    for (db, queries) in [(golden_db(), QUERIES), (big_db(), BIG_QUERIES)] {
        for query in queries {
            let (mut graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
            optimize_graph(&mut graph);
            let lower = LowerConfig::new(4, BackendPolicy::cost_based());
            let phys = lower_graph(&graph, &lower).unwrap();
            let job = job_from_physical("sql", &phys, "sql").unwrap();
            let edges = |shuffles_only: bool| -> BTreeSet<(u32, u32)> {
                let edges = phys.edges().iter();
                edges
                    .filter(|e| !shuffles_only || matches!(e.kind, PEdgeKind::Shuffle { .. }))
                    .map(|e| (e.from.0, e.to.0))
                    .collect()
            };
            let shuffled: BTreeSet<u32> = edges(true).iter().map(|e| e.0).collect();

            let mut cluster = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
            let warm = GraphExecutor::new(phys.clone(), db.tables().clone());
            let measured = warm.stats();
            cluster.set_executor(Box::new(warm));
            cluster
                .run_with_failures(&job, &FailurePlan::none())
                .unwrap();
            let warm = measured.borrow().clone();
            let counts = (
                warm.compressed_outputs,
                warm.payload_decodes,
                warm.payloads_materialised,
            );
            assert_eq!(counts, (0, 0, 0), "{query}");
            assert_eq!(warm.partition_passes, shuffled.len() as u64, "{query}");

            let stored: Vec<&[u8]> = phys
                .vertices()
                .iter()
                .map(|v| cluster.task_payload(TaskId(v.id.0 as u64)).unwrap())
                .collect();
            // A second read finds the frame made by the first.
            let _ = cluster.task_payload(TaskId(0));
            let made = measured.borrow().payloads_materialised;
            assert_eq!(made, phys.len() as u64, "{query}: each frame made once");

            let mut cold = GraphExecutor::new(phys.clone(), db.tables().clone());
            let measured = cold.stats();
            for v in phys.topo_order().unwrap() {
                let producers: BTreeSet<u32> = phys.in_edges(v).iter().map(|e| e.from.0).collect();
                let fed: Vec<(TaskId, Payload)> = producers
                    .iter()
                    .map(|&p| (TaskId(p as u64), Payload::from(stored[p as usize].to_vec())))
                    .collect();
                let ready = ReadyTask {
                    task: TaskId(v.0 as u64),
                    inputs: fed.iter().map(|(p, payload)| (*p, payload)).collect(),
                    link_bps: LinkParams::default().nic_bandwidth_bps,
                };
                let out = cold.execute(&ready).unwrap();
                assert_eq!(out.bytes(), stored[v.0 as usize], "{query}: task {v}");
            }
            let cold = measured.borrow();
            assert_eq!(cold.payload_decodes, edges(false).len() as u64, "{query}");
            assert_eq!(cold.partition_passes, edges(true).len() as u64, "{query}");
            assert_eq!(cold.edge_rows, warm.edge_rows, "{query}");
            assert_eq!(cold.shuffle_rows, warm.shuffle_rows, "{query}");
        }
    }
}

/// Registering dictionary-encoded tables must be observationally
/// invisible: the result bytes match a plain-table MemDb at every
/// parallelism, and under kill-and-recover chaos. (The engine also
/// dict-encodes internally at scan time; this pins the *input* side.)
#[test]
fn dict_encoded_tables_are_byte_identical_to_plain() {
    let plain = big_db();
    let mut dict = MemDb::new();
    for (name, batch) in plain.tables() {
        let encoded = batch.dict_encoded();
        dict = dict.register(name, encoded);
    }
    // The low-cardinality string columns really did encode.
    assert!(matches!(
        dict.table("events").unwrap().column(2),
        Array::DictUtf8(_)
    ));
    for &p in &[1u32, 2, 4, 8] {
        let session = session_with(p);
        for sql in BIG_QUERIES {
            let run = session.sql_distributed(&dict, sql).unwrap();
            assert_identical(&plain, sql, &run, &format!("dict tables, parallelism {p}"));
        }
    }
    // And through chaos: kill a server mid-query, recover it later.
    let topo = presets::small_disagg_cluster();
    let victim = topo.servers()[0];
    let plan = FailurePlan::none().kill_and_recover(
        victim,
        SimTime::from_micros(3),
        SimTime::from_millis(4),
    );
    let session = Session::builder()
        .topology(topo)
        .parallelism(4)
        .runtime(RuntimeConfig::skadi_gen2().with_ft(FtMode::Lineage))
        .build();
    let sql = BIG_QUERIES[2];
    let run = session
        .sql_distributed_with_failures(&dict, sql, &plan)
        .unwrap();
    assert_identical(&plain, sql, &run, "dict tables under chaos");
    assert_eq!(run.report.stats.abandoned, 0);
}

/// NaN ordering (`f64::total_cmp`: NaN after +inf ascending) must be
/// deterministic and identical between the local engine and the
/// distributed plane, for full sorts and for TopN.
#[test]
fn nan_ordering_identical_local_and_distributed() {
    let m = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64((0..8).collect()),
            Array::from_f64(vec![
                f64::NAN,
                1.5,
                f64::NEG_INFINITY,
                f64::INFINITY,
                -0.0,
                f64::NAN,
                -3.25,
                0.0,
            ]),
        ],
    )
    .unwrap();
    let db = MemDb::new().register("m", m);
    let queries = [
        "SELECT x FROM m ORDER BY x",
        "SELECT x FROM m ORDER BY x DESC",
        "SELECT x FROM m ORDER BY x DESC LIMIT 3",
        "SELECT x FROM m ORDER BY x LIMIT 5",
    ];
    // Ascending: NaNs land strictly last.
    match db.query(queries[0]).unwrap().column(0) {
        Array::Float64(xs) => {
            assert!(xs.get(6).unwrap().is_nan() && xs.get(7).unwrap().is_nan());
            assert_eq!(xs.get(5).unwrap(), f64::INFINITY);
        }
        other => panic!("unexpected column {other:?}"),
    }
    for &p in &[1u32, 2, 4, 8] {
        let session = session_with(p);
        for sql in &queries {
            let run = session.sql_distributed(&db, sql).unwrap();
            assert_identical(&db, sql, &run, &format!("NaN ordering, parallelism {p}"));
        }
    }
}

/// Mixed int/float join keys compare exactly: an i64 key above 2^53 must
/// not collide with the f64 its neighbour rounds to — locally and
/// distributed.
#[test]
fn mixed_join_keys_exact_above_2_53_distributed() {
    const P53: i64 = 1 << 53;
    let facts = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]),
        vec![
            // P53 + 1 rounds to P53 as f64; exact equality must reject it.
            Array::from_i64(vec![P53, P53 + 1, 5]),
            Array::from_f64(vec![1.0, 2.0, 3.0]),
        ],
    )
    .unwrap();
    let dims = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("fkey", DataType::Float64, false),
            Field::new("label", DataType::Utf8, false),
        ]),
        vec![
            Array::from_f64(vec![P53 as f64, 5.0]),
            Array::from_utf8(&["big", "small"]),
        ],
    )
    .unwrap();
    let db = MemDb::new().register("facts", facts).register("dims", dims);
    let sql = "SELECT k, label FROM facts JOIN dims ON k = fkey ORDER BY k";
    let local = db.query(sql).unwrap();
    // Exactly two matches: 5 and P53 itself — never P53 + 1.
    assert_eq!(local.num_rows(), 2);
    match local.column(0) {
        Array::Int64(ks) => {
            assert_eq!(ks.get(0).unwrap(), 5);
            assert_eq!(ks.get(1).unwrap(), P53);
        }
        other => panic!("unexpected column {other:?}"),
    }
    for &p in &[1u32, 2, 4] {
        let session = session_with(p);
        let run = session.sql_distributed(&db, sql).unwrap();
        assert_identical(&db, sql, &run, &format!("2^53 join, parallelism {p}"));
    }
}

/// Compression is the link's call. The fabric's 25 GiB/s NIC never pays
/// for the codec; on a 100 MiB/s NIC the same query stores every shuffle
/// output compressed, measures strictly fewer bytes — and answers with
/// identical result bytes.
#[test]
fn shuffle_compression_shrinks_measured_output_bytes() {
    use skadi::arrow::compression;
    use skadi::dcsim::network::LinkParams;
    use skadi::flowgraph::lower::{lower_graph, LowerConfig};
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::physical::{PEdgeKind, PVertexId, PVertexKind};
    use skadi::frontends::sql;
    use skadi::ir::BackendPolicy;
    use skadi::runtime::{job_from_physical, Cluster, TaskId};
    use skadi::GraphExecutor;

    let db = big_db();
    let query =
        "SELECT label, sum(v) AS s FROM events JOIN dims ON k = k GROUP BY label ORDER BY s";
    let (mut graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
    optimize_graph(&mut graph);
    let phys = lower_graph(&graph, &LowerConfig::new(4, BackendPolicy::cost_based())).unwrap();
    let job = job_from_physical("sql", &phys, "sql").unwrap();
    let task = |v: PVertexId| TaskId(v.0 as u64);
    let sink = phys
        .vertices()
        .iter()
        .find(|v| v.kind == PVertexKind::Sink)
        .map(|v| task(v.id))
        .unwrap();
    let shuffled: std::collections::BTreeSet<TaskId> = phys
        .edges()
        .iter()
        .filter(|e| matches!(e.kind, PEdgeKind::Shuffle { .. }))
        .map(|e| task(e.from))
        .collect();

    let run = |links: LinkParams| {
        let topo = presets::small_disagg_cluster();
        let mut cluster = Cluster::with_links(&topo, RuntimeConfig::skadi_gen2(), links);
        let executor = GraphExecutor::new(phys.clone(), db.tables().clone());
        let measured = executor.stats();
        cluster.set_executor(Box::new(executor));
        let stats = cluster.run(&job).unwrap();
        let compressed = measured.borrow().compressed_outputs;
        let total: u64 = stats.measured_output_bytes.values().sum();
        (cluster, compressed, total)
    };
    let (fabric, fabric_compressed, fabric_bytes) = run(LinkParams::default());
    let slow_nic = LinkParams {
        nic_bandwidth_bps: 100 << 20,
        ..LinkParams::default()
    };
    let (slow, slow_compressed, slow_bytes) = run(slow_nic);

    assert_eq!(fabric_compressed, 0, "the fabric compressed an output");
    assert!(!shuffled.is_empty());
    // Every shuffle output big enough for the rule is stored compressed;
    // a sub-kilobyte one never is.
    let mut packed = 0;
    for &t in &shuffled {
        let len = fabric.measured_output_bytes(t).unwrap() as usize;
        let is_packed = compression::is_compressed(slow.task_payload(t).unwrap());
        assert_eq!(
            is_packed,
            len >= compression::MIN_COMPRESSED_FRAME,
            "shuffle output {t} of {len} bytes on a 100 MiB/s NIC"
        );
        packed += is_packed as u64;
    }
    assert!(packed >= 4, "only {packed} shuffle outputs compressed");
    assert!(slow_compressed >= packed);
    assert!(
        slow_bytes < fabric_bytes,
        "a 100 MiB/s NIC stored {slow_bytes} bytes, the fabric {fabric_bytes}"
    );
    let answer = |cluster: &Cluster| {
        let bytes = cluster.task_payload(sink).unwrap();
        let frame = if compression::is_compressed(bytes) {
            compression::decompress(bytes).unwrap()
        } else {
            bytes.to_vec()
        };
        ipc::encode(&ipc::decode(frame.into()).unwrap()).to_vec()
    };
    let want = ipc::encode(&db.query(query).unwrap()).to_vec();
    assert_eq!(answer(&fabric), want);
    assert_eq!(answer(&slow), want);
}

#[test]
fn task_output_sizes_are_measured_not_estimated() {
    let db = golden_db();
    let session = session_with(4);
    let run = session
        .sql_distributed(
            &db,
            "SELECT tag, count(*) AS n, sum(amount) AS s FROM orders GROUP BY tag",
        )
        .unwrap();
    let measured = &run.report.stats.measured_output_bytes;
    assert_eq!(
        measured.len(),
        run.report.stats.finished as usize,
        "every finished task should have a measured payload size"
    );
    // Each recorded size is a real IPC frame length the executor stored,
    // and matches what the data plane measured for that task.
    for t in &run.data_plane.timings {
        assert_eq!(measured.get(&t.task), Some(&t.output_bytes));
        assert!(t.output_bytes >= 15, "even an empty frame has a header");
    }
}

#[test]
fn reserved_columns_are_rejected() {
    let bad = MemDb::new().register(
        "t",
        RecordBatch::try_new(
            Schema::new(vec![Field::new("__rid", DataType::Int64, false)]),
            vec![Array::from_i64(vec![1])],
        )
        .unwrap(),
    );
    let err = session_with(2).sql_distributed(&bad, "SELECT __rid FROM t");
    assert!(err.is_err(), "reserved column names must be rejected");
}

/// Pins the shuffle/exec hash contract across crates: the flowgraph
/// partitioner (`Partitioner::Hash` over a key's raw bytes), the arrow
/// column hash (`hash_key_column`), and the shard-level
/// `partition_by_key` must all route every row to the same shard. If any
/// one of them changes its hash, joins would silently mis-co-locate rows
/// — this test turns that into a loud failure.
#[test]
fn shuffle_and_exec_hashes_are_bit_compatible() {
    use skadi::arrow::compute::hash_key_column;
    use skadi::flowgraph::partition::Partitioner;
    use skadi::frontends::shard::partition_by_key;

    // One column per type, with nulls; the raw-byte key encodings the
    // partitioner hashes (i64/f64-bits little-endian, bool byte, UTF-8
    // bytes, 0xFF null marker) must reproduce the column hashes.
    let cases: Vec<(Array, Vec<Option<Vec<u8>>>)> = vec![
        (
            Array::from_opt_i64(vec![Some(7), None, Some(-3), Some(i64::MAX)]),
            vec![
                Some(7i64.to_le_bytes().to_vec()),
                None,
                Some((-3i64).to_le_bytes().to_vec()),
                Some(i64::MAX.to_le_bytes().to_vec()),
            ],
        ),
        (
            Array::from_opt_f64(vec![Some(1.5), None, Some(-0.0)]),
            vec![
                Some(1.5f64.to_bits().to_le_bytes().to_vec()),
                None,
                Some((-0.0f64).to_bits().to_le_bytes().to_vec()),
            ],
        ),
        (
            Array::from_opt_utf8(vec![Some("k1"), None, Some(""), Some("naïve")]),
            vec![
                Some(b"k1".to_vec()),
                None,
                Some(Vec::new()),
                Some("naïve".as_bytes().to_vec()),
            ],
        ),
    ];

    for parts in [1u32, 2, 4, 8] {
        for (col, keys) in &cases {
            let hashes = hash_key_column(col, false);
            for (row, key) in keys.iter().enumerate() {
                let bytes = match key {
                    Some(b) => b.clone(),
                    None => vec![0xFF],
                };
                let via_partitioner = Partitioner::Hash.assign(&bytes, row as u64, parts);
                let via_column = (hashes[row] % parts as u64) as u32;
                assert_eq!(via_partitioner, via_column, "row {row} at {parts} parts");
            }
        }
    }

    // And the batch-level shuffle agrees: partition_by_key lists row r
    // for exactly the shard the partitioner computes for r's key bytes,
    // every list ascending.
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("row", DataType::Int64, false),
        ]),
        vec![
            Array::from_opt_i64(vec![Some(10), Some(20), None, Some(10), Some(35), Some(-2)]),
            Array::from_i64(vec![0, 1, 2, 3, 4, 5]),
        ],
    )
    .unwrap();
    let parts = 4usize;
    let shards = partition_by_key(&batch, "k", parts, false).unwrap();
    let keys: Vec<Vec<u8>> = vec![
        10i64.to_le_bytes().to_vec(),
        20i64.to_le_bytes().to_vec(),
        vec![0xFF],
        10i64.to_le_bytes().to_vec(),
        35i64.to_le_bytes().to_vec(),
        (-2i64).to_le_bytes().to_vec(),
    ];
    assert!(shards.iter().all(|rows| rows.is_sorted()), "{shards:?}");
    for (row, key) in keys.iter().enumerate() {
        let expect = Partitioner::Hash.assign(key, row as u64, parts as u32) as usize;
        for (s, shard) in shards.iter().enumerate() {
            let found = shard.iter().any(|&r| {
                batch.column(1).value_at(r as usize) == skadi::arrow::array::Value::I64(row as i64)
            });
            assert_eq!(
                found,
                s == expect,
                "row {row} should live on shard {expect}, checked shard {s}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The three plan rules (fusion to the head of the chain, column pruning,
// LIMIT before the gather): generated statements, every plan variant.
// ---------------------------------------------------------------------

/// Every float an ORDER BY, a group key or a sum can trip on: NaN, both
/// zeros, an infinity, and a duplicate for ties at a LIMIT's cut.
const FLOATS: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.5, 1.5, -2.25, f64::INFINITY];

/// Small seeded tables: `a` (nullable key, float and tag columns, few
/// distinct values so every sort key repeats), `b` (duplicate and null
/// join keys, duplicate labels, a column `w` that `a` has too, under
/// another type) and `e`, which has a schema and no rows.
fn generated_db(rng: &mut skadi_dcsim::rng::DetRng) -> MemDb {
    let opt = |rng: &mut skadi_dcsim::rng::DetRng, nulls: f64| !rng.chance(nulls);
    let n = 9 + rng.below(32) as usize;
    let tags = ["p", "q", "r"];
    let a = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("k", DataType::Int64, true),
            Field::new("x", DataType::Float64, true),
            Field::new("tag", DataType::Utf8, true),
            Field::new("w", DataType::Int64, false),
        ]),
        vec![
            Array::from_i64((0..n as i64).collect()),
            Array::from_opt_i64(
                (0..n)
                    .map(|_| opt(rng, 0.15).then(|| rng.below(5) as i64))
                    .collect(),
            ),
            Array::from_opt_f64(
                (0..n)
                    .map(|_| opt(rng, 0.15).then(|| *rng.pick(&FLOATS)))
                    .collect(),
            ),
            Array::from_opt_utf8(
                (0..n)
                    .map(|_| opt(rng, 0.2).then(|| *rng.pick(&tags)))
                    .collect::<Vec<_>>(),
            ),
            Array::from_i64((0..n).map(|_| rng.below(4) as i64).collect()),
        ],
    )
    .unwrap();
    let m = 3 + rng.below(8) as usize;
    let labels = ["lo", "mid", "mid", "hi"];
    let b = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("label", DataType::Utf8, false),
            Field::new("w", DataType::Float64, false),
            Field::new("y", DataType::Float64, true),
        ]),
        vec![
            Array::from_opt_i64(
                (0..m)
                    .map(|_| opt(rng, 0.1).then(|| rng.below(6) as i64))
                    .collect(),
            ),
            Array::from_utf8(&(0..m).map(|_| *rng.pick(&labels)).collect::<Vec<_>>()),
            Array::from_f64((0..m).map(|_| rng.unit()).collect()),
            Array::from_opt_f64(
                (0..m)
                    .map(|_| opt(rng, 0.2).then(|| *rng.pick(&FLOATS)))
                    .collect(),
            ),
        ],
    )
    .unwrap();
    let e = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("x", DataType::Float64, true),
        ]),
        vec![Array::from_opt_i64(vec![]), Array::from_opt_f64(vec![])],
    )
    .unwrap();
    MemDb::new()
        .register("a", a)
        .register("b", b)
        .register("e", e)
}

/// One statement per shape the three rules have to get right, literals
/// and directions drawn from `rng`. The LIMITs are 0, past the end, and
/// small enough to cut inside a run of equal sort keys.
fn generated_statements(rng: &mut skadi_dcsim::rng::DetRng, rows: usize) -> Vec<String> {
    let limits = [0, 1, 2, 3, 5, rows + 7];
    let mut lim = {
        let mut rng = rng.fork(1);
        move || *rng.pick(&limits)
    };
    let mut dir = {
        let mut rng = rng.fork(2);
        move || if rng.chance(0.5) { " DESC" } else { "" }
    };
    let mut cut = {
        let mut rng = rng.fork(3);
        move || [-3.0, -0.0, 0.5, 1.5, 9.0][rng.below(5) as usize]
    };
    let tag = *rng.pick(&["p", "q", "r"]);
    let k = rng.below(4);
    vec![
        // WHERE on a column the SELECT list does not name.
        format!(
            "SELECT id, x FROM a WHERE k >= {k} ORDER BY x{} LIMIT {}",
            dir(),
            lim()
        ),
        format!("SELECT id, tag FROM a WHERE w < {} LIMIT {}", 1 + k, lim()),
        format!("SELECT x FROM a WHERE tag = '{tag}' AND x > {:?}", cut()),
        // `*`: nothing may be pruned, whatever else is read.
        format!("SELECT * FROM a WHERE tag = '{tag}'"),
        format!("SELECT * FROM a ORDER BY k{} LIMIT {}", dir(), lim()),
        format!(
            "SELECT * FROM a JOIN b ON k = k ORDER BY label{} LIMIT {}",
            dir(),
            lim()
        ),
        // `count(*)` alone reads no column; the rows must still arrive.
        "SELECT count(*) AS n FROM a".to_string(),
        format!("SELECT count(*) AS n FROM a WHERE x > {:?}", cut()),
        "SELECT count(*) AS n FROM a JOIN b ON k = k".to_string(),
        // Joins: a residual predicate on the right table, the shared name.
        format!(
            "SELECT id, label, w FROM a JOIN b ON k = k WHERE y > {:?} AND x < {:?}",
            cut(),
            cut()
        ),
        format!(
            "SELECT label, w, y FROM a JOIN b ON k = k WHERE y <= {:?} ORDER BY y{} LIMIT {}",
            cut(),
            dir(),
            lim()
        ),
        format!("SELECT id, label FROM a JOIN b ON k = k LIMIT {}", lim()),
        // Aggregates ordered by an output name; counts tie often.
        format!(
            "SELECT tag, sum(x) AS s, count(*) AS n FROM a GROUP BY tag ORDER BY n{} LIMIT {}",
            dir(),
            lim()
        ),
        format!(
            "SELECT k, min(x) AS lo, max(w) AS hi FROM a WHERE id >= {k} GROUP BY k ORDER BY lo{}",
            dir()
        ),
        format!(
            "SELECT label, count(*) AS n, avg(x) AS m FROM a JOIN b ON k = k \
             GROUP BY label ORDER BY n{} LIMIT {}",
            dir(),
            lim()
        ),
        "SELECT x, count(*) AS n FROM a GROUP BY x".to_string(),
        format!("SELECT sum(x) AS s, count(x) AS c FROM a LIMIT {}", lim()),
        // The empty relation, scanned, grouped, folded and on either join side.
        format!("SELECT k, x FROM e ORDER BY x{} LIMIT {}", dir(), lim()),
        "SELECT k, count(*) AS n FROM e GROUP BY k ORDER BY n".to_string(),
        "SELECT count(*) AS n, sum(x) AS s FROM e".to_string(),
        "SELECT id, x FROM a JOIN e ON k = k".to_string(),
        format!("SELECT k, x FROM e JOIN a ON k = k LIMIT {}", lim()),
    ]
}

/// Seeds that have failed while the rules were written stay here; add to
/// the list, never replace it.
const RULE_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 20230622, 0xdead_beef];

/// `MemDb::query` against `sql_distributed` under every plan variant:
/// parallelism 1/2/3/4/8 x optimizer on/off x adaptive on/off, compared
/// as IPC bytes. The pool's thread count comes from `SKADI_THREADS`; CI
/// runs this binary at 1 and at 4.
#[test]
fn generated_statements_match_memdb_under_every_plan_variant() {
    let mut sessions = Vec::new();
    for parallelism in [1u32, 2, 3, 4, 8] {
        for optimizer in [true, false] {
            for adaptive in [false, true] {
                let mut b = Session::builder()
                    .topology(presets::small_disagg_cluster())
                    .parallelism(parallelism)
                    .adaptive(adaptive);
                if !optimizer {
                    b = b.without_optimizer();
                }
                let ctx = format!("x{parallelism} optimizer={optimizer} adaptive={adaptive}");
                sessions.push((ctx, b.build()));
            }
        }
    }
    for seed in RULE_SEEDS {
        let mut rng = skadi_dcsim::rng::DetRng::seed(seed);
        let db = generated_db(&mut rng);
        let rows = db.table("a").unwrap().num_rows();
        for sql in generated_statements(&mut rng, rows) {
            let want = db
                .query(&sql)
                .unwrap_or_else(|e| panic!("seed {seed}: MemDb refused {sql:?}: {e}"));
            let want = ipc::encode(&want);
            for (ctx, session) in &sessions {
                let run = session
                    .sql_distributed(&db, &sql)
                    .unwrap_or_else(|e| panic!("seed {seed} {ctx}: {sql:?}: {e}"));
                assert_eq!(
                    ipc::encode(&run.batch).as_slice(),
                    want.as_slice(),
                    "seed {seed} {ctx}: {sql:?}\ngot:\n{}",
                    run.batch
                );
            }
        }
    }
}

/// A planned vertex's ops are the ops its descriptor performs — a scan
/// source's descriptor is the scan, a sink's gather performs none — and
/// fusion keeps them so: a fused vertex's op list is its `ExecOp::Fused`
/// chain, in order. Over every generated statement of every seed.
#[test]
fn every_planned_vertex_runs_the_ops_it_is_named_by() {
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::{FlowGraph, VertexBody};
    use skadi::frontends::sql;
    use skadi::ir::Op;

    let check = |g: &FlowGraph, ctx: &str| {
        for v in g.vertices() {
            let exec = v.exec.as_ref().unwrap_or_else(|| panic!("{ctx}: {v:?}"));
            let want: &[Op] = match v.body {
                VertexBody::Source { .. } => &[Op::Scan],
                VertexBody::IrOp { .. } => v.body.ops(),
                VertexBody::Sink { .. } => &[],
            };
            assert_eq!(exec.ops(), want, "{ctx}: {v:?}");
        }
    };
    for seed in RULE_SEEDS {
        let mut rng = skadi_dcsim::rng::DetRng::seed(seed);
        let db = generated_db(&mut rng);
        let rows = db.table("a").unwrap().num_rows();
        for query in generated_statements(&mut rng, rows) {
            let (mut g, _) = sql::plan_sql(&query, &db.catalog()).unwrap();
            check(&g, &format!("seed {seed} planned {query:?}"));
            optimize_graph(&mut g);
            check(&g, &format!("seed {seed} optimized {query:?}"));
        }
    }
}

/// One run per FT mode in which the node lost is the one running a
/// scan-headed fused shard, killed halfway through that shard: the table
/// slice is read, pruned and filtered again elsewhere and the answer does
/// not move.
#[test]
fn a_killed_scan_headed_shard_recovers_in_every_ft_mode() {
    use skadi::dcsim::span::Category;
    use skadi::dcsim::topology::NodeId;
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::ExecOp;
    use skadi::frontends::sql;

    let db = big_db();
    let query = "SELECT label, sum(v) AS s FROM events JOIN dims ON k = k \
                 WHERE v > -40 GROUP BY label ORDER BY s LIMIT 5";
    // Task 0 is shard 0 of the plan's first vertex: the `events` scan
    // with its pruning projection and the pushed filter behind it.
    let (mut graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
    optimize_graph(&mut graph);
    let head = graph.vertices()[0].exec.as_ref().unwrap();
    assert!(
        matches!(head, ExecOp::Fused(ops) if ops.len() > 2),
        "{head:?}"
    );
    assert_eq!(head.scanned_table(), Some("events"));

    for ft in [
        FtMode::Lineage,
        FtMode::Replication(2),
        FtMode::ErasureCoding(EcConfig::RS_4_2),
    ] {
        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .parallelism(4)
            .runtime(RuntimeConfig::skadi_gen2().with_ft(ft).with_tracing(true))
            .build();
        let attempts = |run: &skadi::DistributedRun| -> Vec<skadi::dcsim::span::Span> {
            let spans = run.report.stats.trace.spans();
            spans
                .iter()
                .filter(|s| s.category == Category::Task && s.attr("task") == Some("t0"))
                .cloned()
                .collect()
        };
        // Where and when task 0 runs when nothing fails.
        let calm = session.sql_distributed(&db, query).unwrap();
        let task = attempts(&calm)[0].id;
        let ran = calm
            .report
            .stats
            .trace
            .spans()
            .iter()
            .find(|s| s.category == Category::Run && s.parent == Some(task))
            .expect("task 0 ran")
            .clone();
        let node = NodeId(ran.component.strip_prefix("node").unwrap().parse().unwrap());
        let halfway = ran.start + ran.duration() / 2;
        let plan = FailurePlan::none().kill_and_recover(
            node,
            halfway,
            halfway + skadi_dcsim::time::SimDuration::from_millis(4),
        );
        let stormy = session
            .sql_distributed_with_failures(&db, query, &plan)
            .unwrap();
        assert_identical(
            &db,
            query,
            &stormy,
            &format!("scan shard killed under {ft:?}"),
        );
        assert_eq!(stormy.report.stats.abandoned, 0, "under {ft:?}");
        let tries = attempts(&stormy);
        assert!(
            tries.len() > 1 && tries[0].attr("aborted") == Some("true"),
            "under {ft:?} the kill at {halfway} on {node} missed task 0: {tries:?}"
        );
    }
}

/// The benchmark's five statement templates over its three tables, a
/// thirtieth the size.
fn benchmark_db() -> MemDb {
    let mut rng = skadi_dcsim::rng::DetRng::seed(20230622);
    let kinds = ["click", "view", "purchase", "scroll"];
    let mut events = |rows: usize| {
        let ids: Vec<i64> = (0..rows).map(|_| rng.below(64) as i64).collect();
        let kind: Vec<&str> = (0..rows).map(|_| *rng.pick(&kinds)).collect();
        let values: Vec<f64> = (0..rows).map(|_| rng.unit() * 10.0).collect();
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("user_id", DataType::Int64, false),
                Field::new("kind", DataType::Utf8, false),
                Field::new("value", DataType::Float64, false),
            ]),
            vec![
                Array::from_i64(ids),
                Array::from_utf8(&kind),
                Array::from_f64(values),
            ],
        )
        .unwrap()
    };
    let (events_l, events_s) = (events(2048), events(256));
    let names: Vec<String> = (0..64).map(|n| format!("user-{n:04}")).collect();
    let people = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![Array::from_i64((0..64).collect()), Array::from_utf8(&names)],
    )
    .unwrap();
    MemDb::new()
        .register("events", events_l)
        .register("events_s", events_s)
        .register("people", people)
}

/// The data plane's counts repeat exactly. Over the benchmark's five
/// templates at parallelism 4 on the fabric's NIC, no output is
/// compressed, decoded or made into bytes — calm, and under a
/// kill-and-recover of a server in every FT mode, the answer unchanged.
/// In a stateless deployment every output is written to the durable
/// store at 100 MiB/s, where compressing pays: the same outputs compress
/// to the same bytes on every run.
#[test]
fn payload_counts_repeat_calm_and_under_chaos() {
    let db = benchmark_db();
    let topo = presets::small_disagg_cluster();
    let plan = FailurePlan::none().kill_and_recover(
        topo.servers()[0],
        SimTime::from_micros(3),
        SimTime::from_millis(4),
    );
    let counts = |run: &skadi::DistributedRun| {
        let d = &run.data_plane;
        (
            d.compressed_outputs,
            d.payload_decodes,
            d.payloads_materialised,
        )
    };
    let (mut durable_compressed, mut hit) = (0, false);
    for (query, _, _) in BENCHMARK_TEMPLATES {
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
            let calm = session.sql_distributed(&db, query).unwrap();
            let stormy = session
                .sql_distributed_with_failures(&db, query, &plan)
                .unwrap();
            assert_eq!(counts(&calm), (0, 0, 0), "{query} under {ft:?}");
            assert_eq!(counts(&stormy), (0, 0, 0), "{query} under {ft:?}, stormy");
            assert_identical(&db, query, &stormy, &format!("chaos under {ft:?}"));
            hit |= stormy.report.stats.makespan != calm.report.stats.makespan;
        }
        let session = Session::builder()
            .topology(topo.clone())
            .parallelism(4)
            .runtime(RuntimeConfig::stateless_serverless())
            .build();
        let (a, b) = (
            session.sql_distributed(&db, query).unwrap(),
            session.sql_distributed(&db, query).unwrap(),
        );
        assert_eq!(counts(&a), counts(&b), "{query}");
        let stored = |run: &skadi::DistributedRun| run.report.stats.measured_output_bytes.clone();
        assert_eq!(stored(&a), stored(&b), "{query}");
        assert_identical(&db, query, &a, "stateless deployment");
        durable_compressed += a.data_plane.compressed_outputs;
    }
    assert!(hit, "the kill never touched a run");
    assert!(
        durable_compressed > 0,
        "no durable write paid for the codec"
    );
}

/// The benchmark's five templates (`point`, `groupby`, `join`, `topn`,
/// `scan`), each with its task count at parallelism 4 and its LIMIT.
const BENCHMARK_TEMPLATES: [(&str, usize, Option<usize>); 5] = [
    (
        "SELECT user_id, value FROM events_s WHERE user_id = 7 AND value > 9.0",
        5,
        None,
    ),
    (
        "SELECT kind, sum(value) AS total, count(*) AS n FROM events \
         GROUP BY kind ORDER BY total DESC",
        9,
        None,
    ),
    (
        "SELECT name, count(*) AS n FROM events JOIN people ON user_id = user_id \
         GROUP BY name ORDER BY n DESC LIMIT 10",
        17,
        Some(10),
    ),
    (
        "SELECT user_id, value FROM events WHERE value > 4.50 ORDER BY value DESC LIMIT 10",
        5,
        Some(10),
    ),
    (
        "SELECT user_id, kind, value FROM events WHERE value > 1.50",
        5,
        None,
    ),
];

/// The names an operator reads from its input (a projection only passes
/// names on, so it reads none).
fn names_read(op: &skadi::flowgraph::ExecOp, into: &mut std::collections::BTreeSet<String>) {
    use skadi::flowgraph::ExecOp;
    match op {
        ExecOp::Scan { .. } | ExecOp::Project { .. } => {}
        ExecOp::Filter { conjuncts } => into.extend(conjuncts.iter().map(|c| c.column.clone())),
        ExecOp::Join {
            left_key,
            right_key,
            ..
        } => into.extend([left_key.clone(), right_key.clone()]),
        ExecOp::Aggregate { group_by, aggs } => {
            into.extend(group_by.iter().cloned());
            into.extend(aggs.iter().map(|a| a.column.clone()));
        }
        ExecOp::Limit { order, .. }
        | ExecOp::Collect {
            order_by: order, ..
        } => into.extend(order.iter().map(|(c, _)| c.clone())),
        ExecOp::Fused(ops) => ops.iter().for_each(|o| names_read(o, into)),
    }
}

/// What the three plan rules buy, as counts that repeat on any host: at
/// parallelism 4 the benchmark's templates lower to 5 / 9 / 17 / 5 / 5
/// tasks (9 / 13 / 25 / 17 / 9 before), nothing is planned as `rel.sort`,
/// a `LIMIT n` sink gathers at most `n` rows per shard, and no task stores
/// a column that neither an operator downstream of it nor the SELECT list
/// names. Without the optimizer the answer is the same from more tasks.
#[test]
fn benchmark_templates_store_only_what_the_answer_reads() {
    use skadi::flowgraph::lower::{lower_graph, LowerConfig};
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::physical::PVertexKind;
    use skadi::frontends::shard::is_hidden;
    use skadi::frontends::sql;
    use skadi::ir::BackendPolicy;
    use skadi::runtime::{job_from_physical, Cluster, TaskId};
    use skadi::GraphExecutor;
    use std::collections::BTreeSet;

    let db = benchmark_db();
    let topo = presets::small_disagg_cluster();
    for (query, tasks, limit) in BENCHMARK_TEMPLATES {
        let parsed = sql::parse(&sql::tokenize(query).unwrap()).unwrap();
        let selected: BTreeSet<String> = parsed
            .select
            .iter()
            .map(|item| match (&item.alias, &item.expr) {
                (Some(alias), _) => alias.clone(),
                (None, sql::Expr::Column(c)) => c.clone(),
                (None, sql::Expr::Agg { func, column }) => format!("{func}({column})"),
            })
            .collect();
        let (mut graph, _sink) = sql::plan_sql(query, &db.catalog()).unwrap();
        optimize_graph(&mut graph);
        let phys = lower_graph(&graph, &LowerConfig::new(4, BackendPolicy::cost_based())).unwrap();
        assert_eq!(phys.len(), tasks, "{query}");
        assert!(
            phys.vertices()
                .iter()
                .all(|v| v.op != skadi::ir::Op::Sort.name()),
            "{query}"
        );

        let job = job_from_physical("sql", &phys, "sql").unwrap();
        let mut cluster = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let executor = GraphExecutor::new(phys.clone(), db.tables().clone());
        let measured = executor.stats();
        cluster.set_executor(Box::new(executor));
        cluster
            .run_with_failures(&job, &FailurePlan::none())
            .unwrap();
        let counts = || {
            let m = measured.borrow();
            (
                m.compressed_outputs,
                m.payload_decodes,
                m.payloads_materialised,
            )
        };
        assert_eq!(counts(), (0, 0, 0), "{query}: bytes made before a read");

        for v in phys.vertices() {
            let payload = cluster.task_payload(TaskId(v.id.0 as u64)).unwrap();
            let frame = if skadi::arrow::compression::is_compressed(payload) {
                skadi::arrow::compression::decompress(payload).unwrap()
            } else {
                payload.to_vec()
            };
            let stored = ipc::decode(frame.into()).unwrap();
            if v.kind == PVertexKind::Sink {
                let want = ipc::encode(&db.query(query).unwrap());
                assert_eq!(ipc::encode(&stored).as_slice(), want.as_slice(), "{query}");
                let sink = measured.borrow().timings.last().unwrap().clone();
                assert_eq!(sink.task, TaskId(v.id.0 as u64));
                if let Some(n) = limit {
                    assert!(sink.rows_in <= n * 4, "{query}: sink read {}", sink.rows_in);
                }
                continue;
            }
            // Everything downstream of this task, and the shuffle keys on
            // the way there.
            let mut read = selected.clone();
            let mut frontier = vec![v.id];
            while let Some(at) = frontier.pop() {
                for e in phys.out_edges(at) {
                    if let skadi::flowgraph::physical::PEdgeKind::Shuffle { key, .. } = &e.kind {
                        read.insert(key.clone());
                    }
                    names_read(phys.vertex(e.to).exec.as_ref().unwrap(), &mut read);
                    frontier.push(e.to);
                }
            }
            for f in stored.schema().fields() {
                assert!(
                    is_hidden(&f.name) || read.contains(&f.name),
                    "{query}: {} shard {} stores {:?}, which nothing above it reads",
                    v.op,
                    v.shard,
                    f.name
                );
            }
        }
        let made = (0, 0, phys.len() as u64);
        assert_eq!(counts(), made, "{query}: each read payload made once");

        let session = |optimizer: bool| {
            let b = Session::builder().topology(topo.clone()).parallelism(4);
            if optimizer { b } else { b.without_optimizer() }.build()
        };
        let fused = session(true).sql_distributed(&db, query).unwrap();
        let unfused = session(false).sql_distributed(&db, query).unwrap();
        assert_eq!(fused.report.physical_vertices, tasks, "{query}");
        assert!(unfused.report.physical_vertices > tasks, "{query}");
        assert_eq!(
            ipc::encode(&unfused.batch).as_slice(),
            ipc::encode(&fused.batch).as_slice(),
            "{query}: optimizer off"
        );
    }
}
