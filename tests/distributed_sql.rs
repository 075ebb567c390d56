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

/// The staged data plane, gated on counts that repeat exactly on any
/// host: at parallelism 4 every golden query decodes no more payloads
/// than it has producers and hash-partitions each shuffle producer's
/// output once (it used to be once per consumer shard). A second, cold
/// executor — no kept batches, fed the first one's stored payloads
/// through plain `TaskExecutor::execute` — decodes every producer from
/// its bytes and must store the very same bytes, so what the first run
/// handed over by reference was what the bytes hold.
#[test]
fn every_output_is_staged_once_and_a_cold_executor_agrees() {
    use skadi::flowgraph::lower::{lower_graph, LowerConfig};
    use skadi::flowgraph::optimize::optimize_graph;
    use skadi::flowgraph::physical::PEdgeKind;
    use skadi::frontends::sql;
    use skadi::ir::BackendPolicy;
    use skadi::runtime::{job_from_physical, Cluster, TaskExecutor, TaskId};
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
            let consumed: BTreeSet<u32> = phys.edges().iter().map(|e| e.from.0).collect();
            let shuffled: BTreeSet<u32> = phys
                .edges()
                .iter()
                .filter(|e| matches!(e.kind, PEdgeKind::Shuffle { .. }))
                .map(|e| e.from.0)
                .collect();

            let mut cluster = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
            let warm = GraphExecutor::new(phys.clone(), db.tables().clone());
            let measured = warm.stats();
            cluster.set_executor(Box::new(warm));
            cluster
                .run_with_failures(&job, &FailurePlan::none())
                .unwrap();
            let warm = measured.borrow();
            assert!(
                warm.payload_decodes <= consumed.len() as u64,
                "{query}: {} decodes for {} producers",
                warm.payload_decodes,
                consumed.len()
            );
            assert_eq!(warm.partition_passes, shuffled.len() as u64, "{query}");

            let stored: Vec<&[u8]> = phys
                .vertices()
                .iter()
                .map(|v| cluster.task_payload(TaskId(v.id.0 as u64)).unwrap())
                .collect();
            let mut cold = GraphExecutor::new(phys.clone(), db.tables().clone());
            let measured = cold.stats();
            for v in phys.topo_order().unwrap() {
                let producers: BTreeSet<u32> = phys.in_edges(v).iter().map(|e| e.from.0).collect();
                let inputs: Vec<(TaskId, &[u8])> = producers
                    .iter()
                    .map(|&p| (TaskId(p as u64), stored[p as usize]))
                    .collect();
                let out = cold.execute(TaskId(v.0 as u64), &inputs).unwrap();
                assert_eq!(out, stored[v.0 as usize], "{query}: task {v}");
            }
            let cold = measured.borrow();
            assert_eq!(cold.payload_decodes, consumed.len() as u64, "{query}");
            assert_eq!(cold.partition_passes, shuffled.len() as u64, "{query}");
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

/// With shuffle compression on (the default), a distributed run must
/// report strictly fewer measured output bytes than the same run with
/// compression off — and identical result bytes.
#[test]
fn shuffle_compression_shrinks_measured_output_bytes() {
    let db = big_db();
    let sql = "SELECT label, sum(v) AS s FROM events JOIN dims ON k = k GROUP BY label ORDER BY s";
    let run_with = |compress: bool| {
        let session = Session::builder()
            .topology(presets::small_disagg_cluster())
            .parallelism(4)
            .shuffle_compression(compress)
            .build();
        session.sql_distributed(&db, sql).unwrap()
    };
    let off = run_with(false);
    let on = run_with(true);
    assert_identical(&db, sql, &on, "compression on");
    assert_identical(&db, sql, &off, "compression off");
    let total = |run: &skadi::DistributedRun| -> u64 {
        run.report.stats.measured_output_bytes.values().sum()
    };
    assert!(
        total(&on) < total(&off),
        "compression on shipped {} bytes, off shipped {}",
        total(&on),
        total(&off)
    );
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

    // And the batch-level shuffle agrees: partition_by_key sends row r to
    // exactly the shard the partitioner computes for r's key bytes.
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
    for (row, key) in keys.iter().enumerate() {
        let expect = Partitioner::Hash.assign(key, row as u64, parts as u32) as usize;
        for (s, shard) in shards.iter().enumerate() {
            let found = (0..shard.num_rows()).any(|r| {
                shard.column(1).value_at(r) == skadi::arrow::array::Value::I64(row as i64)
            });
            assert_eq!(
                found,
                s == expect,
                "row {row} should live on shard {expect}, checked shard {s}"
            );
        }
    }
}
