//! Property-based tests over the core substrates' invariants.

use proptest::prelude::*;

use skadi::arrow::ipc;
use skadi::arrow::prelude::*;
use skadi::dcsim::engine::EventQueue;
use skadi::dcsim::time::SimTime;
use skadi::flowgraph::partition::{fnv1a, hash_shard};
use skadi::runtime::chaos::{chaos_job, chaos_topology};
use skadi::runtime::{Cluster, FtMode, RuntimeConfig, RuntimeError, TaskId};
use skadi::store::ec::EcConfig;
use skadi::store::kv::LocalStore;
use skadi::store::object::ObjectId;
use skadi::store::policy::EvictionPolicy;
use skadi::store::tier::Tier;
use skadi_bench::marshal;
use skadi_dcsim::topology::NodeId;

/// `SELECT id FROM t WHERE v > threshold` over the first
/// `min(ids, vals)` rows agrees with a plain Rust filter.
fn sql_exec_matches_reference(ids: &[i64], vals: &[f64], threshold: i64) {
    use skadi::arrow::array::{Array, Value};
    use skadi::arrow::batch::RecordBatch;
    use skadi::arrow::datatype::DataType;
    use skadi::arrow::schema::{Field, Schema};
    use skadi::frontends::exec::MemDb;

    let n = ids.len().min(vals.len());
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("v", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(ids[..n].to_vec()),
            Array::from_f64(vals[..n].to_vec()),
        ],
    )
    .unwrap();
    let db = MemDb::new().register("t", batch);
    let out = db
        .query(&format!("SELECT id FROM t WHERE v > {threshold}"))
        .unwrap();

    // Reference: plain Rust filter.
    let expect: Vec<i64> = ids[..n]
        .iter()
        .zip(&vals[..n])
        .filter(|(_, v)| **v > threshold as f64)
        .map(|(i, _)| *i)
        .collect();
    assert_eq!(out.num_rows(), expect.len());
    for (r, want) in expect.iter().enumerate() {
        assert_eq!(out.column(0).value_at(r), Value::I64(*want));
    }
}

/// The case `sql_exec_matches_reference_model` once shrank to: one row
/// that passes the filter.
#[test]
fn sql_exec_matches_reference_on_its_recorded_shrink() {
    sql_exec_matches_reference(&[0], &[0.0], -1);
}

proptest! {
    /// The event queue delivers in non-decreasing time order, FIFO per
    /// instant, for any schedule.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal times");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Any erasure-coding layout either runs a chaos job to completion
    /// or, with no data shards to size a shard by, is refused before its
    /// first event (no parity shards is valid, if unprotected). A layout
    /// with no data shards used to divide by zero at the first stored
    /// output.
    #[test]
    fn erasure_coding_runs_or_refuses_any_layout(
        data in 0usize..7,
        parity in 0usize..4,
        seed in 0u64..64,
    ) {
        let ec = EcConfig { data, parity };
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(FtMode::ErasureCoding(ec))
            .with_debug_invariants(true);
        let job = chaos_job(seed);
        let mut cluster = Cluster::new(&chaos_topology(), cfg);
        match cluster.run(&job) {
            Ok(stats) => {
                prop_assert!(data > 0);
                prop_assert_eq!(stats.finished, job.len() as u64);
            }
            Err(e) => {
                prop_assert_eq!(data, 0);
                prop_assert!(e.to_string().contains("at least one data shard"));
                prop_assert_eq!(e, RuntimeError::NoDataShards(ec));
                prop_assert!(cluster.task_started_at(TaskId(0)).is_none());
            }
        }
    }

    /// IPC round-trips arbitrary typed batches.
    #[test]
    fn ipc_round_trips(
        ints in prop::collection::vec(prop::option::of(any::<i64>()), 0..100),
        strings in prop::collection::vec(prop::option::of("[a-z0-9]{0,12}"), 0..100),
    ) {
        let n = ints.len().min(strings.len());
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
        ]);
        let batch = RecordBatch::try_new(
            schema,
            vec![
                Array::from_opt_i64(ints[..n].to_vec()),
                Array::from_opt_utf8(strings[..n].iter().map(|o| o.as_deref())),
            ],
        ).unwrap();
        let back = ipc::decode(ipc::encode(&batch)).unwrap();
        prop_assert_eq!(&back, &batch);
        // The marshalling baseline must agree too.
        let back2 = marshal::from_rows(&marshal::to_rows(&batch)).unwrap();
        prop_assert_eq!(&back2, &batch);
    }

    /// Hash partitioning is stable and total: same key -> same shard;
    /// every row lands somewhere valid.
    #[test]
    fn partitioner_stable_and_total(
        keys in prop::collection::vec("[a-z]{1,8}", 1..100),
        parts in 1u32..16,
    ) {
        for k in &keys {
            let a = hash_shard(k.as_bytes(), parts);
            prop_assert_eq!(a, hash_shard(k.as_bytes(), parts));
            prop_assert_eq!(a as u64, fnv1a(k.as_bytes()) % parts as u64);
            prop_assert!(a < parts);
        }
    }

    /// The local store never exceeds capacity and never loses bytes:
    /// used == sum of resident object sizes after any operation sequence.
    #[test]
    fn store_capacity_invariant(ops in prop::collection::vec((0u64..20, 1u64..40), 1..100)) {
        let mut store = LocalStore::new(NodeId(0), Tier::HostDram, 200, EvictionPolicy::Lru);
        let mut t = 0u64;
        for (id, size) in ops {
            t += 1;
            let _ = store.put(ObjectId(id), size, SimTime::from_micros(t));
            prop_assert!(store.used() <= store.capacity());
            let expected: u64 = store.metas().iter().map(|m| m.size).sum();
            prop_assert_eq!(store.used(), expected);
        }
    }

    /// The caching layer is the one record of where an object lives, so
    /// its index must be exactly what its stores hold, after any sequence
    /// of puts, replications, promotions, deletes and node failures on
    /// stores small enough that spills cascade to the blade and durable
    /// storage: `locations(id)` lists exactly the nodes whose store holds
    /// `id`, and each store holds as many objects as list its node — the
    /// identity a failover re-report reads instead of a second table.
    #[test]
    fn caching_layer_index_matches_its_stores(
        gen2 in any::<bool>(),
        ops in prop::collection::vec((0u8..5, 0u64..12, 0usize..64, 1u64..48), 1..120),
    ) {
        use skadi::dcsim::topology::{
            AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, ServerSpec, TopologyBuilder,
        };
        use skadi::store::placement::CachingLayer;
        use skadi::store::spill::SpillPolicy;

        let server = ServerSpec { dram_bytes: 64, ..ServerSpec::default() };
        let topo = TopologyBuilder::new()
            .rack(|r| {
                r.servers(2, server);
                r.accel_device(AccelKind::Gpu, AccelSpec { hbm_bytes: 48, ..AccelSpec::default() });
                r.memory_blade(MemoryBladeSpec { dram_bytes: 96, ..MemoryBladeSpec::default() });
            })
            .rack(|r| {
                r.servers(2, server);
            })
            .durable_storage(DurableSpec::default())
            .build();
        let policy = SpillPolicy { use_disagg_memory: gen2 };
        let mut layer = CachingLayer::new(&topo, EvictionPolicy::Lru, policy);
        let nodes: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        let ids: Vec<ObjectId> = (0..12).map(ObjectId).collect();
        for (step, (op, id, at, size)) in ops.into_iter().enumerate() {
            let (id, node) = (ObjectId(id), nodes[at % nodes.len()]);
            let now = SimTime::from_micros(step as u64);
            // Refused operations (full stores, unknown objects) must leave
            // the two in step too, so their errors are not unwrapped.
            match op {
                0 => { let _ = layer.put(id, size, node, now); }
                1 => { let _ = layer.replicate(id, 1 + at % 2, &nodes, now); }
                2 => { let _ = layer.get_promote(id, node, now); }
                3 => { let _ = layer.delete(id); }
                _ => { layer.fail_node(node); }
            }
            for &o in &ids {
                let mut listed = layer.locations(o).to_vec();
                listed.sort();
                let holding: Vec<NodeId> =
                    nodes.iter().copied().filter(|n| layer.store(*n).contains(o)).collect();
                prop_assert_eq!(listed, holding, "step {}: holders of {}", step, o);
            }
            for &n in &nodes {
                let listing = ids.iter().filter(|o| layer.locations(**o).contains(&n)).count();
                prop_assert_eq!(layer.store(n).len(), listing, "step {}: objects on node {}", step, n.0);
            }
        }
    }

    /// SQL round-trip: any query we can render from a template parses and
    /// plans without panicking.
    #[test]
    fn sql_template_never_panics(
        val in 0i64..1000,
        limit in 1i64..100,
        desc in any::<bool>(),
        with_group in any::<bool>(),
    ) {
        use skadi::frontends::catalog::Catalog;
        use skadi::frontends::sql::plan_sql;
        let agg = if with_group { "kind, sum(value)" } else { "user_id" };
        let group = if with_group { "GROUP BY kind" } else { "" };
        let dir = if desc { "DESC" } else { "ASC" };
        let order_col = if with_group { "kind" } else { "user_id" };
        let q = format!(
            "SELECT {agg} FROM events WHERE value > {val} {group} ORDER BY {order_col} {dir} LIMIT {limit}"
        );
        let (g, _) = plan_sql(&q, &Catalog::demo()).unwrap();
        g.validate().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end determinism: any seed produces identical repeat runs.
    #[test]
    fn runs_are_deterministic_for_any_seed(seed in 0u64..1000) {
        use skadi::prelude::*;
        use skadi::runtime::task::TaskSpec;
        use skadi::runtime::{Cluster, Job, TaskId};
        let topo = presets::small_disagg_cluster();
        let mut cfg = RuntimeConfig::skadi_gen2();
        cfg.seed = seed;
        let job = Job::new(
            "p",
            vec![
                TaskSpec::new(0, 500.0, 1 << 16),
                TaskSpec::new(1, 500.0, 1 << 16).after(TaskId(0), 1 << 16),
                TaskSpec::new(2, 500.0, 1 << 16).after(TaskId(0), 1 << 16),
            ],
        ).unwrap();
        let a = Cluster::new(&topo, cfg.clone()).run(&job).unwrap();
        let b = Cluster::new(&topo, cfg).run(&job).unwrap();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.net, b.net);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chain fusion preserves the op sequence: a random per-row chain
    /// behind a scan, a join or an aggregate fuses into one vertex whose
    /// op list is the chain in order, and whose descriptor is
    /// `ExecOp::Fused` over the same ops in the same order.
    #[test]
    fn ir_fusion_preserves_chain(head in 0u8..3, chain in prop::collection::vec(0u8..3, 1..8)) {
        use skadi::flowgraph::{optimize_graph, ExecOp, FlowGraph};
        use skadi::ir::Op;

        let mut g = FlowGraph::new();
        let (head_op, head_exec) = match head {
            0 => (Op::Scan, ExecOp::Scan { table: "t".into() }),
            1 => (Op::Join, ExecOp::Join { left_key: "k".into(), right_key: "k".into(), right_rows: 1, columns: vec![] }),
            _ => (Op::Aggregate, ExecOp::Aggregate { group_by: vec!["k".into()], aggs: vec![] }),
        };
        let mut at = if head_op == Op::Scan {
            let scan = g.add_source("t", 100, 800);
            g.set_exec(scan, head_exec.clone());
            scan
        } else {
            let v = g.add_exec(head_exec.clone(), 100, 800);
            let inputs = if head_op == Op::Join { 2 } else { 1 };
            for port in 0..inputs {
                let input = g.add_source(&format!("in{port}"), 100, 800);
                g.connect_keyed_port(input, v, "k", port).unwrap();
            }
            v
        };
        let (mut want_ops, mut want_execs) = (vec![head_op], vec![head_exec]);
        for op in &chain {
            let (op, exec) = match op {
                0 => (Op::Filter, ExecOp::Filter { conjuncts: vec![] }),
                1 => (Op::Project, ExecOp::Project { columns: vec!["k".into()] }),
                _ => (Op::Limit, ExecOp::Limit { n: 3, order: None }),
            };
            let v = g.add_exec(exec.clone(), 100, 800);
            g.connect(at, v).unwrap();
            want_ops.push(op);
            want_execs.push(exec);
            at = v;
        }
        let sink = g.add_sink("out");
        g.connect(at, sink).unwrap();

        let report = optimize_graph(&mut g);
        prop_assert_eq!(report.fused, chain.len());
        let fused: Vec<_> = g.vertices().iter().filter(|v| !v.body.ops().is_empty()).collect();
        prop_assert_eq!(fused.len(), 1);
        prop_assert_eq!(fused[0].body.ops(), &want_ops[..]);
        prop_assert_eq!(fused[0].exec.clone(), Some(ExecOp::Fused(want_execs)));
        g.validate().unwrap();
    }

    /// Physical lowering always produces the requested shard counts and
    /// an acyclic graph, for random linear pipelines.
    #[test]
    fn lowering_shard_counts_hold(
        par in 1u32..12,
        stages in 1usize..6,
        keyed in prop::collection::vec(any::<bool>(), 6),
    ) {
        use skadi::flowgraph::{lower_graph, FlowGraph, LowerConfig};
        use skadi::ir::BackendPolicy;

        let mut g = FlowGraph::new();
        let mut prev = g.add_source("in", 1 << 16, 1 << 20);
        let mut vertices = vec![prev];
        for keyed_edge in keyed.iter().take(stages) {
            let v = g.add_ir_op(skadi::ir::Op::Filter, 1 << 16, 1 << 20);
            if *keyed_edge {
                g.connect_keyed(prev, v, "k").unwrap();
            } else {
                g.connect(prev, v).unwrap();
            }
            vertices.push(v);
            prev = v;
        }
        let sink = g.add_sink("out");
        g.connect(prev, sink).unwrap();
        let phys = lower_graph(&g, &LowerConfig::new(par, BackendPolicy::cost_based())).unwrap();
        for v in &vertices {
            prop_assert_eq!(phys.shards_of(*v).len(), par as usize);
        }
        prop_assert_eq!(phys.shards_of(sink).len(), 1);
        phys.topo_order().unwrap();
    }

    /// Any small random DAG completes on the cluster with every task
    /// finished, and the makespan is at least the critical-path compute.
    #[test]
    fn random_dags_complete(
        n in 2u64..12,
        edges in prop::collection::vec((0u64..12, 1u64..12), 0..20),
        compute_us in 10.0f64..5000.0,
    ) {
        use skadi::prelude::*;
        use skadi::runtime::task::TaskSpec;
        use skadi::runtime::{Cluster, Job, TaskId};

        let mut tasks: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec::new(i, compute_us, 1 << 12))
            .collect();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            // Forward edges only: guarantees a DAG.
            if a < b {
                tasks[b as usize].inputs.insert(TaskId(a), 1 << 12);
            }
        }
        let job = Job::new("random", tasks).unwrap();
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        prop_assert_eq!(stats.finished, n);
        prop_assert_eq!(stats.abandoned, 0);
        prop_assert!(
            stats.makespan.as_secs_f64() * 1e6 >= compute_us,
            "makespan {} < one task {}us",
            stats.makespan,
            compute_us
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SQL executor agrees with a naive row-at-a-time reference model
    /// on filter + projection over random data.
    #[test]
    fn sql_exec_matches_reference_model(
        ids in prop::collection::vec(0i64..50, 1..60),
        vals in prop::collection::vec(-100.0f64..100.0, 1..60),
        threshold in -100i64..100,
    ) {
        sql_exec_matches_reference(&ids, &vals, threshold);
    }

    /// Grouped sums agree with a reference accumulation.
    #[test]
    fn sql_group_sum_matches_reference(
        keys in prop::collection::vec(0i64..5, 1..60),
        vals in prop::collection::vec(-10.0f64..10.0, 1..60),
    ) {
        use skadi::arrow::array::{Array, Value};
        use skadi::arrow::batch::RecordBatch;
        use skadi::arrow::datatype::DataType;
        use skadi::arrow::schema::{Field, Schema};
        use skadi::frontends::exec::MemDb;
        use std::collections::BTreeMap;

        let n = keys.len().min(vals.len());
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Float64, false),
            ]),
            vec![
                Array::from_i64(keys[..n].to_vec()),
                Array::from_f64(vals[..n].to_vec()),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("t", batch);
        let out = db
            .query("SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY k")
            .unwrap();

        let mut expect: BTreeMap<i64, f64> = BTreeMap::new();
        for (k, v) in keys[..n].iter().zip(&vals[..n]) {
            *expect.entry(*k).or_insert(0.0) += v;
        }
        prop_assert_eq!(out.num_rows(), expect.len());
        for (r, (k, s)) in expect.iter().enumerate() {
            prop_assert_eq!(out.column_by_name("k").unwrap().value_at(r), Value::I64(*k));
            match out.column_by_name("s").unwrap().value_at(r) {
                Value::F64(got) => prop_assert!((got - s).abs() < 1e-6),
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }
}

/// Deterministic pseudo-facts for a `(seed, node)` pair — varied enough
/// that locality, load, and slot counts all differ across nodes.
fn synthetic_facts(seed: u64) -> impl Fn(NodeId) -> skadi::runtime::NodeFacts {
    move |node: NodeId| {
        let h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1000_0000_01B3u64.wrapping_mul(node.0 as u64 + 1));
        skadi::runtime::NodeFacts {
            local_input_bytes: (h % 64) << 20,
            load: (h >> 16) as u32 % 16,
            free_slots: (h >> 32) as u32 % 4,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every placement policy picks a member of `eligible`, and two
    /// placers driven in lockstep over the same facts pick identically —
    /// placement is a pure function of (eligible, facts, cursor), never
    /// of wall clock or ambient randomness.
    #[test]
    fn placement_picks_eligible_and_is_deterministic(
        n_nodes in 1u32..40,
        fact_seeds in prop::collection::vec(any::<u64>(), 1..25),
    ) {
        use skadi::runtime::{Placer, PlacementPolicy};
        let eligible: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
        for policy in PlacementPolicy::ALL {
            let mut a = Placer::new(policy);
            let mut b = Placer::new(policy);
            for &seed in &fact_seeds {
                let pick = a.place(&eligible, synthetic_facts(seed)).unwrap();
                prop_assert!(
                    eligible.contains(&pick),
                    "{policy}: picked {pick:?} outside the eligible set"
                );
                prop_assert_eq!(
                    pick,
                    b.place(&eligible, synthetic_facts(seed)).unwrap(),
                    "{} placers diverged on identical inputs", policy
                );
            }
            prop_assert!(a.place(&[], synthetic_facts(0)).is_none());
        }
    }

    /// Round-robin never double-places: over one full rotation with all
    /// nodes eligible, every node is used exactly once. (That an election
    /// leaves the cursor where the dead scheduler left it is
    /// `failover_resumes_the_placement_cursor` in the cluster's tests.)
    #[test]
    fn round_robin_rotation_is_exact(n_nodes in 1u32..24, start in 0u32..24) {
        use skadi::runtime::{NodeFacts, Placer, PlacementPolicy};
        let eligible: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
        let idle = |_: NodeId| NodeFacts {
            local_input_bytes: 0,
            load: 0,
            free_slots: 1,
        };
        let mut p = Placer::new(PlacementPolicy::RoundRobin);
        // Start the rotation anywhere.
        for _ in 0..start {
            p.place(&eligible, idle);
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n_nodes {
            let pick = p.place(&eligible, idle).unwrap();
            prop_assert!(
                seen.insert(pick),
                "round-robin double-placed {pick:?} within one rotation"
            );
        }
        prop_assert_eq!(seen.len(), n_nodes as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any layered DAG, traced, yields a well-formed span tree, and two
    /// identical runs export byte-identical Chrome JSON.
    #[test]
    fn traced_runs_are_wellformed_and_byte_reproducible(
        widths in prop::collection::vec(1u64..4, 1..4),
        compute in 10.0f64..500.0,
        bytes_pow in 8u32..18,
        gen2 in any::<bool>(),
    ) {
        use skadi::dcsim::topology::presets;
        use skadi::runtime::task::TaskSpec;
        use skadi::runtime::{Cluster, Job, RuntimeConfig};

        // Layered DAG: each task consumes every task of the previous
        // layer (shuffle-like), so resolution, tiering, and scheduling
        // all fire.
        let bytes = 1u64 << bytes_pow;
        let mut tasks = Vec::new();
        let mut prev = Vec::new();
        let mut id = 0u64;
        for w in &widths {
            let mut layer = Vec::new();
            for _ in 0..*w {
                let mut s = TaskSpec::new(id, compute, bytes);
                for p in &prev {
                    s = s.after(*p, bytes);
                }
                layer.push(s.id);
                tasks.push(s);
                id += 1;
            }
            prev = layer;
        }
        let job = Job::new("layered", tasks).unwrap();
        let topo = presets::small_disagg_cluster();
        let cfg = if gen2 {
            RuntimeConfig::skadi_gen2()
        } else {
            RuntimeConfig::skadi_gen1()
        };
        let run = || {
            let mut c = Cluster::new(&topo, cfg.clone().with_tracing(true));
            c.run(&job).unwrap()
        };
        let a = run();
        let b = run();
        prop_assert!(a.trace.validate().is_ok(), "{:?}", a.trace.validate());
        prop_assert_eq!(a.trace.to_chrome_json(), b.trace.to_chrome_json());
        // Every finished task has its umbrella span.
        use skadi::dcsim::span::Category;
        prop_assert_eq!(a.trace.count_category(Category::Task) as u64, a.finished);
    }
}

// ---------------------------------------------------------------------
// SKLZ: the tree's codec against the reference codec it replaced
// ---------------------------------------------------------------------

use skadi::arrow::compression::{compress, decompress, maybe_compress};
use skadi::dcsim::rng::DetRng;
use skadi_bench::sklz_ref;

/// One format, two codecs: each decodes the other's frames, and
/// `maybe_compress` never hands back more than it was given.
fn assert_codecs_agree(raw: &[u8]) {
    let n = raw.len();
    let frame = compress(raw);
    assert_eq!(decompress(&frame).unwrap(), raw, "{n} bytes");
    assert_eq!(
        sklz_ref::decompress(&frame).unwrap(),
        raw,
        "reference decoder, {n} bytes"
    );
    assert_eq!(
        decompress(&sklz_ref::compress(raw)).unwrap(),
        raw,
        "reference frame, {n} bytes"
    );
    let kept = maybe_compress(raw);
    if kept.len() < n {
        assert_eq!(decompress(&kept).unwrap(), raw, "{n} bytes");
    } else {
        assert_eq!(kept, raw, "maybe_compress grew or changed {n} bytes");
    }
}

fn sklz_noise(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::seed(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The IPC frame of `rows` rows shaped like a shard payload: an ascending
/// `__rid`, a hot-key `user_id` with nulls, a dictionary-encoded `kind`
/// and a uniform `value` with nulls. Zero rows is the empty batch.
fn sklz_frame(rows: usize, seed: u64) -> Vec<u8> {
    const KINDS: [&str; 8] = [
        "click", "view", "purchase", "scroll", "hover", "login", "logout", "share",
    ];
    let mut rng = DetRng::seed(seed);
    let mut ids = Vec::with_capacity(rows);
    let mut kinds = Vec::with_capacity(rows);
    let mut values = Vec::with_capacity(rows);
    for _ in 0..rows {
        let users = if rng.chance(0.5) { 16 } else { 1_024 };
        ids.push((!rng.chance(0.03)).then(|| rng.below(users) as i64));
        kinds.push(*rng.pick(&KINDS));
        values.push((!rng.chance(0.05)).then(|| rng.unit() * 10.0));
    }
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("__rid", DataType::Int64, false),
            Field::new("user_id", DataType::Int64, true),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, true),
        ]),
        vec![
            Array::from_i64((0..rows as i64).collect()),
            Array::from_opt_i64(ids),
            Array::from_utf8(&kinds),
            Array::from_opt_f64(values),
        ],
    )
    .unwrap()
    .dict_encoded();
    ipc::encode(&batch).to_vec()
}

/// Frames from the empty batch to ~200 KiB, so the encoder's table takes
/// every size it has (one slot per input byte, 2^8 to 2^14).
#[test]
fn sklz_codecs_agree_on_ipc_frames_of_every_table_size() {
    let mut widths = std::collections::BTreeSet::new();
    for (seed, rows) in [0, 1, 2, 5, 12, 25, 50, 100, 200, 400, 900, 7_000]
        .into_iter()
        .enumerate()
    {
        let frame = sklz_frame(rows, seed as u64);
        widths.insert((usize::BITS - frame.len().leading_zeros()).clamp(8, 14));
        assert_codecs_agree(&frame);
    }
    assert_eq!(
        widths.into_iter().collect::<Vec<_>>(),
        [8, 9, 10, 11, 12, 13, 14]
    );
    assert!(sklz_frame(7_000, 11).len() > 190 << 10);
}

/// A match may reach back 65,535 bytes and not one further: the same
/// kilobyte twice, that far apart, is a match; one byte further it is
/// literals. The noise between them also walks the miss-skip up to a
/// stride that steps past the end of the input.
#[test]
fn sklz_matches_reach_exactly_the_window() {
    let unit = sklz_noise(1_024, 1);
    let packed: Vec<usize> = [65_535usize, 65_536]
        .into_iter()
        .map(|gap| {
            let mut raw = unit.clone();
            raw.extend(sklz_noise(gap - unit.len(), 2));
            raw.extend_from_slice(&unit);
            assert_codecs_agree(&raw);
            assert_codecs_agree(&raw[..raw.len() - 1_000]);
            compress(&raw).len()
        })
        .collect();
    assert!(packed[1] > 65_536 + unit.len(), "offset 65,536 was encoded");
    assert!(
        packed[0] + 1_000 < packed[1],
        "offset 65,535 was not: {packed:?}"
    );
}

/// Inputs too short to match, and runs whose matches overlap their own
/// output (offset < length) at every short period.
#[test]
fn sklz_codecs_agree_on_short_inputs_and_overlapping_runs() {
    for len in 0..=12usize {
        assert_codecs_agree(&vec![7u8; len]);
        assert_codecs_agree(&(0..len as u8).collect::<Vec<_>>());
    }
    for period in 1..=8usize {
        for len in [period, 13, 64, 300, 5_000] {
            let raw: Vec<u8> = (0..len).map(|i| (i % period) as u8).collect();
            assert_codecs_agree(&raw);
        }
    }
}

/// Chaos twins, the cold-executor gate and lineage re-execution compare
/// stored payloads byte for byte: no state may survive a `compress` call.
#[test]
fn sklz_compress_is_a_pure_function_of_its_input() {
    let frames: Vec<Vec<u8>> = [0usize, 9, 300, 4_000]
        .into_iter()
        .map(|rows| sklz_frame(rows, 5))
        .collect();
    let first: Vec<Vec<u8>> = frames.iter().map(|f| compress(f)).collect();
    // Again after inputs of every other table size, in another order…
    for (frame, want) in frames.iter().zip(&first).rev() {
        assert_eq!(&compress(frame), want);
    }
    // …and on a thread that has compressed nothing yet.
    let fresh = std::thread::scope(|s| {
        s.spawn(|| frames.iter().map(|f| compress(f)).collect::<Vec<_>>())
            .join()
            .unwrap()
    });
    assert_eq!(fresh, first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sklz_codecs_agree_on_arbitrary_bytes(raw in prop::collection::vec(any::<u8>(), 0..4096)) {
        assert_codecs_agree(&raw);
    }

    /// Low-entropy bytes: matches at every distance and length.
    #[test]
    fn sklz_codecs_agree_on_repetitive_bytes(
        raw in prop::collection::vec(0u8..4, 0..4096),
    ) {
        assert_codecs_agree(&raw);
    }

    #[test]
    fn sklz_codecs_agree_on_generated_ipc_frames(rows in 0usize..1_500, seed in any::<u64>()) {
        assert_codecs_agree(&sklz_frame(rows, seed));
    }
}
