//! Property-based tests over the core substrates' invariants.

use proptest::prelude::*;

use skadi::arrow::prelude::*;
use skadi::arrow::{ipc, marshal};
use skadi::dcsim::engine::EventQueue;
use skadi::dcsim::time::SimTime;
use skadi::flowgraph::partition::Partitioner;
use skadi::ownership::table::OwnershipTable;
use skadi::store::ec::{decode, encode, EcConfig};
use skadi::store::kv::LocalStore;
use skadi::store::object::ObjectId;
use skadi::store::policy::EvictionPolicy;
use skadi::store::tier::Tier;
use skadi_dcsim::topology::NodeId;

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

    /// Reed-Solomon round-trips under any erasure pattern that leaves at
    /// least k shards.
    #[test]
    fn ec_round_trips_any_recoverable_erasure(
        payload in prop::collection::vec(any::<u8>(), 0..2048),
        erasures in prop::collection::vec(0usize..6, 0..2),
    ) {
        let cfg = EcConfig::RS_4_2;
        let enc = encode(&payload, cfg).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            enc.shards.iter().cloned().map(Some).collect();
        for e in &erasures {
            shards[*e] = None;
        }
        let got = decode(&shards, enc.original_len, cfg).unwrap();
        prop_assert_eq!(got, payload);
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
        let p = Partitioner::Hash;
        for (i, k) in keys.iter().enumerate() {
            let a = p.assign(k.as_bytes(), i as u64, parts);
            let b = p.assign(k.as_bytes(), (i + 7) as u64, parts);
            prop_assert_eq!(a, b);
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
            let _ = store.put(ObjectId(id), size, None, SimTime::from_micros(t));
            prop_assert!(store.used() <= store.capacity());
            let expected: u64 = store.metas().iter().map(|m| m.size).sum();
            prop_assert_eq!(store.used(), expected);
        }
    }

    /// Ownership refcounts never go negative and the entry disappears
    /// exactly when the count hits zero.
    #[test]
    fn ownership_refcount_invariant(increfs in 0u32..20) {
        let mut table = OwnershipTable::new();
        let id = ObjectId(1);
        table.register(id, NodeId(0)).unwrap();
        for _ in 0..increfs {
            table.incref(id).unwrap();
        }
        // Registration grants one reference.
        for i in 0..increfs + 1 {
            let freed = table.decref(id).unwrap();
            prop_assert_eq!(freed, i == increfs);
        }
        prop_assert!(table.get(id).is_err());
        prop_assert!(table.decref(id).is_err());
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

    /// IR fusion preserves the op sequence: the fused kernel's body,
    /// flattened, is exactly the original chain, and the module stays
    /// verifiable with the same output value count.
    #[test]
    fn ir_fusion_preserves_chain(ops in prop::collection::vec(0u8..3, 1..8)) {
        use skadi::ir::dialect::{rel, tensor};
        use skadi::ir::{Module, PassManager};
        use skadi::ir::types::{frame_ty, ScalarType};

        let mut m = Module::new();
        let mut v = rel::scan(&mut m, "t", frame_ty(&[("a", ScalarType::I64)]));
        let mut expect: Vec<String> = Vec::new();
        for op in &ops {
            v = match op {
                0 => {
                    expect.push("rel.filter".into());
                    rel::filter(&mut m, v, "a > 0")
                }
                1 => {
                    expect.push("rel.project".into());
                    rel::project(&mut m, v, &["a"])
                }
                _ => {
                    expect.push("tensor.map".into());
                    tensor::map(&mut m, v, "f")
                }
            };
        }
        m.mark_output(v);
        let before_outputs = m.outputs().len();
        PassManager::standard().run(&mut m).unwrap();
        m.verify().unwrap();
        prop_assert_eq!(m.outputs().len(), before_outputs);
        // Everything per-row fused into one kernel (chains of length >= 2).
        if ops.len() >= 2 {
            let fused: Vec<_> = m
                .ops()
                .iter()
                .filter(|o| o.name == "kernel.fused")
                .collect();
            prop_assert_eq!(fused.len(), 1);
            let body = fused[0]
                .attr("body")
                .and_then(skadi::ir::Attr::as_str_list)
                .unwrap()
                .to_vec();
            prop_assert_eq!(body, expect);
        }
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
            let v = g.add_ir_op("rel.filter", 1 << 16, 1 << 20);
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
        prop_assert_eq!(out.num_rows(), expect.len());
        for (r, want) in expect.iter().enumerate() {
            prop_assert_eq!(out.column(0).value_at(r), Value::I64(*want));
        }
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

    /// Scheduler failover must not disturb the rotation: a placer that
    /// rebuilds mid-sequence ([`Placer::rebuild_for_failover`], the
    /// newly elected scheduler's path) produces exactly the placements
    /// of one that never failed — under every policy, at any failover
    /// point.
    #[test]
    fn placement_cursor_survives_failover(
        n_nodes in 1u32..16,
        steps in 2usize..40,
        fail_at in 0usize..40,
        seed in any::<u64>(),
    ) {
        use skadi::runtime::{Placer, PlacementPolicy};
        let eligible: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
        for policy in PlacementPolicy::ALL {
            let mut steady = Placer::new(policy);
            let mut failing = Placer::new(policy);
            for i in 0..steps {
                if i == fail_at % steps {
                    failing.rebuild_for_failover();
                }
                let f = seed.wrapping_add(i as u64);
                prop_assert_eq!(
                    steady.place(&eligible, synthetic_facts(f)).unwrap(),
                    failing.place(&eligible, synthetic_facts(f)).unwrap(),
                    "{} diverged after failover at step {}", policy, i
                );
            }
        }
    }

    /// Round-robin never double-places: over one full rotation with all
    /// nodes eligible, every node is used exactly once — even when the
    /// scheduler fails over mid-rotation.
    #[test]
    fn round_robin_rotation_is_exact_despite_failover(
        n_nodes in 1u32..24,
        fail_at in 0u32..24,
    ) {
        use skadi::runtime::{NodeFacts, Placer, PlacementPolicy};
        let eligible: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
        let idle = |_: NodeId| NodeFacts {
            local_input_bytes: 0,
            load: 0,
            free_slots: 1,
        };
        let mut p = Placer::new(PlacementPolicy::RoundRobin);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n_nodes {
            if i == fail_at % n_nodes {
                p.rebuild_for_failover();
            }
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
