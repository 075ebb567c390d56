//! Adaptive execution equivalence: `SessionBuilder::adaptive(true)` may
//! re-shard keyed consumers, but the collected result must stay
//! **byte-identical** to the static plan — under every placement policy,
//! at every parallelism, and under chaos kill/recover in every
//! fault-tolerance mode. The local `MemDb` engine is the single source of
//! truth all runs are pinned against. Every run, static or adaptive,
//! builds each join shard's table on its smaller side.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;
use skadi::runtime::config::FtMode;
use skadi::store::ec::EcConfig;
use skadi_dcsim::rng::DetRng;
use skadi_dcsim::time::SimTime;

/// Hot-key-skewed fact table: only three distinct join/group keys, so a
/// shuffle lowered to 4 or 8 partitions leaves most buckets empty — the
/// exact shape the adaptive pilot exists to catch.
fn facts(n: usize, seed: u64) -> RecordBatch {
    let mut rng = DetRng::seed(seed);
    let keys: Vec<i64> = (0..n).map(|_| (rng.below(100) % 3) as i64).collect();
    let vals: Vec<Option<f64>> = (0..n)
        .map(|_| (!rng.chance(0.05)).then(|| rng.unit() * 40.0 - 10.0))
        .collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Float64, true),
        ]),
        vec![Array::from_i64(keys), Array::from_opt_f64(vals)],
    )
    .unwrap()
}

/// Tiny dimension table — the *left* side of the join below, so the
/// nominal build side (the fact table) dwarfs the probe side and the
/// join builds on the probe side instead.
fn tiny() -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("label", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![0, 1, 2, 0, 1, 2, 0, 1, 2]),
            Array::from_utf8(&["a0", "b1", "c2", "d0", "e1", "f2", "g0", "h1", "i2"]),
        ],
    )
    .unwrap()
}

fn db() -> MemDb {
    MemDb::new()
        .register("facts", facts(3_000, 7))
        .register("tiny", tiny())
}

/// Joins a 9-row probe side against a 3000-row build side (swap bait)
/// and aggregates on a 3-value key (coalesce bait).
const JOIN_SQL: &str =
    "SELECT label, sum(v) AS s, count(*) AS n FROM tiny JOIN facts ON k = k GROUP BY label ORDER BY s";
const AGG_SQL: &str = "SELECT k, sum(v) AS s, count(*) AS n FROM facts GROUP BY k";

fn session(p: u32, policy: PlacementPolicy, adaptive: bool) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(p)
        .adaptive(adaptive)
        .runtime(RuntimeConfig::skadi_gen2().with_placement(policy))
        .build()
}

#[test]
fn adaptive_is_byte_identical_under_every_policy_and_parallelism() {
    let db = db();
    for sql in [JOIN_SQL, AGG_SQL] {
        let local = ipc::encode(&db.query(sql).unwrap()).to_vec();
        for policy in PlacementPolicy::ALL {
            for p in [1u32, 2, 4, 8] {
                let fixed = session(p, policy, false).sql_distributed(&db, sql).unwrap();
                let adaptive = session(p, policy, true).sql_distributed(&db, sql).unwrap();
                let ctx = format!("{policy} x{p} {sql:?}");
                assert_eq!(
                    ipc::encode(&fixed.batch).to_vec(),
                    local,
                    "{ctx}: static diverged from MemDb"
                );
                assert_eq!(
                    ipc::encode(&adaptive.batch).to_vec(),
                    local,
                    "{ctx}: adaptive diverged from MemDb"
                );
                assert!(fixed.replans.is_empty(), "{ctx}: static run re-planned");
                // Every join shard that got rows holds ~1000 fact rows per
                // key against 3 tiny ones, so exactly those shards build
                // on their probe side; the aggregate has no join.
                let joins = fixed
                    .data_plane
                    .timings
                    .iter()
                    .filter(|t| t.op == "rel.join");
                let fed = joins.filter(|t| t.rows_in > 0).count() as u64;
                assert_eq!(fed > 0, sql == JOIN_SQL, "{ctx}: join shards");
                assert_eq!(
                    fixed.data_plane.build_swaps(),
                    fed,
                    "{ctx}: a static join shard built on its larger side"
                );
            }
        }
    }
}

#[test]
fn adaptive_actually_replans_and_swaps_on_skew() {
    let db = db();
    let run = session(8, PlacementPolicy::DataCentric, true)
        .sql_distributed(&db, JOIN_SQL)
        .unwrap();
    assert!(
        !run.replans.is_empty(),
        "3 distinct keys into 8 shards must coalesce"
    );
    for r in &run.replans {
        assert!(
            r.to_shards < r.from_shards && r.to_shards >= 1,
            "replan must shrink: {r:?}"
        );
    }
    assert!(
        run.data_plane.build_swaps() > 0,
        "3000-row build vs 9-row probe must swap"
    );
    // Re-planning shrinks the schedule: fewer tasks than the static plan.
    let fixed = session(8, PlacementPolicy::DataCentric, false)
        .sql_distributed(&db, JOIN_SQL)
        .unwrap();
    assert!(
        run.report.physical_vertices < fixed.report.physical_vertices,
        "coalesced plan should have fewer tasks ({} vs {})",
        run.report.physical_vertices,
        fixed.report.physical_vertices,
    );
}

#[test]
fn adaptive_is_deterministic() {
    let db = db();
    let a = session(8, PlacementPolicy::LoadAware, true)
        .sql_distributed(&db, JOIN_SQL)
        .unwrap();
    let b = session(8, PlacementPolicy::LoadAware, true)
        .sql_distributed(&db, JOIN_SQL)
        .unwrap();
    assert_eq!(
        ipc::encode(&a.batch).to_vec(),
        ipc::encode(&b.batch).to_vec()
    );
    assert_eq!(a.replans, b.replans);
    assert_eq!(a.data_plane.build_swaps(), b.data_plane.build_swaps());
    assert_eq!(a.report.stats.makespan, b.report.stats.makespan);
}

#[test]
fn adaptive_is_byte_identical_under_chaos_in_every_ft_mode() {
    let db = db();
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
    let local = ipc::encode(&db.query(JOIN_SQL).unwrap()).to_vec();
    for ft in [
        FtMode::Lineage,
        FtMode::Replication(2),
        FtMode::ErasureCoding(EcConfig::RS_4_2),
    ] {
        for adaptive in [false, true] {
            let session = Session::builder()
                .topology(topo.clone())
                .parallelism(4)
                .adaptive(adaptive)
                .runtime(RuntimeConfig::skadi_gen2().with_ft(ft))
                .build();
            let run = session
                .sql_distributed_with_failures(&db, JOIN_SQL, &plan)
                .unwrap();
            assert_eq!(
                ipc::encode(&run.batch).to_vec(),
                local,
                "{ft:?} adaptive={adaptive}: chaos run diverged from MemDb"
            );
        }
    }
}
