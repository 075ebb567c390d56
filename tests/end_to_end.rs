//! Cross-crate integration tests: declarations in, measured execution
//! out, across every tier of the stack.

use skadi::prelude::*;
use skadi_bench::fixtures::{fig1_pipeline, MapReduceJob, TrainingPipeline};

fn session() -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .build()
}

#[test]
fn sql_through_the_whole_stack() {
    let report = session()
        .sql(
            "SELECT country, sum(value) AS total FROM events \
             JOIN users ON user_id = user_id \
             WHERE value > 0.5 GROUP BY country ORDER BY total DESC LIMIT 10",
        )
        .expect("query runs");
    assert!(report.stats.finished > 0);
    assert_eq!(report.stats.abandoned, 0);
    // A join + aggregate + sort query must shuffle.
    assert!(report.physical_edges > report.physical_vertices);
}

#[test]
fn sql_and_the_mapreduce_and_ml_fixture_graphs_share_one_runtime() {
    let s = session();
    let sql = s.sql("SELECT user_id FROM events").unwrap();
    let (mr, _) = MapReduceJob::new("logs", 1 << 18, 16 << 20, "key")
        .to_flowgraph()
        .unwrap();
    let mr = s.run_graph("mapreduce", mr, "dp").unwrap();
    let (ml, _) = TrainingPipeline::new("data", 1 << 12, 1 << 20, 1 << 18)
        .steps(2)
        .to_flowgraph()
        .unwrap();
    let ml = s.run_graph("train", ml, "ml").unwrap();
    for r in [&sql, &mr, &ml] {
        assert!(r.stats.finished > 0, "{}", r.name);
        assert_eq!(r.stats.abandoned, 0, "{}", r.name);
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = session()
        .sql("SELECT kind, sum(value) FROM events GROUP BY kind")
        .unwrap();
    let b = session()
        .sql("SELECT kind, sum(value) FROM events GROUP BY kind")
        .unwrap();
    assert_eq!(a.stats.makespan, b.stats.makespan);
    assert_eq!(a.stats.net, b.stats.net);
    assert_eq!(a.stats.cost_units, b.stats.cost_units);
    assert_eq!(a.stats.stall_total, b.stats.stall_total);
}

#[test]
fn figure1_ordering_holds() {
    let run = |cfg: RuntimeConfig| {
        let s = Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .runtime(cfg)
            .build();
        fig1_pipeline(&s, 1).unwrap().run().unwrap().stats
    };
    let serverful = run(RuntimeConfig::serverful());
    let stateless = run(RuntimeConfig::stateless_serverless());
    let skadi = run(RuntimeConfig::skadi_gen2());

    // The paper's Figure-1 ordering: Skadi avoids durable bounces
    // entirely, stateless pays them on every edge.
    assert_eq!(skadi.durable_trips, 0);
    assert!(serverful.durable_trips > 0);
    assert!(stateless.durable_trips > serverful.durable_trips);
    assert!(skadi.makespan < stateless.makespan);
    // Pay-as-you-go beats reservation on cost.
    assert!(skadi.cost_units < serverful.cost_units);
}

#[test]
fn generation_ordering_holds_for_short_ops() {
    use skadi::runtime::task::TaskSpec;
    use skadi::runtime::{Cluster, Job, TaskId};
    let topo = presets::device_rack();
    let mut tasks = vec![TaskSpec::new(0, 20.0, 4 << 10).on(Backend::Gpu)];
    for i in 1..24 {
        tasks.push(
            TaskSpec::new(i, 20.0, 4 << 10)
                .after(TaskId(i - 1), 4 << 10)
                .on(Backend::Gpu),
        );
    }
    let job = Job::new("short", tasks).unwrap();
    let mut g1 = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
    let mut g2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
    let s1 = g1.run(&job).unwrap();
    let s2 = g2.run(&job).unwrap();
    assert!(s2.makespan < s1.makespan);
}

#[test]
fn parallelism_speeds_up_wide_queries_until_overhead_wins() {
    let run = |p: u32| {
        Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .parallelism(p)
            .build()
            .sql("SELECT kind, sum(value) FROM events WHERE value > 0.1 GROUP BY kind")
            .unwrap()
            .stats
            .makespan
    };
    let p1 = run(1);
    let p4 = run(4);
    assert!(p4 < p1, "4-way {} vs 1-way {}", p4, p1);
}

#[test]
fn failure_during_pipeline_recovers_via_lineage() {
    use skadi::dcsim::time::SimTime;
    let topo = presets::small_disagg_cluster();
    let victim = topo.servers()[2];
    let s = Session::builder()
        .topology(topo)
        .catalog(Catalog::demo())
        .build();
    let failures = FailurePlan::none().kill(victim, SimTime::from_millis(5));
    let report = fig1_pipeline(&s, 1)
        .unwrap()
        .run_with_failures(&failures)
        .unwrap();
    assert_eq!(report.stats.abandoned, 0, "lineage must recover everything");
    assert!(report.stats.finished > 0);
}

#[test]
fn ir_fusion_survives_the_full_path() {
    // A fused query still returns the same *structure* of results (we
    // check compiled shape and clean execution with and without fusion).
    let q = "SELECT user_id FROM events WHERE value > 0.5";
    let fused = session().sql(q).unwrap();
    let unfused = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .without_optimizer()
        .build()
        .sql(q)
        .unwrap();
    assert!(fused.optimize.fused > 0);
    assert!(fused.physical_vertices < unfused.physical_vertices);
    assert_eq!(fused.stats.abandoned, 0);
    assert_eq!(unfused.stats.abandoned, 0);
}

#[test]
fn quickstart_trace_exports_valid_chrome_json() {
    use skadi::dcsim::span::{json_is_wellformed, Category};
    let s = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(RuntimeConfig::skadi_gen2().with_tracing(true))
        .build();
    let report = fig1_pipeline(&s, 1).unwrap().run().unwrap();
    let trace = &report.stats.trace;
    trace.validate().expect("span tree is well-formed");
    assert!(report.has_trace());
    assert!(
        trace.len() > 100,
        "quickstart pipeline should emit >100 spans, got {}",
        trace.len()
    );
    // The trace covers the full task lifecycle plus the data plane.
    assert!(trace.count_category(Category::Task) > 0);
    assert!(trace.count_category(Category::Run) > 0);
    assert!(trace.count_category(Category::Wait) > 0);
    assert!(trace.count_category(Category::Resolve) > 0);
    assert!(trace.count_category(Category::TierAccess) > 0);
    assert!(trace.count_category(Category::Control) > 0);
    assert!(trace.count_category(Category::Data) > 0);
    // The export is parseable JSON with one event per span (plus
    // metadata records naming processes/threads).
    let json = report.chrome_trace();
    assert!(json_is_wellformed(&json), "chrome export must parse");
    assert!(json.matches("\"ph\":\"X\"").count() == trace.len());
    // And the critical-path summary names its stall contributors.
    let summary = report.critical_path_summary(5);
    assert!(summary.contains("critical path:"), "{summary}");
    assert!(summary.contains("stall contributors"), "{summary}");
}

#[test]
fn gen1_pays_more_control_spans_per_op_than_gen2() {
    use skadi::dcsim::span::Category;
    let run = |cfg: RuntimeConfig| {
        let s = Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .runtime(cfg.with_tracing(true))
            .build();
        fig1_pipeline(&s, 1).unwrap().run().unwrap()
    };
    let g1 = run(RuntimeConfig::skadi_gen1());
    let g2 = run(RuntimeConfig::skadi_gen2());
    g1.stats.trace.validate().unwrap();
    g2.stats.trace.validate().unwrap();
    // Same job, same resolved edge count: pull pays a multi-message
    // round trip per edge, push a single ownership update.
    let per_op = |r: &JobReport| {
        r.stats.trace.count_category(Category::Control) as f64
            / r.stats.trace.count_category(Category::Resolve).max(1) as f64
    };
    assert!(
        per_op(&g1) > per_op(&g2),
        "gen1 {:.2} control spans/op should exceed gen2 {:.2}",
        per_op(&g1),
        per_op(&g2)
    );
}

#[test]
fn gang_job_outputs_survive_kill_and_recover() {
    use skadi::dcsim::time::SimTime;
    use skadi::runtime::task::{GangId, TaskSpec};
    use skadi::runtime::{Cluster, Job, TaskId};

    // A source feeding a 4-member gang feeding a sink: collective start
    // plus failure mid-gang exercises the release/restart path.
    let mut tasks = vec![TaskSpec::new(0, 500.0, 1 << 14)];
    for i in 1..=4u64 {
        tasks.push(
            TaskSpec::new(i, 4000.0, 1 << 12)
                .after(TaskId(0), 1 << 12)
                .in_gang(GangId(1)),
        );
    }
    let mut sink = TaskSpec::new(5, 500.0, 1 << 10);
    for i in 1..=4u64 {
        sink = sink.after(TaskId(i), 1 << 10);
    }
    tasks.push(sink);
    let job = Job::new("gang-chaos", tasks).unwrap();

    let topo = presets::small_disagg_cluster();
    for ft in [FtMode::Lineage, FtMode::Replication(2)] {
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(ft)
            .with_gang(true)
            .with_debug_invariants(true);
        let mut calm = Cluster::new(&topo, cfg.clone());
        calm.run(&job).unwrap();

        // Kill a node while the gang is in flight, then bring it back.
        let victim = topo.servers()[1];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(2),
            SimTime::from_millis(6),
        );
        let mut stormy = Cluster::new(&topo, cfg);
        stormy
            .run_with_failures(&job, &plan)
            .unwrap_or_else(|e| panic!("{ft:?}: gang chaos run failed: {e}"));
        assert_eq!(
            calm.output_manifest(),
            stormy.output_manifest(),
            "{ft:?}: gang outputs diverged after kill+recover"
        );
    }
}
