//! A committed price table for the simulator.
//!
//! Every configuration below runs one job on `runtime::Cluster` with
//! tracing on and prints one line: its name and an FNV-1a digest of
//! everything the run reports — the `JobStats` debug rendering, the
//! Prometheus text, the Chrome trace JSON and the output manifest. The
//! digests were recorded before the cluster's pricing paths were folded
//! into one move primitive; a refactor that moves any price, counter,
//! span or attribute by one bit changes a line, and the failure names
//! the configuration that moved.
//!
//! To see the table: `cargo test --test price_table -- --nocapture`.

use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{
    presets, AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, ServerSpec, Topology,
    TopologyBuilder,
};
use skadi_frontends::catalog::Catalog;
use skadi_ir::Backend;
use skadi_ownership::resolve::ResolutionMode;
use skadi_runtime::{
    AutoscaleConfig, Cluster, Deployment, FailurePlan, FtMode, Generation, Job, JobStats,
    PlacementPolicy, RuntimeConfig, TaskId, TaskSpec,
};
use skadi_store::ec::EcConfig;

/// Recorded digests, one per configuration, in run order.
const TABLE: &str = "
distributed-runtime/none/gen1-pull/calm  4a8e281a8459fb33
distributed-runtime/none/gen1-pull/kill  2537fff1c0819997
distributed-runtime/none/gen1-pull/election  85c0af3a53a9666e
distributed-runtime/none/gen2-push/calm  6b8e737b51a297f1
distributed-runtime/none/gen2-push/kill  a27f569a100ace7f
distributed-runtime/none/gen2-push/election  8932c7acf75b03ac
distributed-runtime/lineage/gen1-pull/calm  4a8e281a8459fb33
distributed-runtime/lineage/gen1-pull/kill  d1643d0375e284c5
distributed-runtime/lineage/gen1-pull/election  0a6141da4072fc9e
distributed-runtime/lineage/gen2-push/calm  6b8e737b51a297f1
distributed-runtime/lineage/gen2-push/kill  1a50889ded168033
distributed-runtime/lineage/gen2-push/election  4ac0000d45e195e5
distributed-runtime/rep2/gen1-pull/calm  7fc32b8a37be4699
distributed-runtime/rep2/gen1-pull/kill  679754e91618f2d5
distributed-runtime/rep2/gen1-pull/election  c9e5ae7cb7ac9117
distributed-runtime/rep2/gen2-push/calm  31a6d54097427786
distributed-runtime/rep2/gen2-push/kill  59d09bef32e32265
distributed-runtime/rep2/gen2-push/election  02db480994342a46
distributed-runtime/rs42/gen1-pull/calm  5e3f421755dc19ff
distributed-runtime/rs42/gen1-pull/kill  017d593ff55eda08
distributed-runtime/rs42/gen1-pull/election  c3a026324bd74907
distributed-runtime/rs42/gen2-push/calm  d9572e6a1480f75d
distributed-runtime/rs42/gen2-push/kill  6aaedb1b20bbed07
distributed-runtime/rs42/gen2-push/election  28bf1de670579365
serverful/none/gen1-pull/calm  5521f7b3b8069a37
serverful/none/gen1-pull/kill  bbe95bda8964e526
serverful/none/gen1-pull/election  7bb76de324d2c803
serverful/none/gen2-push/calm  352e1bc279a4be43
serverful/none/gen2-push/kill  1f1c59b79a273136
serverful/none/gen2-push/election  6bac97879688bcab
serverful/lineage/gen1-pull/calm  5521f7b3b8069a37
serverful/lineage/gen1-pull/kill  de2588488dae7e62
serverful/lineage/gen1-pull/election  26af62adb7224d6d
serverful/lineage/gen2-push/calm  352e1bc279a4be43
serverful/lineage/gen2-push/kill  60ebd74a3222cc68
serverful/lineage/gen2-push/election  9e9367a84fd211f3
serverful/rep2/gen1-pull/calm  a48c7b251271a40a
serverful/rep2/gen1-pull/kill  eb3cf9a01488f710
serverful/rep2/gen1-pull/election  0846ff40e151f46b
serverful/rep2/gen2-push/calm  a6bea23ba6f7cf20
serverful/rep2/gen2-push/kill  76c9b91094b013da
serverful/rep2/gen2-push/election  5a9c2112910f4843
serverful/rs42/gen1-pull/calm  8f1df90593583780
serverful/rs42/gen1-pull/kill  47f9ad53c4a50d63
serverful/rs42/gen1-pull/election  d4bf4ff635b42f15
serverful/rs42/gen2-push/calm  7a57ebaaa26f9a38
serverful/rs42/gen2-push/kill  a4fa6eb21622cb8f
serverful/rs42/gen2-push/election  c7256d4c8ef918df
stateless-serverless/none/gen1-pull/calm  43ee5b8b4e1c9ec8
stateless-serverless/none/gen1-pull/kill  acfce5e3146cff51
stateless-serverless/none/gen1-pull/election  cdbb6ed4a0dcda85
stateless-serverless/none/gen2-push/calm  1d4692c9ebd70bc0
stateless-serverless/none/gen2-push/kill  acfce5e3146cff51
stateless-serverless/none/gen2-push/election  7aa2ae0fda4132d4
stateless-serverless/lineage/gen1-pull/calm  43ee5b8b4e1c9ec8
stateless-serverless/lineage/gen1-pull/kill  4f8c3933961b224f
stateless-serverless/lineage/gen1-pull/election  954c4bfe79b6669d
stateless-serverless/lineage/gen2-push/calm  1d4692c9ebd70bc0
stateless-serverless/lineage/gen2-push/kill  2ab3f36db5b8fd4b
stateless-serverless/lineage/gen2-push/election  46b63f173ba0ebd3
stateless-serverless/rep2/gen1-pull/calm  43ee5b8b4e1c9ec8
stateless-serverless/rep2/gen1-pull/kill  4f8c3933961b224f
stateless-serverless/rep2/gen1-pull/election  954c4bfe79b6669d
stateless-serverless/rep2/gen2-push/calm  1d4692c9ebd70bc0
stateless-serverless/rep2/gen2-push/kill  2ab3f36db5b8fd4b
stateless-serverless/rep2/gen2-push/election  46b63f173ba0ebd3
stateless-serverless/rs42/gen1-pull/calm  43ee5b8b4e1c9ec8
stateless-serverless/rs42/gen1-pull/kill  4f8c3933961b224f
stateless-serverless/rs42/gen1-pull/election  954c4bfe79b6669d
stateless-serverless/rs42/gen2-push/calm  1d4692c9ebd70bc0
stateless-serverless/rs42/gen2-push/kill  2ab3f36db5b8fd4b
stateless-serverless/rs42/gen2-push/election  46b63f173ba0ebd3
spill/Gen1  2d0cede39bbbe6b3
spill/Gen2  000c91186e35dc26
durable-backstop  a29509ab84fc84ac
autoscale  99d910bc5c7868e3
work-stealing  51eec2659639aad6
multi-job  428222f4e650c7fe
fig1  cb8dbce5da90fa84
";

fn fnv(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain([0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(stats: &Result<JobStats, skadi_runtime::RuntimeError>, c: &Cluster, extra: &str) -> u64 {
    let manifest = format!("{:?}", c.output_manifest());
    match stats {
        Ok(s) => fnv(&[
            &format!("{s:?}"),
            &s.metrics.to_prometheus(),
            &s.trace.to_chrome_json(),
            &manifest,
            extra,
        ]),
        Err(e) => fnv(&[&format!("error {e:?}"), &manifest, extra]),
    }
}

/// Two systems (so serverful bounces at the boundary), every backend,
/// outputs from 4 KiB to 4 MiB, fan-in and fan-out.
fn mixed_job() -> Job {
    let kib = 1u64 << 10;
    let mut tasks = vec![
        TaskSpec::new(0, 800.0, 64 * kib).in_system("etl"),
        TaskSpec::new(1, 1_200.0, 1 << 20).in_system("etl"),
        TaskSpec::new(2, 400.0, 4 * kib).in_system("etl"),
        TaskSpec::new(3, 2_000.0, 2 << 20).in_system("etl"),
    ];
    for i in 4..8u64 {
        let backend = if i % 2 == 0 {
            Backend::Gpu
        } else {
            Backend::Fpga
        };
        tasks.push(
            TaskSpec::new(i, 300.0 + 100.0 * i as f64, (i * 96) * kib)
                .on(backend)
                .in_system("ml")
                .after(TaskId(i - 4), (i * 32) * kib)
                .after(TaskId((i - 3) % 4), 16 * kib),
        );
    }
    for i in 8..12u64 {
        tasks.push(
            TaskSpec::new(i, 1_500.0, 4 << 20)
                .in_system("etl")
                .after(TaskId(i - 4), 512 * kib)
                .after(TaskId(4 + (i - 7) % 4), 128 * kib),
        );
    }
    let mut sink = TaskSpec::new(12, 600.0, 8 * kib).in_system("ml");
    for i in 8..12u64 {
        sink = sink.after(TaskId(i), 256 * kib);
    }
    tasks.push(sink);
    Job::new("mixed", tasks).unwrap()
}

/// Tiny device memory so GPU outputs overflow into the blade (Gen-2) or
/// durable storage (Gen-1).
fn spill_topo() -> Topology {
    TopologyBuilder::new()
        .rack(|r| {
            r.servers(2, ServerSpec::default());
            r.accel_device(
                AccelKind::Gpu,
                AccelSpec {
                    hbm_bytes: 8 << 20,
                    ..AccelSpec::default()
                },
            );
            r.memory_blade(MemoryBladeSpec {
                dram_bytes: 1 << 30,
                ..MemoryBladeSpec::default()
            });
        })
        .durable_storage(DurableSpec::default())
        .build()
}

fn gpu_burst(n: u64, bytes: u64) -> Job {
    let tasks = (0..n)
        .map(|i| TaskSpec::new(i, 5_000.0, bytes).on(Backend::Gpu))
        .collect();
    Job::new("burst", tasks).unwrap()
}

fn generation(g: Generation) -> RuntimeConfig {
    match g {
        Generation::Gen1 => RuntimeConfig::skadi_gen1(),
        Generation::Gen2 => RuntimeConfig::skadi_gen2(),
    }
}

fn table() -> Vec<String> {
    let mut lines = Vec::new();
    let mut run =
        |name: String, topo: &Topology, cfg: RuntimeConfig, job: &Job, plan: &FailurePlan| {
            let mut c = Cluster::new(topo, cfg.with_tracing(true));
            let stats = c.run_with_failures(job, plan);
            lines.push(format!("{name}  {:016x}", digest(&stats, &c, "")));
        };

    let topo = presets::small_disagg_cluster();
    let job = mixed_job();
    let servers = topo.servers();
    // Rack 0's other servers and both of its devices die mid-run and rejoin.
    let devices = topo.accel_devices(None);
    let victims = servers[1..4].iter().chain(&devices[..2]);
    let kill = victims.fold(FailurePlan::none(), |plan, n| {
        plan.kill_and_recover(*n, SimTime::from_micros(1_500), SimTime::from_millis(4))
    });
    let regicide = FailurePlan::none().kill_and_recover(
        servers[0],
        SimTime::from_micros(700),
        SimTime::from_micros(2_500),
    );
    let fts = [
        ("none", FtMode::None),
        ("lineage", FtMode::Lineage),
        ("rep2", FtMode::Replication(2)),
        ("rs42", FtMode::ErasureCoding(EcConfig::RS_4_2)),
    ];
    for deployment in [
        Deployment::DistributedRuntime,
        Deployment::Serverful,
        Deployment::StatelessServerless,
    ] {
        for (ft_name, ft) in fts {
            for (gen_name, g, mode) in [
                ("gen1-pull", Generation::Gen1, ResolutionMode::Pull),
                ("gen2-push", Generation::Gen2, ResolutionMode::Push),
            ] {
                let mut cfg = generation(g).with_ft(ft).with_resolution(mode);
                cfg.deployment = deployment;
                let name = format!("{deployment}/{ft_name}/{gen_name}");
                run(
                    format!("{name}/calm"),
                    &topo,
                    cfg.clone(),
                    &job,
                    &FailurePlan::none(),
                );
                run(format!("{name}/kill"), &topo, cfg.clone(), &job, &kill);
                run(format!("{name}/election"), &topo, cfg, &job, &regicide);
            }
        }
    }

    let spill = spill_topo();
    for g in [Generation::Gen1, Generation::Gen2] {
        let name = format!("spill/{g:?}");
        run(
            name,
            &spill,
            generation(g),
            &gpu_burst(4, 5 << 20),
            &FailurePlan::none(),
        );
    }
    let huge = gpu_burst(1, 2 << 30);
    run(
        "durable-backstop".into(),
        &spill,
        generation(Generation::Gen2),
        &huge,
        &FailurePlan::none(),
    );

    let rack = presets::device_rack();
    let scale = AutoscaleConfig {
        min_devices: 0,
        max_devices: 4,
        scale_up_queue: 1.0,
        interval: SimDuration::from_millis(1),
        provision_delay: SimDuration::from_millis(5),
    };
    let cfg = RuntimeConfig::skadi_gen2().with_autoscale(scale);
    run(
        "autoscale".into(),
        &rack,
        cfg,
        &gpu_burst(24, 1 << 10),
        &FailurePlan::none(),
    );

    let cfg = RuntimeConfig::skadi_gen1().with_placement(PlacementPolicy::WorkStealing);
    run(
        "work-stealing".into(),
        &topo,
        cfg,
        &job,
        &FailurePlan::none(),
    );

    // Two staggered jobs share the cluster: the renumbering into one ID
    // space is part of what is priced.
    let jobs = [
        (mixed_job(), SimTime::ZERO),
        (mixed_job(), SimTime::from_millis(1)),
    ];
    let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
    let (per_job, stats) = match c.run_jobs(&jobs, &kill) {
        Ok((p, s)) => (format!("{p:?}"), Ok(s)),
        Err(e) => (String::new(), Err(e)),
    };
    lines.push(format!("multi-job  {:016x}", digest(&stats, &c, &per_job)));

    // The fig-1 pipeline: three systems compiled into one job.
    let session = skadi::Session::builder()
        .topology(topo.clone())
        .catalog(Catalog::demo())
        .runtime(RuntimeConfig::serverful())
        .build();
    let (fig1, _) = skadi::pipeline::fig1_pipeline(&session, 1)
        .unwrap()
        .compile()
        .unwrap();
    let mut c = Cluster::new(&topo, RuntimeConfig::serverful().with_tracing(true));
    let stats = c.run(&fig1);
    let ids = format!("{:?}", fig1.tasks);
    lines.push(format!("fig1  {:016x}", digest(&stats, &c, &ids)));
    lines
}

#[test]
fn simulator_prices_match_the_committed_table() {
    let got = table();
    for line in &got {
        println!("{line}");
    }
    let want: Vec<&str> = TABLE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let name = |l: &str| l.split_whitespace().next().unwrap_or("").to_string();
    assert_eq!(
        got.iter().map(|l| name(l)).collect::<Vec<_>>(),
        want.iter().map(|l| name(l)).collect::<Vec<_>>(),
        "the configuration list changed"
    );
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, _)| name(g))
        .collect();
    assert!(moved.is_empty(), "prices moved in: {}", moved.join(", "));
}
