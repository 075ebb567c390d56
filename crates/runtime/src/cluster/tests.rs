//! Unit tests of the cluster. White-box: they may read the tables.

use skadi_store::ec::EcConfig;

use super::*;
use crate::config::FtMode;

/// The node `t`'s last attempt ran on.
fn node_of(c: &Cluster, t: u64) -> NodeId {
    let slot = c.tasks.slot_of(TaskId(t)).expect("task exists");
    c.tasks[slot].at.node.expect("task was placed")
}

mod run_tests {
    use super::*;
    use crate::task::{GangId, TaskSpec};
    use skadi_dcsim::topology::presets;

    fn chain_job(n: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(i - 1), bytes));
        }
        Job::new("chain", tasks).unwrap()
    }

    fn fanout_job(width: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..=width {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(0), bytes));
        }
        let mut sink = TaskSpec::new(width + 1, compute_us, bytes);
        for i in 1..=width {
            sink = sink.after(TaskId(i), bytes);
        }
        tasks.push(sink);
        Job::new("fanout", tasks).unwrap()
    }

    #[test]
    fn chain_completes_with_monotone_makespan() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let short = c.run(&chain_job(5, 100.0, 1 << 10)).unwrap();
        assert_eq!(short.finished, 5);
        assert_eq!(short.abandoned, 0);
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let long = c.run(&chain_job(20, 100.0, 1 << 10)).unwrap();
        assert!(long.makespan > short.makespan);
    }

    #[test]
    fn fanout_parallelizes() {
        let topo = presets::small_disagg_cluster();
        // 16 independent 1ms tasks across 8 servers x 16 slots: the
        // makespan should be far below the serial sum.
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&fanout_job(16, 1000.0, 1 << 10)).unwrap();
        assert_eq!(stats.finished, 18);
        let serial_us = 18.0 * 1000.0;
        assert!(
            stats.makespan.as_micros() < (serial_us * 0.5) as u64,
            "makespan {} vs serial {serial_us}us",
            stats.makespan
        );
    }

    #[test]
    fn stateless_pays_durable_trips() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(4, 100.0, 1 << 20);
        let mut skadi = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let s = skadi.run(&job).unwrap();
        let mut stateless = Cluster::new(&topo, RuntimeConfig::stateless_serverless());
        let f = stateless.run(&job).unwrap();
        assert_eq!(s.durable_trips, 0);
        assert!(
            f.durable_trips >= 6,
            "writes + reads, got {}",
            f.durable_trips
        );
        assert!(f.makespan > s.makespan * 2);
    }

    #[test]
    fn serverful_bounces_cross_system_edges_only() {
        let topo = presets::small_disagg_cluster();
        let tasks = vec![
            TaskSpec::new(0, 100.0, 1 << 20).in_system("sql"),
            TaskSpec::new(1, 100.0, 1 << 20)
                .after(TaskId(0), 1 << 20)
                .in_system("sql"),
            TaskSpec::new(2, 100.0, 1 << 20)
                .after(TaskId(1), 1 << 20)
                .in_system("ml"),
        ];
        let job = Job::new("mixed", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::serverful());
        let stats = c.run(&job).unwrap();
        // One cross-system edge: one write + one read.
        assert_eq!(stats.durable_trips, 2);
        assert_eq!(stats.finished, 3);
    }

    /// A deployment that routes bytes through durable storage, on a
    /// topology without it, is refused before its first event (it used to
    /// panic mid-run); the distributed runtime never needs the store.
    #[test]
    fn deployments_without_durable_storage() {
        let topo = skadi_dcsim::topology::TopologyBuilder::new()
            .rack(|r| {
                r.servers(4, skadi_dcsim::topology::ServerSpec::default());
            })
            .build();
        let spec = |id, system| TaskSpec::new(id, 100.0, 1 << 16).in_system(system);
        let crossing = Job::new(
            "crossing",
            vec![spec(0, "sql"), spec(1, "ml").after(TaskId(0), 1 << 16)],
        )
        .unwrap();
        let one_system = chain_job(3, 100.0, 1 << 16);
        for (cfg, job, refused) in [
            (RuntimeConfig::stateless_serverless(), &one_system, true),
            (RuntimeConfig::serverful(), &crossing, true),
            (RuntimeConfig::serverful(), &one_system, false),
            (RuntimeConfig::skadi_gen2(), &crossing, false),
        ] {
            let deployment = cfg.deployment;
            let mut c = Cluster::new(&topo, cfg.with_debug_invariants(true));
            match c.run(job) {
                Err(e) if refused => {
                    assert_eq!(e, RuntimeError::NoDurableStorage(deployment));
                    assert!(c.task_started_at(TaskId(0)).is_none(), "{deployment}");
                }
                Ok(stats) if !refused => {
                    assert_eq!(stats.finished, job.len() as u64);
                    assert_eq!(stats.durable_trips, 0);
                }
                other => panic!("{deployment} on {}: {other:?}", job.name),
            }
        }
    }

    #[test]
    fn gpu_tasks_land_on_gpu_devices() {
        let topo = presets::small_disagg_cluster();
        let job = Job::new(
            "gpu",
            vec![
                TaskSpec::new(0, 100.0, 1 << 10),
                TaskSpec::new(1, 100.0, 1 << 10)
                    .after(TaskId(0), 1 << 10)
                    .on(Backend::Gpu),
            ],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 2);
        assert_eq!(stats.metrics.counter("cpu_fallback"), 0);
    }

    #[test]
    fn gen2_beats_gen1_on_short_device_ops() {
        let topo = presets::device_rack();
        // A chain of short GPU ops: control overhead dominates.
        let mut tasks = vec![TaskSpec::new(0, 10.0, 4 << 10).on(Backend::Gpu)];
        for i in 1..20 {
            tasks.push(
                TaskSpec::new(i, 10.0, 4 << 10)
                    .after(TaskId(i - 1), 4 << 10)
                    .on(Backend::Gpu),
            );
        }
        let job = Job::new("short-ops", tasks).unwrap();
        let mut g1 = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let s1 = g1.run(&job).unwrap();
        let mut g2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let s2 = g2.run(&job).unwrap();
        assert!(
            s2.makespan < s1.makespan,
            "gen2 {} vs gen1 {}",
            s2.makespan,
            s1.makespan
        );
        assert!(s2.stall_total < s1.stall_total);
    }

    #[test]
    fn lineage_recovers_from_node_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 2000.0, 1 << 16);
        // Kill a server mid-job.
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(3));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6, "all tasks should finish eventually");
        assert_eq!(stats.abandoned, 0);
    }

    #[test]
    fn ft_none_abandons_on_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 5000.0, 1 << 16);
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(6));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_ft(FtMode::None));
        let stats = c.run_with_failures(&job, &plan).unwrap();
        // The chain ran on the data-local node; killing it aborts the rest.
        assert!(stats.abandoned > 0 || stats.finished == 6);
    }

    #[test]
    fn replication_masks_failures_cheaper_recovery() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(8, 3000.0, 1 << 18);
        let victim = topo.servers()[0];
        let at = SimTime::from_millis(10);

        let mut lineage = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let l = lineage
            .run_with_failures(&job, &FailurePlan::none().kill(victim, at))
            .unwrap();
        let mut repl = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::Replication(2)),
        );
        let r = repl
            .run_with_failures(&job, &FailurePlan::none().kill(victim, at))
            .unwrap();
        assert_eq!(l.finished, 8);
        assert_eq!(r.finished, 8);
        // Replication re-runs at most the task that was executing; lineage
        // may recompute ancestors too.
        assert!(
            r.retries <= l.retries,
            "repl {} vs lineage {}",
            r.retries,
            l.retries
        );
    }

    #[test]
    fn erasure_coding_survives_single_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 3000.0, 1 << 18);
        let victim = topo.servers()[1];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(8));
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::ErasureCoding(EcConfig::RS_4_2)),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert!(stats.metrics.counter("ec_bytes") > 0);
    }

    #[test]
    fn gang_scheduling_starts_members_together() {
        let topo = presets::small_disagg_cluster();
        let gang = GangId(1);
        // Two gang members, one delayed by a long producer.
        let tasks = vec![
            TaskSpec::new(0, 10_000.0, 1 << 10),
            TaskSpec::new(1, 100.0, 1 << 10).in_gang(gang),
            TaskSpec::new(2, 100.0, 1 << 10)
                .after(TaskId(0), 1 << 10)
                .in_gang(gang),
        ];
        let job = Job::new("gang", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_gang(true));
        let _ = c.run(&job).unwrap();
        let t1 = c.task_started_at(TaskId(1)).unwrap();
        let t2 = c.task_started_at(TaskId(2)).unwrap();
        let skew = t1.max(t2).saturating_since(t1.min(t2));
        assert!(
            skew < SimDuration::from_millis(1),
            "gang members started {skew} apart"
        );
    }

    #[test]
    fn data_centric_moves_less_data_than_round_robin() {
        let topo = presets::small_disagg_cluster();
        // Shuffle-free chain with big intermediates: locality matters.
        let job = chain_job(10, 500.0, 32 << 20);
        let mut dc = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = dc.run(&job).unwrap();
        let mut rr = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_placement(crate::PlacementPolicy::RoundRobin),
        );
        let b = rr.run(&job).unwrap();
        assert!(
            a.net.network_bytes() < b.net.network_bytes(),
            "data-centric {} vs round-robin {}",
            a.net.network_bytes(),
            b.net.network_bytes()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = presets::small_disagg_cluster();
        let job = fanout_job(8, 700.0, 1 << 16);
        let mut c1 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = c1.run(&job).unwrap();
        let mut c2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let b = c2.run(&job).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.net, b.net);
        assert_eq!(a.cost_units, b.cost_units);
    }

    #[test]
    fn serverful_cost_is_reservation_based() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(3, 100.0, 1 << 10);
        let mut sf = Cluster::new(&topo, RuntimeConfig::serverful());
        let s = sf.run(&job).unwrap();
        // Cost scales with makespan x pool size, not with task time.
        assert!(s.cost_units > 0.0);
        let mut sk = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let k = sk.run(&job).unwrap();
        assert!(k.cost_units < s.cost_units);
    }

    #[test]
    fn autoscaler_provisions_devices_under_load() {
        let topo = presets::device_rack();
        let mut tasks = Vec::new();
        for i in 0..24u64 {
            tasks.push(TaskSpec::new(i, 5_000.0, 1 << 10).on(Backend::Gpu));
        }
        let job = Job::new("burst", tasks).unwrap();
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_autoscale(crate::config::AutoscaleConfig {
                min_devices: 0,
                max_devices: 4,
                scale_up_queue: 1.0,
                interval: SimDuration::from_millis(1),
                provision_delay: SimDuration::from_millis(5),
            }),
        );
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 24);
        assert!(stats.metrics.counter("devices_provisioned") > 0);
    }

    /// Regression: aborting a Running task on a failed node (FtMode::None)
    /// must hand its compute slot back. Before the fix the slot stayed
    /// claimed forever, so the invariant checker trips right after the
    /// Fail event.
    #[test]
    fn aborted_task_releases_its_compute_slot() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 5000.0, 1 << 16);
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(6),
            SimTime::from_millis(8),
        );
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2()
                .with_ft(FtMode::None)
                .with_debug_invariants(true),
        );
        let res = c.run_with_failures(&job, &plan);
        assert!(res.is_ok(), "slot accounting broke after abort: {res:?}");
    }

    /// Regression: a crashed accelerator must leave the warm-device pool
    /// (both `device_available_at` and the autoscaler's busy count) so
    /// the autoscaler can provision a replacement. Before the fix the
    /// dead device stayed schedulable and warm.
    #[test]
    fn autoscaler_replaces_crashed_device() {
        let topo = presets::device_rack();
        let mut tasks = Vec::new();
        for i in 0..24u64 {
            tasks.push(TaskSpec::new(i, 5_000.0, 1 << 10).on(Backend::Gpu));
        }
        let job = Job::new("burst", tasks).unwrap();
        let victim = topo.accel_devices(Some(AccelKind::Gpu))[0];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(8),
            SimTime::from_millis(30),
        );
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2()
                .with_debug_invariants(true)
                .with_autoscale(crate::config::AutoscaleConfig {
                    min_devices: 0,
                    max_devices: 4,
                    scale_up_queue: 1.0,
                    interval: SimDuration::from_millis(1),
                    provision_delay: SimDuration::from_millis(5),
                }),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 24);
        assert!(stats.metrics.counter("devices_lost") > 0);
    }

    /// Killing and recovering a node mid-job must leave the output
    /// manifest byte-identical to a failure-free run, under every
    /// masking fault-tolerance mode.
    #[test]
    fn kill_and_recover_preserves_outputs_across_ft_modes() {
        let topo = presets::small_disagg_cluster();
        let job = fanout_job(12, 3000.0, 1 << 14);
        let victim = topo.servers()[1];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(2),
            SimTime::from_millis(5),
        );
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let mut stormy = Cluster::new(&topo, cfg);
            stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: chaos run failed: {e}"));
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: outputs diverged after kill+recover"
            );
        }
    }

    /// Killing the node hosting the scheduler mid-job must trigger an
    /// election; once a survivor takes over and reconstructs state, the
    /// run must converge to the failure-free manifest.
    #[test]
    fn scheduler_death_elects_new_leader_and_converges() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(8, 500.0, 1 << 12);
        let head = topo.servers()[0];
        let plan = FailurePlan::none().kill_and_recover(
            head,
            SimTime::from_micros(700),
            SimTime::from_micros(2_500),
        );
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let mut stormy = Cluster::new(&topo, cfg);
            let stats = stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: scheduler-kill run failed: {e}"));
            assert!(
                stats.metrics.counter("elections") >= 1,
                "{ft:?}: no election recorded"
            );
            assert!(
                stats.metrics.counter("failover_reconstruct_msgs") > 0,
                "{ft:?}: reconstruction was free"
            );
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: outputs diverged after scheduler failover"
            );
        }
    }

    /// Destroying every server and device forever must end in a clean
    /// `TaskAbandoned`/`Stalled`, not a hang and not a silently-partial
    /// `Ok` (which is what the pre-failover runtime returned).
    #[test]
    fn permanent_total_loss_fails_cleanly() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 500.0, 1 << 12);
        let mut plan = FailurePlan::none();
        let mut victims = topo.servers();
        victims.extend(topo.memory_blades());
        victims.extend(topo.accel_devices(None));
        for (i, v) in victims.into_iter().enumerate() {
            // Stagger kills so no two share an instant (saves nothing
            // semantically, but keeps the trace readable when replayed).
            plan = plan.kill(v, SimTime::from_micros(300 + i as u64));
        }
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(FtMode::Lineage)
            .with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let err = c
            .run_with_failures(&job, &plan)
            .expect_err("total permanent loss must not report success");
        assert!(
            matches!(
                err,
                RuntimeError::TaskAbandoned(_) | RuntimeError::Stalled { .. }
            ),
            "expected TaskAbandoned/Stalled, got {err:?}"
        );
    }

    /// When every server is down at election time, the cluster stays
    /// headless until one recovers, then elects it and finishes the job.
    #[test]
    fn election_waits_for_server_recovery() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 500.0, 1 << 12);
        let servers = topo.servers();
        let mut plan = FailurePlan::none();
        for (i, s) in servers.iter().copied().enumerate() {
            if i == 1 {
                // The sole survivor-to-be: down with the rest, back first.
                plan = plan.kill_and_recover(
                    s,
                    SimTime::from_micros(500),
                    SimTime::from_micros(2_000),
                );
            } else {
                plan = plan.kill_and_recover(
                    s,
                    SimTime::from_micros(500),
                    SimTime::from_micros(6_000),
                );
            }
        }
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(FtMode::Lineage)
            .with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let stats = c
            .run_with_failures(&job, &plan)
            .expect("job must finish once a server returns");
        assert_eq!(stats.finished, 6);
        assert!(stats.metrics.counter("elections") >= 1);
    }

    /// A live object losing its owner row is a recovery-path bug; under
    /// `debug_invariants` the consumer's resolution must flag it instead
    /// of silently repricing against the scheduler node.
    #[test]
    fn missing_owner_row_is_an_invariant_violation() {
        let topo = presets::small_disagg_cluster();
        let cfg = RuntimeConfig::skadi_gen2().with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let job = chain_job(3, 500.0, 1 << 12);
        let mut queue = c
            .start(&job, &FailurePlan::none(), &HashMap::new())
            .unwrap();
        let t0 = c.tasks.slot_of(TaskId(0)).unwrap();
        let mut dropped = false;
        let mut steps = 0u32;
        while let Some((now, ev)) = queue.pop() {
            steps += 1;
            assert!(steps < 10_000, "white-box pump did not terminate");
            c.handle(now, ev, &mut queue);
            if !dropped && c.tasks[t0].state() == TaskState::Finished {
                let obj = c.tasks[t0]
                    .at
                    .object
                    .expect("finished task stored an object");
                c.own.remove(obj).expect("finished task must own a row");
                dropped = true;
            }
            if c.fatal.is_some() {
                break;
            }
        }
        assert!(dropped, "producer never finished");
        match c.fatal {
            Some(RuntimeError::InvariantViolation(ref msg)) => {
                assert!(msg.contains("no owner row"), "unexpected message: {msg}");
            }
            ref other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }
}

mod actor_tests {
    use super::*;
    use crate::task::{ActorId, TaskSpec};
    use skadi_dcsim::topology::presets;

    /// `n` independent method calls on one actor.
    fn actor_job(n: u64, compute_us: f64) -> Job {
        let actor = ActorId(7);
        let tasks = (0..n)
            .map(|i| TaskSpec::new(i, compute_us, 1 << 10).on_actor(actor))
            .collect();
        Job::new("actor-methods", tasks).unwrap()
    }

    #[test]
    fn actor_methods_share_one_node() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let _ = c.run(&actor_job(8, 500.0)).unwrap();
        let nodes: std::collections::HashSet<_> =
            c.tasks.iter().filter_map(|(_, r)| r.at.node).collect();
        assert_eq!(nodes.len(), 1, "actor methods spread across {nodes:?}");
    }

    #[test]
    fn actor_methods_serialize() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&actor_job(8, 1000.0)).unwrap();
        // 8 x 1 ms methods with no dependencies would parallelize freely
        // as plain tasks; on an actor they serialize to >= 8 ms.
        assert!(
            stats.makespan >= SimDuration::from_millis(8),
            "makespan {}",
            stats.makespan
        );
        // No two method executions overlap.
        let mut spans: Vec<(SimTime, SimTime)> = c
            .tasks
            .iter()
            .map(|(_, r)| (r.at.started_at.unwrap(), r.at.finished_at.unwrap()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn plain_tasks_outpace_actor_methods() {
        let topo = presets::small_disagg_cluster();
        let plain = Job::new(
            "plain",
            (0..8).map(|i| TaskSpec::new(i, 1000.0, 1 << 10)).collect(),
        )
        .unwrap();
        let mut c1 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let p = c1.run(&plain).unwrap();
        let mut c2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = c2.run(&actor_job(8, 1000.0)).unwrap();
        assert!(p.makespan < a.makespan);
    }

    #[test]
    fn actor_restarts_elsewhere_after_node_failure() {
        let topo = presets::small_disagg_cluster();
        // Chain of methods so the failure hits mid-sequence.
        let actor = ActorId(1);
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 1 << 12).on_actor(actor)];
        for i in 1..6 {
            tasks.push(
                TaskSpec::new(i, 3000.0, 1 << 12)
                    .after(TaskId(i - 1), 1 << 12)
                    .on_actor(actor),
            );
        }
        let job = Job::new("actor-chain", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        // Find where the actor gets pinned on a dry run, then kill it.
        let _ = c.run(&job).unwrap();
        let pinned = node_of(&c, 0);
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let plan = FailurePlan::none().kill(pinned, SimTime::from_millis(7));
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert_eq!(stats.abandoned, 0);
        // Methods re-run after the failure live on a different node.
        let last_node = node_of(&c, 5);
        assert_ne!(last_node, pinned);
    }

    /// Killing the actor's node mid-chain and recovering it must leave
    /// the output manifest identical to a failure-free run, per FT mode.
    #[test]
    fn actor_chain_outputs_survive_kill_and_recover() {
        let topo = presets::small_disagg_cluster();
        let actor = ActorId(1);
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 1 << 12).on_actor(actor)];
        for i in 1..6 {
            tasks.push(
                TaskSpec::new(i, 3000.0, 1 << 12)
                    .after(TaskId(i - 1), 1 << 12)
                    .on_actor(actor),
            );
        }
        let job = Job::new("actor-chain", tasks).unwrap();
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let pinned = node_of(&calm, 0);
            let mut stormy = Cluster::new(&topo, cfg);
            let plan = FailurePlan::none().kill_and_recover(
                pinned,
                SimTime::from_millis(7),
                SimTime::from_millis(10),
            );
            stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: actor chaos run failed: {e}"));
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: actor outputs diverged after kill+recover"
            );
        }
    }
}

mod edge_case_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::{
        presets, AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, ServerSpec, TopologyBuilder,
    };

    /// A topology with tiny HBM so device outputs overflow immediately.
    fn tiny_hbm_topo() -> Topology {
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

    #[test]
    fn hbm_overflow_spills_to_disagg_memory_mid_job() {
        let topo = tiny_hbm_topo();
        // Four 5 MiB GPU outputs into 8 MiB HBM: spills must happen.
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::new(i, 500.0, 5 << 20).on(Backend::Gpu))
            .collect();
        let job = Job::new("spilly", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 4);
        assert!(stats.spills > 0, "expected HBM spills");
        assert!(stats.spill_bytes >= 5 << 20);
        // Gen-2 spills to the blade, not to durable storage.
        assert_eq!(stats.durable_trips, 0);
    }

    #[test]
    fn oversized_output_falls_back_to_durable() {
        let topo = tiny_hbm_topo();
        // A 16 MiB output cannot fit 8 MiB HBM at all; with a 1 GiB blade
        // the cascade handles it, so shrink the blade out of the picture
        // by filling it: use an output larger than blade + HBM.
        let job = Job::new(
            "huge",
            vec![TaskSpec::new(0, 500.0, 2 << 30).on(Backend::Gpu)],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 1);
        assert!(
            stats.durable_trips > 0,
            "output larger than all memory tiers must land durable"
        );
    }

    #[test]
    fn recovered_node_is_reusable() {
        let topo = presets::server_cluster(1, 2);
        let victim = topo.servers()[1];
        // Two waves of tasks; the node dies during wave 1 and recovers
        // before wave 2.
        let mut tasks = Vec::new();
        for i in 0..8u64 {
            tasks.push(TaskSpec::new(i, 2_000.0, 1 << 10));
        }
        for i in 8..16u64 {
            tasks.push(TaskSpec::new(i, 2_000.0, 1 << 10).after(TaskId(i - 8), 1 << 10));
        }
        let job = Job::new("waves", tasks).unwrap();
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(1),
            SimTime::from_millis(3),
        );
        // Round-robin placement guarantees the recovered node re-enters
        // the rotation (data-centric would legitimately keep following
        // the survivor's data).
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_placement(crate::PlacementPolicy::RoundRobin),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 16);
        assert_eq!(stats.abandoned, 0);
        // Wave-2 tasks land on the recovered node again.
        let used_recovered = c.tasks.iter().any(|(_, r)| {
            r.at.node == Some(victim) && r.at.finished_at > Some(SimTime::from_millis(3))
        });
        assert!(used_recovered, "recovered node never reused");
    }

    #[test]
    fn serverful_pools_isolate_systems() {
        let topo = presets::small_disagg_cluster();
        let tasks = vec![
            TaskSpec::new(0, 500.0, 1 << 10).in_system("alpha"),
            TaskSpec::new(1, 500.0, 1 << 10).in_system("beta"),
        ];
        let job = Job::new("silos", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::serverful());
        let _ = c.run(&job).unwrap();
        let n0 = node_of(&c, 0);
        let n1 = node_of(&c, 1);
        assert_ne!(n0, n1, "distinct systems must use distinct silo nodes");
    }

    #[test]
    fn utilization_is_sane() {
        let topo = presets::server_cluster(1, 1);
        // One serial chain on a 16-slot server: utilization ~ 1/16.
        let mut tasks = vec![TaskSpec::new(0, 10_000.0, 1 << 10)];
        for i in 1..4u64 {
            tasks.push(TaskSpec::new(i, 10_000.0, 1 << 10).after(TaskId(i - 1), 1 << 10));
        }
        let job = Job::new("serial", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert!(stats.utilization > 0.0);
        assert!(
            stats.utilization <= 1.0 / 16.0 + 1e-6,
            "{}",
            stats.utilization
        );
    }

    #[test]
    fn mixed_backends_complete_on_device_rack() {
        let topo = presets::device_rack();
        let tasks = vec![
            TaskSpec::new(0, 500.0, 1 << 16),
            TaskSpec::new(1, 500.0, 1 << 16)
                .after(TaskId(0), 1 << 16)
                .on(Backend::Gpu),
            TaskSpec::new(2, 500.0, 1 << 16)
                .after(TaskId(1), 1 << 16)
                .on(Backend::Fpga),
            TaskSpec::new(3, 500.0, 1 << 16).after(TaskId(2), 1 << 16),
        ];
        let job = Job::new("hetero", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 4);
        // Tasks landed on the matching device classes.
        let gpu_node = node_of(&c, 1);
        let fpga_node = node_of(&c, 2);
        assert!(matches!(
            c.topo.node(gpu_node).kind,
            NodeKind::AccelDevice(AccelKind::Gpu, _)
        ));
        assert!(matches!(
            c.topo.node(fpga_node).kind,
            NodeKind::AccelDevice(AccelKind::Fpga, _)
        ));
    }
}

mod pass_by_value_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn tiny_chain(n: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, 20.0, 256)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, 20.0, 256).after(TaskId(i - 1), 256));
        }
        Job::new("tiny-chain", tasks).unwrap()
    }

    #[test]
    fn inlining_removes_resolution_for_small_values() {
        let topo = presets::small_disagg_cluster();
        let mut by_ref = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let r = by_ref.run(&tiny_chain(16)).unwrap();
        let mut cfg = RuntimeConfig::skadi_gen1();
        cfg.pass_by_value_max = 1024;
        let mut by_val = Cluster::new(&topo, cfg);
        let v = by_val.run(&tiny_chain(16)).unwrap();
        assert_eq!(v.metrics.counter("inlined_values"), 15);
        assert_eq!(v.stall_total, SimDuration::ZERO);
        assert!(
            v.makespan < r.makespan,
            "by-value {} vs by-reference {}",
            v.makespan,
            r.makespan
        );
    }

    #[test]
    fn large_values_still_go_by_reference() {
        let topo = presets::small_disagg_cluster();
        let mut cfg = RuntimeConfig::skadi_gen1();
        cfg.pass_by_value_max = 1024;
        let job = Job::new(
            "big-edge",
            vec![
                TaskSpec::new(0, 20.0, 1 << 20),
                TaskSpec::new(1, 20.0, 256).after(TaskId(0), 1 << 20),
            ],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, cfg);
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.metrics.counter("inlined_values"), 0);
    }
}

mod multi_job_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn job(name: &str, n: u64, compute_us: f64) -> Job {
        let tasks = (0..n)
            .map(|i| TaskSpec::new(i, compute_us, 1 << 12))
            .collect();
        Job::new(name, tasks).unwrap()
    }

    #[test]
    fn staggered_jobs_respect_arrivals() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let (per_job, stats) = c
            .run_jobs(
                &[
                    (job("a", 8, 1000.0), SimTime::ZERO),
                    (job("b", 8, 1000.0), SimTime::from_millis(5)),
                ],
                &FailurePlan::none(),
            )
            .unwrap();
        assert_eq!(stats.finished, 16);
        assert_eq!(per_job.len(), 2);
        assert_eq!(per_job[1].arrival, SimTime::from_millis(5));
        // Job b's tasks started only after its arrival.
        // (Its completion is measured from arrival, so it is comparable
        // to job a's.)
        assert!(stats.makespan >= SimDuration::from_millis(5));
        assert!(per_job[0].completion > SimDuration::ZERO);
        assert!(per_job[1].completion > SimDuration::ZERO);
    }

    #[test]
    fn sharing_beats_silos_under_asymmetric_load() {
        // The consolidation argument: a burst can borrow the capacity a
        // siloed neighbor would leave idle.
        let topo = presets::small_disagg_cluster();
        let big = job("big", 256, 2000.0);
        let small = job("small", 32, 2000.0);
        // Shared: both jobs on the full cluster; the small one arrives
        // while the big one is draining.
        let mut shared = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let (per_job, _) = shared
            .run_jobs(
                &[
                    (big.clone(), SimTime::ZERO),
                    (small.clone(), SimTime::from_millis(5)),
                ],
                &FailurePlan::none(),
            )
            .unwrap();
        // Siloed: each job owns half the servers (1 rack each).
        let half = presets::server_cluster(1, 4);
        let mut silo_a = Cluster::new(&half, RuntimeConfig::skadi_gen2());
        let sa = silo_a.run(&big).unwrap();
        let mut silo_b = Cluster::new(&half, RuntimeConfig::skadi_gen2());
        let sb = silo_b.run(&small).unwrap();
        let shared_worst = per_job.iter().map(|p| p.completion).max().unwrap();
        let silo_worst = sa.makespan.max(sb.makespan);
        assert!(
            shared_worst < silo_worst,
            "shared {shared_worst} vs silo {silo_worst}"
        );
    }

    #[test]
    fn multi_job_with_failure_recovers_both() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let plan = FailurePlan::none().kill(topo.servers()[1], SimTime::from_millis(2));
        let (per_job, stats) = c
            .run_jobs(
                &[
                    (job("a", 16, 3000.0), SimTime::ZERO),
                    (job("b", 16, 3000.0), SimTime::from_millis(1)),
                ],
                &plan,
            )
            .unwrap();
        assert_eq!(stats.finished, 32);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(per_job.len(), 2);
    }
}

mod rack_failure_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    #[test]
    fn rack_diverse_replication_survives_whole_rack_loss() {
        let topo = presets::small_disagg_cluster();
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 4 << 20)];
        for i in 1..8u64 {
            tasks.push(TaskSpec::new(i, 3000.0, 4 << 20).after(TaskId(i - 1), 4 << 20));
        }
        let job = Job::new("rack-chain", tasks).unwrap();
        let rack = topo.rack_of(topo.servers()[0]);
        let plan = FailurePlan::none().kill_rack(&topo, rack, SimTime::from_millis(8));
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::Replication(2)),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 8);
        assert_eq!(stats.abandoned, 0);
        // Replicas are placed rack-diverse, so at most the in-flight task
        // re-runs per loss; lineage would recompute ancestors too.
        let mut lineage = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let l = lineage.run_with_failures(&job, &plan).unwrap();
        assert_eq!(l.finished, 8);
        assert!(stats.retries <= l.retries);
    }

    #[test]
    fn losing_the_durable_rack_is_survivable_for_skadi() {
        // Skadi never touches durable storage, so killing its (synthetic)
        // rack changes nothing.
        let topo = presets::small_disagg_cluster();
        let durable = topo.durable_storage().unwrap();
        let rack = topo.rack_of(durable);
        let job = Job::new(
            "no-durable",
            (0..6).map(|i| TaskSpec::new(i, 1000.0, 1 << 16)).collect(),
        )
        .unwrap();
        let plan = FailurePlan::none().kill_rack(&topo, rack, SimTime::from_micros(10));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert_eq!(stats.durable_trips, 0);
    }
}

mod tracing_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn chain(n: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(i - 1), bytes));
        }
        Job::new("chain", tasks).unwrap()
    }

    fn short_gpu_ops(n: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, 10.0, 4 << 10).on(Backend::Gpu)];
        for i in 1..n {
            tasks.push(
                TaskSpec::new(i, 10.0, 4 << 10)
                    .after(TaskId(i - 1), 4 << 10)
                    .on(Backend::Gpu),
            );
        }
        Job::new("short-ops", tasks).unwrap()
    }

    #[test]
    fn untraced_runs_produce_empty_traces() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&chain(5, 100.0, 1 << 10)).unwrap();
        assert!(stats.trace.is_empty());
    }

    #[test]
    fn traced_chain_is_wellformed_and_covers_the_lifecycle() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&chain(6, 100.0, 1 << 16)).unwrap();
        let trace = &stats.trace;
        trace.validate().expect("well-formed span tree");
        assert_eq!(trace.count_category(Category::Job), 1);
        assert_eq!(trace.count_category(Category::Task), 6);
        assert_eq!(trace.count_category(Category::Run), 6);
        assert_eq!(trace.count_category(Category::Wait), 6);
        assert_eq!(trace.count_category(Category::Dispatch), 6);
        assert_eq!(trace.count_category(Category::Placement), 6);
        // 5 resolved edges, each a consumer-side round trip.
        assert_eq!(trace.count_category(Category::Resolve), 5);
        assert_eq!(trace.count_category(Category::TierAccess), 5);
        assert!(trace.count_category(Category::Control) > 0);
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let topo = presets::small_disagg_cluster();
        let job = chain(8, 250.0, 1 << 18);
        let mut plain = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let a = plain.run(&job).unwrap();
        let mut traced = Cluster::new(&topo, RuntimeConfig::skadi_gen1().with_tracing(true));
        let b = traced.run(&job).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stall_total, b.stall_total);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let topo = presets::small_disagg_cluster();
        let job = chain(6, 100.0, 1 << 16);
        let run = || {
            let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
            c.run(&job).unwrap().trace
        };
        let (t1, t2) = (run(), run());
        assert_eq!(t1, t2);
        assert_eq!(t1.to_chrome_json(), t2.to_chrome_json());
    }

    #[test]
    fn gen1_spends_more_control_messages_per_short_op_than_gen2() {
        // The paper's observation: on Gen-1 every short-lived device op
        // pays a multi-message pull round trip through the DPU, while
        // Gen-2's push resolution collapses it to one update.
        let topo = presets::device_rack();
        let job = short_gpu_ops(20);
        let trace_of = |cfg: RuntimeConfig| {
            let mut c = Cluster::new(&topo, cfg.with_tracing(true));
            c.run(&job).unwrap().trace
        };
        let g1 = trace_of(RuntimeConfig::skadi_gen1());
        let g2 = trace_of(RuntimeConfig::skadi_gen2());
        g1.validate().unwrap();
        g2.validate().unwrap();
        let ops = 19.0; // resolved edges
        let g1_per_op = g1.count_category(Category::Control) as f64 / ops;
        let g2_per_op = g2.count_category(Category::Control) as f64 / ops;
        assert!(
            g1_per_op > g2_per_op,
            "gen1 {g1_per_op} control spans/op should exceed gen2 {g2_per_op}"
        );
    }

    #[test]
    fn critical_path_summary_names_the_chain() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&chain(5, 500.0, 1 << 16)).unwrap();
        let path = stats.trace.critical_path();
        assert_eq!(path.len(), 5, "a chain's critical path is every task");
        let summary = stats.trace.critical_path_summary(5);
        assert!(summary.contains("critical path: 5 tasks"));
    }

    #[test]
    fn spills_and_device_utilization_are_recorded() {
        let topo = presets::small_disagg_cluster();
        let gpu_mem = topo
            .accel_devices(None)
            .iter()
            .map(|d| topo.node(*d).kind.memory_bytes())
            .min()
            .unwrap();
        // GPU tasks whose outputs overflow HBM force spills.
        let mut tasks = vec![TaskSpec::new(0, 100.0, gpu_mem / 2).on(Backend::Gpu)];
        for i in 1..4 {
            tasks.push(
                TaskSpec::new(i, 100.0, gpu_mem / 2)
                    .after(TaskId(i - 1), 1 << 10)
                    .on(Backend::Gpu),
            );
        }
        let job = Job::new("hbm-overflow", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&job).unwrap();
        assert!(stats.spills > 0, "outputs should overflow HBM");
        assert_eq!(
            stats.trace.count_category(Category::Spill) as u64,
            stats.spills
        );
        // Tier counters from the caching layer are folded into the sink.
        assert!(stats.metrics.counter_across_labels("tier.put") > 0);
        assert!(stats.metrics.counter_across_labels("tier.evict") > 0);
        // The device pool saw busy time.
        let util = stats.metrics.gauge("device.util").expect("gauge recorded");
        assert!(util.overall_mean() > 0.0);
    }
}

mod table_tests {
    use super::*;
    use crate::executor::Payload;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;
    use std::rc::Rc;
    use table::{Attempt, EcPlacement};

    #[test]
    fn initial_state_depends_on_inputs() {
        let job = Job::new(
            "pair",
            vec![
                TaskSpec::new(0, 1.0, 1),
                TaskSpec::new(1, 1.0, 1).after(TaskId(0), 10),
            ],
        )
        .unwrap();
        let table = TaskTable::new(&job);
        let (free, blocked) = (table.slot_of(TaskId(0)), table.slot_of(TaskId(1)));
        assert_eq!(table[free.unwrap()].state(), TaskState::Ready);
        assert_eq!(table[blocked.unwrap()].state(), TaskState::Blocked);
        assert_eq!(table[blocked.unwrap()].pending_inputs, 1);
        assert_eq!(table.unfinished(), 2);
        assert_eq!(table.slot_of(TaskId(2)), None);
    }

    /// `reset_attempt` must leave nothing of the old attempt behind. The
    /// old attempt is built with *every* field set (the struct literal
    /// has no `..`, so adding a field to `Attempt` fails to compile here
    /// until it is set too), and the fresh one must equal the default.
    #[test]
    fn reset_attempt_leaves_no_attempt_scoped_field_set() {
        let job = Job::new("one", vec![TaskSpec::new(9, 1.0, 1)]).unwrap();
        let mut table = TaskTable::new(&job);
        let s = table.slot_of(TaskId(9)).unwrap();
        let t = Some(SimTime::from_micros(7));
        table[s].at = Attempt {
            node: Some(NodeId(3)),
            ready_at: t,
            started_at: t,
            finished_at: t,
            span: Some(SpanId(4)),
            input_ready_at: t,
            steals: 2,
            staged: Some(vec![(TaskId(1), Rc::new(Payload::from(vec![1])))]),
            exec_result: Some(Ok(Payload::from(vec![2]))),
            object: Some(skadi_store::object::ObjectId(5)),
            value_ready: t,
            durable_ready: t,
            ec: Some(EcPlacement {
                shard_nodes: vec![NodeId(1)],
                size: 8,
                config: EcConfig::RS_4_2,
            }),
            payload: Some(Rc::new(Payload::from(vec![3]))),
        };
        table.set_state(s, TaskState::Finished);
        let old = table.reset_attempt(s);
        assert_eq!(old.node, Some(NodeId(3)), "the old attempt is handed back");
        assert_eq!(table[s].at, Attempt::default());
        assert_eq!((table[s].epoch, table[s].attempts), (1, 1));
        // The state is the caller's to set; the counter follows it.
        assert_eq!(table.unfinished(), 0);
        table.set_state(s, TaskState::Ready);
        assert_eq!(table.unfinished(), 1);
    }

    /// Two runs of one job on one cluster are the same run twice: every
    /// run starts from the world `Cluster::new` builds. Before per-run
    /// state was rebuilt per run the second run reported the *sum* of
    /// both runs' compute, stall, cost, traffic and retries.
    #[test]
    fn back_to_back_runs_report_equal_stats() {
        let topo = presets::small_disagg_cluster();
        let mut tasks = vec![TaskSpec::new(0, 700.0, 1 << 16)];
        for i in 1..8 {
            tasks.push(TaskSpec::new(i, 700.0, 1 << 16).after(TaskId(i - 1), 1 << 16));
        }
        let job = Job::new("chain", tasks).unwrap();
        let plan = FailurePlan::none().kill_and_recover(
            topo.servers()[0],
            SimTime::from_micros(1_500),
            SimTime::from_micros(3_000),
        );
        for plan in [FailurePlan::none(), plan] {
            let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
            let a = c.run_with_failures(&job, &plan).unwrap();
            let first = c.output_manifest();
            let b = c.run_with_failures(&job, &plan).unwrap();
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.compute_total, b.compute_total);
            assert_eq!(a.stall_total, b.stall_total);
            assert_eq!(a.cost_units, b.cost_units);
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.net, b.net);
            assert_eq!(a.retries, b.retries);
            assert_eq!(first, c.output_manifest());
        }
    }

    /// The `TaskId -> slot` mapping must be invisible: a job with
    /// sparse, unordered IDs and its order-preserving dense renumbering
    /// are the same job.
    #[test]
    fn sparse_ids_behave_like_their_dense_renumbering() {
        const BIG: u64 = 1 << 40;
        // (id, producers), deliberately not in ID order.
        let shape: [(u64, &[u64]); 8] = [
            (5, &[]),
            (1000, &[5]),
            (17, &[5, 1000]),
            (BIG, &[17, 42, 99_999]),
            (42, &[3, 1000]),
            (7, &[]),
            (99_999, &[7]),
            (3, &[]),
        ];
        let mut sorted: Vec<u64> = shape.iter().map(|(id, _)| *id).collect();
        sorted.sort();
        let dense = |id: u64| sorted.binary_search(&id).unwrap() as u64;
        let build = |rename: &dyn Fn(u64) -> u64| {
            let tasks = shape
                .iter()
                .map(|(id, deps)| {
                    let spec = TaskSpec::new(rename(*id), 3000.0, 1 << 14).named("op");
                    deps.iter()
                        .fold(spec, |s, d| s.after(TaskId(rename(*d)), 1 << 13))
                })
                .collect();
            Job::new("ids", tasks).unwrap()
        };
        let (sparse_job, dense_job) = (build(&|id| id), build(&dense));

        let topo = presets::small_disagg_cluster();
        // Kill the node task 17 runs on, while it runs (its producers 5
        // and 1000 run back to back first: 3 ms each).
        let mut dry = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        dry.run(&sparse_job).unwrap();
        let kill = FailurePlan::none().kill_and_recover(
            node_of(&dry, 17),
            SimTime::from_millis(7),
            SimTime::from_millis(9),
        );
        let mut retried = false;
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            for plan in [FailurePlan::none(), kill.clone()] {
                let cfg = RuntimeConfig::skadi_gen2()
                    .with_ft(ft)
                    .with_debug_invariants(true);
                let mut sparse = Cluster::new(&topo, cfg.clone());
                let a = sparse.run_with_failures(&sparse_job, &plan).unwrap();
                let mut twin = Cluster::new(&topo, cfg);
                let b = twin.run_with_failures(&dense_job, &plan).unwrap();
                assert_eq!(a.makespan, b.makespan, "{ft:?}");
                assert_eq!(a.net, b.net, "{ft:?}");
                assert_eq!(a.retries, b.retries, "{ft:?}");
                assert_eq!(a.finished, 8, "{ft:?}");
                retried |= a.retries > 0;
                let renumbered: Vec<_> = sparse
                    .output_manifest()
                    .into_iter()
                    .map(|(t, done, bytes)| (TaskId(dense(t.0)), done, bytes))
                    .collect();
                assert_eq!(renumbered, twin.output_manifest(), "{ft:?}");
                assert!(sparse.task_finished_at(TaskId(BIG)).is_some());
            }
        }
        assert!(retried, "the kill plan never hit a running task");
    }
}
