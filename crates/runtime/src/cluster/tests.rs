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

    /// The placer's cursor is scheduler metadata the peers replicate: an
    /// election leaves it exactly where the dead scheduler left it, under
    /// every policy, and the next round-robin placement takes the next
    /// node of the rotation.
    #[test]
    fn failover_resumes_the_placement_cursor() {
        use crate::placement::PlacementPolicy;

        let topo = presets::small_disagg_cluster();
        let job = fanout_job(12, 500.0, 1 << 12);
        let head = topo.servers()[0];
        let plan = FailurePlan::none().kill_and_recover(
            head,
            SimTime::from_micros(700),
            SimTime::from_micros(2_500),
        );
        for policy in PlacementPolicy::ALL {
            let cfg = RuntimeConfig::skadi_gen2().with_placement(policy);
            let mut c = Cluster::new(&topo, cfg);
            let mut queue = c.start(&job, &plan, &HashMap::new()).unwrap();
            // The cursor the dead scheduler left, once it is dead.
            let mut left: Option<u64> = None;
            let mut elected = false;
            let mut resumed = false;
            while let Some((now, ev)) = queue.pop() {
                let dispatched: BTreeSet<Slot> = c
                    .tasks
                    .iter()
                    .filter(|(_, r)| r.state() == TaskState::Dispatched)
                    .map(|(s, _)| s)
                    .collect();
                let before = c.placer.cursor();
                c.handle(now, ev, &mut queue);
                assert!(c.fatal.is_none(), "{policy}: run failed");
                if !c.scheduler_alive {
                    assert_eq!(*left.get_or_insert(before), c.placer.cursor());
                }
                if matches!(ev, Event::Elect) && c.scheduler_alive && !elected {
                    elected = true;
                    let left = left.expect("the scheduler died before the election");
                    assert_eq!(
                        c.placer.cursor(),
                        left,
                        "{policy}: election moved the cursor"
                    );
                }
                let stepped = c.placer.cursor() != before;
                if policy == PlacementPolicy::RoundRobin && elected && stepped && !resumed {
                    resumed = true;
                    let placed: Vec<Slot> = c
                        .tasks
                        .iter()
                        .filter(|(s, r)| {
                            r.state() == TaskState::Dispatched && !dispatched.contains(s)
                        })
                        .map(|(s, _)| s)
                        .collect();
                    assert_eq!(placed.len(), 1);
                    let eligible = c.nodes.alive(Backend::Cpu);
                    let next = eligible[(before % eligible.len() as u64) as usize];
                    assert_eq!(c.tasks[placed[0]].at.node, Some(next));
                    assert_eq!(c.placer.cursor(), before + 1);
                }
                if c.job_done() {
                    break;
                }
            }
            assert!(elected, "{policy}: no election");
            assert!(c.job_done(), "{policy}: the run did not finish");
            let rotating = matches!(
                policy,
                PlacementPolicy::RoundRobin | PlacementPolicy::LoadAware
            );
            if rotating {
                assert!(
                    left.unwrap() > 0,
                    "{policy}: nothing placed before the kill"
                );
            }
            if policy == PlacementPolicy::RoundRobin {
                assert!(resumed, "nothing placed after the election");
            }
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

    /// A saturated node starts its next task exactly when the earliest
    /// of its running tasks finishes — on a fresh node, and on one a kill
    /// and recovery emptied (the dead attempts' finishes must not linger
    /// in the retry estimate). One 3-slot server (it also hosts the
    /// scheduler) and four independent tasks: one always waits.
    #[test]
    fn a_saturated_node_starts_the_next_task_at_the_earliest_finish() {
        let topo = TopologyBuilder::new()
            .rack(|r| {
                r.servers(
                    1,
                    ServerSpec {
                        cpu_slots: 3,
                        ..ServerSpec::default()
                    },
                );
            })
            .durable_storage(DurableSpec::default())
            .build();
        let server = topo.servers()[0];
        // Descending durations: the earliest finish is not the first start.
        let tasks = (0..4u64)
            .map(|i| TaskSpec::new(i, 4_000.0 - 700.0 * i as f64, 1 << 10))
            .collect();
        let job = Job::new("saturate", tasks).unwrap();
        let kill = FailurePlan::none().kill_and_recover(
            server,
            SimTime::from_millis(1),
            SimTime::from_millis(2),
        );
        for plan in [FailurePlan::none(), kill] {
            let cfg = RuntimeConfig::skadi_gen2().with_debug_invariants(true);
            let mut c = Cluster::new(&topo, cfg);
            let stats = c.run_with_failures(&job, &plan).unwrap();
            assert_eq!(stats.finished, 4);
            let started = |t: u64| c.task_started_at(TaskId(t)).unwrap();
            let last = (0..4).max_by_key(|t| started(*t)).unwrap();
            let earliest = (0..4)
                .filter(|t| *t != last)
                .map(|t| c.task_finished_at(TaskId(t)).unwrap())
                .min()
                .unwrap();
            assert!((0..4).filter(|t| *t != last).all(|t| started(t) < earliest));
            assert_eq!(started(last), earliest, "{:?}", plan.failures());
            if !plan.failures().is_empty() {
                assert!(stats.retries >= 3, "the kill hit the running tasks");
                assert!(started(last) > SimTime::from_millis(2));
            }
        }
    }

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
        let table = TaskTable::new(&job).unwrap();
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
        let mut table = TaskTable::new(&job).unwrap();
        let s = table.slot_of(TaskId(9)).unwrap();
        let t = Some(SimTime::from_micros(7));
        table[s].at = Attempt {
            node: Some(NodeId(3)),
            ready_at: t,
            started_at: t,
            due: t,
            finished_at: t,
            span: Some(SpanId(4)),
            input_ready_at: t,
            steals: 2,
            staged: Some(vec![(TaskId(1), Rc::new(Payload::from(vec![1])))]),
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
        let mut nodes = NodeTable::new(&presets::small_disagg_cluster());
        table.set_state(&mut nodes, s, TaskState::Finished);
        let old = table.reset_attempt(&mut nodes, s);
        assert_eq!(old.node, Some(NodeId(3)), "the old attempt is handed back");
        assert_eq!(table[s].at, Attempt::default());
        assert_eq!((table[s].epoch, table[s].attempts), (1, 1));
        // The state is the caller's to set; the counter follows it.
        assert_eq!(table.unfinished(), 0);
        table.set_state(&mut nodes, s, TaskState::Ready);
        assert_eq!(table.unfinished(), 1);
    }

    /// `n` independent tasks on a one-server topology (16 slots).
    fn occupancy_fixture(n: u64) -> (TaskTable, NodeTable, NodeId) {
        let job = Job::new("occ", (0..n).map(|i| TaskSpec::new(i, 1.0, 1)).collect()).unwrap();
        let topo = presets::server_cluster(1, 1);
        (
            TaskTable::new(&job).unwrap(),
            NodeTable::new(&topo),
            topo.servers()[0],
        )
    }

    /// Dispatches and starts `s` on `node`, due at `due` microseconds.
    fn run_on(table: &mut TaskTable, nodes: &mut NodeTable, s: Slot, node: NodeId, due: u64) {
        table.move_to(nodes, s, node);
        table.set_state(nodes, s, TaskState::Dispatched);
        table[s].at.due = Some(SimTime::from_micros(due));
        table.set_state(nodes, s, TaskState::Running);
    }

    #[test]
    fn a_running_task_holds_a_slot_until_it_leaves() {
        let (mut table, mut nodes, n) = occupancy_fixture(1);
        let s = table.slot_of(TaskId(0)).unwrap();
        let total = nodes[n].slots();
        assert_eq!(
            (total, nodes[n].free_slots(), nodes[n].resident()),
            (16, 16, 0)
        );
        table.move_to(&mut nodes, s, n);
        assert_eq!(nodes[n].resident(), 0, "a ready task is not resident");
        table.set_state(&mut nodes, s, TaskState::Dispatched);
        assert_eq!((nodes[n].resident(), nodes[n].free_slots()), (1, total));
        table[s].at.due = Some(SimTime::from_micros(10));
        table.set_state(&mut nodes, s, TaskState::Running);
        assert_eq!((nodes[n].resident(), nodes[n].free_slots()), (1, total - 1));
        table.set_state(&mut nodes, s, TaskState::Finished);
        assert_eq!((nodes[n].resident(), nodes[n].free_slots()), (0, total));
        assert!(nodes[n].finishes().is_empty());
    }

    #[test]
    fn a_saturated_node_has_no_free_slot() {
        let (mut table, mut nodes, n) = occupancy_fixture(17);
        for (i, s) in table
            .slots()
            .take(16)
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            run_on(&mut table, &mut nodes, s, n, 100 + i as u64);
        }
        assert_eq!((nodes[n].free_slots(), nodes[n].resident()), (0, 16));
        // A seventeenth task may queue on the node but holds no slot.
        let s = table.slot_of(TaskId(16)).unwrap();
        table.move_to(&mut nodes, s, n);
        table.set_state(&mut nodes, s, TaskState::Dispatched);
        assert_eq!((nodes[n].free_slots(), nodes[n].resident()), (0, 17));
    }

    #[test]
    fn slot_free_at_is_the_earliest_running_finish() {
        let (mut table, mut nodes, n) = occupancy_fixture(16);
        let slots: Vec<Slot> = table.slots().collect();
        // Due times descend, so the earliest is the last task started.
        for (i, s) in slots.iter().enumerate() {
            run_on(&mut table, &mut nodes, *s, n, 200 - i as u64);
        }
        let at = |us| SimTime::from_micros(us);
        assert_eq!(nodes[n].slot_free_at(at(0)), at(185));
        assert_eq!(nodes[n].slot_free_at(at(190)), at(190), "never before now");
        // Moving a running task off the node drops its own finish.
        table.reset_attempt(&mut nodes, slots[15]);
        table.set_state(&mut nodes, slots[15], TaskState::Ready);
        assert_eq!(nodes[n].free_slots(), 1);
        assert_eq!(
            nodes[n].slot_free_at(at(7)),
            at(7),
            "a free slot is free now"
        );
        run_on(&mut table, &mut nodes, slots[15], n, 300);
        assert_eq!(nodes[n].slot_free_at(at(0)), at(186));
    }

    /// A steal moves a dispatched task's residency, and only the node
    /// it lands on counts it.
    #[test]
    fn a_steal_moves_the_task_between_nodes() {
        let job = Job::new("steal", vec![TaskSpec::new(0, 1.0, 1)]).unwrap();
        let topo = presets::server_cluster(1, 2);
        let (mut table, mut nodes) = (TaskTable::new(&job).unwrap(), NodeTable::new(&topo));
        let (a, b) = (topo.servers()[0], topo.servers()[1]);
        let s = table.slot_of(TaskId(0)).unwrap();
        table.move_to(&mut nodes, s, a);
        table.set_state(&mut nodes, s, TaskState::Dispatched);
        table.move_to(&mut nodes, s, b);
        assert_eq!((nodes[a].resident(), nodes[b].resident()), (0, 1));
        assert_eq!(table[s].at.node, Some(b));
        table.set_state(&mut nodes, s, TaskState::Failed);
        assert_eq!(nodes[b].resident(), 0);
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

mod mode_tests {
    use super::*;
    use crate::executor::{EdgeSize, LengthOnly, ReadyTask};
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// A diamond whose edges carry different estimates than the outputs
    /// they leave: 0 fans out to 1 and 2, which both feed 3.
    fn diamond() -> Job {
        Job::new(
            "diamond",
            vec![
                TaskSpec::new(0, 400.0, 1 << 16),
                TaskSpec::new(1, 400.0, 1 << 15).after(TaskId(0), 1 << 12),
                TaskSpec::new(2, 400.0, 1 << 14).after(TaskId(0), 1 << 13),
                TaskSpec::new(3, 400.0, 1 << 10)
                    .after(TaskId(1), 1 << 15)
                    .after(TaskId(2), 1 << 11),
            ],
        )
        .unwrap()
    }

    /// Every finished task's payload is its spec's estimates: the output
    /// bytes whole, each consumer's edge estimate per edge, no bytes.
    fn assert_priced_at_estimates(c: &Cluster, job: &Job) {
        for (s, r) in c.tasks.iter() {
            let payload = r.at.payload.as_deref().expect("finished");
            assert!(payload.is_length_only(), "t{}", r.spec.id.0);
            assert_eq!(payload.len(), r.spec.output_bytes, "t{}", r.spec.id.0);
            for &(consumer, estimate) in r.consumers.iter() {
                let id = c.tasks[consumer].spec.id;
                assert_eq!(job.tasks[&id].inputs[&r.spec.id], estimate.bytes);
                assert_eq!(
                    payload.edge_len(id),
                    estimate.bytes,
                    "t{} -> {id}",
                    r.spec.id.0
                );
                assert_eq!(
                    payload.edge_rows(id),
                    Some(estimate.rows),
                    "t{} -> {id}",
                    r.spec.id.0
                );
            }
            assert!(c.task_output(r.spec.id).is_none(), "{s:?}");
            assert!(c.task_payload(r.spec.id).is_none(), "{s:?}");
        }
    }

    /// A run without a data plane goes through the length-only executor
    /// a new cluster installs: nothing reports a measured output.
    #[test]
    fn an_estimate_only_run_reports_no_measured_output() {
        let job = diamond();
        let mut c = Cluster::new(
            &presets::small_disagg_cluster(),
            RuntimeConfig::skadi_gen2(),
        );
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 4);
        assert!(stats.measured_output_bytes.is_empty());
        assert_priced_at_estimates(&c, &job);
    }

    /// A lineage reset drops the attempt's payload and runs the task
    /// through the length-only executor again, which stores the same
    /// estimates, so the retried run prices every edge as before; and
    /// installing `LengthOnly` by hand is the cluster a new one is.
    #[test]
    fn a_lineage_reset_replays_the_length_only_executor_at_the_same_prices() {
        let topo = presets::small_disagg_cluster();
        let mut tasks = vec![TaskSpec::new(0, 700.0, 1 << 16)];
        for i in 1..8 {
            tasks.push(TaskSpec::new(i, 700.0, 1 << 16).after(TaskId(i - 1), 1 << (8 + i)));
        }
        let job = Job::new("chain", tasks).unwrap();
        let plan = FailurePlan::none().kill_and_recover(
            topo.servers()[0],
            SimTime::from_micros(1_500),
            SimTime::from_micros(3_000),
        );
        let cfg = RuntimeConfig::skadi_gen2().with_debug_invariants(true);
        let mut fresh = Cluster::new(&topo, cfg.clone());
        let a = fresh.run_with_failures(&job, &plan).unwrap();
        assert!(a.retries > 0, "the kill never hit a running task");
        assert_priced_at_estimates(&fresh, &job);
        let mut installed = Cluster::new(&topo, cfg);
        installed.set_executor(Box::new(LengthOnly));
        let b = installed.run_with_failures(&job, &plan).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Counts the tasks it runs, storing the estimates like `LengthOnly`.
    struct Counting(Rc<Cell<u32>>);

    impl TaskExecutor for Counting {
        fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
            self.0.set(self.0.get() + 1);
            LengthOnly.execute(task)
        }
    }

    /// A cluster keeps its executor from run to run: an installed one
    /// runs every task of the second run too, and a new cluster's
    /// length-only one stays length-only.
    #[test]
    fn a_reused_cluster_keeps_its_executor() {
        let topo = presets::small_disagg_cluster();
        let job = diamond();
        let calls = Rc::new(Cell::new(0));
        let mut installed = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        installed.set_executor(Box::new(Counting(Rc::clone(&calls))));
        let first = installed.run(&job).unwrap();
        assert_eq!(calls.get(), 4);
        let second = installed.run(&job).unwrap();
        assert_eq!(calls.get(), 8);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));

        let mut fresh = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        for _ in 0..2 {
            let stats = fresh.run(&job).unwrap();
            assert_eq!(format!("{stats:?}"), format!("{first:?}"));
            assert_priced_at_estimates(&fresh, &job);
        }
    }

    /// Four tasks priced by their rows, the last fed by two producers.
    fn per_row_job() -> Job {
        let mut job = Job::new(
            "rows",
            vec![
                TaskSpec::new(0, 7.3, 1 << 10),
                TaskSpec::new(1, 3.1, 1 << 10).after(TaskId(0), 1 << 9),
                TaskSpec::new(2, 5.7, 1 << 10).after(TaskId(0), 1 << 9),
                TaskSpec::new(3, 9.9, 1 << 10)
                    .after(TaskId(1), 1 << 8)
                    .after(TaskId(2), 1 << 8),
            ],
        )
        .unwrap();
        job.planned_rows = [(0, 1_000), (1, 333), (2, 777), (3, 1_001)]
            .map(|(t, rows)| (TaskId(t), rows))
            .into();
        job
    }

    fn ran_us(c: &Cluster, id: TaskId) -> f64 {
        let started = c.task_started_at(id).unwrap();
        c.task_finished_at(id)
            .unwrap()
            .since(started)
            .as_micros_f64()
    }

    /// Under the length-only executor the rows a task's inputs hand it
    /// add up to its planned rows, however they divide among producers,
    /// so a task priced per row runs for exactly its `compute_us`.
    #[test]
    fn length_only_hands_every_task_its_planned_rows() {
        let job = per_row_job();
        let mut c = Cluster::new(
            &presets::small_disagg_cluster(),
            RuntimeConfig::skadi_gen2(),
        );
        c.run(&job).unwrap();
        for (id, spec) in &job.tasks {
            let started = c.task_started_at(*id).unwrap();
            let ran = c.task_finished_at(*id).unwrap().since(started);
            let want = SimDuration::from_secs_f64(spec.compute_us / 1e6);
            assert_eq!(ran, want, "{id}");
        }
    }

    /// Hands every consumer three times the rows the plan gave its edge.
    struct Tripled;

    impl TaskExecutor for Tripled {
        fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
            let triple = |&(c, e): &(TaskId, EdgeSize)| {
                (
                    c,
                    EdgeSize {
                        rows: 3 * e.rows,
                        ..e
                    },
                )
            };
            let edges = task.consumers.iter().map(triple).collect();
            Ok(Payload::length_only(task.output_bytes, edges))
        }
    }

    /// A task's compute beyond its backend's launch scales with the rows
    /// its inputs hand it; a task with no input runs at its plan.
    #[test]
    fn a_task_runs_for_the_rows_it_is_handed() {
        let job = per_row_job();
        let mut c = Cluster::new(
            &presets::small_disagg_cluster(),
            RuntimeConfig::skadi_gen2(),
        );
        c.set_executor(Box::new(Tripled));
        c.run(&job).unwrap();
        let launch = Backend::Cpu.launch_us();
        for (id, spec) in &job.tasks {
            let body = spec.compute_us - launch;
            let want = if spec.inputs.is_empty() {
                spec.compute_us
            } else {
                launch + 3.0 * body
            };
            assert!(
                (ran_us(&c, *id) - want).abs() < 1e-3,
                "{id}: {}",
                ran_us(&c, *id)
            );
        }
    }

    /// Returns bytes alone, listing no consumer.
    struct Unlisted;

    impl TaskExecutor for Unlisted {
        fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
            Ok(Payload::from(vec![0; task.output_bytes as usize]))
        }
    }

    /// A payload that does not say what a per-row consumer reads ends the
    /// run with an internal error instead of pricing rows nobody counted;
    /// a fixed-price consumer reads it whole.
    #[test]
    fn a_per_row_task_reading_an_unlisted_payload_fails_the_run() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        c.set_executor(Box::new(Unlisted));
        match c.run(&per_row_job()) {
            Err(RuntimeError::Internal(e)) => assert!(e.contains("rows"), "{e}"),
            other => panic!("{other:?}"),
        }
        let mut fixed = per_row_job();
        fixed.planned_rows.clear();
        c.run(&fixed).unwrap();
    }

    /// Stores payloads whose edge lengths invert the plan's: an edge
    /// estimated at `b` bytes is measured at `2^30 / b`.
    struct Inverted;

    impl TaskExecutor for Inverted {
        fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
            let invert = |&(c, e): &(TaskId, EdgeSize)| {
                let bytes = (1 << 30) / e.bytes.max(1);
                (c, EdgeSize { bytes, ..e })
            };
            let edges = task.consumers.iter().map(invert).collect();
            Ok(Payload::length_only(task.output_bytes, edges))
        }
    }

    /// Data-centric placement counts the bytes a consumer reads of each
    /// stored payload, not the plan's estimate: with the measured edges
    /// inverted, the consumer follows the input the plan called small.
    #[test]
    fn placement_follows_measured_bytes() {
        let job = Job::new(
            "pair",
            vec![
                TaskSpec::new(0, 100.0, 1 << 20),
                TaskSpec::new(1, 100.0, 1 << 20),
                TaskSpec::new(2, 100.0, 1 << 10)
                    .after(TaskId(0), 1 << 20)
                    .after(TaskId(1), 1 << 10),
            ],
        )
        .unwrap();
        let topo = presets::small_disagg_cluster();
        let cfg = RuntimeConfig::skadi_gen2();
        assert_eq!(cfg.placement, crate::PlacementPolicy::DataCentric);
        let mut planned = Cluster::new(&topo, cfg.clone());
        planned.run(&job).unwrap();
        let (a, b) = (node_of(&planned, 0), node_of(&planned, 1));
        assert_ne!(a, b, "the producers share a node");
        assert_eq!(node_of(&planned, 2), a, "estimates: follows the 1 MiB edge");

        let mut measured = Cluster::new(&topo, cfg);
        measured.set_executor(Box::new(Inverted));
        measured.run(&job).unwrap();
        assert_eq!((node_of(&measured, 0), node_of(&measured, 1)), (a, b));
        assert_eq!(node_of(&measured, 2), b, "measured: follows the 1 MiB edge");
    }

    /// Records the task of every executor call, storing the estimates
    /// like `LengthOnly`.
    struct Recording(Rc<RefCell<Vec<TaskId>>>);

    impl TaskExecutor for Recording {
        fn execute(&mut self, task: &ReadyTask<'_>) -> Result<Payload, String> {
            self.0.borrow_mut().push(task.task);
            LengthOnly.execute(task)
        }
    }

    /// Roots t0 (→ t1) and t2 on different nodes, t2 sized to finish at
    /// the instant t1 does, and t3, a short root whose node goes idle:
    /// t2's `Finish` was scheduled first, so the two same-instant
    /// finishes deliver t2 before t1, out of task-ID order.
    fn same_instant_job(long_us: f64) -> Job {
        Job::new(
            "same-instant",
            vec![
                TaskSpec::new(0, 100.0, 1 << 12),
                TaskSpec::new(1, 200.0, 1 << 12).after(TaskId(0), 1 << 12),
                TaskSpec::new(2, long_us, 1 << 12),
                TaskSpec::new(3, 50.0, 1 << 12),
            ],
        )
        .unwrap()
    }

    /// Tasks in the order their finishes committed: every commit sends
    /// one `notify`, traced under the attempt's umbrella span.
    fn commit_order(trace: &skadi_dcsim::span::Trace) -> Vec<TaskId> {
        let spans = trace.spans();
        let task_of = |id| {
            let umbrella = spans.iter().find(|s| Some(s.id) == id).expect("umbrella");
            let label = umbrella.attr("task").expect("a task span");
            TaskId(label[1..].parse().unwrap())
        };
        let notifies = spans.iter().filter(|s| s.name == "notify");
        notifies.map(|s| task_of(s.parent)).collect()
    }

    /// A task runs once, when its own `Finish` commits: the executor sees
    /// the finished attempts in commit order — not peers finishing at
    /// the same instant run ahead of their own finishes in task-ID order
    /// — and once per committed attempt, a lineage replay included.
    #[test]
    fn a_task_runs_at_its_own_finish() {
        let topo = presets::small_disagg_cluster();
        let cfg = RuntimeConfig::skadi_gen2().with_tracing(true);
        let mut probe = Cluster::new(&topo, cfg.clone());
        probe.run(&same_instant_job(1_000.0)).unwrap();
        let (t1, t2) = (TaskId(1), TaskId(2));
        let end1 = probe.task_finished_at(t1).unwrap();
        let long = end1.saturating_since(probe.task_started_at(t2).unwrap());
        let job = same_instant_job(long.as_nanos() as f64 / 1e3);

        let calm = FailurePlan::none();
        // t3's node dies idle, after t3 finished and before the job ends:
        // its output is a job output, so lineage re-creates it at once.
        let idle = |c: &Cluster| {
            let at = c.task_finished_at(TaskId(3)).unwrap() + SimDuration::from_micros(10);
            FailurePlan::none().kill_and_recover(
                node_of(c, 3),
                at,
                at + SimDuration::from_micros(10),
            )
        };
        let kill = idle(&probe);
        for (plan, retried) in [(&calm, false), (&kill, true)] {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let mut c = Cluster::new(&topo, cfg.clone());
            c.set_executor(Box::new(Recording(Rc::clone(&seen))));
            let stats = c.run_with_failures(&job, plan).unwrap();
            assert_eq!(stats.retries > 0, retried, "{stats:?}");
            let seen = seen.borrow();
            assert_eq!(*seen, commit_order(&stats.trace));
            assert_eq!(seen.len() as u64, stats.finished as u64 + stats.retries);
            // The instant the test is about: two nodes, out of ID order.
            assert_eq!(c.task_finished_at(t1), c.task_finished_at(t2));
            assert_ne!(node_of(&c, 1), node_of(&c, 2));
            let at = |t| seen.iter().position(|s| *s == t).unwrap();
            assert!(at(t2) < at(t1), "{seen:?}");
        }
    }
}
