//! Chaos-schedule fault harness.
//!
//! Property-style fault testing for the runtime: generate a seeded random
//! job (mixed plain tasks, a gang, an actor chain), a seeded random
//! failure schedule (kill/recover cycles, correlated rack loss, straggler
//! windows), run the job under the schedule with the debug invariant
//! checker on, and assert that the run either completes with *exactly*
//! the outputs of a failure-free run or fails with a clean error — never
//! a hang, never silent loss.
//!
//! Every node is fair game — including the first server, which hosts the
//! scheduler at boot. Killing it exercises the control-plane failover
//! path: a surviving server wins the election and reconstructs placement,
//! gang, and ownership state from the raylets. All kills in the standard
//! generator recover, so with a generous retry budget a correct runtime
//! must converge to the failure-free manifest.
//!
//! Two harder generators ride along: [`chaos_plan_permanent`] kills a
//! random subset of nodes *forever* (runs must either still converge or
//! fail cleanly with `TaskAbandoned`/`Stalled` — never hang), and
//! [`chaos_jobs`] produces staggered multi-job workloads so failures land
//! while several jobs share the cluster.
//!
//! Used by `tests/chaos.rs` (the ≥200-schedule property driver) and the
//! `skadi-cli chaos --seed N` replay subcommand.

use skadi_dcsim::rng::DetRng;
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{
    DurableSpec, MemoryBladeSpec, NodeId, ServerSpec, Topology, TopologyBuilder,
};

use crate::cluster::{Cluster, PerJobStats};
use crate::config::{FtMode, RuntimeConfig};
use crate::error::RuntimeError;
use crate::failure::FailurePlan;
use crate::job::{Job, JobStats};
use crate::task::{ActorId, GangId, TaskId, TaskSpec};

/// Outcome of one chaos run, compared against its failure-free twin.
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// The schedule that was injected.
    pub plan: FailurePlan,
    /// Stats from the chaos run.
    pub stats: JobStats,
    /// `(task, finished, output_bytes)` manifest of the failure-free run.
    pub baseline: Vec<(TaskId, bool, u64)>,
    /// Manifest of the chaos run.
    pub chaotic: Vec<(TaskId, bool, u64)>,
}

impl ChaosVerdict {
    /// True when the chaos run produced byte-for-byte the same outputs
    /// as the failure-free run.
    pub fn equivalent(&self) -> bool {
        self.baseline == self.chaotic
    }
}

/// The topology every chaos run uses: two racks of servers + devices,
/// one memory blade, durable storage.
pub fn chaos_topology() -> Topology {
    skadi_dcsim::topology::presets::small_disagg_cluster()
}

/// A chaos topology scaled to an arbitrary server count: racks of 32
/// servers, a memory blade per rack, durable storage. `scaled(10_000)`
/// is the 10k-node cluster the scheduler-core benchmarks drive.
pub fn chaos_topology_scaled(servers: u32) -> Topology {
    const PER_RACK: u32 = 32;
    let servers = servers.max(4);
    let mut b = TopologyBuilder::new();
    let mut left = servers;
    while left > 0 {
        let n = left.min(PER_RACK);
        b = b.rack(|r| {
            r.servers(n, ServerSpec::default());
            r.memory_blade(MemoryBladeSpec::default());
        });
        left -= n;
    }
    b.durable_storage(DurableSpec::default()).build()
}

/// Runtime config for chaos runs: invariant checking on, gang scheduling
/// on, and a retry budget generous enough that any survivable schedule
/// must converge rather than abandon tasks.
pub fn chaos_config(ft: FtMode) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::skadi_gen1()
        .with_ft(ft)
        .with_gang(true)
        .with_debug_invariants(true);
    cfg.max_attempts = 50;
    cfg
}

/// Generates a seeded random job of up to ~30 CPU tasks: a few sources,
/// a fan-out middle layer, one gang (2-4 members), one actor method
/// chain (3-5 calls), and a sink depending on every leaf.
pub fn chaos_job(seed: u64) -> Job {
    let mut rng = DetRng::seed(seed ^ 0x6a6f_625f); // "job_"
    let mut tasks: Vec<TaskSpec> = Vec::new();
    let mut next_id = 0u64;

    // Sources: independent roots.
    let n_sources = rng.range(2, 5);
    for _ in 0..n_sources {
        let spec = TaskSpec::new(
            next_id,
            rng.range(500, 3_000) as f64,
            rng.range(1, 64) << 10,
        )
        .named("chaos.source");
        tasks.push(spec);
        next_id += 1;
    }

    // Fan-out layer: each task reads 1-2 earlier tasks.
    let n_mid = rng.range(4, 11);
    for _ in 0..n_mid {
        let mut spec = TaskSpec::new(
            next_id,
            rng.range(800, 5_000) as f64,
            rng.range(1, 32) << 10,
        )
        .named("chaos.map");
        let deps = rng.range(1, 3) as usize;
        for _ in 0..deps {
            let dep = TaskId(rng.below(next_id));
            spec = spec.after(dep, rng.range(1, 16) << 10);
        }
        tasks.push(spec);
        next_id += 1;
    }

    // One gang: members start together, each reading one earlier task.
    let gang_size = rng.range(2, 5);
    let gang_first = next_id;
    for _ in 0..gang_size {
        let dep = TaskId(rng.below(gang_first));
        let spec = TaskSpec::new(
            next_id,
            rng.range(1_000, 4_000) as f64,
            rng.range(1, 16) << 10,
        )
        .named("chaos.gang")
        .in_gang(GangId(1))
        .after(dep, rng.range(1, 8) << 10);
        tasks.push(spec);
        next_id += 1;
    }

    // One actor chain: serialized methods, each feeding the next.
    let chain = rng.range(3, 6);
    let mut prev: Option<TaskId> = None;
    for _ in 0..chain {
        let mut spec = TaskSpec::new(next_id, rng.range(600, 2_500) as f64, rng.range(1, 8) << 10)
            .named("chaos.actor")
            .on_actor(ActorId(1));
        match prev {
            Some(p) => spec = spec.after(p, rng.range(1, 8) << 10),
            None => {
                let dep = TaskId(rng.below(gang_first));
                spec = spec.after(dep, rng.range(1, 8) << 10);
            }
        }
        prev = Some(TaskId(next_id));
        tasks.push(spec);
        next_id += 1;
    }

    // Sink: depends on every task nothing else consumes.
    let consumed: std::collections::BTreeSet<TaskId> = tasks
        .iter()
        .flat_map(|t| t.inputs.keys().copied())
        .collect();
    let mut sink =
        TaskSpec::new(next_id, rng.range(500, 2_000) as f64, 1 << 10).named("chaos.sink");
    for t in &tasks {
        if !consumed.contains(&t.id) {
            sink = sink.after(t.id, rng.range(1, 8) << 10);
        }
    }
    tasks.push(sink);

    Job::new(&format!("chaos-{seed}"), tasks).expect("generator builds acyclic jobs")
}

/// Generates a seeded random failure schedule against `topo`.
///
/// Every server and memory blade — including the scheduler's boot node —
/// is a candidate victim. 1-3 victims each suffer 1-2 kill/recover
/// cycles; with some probability a whole rack dies and rejoins (scheduled
/// after every per-victim window has closed, so windows never overlap);
/// 0-2 straggler windows slow random nodes. Every kill recovers, so the
/// schedule is survivable by construction — even when the control plane
/// itself goes down and a new scheduler must be elected.
pub fn chaos_plan(topo: &Topology, seed: u64) -> FailurePlan {
    let mut rng = DetRng::seed(seed ^ 0x706c_616e); // "plan"
    let servers = topo.servers();
    let mut pool: Vec<NodeId> = servers.clone();
    pool.extend(topo.memory_blades());

    let mut plan = FailurePlan::none();

    let n_victims = rng.range(1, 4).min(pool.len() as u64);
    rng.shuffle(&mut pool);
    // Injection times target the first few milliseconds: chaos jobs
    // finish in ~1-4 ms of virtual time, so kills must land while tasks
    // are actually in flight to exercise recovery (not after the job).
    for victim in pool.iter().take(n_victims as usize).copied() {
        let cycles = rng.range(1, 3);
        let mut t = rng.range(200, 6_000);
        for _ in 0..cycles {
            let down = rng.range(500, 3_000);
            plan = plan.kill_and_recover(
                victim,
                SimTime::from_micros(t),
                SimTime::from_micros(t + down),
            );
            // Next cycle strikes again after the node has been back a while.
            t += down + rng.range(1_000, 5_000);
        }
    }

    // Correlated rack loss: the whole rack dies and rejoins. Placed
    // strictly after the latest per-victim recovery so it cannot overlap
    // an existing window ([`FailurePlan`] rejects overlapping entries).
    if rng.chance(0.3) {
        let racks: Vec<u16> = (0..topo.rack_count()).collect();
        if !racks.is_empty() {
            let rack = skadi_dcsim::topology::RackId(*rng.pick(&racks));
            let clear = plan
                .failures()
                .iter()
                .filter_map(|f| f.recovers_at)
                .max()
                .unwrap_or(SimTime::ZERO);
            let at = clear + SimDuration::from_micros(rng.range(500, 3_000));
            let down = SimDuration::from_micros(rng.range(1_000, 3_000));
            plan = plan.kill_rack_and_recover(topo, rack, at, at + down);
        }
    }

    // Straggler windows: slow, not dead.
    let n_slow = rng.below(3);
    let all: Vec<NodeId> = servers.into_iter().chain(topo.memory_blades()).collect();
    for _ in 0..n_slow {
        let node = *rng.pick(&all);
        let from = rng.range(0, 6_000);
        let len = rng.range(1_000, 8_000);
        let factor = 1.5 + rng.unit() * 4.5;
        plan = plan.slow(
            node,
            SimTime::from_micros(from),
            SimTime::from_micros(from + len),
            factor,
        );
    }

    plan
}

/// Generates a seeded *permanent-loss* schedule: a random non-empty
/// subset of servers and memory blades dies forever, possibly including
/// the scheduler's boot node and possibly the entire pool.
///
/// Unlike [`chaos_plan`], these schedules are *not* survivable by
/// construction. The property a run must satisfy is weaker and sharper:
/// converge to the failure-free manifest, or fail cleanly with
/// `TaskAbandoned`/`Stalled` — never hang, never return a silently
/// partial `Ok`.
pub fn chaos_plan_permanent(topo: &Topology, seed: u64) -> FailurePlan {
    let mut rng = DetRng::seed(seed ^ 0x7065_726d); // "perm"
    let mut pool: Vec<NodeId> = topo.servers();
    pool.extend(topo.memory_blades());
    rng.shuffle(&mut pool);
    let n_victims = rng.range(1, pool.len() as u64 + 1);

    let mut plan = FailurePlan::none();
    for victim in pool.into_iter().take(n_victims as usize) {
        plan = plan.kill(victim, SimTime::from_micros(rng.range(200, 6_000)));
    }
    plan
}

/// Generates 2-3 seeded jobs with staggered arrivals for multi-job chaos
/// runs ([`Cluster::run_jobs`] under a failure schedule).
///
/// `run_jobs` renumbers task IDs into one combined space but does *not*
/// touch gang or actor IDs, so the generator remaps each job's gangs and
/// actors into a disjoint range — otherwise two jobs' gangs would merge
/// into one bogus barrier.
pub fn chaos_jobs(seed: u64) -> Vec<(Job, SimTime)> {
    let mut rng = DetRng::seed(seed ^ 0x6d6a_6f62); // "mjob"
    let n_jobs = rng.range(2, 4);
    let mut jobs = Vec::new();
    let mut at = 0u64;
    for i in 0..n_jobs {
        let base = chaos_job(seed.wrapping_mul(1_009).wrapping_add(i));
        let specs: Vec<TaskSpec> = base
            .tasks
            .values()
            .cloned()
            .map(|mut spec| {
                spec.gang = spec.gang.map(|g| GangId(g.0 + 100 * i as u32));
                spec.actor = spec.actor.map(|a| ActorId(a.0 + 100 * i));
                spec
            })
            .collect();
        let job = Job::new(&format!("chaos-multi-{seed}-{i}"), specs)
            .expect("remapping ids preserves the DAG");
        jobs.push((job, SimTime::from_micros(at)));
        at += rng.range(300, 2_500);
    }
    jobs
}

/// [`chaos_jobs`] at arbitrary scale: exactly `n_jobs` staggered jobs,
/// gang/actor IDs remapped into disjoint per-job ranges. Used by the
/// scheduler-core benchmarks to keep a thousands-of-nodes cluster busy.
pub fn chaos_jobs_scaled(seed: u64, n_jobs: usize) -> Vec<(Job, SimTime)> {
    let mut rng = DetRng::seed(seed ^ 0x736a_6f62); // "sjob"
    let mut jobs = Vec::new();
    let mut at = 0u64;
    for i in 0..n_jobs as u64 {
        let base = chaos_job(seed.wrapping_mul(1_013).wrapping_add(i));
        let specs: Vec<TaskSpec> = base
            .tasks
            .values()
            .cloned()
            .map(|mut spec| {
                spec.gang = spec.gang.map(|g| GangId(g.0 + 100 * i as u32));
                spec.actor = spec.actor.map(|a| ActorId(a.0 + 100 * i));
                spec
            })
            .collect();
        let job = Job::new(&format!("chaos-scaled-{seed}-{i}"), specs)
            .expect("remapping ids preserves the DAG");
        jobs.push((job, SimTime::from_micros(at)));
        at += rng.range(100, 1_200);
    }
    jobs
}

/// A "regicide" schedule: kill the boot scheduler, then kill the node
/// that just won the election while it is still reconstructing state
/// from the raylets — forcing a failover *of the failover*. Both kills
/// recover, so the schedule is survivable and the run must converge to
/// the failure-free manifest.
///
/// The second strike lands a seeded few microseconds after the election
/// delay expires — inside the window where the new scheduler is pricing
/// per-peer state reports and has not finished reconstruction.
pub fn chaos_plan_regicide(topo: &Topology, cfg: &RuntimeConfig, seed: u64) -> FailurePlan {
    let mut rng = DetRng::seed(seed ^ 0x7265_6769); // "regi"
    let servers = topo.servers();
    assert!(
        servers.len() >= 3,
        "regicide needs at least three servers (two die)"
    );
    // The boot scheduler lives on the first server; with rack-aware
    // election off the lowest-ID survivor inherits the crown.
    let king = servers[0];
    let heir = servers[1];
    let t1 = rng.range(300, 1_500);
    let delay = cfg.election_delay.as_micros();
    // Strike while reconstruction reports are in flight.
    let t2 = t1 + delay + rng.range(1, 150);
    let recover1 = t2 + rng.range(2_000, 6_000);
    let recover2 = recover1 + rng.range(500, 2_000);
    FailurePlan::none()
        .kill_and_recover(
            king,
            SimTime::from_micros(t1),
            SimTime::from_micros(recover1),
        )
        .kill_and_recover(
            heir,
            SimTime::from_micros(t2),
            SimTime::from_micros(recover2),
        )
}

/// Runs seed `seed` under the regicide schedule
/// ([`chaos_plan_regicide`]): failure-free baseline first, then the
/// double-failover run. A correct runtime elects twice and still
/// converges byte-for-byte.
pub fn run_chaos_regicide(seed: u64, ft: FtMode) -> Result<ChaosVerdict, RuntimeError> {
    let topo = chaos_topology();
    let cfg = chaos_config(ft);
    let plan = chaos_plan_regicide(&topo, &cfg, seed);
    run_twin(&topo, cfg, &chaos_job(seed), plan)
}

/// Runs `job` failure-free, then again under `plan` on a fresh cluster,
/// and pairs the two manifests.
fn run_twin(
    topo: &Topology,
    cfg: RuntimeConfig,
    job: &Job,
    plan: FailurePlan,
) -> Result<ChaosVerdict, RuntimeError> {
    let mut calm = Cluster::new(topo, cfg.clone());
    calm.run(job)?;
    let baseline = calm.output_manifest();

    let mut stormy = Cluster::new(topo, cfg);
    let stats = stormy.run_with_failures(job, &plan)?;
    let chaotic = stormy.output_manifest();

    Ok(ChaosVerdict {
        plan,
        stats,
        baseline,
        chaotic,
    })
}

/// [`run_twin`] for staggered multi-job workloads.
fn run_multi_twin(
    topo: &Topology,
    cfg: RuntimeConfig,
    jobs: &[(Job, SimTime)],
    plan: FailurePlan,
) -> Result<MultiChaosVerdict, RuntimeError> {
    let mut calm = Cluster::new(topo, cfg.clone());
    calm.run_jobs(jobs, &FailurePlan::none())?;
    let baseline = calm.output_manifest();

    let mut stormy = Cluster::new(topo, cfg);
    let (per_job, stats) = stormy.run_jobs(jobs, &plan)?;
    let chaotic = stormy.output_manifest();

    Ok(MultiChaosVerdict {
        plan,
        per_job,
        stats,
        baseline,
        chaotic,
    })
}

/// Multi-job chaos on an arbitrary topology: `n_jobs` staggered jobs
/// ([`chaos_jobs_scaled`]) run failure-free, then again under the seeded
/// survivable schedule. `cfg` is caller-supplied so large clusters can
/// turn the O(nodes)-per-event debug invariant checker off.
pub fn run_chaos_multi_scaled(
    topo: &Topology,
    seed: u64,
    n_jobs: usize,
    cfg: RuntimeConfig,
) -> Result<MultiChaosVerdict, RuntimeError> {
    let jobs = chaos_jobs_scaled(seed, n_jobs);
    run_multi_twin(topo, cfg, &jobs, chaos_plan(topo, seed))
}

/// Runs seed `seed` under `ft`: failure-free baseline first, then the
/// chaos schedule on a fresh cluster, with invariant checking on in both.
///
/// Returns `Err` when either run errors (livelock, stall, invariant
/// violation, abandoned task) — the property driver treats any `Err` on a
/// survivable schedule as a bug.
pub fn run_chaos(seed: u64, ft: FtMode) -> Result<ChaosVerdict, RuntimeError> {
    run_chaos_with(seed, ft, false)
}

/// [`run_chaos`] with optional span tracing (used by `skadi-cli chaos`).
pub fn run_chaos_with(seed: u64, ft: FtMode, tracing: bool) -> Result<ChaosVerdict, RuntimeError> {
    let topo = chaos_topology();
    let cfg = chaos_config(ft).with_tracing(tracing);
    run_twin(&topo, cfg, &chaos_job(seed), chaos_plan(&topo, seed))
}

/// Runs seed `seed` under a *permanent-loss* schedule
/// ([`chaos_plan_permanent`]): the failure-free baseline first, then the
/// unrecoverable schedule on a fresh cluster.
///
/// `Ok` means the run survived the loss and its manifest should match the
/// baseline; `Err(TaskAbandoned | Stalled)` is the *expected* clean
/// failure when the schedule destroys needed capacity. Any other error —
/// or a hang — is a runtime bug.
pub fn run_chaos_permanent(seed: u64, ft: FtMode) -> Result<ChaosVerdict, RuntimeError> {
    run_chaos_permanent_with(seed, ft, false)
}

/// [`run_chaos_permanent`] with optional span tracing (`skadi-cli`).
pub fn run_chaos_permanent_with(
    seed: u64,
    ft: FtMode,
    tracing: bool,
) -> Result<ChaosVerdict, RuntimeError> {
    let topo = chaos_topology();
    let cfg = chaos_config(ft).with_tracing(tracing);
    let plan = chaos_plan_permanent(&topo, seed);
    run_twin(&topo, cfg, &chaos_job(seed), plan)
}

/// Outcome of one multi-job chaos run ([`run_chaos_multi`]).
#[derive(Debug, Clone)]
pub struct MultiChaosVerdict {
    /// The schedule that was injected.
    pub plan: FailurePlan,
    /// Per-job completion stats from the chaos run.
    pub per_job: Vec<PerJobStats>,
    /// Combined stats from the chaos run.
    pub stats: JobStats,
    /// Manifest of the failure-free run (combined task-ID space).
    pub baseline: Vec<(TaskId, bool, u64)>,
    /// Manifest of the chaos run.
    pub chaotic: Vec<(TaskId, bool, u64)>,
}

impl MultiChaosVerdict {
    /// True when the chaos run produced byte-for-byte the same outputs
    /// as the failure-free run.
    pub fn equivalent(&self) -> bool {
        self.baseline == self.chaotic
    }
}

/// Runs the seeded multi-job workload ([`chaos_jobs`]) failure-free, then
/// again under the seeded survivable schedule ([`chaos_plan`]) — failures
/// land while several jobs share the cluster, so recovery must not leak
/// state across job boundaries.
pub fn run_chaos_multi(seed: u64, ft: FtMode) -> Result<MultiChaosVerdict, RuntimeError> {
    run_chaos_multi_with(seed, ft, false)
}

/// [`run_chaos_multi`] with optional span tracing (`skadi-cli`).
pub fn run_chaos_multi_with(
    seed: u64,
    ft: FtMode,
    tracing: bool,
) -> Result<MultiChaosVerdict, RuntimeError> {
    let topo = chaos_topology();
    let cfg = chaos_config(ft).with_tracing(tracing);
    run_multi_twin(&topo, cfg, &chaos_jobs(seed), chaos_plan(&topo, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_generator_is_deterministic_and_valid() {
        let a = chaos_job(7);
        let b = chaos_job(7);
        assert_eq!(a, b);
        assert!(a.len() >= 10 && a.len() <= 30, "job size {}", a.len());
        assert!(a.tasks.values().any(|t| t.gang.is_some()));
        assert!(a.tasks.values().any(|t| t.actor.is_some()));
        // Different seed, different job.
        assert_ne!(chaos_job(8), a);
    }

    #[test]
    fn plan_generator_recovers_everything_and_hunts_the_scheduler() {
        let topo = chaos_topology();
        let head = topo.servers()[0];
        let mut head_killed = false;
        for seed in 0..50 {
            let plan = chaos_plan(&topo, seed);
            assert!(
                plan.failures().iter().all(|f| f.recovers_at.is_some()),
                "seed {seed} has an unrecoverable kill"
            );
            head_killed |= plan.failures().iter().any(|f| f.node == head);
            assert_eq!(
                plan,
                chaos_plan(&topo, seed),
                "seed {seed} not deterministic"
            );
        }
        // No safe harbor: the scheduler's boot node must be in the kill
        // pool, or the failover path is never exercised.
        assert!(head_killed, "no seed in 0..50 kills the scheduler node");
    }

    #[test]
    fn permanent_plan_generator_never_recovers() {
        let topo = chaos_topology();
        let pool_size = topo.servers().len() + topo.memory_blades().len();
        let mut total_loss_seen = false;
        for seed in 0..50 {
            let plan = chaos_plan_permanent(&topo, seed);
            assert!(!plan.failures().is_empty(), "seed {seed} kills nobody");
            assert!(
                plan.failures().iter().all(|f| f.recovers_at.is_none()),
                "seed {seed} has a recovering kill in a permanent plan"
            );
            total_loss_seen |= plan.failures().len() == pool_size;
            assert_eq!(
                plan,
                chaos_plan_permanent(&topo, seed),
                "seed {seed} not deterministic"
            );
        }
        assert!(
            total_loss_seen,
            "no seed in 0..50 destroys the whole pool — the stall path is untested"
        );
    }

    #[test]
    fn multi_job_generator_keeps_gangs_and_actors_disjoint() {
        let jobs = chaos_jobs(5);
        assert_eq!(jobs, chaos_jobs(5), "generator not deterministic");
        assert!((2..=3).contains(&jobs.len()), "{} jobs", jobs.len());
        let mut last = SimTime::ZERO;
        let mut gangs_seen: std::collections::BTreeSet<GangId> = Default::default();
        let mut actors_seen: std::collections::BTreeSet<ActorId> = Default::default();
        for (job, at) in &jobs {
            assert!(*at >= last, "arrivals must be non-decreasing");
            last = *at;
            let gangs: std::collections::BTreeSet<GangId> =
                job.tasks.values().filter_map(|t| t.gang).collect();
            let actors: std::collections::BTreeSet<ActorId> =
                job.tasks.values().filter_map(|t| t.actor).collect();
            assert!(!gangs.is_empty() && !actors.is_empty());
            assert!(
                gangs.is_disjoint(&gangs_seen),
                "gang ids collide across jobs: {gangs:?}"
            );
            assert!(
                actors.is_disjoint(&actors_seen),
                "actor ids collide across jobs: {actors:?}"
            );
            gangs_seen.extend(gangs);
            actors_seen.extend(actors);
        }
    }

    #[test]
    fn scaled_topology_packs_racks_of_32() {
        let topo = chaos_topology_scaled(100);
        assert_eq!(topo.servers().len(), 100);
        // 32 + 32 + 32 + 4 server racks, plus the durable rack.
        assert_eq!(topo.memory_blades().len(), 4);
        assert!(topo.durable_storage().is_some());
        // Tiny requests round up to a survivable minimum.
        assert_eq!(chaos_topology_scaled(1).servers().len(), 4);
        // Deterministic: same request, same topology shape.
        assert_eq!(
            chaos_topology_scaled(100).servers(),
            chaos_topology_scaled(100).servers()
        );
    }

    #[test]
    fn scaled_job_generator_honours_count_and_stays_disjoint() {
        let jobs = chaos_jobs_scaled(9, 12);
        assert_eq!(
            jobs,
            chaos_jobs_scaled(9, 12),
            "generator not deterministic"
        );
        assert_eq!(jobs.len(), 12);
        let mut gangs_seen: std::collections::BTreeSet<GangId> = Default::default();
        let mut last = SimTime::ZERO;
        for (job, at) in &jobs {
            assert!(*at >= last, "arrivals must be non-decreasing");
            last = *at;
            let gangs: std::collections::BTreeSet<GangId> =
                job.tasks.values().filter_map(|t| t.gang).collect();
            assert!(
                gangs.is_disjoint(&gangs_seen),
                "gang ids collide across jobs: {gangs:?}"
            );
            gangs_seen.extend(gangs);
        }
    }

    #[test]
    fn regicide_plan_kills_king_then_heir_mid_reconstruction() {
        let topo = chaos_topology();
        let cfg = chaos_config(FtMode::Lineage);
        for seed in 0..20 {
            let plan = chaos_plan_regicide(&topo, &cfg, seed);
            assert_eq!(plan, chaos_plan_regicide(&topo, &cfg, seed));
            let fs = plan.failures();
            assert_eq!(fs.len(), 2);
            let king = fs.iter().find(|f| f.node == topo.servers()[0]).unwrap();
            let heir = fs.iter().find(|f| f.node == topo.servers()[1]).unwrap();
            // The heir dies after its election fires but before the king
            // is back — i.e. while it wears the crown.
            let crowned = king.at + cfg.election_delay;
            assert!(heir.at >= crowned, "heir dies before it is elected");
            assert!(heir.at < king.recovers_at.unwrap());
            assert!(fs.iter().all(|f| f.recovers_at.is_some()));
        }
    }

    #[test]
    fn regicide_run_elects_twice_and_matches_failure_free_run() {
        let v = run_chaos_regicide(3, FtMode::Lineage).expect("survivable schedule");
        assert!(v.equivalent(), "manifests diverged: {:?}", v.plan);
        assert!(
            v.stats.metrics.counter("elections") >= 2,
            "killing the new scheduler must force a second election (got {})",
            v.stats.metrics.counter("elections")
        );
    }

    #[test]
    fn scaled_multi_job_chaos_smoke() {
        let topo = chaos_topology_scaled(48);
        let cfg = chaos_config(FtMode::Lineage).with_debug_invariants(false);
        let v = run_chaos_multi_scaled(&topo, 2, 6, cfg).expect("survivable schedule");
        assert!(v.equivalent(), "manifests diverged: {:?}", v.plan);
        assert_eq!(v.per_job.len(), 6);
    }

    #[test]
    fn chaos_run_matches_failure_free_run() {
        let v = run_chaos(1, FtMode::Lineage).expect("survivable schedule must complete");
        assert!(v.equivalent(), "manifests diverged: {:?}", v.plan);
        assert!(v.baseline.iter().all(|(_, done, _)| *done));
    }

    #[test]
    fn multi_job_chaos_smoke() {
        let v = run_chaos_multi(1, FtMode::Lineage).expect("survivable schedule must complete");
        assert!(v.equivalent(), "manifests diverged: {:?}", v.plan);
        assert_eq!(v.per_job.len(), chaos_jobs(1).len());
    }
}
