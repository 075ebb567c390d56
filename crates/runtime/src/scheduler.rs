//! Gang scheduling and device autoscaling (placement policies live in
//! [`crate::placement`]).
//!
//! §2.3: the control plane "if necessary ... could also integrate
//! gang-scheduling to support SPMD-style sub-graph" (citing Pathways);
//! and §1 notes that "the auto-scaling of DSAs is almost non-existent" in
//! today's serverless — so Skadi provides one.

use std::collections::HashMap;

use skadi_dcsim::time::{SimDuration, SimTime};

use crate::config::AutoscaleConfig;
use crate::task::{GangId, TaskId};

/// A gang member reported ready for a gang nobody declared. Releasing
/// it anyway would treat the lone member as "the whole gang" (declared
/// size defaults to zero) — a scheduling bug, not a recoverable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndeclaredGang(pub GangId);

impl std::fmt::Display for UndeclaredGang {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gang {:?} was never declared", self.0)
    }
}

/// Tracks gang membership so gang-labeled tasks release together.
#[derive(Debug, Clone, Default)]
pub struct GangTracker {
    sizes: HashMap<GangId, usize>,
    waiting: HashMap<GangId, Vec<TaskId>>,
    released: std::collections::HashSet<GangId>,
}

impl GangTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        GangTracker::default()
    }

    /// Declares that `gang` has `size` members (called at job submit).
    pub fn declare(&mut self, gang: GangId, size: usize) {
        *self.sizes.entry(gang).or_insert(0) += size;
    }

    /// Records that a gang member became ready. Returns the tasks to
    /// release: the whole gang when this was the last member (they start
    /// together), just this task if the gang already launched once (a
    /// failure re-execution must not wait for peers that will never
    /// re-gather), `None` otherwise. An undeclared gang is an error.
    pub fn member_ready(
        &mut self,
        gang: GangId,
        task: TaskId,
    ) -> Result<Option<Vec<TaskId>>, UndeclaredGang> {
        if self.released.contains(&gang) {
            return Ok(Some(vec![task]));
        }
        let Some(size) = self.sizes.get(&gang).copied() else {
            return Err(UndeclaredGang(gang));
        };
        let waiting = self.waiting.entry(gang).or_default();
        if !waiting.contains(&task) {
            waiting.push(task);
        }
        if waiting.len() >= size {
            let mut all = self.waiting.remove(&gang).unwrap_or_default();
            all.sort();
            self.released.insert(gang);
            Ok(Some(all))
        } else {
            Ok(None)
        }
    }

    /// Members currently waiting in a gang.
    pub fn waiting_in(&self, gang: GangId) -> usize {
        self.waiting.get(&gang).map_or(0, Vec::len)
    }

    /// True once the gang has launched together at least once.
    pub fn has_released(&self, gang: GangId) -> bool {
        self.released.contains(&gang)
    }

    /// Re-arms a gang from scratch (members gather and release together
    /// again). Used when an entire gang is re-submitted; the re-submission
    /// re-declares its members, so the size is forgotten too — `declare`
    /// accumulates, and a stale size would inflate on re-declaration
    /// until the gang can never fill.
    pub fn reset(&mut self, gang: GangId) {
        self.sizes.remove(&gang);
        self.waiting.remove(&gang);
        self.released.remove(&gang);
    }

    /// Marks a gang as already launched without replaying its gather.
    /// Used when a newly elected scheduler rebuilds gang state: members
    /// observed `Dispatched`/`Running`/`Finished` prove the collective
    /// launch happened, so later lone re-executions must release solo.
    pub fn mark_released(&mut self, gang: GangId) {
        self.waiting.remove(&gang);
        self.released.insert(gang);
    }

    /// Forgets a single waiting member (its task was reset by failure
    /// recovery and will report ready again). Unlike [`reset`], peers
    /// already gathered keep waiting and the release latch is untouched.
    ///
    /// [`reset`]: GangTracker::reset
    pub fn remove_waiting(&mut self, gang: GangId, task: TaskId) {
        if let Some(w) = self.waiting.get_mut(&gang) {
            w.retain(|t| *t != task);
            if w.is_empty() {
                self.waiting.remove(&gang);
            }
        }
    }
}

/// One autoscaler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change.
    Hold,
    /// Provision this many more devices (usable after the provision
    /// delay).
    Up(u32),
    /// Retire this many idle devices.
    Down(u32),
}

/// Scales the warm accelerator-device pool with queue depth.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    warm: u32,
    /// Device-microseconds of warm capacity accumulated (the cost the
    /// experiments report).
    warm_device_us: f64,
    last_eval: SimTime,
}

impl Autoscaler {
    /// Creates an autoscaler starting at the minimum pool size.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        Autoscaler {
            warm: cfg.min_devices,
            cfg,
            warm_device_us: 0.0,
            last_eval: SimTime::ZERO,
        }
    }

    /// Devices currently warm.
    pub fn warm(&self) -> u32 {
        self.warm
    }

    /// Accumulated warm device-time in microseconds.
    pub fn warm_device_us(&self) -> f64 {
        self.warm_device_us
    }

    /// The evaluation interval.
    pub fn interval(&self) -> SimDuration {
        self.cfg.interval
    }

    /// The provision delay for newly added devices.
    pub fn provision_delay(&self) -> SimDuration {
        self.cfg.provision_delay
    }

    /// Records that a warm device crashed: the pool shrinks immediately
    /// (the device no longer accrues cost and no longer counts toward
    /// capacity), so the next [`evaluate`] sees the real queue pressure
    /// and can provision a replacement.
    ///
    /// [`evaluate`]: Autoscaler::evaluate
    pub fn device_lost(&mut self, now: SimTime) {
        // Settle cost at the old pool size up to the crash instant.
        let dt = now.saturating_since(self.last_eval);
        self.warm_device_us += self.warm as f64 * dt.as_micros_f64();
        self.last_eval = now;
        self.warm = self.warm.saturating_sub(1);
    }

    /// Rebuilds the autoscaler on a newly elected scheduler node: cost
    /// accrued so far is settled at the old pool size, then the pool is
    /// reset to what the surviving raylets actually report (`warm`
    /// provisioned devices). The cost ledger survives — it models the
    /// bill, not scheduler-resident soft state.
    pub fn resync(&mut self, warm: u32, now: SimTime) {
        let dt = now.saturating_since(self.last_eval);
        self.warm_device_us += self.warm as f64 * dt.as_micros_f64();
        self.last_eval = now;
        self.warm = warm.clamp(self.cfg.min_devices, self.cfg.max_devices);
    }

    /// Re-evaluates at `now` given the accelerator queue depth and the
    /// number of currently busy devices.
    pub fn evaluate(&mut self, now: SimTime, queue: u32, busy: u32) -> ScaleDecision {
        // Accrue cost for the elapsed window at the current pool size.
        let dt = now.saturating_since(self.last_eval);
        self.warm_device_us += self.warm as f64 * dt.as_micros_f64();
        self.last_eval = now;

        let per_device = queue as f64 / self.warm.max(1) as f64;
        if per_device > self.cfg.scale_up_queue && self.warm < self.cfg.max_devices {
            let want = ((queue as f64 / self.cfg.scale_up_queue).ceil() as u32)
                .clamp(self.warm + 1, self.cfg.max_devices);
            let add = want - self.warm;
            self.warm = want;
            ScaleDecision::Up(add)
        } else if queue == 0 && busy < self.warm && self.warm > self.cfg.min_devices {
            let idle = self.warm - busy;
            let drop = idle.min(self.warm - self.cfg.min_devices);
            if drop > 0 {
                self.warm -= drop;
                ScaleDecision::Down(drop)
            } else {
                ScaleDecision::Hold
            }
        } else {
            ScaleDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gang_releases_when_complete() {
        let mut g = GangTracker::new();
        let gang = GangId(1);
        g.declare(gang, 3);
        assert!(g.member_ready(gang, TaskId(5)).unwrap().is_none());
        assert!(g.member_ready(gang, TaskId(3)).unwrap().is_none());
        assert_eq!(g.waiting_in(gang), 2);
        let all = g.member_ready(gang, TaskId(8)).unwrap().unwrap();
        assert_eq!(all, vec![TaskId(3), TaskId(5), TaskId(8)]);
        assert_eq!(g.waiting_in(gang), 0);
    }

    #[test]
    fn gang_reset_rearms() {
        let mut g = GangTracker::new();
        let gang = GangId(2);
        g.declare(gang, 2);
        g.member_ready(gang, TaskId(0)).unwrap();
        g.reset(gang);
        // A reset gang is undeclared until the re-submission declares it.
        g.declare(gang, 2);
        assert!(g.member_ready(gang, TaskId(0)).unwrap().is_none());
        assert!(g.member_ready(gang, TaskId(1)).unwrap().is_some());
    }

    #[test]
    fn gang_resubmission_redeclares_from_zero() {
        // Regression: `declare` accumulates (one call per member at job
        // submit) but `reset` used to keep the old size, so a re-declared
        // gang doubled its threshold and could never fill again.
        let mut g = GangTracker::new();
        let gang = GangId(7);
        g.declare(gang, 1);
        g.declare(gang, 1);
        g.member_ready(gang, TaskId(0)).unwrap();
        g.member_ready(gang, TaskId(1)).unwrap().expect("released");
        g.reset(gang);
        g.declare(gang, 1);
        g.declare(gang, 1);
        assert!(g.member_ready(gang, TaskId(0)).unwrap().is_none());
        let all = g
            .member_ready(gang, TaskId(1))
            .unwrap()
            .expect("re-declared gang of 2 releases at 2 members");
        assert_eq!(all, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn undeclared_gang_is_an_error() {
        // Regression: an undeclared gang's size defaulted to 0, so the
        // first member to report was released alone as "the whole gang".
        let mut g = GangTracker::new();
        assert_eq!(
            g.member_ready(GangId(9), TaskId(0)),
            Err(UndeclaredGang(GangId(9)))
        );
        assert_eq!(g.waiting_in(GangId(9)), 0);
    }

    #[test]
    fn gang_member_ready_dedups() {
        let mut g = GangTracker::new();
        let gang = GangId(3);
        g.declare(gang, 2);
        // The same member reporting twice must not fill the gang.
        assert!(g.member_ready(gang, TaskId(0)).unwrap().is_none());
        assert!(g.member_ready(gang, TaskId(0)).unwrap().is_none());
        assert_eq!(g.waiting_in(gang), 1);
        assert!(g.member_ready(gang, TaskId(1)).unwrap().is_some());
    }

    #[test]
    fn gang_released_members_restart_solo() {
        // Regression: after a gang launched, a single member reset by
        // failure recovery used to wait forever for peers that will never
        // re-gather.
        let mut g = GangTracker::new();
        let gang = GangId(4);
        g.declare(gang, 2);
        g.member_ready(gang, TaskId(0)).unwrap();
        let all = g.member_ready(gang, TaskId(1)).unwrap().unwrap();
        assert_eq!(all.len(), 2);
        assert!(g.has_released(gang));
        // One member re-runs after a node failure: it releases alone.
        assert_eq!(g.member_ready(gang, TaskId(1)), Ok(Some(vec![TaskId(1)])));
    }

    #[test]
    fn gang_mark_released_skips_the_gather() {
        // A newly elected scheduler infers launched gangs from member
        // states; re-reported members then release solo.
        let mut g = GangTracker::new();
        let gang = GangId(6);
        g.declare(gang, 3);
        g.mark_released(gang);
        assert!(g.has_released(gang));
        assert_eq!(g.member_ready(gang, TaskId(2)), Ok(Some(vec![TaskId(2)])));
    }

    #[test]
    fn gang_remove_waiting_keeps_peers() {
        let mut g = GangTracker::new();
        let gang = GangId(5);
        g.declare(gang, 3);
        g.member_ready(gang, TaskId(0)).unwrap();
        g.member_ready(gang, TaskId(1)).unwrap();
        // Member 1 is reset by recovery; member 0 keeps waiting.
        g.remove_waiting(gang, TaskId(1));
        assert_eq!(g.waiting_in(gang), 1);
        assert!(g.member_ready(gang, TaskId(1)).unwrap().is_none());
        assert!(g.member_ready(gang, TaskId(2)).unwrap().is_some());
    }

    #[test]
    fn autoscaler_sheds_lost_devices() {
        let cfg = AutoscaleConfig {
            min_devices: 1,
            max_devices: 8,
            scale_up_queue: 2.0,
            interval: SimDuration::from_millis(10),
            provision_delay: SimDuration::from_millis(50),
        };
        let mut a = Autoscaler::new(cfg);
        a.evaluate(SimTime::from_millis(10), 100, 1);
        let before = a.warm();
        assert!(before > 1);
        a.device_lost(SimTime::from_millis(15));
        assert_eq!(a.warm(), before - 1);
        // With the pool shrunk, sustained queue pressure provisions a
        // replacement instead of holding.
        match a.evaluate(SimTime::from_millis(20), 100, a.warm()) {
            ScaleDecision::Up(n) => assert!(n >= 1),
            other => panic!("expected Up after device loss, got {other:?}"),
        }
    }

    #[test]
    fn autoscaler_scales_up_under_pressure() {
        let mut a = Autoscaler::new(AutoscaleConfig {
            min_devices: 1,
            max_devices: 8,
            scale_up_queue: 2.0,
            interval: SimDuration::from_millis(10),
            provision_delay: SimDuration::from_millis(50),
        });
        match a.evaluate(SimTime::from_millis(10), 10, 1) {
            ScaleDecision::Up(n) => assert!(n >= 1),
            other => panic!("expected Up, got {other:?}"),
        }
        assert!(a.warm() > 1);
    }

    #[test]
    fn autoscaler_respects_max_and_min() {
        let cfg = AutoscaleConfig {
            min_devices: 2,
            max_devices: 4,
            scale_up_queue: 1.0,
            interval: SimDuration::from_millis(10),
            provision_delay: SimDuration::from_millis(50),
        };
        let mut a = Autoscaler::new(cfg);
        a.evaluate(SimTime::from_millis(10), 100, 2);
        assert_eq!(a.warm(), 4);
        // Queue drains: scale back down, but never below min.
        a.evaluate(SimTime::from_millis(20), 0, 0);
        assert_eq!(a.warm(), 2);
        assert!(matches!(
            a.evaluate(SimTime::from_millis(30), 0, 0),
            ScaleDecision::Hold
        ));
    }

    #[test]
    fn autoscaler_resync_keeps_the_bill() {
        let cfg = AutoscaleConfig {
            min_devices: 1,
            max_devices: 8,
            scale_up_queue: 2.0,
            interval: SimDuration::from_millis(10),
            provision_delay: SimDuration::from_millis(50),
        };
        let mut a = Autoscaler::new(cfg);
        a.evaluate(SimTime::from_millis(10), 100, 1);
        let before_warm = a.warm();
        assert!(before_warm > 1);
        // A failover rebuilds the pool from what raylets report (here: 2
        // provisioned devices); accrued cost is settled, not discarded.
        a.resync(2, SimTime::from_millis(20));
        assert_eq!(a.warm(), 2);
        let billed = a.warm_device_us();
        assert!(billed >= before_warm as f64 * 10_000.0 - 1.0);
        // Bounds still hold.
        a.resync(0, SimTime::from_millis(21));
        assert_eq!(a.warm(), cfg.min_devices);
        a.resync(99, SimTime::from_millis(22));
        assert_eq!(a.warm(), cfg.max_devices);
    }

    #[test]
    fn autoscaler_accrues_cost() {
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        a.evaluate(SimTime::from_millis(10), 0, 0);
        let c1 = a.warm_device_us();
        a.evaluate(SimTime::from_millis(20), 0, 0);
        assert!(a.warm_device_us() > c1);
        // 1 device x 10 ms = 10_000 device-us per window.
        assert!((a.warm_device_us() - 20_000.0).abs() < 1.0);
    }
}
