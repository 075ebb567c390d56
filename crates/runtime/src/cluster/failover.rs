//! Control-plane failover: electing a new scheduler and rebuilding its
//! state from the surviving raylets.

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::span::Category;
use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::NodeId;
use skadi_ir::Backend;

use super::send::{Carry, Rec, Tally, UNTRACED};
use super::{Cluster, Event};
use crate::scheduler::GangTracker;
use crate::task::TaskState;

/// Serialized size of one state row in a failover re-report.
const ROW_REPORT_BYTES: u64 = 48;

/// Rows per message in a batched failover re-report.
const ROWS_PER_REPORT_MSG: u64 = 128;

impl Cluster {
    /// Holds the scheduler election: the lowest-numbered surviving
    /// server wins, reconstructs control-plane state by querying every
    /// surviving raylet (placement facts, gang membership, task
    /// completions, and the ownership rows the dead node hosted — each
    /// query a priced round trip), then re-drives every parked readiness
    /// notification once reconstruction completes.
    pub(super) fn on_elect(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        if self.scheduler_alive {
            // Stale: a previous election already installed a leader (or
            // the same node failed and recovered between schedulings).
            return;
        }
        // Winner choice: by default the lowest-numbered surviving server.
        // With `rack_aware_election`, prefer a candidate in the
        // least-impacted rack (fewest failed nodes) — a rack already
        // absorbing failures is a bad home for the control plane — with
        // the node ID as the deterministic tie-break.
        let survivors = self.nodes.alive(Backend::Cpu);
        let winner = if self.cfg.rack_aware_election {
            let mut failed_per_rack = vec![0u32; self.topo.rack_count() as usize];
            for n in self.nodes.failed() {
                failed_per_rack[self.topo.rack_of(n).0 as usize] += 1;
            }
            let rack_failures = |n: &NodeId| failed_per_rack[self.topo.rack_of(*n).0 as usize];
            survivors
                .iter()
                .copied()
                .min_by_key(|n| (rack_failures(n), *n))
        } else {
            survivors.first().copied()
        };
        let Some(winner) = winner else {
            // No server survives. If one is scheduled to rejoin, hold the
            // election then; otherwise the cluster stays headless and the
            // run ends in a clean `Stalled`/`TaskAbandoned`.
            let servers = self.nodes.all(Backend::Cpu);
            if let Some(at) = self.active_plan.next_recovery_of(servers, now) {
                queue.schedule_at(at, Event::Elect);
            }
            return;
        };
        let old = self.scheduler_node;
        self.scheduler_node = winner;
        self.scheduler_alive = true;
        self.metrics.bump("elections");

        // Reconstruction cost: one query per surviving peer raylet,
        // answered by a state re-report *sized by what the peer actually
        // holds* — the ownership rows listing it as a holder plus its
        // cached objects and bytes — rather than a flat round trip. An
        // empty node answers with a single message; a node holding
        // gigabytes of shuffle state streams a batched report. The new
        // scheduler is fully up once the last report lands.
        let mut n_peers = 0usize;
        let mut done = now;
        let mut reconstruct_msgs: u64 = 0;
        for p in (0..self.topo.len() as u32).map(NodeId) {
            if p == winner || self.nodes[p].failed() {
                continue;
            }
            n_peers += 1;
            let query = self.send(now, (winner, p), Carry::Control, Tally::Net, UNTRACED);
            let store = self.cache.store(p);
            let rows = self.own.rows_located_on(p) as u64 + store.len() as u64;
            // Serialized report: ~48 bytes per row, plus a per-MiB
            // digest of the cached payload bytes.
            let report_bytes = (rows * ROW_REPORT_BYTES + store.used() / (1 << 20)).max(1);
            let report = Carry::Bytes(report_bytes);
            let response = self.send(query, (p, winner), report, Tally::Net, UNTRACED);
            // One query, then one message per report batch.
            reconstruct_msgs += 1 + 1 + rows / ROWS_PER_REPORT_MSG;
            done = done.max(response);
        }
        self.metrics
            .add("failover_reconstruct_msgs", reconstruct_msgs);

        // Ownership rows the dead node hosted re-register under the
        // winner (their holders re-report them during reconstruction).
        let rehomed = self.own.rehome_owner(old, winner);
        self.metrics
            .add("failover_rehomed_rows", rehomed.len() as u64);

        // Placement state survives the failover: the strategy cursor is
        // tiny scheduler metadata the peers replicate, so the rotation
        // resumes where the dead scheduler stopped instead of re-placing
        // from the start (double-placing under round-robin).
        self.placer.rebuild_for_failover();
        // The autoscaler resumes from what the surviving raylets report
        // as the provisioned pool; the cost ledger carries over.
        let provisioned = self.provisioned().count() as u32;
        if let Some(s) = self.autoscaler.as_mut() {
            s.resync(provisioned, now);
        }
        // Gang membership: re-declare from the specs; gangs with members
        // already dispatched provably launched, so their release latch is
        // restored and lone re-executions will not wait for peers.
        if self.cfg.gang_scheduling {
            let mut rebuilt = GangTracker::new();
            for (_, r) in self.tasks.iter() {
                let Some(g) = r.spec.gang else { continue };
                rebuilt.declare(g, 1);
                if r.resident() || r.state() == TaskState::Finished {
                    rebuilt.mark_released(g);
                }
            }
            self.gangs = rebuilt;
        }

        self.trace(now, done, |c| {
            Rec::new("elect", "scheduler", Category::Election, c.job_root)
                .attr("winner", c.node_label(winner))
                .attr("rehomed_rows", rehomed.len())
                .attr("peers", n_peers)
        });

        // Re-drive every parked readiness notification at reconstruction
        // completion (gang gating dedups members already gathered).
        for (t, r) in self.tasks.iter() {
            if r.state() == TaskState::Ready {
                queue.schedule_at(done, Event::Ready(t, r.epoch));
            }
        }
    }
}
