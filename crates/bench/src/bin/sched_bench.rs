//! `sched-bench` — scheduler-core benchmarks at 10k-node scale.
//!
//! Usage: `sched-bench [smoke|full|check]`
//!
//! - `smoke` (default): short event budgets; rewrites `BENCH_sched.json`
//!   at the repo root (queue events/sec at 100/1k/10k nodes, per-policy
//!   static-vs-adaptive makespans, multi-job chaos at every scale).
//! - `full`: longer event budgets and more staggered jobs; also
//!   rewrites the results file.
//! - `check`: gates the committed `BENCH_sched.json` — the calendar
//!   queue must hold ≥5x events/sec over the heap baseline at 10k
//!   nodes, adaptive lowering must beat static under every policy, and
//!   every recorded chaos run (including the 10k-node one) must have
//!   converged — then re-measures the policy suite (deterministic, so
//!   the committed rows must equal it) and a relaxed 10k-node queue
//!   point on this host (CI gate).

use std::process::ExitCode;

use skadi_bench::sched_bench::{
    find_committed_problems, parse_results, render_json, render_table, run_policy_suite,
    run_queue_suite, run_scale_suite, SchedResults, NODE_COUNTS, RESULTS_PATH,
};

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    match mode.as_str() {
        "smoke" | "full" => {
            let (events_per_node, jobs) = if mode == "full" { (40, 8) } else { (10, 4) };
            let results = SchedResults {
                queue: run_queue_suite(&NODE_COUNTS, events_per_node),
                policies: run_policy_suite(),
                scale: run_scale_suite(&NODE_COUNTS, jobs),
            };
            print!("{}", render_table(&results));
            let problems = find_committed_problems(&results);
            for p in &problems {
                eprintln!("WARNING: fresh run misses a gate: {p}");
            }
            let json = render_json(&mode, &results.queue, &results.policies, &results.scale);
            if let Err(e) = std::fs::write(RESULTS_PATH, &json) {
                eprintln!("failed to write {RESULTS_PATH}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {RESULTS_PATH}");
            if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "check" => {
            let text = match std::fs::read_to_string(RESULTS_PATH) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {RESULTS_PATH}: {e} (run `sched-bench smoke` first)");
                    return ExitCode::FAILURE;
                }
            };
            let committed = parse_results(&text);
            print!("{}", render_table(&committed));
            let mut problems = find_committed_problems(&committed);

            // Fresh re-measures on this host. The policy suite is pure
            // simulation (deterministic makespans), so it must pass the
            // same strict gate and equal the committed rows; the queue
            // point is wall-clock, so CI hardware gets a relaxed 2x bar
            // instead of the committed 5x.
            let fresh_policies = run_policy_suite();
            if fresh_policies != committed.policies {
                problems.push(format!(
                    "policy rows: committed {:?}, fresh {fresh_policies:?}",
                    committed.policies
                ));
            }
            for p in &fresh_policies {
                if p.adaptive_us >= p.static_us {
                    problems.push(format!(
                        "fresh policy {}: adaptive makespan {}us did not beat static {}us",
                        p.policy, p.adaptive_us, p.static_us
                    ));
                }
            }
            let fresh_queue = run_queue_suite(&[10_000], 5);
            let q = &fresh_queue[0];
            println!(
                "fresh queue @ 10k nodes: heap {} eps, calendar {} eps ({:.2}x)",
                q.heap_eps,
                q.calendar_eps,
                q.speedup()
            );
            if q.speedup() < 2.0 {
                problems.push(format!(
                    "fresh queue @ 10k nodes: calendar only {:.2}x the heap baseline, need 2x",
                    q.speedup()
                ));
            }

            if problems.is_empty() {
                println!("sched-bench check OK: queue, policy, and scale gates all hold");
                ExitCode::SUCCESS
            } else {
                for p in &problems {
                    eprintln!("REGRESSION: {p}");
                }
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown mode {other:?}; expected smoke|full|check");
            ExitCode::FAILURE
        }
    }
}
