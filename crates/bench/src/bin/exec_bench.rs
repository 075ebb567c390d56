//! `exec-bench` — micro-benchmarks for the local SQL engine.
//!
//! Usage: `exec-bench [smoke|full|check]`
//!
//! - `smoke` (default): 10k/100k rows, short budgets; rewrites
//!   `BENCH_exec.json` at the repo root (including a 100k-row parallel
//!   scaling sweep).
//! - `full`: adds 1M-row points and longer budgets; also rewrites the
//!   results file. The parallel sweep covers 100k and 1M rows.
//! - `check`: re-measures and exits non-zero if any vectorized kernel
//!   is more than 2x slower than the committed `BENCH_exec.json`, if
//!   the committed `shuffle` query now stores over 1 % more compressed
//!   bytes (sizes are deterministic, so this gate is host-independent), if
//!   the committed parallel section misses the scaling bar its
//!   recording host's core count demands, or if a fresh parallel sweep
//!   on this machine shows the morsel path has stopped scaling (CI
//!   gate).

use std::process::ExitCode;
use std::time::Duration;

use skadi_bench::exec_bench::{
    find_regressions, find_scaling_regressions, find_scaling_regressions_with,
    find_shuffle_regression, host_cores, parse_parallel, parse_results, parse_shuffle, render_json,
    render_parallel_table, render_table, required_speedup, run_parallel_suite, run_suite,
    shuffle_bytes_report, RESULTS_PATH,
};

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    match mode.as_str() {
        "smoke" | "full" => {
            let (sizes, parallel_sizes, budget): (&[usize], &[usize], _) = if mode == "full" {
                (
                    &[10_000, 100_000, 1_000_000],
                    &[100_000, 1_000_000],
                    Duration::from_millis(500),
                )
            } else {
                (&[10_000, 100_000], &[100_000], Duration::from_millis(120))
            };
            let entries = run_suite(sizes, budget);
            print!("{}", render_table(&entries));
            let parallel = run_parallel_suite(parallel_sizes, budget);
            print!("{}", render_parallel_table(&parallel));
            let shuffle = shuffle_bytes_report(if mode == "full" { 100_000 } else { 10_000 });
            println!(
                "shuffle bytes @ {} rows: plain {} compressed {} ({:.1}% of plain)",
                shuffle.rows,
                shuffle.plain_bytes,
                shuffle.compressed_bytes,
                shuffle.ratio() * 100.0
            );
            let json = render_json(&mode, &entries, Some(&shuffle), Some(&parallel));
            if let Err(e) = std::fs::write(RESULTS_PATH, &json) {
                eprintln!("failed to write {RESULTS_PATH}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {RESULTS_PATH}");
            ExitCode::SUCCESS
        }
        "check" => {
            let text = match std::fs::read_to_string(RESULTS_PATH) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {RESULTS_PATH}: {e} (run `exec-bench smoke` first)");
                    return ExitCode::FAILURE;
                }
            };
            let committed = parse_results(&text);
            if committed.is_empty() {
                eprintln!("{RESULTS_PATH} holds no entries");
                return ExitCode::FAILURE;
            }
            let fresh = run_suite(&[10_000, 100_000], Duration::from_millis(120));
            print!("{}", render_table(&fresh));
            let mut problems = find_regressions(&committed, &fresh, 2.0);

            // Size gate: the shuffled bytes of the committed run, measured
            // again at its row count, may not have grown by more than 1 %.
            match parse_shuffle(&text) {
                None => problems.push(format!("{RESULTS_PATH} lacks a \"shuffle\" line")),
                Some((rows, committed_bytes)) => problems.extend(find_shuffle_regression(
                    committed_bytes,
                    &shuffle_bytes_report(rows),
                )),
            }

            // Scaling gates: the committed parallel section must satisfy
            // the bar for the host that recorded it, and a fresh sweep
            // must show the morsel path still overlaps work on *this*
            // host (relaxed bar: 100k rows is only ~7 morsels).
            match parse_parallel(&text) {
                None => problems.push(format!("{RESULTS_PATH} lacks a \"parallel\" section")),
                Some(report) => problems.extend(find_scaling_regressions(&report)),
            }
            let fresh_parallel = run_parallel_suite(&[100_000], Duration::from_millis(120));
            print!("{}", render_parallel_table(&fresh_parallel));
            let relaxed = required_speedup(host_cores().min(2));
            problems.extend(find_scaling_regressions_with(&fresh_parallel, relaxed));

            if problems.is_empty() {
                println!(
                    "bench check OK: no kernel >2x slower than committed baseline, \
                     shuffle bytes within 1%, parallel scaling within bounds"
                );
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
