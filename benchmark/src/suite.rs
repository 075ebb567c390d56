//! Every workload, one after another: the one command that prints every
//! metric and writes `out/result.json` and `out/trace.json`.
//!
//! Each workload runs twice in a process of its own, untraced for the
//! end-to-end metrics and traced for the per-layer ones, exactly as the
//! driver runs it; a process per run keeps `peak_rss_mb` the workload's
//! own.

use std::path::Path;
use std::process::Command;

use crate::compare;
use crate::json::Json;
use crate::load::POOL_THREADS;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{write_file, Options};

/// What the build script recorded.
const RUSTC_VERSION: &str = env!("SKADI_BENCH_RUSTC");

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs this program again for one workload and returns what it wrote
/// to its `--detail` file.
fn child(o: &Options, workload: &str, trace: bool, pid: usize) -> Result<Json, String> {
    let detail = o
        .out
        .join(format!("detail-{workload}-{}.json", u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &o.seed.to_string()])
    .args(["--seconds", &o.seconds.to_string()])
    .args(["--pid", &pid.to_string()])
    .arg("--detail")
    .arg(&detail)
    .arg("--trace-file")
    .arg(o.out.join(format!("trace-{workload}.json")));
    if o.smoke {
        cmd.arg("--smoke");
    }
    // The child's result line is for the driver; the suite reads the file.
    let output = cmd.output().map_err(|e| format!("run {workload}: {e}"))?;
    let text = std::fs::read_to_string(&detail).map_err(|_| {
        format!(
            "{workload} (trace {}) wrote no result: {}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let _ = std::fs::remove_file(&detail);
    Json::parse(&text)
}

/// Runs every workload once and returns the result document.
fn run_once(o: &Options) -> Result<Json, String> {
    let mut workloads = Vec::new();
    let mut events = Vec::new();
    for (pid, w) in WORKLOADS.iter().enumerate() {
        let untraced = child(o, w.name, false, pid + 1)?;
        let traced = child(o, w.name, true, pid + 1)?;
        let part = o.out.join(format!("trace-{}.json", w.name));
        let trace = std::fs::read_to_string(&part)
            .map_err(|e| format!("read {}: {e}", part.display()))
            .and_then(|t| Json::parse(&t))?;
        events.extend_from_slice(
            trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap_or_default(),
        );
        let _ = std::fs::remove_file(&part);

        println!("\n{} — {}", w.name, w.why);
        let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        for (doc, label) in [(&untraced, "end to end"), (&traced, "per layer")] {
            println!(
                "  {label}: {} attempted, {} failed, correct {}",
                field(doc, "attempted"),
                field(doc, "failed"),
                field(doc, "correct")
            );
            for (name, m) in doc
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("    {name:<30} {value:>14.4} {unit}");
            }
        }
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                (
                    "correct",
                    Json::Bool(correct(&untraced) && correct(&traced)),
                ),
                ("attempted", field(&untraced, "attempted")),
                ("failed", field(&untraced, "failed")),
                ("first_error", field(&untraced, "first_error")),
                ("end_to_end", field(&untraced, "metrics")),
                ("rounds", field(&untraced, "rounds")),
                ("per_layer", field(&traced, "metrics")),
            ]),
        ));
    }
    write_file(
        &o.out.join("trace.json"),
        &crate::trace::chrome_document(events).to_string(),
    )?;
    let bounds = END_TO_END.iter().map(|m| (m.name, Json::Num(m.bound)));
    Ok(Json::obj([
        (
            "header",
            Json::obj([
                ("seed", Json::Num(o.seed as f64)),
                ("run_seconds", Json::Num(o.seconds)),
                ("smoke", Json::Bool(o.smoke)),
                ("host_cores", Json::Num(host_cores() as f64)),
                ("pool_threads", Json::Num(POOL_THREADS as f64)),
                ("rustc", Json::str(RUSTC_VERSION)),
                ("build", Json::str("release")),
                ("end_to_end_metrics", Json::Num(END_TO_END.len() as f64)),
                ("per_layer_metrics", Json::Num(PER_LAYER.len() as f64)),
            ]),
        ),
        ("bounds", Json::obj(bounds)),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn correct(doc: &Json) -> bool {
    doc.get("correct") == Some(&Json::Bool(true))
}

fn all_correct(result: &Json) -> bool {
    result
        .get("workloads")
        .and_then(Json::as_obj)
        .is_some_and(|ws| ws.iter().all(|(_, w)| correct(w)))
}

fn save(path: &Path, result: &Json) -> Result<(), String> {
    write_file(path, &result.pretty())?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The suite. With `--repeat 2` it runs twice and compares the two.
pub fn run(o: &Options) -> Result<bool, String> {
    println!(
        "skadi-benchmark: seed {}, {} s per run, {} host cores, {}{}",
        o.seed,
        o.seconds,
        host_cores(),
        RUSTC_VERSION,
        if o.smoke { ", smoke" } else { "" }
    );
    let mut results = Vec::new();
    for n in 1..=o.repeat {
        let result = run_once(o)?;
        if o.repeat > 1 {
            save(&o.out.join(format!("result-{n}.json")), &result)?;
        }
        results.push(result);
    }
    let last = results.last().expect("repeat is at least 1");
    save(&o.out.join("result.json"), last)?;
    let mut ok = results.iter().all(all_correct);
    if let [.., a, b] = &results[..] {
        ok &= compare::compare(a, b)?;
    }
    Ok(ok)
}
