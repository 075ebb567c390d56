//! Two results side by side: one row per (end-to-end metric, workload).

use std::path::Path;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The rounds of A or of B spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. `spread` is the wider of the two results' spread
/// between rounds, as a share of the median.
pub fn judge(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worse = if lower_is_better {
        b > a * (1.0 + bound)
    } else {
        b < a * (1.0 - bound)
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The value a result holds for one metric of one workload.
fn value_of(result: &Json, workload: &str, name: &str) -> Option<f64> {
    let metrics = result.get("workloads")?.get(workload)?.get("end_to_end")?;
    metrics.get(name)?.get("value")?.as_f64()
}

/// Spread between the rounds the value was taken from; 0 for a metric
/// that has no rounds.
fn rounds_spread(result: &Json, workload: &str, name: &str) -> f64 {
    let rounds: Vec<f64> = result
        .get("workloads")
        .and_then(|w| w.get(workload)?.get("rounds")?.get(name)?.as_arr())
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    quartile_spread(&rounds)
}

/// Prints the table; true when no row is `worse` or `unresolved`.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("result A has no workloads")?;
    println!(
        "\n{:<16} {:<14} {:>12} {:>12} {:>9} {:>6} {:>7}  verdict",
        "metric", "workload", "A", "B", "B/A", "bound", "spread"
    );
    let mut clean = true;
    for def in &END_TO_END {
        for (workload, _) in workloads {
            let (Some(va), Some(vb)) = (
                value_of(a, workload, def.name),
                value_of(b, workload, def.name),
            ) else {
                println!("{:<16} {:<14} missing from one result", def.name, workload);
                clean = false;
                continue;
            };
            let spread =
                rounds_spread(a, workload, def.name).max(rounds_spread(b, workload, def.name));
            let verdict = judge(va, vb, def.better == "lower", def.bound, spread);
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<16} {:<14} {:>12.4} {:>12.4} {:>9.4} {:>6.2} {:>7.3}  {}",
                def.name,
                workload,
                va,
                vb,
                vb / va,
                def.bound,
                spread,
                verdict.name()
            );
        }
    }
    println!(
        "ratios are B over A; {}",
        if clean {
            "every row ok"
        } else {
            "some rows are not ok"
        }
    );
    Ok(clean)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    compare(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        // Lower is better: slower by the bound is the edge, not over it.
        assert_eq!(judge(100.0, 110.0, true, 0.10, 0.02), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, true, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 50.0, true, 0.10, 0.02), Verdict::Ok);
        // Higher is better.
        assert_eq!(judge(100.0, 89.0, false, 0.10, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.02), Verdict::Ok);
        // Noisy rounds: no verdict either way.
        assert_eq!(judge(100.0, 100.0, true, 0.10, 0.15), Verdict::Unresolved);
        assert_eq!(judge(100.0, 130.0, true, 0.10, 0.15), Verdict::Unresolved);
    }

    #[test]
    fn compares_two_result_documents() {
        let result = |p50: f64, rounds: [f64; 4]| {
            let metrics = END_TO_END.iter().map(|m| {
                let value = if m.name == "request_p50_ms" { p50 } else { 1.0 };
                (m.name, Json::obj([("value", Json::Num(value))]))
            });
            let rounds = Json::Arr(rounds.iter().map(|&r| Json::Num(r)).collect());
            let workload = Json::obj([
                ("end_to_end", Json::obj(metrics)),
                ("rounds", Json::obj([("request_p50_ms", rounds)])),
            ]);
            Json::obj([("workloads", Json::obj([("local_duplex", workload)]))])
        };
        let base = result(2.0, [2.0, 2.01, 1.99, 2.0]);
        assert_eq!(compare(&base, &base), Ok(true));
        assert_eq!(
            compare(&base, &result(3.0, [3.0, 3.0, 3.0, 3.0])),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &result(2.0, [1.0, 2.0, 2.0, 3.0])),
            Ok(false)
        );
        assert!(compare(&Json::Null, &base).is_err());
    }
}
