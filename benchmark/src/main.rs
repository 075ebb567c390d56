//! `skadi-benchmark`: wire-to-result latency and a per-layer budget for
//! the Skadi reproduction. See `README.md` beside this package.
//!
//! ```text
//! skadi-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//! skadi-benchmark [--seed N] [--smoke] [--repeat K]               every workload, out/result.json
//! skadi-benchmark compare A.json B.json                           two results side by side
//! skadi-benchmark describe                                        the contents of BENCHMARK.json
//! ```

mod compare;
mod data;
mod json;
mod load;
mod metrics;
mod replay;
mod report;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use load::Fixture;
use metrics::{Workload, END_TO_END, PER_LAYER};

/// The seed used when none is given; results record the one used.
const DEFAULT_SEED: u64 = 20_230_622;
/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Command-line options shared by the modes.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One short round, a tenth of the replay, one set-up.
    pub smoke: bool,
    pub repeat: usize,
    /// Where `result.json` and `trace.json` go: `--out`, else
    /// `SKADI_BENCH_OUT` (which `run.sh` sets), else `benchmark/out`.
    pub out: PathBuf,
    /// Single run: also write the result, with its rounds, here, for the suite.
    pub detail: Option<PathBuf>,
    /// Single traced run: the Chrome trace's path and process id.
    pub trace_file: Option<PathBuf>,
    pub pid: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        out: std::env::var_os("SKADI_BENCH_OUT")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
        detail: None,
        trace_file: None,
        pid: 1,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = number()?,
            "--seconds" => {
                o.seconds = number()?.max(1) as f64;
                seconds_given = true;
            }
            "--trace" => o.trace = number()? != 0,
            "--repeat" => o.repeat = number()?.max(1) as usize,
            "--pid" => o.pid = number()? as usize,
            "--out" => o.out = PathBuf::from(value),
            "--detail" => o.detail = Some(PathBuf::from(value)),
            "--trace-file" => o.trace_file = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.smoke && !seconds_given {
        o.seconds = 1.0;
    }
    Ok(o)
}

/// Rounds a measuring phase of `seconds` is cut into: one per 2.5 s, so
/// that a round holds several cycles of the slowest workload.
fn rounds_for(seconds: f64) -> usize {
    ((seconds / 2.5) as usize).clamp(1, 8)
}

/// One run of one workload. Returns the result line and whether every
/// operation succeeded with the right answer.
fn run_single(w: &'static Workload, o: &Options) -> Result<(Json, bool), String> {
    let repeats = if o.trace || o.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut fixture = None;
    for _ in 0..repeats {
        if let Some(previous) = fixture.take() {
            Fixture::teardown(previous)?;
        }
        let started = Instant::now();
        fixture = Some(Fixture::build(w, o.seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.expect("at least one set-up");

    // A traced run spends half its time on load, for the client's view of
    // latency, and the rest on the replay.
    let load_seconds = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let measured = load::measure(
        &mut fixture,
        w,
        o.seed,
        load_seconds,
        rounds_for(load_seconds),
    );
    let attempted: u64 = measured.rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = measured.rounds.iter().map(|r| r.failed).sum();
    let first_error = measured.rounds.iter().find_map(|r| r.first_error.clone());

    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let mut metrics = Vec::new();
    let mut rounds = Vec::new();
    if o.trace {
        let replayed = match &mut fixture {
            Fixture::Sql(fx) => fx.replay(w, o.seed, o.smoke)?,
            Fixture::Sim(fx) => fx.replay(o.smoke)?,
        };
        let values = report::per_layer(w, &measured, &replayed);
        for ((name, value), def) in values.into_iter().zip(&PER_LAYER) {
            metrics.push((name, metric(value, def.1)));
        }
        let path = match &o.trace_file {
            Some(path) => path.clone(),
            None => o.out.join("trace.json"),
        };
        let document = trace::chrome_document(replayed.recorder.chrome_events(w.name, o.pid));
        write_file(&path, &document.to_string())?;
    } else {
        for (r, def) in report::end_to_end(w, &setup_s, &measured)
            .iter()
            .zip(&END_TO_END)
        {
            metrics.push((r.name, metric(r.value, def.unit)));
            rounds.push((
                r.name,
                Json::Arr(r.rounds.iter().map(|&v| Json::Num(v)).collect()),
            ));
        }
    }
    fixture.teardown()?;

    let correct = failed == 0;
    let mut line = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ];
    let result = Json::obj(line.clone());
    if let Some(path) = &o.detail {
        // The result line, plus what the suite keeps beside it.
        line.push(("rounds", Json::obj(rounds)));
        line.push((
            "first_error",
            first_error.clone().map_or(Json::Null, Json::Str),
        ));
        write_file(path, &Json::obj(line).to_string())?;
    }
    if let Some(e) = first_error {
        eprintln!(
            "{}: {failed} of {attempted} operations failed, first: {e}",
            w.name
        );
    }
    Ok((result, correct))
}

pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build; use benchmark/run.sh or `cargo run --release`"
                .into(),
        );
    }
    match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::describe().pretty());
            Ok(true)
        }
        Some("compare") => match args {
            [_, a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => {
            let o = parse_options(args)?;
            match &o.workload {
                Some(name) => {
                    let w = metrics::workload(name)
                        .ok_or_else(|| format!("unknown workload {name}"))?;
                    let (line, correct) = run_single(w, &o)?;
                    println!("{line}");
                    Ok(correct)
                }
                None => suite::run(&o),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("skadi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_options(&args(&[
            "--workload",
            "local_tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("local_tcp"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = parse_options(&args(&["--smoke"])).unwrap();
        assert_eq!((o.seed, o.seconds, o.smoke), (DEFAULT_SEED, 1.0, true));
        assert!(parse_options(&args(&["--seed"])).is_err());
        assert!(parse_options(&args(&["--seed", "x"])).is_err());
        assert!(parse_options(&args(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn rounds_follow_run_length() {
        assert_eq!(
            [1.0, 4.9, 5.0, 7.5, 15.0, 60.0].map(rounds_for),
            [1, 1, 2, 3, 6, 8]
        );
    }
}
