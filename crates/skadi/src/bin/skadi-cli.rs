//! `skadi-cli` — run SQL against a generated demo dataset, twice:
//! *actually* (the local execution engine computes real answers) and
//! *at scale* (the simulated cluster prices the same query as a
//! distributed job).
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- "SELECT kind, sum(value) FROM events GROUP BY kind"
//! cargo run -p skadi --bin skadi-cli            # runs a demo query set
//! cargo run -p skadi --bin skadi-cli -- trace   # trace the first demo query
//! ```
//!
//! `--distributed` executes each query **through the simulated cluster's
//! data plane** instead of the local engine: the plan is sharded
//! (`--parallelism N`, default 4), every task runs its operator kernel on
//! real record batches, and the answer is collected from the sink task's
//! stored payload — byte-identical to the local engine's. Measured
//! per-shard wall-clock prints beside the simulated pricing:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed --parallelism 8 "SELECT ..."
//! ```
//!
//! `--threads N` (accepted by the default exec path, `--distributed`,
//! and `serve`) sizes the process-wide morsel-execution pool. It changes
//! only wall-clock time: answers, profiles, and simulated pricing are
//! identical at every thread count.
//!
//! `--placement POLICY` selects the scheduler's placement policy
//! (`data-centric`, `load-only`, `round-robin`, `load-aware`,
//! `work-stealing`); `--adaptive` turns on the pilot pass, which re-plans
//! sparse shuffle keys (every join, adaptive or not, builds on its
//! smaller side). Answers are byte-identical under every combination;
//! only the simulated schedule (and pricing) moves:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed --placement load-aware --adaptive "SELECT ..."
//! ```
//!
//! The `trace` subcommand runs the first demo query through the
//! distributed data plane with causal span tracing enabled, writes a Chrome `trace_event` JSON file
//! (open it at <https://ui.perfetto.dev>), and prints the per-job
//! critical-path summary:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- trace my-trace.json
//! ```
//!
//! Prefixing a query with `EXPLAIN ANALYZE` prints the annotated plan
//! tree — per-operator rows/bytes/wall time with per-shard
//! min/median/max and `[SKEW]` flags — instead of the plain timing
//! lines. Works locally, with `--distributed`, and over the wire: a
//! `serve` process on either engine answers it with the same tree, one
//! line per row of a Utf8 column `explain`, which `client` prints:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed "EXPLAIN ANALYZE SELECT ..."
//! cargo run -p skadi --bin skadi-cli -- client --addr 127.0.0.1:4711 "EXPLAIN ANALYZE SELECT ..."
//! ```
//!
//! The per-operator lines (the plain timing lines and the tree alike)
//! come from the query's profile on both engines.
//!
//! The `serve` subcommand opens the native wire-protocol front door: it
//! binds a TCP listener over the demo dataset and serves concurrent
//! client sessions (handshake, streamed result blocks, progress and
//! exception packets, bounded FIFO admission). `client` is the matching
//! native client: it connects, handshakes, runs queries, and prints the
//! reassembled result batches:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- serve --addr 127.0.0.1:4711 [--distributed] [--rows N] [--threads N]
//! cargo run -p skadi --bin skadi-cli -- client --addr 127.0.0.1:4711 "SELECT ..." ...
//! ```
//!
//! The `metrics` subcommand runs the demo query set through the
//! distributed data plane and dumps the merged runtime metrics in
//! Prometheus text exposition format (counters, and histograms as
//! summaries with p50/p99 — including the per-query `query_latency`
//! histogram). `--json` dumps the per-query profile artifacts instead;
//! `--check` validates the exposition's line grammar and exits non-zero
//! on violations (the CI gate):
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- metrics [--json | --check] [--parallelism N]
//! ```
//!
//! The `chaos` subcommand replays one seeded schedule from the chaos
//! fault harness (the same generator `tests/chaos.rs` drives) with
//! tracing on, prints the injected schedule and the verdict, and writes
//! the traced chaos run as Chrome JSON. `--permanent` switches to the
//! unrecoverable-loss generator and `--multi` to the staggered
//! multi-job workload:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- chaos --seed 17 [--ft lineage|repl|ec] [--permanent | --multi] [out.json]
//! ```

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::schema::{Field, Schema};
use skadi::dcsim::rng::DetRng;
use skadi::flowgraph::profile::OpProfile;
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;

/// Generates the demo `events`/`users` tables (seeded, so every run sees
/// identical data).
fn demo_db(rows: usize) -> MemDb {
    let mut rng = DetRng::seed(2023);
    let kinds = ["click", "view", "purchase", "scroll"];
    let countries = ["DE", "US", "JP", "BR", "IN"];

    let users = 1 + rows / 10;
    let user_ids: Vec<i64> = (0..rows).map(|_| rng.below(users as u64) as i64).collect();
    let kind_col: Vec<&str> = (0..rows).map(|_| *rng.pick(&kinds)).collect();
    let values: Vec<f64> = (0..rows).map(|_| rng.unit() * 10.0).collect();
    let ts: Vec<i64> = (0..rows as i64).collect();

    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("ts", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(user_ids),
            Array::from_i64(ts),
            Array::from_utf8(&kind_col),
            Array::from_f64(values),
        ],
    )
    .expect("demo events build");

    let country_col: Vec<&str> = (0..users).map(|_| *rng.pick(&countries)).collect();
    let ages: Vec<i64> = (0..users).map(|_| 18 + rng.below(60) as i64).collect();
    let users_batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("country", DataType::Utf8, false),
            Field::new("age", DataType::Int64, false),
        ]),
        vec![
            Array::from_i64((0..users as i64).collect()),
            Array::from_utf8(&country_col),
            Array::from_i64(ages),
        ],
    )
    .expect("demo users build");

    MemDb::new()
        .register("events", events)
        .register("users", users_batch)
}

fn run_query(db: &MemDb, session: &Session, sql: &str) {
    println!("sql> {sql}");
    let explain = skadi::frontends::sql::strip_explain_analyze(sql).is_some();
    let (result, profile) = match db.query_profiled(sql) {
        Ok(run) => run,
        Err(e) => {
            println!("!! {e}{}", if explain { "\n" } else { "" });
            return;
        }
    };
    println!("-- answer ({} rows) --", result.num_rows());
    print!("{result}");
    if explain {
        // EXPLAIN ANALYZE: the annotated plan tree replaces the flat
        // timing line.
        print!("{}", profile.render(true));
        println!();
        return;
    }
    // Per-operator wall-clock from the engine's profile. Operator names
    // match the planner's FlowGraph vertices, so this column reads side
    // by side with the simulated pricing below.
    let ops: Vec<String> = profile
        .ops
        .iter()
        .map(|op| {
            let (wall, rows) = (wall_us(op), op.total_rows_out());
            format!("{} {wall:.0}us ({rows} rows)", op.op)
        })
        .collect();
    println!("-- measured locally: {} --", ops.join(", "));
    match session.sql(sql) {
        Ok(report) => {
            println!(
                "-- at cluster scale: {} tasks on {} (cpu {}, gpu {}, fpga {}), makespan {}, {} B moved --\n",
                report.physical_vertices,
                session.topology().summary(),
                report.backends.cpu,
                report.backends.gpu,
                report.backends.fpga,
                report.stats.makespan,
                report.stats.net.network_bytes(),
            );
        }
        Err(e) => println!("!! simulation failed: {e}\n"),
    }
}

/// One query through the distributed data plane: real shard execution
/// inside the simulated cluster, measured shard timings beside the
/// simulated pricing.
fn run_query_distributed(db: &MemDb, session: &Session, sql: &str) {
    println!("sql> {sql}");
    let run = match session.sql_distributed(db, sql) {
        Ok(run) => run,
        Err(e) => {
            println!("!! {e}\n");
            return;
        }
    };
    println!("-- answer ({} rows, distributed) --", run.batch.num_rows());
    print!("{}", run.batch);
    if skadi::frontends::sql::strip_explain_analyze(sql).is_some() {
        // EXPLAIN ANALYZE: the annotated plan tree with per-shard
        // min/median/max and skew flags replaces the flat timing line.
        if let Some(profile) = &run.report.profile {
            print!("{}", profile.render(true));
        }
        println!(
            "-- at cluster scale: {} tasks, makespan {}, {} retries, {} B measured output --\n",
            run.report.physical_vertices,
            run.report.stats.makespan,
            run.report.stats.retries,
            run.report.stats.measured_output_bytes.values().sum::<u64>(),
        );
        return;
    }
    // One entry per operator name, its shards' walls, rows and bytes
    // summed.
    let mut by_op: Vec<(&str, usize, f64, u64, u64)> = Vec::new();
    for op in run.report.profile.iter().flat_map(|p| &p.ops) {
        let (wall, rows, bytes) = (wall_us(op), op.total_rows_out(), op.total_output_bytes());
        match by_op.iter_mut().find(|(name, ..)| *name == op.op) {
            Some((_, shards, w, r, b)) => {
                *shards = (*shards).max(op.shards.len());
                *w += wall;
                *r += rows;
                *b += bytes;
            }
            None => by_op.push((&op.op, op.shards.len(), wall, rows, bytes)),
        }
    }
    let ops: Vec<String> = by_op
        .iter()
        .map(|(op, shards, wall, rows, bytes)| {
            format!("{op} x{shards} {wall:.0}us ({rows} rows, {bytes} B)")
        })
        .collect();
    println!(
        "-- measured shards: {}; {} compressed outputs, {} payloads materialised --",
        ops.join(", "),
        run.data_plane.compressed_outputs,
        run.data_plane.payloads_materialised,
    );
    if run.data_plane.build_swaps() > 0 {
        let swaps = run.data_plane.build_swaps();
        println!("-- {swaps} join shard(s) built on the probe side --");
    }
    if !run.replans.is_empty() {
        let plans: Vec<String> = run
            .replans
            .iter()
            .map(|r| {
                format!(
                    "op {} on '{}': {} -> {} shards",
                    r.vertex, r.key, r.from_shards, r.to_shards
                )
            })
            .collect();
        println!(
            "-- adaptive: {} re-plan(s) [{}] --",
            run.replans.len(),
            plans.join("; "),
        );
    }
    println!(
        "-- at cluster scale: {} tasks, makespan {}, {} retries, {} B measured output --\n",
        run.report.physical_vertices,
        run.report.stats.makespan,
        run.report.stats.retries,
        run.report.stats.measured_output_bytes.values().sum::<u64>(),
    );
}

/// An operator's measured wall-clock, summed over its shards, in µs.
fn wall_us(op: &OpProfile) -> f64 {
    op.shards.iter().map(|s| s.wall_nanos).sum::<u64>() as f64 / 1e3
}

/// Writes a trace artifact; an unwritable path is the user's to fix, so
/// it gets the io error and exit status 1, not a panic.
fn write_trace_file(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("skadi-cli: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `skadi-cli trace [output.json]`: run the first demo query through the
/// distributed data plane with tracing on, export Chrome trace_event
/// JSON, print the critical path.
fn run_trace(out_path: &str) {
    let db = demo_db(10_000);
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(RuntimeConfig::skadi_gen2().with_tracing(true))
        .build();
    let query = &demo_queries()[0];
    let report = session
        .sql_distributed(&db, query)
        .expect("demo query runs distributed")
        .report;

    println!("sql> {query}");
    let json = report.chrome_trace();
    let spans = report.stats.trace.len();
    write_trace_file(out_path, &json);
    println!("{report}\n");
    println!("{}", report.critical_path_summary(5));
    println!("\nwrote {spans} spans ({} bytes) to {out_path}", json.len());
    println!("open it at https://ui.perfetto.dev (or chrome://tracing)");
}

/// `skadi-cli chaos --seed N [--ft MODE] [--permanent | --multi]
/// [out.json]`: replay one chaos schedule with tracing and invariant
/// checks on. `--permanent` replays the unrecoverable-loss generator
/// (clean `TaskAbandoned`/`Stalled` counts as a pass); `--multi` replays
/// the staggered multi-job workload under the survivable generator.
fn run_chaos_replay(args: &[String]) {
    use skadi::runtime::chaos::{
        chaos_job, chaos_jobs, chaos_plan, chaos_plan_permanent, chaos_topology,
        run_chaos_multi_with, run_chaos_permanent_with, run_chaos_with,
    };
    use skadi::runtime::config::FtMode;
    use skadi::runtime::error::RuntimeError;

    let mut seed = 0u64;
    let mut ft = FtMode::Lineage;
    let mut permanent = false;
    let mut multi = false;
    let mut out = "skadi-chaos.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes a number");
            }
            "--ft" => {
                ft = match it.next().map(String::as_str) {
                    Some("lineage") => FtMode::Lineage,
                    Some("repl") | Some("replication") => FtMode::Replication(2),
                    Some("ec") | Some("rs") => {
                        FtMode::ErasureCoding(skadi::store::ec::EcConfig::RS_4_2)
                    }
                    other => panic!("--ft takes lineage|repl|ec, got {other:?}"),
                };
            }
            "--permanent" => permanent = true,
            "--multi" => multi = true,
            path => out = path.to_string(),
        }
    }
    assert!(
        !(permanent && multi),
        "--permanent and --multi are separate suites"
    );

    let topo = chaos_topology();
    let plan = if permanent {
        chaos_plan_permanent(&topo, seed)
    } else {
        chaos_plan(&topo, seed)
    };
    if multi {
        let jobs = chaos_jobs(seed);
        let total: usize = jobs.iter().map(|(j, _)| j.len()).sum();
        println!(
            "chaos seed {seed} under {ft:?}: {} jobs, {total} tasks",
            jobs.len()
        );
        for (j, at) in &jobs {
            println!("  job '{}' arrives at {at} ({} tasks)", j.name, j.len());
        }
    } else {
        let job = chaos_job(seed);
        println!(
            "chaos seed {seed} under {ft:?}{}: {} tasks",
            if permanent { " (permanent loss)" } else { "" },
            job.len()
        );
    }
    for f in plan.failures() {
        match f.recovers_at {
            Some(r) => println!("  kill node {} at {} (recovers {r})", f.node.0, f.at),
            None => println!("  kill node {} at {} (permanent)", f.node.0, f.at),
        }
    }
    for s in plan.slowdowns() {
        println!(
            "  slow node {} x{:.1} during [{}, {})",
            s.node.0, s.factor, s.from, s.until
        );
    }

    // Normalize the three suites into one (verdict-line, stats, diff)
    // shape so the reporting below is shared.
    let outcome = if multi {
        run_chaos_multi_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    } else if permanent {
        run_chaos_permanent_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    } else {
        run_chaos_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    };

    match outcome {
        Ok((equivalent, stats, baseline, chaotic)) => {
            println!(
                "verdict: {} ({} finished, {} retries, {} elections, makespan {})",
                if equivalent {
                    "EQUIVALENT to failure-free run"
                } else {
                    "DIVERGED from failure-free run"
                },
                stats.finished,
                stats.retries,
                stats.metrics.counter("elections"),
                stats.makespan,
            );
            if !equivalent {
                for (b, c) in baseline.iter().zip(chaotic.iter()) {
                    if b != c {
                        println!("  {b:?} vs {c:?}");
                    }
                }
            }
            let json = stats.trace.to_chrome_json();
            write_trace_file(&out, &json);
            println!(
                "wrote {} spans ({} bytes) to {out}",
                stats.trace.len(),
                json.len()
            );
            println!("open it at https://ui.perfetto.dev (or chrome://tracing)");
            if !equivalent {
                std::process::exit(1);
            }
        }
        Err(e @ (RuntimeError::TaskAbandoned(_) | RuntimeError::Stalled { .. })) if permanent => {
            // Unrecoverable schedules are allowed — required, when they
            // destroy needed capacity — to end in these two errors.
            println!("verdict: CLEAN FAILURE under permanent loss: {e}");
        }
        Err(e) => {
            println!("verdict: RUN FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// `skadi-cli metrics [--json | --check] [--parallelism N]`: run the
/// demo query set through the distributed data plane and dump the merged
/// runtime metrics in Prometheus text exposition format. `--json` dumps
/// the per-query profile artifacts instead; `--check` self-validates the
/// exposition's line grammar (CI gate) and exits non-zero on violations.
fn run_metrics(args: &[String]) {
    use skadi::dcsim::trace::{validate_prometheus, Metrics};

    let mut json = false;
    let mut check = false;
    let mut parallelism = 4u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--check" => check = true,
            "--parallelism" => {
                parallelism = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--parallelism takes a number");
            }
            other => panic!("metrics takes --json, --check, --parallelism N; got {other:?}"),
        }
    }

    let db = demo_db(10_000);
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .runtime(RuntimeConfig::skadi_gen2())
        .build();

    let mut merged = Metrics::default();
    let mut profiles = Vec::new();
    for q in demo_queries() {
        let run = session
            .sql_distributed(&db, &q)
            .expect("demo query runs distributed");
        merged.merge(&run.report.stats.metrics);
        if let Some(p) = run.report.profile {
            profiles.push(p);
        }
    }

    if json {
        // Machine-readable profile artifacts as one JSON array, one
        // object per query (deterministic for a given seed: wall times
        // are omitted from the artifact).
        println!("[");
        for (i, p) in profiles.iter().enumerate() {
            let sep = if i + 1 == profiles.len() { "" } else { "," };
            println!("{}{sep}", p.to_json().trim_end());
        }
        println!("]");
        return;
    }
    let text = merged.to_prometheus();
    if check {
        match validate_prometheus(&text) {
            Ok(n) => println!("prometheus exposition OK: {n} series"),
            Err(e) => {
                eprintln!("prometheus exposition INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    print!("{text}");
}

/// `skadi-cli serve [--addr HOST:PORT] [--rows N] [--distributed]
/// [--parallelism N] [--threads N]`: serve the demo dataset over the
/// native wire protocol until killed.
fn run_serve(args: &[String]) {
    use skadi::server::{Server, ServerConfig};

    let mut addr = "127.0.0.1:4711".to_string();
    let mut rows = 10_000usize;
    let mut distributed = false;
    let mut parallelism = 4u32;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().expect("--addr takes HOST:PORT").clone(),
            "--rows" => {
                rows = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rows takes a number");
            }
            "--distributed" => distributed = true,
            "--parallelism" => {
                parallelism = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--parallelism takes a number");
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--threads takes a number"),
                );
            }
            other => {
                panic!(
                    "serve takes --addr, --rows, --distributed, --parallelism, --threads; \
                     got {other:?}"
                )
            }
        }
    }

    let db = demo_db(rows);
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .runtime(RuntimeConfig::skadi_gen2())
        .build();
    let cfg = ServerConfig {
        distributed,
        threads,
        ..ServerConfig::default()
    };
    let server = Server::new(session, db, cfg);
    let listener = std::net::TcpListener::bind(&addr).expect("bind listener");
    println!(
        "skadi serving {rows}-row demo dataset on {addr} ({} engine); ctrl-c to stop",
        if distributed { "distributed" } else { "local" }
    );
    server.serve_tcp(listener).expect("accept loop");
}

/// `skadi-cli client [--addr HOST:PORT] ["SQL" ...]`: connect to a
/// running `serve`, run the queries (default: the demo set), and print
/// each reassembled result.
fn run_client(args: &[String]) {
    use skadi::wire::Client;

    let mut addr = "127.0.0.1:4711".to_string();
    let mut queries: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().expect("--addr takes HOST:PORT").clone(),
            q => queries.push(q.to_string()),
        }
    }
    if queries.is_empty() {
        queries = demo_queries();
    }

    let stream = std::net::TcpStream::connect(&addr).expect("connect to server");
    let mut client = Client::connect(stream, "skadi-cli").expect("handshake");
    println!("connected to {:?} at {addr}", client.server_name);
    for q in queries {
        println!("sql> {q}");
        match client.query(&q) {
            Ok(r) => {
                println!(
                    "-- answer ({} rows in {} block(s), {} B on the wire) --",
                    r.batch.num_rows(),
                    r.chunks,
                    r.payload_bytes,
                );
                print!("{}", r.batch);
                println!();
            }
            Err(e) => println!("!! {e}\n"),
        }
    }
}

/// The default demo query set (shared by the main loop and `metrics`).
fn demo_queries() -> Vec<String> {
    vec![
        "SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind ORDER BY total DESC".to_string(),
        "SELECT country, avg(value) AS mean FROM events JOIN users ON user_id = user_id GROUP BY country ORDER BY mean DESC LIMIT 3".to_string(),
        "SELECT user_id, value FROM events WHERE value > 9.9 AND kind = 'purchase' ORDER BY value DESC LIMIT 5".to_string(),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("metrics") {
        run_metrics(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("chaos") {
        run_chaos_replay(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("client") {
        run_client(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        let out = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("skadi-trace.json");
        run_trace(out);
        return;
    }
    let mut distributed = false;
    let mut adaptive = false;
    let mut placement: Option<PlacementPolicy> = None;
    let mut parallelism = 4u32;
    let mut threads: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--distributed" => distributed = true,
            "--adaptive" => adaptive = true,
            "--placement" => {
                let name = it.next().expect("--placement takes a policy name");
                placement = Some(name.parse().unwrap_or_else(|e| panic!("{e}")));
            }
            "--parallelism" => {
                parallelism = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--parallelism takes a number");
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--threads takes a number"),
                );
            }
            _ => rest.push(a),
        }
    }
    let args = rest;

    let db = demo_db(10_000);
    let mut runtime = RuntimeConfig::skadi_gen2();
    if let Some(p) = placement {
        runtime = runtime.with_placement(p);
    }
    let mut builder = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .adaptive(adaptive)
        .runtime(runtime);
    if let Some(n) = threads {
        builder = builder.threads(n);
    }
    let session = builder.build();

    let queries: Vec<String> = if args.is_empty() {
        demo_queries()
    } else {
        args
    };

    println!(
        "skadi-cli — demo dataset: 10,000 events / ~1,000 users (seeded){}\n",
        if distributed {
            format!(", distributed data plane x{parallelism}")
        } else {
            String::new()
        }
    );
    for q in queries {
        if distributed {
            run_query_distributed(&db, &session, &q);
        } else {
            run_query(&db, &session, &q);
        }
    }
}
