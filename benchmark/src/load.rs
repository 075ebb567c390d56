//! The load generator: set-up, the closed and open loops, answer
//! checking and the per-round samples every metric is computed from.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skadi::dcsim::topology::Topology;
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;
use skadi::runtime::chaos::{chaos_config, chaos_topology_scaled, run_chaos_multi_scaled};
use skadi::server::{Server, ServerConfig, SessionEnd};
use skadi::wire::{Client, QueryResult};

use crate::data::{self, Arrival, Class, Cycles, Expected, Op, Statements};
use crate::metrics::{Kind, Workload};

/// Threads of the execution pool under every query workload. One, not
/// the host's two: on this shared host the second virtual CPU is at
/// times a core of its own and at times a sibling of the first, for
/// minutes at a stretch, and with two pool threads `local_duplex` ran in
/// two regimes 30 % apart (ten runs of the same code spread 0.35 and
/// 0.73). With one thread the same runs spread 0.03. A parallel speed-up
/// cannot be measured here; the most two threads ever gave was 1.17x.
pub const POOL_THREADS: usize = 1;
/// `open_duplex` arrival rate: a quarter of the two-connection
/// closed-loop throughput of its mix on the seed commit (800 queries/s).
/// Frozen: a faster program must show as lower latency at the same rate,
/// not as a moved target. (At half, the median sits on the edge between
/// waiting and not waiting and moved 40 % from seed to seed.)
pub const OPEN_RATE_QPS: f64 = 150.0;
/// `open_duplex` latency limit from due time. Frozen.
pub const OPEN_LIMIT_MS: f64 = 25.0;
/// Connections the open loop sends over.
const OPEN_CONNECTIONS: usize = 2;
/// Nodes and jobs of one `sim_scale` run.
pub const SIM_NODES: u32 = 10_000;
pub const SIM_JOBS: usize = 32;
/// The scheduler tick `/proc/self/stat` counts CPU time in.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A byte stream a [`Client`] can run over.
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// When the first byte of the current response was read, in nanoseconds
/// since `base` (0 = none yet).
pub struct Stamps {
    base: Instant,
    first_read_ns: AtomicU64,
}

impl Stamps {
    fn reset(&self) {
        self.first_read_ns.store(0, Ordering::Relaxed);
    }

    fn first_read(&self) -> Option<Instant> {
        match self.first_read_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(self.base + Duration::from_nanos(ns)),
        }
    }
}

/// The transport handed to the real `wire::Client`, stamping the first
/// byte read after each reset so time-to-first-byte needs no change to
/// the client.
pub struct Stamped {
    inner: Box<dyn Transport>,
    stamps: Arc<Stamps>,
}

impl Read for Stamped {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        // Relaxed: a statistic read back by this same thread.
        if n > 0 && self.stamps.first_read_ns.load(Ordering::Relaxed) == 0 {
            let ns = self.stamps.base.elapsed().as_nanos() as u64;
            self.stamps
                .first_read_ns
                .store(ns.max(1), Ordering::Relaxed);
        }
        Ok(n)
    }
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One handshaken client connection.
pub struct Conn {
    client: Client<Stamped>,
    stamps: Arc<Stamps>,
    /// The server's handler thread, where the benchmark spawned it.
    handler: Option<JoinHandle<SessionEnd>>,
}

impl Conn {
    fn open(server: &Arc<Server>, tcp: Option<std::net::SocketAddr>) -> Result<Conn, String> {
        let (inner, handler): (Box<dyn Transport>, _) = match tcp {
            Some(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                (Box::new(stream), None)
            }
            None => {
                let (stream, handler) = server.connect();
                (Box::new(stream), Some(handler))
            }
        };
        let stamps = Arc::new(Stamps {
            base: Instant::now(),
            first_read_ns: AtomicU64::new(0),
        });
        let stamped = Stamped {
            inner,
            stamps: Arc::clone(&stamps),
        };
        let client =
            Client::connect(stamped, "skadi-benchmark").map_err(|e| format!("handshake: {e}"))?;
        Ok(Conn {
            client,
            stamps,
            handler,
        })
    }

    /// Closes the connection and waits for the server's handler.
    fn close(self) -> Result<(), String> {
        drop(self.client);
        match self.handler.map(JoinHandle::join) {
            None | Some(Ok(SessionEnd::CleanClose)) => Ok(()),
            Some(Ok(end)) => Err(format!("server handler ended with {end:?}")),
            Some(Err(_)) => Err("server handler panicked".into()),
        }
    }
}

/// Everything a query workload's set-up builds.
pub struct SqlFixture {
    pub db: MemDb,
    pub statements: Statements,
    pub server: Arc<Server>,
    pub conns: Vec<Conn>,
    pub distributed: bool,
    pub tcp: bool,
}

/// Everything `sim_scale`'s set-up builds.
pub struct SimFixture {
    pub topo: Topology,
    pub cfg: RuntimeConfig,
    base_seed: u64,
    /// Outcome of run 0, which every round repeats and must reproduce.
    reference: SimOutcome,
}

pub enum Fixture {
    Sql(SqlFixture),
    Sim(SimFixture),
}

pub fn session() -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(4)
        .build()
}

impl Fixture {
    /// The timed set-up: tables, expected answers, server, connections;
    /// for `sim_scale` the topology and the reference run.
    pub fn build(w: &Workload, seed: u64) -> Result<Fixture, String> {
        let (distributed, tcp, conns) = match w.kind {
            Kind::Closed { distributed, tcp } => (distributed, tcp, 1),
            Kind::Open => (false, false, OPEN_CONNECTIONS),
            Kind::Sim => {
                let topo = chaos_topology_scaled(SIM_NODES);
                // The O(nodes)-per-event invariant checker would be the
                // whole measurement at this size.
                let cfg = chaos_config(FtMode::Lineage).with_debug_invariants(false);
                let mut fx = SimFixture {
                    topo,
                    cfg,
                    base_seed: seed,
                    reference: SimOutcome::default(),
                };
                fx.reference = fx.run(0)?;
                return Ok(Fixture::Sim(fx));
            }
        };
        let db = data::tables(seed);
        let statements = Statements::build(&db, &w.classes())?;
        let cfg = ServerConfig {
            distributed,
            threads: Some(POOL_THREADS),
            ..ServerConfig::default()
        };
        let server = Server::new(session(), db.clone(), cfg);
        let addr = if tcp {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let accepting = Arc::clone(&server);
            // `serve_tcp` accepts until the process exits.
            thread::spawn(move || accepting.serve_tcp(listener));
            Some(addr)
        } else {
            None
        };
        let conns = (0..conns)
            .map(|_| Conn::open(&server, addr))
            .collect::<Result<_, _>>()?;
        Ok(Fixture::Sql(SqlFixture {
            db,
            statements,
            server,
            conns,
            distributed,
            tcp,
        }))
    }

    pub fn teardown(self) -> Result<(), String> {
        match self {
            Fixture::Sql(fx) => fx.conns.into_iter().try_for_each(Conn::close),
            Fixture::Sim(_) => Ok(()),
        }
    }
}

/// What one `sim_scale` run produced; equal seeds must give equal outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    pub makespan_ns: u64,
    pub finished: u64,
    pub retries: u64,
    pub control_msgs: u64,
    pub elections: u64,
    manifest_len: usize,
}

impl SimFixture {
    /// The chaos seed of run `run`. Run 0, the reference run that set-up
    /// makes and every round repeats, has the seed `BENCH_sched.json` was
    /// recorded with, so that `setup_s` is the same work under every
    /// `--seed`; the runs that are measured draw theirs from `--seed`.
    pub fn chaos_seed(&self, run: usize) -> u64 {
        match run {
            0 => 11,
            _ => self.base_seed.wrapping_mul(4096).wrapping_add(run as u64),
        }
    }

    /// One operation: failure-free run, chaos run, and the check that
    /// chaos reproduced the failure-free outputs with nothing abandoned.
    pub fn run(&self, run: usize) -> Result<SimOutcome, String> {
        let seed = self.chaos_seed(run);
        let v = run_chaos_multi_scaled(&self.topo, seed, SIM_JOBS, self.cfg.clone())
            .map_err(|e| format!("chaos run {run}: {e}"))?;
        if !v.equivalent() || v.stats.abandoned != 0 {
            return Err(format!(
                "chaos run {run}: outputs differ from the failure-free run"
            ));
        }
        Ok(SimOutcome {
            makespan_ns: v.stats.makespan.as_nanos(),
            finished: v.stats.finished,
            retries: v.stats.retries,
            control_msgs: v.stats.net.control_msgs,
            elections: v.stats.metrics.counter("elections"),
            manifest_len: v.chaotic.len(),
        })
    }
}

/// Samples of one round of one workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Client-observed latency per class (`Class::index`), milliseconds.
    pub latency_ms: [Vec<f64>; Class::ALL.len()],
    /// `Query` written to first response byte read, `scan` only.
    pub scan_ttfb_ms: Vec<f64>,
    /// Open loop: how long after its due time each request was sent.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    /// Failed, refused or wrong-answer operations.
    pub failed: u64,
    /// Open loop: finished later than the limit, or failed.
    pub over_limit: u64,
    pub payload_bytes: u64,
    pub elapsed_s: f64,
    pub queued_max: usize,
    pub running_max: usize,
    pub first_error: Option<String>,
    /// Statements whose answer was already compared byte for byte in this
    /// round; later answers to them are checked by row count.
    checked: HashSet<Op>,
}

impl Round {
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    fn merge(&mut self, other: Round) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            mine.extend(theirs);
        }
        self.scan_ttfb_ms.extend(other.scan_ttfb_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.over_limit += other.over_limit;
        self.payload_bytes += other.payload_bytes;
        self.queued_max = self.queued_max.max(other.queued_max);
        self.running_max = self.running_max.max(other.running_max);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Checks one response. `full` also compares the result's IPC encoding.
fn answer_is_right(result: &QueryResult, expected: &Expected, full: bool) -> bool {
    if result.batch.num_rows() != expected.rows {
        return false;
    }
    !full || Expected::of(&result.batch) == *expected
}

/// Sends one query and records it into `round`. `due` is when the
/// request should have been sent (now, in a closed loop).
pub fn send(
    conn: &mut Conn,
    server: &Server,
    statements: &Statements,
    op: Op,
    due: Instant,
    round: &mut Round,
) {
    round.attempted += 1;
    round.queued_max = round.queued_max.max(server.admission().queued());
    round.running_max = round.running_max.max(server.admission().running());
    conn.stamps.reset();
    let sent = Instant::now();
    let outcome = conn.client.query(statements.sql(op));
    let done = Instant::now();
    let latency_ms = (done - due).as_secs_f64() * 1e3;
    match outcome {
        Ok(result) => {
            // The first response per statement per round is compared byte
            // for byte, every response by row count.
            let full = round.checked.insert(op);
            if !answer_is_right(&result, statements.expected(op), full) {
                round.fail(format!("wrong answer for {}", statements.sql(op)));
                round.over_limit += 1;
                return;
            }
            round.payload_bytes += result.payload_bytes;
            round.latency_ms[op.0.index()].push(latency_ms);
            round.over_limit += u64::from(latency_ms > OPEN_LIMIT_MS);
            if op.0 == Class::Scan {
                if let Some(first) = conn.stamps.first_read() {
                    round.scan_ttfb_ms.push((first - sent).as_secs_f64() * 1e3);
                }
            }
        }
        Err(e) => {
            round.fail(format!("{}: {e}", statements.sql(op)));
            round.over_limit += 1;
        }
    }
}

impl SqlFixture {
    /// Closed loop on the first connection: whole cycles until `seconds`
    /// have passed.
    pub fn closed_round(&mut self, cycles: &mut Cycles, seconds: f64) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            for op in cycles.next().expect("cycles never end") {
                let (conn, now) = (&mut self.conns[0], Instant::now());
                send(conn, &self.server, &self.statements, op, now, &mut round);
            }
        }
        round.elapsed_s = start.elapsed().as_secs_f64();
        round
    }

    /// Open loop: every connection takes the next arrival, waits until
    /// it is due, sends it, and times it from its due time.
    pub fn open_round(&mut self, schedule: &[Arrival], seconds: f64) -> Round {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let (server, statements) = (&self.server, &self.statements);
        let mut round = Round::default();
        thread::scope(|scope| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut mine = Round::default();
                        // Relaxed: the counter hands out indices and
                        // publishes nothing else.
                        while let Some(arrival) = schedule.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let due = start + Duration::from_nanos(arrival.due_ns);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                thread::sleep(wait);
                            }
                            mine.lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                            send(conn, server, statements, arrival.op, due, &mut mine);
                        }
                        mine
                    })
                })
                .collect();
            for worker in workers {
                round.merge(worker.join().expect("open-loop worker panicked"));
            }
        });
        round.elapsed_s = start.elapsed().as_secs_f64().max(seconds);
        round
    }
}

impl SimFixture {
    /// Closed loop on this thread. Run 0 comes first in every round and
    /// must reproduce the set-up's reference outcome exactly.
    pub fn closed_round(&self, next_run: &mut usize, seconds: f64) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        let mut run = 0;
        while start.elapsed().as_secs_f64() < seconds {
            round.attempted += 1;
            let sent = Instant::now();
            let outcome = self.run(run);
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(o) if run == 0 && o != self.reference => {
                    round.fail("run 0 did not repeat the reference run".into())
                }
                Ok(_) => round.latency_ms[Class::Sim.index()].push(latency_ms),
                Err(e) => round.fail(e),
            }
            *next_run += 1;
            run = *next_run;
        }
        round.elapsed_s = start.elapsed().as_secs_f64();
        round
    }
}

/// CPU time this process has used so far (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ")".
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    // User and system time are the 14th and 15th fields of the line.
    let ticks: f64 = fields
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process, in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The measured phase of one run.
pub struct Measurement {
    pub rounds: Vec<Round>,
    /// CPU seconds used across all rounds.
    pub cpu_s: f64,
}

/// Warm-up, then `rounds` rounds that together last `seconds`.
pub fn measure(
    fixture: &mut Fixture,
    w: &Workload,
    seed: u64,
    seconds: f64,
    rounds: usize,
) -> Measurement {
    match (fixture, w.kind) {
        (Fixture::Sql(fx), Kind::Open) => {
            // Schedule 0 is the warm-up's.
            let mut n = 0;
            timed_rounds(seconds, rounds, |secs| {
                let schedule = data::poisson_schedule(w.mix, seed, n, OPEN_RATE_QPS, secs);
                n += 1;
                fx.open_round(&schedule, secs)
            })
        }
        (Fixture::Sql(fx), _) => {
            let mut cycles = Cycles::new(w.mix, seed);
            timed_rounds(seconds, rounds, |secs| fx.closed_round(&mut cycles, secs))
        }
        (Fixture::Sim(fx), _) => {
            let mut next_run = 0;
            timed_rounds(seconds, rounds, |secs| fx.closed_round(&mut next_run, secs))
        }
    }
}

fn timed_rounds(seconds: f64, rounds: usize, mut round: impl FnMut(f64) -> Round) -> Measurement {
    round((seconds / 5.0).min(1.0));
    let cpu_before = process_cpu_s();
    let rounds = (0..rounds)
        .map(|_| round(seconds / rounds as f64))
        .collect();
    Measurement {
        rounds,
        cpu_s: process_cpu_s() - cpu_before,
    }
}
