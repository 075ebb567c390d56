//! The traced pass: each class replayed through the same chain of
//! public calls that `Server::run_query` and `Session::sql_distributed`
//! make, one span per call.
//!
//! Spans under a `request` root are what the server and client do for
//! one query, in order. Up to the result they run on this thread; the
//! result is streamed by a peer thread while this thread reads and
//! decodes it, as server and client overlap in the real thing. Spans
//! under a `probe` root repeat a piece of that work on its own to split
//! it further (packets over the transport with no work between them,
//! packet encode and decode, per-operator walls, the control-plane
//! simulation without a data plane); they are measurements, not part of
//! the request, and do not count toward coverage.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use skadi::arrow::batch::RecordBatch;
use skadi::arrow::{compression, compute, ipc};
use skadi::flowgraph::logical::FlowGraph;
use skadi::flowgraph::lower::{lower_graph, LowerConfig};
use skadi::flowgraph::optimize::optimize_graph;
use skadi::flowgraph::physical::{PEdgeKind, PVertexKind};
use skadi::frontends::exec;
use skadi::frontends::sql;
use skadi::ir::BackendPolicy;
use skadi::runtime::chaos::{chaos_jobs_scaled, chaos_plan};
use skadi::runtime::{job_from_physical, Cluster, FailurePlan, TaskId};
use skadi::server::{Admission, ServerConfig};
use skadi::wire::codec::{decode_frame, encode_packet, read_packet, write_packet};
use skadi::wire::packet::Packet;
use skadi::wire::{duplex, DEFAULT_MAX_FRAME};
use skadi::GraphExecutor;

use crate::data::{Class, Cycles};
use crate::load::{self, session, Round, SimFixture, SqlFixture, Transport, SIM_JOBS};
use crate::metrics::Workload;
use crate::trace::{Recorder, SpanId};

/// Counts taken at the same boundaries as the spans, summed over a
/// class's replayed requests.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub requests: u64,
    pub packets: u64,
    pub wire_bytes: u64,
    /// Result bytes as IPC frames, before and after block compression.
    pub ipc_bytes: u64,
    pub payload_bytes: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub physical_vertices: u64,
    pub physical_edges: u64,
    pub tasks: u64,
    pub control_msgs: u64,
    pub retries: u64,
    pub tasks_finished: u64,
    pub elections: u64,
    pub sim_makespan_ns: u64,
    pub shuffle_bytes: u64,
    pub shuffle_rows: u64,
    /// Shard kernel wall by operator, in [`SHARD_SPANS`] order.
    pub shard_ns: [u64; SHARD_SPANS.len()],
}

pub struct Replay {
    pub recorder: Recorder,
    /// By `Class::index`.
    pub counters: [Counters; Class::ALL.len()],
    /// Each replayed statement as the real server answered it, a cycle of
    /// the mix at a time just before that cycle's replay: the latency
    /// coverage is taken against, measured at the same moment so that the
    /// host's drift cancels.
    pub paired: Round,
}

/// Requests replayed per class (a tenth of it with `--smoke`): enough
/// for a steady mean, few enough that the pass stays under the run's
/// measuring time.
fn iterations(class: Class, distributed: bool, tcp: bool, smoke: bool) -> usize {
    let full = match (class, distributed) {
        // 44 ms each over loopback TCP today, and ten whole cycles of
        // `local_tcp`: a cycle cut short would leave its queries without
        // the back-to-back rhythm the stall depends on.
        (Class::Point, false) if tcp => 30,
        (Class::Scan, false) if tcp => 10,
        (Class::Point, false) => 200,
        (Class::Point, true) => 40,
        (Class::Groupby | Class::Topn, false) => 40,
        (Class::Join | Class::Scan, false) => 20,
        (Class::Groupby | Class::Topn, true) => 10,
        (Class::Join | Class::Scan, true) => 6,
        (Class::Sim, _) => 4,
    };
    if smoke {
        (full / 10).max(1)
    } else {
        full
    }
}

/// What the peer does with the next `Query` packet it reads.
enum Answer {
    /// Stream `batch` the way `Server::run_query` does: per block
    /// gather, IPC-encode, compress, write.
    Serve(RecordBatch),
    /// Write these packets as they are.
    Packets(Vec<Packet>),
}

/// A span the peer recorded: name, start and end on the recorder's clock.
type PeerSpan = (&'static str, u64, u64);

/// What the peer hands back after serving a batch.
#[derive(Default)]
struct Served {
    spans: Vec<PeerSpan>,
    packets: Vec<Packet>,
    ipc_bytes: u64,
    payload_bytes: u64,
}

/// The server's end of the connection on a thread of its own, over the
/// same kind of transport the workload uses, so that block production
/// overlaps the client's decoding, and the socket sees the same pattern
/// of writes, as under the real server.
struct Peer {
    client_end: Box<dyn Transport>,
    answers: mpsc::Sender<Answer>,
    served: mpsc::Receiver<Result<Served, String>>,
    thread: JoinHandle<()>,
}

/// The peer's side of one served batch: its connection, its clock and
/// what it has recorded so far.
struct Serving<'a> {
    conn: &'a mut dyn Transport,
    epoch: Instant,
    out: Served,
}

impl Serving<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let started = self.now_ns();
        let result = call();
        self.out.spans.push((name, started, self.now_ns()));
        result
    }

    fn write(&mut self, packet: Packet) -> Result<(), String> {
        let started = self.now_ns();
        let written = write_packet(&mut self.conn, &packet);
        self.out.spans.push(("wire.write", started, self.now_ns()));
        self.out.packets.push(packet);
        written.map_err(err("write response"))
    }

    /// Streams `batch` as `Server::run_query` does: row chunks, each
    /// gathered, IPC-encoded, compressed and written, with progress
    /// between blocks and an end-of-stream marker.
    fn stream(mut self, batch: &RecordBatch, block_rows: usize) -> Result<Served, String> {
        let total = batch.num_rows();
        let block = block_rows.max(1);
        let nchunks = total.div_ceil(block).max(1);
        let (mut sent_rows, mut sent_bytes) = (0u64, 0u64);
        for c in 0..nchunks {
            let chunk = self
                .time("server.chunking", || {
                    if nchunks == 1 {
                        return Ok(batch.clone());
                    }
                    let rows: Vec<usize> = (c * block..((c + 1) * block).min(total)).collect();
                    compute::take_indices(batch, &rows)
                })
                .map_err(err("take_indices"))?;
            let frame = self.time("ipc.encode", || ipc::encode(&chunk));
            let payload = self.time("sklz.compress", || compression::maybe_compress(&frame));
            self.out.ipc_bytes += frame.len() as u64;
            self.out.payload_bytes += payload.len() as u64;
            sent_rows += chunk.num_rows() as u64;
            sent_bytes += payload.len() as u64;
            self.write(Packet::Data {
                query_id: 1,
                payload: payload.into(),
            })?;
            if c + 1 < nchunks {
                self.write(Packet::Progress {
                    query_id: 1,
                    rows: sent_rows,
                    bytes: sent_bytes,
                })?;
            }
        }
        self.write(Packet::EndOfStream {
            query_id: 1,
            chunks: nchunks as u32,
        })?;
        Ok(self.out)
    }
}

impl Peer {
    fn start(tcp: bool, epoch: Instant) -> Result<Peer, String> {
        let (client_end, mut server_end): (Box<dyn Transport>, Box<dyn Transport>) = if tcp {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
            let addr = listener.local_addr().map_err(err("local_addr"))?;
            let client = TcpStream::connect(addr).map_err(err("connect"))?;
            let (server, _) = listener.accept().map_err(err("accept"))?;
            (Box::new(client), Box::new(server))
        } else {
            let (client, server) = duplex();
            (Box::new(client), Box::new(server))
        };
        let (answers, queue) = mpsc::channel::<Answer>();
        let (reply, served) = mpsc::channel();
        let block_rows = ServerConfig::default().block_rows;
        let thread = thread::spawn(move || {
            while let Ok(Packet::Query { .. }) = read_packet(&mut server_end, DEFAULT_MAX_FRAME) {
                let outcome = match queue.recv() {
                    Ok(Answer::Serve(batch)) => Serving {
                        conn: &mut *server_end,
                        epoch,
                        out: Served::default(),
                    }
                    .stream(&batch, block_rows),
                    Ok(Answer::Packets(packets)) => packets
                        .iter()
                        .try_for_each(|p| write_packet(&mut server_end, p))
                        .map(|()| Served::default())
                        .map_err(err("write response")),
                    Err(_) => return,
                };
                if reply.send(outcome).is_err() {
                    return;
                }
            }
        });
        Ok(Peer {
            client_end,
            answers,
            served,
            thread,
        })
    }

    /// Sends the question and reads the answer to its end, handing each
    /// packet to `each`. What the peer recorded is fetched with
    /// [`Peer::served`], outside the timed exchange.
    fn ask(
        &mut self,
        answer: Answer,
        question: &Packet,
        mut each: impl FnMut(Packet) -> Result<(), String>,
    ) -> Result<(), String> {
        self.answers
            .send(answer)
            .map_err(|_| "peer is gone".to_string())?;
        write_packet(&mut self.client_end, question).map_err(err("write query"))?;
        loop {
            let packet = read_packet(&mut self.client_end, DEFAULT_MAX_FRAME)
                .map_err(err("read response"))?;
            let last = matches!(packet, Packet::EndOfStream { .. });
            each(packet)?;
            if last {
                return Ok(());
            }
        }
    }

    fn served(&self) -> Result<Served, String> {
        self.served.recv().map_err(|_| "peer is gone".to_string())?
    }

    fn stop(self) -> Result<(), String> {
        drop(self.client_end);
        drop(self.answers);
        self.thread.join().map_err(|_| "peer panicked".to_string())
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl SqlFixture {
    /// Replays every class of the workload.
    pub fn replay(&mut self, w: &Workload, seed: u64, smoke: bool) -> Result<Replay, String> {
        let mut out = Replay {
            recorder: Recorder::new(),
            counters: Default::default(),
            paired: Round::default(),
        };
        let mut peer = Peer::start(self.tcp, out.recorder.epoch())?;
        let cfg = ServerConfig::default();
        let admission = Admission::new(cfg.max_concurrent, cfg.max_queued);
        // The same statements, in the same seeded order, as the load sends.
        let mut cycles = Cycles::new(w.mix, seed);
        let mut left: Vec<usize> = Class::ALL
            .iter()
            .map(|&c| iterations(c, self.distributed, self.tcp, smoke))
            .collect();
        let wanted = w.classes();
        while wanted.iter().any(|c| left[c.index()] > 0) {
            let mut ops = cycles.next().expect("cycles never end");
            ops.retain(|op| {
                let more = left[op.0.index()] > 0;
                left[op.0.index()] -= usize::from(more);
                more
            });
            // The real server first, and back to back as the closed loop
            // sends them: over TCP a pause before a query changes how its
            // answer is acknowledged, and with it the latency.
            for &op in &ops {
                let (conn, now) = (&mut self.conns[0], Instant::now());
                let paired = &mut out.paired;
                load::send(conn, &self.server, &self.statements, op, now, paired);
            }
            if let Some(e) = &out.paired.first_error {
                return Err(format!("paired query: {e}"));
            }
            for op in ops {
                let sql = self.statements.sql(op);
                let rows = self.request(&mut out, &mut peer, &admission, op.0, sql)?;
                if rows != self.statements.expected(op).rows {
                    return Err(format!("replay of {sql} returned {rows} rows"));
                }
            }
        }
        peer.stop()?;
        Ok(out)
    }

    /// One request, start to finish; returns the rows the client decoded.
    fn request(
        &self,
        out: &mut Replay,
        peer: &mut Peer,
        admission: &Admission,
        class: Class,
        statement: &str,
    ) -> Result<usize, String> {
        let rec = &mut out.recorder;
        let counters = &mut out.counters[class.index()];
        counters.requests += 1;
        rec.begin_request(class.name());
        let request = rec.open("request", None);
        let root = Some(request);

        // --- server: admit, parse, execute ---
        rec.time("server.admission", root, || drop(admission.try_acquire()));
        let tokens = rec
            .time("sql.tokenize", root, || sql::tokenize(statement))
            .map_err(err("tokenize"))?;
        let query = rec
            .time("sql.parse", root, || sql::parse(&tokens))
            .map_err(err("parse"))?;
        let batch = if self.distributed {
            self.distributed_stages(rec, counters, root, &query, statement)?
        } else {
            rec.time("exec.execute", root, || exec::execute(&query, &self.db))
                .map_err(err("execute"))?
        };

        // --- result: the peer streams blocks while this thread decodes ---
        let question = Packet::Query {
            id: 1,
            sql: statement.to_string(),
        };
        let stream = rec.open("result.stream", root);
        let mut blocks = Vec::new();
        let mut read_from = rec.now_ns();
        peer.ask(Answer::Serve(batch), &question, |packet| {
            rec.add("client.read", Some(stream), read_from, rec.now_ns());
            if let Packet::Data { payload, .. } = packet {
                let frame = if compression::is_compressed(&payload) {
                    rec.time("sklz.decompress", Some(stream), || {
                        compression::decompress(&payload)
                    })
                    .map_err(err("decompress"))?
                    .into()
                } else {
                    payload
                };
                let block = rec.time("ipc.decode", Some(stream), || ipc::decode(frame));
                blocks.push(block.map_err(err("decode"))?);
            }
            read_from = rec.now_ns();
            Ok(())
        })?;
        let result = rec
            .time("client.concat", Some(stream), || match blocks.len() {
                1 => Ok(blocks.pop().expect("one block")),
                _ => RecordBatch::concat(&blocks),
            })
            .map_err(err("concat"))?;
        rec.close(stream);
        rec.close(request);
        let served = peer.served()?;
        for (name, start_ns, end_ns) in served.spans {
            rec.add(name, Some(stream), start_ns, end_ns);
        }
        counters.ipc_bytes += served.ipc_bytes;
        counters.payload_bytes += served.payload_bytes;

        // --- probes ---
        let probing = rec.open("probe", None);
        let probe = Some(probing);
        // The same packets again with no work between them: the transport alone.
        let mut response = served.packets;
        rec.time("wire.stream", probe, || {
            peer.ask(Answer::Packets(response.clone()), &question, |_| Ok(()))
        })?;
        peer.served()?;
        response.push(question);
        let frames = rec.time("wire.encode", probe, || {
            response.iter().map(encode_packet).collect::<Vec<_>>()
        });
        counters.packets += frames.len() as u64;
        counters.wire_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        rec.time("wire.decode", probe, || {
            frames
                .iter()
                .try_for_each(|f| decode_frame(f, DEFAULT_MAX_FRAME).map(drop))
        })
        .map_err(err("decode_frame"))?;
        counters.rows_out += result.num_rows() as u64;
        if !self.distributed {
            self.profile_probe(rec, counters, probe, statement)?;
        }
        rec.close(probing);
        Ok(result.num_rows())
    }

    /// Per-operator walls of the local engine, as the public
    /// `MemDb::query_profiled` measures them.
    fn profile_probe(
        &self,
        rec: &mut Recorder,
        counters: &mut Counters,
        probe: Option<SpanId>,
        statement: &str,
    ) -> Result<(), String> {
        let profiled = rec.open("exec.profiled", probe);
        let (_, profile) = self
            .db
            .query_profiled(statement)
            .map_err(err("query_profiled"))?;
        rec.close(profiled);
        counters.rows_in += profile.ops.first().map_or(0, |op| op.total_rows_in());
        let mut at = rec.spans()[profiled].start_ns;
        for op in &profile.ops {
            let name = match op.op.as_str() {
                sql::planner::ops::SCAN => "exec.scan",
                sql::planner::ops::FILTER => "exec.filter",
                sql::planner::ops::JOIN => "exec.join",
                sql::planner::ops::AGGREGATE => "exec.aggregate",
                sql::planner::ops::SORT => "exec.sort",
                _ => "exec.other",
            };
            let wall: u64 = op.shards.iter().map(|s| s.wall_nanos).sum();
            // Only the duration is measured; operators run one after
            // another, so they are laid end to end.
            rec.add(name, Some(profiled), at, at + wall);
            at += wall;
        }
        Ok(())
    }

    /// Plan, lower, simulate and execute on the data plane: what
    /// `Session::sql_distributed` does between parse and result.
    fn distributed_stages(
        &self,
        rec: &mut Recorder,
        counters: &mut Counters,
        root: Option<SpanId>,
        query: &sql::Query,
        statement: &str,
    ) -> Result<RecordBatch, String> {
        let session = session();
        let mut graph = FlowGraph::new();
        rec.time("sql.plan", root, || {
            sql::plan_query(query, &self.db.catalog(), &mut graph)
        })
        .map_err(err("plan"))?;
        rec.time("flowgraph.optimize", root, || optimize_graph(&mut graph));
        let lower = LowerConfig::new(4, BackendPolicy::cost_based());
        let phys = rec
            .time("flowgraph.lower", root, || lower_graph(&graph, &lower))
            .map_err(err("lower"))?;
        let job = rec
            .time("runtime.job_build", root, || {
                job_from_physical("sql", &phys, "sql")
            })
            .map_err(err("job_from_physical"))?;
        let runtime = session.runtime_config().clone();
        let mut cluster = rec.time("runtime.cluster_new", root, || {
            Cluster::new(session.topology(), runtime.clone())
        });

        let run = rec.open("dataplane.run", root);
        let executor = GraphExecutor::new(phys.clone(), self.db.tables().clone());
        let measured = executor.stats();
        cluster.set_executor(Box::new(executor));
        let stats = cluster
            .run_with_failures(&job, &FailurePlan::none())
            .map_err(err("cluster run"))?;
        rec.close(run);

        let data_plane = measured.borrow().clone();
        let mut at = rec.spans()[run].start_ns;
        for t in &data_plane.timings {
            let wall = t.wall.as_nanos() as u64;
            let kind = shard_kind(&t.op);
            counters.shard_ns[kind] += wall;
            // Only the wall is measured; shards of one instant share the
            // pool, so laid end to end they can outrun the parent.
            rec.add(SHARD_SPANS[kind], Some(run), at, at + wall);
            at += wall;
        }
        counters.physical_vertices += phys.len() as u64;
        counters.physical_edges += phys.edges().len() as u64;
        counters.tasks += job.len() as u64;
        counters.control_msgs += stats.net.control_msgs;
        counters.retries += stats.retries;
        counters.sim_makespan_ns += stats.makespan.as_nanos();
        counters.shuffle_rows += data_plane
            .shuffle_rows
            .values()
            .map(|&r| r as u64)
            .sum::<u64>();
        let mut shuffles: Vec<u32> = phys
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, PEdgeKind::Shuffle { .. }))
            .map(|e| e.from.0)
            .collect();
        shuffles.sort_unstable();
        shuffles.dedup();
        counters.shuffle_bytes += data_plane
            .timings
            .iter()
            .filter(|t| shuffles.binary_search(&(t.task.0 as u32)).is_ok())
            .map(|t| t.output_bytes)
            .sum::<u64>();
        counters.rows_in += data_plane
            .timings
            .iter()
            .filter(|t| shard_kind(&t.op) == 0)
            .map(|t| t.rows_in as u64)
            .sum::<u64>();

        let sink = phys
            .vertices()
            .iter()
            .find(|v| v.kind == PVertexKind::Sink)
            .map(|v| TaskId(v.id.0 as u64))
            .ok_or("plan has no sink")?;
        let payload = cluster.task_payload(sink).ok_or("sink stored no payload")?;
        let batch = rec
            .time("dataplane.result_decode", root, || {
                let frame = if compression::is_compressed(payload) {
                    compression::decompress(payload)?
                } else {
                    payload.to_vec()
                };
                ipc::decode(frame.into())
            })
            .map_err(err("decode result"))?;
        rec.time("dataplane.profile", root, || {
            data_plane.query_profile(&phys, statement, 4, 2.0)
        });

        // Probe: the same job with no executor is the control plane alone.
        let mut estimate = Cluster::new(session.topology(), runtime);
        let probing = rec.open("probe", None);
        let probe = Some(probing);
        rec.time("runtime.sim_estimate", probe, || estimate.run(&job))
            .map_err(err("estimate run"))?;
        rec.close(probing);
        Ok(batch)
    }
}

/// Span names of the shard operators: scan, filter, join, aggregate,
/// collect, anything else.
pub const SHARD_SPANS: [&str; 6] = [
    "shard.scan",
    "shard.filter",
    "shard.join",
    "shard.aggregate",
    "shard.collect",
    "shard.other",
];

/// Which of [`SHARD_SPANS`] a physical operator's name belongs to. Sources
/// are named after their table, sinks `result`, and a filter fused with
/// the projection after it `kernel.fused`.
fn shard_kind(op: &str) -> usize {
    match op {
        "events" | "events_s" | "people" => 0,
        "kernel.fused" => 1,
        "result" => 4,
        _ => ["filter", "join", "aggregate"]
            .iter()
            .position(|k| op.contains(k))
            .map_or(5, |i| i + 1),
    }
}

impl SimFixture {
    /// Replays chaos runs through the public calls
    /// `run_chaos_multi_scaled` makes, one span each.
    pub fn replay(&self, smoke: bool) -> Result<Replay, String> {
        let mut out = Replay {
            recorder: Recorder::new(),
            counters: Default::default(),
            paired: Round::default(),
        };
        let rec = &mut out.recorder;
        let counters = &mut out.counters[Class::Sim.index()];
        for run in 0..iterations(Class::Sim, false, false, smoke) {
            counters.requests += 1;
            rec.begin_request(Class::Sim.name());
            let request = rec.open("request", None);
            let root = Some(request);
            let seed = self.chaos_seed(run);
            let jobs = rec.time("sim.jobs_build", root, || chaos_jobs_scaled(seed, SIM_JOBS));
            let mut calm = rec.time("runtime.cluster_new", root, || {
                Cluster::new(&self.topo, self.cfg.clone())
            });
            rec.time("sim.calm_run", root, || {
                calm.run_jobs(&jobs, &FailurePlan::none())
            })
            .map_err(err("failure-free run"))?;
            let baseline = rec.time("sim.manifest", root, || calm.output_manifest());
            let plan = rec.time("sim.chaos_plan", root, || chaos_plan(&self.topo, seed));
            let mut stormy = rec.time("runtime.cluster_new", root, || {
                Cluster::new(&self.topo, self.cfg.clone())
            });
            let (_, stats) = rec
                .time("sim.chaos_run", root, || stormy.run_jobs(&jobs, &plan))
                .map_err(err("chaos run"))?;
            let chaotic = rec.time("sim.manifest", root, || stormy.output_manifest());
            rec.close(request);
            if baseline != chaotic {
                return Err(format!(
                    "replayed chaos run {run} differs from its failure-free run"
                ));
            }
            counters.tasks += jobs.iter().map(|(job, _)| job.len() as u64).sum::<u64>();
            counters.tasks_finished += stats.finished;
            counters.control_msgs += stats.net.control_msgs;
            counters.retries += stats.retries;
            counters.elections += stats.metrics.counter("elections");
            counters.sim_makespan_ns += stats.makespan.as_nanos();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_operators_are_classified() {
        assert_eq!(shard_kind("kernel.fused"), 1);
        let kinds: Vec<usize> = [
            "events",
            "rel.filter",
            "rel.join",
            "rel.aggregate",
            "result",
            "rel.sort",
        ]
        .iter()
        .map(|op| shard_kind(op))
        .collect();
        assert_eq!(kinds, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn replay_is_shorter_with_smoke() {
        for class in Class::ALL {
            for (distributed, tcp) in [(false, false), (false, true), (true, false)] {
                let smoke = iterations(class, distributed, tcp, true);
                assert!(smoke >= 1 && smoke <= iterations(class, distributed, tcp, false));
            }
        }
    }
}
