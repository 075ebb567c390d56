//! The network front door: a concurrent-session query server speaking
//! the native wire protocol ([`skadi_wire`]).
//!
//! A [`Server`] owns a [`Session`] and a [`MemDb`] of shared tables and
//! serves any number of concurrent client connections, each over any
//! `Read + Write` byte stream: a real `TcpStream` ([`Server::serve_tcp`])
//! or an in-memory duplex pair ([`Server::connect`]) that runs the same
//! codec deterministically for tests.
//!
//! Per connection the lifecycle is: handshake (version check, capability
//! intersection), then a loop of `Query` → streamed `Data` blocks (+
//! `Progress` when negotiated) → `EndOfStream`, or a single `Exception`
//! carrying the frontend's human-readable error. `EXPLAIN ANALYZE <query>`
//! runs the query and answers with its profile instead of its rows: one
//! Utf8 column `explain`, one row per line of the rendered plan tree.
//! Malformed frames, oversized length prefixes, unexpected packets, and
//! mid-query disconnects all tear the connection down cleanly — never a
//! panic, a hang, or a partial result passed off as complete.
//!
//! Each transport carries a modelled link price, which decides whether a
//! negotiated block is compressed (`skadi_arrow::compression::pays`): the
//! in-memory duplex never pays for the codec, a TCP client does when the
//! stream's first block compresses well.
//!
//! Admission control is a bounded FIFO: at most
//! [`ServerConfig::max_concurrent`] queries execute at once and at most
//! [`ServerConfig::max_queued`] wait; the next admitted query is always
//! the longest-waiting one, and because each connection runs one query
//! at a time FIFO order *is* per-session fairness — no session can get a
//! second query admitted while another session's first is still waiting.
//! Beyond the bound, queries are rejected immediately with an
//! `Exception` (code [`wire::packet::code::ADMISSION`]) instead of
//! queueing unboundedly.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use skadi_arrow::array::Array;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compression;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_frontends::exec::MemDb;
use skadi_frontends::sql;
use skadi_wire as wire;
use wire::codec::{read_packet, write_packet, WireError};
use wire::packet::{code, Packet, CAP_COMPRESSION, CAP_PROGRESS, PROTOCOL_VERSION};

use crate::session::{Session, SkadiError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name advertised in the `ServerHello`.
    pub name: String,
    /// Capability bits the server supports (intersected with the
    /// client's at handshake).
    pub capabilities: u32,
    /// Maximum accepted frame length (tag + body).
    pub max_frame: usize,
    /// Rows per streamed `Data` block.
    pub block_rows: usize,
    /// Maximum queries executing at once.
    pub max_concurrent: usize,
    /// Maximum queries waiting for an execution slot before new ones
    /// are rejected with an admission exception.
    pub max_queued: usize,
    /// Execute through the simulated cluster's distributed data plane
    /// ([`Session::sql_distributed`]) instead of the local engine.
    pub distributed: bool,
    /// Worker threads in the process-wide execution pool that admitted
    /// queries' morsel-parallel kernels run on, on either engine (`None`
    /// keeps the pool's current size — `SKADI_THREADS` or the host's
    /// available parallelism); a distributed query's shards run one at a
    /// time on its own thread. All concurrent sessions share this one
    /// pool, so compute stays bounded at `threads` cores no matter how
    /// many queries are admitted.
    pub threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "skadi".to_string(),
            capabilities: CAP_PROGRESS | CAP_COMPRESSION,
            max_frame: wire::DEFAULT_MAX_FRAME,
            block_rows: 1024,
            max_concurrent: 8,
            max_queued: 64,
            distributed: false,
            threads: None,
        }
    }
}

/// How a connection ended, as observed by [`Server::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed at a frame boundary (normal teardown).
    CleanClose,
    /// The client vanished mid-frame or mid-result (socket error /
    /// broken pipe). The in-flight query's work is discarded.
    Disconnected,
    /// The client violated the protocol (garbage bytes, oversized
    /// frame, unexpected packet, bad handshake). An `Exception` was
    /// sent best-effort before closing.
    ProtocolError,
}

/// Bounded FIFO admission: tickets are granted strictly in arrival
/// order, at most `max_running` at a time, with at most `max_queued`
/// waiting.
pub struct Admission {
    state: Mutex<AdmState>,
    cond: Condvar,
    max_running: usize,
    max_queued: usize,
}

struct AdmState {
    running: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Why [`Admission::try_acquire`] granted no slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The waiting line is at capacity.
    Full,
    /// A thread panicked while holding the gate's lock. The line's order
    /// can no longer be trusted — a dead waiter's ticket may sit at its
    /// head for ever — so the gate admits nobody rather than hang.
    Poisoned,
}

/// An execution slot; releases (and wakes the next waiter) on drop.
pub struct AdmissionGuard<'a> {
    adm: &'a Admission,
}

impl Admission {
    /// Creates an admission gate with the given bounds.
    pub fn new(max_running: usize, max_queued: usize) -> Self {
        Admission {
            state: Mutex::new(AdmState {
                running: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cond: Condvar::new(),
            max_running: max_running.max(1),
            max_queued,
        }
    }

    /// Takes a ticket and blocks until it reaches the head of the queue
    /// *and* an execution slot frees up. Returns [`AdmissionError::Full`]
    /// without blocking when the waiting line is at capacity, and
    /// [`AdmissionError::Poisoned`] once a holder of the lock panicked.
    pub fn try_acquire(&self) -> Result<AdmissionGuard<'_>, AdmissionError> {
        let poisoned = |_| AdmissionError::Poisoned;
        let mut st = self.state.lock().map_err(poisoned)?;
        if st.queue.len() >= self.max_queued && st.running >= self.max_running {
            return Err(AdmissionError::Full);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        while st.queue.front() != Some(&ticket) || st.running >= self.max_running {
            st = self.cond.wait(st).map_err(poisoned)?;
        }
        st.queue.pop_front();
        st.running += 1;
        // The new head may be runnable too (when several slots freed at
        // once); wake it.
        self.cond.notify_all();
        Ok(AdmissionGuard { adm: self })
    }

    /// The gate's state for a one-step read or release. A poisoned lock
    /// is recovered here: a count read or a slot handed back changes no
    /// order, and a poisoned gate admits nobody anyway.
    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        self.lock().running
    }

    /// Queries currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.adm.lock();
        st.running -= 1;
        drop(st);
        self.adm.cond.notify_all();
    }
}

/// A concurrent-session wire-protocol server over shared tables.
pub struct Server {
    session: Session,
    db: MemDb,
    cfg: ServerConfig,
    admission: Admission,
}

impl Server {
    /// Creates a server over the given session and shared tables.
    pub fn new(session: Session, db: MemDb, cfg: ServerConfig) -> Arc<Self> {
        if let Some(n) = cfg.threads {
            skadi_frontends::exec::pool::set_global_threads(n.max(1));
        }
        let admission = Admission::new(cfg.max_concurrent, cfg.max_queued);
        Arc::new(Server {
            session,
            db,
            cfg,
            admission,
        })
    }

    /// The admission gate (observable state for tests and metrics).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Serves one connection to completion on the calling thread. The
    /// server cannot see what carries a stream it is handed, so it prices
    /// it as a network client ([`compression::NETWORK_CLIENT_LINK_BPS`]):
    /// a negotiated result block is compressed where that pays.
    pub fn handle<S: Read + Write>(&self, conn: S) -> SessionEnd {
        self.serve(conn, compression::NETWORK_CLIENT_LINK_BPS)
    }

    /// [`Server::handle`] over a link of `link_bps` modelled bytes per
    /// second, which the compress-or-plain rule reads.
    fn serve<S: Read + Write>(&self, mut conn: S, link_bps: u64) -> SessionEnd {
        // --- Handshake ---
        let caps = match read_packet(&mut conn, self.cfg.max_frame) {
            Ok(Packet::ClientHello {
                version,
                capabilities,
                ..
            }) => {
                if version != PROTOCOL_VERSION {
                    self.exception(
                        &mut conn,
                        0,
                        code::VERSION,
                        &format!(
                            "server speaks protocol version {PROTOCOL_VERSION}, \
                             client sent {version}"
                        ),
                    );
                    return SessionEnd::ProtocolError;
                }
                capabilities & self.cfg.capabilities
            }
            Ok(other) => {
                self.exception(
                    &mut conn,
                    0,
                    code::PROTOCOL,
                    &format!("expected ClientHello, got {}", other.name()),
                );
                return SessionEnd::ProtocolError;
            }
            Err(WireError::Closed) => return SessionEnd::CleanClose,
            Err(WireError::Io(_)) => return SessionEnd::Disconnected,
            Err(e) => {
                self.exception(&mut conn, 0, code::PROTOCOL, &e.to_string());
                return SessionEnd::ProtocolError;
            }
        };
        if write_packet(
            &mut conn,
            &Packet::ServerHello {
                version: PROTOCOL_VERSION,
                capabilities: caps,
                server_name: self.cfg.name.clone(),
            },
        )
        .is_err()
        {
            return SessionEnd::Disconnected;
        }

        // --- Query loop ---
        loop {
            match read_packet(&mut conn, self.cfg.max_frame) {
                Ok(Packet::Query { id, sql }) => {
                    if self.run_query(&mut conn, id, &sql, caps, link_bps).is_err() {
                        // Writing the result failed: the client vanished
                        // mid-stream. Nothing to salvage.
                        return SessionEnd::Disconnected;
                    }
                }
                Ok(other) => {
                    self.exception(
                        &mut conn,
                        0,
                        code::PROTOCOL,
                        &format!("unexpected {} outside a result stream", other.name()),
                    );
                    return SessionEnd::ProtocolError;
                }
                Err(WireError::Closed) => return SessionEnd::CleanClose,
                Err(WireError::Io(_)) => return SessionEnd::Disconnected,
                Err(e) => {
                    // Garbage, truncated, or oversized frame: there is no
                    // way to find the next frame boundary, so report and
                    // drop the connection.
                    self.exception(&mut conn, 0, code::PROTOCOL, &e.to_string());
                    return SessionEnd::ProtocolError;
                }
            }
        }
    }

    /// Admits, executes, and streams one query. `Err` means the
    /// *connection* failed (client gone); query-level failures are
    /// reported in-band as `Exception` packets and return `Ok`.
    fn run_query<S: Read + Write>(
        &self,
        conn: &mut S,
        id: u64,
        sql: &str,
        caps: u32,
        link_bps: u64,
    ) -> Result<(), WireError> {
        let _slot = match self.admission.try_acquire() {
            Ok(g) => g,
            Err(e) => {
                let message = match e {
                    AdmissionError::Full => format!(
                        "admission queue full ({} running, {} queued); retry later",
                        self.cfg.max_concurrent, self.cfg.max_queued
                    ),
                    AdmissionError::Poisoned => "admission gate poisoned by a failed query".into(),
                };
                return write_packet(
                    conn,
                    &Packet::Exception {
                        query_id: id,
                        code: code::ADMISSION,
                        message,
                    },
                );
            }
        };
        let batch = match self.execute(sql) {
            Ok(b) => b,
            Err((ecode, message)) => {
                return write_packet(
                    conn,
                    &Packet::Exception {
                        query_id: id,
                        code: ecode,
                        message,
                    },
                );
            }
        };

        // Stream the result in row chunks; even an empty result sends one
        // block so the schema always reaches the client.
        let total = batch.num_rows();
        let block = self.cfg.block_rows.max(1);
        let nchunks = total.div_ceil(block).max(1);
        let mut sent_rows = 0u64;
        let mut sent_bytes = 0u64;
        // The stream's ratio, learnt from its first block that could pay.
        let mut ratio = None;
        for c in 0..nchunks {
            let chunk = batch.slice((c * block).min(total), ((c + 1) * block).min(total));
            let frame = skadi_arrow::ipc::encode(&chunk);
            // A compressed block goes only to a client that advertised
            // CAP_COMPRESSION, and only where the link's price pays for
            // the codec; otherwise it travels raw (the receiver tells the
            // two apart by magic).
            let packed = (caps & CAP_COMPRESSION != 0)
                .then(|| compression::for_link(&frame, &mut ratio, link_bps))
                .flatten();
            let payload = packed.map_or(frame, bytes::Bytes::from);
            sent_rows += chunk.num_rows() as u64;
            sent_bytes += payload.len() as u64;
            write_packet(
                conn,
                &Packet::Data {
                    query_id: id,
                    payload,
                },
            )?;
            if caps & CAP_PROGRESS != 0 && c + 1 < nchunks {
                write_packet(
                    conn,
                    &Packet::Progress {
                        query_id: id,
                        rows: sent_rows,
                        bytes: sent_bytes,
                    },
                )?;
            }
        }
        write_packet(
            conn,
            &Packet::EndOfStream {
                query_id: id,
                chunks: nchunks as u32,
            },
        )
    }

    /// Runs the statement through the configured engine; an `EXPLAIN
    /// ANALYZE` statement is answered with its rendered profile. Errors
    /// carry an exception code plus the frontend's human-readable
    /// rendering.
    fn execute(&self, statement: &str) -> Result<RecordBatch, (u16, String)> {
        let explain = sql::strip_explain_analyze(statement).is_some();
        let distributed_error = |e| match e {
            // The statement's own fault, in the local engine's words.
            SkadiError::Sql(e) => (code::SQL, e.to_string()),
            e => (code::EXEC, e.to_string()),
        };
        let local_error = |e: sql::SqlError| (code::SQL, e.to_string());
        if explain {
            let text = if self.cfg.distributed {
                let text = self.session.explain_analyze(&self.db, statement);
                text.map_err(distributed_error)?
            } else {
                self.db.explain_analyze(statement).map_err(local_error)?
            };
            return explain_rows(&text);
        }
        if self.cfg.distributed {
            self.session
                .sql_distributed(&self.db, statement)
                .map(|run| run.batch)
                .map_err(distributed_error)
        } else {
            self.db.query(statement).map_err(local_error)
        }
    }

    /// Best-effort exception write (the peer may already be gone).
    fn exception<S: Write>(&self, conn: &mut S, query_id: u64, ecode: u16, message: &str) {
        let _ = write_packet(
            conn,
            &Packet::Exception {
                query_id,
                code: ecode,
                message: message.to_string(),
            },
        );
    }

    /// Opens an in-memory connection to this server: spawns a handler
    /// thread for the server end and returns the client end plus the
    /// handler's join handle (joining surfaces panics and the
    /// [`SessionEnd`] verdict — tests assert on both). The duplex is a
    /// memory-class link ([`compression::MEMORY_LINK_BPS`]), so its
    /// blocks are never compressed.
    pub fn connect(self: &Arc<Self>) -> (wire::DuplexStream, thread::JoinHandle<SessionEnd>) {
        let (client_end, server_end) = wire::duplex();
        let server = Arc::clone(self);
        let handle = thread::spawn(move || server.serve(server_end, compression::MEMORY_LINK_BPS));
        (client_end, handle)
    }

    /// Accept loop over a TCP listener: one handler thread per
    /// connection, forever. Only returns if `accept` itself fails.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        loop {
            let (stream, peer) = listener.accept()?;
            let server = Arc::clone(self);
            thread::spawn(move || {
                let end = server.handle(stream);
                eprintln!("connection from {peer} ended: {end:?}");
            });
        }
    }
}

/// A rendered profile as a result: one Utf8 column `explain`, one row per
/// line.
fn explain_rows(text: &str) -> Result<RecordBatch, (u16, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let field = Field::new("explain", DataType::Utf8, false);
    RecordBatch::try_new(Schema::new(vec![field]), vec![Array::from_utf8(&lines)])
        .map_err(|e| (code::EXEC, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn gate() -> Arc<Admission> {
        Arc::new(Admission::new(1, 1))
    }

    /// Spin until `cond` holds (bounded; panics on timeout so a bug
    /// can't hang the suite).
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..5000 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn admission_rejects_beyond_capacity() {
        let adm = gate();
        let _running = adm.try_acquire().expect("first slot");
        // One waiter is allowed to queue...
        let adm2 = Arc::clone(&adm);
        let waiter = thread::spawn(move || {
            let _slot = adm2.try_acquire().expect("queued slot");
        });
        wait_until("waiter to queue", || adm.queued() == 1);
        // ...but the next arrival is rejected immediately, not blocked.
        assert_eq!(adm.try_acquire().err(), Some(AdmissionError::Full));
        drop(_running);
        waiter.join().expect("waiter finishes after release");
        assert_eq!(adm.running(), 0);
    }

    #[test]
    fn admission_is_fifo() {
        let adm = Arc::new(Admission::new(1, 16));
        let first = adm.try_acquire().expect("slot");
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for i in 0..4 {
            let shared = Arc::clone(&adm);
            let log = Arc::clone(&order);
            waiters.push(thread::spawn(move || {
                let _slot = shared.try_acquire().expect("queued");
                log.lock().unwrap().push(i);
            }));
            // Stagger arrivals so ticket order is the spawn order.
            wait_until("waiter to queue", || adm.queued() == i + 1);
        }
        drop(first);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn guard_drop_wakes_next() {
        let adm = Arc::new(Admission::new(2, 8));
        let a = adm.try_acquire().unwrap();
        let b = adm.try_acquire().unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let adm = Arc::clone(&adm);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                let _slot = adm.try_acquire().unwrap();
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        wait_until("both to queue", || adm.queued() == 2);
        // Releasing both running slots at once must admit *both* waiters
        // (the head wakes the new head).
        drop(a);
        drop(b);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }
}
