//! The network front door, end to end: 100+ concurrent client sessions
//! over the framed in-memory transport must come back byte-identical to
//! the in-process engine, and every adversarial input — malformed
//! frames, oversized prefixes, handshake garbage, mid-query disconnects
//! — must end in an `Exception` packet or a clean teardown, never a
//! panic, a hang, or a partial result passed off as complete.

use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;

use skadi::arrow::array::{Array, Value};
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;
use skadi::server::{Server, ServerConfig, SessionEnd};
use skadi::wire::codec::{read_packet, write_packet, WireError};
use skadi::wire::packet::{code, Packet, CAP_PROGRESS, PROTOCOL_VERSION};
use skadi::wire::{Client, DEFAULT_MAX_FRAME};

/// Deterministic shared tables. `people` includes a name with an
/// embedded quote so the `'O''Brien'` escape is exercised end to end.
fn shared_db(rows: usize) -> MemDb {
    let mut rng = skadi::dcsim::rng::DetRng::seed(77);
    let kinds = ["click", "view", "purchase"];
    let user_ids: Vec<i64> = (0..rows).map(|_| rng.below(50) as i64).collect();
    let kind_col: Vec<&str> = (0..rows).map(|_| *rng.pick(&kinds)).collect();
    let values: Vec<f64> = (0..rows).map(|_| rng.unit() * 10.0).collect();
    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(user_ids),
            Array::from_utf8(&kind_col),
            Array::from_f64(values),
        ],
    )
    .unwrap();
    let people = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64(vec![0, 1, 2, 3]),
            Array::from_utf8(&["O'Brien", "Ada", "Grace", "O'Brien"]),
        ],
    )
    .unwrap();
    MemDb::new()
        .register("events", events)
        .register("people", people)
}

fn test_session(parallelism: u32) -> Session {
    Session::builder()
        .topology(presets::small_disagg_cluster())
        .parallelism(parallelism)
        .build()
}

fn query_set() -> Vec<&'static str> {
    vec![
        "SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind ORDER BY total DESC",
        "SELECT user_id, value FROM events WHERE value > 5.0 ORDER BY value DESC LIMIT 7",
        "SELECT name, count(*) AS n FROM events JOIN people ON user_id = user_id GROUP BY name ORDER BY name",
        "SELECT name FROM people WHERE name = 'O''Brien'",
        "SELECT user_id FROM events LIMIT 0",
    ]
}

/// The headline: 104 concurrent sessions over the framed transport, all
/// answers byte-identical to the in-process engine on the same shared
/// tables. Admission is sized so nothing is rejected — capacity limits
/// have their own deterministic test below.
#[test]
fn hundred_concurrent_sessions_byte_identical() {
    let db = shared_db(400);
    let expected: Vec<Vec<u8>> = query_set()
        .iter()
        .map(|q| ipc::encode(&db.query(q).unwrap()).to_vec())
        .collect();
    let server = Server::new(
        test_session(2),
        db,
        ServerConfig {
            max_queued: 256,
            ..ServerConfig::default()
        },
    );

    let mut clients = Vec::new();
    for c in 0..104usize {
        let (stream, server_thread) = server.connect();
        let expected = expected.clone();
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(stream, &format!("client-{c}")).expect("handshake");
            // Each session rotates through the query set from its own
            // starting point so queries interleave across sessions.
            for k in 0..query_set().len() {
                let q_idx = (c + k) % query_set().len();
                let r = client.query(query_set()[q_idx]).expect("query succeeds");
                assert_eq!(
                    ipc::encode(&r.batch).to_vec(),
                    expected[q_idx],
                    "client {c} query {q_idx} diverged from in-process result"
                );
            }
            drop(client);
            // The server saw a normal teardown, not an error.
            assert_eq!(
                server_thread.join().expect("no panic"),
                SessionEnd::CleanClose
            );
        }));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
}

/// A distributed-mode server executes through the simulated cluster's
/// data plane and still matches both the local engine and an in-process
/// `Session::sql_distributed` byte for byte.
#[test]
fn distributed_server_matches_in_process() {
    let db = shared_db(200);
    let session = test_session(4);
    let queries = [
        "SELECT kind, sum(value) AS total FROM events GROUP BY kind ORDER BY total DESC",
        "SELECT user_id, value FROM events WHERE value > 8.0 ORDER BY value DESC LIMIT 4",
    ];
    let expected: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            let run = session.sql_distributed(&db, q).unwrap();
            let local = db.query(q).unwrap();
            assert_eq!(run.batch, local, "distributed != local for {q}");
            ipc::encode(&run.batch).to_vec()
        })
        .collect();

    let server = Server::new(
        test_session(4),
        db,
        ServerConfig {
            distributed: true,
            ..ServerConfig::default()
        },
    );
    let mut clients = Vec::new();
    for c in 0..4 {
        let (stream, server_thread) = server.connect();
        let expected = expected.clone();
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(stream, &format!("dist-{c}")).expect("handshake");
            for (q, want) in queries.iter().zip(&expected) {
                let r = client.query(q).expect("distributed query succeeds");
                assert_eq!(&ipc::encode(&r.batch).to_vec(), want);
            }
            drop(client);
            assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
        }));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
}

/// Small blocks stream a result in many Data chunks with Progress
/// between them, and the reassembled batch equals the unchunked answer.
#[test]
fn streamed_chunks_reassemble() {
    let db = shared_db(300);
    let q = "SELECT user_id, kind, value FROM events ORDER BY value DESC";
    let whole = db.query(q).unwrap();
    let server = Server::new(
        test_session(2),
        db,
        ServerConfig {
            block_rows: 32,
            ..ServerConfig::default()
        },
    );

    let (stream, server_thread) = server.connect();
    let mut client = Client::connect(stream, "chunky").unwrap();
    let r = client.query(q).unwrap();
    assert!(r.chunks > 1, "300 rows at 32/block should chunk");
    assert_eq!(r.progress_events as u32, r.chunks - 1);
    assert_eq!(r.batch, whole);
    drop(client);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);

    // A client that does not negotiate CAP_PROGRESS gets pure data.
    let (stream, server_thread) = server.connect();
    let mut quiet = Client::connect_with(stream, "quiet", 0, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(quiet.capabilities & CAP_PROGRESS, 0);
    let r = quiet.query(q).unwrap();
    assert_eq!(r.progress_events, 0);
    assert_eq!(r.batch, whole);
    drop(quiet);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
}

/// Frontend bugs surface as readable Exception packets and the session
/// stays usable afterwards.
#[test]
fn sql_errors_become_exceptions_with_readable_messages() {
    let db = shared_db(50);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (stream, server_thread) = server.connect();
    let mut client = Client::connect(stream, "errors").unwrap();

    for (bad, needle) in [
        (
            "SELECT user_id FROM events LIMIT -5",
            "LIMIT must be a non-negative integer",
        ),
        (
            "SELECT name FROM people WHERE name = 'oops",
            "unterminated string literal starting at offset",
        ),
        ("SELECT x FROM nowhere", "nowhere"),
        ("SELECT % FROM events", "unexpected character"),
    ] {
        match client.query(bad) {
            Err(WireError::Server { code: c, message }) => {
                assert_eq!(c, code::SQL, "{bad}");
                assert!(message.contains(needle), "{bad}: {message}");
            }
            other => panic!("{bad}: expected server exception, got {other:?}"),
        }
        // The connection survives query-level failures.
        let ok = client.query("SELECT name FROM people WHERE name = 'O''Brien'");
        assert_eq!(ok.expect("session still usable").batch.num_rows(), 2);
    }
    drop(client);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
}

/// A name that resolves nowhere is the statement's fault on either engine:
/// the distributed planner refuses it with `code::SQL` before a task
/// exists (it used to launch the job and relay a shard's "internal runtime
/// error" as `code::EXEC`), and the session answers the next query.
#[test]
fn unknown_columns_are_sql_errors_before_any_task_runs() {
    let bad = [
        "SELECT nope FROM events",
        "SELECT user_id FROM events ORDER BY nope",
        "SELECT count(*) AS n FROM events GROUP BY nope",
        "SELECT sum(nope) AS s FROM events",
        "SELECT name FROM events JOIN people ON nope = user_id",
    ];
    let db = shared_db(50);
    for q in bad {
        match test_session(4).sql_distributed(&db, q) {
            Err(SkadiError::Sql(e)) => assert!(e.to_string().contains("\"nope\""), "{q}: {e}"),
            other => panic!("{q}: expected a planning error, got {other:?}"),
        }
    }
    for distributed in [false, true] {
        let server = Server::new(
            test_session(4),
            shared_db(50),
            ServerConfig {
                distributed,
                ..ServerConfig::default()
            },
        );
        let (stream, server_thread) = server.connect();
        let mut client = Client::connect(stream, "typo").unwrap();
        for q in bad {
            match client.query(q) {
                Err(WireError::Server { code: c, message }) => {
                    assert_eq!(c, code::SQL, "{q} (distributed: {distributed}): {message}");
                    assert!(message.contains("nope"), "{q}: {message}");
                    assert!(!message.contains("task"), "{q} reached a task: {message}");
                }
                other => panic!("{q}: expected server exception, got {other:?}"),
            }
            let ok = client.query("SELECT name FROM people WHERE name = 'Ada'");
            assert_eq!(ok.expect("session still usable").batch.num_rows(), 1);
        }
        drop(client);
        assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
    }
}

/// `sum` over `Int64` that leaves the `i64` range ends the query with the
/// same named error locally, from a distributed shard, and as a wire
/// `Exception` from either engine — never a silently wrapped total. The
/// neighbouring group's query still answers, and the session survives.
#[test]
fn int64_sum_overflow_is_an_error_on_every_path() {
    let t = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("g", DataType::Utf8, false),
            Field::new("v", DataType::Int64, false),
        ]),
        vec![
            Array::from_utf8(&["big", "small", "big", "small"]),
            Array::from_i64(vec![i64::MAX, 40, 1, 2]),
        ],
    )
    .unwrap();
    let db = MemDb::new().register("t", t);
    let needle = "sum(v) overflowed Int64";
    let grouped = "SELECT g, sum(v) AS s FROM t GROUP BY g";
    let global = "SELECT sum(v) AS s FROM t";
    let neighbour = "SELECT g, sum(v) AS s FROM t WHERE g = 'small' GROUP BY g";
    let want = db.query(neighbour).unwrap();
    assert_eq!(want.column(1).value_at(0), Value::I64(42));
    // `avg` folds in f64 and is unaffected.
    assert_eq!(db.query("SELECT avg(v) AS a FROM t").unwrap().num_rows(), 1);

    for q in [grouped, global] {
        let local = db.query(q).unwrap_err().to_string();
        assert!(local.contains(needle), "local {q}: {local}");
        for parallelism in [1, 4] {
            let session = test_session(parallelism);
            let dist = session.sql_distributed(&db, q).unwrap_err().to_string();
            assert!(
                dist.contains(needle),
                "distributed x{parallelism} {q}: {dist}"
            );
            let run = session.sql_distributed(&db, neighbour).unwrap();
            assert_eq!(run.batch, want);
        }
    }

    for distributed in [false, true] {
        let server = Server::new(
            test_session(2),
            db.clone(),
            ServerConfig {
                distributed,
                ..ServerConfig::default()
            },
        );
        let (stream, server_thread) = server.connect();
        let mut client = Client::connect(stream, "overflow").unwrap();
        for q in [grouped, global] {
            match client.query(q) {
                Err(WireError::Server { message, .. }) => {
                    assert!(message.contains(needle), "wire {q}: {message}")
                }
                other => panic!("{q}: expected server exception, got {other:?}"),
            }
            let ok = client.query(neighbour).expect("session still usable");
            assert_eq!(ok.batch, want);
        }
        drop(client);
        assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
    }
}

/// `LIMIT 0` is legal and returns the empty-but-schema'd result on both
/// engines (regression for the negative-limit audit).
#[test]
fn limit_zero_returns_empty_schema_on_both_engines() {
    let db = shared_db(80);
    let q = "SELECT user_id, value FROM events LIMIT 0";
    let local = db.query(q).unwrap();
    assert_eq!(local.num_rows(), 0);
    assert_eq!(local.num_columns(), 2);
    let session = test_session(2);
    let run = session.sql_distributed(&db, q).unwrap();
    assert_eq!(run.batch, local);

    // And over the wire: one Data block carrying the schema, zero rows.
    let server = Server::new(session, db, ServerConfig::default());
    let (stream, server_thread) = server.connect();
    let mut client = Client::connect(stream, "limit0").unwrap();
    let r = client.query(q).unwrap();
    assert_eq!(r.chunks, 1);
    assert_eq!(r.batch, local);
    drop(client);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
}

/// Raw garbage instead of a handshake: the server answers with a
/// protocol Exception (or just closes) and the handler exits — no panic,
/// no hang.
#[test]
fn garbage_bytes_tear_down_cleanly() {
    let db = shared_db(10);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (mut stream, server_thread) = server.connect();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // Whatever comes back must parse as an Exception (the server cannot
    // resync, so it reports and closes).
    match read_packet(&mut stream, DEFAULT_MAX_FRAME) {
        Ok(Packet::Exception { code: c, .. }) => assert_eq!(c, code::PROTOCOL),
        Ok(other) => panic!("expected Exception, got {other:?}"),
        Err(WireError::Closed) => {}
        Err(e) => panic!("unexpected {e}"),
    }
    assert_eq!(server_thread.join().unwrap(), SessionEnd::ProtocolError);
}

/// A frame that claims more bytes than ever arrive (truncated body, then
/// disconnect) ends the session without a panic or hang.
#[test]
fn truncated_frame_then_disconnect() {
    let db = shared_db(10);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (mut stream, server_thread) = server.connect();
    // Length prefix says 100 bytes; send only 3 and vanish.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[3, 1, 2]).unwrap();
    drop(stream);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::ProtocolError);
}

/// An oversized length prefix is rejected up front — the server must
/// not allocate or read the claimed 4 GiB.
#[test]
fn oversized_frame_rejected() {
    let db = shared_db(10);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (mut stream, server_thread) = server.connect();
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match read_packet(&mut stream, DEFAULT_MAX_FRAME) {
        Ok(Packet::Exception {
            code: c, message, ..
        }) => {
            assert_eq!(c, code::PROTOCOL);
            assert!(message.contains("exceeds"), "{message}");
        }
        Ok(other) => panic!("expected Exception, got {other:?}"),
        Err(WireError::Closed) => {}
        Err(e) => panic!("unexpected {e}"),
    }
    assert_eq!(server_thread.join().unwrap(), SessionEnd::ProtocolError);
}

/// Handshake version mismatch gets a VERSION exception naming both
/// versions, then the connection closes.
#[test]
fn version_mismatch_rejected() {
    let db = shared_db(10);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (mut stream, server_thread) = server.connect();
    write_packet(
        &mut stream,
        &Packet::ClientHello {
            version: 99,
            capabilities: 0,
            client_name: "from-the-future".into(),
        },
    )
    .unwrap();
    match read_packet(&mut stream, DEFAULT_MAX_FRAME).unwrap() {
        Packet::Exception {
            code: c, message, ..
        } => {
            assert_eq!(c, code::VERSION);
            assert!(
                message.contains(&PROTOCOL_VERSION.to_string()) && message.contains("99"),
                "{message}"
            );
        }
        other => panic!("expected Exception, got {other:?}"),
    }
    assert_eq!(server_thread.join().unwrap(), SessionEnd::ProtocolError);
}

/// Sending a Query before the handshake is a protocol error.
#[test]
fn query_before_handshake_rejected() {
    let db = shared_db(10);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let (mut stream, server_thread) = server.connect();
    write_packet(
        &mut stream,
        &Packet::Query {
            id: 1,
            sql: "SELECT 1".into(),
        },
    )
    .unwrap();
    match read_packet(&mut stream, DEFAULT_MAX_FRAME).unwrap() {
        Packet::Exception {
            code: c, message, ..
        } => {
            assert_eq!(c, code::PROTOCOL);
            assert!(message.contains("ClientHello"), "{message}");
        }
        other => panic!("expected Exception, got {other:?}"),
    }
    assert_eq!(server_thread.join().unwrap(), SessionEnd::ProtocolError);
}

/// A stream whose write side fails after a byte budget: deterministic
/// stand-in for a client that vanishes mid-result.
struct DropAfter<S> {
    inner: S,
    write_budget: usize,
}

impl<S: Read> Read for DropAfter<S> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(out)
    }
}

impl<S: Write> Write for DropAfter<S> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.write_budget < data.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer vanished mid-stream",
            ));
        }
        self.write_budget -= data.len();
        self.inner.write(data)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Disconnect mid-result: the server hits a broken pipe while streaming
/// Data blocks, discards the query, and tears down as Disconnected —
/// never a panic, and never an EndOfStream after a failed write.
#[test]
fn disconnect_mid_stream_is_clean() {
    let db = shared_db(300);
    let server = Server::new(
        test_session(2),
        db,
        ServerConfig {
            block_rows: 16,
            ..ServerConfig::default()
        },
    );
    let (client_end, server_end) = skadi::wire::duplex();
    // Allow the handshake and a few chunks through, then break the pipe.
    let flaky = DropAfter {
        inner: server_end,
        write_budget: 4096,
    };
    let server2 = Arc::clone(&server);
    let handler = thread::spawn(move || server2.handle(flaky));

    let mut client = Client::connect(client_end, "doomed").unwrap();
    let err = client
        .query("SELECT user_id, kind, value FROM events ORDER BY value DESC")
        .expect_err("stream must not complete");
    // The client sees a truncated stream (connection closed mid-result),
    // never a partial result passed off as complete.
    assert!(
        !matches!(err, WireError::Server { .. }),
        "got server exception instead of cut stream: {err}"
    );
    assert_eq!(handler.join().expect("no panic"), SessionEnd::Disconnected);
}

/// Client drops right after sending a query (the racy end-to-end
/// variant): any teardown except ProtocolError is acceptable, and the
/// handler must neither panic nor hang. The bytes sent are all
/// well-formed — only the timing of the disconnect varies.
#[test]
fn drop_after_query_never_panics() {
    let db = shared_db(200);
    let server = Server::new(test_session(2), db, ServerConfig::default());
    for round in 0..8 {
        let (mut stream, server_thread) = server.connect();
        write_packet(
            &mut stream,
            &Packet::ClientHello {
                version: PROTOCOL_VERSION,
                capabilities: CAP_PROGRESS,
                client_name: format!("ghost-{round}"),
            },
        )
        .unwrap();
        match read_packet(&mut stream, DEFAULT_MAX_FRAME).unwrap() {
            Packet::ServerHello { .. } => {}
            other => panic!("expected ServerHello, got {other:?}"),
        }
        write_packet(
            &mut stream,
            &Packet::Query {
                id: 1,
                sql: "SELECT user_id, value FROM events".into(),
            },
        )
        .unwrap();
        drop(stream);
        let end = server_thread.join().expect("no panic");
        assert_ne!(end, SessionEnd::ProtocolError, "well-formed bytes only");
    }
}

/// Admission control: with the gate held shut, a query is rejected
/// immediately with an ADMISSION exception; after release it succeeds.
#[test]
fn admission_full_rejects_then_recovers() {
    let db = shared_db(60);
    let server = Server::new(
        test_session(2),
        db,
        ServerConfig {
            max_concurrent: 1,
            max_queued: 0,
            ..ServerConfig::default()
        },
    );
    let (stream, server_thread) = server.connect();
    let mut client = Client::connect(stream, "queued-out").unwrap();

    let slot = server
        .admission()
        .try_acquire()
        .expect("grab the only slot");
    match client.query("SELECT user_id FROM events LIMIT 3") {
        Err(WireError::Server { code: c, message }) => {
            assert_eq!(c, code::ADMISSION);
            assert!(message.contains("admission queue full"), "{message}");
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    drop(slot);
    let r = client.query("SELECT user_id FROM events LIMIT 3").unwrap();
    assert_eq!(r.batch.num_rows(), 3);
    drop(client);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
}

/// The same protocol over real TCP: serve on an ephemeral port, run a
/// client session, assert byte-identity — the transport is swappable.
#[test]
fn tcp_round_trip() {
    let db = shared_db(120);
    let expected = ipc::encode(&db.query(query_set()[0]).unwrap()).to_vec();
    let server = Server::new(test_session(2), db, ServerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        server.handle(conn)
    });

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut client = Client::connect(stream, "tcp-client").unwrap();
    let r = client.query(query_set()[0]).unwrap();
    assert_eq!(ipc::encode(&r.batch).to_vec(), expected);
    drop(client);
    assert_eq!(acceptor.join().unwrap(), SessionEnd::CleanClose);
}

/// Compression is opt-in per connection. A legacy client that never
/// advertises CAP_COMPRESSION must receive plain IPC frames only, while
/// a modern client on the same server may receive compressed payloads —
/// and both decode to the identical batch.
#[test]
fn compression_is_negotiated_per_connection() {
    use skadi::arrow::compression;
    use skadi::wire::packet::CAP_COMPRESSION;

    // A wide repetitive result so compression actually engages.
    let db = shared_db(600);
    let q = "SELECT kind, user_id, value FROM events ORDER BY value DESC";
    let plain_encoded = ipc::encode(&db.query(q).unwrap());
    let server = Server::new(test_session(2), db, ServerConfig::default());

    // Legacy client: no compression capability. Raw-frame proof comes
    // from the reported payload byte count matching the plain encoding.
    let (stream, server_thread) = server.connect();
    let mut legacy =
        Client::connect_with(stream, "legacy", CAP_PROGRESS, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(legacy.capabilities & CAP_COMPRESSION, 0);
    let r_legacy = legacy.query(q).unwrap();
    drop(legacy);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);

    // Modern client: default capabilities include compression.
    let (stream, server_thread) = server.connect();
    let mut modern = Client::connect(stream, "modern").unwrap();
    assert_ne!(modern.capabilities & CAP_COMPRESSION, 0);
    let r_modern = modern.query(q).unwrap();
    drop(modern);
    assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);

    // Identical logical results either way.
    assert_eq!(r_legacy.batch, r_modern.batch);
    assert_eq!(
        ipc::encode(&r_legacy.batch).to_vec(),
        plain_encoded.to_vec()
    );

    // The payload really was compressible (sanity for the assertion
    // below) and the negotiated session shipped strictly fewer bytes.
    assert!(
        compression::maybe_compress(&plain_encoded).len() < plain_encoded.len(),
        "test payload should be compressible"
    );
    assert!(
        r_modern.payload_bytes < r_legacy.payload_bytes,
        "compressed session sent {} bytes, plain session {}",
        r_modern.payload_bytes,
        r_legacy.payload_bytes
    );
}

/// NaN ordering over the wire: `total_cmp` places NaN after +inf in an
/// ascending sort, deterministically, and the wire answer matches the
/// in-process engine bit for bit — on both the local and distributed
/// execution paths.
#[test]
fn nan_ordering_is_deterministic_over_the_wire() {
    fn nan_db() -> MemDb {
        let m = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("x", DataType::Float64, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3, 4, 5, 6]),
                Array::from_f64(vec![
                    f64::NAN,
                    1.5,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    -0.0,
                    f64::NAN,
                ]),
            ],
        )
        .unwrap();
        MemDb::new().register("m", m)
    }
    let q = "SELECT x FROM m ORDER BY x";
    let expected = nan_db().query(q).unwrap();
    // total_cmp order: -inf < -0.0 < 1.5 < +inf < NaN.
    match expected.column(0) {
        Array::Float64(xs) => {
            let got: Vec<f64> = (0..xs.len()).map(|i| xs.get(i).unwrap()).collect();
            assert_eq!(got[0], f64::NEG_INFINITY);
            assert_eq!(got[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(got[2], 1.5);
            assert_eq!(got[3], f64::INFINITY);
            assert!(got[4].is_nan() && got[5].is_nan(), "NaNs sort last");
        }
        other => panic!("unexpected x column {other:?}"),
    }

    for distributed in [false, true] {
        let server = Server::new(
            test_session(4),
            nan_db(),
            ServerConfig {
                distributed,
                ..ServerConfig::default()
            },
        );
        let (stream, server_thread) = server.connect();
        let mut client = Client::connect(stream, "nan-client").unwrap();
        let r = client.query(q).unwrap();
        assert_eq!(
            ipc::encode(&r.batch).to_vec(),
            ipc::encode(&expected).to_vec(),
            "distributed={distributed}"
        );
        drop(client);
        assert_eq!(server_thread.join().unwrap(), SessionEnd::CleanClose);
    }
}
