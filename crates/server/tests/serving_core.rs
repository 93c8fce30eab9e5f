//! Serving-core behavior proofs:
//!
//! - the TCP_NODELAY regression: small request/response round-trips must
//!   complete orders of magnitude under Nagle + delayed-ACK timescales
//!   (~40ms per round-trip when the server forgets `set_nodelay`, the
//!   PR 7 bug);
//! - pipelined requests keep arrival order through backpressure pauses
//!   (a session queue bound of 2 forces the reactor to stop and resume
//!   reading the socket many times mid-burst);
//! - admission control: past the server-wide in-flight cap, requests get
//!   typed [`ErrorCode::Overloaded`] rejections *in order*, and the
//!   session survives to serve again once the load passes;
//! - shutdown wakes idle sessions and drains `active_sessions` to zero.

use co_engine::{Engine, SharedEngine};
use co_parser::parse_object;
use co_server::frame::{encode_frame, read_frame, DEFAULT_MAX_FRAME_LEN};
use co_server::{Client, ErrorCode, Request, Response, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn seed_server(config: ServerConfig) -> co_server::ServerHandle {
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object("[edge: {[s: a, t: b]}]").unwrap(),
    );
    Server::bind(shared, config).unwrap()
}

/// The Nagle regression. With `TCP_NODELAY` missing on the server side
/// (the PR 7 bug), each small request/response round-trip can stall on
/// Nagle + delayed-ACK (~40ms): 100 round-trips would take seconds.
/// With it set on both sides, 100 round-trips are comfortably sub-second.
#[test]
fn small_round_trips_complete_well_under_nagle_timescales() {
    const ROUND_TRIPS: u32 = 100;
    // 100 Nagle-stalled round-trips would be ≥ 4s; a healthy loopback
    // server does them in single-digit milliseconds total. The bar leaves
    // two orders of magnitude of CI-noise headroom on each side.
    const BUDGET: Duration = Duration::from_secs(2);
    let handle = seed_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap(); // connection + first-touch warmup
    let started = Instant::now();
    for _ in 0..ROUND_TRIPS {
        client.ping().unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < BUDGET,
        "{ROUND_TRIPS} round-trips took {elapsed:?} — Nagle-class stalls"
    );
    assert_eq!(handle.shutdown(), 0);
}

/// Pipelining through backpressure: with a session queue bound of 2, a
/// burst of 48 requests forces the reactor to pause and resume the
/// socket over and over; every response must still come back, in arrival
/// order, with the kind matching its request.
#[test]
fn pipelined_burst_keeps_order_through_backpressure_pauses() {
    const BURST: usize = 48;
    let handle = seed_server(ServerConfig {
        session_queue: 2,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Alternate pings and queries so misordering is detectable by kind.
    let mut burst = Vec::new();
    for i in 0..BURST {
        let body = if i % 2 == 0 {
            Request::Ping.encode()
        } else {
            Request::Query {
                formula: "[edge: {[s: X, t: Y]}]".into(),
            }
            .encode()
        };
        burst.extend_from_slice(&encode_frame(&body));
    }
    stream.write_all(&burst).unwrap();

    for i in 0..BURST {
        let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap_or_else(|| panic!("server closed before reply {i}"));
        match (i % 2, Response::decode(&body).unwrap()) {
            (0, Response::Pong) => {}
            (_, Response::Objects { version, .. }) if i % 2 == 1 => assert_eq!(version, 1),
            (_, other) => panic!("reply {i} out of order: {other:?}"),
        }
    }
    assert_eq!(handle.shutdown(), 0);
}

/// Admission control: with the server-wide in-flight cap at 1, a burst
/// of one slow eval plus pipelined pings turns every ping into a typed
/// `Overloaded` rejection — in queue order, costing no engine work — and
/// the session stays usable once the eval completes.
#[test]
fn over_the_inflight_cap_requests_get_typed_overloaded_rejections() {
    const PINGS: usize = 8;
    // A chain of 40 edges: the transitive closure derives ~800 paths over
    // ~40 fixpoint iterations — plenty slow for the burst to arrive while
    // it is the one admitted in-flight request.
    let edges: Vec<String> = (0..40)
        .map(|i| format!("[s: n{i}, t: n{}]", i + 1))
        .collect();
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object(&format!("[edge: {{{}}}]", edges.join(", "))).unwrap(),
    );
    let handle = Server::bind(
        shared,
        ServerConfig {
            max_inflight: 1,
            session_queue: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut burst = encode_frame(
        &Request::Eval {
            program: "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
                      [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}]."
                .into(),
        }
        .encode(),
    );
    for _ in 0..PINGS {
        burst.extend_from_slice(&encode_frame(&Request::Ping.encode()));
    }
    stream.write_all(&burst).unwrap();

    // Reply 1: the admitted eval, served for real.
    let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Objects { version, .. } => assert_eq!(version, 1),
        other => panic!("the admitted eval must be served: {other:?}"),
    }
    // Replies 2..: typed Overloaded rejections, in order, session alive.
    for i in 0..PINGS {
        let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap_or_else(|| panic!("closed before rejection {i}"));
        match Response::decode(&body).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Overloaded, "rejection {i}");
                assert!(message.contains("in-flight"), "rejection {i}: {message}");
            }
            other => panic!("rejection {i}: expected Overloaded, got {other:?}"),
        }
    }
    // The cap freed up: the same session serves normally again.
    stream
        .write_all(&encode_frame(&Request::Ping.encode()))
        .unwrap();
    let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
    assert!(matches!(Response::decode(&body).unwrap(), Response::Pong));
    assert_eq!(handle.shutdown(), 0);
}

/// Shutdown wakes sessions parked in idle reads: the session counter
/// provably drains to zero instead of leaking slots until process exit.
#[test]
fn shutdown_wakes_and_drains_idle_sessions() {
    let handle = seed_server(ServerConfig::default());
    let clients: Vec<Client> = (0..3)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).unwrap();
            c.ping().unwrap();
            c
        })
        .collect();
    // All three sessions are now idle, parked waiting for a frame.
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.active_sessions() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(handle.active_sessions(), 3);
    assert_eq!(handle.shutdown(), 0, "idle sessions must drain");
    drop(clients);
}

/// The worker count knob is honored exactly: a pool told `workers: 1`
/// still serves concurrent sessions correctly (per-session order is a
/// scheduling invariant, not a thread-count accident).
#[test]
fn a_single_worker_still_serves_many_sessions() {
    let handle = seed_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..20 {
                    client.ping().unwrap();
                    let (v, _) = client.query("[edge: {[s: X, t: Y]}]").unwrap();
                    assert_eq!(v, 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(handle.shutdown(), 0);
}
