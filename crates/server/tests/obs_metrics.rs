//! The observability contract, proven over the wire:
//!
//! - **Ledger invariants** — at quiesce (all clients gone, server shut
//!   down) the request ledger balances:
//!   `server.requests_decoded == server.requests_handled +
//!   server.requests_rejected` and the `server.inflight` gauge is back
//!   to zero, checkable from the registry snapshot alone.
//! - **Histogram/counter coherence** — every handled request records
//!   exactly one `server.handle_ns` observation, so the histogram count
//!   equals the handled-counter delta.
//! - **Snapshot algebra** — `Snapshot::minus` then `merge` round-trips:
//!   the before-snapshot plus the run's delta reproduces the
//!   after-snapshot exactly (counters and histogram buckets).
//! - **Typed corruption** — a `Response::Metrics` frame whose histogram
//!   section violates canonical form (out-of-range index, non-increasing
//!   indexes, zero-count bucket) decodes to a typed [`ProtocolError`],
//!   never a panic and never a silently-wrong snapshot.
//! - **Trace battery** — with `CO_TRACE` routed to a file, a busy pass
//!   (queries, advances, a GC'd engine run, decode failures) emits only
//!   lines that parse as JSON objects.
//!
//! The co-obs registry and trace sink are process-global, so every test
//! takes one shared lock: the assertions diff before/after snapshots and
//! must not see a concurrent test's traffic in between.

use co_engine::{Engine, SharedEngine};
use co_parser::parse_object;
use co_server::frame::encode_frame;
use co_server::{Client, ProtocolError, Request, Response, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

/// Serializes the tests: the global registry cannot tell two concurrent
/// servers' requests apart.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn seed_server() -> co_server::ServerHandle {
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object("[edge: {[s: a, t: b], [s: b, t: c]}]").unwrap(),
    );
    Server::bind(shared, ServerConfig::default()).unwrap()
}

/// One busy client pass: pings, a pinned query, an advance, and finally
/// a deliberately undecodable request frame (valid framing, unknown
/// request kind `0x7f`) that the server must count as decoded + rejected.
fn busy_pass(handle: &co_server::ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    client.snapshot().unwrap();
    let (_v, result) = client.query("[edge: {[s: X, t: Y]}]").unwrap();
    assert!(result.dot("edge").as_set().is_some());
    client.release().unwrap();
    client
        .advance("[reach: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].")
        .unwrap();
    drop(client);

    // The undecodable request: the frame layer accepts it (so the server
    // counts a *decoded* frame), `Request::decode` rejects it.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&encode_frame(&[0x7f])).unwrap();
    raw.flush().unwrap();
    // Wait for the typed error response (or close) so the rejection has
    // landed in the ledger before we snapshot.
    let mut buf = [0u8; 256];
    use std::io::Read;
    let _ = raw.read(&mut buf);
    drop(raw);
}

#[test]
fn pool_ledger_balances_at_quiesce() {
    let _guard = GLOBAL_OBS.lock().unwrap();
    let before = co_obs::global().snapshot();
    let handle = seed_server();
    busy_pass(&handle);
    assert_eq!(handle.shutdown(), 0);
    let after = co_obs::global().snapshot();
    let delta = after.minus(&before);

    let decoded = delta.counter("server.requests_decoded").unwrap_or(0);
    let handled = delta.counter("server.requests_handled").unwrap_or(0);
    let rejected = delta.counter("server.requests_rejected").unwrap_or(0);
    assert!(decoded >= 6, "expected a busy pass, saw {decoded}");
    assert_eq!(
        decoded,
        handled + rejected,
        "ledger must balance at quiesce ({delta})"
    );
    assert!(rejected >= 1, "the 0x7f frame must be rejected");
    // The gauge is absolute (not a delta): zero means every decoded
    // request in the whole process history was handled or rejected.
    assert_eq!(
        after.gauge("server.inflight"),
        Some(0),
        "in-flight gauge must return to zero at quiesce"
    );

    // Histogram/counter coherence: one handle_ns observation per handled
    // request, one queue-wait observation per dequeued frame.
    let handle_hist = delta.histogram("server.handle_ns").expect("handle_ns");
    assert_eq!(
        handle_hist.count, handled,
        "handle_ns count must equal the handled counter"
    );
    assert!(handle_hist.max >= handle_hist.min);
    let queue_hist = delta.histogram("server.queue_wait_ns").expect("queue_wait");
    assert!(
        queue_hist.count >= handled,
        "every handled request passed through the queue stamp"
    );

    // Snapshot algebra: before + (after - before) == after.
    let mut rebuilt = before.clone();
    rebuilt.merge(&delta);
    assert_eq!(
        rebuilt.counter("server.requests_decoded"),
        after.counter("server.requests_decoded")
    );
    let rebuilt_h = rebuilt.histogram("server.handle_ns").unwrap();
    let after_h = after.histogram("server.handle_ns").unwrap();
    assert_eq!(rebuilt_h.count, after_h.count);
    assert_eq!(rebuilt_h.sum, after_h.sum);
    assert_eq!(rebuilt_h.buckets, after_h.buckets);
}

/// `Client::metrics` fetches the live registry over the wire, and the
/// decoded snapshot is the server's: the request-lifecycle instruments
/// the pass just exercised are present with consistent values.
#[test]
fn metrics_frame_reports_server_side_ledger_over_the_wire() {
    let _guard = GLOBAL_OBS.lock().unwrap();
    let handle = seed_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let first = client.metrics().unwrap();
    for _ in 0..5 {
        client.ping().unwrap();
    }
    let second = client.metrics().unwrap();
    let delta = second.minus(&first);
    // 5 pings + the second Metrics request itself were decoded between
    // the two fetches (the first Metrics fetch snapshots *before* its
    // own handled/write stamps land, so deltas here are ≥, not ==).
    let decoded = delta.counter("server.requests_decoded").unwrap_or(0);
    assert!(decoded >= 6, "saw {decoded} ({delta})");
    assert!(second.counter("server.requests_decoded") >= first.counter("server.requests_decoded"));
    assert!(second.histogram("server.handle_ns").is_some());
    assert_eq!(handle.shutdown(), 0);
}

/// Corrupt `Response::Metrics` frames are typed errors. Each corruption
/// is a histogram section violating the canonical form the decoder
/// enforces; none may panic or decode to a wrong snapshot.
#[test]
fn corrupt_metrics_frames_are_typed_errors() {
    let snapshot_with_buckets = |buckets: Vec<(u32, u64)>| co_obs::Snapshot {
        counters: vec![("server.requests_decoded".into(), 1)],
        gauges: vec![],
        histograms: vec![(
            "server.handle_ns".into(),
            co_obs::HistogramSnapshot {
                count: buckets.iter().map(|(_, c)| *c).sum(),
                sum: 100,
                min: 1,
                max: 99,
                buckets,
            },
        )],
    };
    let min_above_max = {
        let mut s = snapshot_with_buckets(vec![(50, 1)]);
        s.histograms[0].1.min = 100;
        s.histograms[0].1.max = 1;
        s
    };
    let counters_unsorted = co_obs::Snapshot {
        counters: vec![("server.z".into(), 1), ("server.a".into(), 2)],
        gauges: vec![],
        histograms: vec![],
    };
    let gauges_duplicated = co_obs::Snapshot {
        counters: vec![],
        gauges: vec![("server.inflight".into(), 1), ("server.inflight".into(), 2)],
        histograms: vec![],
    };
    let cases: Vec<(&str, co_obs::Snapshot)> = vec![
        (
            "bucket index out of range",
            snapshot_with_buckets(vec![(co_obs::NUM_BUCKETS as u32, 1)]),
        ),
        (
            "bucket indexes not strictly increasing",
            snapshot_with_buckets(vec![(160, 1), (50, 1)]),
        ),
        ("zero-count bucket", snapshot_with_buckets(vec![(50, 0)])),
        ("histogram min above max", min_above_max),
        ("counter names not sorted", counters_unsorted),
        ("duplicate gauge names", gauges_duplicated),
    ];
    for (what, snapshot) in cases {
        let bytes = Response::Metrics(snapshot).encode();
        match Response::decode(&bytes) {
            Err(ProtocolError::Malformed { .. }) => {}
            other => panic!("{what}: expected a typed Malformed error, got {other:?}"),
        }
    }
    // And a well-formed one round-trips verbatim.
    let good = Response::Metrics(snapshot_with_buckets(vec![(50, 1), (160, 1)]));
    let bytes = good.encode();
    assert_eq!(Response::decode(&bytes).unwrap().encode(), bytes);
    // The request side is trivial but must round-trip too.
    let req = Request::Metrics.encode();
    assert_eq!(Request::decode(&req).unwrap().encode(), req);
}

/// The CO_TRACE battery: route the trace sink to a file, run a busy
/// pass plus a GC'd engine advance, and assert every
/// emitted line parses as a JSON object — the exactness CI relies on.
#[test]
fn trace_file_battery_emits_only_valid_json_lines() {
    let _guard = GLOBAL_OBS.lock().unwrap();
    let path = std::env::temp_dir().join(format!("co-obs-battery-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    co_obs::set_trace_output(co_obs::TraceOutput::File(path.clone()));

    let handle = seed_server();
    busy_pass(&handle);
    assert_eq!(handle.shutdown(), 0);
    // A config warning goes through the same sink as one JSON line.
    let (_cfg, warnings) =
        ServerConfig::from_vars(|key| (key == "CO_SERVER_MAX_FRAME").then(|| "-5".to_owned()));
    assert_eq!(warnings.len(), 1);
    co_obs::warn(
        "co-server",
        "ignoring unparsable configuration variable",
        &[
            ("variable", co_obs::FieldValue::Str(&warnings[0].variable)),
            ("rejected", co_obs::FieldValue::Str(&warnings[0].rejected)),
        ],
    );

    co_obs::set_trace_output(co_obs::TraceOutput::Off);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 10,
        "expected request + engine spans, got {} lines",
        lines.len()
    );
    for (i, line) in lines.iter().enumerate() {
        co_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e}): {line}"));
        assert!(
            line.starts_with("{\"ts_us\":") && line.contains("\"event\":"),
            "line {i} lacks the span shape: {line}"
        );
    }
    // The request spans and the warn line made it.
    assert!(lines.iter().any(|l| l.contains("\"core\":\"pool\"")));
    assert!(lines.iter().any(|l| l.contains("\"event\":\"warn\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"event\":\"engine.round\"")));
}
