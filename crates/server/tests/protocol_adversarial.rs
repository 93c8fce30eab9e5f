//! Adversarial protocol harness: truncation at **every byte boundary**
//! and a flip of **every bit** of every frame in a representative corpus
//! must yield a typed [`ProtocolError`] — zero panics, and never a
//! silently-wrong message. Oversized and zero-length frame declarations
//! are rejected on the header alone, before any body allocation. A live
//! server answers each poisoned connection with a typed error frame and
//! keeps serving fresh sessions.

use co_engine::{Engine, SharedEngine};
use co_parser::parse_object;
use co_server::frame::{decode_frame, encode_frame, read_frame, DEFAULT_MAX_FRAME_LEN};
use co_server::{
    Client, ErrorCode, ProtocolError, Request, Response, Server, ServerConfig, StatsDigest,
};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A representative message corpus: every request kind, every response
/// kind, including an embedded co-wire object payload.
fn corpus() -> Vec<Vec<u8>> {
    let mut payload = Vec::new();
    let obj = parse_object("[edge: {[s: a, t: b], [s: b, t: c]}]").unwrap();
    co_wire::write_snapshot(&mut payload, &[obj], b"adversarial").unwrap();
    let messages: Vec<Vec<u8>> = [
        Request::Ping.encode(),
        Request::Head.encode(),
        Request::Snapshot.encode(),
        Request::Release.encode(),
        Request::Query {
            formula: "[edge: {[s: X, t: Y]}]".into(),
        }
        .encode(),
        Request::Eval {
            program: "[doa: {abraham}].".into(),
        }
        .encode(),
        Request::Advance {
            program: "[doa: {X}] :- [family: {[name: X]}].".into(),
        }
        .encode(),
        Request::Stats.encode(),
        Request::Metrics.encode(),
        Response::Pong.encode(),
        Response::Head {
            version: 42,
            root: Some(7),
        }
        .encode(),
        Response::Objects {
            version: 3,
            payload,
        }
        .encode(),
        Response::Advanced {
            version: 4,
            root: None,
            iterations: 9,
        }
        .encode(),
        Response::Stats(StatsDigest {
            live_nodes: 10,
            pinned_roots: 2,
            intern_hits: 100,
            intern_misses: 50,
            gc_sweeps: 1,
            gc_freed_nodes: 5,
        })
        .encode(),
        Response::Metrics(co_obs::Snapshot {
            counters: vec![
                ("server.requests_decoded".into(), 12345),
                ("server.requests_handled".into(), 12000),
            ],
            gauges: vec![("server.inflight".into(), -2)],
            histograms: vec![(
                "server.handle_ns".into(),
                co_obs::HistogramSnapshot {
                    count: 3,
                    sum: 1_000_100,
                    min: 50,
                    max: 1_000_000,
                    buckets: vec![(50, 1), (160, 1), (921, 1)],
                },
            )],
        })
        .encode(),
        Response::Error {
            code: ErrorCode::Parse,
            message: "unexpected token `]`".into(),
        }
        .encode(),
    ]
    .into_iter()
    .collect();
    messages.iter().map(|m| encode_frame(m)).collect()
}

/// The full receive pipeline on arbitrary bytes: frame decode (length,
/// checksum), then message decode, then — for object-carrying messages —
/// the embedded co-wire payload. Must never panic.
fn pipeline(bytes: &[u8]) -> Result<(), ProtocolError> {
    let body = decode_frame(bytes, DEFAULT_MAX_FRAME_LEN)?;
    let decoded = if body.first().is_some_and(|k| k & 0x80 != 0) {
        let resp = Response::decode(body)?;
        if let Response::Objects { payload, .. } = &resp {
            co_wire::read_snapshot(payload.as_slice())?;
        }
        resp.encode()
    } else {
        Request::decode(body)?.encode()
    };
    assert_eq!(decoded, body, "a decoded message must re-encode verbatim");
    Ok(())
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for frame in corpus() {
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            let result = catch_unwind(AssertUnwindSafe(|| pipeline(prefix)));
            let outcome = result.unwrap_or_else(|_| panic!("panicked at cut {cut}"));
            assert!(
                outcome.is_err(),
                "truncation to {cut}/{} bytes must fail",
                frame.len()
            );
        }
    }
}

#[test]
fn every_bit_flip_of_every_frame_is_a_typed_error() {
    for frame in corpus() {
        for bit in 0..frame.len() * 8 {
            let mut mutated = frame.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            let result = catch_unwind(AssertUnwindSafe(|| pipeline(&mutated)));
            let outcome = result.unwrap_or_else(|_| panic!("panicked at bit {bit}"));
            // A flip in the length field can only shrink/grow the declared
            // body away from the actual byte count (typed), a flip in the
            // checksum or body trips verification (typed): nothing may
            // decode.
            assert!(outcome.is_err(), "bit flip {bit} must fail");
        }
    }
}

/// Message-level truncation behind an *intact* frame: re-frame every
/// prefix of every body with a correct header. The checksum passes, so
/// the message decoder itself must type the failure — or, where a prefix
/// happens to be a complete shorter message (`[Ping]` inside a longer
/// body), decode to exactly that message, never to garbage.
#[test]
fn truncated_bodies_behind_valid_frames_never_decode_silently_wrong() {
    for frame in corpus() {
        let body = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        for cut in 1..body.len() {
            let reframed = encode_frame(&body[..cut]);
            let result = catch_unwind(AssertUnwindSafe(|| pipeline(&reframed)));
            // `pipeline` itself asserts any Ok decode re-encodes to the
            // exact prefix — a silently-wrong decode would panic there.
            let _ = result.unwrap_or_else(|_| panic!("panicked at body cut {cut}"));
        }
    }
}

#[test]
fn oversized_and_zero_length_declarations_are_rejected_before_allocation() {
    // 4 GiB - 1 declared, nothing behind it: the error must be Oversized
    // (header-stage), not Truncated (body-stage) — proof the reader never
    // tried to buffer the declared body.
    let mut huge = u32::MAX.to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        decode_frame(&huge, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
        ProtocolError::Oversized {
            declared,
            max,
        } if declared == u64::from(u32::MAX) && max == DEFAULT_MAX_FRAME_LEN
    ));
    assert!(matches!(
        read_frame(huge.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap_err(),
        ProtocolError::Oversized { .. }
    ));

    let mut zero = encode_frame(&Request::Ping.encode());
    zero[0..4].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode_frame(&zero, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
        ProtocolError::ZeroLengthFrame
    ));
}

/// The live server: each poisoned connection gets a typed `Protocol`
/// error frame back (never a silently-wrong reply), the connection
/// closes, and the server keeps serving fresh sessions afterwards.
#[test]
fn live_server_answers_corruption_with_typed_errors_and_survives() {
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object("[edge: {[s: a, t: b]}]").unwrap(),
    );
    let handle = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let expect_protocol_error = |raw: &[u8], what: &str| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("{what}: reply unreadable: {e}"))
            .unwrap_or_else(|| panic!("{what}: server closed without a typed reply"));
        match Response::decode(&body).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol, "{what}"),
            other => panic!("{what}: silently-wrong reply {other:?}"),
        }
        // The connection is closed after the report.
        assert!(read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    };

    // Oversized declaration.
    let mut huge = u32::MAX.to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 8]);
    expect_protocol_error(&huge, "oversized declaration");

    // Zero-length declaration.
    let mut zero = encode_frame(&Request::Ping.encode());
    zero[0..4].copy_from_slice(&0u32.to_le_bytes());
    expect_protocol_error(&zero, "zero-length declaration");

    // Truncations at every byte boundary of a real request frame.
    let frame = encode_frame(
        &Request::Query {
            formula: "[edge: {[s: X, t: Y]}]".into(),
        }
        .encode(),
    );
    for cut in 1..frame.len() {
        expect_protocol_error(&frame[..cut], &format!("truncation at byte {cut}"));
    }

    // A body bit flip behind a correct length: checksum mismatch.
    let mut flipped = frame.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    expect_protocol_error(&flipped, "body bit flip");

    // An unknown kind behind a *valid* checksum: typed BadKind.
    expect_protocol_error(&encode_frame(&[0x7f, 1, 2, 3]), "unknown request kind");

    // After all of that, the server still serves new sessions.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let (version, _) = client.head().unwrap();
    assert_eq!(version, 1);
    handle.shutdown();
}

/// Split delivery: frames fragmented across many TCP segments (and so
/// across many readiness wakeups of the incremental `FrameDecoder`) must
/// reassemble into exactly the same behavior as one-shot delivery —
/// correct replies for valid frames, typed errors for corrupted ones, a
/// typed truncation report for a peer that quits mid-frame.
#[test]
fn fragmented_frames_reassemble_like_one_shot_delivery() {
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object("[edge: {[s: a, t: b]}]").unwrap(),
    );
    let handle = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Dribble a frame `step` bytes at a time, pausing so fragments
    // land in separate segments/wakeups rather than coalescing.
    let write_fragmented = |stream: &mut TcpStream, raw: &[u8], step: usize| {
        for chunk in raw.chunks(step) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let query_frame = encode_frame(
        &Request::Query {
            formula: "[edge: {[s: X, t: Y]}]".into(),
        }
        .encode(),
    );

    // Valid frame, byte-by-byte and in awkward chunk sizes: the reply
    // must be a real Objects response, same as one-shot delivery.
    for step in [1, 3, 7] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        write_fragmented(&mut stream, &query_frame, step);
        let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("a reply frame");
        match Response::decode(&body).unwrap() {
            Response::Objects { version, .. } => assert_eq!(version, 1, "step {step}"),
            other => panic!("step {step}: wrong reply {other:?}"),
        }
    }

    // Corrupted frame (body bit flip), fragmented: still a typed
    // Protocol error, detected only once the checksum can run.
    let mut flipped = query_frame.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    let mut stream = TcpStream::connect(addr).unwrap();
    write_fragmented(&mut stream, &flipped, 2);
    stream.shutdown(Shutdown::Write).unwrap();
    let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("a typed error frame");
    match Response::decode(&body).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("silently-wrong reply {other:?}"),
    }

    // Peer quits mid-frame after fragmented delivery: typed truncation
    // report, then close — never a hang, never silence.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_fragmented(&mut stream, &query_frame[..query_frame.len() / 2], 2);
    stream.shutdown(Shutdown::Write).unwrap();
    let body = read_frame(&stream, DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("a typed truncation report");
    match Response::decode(&body).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("trunc"), "{message}");
        }
        other => panic!("silently-wrong reply {other:?}"),
    }

    // The server kept serving through all of it.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    assert_eq!(handle.shutdown(), 0, "drain to zero");
}

/// A well-formed frame carrying a pathologically nested formula must not
/// recurse a worker thread's parser off its stack (which would abort
/// the whole process — an unauthenticated remote DoS). The parser's
/// nesting cap types the failure as an ordinary `Parse` error and the
/// session keeps serving.
#[test]
fn deeply_nested_input_is_a_parse_error_not_a_stack_overflow() {
    let shared = SharedEngine::new(
        Engine::new(Default::default()),
        parse_object("[edge: {[s: a, t: b]}]").unwrap(),
    );
    let handle = Server::bind(shared, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // ~50 KB of openers — a few thousand nesting levels, far past any
    // realistic stack if recursion were unbounded.
    let bomb = format!("{}X{}", "{[a: ".repeat(5_000), "]}".repeat(5_000));
    for (what, result) in [
        ("query", client.query(&bomb).map(|_| ())),
        ("eval", client.eval(&format!("{bomb}.")).map(|_| ())),
        ("advance", client.advance(&format!("{bomb}.")).map(|_| ())),
    ] {
        match result {
            Err(co_server::ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Parse, "{what}");
                assert!(message.contains("nesting deeper"), "{what}: {message}");
            }
            other => panic!("{what}: expected a typed Parse error, got {other:?}"),
        }
    }

    // The session survived all three — an application error, not poison.
    client.ping().unwrap();
    assert!(client.query("[edge: {[s: X, t: Y]}]").is_ok());
    handle.shutdown();
}
