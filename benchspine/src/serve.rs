//! The serving workloads, `serve.read` and `serve.mixed`: an in-process
//! `Server` over loopback TCP, two client connections, each with a pinned
//! snapshot.
//!
//! Phase A is an **open loop**: each connection follows a seeded Poisson
//! schedule at a fixed rate and every latency is measured from the
//! request's *intended* send time, so a stall is charged to every request
//! it delays. Phase B is a **closed loop**: both connections issue a
//! fixed number of requests back to back, which gives `ops_per_s`.
//!
//! The rate is a constant, never derived from a measured capacity: a rate
//! that moved with the program would make parent and change incomparable.

use crate::trace::{summarize, Tracer};
use crate::{quantile, steady_quantile, us, EndToEnd, Layers, Rng, RunConfig, StoreMark, Traced};
use co_engine::{Engine, PinnedDb, SharedEngine};
use co_object::Object;
use co_server::frame::{decode_frame, encode_frame};
use co_server::{
    handle, Client, Request, Response, Server, ServerConfig, ServerHandle, SessionState,
    DEFAULT_MAX_FRAME_LEN,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which traffic mix a serving workload offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 90 % selective point queries, 10 % whole-relation scans.
    Read,
    /// 85 % point queries, 5 % non-committing `Eval`, 5 % committing
    /// `Advance` of one fresh fact, 5 % `Snapshot` re-pin.
    Mixed,
}

/// Client connections (and client threads). Sized for a 2-core box.
const CONNECTIONS: usize = 2;
/// Open-loop offered rate per connection, requests per second: 400 req/s
/// in total, under a tenth of the two-connection capacity at the commit
/// that introduced the suite (≈ 5 300 req/s on `serve.read`). The issue
/// proposed 2 000 req/s; there `latency_p99_us` sat in the sparse tail of
/// "queued behind a scan" and its quartiles were 13 % of the median apart
/// from run to run, against 3 % at this rate, so the rate was lowered
/// rather than the bound widened.
const RATE_PER_CONNECTION: f64 = 200.0;
/// Share of the measuring window the open-loop phase gets; the closed
/// loop's deadline is the rest.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop requests per connection per second of window, frozen after
/// calibrating once so the phase fills about three quarters of its share.
const CLOSED_PER_CONNECTION_PER_S: f64 = 400.0;
/// Warm-up requests per connection per second of window, part of set-up
/// and discarded.
const WARMUP_PER_CONNECTION_PER_S: f64 = 40.0;
/// Replayed ops per second of window in a traced run, per pass.
const REPLAY_PER_S: f64 = 600.0;
/// Round trips over TCP per second of window that a traced run takes to
/// place the transport line.
const RTT_PER_S: f64 = 400.0;

/// The historical loadgen database: `r1(a, b)` and `r2(c, d)`, 512 rows
/// each, `b`/`d` in 8 classes.
const ROWS: i64 = 512;
const CLASSES: i64 = 8;
const POINT_ROWS: usize = (ROWS / CLASSES) as usize;
/// The join program `Eval` runs: one round, `|r| = ROWS` on this database
/// (each `r1` row meets exactly the `r2` row whose key is its class).
const JOIN_PROGRAM: &str = "[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}].";
const SCAN_QUERY: &str = "[r2: {[c: X, d: Y]}]";

/// One request of a schedule. The program sees only these inputs.
#[derive(Clone, Debug)]
enum Op {
    /// Point query for join class `k`.
    Point(usize),
    /// Whole-relation scan of `r2`.
    Scan,
    /// Non-committing `Eval` of [`JOIN_PROGRAM`].
    Eval,
    /// Committing `Advance` of this one-fact program.
    Advance(String),
    /// `Snapshot` re-pin.
    Repin,
}

impl Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Point(_) => "op.point",
            Op::Scan => "op.scan",
            Op::Eval => "op.eval",
            Op::Advance(_) => "op.advance",
            Op::Repin => "op.repin",
        }
    }
}

fn point_queries() -> Vec<String> {
    (0..CLASSES)
        .map(|k| format!("[r1: {{[a: X, b: {k}]}}]"))
        .collect()
}

/// Ops per block of a schedule. Every block holds the mix's exact
/// proportions (18 + 2, or 17 + 1 + 1 + 1) in a seeded order, so a seed
/// changes which request comes when but never how many of each class a
/// run issues — the count of commits decides `peak_rss_mb`, and the count
/// of scans and evals decides where `latency_p99_us` falls.
const BLOCK: usize = 20;

/// `n` ops of `mix` for one connection. `salt` keeps the facts an
/// `Advance` commits fresh across phases, passes and connections.
fn gen_ops(mix: Mix, rng: &mut Rng, n: usize, salt: &str) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n + BLOCK);
    while ops.len() < n {
        let start = ops.len();
        for slot in 0..BLOCK {
            let point = Op::Point(rng.below(CLASSES as u64) as usize);
            ops.push(match (mix, slot) {
                (Mix::Read, 0 | 1) => Op::Scan,
                (Mix::Mixed, 0) => Op::Eval,
                (Mix::Mixed, 1) => Op::Advance(format!("[r1: {{[a: {salt}n{start}, b: w]}}].")),
                (Mix::Mixed, 2) => Op::Repin,
                _ => point,
            });
        }
        // Fisher–Yates over the block.
        for i in (1..BLOCK).rev() {
            ops.swap(start + i, start + rng.below(i as u64 + 1) as usize);
        }
    }
    ops.truncate(n);
    ops
}

/// Intended send offsets of a Poisson process at `rate` per second.
fn poisson_schedule(rng: &mut Rng, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// One client connection and the version its snapshot is pinned at.
struct Conn {
    client: Client,
    pinned: u64,
}

impl Conn {
    /// Sends `op`, checks the answer, returns whether it was right.
    fn exec(&mut self, op: &Op, points: &[String]) -> bool {
        match op {
            Op::Point(k) => self.client.query(&points[*k]).is_ok_and(|(v, o)| {
                v == self.pinned && o.dot("r1").as_set().is_some_and(|s| s.len() == POINT_ROWS)
            }),
            Op::Scan => self.client.query(SCAN_QUERY).is_ok_and(|(v, o)| {
                v == self.pinned
                    && o.dot("r2")
                        .as_set()
                        .is_some_and(|s| s.len() == ROWS as usize)
            }),
            Op::Eval => self.client.eval(JOIN_PROGRAM).is_ok_and(|(v, o)| {
                v == self.pinned
                    && o.dot("r")
                        .as_set()
                        .is_some_and(|s| s.len() == ROWS as usize)
            }),
            // A commit lands strictly after the version this session read
            // at, and does not move the session's own pin.
            Op::Advance(fact) => self
                .client
                .advance(fact)
                .is_ok_and(|a| a.version > self.pinned),
            Op::Repin => match self.client.snapshot() {
                Ok((v, _)) if v >= self.pinned => {
                    self.pinned = v;
                    true
                }
                _ => false,
            },
        }
    }
}

/// A bound server with its connected, pinned, warmed-up clients.
struct Serving {
    conns: Vec<Conn>,
    // Declared after `conns` so the clients hang up before the server
    // drains (fields drop in declaration order).
    _server: ServerHandle,
}

fn database() -> Object {
    co_bench::join_db(ROWS, CLASSES)
}

/// `n` ops per connection, seeded per `stream` and connection; `tag`
/// salts the facts (see [`gen_ops`]).
fn per_connection(mix: Mix, seed: u64, stream: u64, n: usize, tag: &str) -> Vec<Vec<Op>> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, stream * 10 + c as u64);
            gen_ops(mix, &mut rng, n, &format!("s{seed}{tag}c{c}"))
        })
        .collect()
}

/// Set-up: build the database, bind the server with the program's
/// defaults, connect and pin both clients, run the warm-up requests
/// (a closed loop on both connections, discarded).
fn setup(mix: Mix, seed: u64, rep: usize, points: &[String], warmup: usize) -> Serving {
    let shared = SharedEngine::new(Engine::new(Default::default()), database());
    let server =
        Server::bind(shared, ServerConfig::default()).expect("bind the server on loopback");
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(server.addr()).expect("connect a client");
            let (pinned, _) = client.snapshot().expect("pin a snapshot");
            Conn { client, pinned }
        })
        .collect();
    let ops = per_connection(mix, seed, 9, warmup, &format!("w{rep}"));
    let warm = run_phase(&mut conns, &ops, None, Duration::from_secs(60), points);
    assert!(
        warm.iter().all(|r| r.failed == 0),
        "a warm-up request failed"
    );
    Serving {
        conns,
        _server: server,
    }
}

/// What one connection's thread measured in one phase.
struct PhaseResult {
    latencies: Vec<u64>,
    lags: Vec<u64>,
    failed: u64,
    wall: Duration,
}

/// Runs one phase on every connection at once. With a schedule the loop
/// is open (latency from the intended send time); without, closed.
fn run_phase(
    conns: &mut [Conn],
    ops: &[Vec<Op>],
    schedules: Option<&[Vec<Duration>]>,
    deadline: Duration,
    points: &[String],
) -> Vec<PhaseResult> {
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, ops) = (&barrier, &ops[c]);
                let schedule = schedules.map(|s| &s[c]);
                scope.spawn(move || {
                    let mut r = PhaseResult {
                        latencies: Vec::with_capacity(ops.len()),
                        lags: Vec::new(),
                        failed: 0,
                        wall: Duration::ZERO,
                    };
                    barrier.wait();
                    let t0 = Instant::now();
                    for (i, op) in ops.iter().enumerate() {
                        let from = match schedule {
                            Some(s) => {
                                // Never skip a late slot: lateness is what
                                // a closed loop would omit. Waiting yields
                                // instead of sleeping: a sleeping generator
                                // lets the (virtual) CPU halt, and the
                                // wake-up cost of a halted CPU put whole
                                // runs into one of two modes (p50 285 µs
                                // or 365 µs on the same seed). A yielding
                                // waiter gives way to any runnable server
                                // thread at once and keeps the CPU awake.
                                while t0.elapsed() < s[i] {
                                    std::thread::yield_now();
                                }
                                r.lags
                                    .push(t0.elapsed().saturating_sub(s[i]).as_nanos() as u64);
                                s[i]
                            }
                            None => t0.elapsed(),
                        };
                        r.failed += u64::from(!conn.exec(op, points));
                        r.latencies.push((t0.elapsed() - from).as_nanos() as u64);
                        if t0.elapsed() >= deadline {
                            break;
                        }
                    }
                    r.wall = t0.elapsed();
                    r
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// The untraced run: set-up (repeated), open loop, closed loop.
pub fn run(mix: Mix, cfg: &RunConfig) -> EndToEnd {
    let points = point_queries();
    let seed = cfg.seed;
    let warmup = cfg.count(WARMUP_PER_CONNECTION_PER_S, 20);
    let (mut serving, setup_s) =
        crate::timed_setups(cfg.setup_reps, |rep| setup(mix, seed, rep, &points, warmup));

    let open_window = cfg.seconds * OPEN_SHARE;
    let open_n = cfg.count(RATE_PER_CONNECTION * OPEN_SHARE, 50);
    let closed_n = cfg.count(CLOSED_PER_CONNECTION_PER_S, 50);
    let open_ops = per_connection(mix, seed, 1, open_n, "a");
    let schedules: Vec<Vec<Duration>> = (0..CONNECTIONS)
        .map(|c| {
            poisson_schedule(
                &mut Rng::new(seed, 30 + c as u64),
                open_n,
                RATE_PER_CONNECTION,
            )
        })
        .collect();
    let closed_ops = per_connection(mix, seed, 2, closed_n, "b");

    // An open loop that is hopelessly behind is cut at 1.5× its window.
    let open = run_phase(
        &mut serving.conns,
        &open_ops,
        Some(&schedules),
        Duration::from_secs_f64(open_window * 1.5),
        &points,
    );
    let closed = run_phase(
        &mut serving.conns,
        &closed_ops,
        None,
        Duration::from_secs_f64(cfg.seconds * (1.0 - OPEN_SHARE)),
        &points,
    );

    let open_series: Vec<&[u64]> = open.iter().map(|r| r.latencies.as_slice()).collect();
    let mut latencies: Vec<u64> = open
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let mut lags: Vec<u64> = open.iter().flat_map(|r| r.lags.iter().copied()).collect();
    let closed_done: usize = closed.iter().map(|r| r.latencies.len()).sum();
    let closed_wall = closed
        .iter()
        .map(|r| r.wall)
        .max()
        .expect("two connections");
    let mut closed_rtt: Vec<u64> = closed
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let failed = open.iter().chain(&closed).map(|r| r.failed).sum();
    EndToEnd {
        setup_s,
        ops_per_s: closed_done as f64 / closed_wall.as_secs_f64(),
        latency_p50_us: steady_quantile(&open_series, 0.50),
        latency_p99_us: steady_quantile(&open_series, 0.99),
        attempted: (latencies.len() + closed_done) as u64,
        failed,
        info: vec![
            ("latency_samples", latencies.len() as f64),
            ("latency_p50_pooled_us", us(quantile(&mut latencies, 0.50))),
            ("latency_p99_pooled_us", us(quantile(&mut latencies, 0.99))),
            ("latency_max_us", us(quantile(&mut latencies, 1.0))),
            (
                "offered_rate_per_s",
                RATE_PER_CONNECTION * CONNECTIONS as f64,
            ),
            ("sched_lag_p99_us", us(quantile(&mut lags, 0.99))),
            ("closed_ops", closed_done as f64),
            ("closed_rtt_p50_us", us(quantile(&mut closed_rtt, 0.50))),
        ],
    }
}

/// Work counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    parser_bytes: u64,
    result_elems: u64,
    wire_bytes: u64,
    rounds: u64,
}

/// One connection's server-side state in the replay: the real
/// `SessionState` (for whole `handle` calls) and the same pin held
/// directly (for the replayed parts).
struct ReplaySession {
    state: SessionState,
    pin: PinnedDb,
}

fn frame_roundtrip_request(req: &Request) -> Request {
    let frame = encode_frame(&req.encode());
    let body = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("own frame decodes");
    Request::decode(body).expect("own request decodes")
}

fn frame_roundtrip_response(resp: &Response) -> Response {
    let frame = encode_frame(&resp.encode());
    let body = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN).expect("own frame decodes");
    Response::decode(body).expect("own response decodes")
}

fn result_payload(result: &Object) -> Vec<u8> {
    let mut payload = Vec::new();
    co_wire::write_snapshot(
        &mut payload,
        std::slice::from_ref(result),
        b"co-server result",
    )
    .expect("encode a result payload");
    payload
}

/// Replays `ops` single-threaded and in-process, one span per call into
/// a layer. Read-only requests are additionally served whole through
/// `protocol::handle` (a top-level `ref.handle` span, alternating before
/// and after the parts so neither always runs warm) for the
/// parts-vs-whole reconciliation. Returns the failed-op count.
fn replay(ops: &[(usize, Op)], points: &[String], t: &mut Tracer, counts: &mut Counts) -> u64 {
    let shared = SharedEngine::new(Engine::new(Default::default()), database());
    let policy = shared.policy();
    let mut sessions: Vec<ReplaySession> = (0..CONNECTIONS)
        .map(|_| {
            let mut state = SessionState::new(shared.clone());
            handle(&mut state, Request::Snapshot).expect("pin");
            ReplaySession {
                state,
                pin: shared.head(),
            }
        })
        .collect();
    let mut failed = 0;
    for (i, (c, op)) in ops.iter().enumerate() {
        let session = &mut sessions[*c];
        t.set_op(i as u64);
        let request = match op {
            Op::Point(k) => Request::Query {
                formula: points[*k].clone(),
            },
            Op::Scan => Request::Query {
                formula: SCAN_QUERY.to_owned(),
            },
            Op::Eval => Request::Eval {
                program: JOIN_PROGRAM.to_owned(),
            },
            Op::Advance(fact) => Request::Advance {
                program: fact.clone(),
            },
            Op::Repin => Request::Snapshot,
        };
        let read_only = matches!(op, Op::Point(_) | Op::Scan | Op::Eval);
        let whole_first = i % 2 == 0;
        let whole = |t: &mut Tracer, state: &mut SessionState| {
            let r = t.leaf("ref.handle", || handle(state, request.clone()));
            assert!(
                matches!(r, Ok(Response::Objects { .. })),
                "whole handle call failed"
            );
        };
        if read_only && whole_first {
            whole(t, &mut session.state);
        }

        let op_span = t.enter(op.class());
        let decoded = t.leaf("server.codec", || frame_roundtrip_request(&request));
        let response = match decoded {
            Request::Query { formula } => {
                counts.parser_bytes += formula.len() as u64;
                let f = t
                    .leaf("parser.parse", || co_parser::parse_formula(&formula))
                    .expect("query parses");
                let view = t.leaf("engine.pin", || session.pin.clone());
                let result = t.leaf("core.interpret", || {
                    co_calculus::interpret(&f, view.object(), policy)
                });
                let payload = t.leaf("wire.encode", || result_payload(&result));
                let version = view.version();
                t.leaf("engine.pin", || drop(view));
                Response::Objects { version, payload }
            }
            Request::Eval { program } => {
                counts.parser_bytes += program.len() as u64;
                let p = t
                    .leaf("parser.parse", || co_parser::parse_program(&program))
                    .expect("program parses");
                let view = t.leaf("engine.pin", || session.pin.clone());
                let (db, stats) = t
                    .leaf("engine.closure", || shared.eval_db(&p, &view))
                    .expect("eval runs");
                counts.rounds += stats.iterations;
                let payload = t.leaf("wire.encode", || result_payload(&db));
                let version = view.version();
                t.leaf("engine.pin", || drop(view));
                Response::Objects { version, payload }
            }
            Request::Advance { program } => {
                counts.parser_bytes += program.len() as u64;
                let p = t
                    .leaf("parser.parse", || co_parser::parse_program(&program))
                    .expect("fact parses");
                let out = t
                    .leaf("engine.closure", || shared.advance(&p))
                    .expect("advance commits");
                counts.rounds += out.stats.iterations;
                Response::Advanced {
                    version: out.version,
                    root: out.database.node_id().map(|id| id.get()),
                    iterations: out.stats.iterations,
                }
            }
            // The pin lives inside the opaque `SessionState`, so a re-pin
            // goes through `handle`; the directly-held pin follows it.
            other => t.leaf("engine.pin", || {
                let r = handle(&mut session.state, other).expect("re-pin");
                session.pin = shared.head();
                r
            }),
        };
        let received = t.leaf("server.codec", || frame_roundtrip_response(&response));
        let ok = match (&received, op) {
            (Response::Objects { version, payload }, _) => {
                counts.wire_bytes += payload.len() as u64;
                let root = t.leaf("wire.decode", || co_wire::read_snapshot(payload.as_slice()));
                t.leaf("bench.check", || {
                    let (attr, rows) = match op {
                        Op::Point(_) => ("r1", POINT_ROWS),
                        Op::Scan => ("r2", ROWS as usize),
                        _ => ("r", ROWS as usize),
                    };
                    let len = root.ok().and_then(|s| {
                        s.roots
                            .first()
                            .and_then(|o| o.dot(attr).as_set().map(|s| s.len()))
                    });
                    counts.result_elems += len.unwrap_or(0) as u64;
                    len == Some(rows) && *version == session.pin.version()
                })
            }
            (Response::Advanced { version, .. }, Op::Advance(_)) => {
                *version > session.pin.version()
            }
            (Response::Snapshot { version, .. }, Op::Repin) => *version == session.pin.version(),
            _ => false,
        };
        failed += u64::from(!ok);
        t.exit(op_span);

        if read_only && !whole_first {
            whole(t, &mut session.state);
        }
    }
    failed
}

/// The replayed op sequence: the closed-loop phase's inputs, the two
/// connections interleaved.
fn replay_ops(mix: Mix, cfg: &RunConfig, pass: &str) -> Vec<(usize, Op)> {
    let n = cfg.count(REPLAY_PER_S / CONNECTIONS as f64, 50);
    let per_conn = per_connection(mix, cfg.seed, 2, n, pass);
    (0..n)
        .flat_map(|i| (0..CONNECTIONS).map(move |c| (c, i)))
        .map(|(c, i)| (c, per_conn[c][i].clone()))
        .collect()
}

/// The traced run. Three parts: a short closed loop over real TCP (both
/// connections, as in the untraced run) for the client RTT the transport
/// line is subtracted from,
/// an untraced replay (the overhead baseline), the traced replay.
pub fn trace(mix: Mix, cfg: &RunConfig, span_file: &std::path::Path) -> Traced {
    let points = point_queries();
    let mut layers = Layers::new();

    let rtt_n = cfg.count(RTT_PER_S / CONNECTIONS as f64, 50);
    let mut serving = setup(mix, cfg.seed, 0, &points, rtt_n / 4);
    let rtt_ops: Vec<Vec<Op>> = (0..CONNECTIONS)
        .map(|c| {
            gen_ops(
                mix,
                &mut Rng::new(cfg.seed, 20 + c as u64),
                rtt_n,
                &format!("s{}rc{c}", cfg.seed),
            )
        })
        .collect();
    let rtt = run_phase(
        &mut serving.conns,
        &rtt_ops,
        None,
        Duration::from_secs_f64(cfg.seconds),
        &points,
    );
    drop(serving);
    let mut failed: u64 = rtt.iter().map(|r| r.failed).sum();
    let mut rtt_samples: Vec<u64> = rtt
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let rtt_p50 = us(quantile(&mut rtt_samples, 0.50));

    let baseline_ops = replay_ops(mix, cfg, "u");
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    failed += replay(&baseline_ops, &points, &mut off, &mut Counts::default());
    let untraced = baseline_ops.len() as f64 / t0.elapsed().as_secs_f64();

    let ops = replay_ops(mix, cfg, "t");
    let mut on = Tracer::new(true);
    let mut counts = Counts::default();
    let mark = StoreMark::now();
    let t0 = Instant::now();
    failed += replay(&ops, &points, &mut on, &mut counts);
    let traced = ops.len() as f64 / t0.elapsed().as_secs_f64();
    mark.finish(ops.len(), &mut layers);

    let reconciliation = summarize(
        &on,
        ops.len(),
        &[
            ("server.codec", "server.codec_us"),
            ("parser.parse", "parser.parse_us"),
            ("core.interpret", "core.interpret_us"),
            ("engine.pin", "engine.pin_us"),
            ("engine.closure", "engine.closure_us"),
            ("wire.encode", "wire.encode_us"),
            ("wire.decode", "wire.decode_us"),
        ],
        &[
            "parser.parse",
            "engine.pin",
            "core.interpret",
            "engine.closure",
            "wire.encode",
        ],
        &mut layers,
    );
    let per_op = |n: u64| n as f64 / ops.len() as f64;
    layers.insert("parser.bytes", per_op(counts.parser_bytes));
    layers.insert("core.result_elems", per_op(counts.result_elems));
    layers.insert("wire.bytes", per_op(counts.wire_bytes));
    layers.insert("engine.rounds", per_op(counts.rounds));
    // What the client waits for beyond the in-process work: sockets,
    // reactor, queue, worker wake-up.
    let mut op_durations: Vec<u64> = on
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    layers.insert(
        "server.transport_us",
        rtt_p50 - us(quantile(&mut op_durations, 0.50)),
    );
    layers.insert("trace.overhead_pct", (untraced - traced) * 100.0 / untraced);
    on.write_jsonl(span_file).expect("write the span file");
    Traced {
        layers,
        reconciliation,
        attempted: (rtt_samples.len() + baseline_ops.len() + ops.len()) as u64,
        failed,
    }
}
