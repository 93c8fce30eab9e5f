//! Request/response messages and their byte encodings.
//!
//! A message is one frame body: a kind byte followed by the message's
//! fields in the `co_wire::codec` primitives (LEB128 varints,
//! length-prefixed UTF-8 strings). Programs and formulae travel as
//! concrete-syntax text (the `Display` ↔ `co_parser` round-trip is
//! property-tested in the parser crate); **results travel as co-wire
//! snapshot payloads** — the same hash-cons-aware encoding checkpoints
//! use, so a result's size tracks its DAG and the client re-interns it
//! bit-identically ([`co_wire::read_snapshot`]).
//!
//! Decoding never panics and never accepts trailing bytes; every failure
//! is a typed [`ProtocolError`].

use crate::ProtocolError;
use co_engine::{EngineError, PinnedDb, SharedEngine};
use co_object::{store, NodeId, Object};
use co_parser::{parse_formula, parse_program};
use co_wire::codec::{put_str, put_varint, put_varint_i64, Cursor};
use co_wire::WireError;

/// What a client asks of the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// The current head version and root id, without pinning.
    Head,
    /// Pin the current head as this session's read snapshot: every
    /// following [`Request::Query`]/[`Request::Eval`] runs against it
    /// until [`Request::Release`] or a new `Snapshot`. Answered with
    /// [`Response::Snapshot`].
    Snapshot,
    /// Release the session's pinned snapshot (no-op when none is held).
    Release,
    /// Interpret a well-formed formula (concrete syntax) against the
    /// session snapshot — or the instantaneous head when none is pinned.
    /// Answered with [`Response::Objects`] carrying `E(O)`.
    Query {
        /// The formula text, e.g. `[r1: {[a: X, b: 10]}]`.
        formula: String,
    },
    /// Run a program (concrete syntax) to its fixpoint against the
    /// session snapshot — or the instantaneous head — **without
    /// committing**. Answered with [`Response::Objects`] carrying the
    /// closed database.
    Eval {
        /// The program text (rules terminated by `.`).
        program: String,
    },
    /// Run a program to its fixpoint over the latest committed head and
    /// commit the result as the new head (writers serialize; readers are
    /// never blocked). Answered with [`Response::Advanced`].
    Advance {
        /// The program text.
        program: String,
    },
    /// A digest of the shared store's ledgers ([`Response::Stats`]).
    Stats,
    /// The server's full observability registry — every counter, gauge,
    /// and histogram the process has published — as a typed
    /// [`co_obs::Snapshot`] ([`Response::Metrics`]). The wide-spectrum
    /// sibling of [`Request::Stats`]: where `Stats` digests the object
    /// store's ledgers, `Metrics` carries request-lifecycle histograms
    /// (queue wait, handle, write), engine round timings, GC pauses, and
    /// wire codec costs, diffable client-side via
    /// [`co_obs::Snapshot::minus`].
    Metrics,
}

/// Application-level failure categories carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request's program/formula text failed to parse.
    Parse,
    /// The engine rejected the run (divergence guard).
    Engine,
    /// The server is at its configured session limit.
    SessionLimit,
    /// The peer's previous frame was unreadable (the rendered
    /// [`ProtocolError`] is in the message; the connection closes after).
    Protocol,
    /// The server-wide in-flight request cap was hit when this request
    /// arrived: admission control rejected it **before** any engine work.
    /// The session stays open — back off and retry.
    Overloaded,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::Parse => 1,
            ErrorCode::Engine => 2,
            ErrorCode::SessionLimit => 3,
            ErrorCode::Protocol => 4,
            ErrorCode::Overloaded => 5,
        }
    }

    fn from_code(code: u8) -> Result<ErrorCode, ProtocolError> {
        match code {
            1 => Ok(ErrorCode::Parse),
            2 => Ok(ErrorCode::Engine),
            3 => Ok(ErrorCode::SessionLimit),
            4 => Ok(ErrorCode::Protocol),
            5 => Ok(ErrorCode::Overloaded),
            other => Err(ProtocolError::Malformed {
                detail: format!("unknown error code {other}"),
            }),
        }
    }
}

/// A point-in-time digest of the shared object store's ledgers, for
/// clients auditing accounting balance (see `tests/soak.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsDigest {
    /// Distinct interned nodes currently live (tuples + sets).
    pub live_nodes: u64,
    /// Distinct node ids currently pinned by live roots.
    pub pinned_roots: u64,
    /// Intern calls answered with an existing node, since process start.
    pub intern_hits: u64,
    /// Intern calls that created a node, since process start.
    pub intern_misses: u64,
    /// Store collections since process start.
    pub gc_sweeps: u64,
    /// Nodes freed by those collections.
    pub gc_freed_nodes: u64,
}

/// What the server answers. Kind bytes live in `0x81..`, disjoint from
/// request kinds, so a stream cannot be mis-parsed in the wrong
/// direction even before the checksum is consulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Liveness echo.
    Pong,
    /// The head at the moment the request was served.
    Head {
        /// The head version (seed database = 1).
        version: u64,
        /// The head root's interned id (`None` for an atom/⊥/⊤ head).
        root: Option<u64>,
    },
    /// The session's newly pinned snapshot.
    Snapshot {
        /// The pinned version.
        version: u64,
        /// The pinned root's interned id.
        root: Option<u64>,
    },
    /// The pin release outcome.
    Released {
        /// Whether a snapshot was actually held.
        was_pinned: bool,
    },
    /// A query/eval result: one root object, shipped as a co-wire
    /// snapshot payload.
    Objects {
        /// The snapshot version the result was computed against.
        version: u64,
        /// [`co_wire::write_snapshot`] bytes with exactly one root.
        payload: Vec<u8>,
    },
    /// A committed write.
    Advanced {
        /// The head version after the commit.
        version: u64,
        /// The new head root's interned id.
        root: Option<u64>,
        /// Fixpoint iterations the run took (0 for a pure merge).
        iterations: u64,
    },
    /// The store-ledger digest.
    Stats(StatsDigest),
    /// The process-wide observability registry at the moment the request
    /// was served.
    Metrics(co_obs::Snapshot),
    /// An application-level failure; the session stays open except after
    /// [`ErrorCode::Protocol`] / [`ErrorCode::SessionLimit`].
    Error {
        /// The failure category.
        code: ErrorCode,
        /// A human-readable rendering (parse diagnostics, guard reason…).
        message: String,
    },
}

/// The per-session serving state: everything a request needs beyond its
/// own fields. The worker pool drives [`handle`] against one of these,
/// which is what carries the MVCC contract (and every differential proof
/// built on it) independently of the I/O layer.
pub struct SessionState {
    shared: SharedEngine,
    /// The snapshot pinned by a `Snapshot` request, if any. While held,
    /// every `Query`/`Eval` runs against this frozen version.
    pinned: Option<PinnedDb>,
}

impl SessionState {
    /// Fresh state for a newly accepted session: nothing pinned.
    pub fn new(shared: SharedEngine) -> SessionState {
        SessionState {
            shared,
            pinned: None,
        }
    }

    /// The snapshot a read-only request runs against: the session's pin,
    /// or a fresh pin of the instantaneous head.
    fn read_view(&self) -> PinnedDb {
        match &self.pinned {
            Some(p) => p.clone(),
            None => self.shared.head(),
        }
    }
}

fn opt_id(id: Option<NodeId>) -> Option<u64> {
    id.map(NodeId::get)
}

/// Renders `result` as a co-wire snapshot payload with exactly one root.
fn objects_response(version: u64, result: &Object) -> Result<Response, ProtocolError> {
    let mut payload = Vec::new();
    co_wire::write_snapshot(
        &mut payload,
        std::slice::from_ref(result),
        b"co-server result",
    )?;
    Ok(Response::Objects { version, payload })
}

fn engine_error(e: EngineError) -> Response {
    Response::Error {
        code: ErrorCode::Engine,
        message: e.to_string(),
    }
}

fn parse_error(e: impl std::fmt::Display) -> Response {
    Response::Error {
        code: ErrorCode::Parse,
        message: e.to_string(),
    }
}

/// Serves one decoded request against one session's state. This is the
/// entire application layer: the serving cores differ only in how bytes
/// reach this function and how its response bytes leave. An `Err` means
/// only that rendering the response failed (a wire-encode error) — every
/// application-level failure is an ordinary [`Response::Error`].
pub fn handle(state: &mut SessionState, request: Request) -> Result<Response, ProtocolError> {
    match request {
        Request::Ping => Ok(Response::Pong),
        Request::Head => {
            let head = state.shared.head();
            Ok(Response::Head {
                version: head.version(),
                root: opt_id(head.root_id()),
            })
        }
        Request::Snapshot => {
            let pinned = state.shared.head();
            let resp = Response::Snapshot {
                version: pinned.version(),
                root: opt_id(pinned.root_id()),
            };
            state.pinned = Some(pinned);
            Ok(resp)
        }
        Request::Release => Ok(Response::Released {
            was_pinned: state.pinned.take().is_some(),
        }),
        Request::Query { formula } => {
            let f = match parse_formula(&formula) {
                Ok(f) => f,
                Err(e) => return Ok(parse_error(e)),
            };
            let view = state.read_view();
            let result = co_calculus::interpret(&f, view.object(), state.shared.policy());
            objects_response(view.version(), &result)
        }
        Request::Eval { program } => {
            let p = match parse_program(&program) {
                Ok(p) => p,
                Err(e) => return Ok(parse_error(e)),
            };
            let view = state.read_view();
            match state.shared.eval_db(&p, &view) {
                Ok((db, _)) => objects_response(view.version(), &db),
                Err(e) => Ok(engine_error(e)),
            }
        }
        Request::Advance { program } => {
            let p = match parse_program(&program) {
                Ok(p) => p,
                Err(e) => return Ok(parse_error(e)),
            };
            match state.shared.advance(&p) {
                Ok(out) => Ok(Response::Advanced {
                    version: out.version,
                    root: opt_id(out.database.node_id()),
                    iterations: out.stats.iterations,
                }),
                Err(e) => Ok(engine_error(e)),
            }
        }
        Request::Stats => {
            let s = store::stats();
            Ok(Response::Stats(StatsDigest {
                live_nodes: (s.tuple_nodes + s.set_nodes) as u64,
                pinned_roots: s.pinned_roots as u64,
                intern_hits: s.intern_hits,
                intern_misses: s.intern_misses,
                gc_sweeps: s.gc_sweeps,
                gc_freed_nodes: s.gc_freed_nodes,
            }))
        }
        Request::Metrics => Ok(Response::Metrics(co_obs::global().snapshot())),
    }
}

const REQ_PING: u8 = 0x01;
const REQ_HEAD: u8 = 0x02;
const REQ_SNAPSHOT: u8 = 0x03;
const REQ_RELEASE: u8 = 0x04;
const REQ_QUERY: u8 = 0x05;
const REQ_EVAL: u8 = 0x06;
const REQ_ADVANCE: u8 = 0x07;
const REQ_STATS: u8 = 0x08;
const REQ_METRICS: u8 = 0x09;

const RESP_PONG: u8 = 0x81;
const RESP_HEAD: u8 = 0x82;
const RESP_SNAPSHOT: u8 = 0x83;
const RESP_RELEASED: u8 = 0x84;
const RESP_OBJECTS: u8 = 0x85;
const RESP_ADVANCED: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_METRICS: u8 = 0x88;
const RESP_ERROR: u8 = 0xEF;

/// Field-level decode failures surface through the shared cursor; keep
/// truncations typed as truncations and everything else as malformed.
fn field(e: WireError) -> ProtocolError {
    match e {
        WireError::Truncated { context } => ProtocolError::Truncated { context },
        e => ProtocolError::Malformed {
            detail: e.to_string(),
        },
    }
}

fn put_opt_id(buf: &mut Vec<u8>, id: Option<u64>) {
    match id {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_varint(buf, v);
        }
    }
}

fn get_opt_id(c: &mut Cursor<'_>, context: &'static str) -> Result<Option<u64>, ProtocolError> {
    match c.u8(context).map_err(field)? {
        0 => Ok(None),
        1 => Ok(Some(c.varint(context).map_err(field)?)),
        other => Err(ProtocolError::Malformed {
            detail: format!("bad presence byte {other} in {context}"),
        }),
    }
}

/// Rejects bodies with bytes after the decoded message.
fn finish<T>(value: T, c: &Cursor<'_>) -> Result<T, ProtocolError> {
    if c.remaining() != 0 {
        return Err(ProtocolError::Malformed {
            detail: format!("{} trailing bytes after the message", c.remaining()),
        });
    }
    Ok(value)
}

/// Encodes a registry snapshot: three `(count, entries…)` sections
/// (counters, gauges, histograms), every integer a varint, every name a
/// length-prefixed string. The canonical form — what the registry and
/// [`co_obs::Histogram::snapshot`] produce — has names in strictly
/// increasing order within each section, histogram buckets as
/// `(index, count)` pairs in strictly increasing index order with
/// nonzero counts, and `min <= max` whenever `count > 0`. The decoder
/// enforces exactly that, so a decoded snapshot re-encodes verbatim,
/// its `binary_search`-based lookups and merges are sound, and a
/// corrupt frame is a typed error.
fn encode_snapshot(b: &mut Vec<u8>, s: &co_obs::Snapshot) {
    put_varint(b, s.counters.len() as u64);
    for (name, value) in &s.counters {
        put_str(b, name);
        put_varint(b, *value);
    }
    put_varint(b, s.gauges.len() as u64);
    for (name, value) in &s.gauges {
        put_str(b, name);
        put_varint_i64(b, *value);
    }
    put_varint(b, s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        put_str(b, name);
        put_varint(b, h.count);
        put_varint(b, h.sum);
        put_varint(b, h.min);
        put_varint(b, h.max);
        put_varint(b, h.buckets.len() as u64);
        for &(index, count) in &h.buckets {
            put_varint(b, u64::from(index));
            put_varint(b, count);
        }
    }
}

fn decode_snapshot(c: &mut Cursor<'_>) -> Result<co_obs::Snapshot, ProtocolError> {
    /// Declared-count sanity bound: an entry of this kind costs at
    /// least `min_entry_bytes` encoded bytes (name length prefix +
    /// value varints), so a count the remaining body cannot possibly
    /// hold is malformed without allocating for it.
    fn len(
        c: &mut Cursor<'_>,
        min_entry_bytes: u64,
        context: &'static str,
    ) -> Result<usize, ProtocolError> {
        let n = c.varint(context).map_err(field)?;
        if n > c.remaining() as u64 / min_entry_bytes {
            return Err(ProtocolError::Malformed {
                detail: format!("{context} count {n} exceeds the body"),
            });
        }
        Ok(n as usize)
    }
    /// Initial reservation cap: the byte bound above still allows a
    /// crafted count to reserve far more memory than the frame itself
    /// occupies, so reserve modestly and let the `Vec` grow only as
    /// entries actually decode.
    const RESERVE_CAP: usize = 1024;
    /// Names within a section must be strictly increasing — the order
    /// the registry emits and the one `Snapshot`'s `binary_search`
    /// lookups and `merge_with` require.
    fn check_order(prev: &Option<String>, name: &str) -> Result<(), ProtocolError> {
        if prev.as_deref().is_some_and(|p| p >= name) {
            return Err(ProtocolError::Malformed {
                detail: format!("metrics name {name:?} not in sorted order"),
            });
        }
        Ok(())
    }
    let n_counters = len(c, 2, "metrics counter count")?;
    let mut counters = Vec::with_capacity(n_counters.min(RESERVE_CAP));
    let mut prev: Option<String> = None;
    for _ in 0..n_counters {
        let name = c.str("metrics counter name").map_err(field)?.to_owned();
        check_order(&prev, &name)?;
        let value = c.varint("metrics counter value").map_err(field)?;
        prev = Some(name.clone());
        counters.push((name, value));
    }
    let n_gauges = len(c, 2, "metrics gauge count")?;
    let mut gauges = Vec::with_capacity(n_gauges.min(RESERVE_CAP));
    let mut prev: Option<String> = None;
    for _ in 0..n_gauges {
        let name = c.str("metrics gauge name").map_err(field)?.to_owned();
        check_order(&prev, &name)?;
        let value = c.varint_i64("metrics gauge value").map_err(field)?;
        prev = Some(name.clone());
        gauges.push((name, value));
    }
    let n_histograms = len(c, 6, "metrics histogram count")?;
    let mut histograms = Vec::with_capacity(n_histograms.min(RESERVE_CAP));
    let mut prev: Option<String> = None;
    for _ in 0..n_histograms {
        let name = c.str("metrics histogram name").map_err(field)?.to_owned();
        check_order(&prev, &name)?;
        prev = Some(name.clone());
        let count = c.varint("metrics histogram count").map_err(field)?;
        let sum = c.varint("metrics histogram sum").map_err(field)?;
        let min = c.varint("metrics histogram min").map_err(field)?;
        let max = c.varint("metrics histogram max").map_err(field)?;
        if count > 0 && min > max {
            return Err(ProtocolError::Malformed {
                detail: format!("histogram min {min} exceeds max {max}"),
            });
        }
        let n_buckets = len(c, 2, "metrics bucket count")?;
        let mut buckets = Vec::with_capacity(n_buckets.min(RESERVE_CAP));
        let mut prev: Option<u32> = None;
        for _ in 0..n_buckets {
            let index = c.varint("metrics bucket index").map_err(field)?;
            let index = u32::try_from(index)
                .ok()
                .filter(|&i| (i as usize) < co_obs::NUM_BUCKETS)
                .ok_or_else(|| ProtocolError::Malformed {
                    detail: format!("histogram bucket index {index} out of range"),
                })?;
            if prev.is_some_and(|p| p >= index) {
                return Err(ProtocolError::Malformed {
                    detail: format!("histogram bucket index {index} not increasing"),
                });
            }
            prev = Some(index);
            let bucket_count = c.varint("metrics bucket value").map_err(field)?;
            if bucket_count == 0 {
                return Err(ProtocolError::Malformed {
                    detail: "zero-count histogram bucket".to_owned(),
                });
            }
            buckets.push((index, bucket_count));
        }
        histograms.push((
            name,
            co_obs::HistogramSnapshot {
                count,
                sum,
                min,
                max,
                buckets,
            },
        ));
    }
    Ok(co_obs::Snapshot {
        counters,
        gauges,
        histograms,
    })
}

impl Request {
    /// Encodes this request as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Request::Ping => b.push(REQ_PING),
            Request::Head => b.push(REQ_HEAD),
            Request::Snapshot => b.push(REQ_SNAPSHOT),
            Request::Release => b.push(REQ_RELEASE),
            Request::Query { formula } => {
                b.push(REQ_QUERY);
                put_str(&mut b, formula);
            }
            Request::Eval { program } => {
                b.push(REQ_EVAL);
                put_str(&mut b, program);
            }
            Request::Advance { program } => {
                b.push(REQ_ADVANCE);
                put_str(&mut b, program);
            }
            Request::Stats => b.push(REQ_STATS),
            Request::Metrics => b.push(REQ_METRICS),
        }
        b
    }

    /// Decodes a frame body as a request.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut c = Cursor::new(body);
        let kind = c.u8("request kind").map_err(field)?;
        let req = match kind {
            REQ_PING => Request::Ping,
            REQ_HEAD => Request::Head,
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_RELEASE => Request::Release,
            REQ_QUERY => Request::Query {
                formula: c.str("query formula").map_err(field)?.to_owned(),
            },
            REQ_EVAL => Request::Eval {
                program: c.str("eval program").map_err(field)?.to_owned(),
            },
            REQ_ADVANCE => Request::Advance {
                program: c.str("advance program").map_err(field)?.to_owned(),
            },
            REQ_STATS => Request::Stats,
            REQ_METRICS => Request::Metrics,
            kind => {
                return Err(ProtocolError::BadKind {
                    kind,
                    context: "request",
                })
            }
        };
        finish(req, &c)
    }
}

impl Response {
    /// Encodes this response as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Response::Pong => b.push(RESP_PONG),
            Response::Head { version, root } => {
                b.push(RESP_HEAD);
                put_varint(&mut b, *version);
                put_opt_id(&mut b, *root);
            }
            Response::Snapshot { version, root } => {
                b.push(RESP_SNAPSHOT);
                put_varint(&mut b, *version);
                put_opt_id(&mut b, *root);
            }
            Response::Released { was_pinned } => {
                b.push(RESP_RELEASED);
                b.push(u8::from(*was_pinned));
            }
            Response::Objects { version, payload } => {
                b.push(RESP_OBJECTS);
                put_varint(&mut b, *version);
                put_varint(&mut b, payload.len() as u64);
                b.extend_from_slice(payload);
            }
            Response::Advanced {
                version,
                root,
                iterations,
            } => {
                b.push(RESP_ADVANCED);
                put_varint(&mut b, *version);
                put_opt_id(&mut b, *root);
                put_varint(&mut b, *iterations);
            }
            Response::Stats(d) => {
                b.push(RESP_STATS);
                for v in [
                    d.live_nodes,
                    d.pinned_roots,
                    d.intern_hits,
                    d.intern_misses,
                    d.gc_sweeps,
                    d.gc_freed_nodes,
                ] {
                    put_varint(&mut b, v);
                }
            }
            Response::Metrics(snapshot) => {
                b.push(RESP_METRICS);
                encode_snapshot(&mut b, snapshot);
            }
            Response::Error { code, message } => {
                b.push(RESP_ERROR);
                b.push(code.code());
                put_str(&mut b, message);
            }
        }
        b
    }

    /// Decodes a frame body as a response.
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut c = Cursor::new(body);
        let kind = c.u8("response kind").map_err(field)?;
        let resp = match kind {
            RESP_PONG => Response::Pong,
            RESP_HEAD => Response::Head {
                version: c.varint("head version").map_err(field)?,
                root: get_opt_id(&mut c, "head root")?,
            },
            RESP_SNAPSHOT => Response::Snapshot {
                version: c.varint("snapshot version").map_err(field)?,
                root: get_opt_id(&mut c, "snapshot root")?,
            },
            RESP_RELEASED => Response::Released {
                was_pinned: match c.u8("released flag").map_err(field)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ProtocolError::Malformed {
                            detail: format!("bad released flag {other}"),
                        })
                    }
                },
            },
            RESP_OBJECTS => {
                let version = c.varint("objects version").map_err(field)?;
                let len = c.varint("objects payload length").map_err(field)?;
                let len = usize::try_from(len).map_err(|_| ProtocolError::Malformed {
                    detail: format!("objects payload length {len} overflows"),
                })?;
                let payload = c.take(len, "objects payload").map_err(field)?.to_vec();
                Response::Objects { version, payload }
            }
            RESP_ADVANCED => Response::Advanced {
                version: c.varint("advanced version").map_err(field)?,
                root: get_opt_id(&mut c, "advanced root")?,
                iterations: c.varint("advanced iterations").map_err(field)?,
            },
            RESP_STATS => {
                let mut vals = [0u64; 6];
                for v in &mut vals {
                    *v = c.varint("stats digest").map_err(field)?;
                }
                Response::Stats(StatsDigest {
                    live_nodes: vals[0],
                    pinned_roots: vals[1],
                    intern_hits: vals[2],
                    intern_misses: vals[3],
                    gc_sweeps: vals[4],
                    gc_freed_nodes: vals[5],
                })
            }
            RESP_METRICS => Response::Metrics(decode_snapshot(&mut c)?),
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_code(c.u8("error code").map_err(field)?)?,
                message: c.str("error message").map_err(field)?.to_owned(),
            },
            kind => {
                return Err(ProtocolError::BadKind {
                    kind,
                    context: "response",
                })
            }
        };
        finish(resp, &c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_corpus() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Head,
            Request::Snapshot,
            Request::Release,
            Request::Query {
                formula: "[r1: {[a: X, b: 10]}]".into(),
            },
            Request::Eval {
                program: "[doa: {p0}].".into(),
            },
            Request::Advance {
                program: "[doa: {X}] :- [family: {[name: X]}].".into(),
            },
            Request::Stats,
            Request::Metrics,
        ]
    }

    /// A representative registry snapshot: counters, a negative gauge,
    /// and a histogram whose buckets exercise the canonical-form checks.
    fn metrics_snapshot() -> co_obs::Snapshot {
        co_obs::Snapshot {
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
        }
    }

    fn response_corpus() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Head {
                version: 7,
                root: Some(123),
            },
            Response::Snapshot {
                version: 7,
                root: None,
            },
            Response::Released { was_pinned: true },
            Response::Objects {
                version: 9,
                payload: b"not-really-a-snapshot".to_vec(),
            },
            Response::Advanced {
                version: 8,
                root: Some(77),
                iterations: 4,
            },
            Response::Stats(StatsDigest {
                live_nodes: 1000,
                pinned_roots: 3,
                intern_hits: 500,
                intern_misses: 400,
                gc_sweeps: 2,
                gc_freed_nodes: 123,
            }),
            Response::Metrics(metrics_snapshot()),
            Response::Metrics(co_obs::Snapshot::default()),
            Response::Error {
                code: ErrorCode::Parse,
                message: "unexpected token".into(),
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "server over its in-flight cap".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in request_corpus() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in response_corpus() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn unknown_kinds_and_trailing_bytes_are_typed() {
        assert!(matches!(
            Request::decode(&[0x7f]).unwrap_err(),
            ProtocolError::BadKind {
                kind: 0x7f,
                context: "request"
            }
        ));
        assert!(matches!(
            Response::decode(&[0x02]).unwrap_err(),
            ProtocolError::BadKind {
                kind: 0x02,
                context: "response"
            }
        ));
        let mut body = Request::Ping.encode();
        body.push(9);
        assert!(matches!(
            Request::decode(&body).unwrap_err(),
            ProtocolError::Malformed { .. }
        ));
        assert!(matches!(
            Request::decode(&[]).unwrap_err(),
            ProtocolError::Truncated { .. }
        ));
    }
}
