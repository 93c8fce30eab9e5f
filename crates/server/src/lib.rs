//! # co-server — a multi-client serving layer with snapshot-isolated reads
//!
//! A TCP front-end over one shared
//! [`SharedEngine`] — many concurrent sessions
//! submit programs and queries against a single hash-consed object store,
//! and every read runs against a *pinned snapshot* — frozen, GC-protected,
//! bit-identical to a single-threaded run quiesced at that version — while
//! writers advance the head underneath (see `co_engine::shared` for why
//! the store's immutable, never-recycled-id design makes this MVCC for
//! free).
//!
//! ## Serving core
//!
//! One I/O core drives the application layer ([`protocol::handle`]): a
//! readiness-driven reactor. One thread `poll(2)`s the whole session fd
//! set (nonblocking sockets, the vendored `polling` shim — no async
//! runtime), reassembles frames incrementally, and feeds bounded
//! per-session queues drained by a fixed worker pool. Full queues pause
//! the socket (TCP pushes back to the client); a server-wide in-flight
//! cap answers excess requests with typed [`ErrorCode::Overloaded`]
//! rejections instead of collapsing; shutdown closes every socket and
//! joins the pool, so `active_sessions` reaches zero.
//!
//! ## Protocol
//!
//! Length-prefixed, checksummed [`frame`]s carry [`Request`]/[`Response`]
//! messages; results ship back as co-wire snapshot payloads (the same
//! hash-cons-aware encoding checkpoints use). Corruption anywhere —
//! truncation at any byte, any single bit flip, frames fragmented across
//! readiness wakeups — yields a typed [`ProtocolError`], never a panic
//! and never a silently-wrong reply (`tests/protocol_adversarial.rs`
//! proves this exhaustively).
//!
//! ## Serving a store
//!
//! ```no_run
//! use co_engine::{Engine, SharedEngine};
//! use co_parser::parse_object;
//! use co_server::{Client, Server, ServerConfig};
//!
//! let db = parse_object("[edge: {[s: a, t: b]}]").unwrap();
//! let shared = SharedEngine::new(Engine::new(Default::default()), db);
//! let handle = Server::bind(shared, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.snapshot().unwrap(); // pin: reads now snapshot-isolated
//! let (_version, result) = client.query("[edge: {[s: X, t: Y]}]").unwrap();
//! assert!(result.dot("edge").as_set().is_some());
//! handle.shutdown();
//! ```
//!
//! ## Knobs
//!
//! | env | default | meaning |
//! |---|---|---|
//! | `CO_SERVER_ADDR` | `127.0.0.1:0` | listen address (`:0` = ephemeral port) |
//! | `CO_SERVER_WORKERS` | `0` (auto) | worker threads; `0` = `max(2 × available_parallelism, 4)` (workers can park on the engine's writer mutex, so the pool oversubscribes the cores) |
//! | `CO_SERVER_SESSION_QUEUE` | `16` | per-session queued-request bound; at the bound the socket stops being read (backpressure) |
//! | `CO_SERVER_MAX_INFLIGHT` | `1024` | server-wide admitted-request cap; beyond it requests get a typed `Overloaded` rejection |
//! | `CO_SERVER_MAX_SESSIONS` | `1024` | concurrent sessions before new connections are rejected with a typed `SessionLimit` error |
//! | `CO_SERVER_MAX_FRAME` | 16 MiB | per-frame body cap, enforced before allocation |
//! | `CO_METRICS` | on | `0`/`off`/`false` disable the co-obs metric registry (counters/histograms become no-ops; the `Request::Metrics` frame still answers, with frozen values) |
//! | `CO_TRACE` | off | `1`/`stderr` emit JSON-lines spans to stderr; any other value is an append-mode file path |
//!
//! A set-but-unparsable value keeps the default **and emits a one-line
//! structured warning** (a single JSON line through the co-obs event
//! emitter — stderr unless `CO_TRACE` routes it to a file) naming the
//! variable and the rejected value. The engine's configuration (thread
//! count, GC cadence, …) is whatever the [`SharedEngine`]'s template was
//! built with — the serving layer adds no semantics of its own.
//!
//! ## Observability
//!
//! Every request is stamped through its lifecycle
//! (decoded → enqueued → dequeued → handled → written) into the global
//! [`co_obs`] registry: `server.queue_wait_ns` / `server.handle_ns` /
//! `server.write_ns` histograms plus the decode/handle/reject ledger
//! counters (see the `obs` module docs for the exact invariants). The
//! [`Request::Metrics`] frame returns the whole registry as a typed
//! [`co_obs::Snapshot`]; [`Client::metrics`] fetches it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod error;
pub mod frame;
pub(crate) mod obs;
mod pool;
pub mod protocol;
mod reactor;

pub use client::{Advanced, Client, ClientError};
pub use error::ProtocolError;
pub use frame::{FrameDecoder, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN};
pub use protocol::{handle, ErrorCode, Request, Response, SessionState, StatsDigest};

use co_engine::SharedEngine;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Listener configuration. [`ServerConfig::from_env`] reads the knobs
/// documented at the crate root.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (default `127.0.0.1:0` — an ephemeral port,
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Concurrent-session cap; further connections get a typed
    /// [`ErrorCode::SessionLimit`] rejection and are closed.
    pub max_sessions: usize,
    /// Per-frame body cap in bytes, enforced before allocation.
    pub max_frame_len: u64,
    /// Worker threads; `0` = auto
    /// (`max(2 × available_parallelism, 4)` — oversubscribed because a
    /// worker running an `advance` parks on the engine's writer mutex,
    /// and writers must never be able to occupy the whole pool).
    pub workers: usize,
    /// Per-session queued-request bound. At the bound the reactor stops
    /// reading that socket: kernel buffer + TCP window push back to the
    /// client instead of the server buffering unboundedly.
    pub session_queue: usize,
    /// Server-wide admitted-request cap; requests arriving beyond it get
    /// a typed [`ErrorCode::Overloaded`] rejection (no engine work).
    pub max_inflight: usize,
}

/// A set-but-rejected configuration variable, reported by
/// [`ServerConfig::from_vars`] and emitted by [`ServerConfig::from_env`]
/// as one structured warning line through the co-obs event emitter. The
/// fields are separate (not a pre-baked message) so the emitted JSON
/// carries `variable` and `rejected` as machine-readable fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigWarning {
    /// The `CO_SERVER_*` variable that was set.
    pub variable: String,
    /// The value that failed to parse, verbatim.
    pub rejected: String,
    /// Why it was rejected and which default is kept.
    pub detail: String,
}

impl ConfigWarning {
    fn new(variable: &str, rejected: &str, detail: String) -> ConfigWarning {
        ConfigWarning {
            variable: variable.to_owned(),
            rejected: rejected.to_owned(),
            detail,
        }
    }
}

impl std::fmt::Display for ConfigWarning {
    /// The human rendering, shaped like the pre-structured stderr line:
    /// `ignoring CO_SERVER_MAX_FRAME="-5": not a positive byte count;
    /// keeping 16777216`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ignoring {}={:?}: {}",
            self.variable, self.rejected, self.detail
        )
    }
}

impl Default for ServerConfig {
    /// The environment-free baseline: [`ServerConfig::from_vars`] with
    /// nothing set. [`ServerConfig::from_env`] is the one constructor
    /// that reads `CO_SERVER_*`.
    fn default() -> ServerConfig {
        ServerConfig::from_vars(|_| None).0
    }
}

impl ServerConfig {
    /// Configuration from the `CO_SERVER_*` environment. A variable that
    /// is set but unparsable keeps its default and emits one structured
    /// warning line (JSON, stderr by default — the `co-obs` event
    /// emitter) naming the variable and the rejected value — silent
    /// fallback hides typos like `CO_SERVER_MAX_SESSIONS=1k` until the
    /// cap bites in production.
    pub fn from_env() -> ServerConfig {
        let (config, warnings) = ServerConfig::from_vars(|key| std::env::var(key).ok());
        for w in &warnings {
            co_obs::warn(
                "co-server",
                "ignoring unparsable configuration variable",
                &[
                    ("variable", co_obs::FieldValue::Str(&w.variable)),
                    ("rejected", co_obs::FieldValue::Str(&w.rejected)),
                    ("detail", co_obs::FieldValue::Str(&w.detail)),
                ],
            );
        }
        config
    }

    /// [`ServerConfig::from_env`] with the variable source injected —
    /// the testable core. Returns the configuration plus the warnings
    /// for set-but-rejected values.
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> (ServerConfig, Vec<ConfigWarning>) {
        // The baseline `Default` returns (it calls this with nothing
        // set, so it cannot be written in terms of `Default`).
        let mut cfg = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_sessions: 1024,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            workers: 0,
            session_queue: 16,
            max_inflight: 1024,
        };
        let mut warnings = Vec::new();

        if let Some(addr) = get("CO_SERVER_ADDR") {
            let addr = addr.trim();
            if addr.is_empty() {
                warnings.push(ConfigWarning::new(
                    "CO_SERVER_ADDR",
                    "",
                    format!("empty address; keeping \"{}\"", cfg.addr),
                ));
            } else {
                cfg.addr = addr.to_owned();
            }
        }
        let mut usize_knob = |key: &str, min: usize, slot: &mut usize, meaning: &str| {
            if let Some(raw) = get(key) {
                match raw.trim().parse::<usize>() {
                    Ok(n) if n >= min => *slot = n,
                    _ => warnings.push(ConfigWarning::new(
                        key,
                        &raw,
                        format!("not {meaning}; keeping {}", *slot),
                    )),
                }
            }
        };
        usize_knob(
            "CO_SERVER_MAX_SESSIONS",
            1,
            &mut cfg.max_sessions,
            "a positive session count",
        );
        usize_knob(
            "CO_SERVER_WORKERS",
            0,
            &mut cfg.workers,
            "a worker count (0 = auto)",
        );
        usize_knob(
            "CO_SERVER_SESSION_QUEUE",
            1,
            &mut cfg.session_queue,
            "a positive queue bound",
        );
        usize_knob(
            "CO_SERVER_MAX_INFLIGHT",
            1,
            &mut cfg.max_inflight,
            "a positive in-flight cap",
        );
        if let Some(raw) = get("CO_SERVER_MAX_FRAME") {
            match raw.trim().parse::<u64>() {
                Ok(n) if n >= 1 => cfg.max_frame_len = n,
                _ => warnings.push(ConfigWarning::new(
                    "CO_SERVER_MAX_FRAME",
                    &raw,
                    format!("not a positive byte count; keeping {}", cfg.max_frame_len),
                )),
            }
        }
        (cfg, warnings)
    }

    /// The worker count actually spawned: `workers`, or —
    /// when `0` (auto) — `max(2 × available_parallelism, 4)`. Workers
    /// are not purely CPU-bound: an `advance` parks its worker on the
    /// engine's writer mutex for the whole fixpoint, so a pool sized
    /// exactly to the cores would let a few concurrent writers stall
    /// every read; modest oversubscription keeps readers flowing (and
    /// measurably halves the open-loop p99 on small machines).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            (cores * 2).max(4)
        }
    }
}

/// What an accept-loop error means for the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Nothing queued (`WouldBlock`): back off and poll again.
    Idle,
    /// A per-connection failure (the peer reset mid-handshake, a stray
    /// signal, fd pressure that may clear): skip it, keep accepting.
    Transient,
    /// The listener itself is broken: log and stop accepting — retrying
    /// at poll frequency would spin forever on a dead socket.
    Fatal,
}

pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    match e.kind() {
        io::ErrorKind::WouldBlock => AcceptDisposition::Idle,
        // Peer-side failures surfaced through accept, and resource
        // pressure that backing off can relieve.
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::Interrupted
        | io::ErrorKind::TimedOut => AcceptDisposition::Transient,
        _ => AcceptDisposition::Fatal,
    }
}

/// The serving front-end. [`Server::bind`] starts the reactor and
/// returns a [`ServerHandle`]; there is no long-lived `Server` value.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving sessions against `shared`.
    /// Reads are snapshot-isolated per the [`co_engine::shared`] contract.
    pub fn bind(shared: SharedEngine, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let waker = polling::Waker::new()?;
        let pool_shared = Arc::new(pool::PoolShared::new(
            config.max_inflight,
            config.session_queue,
            waker,
        ));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let pool_shared = Arc::clone(&pool_shared);
            thread::Builder::new()
                .name("co-server-reactor".to_owned())
                .spawn(move || {
                    reactor::run(listener, shared, &config, pool_shared, &shutdown, &active)
                })?
        };
        Ok(ServerHandle {
            addr,
            shutdown,
            active,
            thread: Some(thread),
            pool_shared,
        })
    }
}

/// Releases one claimed session slot on drop — even when a worker
/// unwinds from a panic mid-request.
pub(crate) struct SlotGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server: its bound address and its shutdown lever. Dropping
/// the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    thread: Option<thread::JoinHandle<()>>,
    /// Shutdown nudges the reactor's self-pipe through this.
    pool_shared: Arc<pool::PoolShared>,
}

impl ServerHandle {
    /// The bound listen address (the real port when `addr` asked for
    /// `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Stops accepting and wakes the reactor, which closes every socket
    /// (idle sessions drain immediately — none is abandoned until process
    /// exit) and joins the worker pool before its thread exits. Returns
    /// the sessions still undrained once it has — `0` on a clean
    /// shutdown, which tests assert.
    pub fn shutdown(mut self) -> usize {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> usize {
        self.shutdown.store(true, Ordering::Release);
        self.pool_shared.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.active.load(Ordering::Acquire)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use std::collections::HashMap;

    fn vars(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        move |key| map.get(key).cloned()
    }

    #[test]
    fn parsable_values_override_defaults_without_warnings() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "7"),
            ("CO_SERVER_MAX_FRAME", "4096"),
            ("CO_SERVER_WORKERS", "3"),
            ("CO_SERVER_SESSION_QUEUE", "2"),
            ("CO_SERVER_MAX_INFLIGHT", "9"),
            ("CO_SERVER_ADDR", "127.0.0.1:0"),
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(cfg.max_sessions, 7);
        assert_eq!(cfg.max_frame_len, 4096);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.session_queue, 2);
        assert_eq!(cfg.max_inflight, 9);
    }

    #[test]
    fn unparsable_values_keep_defaults_and_warn_naming_the_variable() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "1k"),
            ("CO_SERVER_MAX_FRAME", "-5"),
        ]));
        let defaults = ServerConfig::default();
        assert_eq!(cfg.max_sessions, defaults.max_sessions);
        assert_eq!(cfg.max_frame_len, defaults.max_frame_len);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        for (warning, var, rejected) in [
            (&warnings[0], "CO_SERVER_MAX_SESSIONS", "1k"),
            (&warnings[1], "CO_SERVER_MAX_FRAME", "-5"),
        ] {
            assert_eq!(warning.variable, var);
            assert_eq!(warning.rejected, rejected);
            let rendered = warning.to_string();
            assert!(rendered.contains(var), "{rendered}");
            assert!(rendered.contains(rejected), "{rendered}");
            assert!(rendered.starts_with("ignoring "), "{rendered}");
        }
    }

    #[test]
    fn zero_caps_are_rejected_but_zero_workers_means_auto() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "0"),
            ("CO_SERVER_SESSION_QUEUE", "0"),
            ("CO_SERVER_MAX_INFLIGHT", "0"),
            ("CO_SERVER_WORKERS", "0"),
        ]));
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert_eq!(cfg.max_sessions, 1024);
        assert_eq!(cfg.session_queue, 16);
        assert_eq!(cfg.max_inflight, 1024);
        assert_eq!(cfg.workers, 0);
        assert!(cfg.resolved_workers() >= 4, "auto floors at four workers");
    }

    #[test]
    fn unset_environment_is_silent_defaults() {
        let (cfg, warnings) = ServerConfig::from_vars(|_| None);
        assert!(warnings.is_empty());
        assert_eq!(cfg.max_sessions, 1024);
    }

    #[test]
    fn default_is_the_environment_free_baseline() {
        let (baseline, _) = ServerConfig::from_vars(|_| None);
        let ServerConfig {
            addr,
            max_sessions,
            max_frame_len,
            workers,
            session_queue,
            max_inflight,
        } = ServerConfig::default();
        assert_eq!(addr, baseline.addr);
        assert_eq!(max_sessions, baseline.max_sessions);
        assert_eq!(max_frame_len, baseline.max_frame_len);
        assert_eq!(workers, baseline.workers);
        assert_eq!(session_queue, baseline.session_queue);
        assert_eq!(max_inflight, baseline.max_inflight);
    }

    #[test]
    fn accept_errors_classify_idle_transient_fatal() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            classify_accept_error(&Error::from(ErrorKind::WouldBlock)),
            AcceptDisposition::Idle
        );
        for transient in [
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
        ] {
            assert_eq!(
                classify_accept_error(&Error::from(transient)),
                AcceptDisposition::Transient,
                "{transient:?}"
            );
        }
        for fatal in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
        ] {
            assert_eq!(
                classify_accept_error(&Error::from(fatal)),
                AcceptDisposition::Fatal,
                "{fatal:?}"
            );
        }
    }
}
