//! The serving layer's registry instruments, resolved once.
//!
//! The request lifecycle is stamped against these names:
//!
//! - `server.requests_decoded` — complete frame bodies taken off a
//!   socket (the ledger's top line);
//! - `server.requests_handled` — requests that reached
//!   [`protocol::handle`](crate::protocol::handle) (even if the
//!   response write then failed);
//! - `server.requests_rejected` — decoded but never handled: admission
//!   control (`server.rejected_overloaded` sub-counts those), request
//!   decode failures, and frames abandoned when their session closed;
//! - `server.inflight` — decoded minus (handled + rejected): zero at
//!   quiesce, making `decoded == handled + rejected` checkable from a
//!   snapshot alone;
//! - `server.queue_wait_ns` — decode→dequeue (the session-queue wait);
//! - `server.handle_ns` / `server.write_ns` — time inside
//!   `protocol::handle` / writing the response frame;
//! - `server.write_stall_waits` — POLLOUT waits while a peer dawdled;
//! - `server.reactor_polls`, `server.backpressure_pauses`,
//!   `server.sessions_accepted` — reactor loop health.
//!
//! Everything here is a relaxed atomic mutation through a cached `Arc`
//! — the registry's lock is touched once per process, not per request.

use co_obs::{Counter, FieldValue, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub(crate) struct ServerInstruments {
    pub(crate) requests_decoded: Arc<Counter>,
    pub(crate) requests_handled: Arc<Counter>,
    pub(crate) requests_rejected: Arc<Counter>,
    pub(crate) rejected_overloaded: Arc<Counter>,
    pub(crate) backpressure_pauses: Arc<Counter>,
    pub(crate) reactor_polls: Arc<Counter>,
    pub(crate) sessions_accepted: Arc<Counter>,
    pub(crate) write_stall_waits: Arc<Counter>,
    pub(crate) inflight: Arc<Gauge>,
    pub(crate) queue_wait_ns: Arc<Histogram>,
    pub(crate) handle_ns: Arc<Histogram>,
    pub(crate) write_ns: Arc<Histogram>,
}

pub(crate) fn instruments() -> &'static ServerInstruments {
    static CELL: OnceLock<ServerInstruments> = OnceLock::new();
    CELL.get_or_init(|| ServerInstruments {
        requests_decoded: co_obs::counter("server.requests_decoded"),
        requests_handled: co_obs::counter("server.requests_handled"),
        requests_rejected: co_obs::counter("server.requests_rejected"),
        rejected_overloaded: co_obs::counter("server.rejected_overloaded"),
        backpressure_pauses: co_obs::counter("server.backpressure_pauses"),
        reactor_polls: co_obs::counter("server.reactor_polls"),
        sessions_accepted: co_obs::counter("server.sessions_accepted"),
        write_stall_waits: co_obs::counter("server.write_stall_waits"),
        inflight: co_obs::gauge("server.inflight"),
        queue_wait_ns: co_obs::histogram("server.queue_wait_ns"),
        handle_ns: co_obs::histogram("server.handle_ns"),
        write_ns: co_obs::histogram("server.write_ns"),
    })
}

impl ServerInstruments {
    /// One decoded frame entered the ledger.
    #[inline]
    pub(crate) fn decoded(&self) {
        self.requests_decoded.inc();
        self.inflight.inc();
    }

    /// A decoded request left the ledger without being handled.
    #[inline]
    pub(crate) fn rejected(&self) {
        self.requests_rejected.inc();
        self.inflight.dec();
    }

    /// A decoded request reached `protocol::handle`.
    #[inline]
    pub(crate) fn handled(&self) {
        self.requests_handled.inc();
        self.inflight.dec();
    }
}

/// One `server.request` span per served request when `CO_TRACE` is on:
/// the decoded→dequeued→handled→written stamps as durations. The `core`
/// field is the constant `"pool"` (trace consumers key on it).
/// `queue_wait` is the time the request sat in its session queue between
/// decode and dequeue.
pub(crate) fn emit_request_span(
    session: u64,
    queue_wait: Duration,
    handle: Duration,
    write: Duration,
    ok: bool,
) {
    co_obs::emit(
        "server.request",
        &[
            ("core", FieldValue::Str("pool")),
            ("session", FieldValue::U64(session)),
            (
                "queue_wait_ns",
                FieldValue::U64(queue_wait.as_nanos() as u64),
            ),
            ("handle_ns", FieldValue::U64(handle.as_nanos() as u64)),
            ("write_ns", FieldValue::U64(write.as_nanos() as u64)),
            ("ok", FieldValue::Bool(ok)),
        ],
    );
}
