//! The worker side of the readiness-driven serving core: a fixed pool
//! draining bounded per-session queues.
//!
//! The [`reactor`](crate::reactor) decodes frames off ready sockets and
//! enqueues them as [`Job`]s on the owning session's queue; workers pull
//! whole sessions off a shared ready list and drain them — batching
//! every request that arrived since the session's last wakeup — through
//! [`protocol::handle`], which alone carries the MVCC contract.
//!
//! Two invariants carry the core's correctness:
//!
//! - **Per-session serialization.** A session is on the ready list (or
//!   being drained) at most once, guarded by its `scheduled` flag — so
//!   its requests execute in arrival order, its responses leave in the
//!   same order, and its [`SessionState`] needs no finer locking.
//! - **Bounded memory.** The reactor never lets a session's queue grow
//!   past its bound (it pauses reading the socket instead — kernel
//!   buffer and TCP window push back to the client), and a server-wide
//!   in-flight cap turns excess admitted work into immediate typed
//!   [`ErrorCode::Overloaded`] rejections *in queue order*, so an
//!   overloaded server degrades into cheap error frames instead of
//!   collapsing under buffered work.

use crate::frame::encode_frame;
use crate::obs;
use crate::protocol::{self, ErrorCode, Request, Response, SessionState};
use crate::SlotGuard;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a worker will tolerate a write-stalled peer (one that sent
/// requests but stops reading responses) before abandoning the session.
/// Generous: a healthy client drains its socket in microseconds.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Poll granularity while waiting out a write stall (also the shutdown
/// reaction latency of a stalled write).
const WRITE_POLL: Duration = Duration::from_millis(100);

/// One unit of session work.
pub(crate) enum Job {
    /// A verified frame body to decode and serve. `decoded_at` is the
    /// reactor's extraction stamp — the dequeue-side read of it is the
    /// request's queue wait.
    Frame { body: Vec<u8>, decoded_at: Instant },
    /// A pre-judged rejection to render (admission control, protocol
    /// failure). `close` poisons the session after the report.
    Reject {
        code: ErrorCode,
        message: String,
        close: bool,
    },
}

/// Everything the pool and reactor share about one live session.
pub(crate) struct SessionEntry {
    pub(crate) id: u64,
    /// The worker-side write handle (a dup of the reactor's read handle).
    pub(crate) stream: TcpStream,
    pub(crate) queue: Mutex<VecDeque<Job>>,
    /// On the ready list or being drained right now.
    pub(crate) scheduled: AtomicBool,
    /// Set by the reactor when it paused reading this session's socket
    /// (queue at bound); tells the draining worker to request a resume.
    pub(crate) read_paused: AtomicBool,
    /// The peer closed (or errored): once the queue drains, the session
    /// is done.
    pub(crate) close_after_drain: AtomicBool,
    pub(crate) state: Mutex<SessionState>,
    /// Releases the session's slot in `ServerHandle::active_sessions`
    /// when the last reference drops.
    pub(crate) _slot: SlotGuard,
}

/// State shared between the reactor thread and every worker.
pub(crate) struct PoolShared {
    /// Sessions with work, each present at most once (`scheduled`).
    /// Holds the entry itself so the worker hot path never touches the
    /// global `sessions` map.
    ready: Mutex<VecDeque<Arc<SessionEntry>>>,
    ready_cond: Condvar,
    /// All live sessions, by id. The reactor inserts on accept; the
    /// reactor removes on close.
    pub(crate) sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    /// Admitted-but-uncompleted requests across all sessions.
    pub(crate) inflight: AtomicUsize,
    pub(crate) max_inflight: usize,
    /// Per-session queue bound (backpressure threshold).
    pub(crate) session_queue: usize,
    /// Pool shutdown flag (the server-wide flag is the reactor's).
    shutdown: AtomicBool,
    /// Wakes the reactor's `poll` (resume/close notifications).
    pub(crate) waker: polling::Waker,
    /// Sessions whose sockets should be read again (queue drained below
    /// the bound after a backpressure pause).
    pub(crate) resume: Mutex<Vec<u64>>,
    /// Sessions a worker finished closing (error, write failure, or
    /// close-after-drain); the reactor deregisters them.
    pub(crate) closed: Mutex<Vec<u64>>,
}

impl PoolShared {
    pub(crate) fn new(
        max_inflight: usize,
        session_queue: usize,
        waker: polling::Waker,
    ) -> PoolShared {
        PoolShared {
            ready: Mutex::new(VecDeque::new()),
            ready_cond: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            max_inflight,
            session_queue,
            shutdown: AtomicBool::new(false),
            waker,
            resume: Mutex::new(Vec::new()),
            closed: Mutex::new(Vec::new()),
        }
    }

    /// Puts the session on the ready list unless it is already
    /// scheduled. Called by the reactor after enqueueing jobs.
    pub(crate) fn schedule(&self, entry: &Arc<SessionEntry>) {
        if !entry.scheduled.swap(true, Ordering::AcqRel) {
            self.ready.lock().unwrap().push_back(Arc::clone(entry));
            // Notify after unlocking: the woken worker's first act is to
            // take the ready lock, so signalling under it would wake it
            // straight into a futex wait.
            self.ready_cond.notify_one();
        }
    }

    fn next_ready(&self) -> Option<Arc<SessionEntry>> {
        let mut ready = self.ready.lock().unwrap();
        loop {
            if let Some(entry) = ready.pop_front() {
                return Some(entry);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            ready = self.ready_cond.wait(ready).unwrap();
        }
    }

    /// Tells the reactor a paused session's queue has room again.
    fn request_resume(&self, id: u64) {
        self.resume.lock().unwrap().push(id);
        self.waker.wake();
    }

    /// Tells the reactor a session is finished.
    fn report_closed(&self, id: u64) {
        self.closed.lock().unwrap().push(id);
        self.waker.wake();
    }
}

/// The fixed worker pool. Dropping it (after [`WorkerPool::shutdown`])
/// joins every worker.
pub(crate) struct WorkerPool {
    workers: Vec<thread::JoinHandle<()>>,
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawns `workers` threads draining `shared`'s ready list.
    pub(crate) fn spawn(workers: usize, shared: Arc<PoolShared>) -> WorkerPool {
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("co-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { workers, shared }
    }

    /// Stops the pool and joins every worker. Queued-but-undrained jobs
    /// are dropped — the server is going away with their sockets.
    pub(crate) fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.ready_cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    while let Some(entry) = shared.next_ready() {
        drain_session(shared, &entry);
    }
}

/// Drains one session's queue to empty (or to a poisoning failure),
/// serving each job in arrival order, then releases the `scheduled`
/// claim — re-claiming it if the reactor raced new jobs in.
fn drain_session(shared: &PoolShared, entry: &SessionEntry) {
    loop {
        let mut close = false;
        loop {
            let job = entry.queue.lock().unwrap().pop_front();
            let Some(job) = job else { break };
            match job {
                Job::Frame { body, decoded_at } => {
                    let instruments = obs::instruments();
                    let queue_wait = decoded_at.elapsed();
                    instruments.queue_wait_ns.record_duration(queue_wait);
                    // `None` means the request never reached the handler
                    // (its decode failed): a rejection in the ledger.
                    let mut handle_elapsed: Option<Duration> = None;
                    let response = match Request::decode(&body) {
                        Ok(request) => {
                            let mut state = entry.state.lock().unwrap();
                            let handle_start = Instant::now();
                            let handled = protocol::handle(&mut state, request);
                            handle_elapsed = Some(handle_start.elapsed());
                            match handled {
                                Ok(response) => response,
                                // Only response rendering can fail: report
                                // and poison the session.
                                Err(e) => {
                                    close = true;
                                    Response::Error {
                                        code: ErrorCode::Protocol,
                                        message: e.to_string(),
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            close = true;
                            Response::Error {
                                code: ErrorCode::Protocol,
                                message: e.to_string(),
                            }
                        }
                    };
                    let write_start = Instant::now();
                    let sent = write_response(shared, entry, &response);
                    let write_elapsed = write_start.elapsed();
                    instruments.write_ns.record_duration(write_elapsed);
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    match handle_elapsed {
                        Some(h) => {
                            instruments.handle_ns.record_duration(h);
                            instruments.handled();
                        }
                        None => instruments.rejected(),
                    }
                    if co_obs::trace_enabled() {
                        obs::emit_request_span(
                            entry.id,
                            queue_wait,
                            handle_elapsed.unwrap_or_default(),
                            write_elapsed,
                            sent,
                        );
                    }
                    if !sent {
                        close = true;
                    }
                }
                Job::Reject {
                    code,
                    message,
                    close: close_after,
                } => {
                    let sent = write_response(shared, entry, &Response::Error { code, message });
                    if !sent || close_after {
                        close = true;
                    }
                }
            }
            if close {
                break;
            }
            // Backpressure release: the reactor paused this socket when
            // the queue hit its bound; once below it, ask for a resume.
            if entry.read_paused.load(Ordering::Acquire)
                && entry.queue.lock().unwrap().len() < shared.session_queue
            {
                shared.request_resume(entry.id);
            }
        }
        if close {
            abandon_remaining(shared, entry);
            entry.close_after_drain.store(true, Ordering::Release);
            entry.scheduled.store(false, Ordering::Release);
            shared.report_closed(entry.id);
            return;
        }
        entry.scheduled.store(false, Ordering::Release);
        if entry.close_after_drain.load(Ordering::Acquire) && entry.queue.lock().unwrap().is_empty()
        {
            shared.report_closed(entry.id);
            return;
        }
        // Jobs may have raced in between the final pop and the flag
        // store; reclaim the session unless someone else already did.
        if entry.queue.lock().unwrap().is_empty() {
            return;
        }
        if entry.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
    }
}

/// Drops every remaining queued job on a session being abandoned,
/// keeping the in-flight ledgers (admission control's and the metrics
/// registry's) balanced: an abandoned frame was decoded but will never
/// be handled, so it counts as rejected.
pub(crate) fn abandon_remaining(shared: &PoolShared, entry: &SessionEntry) {
    let mut queue = entry.queue.lock().unwrap();
    for job in queue.drain(..) {
        if matches!(job, Job::Frame { .. }) {
            shared.inflight.fetch_sub(1, Ordering::AcqRel);
            obs::instruments().rejected();
        }
    }
}

/// Writes one response frame to the session's nonblocking socket,
/// waiting out short `WouldBlock` stalls with a single-fd poll. Returns
/// `false` (socket unusable / peer stalled past the timeout / shutdown)
/// when the session should be abandoned.
fn write_response(shared: &PoolShared, entry: &SessionEntry, response: &Response) -> bool {
    let bytes = encode_frame(&response.encode());
    let deadline = Instant::now() + WRITE_STALL_TIMEOUT;
    let mut off = 0;
    while off < bytes.len() {
        if shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        match (&entry.stream).write(&bytes[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return false;
                }
                obs::instruments().write_stall_waits.inc();
                let ready = polling::wait(
                    entry.stream.as_raw_fd(),
                    polling::POLLOUT,
                    WRITE_POLL.as_millis() as i32,
                );
                if ready.is_err() {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}
