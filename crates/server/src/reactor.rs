//! The readiness-driven serving core's I/O hub: one thread owning the
//! listener and every session socket, multiplexed with `poll(2)` (the
//! vendored [`polling`] shim — no async runtime).
//!
//! The reactor accepts nonblocking connections (TCP_NODELAY set on every
//! accepted stream), reads whatever the kernel has whenever a socket
//! polls readable, reassembles frames with the incremental
//! [`FrameDecoder`] (frames may arrive fragmented across wakeups), and
//! feeds verified bodies into the owning session's bounded queue for the
//! [`WorkerPool`](crate::pool::WorkerPool) to drain. Control flows back
//! through a self-pipe [`polling::Waker`]: workers nudge it to resume a
//! backpressure-paused socket or to deregister a finished session, and
//! `ServerHandle::shutdown` nudges it to stop the world.
//!
//! **Backpressure**: when a session's queue reaches its bound the
//! reactor stops polling that socket for readability — the kernel buffer
//! fills, the TCP window closes, and the *client* blocks, instead of the
//! server buffering unboundedly. **Admission control**: a request
//! arriving while the server-wide in-flight count is at its cap is
//! answered with a typed [`ErrorCode::Overloaded`] rejection enqueued in
//! arrival order (the session survives; the rejection costs no engine
//! work). **Shutdown**: the reactor closes every socket and joins the
//! pool before exiting, so `active_sessions` provably drains to zero —
//! no session is ever abandoned inside a blocked read.

use crate::frame::{write_frame, FrameDecoder};
use crate::obs;
use crate::pool::{Job, PoolShared, SessionEntry, WorkerPool};
use crate::protocol::{ErrorCode, Response, SessionState};
use crate::{classify_accept_error, AcceptDisposition, ServerConfig, SlotGuard};
use co_engine::SharedEngine;
use polling::{PollFd, POLLIN};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on bytes read from one session per wakeup: keeps one
/// fire-hose client from starving the rest of the fd set.
const READ_BUDGET_PER_WAKEUP: usize = 256 * 1024;
/// Scratch read chunk.
const READ_CHUNK: usize = 16 * 1024;
/// Safety-net poll timeout; every real transition also wakes the pipe.
const POLL_TIMEOUT_MS: i32 = 1_000;

/// Reactor-private per-session state (the shared half lives in
/// [`SessionEntry`]).
struct Conn {
    stream: TcpStream,
    entry: Arc<SessionEntry>,
    decoder: FrameDecoder,
    /// POLLIN withdrawn: the session queue is at its bound.
    paused: bool,
    /// Never read again (peer EOF, read error, or poisoned stream);
    /// the session closes once its queue drains.
    stop_reading: bool,
}

pub(crate) fn run(
    listener: TcpListener,
    shared_engine: SharedEngine,
    config: &ServerConfig,
    pool_shared: Arc<PoolShared>,
    shutdown: &AtomicBool,
    active: &Arc<AtomicUsize>,
) {
    let pool = WorkerPool::spawn(config.resolved_workers(), Arc::clone(&pool_shared));
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut listener_alive = true;
    let mut scratch = vec![0u8; READ_CHUNK];
    // Parallel vectors rebuilt each iteration: the fd set is small (one
    // fd per session) and rebuild keeps pause/close bookkeeping trivial.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<Token> = Vec::new();

    #[derive(Clone, Copy, PartialEq)]
    enum Token {
        Waker,
        Listener,
        Session(u64),
    }

    while !shutdown.load(Ordering::Acquire) {
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(pool_shared.waker.poll_fd(), POLLIN));
        tokens.push(Token::Waker);
        if listener_alive {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            tokens.push(Token::Listener);
        }
        for (id, conn) in &conns {
            if !conn.paused && !conn.stop_reading {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
                tokens.push(Token::Session(*id));
            }
        }
        obs::instruments().reactor_polls.inc();
        if polling::poll_fds(&mut fds, POLL_TIMEOUT_MS).is_err() {
            // EINTR is retried inside the shim; anything else here means
            // the fd set itself is broken — re-check shutdown and retry.
            continue;
        }
        if shutdown.load(Ordering::Acquire) {
            break;
        }

        let mut accept_ready = false;
        let mut read_ready: Vec<u64> = Vec::new();
        for (fd, token) in fds.iter().zip(&tokens) {
            match token {
                Token::Waker if fd.readable() => pool_shared.waker.drain(),
                Token::Listener if fd.readable() => accept_ready = true,
                Token::Session(id) if fd.readable() => read_ready.push(*id),
                _ => {}
            }
        }

        process_control(&pool_shared, &mut conns);

        if accept_ready {
            listener_alive = accept_burst(
                &listener,
                &shared_engine,
                config,
                &pool_shared,
                active,
                &mut conns,
                &mut next_id,
            );
        }

        for id in read_ready {
            // The control pass may have closed it already.
            if conns.contains_key(&id) {
                service_readable(&pool_shared, &mut conns, id, &mut scratch);
            }
        }
    }

    // Shutdown: stop the pool first (workers drop their entry refs), then
    // drop every socket and registry entry — the SlotGuards inside the
    // entries release as the last Arc goes, draining `active` to zero
    // before the reactor thread exits (ServerHandle::shutdown joins us).
    pool.shutdown();
    conns.clear();
    pool_shared.sessions.lock().unwrap().clear();
    pool_shared.resume.lock().unwrap().clear();
    pool_shared.closed.lock().unwrap().clear();
}

/// Applies worker notifications: resume reading for drained sessions,
/// deregister finished ones.
fn process_control(pool_shared: &PoolShared, conns: &mut HashMap<u64, Conn>) {
    let resume: Vec<u64> = std::mem::take(&mut *pool_shared.resume.lock().unwrap());
    for id in resume {
        if let Some(conn) = conns.get_mut(&id) {
            if conn.paused && conn.entry.queue.lock().unwrap().len() < pool_shared.session_queue {
                conn.paused = false;
                conn.entry.read_paused.store(false, Ordering::Release);
                // The pause may have left complete frames sitting in the
                // decoder with the socket already drained — POLLIN would
                // never fire for them. Extract now (may re-pause).
                if !conn.stop_reading {
                    extract_frames(pool_shared, conn);
                }
            }
        }
    }
    let closed: Vec<u64> = std::mem::take(&mut *pool_shared.closed.lock().unwrap());
    for id in closed {
        remove_session(pool_shared, conns, id);
    }
}

/// Deregisters a session everywhere and balances the in-flight ledger
/// for any jobs that will now never run.
fn remove_session(pool_shared: &PoolShared, conns: &mut HashMap<u64, Conn>, id: u64) {
    conns.remove(&id);
    let entry = pool_shared.sessions.lock().unwrap().remove(&id);
    if let Some(entry) = entry {
        // If no worker holds the session (scheduled=false), its queue can
        // never be drained again — drop the jobs and balance the ledger.
        // A still-scheduled session's worker does this itself.
        if !entry.scheduled.load(Ordering::Acquire) {
            crate::pool::abandon_remaining(pool_shared, &entry);
        }
    }
}

/// Accepts everything queued on the listener. Returns `false` if the
/// listener failed fatally (logged; existing sessions keep being
/// served).
fn accept_burst(
    listener: &TcpListener,
    shared_engine: &SharedEngine,
    config: &ServerConfig,
    pool_shared: &PoolShared,
    active: &Arc<AtomicUsize>,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
) -> bool {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // Request/response round-trips are latency-bound on small
                // frames: Nagle + delayed ACK would add ~40ms to every
                // one. The client side already disables it; the session
                // side must too.
                let _ = stream.set_nodelay(true);
                if active.load(Ordering::Acquire) >= config.max_sessions {
                    // Still blocking: the one-frame rejection fits any
                    // socket buffer.
                    send_session_limit(&mut stream, config.max_sessions);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let write_half = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                active.fetch_add(1, Ordering::AcqRel);
                let id = *next_id;
                *next_id += 1;
                let entry = Arc::new(SessionEntry {
                    id,
                    stream: write_half,
                    queue: Mutex::new(VecDeque::new()),
                    scheduled: AtomicBool::new(false),
                    read_paused: AtomicBool::new(false),
                    close_after_drain: AtomicBool::new(false),
                    state: Mutex::new(SessionState::new(shared_engine.clone())),
                    _slot: SlotGuard(Arc::clone(active)),
                });
                obs::instruments().sessions_accepted.inc();
                pool_shared
                    .sessions
                    .lock()
                    .unwrap()
                    .insert(id, Arc::clone(&entry));
                conns.insert(
                    id,
                    Conn {
                        stream,
                        entry,
                        decoder: FrameDecoder::new(config.max_frame_len),
                        paused: false,
                        stop_reading: false,
                    },
                );
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptDisposition::Idle => return true,
                AcceptDisposition::Transient => continue,
                AcceptDisposition::Fatal => {
                    co_obs::warn(
                        "co-server",
                        "listener failed fatally; no further sessions will be accepted, \
                         existing sessions keep being served",
                        &[("error", co_obs::FieldValue::Str(&e.to_string()))],
                    );
                    return false;
                }
            },
        }
    }
}

/// Writes the session-limit rejection on a connection that will not get a
/// session.
fn send_session_limit(stream: &mut TcpStream, max_sessions: usize) {
    let resp = Response::Error {
        code: ErrorCode::SessionLimit,
        message: format!("server is at its session limit ({max_sessions})"),
    };
    let _ = write_frame(stream, &resp.encode());
}

/// Reads what the kernel has for one session, extracts complete frames,
/// and enqueues them (with admission control) for the pool.
fn service_readable(
    pool_shared: &PoolShared,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
    scratch: &mut [u8],
) {
    let conn = conns.get_mut(&id).expect("caller checked presence");
    let mut budget = READ_BUDGET_PER_WAKEUP;
    let mut peer_closed = false;
    while budget > 0 && !conn.paused && !conn.stop_reading {
        match conn.stream.read(scratch) {
            Ok(0) => {
                peer_closed = true;
                break;
            }
            Ok(n) => {
                budget = budget.saturating_sub(n);
                conn.decoder.push(&scratch[..n]);
                extract_frames(pool_shared, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // The socket is gone; nothing to report to the peer.
                peer_closed = true;
                break;
            }
        }
    }
    if peer_closed {
        finish_reading(pool_shared, conns, id);
    }
}

/// Pulls every complete frame out of the decoder into the session queue.
/// Admission control happens here: over the in-flight cap, the request
/// becomes an immediate typed `Overloaded` rejection in queue order.
/// Queue-at-bound pauses the socket (backpressure). A decode failure
/// enqueues the typed protocol report and poisons the stream.
fn extract_frames(pool_shared: &PoolShared, conn: &mut Conn) {
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(body)) => {
                let instruments = obs::instruments();
                // Lifecycle stamp: a complete frame left the socket. An
                // admission-control rejection is still a *decoded*
                // request — it enters and immediately leaves the ledger.
                instruments.decoded();
                let over = pool_shared.inflight.load(Ordering::Acquire) >= pool_shared.max_inflight;
                let job = if over {
                    instruments.rejected();
                    instruments.rejected_overloaded.inc();
                    Job::Reject {
                        code: ErrorCode::Overloaded,
                        message: format!(
                            "server over its in-flight request cap ({}); retry",
                            pool_shared.max_inflight
                        ),
                        close: false,
                    }
                } else {
                    pool_shared.inflight.fetch_add(1, Ordering::AcqRel);
                    Job::Frame {
                        body,
                        decoded_at: std::time::Instant::now(),
                    }
                };
                let len = {
                    let mut queue = conn.entry.queue.lock().unwrap();
                    queue.push_back(job);
                    queue.len()
                };
                pool_shared.schedule(&conn.entry);
                if len >= pool_shared.session_queue {
                    conn.paused = true;
                    conn.entry.read_paused.store(true, Ordering::Release);
                    // Lost-resume race: a fast worker may have drained the
                    // queue between the push and the flag store — its
                    // resume check saw `read_paused` still unset, so no
                    // resume is coming. Recheck under the queue lock: any
                    // job still present will be popped *after* the store
                    // (mutex ordering) and its post-pop check will see the
                    // flag; an already-drained queue we unpause ourselves.
                    if conn.entry.queue.lock().unwrap().len() < pool_shared.session_queue {
                        conn.paused = false;
                        conn.entry.read_paused.store(false, Ordering::Release);
                    } else {
                        // Frames already buffered in the decoder stay
                        // there until the resume — the bound is on queued
                        // work.
                        obs::instruments().backpressure_pauses.inc();
                        return;
                    }
                }
            }
            Ok(None) => return,
            Err(e) => {
                conn.stop_reading = true;
                conn.entry.queue.lock().unwrap().push_back(Job::Reject {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                    close: true,
                });
                pool_shared.schedule(&conn.entry);
                return;
            }
        }
    }
}

/// The peer closed (or the socket died): type a truncation if it quit
/// mid-frame, then close now if idle or after the queue drains.
fn finish_reading(pool_shared: &PoolShared, conns: &mut HashMap<u64, Conn>, id: u64) {
    let conn = conns.get_mut(&id).expect("caller checked presence");
    conn.stop_reading = true;
    if conn.decoder.mid_frame() {
        conn.entry.queue.lock().unwrap().push_back(Job::Reject {
            code: ErrorCode::Protocol,
            message: "truncated frame: connection closed mid-frame".to_owned(),
            close: true,
        });
        pool_shared.schedule(&conn.entry);
        return;
    }
    conn.entry.close_after_drain.store(true, Ordering::Release);
    let idle = !conn.entry.scheduled.load(Ordering::Acquire)
        && conn.entry.queue.lock().unwrap().is_empty();
    if idle {
        remove_session(pool_shared, conns, id);
    }
    // Otherwise the draining worker sees close_after_drain and reports
    // the close itself.
}
