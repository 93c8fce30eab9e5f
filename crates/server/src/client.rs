//! A blocking client for the serving protocol.
//!
//! One [`Client`] is one session: a TCP connection speaking
//! request/response frames. Result payloads are re-interned into the
//! local store via [`co_wire::read_snapshot`] — in-process (the tests,
//! the benchmark spine) that means the returned [`Object`] carries the
//! **same `NodeId`s** as the server-side result, which is what lets the
//! differential tests assert bit-identical snapshot reads.

use crate::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use crate::protocol::{ErrorCode, Request, Response, StatsDigest};
use crate::ProtocolError;
use co_object::Object;
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or the framing failed.
    Protocol(ProtocolError),
    /// The server answered with a typed error response.
    Server {
        /// The failure category.
        code: ErrorCode,
        /// The server's rendering of the failure.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (a misbehaving server, not corruption — corrupted
    /// frames surface as [`ClientError::Protocol`]).
    Unexpected(Response),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(resp) => {
                write!(f, "unexpected response kind: {resp:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// What a committed [`Client::advance`] did, client-side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advanced {
    /// The head version after the commit.
    pub version: u64,
    /// The new head root's interned id.
    pub root: Option<u64>,
    /// Fixpoint iterations the run took.
    pub iterations: u64,
}

/// One serving session over TCP. See the crate docs for an example.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: u64,
}

impl Client {
    /// Connects a new session accepting response frames up to
    /// [`DEFAULT_MAX_FRAME_LEN`] (responses carry whole result objects).
    /// Talking to a server with a different
    /// [`ServerConfig::max_frame_len`]? Use [`Client::connect_with`] so
    /// large valid responses are not rejected as oversized.
    ///
    /// [`ServerConfig::max_frame_len`]: crate::ServerConfig::max_frame_len
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, DEFAULT_MAX_FRAME_LEN)
    }

    /// Connects a new session accepting response frames up to
    /// `max_frame` bytes — pass the serving
    /// [`ServerConfig::max_frame_len`](crate::ServerConfig::max_frame_len)
    /// when it differs from [`DEFAULT_MAX_FRAME_LEN`].
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame: u64) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtocolError::from)?;
        stream.set_nodelay(true).map_err(ProtocolError::from)?;
        let reader = BufReader::new(stream.try_clone().map_err(ProtocolError::from)?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            max_frame,
        })
    }

    /// Sends one request and reads the one response. The raw hook —
    /// prefer the typed methods below.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        let body = read_frame(&mut self.reader, self.max_frame)?.ok_or(
            // The server never closes between our request and its reply
            // unless it is rejecting/aborting the session.
            ProtocolError::Truncated {
                context: "response (connection closed)",
            },
        )?;
        match Response::decode(&body)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// The current head's `(version, root id)`, without pinning.
    pub fn head(&mut self) -> Result<(u64, Option<u64>), ClientError> {
        match self.request(&Request::Head)? {
            Response::Head { version, root } => Ok((version, root)),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// Pins the current head as this session's read snapshot and returns
    /// its `(version, root id)`. Until [`Client::release`], every
    /// [`Client::query`]/[`Client::eval`] runs against this frozen
    /// version regardless of concurrent writers.
    pub fn snapshot(&mut self) -> Result<(u64, Option<u64>), ClientError> {
        match self.request(&Request::Snapshot)? {
            Response::Snapshot { version, root } => Ok((version, root)),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// Releases the pinned snapshot; `true` if one was held.
    pub fn release(&mut self) -> Result<bool, ClientError> {
        match self.request(&Request::Release)? {
            Response::Released { was_pinned } => Ok(was_pinned),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    fn objects(&mut self, request: &Request) -> Result<(u64, Object), ClientError> {
        match self.request(request)? {
            Response::Objects { version, payload } => {
                let snap =
                    co_wire::read_snapshot(payload.as_slice()).map_err(ProtocolError::from)?;
                match <[Object; 1]>::try_from(snap.roots) {
                    Ok([root]) => Ok((version, root)),
                    Err(roots) => Err(ClientError::Protocol(ProtocolError::Malformed {
                        detail: format!("result payload has {} roots, expected 1", roots.len()),
                    })),
                }
            }
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// Interprets `formula` against the session's read snapshot (the
    /// pinned one, or the instantaneous head), returning `(snapshot
    /// version, result object)`.
    pub fn query(&mut self, formula: &str) -> Result<(u64, Object), ClientError> {
        self.objects(&Request::Query {
            formula: formula.to_owned(),
        })
    }

    /// Runs `program` to its fixpoint against the session's read snapshot
    /// **without committing**, returning `(snapshot version, closed
    /// database)`.
    pub fn eval(&mut self, program: &str) -> Result<(u64, Object), ClientError> {
        self.objects(&Request::Eval {
            program: program.to_owned(),
        })
    }

    /// Runs `program` over the latest committed head and commits the
    /// fixpoint as the new head.
    pub fn advance(&mut self, program: &str) -> Result<Advanced, ClientError> {
        match self.request(&Request::Advance {
            program: program.to_owned(),
        })? {
            Response::Advanced {
                version,
                root,
                iterations,
            } => Ok(Advanced {
                version,
                root,
                iterations,
            }),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// The server's store-ledger digest.
    pub fn stats(&mut self) -> Result<StatsDigest, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(digest) => Ok(digest),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }

    /// The server's whole co-obs metric registry as a typed snapshot:
    /// every counter, gauge, and histogram (request-lifecycle
    /// histograms, ledger counters, engine/store/wire timings). Fetch
    /// once before and once after a run and diff with
    /// [`co_obs::Snapshot::minus`] to isolate the run's contribution.
    pub fn metrics(&mut self) -> Result<co_obs::Snapshot, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            resp => Err(ClientError::Unexpected(resp)),
        }
    }
}
