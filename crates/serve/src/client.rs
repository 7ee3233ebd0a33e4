//! Blocking client for the serve protocol, used by `gana submit`, the
//! `gana-shard` router, and the integration tests. Speaks either the
//! newline-delimited text protocol ([`Client::connect`]) or the
//! length-prefixed binary frame protocol ([`Client::connect_binary`]); the
//! request surface is identical.
//!
//! A restarting daemon (or a shard behind the router) refuses connections
//! for a moment; [`Client::connect_retrying`] rides that window out with
//! bounded, jittered exponential backoff instead of hard-failing on the
//! first `ConnectionRefused`.

use crate::frame::{self, FrameError};
use crate::job::Annotation;
use crate::metrics::StatsSnapshot;
use crate::protocol::{Request, Response};
use crate::transport::set_nodelay;
use gana_core::Task;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

/// Bounded exponential backoff for dialing a daemon that may be mid-restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (1 = no retry).
    pub attempts: u32,
    /// Delay after the first refused attempt; doubles per attempt.
    pub base: Duration,
    /// Ceiling for any single delay.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that fails on the first refusal (the pre-retry behavior).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based): `base * 2^(n-1)`
    /// capped at `max`, minus up to half of itself as jitter so a fleet of
    /// clients retrying the same restarted shard does not reconnect in
    /// lockstep.
    fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max);
        // No RNG dependency here: sub-second wall-clock nanos are plenty
        // de-correlated across processes for backoff jitter.
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let half = capped.as_nanos().min(u64::MAX as u128) as u64 / 2;
        let jitter = if half == 0 { 0 } else { nanos % (half + 1) };
        capped - Duration::from_nanos(jitter)
    }
}

/// What can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The daemon sent a line this client could not parse, or an
    /// unexpected response kind.
    Protocol(String),
    /// The daemon answered with a structured per-job error.
    Job {
        /// Stable short code (`parse`, `model`, `busy`, ...).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "connection failed: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Job { code, message } => write!(f, "[{code}] {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

impl ClientError {
    /// For a structured `shard_unavailable` or `overloaded` error, the
    /// server's suggested wait before retrying (both advertise
    /// `retry_after_ms=N` in the message). `None` for every other error.
    pub fn retry_after_hint(&self) -> Option<Duration> {
        let ClientError::Job { code, message } = self else {
            return None;
        };
        if code != "shard_unavailable" && code != "overloaded" {
            return None;
        }
        message.split_whitespace().find_map(|token| {
            token
                .strip_prefix("retry_after_ms=")
                .and_then(|ms| ms.parse::<u64>().ok())
                .map(Duration::from_millis)
        })
    }
}

/// Dials `addr`, retrying refused attempts under `policy`. Only
/// `ConnectionRefused` retries — it is the one failure a daemon restart
/// produces transiently; anything else (unroutable host, permission)
/// will not get better by waiting.
fn dial(addr: &impl ToSocketAddrs, policy: RetryPolicy) -> Result<TcpStream, ClientError> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 1;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                set_nodelay(&stream)?;
                return Ok(stream);
            }
            Err(err) if err.kind() == ErrorKind::ConnectionRefused && attempt < attempts => {
                std::thread::sleep(policy.delay(attempt));
                attempt += 1;
            }
            Err(err) => return Err(ClientError::Io(err)),
        }
    }
}

/// One connection to a `gana serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    binary: bool,
    peer: SocketAddr,
    policy: RetryPolicy,
}

impl Client {
    /// Connects to the daemon, speaking the text protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_mode(addr, false, RetryPolicy::none())
    }

    /// Connects to the daemon, speaking the binary frame protocol. The
    /// server auto-detects the mode from the first frame byte.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_mode(addr, true, RetryPolicy::none())
    }

    /// Like [`Client::connect`], but retries refused connections under
    /// `policy` — for dialing a daemon that is still booting or restarting.
    pub fn connect_retrying(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        Client::connect_mode(addr, false, policy)
    }

    /// Binary-mode [`Client::connect_retrying`].
    pub fn connect_binary_retrying(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        Client::connect_mode(addr, true, policy)
    }

    fn connect_mode(
        addr: impl ToSocketAddrs,
        binary: bool,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let stream = dial(&addr, policy)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            binary,
            peer,
            policy,
        })
    }

    /// Wraps an already-connected stream as a binary-mode client. Used by
    /// health probes that need [`TcpStream::connect_timeout`] dialing,
    /// which `connect_*` (via [`ToSocketAddrs`]) cannot express.
    pub fn from_stream_binary(stream: TcpStream) -> Result<Client, ClientError> {
        set_nodelay(&stream)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            binary: true,
            peer,
            policy: RetryPolicy::none(),
        })
    }

    /// True when this connection speaks the binary frame protocol.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// The daemon address this client dialed.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Drops the current connection and redials the same peer (same
    /// protocol mode) under this client's retry policy. Session state is
    /// connection-scoped on the daemon, so any sessions opened on the old
    /// connection are gone.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = dial(&self.peer, self.policy)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Bounds every read and write on this connection. A deadline-bounded
    /// health probe sets this so a hung daemon surfaces as `TimedOut`
    /// instead of blocking forever. `None` restores blocking mode.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and awaits its response — the raw protocol
    /// surface, used by proxies that forward requests verbatim.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.round_trip(request)
    }

    /// Sends one request without awaiting a response (pipelining; pair with
    /// [`Client::read_reply`]). The frame is on the wire when this returns:
    /// nothing is buffered, so a caller may send to several daemons before
    /// it reads any reply.
    pub fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        self.send(request)
    }

    /// Reads the next response off the connection.
    pub fn read_reply(&mut self) -> Result<Response, ClientError> {
        self.read_response()
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.read_response()
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        if self.binary {
            self.writer.write_all(&frame::encode_request(request))?;
        } else {
            let mut line = request.to_line();
            line.push('\n');
            self.writer.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        if self.binary {
            return match frame::read_frame(&mut self.reader) {
                Ok(Some(body)) => frame::decode_response(&body)
                    .map_err(|err| ClientError::Protocol(err.to_string())),
                Ok(None) => Err(ClientError::Protocol("daemon closed the connection".into())),
                Err(FrameError::Io(err)) => Err(ClientError::Io(err)),
                Err(other) => Err(ClientError::Protocol(other.to_string())),
            };
        }
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("daemon closed the connection".into()));
        }
        Response::parse(&line).map_err(|err| ClientError::Protocol(err.0))
    }

    fn expect_annotation(response: Response) -> Result<Annotation, ClientError> {
        match response {
            Response::Ok(annotation) => Ok(annotation),
            Response::Err { code, message } => Err(ClientError::Job { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Annotates one netlist, blocking until the daemon replies.
    pub fn annotate(
        &mut self,
        netlist: &str,
        task: Task,
        deadline: Option<Duration>,
    ) -> Result<Annotation, ClientError> {
        let request = Request::Annotate {
            task,
            deadline_ms: deadline.map(|d| d.as_millis().min(u64::MAX as u128) as u64),
            netlist: netlist.to_string(),
        };
        let response = self.round_trip(&request)?;
        Client::expect_annotation(response)
    }

    /// Submits `netlists` as one batch; all jobs are admitted before any
    /// reply is awaited, so they run concurrently on the daemon.
    pub fn annotate_batch(
        &mut self,
        netlists: &[&str],
        task: Task,
        deadline: Option<Duration>,
    ) -> Result<Vec<Result<Annotation, ClientError>>, ClientError> {
        self.send(&Request::Batch(netlists.len()))?;
        for netlist in netlists {
            self.send(&Request::Annotate {
                task,
                deadline_ms: deadline.map(|d| d.as_millis().min(u64::MAX as u128) as u64),
                netlist: (*netlist).to_string(),
            })?;
        }
        let mut results = Vec::with_capacity(netlists.len());
        for _ in 0..netlists.len() {
            // An Io/short-read here is fatal for the whole batch (framing
            // is lost); a per-job failure is just one entry's result.
            let response = self.read_response()?;
            results.push(Client::expect_annotation(response));
        }
        Ok(results)
    }

    fn expect_session(response: Response) -> Result<(u64, Annotation), ClientError> {
        match response {
            Response::Session {
                session,
                annotation,
            } => Ok((session, annotation)),
            Response::Err { code, message } => Err(ClientError::Job { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Opens a stateful session: the daemon cold-annotates `netlist`, keeps
    /// the result as the session baseline, and returns the session id with
    /// the annotation.
    pub fn open(&mut self, netlist: &str, task: Task) -> Result<(u64, Annotation), ClientError> {
        let response = self.round_trip(&Request::Open {
            task,
            netlist: netlist.to_string(),
        })?;
        Client::expect_session(response)
    }

    /// Sends an edited netlist to an open session; the daemon re-annotates
    /// incrementally against the session baseline and advances it.
    pub fn update(&mut self, session: u64, netlist: &str) -> Result<Annotation, ClientError> {
        let response = self.round_trip(&Request::Update {
            session,
            netlist: netlist.to_string(),
        })?;
        Client::expect_session(response).map(|(_, annotation)| annotation)
    }

    /// Closes a session, releasing its baseline state on the daemon.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        match self.round_trip(&Request::Close(session))? {
            Response::Closed(_) => Ok(()),
            Response::Err { code, message } => Err(ClientError::Job { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches a metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(wire) => StatsSnapshot::from_wire(&wire)
                .ok_or_else(|| ClientError::Protocol(format!("bad stats payload {wire:?}"))),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches per-shard stats plus the fleet aggregate. Against a plain
    /// (unsharded) daemon the answer is a fleet of one: the daemon itself
    /// as shard `0`.
    #[allow(clippy::type_complexity)]
    pub fn fleet_stats(
        &mut self,
    ) -> Result<(Vec<(u64, StatsSnapshot)>, StatsSnapshot), ClientError> {
        match self.round_trip(&Request::FleetStats)? {
            Response::Fleet { shards, fleet } => {
                let mut parsed = Vec::with_capacity(shards.len());
                for (id, wire) in shards {
                    let snap = StatsSnapshot::from_wire(&wire).ok_or_else(|| {
                        ClientError::Protocol(format!("bad shard {id} stats payload {wire:?}"))
                    })?;
                    parsed.push((id, snap));
                }
                let fleet = StatsSnapshot::from_wire(&fleet)
                    .ok_or_else(|| ClientError::Protocol(format!("bad fleet payload {fleet:?}")))?;
                Ok((parsed, fleet))
            }
            Response::Err { code, message } => Err(ClientError::Job { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}
