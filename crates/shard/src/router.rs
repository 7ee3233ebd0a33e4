//! The sharding front end: one listening port, N engine shards behind it.
//!
//! Clients connect exactly as they would to a single `gana serve` daemon —
//! text or binary, auto-detected from the first byte — and the router
//! forwards each request to the shard that owns its key: netlist content
//! ([`gana_incremental::routing::netlist_key`]) for `annotate`/`open`,
//! the session's pinned shard for `update`/`close`. The router→shard hop
//! always speaks the binary frame protocol.
//!
//! Shards number their sessions independently, so the router allocates its
//! own session ids per client connection and rewrites them in both
//! directions; a client never sees a shard-local id. Upstream connections
//! are opened lazily per client connection and dropped with it, which is
//! what scopes shard-side sessions to the client connection exactly as an
//! unsharded daemon would.
//!
//! When the shard owning a key is down (the supervisor is restarting it),
//! the router degrades gracefully instead of hanging: the request fails
//! fast with a structured `shard_unavailable` error carrying a
//! `retry_after_ms=N` hint. Keys on other shards are completely
//! unaffected.
//!
//! `stats` fans out to every live shard and answers with the
//! [aggregate](gana_serve::StatsSnapshot::aggregate); `fleetstats` returns
//! the per-shard snapshots alongside that aggregate.

use crate::topology::Topology;
use gana_incremental::routing::netlist_key;
use gana_serve::client::{Client, RetryPolicy};
use gana_serve::protocol::{Request, Response};
use gana_serve::transport::{accept_transport, wake_accept, ReadRequest, Transport};
use gana_serve::StatsSnapshot;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Error code for a request whose shard is down or unreachable. The
/// message carries a `retry_after_ms=N` hint
/// ([`gana_serve::ClientError::retry_after_hint`] parses it back).
pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind, e.g. `127.0.0.1:7979` (port `0` picks a free one).
    pub addr: String,
    /// Backoff for dialing a shard that refuses connections (mid-restart).
    pub upstream_retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:7979".to_string(),
            upstream_retry: RetryPolicy::default(),
        }
    }
}

/// Back-off after a failed `accept`.
const POLL: Duration = Duration::from_millis(50);

struct RouterShared {
    topology: Arc<Topology>,
    retry: RetryPolicy,
    stop: AtomicBool,
    /// The bound listener address, dialed once to wake the accept on stop.
    addr: SocketAddr,
}

impl RouterShared {
    /// Raises the stop flag and wakes the blocked accept; the first caller
    /// does the wake, later ones find the flag already up.
    fn stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            wake_accept(self.addr);
        }
    }
}

/// Handle to a running router; dropping it shuts the router down (shard
/// daemons are not touched — they belong to the supervisor).
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RouterHandle {
    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The fleet view this router routes over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.shared.topology
    }

    /// True once a `shutdown` request (or [`RouterHandle::shutdown`]) has
    /// stopped admission.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes connections, joins all threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// Blocks until the router stops (e.g. via a `shutdown` request).
    pub fn join(&self) {
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the router address and spawns its accept loop.
pub fn serve_router(topology: Arc<Topology>, config: RouterConfig) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(RouterShared {
        topology,
        retry: config.upstream_retry,
        stop: AtomicBool::new(false),
        addr: local_addr,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("gana-shard-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_shared))?;
    Ok(RouterHandle {
        shared,
        local_addr,
        threads: Mutex::new(vec![accept]),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The wake-up connection from `RouterShared::stop`.
            Ok(_) if shared.stop.load(Ordering::SeqCst) => break,
            Ok((stream, peer)) => {
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("gana-shard-conn-{peer}"))
                    .spawn(move || {
                        if let Err(err) = handle_connection(stream, &shared) {
                            if err.kind() != ErrorKind::ConnectionReset {
                                eprintln!("[gana-shard] connection {peer}: {err}");
                            }
                        }
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(err) => eprintln!("[gana-shard] spawn failed: {err}"),
                }
                connections.retain(|c| !c.is_finished());
            }
            Err(err) => {
                eprintln!("[gana-shard] accept: {err}");
                std::thread::sleep(POLL);
            }
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Per-client-connection proxy state. Upstream clients are lazy, one per
/// shard, and die with the connection — which releases the shard-side
/// (connection-scoped) sessions exactly when the client goes away.
struct Conn {
    upstreams: HashMap<u64, Client>,
    /// Router session id → (shard id, shard-local session id).
    sessions: HashMap<u64, (u64, u64)>,
    next_session: u64,
}

impl Conn {
    fn new() -> Conn {
        Conn {
            upstreams: HashMap::new(),
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Drops a shard's upstream connection and every router session pinned
    /// to it (their shard-side state died with the shard/connection).
    fn forget_shard(&mut self, shard: u64) {
        self.upstreams.remove(&shard);
        self.sessions.retain(|_, &mut (owner, _)| owner != shard);
    }
}

fn unavailable(shard: u64, retry_after: Duration, detail: &str) -> Response {
    Response::Err {
        code: SHARD_UNAVAILABLE.to_string(),
        message: format!(
            "shard {shard} unavailable: {detail}; retry_after_ms={}",
            retry_after.as_millis()
        ),
    }
}

/// Returns a connected upstream client for `shard`, dialing lazily.
/// `Err` is the structured response to send the client instead.
fn upstream<'a>(
    conn: &'a mut Conn,
    shared: &RouterShared,
    shard: u64,
) -> Result<&'a mut Client, Response> {
    let status = match shared.topology.get(shard) {
        Some(status) => status,
        None => {
            return Err(unavailable(
                shard,
                Duration::from_millis(500),
                "not in the fleet",
            ))
        }
    };
    if !status.up {
        return Err(unavailable(shard, status.retry_after, "restarting"));
    }
    if let std::collections::hash_map::Entry::Vacant(slot) = conn.upstreams.entry(shard) {
        match Client::connect_binary_retrying(status.addr, shared.retry) {
            Ok(client) => {
                slot.insert(client);
            }
            Err(err) => {
                return Err(unavailable(shard, status.retry_after, &err.to_string()));
            }
        }
    }
    Ok(conn.upstreams.get_mut(&shard).expect("just inserted"))
}

/// Forwards one request to `shard` and returns the shard's response. An
/// upstream I/O failure degrades to `shard_unavailable` and drops the
/// (now broken) upstream connection plus the sessions that lived on it.
fn forward(conn: &mut Conn, shared: &RouterShared, shard: u64, request: &Request) -> Response {
    let retry_after = shared
        .topology
        .get(shard)
        .map(|s| s.retry_after)
        .unwrap_or(Duration::from_millis(500));
    let client = match upstream(conn, shared, shard) {
        Ok(client) => client,
        Err(response) => return response,
    };
    match client.request(request) {
        Ok(response) => response,
        Err(err) => {
            conn.forget_shard(shard);
            unavailable(shard, retry_after, &err.to_string())
        }
    }
}

/// Fans `stats` out to every shard and returns the per-shard snapshots
/// (id-ordered; unreachable shards are skipped — the fleet aggregate
/// reflects who answered).
fn gather_stats(conn: &mut Conn, shared: &RouterShared) -> Vec<(u64, StatsSnapshot)> {
    let mut shards = Vec::new();
    for id in shared.topology.shard_ids() {
        let response = forward(conn, shared, id, &Request::Stats);
        if let Response::Stats(wire) = response {
            if let Some(snap) = StatsSnapshot::from_wire(&wire) {
                shards.push((id, snap));
            }
        }
    }
    shards
}

fn handle_connection(stream: TcpStream, shared: &RouterShared) -> io::Result<()> {
    match accept_transport(stream, &shared.stop)? {
        Some(mut transport) => dispatch_loop(transport.as_mut(), shared),
        None => Ok(()),
    }
}

fn dispatch_loop(transport: &mut dyn Transport, shared: &RouterShared) -> io::Result<()> {
    let mut conn = Conn::new();
    loop {
        let request = match transport.read_request(&shared.stop) {
            ReadRequest::Request(request) => request,
            ReadRequest::Bad { message, fatal } => {
                transport.write_response(&Response::Err {
                    code: "protocol".into(),
                    message,
                })?;
                if fatal {
                    return Ok(());
                }
                continue;
            }
            ReadRequest::Closed | ReadRequest::Stopping => return Ok(()),
            ReadRequest::Error(err) => return Err(err),
        };
        match request {
            Request::Ping => transport.write_response(&Response::Pong)?,
            Request::Shutdown => {
                // Planned fleet shutdown: acknowledge, stop admission, and
                // let whoever owns the supervisor drain the shards.
                transport.write_response(&Response::Bye)?;
                shared.stop();
                return Ok(());
            }
            Request::Stats => {
                let shards = gather_stats(&mut conn, shared);
                let fleet = StatsSnapshot::aggregate(shards.iter().map(|(_, s)| s));
                transport.write_response(&Response::Stats(fleet.to_wire()))?;
            }
            Request::FleetStats => {
                let shards = gather_stats(&mut conn, shared);
                let fleet = StatsSnapshot::aggregate(shards.iter().map(|(_, s)| s));
                transport.write_response(&Response::Fleet {
                    shards: shards
                        .into_iter()
                        .map(|(id, snap)| (id, snap.to_wire()))
                        .collect(),
                    fleet: fleet.to_wire(),
                })?;
            }
            Request::Annotate { .. } => {
                let response = route_annotate(&mut conn, shared, request);
                transport.write_response(&response)?;
            }
            Request::Open { .. } => {
                let response = route_open(&mut conn, shared, request);
                transport.write_response(&response)?;
            }
            Request::Update { session, netlist } => {
                let response = match conn.sessions.get(&session) {
                    Some(&(shard, shard_session)) => {
                        let forwarded = forward(
                            &mut conn,
                            shared,
                            shard,
                            &Request::Update {
                                session: shard_session,
                                netlist,
                            },
                        );
                        rewrite_session(forwarded, session)
                    }
                    None => Response::Err {
                        code: "session".into(),
                        message: format!("unknown session {session}"),
                    },
                };
                transport.write_response(&response)?;
            }
            Request::Close(session) => {
                let response = match conn.sessions.get(&session) {
                    Some(&(shard, shard_session)) => {
                        match forward(&mut conn, shared, shard, &Request::Close(shard_session)) {
                            Response::Closed(_) => {
                                conn.sessions.remove(&session);
                                Response::Closed(session)
                            }
                            other => other,
                        }
                    }
                    None => Response::Err {
                        code: "session".into(),
                        message: format!("unknown session {session}"),
                    },
                };
                transport.write_response(&response)?;
            }
            Request::Batch(count) => {
                route_batch(transport, &mut conn, shared, count)?;
            }
        }
    }
}

fn route_annotate(conn: &mut Conn, shared: &RouterShared, request: Request) -> Response {
    let Request::Annotate { ref netlist, .. } = request else {
        unreachable!("caller matched Annotate");
    };
    match shared.topology.route(netlist_key(netlist)) {
        Some((shard, _)) => forward(conn, shared, shard, &request),
        None => Response::Err {
            code: SHARD_UNAVAILABLE.to_string(),
            message: "fleet has no shards; retry_after_ms=1000".to_string(),
        },
    }
}

fn route_open(conn: &mut Conn, shared: &RouterShared, request: Request) -> Response {
    let Request::Open { ref netlist, .. } = request else {
        unreachable!("caller matched Open");
    };
    let shard = match shared.topology.route(netlist_key(netlist)) {
        Some((shard, _)) => shard,
        None => {
            return Response::Err {
                code: SHARD_UNAVAILABLE.to_string(),
                message: "fleet has no shards; retry_after_ms=1000".to_string(),
            }
        }
    };
    match forward(conn, shared, shard, &request) {
        Response::Session {
            session: shard_session,
            annotation,
        } => {
            // Shards number sessions independently; hand the client a
            // router-scoped id and remember the mapping.
            let session = conn.next_session;
            conn.next_session += 1;
            conn.sessions.insert(session, (shard, shard_session));
            Response::Session {
                session,
                annotation,
            }
        }
        other => other,
    }
}

/// Replaces the shard-local session id in a `sess` response with the
/// router-scoped one the client knows.
fn rewrite_session(response: Response, session: u64) -> Response {
    match response {
        Response::Session { annotation, .. } => Response::Session {
            session,
            annotation,
        },
        other => other,
    }
}

/// Proxies a batch: members are grouped per owning shard, every sub-batch
/// is admitted (sent) before any reply is awaited — preserving the batch
/// protocol's admit-all-then-wait semantics across the whole fleet — and
/// replies are reassembled into the client's original order.
fn route_batch(
    transport: &mut dyn Transport,
    conn: &mut Conn,
    shared: &RouterShared,
    count: usize,
) -> io::Result<()> {
    // Collect the announced members off the client connection first.
    let mut members: Vec<Result<Request, Response>> = Vec::with_capacity(count);
    for _ in 0..count {
        match transport.read_request(&shared.stop) {
            ReadRequest::Request(request @ Request::Annotate { .. }) => members.push(Ok(request)),
            ReadRequest::Request(other) => members.push(Err(Response::Err {
                code: "protocol".into(),
                message: format!("batch expects annotate lines, got {other:?}"),
            })),
            ReadRequest::Bad { message, fatal } => {
                if fatal {
                    transport.write_response(&Response::Err {
                        code: "protocol".into(),
                        message,
                    })?;
                    return Ok(());
                }
                members.push(Err(Response::Err {
                    code: "protocol".into(),
                    message,
                }));
            }
            ReadRequest::Closed | ReadRequest::Stopping => return Ok(()),
            ReadRequest::Error(err) => return Err(err),
        }
    }

    // Group members by owning shard, keeping each one's original index.
    let mut responses: Vec<Option<Response>> = (0..members.len()).map(|_| None).collect();
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (index, member) in members.iter().enumerate() {
        match member {
            Ok(Request::Annotate { netlist, .. }) => {
                match shared.topology.route(netlist_key(netlist)) {
                    Some((shard, _)) => match groups.iter_mut().find(|(id, _)| *id == shard) {
                        Some((_, indices)) => indices.push(index),
                        None => groups.push((shard, vec![index])),
                    },
                    None => {
                        responses[index] = Some(Response::Err {
                            code: SHARD_UNAVAILABLE.to_string(),
                            message: "fleet has no shards; retry_after_ms=1000".to_string(),
                        });
                    }
                }
            }
            Ok(_) => unreachable!("members hold only Annotate"),
            Err(response) => responses[index] = Some(response.clone()),
        }
    }

    // Phase 1: admit every sub-batch on its shard without awaiting replies.
    let mut sent: Vec<(u64, Vec<usize>)> = Vec::new();
    for (shard, indices) in groups {
        let retry_after = shared
            .topology
            .get(shard)
            .map(|s| s.retry_after)
            .unwrap_or(Duration::from_millis(500));
        let client = match upstream(conn, shared, shard) {
            Ok(client) => client,
            Err(response) => {
                for &index in &indices {
                    responses[index] = Some(response.clone());
                }
                continue;
            }
        };
        let mut admit = || -> Result<(), gana_serve::ClientError> {
            client.send_request(&Request::Batch(indices.len()))?;
            for &index in &indices {
                let Ok(request) = &members[index] else {
                    unreachable!("grouped members are Ok");
                };
                client.send_request(request)?;
            }
            Ok(())
        };
        match admit() {
            Ok(()) => sent.push((shard, indices)),
            Err(err) => {
                let response = unavailable(shard, retry_after, &err.to_string());
                conn.forget_shard(shard);
                for &index in &indices {
                    responses[index] = Some(response.clone());
                }
            }
        }
    }

    // Phase 2: collect every shard's replies (in the order its members
    // were sent) and slot them back into the client's order.
    for (shard, indices) in sent {
        let retry_after = shared
            .topology
            .get(shard)
            .map(|s| s.retry_after)
            .unwrap_or(Duration::from_millis(500));
        let mut failed = false;
        for (position, &index) in indices.iter().enumerate() {
            if failed {
                responses[index] = Some(unavailable(shard, retry_after, "reply stream lost"));
                continue;
            }
            let client = conn.upstreams.get_mut(&shard).expect("admitted above");
            match client.read_reply() {
                Ok(response) => responses[index] = Some(response),
                Err(err) => {
                    failed = true;
                    responses[index] = Some(unavailable(
                        shard,
                        retry_after,
                        &format!("after {position} replies: {err}"),
                    ));
                }
            }
        }
        if failed {
            conn.forget_shard(shard);
        }
    }

    for response in responses {
        transport.write_response(&response.expect("every member answered"))?;
    }
    Ok(())
}
