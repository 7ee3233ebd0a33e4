//! TCP front end for an [`Engine`]: the `gana serve` daemon.
//!
//! One thread accepts connections, one thread per connection speaks the
//! wire protocol, and one thread emits a periodic stats log line. The
//! accept blocks, so a new connection is taken the moment it arrives; a
//! `shutdown` request — or [`ServerHandle::shutdown`] — raises the stop
//! flag, wakes the accept with one connection to the bound port, drains
//! every in-flight job through [`Engine::shutdown`], and then joins all
//! threads.
//!
//! Each connection auto-detects its protocol from the first byte: the
//! binary frame magic (`0xBF`, see [`crate::frame`]) selects length-prefixed
//! frames; anything else falls back to the legacy newline-delimited text
//! protocol, so old clients keep working unchanged. Both modes share one
//! dispatch loop — the `Request`/`Response` surface is identical.
//!
//! When the engine has a snapshot path configured, a snapshot thread
//! periodically persists the models, library, and region cache so the next
//! boot warm-starts; [`Engine::shutdown`] writes a final drain-time
//! snapshot.

use crate::engine::Engine;
use crate::job::{JobError, JobRequest, SubmitError};
use crate::protocol::{Request, Response};
use crate::transport::{accept_transport, wake_accept, ReadRequest, Transport, POLL};
use parking_lot::Mutex;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878` (port `0` picks a free one).
    pub addr: String,
    /// Interval between periodic stats log lines; `None` disables them.
    pub stats_interval: Option<Duration>,
    /// Interval between periodic engine snapshots; `None` disables them.
    /// Saves are no-ops unless the engine was built with a snapshot path.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            stats_interval: Some(Duration::from_secs(30)),
            snapshot_interval: Some(Duration::from_secs(300)),
        }
    }
}

struct ServerShared {
    engine: Arc<Engine>,
    stop: AtomicBool,
    /// The bound listener address, dialed once to wake the accept on stop.
    addr: SocketAddr,
}

impl ServerShared {
    /// Raises the stop flag and wakes the blocked accept; the first caller
    /// does the wake, later ones find the flag already up.
    fn stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            wake_accept(self.addr);
        }
    }
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Requests shutdown and blocks until all jobs drained and all server
    /// threads exited. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop();
        self.shared.engine.shutdown();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// True once shutdown has been requested (by a `shutdown` wire request,
    /// a signal-driven [`ServerHandle::shutdown`], or a drop). Supervisors
    /// poll this to tell a draining server from a hung one.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops (e.g. via a `shutdown` request).
    pub fn join(&self) {
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the address and spawns the accept, connection, and stats threads.
pub fn serve(engine: Arc<Engine>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        engine,
        stop: AtomicBool::new(false),
        addr: local_addr,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("gana-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?,
        );
    }
    if let Some(interval) = config.stats_interval {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("gana-serve-stats".to_string())
                .spawn(move || stats_loop(&shared, interval))?,
        );
    }
    if let Some(interval) = config.snapshot_interval {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("gana-serve-snapshot".to_string())
                .spawn(move || snapshot_loop(&shared, interval))?,
        );
    }

    Ok(ServerHandle {
        shared,
        local_addr,
        threads: Mutex::new(threads),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The wake-up connection from `ServerShared::stop`.
            Ok(_) if shared.stop.load(Ordering::SeqCst) => break,
            Ok((stream, peer)) => {
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("gana-serve-conn-{peer}"))
                    .spawn(move || {
                        if let Err(err) = handle_connection(stream, &shared) {
                            if err.kind() != ErrorKind::ConnectionReset {
                                eprintln!("[gana-serve] connection {peer}: {err}");
                            }
                        }
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(err) => eprintln!("[gana-serve] spawn failed: {err}"),
                }
                connections.retain(|c| !c.is_finished());
            }
            Err(err) => {
                // Back off so a persistent failure (e.g. out of file
                // descriptors) does not spin.
                eprintln!("[gana-serve] accept: {err}");
                std::thread::sleep(POLL);
            }
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
}

fn stats_loop(shared: &ServerShared, interval: Duration) {
    let mut elapsed = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(POLL);
        elapsed += POLL;
        if elapsed >= interval {
            elapsed = Duration::ZERO;
            eprintln!("[gana-serve] {}", shared.engine.stats());
        }
    }
}

fn snapshot_loop(shared: &ServerShared, interval: Duration) {
    let mut elapsed = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(POLL);
        elapsed += POLL;
        if elapsed >= interval {
            elapsed = Duration::ZERO;
            match shared.engine.save_snapshot() {
                Ok(Some(bytes)) => eprintln!("[gana-serve] snapshot saved ({bytes} B)"),
                // No snapshot path configured; nothing to persist.
                Ok(None) => return,
                Err(err) => eprintln!("[gana-serve] snapshot failed: {err}"),
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    // Sessions are connection-scoped: whatever this connection opened and
    // did not close is released when the stream drops (cleanly or not), so
    // a client that disconnects mid-session cannot leak baselines in the
    // engine's session store.
    let mut opened: Vec<u64> = Vec::new();
    let result = connection_loop(stream, shared, &mut opened);
    for session in opened {
        shared.engine.close_session(session);
    }
    result
}

fn connection_loop(
    stream: TcpStream,
    shared: &ServerShared,
    opened: &mut Vec<u64>,
) -> io::Result<()> {
    // Framing (text vs binary, auto-detected from the first byte) lives in
    // [`crate::transport`], shared with the `gana-shard` router.
    match accept_transport(stream, &shared.stop)? {
        Some(mut transport) => dispatch_loop(transport.as_mut(), shared, opened),
        None => Ok(()),
    }
}

fn dispatch_loop(
    transport: &mut dyn Transport,
    shared: &ServerShared,
    opened: &mut Vec<u64>,
) -> io::Result<()> {
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
            Request::Stats => {
                let wire = shared.engine.stats().to_wire();
                transport.write_response(&Response::Stats(wire))?;
            }
            Request::FleetStats => {
                // An unsharded daemon is a fleet of one: itself as shard 0.
                let wire = shared.engine.stats().to_wire();
                transport.write_response(&Response::Fleet {
                    shards: vec![(0, wire.clone())],
                    fleet: wire,
                })?;
            }
            Request::Shutdown => {
                transport.write_response(&Response::Bye)?;
                shared.stop();
                shared.engine.shutdown();
                return Ok(());
            }
            Request::Annotate {
                task,
                deadline_ms,
                netlist,
            } => {
                let response = annotate_one(shared, task, deadline_ms, netlist);
                transport.write_response(&response)?;
            }
            Request::Open { task, netlist } => {
                let response = match shared.engine.open_session(JobRequest::new(netlist, task)) {
                    Ok((session, handle)) => match handle.wait() {
                        Ok(annotation) => {
                            opened.push(session);
                            Response::Session {
                                session,
                                annotation: (*annotation).clone(),
                            }
                        }
                        Err(err) => Response::from_job_error(&err),
                    },
                    Err(err) => submit_error_response(err),
                };
                transport.write_response(&response)?;
            }
            Request::Update { session, netlist } => {
                let response = match shared.engine.update_session(session, netlist) {
                    Ok(handle) => match handle.wait() {
                        Ok(annotation) => Response::Session {
                            session,
                            annotation: (*annotation).clone(),
                        },
                        Err(err) => Response::from_job_error(&err),
                    },
                    Err(err) => submit_error_response(err),
                };
                transport.write_response(&response)?;
            }
            Request::Close(session) => {
                let response = if shared.engine.close_session(session) {
                    opened.retain(|&s| s != session);
                    Response::Closed(session)
                } else {
                    Response::from_job_error(&JobError::UnknownSession(session))
                };
                transport.write_response(&response)?;
            }
            Request::Batch(count) => {
                // Admit the whole batch before waiting on any reply, so the
                // worker pool sees all jobs at once.
                let mut handles = Vec::with_capacity(count);
                for _ in 0..count {
                    match transport.read_request(&shared.stop) {
                        ReadRequest::Request(Request::Annotate {
                            task,
                            deadline_ms,
                            netlist,
                        }) => {
                            handles.push(submit_one(shared, task, deadline_ms, netlist));
                        }
                        ReadRequest::Request(other) => handles.push(Err(Response::Err {
                            code: "protocol".into(),
                            message: format!("batch expects annotate lines, got {other:?}"),
                        })),
                        ReadRequest::Bad { message, fatal } => {
                            if fatal {
                                // Framing lost sync mid-batch: report and
                                // close; already-admitted jobs still run but
                                // their replies have nowhere to go.
                                transport.write_response(&Response::Err {
                                    code: "protocol".into(),
                                    message,
                                })?;
                                return Ok(());
                            }
                            handles.push(Err(Response::Err {
                                code: "protocol".into(),
                                message,
                            }));
                        }
                        ReadRequest::Closed | ReadRequest::Stopping => return Ok(()),
                        ReadRequest::Error(err) => return Err(err),
                    }
                }
                for handle in handles {
                    let response = match handle {
                        Ok(handle) => match handle.wait() {
                            Ok(annotation) => Response::Ok((*annotation).clone()),
                            Err(err) => Response::from_job_error(&err),
                        },
                        Err(response) => response,
                    };
                    transport.write_response(&response)?;
                }
            }
        }
    }
}

fn submit_one(
    shared: &ServerShared,
    task: gana_core::Task,
    deadline_ms: Option<u64>,
    netlist: String,
) -> Result<crate::job::JobHandle, Response> {
    let mut request = JobRequest::new(netlist, task);
    if let Some(ms) = deadline_ms {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    shared.engine.submit(request).map_err(submit_error_response)
}

/// Maps an admission failure to its wire response: `QueueFull` stays the
/// plain `busy` backpressure signal, while a deadline-aware shed becomes a
/// structured `overloaded` error whose message carries the machine-readable
/// `retry_after_ms=N` hint ([`crate::client::ClientError::retry_after_hint`]
/// parses it back out).
fn submit_error_response(err: SubmitError) -> Response {
    match err {
        SubmitError::QueueFull => Response::Err {
            code: "busy".into(),
            message: err.to_string(),
        },
        SubmitError::Overloaded { .. } => Response::Err {
            code: "overloaded".into(),
            message: err.to_string(),
        },
        SubmitError::ShuttingDown => Response::from_job_error(&JobError::Shutdown),
    }
}

fn annotate_one(
    shared: &ServerShared,
    task: gana_core::Task,
    deadline_ms: Option<u64>,
    netlist: String,
) -> Response {
    match submit_one(shared, task, deadline_ms, netlist) {
        Ok(handle) => match handle.wait() {
            Ok(annotation) => Response::Ok((*annotation).clone()),
            Err(err) => Response::from_job_error(&err),
        },
        Err(response) => response,
    }
}
