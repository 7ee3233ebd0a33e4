//! `serve_steady` and `serve_batch`: the serving daemon over loopback.
//!
//! The daemon runs in this process with one worker, `max_batch` 4 and the
//! auto gather window, booted from an engine snapshot. Load comes from
//! [`CONNECTIONS`] binary-frame connections, each driven by its own thread.
//! Every netlist carries a unique comment line, so the result cache never
//! answers, and every reply's device labels are scored against ground truth.

use crate::inputs::{
    self, Arrival, BatchPlan, PoolEntry, Score, ServeRequest, Truth, BATCH, SERVE_FAMILIES,
};
use crate::metrics::{median, quantile, ratio, Report};
use crate::setup::{self, ModelSize, SetupTimes};
use crate::trace::{Tracer, OP};
use crate::RunConfig;
use gana::core::Task;
use gana::persist::{EngineSnapshot, ModelEntry};
use gana::serve::protocol::{Request, Response};
use gana::serve::{
    Client, ClientError, Engine, HistogramSnapshot, ServerConfig, ServerHandle, StatsSnapshot,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and client threads) of both serving workloads.
pub const CONNECTIONS: usize = 2;

/// Offered load of `serve_steady`, summed over its connections.
const STEADY_RPS: f64 = 60.0;

/// An open-loop phase is a valid measurement only when the generator's
/// median lateness stays below this (µs). The limit is on the median, not
/// the p99: on a 2-vCPU VM a thread sleeping on a timer wakes over 1 ms
/// late for more than 1% of wake-ups even with no other load, so a p99
/// limit would reject runs for the VM's timer, not the generator.
/// `client.late_p99_us` still reports the tail.
const LATE_LIMIT_US: f64 = 1000.0;

/// An open-loop phase is also valid only when every op is answered within
/// the phase plus this share of it (so the achieved rate stays above 98%
/// of the offered rate) …
const OVERRUN_SHARE: f64 = 0.02;

/// … or plus this, whichever is longer, leaving a short phase room for its
/// last op's own latency.
const MIN_OVERRUN: Duration = Duration::from_millis(100);

/// A booted daemon; dropping it drains and joins every server thread.
struct Daemon {
    server: ServerHandle,
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Trains both paper-size models, builds the library, saves and reloads
/// them as an engine snapshot, and boots the daemon from it;
/// [`setup::SETUP_REPS`] times.
fn setup() -> (Daemon, SetupTimes) {
    let dir = crate::output_dir();
    std::fs::create_dir_all(&dir).expect("output directory is writable");
    let path = dir.join(format!("gana-benchmark-{}.gsnap", std::process::id()));
    setup::repeat(|phases| {
        let ((ota, rf), train_s) = setup::timed(|| {
            (
                setup::train(Task::OtaBias, ModelSize::Paper),
                setup::train(Task::Rf, ModelSize::Paper),
            )
        });
        let (library, library_s) = setup::timed(setup::library);
        let entry = |task, model| ModelEntry {
            task,
            class_names: setup::class_names(task),
            model,
        };
        let snapshot = EngineSnapshot {
            models: vec![entry(Task::OtaBias, ota), entry(Task::Rf, rf)],
            library,
            cache_entries: Vec::new(),
        };
        let (_, save_s) = setup::timed(|| snapshot.save(&path).expect("snapshot saves"));
        let (loaded, load_s) =
            setup::timed(|| EngineSnapshot::load(&path).expect("snapshot loads"));
        let _ = std::fs::remove_file(&path);
        let (server, boot_s) = setup::timed(|| boot(loaded));
        *phases = setup::Phases {
            train_s,
            library_ms: library_s * 1e3,
            snapshot_save_ms: save_s * 1e3,
            snapshot_load_ms: load_s * 1e3,
            boot_ms: boot_s * 1e3,
        };
        Daemon { server }
    })
}

fn boot(snapshot: EngineSnapshot) -> ServerHandle {
    let engine = Engine::builder()
        .warm_from(snapshot)
        .workers(1)
        .intra_threads(1)
        .max_batch(4)
        .batch_window_auto()
        .build();
    let server = gana::serve::serve(
        Arc::new(engine),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stats_interval: None,
            snapshot_interval: None,
        },
    )
    .expect("daemon binds a loopback port");
    connect(server.local_addr())
        .and_then(|mut client| client.ping().map_err(|e| e.to_string()))
        .expect("daemon answers a ping");
    server
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect_binary(addr).map_err(|e| e.to_string())?;
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// Prefixes a SPICE comment that makes the text unique to the result cache.
fn bust(spice: &str, nonce: &str) -> String {
    format!("* benchmark nonce {nonce}\n{spice}")
}

/// Scores one reply. A transport failure ends the run; a structured job
/// error is one failed op.
fn check(
    reply: Result<Response, ClientError>,
    truth: Option<&Truth>,
) -> Result<(Result<Score, String>, Option<u64>), String> {
    let score = |labels: &[(String, String)]| match truth {
        Some(truth) => Ok(truth.score(labels.iter().map(|(d, l)| (d.as_str(), l.as_str())))),
        None => Err("annotation for a request that expects none".to_string()),
    };
    Ok(match reply {
        Ok(Response::Ok(annotation)) => (score(&annotation.device_labels), None),
        Ok(Response::Session {
            session,
            annotation,
        }) => (score(&annotation.device_labels), Some(session)),
        Ok(Response::Closed(_)) if truth.is_none() => (Ok(Score::default()), None),
        Ok(Response::Err { code, message }) => (Err(format!("{code}: {message}")), None),
        Ok(other) => (Err(format!("unexpected reply {other:?}")), None),
        Err(ClientError::Job { code, message }) => (Err(format!("{code}: {message}")), None),
        Err(e) => return Err(format!("connection failed: {e}")),
    })
}

/// Timestamps of one op.
struct Op {
    /// When it was scheduled (open loop) or sent (closed loop).
    due: Instant,
    /// When its connection was free to take it.
    taken: Instant,
    sent: Instant,
    answered: Instant,
    /// False for a session close, which the engine does not execute.
    annotates: bool,
}

impl Op {
    fn latency_us(&self) -> f64 {
        us(self.due, self.answered)
    }

    fn rtt_us(&self) -> f64 {
        us(self.sent, self.answered)
    }
}

/// Per-connection results, merged by the caller.
#[derive(Default)]
struct Connection {
    ops: Vec<Op>,
    outcomes: Vec<Result<Score, String>>,
    tracer: Option<Tracer>,
}

impl Connection {
    fn latencies_us(&self) -> Vec<f64> {
        self.ops.iter().map(Op::latency_us).collect()
    }

    /// Completed ops per second, from `start` to the last answer.
    fn ops_per_s(&self, start: Instant) -> f64 {
        let end = self.ops.iter().map(|op| op.answered).max().unwrap_or(start);
        ratio(
            self.ops.len() as f64,
            end.saturating_duration_since(start).as_secs_f64(),
        )
    }

    /// Round trips of the requests the engine executed.
    fn rtt_us(&self) -> Vec<f64> {
        let annotating = self.ops.iter().filter(|op| op.annotates);
        annotating.map(Op::rtt_us).collect()
    }
}

/// An open session on one connection.
struct Session {
    id: u64,
    entry: (usize, usize),
    resized: bool,
}

fn steady_connection(
    addr: SocketAddr,
    pools: &[Vec<PoolEntry>],
    schedule: &[Arrival],
    start: Instant,
    nonce: &str,
    traced: bool,
) -> Result<Connection, String> {
    let mut client = connect(addr)?;
    let mut out = Connection {
        tracer: traced.then(|| Tracer::new(start)),
        ..Connection::default()
    };
    let mut session: Option<Session> = None;
    for (k, arrival) in schedule.iter().enumerate() {
        let due = start + arrival.at;
        let taken = Instant::now();
        if let Some(wait) = due.checked_duration_since(taken) {
            std::thread::sleep(wait);
        }
        let nonce = format!("{nonce}-{k}");
        let entry = |(family, index): (usize, usize)| &pools[family][index];
        let (request, truth) = match (arrival.request, &mut session) {
            (ServeRequest::Annotate { family, index }, _) => {
                let design = &entry((family, index)).design;
                let request = Request::Annotate {
                    task: design.family.task(),
                    deadline_ms: None,
                    netlist: bust(&design.spice, &nonce),
                };
                (request, Some(&design.truth))
            }
            (ServeRequest::Open { family, index }, _) => {
                let design = &entry((family, index)).design;
                session = Some(Session {
                    id: u64::MAX,
                    entry: (family, index),
                    resized: false,
                });
                let request = Request::Open {
                    task: design.family.task(),
                    netlist: bust(&design.spice, &nonce),
                };
                (request, Some(&design.truth))
            }
            (ServeRequest::Update, Some(open)) => {
                let pool = entry(open.entry);
                open.resized = !open.resized;
                let text = if open.resized {
                    &pool.resized
                } else {
                    &pool.design.spice
                };
                let request = Request::Update {
                    session: open.id,
                    netlist: bust(text, &nonce),
                };
                (request, Some(&pool.design.truth))
            }
            (ServeRequest::Close, Some(open)) => (Request::Close(open.id), None),
            (ServeRequest::Update | ServeRequest::Close, None) => {
                out.outcomes
                    .push(Err("session step without an open session".to_string()));
                continue;
            }
        };
        let sent = Instant::now();
        let reply = client.request(&request);
        let done = Instant::now();
        let (outcome, opened) = check(reply, truth)?;
        match (&request, opened) {
            (Request::Open { .. }, Some(id)) => {
                if let Some(open) = session.as_mut() {
                    open.id = id;
                }
            }
            (Request::Open { .. } | Request::Close(_), _) => session = None,
            _ => {}
        }
        out.outcomes.push(outcome);
        out.ops.push(Op {
            due,
            taken,
            sent,
            answered: done,
            annotates: !matches!(request, Request::Close(_)),
        });
        if let Some(tracer) = out.tracer.as_mut() {
            let op = k as u64;
            let root = tracer.record(OP, op, None, due, done);
            let ready = due.max(taken);
            if taken > due {
                tracer.record("client.conn_wait", op, Some(root), due, taken);
            }
            tracer.record("client.late", op, Some(root), ready, sent);
            tracer.record("client.rtt", op, Some(root), sent, done);
        }
    }
    if let Some(open) = session {
        let _ = client.request(&Request::Close(open.id));
    }
    Ok(out)
}

/// Runs the connections of one phase on their own threads and merges their
/// results; each connection's op ids are offset by its index × 2^32.
fn on_connections(
    run: impl Fn(usize) -> Result<Connection, String> + Sync,
) -> Result<Connection, String> {
    let results: Vec<Result<Connection, String>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || run(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut merged = Connection::default();
    for (c, result) in results.into_iter().enumerate() {
        let connection = result?;
        merged.ops.extend(connection.ops);
        merged.outcomes.extend(connection.outcomes);
        if let Some(mut tracer) = connection.tracer {
            let offset = (c as u64) << 32;
            tracer.offset_ops(offset);
            match merged.tracer.as_mut() {
                Some(all) => all.extend(tracer),
                None => merged.tracer = Some(tracer),
            }
        }
    }
    Ok(merged)
}

/// Annotates every pool entry once (cache-busted) and runs one session
/// round, so the worker's buffers and the daemon's content-addressed
/// Chebyshev-basis and region caches are as warm before timing as they
/// stay during it.
fn warm_up(daemon: &Daemon, pools: &[Vec<PoolEntry>], report: &mut Report) -> Result<(), String> {
    let mut client = connect(daemon.addr())?;
    for (family, pool) in pools.iter().enumerate() {
        for (index, entry) in pool.iter().enumerate() {
            let design = &entry.design;
            let reply = client.request(&Request::Annotate {
                task: design.family.task(),
                deadline_ms: None,
                netlist: bust(&design.spice, &format!("warm-{family}-{index}")),
            });
            report.record(check(reply, Some(&design.truth))?.0);
        }
    }
    let entry = &pools[0][0];
    let reply = client.request(&Request::Open {
        task: entry.design.family.task(),
        netlist: bust(&entry.design.spice, "warm-open"),
    });
    let (outcome, session) = check(reply, Some(&entry.design.truth))?;
    report.record(outcome);
    if let Some(id) = session {
        let reply = client.request(&Request::Update {
            session: id,
            netlist: bust(&entry.resized, "warm-update"),
        });
        report.record(check(reply, Some(&entry.design.truth))?.0);
        report.record(check(client.request(&Request::Close(id)), None)?.0);
    }
    Ok(())
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// How late the generator itself sent each op: from when the op was both
/// due and its connection free, to the send.
fn late_us(ops: &[Op]) -> Vec<f64> {
    ops.iter()
        .map(|op| us(op.due.max(op.taken), op.sent))
        .collect()
}

/// One open-loop phase; `name` keeps its nonces apart from other phases.
fn steady_phase(
    daemon: &Daemon,
    pools: &[Vec<PoolEntry>],
    seed: u64,
    phase: Duration,
    name: &str,
    traced: bool,
) -> Result<(Connection, Instant), String> {
    let schedules: Vec<Vec<Arrival>> = (0..CONNECTIONS)
        .map(|c| inputs::arrival_schedule(seed, c, STEADY_RPS / CONNECTIONS as f64, phase, pools))
        .collect();
    let arrivals: usize = schedules.iter().map(Vec::len).sum();
    // Leave the threads time to connect before the first arrival is due.
    let start = Instant::now() + Duration::from_millis(50);
    let addr = daemon.addr();
    let merged = on_connections(|c| {
        let nonce = format!("{name}-{c}");
        steady_connection(addr, pools, &schedules[c], start, &nonce, traced)
    })?;

    // The measurement's own validity: the generator kept to its schedule,
    // and no backlog outlived the phase.
    let late_p50 = median(&late_us(&merged.ops));
    let offered = arrivals as f64 / phase.as_secs_f64();
    let achieved = merged.ops_per_s(start);
    let allowed = phase.mul_f64(OVERRUN_SHARE).max(MIN_OVERRUN);
    let end = merged
        .ops
        .iter()
        .map(|op| op.answered)
        .max()
        .unwrap_or(start);
    let overrun = end.saturating_duration_since(start + phase);
    if late_p50 > LATE_LIMIT_US || merged.ops.len() < arrivals || overrun > allowed {
        return Err(format!(
            "load generator invalid: late p50 {late_p50:.0} us (limit {LATE_LIMIT_US}), \
             achieved {achieved:.1} of {offered:.1} offered rps"
        ));
    }
    Ok((merged, start))
}

fn record_all(report: &mut Report, outcomes: Vec<Result<Score, String>>) {
    for outcome in outcomes {
        report.record(outcome);
    }
}

/// The samples a histogram gained between two snapshots of it, computed
/// through the histogram's public wire form (`total_us;bucket:count;…`).
fn gained(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let parse = |h: &HistogramSnapshot| {
        let text = h.encode();
        let mut parts = text.split(';');
        let total: u64 = parts.next().and_then(|t| t.parse().ok()).unwrap_or(0);
        let buckets: BTreeMap<u32, u64> = parts
            .filter_map(|p| p.split_once(':'))
            .filter_map(|(b, c)| Some((b.parse().ok()?, c.parse().ok()?)))
            .collect();
        (total, buckets)
    };
    let (total_before, before) = parse(before);
    let (total_after, mut after) = parse(after);
    for (bucket, count) in before {
        if let Some(c) = after.get_mut(&bucket) {
            *c -= count;
        }
    }
    let mut text = (total_after - total_before).to_string();
    for (bucket, count) in after.into_iter().filter(|&(_, c)| c > 0) {
        text.push_str(&format!(";{bucket}:{count}"));
    }
    HistogramSnapshot::decode(&text).unwrap_or_default()
}

/// Engine-side per-layer metrics over what the engine did between two of
/// its stats snapshots — the traced phase — so that they describe the same
/// requests as the client-side metrics. Returns the total p50 (µs).
fn report_engine(before: &StatsSnapshot, after: &StatsSnapshot, report: &mut Report) -> f64 {
    let quantile_us =
        |b: &HistogramSnapshot, a: &HistogramSnapshot, q: f64| gained(b, a).quantile_us(q) as f64;
    let (queue, parse) = (&after.queue_wait_hist, &after.parse_hist);
    let (recognize, total) = (&after.recognize_hist, &after.total_hist);
    let total_p50 = quantile_us(&before.total_hist, total, 0.5);
    report.set(
        "serve.queue_wait_p50_us",
        quantile_us(&before.queue_wait_hist, queue, 0.5),
    );
    report.set(
        "serve.queue_wait_p99_us",
        quantile_us(&before.queue_wait_hist, queue, 0.99),
    );
    report.set(
        "serve.parse_p50_us",
        quantile_us(&before.parse_hist, parse, 0.5),
    );
    report.set(
        "serve.recognize_p50_us",
        quantile_us(&before.recognize_hist, recognize, 0.5),
    );
    report.set(
        "serve.recognize_p99_us",
        quantile_us(&before.recognize_hist, recognize, 0.99),
    );
    report.set("serve.total_p50_us", total_p50);
    report.set(
        "serve.total_p99_us",
        quantile_us(&before.total_hist, total, 0.99),
    );
    // Batch sizes are exposed only as percentiles since boot.
    report.set("serve.batch_size_p50", after.batch_size_p50 as f64);
    let counter = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    report.set(
        "serve.batched_frac",
        ratio(counter(|s| s.batched_requests), counter(|s| s.completed)),
    );
    report.set(
        "serve.region_hit_frac",
        ratio(
            counter(|s| s.region_hits),
            counter(|s| s.region_hits + s.region_misses),
        ),
    );
    report.set("serve.shed", counter(|s| s.shed));
    report.set("serve.rejected", counter(|s| s.rejected));
    total_p50
}

/// A traced run measures an untraced and then a traced phase, each half
/// the run; open-loop traffic cannot run one request twice.
fn phase_length(config: &RunConfig) -> Duration {
    if config.trace {
        config.duration() / 2
    } else {
        config.duration()
    }
}

/// Reports a serving workload: end-to-end metrics from the untraced phase
/// or, on a traced run, per-layer metrics from the `traced` phase.
fn report_serving(
    config: &RunConfig,
    report: &mut Report,
    daemon: &Daemon,
    (mut untraced, start): (Connection, Instant),
    traced: impl FnOnce() -> Result<(Connection, Instant), String>,
) -> Result<Option<Tracer>, String> {
    let latencies = untraced.latencies_us();
    record_all(report, std::mem::take(&mut untraced.outcomes));
    if !config.trace {
        // Serving latency comes from how client, queue, batcher and wire
        // interleave, not only from compute, so a best window would pick a
        // lucky interleaving: the whole phase is one window.
        report.latencies(&latencies, latencies.len().max(1));
        report.set("ops_per_s", untraced.ops_per_s(start));
        return Ok(None);
    }
    let before = daemon.server.engine().stats();
    let (mut traced, _) = traced()?;
    let total_p50 = report_engine(&before, &daemon.server.engine().stats(), report);
    record_all(report, std::mem::take(&mut traced.outcomes));
    let rtt = traced.rtt_us();
    let conn_wait: Vec<f64> = traced.ops.iter().map(|op| us(op.due, op.taken)).collect();
    report.set("client.conn_wait_p99_us", quantile(&conn_wait, 0.99));
    report.set("client.rtt_p50_us", median(&rtt));
    report.set("client.rtt_p99_us", quantile(&rtt, 0.99));
    report.set("client.wire_p50_us", median(&rtt) - total_p50);
    report.set("client.late_p99_us", quantile(&late_us(&traced.ops), 0.99));
    let tracer = traced.tracer.expect("traced phase records spans");
    report.trace_quality(&latencies, &tracer);
    Ok(Some(tracer))
}

/// Runs `serve_steady`: open loop, Poisson arrivals at [`STEADY_RPS`].
/// An op's latency runs from its scheduled arrival to its reply.
///
/// # Errors
///
/// When the generator fell behind its schedule, or a connection failed.
pub(crate) fn run_steady(
    config: &RunConfig,
    report: &mut Report,
) -> Result<Option<Tracer>, String> {
    let pools = inputs::serve_pools(config.seed);
    let (daemon, times) = setup();
    times.report(report);
    warm_up(&daemon, &pools, report)?;
    let phase = |name: &str, traced: bool| {
        steady_phase(
            &daemon,
            &pools,
            config.seed,
            phase_length(config),
            name,
            traced,
        )
    };
    let untraced = phase("untraced", false)?;
    report_serving(config, report, &daemon, untraced, || phase("traced", true))
}

fn batch_connection(
    addr: SocketAddr,
    pools: &[Vec<PoolEntry>],
    plan: &mut BatchPlan,
    start: Instant,
    deadline: Instant,
    nonce: &str,
    traced: bool,
) -> Result<Connection, String> {
    let mut client = connect(addr)?;
    let mut out = Connection {
        tracer: traced.then(|| Tracer::new(start)),
        ..Connection::default()
    };
    let mut op = 0u64;
    while Instant::now() < deadline {
        let (family, indices) = plan.next_batch(pools);
        let task = SERVE_FAMILIES[family].task();
        let requests: Vec<Request> = indices
            .iter()
            .map(|&i| Request::Annotate {
                task,
                deadline_ms: None,
                netlist: bust(&pools[family][i].design.spice, &format!("{nonce}-{op}-{i}")),
            })
            .collect();
        let sent = Instant::now();
        std::iter::once(Request::Batch(BATCH))
            .chain(requests)
            .try_for_each(|request| client.send_request(&request))
            .map_err(|e| format!("connection failed: {e}"))?;
        for &i in &indices {
            let reply = client.read_reply();
            let answered = Instant::now();
            let (outcome, _) = check(reply, Some(&pools[family][i].design.truth))?;
            out.outcomes.push(outcome);
            out.ops.push(Op {
                due: sent,
                taken: sent,
                sent,
                answered,
                annotates: true,
            });
            if let Some(tracer) = out.tracer.as_mut() {
                let root = tracer.record(OP, op, None, sent, answered);
                tracer.record("client.rtt", op, Some(root), sent, answered);
            }
            op += 1;
        }
    }
    Ok(out)
}

/// Runs `serve_batch`: closed loop, each connection sending pipelined
/// `annotate_batch` frame groups of [`BATCH`] netlists back to back. An op
/// is one netlist; its latency runs from its batch's send to its reply.
///
/// # Errors
///
/// When a connection failed.
pub(crate) fn run_batch(config: &RunConfig, report: &mut Report) -> Result<Option<Tracer>, String> {
    let pools = inputs::serve_pools(config.seed);
    let (daemon, times) = setup();
    times.report(report);
    warm_up(&daemon, &pools, report)?;
    let addr = daemon.addr();
    let phase = |name: &str, traced: bool| {
        let start = Instant::now() + Duration::from_millis(50);
        let deadline = start + phase_length(config);
        let merged = on_connections(|c| {
            let mut plan = BatchPlan::new(config.seed, c);
            let nonce = format!("{name}-{c}");
            batch_connection(addr, &pools, &mut plan, start, deadline, &nonce, traced)
        })?;
        Ok((merged, start))
    };
    let untraced = phase("untraced", false)?;
    report_serving(config, report, &daemon, untraced, || phase("traced", true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana::serve::LatencyHistogram;

    #[test]
    fn gained_holds_exactly_the_samples_recorded_in_between() {
        let all = LatencyHistogram::default();
        let later = LatencyHistogram::default();
        for us in [5, 40, 40, 900] {
            all.record(Duration::from_micros(us));
        }
        let before = all.snapshot();
        for us in [40, 3_000, 70_000] {
            all.record(Duration::from_micros(us));
            later.record(Duration::from_micros(us));
        }
        assert_eq!(gained(&before, &all.snapshot()), later.snapshot());
        assert_eq!(gained(&before, &before), HistogramSnapshot::default());
    }
}
