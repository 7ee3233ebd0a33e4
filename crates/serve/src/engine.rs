//! The in-process annotation engine: shared artifacts, a bounded job queue,
//! and a pool of worker threads.
//!
//! Architecture (cf. the one-shot CLI path in `gana-core`):
//!
//! ```text
//!  submit()/submit_blocking()         workers (N threads)
//!  ───────────────┐                   ┌──────────────────┐
//!   JobRequest ──▶│ bounded channel ─▶│ parse → recognize │──▶ reply channel
//!                 │  (backpressure)   │  (Arc'd pipeline) │     JobHandle
//!  ───────────────┘                   └──────────────────┘
//! ```
//!
//! * The GCN model and primitive library are loaded **once** and shared via
//!   the `Arc`s inside [`Pipeline`]; workers clone the pipeline handle, not
//!   the artifacts.
//! * The submission queue is a bounded MPMC channel. [`Engine::submit`]
//!   never blocks — a full queue returns [`SubmitError::QueueFull`] so the
//!   caller can shed load; [`Engine::submit_blocking`] waits instead.
//! * Workers pull from the shared queue (work sharing — an idle worker
//!   "steals" the next job the moment it frees up, so load balances without
//!   per-worker queues).
//! * Identical `(task, netlist)` submissions are answered from a bounded
//!   result cache without occupying a worker. Failed jobs are never cached.

use crate::channel;
use crate::job::{Annotation, Job, JobError, JobHandle, JobRequest, JobResult, SubmitError, Work};
use crate::metrics::{Metrics, StatsSnapshot};
use gana_core::{Pipeline, Task, Workspace};
use gana_gnn::GraphSample;
use gana_graph::CircuitGraph;
use gana_incremental::{Baseline, CachedBlock, IncrementalPipeline, RegionCache};
use gana_netlist::{flatten, parse_library, Circuit};
use gana_par::Parallelism;
use gana_persist::{EngineSnapshot, ModelEntry, PersistError};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Defaults to available parallelism.
    pub workers: usize,
    /// Bounded submission-queue capacity; beyond it, `submit` rejects with
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Entries kept in the `(task, netlist) → Annotation` result cache;
    /// `0` disables caching.
    pub result_cache_capacity: usize,
    /// Byte budget of the content-addressed region cache shared by every
    /// incremental session.
    pub region_cache_bytes: usize,
    /// Maximum concurrently open incremental sessions. Each session pins a
    /// full baseline (recognized design + splice indexes) in memory, so the
    /// map must stay bounded; an `open` past the limit is rejected with a
    /// structured [`JobError::SessionLimit`].
    pub max_sessions: usize,
    /// Intra-request thread budget per worker, spent on the per-sub-block
    /// Postprocessing I and per-template VF2 fan-out. Defaults to `1`
    /// (each request runs on its worker's thread); larger values are
    /// capped by [`gana_par::joint_budget`], so `workers × intra_threads`
    /// never oversubscribes the box.
    pub intra_threads: usize,
    /// Largest fused GCN micro-batch a worker assembles from queued
    /// annotate jobs of the same task. `1` (the default) disables batching
    /// entirely; results are byte-identical either way.
    pub max_batch: usize,
    /// How long (µs) a worker holding a partial batch may wait for more
    /// compatible jobs before flushing. `0` means flush as soon as the
    /// queue runs dry (drain-only batching). The wait is always capped by
    /// the earliest deadline among the batch members, so batching never
    /// delays a job past its deadline.
    pub batch_window_us: u64,
    /// When true, ignore the fixed `batch_window_us` and derive the gather
    /// window per batch from the observed arrival-gap EMA: wait roughly as
    /// long as the missing batch slots are expected to take to arrive,
    /// never more than half the mean service time (so batching adds at
    /// most ~50% latency) and never more than 5 ms. With no traffic
    /// history, or with a full batch already queued, the window is 0.
    pub batch_window_auto: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 256,
            result_cache_capacity: 1024,
            region_cache_bytes: IncrementalPipeline::DEFAULT_CACHE_BYTES,
            max_sessions: 64,
            intra_threads: 1,
            max_batch: 1,
            batch_window_us: 0,
            batch_window_auto: false,
        }
    }
}

/// Map + FIFO insertion order, guarded together so eviction stays consistent.
type CacheState = (HashMap<u64, Arc<Annotation>>, VecDeque<u64>);

/// Bounded FIFO-eviction map from request hash to cached annotation.
#[derive(Debug)]
struct ResultCache {
    capacity: usize,
    map: Mutex<CacheState>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: Mutex::new((HashMap::new(), VecDeque::new())),
        }
    }

    fn get(&self, key: u64) -> Option<Arc<Annotation>> {
        self.map.lock().0.get(&key).cloned()
    }

    fn insert(&self, key: u64, value: Arc<Annotation>) {
        let mut guard = self.map.lock();
        let (map, order) = &mut *guard;
        if map.insert(key, value).is_none() {
            order.push_back(key);
            while map.len() > self.capacity {
                if let Some(evict) = order.pop_front() {
                    map.remove(&evict);
                } else {
                    break;
                }
            }
        }
    }
}

/// Resolves the per-worker intra-request thread budget: the request,
/// at least 1 and capped to [`gana_par::joint_budget`], so `workers × intra`
/// can never oversubscribe the machine regardless of configuration.
fn effective_intra_threads(workers: usize, requested: usize, cores: usize) -> usize {
    requested.min(gana_par::joint_budget(workers, cores)).max(1)
}

fn cache_key(task: Task, netlist: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    // Task isn't Hash; its Debug form is stable and two-valued.
    format!("{task:?}").hash(&mut hasher);
    netlist.hash(&mut hasher);
    hasher.finish()
}

/// Baseline state of one open session.
struct SessionState {
    task: Task,
    baseline: Baseline,
}

/// One queued same-session update, carrying everything needed to finish
/// the job from whichever worker drains it.
struct PendingUpdate {
    netlist: String,
    submitted_at: Instant,
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    reply: channel::Sender<JobResult>,
}

/// One open session. Same-session updates land in `pending` and are
/// drained by at most one worker at a time (`draining`), so a burst of
/// updates for one session occupies one worker instead of blocking the
/// whole pool on `state`; distinct sessions still run in parallel.
struct SessionSlot {
    state: Mutex<SessionState>,
    pending: Mutex<VecDeque<PendingUpdate>>,
    draining: AtomicBool,
    /// Heap bytes of the baseline's unified circuit store (graph + CCC +
    /// coarsening + hierarchy slabs), refreshed whenever the baseline
    /// advances. A gauge so `stats` never contends with a draining worker.
    store_bytes: AtomicU64,
}

/// Snapshot persistence state shared across the engine.
#[derive(Debug, Default)]
struct PersistState {
    /// Where periodic/drain snapshots are written; `None` disables saving.
    path: Option<PathBuf>,
    /// When the last successful save finished.
    last_save: Mutex<Option<Instant>>,
    /// Bytes of the last written snapshot.
    bytes: AtomicU64,
    /// True when the engine was built from a snapshot (`warm_from`).
    warm_start: AtomicBool,
    /// Ensures the drain-time snapshot runs once even though `shutdown`
    /// is idempotent and also called from `Drop`.
    drain_saved: AtomicBool,
    /// Serializes writers: the periodic snapshot thread and the drain-time
    /// save share one `.tmp` staging file, so concurrent saves would
    /// rename each other's half-written output into place.
    save_lock: Mutex<()>,
}

/// Ceiling on the auto-tuned batch gather window. Even under pathological
/// EMA readings, batching never holds a job longer than this.
const MAX_AUTO_WINDOW_NS: u64 = 5_000_000;

/// Pending same-session updates one drain runs before yielding the worker
/// back to the shared queue via a [`Work::DrainSession`] marker, so a
/// burst of edits on one session cannot monopolize a worker while other
/// sessions' jobs sit queued behind it.
const SESSION_DRAIN_QUANTUM: usize = 4;

/// Backoff hint for an [`SubmitError::Overloaded`] rejection: how long
/// until the estimated queue wait should have fallen back under the
/// deadline, never less than 1 ms so clients always pause.
fn retry_after_ms(estimated_wait: Duration, deadline: Duration) -> u64 {
    (estimated_wait.saturating_sub(deadline).as_millis() as u64).max(1)
}

/// Racy-but-harmless exponential moving average (α = 1/8). `0` is the
/// "no samples yet" sentinel, so updates clamp to at least 1.
fn ema_update(cell: &AtomicU64, sample: u64) {
    let old = cell.load(Ordering::Relaxed);
    let next = if old == 0 {
        sample
    } else {
        old - old / 8 + sample / 8
    };
    cell.store(next.max(1), Ordering::Relaxed);
}

struct Shared {
    pipelines: Vec<(Task, Pipeline)>,
    incremental: Vec<(Task, IncrementalPipeline)>,
    /// One budget clone per engine: every pipeline shares its gauge, so
    /// `stats` sees aggregate intra-request pool pressure across workers.
    intra: Parallelism,
    /// One annotation workspace per worker thread: scratch buffers survive
    /// across that worker's requests, and `stats` aggregates the prune
    /// counters and high-water footprints across the pool.
    workspaces: Vec<Arc<Workspace>>,
    region_cache: Arc<RegionCache>,
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    max_sessions: usize,
    metrics: Metrics,
    cache: Option<ResultCache>,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    workers: usize,
    max_batch: usize,
    batch_window_us: u64,
    batch_window_auto: bool,
    /// Per-job service time EMA (ns), fed by every processed job; `0`
    /// until the first job completes. Drives load shedding and the auto
    /// batch window.
    service_ema_ns: AtomicU64,
    /// EMA of the gap between consecutive accepted submissions (ns); `0`
    /// until two arrivals have been seen.
    arrival_gap_ns: AtomicU64,
    /// Monotonic timestamp (ns since `started`) of the last accepted
    /// submission; `0` = none yet.
    last_arrival_ns: AtomicU64,
    /// Engine construction time — the epoch for `last_arrival_ns`.
    started: Instant,
    /// Sender clone workers use to re-enqueue [`Work::DrainSession`]
    /// fairness markers. Taken (dropped) at shutdown along with the main
    /// sender so the channel still disconnects and workers exit.
    requeue_tx: Mutex<Option<channel::Sender<Job>>>,
    persist: PersistState,
}

impl Shared {
    fn pipeline(&self, task: Task) -> Option<&Pipeline> {
        self.pipelines
            .iter()
            .find(|(t, _)| *t == task)
            .map(|(_, p)| p)
    }

    fn incremental(&self, task: Task) -> Option<&IncrementalPipeline> {
        self.incremental
            .iter()
            .find(|(t, _)| *t == task)
            .map(|(_, p)| p)
    }

    /// Feeds the arrival-gap EMA from one accepted submission.
    fn note_arrival(&self) {
        let now_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.last_arrival_ns.swap(now_ns.max(1), Ordering::Relaxed);
        if prev != 0 && now_ns > prev {
            ema_update(&self.arrival_gap_ns, now_ns - prev);
        }
    }

    /// Feeds the service-time EMA with `elapsed` worker time spent over
    /// `jobs` finished jobs (batches amortize).
    fn note_service(&self, elapsed: Duration, jobs: u64) {
        if jobs == 0 {
            return;
        }
        let per = (elapsed.as_nanos().min(u128::from(u64::MAX)) as u64) / jobs;
        ema_update(&self.service_ema_ns, per);
    }

    /// Expected queue wait for a submission arriving now: queued jobs times
    /// the mean service time, spread over the worker pool. `None` until the
    /// service EMA has a sample or when the queue is empty (a free or
    /// soon-free worker picks it up — don't shed on an idle engine).
    fn estimated_queue_wait(&self, queue_depth: usize) -> Option<Duration> {
        let svc = self.service_ema_ns.load(Ordering::Relaxed);
        if svc == 0 || queue_depth == 0 {
            return None;
        }
        let wait_ns = svc.saturating_mul(queue_depth as u64) / self.workers.max(1) as u64;
        Some(Duration::from_nanos(wait_ns))
    }

    /// The gather window for a batch starting with `queued` jobs already
    /// waiting behind it. Fixed mode returns the configured window; auto
    /// mode waits only as long as the missing slots are expected to take
    /// to arrive (arrival-gap EMA), capped at half the mean service time
    /// and at [`MAX_AUTO_WINDOW_NS`].
    fn effective_batch_window_us(&self, queued: usize) -> u64 {
        if !self.batch_window_auto {
            return self.batch_window_us;
        }
        if queued + 1 >= self.max_batch {
            return 0; // a full batch is already waiting: flush immediately
        }
        let gap = self.arrival_gap_ns.load(Ordering::Relaxed);
        if gap == 0 {
            return 0; // no traffic history: don't hold the first jobs hostage
        }
        let missing = (self.max_batch - 1 - queued) as u64;
        let svc = self.service_ema_ns.load(Ordering::Relaxed);
        let cap_ns = if svc == 0 {
            MAX_AUTO_WINDOW_NS
        } else {
            (svc / 2).min(MAX_AUTO_WINDOW_NS)
        };
        gap.saturating_mul(missing).min(cap_ns) / 1_000
    }
}

/// Builder for [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
    pipelines: Vec<(Task, Pipeline)>,
    snapshot_path: Option<PathBuf>,
    seed_cache: Vec<(u128, CachedBlock)>,
    warm_start: bool,
}

impl EngineBuilder {
    /// Starts from a config.
    pub fn with_config(config: EngineConfig) -> EngineBuilder {
        EngineBuilder {
            config,
            pipelines: Vec::new(),
            snapshot_path: None,
            seed_cache: Vec::new(),
            warm_start: false,
        }
    }

    /// Sets where [`Engine::save_snapshot`] writes the engine snapshot.
    /// Without a path, `save_snapshot` is a no-op returning `Ok(None)`.
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> EngineBuilder {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Boots the engine from a persisted [`EngineSnapshot`]: every model in
    /// the snapshot becomes a registered pipeline sharing the snapshot's
    /// primitive library, and the persisted region-cache entries are warm
    /// loaded so the first incremental sessions splice instead of recompute.
    pub fn warm_from(mut self, snapshot: EngineSnapshot) -> EngineBuilder {
        let library = Arc::new(snapshot.library);
        for entry in snapshot.models {
            let pipeline = Pipeline::shared(
                Arc::new(entry.model),
                entry.class_names.into(),
                Arc::clone(&library),
                entry.task,
            );
            self = self.pipeline(pipeline);
        }
        self.seed_cache = snapshot.cache_entries;
        self.warm_start = true;
        self
    }

    /// Registers the pipeline serving `task` requests. The pipeline's
    /// artifacts stay shared; registering the same model for both tasks
    /// costs nothing extra.
    pub fn pipeline(mut self, pipeline: Pipeline) -> EngineBuilder {
        let task = pipeline.task();
        self.pipelines.retain(|(t, _)| *t != task);
        self.pipelines.push((task, pipeline));
        self
    }

    /// Overrides the worker count.
    pub fn workers(mut self, workers: usize) -> EngineBuilder {
        self.config.workers = workers.max(1);
        self
    }

    /// Overrides the queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the result-cache capacity (`0` disables).
    pub fn result_cache_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.config.result_cache_capacity = capacity;
        self
    }

    /// Overrides the region-cache byte budget shared by all sessions.
    pub fn region_cache_bytes(mut self, bytes: usize) -> EngineBuilder {
        self.config.region_cache_bytes = bytes.max(1);
        self
    }

    /// Overrides the open-session limit.
    pub fn max_sessions(mut self, max: usize) -> EngineBuilder {
        self.config.max_sessions = max.max(1);
        self
    }

    /// Overrides the per-worker intra-request thread budget (default `1`).
    /// The effective value is at least 1 and always capped so
    /// `workers × intra` stays within the machine's joint budget.
    pub fn intra_threads(mut self, threads: usize) -> EngineBuilder {
        self.config.intra_threads = threads;
        self
    }

    /// Overrides the largest fused annotate micro-batch (`1`, the default,
    /// disables batching).
    pub fn max_batch(mut self, max_batch: usize) -> EngineBuilder {
        self.config.max_batch = max_batch.max(1);
        self
    }

    /// Overrides the batch gather window in microseconds (`0` = flush as
    /// soon as the queue runs dry). The wait is always capped by the
    /// earliest deadline among the gathered jobs.
    pub fn batch_window_us(mut self, window_us: u64) -> EngineBuilder {
        self.config.batch_window_us = window_us;
        self.config.batch_window_auto = false;
        self
    }

    /// Auto-tunes the batch gather window from observed traffic instead of
    /// a fixed `batch_window_us`: each batch waits roughly as long as its
    /// missing slots are expected to take to arrive (arrival-gap EMA),
    /// capped at half the mean service time and at 5 ms.
    pub fn batch_window_auto(mut self) -> EngineBuilder {
        self.config.batch_window_auto = true;
        self
    }

    /// Spawns the worker pool and returns the running engine.
    pub fn build(self) -> Engine {
        let workers = self.config.workers.max(1);
        let intra = Parallelism::new(effective_intra_threads(
            workers,
            self.config.intra_threads,
            gana_par::available_threads(),
        ));
        // Clone the shared budget into every registered pipeline: clones
        // share one gauge, so stats aggregate across all workers.
        let pipelines: Vec<(Task, Pipeline)> = self
            .pipelines
            .into_iter()
            .map(|(task, pipeline)| (task, pipeline.with_parallelism(intra.clone())))
            .collect();
        let region_cache = Arc::new(RegionCache::new(self.config.region_cache_bytes));
        region_cache.restore(self.seed_cache);
        let incremental = pipelines
            .iter()
            .map(|(task, pipeline)| {
                (
                    *task,
                    IncrementalPipeline::with_cache(pipeline.clone(), Arc::clone(&region_cache)),
                )
            })
            .collect();
        let workspaces = (0..workers).map(|_| Arc::new(Workspace::new())).collect();
        let shared = Arc::new(Shared {
            pipelines,
            incremental,
            intra,
            workspaces,
            region_cache,
            sessions: Mutex::new(HashMap::new()),
            max_sessions: self.config.max_sessions,
            metrics: Metrics::default(),
            cache: (self.config.result_cache_capacity > 0)
                .then(|| ResultCache::new(self.config.result_cache_capacity)),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            workers,
            max_batch: self.config.max_batch.max(1),
            batch_window_us: self.config.batch_window_us,
            batch_window_auto: self.config.batch_window_auto,
            service_ema_ns: AtomicU64::new(0),
            arrival_gap_ns: AtomicU64::new(0),
            last_arrival_ns: AtomicU64::new(0),
            started: Instant::now(),
            requeue_tx: Mutex::new(None),
            persist: PersistState {
                path: self.snapshot_path,
                warm_start: AtomicBool::new(self.warm_start),
                ..Default::default()
            },
        });
        let (tx, rx) = channel::bounded::<Job>(self.config.queue_capacity);
        *shared.requeue_tx.lock() = Some(tx.clone());
        let handles = (0..workers)
            .map(|worker_id| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gana-serve-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id, &rx))
                    .expect("spawn worker thread")
            })
            .collect();
        Engine {
            shared,
            submit_tx: Mutex::new(Some(tx)),
            queue_rx: rx,
            handles: Mutex::new(handles),
        }
    }
}

/// The concurrent annotation service core. See the module docs for the
/// data-flow picture.
pub struct Engine {
    shared: Arc<Shared>,
    /// `None` once shutdown started; dropping the sender is what lets
    /// workers drain the queue and observe disconnection.
    submit_tx: Mutex<Option<channel::Sender<Job>>>,
    /// Kept for queue-depth introspection.
    queue_rx: channel::Receiver<Job>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.shared.workers)
            .field("queue_depth", &self.queue_rx.len())
            .finish()
    }
}

impl Engine {
    /// Builder entry point.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Non-blocking submit: a full queue is an immediate
    /// [`SubmitError::QueueFull`] — the backpressure contract.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, SubmitError> {
        self.submit_inner(request, false)
    }

    /// Blocking submit: waits for queue space instead of rejecting.
    pub fn submit_blocking(&self, request: JobRequest) -> Result<JobHandle, SubmitError> {
        self.submit_inner(request, true)
    }

    /// Submits a batch, amortizing queue locking; per-job admission results.
    /// Jobs are enqueued in order; a `QueueFull` for one entry does not
    /// abort the rest.
    pub fn submit_batch(&self, requests: Vec<JobRequest>) -> Vec<Result<JobHandle, SubmitError>> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    fn submit_inner(&self, request: JobRequest, blocking: bool) -> Result<JobHandle, SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }

        // Cache fast path: answer without a worker round-trip.
        if let Some(cache) = &self.shared.cache {
            if let Some(hit) = cache.get(cache_key(request.task, &request.netlist)) {
                self.shared
                    .metrics
                    .cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .metrics
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = channel::bounded(1);
                let _ = tx.send(Ok(hit));
                return Ok(JobHandle {
                    id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
                    cancelled: Arc::new(AtomicBool::new(false)),
                    rx,
                });
            }
        }

        // Deadline-aware shed: when the expected queue wait alone already
        // blows the deadline, queueing the job would burn a worker on work
        // that expires anyway. Reject up front with a retry hint instead.
        if let Some(deadline) = request.deadline {
            if let Some(wait) = self.shared.estimated_queue_wait(self.queue_rx.len()) {
                if wait > deadline {
                    self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Overloaded {
                        retry_after_ms: retry_after_ms(wait, deadline),
                    });
                }
            }
        }

        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancelled = Arc::new(AtomicBool::new(false));
        let (reply_tx, reply_rx) = channel::bounded(1);
        let now = Instant::now();
        let deadline = request.deadline;
        let job = Job {
            id,
            work: Work::Annotate {
                netlist: request.netlist,
                task: request.task,
            },
            submitted_at: now,
            deadline: deadline.map(|d| now + d),
            cancelled: Arc::clone(&cancelled),
            reply: reply_tx,
        };
        match self.enqueue(job, blocking) {
            Ok(()) => {}
            // A deadline-carrying request bouncing off a full queue is the
            // same overload condition as the pre-queue shed — surface it
            // with the same structured error and hint. Deadline-less
            // requests keep the plain QueueFull backpressure contract.
            Err(SubmitError::QueueFull) if deadline.is_some() => {
                let deadline = deadline.unwrap_or_default();
                let wait = self
                    .shared
                    .estimated_queue_wait(self.queue_rx.len())
                    .unwrap_or(deadline);
                return Err(SubmitError::Overloaded {
                    retry_after_ms: retry_after_ms(wait, deadline),
                });
            }
            Err(other) => return Err(other),
        }
        Ok(JobHandle {
            id,
            cancelled,
            rx: reply_rx,
        })
    }

    /// Opens an incremental session: annotates `request` cold through the
    /// worker pool and parks the result as the session baseline. Returns
    /// the session id (valid once the handle resolves successfully) and
    /// the handle for the cold annotation.
    pub fn open_session(&self, request: JobRequest) -> Result<(u64, JobHandle), SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let session = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = self.submit_work(Work::OpenSession {
            session,
            netlist: request.netlist,
            task: request.task,
        })?;
        Ok((session, handle))
    }

    /// Incrementally re-annotates an edited netlist against an open
    /// session's baseline, advancing the baseline on success.
    pub fn update_session(
        &self,
        session: u64,
        netlist: impl Into<String>,
    ) -> Result<JobHandle, SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        self.submit_work(Work::UpdateSession {
            session,
            netlist: netlist.into(),
        })
    }

    /// Drops a session's baseline state. Returns whether it existed.
    pub fn close_session(&self, session: u64) -> bool {
        self.shared.sessions.lock().remove(&session).is_some()
    }

    /// Open sessions right now.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Heap bytes pinned by open sessions' unified circuit stores (graph,
    /// CCC, coarsening, and hierarchy sections), summed from per-slot
    /// gauges — never blocks on a session mid-update.
    pub fn session_store_bytes(&self) -> u64 {
        self.shared
            .sessions
            .lock()
            .values()
            .map(|slot| slot.store_bytes.load(Ordering::Relaxed))
            .sum()
    }

    fn submit_work(&self, work: Work) -> Result<JobHandle, SubmitError> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancelled = Arc::new(AtomicBool::new(false));
        let (reply_tx, reply_rx) = channel::bounded(1);
        let job = Job {
            id,
            work,
            submitted_at: Instant::now(),
            deadline: None,
            cancelled: Arc::clone(&cancelled),
            reply: reply_tx,
        };
        self.enqueue(job, false)?;
        Ok(JobHandle {
            id,
            cancelled,
            rx: reply_rx,
        })
    }

    /// Test/bench hook: run an arbitrary closure through the worker pool
    /// with the same queueing, deadline, and reply machinery as real jobs.
    #[doc(hidden)]
    pub fn submit_custom(
        &self,
        work: Box<dyn FnOnce() -> JobResult + Send>,
    ) -> Result<JobHandle, SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancelled = Arc::new(AtomicBool::new(false));
        let (reply_tx, reply_rx) = channel::bounded(1);
        let job = Job {
            id,
            work: Work::Custom(work),
            submitted_at: Instant::now(),
            deadline: None,
            cancelled: Arc::clone(&cancelled),
            reply: reply_tx,
        };
        self.enqueue(job, false)?;
        Ok(JobHandle {
            id,
            cancelled,
            rx: reply_rx,
        })
    }

    fn enqueue(&self, job: Job, blocking: bool) -> Result<(), SubmitError> {
        let guard = self.submit_tx.lock();
        let Some(tx) = guard.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let result = if blocking {
            tx.send(job).map_err(|_| SubmitError::ShuttingDown)
        } else {
            tx.try_send(job).map_err(|err| match err {
                channel::TrySendError::Full(_) => SubmitError::QueueFull,
                channel::TrySendError::Disconnected(_) => SubmitError::ShuttingDown,
            })
        };
        match result {
            Ok(()) => {
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.note_arrival();
                Ok(())
            }
            Err(SubmitError::QueueFull) => {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(other) => Err(other),
        }
    }

    /// Current metrics snapshot: the [`Metrics`] counters and histograms
    /// plus the gauges read off the queue, sessions, caches, pools,
    /// persistence state and kernel dispatcher.
    pub fn stats(&self) -> StatsSnapshot {
        let shared = &self.shared;
        let region = shared.region_cache.stats();
        let intra = shared.intra.gauge();
        let last_save = *shared.persist.last_save.lock();
        StatsSnapshot {
            sessions: self.session_count(),
            store_bytes: self.session_store_bytes(),
            region_hits: region.hits,
            region_misses: region.misses,
            region_evictions: region.evictions,
            region_splices: region.splices,
            region_bytes: region.bytes,
            kernel: gana_gnn::kernel::active().name().to_string(),
            queue_depth: self.queue_rx.len(),
            workers: shared.workers,
            intra_pool_size: intra.size,
            intra_busy: intra.busy,
            intra_queued: intra.queued,
            templates_pruned: shared.workspaces.iter().map(|w| w.templates_pruned()).sum(),
            workspace_high_water_bytes: shared
                .workspaces
                .iter()
                .map(|w| w.high_water_bytes())
                .max()
                .unwrap_or(0),
            snapshot_last_save_us: last_save
                .map(|t| t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0),
            snapshot_bytes: shared.persist.bytes.load(Ordering::Relaxed),
            warm_start: shared.persist.warm_start.load(Ordering::Relaxed),
            ..shared.metrics.snapshot()
        }
    }

    /// Assembles a point-in-time [`EngineSnapshot`] of the models, library,
    /// and region-cache contents — everything a fresh process needs for a
    /// byte-identical warm start.
    pub fn export_snapshot(&self) -> EngineSnapshot {
        let library = self
            .shared
            .pipelines
            .first()
            .map(|(_, p)| (*p.library_arc()).clone())
            .unwrap_or_default();
        EngineSnapshot {
            models: self
                .shared
                .pipelines
                .iter()
                .map(|(task, p)| ModelEntry {
                    task: *task,
                    class_names: p.class_names().to_vec(),
                    model: p.model().clone(),
                })
                .collect(),
            library,
            cache_entries: self.shared.region_cache.export_entries(),
        }
    }

    /// Writes an engine snapshot to the configured path (atomic
    /// write-rename). Returns the byte count written, or `Ok(None)` when no
    /// snapshot path was configured.
    pub fn save_snapshot(&self) -> Result<Option<u64>, PersistError> {
        let Some(path) = self.shared.persist.path.as_ref() else {
            return Ok(None);
        };
        let _writer = self.shared.persist.save_lock.lock();
        let bytes = self.export_snapshot().save(path)?;
        *self.shared.persist.last_save.lock() = Some(Instant::now());
        self.shared.persist.bytes.store(bytes, Ordering::Relaxed);
        Ok(Some(bytes))
    }

    /// True when this engine was booted from a snapshot via
    /// [`EngineBuilder::warm_from`].
    pub fn warm_start(&self) -> bool {
        self.shared.persist.warm_start.load(Ordering::Relaxed)
    }

    /// The intra-request thread budget each worker's pipeline runs with.
    pub fn intra_threads(&self) -> usize {
        self.shared.intra.threads()
    }

    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.queue_rx.len()
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting, let workers drain every queued
    /// job, and join the pool. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Dropping the senders disconnects the channel once drained; the
        // workers' requeue clone must go too or they would never exit.
        self.shared.requeue_tx.lock().take();
        self.submit_tx.lock().take();
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Drain-time snapshot: persist the final cache state exactly once so
        // the next boot warm-starts from where this process left off.
        if self.shared.persist.path.is_some()
            && !self.shared.persist.drain_saved.swap(true, Ordering::SeqCst)
        {
            if let Err(e) = self.save_snapshot() {
                eprintln!("[gana-serve] drain snapshot failed: {e}");
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, worker_id: usize, rx: &channel::Receiver<Job>) {
    let workspace = &shared.workspaces[worker_id];
    while let Ok(job) = rx.recv() {
        match job.work {
            Work::Annotate { task, .. } if shared.max_batch > 1 => {
                let (batch, stashed) = collect_batch(shared, rx, task, job);
                process_annotate_batch(shared, workspace, task, batch);
                // A non-batchable job drained while gathering runs next, in
                // its original queue position relative to this worker.
                if let Some(stashed) = stashed {
                    process(shared, workspace, stashed);
                }
            }
            _ => process(shared, workspace, job),
        }
    }
}

/// One annotate job admitted into a micro-batch. Deadline and cancellation
/// were checked when the job was drained from the queue (its pickup), so
/// only completion bookkeeping remains.
struct BatchJob {
    netlist: String,
    submitted_at: Instant,
    reply: channel::Sender<JobResult>,
}

/// A batch member that survived parse + prepare and awaits the fused
/// forward pass.
struct BatchItem {
    job: BatchJob,
    clean: Circuit,
    graph: CircuitGraph,
    sample: GraphSample,
}

/// Admits one drained job into the gathering batch, mirroring the pickup
/// semantics of [`process`]: queue wait is recorded now, and cancelled or
/// already-expired jobs are answered immediately instead of joining. A
/// job admitted here is committed — it runs even if the fused pass later
/// crosses its deadline, exactly like a serial job picked up in time.
fn admit_into_batch(
    shared: &Shared,
    job: Job,
    batch: &mut Vec<BatchJob>,
    earliest_deadline: &mut Option<Instant>,
) {
    let picked_up = Instant::now();
    let Job {
        work,
        submitted_at,
        deadline,
        cancelled,
        reply,
        ..
    } = job;
    shared.metrics.queue_wait.record(picked_up - submitted_at);
    if cancelled.load(Ordering::Relaxed) {
        shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Err(JobError::Cancelled));
        return;
    }
    if let Some(deadline) = deadline {
        if picked_up > deadline {
            shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Err(JobError::DeadlineExceeded));
            return;
        }
    }
    let Work::Annotate { netlist, .. } = work else {
        // The callers only admit annotate jobs; answer defensively rather
        // than panicking a worker.
        let _ = reply.send(Err(JobError::Internal(
            "non-annotate job routed into a batch".to_string(),
        )));
        return;
    };
    *earliest_deadline = match (*earliest_deadline, deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    batch.push(BatchJob {
        netlist,
        submitted_at,
        reply,
    });
}

/// Gathers queued annotate jobs for `task` into a micro-batch, starting
/// from `first`. Draining never blocks; once the queue runs dry, the
/// worker waits at most `batch_window_us` for stragglers — capped by the
/// earliest deadline among the gathered jobs, so batching can never hold a
/// job past its deadline. The first drained job that is *not* a same-task
/// annotate is returned unprocessed (`stashed`) and ends the gather.
fn collect_batch(
    shared: &Shared,
    rx: &channel::Receiver<Job>,
    task: Task,
    first: Job,
) -> (Vec<BatchJob>, Option<Job>) {
    let mut batch = Vec::new();
    let mut earliest_deadline = None;
    admit_into_batch(shared, first, &mut batch, &mut earliest_deadline);
    let window_us = shared.effective_batch_window_us(rx.len());
    let window_ends = Instant::now() + Duration::from_micros(window_us);
    let mut stashed = None;
    while batch.len() < shared.max_batch {
        let job = match rx.try_recv() {
            Ok(job) => job,
            Err(channel::TryRecvError::Disconnected) => break,
            Err(channel::TryRecvError::Empty) => {
                if window_us == 0 || batch.is_empty() {
                    break;
                }
                let now = Instant::now();
                let flush_at =
                    earliest_deadline.map_or(window_ends, |d: Instant| d.min(window_ends));
                if flush_at <= now {
                    if flush_at < window_ends {
                        shared
                            .metrics
                            .batch_flush_deadline
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                match rx.recv_timeout(flush_at - now) {
                    Ok(job) => job,
                    Err(channel::RecvTimeoutError::Timeout) => {
                        if flush_at < window_ends {
                            shared
                                .metrics
                                .batch_flush_deadline
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                    Err(channel::RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match &job.work {
            Work::Annotate { task: t, .. } if *t == task => {
                admit_into_batch(shared, job, &mut batch, &mut earliest_deadline);
            }
            _ => {
                stashed = Some(job);
                break;
            }
        }
    }
    (batch, stashed)
}

/// Runs one gathered micro-batch: per-job parse + prepare, a single fused
/// GCN forward pass across every prepared sample (byte-identical to
/// running them serially — enforced by `gana-core`'s batched-equivalence
/// suite), then per-job postprocessing, caching, and replies. If the
/// fused pass itself errors or panics, every member falls back to the
/// serial predict path so one poisoned sample cannot fail its batchmates.
/// The recognize histogram receives **one** sample covering the whole
/// fused stage, not one per member.
fn process_annotate_batch(
    shared: &Shared,
    workspace: &Arc<Workspace>,
    task: Task,
    batch: Vec<BatchJob>,
) {
    if batch.is_empty() {
        return;
    }
    let members = batch.len() as u64;
    let service_start = Instant::now();
    let Some(pipeline) = shared.pipeline(task) else {
        for job in batch {
            finish_job(
                shared,
                job.submitted_at,
                &job.reply,
                Err(JobError::UnsupportedTask(format!("{task:?}"))),
            );
        }
        return;
    };
    let pipeline = pipeline.clone().with_workspace(Arc::clone(workspace));

    let mut parsed = Vec::with_capacity(batch.len());
    for job in batch {
        match parse_flat(shared, &job.netlist) {
            Ok(flat) => parsed.push((job, flat)),
            Err(err) => finish_job(shared, job.submitted_at, &job.reply, Err(err)),
        }
    }

    let recognize_start = Instant::now();
    let mut items: Vec<BatchItem> = Vec::with_capacity(parsed.len());
    for (job, flat) in parsed {
        let p = &pipeline;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.prepare(&flat))) {
            Ok(Ok((clean, graph, sample))) => items.push(BatchItem {
                job,
                clean,
                graph,
                sample,
            }),
            Ok(Err(err)) => finish_job(
                shared,
                job.submitted_at,
                &job.reply,
                Err(JobError::Model(err.to_string())),
            ),
            Err(panic) => finish_job(
                shared,
                job.submitted_at,
                &job.reply,
                Err(JobError::Internal(panic_message(&panic))),
            ),
        }
    }
    if items.is_empty() {
        return;
    }

    shared.metrics.batch_sizes.record(items.len());
    if items.len() >= 2 {
        shared
            .metrics
            .batched_requests
            .fetch_add(items.len() as u64, Ordering::Relaxed);
    }

    let fused = {
        let refs: Vec<&GraphSample> = items.iter().map(|item| &item.sample).collect();
        let p = &pipeline;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.predict_samples(&refs)))
    };
    let predictions: Vec<Result<Vec<usize>, JobError>> = match fused {
        Ok(Ok(preds)) => preds.into_iter().map(Ok).collect(),
        _ => items
            .iter()
            .map(|item| {
                let p = &pipeline;
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    p.predict_sample(&item.sample)
                })) {
                    Ok(Ok(pred)) => Ok(pred),
                    Ok(Err(err)) => Err(JobError::Model(err.to_string())),
                    Err(panic) => Err(JobError::Internal(panic_message(&panic))),
                }
            })
            .collect(),
    };

    for (item, prediction) in items.into_iter().zip(predictions) {
        let BatchItem {
            job,
            clean,
            graph,
            sample: _,
        } = item;
        let result = match prediction {
            Ok(gcn_class) => {
                let p = &pipeline;
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    p.finish(clean, graph, gcn_class)
                })) {
                    Ok(design) => {
                        let annotation = Arc::new(Annotation::from_design(&design));
                        if let Some(cache) = &shared.cache {
                            cache.insert(cache_key(task, &job.netlist), Arc::clone(&annotation));
                        }
                        Ok(annotation)
                    }
                    Err(panic) => Err(JobError::Internal(panic_message(&panic))),
                }
            }
            Err(err) => Err(err),
        };
        finish_job(shared, job.submitted_at, &job.reply, result);
    }
    shared.metrics.recognize.record(recognize_start.elapsed());
    // The fused pass amortizes: per-job service cost is the batch elapsed
    // divided by its members.
    shared.note_service(service_start.elapsed(), members);
}

fn process(shared: &Shared, workspace: &Arc<Workspace>, job: Job) {
    // Fairness marker: resume a yielded session drain. It carries no reply
    // and records no per-job metrics — the queued updates it resumes own
    // those.
    if let Work::DrainSession { session } = job.work {
        resume_session_drain(shared, workspace, session);
        return;
    }
    let picked_up = Instant::now();
    let Job {
        work,
        submitted_at,
        deadline,
        cancelled,
        reply,
        ..
    } = job;
    shared.metrics.queue_wait.record(picked_up - submitted_at);

    if cancelled.load(Ordering::Relaxed) {
        shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Err(JobError::Cancelled));
        return;
    }
    if let Some(deadline) = deadline {
        if picked_up > deadline {
            shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Err(JobError::DeadlineExceeded));
            return;
        }
    }

    let service_start = Instant::now();
    let result = match work {
        Work::Annotate { netlist, task } => annotate(shared, workspace, &netlist, task),
        Work::OpenSession {
            session,
            netlist,
            task,
        } => open_session(shared, workspace, session, &netlist, task),
        Work::UpdateSession { session, netlist } => {
            // Same-session updates go through the per-session pending
            // queue; replies and completion metrics are handled per drained
            // update inside.
            enqueue_session_update(
                shared,
                workspace,
                session,
                PendingUpdate {
                    netlist,
                    submitted_at,
                    deadline,
                    cancelled,
                    reply,
                },
            );
            return;
        }
        Work::DrainSession { .. } => return, // handled before destructuring
        Work::Custom(work) => run_caught(work),
    };
    shared.note_service(service_start.elapsed(), 1);
    finish_job(shared, submitted_at, &reply, result);
}

/// Records completion metrics and delivers the result to the submitter
/// (who may have dropped the handle; that's fine).
fn finish_job(
    shared: &Shared,
    submitted_at: Instant,
    reply: &channel::Sender<JobResult>,
    result: JobResult,
) {
    match &result {
        Ok(_) => shared.metrics.completed.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared.metrics.failed.fetch_add(1, Ordering::Relaxed),
    };
    shared.metrics.total.record(submitted_at.elapsed());
    let _ = reply.send(result);
}

/// Runs fallible work, converting panics into a structured [`JobError`] so
/// one poisoned input cannot take a worker thread down.
fn run_caught(work: Box<dyn FnOnce() -> JobResult + Send>) -> JobResult {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(result) => result,
        Err(panic) => Err(JobError::Internal(panic_message(&panic))),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Parses and flattens SPICE text, recording the parse-stage latency.
fn parse_flat(shared: &Shared, netlist: &str) -> Result<Circuit, JobError> {
    let parse_start = Instant::now();
    let parsed = parse_library(netlist).and_then(|lib| flatten(&lib));
    shared.metrics.parse.record(parse_start.elapsed());
    parsed.map_err(|err| JobError::Parse(err.to_string()))
}

fn open_session(
    shared: &Shared,
    workspace: &Arc<Workspace>,
    session: u64,
    netlist: &str,
    task: Task,
) -> JobResult {
    let Some(incremental) = shared.incremental(task) else {
        return Err(JobError::UnsupportedTask(format!("{task:?}")));
    };
    // Cheap pre-check so a full store rejects before the cold annotate;
    // re-checked authoritatively at insert time below.
    if shared.sessions.lock().len() >= shared.max_sessions {
        return Err(JobError::SessionLimit(shared.max_sessions));
    }
    let flat = parse_flat(shared, netlist)?;

    let recognize_start = Instant::now();
    let incremental = incremental.clone().with_workspace(Arc::clone(workspace));
    let annotated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        incremental.annotate_full(&flat)
    }));
    shared.metrics.recognize.record(recognize_start.elapsed());

    let baseline = match annotated {
        Ok(Ok(baseline)) => baseline,
        Ok(Err(err)) => return Err(JobError::Model(err.to_string())),
        Err(panic) => return Err(JobError::Internal(panic_message(&panic))),
    };
    let annotation = Arc::new(Annotation::from_design(&baseline.design));
    {
        let mut sessions = shared.sessions.lock();
        if sessions.len() >= shared.max_sessions {
            return Err(JobError::SessionLimit(shared.max_sessions));
        }
        let store_bytes = baseline.store_bytes() as u64;
        sessions.insert(
            session,
            Arc::new(SessionSlot {
                state: Mutex::new(SessionState { task, baseline }),
                pending: Mutex::new(VecDeque::new()),
                draining: AtomicBool::new(false),
                store_bytes: AtomicU64::new(store_bytes),
            }),
        );
    }
    Ok(annotation)
}

/// Parks an update on its session's pending queue, then drains the queue
/// if no other worker currently is.
fn enqueue_session_update(
    shared: &Shared,
    workspace: &Arc<Workspace>,
    session: u64,
    update: PendingUpdate,
) {
    // Hold the store lock only to fetch the slot; distinct sessions drain
    // in parallel on different workers.
    let Some(slot) = shared.sessions.lock().get(&session).cloned() else {
        finish_job(
            shared,
            update.submitted_at,
            &update.reply,
            Err(JobError::UnknownSession(session)),
        );
        return;
    };
    slot.pending.lock().push_back(update);
    drain_session(shared, workspace, session, &slot);
}

/// Resumes a drain for a [`Work::DrainSession`] marker. A session closed
/// or drained in the meantime makes this a no-op.
fn resume_session_drain(shared: &Shared, workspace: &Arc<Workspace>, session: u64) {
    let Some(slot) = shared.sessions.lock().get(&session).cloned() else {
        return;
    };
    drain_session(shared, workspace, session, &slot);
}

/// Drains a session's pending updates if no other worker currently is.
///
/// Fairness: after [`SESSION_DRAIN_QUANTUM`] updates with more still
/// pending, the worker releases drain duty and re-enqueues a
/// [`Work::DrainSession`] marker at the *back* of the shared queue, so
/// jobs from other sessions that queued behind a one-session burst get a
/// worker before the burst finishes. Duty is released **before** the
/// marker is sent — the claiming worker's CAS must succeed — and if the
/// requeue fails (queue full, shutdown) this worker reclaims duty and
/// keeps draining inline rather than stranding the updates.
///
/// The outer CAS loop re-checks `pending` after every release so an
/// update that raced in during the handoff is never stranded: either this
/// worker reclaims duty or the racing pusher won it.
fn drain_session(shared: &Shared, workspace: &Arc<Workspace>, session: u64, slot: &SessionSlot) {
    while slot
        .draining
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        let mut drained = 0usize;
        loop {
            if drained >= SESSION_DRAIN_QUANTUM && !slot.pending.lock().is_empty() {
                slot.draining.store(false, Ordering::Release);
                if requeue_drain(shared, session) {
                    shared
                        .metrics
                        .session_yields
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if slot
                    .draining
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    return; // a racing pusher took over the drain
                }
                drained = 0;
            }
            let next = slot.pending.lock().pop_front();
            let Some(update) = next else { break };
            run_session_update(shared, workspace, slot, update);
            drained += 1;
        }
        slot.draining.store(false, Ordering::Release);
        if slot.pending.lock().is_empty() {
            break;
        }
    }
}

/// Re-enqueues a [`Work::DrainSession`] fairness marker at the back of the
/// shared queue. Returns false when the queue is full or the engine is
/// shutting down — the caller then keeps draining inline.
fn requeue_drain(shared: &Shared, session: u64) -> bool {
    let guard = shared.requeue_tx.lock();
    let Some(tx) = guard.as_ref() else {
        return false;
    };
    // The marker's reply channel is a dummy: nothing ever sends on it.
    let (reply, _rx) = channel::bounded(1);
    let job = Job {
        id: 0,
        work: Work::DrainSession { session },
        submitted_at: Instant::now(),
        deadline: None,
        cancelled: Arc::new(AtomicBool::new(false)),
        reply,
    };
    tx.try_send(job).is_ok()
}

/// Executes one drained update: parse outside the state lock, advance the
/// baseline inside it, and deliver the reply.
fn run_session_update(
    shared: &Shared,
    workspace: &Arc<Workspace>,
    slot: &SessionSlot,
    update: PendingUpdate,
) {
    let PendingUpdate {
        netlist,
        submitted_at,
        deadline,
        cancelled,
        reply,
    } = update;
    // Queued updates waited twice (shared queue, then session queue):
    // re-check the caller's deadline and cancellation before running.
    if cancelled.load(Ordering::Relaxed) {
        shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Err(JobError::Cancelled));
        return;
    }
    if let Some(deadline) = deadline {
        if Instant::now() > deadline {
            shared.metrics.expired.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Err(JobError::DeadlineExceeded));
            return;
        }
    }

    let service_start = Instant::now();
    let result = (|| {
        let flat = parse_flat(shared, &netlist)?;
        let mut state = slot.state.lock();
        let Some(incremental) = shared.incremental(state.task) else {
            return Err(JobError::UnsupportedTask(format!("{:?}", state.task)));
        };
        let incremental = incremental.clone().with_workspace(Arc::clone(workspace));
        let recognize_start = Instant::now();
        let updated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            incremental.update(&state.baseline, &flat)
        }));
        shared.metrics.recognize.record(recognize_start.elapsed());

        let next = match updated {
            Ok(Ok((next, _stats))) => next,
            Ok(Err(err)) => return Err(JobError::Model(err.to_string())),
            Err(panic) => return Err(JobError::Internal(panic_message(&panic))),
        };
        let annotation = Arc::new(Annotation::from_design(&next.design));
        slot.store_bytes
            .store(next.store_bytes() as u64, Ordering::Relaxed);
        state.baseline = next;
        Ok(annotation)
    })();
    shared.note_service(service_start.elapsed(), 1);
    finish_job(shared, submitted_at, &reply, result);
}

fn annotate(shared: &Shared, workspace: &Arc<Workspace>, netlist: &str, task: Task) -> JobResult {
    let Some(pipeline) = shared.pipeline(task) else {
        return Err(JobError::UnsupportedTask(format!("{task:?}")));
    };

    let parse_start = Instant::now();
    let parsed = parse_library(netlist).and_then(|lib| flatten(&lib));
    shared.metrics.parse.record(parse_start.elapsed());
    let flat = match parsed {
        Ok(flat) => flat,
        Err(err) => return Err(JobError::Parse(err.to_string())),
    };

    let recognize_start = Instant::now();
    let pipeline = pipeline.clone().with_workspace(Arc::clone(workspace));
    let recognized = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        pipeline.recognize(&flat)
    }));
    shared.metrics.recognize.record(recognize_start.elapsed());

    let design = match recognized {
        Ok(Ok(design)) => design,
        Ok(Err(err)) => return Err(JobError::Model(err.to_string())),
        Err(panic) => return Err(JobError::Internal(panic_message(&panic))),
    };
    let annotation = Arc::new(Annotation::from_design(&design));
    if let Some(cache) = &shared.cache {
        // Only successes are cached; errors must never poison the cache.
        cache.insert(cache_key(task, netlist), Arc::clone(&annotation));
    }
    Ok(annotation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana_gnn::{GcnConfig, GcnModel};
    use gana_primitives::PrimitiveLibrary;

    fn tiny_pipeline(task: Task) -> Pipeline {
        let config = GcnConfig {
            conv_channels: vec![4, 4],
            filter_order: 2,
            fc_dim: 8,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        };
        Pipeline::new(
            GcnModel::new(config).expect("valid"),
            vec!["ota".to_string(), "bias".to_string()],
            PrimitiveLibrary::standard().expect("parses"),
            task,
        )
    }

    const OTA: &str = "M0 o1 i1 t gnd! NMOS\nM1 o2 i2 t gnd! NMOS\nM2 t vb gnd! gnd! NMOS\nM3 vb vb gnd! gnd! NMOS\nR1 vdd! vb 10k\n";

    #[test]
    fn submit_and_wait_round_trip() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(2)
            .build();
        let handle = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted");
        let annotation = handle.wait().expect("annotates");
        assert_eq!(annotation.device_labels.len(), 5);
        assert!(annotation.device_labels.iter().any(|(d, _)| d == "M0"));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cache_answers_repeat_submissions() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        let first = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted")
            .wait();
        let second = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted")
            .wait();
        assert_eq!(first.expect("ok"), second.expect("ok"));
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn unsupported_task_is_structured_error() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        let err = engine
            .submit(JobRequest::new(OTA, Task::Rf))
            .expect("accepted")
            .wait()
            .expect_err("no RF pipeline");
        assert_eq!(err.code(), "task");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(2)
            .build();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                engine
                    .submit(JobRequest::new(OTA, Task::OtaBias))
                    .expect("accepted")
            })
            .collect();
        engine.shutdown();
        for handle in handles {
            handle.wait().expect("drained before exit");
        }
        assert!(matches!(
            engine.submit(JobRequest::new(OTA, Task::OtaBias)),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn session_limit_rejects_with_structured_error() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .max_sessions(1)
            .build();
        let (first, handle) = engine
            .open_session(JobRequest::new(OTA, Task::OtaBias))
            .expect("admits");
        handle.wait().expect("opens");
        let (_, handle) = engine
            .open_session(JobRequest::new(OTA, Task::OtaBias))
            .expect("admits");
        let err = handle.wait().expect_err("store is full");
        assert_eq!(err.code(), "session_limit");
        // Closing frees a slot for the next open.
        assert!(engine.close_session(first));
        let (_, handle) = engine
            .open_session(JobRequest::new(OTA, Task::OtaBias))
            .expect("admits");
        handle.wait().expect("opens after a close");
    }

    #[test]
    fn concurrent_same_session_updates_all_complete_in_order() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(2)
            .build();
        let (session, handle) = engine
            .open_session(JobRequest::new(OTA, Task::OtaBias))
            .expect("admits");
        handle.wait().expect("opens");
        // Burst of updates for one session: the per-session pending queue
        // must drain them all (on at most one worker at a time) and answer
        // every handle.
        let handles: Vec<_> = (0..6)
            .map(|_| engine.update_session(session, OTA).expect("admits"))
            .collect();
        for handle in handles {
            handle.wait().expect("update completes");
        }
        assert_eq!(engine.session_count(), 1);
        // The open session pins its baseline's unified store; the gauge
        // reports it and a close releases it.
        let stats = engine.stats();
        assert!(stats.store_bytes > 0, "{stats:?}");
        assert!(engine.close_session(session));
        assert_eq!(engine.stats().store_bytes, 0);
        engine.shutdown();
    }

    #[test]
    fn joint_budget_caps_workers_times_intra() {
        // For every (workers, cores, requested) combination, the effective
        // intra budget must keep workers × intra within the joint budget's
        // oversubscription ceiling — even when the caller asks for more —
        // and a request of 0 means 1, not an automatic budget.
        for cores in 1..=16 {
            for workers in 1..=16 {
                for requested in [0, 1, 3, 64] {
                    let intra = effective_intra_threads(workers, requested, cores);
                    assert!(intra >= 1);
                    assert!(
                        workers * intra < cores + workers,
                        "workers={workers} cores={cores} requested={requested} intra={intra}"
                    );
                    assert!(intra <= requested.max(1), "requests are a ceiling");
                }
            }
        }
        assert_eq!(EngineConfig::default().intra_threads, 1);
    }

    #[test]
    fn stats_expose_intra_pool_gauge() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(2)
            .intra_threads(3)
            .build();
        let budget = engine.intra_threads();
        assert!((1..=3).contains(&budget));
        let handle = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted");
        handle.wait().expect("annotates");
        let stats = engine.stats();
        assert_eq!(stats.intra_pool_size, budget);
        // Idle engine: the shared gauge must have settled back to zero.
        assert_eq!(stats.intra_busy, 0);
        assert_eq!(stats.intra_queued, 0);
        let wire = stats.to_wire();
        assert!(wire.contains("intra_pool_size="));
    }

    #[test]
    fn stats_expose_workspace_counters() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted")
            .wait()
            .expect("annotates");
        let stats = engine.stats();
        // The NMOS-only OTA cannot host PMOS/LC/RC templates, so the
        // prefilter must have skipped some; inference must have grown the
        // worker's dense buffers.
        assert!(stats.templates_pruned > 0, "{stats:?}");
        assert!(stats.workspace_high_water_bytes > 0, "{stats:?}");
        let wire = stats.to_wire();
        assert!(wire.contains("templates_pruned="));
        assert!(wire.contains("workspace_high_water_bytes="));
    }

    #[test]
    fn stats_report_the_active_kernel() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        let stats = engine.stats();
        assert!(
            ["avx2", "neon", "scalar"].contains(&stats.kernel.as_str()),
            "{stats:?}"
        );
        assert!(stats
            .to_wire()
            .contains(&format!("kernel={}", stats.kernel)));
    }

    /// Distinct netlists (one per `k`) so a burst is real work, not cache
    /// hits: the shared OTA core plus a load resistor whose value varies.
    fn ota_variant(k: usize) -> String {
        format!("{OTA}R2 vdd! o1 {}k\n", 10 + k)
    }

    #[test]
    fn batched_burst_matches_unbatched_annotations() {
        let plain = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .result_cache_capacity(0)
            .build();
        let batched = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .result_cache_capacity(0)
            .max_batch(4)
            .batch_window_us(500_000)
            .build();
        let netlists: Vec<String> = (0..4).map(ota_variant).collect();
        let expected: Vec<_> = netlists
            .iter()
            .map(|n| {
                plain
                    .submit(JobRequest::new(n.clone(), Task::OtaBias))
                    .expect("accepted")
                    .wait()
                    .expect("annotates")
            })
            .collect();
        let handles: Vec<_> = netlists
            .iter()
            .map(|n| {
                batched
                    .submit(JobRequest::new(n.clone(), Task::OtaBias))
                    .expect("accepted")
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&expected) {
            assert_eq!(&handle.wait().expect("annotates"), expected);
        }
        let stats = batched.stats();
        assert_eq!(stats.completed, 4);
        // The single worker held the first job for up to the 500 ms window,
        // so the burst must have fused at least once.
        assert!(stats.batched_requests >= 2, "{stats:?}");
        assert!(stats.batch_size_p95 >= 2, "{stats:?}");
    }

    #[test]
    fn partial_batch_flushes_at_member_deadline() {
        // A window far beyond the test budget: only the deadline cap can
        // flush the lone job in time.
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .result_cache_capacity(0)
            .max_batch(8)
            .batch_window_us(60_000_000)
            .build();
        let start = Instant::now();
        let handle = engine
            .submit(JobRequest::new(OTA, Task::OtaBias).with_deadline(Duration::from_millis(300)))
            .expect("accepted");
        handle
            .wait()
            .expect("flushed at the deadline, not the window");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline cap must beat the window"
        );
        let stats = engine.stats();
        assert_eq!(stats.completed, 1);
        assert!(stats.batch_flush_deadline >= 1, "{stats:?}");
    }

    #[test]
    fn batching_is_off_by_default() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .result_cache_capacity(0)
            .build();
        let handles: Vec<_> = (0..3)
            .map(|k| {
                engine
                    .submit(JobRequest::new(ota_variant(k), Task::OtaBias))
                    .expect("accepted")
            })
            .collect();
        for handle in handles {
            handle.wait().expect("annotates");
        }
        let stats = engine.stats();
        assert_eq!(stats.batched_requests, 0);
        assert_eq!(stats.batch_size_p50, 0);
        assert_eq!(stats.batch_flush_deadline, 0);
    }

    #[test]
    fn deadline_aware_shed_returns_overloaded() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .result_cache_capacity(0)
            .build();
        // Warm the service EMA with a measurably slow job.
        engine
            .submit_custom(Box::new(|| {
                std::thread::sleep(Duration::from_millis(40));
                Err(JobError::Internal("timing probe".to_string()))
            }))
            .expect("accepted")
            .wait()
            .expect_err("probe result");
        // Occupy the lone worker behind a gate, then pile up queue depth.
        let (gate_tx, gate_rx) = channel::bounded::<()>(1);
        let busy = engine
            .submit_custom(Box::new(move || {
                let _ = gate_rx.recv();
                Err(JobError::Internal("gated".to_string()))
            }))
            .expect("accepted");
        let queued: Vec<_> = (0..3)
            .map(|_| {
                engine
                    .submit_custom(Box::new(|| Err(JobError::Internal("filler".to_string()))))
                    .expect("accepted")
            })
            .collect();
        // ~40 ms EMA × 3 queued on 1 worker ≫ a 1 ms deadline: shed.
        let err = engine
            .submit(JobRequest::new(OTA, Task::OtaBias).with_deadline(Duration::from_millis(1)))
            .expect_err("sheds before queueing");
        assert!(
            matches!(err, SubmitError::Overloaded { retry_after_ms } if retry_after_ms >= 1),
            "{err:?}"
        );
        // A deadline-less submission still queues: shedding never touches
        // the plain backpressure path.
        let no_deadline = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("deadline-less submissions bypass the shed");
        assert_eq!(engine.stats().shed, 1);
        let _ = gate_tx.send(());
        let _ = busy.wait();
        for handle in queued {
            let _ = handle.wait();
        }
        no_deadline.wait().expect("annotates once the queue drains");
        engine.shutdown();
    }

    #[test]
    fn session_drain_yields_after_quantum() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        let (session, handle) = engine
            .open_session(JobRequest::new(OTA, Task::OtaBias))
            .expect("admits");
        handle.wait().expect("opens");
        let slot = engine
            .shared
            .sessions
            .lock()
            .get(&session)
            .cloned()
            .expect("open slot");
        // Stage a burst longer than two quanta directly on the pending
        // queue, then drain from this thread: the drain must yield via a
        // DrainSession marker (resumed by the engine's worker) and still
        // deliver every reply.
        let n = SESSION_DRAIN_QUANTUM * 2 + 1;
        let mut replies = Vec::new();
        for _ in 0..n {
            let (tx, rx) = channel::bounded(1);
            slot.pending.lock().push_back(PendingUpdate {
                netlist: OTA.to_string(),
                submitted_at: Instant::now(),
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply: tx,
            });
            replies.push(rx);
        }
        drain_session(&engine.shared, &engine.shared.workspaces[0], session, &slot);
        for rx in replies {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("reply delivered")
                .expect("update succeeds");
        }
        assert!(engine.stats().session_yields >= 1);
        engine.shutdown();
    }

    #[test]
    fn auto_batch_window_tracks_traffic() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .max_batch(8)
            .batch_window_auto()
            .build();
        let shared = &engine.shared;
        // No traffic history yet: flush immediately.
        assert_eq!(shared.effective_batch_window_us(0), 0);
        shared.arrival_gap_ns.store(100_000, Ordering::Relaxed); // 100 µs gaps
        shared.service_ema_ns.store(4_000_000, Ordering::Relaxed); // 4 ms svc
                                                                   // 3 queued + the batch head = 4 of 8: wait ≈ 4 missing × 100 µs.
        assert_eq!(shared.effective_batch_window_us(3), 400);
        // Slow arrivals: capped at half the mean service time.
        shared.arrival_gap_ns.store(3_000_000, Ordering::Relaxed);
        assert_eq!(shared.effective_batch_window_us(3), 2_000);
        // Pathological service EMA: the hard 5 ms ceiling holds.
        shared
            .service_ema_ns
            .store(1_000_000_000, Ordering::Relaxed);
        assert_eq!(shared.effective_batch_window_us(0), 5_000);
        // A full batch already queued flushes immediately.
        assert_eq!(shared.effective_batch_window_us(7), 0);
        // Fixed mode ignores the EMAs entirely.
        let fixed = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .max_batch(8)
            .batch_window_us(250)
            .build();
        assert_eq!(fixed.shared.effective_batch_window_us(0), 250);
    }

    #[test]
    fn worker_survives_panicking_job() {
        let engine = Engine::builder()
            .pipeline(tiny_pipeline(Task::OtaBias))
            .workers(1)
            .build();
        let boom = engine
            .submit_custom(Box::new(|| panic!("injected failure")))
            .expect("accepted");
        let err = boom.wait().expect_err("panic surfaces as error");
        assert_eq!(err.code(), "internal");
        // The single worker must still be alive to serve this:
        let ok = engine
            .submit(JobRequest::new(OTA, Task::OtaBias))
            .expect("accepted");
        ok.wait().expect("worker survived");
    }
}
