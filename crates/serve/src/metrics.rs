//! Lock-free service metrics: counters plus per-stage latency histograms.
//!
//! Latencies land in an HDR-style log-linear histogram: microsecond values
//! bucket by their power-of-two octave, and each octave splits into
//! `2^SUB_BITS` linear sub-buckets. A histogram is therefore a fixed array
//! of atomics — recording is wait-free, a quantile read is a single sweep,
//! and the reported quantile is the bucket's upper bound, so it can
//! overshoot the true value by at most `1/2^SUB_BITS` (~3.1%) relative
//! error. Snapshots are sparse, mergeable across shards and connections,
//! and survive the stats wire format, which is what lets `fleetstats`
//! aggregate real fleet percentiles instead of taking the worst shard.

use gana_incremental::RegionCacheStats;
use gana_par::GaugeSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error
/// at `1/2^SUB_BITS` (3.125%). Values below `2^SUB_BITS` µs are exact.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Buckets covering the full `u64` microsecond range: one exact region of
/// `SUB_COUNT` single-value buckets, then `SUB_COUNT` per octave.
const HIST_BUCKETS: usize = (SUB_COUNT as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index for a microsecond value. Total order preserving: a larger
/// value never lands in a smaller bucket.
fn bucket_index(us: u64) -> usize {
    if us < SUB_COUNT {
        return us as usize;
    }
    let octave = 63 - u64::from(us.leading_zeros());
    let sub = (us >> (octave - u64::from(SUB_BITS))) - SUB_COUNT;
    ((octave - u64::from(SUB_BITS) + 1) * SUB_COUNT + sub) as usize
}

/// Inclusive upper bound of a bucket — the value quantiles report. For the
/// exact region this is the value itself; above it, at most `1/SUB_COUNT`
/// over the true sample.
fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    let group = index / SUB_COUNT;
    let sub = index % SUB_COUNT;
    if group == 0 {
        sub
    } else {
        // Subtract before adding: the top bucket's bound is exactly
        // `u64::MAX`, so `+ (1 << scale) - 1` in that order would overflow.
        let scale = group - 1;
        ((SUB_COUNT + sub) << scale) - 1 + (1u64 << scale)
    }
}

/// Wait-free HDR-style latency histogram (log octaves × linear
/// sub-buckets, bounded relative error; see the module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    total_us: AtomicU64,
    samples: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us
            .load(Ordering::Relaxed)
            .checked_div(self.samples())
            .unwrap_or(0)
    }

    /// Approximate quantile (`q` in `[0,1]`) in microseconds: the upper
    /// bound of the bucket containing the q-th sample (within ~3.1% above
    /// the true value).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.samples();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_value(bucket);
            }
        }
        bucket_value(HIST_BUCKETS - 1)
    }

    /// Sparse point-in-time copy, mergeable and wire-encodable.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut samples = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if count > 0 {
                buckets.push((bucket as u32, count));
                samples += count;
            }
        }
        HistogramSnapshot {
            buckets,
            samples,
            total_us: self.total_us.load(Ordering::Relaxed),
        }
    }
}

/// Immutable sparse histogram: the nonzero buckets of a
/// [`LatencyHistogram`] at one instant. Merging two snapshots yields
/// exactly the histogram of the concatenated samples, so fleet and
/// cross-connection percentiles are real percentiles, not maxima.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` pairs, ascending by index, counts nonzero.
    buckets: Vec<(u32, u64)>,
    samples: u64,
    total_us: u64,
}

impl HistogramSnapshot {
    /// Number of samples across all buckets.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.samples).unwrap_or(0)
    }

    /// Same quantile rule as [`LatencyHistogram::quantile_us`].
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(bucket, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return bucket_value(bucket as usize);
            }
        }
        bucket_value(HIST_BUCKETS - 1)
    }

    /// Folds `other` into `self`: bucket-wise sum, exactly the histogram of
    /// the concatenated sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, ac)), Some(&&(bi, bc))) => {
                    if ai < bi {
                        merged.push((ai, ac));
                        a.next();
                    } else if bi < ai {
                        merged.push((bi, bc));
                        b.next();
                    } else {
                        merged.push((ai, ac + bc));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.samples += other.samples;
        self.total_us += other.total_us;
    }

    /// Compact single-token wire form: `-` when empty, otherwise
    /// `total_us;idx:count;idx:count` (no whitespace, so it fits the
    /// `key=value` stats line unescaped).
    pub fn encode(&self) -> String {
        if self.samples == 0 {
            return "-".to_string();
        }
        let mut out = self.total_us.to_string();
        for &(bucket, count) in &self.buckets {
            out.push(';');
            out.push_str(&bucket.to_string());
            out.push(':');
            out.push_str(&count.to_string());
        }
        out
    }

    /// Parses [`HistogramSnapshot::encode`] output. `None` on malformed
    /// input or out-of-range bucket indexes.
    pub fn decode(text: &str) -> Option<HistogramSnapshot> {
        if text == "-" {
            return Some(HistogramSnapshot::default());
        }
        let mut parts = text.split(';');
        let total_us: u64 = parts.next()?.parse().ok()?;
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        let mut samples = 0;
        for pair in parts {
            let (bucket, count) = pair.split_once(':')?;
            let bucket: u32 = bucket.parse().ok()?;
            let count: u64 = count.parse().ok()?;
            if bucket as usize >= HIST_BUCKETS || count == 0 {
                return None;
            }
            buckets.push((bucket, count));
            samples += count;
        }
        if samples == 0 {
            return None;
        }
        buckets.sort_unstable_by_key(|&(bucket, _)| bucket);
        buckets.dedup_by(|&mut (b, c), &mut (prev_b, ref mut prev_c)| {
            if b == prev_b {
                *prev_c += c;
                true
            } else {
                false
            }
        });
        Some(HistogramSnapshot {
            buckets,
            samples,
            total_us,
        })
    }
}

/// Exact micro-batch sizes land in their own slot up to this cap (larger
/// batches clamp into the last slot). Serving batches are single-digit to
/// low-double-digit, so exact small buckets beat the latency histogram's
/// bounded-error buckets here.
const SIZE_BUCKETS: usize = 65;

/// Wait-free histogram over exact small integer sizes (micro-batch sizes).
#[derive(Debug)]
pub struct SizeHistogram {
    counts: [AtomicU64; SIZE_BUCKETS],
    samples: AtomicU64,
}

impl Default for SizeHistogram {
    fn default() -> SizeHistogram {
        SizeHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: AtomicU64::new(0),
        }
    }
}

impl SizeHistogram {
    /// Records one size observation.
    pub fn record(&self, size: usize) {
        self.counts[size.min(SIZE_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Exact quantile (`q` in `[0,1]`): the size of the q-th observation
    /// (0 when empty; sizes above the cap read as the cap).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.samples();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (size, count) in self.counts.iter().enumerate() {
            seen += count.load(Ordering::Relaxed);
            if seen >= rank {
                return size as u64;
            }
        }
        (SIZE_BUCKETS - 1) as u64
    }
}

/// All counters and histograms of one [`Engine`](crate::Engine).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs accepted into the queue.
    pub submitted: AtomicU64,
    /// Jobs finished successfully.
    pub completed: AtomicU64,
    /// Jobs finished with a structured error.
    pub failed: AtomicU64,
    /// Submissions rejected with `QueueFull`.
    pub rejected: AtomicU64,
    /// Submissions shed before queueing because the estimated queue wait
    /// already exceeded their deadline (`overloaded`).
    pub shed: AtomicU64,
    /// Jobs answered from the result cache without touching a worker.
    pub cache_hits: AtomicU64,
    /// Jobs dropped before processing (deadline passed or cancelled).
    pub expired: AtomicU64,
    /// Time from submission to a worker picking the job up.
    pub queue_wait: LatencyHistogram,
    /// SPICE parse + flatten stage.
    pub parse: LatencyHistogram,
    /// GCN + postprocessing recognition stage.
    pub recognize: LatencyHistogram,
    /// Submission to reply, including queueing.
    pub total: LatencyHistogram,
    /// Jobs whose GCN forward ran inside a fused micro-batch of ≥ 2.
    pub batched_requests: AtomicU64,
    /// Fused forwards run by the batcher, by batch size.
    pub batch_sizes: SizeHistogram,
    /// Batch flushes forced by a member's deadline before the batch window
    /// elapsed or the batch filled.
    pub batch_flush_deadline: AtomicU64,
    /// Session drains that handed duty back to the shared queue after the
    /// fairness quantum, so other sessions' jobs could interleave.
    pub session_yields: AtomicU64,
}

impl Metrics {
    /// Immutable snapshot (counters may lag each other by in-flight jobs).
    /// `sessions` and `region` come from the engine's session store and
    /// shared region cache; `intra` from the shared intra-request pool
    /// gauge; `workspace` aggregates the per-worker annotation workspaces;
    /// `kernel` from the sparse kernel dispatcher.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        sessions: usize,
        store_bytes: u64,
        region: RegionCacheStats,
        intra: GaugeSnapshot,
        workspace: WorkspaceStats,
        persistence: SnapshotGauge,
        kernel: &str,
    ) -> StatsSnapshot {
        let queue_wait = self.queue_wait.snapshot();
        let parse = self.parse.snapshot();
        let recognize = self.recognize.snapshot();
        let total = self.total.snapshot();
        StatsSnapshot {
            sessions,
            store_bytes,
            snapshot_last_save_us: persistence.last_save_us,
            snapshot_bytes: persistence.bytes,
            warm_start: persistence.warm_start,
            intra_pool_size: intra.size,
            intra_busy: intra.busy,
            intra_queued: intra.queued,
            templates_pruned: workspace.templates_pruned,
            workspace_high_water_bytes: workspace.high_water_bytes,
            region_hits: region.hits,
            region_misses: region.misses,
            region_evictions: region.evictions,
            region_splices: region.splices,
            region_bytes: region.bytes,
            kernel: kernel.to_string(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            queue_depth,
            workers,
            queue_wait_p50_us: queue_wait.quantile_us(0.5),
            queue_wait_p95_us: queue_wait.quantile_us(0.95),
            queue_wait_p99_us: queue_wait.quantile_us(0.99),
            parse_p50_us: parse.quantile_us(0.5),
            parse_p95_us: parse.quantile_us(0.95),
            parse_p99_us: parse.quantile_us(0.99),
            recognize_p50_us: recognize.quantile_us(0.5),
            recognize_p95_us: recognize.quantile_us(0.95),
            recognize_p99_us: recognize.quantile_us(0.99),
            total_p50_us: total.quantile_us(0.5),
            total_p95_us: total.quantile_us(0.95),
            total_p99_us: total.quantile_us(0.99),
            total_p999_us: total.quantile_us(0.999),
            total_mean_us: total.mean_us(),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batch_size_p50: self.batch_sizes.quantile(0.5),
            batch_size_p95: self.batch_sizes.quantile(0.95),
            batch_flush_deadline: self.batch_flush_deadline.load(Ordering::Relaxed),
            session_yields: self.session_yields.load(Ordering::Relaxed),
            queue_wait_hist: queue_wait,
            parse_hist: parse,
            recognize_hist: recognize,
            total_hist: total,
        }
    }
}

/// Point-in-time persistence state, computed by the engine at stats time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotGauge {
    /// Microseconds since the last successful snapshot save (`0` when no
    /// snapshot has been written by this process yet).
    pub last_save_us: u64,
    /// Size in bytes of the last written snapshot (`0` when none).
    pub bytes: u64,
    /// True when the engine was restored from a snapshot at boot.
    pub warm_start: bool,
}

/// Aggregate view of the per-worker annotation workspaces, computed by the
/// engine at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Templates skipped by the VF2 prefilter, summed over all workers.
    pub templates_pruned: u64,
    /// Largest steady-state inference-buffer footprint (bytes) any single
    /// worker has reached.
    pub high_water_bytes: u64,
}

/// Point-in-time view of the engine counters, used by the `stats` request
/// and the periodic log line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with a structured error.
    pub failed: u64,
    /// Submissions rejected with `QueueFull`.
    pub rejected: u64,
    /// Submissions shed pre-queue by deadline-aware overload protection.
    pub shed: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs dropped before processing (deadline/cancel).
    pub expired: u64,
    /// Open incremental sessions.
    pub sessions: usize,
    /// Heap bytes pinned by open sessions' unified circuit stores (graph,
    /// CCC, coarsening, and hierarchy sections).
    pub store_bytes: u64,
    /// Region-cache (sub-block VF2) lookups answered from the cache.
    pub region_hits: u64,
    /// Region-cache lookups that ran the matcher.
    pub region_misses: u64,
    /// Region-cache entries evicted to stay under the byte budget.
    pub region_evictions: u64,
    /// Sub-block results spliced from prior session state.
    pub region_splices: u64,
    /// Bytes currently held by the region cache.
    pub region_bytes: u64,
    /// Active spmm/axpy kernel variant (`avx2`, `neon`, or `scalar`).
    pub kernel: String,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Per-worker intra-request thread budget.
    pub intra_pool_size: usize,
    /// Intra-request pool workers currently executing items (all workers).
    pub intra_busy: usize,
    /// Intra-request items claimed by no worker yet (all workers).
    pub intra_queued: usize,
    /// Templates skipped by the VF2 candidate prefilter (all workers).
    pub templates_pruned: u64,
    /// Peak per-worker annotation-workspace footprint in bytes.
    pub workspace_high_water_bytes: u64,
    /// p50 queue wait (µs).
    pub queue_wait_p50_us: u64,
    /// p95 queue wait (µs).
    pub queue_wait_p95_us: u64,
    /// p99 queue wait (µs).
    pub queue_wait_p99_us: u64,
    /// p50 parse stage (µs).
    pub parse_p50_us: u64,
    /// p95 parse stage (µs).
    pub parse_p95_us: u64,
    /// p99 parse stage (µs).
    pub parse_p99_us: u64,
    /// p50 recognize stage (µs).
    pub recognize_p50_us: u64,
    /// p95 recognize stage (µs).
    pub recognize_p95_us: u64,
    /// p99 recognize stage (µs).
    pub recognize_p99_us: u64,
    /// p50 end-to-end (µs).
    pub total_p50_us: u64,
    /// p95 end-to-end (µs).
    pub total_p95_us: u64,
    /// p99 end-to-end (µs).
    pub total_p99_us: u64,
    /// p99.9 end-to-end (µs).
    pub total_p999_us: u64,
    /// Mean end-to-end (µs).
    pub total_mean_us: u64,
    /// Jobs served from inside a fused micro-batch of ≥ 2.
    pub batched_requests: u64,
    /// Median fused-batch size (exact).
    pub batch_size_p50: u64,
    /// p95 fused-batch size (exact).
    pub batch_size_p95: u64,
    /// Batch flushes forced early by a member's deadline.
    pub batch_flush_deadline: u64,
    /// Session drains yielded back to the queue for fairness.
    pub session_yields: u64,
    /// Microseconds since the last successful snapshot save (`0` = never).
    pub snapshot_last_save_us: u64,
    /// Size in bytes of the last written snapshot (`0` = none).
    pub snapshot_bytes: u64,
    /// True when the engine warm-started from a snapshot at boot.
    pub warm_start: bool,
    /// Full queue-wait distribution (sparse, mergeable).
    pub queue_wait_hist: HistogramSnapshot,
    /// Full parse-stage distribution.
    pub parse_hist: HistogramSnapshot,
    /// Full recognize-stage distribution.
    pub recognize_hist: HistogramSnapshot,
    /// Full end-to-end distribution.
    pub total_hist: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Serializes as the `key=value` pairs used on the wire.
    pub fn to_wire(&self) -> String {
        format!(
            "submitted={} completed={} failed={} rejected={} shed={} cache_hits={} expired={} \
             sessions={} store_bytes={} region_hits={} region_misses={} region_evictions={} \
             region_splices={} region_bytes={} kernel={} \
             queue_depth={} workers={} intra_pool_size={} intra_busy={} intra_queued={} \
             templates_pruned={} workspace_high_water_bytes={} \
             batched_requests={} batch_size_p50={} batch_size_p95={} batch_flush_deadline={} \
             session_yields={} \
             snapshot_last_save_us={} snapshot_bytes={} warm_start={} \
             queue_wait_p50_us={} queue_wait_p95_us={} queue_wait_p99_us={} \
             parse_p50_us={} parse_p95_us={} parse_p99_us={} \
             recognize_p50_us={} recognize_p95_us={} recognize_p99_us={} \
             total_p50_us={} total_p95_us={} total_p99_us={} total_p999_us={} total_mean_us={} \
             queue_wait_hist={} parse_hist={} recognize_hist={} total_hist={}",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.shed,
            self.cache_hits,
            self.expired,
            self.sessions,
            self.store_bytes,
            self.region_hits,
            self.region_misses,
            self.region_evictions,
            self.region_splices,
            self.region_bytes,
            self.kernel,
            self.queue_depth,
            self.workers,
            self.intra_pool_size,
            self.intra_busy,
            self.intra_queued,
            self.templates_pruned,
            self.workspace_high_water_bytes,
            self.batched_requests,
            self.batch_size_p50,
            self.batch_size_p95,
            self.batch_flush_deadline,
            self.session_yields,
            self.snapshot_last_save_us,
            self.snapshot_bytes,
            u64::from(self.warm_start),
            self.queue_wait_p50_us,
            self.queue_wait_p95_us,
            self.queue_wait_p99_us,
            self.parse_p50_us,
            self.parse_p95_us,
            self.parse_p99_us,
            self.recognize_p50_us,
            self.recognize_p95_us,
            self.recognize_p99_us,
            self.total_p50_us,
            self.total_p95_us,
            self.total_p99_us,
            self.total_p999_us,
            self.total_mean_us,
            self.queue_wait_hist.encode(),
            self.parse_hist.encode(),
            self.recognize_hist.encode(),
            self.total_hist.encode(),
        )
    }

    /// Folds per-shard snapshots into one fleet view. Counters and gauges
    /// that add up across processes (job counts, cache traffic, queue
    /// depth, worker/session totals) are summed; per-stage histograms are
    /// merged bucket-wise and every percentile field is recomputed from
    /// the merged distribution — a real fleet percentile. A stage whose
    /// merged histogram is empty (e.g. snapshots from a build that did not
    /// send histograms) falls back to the worst shard (max), as do
    /// non-mergeable high-water figures; `warm_start` is true only when
    /// every shard warm-started. Aggregating nothing yields the default
    /// (all-zero) snapshot.
    pub fn aggregate<'a>(shards: impl IntoIterator<Item = &'a StatsSnapshot>) -> StatsSnapshot {
        let mut fleet = StatsSnapshot::default();
        let mut any = false;
        for shard in shards {
            fleet.submitted += shard.submitted;
            fleet.completed += shard.completed;
            fleet.failed += shard.failed;
            fleet.rejected += shard.rejected;
            fleet.shed += shard.shed;
            fleet.cache_hits += shard.cache_hits;
            fleet.expired += shard.expired;
            fleet.sessions += shard.sessions;
            fleet.store_bytes += shard.store_bytes;
            fleet.region_hits += shard.region_hits;
            fleet.region_misses += shard.region_misses;
            fleet.region_evictions += shard.region_evictions;
            fleet.region_splices += shard.region_splices;
            fleet.region_bytes += shard.region_bytes;
            // One dispatch decision per process: shards normally agree, and
            // a split fleet (mid-rollout, mixed hardware) reads `mixed`.
            if !any {
                fleet.kernel = shard.kernel.clone();
            } else if fleet.kernel != shard.kernel {
                fleet.kernel = "mixed".to_string();
            }
            fleet.queue_depth += shard.queue_depth;
            fleet.workers += shard.workers;
            fleet.intra_pool_size += shard.intra_pool_size;
            fleet.intra_busy += shard.intra_busy;
            fleet.intra_queued += shard.intra_queued;
            fleet.templates_pruned += shard.templates_pruned;
            fleet.batched_requests += shard.batched_requests;
            fleet.batch_flush_deadline += shard.batch_flush_deadline;
            fleet.session_yields += shard.session_yields;
            fleet.snapshot_bytes += shard.snapshot_bytes;
            fleet.workspace_high_water_bytes = fleet
                .workspace_high_water_bytes
                .max(shard.workspace_high_water_bytes);
            fleet.queue_wait_p50_us = fleet.queue_wait_p50_us.max(shard.queue_wait_p50_us);
            fleet.queue_wait_p95_us = fleet.queue_wait_p95_us.max(shard.queue_wait_p95_us);
            fleet.queue_wait_p99_us = fleet.queue_wait_p99_us.max(shard.queue_wait_p99_us);
            fleet.parse_p50_us = fleet.parse_p50_us.max(shard.parse_p50_us);
            fleet.parse_p95_us = fleet.parse_p95_us.max(shard.parse_p95_us);
            fleet.parse_p99_us = fleet.parse_p99_us.max(shard.parse_p99_us);
            fleet.recognize_p50_us = fleet.recognize_p50_us.max(shard.recognize_p50_us);
            fleet.recognize_p95_us = fleet.recognize_p95_us.max(shard.recognize_p95_us);
            fleet.recognize_p99_us = fleet.recognize_p99_us.max(shard.recognize_p99_us);
            fleet.total_p50_us = fleet.total_p50_us.max(shard.total_p50_us);
            fleet.total_p95_us = fleet.total_p95_us.max(shard.total_p95_us);
            fleet.total_p99_us = fleet.total_p99_us.max(shard.total_p99_us);
            fleet.total_p999_us = fleet.total_p999_us.max(shard.total_p999_us);
            fleet.total_mean_us = fleet.total_mean_us.max(shard.total_mean_us);
            fleet.batch_size_p50 = fleet.batch_size_p50.max(shard.batch_size_p50);
            fleet.batch_size_p95 = fleet.batch_size_p95.max(shard.batch_size_p95);
            // Oldest save is the fleet's staleness bound.
            fleet.snapshot_last_save_us =
                fleet.snapshot_last_save_us.max(shard.snapshot_last_save_us);
            fleet.warm_start = if any {
                fleet.warm_start && shard.warm_start
            } else {
                shard.warm_start
            };
            fleet.queue_wait_hist.merge(&shard.queue_wait_hist);
            fleet.parse_hist.merge(&shard.parse_hist);
            fleet.recognize_hist.merge(&shard.recognize_hist);
            fleet.total_hist.merge(&shard.total_hist);
            any = true;
        }
        if fleet.queue_wait_hist.samples() > 0 {
            fleet.queue_wait_p50_us = fleet.queue_wait_hist.quantile_us(0.5);
            fleet.queue_wait_p95_us = fleet.queue_wait_hist.quantile_us(0.95);
            fleet.queue_wait_p99_us = fleet.queue_wait_hist.quantile_us(0.99);
        }
        if fleet.parse_hist.samples() > 0 {
            fleet.parse_p50_us = fleet.parse_hist.quantile_us(0.5);
            fleet.parse_p95_us = fleet.parse_hist.quantile_us(0.95);
            fleet.parse_p99_us = fleet.parse_hist.quantile_us(0.99);
        }
        if fleet.recognize_hist.samples() > 0 {
            fleet.recognize_p50_us = fleet.recognize_hist.quantile_us(0.5);
            fleet.recognize_p95_us = fleet.recognize_hist.quantile_us(0.95);
            fleet.recognize_p99_us = fleet.recognize_hist.quantile_us(0.99);
        }
        if fleet.total_hist.samples() > 0 {
            fleet.total_p50_us = fleet.total_hist.quantile_us(0.5);
            fleet.total_p95_us = fleet.total_hist.quantile_us(0.95);
            fleet.total_p99_us = fleet.total_hist.quantile_us(0.99);
            fleet.total_p999_us = fleet.total_hist.quantile_us(0.999);
            fleet.total_mean_us = fleet.total_hist.mean_us();
        }
        fleet
    }

    /// Parses the wire form back into a snapshot (used by `gana submit`).
    pub fn from_wire(text: &str) -> Option<StatsSnapshot> {
        let mut snap = StatsSnapshot::default();
        for pair in text.split_whitespace() {
            let (key, value) = pair.split_once('=')?;
            match key {
                "kernel" => snap.kernel = value.to_string(),
                "queue_wait_hist" => snap.queue_wait_hist = HistogramSnapshot::decode(value)?,
                "parse_hist" => snap.parse_hist = HistogramSnapshot::decode(value)?,
                "recognize_hist" => snap.recognize_hist = HistogramSnapshot::decode(value)?,
                "total_hist" => snap.total_hist = HistogramSnapshot::decode(value)?,
                _ => {
                    let n: u64 = value.parse().ok()?;
                    match key {
                        "submitted" => snap.submitted = n,
                        "completed" => snap.completed = n,
                        "failed" => snap.failed = n,
                        "rejected" => snap.rejected = n,
                        "shed" => snap.shed = n,
                        "cache_hits" => snap.cache_hits = n,
                        "expired" => snap.expired = n,
                        "sessions" => snap.sessions = n as usize,
                        "store_bytes" => snap.store_bytes = n,
                        "region_hits" => snap.region_hits = n,
                        "region_misses" => snap.region_misses = n,
                        "region_evictions" => snap.region_evictions = n,
                        "region_splices" => snap.region_splices = n,
                        "region_bytes" => snap.region_bytes = n,
                        "queue_depth" => snap.queue_depth = n as usize,
                        "workers" => snap.workers = n as usize,
                        "intra_pool_size" => snap.intra_pool_size = n as usize,
                        "intra_busy" => snap.intra_busy = n as usize,
                        "intra_queued" => snap.intra_queued = n as usize,
                        "templates_pruned" => snap.templates_pruned = n,
                        "workspace_high_water_bytes" => snap.workspace_high_water_bytes = n,
                        "queue_wait_p50_us" => snap.queue_wait_p50_us = n,
                        "queue_wait_p95_us" => snap.queue_wait_p95_us = n,
                        "queue_wait_p99_us" => snap.queue_wait_p99_us = n,
                        "parse_p50_us" => snap.parse_p50_us = n,
                        "parse_p95_us" => snap.parse_p95_us = n,
                        "parse_p99_us" => snap.parse_p99_us = n,
                        "recognize_p50_us" => snap.recognize_p50_us = n,
                        "recognize_p95_us" => snap.recognize_p95_us = n,
                        "recognize_p99_us" => snap.recognize_p99_us = n,
                        "total_p50_us" => snap.total_p50_us = n,
                        "total_p95_us" => snap.total_p95_us = n,
                        "total_p99_us" => snap.total_p99_us = n,
                        "total_p999_us" => snap.total_p999_us = n,
                        "total_mean_us" => snap.total_mean_us = n,
                        "batched_requests" => snap.batched_requests = n,
                        "batch_size_p50" => snap.batch_size_p50 = n,
                        "batch_size_p95" => snap.batch_size_p95 = n,
                        "batch_flush_deadline" => snap.batch_flush_deadline = n,
                        "session_yields" => snap.session_yields = n,
                        "snapshot_last_save_us" => snap.snapshot_last_save_us = n,
                        "snapshot_bytes" => snap.snapshot_bytes = n,
                        "warm_start" => snap.warm_start = n != 0,
                        _ => return None,
                    }
                }
            }
        }
        Some(snap)
    }
}

/// Formats one latency figure for the human-readable stats line. Every
/// stage goes through this single helper so all figures share one unit
/// rule — previously a sub-microsecond parse printed a bare `0` beside
/// millisecond-scale recognize figures under one "µs" banner. Wire-format
/// fields stay raw integer microseconds; only the display changes.
fn human_us(us: u64) -> String {
    if us == 0 {
        "<1µs".to_string()
    } else if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl StatsSnapshot {
    /// Human summary of persistence state: boot mode, snapshot age, size.
    fn snapshot_summary(&self) -> String {
        let boot = if self.warm_start {
            "warm start"
        } else {
            "cold start"
        };
        if self.snapshot_bytes == 0 {
            format!("{boot}, none saved")
        } else {
            format!(
                "{boot}, saved {} ago ({} B)",
                human_us(self.snapshot_last_save_us),
                self.snapshot_bytes
            )
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jobs: {} submitted, {} completed, {} failed, {} rejected, {} shed, \
             {} cache hits, {} expired | sessions: {} open, {} B store, \
             region cache {}/{} hit, \
             {} spliced, {} B, {} evicted | kernel: {} | queue: {} deep, {} workers | intra pool: \
             {} threads/worker, {} busy, {} queued | workspace: {} templates \
             pruned, {} B peak | batch: {} fused jobs, size p50/p95 {}/{}, \
             {} deadline flushes, {} session yields | snapshot: {} | latency \
             p50/p95/p99: wait {}/{}/{}, parse {}/{}/{}, recognize {}/{}/{}, \
             total {}/{}/{} (p999 {}, mean {})",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.shed,
            self.cache_hits,
            self.expired,
            self.sessions,
            self.store_bytes,
            self.region_hits,
            self.region_hits + self.region_misses,
            self.region_splices,
            self.region_bytes,
            self.region_evictions,
            if self.kernel.is_empty() {
                "unknown"
            } else {
                &self.kernel
            },
            self.queue_depth,
            self.workers,
            self.intra_pool_size,
            self.intra_busy,
            self.intra_queued,
            self.templates_pruned,
            self.workspace_high_water_bytes,
            self.batched_requests,
            self.batch_size_p50,
            self.batch_size_p95,
            self.batch_flush_deadline,
            self.session_yields,
            self.snapshot_summary(),
            human_us(self.queue_wait_p50_us),
            human_us(self.queue_wait_p95_us),
            human_us(self.queue_wait_p99_us),
            human_us(self.parse_p50_us),
            human_us(self.parse_p95_us),
            human_us(self.parse_p99_us),
            human_us(self.recognize_p50_us),
            human_us(self.recognize_p95_us),
            human_us(self.recognize_p99_us),
            human_us(self.total_p50_us),
            human_us(self.total_p95_us),
            human_us(self.total_p99_us),
            human_us(self.total_p999_us),
            human_us(self.total_mean_us),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.samples(), 5);
        // Sub-32µs values land in exact buckets.
        assert_eq!(h.quantile_us(0.5), 30);
        let p95 = h.quantile_us(0.95);
        assert!(p95 >= 1000, "p95 covers the outlier: {p95}");
        assert_eq!(h.mean_us(), (10 + 20 + 30 + 40 + 1000) / 5);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        // The reported quantile for a single-sample histogram is that
        // bucket's upper bound: never below the sample, and at most
        // 1/SUB_COUNT (plus the integer bucket edge) above it.
        for value in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            4_095,
            4_096,
            65_537,
            1_000_000,
            u64::MAX / 3,
        ] {
            let h = LatencyHistogram::default();
            h.record(Duration::from_micros(value));
            let reported = h.quantile_us(0.5);
            assert!(reported >= value, "value {value}: reported {reported}");
            let bound = value + value / SUB_COUNT + 1;
            assert!(
                reported <= bound,
                "value {value}: reported {reported} > bound {bound}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotonic_and_value_inverts_it() {
        let mut prev = 0usize;
        for us in (0..4096u64).chain((12..40).map(|b| (1u64 << b) - 3)) {
            let index = bucket_index(us);
            assert!(index >= prev, "index must not decrease at {us}");
            prev = index;
            assert!(bucket_value(index) >= us, "upper bound covers {us}");
            assert!(index < HIST_BUCKETS);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_value(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn snapshot_conserves_counts_and_round_trips_the_wire() {
        let h = LatencyHistogram::default();
        let samples = [3u64, 3, 17, 450, 450, 450, 9_000, 1_000_000];
        for us in samples {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        assert_eq!(snap.samples(), samples.len() as u64);
        assert_eq!(
            snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            samples.len() as u64,
            "every sample is in exactly one bucket"
        );
        let decoded = HistogramSnapshot::decode(&snap.encode()).expect("parses");
        assert_eq!(snap, decoded);
        // Quantiles agree between the live histogram and its snapshot.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), snap.quantile_us(q));
        }
        // Empty snapshots encode as the placeholder token.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.encode(), "-");
        assert_eq!(HistogramSnapshot::decode("-"), Some(empty));
        assert!(HistogramSnapshot::decode("12;bogus").is_none());
    }

    #[test]
    fn merged_snapshots_equal_concatenated_samples() {
        let (a, b) = (LatencyHistogram::default(), LatencyHistogram::default());
        let both = LatencyHistogram::default();
        for us in [5u64, 80, 80, 2_000] {
            a.record(Duration::from_micros(us));
            both.record(Duration::from_micros(us));
        }
        for us in [7u64, 80, 500_000] {
            b.record(Duration::from_micros(us));
            both.record(Duration::from_micros(us));
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn size_histogram_quantiles_are_exact() {
        let h = SizeHistogram::default();
        for size in [1usize, 1, 4, 8, 8, 8, 8] {
            h.record(size);
        }
        assert_eq!(h.samples(), 7);
        assert_eq!(h.quantile(0.5), 8, "exact, not a power-of-two bound");
        assert_eq!(h.quantile(0.95), 8);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(SizeHistogram::default().quantile(0.5), 0, "empty reads 0");
        // Oversized observations clamp into the last slot instead of lost.
        let big = SizeHistogram::default();
        big.record(10_000);
        assert_eq!(big.quantile(0.5), (SIZE_BUCKETS - 1) as u64);
    }

    #[test]
    fn display_formats_all_latencies_uniformly() {
        assert_eq!(human_us(0), "<1µs");
        assert_eq!(human_us(999), "999µs");
        assert_eq!(human_us(1_500), "1.5ms");
        assert_eq!(human_us(2_345_678), "2.35s");
        let snap = StatsSnapshot {
            parse_p50_us: 0,
            recognize_p50_us: 2048,
            total_mean_us: 900,
            ..StatsSnapshot::default()
        };
        let text = snap.to_string();
        // One unit rule for every stage: the sub-µs stage is labeled, not a
        // bare 0, and ms-scale figures carry their unit.
        assert!(text.contains("parse <1µs"), "{text}");
        assert!(text.contains("recognize 2.0ms"), "{text}");
        assert!(text.contains("mean 900µs)"), "{text}");
        assert!(!text.contains("latency µs:"), "{text}");
    }

    #[test]
    fn display_reports_snapshot_age_and_boot_mode() {
        let cold = StatsSnapshot::default();
        assert!(cold
            .to_string()
            .contains("snapshot: cold start, none saved"));
        let warm = StatsSnapshot {
            warm_start: true,
            snapshot_last_save_us: 2_000_000,
            snapshot_bytes: 4096,
            ..StatsSnapshot::default()
        };
        let text = warm.to_string();
        assert!(
            text.contains("snapshot: warm start, saved 2.00s ago (4096 B)"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let metrics = Metrics::default();
        metrics.submitted.store(17, Ordering::Relaxed);
        metrics.completed.store(15, Ordering::Relaxed);
        metrics.shed.store(3, Ordering::Relaxed);
        metrics.total.record(Duration::from_micros(500));
        metrics.queue_wait.record(Duration::from_micros(90));
        metrics.batched_requests.store(6, Ordering::Relaxed);
        metrics.batch_flush_deadline.store(2, Ordering::Relaxed);
        metrics.session_yields.store(4, Ordering::Relaxed);
        metrics.batch_sizes.record(3);
        metrics.batch_sizes.record(8);
        let region = RegionCacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            splices: 4,
            bytes: 4096,
            entries: 6,
        };
        let snap = metrics.snapshot(
            3,
            8,
            2,
            7168,
            region,
            GaugeSnapshot {
                size: 2,
                busy: 1,
                queued: 5,
            },
            WorkspaceStats {
                templates_pruned: 42,
                high_water_bytes: 65536,
            },
            SnapshotGauge {
                last_save_us: 2_500_000,
                bytes: 8192,
                warm_start: true,
            },
            "avx2",
        );
        assert_eq!(snap.store_bytes, 7168);
        assert_eq!(snap.kernel, "avx2");
        assert_eq!(snap.intra_pool_size, 2);
        assert_eq!(snap.snapshot_last_save_us, 2_500_000);
        assert_eq!(snap.snapshot_bytes, 8192);
        assert!(snap.warm_start);
        assert_eq!(snap.intra_busy, 1);
        assert_eq!(snap.intra_queued, 5);
        assert_eq!(snap.templates_pruned, 42);
        assert_eq!(snap.workspace_high_water_bytes, 65536);
        assert_eq!(snap.batched_requests, 6);
        assert_eq!(snap.batch_size_p50, 3);
        assert_eq!(snap.batch_size_p95, 8);
        assert_eq!(snap.batch_flush_deadline, 2);
        assert_eq!(snap.shed, 3);
        assert_eq!(snap.session_yields, 4);
        assert_eq!(snap.total_hist.samples(), 1);
        assert_eq!(snap.queue_wait_hist.samples(), 1);
        let wire = snap.to_wire();
        let back = StatsSnapshot::from_wire(&wire).expect("parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn aggregate_merges_histograms_into_fleet_percentiles() {
        // Shard A saw fast jobs, shard B slow ones; the fleet p50 must sit
        // between them (a real merged percentile), not at shard B's p50
        // (the old worst-shard max rule).
        let (fast, slow) = (Metrics::default(), Metrics::default());
        for _ in 0..90 {
            fast.total.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            slow.total.record(Duration::from_micros(10_000));
        }
        let a = StatsSnapshot {
            total_p50_us: fast.total.quantile_us(0.5),
            total_hist: fast.total.snapshot(),
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            total_p50_us: slow.total.quantile_us(0.5),
            total_hist: slow.total.snapshot(),
            ..StatsSnapshot::default()
        };
        let fleet = StatsSnapshot::aggregate([&a, &b]);
        assert_eq!(fleet.total_hist.samples(), 100);
        assert!(
            fleet.total_p50_us <= 104,
            "fleet p50 ~100µs, not the slow shard's 10ms: {}",
            fleet.total_p50_us
        );
        assert!(fleet.total_p999_us >= 10_000, "tail sees the slow shard");
    }

    #[test]
    fn aggregate_sums_counters_and_maxes_percentiles() {
        let a = StatsSnapshot {
            submitted: 10,
            completed: 9,
            failed: 1,
            shed: 2,
            sessions: 2,
            store_bytes: 3000,
            queue_depth: 3,
            workers: 4,
            region_hits: 7,
            region_bytes: 100,
            kernel: "avx2".to_string(),
            total_p95_us: 800,
            session_yields: 1,
            workspace_high_water_bytes: 4096,
            snapshot_last_save_us: 1_000,
            snapshot_bytes: 50,
            warm_start: true,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            submitted: 5,
            completed: 5,
            shed: 1,
            sessions: 1,
            store_bytes: 1500,
            queue_depth: 1,
            workers: 4,
            region_hits: 2,
            region_bytes: 40,
            kernel: "avx2".to_string(),
            total_p95_us: 1200,
            session_yields: 2,
            workspace_high_water_bytes: 1024,
            snapshot_last_save_us: 9_000,
            snapshot_bytes: 60,
            warm_start: true,
            ..StatsSnapshot::default()
        };
        let fleet = StatsSnapshot::aggregate([&a, &b]);
        assert_eq!(fleet.submitted, 15);
        assert_eq!(fleet.completed, 14);
        assert_eq!(fleet.failed, 1);
        assert_eq!(fleet.shed, 3);
        assert_eq!(fleet.sessions, 3);
        assert_eq!(fleet.store_bytes, 4500);
        assert_eq!(fleet.queue_depth, 4);
        assert_eq!(fleet.workers, 8);
        assert_eq!(fleet.region_hits, 9);
        assert_eq!(fleet.region_bytes, 140);
        assert_eq!(fleet.kernel, "avx2", "agreeing shards keep the name");
        assert_eq!(fleet.session_yields, 3);
        assert_eq!(
            fleet.total_p95_us, 1200,
            "no histograms: falls back to worst shard"
        );
        assert_eq!(fleet.workspace_high_water_bytes, 4096);
        assert_eq!(fleet.snapshot_last_save_us, 9_000, "oldest save wins");
        assert_eq!(fleet.snapshot_bytes, 110);
        assert!(fleet.warm_start, "all shards warm");

        let cold = StatsSnapshot::default();
        let split = StatsSnapshot::aggregate([&a, &cold]);
        assert!(!split.warm_start, "one cold shard makes the fleet cold");
        assert_eq!(split.kernel, "mixed", "disagreeing shards read mixed");
        let none: [&StatsSnapshot; 0] = [];
        assert_eq!(StatsSnapshot::aggregate(none), StatsSnapshot::default());
    }
}
