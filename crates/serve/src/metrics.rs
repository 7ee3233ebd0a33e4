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
        let mut seen: u64 = 0;
        for &(bucket, count) in &self.buckets {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return bucket_value(bucket as usize);
            }
        }
        bucket_value(HIST_BUCKETS - 1)
    }

    /// Folds `other` into `self`: bucket-wise sum, exactly the histogram of
    /// the concatenated sample streams. Counts and the microsecond total
    /// saturate at `u64::MAX` instead of wrapping.
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
                        merged.push((ai, ac.saturating_add(bc)));
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
        self.samples = self.samples.saturating_add(other.samples);
        self.total_us = self.total_us.saturating_add(other.total_us);
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
    /// input, out-of-range bucket indexes, or counts whose sum overflows.
    pub fn decode(text: &str) -> Option<HistogramSnapshot> {
        if text == "-" {
            return Some(HistogramSnapshot::default());
        }
        let mut parts = text.split(';');
        let total_us: u64 = parts.next()?.parse().ok()?;
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        let mut samples: u64 = 0;
        for pair in parts {
            let (bucket, count) = pair.split_once(':')?;
            let bucket: u32 = bucket.parse().ok()?;
            let count: u64 = count.parse().ok()?;
            if bucket as usize >= HIST_BUCKETS || count == 0 {
                return None;
            }
            buckets.push((bucket, count));
            samples = samples.checked_add(count)?;
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
    /// Immutable snapshot of the counters and histograms (counters may lag
    /// each other by in-flight jobs). The gauge fields — queue, sessions,
    /// caches, pools, persistence, kernel — are left at their defaults for
    /// [`Engine::stats`](crate::Engine::stats) to fill in.
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted: load(&self.submitted),
            completed: load(&self.completed),
            failed: load(&self.failed),
            rejected: load(&self.rejected),
            shed: load(&self.shed),
            cache_hits: load(&self.cache_hits),
            expired: load(&self.expired),
            batched_requests: load(&self.batched_requests),
            batch_size_p50: self.batch_sizes.quantile(0.5),
            batch_size_p95: self.batch_sizes.quantile(0.95),
            batch_flush_deadline: load(&self.batch_flush_deadline),
            session_yields: load(&self.session_yields),
            queue_wait_hist: self.queue_wait.snapshot(),
            parse_hist: self.parse.snapshot(),
            recognize_hist: self.recognize.snapshot(),
            total_hist: self.total.snapshot(),
            ..StatsSnapshot::default()
        }
    }
}

/// A stats field's single-token wire form: no whitespace, so it fits the
/// `key=value` line unescaped.
trait WireValue: Sized {
    fn to_token(&self) -> String;
    fn from_token(token: &str) -> Option<Self>;
}

impl WireValue for u64 {
    fn to_token(&self) -> String {
        self.to_string()
    }
    fn from_token(token: &str) -> Option<u64> {
        token.parse().ok()
    }
}

impl WireValue for usize {
    fn to_token(&self) -> String {
        self.to_string()
    }
    fn from_token(token: &str) -> Option<usize> {
        token.parse().ok()
    }
}

/// `0` or `1`; any nonzero integer reads as true.
impl WireValue for bool {
    fn to_token(&self) -> String {
        u64::from(*self).to_string()
    }
    fn from_token(token: &str) -> Option<bool> {
        token.parse::<u64>().ok().map(|n| n != 0)
    }
}

impl WireValue for String {
    fn to_token(&self) -> String {
        self.clone()
    }
    fn from_token(token: &str) -> Option<String> {
        Some(token.to_string())
    }
}

impl WireValue for HistogramSnapshot {
    fn to_token(&self) -> String {
        self.encode()
    }
    fn from_token(token: &str) -> Option<HistogramSnapshot> {
        HistogramSnapshot::decode(token)
    }
}

/// Fleet rules: how [`StatsSnapshot::aggregate`] folds one shard's value
/// of a field into the fleet's. `first` is true for the first shard.
mod rule {
    use super::HistogramSnapshot;

    /// Integers that [`sum`] adds without wrapping.
    pub(super) trait Total: Copy {
        fn saturating_total(self, other: Self) -> Self;
    }

    impl Total for u64 {
        fn saturating_total(self, other: u64) -> u64 {
            self.saturating_add(other)
        }
    }

    impl Total for usize {
        fn saturating_total(self, other: usize) -> usize {
            self.saturating_add(other)
        }
    }

    /// Counts and gauges that add up across processes, saturating at the
    /// type's maximum.
    pub(super) fn sum<T: Total>(fleet: &mut T, shard: &T, _first: bool) {
        *fleet = fleet.saturating_total(*shard);
    }

    /// Figures that do not add up (high-water marks, staleness, exact batch
    /// sizes): the worst shard.
    pub(super) fn max<T: Ord + Copy>(fleet: &mut T, shard: &T, _first: bool) {
        *fleet = (*fleet).max(*shard);
    }

    /// True only when every shard is.
    pub(super) fn all(fleet: &mut bool, shard: &bool, first: bool) {
        *fleet = (first || *fleet) && *shard;
    }

    /// One value per process: agreeing shards keep it, and a split fleet
    /// (mid-rollout, mixed hardware) reads `mixed`.
    pub(super) fn same(fleet: &mut String, shard: &str, first: bool) {
        if first {
            *fleet = shard.to_string();
        } else if *fleet != shard {
            *fleet = "mixed".to_string();
        }
    }

    /// Bucket-wise merge: the fleet distribution is the histogram of every
    /// shard's samples, so its percentiles are real fleet percentiles.
    pub(super) fn merge(fleet: &mut HistogramSnapshot, shard: &HistogramSnapshot, _first: bool) {
        fleet.merge(shard);
    }
}

/// Generates [`StatsSnapshot`] and its wire codec and fleet aggregate from
/// one table. Each row is `doc, name: type => rule`, where `rule` names a
/// function in [`rule`]; the row order is the wire order. `Display` is
/// the one hand-written layout.
macro_rules! stats_schema {
    ($($(#[$doc:meta])* $name:ident: $ty:ty => $rule:ident,)*) => {
        /// Point-in-time view of the engine counters, used by the `stats`
        /// request and the periodic log line. Latency percentiles are not
        /// stored: `Display` reads them off the four `*_hist` fields.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl StatsSnapshot {
            /// Serializes as the space-separated `key=value` pairs used on
            /// the wire, one per field.
            pub fn to_wire(&self) -> String {
                [$(format!("{}={}", stringify!($name), self.$name.to_token()),)*].join(" ")
            }

            /// Parses the wire form back into a snapshot. Missing keys keep
            /// their defaults; an unknown key or a malformed value is `None`.
            pub fn from_wire(text: &str) -> Option<StatsSnapshot> {
                let mut snap = StatsSnapshot::default();
                for pair in text.split_whitespace() {
                    let (key, value) = pair.split_once('=')?;
                    match key {
                        $(stringify!($name) => snap.$name = WireValue::from_token(value)?,)*
                        _ => return None,
                    }
                }
                Some(snap)
            }

            /// Folds per-shard snapshots into one fleet view, field by field
            /// under each field's fleet rule: counters and additive gauges sum,
            /// histograms merge bucket-wise, high-water figures take the worst
            /// shard, `warm_start` holds only when every shard warm-started,
            /// and `kernel` reads `mixed` when shards disagree. Aggregating
            /// nothing yields the default (all-zero) snapshot.
            pub fn aggregate<'a>(
                shards: impl IntoIterator<Item = &'a StatsSnapshot>,
            ) -> StatsSnapshot {
                let mut fleet = StatsSnapshot::default();
                for (i, shard) in shards.into_iter().enumerate() {
                    $(rule::$rule(&mut fleet.$name, &shard.$name, i == 0);)*
                }
                fleet
            }
        }
    };
}

stats_schema! {
    /// Jobs accepted into the queue.
    submitted: u64 => sum,
    /// Jobs finished successfully.
    completed: u64 => sum,
    /// Jobs finished with a structured error.
    failed: u64 => sum,
    /// Submissions rejected with `QueueFull`.
    rejected: u64 => sum,
    /// Submissions shed pre-queue by deadline-aware overload protection.
    shed: u64 => sum,
    /// Jobs answered from the result cache.
    cache_hits: u64 => sum,
    /// Jobs dropped before processing (deadline/cancel).
    expired: u64 => sum,
    /// Open incremental sessions.
    sessions: usize => sum,
    /// Heap bytes pinned by open sessions' unified circuit stores (graph,
    /// CCC, coarsening, and hierarchy sections).
    store_bytes: u64 => sum,
    /// Region-cache (sub-block VF2) lookups answered from the cache.
    region_hits: u64 => sum,
    /// Region-cache lookups that ran the matcher.
    region_misses: u64 => sum,
    /// Region-cache entries evicted to stay under the byte budget.
    region_evictions: u64 => sum,
    /// Sub-block results spliced from prior session state.
    region_splices: u64 => sum,
    /// Bytes currently held by the region cache.
    region_bytes: u64 => sum,
    /// Active spmm/axpy kernel variant (`avx2`, `neon`, or `scalar`).
    kernel: String => same,
    /// Jobs waiting in the queue right now.
    queue_depth: usize => sum,
    /// Worker threads in the pool.
    workers: usize => sum,
    /// Per-worker intra-request thread budget.
    intra_pool_size: usize => sum,
    /// Intra-request pool workers currently executing items (all workers).
    intra_busy: usize => sum,
    /// Intra-request items claimed by no worker yet (all workers).
    intra_queued: usize => sum,
    /// Templates skipped by the VF2 candidate prefilter (all workers).
    templates_pruned: u64 => sum,
    /// Peak per-worker annotation-workspace footprint in bytes.
    workspace_high_water_bytes: u64 => max,
    /// Jobs served from inside a fused micro-batch of ≥ 2.
    batched_requests: u64 => sum,
    /// Median fused-batch size (exact; the size histogram stays in-process).
    batch_size_p50: u64 => max,
    /// p95 fused-batch size (exact).
    batch_size_p95: u64 => max,
    /// Batch flushes forced early by a member's deadline.
    batch_flush_deadline: u64 => sum,
    /// Session drains yielded back to the queue for fairness.
    session_yields: u64 => sum,
    /// Microseconds since the last successful snapshot save (`0` = never);
    /// the fleet reports its oldest save.
    snapshot_last_save_us: u64 => max,
    /// Size in bytes of the last written snapshot (`0` = none).
    snapshot_bytes: u64 => sum,
    /// True when the engine warm-started from a snapshot at boot.
    warm_start: bool => all,
    /// Queue-wait distribution (sparse, mergeable).
    queue_wait_hist: HistogramSnapshot => merge,
    /// Parse-stage distribution.
    parse_hist: HistogramSnapshot => merge,
    /// Recognize-stage distribution.
    recognize_hist: HistogramSnapshot => merge,
    /// End-to-end distribution.
    total_hist: HistogramSnapshot => merge,
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

/// A stage's `p50/p95/p99` for the human-readable stats line.
fn human_percentiles(hist: &HistogramSnapshot) -> String {
    [0.5, 0.95, 0.99]
        .map(|q| human_us(hist.quantile_us(q)))
        .join("/")
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
             p50/p95/p99: wait {}, parse {}, recognize {}, total {} (p999 {}, mean {})",
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
            self.region_hits.saturating_add(self.region_misses),
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
            human_percentiles(&self.queue_wait_hist),
            human_percentiles(&self.parse_hist),
            human_percentiles(&self.recognize_hist),
            human_percentiles(&self.total_hist),
            human_us(self.total_hist.quantile_us(0.999)),
            human_us(self.total_hist.mean_us()),
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
        // Percentiles are read off the histograms: parse saw nothing, the
        // recognize median lands in a bucket whose bound is 2015µs.
        let metrics = Metrics::default();
        metrics.recognize.record(Duration::from_micros(2_000));
        metrics.total.record(Duration::from_micros(900));
        let snap = metrics.snapshot();
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

    /// A snapshot with every field set, built the way
    /// [`Engine::stats`](crate::Engine::stats) builds one: counters and
    /// histograms from [`Metrics`], gauges set by name. Every counter is
    /// distinct and nonzero and every histogram non-empty, so a renamed,
    /// dropped or swapped field changes the wire line.
    fn populated_snapshot() -> StatsSnapshot {
        let metrics = Metrics::default();
        for (counter, value) in [
            (&metrics.submitted, 41),
            (&metrics.completed, 29),
            (&metrics.failed, 4),
            (&metrics.rejected, 5),
            (&metrics.shed, 3),
            (&metrics.cache_hits, 11),
            (&metrics.expired, 2),
            (&metrics.batched_requests, 23),
            (&metrics.batch_flush_deadline, 25),
            (&metrics.session_yields, 24),
        ] {
            counter.store(value, Ordering::Relaxed);
        }
        for us in [90, 95] {
            metrics.queue_wait.record(Duration::from_micros(us));
        }
        metrics.parse.record(Duration::from_micros(40));
        for us in [1_800, 2_100] {
            metrics.recognize.record(Duration::from_micros(us));
        }
        for us in [2_000, 2_300, 150_000] {
            metrics.total.record(Duration::from_micros(us));
        }
        for size in [9, 9, 12] {
            metrics.batch_sizes.record(size);
        }
        StatsSnapshot {
            queue_depth: 13,
            workers: 8,
            sessions: 6,
            store_bytes: 7168,
            region_hits: 15,
            region_misses: 16,
            region_evictions: 17,
            region_splices: 18,
            region_bytes: 4096,
            kernel: "avx2".to_string(),
            intra_pool_size: 20,
            intra_busy: 21,
            intra_queued: 22,
            templates_pruned: 42,
            workspace_high_water_bytes: 65536,
            snapshot_last_save_us: 2_500_000,
            snapshot_bytes: 8192,
            warm_start: true,
            ..metrics.snapshot()
        }
    }

    #[test]
    fn snapshot_wire_round_trip() {
        let snap = populated_snapshot();
        assert_eq!(snap.shed, 3);
        assert_eq!(snap.batched_requests, 23);
        assert_eq!(snap.batch_size_p50, 9);
        assert_eq!(snap.batch_size_p95, 12);
        assert_eq!(snap.batch_flush_deadline, 25);
        assert_eq!(snap.session_yields, 24);
        assert_eq!(snap.queue_wait_hist.samples(), 2);
        assert_eq!(snap.parse_hist.samples(), 1);
        assert_eq!(snap.recognize_hist.samples(), 2);
        assert_eq!(snap.total_hist.samples(), 3);
        let wire = snap.to_wire();
        let back = StatsSnapshot::from_wire(&wire).expect("parses");
        assert_eq!(snap, back);
        // Unknown keys and malformed values are rejected, not skipped.
        assert!(StatsSnapshot::from_wire(&format!("{wire} total_p50_us=1")).is_none());
        assert!(StatsSnapshot::from_wire("submitted=x").is_none());
        assert!(StatsSnapshot::from_wire("submitted").is_none());
    }

    #[test]
    fn stats_line_is_pinned() {
        let snap = populated_snapshot();
        assert_eq!(
            snap.to_wire(),
            "submitted=41 completed=29 failed=4 rejected=5 shed=3 cache_hits=11 expired=2 \
             sessions=6 store_bytes=7168 region_hits=15 region_misses=16 region_evictions=17 \
             region_splices=18 region_bytes=4096 kernel=avx2 queue_depth=13 workers=8 \
             intra_pool_size=20 intra_busy=21 intra_queued=22 templates_pruned=42 \
             workspace_high_water_bytes=65536 batched_requests=23 batch_size_p50=9 \
             batch_size_p95=12 batch_flush_deadline=25 session_yields=24 \
             snapshot_last_save_us=2500000 snapshot_bytes=8192 warm_start=1 \
             queue_wait_hist=185;77:1;79:1 parse_hist=40;40:1 \
             recognize_hist=3900;216:1;224:1 total_hist=154300;222:1;227:1;420:1"
        );
        assert_eq!(
            snap.to_string(),
            "jobs: 41 submitted, 29 completed, 4 failed, 5 rejected, 3 shed, 11 cache hits, \
             2 expired | sessions: 6 open, 7168 B store, region cache 15/31 hit, 18 spliced, \
             4096 B, 17 evicted | kernel: avx2 | queue: 13 deep, 8 workers | intra pool: \
             20 threads/worker, 21 busy, 22 queued | workspace: 42 templates pruned, \
             65536 B peak | batch: 23 fused jobs, size p50/p95 9/12, 25 deadline flushes, \
             24 session yields | snapshot: warm start, saved 2.50s ago (8192 B) | latency \
             p50/p95/p99: wait 91µs/95µs/95µs, parse 40µs/40µs/40µs, \
             recognize 1.8ms/2.1ms/2.1ms, total 2.3ms/151.6ms/151.6ms \
             (p999 151.6ms, mean 51.4ms)"
        );
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
        let fleet = StatsSnapshot::aggregate([&fast.snapshot(), &slow.snapshot()]);
        assert_eq!(fleet.total_hist.samples(), 100);
        let p50 = fleet.total_hist.quantile_us(0.5);
        assert!(
            p50 <= 104,
            "fleet p50 ~100µs, not the slow shard's 10ms: {p50}"
        );
        assert!(
            fleet.total_hist.quantile_us(0.999) >= 10_000,
            "tail sees the slow shard"
        );
        assert!(fleet.to_string().contains("(p999 10.2ms, mean"), "{fleet}");
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
            batch_size_p95: 4,
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
            batch_size_p95: 8,
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
            fleet.batch_size_p95, 8,
            "exact batch sizes take the worst shard"
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
