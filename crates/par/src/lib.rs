//! Scoped worker-pool primitives for intra-request parallelism.
//!
//! Below the request level, GANA's Postprocessing I is independent per
//! sub-block and VF2 primitive matching independent per template. This
//! crate provides the one abstraction both fan-outs share —
//! [`Parallelism`], a thread budget plus a deterministic fork/join
//! [`Parallelism::map`] built on [`std::thread::scope`] — so the cold
//! pipeline, the incremental pipeline, and the serving engine can split
//! that work across cores without taking on any new dependencies.
//!
//! The GCN forward pass does not use it. Its Chebyshev recurrence is
//! sequential in the tap index, and splitting each tap's sparse–dense
//! product by rows was slower at 2 and 4 threads than at 1 on a 2-vCPU
//! machine (EXPERIMENTS.md, "Intra-request threads on 2 vCPUs"), so the
//! forward pass runs on the request's own thread.
//!
//! # Determinism contract
//!
//! [`Parallelism::map`] returns results **in item index order**, and every
//! item is computed by exactly one worker with no shared mutable state, so
//! for a pure `f` the output is byte-identical to the serial loop
//! `items.iter().enumerate().map(f)` regardless of the thread count or
//! scheduling, which makes the whole pipeline bit-reproducible at any
//! thread count — an equivalence enforced by the workspace's
//! `parallel_equivalence` tests.
//!
//! # Budgeting
//!
//! A `Parallelism` is cheap to clone and clones share one [`GaugeSnapshot`]
//! source, so a serving engine can hand the same budget to every worker's
//! pipeline and observe aggregate intra-request pool pressure in one
//! place. [`joint_budget`] caps the intra-request threads so that
//! request-level workers and intra-request threads multiplied never
//! oversubscribe the box.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Point-in-time view of a pool's pressure, for service stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Thread budget of the pool (the `threads` the budget was built with).
    pub size: usize,
    /// Workers currently executing items across all in-flight `map` calls.
    pub busy: usize,
    /// Items claimed by no worker yet across all in-flight `map` calls.
    pub queued: usize,
}

/// Shared counters behind every clone of one [`Parallelism`].
#[derive(Debug, Default)]
struct Gauge {
    busy: AtomicUsize,
    queued: AtomicUsize,
}

/// Decrements `busy` when a worker exits, even by panic.
struct BusyGuard<'a>(&'a Gauge);

impl<'a> BusyGuard<'a> {
    fn enter(gauge: &'a Gauge) -> BusyGuard<'a> {
        gauge.busy.fetch_add(1, Ordering::Relaxed);
        BusyGuard(gauge)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Restores the `queued` gauge for items that were never claimed (a worker
/// panicked mid-drain), keeping the gauge consistent across failures.
struct QueueGuard<'a> {
    gauge: &'a Gauge,
    total: usize,
    claimed: &'a AtomicUsize,
}

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        let claimed = self.claimed.load(Ordering::Relaxed).min(self.total);
        self.gauge
            .queued
            .fetch_sub(self.total - claimed, Ordering::Relaxed);
    }
}

/// A thread budget for intra-request work, plus the scoped pool that
/// spends it. See the crate docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct Parallelism {
    threads: usize,
    gauge: Arc<Gauge>,
}

impl Default for Parallelism {
    /// Defaults to serial: parallelism is always an explicit opt-in.
    fn default() -> Parallelism {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// A budget of exactly one thread: every `map` runs inline with no
    /// spawning at all (the graceful degradation path for 1-core boxes).
    pub fn serial() -> Parallelism {
        Parallelism::new(1)
    }

    /// A budget of `threads` (clamped to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism {
            threads: threads.max(1),
            gauge: Arc::new(Gauge::default()),
        }
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when `map` will never spawn (budget of 1).
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Snapshot of the pool gauge shared by every clone of this budget.
    pub fn gauge(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            size: self.threads,
            busy: self.gauge.busy.load(Ordering::Relaxed),
            queued: self.gauge.queued.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// With a budget of 1 (or ≤ 1 item) this is exactly the serial loop —
    /// no threads, no synchronization. Otherwise `min(threads, len)`
    /// scoped workers claim items off a shared atomic cursor (work
    /// stealing without per-worker queues) and the results are merged back
    /// into index order, so the output is identical to the serial loop for
    /// any pure `f`.
    ///
    /// # Panics
    ///
    /// A panic inside `f` is propagated to the caller after every worker
    /// has drained (mirroring the serial loop's panic semantics); the
    /// gauge is restored on the way out.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.is_serial() || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        self.gauge.queued.fetch_add(n, Ordering::Relaxed);
        let _queue_guard = QueueGuard {
            gauge: &self.gauge,
            total: n,
            claimed: &cursor,
        };

        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let gauge = &self.gauge;
                    let f = &f;
                    scope.spawn(move || {
                        let _busy = BusyGuard::enter(gauge);
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            gauge.queued.fetch_sub(1, Ordering::Relaxed);
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(part) => parts.push(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index claimed by exactly one worker"))
            .collect()
    }
}

/// The machine's available parallelism (1 when undetectable).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Divides the machine between `workers` request-level threads and the
/// intra-request budget each of them may spend, such that
/// `workers × intra ≤ max(workers, cores + workers − 1)` — i.e. a fully
/// busy engine never oversubscribes the box by more than the unavoidable
/// ceiling rounding. Returns the per-worker intra budget (≥ 1).
pub fn joint_budget(workers: usize, cores: usize) -> usize {
    let workers = workers.max(1);
    (cores.max(1).div_ceil(workers)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let par = Parallelism::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = par.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_budget_matches_parallel_budget() {
        let items: Vec<u64> = (0..37).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e3779b9).rotate_left(7);
        let serial = Parallelism::serial().map(&items, f);
        let parallel = Parallelism::new(8).map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let par = Parallelism::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(par.map(&empty, |_, &x| x).is_empty());
        assert_eq!(par.map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn gauge_settles_after_map() {
        let par = Parallelism::new(4);
        let items: Vec<usize> = (0..64).collect();
        let _ = par.map(&items, |_, &x| x + 1);
        let gauge = par.gauge();
        assert_eq!(gauge.size, 4);
        assert_eq!(gauge.busy, 0);
        assert_eq!(gauge.queued, 0);
    }

    #[test]
    fn gauge_settles_after_worker_panic() {
        let par = Parallelism::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par.map(&items, |_, &x| {
                if x == 13 {
                    panic!("injected");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        let gauge = par.gauge();
        assert_eq!(gauge.busy, 0, "busy guard restores on panic");
        assert_eq!(gauge.queued, 0, "queue guard restores on panic");
    }

    #[test]
    fn joint_budget_never_oversubscribes() {
        for cores in 1..=16 {
            for workers in 1..=16 {
                let intra = joint_budget(workers, cores);
                assert!(intra >= 1);
                assert!(
                    workers * intra < cores + workers,
                    "workers={workers} cores={cores} intra={intra}"
                );
            }
        }
    }

    #[test]
    fn clones_share_one_gauge() {
        let a = Parallelism::new(2);
        let b = a.clone();
        assert_eq!(a.gauge(), b.gauge());
        assert!(Arc::ptr_eq(&a.gauge, &b.gauge));
    }
}
