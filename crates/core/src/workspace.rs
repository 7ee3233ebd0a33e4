//! Reusable per-worker annotation workspace.
//!
//! A [`Workspace`] bundles every scratch resource the pipeline's hot path
//! can recycle between requests: the dense GCN inference buffers
//! ([`gana_gnn::GnnWorkspace`]) and the VF2 matcher scratch pool + prune
//! counters ([`gana_primitives::MatcherWorkspace`]). A long-lived caller —
//! a serving worker, an incremental session replaying dirty regions —
//! attaches one workspace to its [`crate::Pipeline`] and steady-state
//! annotation stops allocating: buffers settle on the high-water mark of
//! the requests seen so far.
//!
//! Reuse is invisible in the output. Every GCN kernel overwrites the
//! buffers it writes, the VF2 scratch is reset
//! before each search, and the candidate prefilter only skips templates
//! that provably have no matches — so annotation through a shared, reused
//! workspace is byte-identical to the cold path at any thread count (the
//! workspace-reuse and parallel-equivalence suites enforce this).

use gana_gnn::{GcnModel, GnnWorkspace, GraphSample};
use gana_primitives::MatcherWorkspace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Scratch buffers and counters shared across the requests of one worker.
///
/// The GNN buffers sit behind a [`Mutex`] taken with `try_lock`: the
/// expected owner is a single worker thread, but if two requests ever race
/// on one workspace the loser silently falls back to fresh temporary
/// buffers — same output, one extra allocation, no blocking. The matcher
/// side is a concurrent free-list pool and needs no such fallback.
#[derive(Debug, Default)]
pub struct Workspace {
    gnn: Mutex<GnnWorkspace>,
    matcher: MatcherWorkspace,
    high_water_bytes: AtomicU64,
}

impl Workspace {
    /// An empty workspace; all buffers are grown on first use.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Templates skipped by the kind/degree prefilter (no VF2 search was
    /// run) across every annotation that used this workspace.
    pub fn templates_pruned(&self) -> u64 {
        self.matcher.templates_pruned()
    }

    /// Largest heap footprint (bytes) the dense inference buffers have
    /// reached — the steady-state memory a worker pins by keeping the
    /// workspace alive.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes.load(Ordering::Relaxed)
    }

    /// The VF2 matcher scratch pool + prune counter.
    pub fn matcher(&self) -> &MatcherWorkspace {
        &self.matcher
    }

    /// Runs the GCN forward pass ([`GcnModel::forward`]) over one sample
    /// or a fused batch through the reusable buffers, returning one
    /// prediction vector per sample.
    ///
    /// # Errors
    ///
    /// Propagates model shape errors for any sample.
    pub fn forward(
        &self,
        model: &GcnModel,
        samples: &[&GraphSample],
    ) -> gana_gnn::Result<Vec<Vec<usize>>> {
        match self.gnn.try_lock() {
            Ok(mut ws) => {
                let out = model.forward(samples, &mut ws);
                self.high_water_bytes
                    .fetch_max(ws.heap_bytes() as u64, Ordering::Relaxed);
                out
            }
            // Contended or poisoned: a temporary workspace produces the
            // identical result, just without the reuse win.
            Err(_) => model.forward(samples, &mut GnnWorkspace::new()),
        }
    }
}
