//! Reusable inference scratch buffers.
//!
//! A [`GnnWorkspace`] owns every intermediate the forward pass of
//! [`crate::GcnModel::forward`] needs — the Chebyshev basis, the
//! per-tap product, the ping/pong feature maps, and the gathered
//! per-vertex logits — so steady-state inference (a serving worker, or the
//! many dirty-region re-runs of an incremental update) performs no dense
//! allocations after the first request. Buffers shrink and grow with the
//! request via [`gana_sparse::DenseMatrix::resize`], settling on the
//! high-water allocation.

use gana_sparse::{CsrMatrix, DenseMatrix};

/// Scratch buffers for one in-flight GCN inference.
///
/// A workspace belongs to exactly one caller at a time (it is `&mut`
/// through the forward pass); share across threads by giving each worker
/// its own. Reuse never changes results: every kernel overwrites the
/// buffers it writes, so outputs are byte-identical whether the buffers
/// are fresh or recycled.
#[derive(Debug, Default)]
pub struct GnnWorkspace {
    /// Current feature map (conv input / pooled output / final logits).
    pub(crate) x: DenseMatrix,
    /// Stage output (conv/batch-norm/FC output before it becomes `x`).
    pub(crate) y: DenseMatrix,
    /// Per-tap `T_k(L̂)X · W_k` product, also reused as the batch-norm
    /// output buffer between convolutions.
    pub(crate) term: DenseMatrix,
    /// Chebyshev basis signals, one buffer per filter tap.
    pub(crate) basis: Vec<DenseMatrix>,
    /// Per-original-vertex logits gathered from cluster logits.
    pub(crate) gathered: DenseMatrix,
    /// Vertex-to-cluster index list for the gather.
    pub(crate) clusters: Vec<usize>,
    /// Fused block-diagonal Laplacians, one per coarsening level, reused
    /// across batched forward passes of two or more samples.
    pub(crate) fused: Vec<CsrMatrix>,
}

impl GnnWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> GnnWorkspace {
        GnnWorkspace::default()
    }

    /// Bytes of heap memory currently held by the workspace buffers
    /// (capacities, not lengths) — the high-water accounting unit surfaced
    /// in serving stats.
    pub fn heap_bytes(&self) -> usize {
        self.x.heap_bytes()
            + self.y.heap_bytes()
            + self.term.heap_bytes()
            + self.gathered.heap_bytes()
            + self
                .basis
                .iter()
                .map(DenseMatrix::heap_bytes)
                .sum::<usize>()
            + self.clusters.capacity() * std::mem::size_of::<usize>()
            + self.fused.iter().map(CsrMatrix::heap_bytes).sum::<usize>()
    }
}
