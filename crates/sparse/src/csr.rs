use crate::kernel::{self, Kernel};
use crate::{CooMatrix, DenseMatrix, Result, SparseError};
use gana_par::Parallelism;

/// Smallest number of output rows a parallel spmm worker takes per claim;
/// below this the spawn/claim overhead dominates the row arithmetic.
const PAR_ROW_GRAIN: usize = 64;

/// A compressed-sparse-row matrix of `f64`.
///
/// CSR is the workhorse format for the GCN: the Chebyshev recurrence
/// repeatedly multiplies the rescaled Laplacian `L̂` (a CSR matrix) by dense
/// feature maps. Rows store column indices in strictly increasing order.
///
/// # Examples
///
/// ```
/// use gana_sparse::{CooMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), gana_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0)?;
/// coo.push(1, 0, 1.0)?;
/// let a = coo.to_csr();
/// let y = a.mul_vec(&[3.0, 4.0])?;
/// assert_eq!(y, vec![6.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty `0 × 0` matrix (`indptr = [0]`, preserving the CSR
    /// invariant `indptr.len() == rows + 1`).
    fn default() -> CsrMatrix {
        CsrMatrix {
            rows: 0,
            cols: 0,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidData`] if `indptr` has the wrong length,
    /// is not monotonically non-decreasing, references out-of-range data, or
    /// if any row's column indices are not strictly increasing and in bounds.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::InvalidData(format!(
                "indptr length {} does not match rows+1={}",
                indptr.len(),
                rows + 1
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidData(format!(
                "indices length {} differs from values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr.first() != Some(&0) || indptr.last() != Some(&indices.len()) {
            return Err(SparseError::InvalidData(
                "indptr must start at 0 and end at nnz".to_string(),
            ));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidData(
                    "indptr must be non-decreasing".to_string(),
                ));
            }
            let row = &indices[w[0]..w[1]];
            for pair in row.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(SparseError::InvalidData(
                        "column indices must be strictly increasing within a row".to_string(),
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last >= cols {
                    return Err(SparseError::InvalidData(format!(
                        "column index {last} out of range for {cols} columns"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// The `n × n` identity matrix in CSR form.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// A square matrix with `diag` on the diagonal (zeros are kept explicit).
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Stacks `blocks` along the diagonal into one block-diagonal matrix.
    ///
    /// The result has `Σ rows × Σ cols` with block `i` occupying the row
    /// and column ranges offset by the sizes of the blocks before it; all
    /// off-block entries are structurally zero. This is the fusion
    /// primitive of micro-batched inference: the rescaled Laplacians of
    /// independent graph samples combine into one operator, so a single
    /// sparse–dense sweep serves every sample in the batch. Assembly is
    /// direct CSR concatenation (row pointers shifted by the running nnz,
    /// column indices by the running column offset) — no COO round-trip —
    /// and each fused row keeps its source row's entries in the same
    /// strictly-increasing column order, so per-row accumulation in
    /// [`CsrMatrix::mul_dense`] is bit-identical to running the source
    /// block alone.
    ///
    /// An empty slice yields the empty `0 × 0` matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use gana_sparse::CsrMatrix;
    ///
    /// let a = CsrMatrix::identity(2);
    /// let b = CsrMatrix::from_diagonal(&[3.0]);
    /// let f = CsrMatrix::block_diag(&[&a, &b]);
    /// assert_eq!(f.shape(), (3, 3));
    /// assert_eq!(f.get(2, 2), 3.0);
    /// assert_eq!(f.get(2, 0), 0.0);
    /// ```
    pub fn block_diag(blocks: &[&CsrMatrix]) -> CsrMatrix {
        let mut out = CsrMatrix::default();
        CsrMatrix::block_diag_into(blocks, &mut out);
        out
    }

    /// [`CsrMatrix::block_diag`] writing into an existing matrix, reusing
    /// its heap storage — the steady-state form for callers that assemble
    /// a fused operator per request (a serving worker's workspace). The
    /// result is identical to `block_diag`; only allocation differs.
    pub fn block_diag_into(blocks: &[&CsrMatrix], out: &mut CsrMatrix) {
        out.rows = blocks.iter().map(|b| b.rows).sum();
        out.cols = blocks.iter().map(|b| b.cols).sum();
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        out.indptr.clear();
        out.indptr.reserve(out.rows + 1);
        out.indices.clear();
        out.indices.reserve(nnz);
        out.values.clear();
        out.values.reserve(nnz);
        out.indptr.push(0);
        let mut col_offset = 0;
        let mut nnz_offset = 0;
        for b in blocks {
            out.indptr
                .extend(b.indptr[1..].iter().map(|&p| p + nnz_offset));
            out.indices
                .extend(b.indices.iter().map(|&c| c + col_offset));
            out.values.extend_from_slice(&b.values);
            col_offset += b.cols;
            nnz_offset += b.nnz();
        }
    }

    /// Bytes of heap memory held by the matrix buffers (capacities, not
    /// lengths) — the accounting unit for workspace high-water stats.
    pub fn heap_bytes(&self) -> usize {
        self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`rows + 1` entries, monotone, ending at nnz).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Stored column indices in row-major order, strictly increasing
    /// within each row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, position-aligned with [`CsrMatrix::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns the entry at `(r, c)`, which is `0.0` when not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        let row = &self.indices[self.indptr[r]..self.indptr[r + 1]];
        match row.binary_search(&c) {
            Ok(pos) => self.values[self.indptr[r] + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let range = self.indptr[r]..self.indptr[r + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Iterates over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_iter(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "mul_vec",
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[i] * x[self.indices[i]];
            }
            *out = acc;
        }
        Ok(y)
    }

    /// Sparse–dense product `Y = A·X` where `X` is dense.
    ///
    /// This is the hot path of the Chebyshev recurrence: cost `O(nnz · X.cols())`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, x.cols());
        self.mul_dense_into(x, &mut out)?;
        Ok(out)
    }

    /// [`CsrMatrix::mul_dense`] written into `out` (resized and zeroed),
    /// reusing `out`'s allocation. Runs the cache-blocked, register-tiled
    /// micro-kernel: the output row is cut into fixed-width column tiles
    /// (`COL_TILE` wide) held in unrolled register accumulators while the
    /// nnz loop streams over the row's stored entries. Every output element
    /// still receives its addends in exactly the naive kernel's order (the
    /// row's entries, first to last), so the result is **bit-identical** to
    /// [`CsrMatrix::mul_dense_into_naive`] — tiling only reorders work
    /// *across* independent output elements, never the summation *within*
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense_into(&self, x: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if x.rows() != self.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: x.shape(),
                op: "mul_dense",
            });
        }
        let cols = x.cols();
        out.resize(self.rows, cols);
        self.spmm_rows_tiled(kernel::active(), 0..self.rows, x, out.as_mut_slice());
        Ok(())
    }

    /// [`CsrMatrix::mul_dense_into`] run with an explicitly chosen kernel
    /// instead of the process-wide [`kernel::active`] selection — the entry
    /// point the byte-identity proptests and the `spmm_phased_array_*`
    /// microbenches use to exercise both the scalar and SIMD paths in one
    /// process on any box. An unavailable kernel falls back to scalar.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense_into_with_kernel(
        &self,
        kernel: Kernel,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        if x.rows() != self.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: x.shape(),
                op: "mul_dense",
            });
        }
        let cols = x.cols();
        out.resize(self.rows, cols);
        self.spmm_rows_tiled(kernel, 0..self.rows, x, out.as_mut_slice());
        Ok(())
    }

    /// The straightforward nnz-outer scalar kernel, kept as the bit-for-bit
    /// reference the tiled [`CsrMatrix::mul_dense_into`] micro-kernel is
    /// proptested against. Not a hot path — prefer `mul_dense_into`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense_into_naive(&self, x: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if x.rows() != self.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: x.shape(),
                op: "mul_dense",
            });
        }
        out.resize(self.rows, x.cols());
        for r in 0..self.rows {
            for i in self.indptr[r]..self.indptr[r + 1] {
                let v = self.values[i];
                let src = x.row(self.indices[i]);
                let dst = out.row_mut(r);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += v * s;
                }
            }
        }
        Ok(())
    }

    /// Computes output rows `range` of `self · x` into `dst`, a zeroed
    /// row-major block of `range.len() × x.cols()`, with the given
    /// micro-kernel. Shared by the serial and row-parallel entry points so
    /// both run the identical tile loop.
    ///
    /// Per tile, [`kernel::COL_TILE`] accumulators start at the block's
    /// `0.0` and take the row's stored entries in index order — the same
    /// per-element addend sequence as the naive kernel — then store once.
    /// The ragged tail (`x.cols() % COL_TILE` columns) runs the same
    /// nnz-ordered accumulation with in-place adds on the zeroed
    /// destination. Every kernel variant honors the byte-identity contract
    /// documented in [`kernel`], so the choice never changes results.
    fn spmm_rows_tiled(
        &self,
        kernel: Kernel,
        range: std::ops::Range<usize>,
        x: &DenseMatrix,
        dst: &mut [f64],
    ) {
        kernel::spmm_rows(
            kernel,
            &self.indptr,
            &self.indices,
            &self.values,
            x.as_slice(),
            x.cols(),
            range,
            dst,
        );
    }

    /// Row-parallel [`CsrMatrix::mul_dense`] over the given thread budget.
    ///
    /// The output is tiled by whole rows, so every row's accumulation runs
    /// in exactly the serial kernel's order and the result is
    /// **bit-identical** to [`CsrMatrix::mul_dense`] at any thread count
    /// (see `gana-par`'s determinism contract). With a serial budget this
    /// delegates to the serial kernel directly.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense_par(&self, par: &Parallelism, x: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, x.cols());
        self.mul_dense_par_into(par, x, &mut out)?;
        Ok(out)
    }

    /// [`CsrMatrix::mul_dense_par`] written into `out` (resized and zeroed),
    /// reusing `out`'s allocation; byte-identical to the allocating kernels
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.cols()`.
    pub fn mul_dense_par_into(
        &self,
        par: &Parallelism,
        x: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        if par.is_serial() || self.rows <= PAR_ROW_GRAIN {
            return self.mul_dense_into(x, out);
        }
        if x.rows() != self.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: x.shape(),
                op: "mul_dense_par",
            });
        }
        let cols = x.cols();
        let active = kernel::active();
        let blocks = par.map_chunks(self.rows, PAR_ROW_GRAIN, |range| {
            let mut block = vec![0.0; (range.end - range.start) * cols];
            self.spmm_rows_tiled(active, range.clone(), x, &mut block);
            (range, block)
        });
        out.resize(self.rows, cols);
        let flat = out.as_mut_slice();
        for (range, block) in blocks {
            flat[range.start * cols..range.end * cols].copy_from_slice(&block);
        }
        Ok(())
    }

    /// Transposed sparse–dense product `Y = Aᵀ·X` without materializing `Aᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `X.rows() != self.rows()`.
    pub fn transpose_mul_dense(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        if x.rows() != self.rows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: x.shape(),
                op: "transpose_mul_dense",
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, x.cols());
        for r in 0..self.rows {
            let src = x.row(r);
            for i in self.indptr[r]..self.indptr[r + 1] {
                let v = self.values[i];
                let dst = out.row_mut(self.indices[i]);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += v * s;
                }
            }
        }
        Ok(out)
    }

    /// Returns `alpha·A + beta·B` as a new CSR matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
    pub fn linear_combination(
        &self,
        alpha: f64,
        other: &CsrMatrix,
        beta: f64,
    ) -> Result<CsrMatrix> {
        if self.shape() != other.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "linear_combination",
            });
        }
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz() + other.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, alpha * v)
                .expect("indices from a valid CSR are in bounds");
        }
        for (r, c, v) in other.iter() {
            coo.push(r, c, beta * v)
                .expect("indices from a valid CSR are in bounds");
        }
        Ok(coo.to_csr())
    }

    /// Returns `A` scaled by `s`.
    pub fn scale(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.cols, self.rows, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(c, r, v).expect("transposed indices are in bounds");
        }
        coo.to_csr()
    }

    /// Extracts the main diagonal (length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Row sums; for an adjacency matrix these are the vertex degrees.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Converts to a dense matrix. Intended for tests and small graphs.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// True if the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.iter()
            .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
    }

    /// Extracts the square submatrix induced by `keep` (in the given order).
    ///
    /// Entry `(i, j)` of the result equals entry `(keep[i], keep[j])` of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] if the matrix is rectangular, or
    /// [`SparseError::IndexOutOfBounds`] if any index in `keep` is out of range.
    pub fn submatrix(&self, keep: &[usize]) -> Result<CsrMatrix> {
        if self.rows != self.cols {
            return Err(SparseError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut position = vec![usize::MAX; self.rows];
        for (new, &old) in keep.iter().enumerate() {
            if old >= self.rows {
                return Err(SparseError::IndexOutOfBounds {
                    index: (old, old),
                    shape: self.shape(),
                });
            }
            position[old] = new;
        }
        let mut coo = CooMatrix::new(keep.len(), keep.len());
        for (new_r, &old_r) in keep.iter().enumerate() {
            for (old_c, v) in self.row_iter(old_r) {
                let new_c = position[old_c];
                if new_c != usize::MAX {
                    coo.push(new_r, new_c, v)
                        .expect("in bounds by construction");
                }
            }
        }
        Ok(coo.to_csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 3 ]
        // [ 4 5 0 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 2, 3.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
        ] {
            coo.push(r, c, v).expect("in bounds");
        }
        coo.to_csr()
    }

    #[test]
    fn get_returns_stored_and_zero_entries() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 5.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let y = a.mul_vec(&x).expect("length matches");
        assert_eq!(y, vec![7.0, 9.0, 14.0]);
    }

    #[test]
    fn mul_vec_length_mismatch_is_error() {
        let a = sample();
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mul_dense_matches_dense_matmul() {
        let a = sample();
        let x = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[3.0, 2.0]]).expect("valid");
        let sparse_result = a.mul_dense(&x).expect("shapes match");
        let dense_result = a.to_dense().matmul(&x).expect("shapes match");
        assert_eq!(sparse_result, dense_result);
    }

    #[test]
    fn transpose_mul_dense_matches_explicit_transpose() {
        let a = sample();
        let x = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).expect("valid");
        let fused = a.transpose_mul_dense(&x).expect("shapes match");
        let explicit = a.transpose().mul_dense(&x).expect("shapes match");
        assert_eq!(fused, explicit);
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn linear_combination_cancels_to_empty() {
        let a = sample();
        let zero = a.linear_combination(1.0, &a, -1.0).expect("same shape");
        assert_eq!(zero.nnz(), 0);
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x).expect("length matches"), x.to_vec());
    }

    #[test]
    fn diagonal_and_row_sums() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 0.0, 0.0]);
        assert_eq!(a.row_sums(), vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn symmetry_check() {
        let a = sample();
        assert!(!a.is_symmetric(1e-12));
        let sym = a
            .linear_combination(1.0, &a.transpose(), 1.0)
            .expect("same shape");
        assert!(sym.is_symmetric(1e-12));
    }

    #[test]
    fn from_raw_parts_validates() {
        // Wrong indptr length.
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-increasing column indices within a row.
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // Valid.
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn submatrix_extracts_induced_block() {
        let a = sample();
        let sub = a.submatrix(&[2, 0]).expect("valid indices");
        // Rows/cols reordered: sub[0][1] = a[2][0] = 4.
        assert_eq!(sub.get(0, 1), 4.0);
        assert_eq!(sub.get(1, 1), 1.0);
        assert_eq!(sub.get(1, 0), 2.0); // a[0][2]
    }

    #[test]
    fn submatrix_rejects_bad_index() {
        let a = sample();
        assert!(a.submatrix(&[5]).is_err());
    }

    #[test]
    fn mul_dense_par_is_bit_identical_to_serial() {
        // Pseudo-random matrix big enough to exceed the parallel row grain
        // and split across several chunks.
        let n = 300;
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..5 {
                let c = (next() % n as u64) as usize;
                let v = (next() % 1000) as f64 / 37.0 - 13.0;
                coo.push(r, c, v).expect("in bounds");
            }
        }
        let a = coo.to_csr();
        let x = DenseMatrix::from_fn(n, 7, |i, j| ((i * 31 + j * 17) % 101) as f64 / 9.0);
        let serial = a.mul_dense(&x).expect("shapes match");
        for threads in [1, 2, 3, 8] {
            let par = Parallelism::new(threads);
            let parallel = a.mul_dense_par(&par, &x).expect("shapes match");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn mul_dense_into_reuses_buffer_and_matches_fresh() {
        let a = sample();
        let x = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[3.0, 2.0]]).expect("valid");
        let fresh = a.mul_dense(&x).expect("shapes match");
        let mut reused = DenseMatrix::filled(7, 1, 42.0);
        a.mul_dense_into(&x, &mut reused).expect("shapes match");
        assert_eq!(reused, fresh);
        let par = Parallelism::new(3);
        a.mul_dense_par_into(&par, &x, &mut reused)
            .expect("shapes match");
        assert_eq!(reused, fresh);
    }

    #[test]
    fn mul_dense_par_rejects_shape_mismatch() {
        let a = sample();
        let par = Parallelism::new(2);
        assert!(a.mul_dense_par(&par, &DenseMatrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn scale_multiplies_values() {
        let a = sample().scale(2.0);
        assert_eq!(a.get(2, 1), 10.0);
    }

    #[test]
    fn block_diag_places_blocks_on_the_diagonal() {
        let a = sample();
        let b = CsrMatrix::from_diagonal(&[7.0, -2.0]);
        let f = CsrMatrix::block_diag(&[&a, &b]);
        assert_eq!(f.shape(), (5, 5));
        assert_eq!(f.nnz(), a.nnz() + b.nnz());
        for (r, c, v) in a.iter() {
            assert_eq!(f.get(r, c), v);
        }
        for (r, c, v) in b.iter() {
            assert_eq!(f.get(r + 3, c + 3), v);
        }
        assert_eq!(f.get(0, 3), 0.0);
        assert_eq!(f.get(4, 2), 0.0);
    }

    #[test]
    fn block_diag_of_nothing_is_empty() {
        let f = CsrMatrix::block_diag(&[]);
        assert_eq!(f.shape(), (0, 0));
        assert_eq!(f.nnz(), 0);
    }

    #[test]
    fn block_diag_mul_matches_per_block_products() {
        let a = sample();
        let b = CsrMatrix::identity(2);
        let f = CsrMatrix::block_diag(&[&a, &b]);
        let xa = DenseMatrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 / 3.0);
        let xb = DenseMatrix::from_fn(2, 4, |i, j| (i + j * 5) as f64 / 7.0);
        let stacked = xa.vstack(&xb).expect("same width");
        let fused = f.mul_dense(&stacked).expect("shapes match");
        let ya = a.mul_dense(&xa).expect("shapes match");
        let yb = b.mul_dense(&xb).expect("shapes match");
        assert_eq!(fused, ya.vstack(&yb).expect("same width"));
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_naive_across_widths() {
        let n = 97;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..4 {
                let c = (next() % n as u64) as usize;
                let v = (next() % 1000) as f64 / 41.0 - 11.0;
                coo.push(r, c, v).expect("in bounds");
            }
        }
        let a = coo.to_csr();
        // Widths straddling the tile boundary: below, exact, ragged, multiple.
        for cols in [1, 7, 8, 9, 15, 16, 23, 64] {
            let x = DenseMatrix::from_fn(n, cols, |i, j| ((i * 31 + j * 17) % 103) as f64 / 9.0);
            let mut tiled = DenseMatrix::default();
            let mut naive = DenseMatrix::default();
            a.mul_dense_into(&x, &mut tiled).expect("shapes match");
            a.mul_dense_into_naive(&x, &mut naive)
                .expect("shapes match");
            assert_eq!(tiled, naive, "cols={cols}");
        }
    }
}
