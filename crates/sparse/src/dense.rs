use crate::kernel;
use crate::{Result, SparseError};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A row-major dense matrix of `f64`.
///
/// Used throughout the GNN for feature maps (`n × d`), layer weights
/// (`d_in × d_out`), and gradients. The representation is a flat `Vec<f64>`
/// indexed as `data[r * cols + c]`.
///
/// # Examples
///
/// ```
/// use gana_sparse::DenseMatrix;
///
/// # fn main() -> Result<(), gana_sparse::SparseError> {
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidData`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(SparseError::InvalidData(format!(
                    "row {i} has length {}, expected {ncols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidData`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::InvalidData(format!(
                "flat data has length {}, expected {rows}*{cols}={}",
                data.len(),
                rows * cols
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Builds a single-column matrix from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        DenseMatrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
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

    /// Returns the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] += v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes the matrix to `rows × cols` and zeros every entry, reusing
    /// the existing allocation when it has enough capacity.
    ///
    /// This is the workspace-reuse primitive: repeated calls with varying
    /// shapes settle on the high-water allocation instead of reallocating
    /// per request.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `src` (shape and contents), reusing the
    /// existing allocation when possible.
    pub fn copy_from(&mut self, src: &DenseMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into `out` (resized and zeroed),
    /// reusing `out`'s allocation. The accumulation order is identical to
    /// [`DenseMatrix::matmul`], so results are byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        out.resize(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "transpose_matmul",
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let lhs_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul_transpose",
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let lhs_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let rhs_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let dot: f64 = lhs_row.iter().zip(rhs_row).map(|(a, b)| a * b).sum();
                out.data[i * rhs.rows + j] = dot;
            }
        }
        Ok(out)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn add_matrix(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn sub_matrix(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &DenseMatrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place `self += alpha * rhs` (AXPY), run by the active SIMD
    /// kernel ([`crate::kernel::active`]); every kernel is bit-identical
    /// to the scalar loop.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "axpy",
            });
        }
        kernel::axpy(kernel::active(), &mut self.data, alpha, &rhs.data);
        Ok(())
    }

    /// In-place fused `self = alpha * self + beta * rhs` — the Chebyshev
    /// combine step `T_k = 2·(L̂·T_{k−1}) − T_{k−2}` in a single sweep, run
    /// by the active SIMD kernel. Per element this is multiply, multiply,
    /// add, so the result is **bit-identical** to
    /// [`DenseMatrix::scale_in_place`]`(alpha)` followed by
    /// [`DenseMatrix::axpy`]`(beta, rhs)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if shapes differ.
    pub fn scale_axpy(&mut self, alpha: f64, beta: f64, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "scale_axpy",
            });
        }
        kernel::scale_axpy(kernel::active(), &mut self.data, alpha, beta, &rhs.data);
        Ok(())
    }

    /// Returns a copy with every entry multiplied by `s`.
    pub fn scale(&self, s: f64) -> DenseMatrix {
        self.map(|v| v * s)
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm (root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sums each column into a length-`cols` vector (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Extracts the rows listed in `indices` into a new matrix (gather).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`DenseMatrix::gather_rows`] written into `out` (resized), reusing
    /// `out`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut DenseMatrix) {
        out.resize(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Bytes of heap memory backing the matrix (capacity, not length) —
    /// the workspace high-water accounting unit.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "vstack",
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates `self` and `other` side by side.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if row counts differ.
    pub fn hstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "hstack",
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Index of the largest entry in row `r` (ties broken toward lower index).
    ///
    /// Returns `None` for a zero-column matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_argmax(&self, r: usize) -> Option<usize> {
        let row = self.row(r);
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in row.iter().enumerate() {
            match best {
                Some((_, bv)) if v <= bv => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:.4}"))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`DenseMatrix::add_matrix`] for a fallible version.
    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.add_matrix(rhs)
            .expect("matrix shapes must match for +")
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`DenseMatrix::sub_matrix`] for a fallible version.
    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.sub_matrix(rhs)
            .expect("matrix shapes must match for -")
    }
}

impl Mul<f64> for &DenseMatrix {
    type Output = DenseMatrix;

    fn mul(self, s: f64) -> DenseMatrix {
        self.scale(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).expect("valid rows")
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = DenseMatrix::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let a = sample();
        let i3 = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i3).expect("shapes match"), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[&[7.0], &[8.0], &[9.0]]).expect("valid rows");
        let c = a.matmul(&b).expect("shapes match");
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c.get(0, 0), 1.0 * 7.0 + 2.0 * 8.0 + 3.0 * 9.0);
        assert_eq!(c.get(1, 0), 4.0 * 7.0 + 5.0 * 8.0 + 6.0 * 9.0);
    }

    #[test]
    fn matmul_shape_mismatch_is_an_error() {
        let a = sample();
        let err = a
            .matmul(&sample())
            .expect_err("3 cols vs 2 rows must not multiply");
        assert!(matches!(
            err,
            SparseError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0]]).expect("valid rows");
        let fused = a.transpose_matmul(&b).expect("shapes match");
        let explicit = a.transpose().matmul(&b).expect("shapes match");
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]]).expect("valid");
        let fused = a.matmul_transpose(&b).expect("shapes match");
        let explicit = a.matmul(&b.transpose()).expect("shapes match");
        assert_eq!(fused, explicit);
    }

    #[test]
    fn elementwise_operations() {
        let a = sample();
        let sum = a.add_matrix(&a).expect("same shape");
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = a.sub_matrix(&a).expect("same shape");
        assert_eq!(diff.frobenius_norm(), 0.0);
        let had = a.hadamard(&a).expect("same shape");
        assert_eq!(had.get(0, 1), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = sample();
        let b = sample();
        a.axpy(2.0, &b).expect("same shape");
        assert_eq!(a.get(0, 0), 3.0);
    }

    #[test]
    fn scale_axpy_is_bitwise_equal_to_scale_then_axpy() {
        let a = DenseMatrix::from_fn(5, 9, |i, j| ((i * 13 + j * 7) % 29) as f64 / 3.0 - 4.0);
        let b = DenseMatrix::from_fn(5, 9, |i, j| ((i * 5 + j * 11) % 31) as f64 / 7.0 - 2.0);
        let mut two_pass = a.clone();
        two_pass.scale_in_place(2.0);
        two_pass.axpy(-1.0, &b).expect("same shape");
        let mut fused = a.clone();
        fused.scale_axpy(2.0, -1.0, &b).expect("same shape");
        assert_eq!(fused, two_pass);
        assert!(fused
            .as_slice()
            .iter()
            .zip(two_pass.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn scale_axpy_rejects_shape_mismatch() {
        let mut a = sample();
        let b = DenseMatrix::zeros(1, 1);
        assert!(a.scale_axpy(2.0, -1.0, &b).is_err());
    }

    #[test]
    fn column_sums_sum_each_column() {
        let a = sample();
        assert_eq!(a.column_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = sample();
        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(0), a.row(1));
        assert_eq!(g.row(2), a.row(0));
    }

    #[test]
    fn stacking() {
        let a = sample();
        let v = a.vstack(&a).expect("same cols");
        assert_eq!(v.shape(), (4, 3));
        let h = a.hstack(&a).expect("same rows");
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(0, 4), 2.0);
    }

    #[test]
    fn row_argmax_picks_first_max() {
        let m = DenseMatrix::from_rows(&[&[1.0, 3.0, 3.0]]).expect("valid");
        assert_eq!(m.row_argmax(0), Some(1));
        let empty = DenseMatrix::zeros(1, 0);
        assert_eq!(empty.row_argmax(0), None);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m.set(0, 0, f64::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).expect_err("ragged");
        assert!(matches!(err, SparseError::InvalidData(_)));
    }

    #[test]
    fn resize_reuses_capacity_and_zeros() {
        let mut m = DenseMatrix::filled(4, 4, 7.0);
        let cap_before = m.heap_bytes();
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(m.heap_bytes(), cap_before, "shrink keeps the allocation");
        m.resize(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn copy_from_matches_clone() {
        let a = sample();
        let mut b = DenseMatrix::filled(5, 5, 9.0);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn matmul_into_is_identical_to_matmul() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[&[7.0, 1.0], &[8.0, -2.0], &[9.0, 0.5]]).expect("valid");
        let fresh = a.matmul(&b).expect("shapes match");
        let mut reused = DenseMatrix::filled(1, 7, 3.0);
        a.matmul_into(&b, &mut reused).expect("shapes match");
        assert_eq!(reused, fresh);
        assert!(a.matmul_into(&a, &mut reused).is_err());
    }

    #[test]
    fn gather_rows_into_is_identical_to_gather_rows() {
        let a = sample();
        let fresh = a.gather_rows(&[1, 1, 0]);
        let mut reused = DenseMatrix::filled(9, 2, -1.0);
        a.gather_rows_into(&[1, 1, 0], &mut reused);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn operator_overloads() {
        let a = sample();
        let sum = &a + &a;
        assert_eq!(sum.get(0, 0), 2.0);
        let diff = &a - &a;
        assert_eq!(diff.sum(), 0.0);
        let scaled = &a * 3.0;
        assert_eq!(scaled.get(1, 0), 12.0);
    }
}
