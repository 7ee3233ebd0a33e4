//! Chebyshev spectral graph convolution (paper Eqs. 2–5).
//!
//! The filter `g_θ(L) x = Σ_{k=0}^{K−1} θ_k T_k(L̂) x` is evaluated with the
//! recurrence `T_0 = I`, `T_1 = L̂`, `T_k = 2 L̂ T_{k−1} − T_{k−2}` (Eq. 4),
//! so a forward pass costs `K` sparse–dense products — `O(K·n)` for a
//! bounded-degree graph, as the paper emphasizes.

use crate::{GnnError, Result};
use gana_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::Rng;

/// A Chebyshev graph-convolution layer with `K` filter taps.
///
/// Maps an `n × in_dim` signal to `n × out_dim`:
/// `Y = Σ_k T_k(L̂) X W_k + 1·bᵀ`, where each `W_k` is `in_dim × out_dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChebConv {
    weights: Vec<DenseMatrix>,
    bias: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
}

/// Cached intermediate state from a forward pass, consumed by backward.
#[derive(Debug, Clone)]
pub struct ChebConvCache {
    /// The Chebyshev basis signals `T_k(L̂) X`, one per tap.
    basis: Vec<DenseMatrix>,
}

impl ChebConv {
    /// Creates a layer with Glorot-uniform initial weights.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `filter_order == 0` or either
    /// dimension is zero.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        filter_order: usize,
        rng: &mut StdRng,
    ) -> Result<Self> {
        if filter_order == 0 || in_dim == 0 || out_dim == 0 {
            return Err(GnnError::InvalidConfig(format!(
                "chebconv needs positive dims and order, got {in_dim}x{out_dim} K={filter_order}"
            )));
        }
        let limit = (6.0 / (in_dim as f64 * filter_order as f64 + out_dim as f64)).sqrt();
        let weights = (0..filter_order)
            .map(|_| DenseMatrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit)))
            .collect();
        Ok(ChebConv {
            weights,
            bias: vec![0.0; out_dim],
            in_dim,
            out_dim,
        })
    }

    /// Filter order `K`.
    pub fn filter_order(&self) -> usize {
        self.weights.len()
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The Chebyshev basis `[T_0(L̂)X, …, T_{K−1}(L̂)X]` written into
    /// reusable buffers: `basis` is extended to `K` matrices (reusing
    /// existing allocations). The recurrence is sequential in `k` (each
    /// `T_k` needs `T_{k−1}`); the combine step runs the fused
    /// [`DenseMatrix::scale_axpy`] sweep, which is bit-identical to the
    /// two-pass `scale_in_place` + `axpy` form.
    fn chebyshev_basis_into(
        &self,
        laplacian: &CsrMatrix,
        x: &DenseMatrix,
        basis: &mut Vec<DenseMatrix>,
    ) -> Result<()> {
        let taps = self.filter_order();
        if basis.len() < taps {
            basis.resize_with(taps, DenseMatrix::default);
        }
        basis[0].copy_from(x);
        if taps > 1 {
            laplacian.mul_dense_into(x, &mut basis[1])?;
        }
        for k in 2..taps {
            // T_k = 2 L̂ T_{k-1} − T_{k-2}, fused into one SIMD sweep.
            let (prev, rest) = basis.split_at_mut(k);
            let t = &mut rest[0];
            laplacian.mul_dense_into(&prev[k - 1], t)?;
            t.scale_axpy(2.0, -1.0, &prev[k - 2])?;
        }
        Ok(())
    }

    /// Training forward pass: [`ChebConv::forward_into`] on fresh buffers,
    /// keeping the Chebyshev basis as the cache for [`ChebConv::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x` has the wrong number of
    /// columns or does not match the Laplacian's vertex count.
    pub fn forward(
        &self,
        laplacian: &CsrMatrix,
        x: &DenseMatrix,
    ) -> Result<(DenseMatrix, ChebConvCache)> {
        let mut basis = Vec::with_capacity(self.filter_order());
        let mut term = DenseMatrix::default();
        let mut y = DenseMatrix::default();
        self.forward_into(laplacian, x, &mut basis, &mut term, &mut y)?;
        Ok((y, ChebConvCache { basis }))
    }

    /// The one forward body, writing every intermediate into caller-owned
    /// buffers: the Chebyshev basis into `basis`, the per-tap product into
    /// `term`, and the layer output into `y`. Every kernel overwrites what
    /// it writes, so `y` is byte-identical whether the buffers are fresh or
    /// recycled.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x` has the wrong number of
    /// columns or does not match the Laplacian's vertex count.
    pub fn forward_into(
        &self,
        laplacian: &CsrMatrix,
        x: &DenseMatrix,
        basis: &mut Vec<DenseMatrix>,
        term: &mut DenseMatrix,
        y: &mut DenseMatrix,
    ) -> Result<()> {
        self.check_forward_shapes(laplacian, x)?;
        self.chebyshev_basis_into(laplacian, x, basis)?;
        // `basis` may hold more than `K` matrices (a recycled workspace);
        // the zip reads only the first `K`.
        y.resize(x.rows(), self.out_dim);
        for (t, w) in basis.iter().zip(&self.weights) {
            t.matmul_into(w, term)?;
            y.axpy(1.0, term)?;
        }
        for r in 0..y.rows() {
            for (value, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *value += b;
            }
        }
        Ok(())
    }

    /// The input-shape validation of [`ChebConv::forward_into`].
    fn check_forward_shapes(&self, laplacian: &CsrMatrix, x: &DenseMatrix) -> Result<()> {
        if x.cols() != self.in_dim {
            return Err(GnnError::ShapeMismatch(format!(
                "chebconv expects {} input features, got {}",
                self.in_dim,
                x.cols()
            )));
        }
        if x.rows() != laplacian.rows() {
            return Err(GnnError::ShapeMismatch(format!(
                "signal has {} rows but Laplacian is {}x{}",
                x.rows(),
                laplacian.rows(),
                laplacian.cols()
            )));
        }
        Ok(())
    }

    /// Backward pass: returns `(grad_x, grad_weights, grad_bias)`.
    ///
    /// `grad_x = Σ_k T_k(L̂) (grad_y W_kᵀ)` (valid because `L̂` is symmetric,
    /// so `T_k(L̂)ᵀ = T_k(L̂)`); `grad_{W_k} = (T_k(L̂) X)ᵀ grad_y`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward(
        &self,
        laplacian: &CsrMatrix,
        cache: &ChebConvCache,
        grad_y: &DenseMatrix,
    ) -> Result<(DenseMatrix, Vec<DenseMatrix>, Vec<f64>)> {
        if grad_y.cols() != self.out_dim {
            return Err(GnnError::ShapeMismatch(format!(
                "grad has {} cols, layer outputs {}",
                grad_y.cols(),
                self.out_dim
            )));
        }
        let mut grad_weights = Vec::with_capacity(self.filter_order());
        for t in &cache.basis {
            grad_weights.push(t.transpose_matmul(grad_y)?);
        }
        let grad_bias = grad_y.column_sums();

        // grad_x via the same recurrence applied to grad_y W_kᵀ terms.
        let projected: Vec<DenseMatrix> = self
            .weights
            .iter()
            .map(|w| grad_y.matmul_transpose(w))
            .collect::<std::result::Result<_, _>>()?;
        let mut grad_x = projected[0].clone();
        if self.filter_order() > 1 {
            let mut t1 = DenseMatrix::default();
            laplacian.mul_dense_into(&projected[1], &mut t1)?;
            grad_x.axpy(1.0, &t1)?;
        }
        // For k ≥ 2, T_k(L̂) applied to projected[k]; reuse the recurrence
        // per tap (K is small — ≤ 60 in the paper's sweep).
        for (k, p) in projected.iter().enumerate().skip(2) {
            let mut t_prev2 = p.clone();
            let mut t_prev1 = DenseMatrix::default();
            laplacian.mul_dense_into(p, &mut t_prev1)?;
            for _ in 2..=k {
                let mut t = DenseMatrix::default();
                laplacian.mul_dense_into(&t_prev1, &mut t)?;
                t.scale_axpy(2.0, -1.0, &t_prev2)?;
                t_prev2 = t_prev1;
                t_prev1 = t;
            }
            grad_x.axpy(1.0, &t_prev1)?;
        }
        Ok((grad_x, grad_weights, grad_bias))
    }

    /// Mutable access to the tap weights, in tap order (for the optimizer).
    pub fn weights_mut(&mut self) -> &mut [DenseMatrix] {
        &mut self.weights
    }

    /// The tap weights.
    pub fn weights(&self) -> &[DenseMatrix] {
        &self.weights
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.filter_order() * self.in_dim * self.out_dim + self.out_dim
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the gradient math
mod tests {
    use super::*;
    use gana_sparse::CooMatrix;
    use rand::SeedableRng;

    fn ring_laplacian(n: usize) -> CsrMatrix {
        // Scaled Laplacian of a ring graph (symmetric, spectrum ⊂ [-1, 1]).
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push_symmetric(i, (i + 1) % n, 1.0).expect("in bounds");
        }
        let adj = coo.to_csr();
        let degrees = adj.row_sums();
        let mut lcoo = CooMatrix::new(n, n);
        for i in 0..n {
            lcoo.push(i, i, 1.0).expect("in bounds");
        }
        for (r, c, v) in adj.iter() {
            lcoo.push(r, c, -v / (degrees[r].sqrt() * degrees[c].sqrt()))
                .expect("in bounds");
        }
        let l = lcoo.to_csr();
        let eye = CsrMatrix::identity(n);
        l.linear_combination(1.0, &eye, -1.0).expect("same shape") // λmax=2 ⇒ L̂ = L − I
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_filter_with_k1_is_linear_map() {
        let mut r = rng();
        let conv = ChebConv::new(3, 2, 1, &mut r).expect("valid");
        let l = ring_laplacian(4);
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let (y, _) = conv.forward(&l, &x).expect("shapes ok");
        let expected = x.matmul(&conv.weights()[0]).expect("shapes ok");
        assert!(
            (&y - &expected).frobenius_norm() < 1e-12,
            "K=1 ⇒ y = X W_0 (+0 bias)"
        );
    }

    #[test]
    fn rejects_bad_shapes_and_configs() {
        let mut r = rng();
        assert!(ChebConv::new(0, 2, 3, &mut r).is_err());
        assert!(ChebConv::new(2, 2, 0, &mut r).is_err());
        let conv = ChebConv::new(3, 2, 2, &mut r).expect("valid");
        let l = ring_laplacian(4);
        let bad_cols = DenseMatrix::zeros(4, 5);
        assert!(conv.forward(&l, &bad_cols).is_err());
        let bad_rows = DenseMatrix::zeros(3, 3);
        assert!(conv.forward(&l, &bad_rows).is_err());
    }

    #[test]
    fn chebyshev_recurrence_matches_dense_polynomials() {
        // Verify T_k(L̂)X against densely computed Chebyshev matrices.
        let mut r = rng();
        let conv = ChebConv::new(1, 1, 4, &mut r).expect("valid");
        let l = ring_laplacian(5);
        let x = DenseMatrix::from_fn(5, 1, |i, _| (i as f64) - 2.0);
        let (_, cache) = conv.forward(&l, &x).expect("shapes ok");
        let basis = cache.basis;

        let ld = l.to_dense();
        let eye = DenseMatrix::identity(5);
        let t1 = ld.clone();
        let t2 = &ld.matmul(&ld).expect("square").scale(2.0) - &eye;
        let t3 = &ld.matmul(&t2).expect("square").scale(2.0) - &t1;
        for (tk, expect) in basis.iter().zip([&eye, &t1, &t2, &t3]) {
            let want = expect.matmul(&x).expect("shapes ok");
            assert!((tk - &want).frobenius_norm() < 1e-10);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = ChebConv::new(2, 2, 3, &mut r).expect("valid");
        let l = ring_laplacian(4);
        let x = DenseMatrix::from_fn(4, 2, |i, j| 0.3 * (i as f64) - 0.2 * (j as f64) + 0.1);
        // Loss = sum of outputs (so dL/dy = 1 everywhere).
        let (y0, cache) = conv.forward(&l, &x).expect("shapes ok");
        let ones = DenseMatrix::filled(y0.rows(), y0.cols(), 1.0);
        let (gx, gw, gb) = conv.backward(&l, &cache, &ones).expect("shapes ok");

        let eps = 1e-6;
        // Check dL/dx entries.
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let (yp, _) = conv.forward(&l, &xp).expect("shapes ok");
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let (ym, _) = conv.forward(&l, &xm).expect("shapes ok");
                let fd = (yp.sum() - ym.sum()) / (2.0 * eps);
                assert!(
                    (gx.get(i, j) - fd).abs() < 1e-6,
                    "dx[{i}][{j}] analytic {} vs fd {fd}",
                    gx.get(i, j)
                );
            }
        }
        // Check dL/dW_k entries for every tap.
        for k in 0..conv.filter_order() {
            for i in 0..2 {
                for j in 0..2 {
                    let orig = conv.weights()[k].get(i, j);
                    conv.weights_mut()[k].set(i, j, orig + eps);
                    let (yp, _) = conv.forward(&l, &x).expect("shapes ok");
                    conv.weights_mut()[k].set(i, j, orig - eps);
                    let (ym, _) = conv.forward(&l, &x).expect("shapes ok");
                    conv.weights_mut()[k].set(i, j, orig);
                    let fd = (yp.sum() - ym.sum()) / (2.0 * eps);
                    assert!(
                        (gw[k].get(i, j) - fd).abs() < 1e-6,
                        "dW{k}[{i}][{j}] analytic {} vs fd {fd}",
                        gw[k].get(i, j)
                    );
                }
            }
        }
        // Check dL/db.
        for j in 0..2 {
            let orig = conv.bias()[j];
            conv.bias_mut()[j] = orig + eps;
            let (yp, _) = conv.forward(&l, &x).expect("shapes ok");
            conv.bias_mut()[j] = orig - eps;
            let (ym, _) = conv.forward(&l, &x).expect("shapes ok");
            conv.bias_mut()[j] = orig;
            let fd = (yp.sum() - ym.sum()) / (2.0 * eps);
            assert!((gb[j] - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_into_is_byte_identical_to_forward() {
        let mut r = rng();
        let conv = ChebConv::new(3, 2, 4, &mut r).expect("valid");
        let l = ring_laplacian(6);
        let x = DenseMatrix::from_fn(6, 3, |i, j| 0.7 * (i as f64) - 0.3 * (j as f64));
        let (fresh, cache) = conv.forward(&l, &x).expect("shapes ok");
        // Dirty, wrongly-shaped buffers must not leak into the result;
        // a basis longer than `K` keeps its surplus untouched.
        let mut basis = vec![DenseMatrix::filled(2, 2, 9.0); 6];
        let mut term = DenseMatrix::filled(1, 5, -3.0);
        let mut y = DenseMatrix::filled(4, 4, 1.0);
        conv.forward_into(&l, &x, &mut basis, &mut term, &mut y)
            .expect("shapes ok");
        assert_eq!(y, fresh);
        assert_eq!(basis[..4], cache.basis[..]);
        // Second run through the same buffers stays identical.
        conv.forward_into(&l, &x, &mut basis, &mut term, &mut y)
            .expect("shapes ok");
        assert_eq!(y, fresh);
    }

    #[test]
    fn parameter_count_is_k_times_dims_plus_bias() {
        let mut r = rng();
        let conv = ChebConv::new(18, 32, 5, &mut r).expect("valid");
        assert_eq!(conv.parameter_count(), 5 * 18 * 32 + 32);
    }

    #[test]
    fn deterministic_init_for_fixed_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = ChebConv::new(4, 4, 2, &mut r1).expect("valid");
        let b = ChebConv::new(4, 4, 2, &mut r2).expect("valid");
        assert_eq!(a, b);
    }
}
