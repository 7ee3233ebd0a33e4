//! Batch normalization over the vertex dimension (paper Section V-A:
//! "batch normalization, which ensures that all input quantities are in the
//! same numerical range so that no one input dominates the others").

use crate::{GnnError, Result};
use gana_sparse::DenseMatrix;

/// Per-feature batch normalization with learnable scale/shift.
///
/// For an `n × d` activation, each column is normalized to zero mean and
/// unit variance over the `n` vertices (training mode tracks running
/// statistics for inference).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    epsilon: f64,
}

/// Cache for the backward pass.
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    normalized: DenseMatrix,
    std: Vec<f64>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `dim` features.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<BatchNorm> {
        if dim == 0 {
            return Err(GnnError::InvalidConfig(
                "batch norm needs dim > 0".to_string(),
            ));
        }
        Ok(BatchNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            epsilon: 1e-5,
        })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Training-mode forward; updates running statistics.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x.cols() != dim`.
    pub fn forward_train(&mut self, x: &DenseMatrix) -> Result<(DenseMatrix, BatchNormCache)> {
        self.check_dim(x)?;
        let n = x.rows().max(1) as f64;
        let mut mean = vec![0.0; self.dim()];
        for r in 0..x.rows() {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; self.dim()];
        for r in 0..x.rows() {
            for ((vv, &v), m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                let d = v - m;
                *vv += d * d;
            }
        }
        for v in &mut var {
            *v /= n;
        }
        for (rm, m) in self.running_mean.iter_mut().zip(&mean) {
            *rm = self.momentum * *rm + (1.0 - self.momentum) * m;
        }
        for (rv, v) in self.running_var.iter_mut().zip(&var) {
            *rv = self.momentum * *rv + (1.0 - self.momentum) * v;
        }
        let std: Vec<f64> = var.iter().map(|v| (v + self.epsilon).sqrt()).collect();
        let normalized =
            DenseMatrix::from_fn(x.rows(), x.cols(), |r, c| (x.get(r, c) - mean[c]) / std[c]);
        let y = DenseMatrix::from_fn(x.rows(), x.cols(), |r, c| {
            self.gamma[c] * normalized.get(r, c) + self.beta[c]
        });
        Ok((y, BatchNormCache { normalized, std }))
    }

    /// Inference-mode forward using running statistics.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x.cols() != dim`.
    pub fn forward_eval(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        self.forward_eval_into(x, &mut out)?;
        Ok(out)
    }

    /// [`BatchNorm::forward_eval`] written into `out` (resized), reusing
    /// `out`'s allocation; the per-entry arithmetic is identical, so the
    /// result is byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x.cols() != dim`.
    pub fn forward_eval_into(&self, x: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        self.check_dim(x)?;
        out.resize(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let std = (self.running_var[c] + self.epsilon).sqrt();
                out.set(
                    r,
                    c,
                    self.gamma[c] * (x.get(r, c) - self.running_mean[c]) / std + self.beta[c],
                );
            }
        }
        Ok(())
    }

    /// Backward pass: returns `(grad_x, grad_gamma, grad_beta)`.
    ///
    /// Uses the standard batch-norm gradient:
    /// `dx̂ = dy·γ`, then
    /// `dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂∘x̂)) / σ`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] on inconsistent shapes.
    pub fn backward(
        &self,
        cache: &BatchNormCache,
        grad_y: &DenseMatrix,
    ) -> Result<(DenseMatrix, Vec<f64>, Vec<f64>)> {
        self.check_dim(grad_y)?;
        let n = grad_y.rows().max(1) as f64;
        let dim = self.dim();
        let mut grad_gamma = vec![0.0; dim];
        let mut grad_beta = vec![0.0; dim];
        for r in 0..grad_y.rows() {
            for c in 0..dim {
                grad_gamma[c] += grad_y.get(r, c) * cache.normalized.get(r, c);
                grad_beta[c] += grad_y.get(r, c);
            }
        }
        // Column means of dx̂ and dx̂ ∘ x̂.
        let mut mean_dxhat = vec![0.0; dim];
        let mut mean_dxhat_xhat = vec![0.0; dim];
        for r in 0..grad_y.rows() {
            for c in 0..dim {
                let dxhat = grad_y.get(r, c) * self.gamma[c];
                mean_dxhat[c] += dxhat;
                mean_dxhat_xhat[c] += dxhat * cache.normalized.get(r, c);
            }
        }
        for c in 0..dim {
            mean_dxhat[c] /= n;
            mean_dxhat_xhat[c] /= n;
        }
        let grad_x = DenseMatrix::from_fn(grad_y.rows(), dim, |r, c| {
            let dxhat = grad_y.get(r, c) * self.gamma[c];
            (dxhat - mean_dxhat[c] - cache.normalized.get(r, c) * mean_dxhat_xhat[c]) / cache.std[c]
        });
        Ok((grad_x, grad_gamma, grad_beta))
    }

    fn check_dim(&self, x: &DenseMatrix) -> Result<()> {
        if x.cols() != self.dim() {
            return Err(GnnError::ShapeMismatch(format!(
                "batch norm expects {} features, got {}",
                self.dim(),
                x.cols()
            )));
        }
        Ok(())
    }

    /// Mutable scale parameters (for the optimizer).
    pub fn gamma_mut(&mut self) -> &mut [f64] {
        &mut self.gamma
    }

    /// Mutable shift parameters (for the optimizer).
    pub fn beta_mut(&mut self) -> &mut [f64] {
        &mut self.beta
    }

    /// Scale parameters.
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// Inference-time running statistics as `(means, variances)`.
    pub fn running_stats(&self) -> (&[f64], &[f64]) {
        (&self.running_mean, &self.running_var)
    }

    /// Restores running statistics (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if either slice length differs
    /// from the layer dimension.
    pub fn set_running_stats(&mut self, means: &[f64], vars: &[f64]) -> Result<()> {
        if means.len() != self.dim() || vars.len() != self.dim() {
            return Err(GnnError::ShapeMismatch(format!(
                "running stats have lengths {}/{}, layer dim is {}",
                means.len(),
                vars.len(),
                self.dim()
            )));
        }
        self.running_mean.copy_from_slice(means);
        self.running_var.copy_from_slice(vars);
        Ok(())
    }

    /// Shift parameters.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm::new(2).expect("valid");
        let x = DenseMatrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 50.0]]).expect("valid");
        let (y, _) = bn.forward_train(&x).expect("shapes ok");
        for c in 0..2 {
            let mean: f64 = (0..3).map(|r| y.get(r, c)).sum::<f64>() / 3.0;
            let var: f64 = (0..3).map(|r| (y.get(r, c) - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9, "column {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "column {c} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(1).expect("valid");
        let x = DenseMatrix::from_rows(&[&[10.0], &[20.0]]).expect("valid");
        for _ in 0..200 {
            bn.forward_train(&x).expect("shapes ok");
        }
        let y = bn.forward_eval(&x).expect("shapes ok");
        // Running stats converge to batch stats, so output ≈ normalized.
        assert!((y.get(0, 0) + 1.0).abs() < 0.05, "got {}", y.get(0, 0));
        assert!((y.get(1, 0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut bn = BatchNorm::new(2).expect("valid");
        bn.gamma_mut()[0] = 1.3;
        bn.beta_mut()[1] = -0.4;
        let x = DenseMatrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3], &[-0.7, 1.1]]).expect("valid");
        // Freeze running stats influence by copying the layer for each eval.
        let weighted_sum = |y: &DenseMatrix| -> f64 {
            // Non-uniform weights so the mean-subtraction terms matter.
            let mut s = 0.0;
            for r in 0..y.rows() {
                for c in 0..y.cols() {
                    s += ((r + 1) as f64) * ((c + 2) as f64) * y.get(r, c);
                }
            }
            s
        };
        let (y, cache) = bn.clone().forward_train(&x).expect("shapes ok");
        let grad_y = DenseMatrix::from_fn(y.rows(), y.cols(), |r, c| {
            ((r + 1) as f64) * ((c + 2) as f64)
        });
        let (gx, ggamma, gbeta) = bn.backward(&cache, &grad_y).expect("shapes ok");
        let eps = 1e-6;
        for i in 0..3 {
            for j in 0..2 {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let fp = weighted_sum(&bn.clone().forward_train(&xp).expect("ok").0);
                let fm = weighted_sum(&bn.clone().forward_train(&xm).expect("ok").0);
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (gx.get(i, j) - fd).abs() < 1e-5,
                    "dx[{i}][{j}] {} vs {fd}",
                    gx.get(i, j)
                );
            }
        }
        for c in 0..2 {
            let mut bp = bn.clone();
            bp.gamma_mut()[c] += eps;
            let mut bm = bn.clone();
            bm.gamma_mut()[c] -= eps;
            let fp = weighted_sum(&bp.forward_train(&x).expect("ok").0);
            let fm = weighted_sum(&bm.forward_train(&x).expect("ok").0);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((ggamma[c] - fd).abs() < 1e-5);

            let mut bp = bn.clone();
            bp.beta_mut()[c] += eps;
            let mut bm = bn.clone();
            bm.beta_mut()[c] -= eps;
            let fp = weighted_sum(&bp.forward_train(&x).expect("ok").0);
            let fm = weighted_sum(&bm.forward_train(&x).expect("ok").0);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gbeta[c] - fd).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_dim_mismatch() {
        let mut bn = BatchNorm::new(3).expect("valid");
        assert!(bn.forward_train(&DenseMatrix::zeros(2, 2)).is_err());
        assert!(BatchNorm::new(0).is_err());
    }
}
