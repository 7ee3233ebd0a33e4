//! Fully connected layer (the paper's "fully connected layer of size 512").

use crate::{GnnError, Result};
use gana_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::Rng;

/// A per-vertex affine layer: `Y = X W + 1·bᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weight: DenseMatrix,
    bias: Vec<f64>,
}

/// Cached forward input, consumed by [`DenseLayer::backward`].
#[derive(Debug, Clone)]
pub struct DenseCache {
    x: DenseMatrix,
}

impl DenseLayer {
    /// Creates a layer with Glorot-uniform initial weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(GnnError::InvalidConfig(format!(
                "dense layer dims must be positive, got {in_dim}x{out_dim}"
            )));
        }
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = DenseMatrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        Ok(DenseLayer {
            weight,
            bias: vec![0.0; out_dim],
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x.cols() != in_dim`.
    pub fn forward(&self, x: &DenseMatrix) -> Result<(DenseMatrix, DenseCache)> {
        if x.cols() != self.in_dim() {
            return Err(GnnError::ShapeMismatch(format!(
                "dense layer expects {} features, got {}",
                self.in_dim(),
                x.cols()
            )));
        }
        let mut y = x.matmul(&self.weight)?;
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        Ok((y, DenseCache { x: x.clone() }))
    }

    /// Inference-only [`DenseLayer::forward`] written into `y` (resized),
    /// reusing `y`'s allocation and producing no backward cache; the
    /// arithmetic is identical, so the result is byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &DenseMatrix, y: &mut DenseMatrix) -> Result<()> {
        if x.cols() != self.in_dim() {
            return Err(GnnError::ShapeMismatch(format!(
                "dense layer expects {} features, got {}",
                self.in_dim(),
                x.cols()
            )));
        }
        x.matmul_into(&self.weight, y)?;
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Backward pass: returns `(grad_x, grad_weight, grad_bias)`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] on inconsistent gradient shape.
    pub fn backward(
        &self,
        cache: &DenseCache,
        grad_y: &DenseMatrix,
    ) -> Result<(DenseMatrix, DenseMatrix, Vec<f64>)> {
        if grad_y.cols() != self.out_dim() {
            return Err(GnnError::ShapeMismatch(format!(
                "gradient has {} cols, layer outputs {}",
                grad_y.cols(),
                self.out_dim()
            )));
        }
        let grad_x = grad_y.matmul_transpose(&self.weight)?;
        let grad_w = cache.x.transpose_matmul(grad_y)?;
        let grad_b = grad_y.column_sums();
        Ok((grad_x, grad_w, grad_b))
    }

    /// Mutable weight matrix (for the optimizer).
    pub fn weight_mut(&mut self) -> &mut DenseMatrix {
        &mut self.weight
    }

    /// The weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.in_dim() * self.out_dim() + self.out_dim()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the gradient math
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(2, 2, &mut rng).expect("valid");
        layer.weight_mut().set(0, 0, 1.0);
        layer.weight_mut().set(0, 1, 0.0);
        layer.weight_mut().set(1, 0, 0.0);
        layer.weight_mut().set(1, 1, 1.0);
        layer.bias_mut()[0] = 1.0;
        let x = DenseMatrix::from_rows(&[&[2.0, 3.0]]).expect("valid");
        let (y, _) = layer.forward(&x).expect("shapes ok");
        assert_eq!(y.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DenseLayer::new(3, 2, &mut rng).expect("valid");
        let x = DenseMatrix::from_fn(4, 3, |i, j| 0.1 * (i as f64) - 0.3 * (j as f64));
        let (_, cache) = layer.forward(&x).expect("shapes ok");
        let ones = DenseMatrix::filled(4, 2, 1.0);
        let (gx, gw, gb) = layer.backward(&cache, &ones).expect("shapes ok");
        let eps = 1e-6;
        for i in 0..4 {
            for j in 0..3 {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let fp = layer.forward(&xp).expect("ok").0.sum();
                let fm = layer.forward(&xm).expect("ok").0.sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!((gx.get(i, j) - fd).abs() < 1e-6);
            }
        }
        for i in 0..3 {
            for j in 0..2 {
                let orig = layer.weight().get(i, j);
                layer.weight_mut().set(i, j, orig + eps);
                let fp = layer.forward(&x).expect("ok").0.sum();
                layer.weight_mut().set(i, j, orig - eps);
                let fm = layer.forward(&x).expect("ok").0.sum();
                layer.weight_mut().set(i, j, orig);
                let fd = (fp - fm) / (2.0 * eps);
                assert!((gw.get(i, j) - fd).abs() < 1e-6);
            }
        }
        for j in 0..2 {
            let orig = layer.bias()[j];
            layer.bias_mut()[j] = orig + eps;
            let fp = layer.forward(&x).expect("ok").0.sum();
            layer.bias_mut()[j] = orig - eps;
            let fm = layer.forward(&x).expect("ok").0.sum();
            layer.bias_mut()[j] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gb[j] - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_zero_dims_and_bad_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DenseLayer::new(0, 2, &mut rng).is_err());
        let layer = DenseLayer::new(2, 2, &mut rng).expect("valid");
        assert!(layer.forward(&DenseMatrix::zeros(1, 3)).is_err());
    }
}
