//! Elementwise activations.
//!
//! The paper compares ReLU and tanh across all layers and "empirically found
//! that ReLU provides consistently better results" (Section V-A); both are
//! provided so the ablation experiment can reproduce that comparison.

use gana_sparse::DenseMatrix;

/// An elementwise activation function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)` — the paper's choice.
    #[default]
    Relu,
    /// Hyperbolic tangent — evaluated and rejected by the paper.
    Tanh,
    /// Identity, for layers that should stay linear.
    Identity,
}

impl Activation {
    /// Applies the activation, returning the output.
    pub fn forward(self, x: &DenseMatrix) -> DenseMatrix {
        match self {
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Tanh => x.map(f64::tanh),
            Activation::Identity => x.clone(),
        }
    }

    /// Applies the activation in place — same per-entry arithmetic as
    /// [`Activation::forward`], without the output allocation.
    pub fn forward_in_place(self, x: &mut DenseMatrix) {
        match self {
            Activation::Relu => x.map_in_place(|v| v.max(0.0)),
            Activation::Tanh => x.map_in_place(f64::tanh),
            Activation::Identity => {}
        }
    }

    /// Backward pass: given the layer *output* `y` and upstream gradient
    /// `grad`, returns the gradient with respect to the input.
    ///
    /// Both ReLU and tanh derivatives are expressible from the output alone
    /// (`1[y>0]` and `1 − y²`), which avoids retaining the input.
    ///
    /// # Panics
    ///
    /// Panics if `y` and `grad` have different shapes.
    pub fn backward(self, y: &DenseMatrix, grad: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            y.shape(),
            grad.shape(),
            "activation backward shape mismatch"
        );
        match self {
            Activation::Relu => {
                let mask = y.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                grad.hadamard(&mask).expect("same shape")
            }
            Activation::Tanh => {
                let deriv = y.map(|v| 1.0 - v * v);
                grad.hadamard(&deriv).expect("same shape")
            }
            Activation::Identity => grad.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = DenseMatrix::from_rows(&[&[-1.0, 0.0, 2.0]]).expect("valid");
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let x = DenseMatrix::from_rows(&[&[-1.0, 3.0]]).expect("valid");
        let y = Activation::Relu.forward(&x);
        let g = DenseMatrix::from_rows(&[&[5.0, 5.0]]).expect("valid");
        let dx = Activation::Relu.backward(&y, &g);
        assert_eq!(dx.row(0), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_matches_finite_difference() {
        let x = DenseMatrix::from_rows(&[&[0.3, -0.7]]).expect("valid");
        let y = Activation::Tanh.forward(&x);
        let g = DenseMatrix::filled(1, 2, 1.0);
        let dx = Activation::Tanh.backward(&y, &g);
        let eps = 1e-6;
        for c in 0..2 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let fd = (Activation::Tanh.forward(&xp).get(0, c)
                - Activation::Tanh.forward(&xm).get(0, c))
                / (2.0 * eps);
            assert!(
                (dx.get(0, c) - fd).abs() < 1e-8,
                "col {c}: {} vs {fd}",
                dx.get(0, c)
            );
        }
    }

    #[test]
    fn identity_passes_through() {
        let x = DenseMatrix::from_rows(&[&[1.5]]).expect("valid");
        assert_eq!(Activation::Identity.forward(&x), x);
        assert_eq!(Activation::Identity.backward(&x, &x), x);
    }
}
