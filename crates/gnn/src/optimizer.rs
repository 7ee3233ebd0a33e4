//! First-order optimizers operating on flat parameter/gradient slices.
//!
//! The model exposes its parameters as one flat `Vec<f64>` view; optimizers
//! are therefore independent of the layer structure.

/// A first-order optimizer updating parameters in place from gradients.
pub trait Optimizer {
    /// Applies one update step. `params` and `grads` must have equal length
    /// and keep the same length across calls.
    ///
    /// # Panics
    ///
    /// Implementations panic if the lengths differ or change between calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Multiplies the learning rate by `factor` (learning-rate decay).
    fn decay(&mut self, factor: f64);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    learning_rate: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum (0 disables).
    pub fn new(learning_rate: f64, momentum: f64) -> Sgd {
        Sgd {
            learning_rate,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        if self.velocity.len() != params.len() {
            assert!(
                self.velocity.is_empty(),
                "parameter count changed between steps"
            );
            self.velocity = vec![0.0; params.len()];
        }
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *v = self.momentum * *v - self.learning_rate * g;
            *p += *v;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn decay(&mut self, factor: f64) {
        self.learning_rate *= factor;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    pub fn new(learning_rate: f64) -> Adam {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        if self.m.len() != params.len() {
            assert!(self.m.is_empty(), "parameter count changed between steps");
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn decay(&mut self, factor: f64) {
        self.learning_rate *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)² with each optimizer.
    fn minimize<O: Optimizer>(mut opt: O, steps: usize) -> f64 {
        let mut x = [0.0_f64];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimize(Sgd::new(0.1, 0.0), 200);
        assert!((x - 3.0).abs() < 1e-6, "got {x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let x = minimize(Sgd::new(0.05, 0.9), 400);
        assert!((x - 3.0).abs() < 1e-4, "got {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimize(Adam::new(0.1), 600);
        assert!((x - 3.0).abs() < 1e-3, "got {x}");
    }

    #[test]
    fn decay_reduces_learning_rate() {
        let mut adam = Adam::new(0.1);
        adam.decay(0.5);
        assert!((adam.learning_rate() - 0.05).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut sgd = Sgd::new(0.1, 0.0);
        sgd.step(&mut [0.0, 1.0], &[1.0]);
    }
}
