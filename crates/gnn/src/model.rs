//! The GCN topology of the paper's Fig. 4: repeated (ChebConv → ReLU →
//! pool) stages, then a fully connected layer of size 512 with softmax.
//!
//! Node classification with graph pooling: after `levels` stride-2 poolings
//! every original vertex `v` is represented by the cluster at index
//! `slot(v) >> levels`; the classifier head produces per-cluster logits and
//! each vertex inherits its cluster's prediction. This reproduces the
//! paper's observed failure mode — the rare misclassified vertices sit on
//! region boundaries ("the misclassified vertices belong to the OTA
//! interconnect ports", Section V-B).

use crate::activation::Activation;
use crate::batchnorm::{BatchNorm, BatchNormCache};
use crate::chebconv::{ChebConv, ChebConvCache};
use crate::dense_layer::DenseLayer;
use crate::dropout::Dropout;
use crate::loss::{cross_entropy, softmax, softmax_in_place};
use crate::sample::GraphSample;
use crate::workspace::GnnWorkspace;
use crate::{GnnError, Result};
use gana_par::Parallelism;
use gana_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters of a [`GcnModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct GcnConfig {
    /// Input feature dimension (18 in the paper).
    pub input_dim: usize,
    /// Output channels of each conv stage; the length is the number of
    /// conv+pool layers (2 in the paper's chosen topology).
    pub conv_channels: Vec<usize>,
    /// Chebyshev filter order `K` (the paper picks 32).
    pub filter_order: usize,
    /// Hidden width of the fully connected head (512 in the paper).
    pub fc_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Activation used across all layers.
    pub activation: Activation,
    /// Dropout rate applied inside the FC head during training.
    pub dropout: f64,
    /// Whether to batch-normalize conv outputs.
    pub batch_norm: bool,
    /// L2 weight decay coefficient.
    pub weight_decay: f64,
    /// RNG seed for weight initialization and dropout.
    pub seed: u64,
}

impl Default for GcnConfig {
    /// The paper's configuration: 18 features, two conv layers, K=32,
    /// FC-512, ReLU, dropout 0.5, batch norm on.
    fn default() -> Self {
        GcnConfig {
            input_dim: 18,
            conv_channels: vec![32, 64],
            filter_order: 32,
            fc_dim: 512,
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.5,
            batch_norm: true,
            weight_decay: 5e-5,
            seed: 1,
        }
    }
}

impl GcnConfig {
    /// Number of conv+pool stages.
    pub fn levels(&self) -> usize {
        self.conv_channels.len()
    }

    /// Total number of scalar parameters a model of this configuration
    /// holds, computed in checked arithmetic without allocating anything.
    /// Loaders compare it with the length of a stored parameter vector
    /// before they build the model, so untrusted dimensions can never
    /// drive an allocation larger than the vector they arrived with.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for a degenerate configuration
    /// or a count that overflows `usize`.
    pub fn parameter_count(&self) -> Result<usize> {
        self.validate()?;
        self.checked_parameter_count()
            .ok_or_else(|| GnnError::InvalidConfig("parameter count overflows usize".to_string()))
    }

    fn checked_parameter_count(&self) -> Option<usize> {
        let mut total = 0usize;
        let mut in_dim = self.input_dim;
        for &out_dim in &self.conv_channels {
            // K taps of in_dim × out_dim plus a bias, then batch-norm γ, β.
            let conv = self
                .filter_order
                .checked_mul(in_dim)?
                .checked_mul(out_dim)?
                .checked_add(out_dim)?;
            let bn = if self.batch_norm {
                out_dim.checked_mul(2)?
            } else {
                0
            };
            total = total.checked_add(conv)?.checked_add(bn)?;
            in_dim = out_dim;
        }
        let fc1 = in_dim.checked_mul(self.fc_dim)?.checked_add(self.fc_dim)?;
        let fc2 = self
            .fc_dim
            .checked_mul(self.num_classes)?
            .checked_add(self.num_classes)?;
        total.checked_add(fc1)?.checked_add(fc2)
    }

    fn validate(&self) -> Result<()> {
        if self.input_dim == 0 || self.num_classes == 0 || self.fc_dim == 0 {
            return Err(GnnError::InvalidConfig(
                "dimensions must be positive".to_string(),
            ));
        }
        if self.conv_channels.is_empty() {
            return Err(GnnError::InvalidConfig(
                "at least one conv layer required".to_string(),
            ));
        }
        if self.filter_order == 0 {
            return Err(GnnError::InvalidConfig(
                "filter order K must be ≥ 1".to_string(),
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(GnnError::InvalidConfig(format!(
                "dropout must be in [0,1), got {}",
                self.dropout
            )));
        }
        Ok(())
    }
}

/// Gradients for every parameter of the model, in model order.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    conv_weights: Vec<Vec<DenseMatrix>>,
    conv_biases: Vec<Vec<f64>>,
    bn_gammas: Vec<Vec<f64>>,
    bn_betas: Vec<Vec<f64>>,
    fc1_weight: DenseMatrix,
    fc1_bias: Vec<f64>,
    fc2_weight: DenseMatrix,
    fc2_bias: Vec<f64>,
}

impl ModelGrads {
    /// Flattens all gradients into one vector matching
    /// [`GcnModel::flatten_params`] order.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (ws, bs) in self.conv_weights.iter().zip(&self.conv_biases) {
            for w in ws {
                out.extend_from_slice(w.as_slice());
            }
            out.extend_from_slice(bs);
        }
        for (g, b) in self.bn_gammas.iter().zip(&self.bn_betas) {
            out.extend_from_slice(g);
            out.extend_from_slice(b);
        }
        out.extend_from_slice(self.fc1_weight.as_slice());
        out.extend_from_slice(&self.fc1_bias);
        out.extend_from_slice(self.fc2_weight.as_slice());
        out.extend_from_slice(&self.fc2_bias);
        out
    }
}

/// Result of one training forward/backward pass.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Mean cross-entropy (plus L2 penalty) over labeled vertices.
    pub loss: f64,
    /// Gradients for every parameter.
    pub grads: ModelGrads,
    /// Per-original-vertex predicted class.
    pub predictions: Vec<usize>,
}

/// The spectral GCN of Fig. 4.
#[derive(Debug, Clone)]
pub struct GcnModel {
    config: GcnConfig,
    convs: Vec<ChebConv>,
    batch_norms: Vec<BatchNorm>,
    fc1: DenseLayer,
    fc2: DenseLayer,
    dropout: Dropout,
    rng: StdRng,
}

impl GcnModel {
    /// Builds a model from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: GcnConfig) -> Result<GcnModel> {
        config.parameter_count()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut convs = Vec::with_capacity(config.levels());
        let mut batch_norms = Vec::new();
        let mut in_dim = config.input_dim;
        for &out_dim in &config.conv_channels {
            convs.push(ChebConv::new(
                in_dim,
                out_dim,
                config.filter_order,
                &mut rng,
            )?);
            if config.batch_norm {
                batch_norms.push(BatchNorm::new(out_dim)?);
            }
            in_dim = out_dim;
        }
        let fc1 = DenseLayer::new(in_dim, config.fc_dim, &mut rng)?;
        let fc2 = DenseLayer::new(config.fc_dim, config.num_classes, &mut rng)?;
        let dropout = Dropout::new(config.dropout);
        Ok(GcnModel {
            config,
            convs,
            batch_norms,
            fc1,
            fc2,
            dropout,
            rng,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.config
            .parameter_count()
            .expect("the constructor checked the configuration")
    }

    fn check_sample(&self, sample: &GraphSample) -> Result<()> {
        if sample.coarsening.levels() != self.config.levels() {
            return Err(GnnError::ShapeMismatch(format!(
                "sample coarsened {} levels, model pools {}",
                sample.coarsening.levels(),
                self.config.levels()
            )));
        }
        if sample.features.cols() != self.config.input_dim {
            return Err(GnnError::ShapeMismatch(format!(
                "sample has {} features, model expects {}",
                sample.features.cols(),
                self.config.input_dim
            )));
        }
        Ok(())
    }

    /// Inference: per-original-vertex class predictions, through a fresh
    /// [`GnnWorkspace`] (a long-lived caller keeps one and calls
    /// [`GcnModel::forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if the sample does not match the
    /// model configuration.
    pub fn predict(&self, sample: &GraphSample) -> Result<Vec<usize>> {
        let mut out = self.forward(&Parallelism::serial(), &[sample], &mut GnnWorkspace::new())?;
        Ok(out.pop().unwrap_or_default())
    }

    /// The inference forward pass: one prediction vector per sample, in
    /// order, with every intermediate written into the reusable `ws`.
    ///
    /// A single sample runs on its own rescaled Laplacians. Two or more
    /// fuse into one pass: per coarsening level their Laplacians stack into
    /// a block-diagonal operator ([`CsrMatrix::block_diag_into`], kept in
    /// the workspace) and their padded feature maps stack vertically, so
    /// each Chebyshev tap costs one sparse–dense sweep for the whole batch.
    ///
    /// The fusion is exact: every stage is row-local (spmm rows accumulate
    /// only their own block's entries; batch-norm inference uses running
    /// statistics; activation, pooling, FC layers, gather, and softmax act
    /// per row or per row pair), and every sample's padded size is even at
    /// each pooled level, so stride-2 pooling never pairs rows across a
    /// block boundary. Predictions are therefore **byte-identical** whether
    /// a sample runs alone or in any batch, at any thread count (the
    /// intra-request budget tiles each spmm by output rows), and whether
    /// `ws` is fresh or has served requests of other sizes — the contract
    /// the `batched_equivalence`, `parallel_equivalence`, and
    /// `workspace_reuse` suites enforce. An empty batch returns no
    /// predictions.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if any sample does not match the
    /// model configuration.
    pub fn forward(
        &self,
        par: &Parallelism,
        samples: &[&GraphSample],
        ws: &mut GnnWorkspace,
    ) -> Result<Vec<Vec<usize>>> {
        if samples.is_empty() {
            return Ok(Vec::new());
        }
        for sample in samples {
            self.check_sample(sample)?;
        }
        let levels = self.config.levels();
        if samples.len() > 1 {
            // Assemble the fused operators into the workspace's recycled
            // CSR buffers: steady-state batched inference allocates
            // nothing here.
            ws.fused.resize_with(levels, CsrMatrix::default);
            let mut blocks: Vec<&CsrMatrix> = Vec::with_capacity(samples.len());
            for (l, fused) in ws.fused.iter_mut().enumerate() {
                blocks.clear();
                blocks.extend(samples.iter().map(|s| s.coarsening.laplacian(l)));
                CsrMatrix::block_diag_into(&blocks, fused);
            }
        }
        let total_rows: usize = samples.iter().map(|s| s.features.rows()).sum();
        let width = self.config.input_dim;
        ws.x.resize(total_rows, width);
        let mut offset = 0;
        for sample in samples {
            let len = sample.features.rows() * width;
            ws.x.as_mut_slice()[offset..offset + len].copy_from_slice(sample.features.as_slice());
            offset += len;
        }
        for (l, conv) in self.convs.iter().enumerate() {
            let laplacian = match samples {
                [only] => only.coarsening.laplacian(l),
                _ => &ws.fused[l],
            };
            conv.forward_into(
                par,
                laplacian,
                &ws.x,
                &mut ws.basis,
                &mut ws.term,
                &mut ws.y,
            )?;
            if self.config.batch_norm {
                // `term` is free after the tap loop; use it as the
                // batch-norm output and swap it into place.
                self.batch_norms[l].forward_eval_into(&ws.y, &mut ws.term)?;
                std::mem::swap(&mut ws.y, &mut ws.term);
            }
            self.config.activation.forward_in_place(&mut ws.y);
            max_pool2_into(&ws.y, &mut ws.x);
        }
        self.fc1.forward_into(&ws.x, &mut ws.y)?;
        self.config.activation.forward_in_place(&mut ws.y);
        self.fc2.forward_into(&ws.y, &mut ws.x)?;
        ws.clusters.clear();
        let mut cluster_offset = 0;
        for sample in samples {
            ws.clusters.extend(
                (0..sample.vertex_count())
                    .map(|v| cluster_offset + sample.coarsening.cluster_of(v)),
            );
            cluster_offset += sample.coarsening.padded_size(levels);
        }
        ws.x.gather_rows_into(&ws.clusters, &mut ws.gathered);
        softmax_in_place(&mut ws.gathered);
        let mut out = Vec::with_capacity(samples.len());
        let mut row = 0;
        for sample in samples {
            let n = sample.vertex_count();
            out.push(
                (row..row + n)
                    .map(|r| ws.gathered.row_argmax(r).unwrap_or(0))
                    .collect(),
            );
            row += n;
        }
        Ok(out)
    }

    /// One training step: forward, loss, full backward. The caller applies
    /// the returned gradients via an [`crate::Optimizer`].
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] for incompatible samples and
    /// [`GnnError::NonFinite`] if the loss or any gradient diverges.
    pub fn train_step(&mut self, sample: &GraphSample) -> Result<StepResult> {
        self.check_sample(sample)?;
        let levels = self.config.levels();

        // ---- forward ----
        struct StageCache {
            conv: ChebConvCache,
            bn: Option<BatchNormCache>,
            activated: DenseMatrix,
            pool_argmax: Vec<usize>,
            pooled_rows: usize,
        }
        let mut stages: Vec<StageCache> = Vec::with_capacity(levels);
        let mut x = sample.features.clone();
        for l in 0..levels {
            let (y, conv_cache) = self.convs[l].forward(sample.coarsening.laplacian(l), &x)?;
            let (y, bn_cache) = if self.config.batch_norm {
                let (out, cache) = self.batch_norms[l].forward_train(&y)?;
                (out, Some(cache))
            } else {
                (y, None)
            };
            let activated = self.config.activation.forward(&y);
            let (pooled, argmax) = max_pool2(&activated);
            stages.push(StageCache {
                conv: conv_cache,
                bn: bn_cache,
                activated,
                pool_argmax: argmax,
                pooled_rows: pooled.rows(),
            });
            x = pooled;
        }
        let (h_pre, fc1_cache) = self.fc1.forward(&x)?;
        let h_act = self.config.activation.forward(&h_pre);
        let (h_drop, drop_mask) = self.dropout.forward_train(&h_act, &mut self.rng);
        let (logits, fc2_cache) = self.fc2.forward(&h_drop)?;

        // ---- loss on original vertices via their clusters ----
        let clusters: Vec<usize> = (0..sample.vertex_count())
            .map(|v| sample.coarsening.cluster_of(v))
            .collect();
        let vertex_logits = logits.gather_rows(&clusters);
        let (mut loss, vertex_grad) = cross_entropy(&vertex_logits, &sample.labels);
        let probs = softmax(&vertex_logits);
        let predictions: Vec<usize> = (0..probs.rows())
            .map(|r| probs.row_argmax(r).unwrap_or(0))
            .collect();

        // Scatter vertex gradients back onto cluster logits.
        let mut logits_grad = DenseMatrix::zeros(logits.rows(), logits.cols());
        for (v, &cl) in clusters.iter().enumerate() {
            for c in 0..logits.cols() {
                logits_grad.add_at(cl, c, vertex_grad.get(v, c));
            }
        }

        // ---- backward ----
        let (grad_hdrop, fc2_gw, fc2_gb) = self.fc2.backward(&fc2_cache, &logits_grad)?;
        let grad_hact = self.dropout.backward(&drop_mask, &grad_hdrop);
        let grad_hpre = self.config.activation.backward(&h_act, &grad_hact);
        let (mut grad, fc1_gw, fc1_gb) = self.fc1.backward(&fc1_cache, &grad_hpre)?;

        let mut conv_weight_grads: Vec<Vec<DenseMatrix>> = vec![Vec::new(); levels];
        let mut conv_bias_grads: Vec<Vec<f64>> = vec![Vec::new(); levels];
        let mut bn_gamma_grads: Vec<Vec<f64>> = Vec::new();
        let mut bn_beta_grads: Vec<Vec<f64>> = Vec::new();
        for l in (0..levels).rev() {
            let stage = &stages[l];
            debug_assert_eq!(grad.rows(), stage.pooled_rows);
            let grad_act = max_pool2_backward(&stage.pool_argmax, &grad, stage.activated.rows());
            let grad_pre_act = self.config.activation.backward(&stage.activated, &grad_act);
            let grad_conv_out = if let Some(bn_cache) = &stage.bn {
                let (gx, ggamma, gbeta) = self.batch_norms[l].backward(bn_cache, &grad_pre_act)?;
                bn_gamma_grads.insert(0, ggamma);
                bn_beta_grads.insert(0, gbeta);
                gx
            } else {
                grad_pre_act
            };
            let (gx, gws, gbs) = self.convs[l].backward(
                sample.coarsening.laplacian(l),
                &stage.conv,
                &grad_conv_out,
            )?;
            conv_weight_grads[l] = gws;
            conv_bias_grads[l] = gbs;
            grad = gx;
        }

        // ---- weight decay on all weight matrices (not biases) ----
        let lambda = self.config.weight_decay;
        let mut fc1_gw = fc1_gw;
        let mut fc2_gw = fc2_gw;
        if lambda > 0.0 {
            for (l, conv) in self.convs.iter().enumerate() {
                for (g, w) in conv_weight_grads[l].iter_mut().zip(conv.weights()) {
                    g.axpy(lambda, w)?;
                    loss += 0.5 * lambda * w.as_slice().iter().map(|v| v * v).sum::<f64>();
                }
            }
            fc1_gw.axpy(lambda, self.fc1.weight())?;
            fc2_gw.axpy(lambda, self.fc2.weight())?;
            loss += 0.5
                * lambda
                * (self
                    .fc1
                    .weight()
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    + self
                        .fc2
                        .weight()
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>());
        }

        if !loss.is_finite() {
            return Err(GnnError::NonFinite {
                location: "training loss",
            });
        }

        Ok(StepResult {
            loss,
            grads: ModelGrads {
                conv_weights: conv_weight_grads,
                conv_biases: conv_bias_grads,
                bn_gammas: bn_gamma_grads,
                bn_betas: bn_beta_grads,
                fc1_weight: fc1_gw,
                fc1_bias: fc1_gb,
                fc2_weight: fc2_gw,
                fc2_bias: fc2_gb,
            },
            predictions,
        })
    }

    /// Running statistics of every batch-norm layer, `(means, variances)`
    /// per layer in order (empty when `batch_norm` is off).
    pub fn batch_norm_stats(&self) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.batch_norms
            .iter()
            .map(|bn| {
                let (m, v) = bn.running_stats();
                (m.to_vec(), v.to_vec())
            })
            .collect()
    }

    /// Restores batch-norm running statistics (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] on a layer-count or width
    /// mismatch.
    pub fn set_batch_norm_stats(&mut self, stats: &[(Vec<f64>, Vec<f64>)]) -> Result<()> {
        if stats.len() != self.batch_norms.len() {
            return Err(GnnError::ShapeMismatch(format!(
                "{} stat pairs for {} batch-norm layers",
                stats.len(),
                self.batch_norms.len()
            )));
        }
        for (bn, (means, vars)) in self.batch_norms.iter_mut().zip(stats) {
            bn.set_running_stats(means, vars)?;
        }
        Ok(())
    }

    /// Flattens all parameters into one vector (conv taps + biases, then
    /// batch-norm γ/β, then FC weights/biases).
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.parameter_count());
        for conv in &self.convs {
            for w in conv.weights() {
                out.extend_from_slice(w.as_slice());
            }
            out.extend_from_slice(conv.bias());
        }
        for bn in &self.batch_norms {
            out.extend_from_slice(bn.gamma());
            out.extend_from_slice(bn.beta());
        }
        out.extend_from_slice(self.fc1.weight().as_slice());
        out.extend_from_slice(self.fc1.bias());
        out.extend_from_slice(self.fc2.weight().as_slice());
        out.extend_from_slice(self.fc2.bias());
        out
    }

    /// Writes back a flat parameter vector produced by [`Self::flatten_params`].
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::ShapeMismatch`] if the length differs.
    pub fn apply_flat_params(&mut self, flat: &[f64]) -> Result<()> {
        if flat.len() != self.parameter_count() {
            return Err(GnnError::ShapeMismatch(format!(
                "flat vector has {} entries, model has {}",
                flat.len(),
                self.parameter_count()
            )));
        }
        let mut cursor = 0;
        let mut take = |n: usize| {
            let slice = &flat[cursor..cursor + n];
            cursor += n;
            slice
        };
        for conv in &mut self.convs {
            let (rows, cols) = (conv.in_dim(), conv.out_dim());
            for w in conv.weights_mut() {
                w.as_mut_slice().copy_from_slice(take(rows * cols));
            }
            conv.bias_mut().copy_from_slice(take(cols));
        }
        for bn in &mut self.batch_norms {
            let d = bn.dim();
            bn.gamma_mut().copy_from_slice(take(d));
            bn.beta_mut().copy_from_slice(take(d));
        }
        let (r1, c1) = (self.fc1.in_dim(), self.fc1.out_dim());
        self.fc1
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(take(r1 * c1));
        self.fc1.bias_mut().copy_from_slice(take(c1));
        let (r2, c2) = (self.fc2.in_dim(), self.fc2.out_dim());
        self.fc2
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(take(r2 * c2));
        self.fc2.bias_mut().copy_from_slice(take(c2));
        debug_assert_eq!(cursor, flat.len());
        Ok(())
    }
}

/// Stride-2 max pooling over rows. Returns the pooled matrix and, per
/// output cell (row-major), the input row index that won the max.
///
/// # Panics
///
/// Panics if the row count is odd (coarsening always produces even padded
/// sizes when `levels ≥ 1`).
pub(crate) fn max_pool2(x: &DenseMatrix) -> (DenseMatrix, Vec<usize>) {
    assert!(
        x.rows().is_multiple_of(2),
        "pooling needs an even number of rows, got {}",
        x.rows()
    );
    let out_rows = x.rows() / 2;
    let mut y = DenseMatrix::zeros(out_rows, x.cols());
    let mut argmax = vec![0usize; out_rows * x.cols()];
    for r in 0..out_rows {
        for c in 0..x.cols() {
            let a = x.get(2 * r, c);
            let b = x.get(2 * r + 1, c);
            if a >= b {
                y.set(r, c, a);
                argmax[r * x.cols() + c] = 2 * r;
            } else {
                y.set(r, c, b);
                argmax[r * x.cols() + c] = 2 * r + 1;
            }
        }
    }
    (y, argmax)
}

/// Inference-only [`max_pool2`] written into `y` (resized), without the
/// argmax bookkeeping the backward pass needs; the pooled values are
/// selected identically.
///
/// # Panics
///
/// Panics if the row count is odd.
pub(crate) fn max_pool2_into(x: &DenseMatrix, y: &mut DenseMatrix) {
    assert!(
        x.rows().is_multiple_of(2),
        "pooling needs an even number of rows, got {}",
        x.rows()
    );
    let out_rows = x.rows() / 2;
    y.resize(out_rows, x.cols());
    for r in 0..out_rows {
        for c in 0..x.cols() {
            let a = x.get(2 * r, c);
            let b = x.get(2 * r + 1, c);
            y.set(r, c, if a >= b { a } else { b });
        }
    }
}

/// Backward of [`max_pool2`]: routes each output gradient to the winning row.
pub(crate) fn max_pool2_backward(
    argmax: &[usize],
    grad: &DenseMatrix,
    in_rows: usize,
) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(in_rows, grad.cols());
    for r in 0..grad.rows() {
        for c in 0..grad.cols() {
            let src = argmax[r * grad.cols() + c];
            out.add_at(src, c, grad.get(r, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana_graph::{CircuitGraph, GraphOptions};
    use gana_netlist::parse;

    fn tiny_config() -> GcnConfig {
        GcnConfig {
            input_dim: 18,
            conv_channels: vec![4, 4],
            filter_order: 3,
            fc_dim: 8,
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.0,
            batch_norm: false,
            weight_decay: 0.0,
            seed: 5,
        }
    }

    fn tiny_sample() -> GraphSample {
        let c = parse(
            "M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\nM2 out in d2 gnd! NMOS\nR1 out vdd! 10k\n",
        )
        .expect("valid");
        let g = CircuitGraph::build(&c, GraphOptions::default());
        // Label element vertices 0/1 as class 0, others class 1.
        let labels = (0..g.vertex_count())
            .map(|v| Some(usize::from(v >= 2)))
            .collect();
        GraphSample::prepare("tiny", &c, &g, labels, 2, 13).expect("prepares")
    }

    #[test]
    fn pooling_and_backward_route_correctly() {
        let x = DenseMatrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 0.0], &[4.0, 1.0]])
            .expect("valid");
        let (y, argmax) = max_pool2(&x);
        assert_eq!(y.row(0), &[3.0, 5.0]);
        assert_eq!(y.row(1), &[4.0, 1.0]);
        let g = DenseMatrix::filled(2, 2, 1.0);
        let back = max_pool2_backward(&argmax, &g, 4);
        assert_eq!(back.get(1, 0), 1.0);
        assert_eq!(back.get(0, 1), 1.0);
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(3, 1), 1.0);
    }

    #[test]
    fn model_builds_and_counts_parameters() {
        let model = GcnModel::new(tiny_config()).expect("valid config");
        // conv1: 3*18*4+4, conv2: 3*4*4+4, fc1: 4*8+8, fc2: 8*2+2.
        assert_eq!(
            model.parameter_count(),
            (3 * 18 * 4 + 4) + (3 * 4 * 4 + 4) + (4 * 8 + 8) + (8 * 2 + 2)
        );
    }

    #[test]
    fn config_parameter_count_matches_the_built_model() {
        for config in [tiny_config(), GcnConfig::default()] {
            let model = GcnModel::new(config.clone()).expect("valid");
            assert_eq!(config.parameter_count(), Ok(model.flatten_params().len()));
        }
        // Checked, not wrapping: an absurd filter order is an error, not
        // a small count that a stored vector could match.
        let mut c = tiny_config();
        c.filter_order = usize::MAX / 2;
        assert!(c.parameter_count().is_err());
        assert!(GcnModel::new(c).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = tiny_config();
        c.conv_channels.clear();
        assert!(GcnModel::new(c).is_err());
        let mut c = tiny_config();
        c.filter_order = 0;
        assert!(GcnModel::new(c).is_err());
        let mut c = tiny_config();
        c.dropout = 1.5;
        assert!(GcnModel::new(c).is_err());
    }

    #[test]
    fn predictions_have_one_entry_per_vertex() {
        let model = GcnModel::new(tiny_config()).expect("valid");
        let sample = tiny_sample();
        let preds = model.predict(&sample).expect("compatible");
        assert_eq!(preds.len(), sample.vertex_count());
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn parallel_predict_is_bit_identical_to_serial() {
        let model = GcnModel::new(tiny_config()).expect("valid");
        let sample = tiny_sample();
        let serial_preds = model.predict(&sample).expect("ok");
        for threads in [2, 4, 8] {
            let par = Parallelism::new(threads);
            let preds = model
                .forward(&par, &[&sample], &mut GnnWorkspace::new())
                .expect("ok");
            assert_eq!(preds[0], serial_preds, "threads={threads}");
        }
    }

    fn big_sample() -> GraphSample {
        let c = parse(
            "M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\nM2 out in d2 gnd! NMOS\n\
             M3 o2 in2 d2 gnd! NMOS\nR1 out vdd! 10k\nR2 o2 vdd! 20k\nC1 out gnd! 1p\n",
        )
        .expect("valid");
        let g = CircuitGraph::build(&c, GraphOptions::default());
        let labels = (0..g.vertex_count()).map(|v| Some(v % 2)).collect();
        GraphSample::prepare("big", &c, &g, labels, 2, 13).expect("prepares")
    }

    #[test]
    fn reused_workspace_matches_fresh_across_sizes() {
        let mut config = tiny_config();
        config.batch_norm = true;
        let model = GcnModel::new(config).expect("valid");
        let small = tiny_sample();
        let big = big_sample();
        let par = Parallelism::serial();
        let mut ws = GnnWorkspace::new();
        // Grow, shrink, grow again through one workspace; every run must
        // match a fresh workspace exactly.
        for sample in [&small, &big, &small, &big] {
            let fresh = model.predict(sample).expect("ok");
            let reused = model.forward(&par, &[sample], &mut ws).expect("ok");
            assert_eq!(reused, [fresh]);
        }
        assert!(ws.heap_bytes() > 0);
    }

    #[test]
    fn fused_batches_match_per_sample_forward() {
        let mut config = tiny_config();
        config.batch_norm = true;
        let model = GcnModel::new(config).expect("valid");
        let small = tiny_sample();
        let big = big_sample();
        let par = Parallelism::serial();
        let mut serial_ws = GnnWorkspace::new();
        let mut batch_ws = GnnWorkspace::new();
        // Mixed-size batches, a singleton, repeats of one sample, and the
        // empty batch, all through one recycled workspace.
        let batches: Vec<Vec<&GraphSample>> = vec![
            vec![&small, &big],
            vec![&big],
            vec![&big, &small, &big],
            vec![&small, &small],
            vec![],
        ];
        for batch in batches {
            let fused = model.forward(&par, &batch, &mut batch_ws).expect("ok");
            assert_eq!(fused.len(), batch.len());
            for (sample, preds) in batch.iter().zip(&fused) {
                let expected = model.forward(&par, &[sample], &mut serial_ws).expect("ok");
                assert_eq!(preds, &expected[0]);
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_one_sample() {
        use crate::optimizer::{Adam, Optimizer};
        let mut model = GcnModel::new(tiny_config()).expect("valid");
        let sample = tiny_sample();
        let mut opt = Adam::new(0.01);
        let first = model.train_step(&sample).expect("step").loss;
        for _ in 0..60 {
            let step = model.train_step(&sample).expect("step");
            let mut params = model.flatten_params();
            opt.step(&mut params, &step.grads.flatten());
            model.apply_flat_params(&params).expect("same length");
        }
        let last = model.train_step(&sample).expect("step").loss;
        assert!(
            last < first * 0.5,
            "loss should halve when overfitting one sample: {first} -> {last}"
        );
    }

    #[test]
    fn flatten_apply_round_trips() {
        let mut model = GcnModel::new(tiny_config()).expect("valid");
        let params = model.flatten_params();
        assert_eq!(params.len(), model.parameter_count());
        let mut tweaked = params.clone();
        for p in &mut tweaked {
            *p += 0.5;
        }
        model.apply_flat_params(&tweaked).expect("same length");
        let back = model.flatten_params();
        assert_eq!(back, tweaked);
        assert!(model.apply_flat_params(&params[..3]).is_err());
    }

    #[test]
    fn grads_flatten_matches_parameter_count() {
        let mut model = GcnModel::new(tiny_config()).expect("valid");
        let sample = tiny_sample();
        let step = model.train_step(&sample).expect("step");
        assert_eq!(step.grads.flatten().len(), model.parameter_count());
    }

    #[test]
    fn whole_model_gradient_check() {
        // Finite-difference check through conv+pool+fc on a fixed sample
        // (dropout 0, no batch norm so the forward is deterministic).
        let mut config = tiny_config();
        config.conv_channels = vec![3];
        config.filter_order = 2;
        config.fc_dim = 4;
        let mut model = GcnModel::new(config).expect("valid");
        let c = parse("M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\n").expect("valid");
        let g = CircuitGraph::build(&c, GraphOptions::default());
        let labels = (0..g.vertex_count()).map(|v| Some(v % 2)).collect();
        let sample = GraphSample::prepare("gc", &c, &g, labels, 1, 2).expect("prepares");

        let analytic = model.train_step(&sample).expect("step").grads.flatten();
        let params = model.flatten_params();
        let eps = 1e-5;
        // Probe a spread of parameter indices.
        let stride = (params.len() / 17).max(1);
        for i in (0..params.len()).step_by(stride) {
            let mut pp = params.clone();
            pp[i] += eps;
            model.apply_flat_params(&pp).expect("ok");
            let fp = model.train_step(&sample).expect("step").loss;
            let mut pm = params.clone();
            pm[i] -= eps;
            model.apply_flat_params(&pm).expect("ok");
            let fm = model.train_step(&sample).expect("step").loss;
            model.apply_flat_params(&params).expect("ok");
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (analytic[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {i}: analytic {} vs fd {fd}",
                analytic[i]
            );
        }
    }

    #[test]
    fn batch_norm_variant_trains() {
        use crate::optimizer::{Adam, Optimizer};
        let mut config = tiny_config();
        config.batch_norm = true;
        config.dropout = 0.2;
        let mut model = GcnModel::new(config).expect("valid");
        let sample = tiny_sample();
        let mut opt = Adam::new(0.01);
        for _ in 0..5 {
            let step = model.train_step(&sample).expect("step");
            assert!(step.loss.is_finite());
            let mut params = model.flatten_params();
            opt.step(&mut params, &step.grads.flatten());
            model.apply_flat_params(&params).expect("same length");
        }
    }

    #[test]
    fn mismatched_sample_levels_rejected() {
        let model = GcnModel::new(tiny_config()).expect("valid");
        let c = parse("R1 a b 1\n").expect("valid");
        let g = CircuitGraph::build(&c, GraphOptions::default());
        let labels = vec![Some(0); g.vertex_count()];
        let sample = GraphSample::prepare("bad", &c, &g, labels, 1, 0).expect("prepares");
        assert!(
            model.predict(&sample).is_err(),
            "model pools 2 levels, sample has 1"
        );
    }
}
