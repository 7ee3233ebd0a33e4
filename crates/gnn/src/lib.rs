//! Spectral graph convolutional network (ChebNet) for GANA, from scratch.
//!
//! The paper's GCN (Section III) is the Defferrard-style spectral network:
//!
//! * **Chebyshev filters** ([`ChebConv`]): `y = Σ_{k<K} θ_k T_k(L̂) x` with
//!   `L̂ = 2L/λ_max − I` (Eqs. 2–5), evaluated with `K` sparse products;
//! * **Graclus coarsening** ([`coarsen`]): greedy normalized-cut matching,
//!   built into a balanced binary tree with fake nodes so pooling is a
//!   stride-2 scan (Defferrard's construction, paper Section III-B);
//! * **the Fig. 4 topology** ([`GcnModel`]): conv+ReLU → pool → conv+ReLU →
//!   pool → fully connected (512) → softmax, classifying every vertex of the
//!   netlist graph into a sub-block class;
//! * a **training harness** ([`Trainer`]): Adam, dropout, batch
//!   normalization, 80/20 splits, random hyperparameter search
//!   ([`hyper`]), and five-fold cross validation ([`crossval`]) — the
//!   regularization and evaluation protocol of Section V-A.
//!
//! There is no GNN ecosystem to lean on in Rust; every layer implements its
//! own forward and backward pass over [`gana_sparse::DenseMatrix`], and the
//! gradients are validated against finite differences in the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod batchnorm;
mod chebconv;
pub mod checkpoint;
pub mod coarsen;
pub mod crossval;
mod dense_layer;
mod dropout;
mod error;
pub mod hyper;
pub mod loss;
pub mod metrics;
mod model;
mod optimizer;
mod sample;
mod trainer;
mod workspace;

pub use activation::Activation;
pub use batchnorm::BatchNorm;
pub use chebconv::ChebConv;
pub use coarsen::Coarsening;
pub use dense_layer::DenseLayer;
pub use dropout::Dropout;
pub use error::GnnError;
pub use gana_sparse::{kernel, Kernel};
pub use model::{GcnConfig, GcnModel};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use sample::GraphSample;
pub use trainer::{EpochStats, Trainer, TrainerConfig};
pub use workspace::GnnWorkspace;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GnnError>;
