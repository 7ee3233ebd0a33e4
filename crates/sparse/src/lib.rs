//! Dense and sparse linear-algebra substrate for the GANA reproduction.
//!
//! The GANA paper's GCN (Defferrard-style ChebNet) needs:
//!
//! * dense matrices for feature maps and layer weights ([`DenseMatrix`]),
//! * sparse matrices for graph Laplacians ([`CooMatrix`], [`CsrMatrix`]),
//! * sparse–dense products for the Chebyshev recurrence
//!   (`T_k(L̂) = 2 L̂ T_{k-1}(L̂) − T_{k-2}(L̂)` applied to a signal),
//! * an inexpensive largest-eigenvalue estimate for the Laplacian rescaling
//!   `L̂ = 2L/λ_max − I` ([`lanczos::largest_eigenvalue`]).
//!
//! Everything is implemented from scratch: the paper used scikit's sparse
//! routines, and this crate is the Rust substitute.
//!
//! # Examples
//!
//! ```
//! use gana_sparse::{CooMatrix, DenseMatrix};
//!
//! # fn main() -> Result<(), gana_sparse::SparseError> {
//! // A 3-vertex path graph's adjacency matrix.
//! let mut coo = CooMatrix::new(3, 3);
//! for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
//!     coo.push(i, j, 1.0)?;
//! }
//! let adj = coo.to_csr();
//! let x = DenseMatrix::from_rows(&[&[1.0], &[10.0], &[100.0]])?;
//! let mut y = DenseMatrix::default();
//! adj.mul_dense_into(&x, &mut y)?;
//! assert_eq!(y.get(0, 0), 10.0); // neighbor sum of vertex 0
//! assert_eq!(y.get(1, 0), 101.0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD kernel module needs a scoped
// `#![allow(unsafe_code)]` for its `std::arch` intrinsics; everything else
// in the crate still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
mod dense;
mod error;
pub mod kernel;
pub mod lanczos;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use kernel::Kernel;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
