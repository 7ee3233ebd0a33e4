//! Property-based tests for the linear-algebra substrate: sparse results
//! must agree with dense reference computations, and the spectral helpers
//! must respect their bounds.

use gana_sparse::{kernel, lanczos, CooMatrix, CsrMatrix, DenseMatrix, Kernel};
use proptest::prelude::*;

/// Every kernel the current CPU can execute — always contains `Scalar`,
/// plus `Avx2`/`Neon` where the hardware allows, so the SIMD paths are
/// proptested natively wherever possible and degrade to a scalar-vs-scalar
/// check elsewhere.
fn runnable_kernels() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Avx2, Kernel::Neon]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Strategy: a random sparse square matrix as (n, triplets).
fn sparse_square() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -5.0f64..5.0);
        (Just(n), proptest::collection::vec(entry, 0..40))
    })
}

/// `a · x` through the one dispatching product, on a fresh buffer.
fn mul(a: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::default();
    a.mul_dense_into(x, &mut out).expect("shapes match");
    out
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v).expect("in bounds by construction");
    }
    coo.to_csr()
}

proptest! {
    #[test]
    fn csr_times_dense_matches_dense_reference((n, entries) in sparse_square()) {
        let a = build(n, &entries);
        let x = DenseMatrix::from_fn(n, 3, |r, c| (r as f64) * 0.7 - (c as f64) * 1.3 + 0.1);
        let sparse = mul(&a, &x);
        let dense = a.to_dense().matmul(&x).expect("shapes match");
        let diff = (&sparse - &dense).frobenius_norm();
        prop_assert!(diff < 1e-9, "sparse/dense disagree by {diff}");
    }

    #[test]
    fn coo_duplicates_sum((n, entries) in sparse_square()) {
        // Build once normally, once with every entry split in half.
        let whole = build(n, &entries);
        let halves: Vec<(usize, usize, f64)> = entries
            .iter()
            .flat_map(|&(r, c, v)| [(r, c, v / 2.0), (r, c, v / 2.0)])
            .collect();
        let summed = build(n, &halves);
        let diff = (&whole.to_dense() - &summed.to_dense()).frobenius_norm();
        prop_assert!(diff < 1e-9);
    }

    #[test]
    fn linear_combination_matches_dense((n, entries) in sparse_square()) {
        let a = build(n, &entries);
        let b = a.transpose();
        let combo = a.linear_combination(2.0, &b, -0.5).expect("same shape");
        let reference = &a.to_dense().scale(2.0) + &b.to_dense().scale(-0.5);
        let diff = (&combo.to_dense() - &reference).frobenius_norm();
        prop_assert!(diff < 1e-9);
    }

    /// Lanczos on a symmetrized matrix stays within the Gershgorin bound
    /// and dominates the Rayleigh quotient of a probe vector.
    #[test]
    fn lanczos_respects_bounds((n, entries) in sparse_square()) {
        let a = build(n, &entries);
        let sym = a.linear_combination(0.5, &a.transpose(), 0.5).expect("same shape");
        let lambda = lanczos::largest_eigenvalue(&sym, 50, 1e-10).expect("square");
        // Gershgorin upper bound.
        let bound = (0..n)
            .map(|r| sym.row_iter(r).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        prop_assert!(lambda <= bound + 1e-6, "{lambda} > Gershgorin {bound}");
        // Rayleigh quotient of the all-ones vector is a lower bound.
        let ones = vec![1.0; n];
        let ay = sym.mul_vec(&ones).expect("length");
        let rayleigh = ay.iter().sum::<f64>() / n as f64;
        prop_assert!(lambda >= rayleigh - 1e-6, "{lambda} < Rayleigh {rayleigh}");
    }

    #[test]
    fn dense_matmul_is_associative_with_identity(rows in 1usize..8, cols in 1usize..8) {
        let a = DenseMatrix::from_fn(rows, cols, |r, c| (r * cols + c) as f64);
        let left = DenseMatrix::identity(rows).matmul(&a).expect("shapes");
        let right = a.matmul(&DenseMatrix::identity(cols)).expect("shapes");
        prop_assert_eq!(&left, &a);
        prop_assert_eq!(&right, &a);
    }

    /// The register-tiled spmm micro-kernel is bit-for-bit identical to the
    /// naive nnz-outer kernel on random shapes, including widths straddling
    /// the tile boundary and buffers recycled at the wrong size.
    #[test]
    fn tiled_spmm_matches_naive_bit_for_bit(
        (n, entries) in sparse_square(),
        cols in 1usize..20,
        stale_rows in 0usize..9,
    ) {
        let a = build(n, &entries);
        let x = DenseMatrix::from_fn(n, cols, |r, c| ((r * 13 + c * 7) % 29) as f64 / 3.0 - 4.0);
        let mut tiled = DenseMatrix::filled(stale_rows, 2, 42.0);
        let mut naive = DenseMatrix::default();
        a.mul_dense_into(&x, &mut tiled).expect("shapes match");
        a.mul_dense_into_naive(&x, &mut naive).expect("shapes match");
        prop_assert_eq!(&tiled, &naive);
    }

    /// A block-diagonal fusion of random matrices times vertically stacked
    /// features is bit-for-bit the vertical stack of the per-block
    /// products — the identity micro-batched inference rests on.
    #[test]
    fn block_diag_mul_is_stack_of_block_muls(
        parts in proptest::collection::vec(sparse_square(), 1..5),
        cols in 1usize..12,
    ) {
        let blocks: Vec<CsrMatrix> = parts.iter().map(|(n, e)| build(*n, e)).collect();
        let refs: Vec<&CsrMatrix> = blocks.iter().collect();
        let mut fused = CsrMatrix::default();
        CsrMatrix::block_diag_into(&refs, &mut fused);
        let feats: Vec<DenseMatrix> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                DenseMatrix::from_fn(b.cols(), cols, move |r, c| {
                    ((r * 17 + c * 5 + i * 3) % 31) as f64 / 7.0 - 2.0
                })
            })
            .collect();
        let mut stacked = feats[0].clone();
        for f in &feats[1..] {
            stacked = stacked.vstack(f).expect("same width");
        }
        let fused_out = mul(&fused, &stacked);
        let mut expected = mul(&blocks[0], &feats[0]);
        for (b, f) in blocks[1..].iter().zip(&feats[1..]) {
            expected = expected.vstack(&mul(b, f)).expect("same width");
        }
        prop_assert_eq!(&fused_out, &expected);
    }

    /// Every runtime-dispatchable spmm kernel (scalar, and AVX2/NEON where
    /// the CPU allows) is bit-for-bit identical to the naive reference on
    /// random CSR shapes — including all-empty rows (`nnz == 0` when the
    /// entry vector is empty) and widths exercising the `cols % COL_TILE`
    /// ragged tail on both sides of the tile boundary.
    #[test]
    fn every_kernel_spmm_matches_naive_bit_for_bit(
        (n, entries) in sparse_square(),
        cols in 1usize..20,
    ) {
        let a = build(n, &entries);
        let x = DenseMatrix::from_fn(n, cols, |r, c| ((r * 11 + c * 3) % 37) as f64 / 5.0 - 3.0);
        let mut naive = DenseMatrix::default();
        a.mul_dense_into_naive(&x, &mut naive).expect("shapes match");
        for kernel in runnable_kernels() {
            let mut out = DenseMatrix::default();
            kernel::spmm_rows(kernel, &a, &x, &mut out).expect("shapes match");
            prop_assert_eq!(&out, &naive, "kernel {:?} diverged from naive", kernel);
            let identical = out
                .as_slice()
                .iter()
                .zip(naive.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits());
            prop_assert!(identical, "kernel {:?} differs from naive in low bits", kernel);
        }
    }

    /// The fused `scale_axpy` sweep — the SIMD Chebyshev combine step — is
    /// bit-identical to the two-pass `scale_in_place` + `axpy` reference on
    /// random shapes, including lengths hitting the vector-lane tails.
    #[test]
    fn fused_scale_axpy_matches_two_pass_bit_for_bit(
        rows in 1usize..9,
        cols in 1usize..20,
        alpha in -4.0f64..4.0,
        beta in -4.0f64..4.0,
    ) {
        let a = DenseMatrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 13) % 41) as f64 / 9.0 - 2.0);
        let b = DenseMatrix::from_fn(rows, cols, |r, c| ((r * 19 + c * 5) % 43) as f64 / 11.0 - 1.0);
        let mut two_pass = a.clone();
        two_pass.scale_in_place(alpha);
        two_pass.axpy(beta, &b).expect("same shape");
        let mut fused = a.clone();
        fused.scale_axpy(alpha, beta, &b).expect("same shape");
        let identical = fused
            .as_slice()
            .iter()
            .zip(two_pass.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits());
        prop_assert!(identical, "fused scale_axpy differs from two-pass in low bits");
    }
}
