//! Runtime-dispatched SIMD micro-kernels for the spmm and axpy hot loops.
//!
//! The Chebyshev recurrence spends nearly all of its time in two loops: the
//! CSR sparse–dense product ([`crate::CsrMatrix::mul_dense_into`]) and the
//! `T_k = 2·L̂·T_{k−1} − T_{k−2}` combine step. This module provides explicit
//! `std::arch` implementations of both (AVX2 on x86-64, NEON on aarch64)
//! behind a process-wide dispatcher, with the portable scalar tile loop as
//! the always-correct fallback.
//!
//! # Byte-identity contract
//!
//! Every vector implementation performs, per output element, exactly the
//! scalar kernel's operation sequence: addends accumulate in stored-entry
//! order, and each step is a distinct IEEE-754 multiply followed by a
//! distinct add — **never** a fused multiply-add, which would round once
//! instead of twice and change low bits. Lanes of a SIMD register are
//! independent output elements, so vectorization only reorders work *across*
//! elements, never the summation *within* one. The result is bit-identical
//! to the scalar path on every input, which is what lets the dispatch layer
//! sit underneath the workspace/parallel/batched equivalence proptests
//! without weakening them to tolerance checks.
//!
//! # Selection
//!
//! The active kernel is resolved once, on first use, from the `GANA_KERNEL`
//! environment variable (`scalar`, `avx2`, `neon`, or `auto`) falling back
//! to CPU-feature detection; requesting a kernel the CPU cannot run falls
//! back to scalar rather than faulting. Per-call entry points
//! ([`crate::CsrMatrix::mul_dense_into_with_kernel`]) bypass the global
//! selection entirely so both paths are testable in one process on any box.

#![allow(unsafe_code)]

use std::ops::Range;
use std::sync::OnceLock;

/// Column-tile width shared by every spmm kernel variant: eight `f64`s span
/// one cache line and fit the widest vector unit we target (2×4 lanes on
/// AVX2, 4×2 on NEON), so each stored entry costs one broadcast-multiply-add
/// sweep with no output loads or stores inside the nnz loop.
pub const COL_TILE: usize = 8;

/// A spmm/axpy micro-kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable register-tiled scalar loop — the bit-exact reference and
    /// universal fallback.
    Scalar,
    /// AVX2 (x86-64) — 256-bit lanes, separate mul/add (no FMA).
    Avx2,
    /// NEON (aarch64) — 128-bit lanes, separate mul/add (no FMA).
    Neon,
}

impl Kernel {
    /// The kernel's stable lowercase name, as accepted by `GANA_KERNEL` and
    /// reported in serve `stats` and bench records.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a kernel name (`scalar`/`avx2`/`neon`). Returns `None` for
    /// anything else, including `auto` — callers map that to
    /// [`Kernel::detect`].
    pub fn parse(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// True when the current CPU can execute this kernel.
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            // NEON is a mandatory feature of AArch64.
            Kernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest kernel the current CPU supports.
    pub fn detect() -> Kernel {
        if Kernel::Avx2.is_available() {
            Kernel::Avx2
        } else if Kernel::Neon.is_available() {
            Kernel::Neon
        } else {
            Kernel::Scalar
        }
    }
}

/// The `GANA_KERNEL`-resolved kernel, computed once on first [`active`] call.
static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// Resolves a `GANA_KERNEL` request: a runnable named kernel is used as is,
/// a named kernel this CPU cannot run degrades to scalar (never faults),
/// and no request, `auto`, or an unknown name means CPU-feature detection.
fn resolve(requested: Option<&str>) -> Kernel {
    match requested.map(Kernel::parse) {
        Some(Some(k)) if k.is_available() => k,
        Some(Some(_)) => Kernel::Scalar,
        Some(None) | None => Kernel::detect(),
    }
}

/// The kernel every dispatching entry point runs: `GANA_KERNEL` when set,
/// otherwise the auto-detected default, fixed for the life of the process.
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(|| resolve(std::env::var("GANA_KERNEL").ok().as_deref()))
}

/// Computes output rows `range` of the CSR×dense product into `dst` (a
/// row-major `range.len() × cols` block) with the given kernel. `x` is the
/// dense operand's flat row-major data of width `cols`; `dst` must be
/// zeroed. Falls back to scalar when the requested kernel is unavailable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm_rows(
    kernel: Kernel,
    indptr: &[usize],
    indices: &[usize],
    values: &[f64],
    x: &[f64],
    cols: usize,
    range: Range<usize>,
    dst: &mut [f64],
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_available() => unsafe {
            spmm_rows_avx2(indptr, indices, values, x, cols, range, dst);
        },
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => unsafe {
            spmm_rows_neon(indptr, indices, values, x, cols, range, dst);
        },
        _ => spmm_rows_scalar(indptr, indices, values, x, cols, range, dst),
    }
}

/// In-place `dst[i] += alpha * src[i]` with the given kernel. The slices
/// must have equal length.
pub(crate) fn axpy(kernel: Kernel, dst: &mut [f64], alpha: f64, src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_available() => unsafe {
            axpy_avx2(dst, alpha, src);
        },
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => unsafe {
            axpy_neon(dst, alpha, src);
        },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }
}

/// In-place fused `dst[i] = alpha * dst[i] + beta * src[i]` with the given
/// kernel — the Chebyshev combine step `T_k = 2·(L̂·T_{k−1}) − T_{k−2}` in
/// one sweep. Per element this is multiply, multiply, add: bit-identical to
/// a `scale_in_place(alpha)` pass followed by an `axpy(beta, src)` pass.
/// The slices must have equal length.
pub(crate) fn scale_axpy(kernel: Kernel, dst: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if Kernel::Avx2.is_available() => unsafe {
            scale_axpy_avx2(dst, alpha, beta, src);
        },
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => unsafe {
            scale_axpy_neon(dst, alpha, beta, src);
        },
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = alpha * *d + beta * s;
            }
        }
    }
}

/// The portable tile loop — the bit-exact reference every SIMD variant must
/// reproduce. Identical to the pre-dispatch `spmm_rows_tiled` body.
fn spmm_rows_scalar(
    indptr: &[usize],
    indices: &[usize],
    values: &[f64],
    x: &[f64],
    cols: usize,
    range: Range<usize>,
    dst: &mut [f64],
) {
    let start = range.start;
    for r in range {
        let lo = indptr[r];
        let hi = indptr[r + 1];
        let row_out = &mut dst[(r - start) * cols..(r - start + 1) * cols];
        let mut c0 = 0;
        while c0 + COL_TILE <= cols {
            let mut acc = [0.0f64; COL_TILE];
            for i in lo..hi {
                let v = values[i];
                let base = indices[i] * cols + c0;
                let src = &x[base..base + COL_TILE];
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a += v * s;
                }
            }
            row_out[c0..c0 + COL_TILE].copy_from_slice(&acc);
            c0 += COL_TILE;
        }
        spmm_row_tail(indices, values, lo, hi, x, cols, c0, row_out);
    }
}

/// Ragged-tail columns (`cols % COL_TILE`) of one output row, accumulated
/// in nnz order with in-place adds on the zeroed destination. Shared by all
/// kernel variants so the tail is literally the same code everywhere.
#[inline]
#[allow(clippy::too_many_arguments)]
fn spmm_row_tail(
    indices: &[usize],
    values: &[f64],
    lo: usize,
    hi: usize,
    x: &[f64],
    cols: usize,
    c0: usize,
    row_out: &mut [f64],
) {
    if c0 >= cols {
        return;
    }
    for i in lo..hi {
        let v = values[i];
        let src = &x[indices[i] * cols + c0..(indices[i] + 1) * cols];
        for (d, &s) in row_out[c0..].iter_mut().zip(src) {
            *d += v * s;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{spmm_row_tail, COL_TILE};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    use std::ops::Range;

    /// AVX2 spmm tile loop: the eight accumulators live in two 256-bit
    /// registers; each stored entry broadcasts once and does two separate
    /// multiply-then-add sweeps (FMA is deliberately not used — see the
    /// module's byte-identity contract).
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and that the slice
    /// geometry is valid CSR (every `indices[i] * cols + COL_TILE` load
    /// stays inside `x`, every output row inside `dst`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn spmm_rows_avx2(
        indptr: &[usize],
        indices: &[usize],
        values: &[f64],
        x: &[f64],
        cols: usize,
        range: Range<usize>,
        dst: &mut [f64],
    ) {
        let start = range.start;
        for r in range {
            let lo = indptr[r];
            let hi = indptr[r + 1];
            let out_base = (r - start) * cols;
            let mut c0 = 0;
            while c0 + COL_TILE <= cols {
                // SAFETY: `c0 + COL_TILE <= cols` bounds every 4-lane load
                // at `indices[i] * cols + c0 (+4)` inside row `indices[i]`
                // of `x`, and the two stores inside `dst`'s current row.
                unsafe {
                    let mut acc0 = _mm256_setzero_pd();
                    let mut acc1 = _mm256_setzero_pd();
                    for i in lo..hi {
                        let v = _mm256_set1_pd(values[i]);
                        let base = indices[i] * cols + c0;
                        let s0 = _mm256_loadu_pd(x.as_ptr().add(base));
                        let s1 = _mm256_loadu_pd(x.as_ptr().add(base + 4));
                        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, s0));
                        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, s1));
                    }
                    _mm256_storeu_pd(dst.as_mut_ptr().add(out_base + c0), acc0);
                    _mm256_storeu_pd(dst.as_mut_ptr().add(out_base + c0 + 4), acc1);
                }
                c0 += COL_TILE;
            }
            let row_out = &mut dst[out_base..out_base + cols];
            spmm_row_tail(indices, values, lo, hi, x, cols, c0, row_out);
        }
    }

    /// AVX2 `dst += alpha * src`, 4 lanes per step, scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2; `dst` and `src` must
    /// have equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(dst: &mut [f64], alpha: f64, src: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: `i + 4 <= n` bounds each load/store; lengths are equal.
        unsafe {
            let va = _mm256_set1_pd(alpha);
            while i + 4 <= n {
                let d = _mm256_loadu_pd(dst.as_ptr().add(i));
                let s = _mm256_loadu_pd(src.as_ptr().add(i));
                _mm256_storeu_pd(
                    dst.as_mut_ptr().add(i),
                    _mm256_add_pd(d, _mm256_mul_pd(va, s)),
                );
                i += 4;
            }
        }
        while i < n {
            dst[i] += alpha * src[i];
            i += 1;
        }
    }

    /// AVX2 fused `dst = alpha * dst + beta * src` (multiply, multiply,
    /// add — never FMA), 4 lanes per step, scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2; `dst` and `src` must
    /// have equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_axpy_avx2(dst: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: `i + 4 <= n` bounds each load/store; lengths are equal.
        unsafe {
            let va = _mm256_set1_pd(alpha);
            let vb = _mm256_set1_pd(beta);
            while i + 4 <= n {
                let d = _mm256_loadu_pd(dst.as_ptr().add(i));
                let s = _mm256_loadu_pd(src.as_ptr().add(i));
                let scaled = _mm256_mul_pd(va, d);
                _mm256_storeu_pd(
                    dst.as_mut_ptr().add(i),
                    _mm256_add_pd(scaled, _mm256_mul_pd(vb, s)),
                );
                i += 4;
            }
        }
        while i < n {
            dst[i] = alpha * dst[i] + beta * src[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{axpy_avx2, scale_axpy_avx2, spmm_rows_avx2};

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{spmm_row_tail, COL_TILE};
    use std::arch::aarch64::{vaddq_f64, vdupq_n_f64, vld1q_f64, vmulq_f64, vst1q_f64};
    use std::ops::Range;

    /// NEON spmm tile loop: eight accumulators in four 128-bit registers;
    /// separate multiply-then-add (no `vfmaq_f64`) per the byte-identity
    /// contract.
    ///
    /// # Safety
    ///
    /// `indptr`/`indices`/`values` must be valid CSR over `x` (width
    /// `cols`) and `dst` must hold `range.len() * cols` zeroed elements.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn spmm_rows_neon(
        indptr: &[usize],
        indices: &[usize],
        values: &[f64],
        x: &[f64],
        cols: usize,
        range: Range<usize>,
        dst: &mut [f64],
    ) {
        let start = range.start;
        for r in range {
            let lo = indptr[r];
            let hi = indptr[r + 1];
            let out_base = (r - start) * cols;
            let mut c0 = 0;
            while c0 + COL_TILE <= cols {
                // SAFETY: `c0 + COL_TILE <= cols` bounds every 2-lane load
                // inside row `indices[i]` of `x` and the stores inside
                // `dst`'s current row.
                unsafe {
                    let mut acc0 = vdupq_n_f64(0.0);
                    let mut acc1 = vdupq_n_f64(0.0);
                    let mut acc2 = vdupq_n_f64(0.0);
                    let mut acc3 = vdupq_n_f64(0.0);
                    for i in lo..hi {
                        let v = vdupq_n_f64(values[i]);
                        let base = indices[i] * cols + c0;
                        let p = x.as_ptr().add(base);
                        acc0 = vaddq_f64(acc0, vmulq_f64(v, vld1q_f64(p)));
                        acc1 = vaddq_f64(acc1, vmulq_f64(v, vld1q_f64(p.add(2))));
                        acc2 = vaddq_f64(acc2, vmulq_f64(v, vld1q_f64(p.add(4))));
                        acc3 = vaddq_f64(acc3, vmulq_f64(v, vld1q_f64(p.add(6))));
                    }
                    let q = dst.as_mut_ptr().add(out_base + c0);
                    vst1q_f64(q, acc0);
                    vst1q_f64(q.add(2), acc1);
                    vst1q_f64(q.add(4), acc2);
                    vst1q_f64(q.add(6), acc3);
                }
                c0 += COL_TILE;
            }
            let row_out = &mut dst[out_base..out_base + cols];
            spmm_row_tail(indices, values, lo, hi, x, cols, c0, row_out);
        }
    }

    /// NEON `dst += alpha * src`, 2 lanes per step, scalar tail.
    ///
    /// # Safety
    ///
    /// `dst` and `src` must have equal length.
    pub(super) unsafe fn axpy_neon(dst: &mut [f64], alpha: f64, src: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: `i + 2 <= n` bounds each load/store; lengths are equal.
        unsafe {
            let va = vdupq_n_f64(alpha);
            while i + 2 <= n {
                let d = vld1q_f64(dst.as_ptr().add(i));
                let s = vld1q_f64(src.as_ptr().add(i));
                vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(d, vmulq_f64(va, s)));
                i += 2;
            }
        }
        while i < n {
            dst[i] += alpha * src[i];
            i += 1;
        }
    }

    /// NEON fused `dst = alpha * dst + beta * src`, 2 lanes per step,
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// `dst` and `src` must have equal length.
    pub(super) unsafe fn scale_axpy_neon(dst: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        // SAFETY: `i + 2 <= n` bounds each load/store; lengths are equal.
        unsafe {
            let va = vdupq_n_f64(alpha);
            let vb = vdupq_n_f64(beta);
            while i + 2 <= n {
                let d = vld1q_f64(dst.as_ptr().add(i));
                let s = vld1q_f64(src.as_ptr().add(i));
                let scaled = vmulq_f64(va, d);
                vst1q_f64(dst.as_mut_ptr().add(i), vaddq_f64(scaled, vmulq_f64(vb, s)));
                i += 2;
            }
        }
        while i < n {
            dst[i] = alpha * dst[i] + beta * src[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
use neon::{axpy_neon, scale_axpy_neon, spmm_rows_neon};

#[cfg(test)]
mod tests {
    use super::*;

    fn every_runnable_kernel() -> Vec<Kernel> {
        [Kernel::Scalar, Kernel::Avx2, Kernel::Neon]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    #[test]
    fn names_round_trip_through_parse() {
        for k in [Kernel::Scalar, Kernel::Avx2, Kernel::Neon] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("auto"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn scalar_is_always_available_and_detect_is_runnable() {
        assert!(Kernel::Scalar.is_available());
        assert!(Kernel::detect().is_available());
    }

    #[test]
    fn axpy_matches_scalar_bitwise_on_every_kernel() {
        let src: Vec<f64> = (0..37).map(|i| (i as f64).sin() * 1e3).collect();
        let init: Vec<f64> = (0..37).map(|i| (i as f64).cos() / 7.0).collect();
        let mut reference = init.clone();
        axpy(Kernel::Scalar, &mut reference, -0.3, &src);
        for k in every_runnable_kernel() {
            let mut dst = init.clone();
            axpy(k, &mut dst, -0.3, &src);
            let same = reference
                .iter()
                .zip(&dst)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "kernel {:?} diverged from scalar axpy", k);
        }
    }

    #[test]
    fn scale_axpy_is_bitwise_equal_to_two_pass_on_every_kernel() {
        let src: Vec<f64> = (0..41).map(|i| (i as f64 * 0.7).tan()).collect();
        let init: Vec<f64> = (0..41).map(|i| 1.0 / (i as f64 + 0.5)).collect();
        // Two-pass reference: scale then axpy, both scalar.
        let mut reference = init.clone();
        for v in &mut reference {
            *v *= 2.0;
        }
        axpy(Kernel::Scalar, &mut reference, -1.0, &src);
        for k in every_runnable_kernel() {
            let mut dst = init.clone();
            scale_axpy(k, &mut dst, 2.0, -1.0, &src);
            let same = reference
                .iter()
                .zip(&dst)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "kernel {:?} diverged from two-pass scale+axpy", k);
        }
    }

    #[test]
    fn force_falls_back_to_scalar_for_unavailable_kernels() {
        // `GANA_KERNEL` naming a kernel this CPU cannot run degrades to
        // scalar; a runnable one is taken as is.
        for k in [Kernel::Scalar, Kernel::Avx2, Kernel::Neon] {
            let expected = if k.is_available() { k } else { Kernel::Scalar };
            assert_eq!(resolve(Some(k.name())), expected, "{k:?}");
        }
        // No request, `auto`, or an unknown name means detection.
        for requested in [None, Some("auto"), Some("sse9"), Some("")] {
            assert_eq!(resolve(requested), Kernel::detect(), "{requested:?}");
        }
    }
}
