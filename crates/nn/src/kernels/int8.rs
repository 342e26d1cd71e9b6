//! int8×int8→i32 GEMM kernels for the quantized inference tier.
//!
//! One contraction variant covers every quantized inference product:
//! [`gemm_i8_abt`] — `C = A·Bᵀ` with `A` the quantized activations
//! `(m, k)`, `B` the quantized weights stored **pre-transposed** `(n, k)`
//! (row `j` of `B` is output channel `j`), and `C` the `(m, n)` i32
//! accumulator. Weights are laid out at quantization time so dense, LSTM
//! gate projections, and im2col convolutions all hit this single kernel.
//!
//! # Why every summation order is bit-identical here
//!
//! The f32 kernels need a hard accumulation-order contract because float
//! addition does not associate. Integer addition does, and these kernels
//! cannot overflow on the way to the final sum:
//!
//! * every term is `a·b` with `|a|, |b| ≤ 128`, so `|a·b| ≤ 16384`;
//! * a pairwise i16→i32 step (`_mm256_madd_epi16`, `vmull_s8` +
//!   `vpadalq_s16`) sums two such terms exactly — sign-extended i8 values
//!   are far inside the i16 range where those instructions are exact and
//!   saturation-free;
//! * the i32 accumulator holds at most `k` terms, and the public entry
//!   points reject `k > `[`MAX_K`], so `|Σ| ≤ k·16384 < i32::MAX`.
//!
//! Exact, associative, saturation-free arithmetic means the SIMD backends
//! are free to vectorize **along k** (pairwise reduction trees) and still
//! produce *bit-identical* output to the serial ascending-k scalar
//! reference [`naive_i8_abt`] — identical by construction, and pinned by
//! the same cross-backend property tests as the f32 layer
//! (`tests/gemm_props.rs`). There is no zero-skip: integer `0·x` is an
//! exact 0 with no NaN semantics to preserve.
//!
//! Dispatch rides the same process-wide backend request as the f32 layer
//! (`GEMM_BACKEND` / [`set_gemm_backend`](super::set_gemm_backend)):
//! [`active_gemm_i8_isa`] resolves the request against the host, and
//! [`gemm_i8_abt_with`] runs one explicit backend for race-free
//! comparisons. No packing scratch is needed — the pre-transposed weight
//! rows are already k-contiguous — so the kernels are allocation-free
//! unconditionally, not just after warm-up.

use super::GemmIsa;

/// Rows per register block in the scalar backend (A rows advanced
/// together, reusing each loaded B row).
pub const I8_MR: usize = 4;

/// Preferred k-alignment for operand rows: padding both operands' rows to
/// a multiple of this (with exact zeros) lets the SIMD backends run pure
/// vector k-loops with no scalar tail. Zero terms contribute exactly 0 to
/// an integer dot product, so padded and unpadded calls are bit-identical;
/// the quantized layers ([`crate::quant`]) stage their operands at this
/// stride.
pub const K_ALIGN: usize = 16;

/// Largest `k` the i32 accumulator provably cannot saturate for:
/// `i32::MAX / 128²`. Every shape the pipeline multiplies is hundreds at
/// most; the public entry points assert this bound so saturation-freedom
/// is a checked contract, not an assumption.
pub const MAX_K: usize = (i32::MAX / (128 * 128)) as usize;

/// Reference `C = A·Bᵀ`: `a` is `(m, k)`, `b` is `(n, k)` (pre-transposed
/// weights), `out` is `(m, n)`, all row-major. Each element is one serial
/// ascending-k dot product in i32. Overwrites `out`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions or `k` exceeds
/// [`MAX_K`].
pub fn naive_i8_abt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    check_dims_i8(m, k, n, a.len(), b.len(), out.len());
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av as i32 * bv as i32;
            }
            out[i * n + j] = acc;
        }
    }
}

/// `C = A·Bᵀ` on the active backend (see [`naive_i8_abt`] for the
/// layout). Bit-identical to the reference on every backend — integer
/// arithmetic makes that exact by construction (module docs).
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions or `k` exceeds
/// [`MAX_K`].
// lint: hot-path
pub fn gemm_i8_abt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    check_dims_i8(m, k, n, a.len(), b.len(), out.len());
    run(active_gemm_i8_isa(), m, k, n, a, b, out);
}

/// [`gemm_i8_abt`] on one explicit backend, ignoring the global dispatch —
/// how tests and benches compare backends without racing on process state.
///
/// # Panics
///
/// Panics on dimension mismatch, `k > `[`MAX_K`], or if `isa` is
/// unavailable on this host.
// lint: hot-path
pub fn gemm_i8_abt_with(
    isa: GemmIsa,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
) {
    check_dims_i8(m, k, n, a.len(), b.len(), out.len());
    super::assert_isa_available(isa);
    run(isa, m, k, n, a, b, out);
}

/// The ISA the int8 kernels resolve to under the current backend request.
///
/// The int8 microkernels require exactly the same ISA tier as the f32 ones
/// (AVX2 on x86_64, NEON on aarch64), so today this coincides with
/// [`active_gemm_isa`](super::active_gemm_isa) — but callers and the
/// [`gemm_backend_label`](super::gemm_backend_label) header treat the two
/// dtypes as separately resolved so a future ISA split (e.g. VNNI-only
/// int8) stays a local change.
// lint: hot-path
pub fn active_gemm_i8_isa() -> GemmIsa {
    super::active_gemm_isa()
}

/// Runs the resolved backend.
///
/// # Panics
///
/// Panics if `isa` is not compiled into this binary (wrong architecture).
// lint: hot-path
fn run(isa: GemmIsa, m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    match isa {
        GemmIsa::Scalar => scalar_i8_abt(m, k, n, a, b, out),
        #[cfg(target_arch = "x86_64")]
        GemmIsa::Avx2 => {
            // SAFETY: this arm is only reachable through a dispatch / ISA
            // assertion that verified `is_x86_feature_detected!("avx2")`.
            unsafe { avx2::gemm_abt(m, k, n, a, b, out) }
        }
        #[cfg(target_arch = "aarch64")]
        GemmIsa::Neon => {
            // SAFETY: reachable only after runtime NEON detection.
            unsafe { neon::gemm_abt(m, k, n, a, b, out) }
        }
        #[allow(unreachable_patterns)] // reachable only for foreign-arch ISAs
        // lint: allow(panic, reason = "foreign-arch ISA arm; dispatch only selects backends the detector verified on this CPU")
        other => panic!("int8 GEMM backend {other:?} is not available on this architecture"),
    }
}

/// Scalar `C = A·Bᵀ`: the reference loop with [`I8_MR`]-row blocking so
/// each loaded B row is reused across four output rows. Identical output
/// to [`naive_i8_abt`] — exact integer sums in any order (module docs).
// lint: hot-path
fn scalar_i8_abt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32]) {
    let mut i0 = 0;
    while i0 + I8_MR <= m {
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = [0i32; I8_MR];
            for (kk, &bv) in b_row.iter().enumerate() {
                let bv = bv as i32;
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot += a[(i0 + r) * k + kk] as i32 * bv;
                }
            }
            for (r, &slot) in acc.iter().enumerate() {
                out[(i0 + r) * n + j] = slot;
            }
        }
        i0 += I8_MR;
    }
    for i in i0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av as i32 * bv as i32;
            }
            out[i * n + j] = acc;
        }
    }
}

#[track_caller]
// lint: hot-path
fn check_dims_i8(m: usize, k: usize, n: usize, a_len: usize, b_len: usize, out_len: usize) {
    assert_eq!(a_len, m * k, "gemm_i8: A length {a_len} != {m}x{k}");
    assert_eq!(b_len, n * k, "gemm_i8: B length {b_len} != {n}x{k}");
    assert_eq!(out_len, m * n, "gemm_i8: C length {out_len} != {m}x{n}");
    assert!(k <= MAX_K, "gemm_i8: k={k} exceeds the saturation-free bound {MAX_K}");
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 int8 microkernels, vectorized **along k**.
    //!
    //! Per 16 k-elements: sign-extend A and B bytes to i16
    //! (`_mm256_cvtepi8_epi16`), multiply-and-pairwise-add to eight i32
    //! partial sums (`_mm256_madd_epi16` — exact for sign-extended i8
    //! inputs, see the module docs' saturation argument), and accumulate
    //! with `_mm256_add_epi32`. Integer associativity makes every reduction
    //! tree below bit-identical to the serial reference.
    //!
    //! The pipeline's contractions have **small k** (tens), so the
    //! per-output horizontal reduction — not the multiply loop — is the
    //! cost that matters. The main loop therefore computes [`JB`] = 8
    //! adjacent outputs per A row at once and folds their eight
    //! accumulators through a single `_mm256_hadd_epi32` tree, amortizing
    //! the reduction to ~¾ of a vector op per output instead of a
    //! store-and-sum per output. Leftover `n % 8` outputs reduce serially;
    //! the `k % 16` tail runs the scalar loop (the quantized layers pad k
    //! to [`K_ALIGN`](super::K_ALIGN) so it is usually empty).

    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_hadd_epi32, _mm256_madd_epi16,
        _mm256_permute2x128_si256, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };

    /// i8 elements consumed per vector step.
    const STEP: usize = 16;

    /// Adjacent outputs (B rows) whose accumulators fold through one
    /// horizontal-add tree.
    const JB: usize = 8;

    /// Loads 16 i8 values starting at `row[kk]` sign-extended to 16×i16.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `row[kk..kk + 16]` must be in bounds.
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn load16_i16(row: &[i8], kk: usize) -> __m256i {
        debug_assert!(kk + STEP <= row.len());
        // SAFETY: the caller guarantees 16 readable bytes at `row[kk]`.
        // lint: allow(hot-path, reason = "pointer .add(), not Mat::add -- receiver-blind name collision")
        let bytes = unsafe { _mm_loadu_si128(row.as_ptr().add(kk).cast()) };
        _mm256_cvtepi8_epi16(bytes)
    }

    /// Serially reduces the eight i32 lanes of `v` (exact integer sums, so
    /// the reduction order is immaterial to the result).
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    fn hsum_epi32(v: __m256i) -> i32 {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is 8 i32 (32 bytes) on the stack.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        // lint: allow(determinism, reason = "i32 horizontal sum -- integer addition is exact and order-independent")
        lanes.iter().sum()
    }

    /// Folds eight accumulators into one vector whose lane `r` is the full
    /// lane-sum of `acc[r]` — three `hadd` levels plus a 128-bit half swap.
    /// Every op is an exact i32 add, so this equals eight serial
    /// [`hsum_epi32`] calls bit for bit.
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    fn hsum8_epi32(acc: [__m256i; JB]) -> __m256i {
        let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let h45 = _mm256_hadd_epi32(acc[4], acc[5]);
        let h67 = _mm256_hadd_epi32(acc[6], acc[7]);
        // `hadd` interleaves its operands per 128-bit half, so after two
        // levels lane r of each half holds acc[r]'s half-sums:
        //   q03 = [a0l a1l a2l a3l | a0h a1h a2h a3h], q47 likewise.
        let q03 = _mm256_hadd_epi32(h01, h23);
        let q47 = _mm256_hadd_epi32(h45, h67);
        let lo = _mm256_permute2x128_si256(q03, q47, 0x20);
        let hi = _mm256_permute2x128_si256(q03, q47, 0x31);
        _mm256_add_epi32(lo, hi)
    }

    /// AVX2 `C = A·Bᵀ` over i8 inputs: per A row, [`JB`] adjacent outputs
    /// accumulate together and share one horizontal-add tree.
    ///
    /// # Safety
    ///
    /// AVX2 must be available at runtime; dimension checks are the public
    /// wrappers' job.
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_abt(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
    ) {
        let kb = k - k % STEP;
        let nb = n - n % JB;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut j = 0;
            while j < nb {
                let mut acc = [_mm256_setzero_si256(); JB];
                for kk in (0..kb).step_by(STEP) {
                    // SAFETY: `kk + 16 <= kb <= k`, the row length.
                    let av = unsafe { load16_i16(a_row, kk) };
                    for (r, slot) in acc.iter_mut().enumerate() {
                        // SAFETY: same in-bounds argument for B row `j + r`.
                        let bv = unsafe { load16_i16(&b[(j + r) * k..(j + r + 1) * k], kk) };
                        *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(av, bv));
                    }
                }
                let mut sums = [0i32; JB];
                // SAFETY: `sums` is 8 i32 (32 bytes) on the stack.
                unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), hsum8_epi32(acc)) };
                for (r, sum) in sums.iter_mut().enumerate() {
                    for kk in kb..k {
                        *sum += a_row[kk] as i32 * b[(j + r) * k + kk] as i32;
                    }
                }
                out[i * n + j..i * n + j + JB].copy_from_slice(&sums);
                j += JB;
            }
            for j in nb..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = _mm256_setzero_si256();
                for kk in (0..kb).step_by(STEP) {
                    // SAFETY: `kk + 16 <= kb <= k`, the row length.
                    let (av, bv) = unsafe { (load16_i16(a_row, kk), load16_i16(b_row, kk)) };
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
                }
                let mut sum = hsum_epi32(acc);
                for kk in kb..k {
                    sum += a_row[kk] as i32 * b_row[kk] as i32;
                }
                out[i * n + j] = sum;
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON int8 microkernels, vectorized **along k**.
    //!
    //! Per 8 k-elements: widening multiply i8×i8→i16 (`vmull_s8`, exact for
    //! the full i8 range) and pairwise add-accumulate into four i32 lanes
    //! (`vpadalq_s16`). As in the AVX2 backend, the pipeline's small-k
    //! shapes make the per-output horizontal reduction the dominant cost,
    //! so the main loop folds [`JB`] = 4 adjacent outputs' accumulators
    //! through a two-level `vpaddq_s32` tree and stores four i32 results at
    //! once. Leftover outputs reduce with `vaddvq_s32`; the `k % 8` tail
    //! runs the scalar loop — everything is an exact integer add, so the
    //! result is bit-identical to the serial reference (module docs).

    use core::arch::aarch64::{
        vaddvq_s32, vdupq_n_s32, vld1_s8, vmull_s8, vpadalq_s16, vpaddq_s32, vst1q_s32,
    };

    /// i8 elements consumed per vector step.
    const STEP: usize = 8;

    /// Adjacent outputs (B rows) whose accumulators fold through one
    /// pairwise-add tree.
    const JB: usize = 4;

    /// NEON `C = A·Bᵀ` over i8 inputs: per A row, [`JB`] adjacent outputs
    /// accumulate together and share one pairwise-add tree.
    ///
    /// # Safety
    ///
    /// NEON must be available at runtime; dimension checks are the public
    /// wrappers' job.
    // lint: hot-path
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_abt(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
    ) {
        let kb = k - k % STEP;
        let nb = n - n % JB;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut j = 0;
            while j < nb {
                let mut acc = [vdupq_n_s32(0); JB];
                for kk in (0..kb).step_by(STEP) {
                    // SAFETY: `kk + 8 <= kb <= k`, the row length.
                    // lint: allow(hot-path, reason = "pointer .add(), not Mat::add -- receiver-blind name collision")
                    let av = unsafe { vld1_s8(a_row.as_ptr().add(kk)) };
                    for (r, slot) in acc.iter_mut().enumerate() {
                        // SAFETY: same in-bounds argument for B row `j + r`.
                        let bv = unsafe { vld1_s8(b.as_ptr().add((j + r) * k + kk)) };
                        *slot = vpadalq_s16(*slot, vmull_s8(av, bv));
                    }
                }
                // `vpaddq` concatenates pairwise sums of both operands, so
                // two levels leave lane r holding acc[r]'s full lane-sum —
                // exact i32 adds, bit-equal to four serial `vaddvq_s32`.
                let p01 = vpaddq_s32(acc[0], acc[1]);
                let p23 = vpaddq_s32(acc[2], acc[3]);
                let mut sums = [0i32; JB];
                // SAFETY: `sums` is 4 i32 (16 bytes) on the stack.
                unsafe { vst1q_s32(sums.as_mut_ptr(), vpaddq_s32(p01, p23)) };
                for (r, sum) in sums.iter_mut().enumerate() {
                    for kk in kb..k {
                        *sum += a_row[kk] as i32 * b[(j + r) * k + kk] as i32;
                    }
                }
                out[i * n + j..i * n + j + JB].copy_from_slice(&sums);
                j += JB;
            }
            for j in nb..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = vdupq_n_s32(0);
                for kk in (0..kb).step_by(STEP) {
                    // SAFETY: `kk + 8 <= kb <= k`, the row length.
                    let (av, bv) = unsafe {
                        (vld1_s8(a_row.as_ptr().add(kk)), vld1_s8(b_row.as_ptr().add(kk)))
                    };
                    acc = vpadalq_s16(acc, vmull_s8(av, bv));
                }
                let mut sum = vaddvq_s32(acc);
                for kk in kb..k {
                    sum += a_row[kk] as i32 * b_row[kk] as i32;
                }
                out[i * n + j] = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic i8 fill covering the full range including -128.
    fn fill_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn scalar_matches_naive_over_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (4, 16, 8), (5, 17, 3), (8, 33, 9), (2, 0, 4)] {
            let a = fill_i8(m * k, 11 + m as u64);
            let b = fill_i8(n * k, 23 + k as u64);
            let mut want = vec![0i32; m * n];
            let mut got = vec![0i32; m * n];
            naive_i8_abt(m, k, n, &a, &b, &mut want);
            scalar_i8_abt(m, k, n, &a, &b, &mut got);
            assert_eq!(want, got, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn extreme_values_cannot_saturate() {
        // All-(-128) inputs maximize every term; the checked MAX_K bound is
        // what keeps the running i32 sum exact.
        let k = 1024;
        let a = vec![-128i8; k];
        let b = vec![-128i8; k];
        let mut out = [0i32];
        gemm_i8_abt(1, k, 1, &a, &b, &mut out);
        assert_eq!(out[0], 128 * 128 * k as i32);
    }

    #[test]
    #[should_panic(expected = "saturation-free bound")]
    fn oversized_k_is_rejected() {
        let k = MAX_K + 1;
        let a = vec![0i8; k];
        let b = vec![0i8; k];
        let mut out = [0i32];
        gemm_i8_abt(1, k, 1, &a, &b, &mut out);
    }
}
