//! A minimal dense `f32` matrix with the operations the transformer needs.
//!
//! The production matmul kernels (`matmul_into` and friends) are
//! register-blocked for autovectorization but keep the *exact* per-element
//! floating-point accumulation order of the naive triple loops, so swapping
//! them in changes no result bit. `matmul_into` and `matmul_tn_into` share
//! one register-tiled microkernel: each 4-row × 8-column block of the
//! output stays in registers for the whole `k` loop and is stored once,
//! with scalar tails in the same `k` order; `matmul_nt_into` transposes its
//! right operand and runs `matmul_into`. Rust never contracts a multiply
//! and an add into an FMA, so the tiling cannot change rounding. The naive
//! loops survive as `*_naive` test oracles; they skip no term, so they
//! agree with the kernels on zeros, infinities and NaN too.
//!
//! The crates build for the baseline instruction set (SSE2 on x86-64), so
//! the tile body is compiled twice: once as is, and once inside a
//! `#[target_feature(enable = "avx2")]` function, where a tile row's eight
//! accumulators fit one 256-bit register. `gemm` picks the AVX2 copy at
//! run time when `is_x86_feature_detected!("avx2")` is true; other targets
//! compile only the portable body. It is one body, with no intrinsics, and
//! only `avx2` is enabled, never `fma`: vector lanes round each multiply
//! and each add exactly as scalar code does, and the `k` order per element
//! is unchanged, so both copies give the same bits on every host. Nothing
//! selects the path but the CPU; [`gemm_uses_avx2`] reports the choice.
//!
//! Softmax's `exp` is the one kernel that does enable `fma`, because its
//! oracle does. `f32::exp` calls glibc's `expf`, which on x86-64 runs its
//! FMA build exactly when the CPU has AVX2 and FMA: a short fixed sequence
//! of double-precision steps (a 32-entry table of `2^(i/32)` and a cubic)
//! whose multiply-adds the compiler fused. `expf4` replays those steps on
//! four lanes with the same fusions, so it returns `expf`'s bits for every
//! `f32` input (an ignored test sweeps all 2³²); lanes that take `expf`'s
//! special cases (`|x| ≥ 88`, infinities, NaN) call `f32::exp` instead.
//! The GEMM's oracle rounds every product on its own, so there `fma` would
//! change bits. The replay runs only on glibc targets whose CPU reports
//! both features, glibc's own rule; elsewhere softmax keeps the scalar
//! loop, and [`softmax_uses_vector_exp`] reports the choice.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Numerically-stabilized softmax over one logit slice, in place.
///
/// A fully non-finite slice (every entry `-inf`/`NaN`) falls back to the
/// uniform distribution so downstream gradients stay finite.
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    softmax_slice_with_max(row, max);
}

/// [`softmax_slice`] when the caller already tracked the row maximum (must
/// equal the `f32::max` fold over the slice, in any order: NaN entries are
/// ignored, and the sign of a zero maximum changes no output bit).
pub(crate) fn softmax_slice_with_max(row: &mut [f32], max: f32) {
    if !max.is_finite() {
        let inv = 1.0 / row.len() as f32;
        for v in row.iter_mut() {
            *v = inv;
        }
        return;
    }
    let sum = exp_shifted(row, max);
    let inv = 1.0 / sum.max(1e-12);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Whether softmax's `exp` runs the four-lane replay of glibc's `expf`
/// (`exp_shifted_fma`) on this host: true on an x86-64 glibc target whose
/// CPU reports AVX2 and FMA, the rule glibc itself uses to pick that
/// `expf`. Either way the bits are those of `f32::exp`, unless glibc is
/// told to ignore the features (`GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`
/// picks its SSE2 build, which differs on two inputs; see the tests).
pub fn softmax_uses_vector_exp() -> bool {
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    return std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    #[cfg(not(all(target_arch = "x86_64", target_env = "gnu")))]
    false
}

/// `v = (v - max).exp()` for every entry of `row`, returning the results'
/// sum added in index order: [`exp_shifted_fma`] when
/// [`softmax_uses_vector_exp`], else the scalar loop. Same bits either way.
fn exp_shifted(row: &mut [f32], max: f32) -> f32 {
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    if softmax_uses_vector_exp() {
        // SAFETY: `exp_shifted_fma` requires only the `avx2` and `fma`
        // target features, and `softmax_uses_vector_exp` has just detected
        // both on the running CPU.
        return unsafe { exp_shifted_fma(row, max) };
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    sum
}

/// glibc's `__exp2f_data.tab` (`sysdeps/ieee754/flt-32`, `N` = 32): entry
/// `i` is the bits of `2^(i/N)` minus `i << 47`, so adding `k << 47` for
/// any `k ≡ i (mod N)` gives the bits of `2^(k/N)`.
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
#[rustfmt::skip]
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// [`exp_shifted`] on four lanes at a time: each group of four runs
/// [`expf4`], or `f32::exp` per entry when a lane needs glibc's special
/// cases; the `len % 4` tail runs `f32::exp`. The sum keeps index order.
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
#[target_feature(enable = "avx2,fma")]
fn exp_shifted_fma(row: &mut [f32], max: f32) -> f32 {
    use std::arch::x86_64::{_mm_loadu_ps, _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps};
    let maxv = _mm_set1_ps(max);
    let mut sum = 0.0;
    let mut chunks = row.chunks_exact_mut(4);
    for c in &mut chunks {
        // SAFETY: `c` is four contiguous `f32`s; both accesses are unaligned.
        let x = _mm_sub_ps(unsafe { _mm_loadu_ps(c.as_ptr()) }, maxv);
        match expf4(x) {
            // SAFETY: as for the load.
            Some(y) => unsafe { _mm_storeu_ps(c.as_mut_ptr(), y) },
            None => {
                for v in c.iter_mut() {
                    *v = (*v - max).exp();
                }
            }
        }
        for &v in c.iter() {
            sum += v;
        }
    }
    for v in chunks.into_remainder() {
        *v = (*v - max).exp();
        sum += *v;
    }
    sum
}

/// glibc's `expf` on four lanes, step for step as its FMA build computes
/// it in double precision: `x·N/ln2 = k + r` with `k` rounded to an
/// integer by the `SHIFT` trick, `2^(k/N)` from [`EXP2F_TAB`] and `2^(r/N)`
/// from a cubic. `None` when a lane has `|x| ≥ 88`, is infinite or NaN:
/// glibc's `abstop >= top12(88.0f)` branch, left to `f32::exp`.
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn expf4(x: std::arch::x86_64::__m128) -> Option<std::arch::x86_64::__m128> {
    use std::arch::x86_64::*;
    /// `N/ln2`, glibc's `InvLn2N`.
    const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
    /// `0x1.8p52`: adding it rounds to an integer, ties to even.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// glibc's `poly_scaled`, highest degree first.
    const C: [f64; 3] = [
        f64::from_bits(0x3ebc_6af8_4b91_2394),
        f64::from_bits(0x3f2e_bfce_50fa_c4f3),
        f64::from_bits(0x3f96_2e42_ff0c_52d6),
    ];
    // `|x|`'s bits ≥ `0x42b0_0000` is `abstop >= 0x42b`; both sides are
    // below 2³¹, so the signed compare is exact.
    let abs = _mm_and_si128(_mm_castps_si128(x), _mm_set1_epi32(0x7fff_ffff));
    if _mm_movemask_epi8(_mm_cmpgt_epi32(abs, _mm_set1_epi32(0x42af_ffff))) != 0 {
        return None;
    }
    let xd = _mm256_cvtps_pd(x);
    let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
    let shift = _mm256_set1_pd(SHIFT);
    // glibc's `z = InvLn2N * xd` feeds `kd = z + SHIFT` and `r = z - kd`
    // (after `kd -= SHIFT`); its FMA build fuses the product into both.
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
    // s = 2^(k/N) = T[ki % N] + (ki << 47), as bits.
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: every index is masked into 0..32, inside `EXP2F_TAB`.
    let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2F_TAB.as_ptr().cast(), idx) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    // y = (C0·r + C1)·r² + (C2·r + 1), then y·s, narrowed to f32.
    let z = _mm256_fmadd_pd(_mm256_set1_pd(C[0]), r, _mm256_set1_pd(C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(_mm256_set1_pd(C[2]), r, _mm256_set1_pd(1.0));
    let y = _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s);
    Some(_mm256_cvtpd_ps(y))
}

/// Output rows per register tile of [`gemm`].
const TILE_ROWS: usize = 4;
/// Output columns per register tile of [`gemm`].
const TILE_COLS: usize = 8;

/// One `R × TILE_COLS` tile of `c = op(a) × b` at `(i, j)`. `op(a)` is `a`
/// (row-major `m × kdim`) or, with `TRANS_A`, `aᵀ` (`a` row-major
/// `kdim × m`, so `op(a)`'s rows `i..i+R` at depth `kk` are contiguous);
/// `b`/`c` are row-major `· × n`. The accumulators stay in registers over
/// the whole `k` loop, each summing from `0.0` in `k` order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_tile<const R: usize, const TRANS_A: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let ar: [&[f32]; R] = std::array::from_fn(|r| {
        if TRANS_A {
            &[][..]
        } else {
            &a[(i + r) * kdim..(i + r + 1) * kdim]
        }
    });
    let mut acc = [[0.0f32; TILE_COLS]; R];
    for kk in 0..kdim {
        let br = &b[kk * n + j..kk * n + j + TILE_COLS];
        let at = if TRANS_A {
            &a[kk * m + i..kk * m + i + R]
        } else {
            &[][..]
        };
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = if TRANS_A { at[r] } else { ar[r][kk] };
            for (o, &bv) in accr.iter_mut().zip(br) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let at = (i + r) * n + j;
        c[at..at + TILE_COLS].copy_from_slice(accr);
    }
}

/// Whether the GEMM kernels run their AVX2-compiled copy on this host:
/// true on an x86-64 CPU that reports AVX2 (std caches the detection).
/// Either way they give the same bits.
pub fn gemm_uses_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `c = op(a) × b` (see [`gemm_tile`] for the layouts), every element
/// assigned, on the widest instruction set the host has: [`gemm_avx2`]
/// when [`gemm_uses_avx2`], else [`gemm_portable`]. Both run the same
/// body, so the output bits do not depend on the host.
fn gemm<const TRANS_A: bool>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kdim: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if gemm_uses_avx2() {
        // SAFETY: `gemm_avx2` requires only the `avx2` target feature, and
        // `gemm_uses_avx2` has just detected it on the running CPU.
        unsafe { gemm_avx2::<TRANS_A>(a, b, c, m, kdim, n) };
        return;
    }
    gemm_portable::<TRANS_A>(a, b, c, m, kdim, n);
}

/// [`gemm_portable`] compiled with AVX2 enabled: the tile's 8-column rows
/// become one 256-bit multiply and one add per `k` step. FMA stays
/// disabled, and rustc never contracts `a * b + c` into one anyway, so
/// every element still rounds each product and each sum on its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<const TRANS_A: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
) {
    gemm_portable::<TRANS_A>(a, b, c, m, kdim, n);
}

/// The one GEMM body, for the baseline instruction set or inlined into
/// [`gemm_avx2`]. Full 4×8 tiles first; rows past the last group of four
/// run the same tile one row at a time, and columns past the last multiple
/// of eight run a scalar dot. Every element is `0.0 + a₀b₀ + a₁b₁ + …` in
/// `k` order.
#[inline(always)]
fn gemm_portable<const TRANS_A: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
) {
    let n_tiled = n - n % TILE_COLS;
    let mut i = 0;
    while i + TILE_ROWS <= m {
        for j in (0..n_tiled).step_by(TILE_COLS) {
            gemm_tile::<TILE_ROWS, TRANS_A>(a, b, c, m, kdim, n, i, j);
        }
        i += TILE_ROWS;
    }
    while i < m {
        for j in (0..n_tiled).step_by(TILE_COLS) {
            gemm_tile::<1, TRANS_A>(a, b, c, m, kdim, n, i, j);
        }
        i += 1;
    }
    for i in 0..m {
        for j in n_tiled..n {
            let mut acc = 0.0f32;
            for kk in 0..kdim {
                let av = if TRANS_A {
                    a[kk * m + i]
                } else {
                    a[i * kdim + kk]
                };
                acc += av * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix taking ownership of row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length must match dims");
        Matrix { rows, cols, data }
    }

    /// Gaussian-initialized matrix (mean 0, given standard deviation).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Matrix {
        // Box-Muller transform; rand 0.8 has no normal distribution built in.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            data.push(mag * (2.0 * std::f32::consts::PI * u2).cos() * std);
            if data.len() < rows * cols {
                data.push(mag * (2.0 * std::f32::consts::PI * u2).sin() * std);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place to `rows × cols`, zero-filled, reusing the existing
    /// allocation when its capacity suffices.
    pub(crate) fn resize_buf(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Matrix::resize_buf`] without the zero-fill — only for kernels that
    /// assign (never accumulate into) every output element. Stale values may
    /// remain until overwritten.
    pub(crate) fn resize_buf_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self × other` (blocked kernel, fresh output).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self × otherᵀ` (blocked kernel, fresh output).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `selfᵀ × other` (blocked kernel, fresh output).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `out = self × other`, allocation-free when `out` has capacity.
    ///
    /// Register-tiled: each 4-row × 8-column block of `out` is held in
    /// registers across the whole `k` loop and stored once. Rows past the
    /// last full group of four run the same tile one row at a time, and
    /// columns past the last multiple of eight run a scalar dot. Every
    /// element is still `0.0 + a₀b₀ + a₁b₁ + …` in `k` order, so results are
    /// bit-identical to [`Matrix::matmul_naive`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, kdim, n) = (self.rows, self.cols, other.cols);
        out.resize_buf_overwrite(m, n);
        gemm::<false>(&self.data, &other.data, &mut out.data, m, kdim, n);
    }

    /// `out = self × otherᵀ`, allocation-free in `out` when it has capacity:
    /// `other` is transposed into a temporary and multiplied by
    /// [`Matrix::matmul_into`], so every element is the same `k`-ordered
    /// sum as [`Matrix::matmul_nt_naive`].
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt {}x{} × ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_into(&other.transpose(), out);
    }

    /// `out = selfᵀ × other` without materializing the transpose,
    /// allocation-free when `out` has capacity.
    ///
    /// The same 4×8 register tile as [`Matrix::matmul_into`]: for each `k`,
    /// the tile's four `selfᵀ` rows are four contiguous entries of `self`'s
    /// row `k`. Every element is `0.0 + a₀b₀ + a₁b₁ + …` in `k` order,
    /// bit-identical to [`Matrix::matmul_tn_naive`].
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (kdim, m, n) = (self.rows, self.cols, other.cols);
        out.resize_buf_overwrite(m, n);
        gemm::<true>(&self.data, &other.data, &mut out.data, m, kdim, n);
    }

    /// Copies column block `off..off+width` of rows `lo..hi` into `out`
    /// (reshaped to `(hi-lo) × width`) — the batched head-slice gather the
    /// attention kernels use to materialize one sample's `q`/`v` columns
    /// out of a (possibly packed multi-sample) activation matrix.
    ///
    /// # Panics
    ///
    /// Panics if the row range or column block is out of bounds.
    pub fn gather_block_into(
        &self,
        lo: usize,
        hi: usize,
        off: usize,
        width: usize,
        out: &mut Matrix,
    ) {
        assert!(lo <= hi && hi <= self.rows, "gather_block_into rows");
        assert!(off + width <= self.cols, "gather_block_into cols");
        out.resize_buf_overwrite(hi - lo, width);
        for (dst, i) in (lo..hi).enumerate() {
            out.row_mut(dst)
                .copy_from_slice(&self.row(i)[off..off + width]);
        }
    }

    /// Inverse of [`Matrix::gather_block_into`]: writes `src`
    /// (`n × width`) into the column block starting at `off` of rows
    /// `lo..lo+n` — the batched head-output scatter.
    ///
    /// # Panics
    ///
    /// Panics if the row range or column block is out of bounds.
    pub fn scatter_block_from(&mut self, lo: usize, off: usize, src: &Matrix) {
        let width = src.cols;
        assert!(lo + src.rows <= self.rows, "scatter_block_from rows");
        assert!(off + width <= self.cols, "scatter_block_from cols");
        for i in 0..src.rows {
            self.row_mut(lo + i)[off..off + width].copy_from_slice(src.row(i));
        }
    }

    /// Copies rows `at[0], at[1], …` into `out` (reshaped to
    /// `at.len() × cols`) — the incremental encoder's gather of the rows it
    /// recomputes.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds.
    pub(crate) fn gather_rows_into(&self, at: &[usize], out: &mut Matrix) {
        out.resize_buf_overwrite(at.len(), self.cols);
        for (dst, &i) in at.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(i));
        }
    }

    /// Inverse of [`Matrix::gather_rows_into`]: writes row `r` of `src`
    /// into row `at[r]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not `at.len() × cols` or a row index is out of
    /// bounds.
    pub(crate) fn scatter_rows_from(&mut self, at: &[usize], src: &Matrix) {
        assert_eq!(src.shape(), (at.len(), self.cols), "scatter_rows_from");
        for (r, &i) in at.iter().enumerate() {
            self.row_mut(i).copy_from_slice(src.row(r));
        }
    }

    /// Mean of rows `lo..hi` written into `out` (length `cols`): rows are
    /// accumulated in index order and scaled by `1 / (hi-lo)` afterwards —
    /// the exact operation order of the encoder's mean pooling, applied to
    /// one sample's row block of a packed matrix. An empty range writes
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds or `out` has the wrong
    /// length.
    pub fn mean_rows_block_into(&self, lo: usize, hi: usize, out: &mut [f32]) {
        assert!(lo <= hi && hi <= self.rows, "mean_rows_block_into rows");
        assert_eq!(out.len(), self.cols, "mean_rows_block_into width");
        out.fill(0.0);
        for i in lo..hi {
            for (o, &sv) in out.iter_mut().zip(self.row(i)) {
                *o += sv;
            }
        }
        let inv = 1.0 / (hi - lo).max(1) as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Allocated capacity of the backing buffer, in elements (used by the
    /// scratch arena's best-fit buffer selection).
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Naive ikj matrix product — retained as the test oracle (and perf
    /// baseline) for [`Matrix::matmul_into`].
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Naive `self × otherᵀ` — test oracle for [`Matrix::matmul_nt_into`].
    pub fn matmul_nt_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt {}x{} × ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// Naive `selfᵀ × other` — test oracle for [`Matrix::matmul_tn_into`].
    pub fn matmul_tn_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn ({}x{})ᵀ × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Fused bias-add + ReLU: `self = max(self + bias, 0)` row-wise.
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is `1 × self.cols()`.
    pub fn bias_relu(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias_relu takes a 1×d row");
        assert_eq!(bias.cols, self.cols, "bias_relu width mismatch");
        let cols = self.cols;
        let brow = &bias.data[..cols];
        for chunk in self.data.chunks_mut(cols) {
            for (x, &b) in chunk.iter_mut().zip(brow) {
                *x = (*x + b).max(0.0);
            }
        }
    }

    /// `out = selfᵀ`, cache-blocked, allocation-free when `out` has capacity.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_buf_overwrite(self.cols, self.rows);
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        for ib in (0..rows).step_by(TILE) {
            let iend = (ib + TILE).min(rows);
            for jb in (0..cols).step_by(TILE) {
                let jend = (jb + TILE).min(cols);
                for i in ib..iend {
                    for j in jb..jend {
                        out.data[j * rows + i] = self.data[i * cols + j];
                    }
                }
            }
        }
    }

    /// Transposed copy (blocked).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns a copy with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Row-wise softmax (numerically stabilized), in place.
    pub fn softmax_rows_mut(&mut self) {
        let cols = self.cols;
        for row in self.data.chunks_mut(cols) {
            softmax_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(3, 4, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        m.softmax_rows_mut();
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_fully_masked_row() {
        let mut m = Matrix::from_vec(1, 4, vec![f32::NEG_INFINITY; 4]);
        m.softmax_rows_mut();
        for &v in m.row(0) {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn randn_has_roughly_unit_std() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::randn(50, 50, 1.0, &mut rng);
        let mean: f32 = m.data().iter().sum::<f32>() / 2500.0;
        let var: f32 = m.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 2500.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.2, "var {var}");
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn blocked_kernels_are_bit_identical_to_naive() {
        // Shapes straddle the 4-wide register blocking (tails included).
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 4), (9, 6, 10), (17, 33, 13)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b).data(),
                a.matmul_naive(&b).data(),
                "{m}x{k}x{n}"
            );
            let bt = Matrix::randn(n, k, 1.0, &mut rng);
            assert_eq!(
                a.matmul_nt(&bt).data(),
                a.matmul_nt_naive(&bt).data(),
                "nt {m}x{k}x{n}"
            );
            let at = Matrix::randn(k, m, 1.0, &mut rng);
            assert_eq!(
                at.matmul_tn(&b).data(),
                at.matmul_tn_naive(&b).data(),
                "tn {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_the_portable_body() {
        // Random shapes hit every `m % 4` and `n % 8` remainder at each
        // depth; on a host without AVX2 both sides run the portable body.
        let mut rng = StdRng::seed_from_u64(25);
        let mut out = Matrix::zeros(0, 0);
        for &k in &[0, 1, 13, 32, 256] {
            for mr in 0..TILE_ROWS {
                for nr in 0..TILE_COLS {
                    let m = TILE_ROWS * rng.gen_range(0..4) + mr;
                    let n = TILE_COLS * rng.gen_range(0..4) + nr;
                    let portable = |trans_a: bool, a: &Matrix, b: &Matrix| {
                        let mut c = vec![f32::NAN; m * n];
                        if trans_a {
                            gemm_portable::<true>(a.data(), b.data(), &mut c, m, k, n);
                        } else {
                            gemm_portable::<false>(a.data(), b.data(), &mut c, m, k, n);
                        }
                        c
                    };
                    let a = Matrix::randn(m, k, 1.0, &mut rng);
                    let b = Matrix::randn(k, n, 1.0, &mut rng);
                    a.matmul_into(&b, &mut out);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let want = bits(&portable(false, &a, &b));
                    assert_eq!(bits(out.data()), want, "nn {m}x{k}x{n}");
                    a.matmul_nt_into(&b.transpose(), &mut out);
                    assert_eq!(bits(out.data()), want, "nt {m}x{k}x{n}");
                    let at = a.transpose();
                    at.matmul_tn_into(&b, &mut out);
                    let want = bits(&portable(true, &at, &b));
                    assert_eq!(bits(out.data()), want, "tn {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn gather_scatter_block_round_trips() {
        let mut rng = StdRng::seed_from_u64(31);
        let src = Matrix::randn(9, 12, 1.0, &mut rng);
        let mut block = Matrix::from_fn(2, 2, |_, _| f32::NAN); // stale reuse
        src.gather_block_into(3, 7, 4, 5, &mut block);
        assert_eq!(block.shape(), (4, 5));
        for i in 0..4 {
            assert_eq!(block.row(i), &src.row(3 + i)[4..9]);
        }
        let mut dst = Matrix::zeros(9, 12);
        dst.scatter_block_from(3, 4, &block);
        for i in 0..4 {
            assert_eq!(&dst.row(3 + i)[4..9], block.row(i));
            assert!(dst.row(3 + i)[..4].iter().all(|&v| v == 0.0));
        }
        // Empty range gathers an empty matrix.
        src.gather_block_into(5, 5, 0, 3, &mut block);
        assert_eq!(block.shape(), (0, 3));
    }

    #[test]
    fn gather_scatter_rows_round_trips() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let mut g = Matrix::zeros(0, 0);
        a.gather_rows_into(&[4, 1], &mut g);
        assert_eq!(g.data(), &[12.0, 13.0, 14.0, 3.0, 4.0, 5.0]);
        let mut b = Matrix::zeros(5, 3);
        b.scatter_rows_from(&[4, 1], &g);
        assert_eq!(b.row(4), a.row(4));
        assert_eq!(b.row(1), a.row(1));
        assert_eq!(b.row(0), &[0.0; 3]);
    }

    #[test]
    fn mean_rows_block_matches_manual_pooling() {
        let mut rng = StdRng::seed_from_u64(32);
        let m = Matrix::randn(8, 6, 1.0, &mut rng);
        let mut out = vec![f32::NAN; 6];
        m.mean_rows_block_into(2, 7, &mut out);
        for (c, &o) in out.iter().enumerate() {
            // Same order: accumulate rows in index order, then scale.
            let mut acc = 0.0f32;
            for i in 2..7 {
                acc += m.get(i, c);
            }
            assert_eq!(o, acc * (1.0 / 5.0));
        }
        // Empty block → zeros (no division by zero).
        m.mean_rows_block_into(4, 4, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "gather_block_into cols")]
    fn gather_block_checks_bounds() {
        let m = Matrix::zeros(4, 4);
        let mut out = Matrix::zeros(0, 0);
        m.gather_block_into(0, 4, 2, 3, &mut out);
    }

    #[test]
    fn into_kernels_reuse_output_buffers() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = Matrix::randn(5, 6, 1.0, &mut rng);
        let b = Matrix::randn(6, 7, 1.0, &mut rng);
        // A stale, wrongly-shaped output is reshaped and fully overwritten.
        let mut out = Matrix::from_fn(9, 9, |_, _| f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (5, 7));
        assert_eq!(out.data(), a.matmul_naive(&b).data());
    }

    #[test]
    fn bias_relu_matches_add_then_clamp() {
        let mut rng = StdRng::seed_from_u64(23);
        let x = Matrix::randn(4, 6, 1.0, &mut rng);
        let bias = Matrix::randn(1, 6, 1.0, &mut rng);
        let mut fused = x.clone();
        fused.bias_relu(&bias);
        for r in 0..4 {
            for c in 0..6 {
                let want = (x.get(r, c) + bias.get(0, c)).max(0.0);
                assert_eq!(fused.get(r, c), want);
            }
        }
    }

    #[test]
    fn softmax_slice_matches_row_softmax() {
        let mut m = Matrix::from_vec(1, 5, vec![0.3, -2.0, 1.5, 0.0, 4.0]);
        let mut row = m.row(0).to_vec();
        m.softmax_rows_mut();
        softmax_slice(&mut row);
        assert_eq!(m.row(0), &row[..]);
    }

    /// The scalar `exp` pass the dispatched [`exp_shifted`] must reproduce,
    /// written here so the check does not lean on the production path.
    fn exp_shifted_libm(row: &mut [f32], max: f32) -> f32 {
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        sum
    }

    /// Equal bits, or both NaN (of any payload).
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_exp_matches_libm(input: &[f32], max: f32, what: &str) {
        let (mut fast, mut slow) = (input.to_vec(), input.to_vec());
        let (fast_sum, slow_sum) = (
            exp_shifted(&mut fast, max),
            exp_shifted_libm(&mut slow, max),
        );
        for ((&v, a), b) in input.iter().zip(&fast).zip(&slow) {
            let x = v - max;
            assert!(
                same_bits(*a, *b),
                "{what}: exp({x:e} = {:#010x}) gave {:#010x}, libm {:#010x}",
                x.to_bits(),
                a.to_bits(),
                b.to_bits()
            );
        }
        assert!(
            same_bits(fast_sum, slow_sum),
            "{what}: sum {fast_sum} vs {slow_sum}"
        );
    }

    #[test]
    fn vector_exp_is_bit_identical_to_libm() {
        // With a zero maximum `v - max` is `v`, so each input is the `x` fed
        // to `expf`; on a host without the vector path both sides run
        // `f32::exp`. 2²⁰ bit patterns strided over all of `u32`.
        let strided: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(4099).wrapping_add(i >> 7)))
            .collect();
        assert_exp_matches_libm(&strided, 0.0, "strided");
        // The only two inputs (found by the full sweep) where glibc's FMA and
        // SSE2 builds differ, and whose result moves when `r` is computed
        // without the fused multiply-add.
        let fused_r = [0x4202_422f, 0xc27c_65d9, 0x4202_422f, 0xc27c_65d9].map(f32::from_bits);
        assert_exp_matches_libm(&fused_r, 0.0, "fused r");
        // Every table index `k % 32`: x near k·ln2/32 for k over the whole
        // non-special range, with both neighbours.
        let ln2_n = std::f64::consts::LN_2 / 32.0;
        let table: Vec<f32> = (-88 * 32 * 3 / 2..=88 * 32 * 3 / 2)
            .flat_map(|k: i32| {
                let x = (f64::from(k) * ln2_n) as f32;
                [x.next_down(), x, x.next_up()]
            })
            .collect();
        assert_exp_matches_libm(&table, 0.0, "table indices");
        // Both sides of glibc's `abstop` threshold (0x42a vs 0x42b: |x| = 88).
        let threshold: Vec<f32> = (0x42a0_0000u32..0x42a0_0100)
            .chain(0x42af_ff00..0x42b0_0100)
            .chain(0x42bf_ff00..0x42c0_0000)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect();
        assert_exp_matches_libm(&threshold, 0.0, "abstop threshold");
        // Subnormal results: x from -87.4 down to -103.9.
        let subnormal: Vec<f32> = (0..=100_000)
            .map(|i| -87.4 - 16.5 * i as f32 / 100_000.0)
            .collect();
        assert_exp_matches_libm(&subnormal, 0.0, "subnormal results");
        // Zeros, infinities and NaNs, in every lane of a group of four and
        // in the tail.
        let special = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::MIN_POSITIVE,
            -f32::from_bits(1),
        ];
        for (i, &s) in special.iter().enumerate() {
            for at in 0..9 {
                let mut row: Vec<f32> = (0..9).map(|j| -0.5 * j as f32).collect();
                row[at] = s;
                assert_exp_matches_libm(&row, 0.0, &format!("special #{i} at {at}"));
            }
        }
    }

    #[test]
    fn vector_softmax_is_bit_identical_on_every_tail_and_mask() {
        let mut rng = StdRng::seed_from_u64(26);
        let softmax_libm = |row: &mut [f32]| {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                row.fill(1.0 / row.len() as f32);
                return;
            }
            let inv = 1.0 / exp_shifted_libm(row, max).max(1e-12);
            for v in row.iter_mut() {
                *v *= inv;
            }
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in 0..10 {
            for case in 0..4 {
                let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(-30.0..30.0)).collect();
                match case {
                    // Masked entries at every other column.
                    1 => row.iter_mut().step_by(2).for_each(|v| *v += -1e9),
                    // A fully masked row: every score the same -1e9.
                    2 => row.fill(-1e9),
                    3 => row.fill(f32::NEG_INFINITY),
                    _ => {}
                }
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                assert_exp_matches_libm(&row, max, &format!("len {len} case {case}"));
                let (mut fast, mut slow) = (row.clone(), row);
                softmax_slice(&mut fast);
                softmax_libm(&mut slow);
                assert_eq!(bits(&fast), bits(&slow), "softmax len {len} case {case}");
            }
        }
    }

    /// Every `f32` bit pattern, under a minute optimized: run with
    /// `cargo test --release -p llmulator-nn -- --ignored`.
    #[test]
    #[ignore]
    fn vector_exp_matches_libm_on_every_f32() {
        let mut mismatches = 0u64;
        let (mut fast, mut slow) = (vec![0.0f32; 1 << 16], vec![0.0f32; 1 << 16]);
        for hi in 0..1u32 << 16 {
            for (lo, (a, b)) in fast.iter_mut().zip(&mut slow).enumerate() {
                *a = f32::from_bits(hi << 16 | lo as u32);
                *b = *a;
            }
            exp_shifted(&mut fast, 0.0);
            exp_shifted_libm(&mut slow, 0.0);
            mismatches += fast
                .iter()
                .zip(&slow)
                .filter(|(a, b)| !same_bits(**a, **b))
                .count() as u64;
        }
        assert_eq!(mismatches, 0, "f32 inputs whose exp differs from libm");
    }

    #[test]
    fn transpose_into_handles_tall_and_wide() {
        let mut rng = StdRng::seed_from_u64(24);
        for &(r, c) in &[(1, 37), (37, 1), (18, 23), (16, 16)] {
            let m = Matrix::randn(r, c, 1.0, &mut rng);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), m.get(i, j));
                }
            }
        }
    }
}
