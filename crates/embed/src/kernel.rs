//! The quantized, cache-blocked cosine-distance scoring kernel.
//!
//! This is the raw-speed path under the blocked value-matching planner: given
//! two [`QuantizedSlab`]s (rows = group representatives, columns = values)
//! and a candidacy cutoff, emit exactly the pairs whose **dense f32** cosine
//! distance is strictly below the cutoff, each carrying that exact f32
//! distance — while doing the vast majority of the arithmetic in int8.
//!
//! # Two-tier exactness
//!
//! Every pair is first scored with the integer dot product of the slabs'
//! int8 mirrors (an asymmetric-quantization expansion over precomputed row
//! sums, evaluated in f64).  The estimate's distance from the true cosine
//! distance is bounded by the slabs' *measured* per-row relative quantization
//! errors `ρ` (Cauchy–Schwarz gives `|d - d̂| ≤ ρ_a + ρ_b + ρ_a·ρ_b`; the
//! `[-1, 1]` clamp is 1-Lipschitz, so the bound survives clamping), plus a
//! [`rescore_slop`] that covers both the estimate's own f64 rounding and the
//! dense path's f32 evaluation error.  That yields a one-sided proof:
//!
//! * `estimate - bound ≥ cutoff` → the dense f32 distance is provably
//!   `≥ cutoff`; the pair is **skipped** with no f32 work at all;
//! * otherwise the pair is in the near-threshold band and is **re-scored**
//!   with the exact f32 arithmetic of
//!   [`Vector::cosine_distance_given_norms`](crate::Vector::cosine_distance_given_norms)
//!   — same operations, same order, bit-identical results — and admitted iff
//!   that exact distance is strictly below the cutoff.
//!
//! Because admission and the emitted cost both come from the dense f32
//! arithmetic, the kernel's output is *bit-identical* to the dense sweep for
//! every input — the quantized tier only ever decides to skip pairs it can
//! prove the dense sweep would reject.  A degenerate estimate (NaN from
//! non-finite inputs) can never satisfy the skip comparison, so doubt always
//! routes through the exact re-score.
//!
//! Zero-norm rows are answered without either tier: the dense path defines
//! their similarity as 0 (distance exactly 1.0), and the kernel returns that
//! same constant.
//!
//! # Layout
//!
//! [`sweep_below`] walks the cartesian space in fixed-size row × column
//! tiles so the column tile's int8 mirror stays cache-hot while a stripe of
//! rows streams against it.  Candidates land in per-row stripe buffers, so
//! emission is exactly row-major without a global sort.  The f32 lanes are
//! only touched for the near-threshold band.
//!
//! The integer tier is runtime-dispatched (the workspace builds for the
//! baseline target, so nothing wide is assumed at compile time): a portable
//! [`SLAB_LANE`]-chunked multiply-accumulate, AVX2 / AVX-512BW `vpmaddwd`
//! paths that batch one row against a column tile with register blocking,
//! and — where AVX-512 VNNI is available — a `vpdpbusd` sweep over a
//! dword-interleaved column mirror that accumulates 16 column dots
//! vertically and finishes the estimate/bound arithmetic in f64 lanes.  On
//! that path, near-threshold survivors are re-scored in batches of eight
//! interleaved (individually sequential, hence bit-identical) f32 chains,
//! hiding the serial-add latency of a lone dense evaluation.  Every path
//! makes the identical skip/re-score decision on every pair.

use crate::vector::{QuantizedSlab, Vector, DISTANCE_EPSILON, SLAB_LANE};

/// Rows per cache tile of [`sweep_below`].
const TILE_ROWS: usize = 32;

/// Columns per cache tile of [`sweep_below`].  At the default 64-dim padded
/// width this keeps a column tile's int8 mirror (2 KiB) resident in L1 while
/// a row stripe streams against it.
const TILE_COLS: usize = 32;

/// Counters of one or more kernel runs: how many pairs the int8 tier scored,
/// how many it proved away, how many crossed into the exact f32 re-score
/// band, and how many cache tiles were swept.
///
/// Invariant: `int8_scored == skipped + rescored`; adding `trivial`
/// (zero-norm shortcuts, answered exactly without either tier) gives the
/// total number of pairs the kernel classified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pairs scored by the int8 estimate (everything except zero-norm
    /// shortcuts).
    pub int8_scored: usize,
    /// Pairs proven `≥ cutoff` by the quantization error bound alone — no
    /// f32 arithmetic was spent on them.
    pub skipped: usize,
    /// Pairs routed through the exact f32 re-score (the near-threshold
    /// band; every *admitted* pair is in it, since admission and cost are
    /// always exact).
    pub rescored: usize,
    /// Zero-norm pairs answered with the exact constant distance `1.0`
    /// without touching either tier.
    pub trivial: usize,
    /// Cache tiles processed by [`sweep_below`] (per-pair classification
    /// via [`distance_below`] does not count tiles).
    pub blocks: usize,
}

impl KernelStats {
    /// Folds another run's counters into this accumulator (saturating, like
    /// every other stats merge in the workspace).
    pub fn merge(&mut self, other: &KernelStats) {
        self.int8_scored = self.int8_scored.saturating_add(other.int8_scored);
        self.skipped = self.skipped.saturating_add(other.skipped);
        self.rescored = self.rescored.saturating_add(other.rescored);
        self.trivial = self.trivial.saturating_add(other.trivial);
        self.blocks = self.blocks.saturating_add(other.blocks);
    }

    /// Total pairs classified: int8-scored plus zero-norm shortcuts.
    pub fn classified(&self) -> usize {
        self.int8_scored.saturating_add(self.trivial)
    }

    /// Fraction of int8-scored pairs that needed the exact f32 re-score, in
    /// `[0, 1]` (`0` when nothing was scored).  The kernel's win is this
    /// number staying small.
    pub fn rescored_fraction(&self) -> f64 {
        if self.int8_scored == 0 {
            0.0
        } else {
            self.rescored as f64 / self.int8_scored as f64
        }
    }
}

/// The evaluation-noise floor added to every pair's quantization error
/// bound: how far the int8 tier's f64 estimate and the dense tier's f32
/// arithmetic may drift from the true cosine distance *combined*.
///
/// The dominant term is the dense f32 dot product's rounding, which grows
/// linearly in the summation length; `1e-7` per padded component is more
/// than 1.5× the worst-case `n · 2⁻²⁴` bound, and the [`DISTANCE_EPSILON`]
/// floor dwarfs the remaining division/clamp/subtraction ulps and the
/// estimate's own f64 rounding.  Anything inside this slop of the cutoff is
/// re-scored exactly, so the slop only costs f32 work — never correctness.
pub fn rescore_slop(padded_dim: usize) -> f64 {
    DISTANCE_EPSILON as f64 + padded_dim as f64 * 1e-7
}

/// The total uncertainty the kernel assigns to one pair's int8 estimate:
/// the Cauchy–Schwarz quantization bound `ρ_a + ρ_b + ρ_a·ρ_b` over the two
/// rows' measured relative errors, plus the [`rescore_slop`] evaluation
/// floor.  Monotone in both errors; a NaN error poisons the bound, which
/// forces the re-score path (a comparison against NaN is never true).
pub fn pair_error_bound(row_rel_err: f64, col_rel_err: f64, padded_dim: usize) -> f64 {
    row_rel_err + col_rel_err + row_rel_err * col_rel_err + rescore_slop(padded_dim)
}

/// Per-sweep constants hoisted out of the pair loop.
struct SweepParams {
    cutoff: f32,
    cutoff_f64: f64,
    /// `scale_a · scale_b` in f64.
    scale_product: f64,
    /// Row-side zero point.
    za: i64,
    /// Column-side zero point.
    zb: i64,
    /// Shared padded width (the integer-dot expansion sums over it).
    padded: i64,
    slop: f64,
}

impl SweepParams {
    fn new(rows: &QuantizedSlab, cols: &QuantizedSlab, cutoff: f32) -> Self {
        SweepParams {
            cutoff,
            cutoff_f64: cutoff as f64,
            scale_product: rows.scale() as f64 * cols.scale() as f64,
            za: rows.zero_point() as i64,
            zb: cols.zero_point() as i64,
            padded: rows.padded_dim() as i64,
            slop: rescore_slop(rows.padded_dim().max(cols.padded_dim())),
        }
    }
}

/// Integer dot product over two equal-length padded int8 rows, accumulated
/// lane-chunk by lane-chunk so the inner loop is a fixed-width
/// multiply-accumulate the autovectorizer can widen.  Portable fallback for
/// hosts without the wide paths in [`simd`].
#[inline]
fn int8_dot(a: &[i8], b: &[i8]) -> i64 {
    debug_assert_eq!(a.len(), b.len(), "slab dimension mismatch");
    let mut acc = 0i64;
    for (ca, cb) in a.chunks_exact(SLAB_LANE).zip(b.chunks_exact(SLAB_LANE)) {
        let mut lane = 0i32;
        for (&x, &y) in ca.iter().zip(cb) {
            lane += x as i32 * y as i32;
        }
        acc += lane as i64;
    }
    acc
}

/// Which integer-dot implementation the host supports.  Detected at runtime
/// (the workspace builds for the baseline target, so AVX paths must never be
/// assumed at compile time); `std`'s feature probe caches the CPUID results,
/// making detection effectively free per sweep.
#[derive(Clone, Copy)]
enum DotImpl {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
}

fn detect_dot() -> DotImpl {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512f") {
            if is_x86_feature_detected!("avx512vnni") {
                return DotImpl::Avx512Vnni;
            }
            return DotImpl::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return DotImpl::Avx2;
        }
    }
    DotImpl::Portable
}

/// An integer-dot strategy, monomorphized into the sweep so the hot loops
/// pay no indirect calls: a single pair dot plus a row-against-tile batch
/// (the batch is where register blocking amortizes the row loads).
trait DotKind {
    fn dot(a: &[i8], b: &[i8]) -> i64;

    /// Dots of one padded row against `dots.len()` consecutive padded rows
    /// of `tile`.
    fn row_tile(qa: &[i8], tile: &[i8], padded: usize, dots: &mut [i64]) {
        for (j, d) in dots.iter_mut().enumerate() {
            *d = Self::dot(qa, &tile[j * padded..(j + 1) * padded]);
        }
    }
}

struct PortableDot;

impl DotKind for PortableDot {
    fn dot(a: &[i8], b: &[i8]) -> i64 {
        int8_dot(a, b)
    }
}

#[cfg(target_arch = "x86_64")]
struct Avx2Dot;

#[cfg(target_arch = "x86_64")]
impl DotKind for Avx2Dot {
    fn dot(a: &[i8], b: &[i8]) -> i64 {
        simd::dot_avx2(a, b)
    }
}

#[cfg(target_arch = "x86_64")]
struct Avx512Dot;

#[cfg(target_arch = "x86_64")]
impl DotKind for Avx512Dot {
    fn dot(a: &[i8], b: &[i8]) -> i64 {
        simd::dot_avx512(a, b)
    }

    fn row_tile(qa: &[i8], tile: &[i8], padded: usize, dots: &mut [i64]) {
        simd::row_tile_avx512(qa, tile, padded, dots);
    }
}

/// Runtime-detected wide integer-dot paths.  Both accumulate `vpmaddwd`
/// partial sums in i32 lanes: each lane holds sums of paired `i16 × i16`
/// products (`≤ 2 · 128² = 2¹⁵` per chunk), so a row bounded by the
/// [`QuantizedSlab`] width cap of `2²⁰` components keeps every lane below
/// `2¹⁵ · 2¹⁶ = 2³¹` — no overflow, the bracket stays exact.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "sole exception to the workspace-wide deny: CPU intrinsics have no safe form.  \
              Every unsafe block is gated on runtime feature detection, and all pointer \
              arithmetic stays inside slice bounds established by the equal-length / \
              lane-multiple debug assertions"
)]
mod simd {
    use std::arch::x86_64::*;

    #[inline]
    pub fn dot_avx2(a: &[i8], b: &[i8]) -> i64 {
        // SAFETY: only selected after runtime AVX2 detection; the slabs
        // guarantee equal-length rows in multiples of 16 (`SLAB_LANE`).
        unsafe { dot_avx2_inner(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2_inner(a: &[i8], b: &[i8]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len() % 16, 0);
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= a.len() {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let s = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01));
        _mm_cvtsi128_si32(s) as i64
    }

    #[inline]
    pub fn dot_avx512(a: &[i8], b: &[i8]) -> i64 {
        // SAFETY: only selected after runtime AVX-512F/BW detection; the
        // slabs guarantee equal-length rows in multiples of 16.
        unsafe { dot_avx512_inner(a, b) }
    }

    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn dot_avx512_inner(a: &[i8], b: &[i8]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len() % 16, 0);
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 32 <= a.len() {
            let va = _mm512_cvtepi8_epi16(_mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i));
            let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i));
            acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb));
            i += 32;
        }
        let mut total = _mm512_reduce_add_epi32(acc) as i64;
        // Padding is a multiple of 16, not 32: fold in the odd 16-wide tail.
        while i < a.len() {
            total += *a.get_unchecked(i) as i64 * *b.get_unchecked(i) as i64;
            i += 1;
        }
        total
    }

    /// One padded row against a tile of consecutive padded rows, four
    /// columns at a time: each row chunk is loaded and widened once per
    /// k-step and reused across four independent madd chains, halving the
    /// load traffic and keeping the multiply pipes saturated.
    #[inline]
    pub fn row_tile_avx512(qa: &[i8], tile: &[i8], padded: usize, dots: &mut [i64]) {
        // SAFETY: only selected after runtime AVX-512F/BW detection; `tile`
        // holds `dots.len()` consecutive rows of `padded` bytes and `qa` is
        // one such row, so every offset below stays inside slice bounds.
        unsafe { row_tile_avx512_inner(qa, tile, padded, dots) }
    }

    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn row_tile_avx512_inner(qa: &[i8], tile: &[i8], padded: usize, dots: &mut [i64]) {
        debug_assert_eq!(qa.len(), padded);
        debug_assert_eq!(tile.len(), dots.len() * padded);
        let full = padded - padded % 32;
        let n = dots.len();
        let mut j = 0;
        while j + 4 <= n {
            let b0 = tile.as_ptr().add(j * padded);
            let b1 = b0.add(padded);
            let b2 = b1.add(padded);
            let b3 = b2.add(padded);
            let mut a0 = _mm512_setzero_si512();
            let mut a1 = _mm512_setzero_si512();
            let mut a2 = _mm512_setzero_si512();
            let mut a3 = _mm512_setzero_si512();
            let mut k = 0;
            while k < full {
                let va =
                    _mm512_cvtepi8_epi16(_mm256_loadu_si256(qa.as_ptr().add(k) as *const __m256i));
                let w0 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b0.add(k) as *const __m256i));
                let w1 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b1.add(k) as *const __m256i));
                let w2 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b2.add(k) as *const __m256i));
                let w3 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b3.add(k) as *const __m256i));
                a0 = _mm512_add_epi32(a0, _mm512_madd_epi16(va, w0));
                a1 = _mm512_add_epi32(a1, _mm512_madd_epi16(va, w1));
                a2 = _mm512_add_epi32(a2, _mm512_madd_epi16(va, w2));
                a3 = _mm512_add_epi32(a3, _mm512_madd_epi16(va, w3));
                k += 32;
            }
            let mut d0 = _mm512_reduce_add_epi32(a0) as i64;
            let mut d1 = _mm512_reduce_add_epi32(a1) as i64;
            let mut d2 = _mm512_reduce_add_epi32(a2) as i64;
            let mut d3 = _mm512_reduce_add_epi32(a3) as i64;
            // Padding is a multiple of 16, not 32: odd 16-wide tail.
            while k < padded {
                let x = *qa.get_unchecked(k) as i64;
                d0 += x * *b0.add(k) as i64;
                d1 += x * *b1.add(k) as i64;
                d2 += x * *b2.add(k) as i64;
                d3 += x * *b3.add(k) as i64;
                k += 1;
            }
            *dots.get_unchecked_mut(j) = d0;
            *dots.get_unchecked_mut(j + 1) = d1;
            *dots.get_unchecked_mut(j + 2) = d2;
            *dots.get_unchecked_mut(j + 3) = d3;
            j += 4;
        }
        while j < n {
            *dots.get_unchecked_mut(j) =
                dot_avx512_inner(qa, tile.get_unchecked(j * padded..(j + 1) * padded));
            j += 1;
        }
    }

    /// Classifies one 16-column interleaved group against one biased row:
    /// `vpdpbusd` accumulates the 16 biased dots vertically, the bracket and
    /// the estimate/bound arithmetic finish in f64 lanes with the identical
    /// operation order to the scalar path (every intermediate an exact
    /// integer below 2⁵³), and the returned mask marks lanes provably
    /// at-or-above the cutoff.  NaN estimates never set a mask bit (ordered
    /// comparison), so doubt still routes to the exact re-score.
    #[inline]
    #[allow(clippy::too_many_arguments, reason = "hot path: scalars beat a struct")]
    pub fn classify_group_vnni(
        qa_biased: &[u8],
        group: &[u8],
        padded: usize,
        adj: &[f64],
        inv_nb: &[f64],
        errs: &[f64],
        row_const: f64,
        scale_over_na: f64,
        ea1: f64,
        base: f64,
        cutoff: f64,
    ) -> u16 {
        debug_assert_eq!(qa_biased.len(), padded);
        debug_assert_eq!(group.len(), 16 * padded);
        debug_assert!(adj.len() >= 16 && inv_nb.len() >= 16 && errs.len() >= 16);
        // SAFETY: only selected after runtime AVX-512F/BW/VNNI detection;
        // the asserted lengths bound every offset below.
        unsafe {
            classify_group_vnni_inner(
                qa_biased,
                group,
                padded,
                adj,
                inv_nb,
                errs,
                row_const,
                scale_over_na,
                ea1,
                base,
                cutoff,
            )
        }
    }

    #[allow(clippy::too_many_arguments, reason = "hot path: scalars beat a struct")]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    unsafe fn classify_group_vnni_inner(
        qa_biased: &[u8],
        group: &[u8],
        padded: usize,
        adj: &[f64],
        inv_nb: &[f64],
        errs: &[f64],
        row_const: f64,
        scale_over_na: f64,
        ea1: f64,
        base: f64,
        cutoff: f64,
    ) -> u16 {
        let mut acc = _mm512_setzero_si512();
        let mut k = 0;
        while k < padded {
            let word = core::ptr::read_unaligned(qa_biased.as_ptr().add(k) as *const i32);
            let va = _mm512_set1_epi32(word);
            let vb = _mm512_loadu_si512(group.as_ptr().add(k * 16) as *const _);
            acc = _mm512_dpbusd_epi32(acc, va, vb);
            k += 4;
        }
        let lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(acc));
        let hi = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1));
        let rc = _mm512_set1_pd(row_const);
        let sna = _mm512_set1_pd(scale_over_na);
        let vea1 = _mm512_set1_pd(ea1);
        let vbase = _mm512_set1_pd(base);
        let vcut = _mm512_set1_pd(cutoff);
        let m_lo = classify_octet(
            lo,
            _mm512_loadu_pd(adj.as_ptr()),
            _mm512_loadu_pd(inv_nb.as_ptr()),
            _mm512_loadu_pd(errs.as_ptr()),
            rc,
            sna,
            vea1,
            vbase,
            vcut,
        );
        let m_hi = classify_octet(
            hi,
            _mm512_loadu_pd(adj.as_ptr().add(8)),
            _mm512_loadu_pd(inv_nb.as_ptr().add(8)),
            _mm512_loadu_pd(errs.as_ptr().add(8)),
            rc,
            sna,
            vea1,
            vbase,
            vcut,
        );
        (m_lo as u16) | ((m_hi as u16) << 8)
    }

    #[allow(clippy::too_many_arguments, reason = "hot path: scalars beat a struct")]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    unsafe fn classify_octet(
        dots: __m512d,
        adj: __m512d,
        inv_nb: __m512d,
        errs: __m512d,
        rc: __m512d,
        sna: __m512d,
        ea1: __m512d,
        base: __m512d,
        cut: __m512d,
    ) -> u8 {
        let one = _mm512_set1_pd(1.0);
        let neg_one = _mm512_set1_pd(-1.0);
        // `(vnni − (z_a+128)·Σq_b) + row_const` — exactly the scalar i64
        // bracket, evaluated on exact-integer f64 values.
        let bracket = _mm512_add_pd(_mm512_sub_pd(dots, adj), rc);
        let inv = _mm512_mul_pd(sna, inv_nb);
        let sim = _mm512_mul_pd(bracket, inv);
        // Clamp with NaN in the second operand of both min and max, so a
        // NaN similarity survives to the (ordered, hence false) comparison.
        let clamped = _mm512_min_pd(one, _mm512_max_pd(neg_one, sim));
        let est = _mm512_sub_pd(one, clamped);
        let bound = _mm512_add_pd(_mm512_mul_pd(ea1, errs), base);
        let diff = _mm512_sub_pd(est, bound);
        _mm512_cmp_pd_mask::<_CMP_GE_OQ>(diff, cut)
    }

    /// Eight dense f32 dot chains advanced in lockstep over zero-padded
    /// rows: an 8×8 transpose turns eight row loads into per-component
    /// vectors, and each step is a multiply followed by a separate add
    /// (never fused), so lane `l`'s accumulator performs exactly the scalar
    /// dense chain's operations in the same order — bit-identical dots, with
    /// the eight serial add latencies overlapped.
    #[inline]
    pub fn rescore_batch8(a: &[f32], bs: &[&[f32]; 8], padded: usize, out: &mut [f32; 8]) {
        debug_assert_eq!(a.len(), padded);
        debug_assert_eq!(padded % 8, 0);
        // SAFETY: reached only from the VNNI sweep, which runtime-requires
        // AVX-512 (a strict superset of AVX2); the asserted lengths bound
        // every offset below.
        unsafe { rescore_batch8_inner(a, bs, padded, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn rescore_batch8_inner(a: &[f32], bs: &[&[f32]; 8], padded: usize, out: &mut [f32; 8]) {
        for b in bs {
            debug_assert_eq!(b.len(), padded);
        }
        let mut acc = _mm256_setzero_ps();
        let mut k = 0;
        while k < padded {
            let r0 = _mm256_loadu_ps(bs[0].as_ptr().add(k));
            let r1 = _mm256_loadu_ps(bs[1].as_ptr().add(k));
            let r2 = _mm256_loadu_ps(bs[2].as_ptr().add(k));
            let r3 = _mm256_loadu_ps(bs[3].as_ptr().add(k));
            let r4 = _mm256_loadu_ps(bs[4].as_ptr().add(k));
            let r5 = _mm256_loadu_ps(bs[5].as_ptr().add(k));
            let r6 = _mm256_loadu_ps(bs[6].as_ptr().add(k));
            let r7 = _mm256_loadu_ps(bs[7].as_ptr().add(k));
            let u0 = _mm256_unpacklo_ps(r0, r1);
            let u1 = _mm256_unpackhi_ps(r0, r1);
            let u2 = _mm256_unpacklo_ps(r2, r3);
            let u3 = _mm256_unpackhi_ps(r2, r3);
            let u4 = _mm256_unpacklo_ps(r4, r5);
            let u5 = _mm256_unpackhi_ps(r4, r5);
            let u6 = _mm256_unpacklo_ps(r6, r7);
            let u7 = _mm256_unpackhi_ps(r6, r7);
            let s0 = _mm256_shuffle_ps(u0, u2, 0b0100_0100);
            let s1 = _mm256_shuffle_ps(u0, u2, 0b1110_1110);
            let s2 = _mm256_shuffle_ps(u1, u3, 0b0100_0100);
            let s3 = _mm256_shuffle_ps(u1, u3, 0b1110_1110);
            let s4 = _mm256_shuffle_ps(u4, u6, 0b0100_0100);
            let s5 = _mm256_shuffle_ps(u4, u6, 0b1110_1110);
            let s6 = _mm256_shuffle_ps(u5, u7, 0b0100_0100);
            let s7 = _mm256_shuffle_ps(u5, u7, 0b1110_1110);
            let t = [
                _mm256_permute2f128_ps(s0, s4, 0x20),
                _mm256_permute2f128_ps(s1, s5, 0x20),
                _mm256_permute2f128_ps(s2, s6, 0x20),
                _mm256_permute2f128_ps(s3, s7, 0x20),
                _mm256_permute2f128_ps(s0, s4, 0x31),
                _mm256_permute2f128_ps(s1, s5, 0x31),
                _mm256_permute2f128_ps(s2, s6, 0x31),
                _mm256_permute2f128_ps(s3, s7, 0x31),
            ];
            for (j, &tj) in t.iter().enumerate() {
                let x = _mm256_broadcast_ss(a.get_unchecked(k + j));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(x, tj));
            }
            k += 8;
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
    }
}

/// The exact f32 re-score: operation-for-operation identical to
/// [`Vector::cosine_distance_given_norms`] with non-zero norms, applied to
/// the slab's preserved f32 lanes.
#[inline]
fn exact_distance(a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Classifies one pair: `Some(d)` iff the dense f32 distance `d` is strictly
/// below the cutoff (with `d` bit-identical to the dense sweep), `None`
/// otherwise.  `exact` is only invoked for the near-threshold band.
///
/// `inv` is the caller-hoisted `scale_a · scale_b / (‖a‖ · ‖b‖)` in f64,
/// evaluated as `(scale_product / ‖a‖) · (1 / ‖b‖)` so the sweep and the
/// per-pair path round identically (the rounding itself is covered by the
/// [`rescore_slop`] term of the bound, and a non-finite value can never
/// satisfy the one-sided skip comparison).  `D` is the runtime-selected
/// integer-dot implementation, monomorphized so the hot loop pays no
/// indirect call.
#[inline]
#[allow(clippy::too_many_arguments, reason = "hot path: scalars beat a struct of refs")]
fn classify_pair<D: DotKind>(
    p: &SweepParams,
    qa: &[i8],
    na: f32,
    qsa: i64,
    ea: f64,
    qb: &[i8],
    nb: f32,
    qsb: i64,
    eb: f64,
    inv: f64,
    exact: impl FnOnce() -> f32,
    stats: &mut KernelStats,
) -> Option<f32> {
    if na == 0.0 || nb == 0.0 {
        // The dense path defines zero-norm similarity as 0: distance 1.0,
        // exactly, with no dot product on either tier.
        stats.trivial += 1;
        return (1.0 < p.cutoff).then_some(1.0);
    }
    stats.int8_scored += 1;
    // Asymmetric-quantization expansion of dot(x̂, ŷ): the bracket is an
    // exact integer, only the final scaling runs in floating point.
    let bracket = D::dot(qa, qb) - p.zb * qsa - p.za * qsb + p.padded * p.za * p.zb;
    let similarity = (bracket as f64 * inv).clamp(-1.0, 1.0);
    let estimate = 1.0 - similarity;
    // `ρ_a + ρ_b + ρ_a·ρ_b + slop`, factored exactly as the sweep's inner
    // loop computes it so both paths classify borderline pairs identically.
    let bound = (1.0 + ea) * eb + (ea + p.slop);
    if estimate - bound >= p.cutoff_f64 {
        // Provably at-or-above the cutoff even after every source of error;
        // the dense sweep would have rejected this pair.
        stats.skipped += 1;
        return None;
    }
    stats.rescored += 1;
    let d = exact();
    (d < p.cutoff).then_some(d)
}

/// Sweeps the full `rows × cols` space and returns exactly the pairs whose
/// dense f32 cosine distance is strictly below `cutoff`, in row-major order
/// with their exact f32 distances — bit-identical to [`dense_sweep_below`]
/// over the source vectors, at a fraction of the f32 work.
///
/// # Panics
/// Panics when the slabs' dimensions differ (unless one side is
/// zero-dimensional, which the distance definition handles as all-zero-norm).
pub fn sweep_below(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
) -> (Vec<(usize, usize)>, Vec<f32>) {
    if rows.is_empty() || cols.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if rows.dim() == 0 || cols.dim() == 0 {
        // Every pair has a zero-norm side: constant distance 1.0.
        stats.trivial = stats.trivial.saturating_add(rows.len() * cols.len());
        if 1.0 < cutoff {
            let pairs: Vec<(usize, usize)> =
                (0..rows.len()).flat_map(|r| (0..cols.len()).map(move |c| (r, c))).collect();
            let costs = vec![1.0; pairs.len()];
            return (pairs, costs);
        }
        return (Vec::new(), Vec::new());
    }
    assert_eq!(rows.dim(), cols.dim(), "slab dimension mismatch");
    match detect_dot() {
        DotImpl::Portable => sweep_tiles::<PortableDot>(rows, cols, cutoff, stats),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => sweep_tiles::<Avx2Dot>(rows, cols, cutoff, stats),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx512 => sweep_tiles::<Avx512Dot>(rows, cols, cutoff, stats),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx512Vnni => {
            if rows.padded_dim() <= MAX_VNNI_WIDTH {
                sweep_vnni(rows, cols, cutoff, stats)
            } else {
                sweep_tiles::<Avx512Dot>(rows, cols, cutoff, stats)
            }
        }
    }
}

/// Widest row the VNNI sweep accepts: each i32 accumulator lane sums one
/// column's `padded` byte products of magnitude `≤ 255·128 < 2¹⁵`, so a
/// `2¹⁶` width keeps every lane strictly inside i32 range.  Wider slabs
/// (which no embedder in the workspace produces) fall back to the 16-bit
/// madd path, whose pairing supports the full `2²⁰` slab cap.
#[cfg(target_arch = "x86_64")]
const MAX_VNNI_WIDTH: usize = 1 << 16;

/// The tiled sweep body, monomorphized per integer-dot implementation.
///
/// Shape of the hot path: one `D::row_tile` call batches a row's integer
/// dots against the whole column tile (register-blocked on the wide paths),
/// then a branch-lean scalar loop turns each dot into the skip/re-score
/// decision using per-column arrays (`1/‖b‖`, `z_a·Σq_b`, `ρ_b`) divided and
/// multiplied once per sweep rather than once per pair.  Candidates land in
/// per-row stripe buffers: a row's columns arrive tile by tile in ascending
/// order, so draining the stripe row by row restores exact row-major
/// emission without a global sort.
fn sweep_tiles<D: DotKind>(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
) -> (Vec<(usize, usize)>, Vec<f32>) {
    let p = SweepParams::new(rows, cols, cutoff);
    let padded = rows.padded_dim();
    let admit_trivial = 1.0 < p.cutoff;

    // Per-column constants, computed once per sweep.
    let col_norms = cols.norms();
    let col_errs = cols.rel_error_bounds();
    let inv_nb: Vec<f64> = col_norms.iter().map(|&nb| 1.0 / nb as f64).collect();
    let za_qsb: Vec<i64> = cols.qsums().iter().map(|&qsb| p.za * qsb).collect();

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut costs: Vec<f32> = Vec::new();
    let (mut int8_scored, mut skipped, mut rescored, mut trivial) =
        (0usize, 0usize, 0usize, 0usize);
    let mut dots = [0i64; TILE_COLS];
    let mut stripe: Vec<Vec<(usize, f32)>> = (0..TILE_ROWS).map(|_| Vec::new()).collect();

    for r0 in (0..rows.len()).step_by(TILE_ROWS) {
        let r1 = (r0 + TILE_ROWS).min(rows.len());
        for buf in &mut stripe {
            buf.clear();
        }
        for c0 in (0..cols.len()).step_by(TILE_COLS) {
            let c1 = (c0 + TILE_COLS).min(cols.len());
            let width = c1 - c0;
            stats.blocks = stats.blocks.saturating_add(1);
            let tile_quant = &cols.quant_lanes()[c0 * padded..c1 * padded];
            for r in r0..r1 {
                let buf = &mut stripe[r - r0];
                let na = rows.norm(r);
                if na == 0.0 {
                    // The dense path defines zero-norm similarity as 0:
                    // distance 1.0, exactly, for the whole tile at once.
                    trivial += width;
                    if admit_trivial {
                        buf.extend((c0..c1).map(|c| (c, 1.0f32)));
                    }
                    continue;
                }
                D::row_tile(rows.quant_row(r), tile_quant, padded, &mut dots[..width]);
                let ea = rows.rel_error_bound(r);
                let ea1 = 1.0 + ea;
                let base = ea + p.slop;
                // Row-constant part of the integer bracket and of the
                // estimate's scaling, hoisted out of the column loop.
                let row_const = p.padded * p.za * p.zb - p.zb * rows.qsum(r);
                let scale_over_na = p.scale_product / na as f64;
                for (j, &dot) in dots[..width].iter().enumerate() {
                    let c = c0 + j;
                    let nb = col_norms[c];
                    if nb == 0.0 {
                        trivial += 1;
                        if admit_trivial {
                            buf.push((c, 1.0));
                        }
                        continue;
                    }
                    int8_scored += 1;
                    let bracket = dot - za_qsb[c] + row_const;
                    let similarity =
                        (bracket as f64 * (scale_over_na * inv_nb[c])).clamp(-1.0, 1.0);
                    let estimate = 1.0 - similarity;
                    let bound = ea1 * col_errs[c] + base;
                    if estimate - bound >= p.cutoff_f64 {
                        skipped += 1;
                        continue;
                    }
                    rescored += 1;
                    let d = exact_distance(rows.row(r), cols.row(c), na, nb);
                    if d < p.cutoff {
                        buf.push((c, d));
                    }
                }
            }
        }
        for (offset, buf) in stripe.iter().enumerate() {
            let r = r0 + offset;
            if r >= r1 {
                break;
            }
            for &(c, d) in buf {
                pairs.push((r, c));
                costs.push(d);
            }
        }
    }
    stats.int8_scored = stats.int8_scored.saturating_add(int8_scored);
    stats.skipped = stats.skipped.saturating_add(skipped);
    stats.rescored = stats.rescored.saturating_add(rescored);
    stats.trivial = stats.trivial.saturating_add(trivial);
    (pairs, costs)
}

/// Columns per VNNI group: one `vpdpbusd` accumulates 16 column dots in the
/// dword lanes of a single register, so the group width is fixed by the ISA.
#[cfg(target_arch = "x86_64")]
const VNNI_GROUP: usize = 16;

/// Groups per cache block of the VNNI sweep: 8 groups × 16 columns × the
/// default 64-byte padded width is 8 KiB of interleaved tile data, resident
/// in L1 while a row stripe streams against it.
#[cfg(target_arch = "x86_64")]
const VNNI_GROUP_BLOCK: usize = 8;

/// The VNNI sweep body: same contract and bit-identical output as
/// [`sweep_tiles`], restructured around `vpdpbusd`.
///
/// The column slab is re-laid dword-interleaved per 16-column group, so one
/// `vpdpbusd` per 4 components accumulates all 16 column dots vertically —
/// no horizontal reductions anywhere.  The unsigned operand is the row's
/// bytes biased by +128 (`q ⊕ 0x80`); the resulting `+128·Σq_b` excess is
/// folded into the per-column bracket adjustment, keeping the bracket the
/// exact same integer as the scalar path (every f64 intermediate is an
/// integer below 2⁵³, so the conversion is exact).  The estimate/bound
/// epilogue then runs in f64 lanes with the identical operation order to
/// [`classify_pair`], producing a skip mask per group.
///
/// Near-threshold survivors are not re-scored inline: each row's candidate
/// columns accumulate across the stripe and are re-scored in batches of
/// eight interleaved (but individually sequential, hence bit-identical)
/// f32 chains, which hides the serial-add latency that dominates a lone
/// dense evaluation.
#[cfg(target_arch = "x86_64")]
fn sweep_vnni(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
) -> (Vec<(usize, usize)>, Vec<f32>) {
    let p = SweepParams::new(rows, cols, cutoff);
    let padded = rows.padded_dim();
    let admit_trivial = 1.0 < p.cutoff;
    let ncols = cols.len();
    let groups = ncols.div_ceil(VNNI_GROUP);

    // Interleaved column mirror: group `g` stores its columns' bytes dword-
    // interleaved ([col₀ k..k+4][col₁ k..k+4]…[col₁₅ k..k+4] per step), with
    // absent trailing columns left zero and masked out of every decision.
    let mut inter = vec![0u8; groups * VNNI_GROUP * padded];
    for c in 0..ncols {
        let q = cols.quant_row(c);
        let base = (c / VNNI_GROUP) * VNNI_GROUP * padded + (c % VNNI_GROUP) * 4;
        for k in (0..padded).step_by(4) {
            let dst = base + k * VNNI_GROUP;
            for (t, &v) in q[k..k + 4].iter().enumerate() {
                inter[dst + t] = v as u8;
            }
        }
    }
    // Biased row mirror: the unsigned `vpdpbusd` operand is `q + 128`.
    let mut biased = vec![0u8; rows.len() * padded];
    for (dst, &src) in biased.iter_mut().zip(rows.quant_lanes()) {
        *dst = (src as u8) ^ 0x80;
    }

    // Per-column constants, padded to whole groups (pad lanes masked off).
    let col_norms = cols.norms();
    let mut adj = vec![0f64; groups * VNNI_GROUP];
    let mut inv_nb = vec![0f64; groups * VNNI_GROUP];
    let mut errs = vec![0f64; groups * VNNI_GROUP];
    let mut valid_mask = vec![0u16; groups];
    let mut zero_mask = vec![0u16; groups];
    for c in 0..ncols {
        adj[c] = ((p.za + 128) * cols.qsum(c)) as f64;
        let nb = col_norms[c];
        inv_nb[c] = 1.0 / nb as f64;
        errs[c] = cols.rel_error_bound(c);
        valid_mask[c / VNNI_GROUP] |= 1 << (c % VNNI_GROUP);
        if nb == 0.0 {
            zero_mask[c / VNNI_GROUP] |= 1 << (c % VNNI_GROUP);
        }
    }

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut costs: Vec<f32> = Vec::new();
    let (mut int8_scored, mut skipped, mut rescored, mut trivial) =
        (0usize, 0usize, 0usize, 0usize);
    let mut cand: Vec<Vec<usize>> = (0..TILE_ROWS).map(|_| Vec::new()).collect();
    let mut triv: Vec<Vec<usize>> = (0..TILE_ROWS).map(|_| Vec::new()).collect();
    let mut batch = Vec::new();

    for r0 in (0..rows.len()).step_by(TILE_ROWS) {
        let r1 = (r0 + TILE_ROWS).min(rows.len());
        for buf in &mut cand {
            buf.clear();
        }
        for buf in &mut triv {
            buf.clear();
        }
        for g0 in (0..groups).step_by(VNNI_GROUP_BLOCK) {
            let g1 = (g0 + VNNI_GROUP_BLOCK).min(groups);
            stats.blocks = stats.blocks.saturating_add(1);
            let block_cols = (g1 * VNNI_GROUP).min(ncols) - g0 * VNNI_GROUP;
            for r in r0..r1 {
                let na = rows.norm(r);
                if na == 0.0 {
                    // The dense path defines zero-norm similarity as 0:
                    // distance 1.0, exactly, for the whole block at once.
                    trivial += block_cols;
                    if admit_trivial {
                        let lo = g0 * VNNI_GROUP;
                        triv[r - r0].extend(lo..lo + block_cols);
                    }
                    continue;
                }
                let qa = &biased[r * padded..(r + 1) * padded];
                let ea = rows.rel_error_bound(r);
                let ea1 = 1.0 + ea;
                let base = ea + p.slop;
                let row_const = (p.padded * p.za * p.zb - p.zb * rows.qsum(r)) as f64;
                let scale_over_na = p.scale_product / na as f64;
                for g in g0..g1 {
                    let cbase = g * VNNI_GROUP;
                    let skip_raw = simd::classify_group_vnni(
                        qa,
                        &inter[cbase * padded..(cbase + VNNI_GROUP) * padded],
                        padded,
                        &adj[cbase..cbase + VNNI_GROUP],
                        &inv_nb[cbase..cbase + VNNI_GROUP],
                        &errs[cbase..cbase + VNNI_GROUP],
                        row_const,
                        scale_over_na,
                        ea1,
                        base,
                        p.cutoff_f64,
                    );
                    let live = valid_mask[g] & !zero_mask[g];
                    let skip = skip_raw & live;
                    let attend = live & !skip;
                    int8_scored += live.count_ones() as usize;
                    skipped += skip.count_ones() as usize;
                    rescored += attend.count_ones() as usize;
                    trivial += zero_mask[g].count_ones() as usize;
                    let mut m = attend;
                    while m != 0 {
                        cand[r - r0].push(cbase + m.trailing_zeros() as usize);
                        m &= m - 1;
                    }
                    if admit_trivial {
                        let mut m = zero_mask[g];
                        while m != 0 {
                            triv[r - r0].push(cbase + m.trailing_zeros() as usize);
                            m &= m - 1;
                        }
                    }
                }
            }
        }
        for offset in 0..(r1 - r0) {
            emit_row(
                rows,
                cols,
                r0 + offset,
                &cand[offset],
                &triv[offset],
                &p,
                &mut batch,
                &mut pairs,
                &mut costs,
            );
        }
    }
    stats.int8_scored = stats.int8_scored.saturating_add(int8_scored);
    stats.skipped = stats.skipped.saturating_add(skipped);
    stats.rescored = stats.rescored.saturating_add(rescored);
    stats.trivial = stats.trivial.saturating_add(trivial);
    (pairs, costs)
}

/// Re-scores one row's candidate columns in interleaved batches and merges
/// the admitted ones with the row's trivial (zero-norm) columns, emitting in
/// ascending column order — exactly the dense sweep's row-major emission.
///
/// Each batch runs [`RESCORE_BATCH`] dense evaluations as independent f32
/// chains advanced in lockstep: every chain performs the same operations in
/// the same order as [`exact_distance`] (bit-identical results), but their
/// serial add latencies overlap instead of queueing.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments, reason = "hot path: scalars beat a struct of refs")]
fn emit_row(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    r: usize,
    cand: &[usize],
    triv: &[usize],
    p: &SweepParams,
    batch: &mut Vec<f32>,
    pairs: &mut Vec<(usize, usize)>,
    costs: &mut Vec<f32>,
) {
    let na = rows.norm(r);
    let padded = rows.padded_dim();
    // The batched path sums over the full zero-padded width: the trailing
    // `+ 0.0` terms can only flip a `-0.0` partial sum to `+0.0`, and
    // `1.0 - x` maps both signed zeros to the same 1.0 — so the final
    // distance stays bit-identical to the dense dim-length chain.
    let a_pad = &rows.f32_lanes()[r * padded..(r + 1) * padded];
    batch.clear();
    let mut i = 0;
    while i + RESCORE_BATCH <= cand.len() {
        let bs: [&[f32]; RESCORE_BATCH] = std::array::from_fn(|l| {
            let c = cand[i + l];
            &cols.f32_lanes()[c * padded..(c + 1) * padded]
        });
        let mut dots = [0f32; RESCORE_BATCH];
        simd::rescore_batch8(a_pad, &bs, padded, &mut dots);
        for (l, &dot) in dots.iter().enumerate() {
            let nb = cols.norm(cand[i + l]);
            batch.push(1.0 - (dot / (na * nb)).clamp(-1.0, 1.0));
        }
        i += RESCORE_BATCH;
    }
    let a = rows.row(r);
    while i < cand.len() {
        let c = cand[i];
        batch.push(exact_distance(a, cols.row(c), na, cols.norm(c)));
        i += 1;
    }
    // Two sorted streams (candidates with their exact distances, trivial
    // columns at constant 1.0) merge back into ascending column order.
    let mut ci = 0;
    let mut ti = 0;
    while ci < cand.len() || ti < triv.len() {
        let take_cand = match (cand.get(ci), triv.get(ti)) {
            (Some(&c), Some(&t)) => c < t,
            (Some(_), None) => true,
            _ => false,
        };
        if take_cand {
            let d = batch[ci];
            if d < p.cutoff {
                pairs.push((r, cand[ci]));
                costs.push(d);
            }
            ci += 1;
        } else {
            pairs.push((r, triv[ti]));
            costs.push(1.0);
            ti += 1;
        }
    }
}

/// Dense evaluations interleaved per re-score batch: eight chains cover the
/// ~4-cycle f32 add latency with independent work.
#[cfg(target_arch = "x86_64")]
const RESCORE_BATCH: usize = 8;

/// Classifies a single `(r, c)` pair: `Some(d)` iff the dense f32 distance
/// `d` is strictly below `cutoff`, with `d` bit-identical to the dense
/// computation.  This is the escalated tier's re-score primitive — the ANN
/// index picks *which* pairs to look at, this decides them one at a time
/// under the same two-tier guarantee as [`sweep_below`].
pub fn distance_below(
    rows: &QuantizedSlab,
    r: usize,
    cols: &QuantizedSlab,
    c: usize,
    cutoff: f32,
    stats: &mut KernelStats,
) -> Option<f32> {
    let na = rows.norm(r);
    let nb = cols.norm(c);
    debug_assert!(
        rows.dim() == cols.dim() || na == 0.0 || nb == 0.0,
        "slab dimension mismatch: {} vs {}",
        rows.dim(),
        cols.dim()
    );
    let p = SweepParams::new(rows, cols, cutoff);
    // Same factored evaluation as the sweep's hoisted form, so borderline
    // pairs classify identically through either API.
    let inv = (p.scale_product / na as f64) * (1.0 / nb as f64);
    #[allow(clippy::too_many_arguments, reason = "thin monomorphization shim")]
    fn classify_at<D: DotKind>(
        p: &SweepParams,
        rows: &QuantizedSlab,
        r: usize,
        na: f32,
        cols: &QuantizedSlab,
        c: usize,
        nb: f32,
        inv: f64,
        stats: &mut KernelStats,
    ) -> Option<f32> {
        classify_pair::<D>(
            p,
            rows.quant_row(r),
            na,
            rows.qsum(r),
            rows.rel_error_bound(r),
            cols.quant_row(c),
            nb,
            cols.qsum(c),
            cols.rel_error_bound(c),
            inv,
            || exact_distance(rows.row(r), cols.row(c), na, nb),
            stats,
        )
    }
    match detect_dot() {
        DotImpl::Portable => classify_at::<PortableDot>(&p, rows, r, na, cols, c, nb, inv, stats),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => classify_at::<Avx2Dot>(&p, rows, r, na, cols, c, nb, inv, stats),
        // The VNNI layout only pays off across a column tile; single pairs
        // classify through the madd dot, whose exact integer bracket and f64
        // epilogue make the identical skip/re-score decision.
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx512 | DotImpl::Avx512Vnni => {
            classify_at::<Avx512Dot>(&p, rows, r, na, cols, c, nb, inv, stats)
        }
    }
}

/// Classifies one row against a batch of candidate columns, invoking `keep`
/// with `(c, d)` for every column whose dense f32 distance `d` is strictly
/// below `cutoff` — bit-identical to calling [`distance_below`] once per
/// column (same classification, same distances, same [`KernelStats`]
/// counters), with the parameter derivation, SIMD dispatch and row-side
/// loads hoisted out of the loop.  This is what the escalated planner feeds
/// its per-row candidate runs through: candidate lists arrive grouped by row
/// (the probe emits them that way), so the amortization is free.
///
/// `keep` observes columns in the order `candidates` yields them.
pub fn row_distances_below(
    rows: &QuantizedSlab,
    r: usize,
    cols: &QuantizedSlab,
    candidates: impl IntoIterator<Item = usize>,
    cutoff: f32,
    stats: &mut KernelStats,
    keep: impl FnMut(usize, f32),
) {
    let na = rows.norm(r);
    let p = SweepParams::new(rows, cols, cutoff);
    // `inv` factors exactly as `distance_below` computes it — the row-side
    // division hoists, the column-side reciprocal stays per pair, and the
    // product rounds identically.
    let inv_row = p.scale_product / na as f64;
    #[allow(
        clippy::too_many_arguments,
        reason = "private monomorphised core; mirrors the sweep's state"
    )]
    fn run<D: DotKind>(
        p: &SweepParams,
        rows: &QuantizedSlab,
        r: usize,
        na: f32,
        inv_row: f64,
        cols: &QuantizedSlab,
        candidates: impl IntoIterator<Item = usize>,
        stats: &mut KernelStats,
        mut keep: impl FnMut(usize, f32),
    ) {
        let qa = rows.quant_row(r);
        let qsa = rows.qsum(r);
        let ea = rows.rel_error_bound(r);
        for c in candidates {
            let nb = cols.norm(c);
            debug_assert!(
                rows.dim() == cols.dim() || na == 0.0 || nb == 0.0,
                "slab dimension mismatch: {} vs {}",
                rows.dim(),
                cols.dim()
            );
            let inv = inv_row * (1.0 / nb as f64);
            let kept = classify_pair::<D>(
                p,
                qa,
                na,
                qsa,
                ea,
                cols.quant_row(c),
                nb,
                cols.qsum(c),
                cols.rel_error_bound(c),
                inv,
                || exact_distance(rows.row(r), cols.row(c), na, nb),
                stats,
            );
            if let Some(d) = kept {
                keep(c, d);
            }
        }
    }
    match detect_dot() {
        DotImpl::Portable => {
            run::<PortableDot>(&p, rows, r, na, inv_row, cols, candidates, stats, keep)
        }
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => run::<Avx2Dot>(&p, rows, r, na, inv_row, cols, candidates, stats, keep),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx512 | DotImpl::Avx512Vnni => {
            run::<Avx512Dot>(&p, rows, r, na, inv_row, cols, candidates, stats, keep)
        }
    }
}

/// The dense f32 reference sweep the kernel must reproduce bit for bit: one
/// [`Vector::cosine_distance_given_norms`] per pair, row-major, keeping
/// strict sub-cutoff pairs with their distances.  This is the seed
/// implementation of the exact blocking tier, retained as the equivalence
/// oracle for tests.
pub fn dense_sweep_below(
    row_embeddings: &[&Vector],
    col_embeddings: &[&Vector],
    cutoff: f32,
) -> (Vec<(usize, usize)>, Vec<f32>) {
    let row_norms: Vec<f32> = row_embeddings.iter().map(|e| e.norm()).collect();
    let col_norms: Vec<f32> = col_embeddings.iter().map(|e| e.norm()).collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut costs: Vec<f32> = Vec::new();
    for (r, row) in row_embeddings.iter().enumerate() {
        for (c, col) in col_embeddings.iter().enumerate() {
            let distance = row.cosine_distance_given_norms(row_norms[r], col, col_norms[c]);
            if distance < cutoff {
                pairs.push((r, c));
                costs.push(distance);
            }
        }
    }
    (pairs, costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random vectors with mixed magnitudes.
    fn test_vectors(count: usize, dim: usize, salt: u64) -> Vec<Vector> {
        (0..count)
            .map(|i| {
                Vector::new(
                    (0..dim)
                        .map(|j| {
                            let t = (i as u64 * 131 + j as u64 * 17 + salt) as f32;
                            (t * 0.618).sin() * if (i + j) % 5 == 0 { 3.0 } else { 0.4 }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    type SweepResult = (Vec<(usize, usize)>, Vec<f32>);

    fn sweep_both(
        rows: &[Vector],
        cols: &[Vector],
        cutoff: f32,
    ) -> (SweepResult, SweepResult, KernelStats) {
        let row_refs: Vec<&Vector> = rows.iter().collect();
        let col_refs: Vec<&Vector> = cols.iter().collect();
        let dense = dense_sweep_below(&row_refs, &col_refs, cutoff);
        let row_slab = QuantizedSlab::from_vectors(&row_refs);
        let col_slab = QuantizedSlab::from_vectors(&col_refs);
        let mut stats = KernelStats::default();
        let quantized = sweep_below(&row_slab, &col_slab, cutoff, &mut stats);
        (dense, quantized, stats)
    }

    #[test]
    fn quantized_sweep_matches_dense_reference_bitwise() {
        let rows = test_vectors(70, 24, 1);
        let cols = test_vectors(53, 24, 2);
        for cutoff in [0.05f32, 0.3, 0.8, 1.0, 1.4] {
            let (dense, quantized, stats) = sweep_both(&rows, &cols, cutoff);
            assert_eq!(dense.0, quantized.0, "pairs diverge at cutoff {cutoff}");
            assert_eq!(dense.1, quantized.1, "costs diverge at cutoff {cutoff}");
            assert_eq!(stats.int8_scored, stats.skipped + stats.rescored);
            assert_eq!(stats.classified(), rows.len() * cols.len());
            assert!(stats.blocks > 0);
        }
    }

    #[test]
    fn theta_comparisons_are_strict_in_both_tiers() {
        // Orthogonal unit vectors sit at distance exactly 1.0; a cutoff of
        // exactly 1.0 must exclude them in the dense tier and the quantized
        // tier alike (strict `<`), and the next representable cutoff up must
        // include them in both with the identical bit pattern.
        let rows = vec![Vector::new(vec![1.0, 0.0, 0.0, 0.0])];
        let cols = vec![Vector::new(vec![0.0, 1.0, 0.0, 0.0])];
        let (dense_at, quant_at, _) = sweep_both(&rows, &cols, 1.0);
        assert!(dense_at.0.is_empty());
        assert!(quant_at.0.is_empty());
        let above = f32::from_bits(1.0f32.to_bits() + 1);
        let (dense_up, quant_up, _) = sweep_both(&rows, &cols, above);
        assert_eq!(dense_up.0, vec![(0, 0)]);
        assert_eq!(quant_up.0, vec![(0, 0)]);
        assert_eq!(dense_up.1[0].to_bits(), quant_up.1[0].to_bits());
    }

    #[test]
    fn pair_error_bound_is_monotone_in_both_errors() {
        let grid = [0.0, 1e-6, 1e-3, 0.02, 0.5, 1.0];
        for (i, &ea) in grid.iter().enumerate() {
            for (k, &eb) in grid.iter().enumerate() {
                let here = pair_error_bound(ea, eb, 64);
                if i + 1 < grid.len() {
                    assert!(pair_error_bound(grid[i + 1], eb, 64) > here);
                }
                if k + 1 < grid.len() {
                    assert!(pair_error_bound(ea, grid[k + 1], 64) > here);
                }
                // The slop floor is always present.
                assert!(here >= rescore_slop(64));
            }
        }
        // Wider rows carry a larger f32 evaluation floor.
        assert!(rescore_slop(1024) > rescore_slop(64));
    }

    #[test]
    fn rescore_band_is_empty_when_quantization_error_is_zero() {
        // Components on the exact quantization grid (multiples of 2⁻⁹, range
        // [0, 255·2⁻⁹]): scale resolves to exactly 2⁻⁹, every value round-
        // trips bit-perfectly, and the measured error bound is 0.  With all
        // distances far from the cutoff, the re-score band collapses to the
        // accepted candidates themselves: no f32 work is wasted on any
        // rejected pair.
        let g = 1.0f32 / 512.0;
        let rows = [
            Vector::new(vec![255.0 * g, 0.0, 0.0, 0.0]),
            Vector::new(vec![0.0, 128.0 * g, 0.0, 64.0 * g]),
        ];
        let cols = [
            Vector::new(vec![255.0 * g, 0.0, 0.0, 0.0]),
            Vector::new(vec![0.0, 0.0, 192.0 * g, 0.0]),
        ];
        let row_refs: Vec<&Vector> = rows.iter().collect();
        let col_refs: Vec<&Vector> = cols.iter().collect();
        let row_slab = QuantizedSlab::from_vectors(&row_refs);
        let col_slab = QuantizedSlab::from_vectors(&col_refs);
        assert_eq!(row_slab.max_rel_error_bound(), 0.0, "grid data must quantize exactly");
        assert_eq!(col_slab.max_rel_error_bound(), 0.0);

        let cutoff = 0.5f32;
        let mut stats = KernelStats::default();
        let (pairs, costs) = sweep_below(&row_slab, &col_slab, cutoff, &mut stats);
        let (dense_pairs, dense_costs) = dense_sweep_below(&row_refs, &col_refs, cutoff);
        assert_eq!(pairs, dense_pairs);
        assert_eq!(costs, dense_costs);
        // Only the accepted pair (row 0 with its identical column) was ever
        // re-scored; every rejected pair was proven away in int8.
        assert_eq!(stats.rescored, pairs.len());
        assert_eq!(stats.skipped, row_refs.len() * col_refs.len() - pairs.len());
        assert_eq!(stats.trivial, 0);
    }

    #[test]
    fn zero_norm_pairs_classify_trivially() {
        let rows = vec![Vector::zeros(8), Vector::new(vec![1.0; 8])];
        let cols = vec![Vector::new(vec![1.0; 8]), Vector::zeros(8)];
        // Distance to/from a zero vector is exactly 1.0: below a 1.5 cutoff,
        // at-or-above a 1.0 cutoff.
        let (dense, quantized, stats) = sweep_both(&rows, &cols, 1.5);
        assert_eq!(dense.0, quantized.0);
        assert_eq!(dense.1, quantized.1);
        assert!(quantized.0.contains(&(0, 0)) && quantized.0.contains(&(1, 1)));
        assert!(quantized.1.iter().filter(|&&d| d == 1.0).count() >= 3);
        assert_eq!(stats.trivial, 3);
        let (dense_tight, quant_tight, _) = sweep_both(&rows, &cols, 1.0);
        assert_eq!(dense_tight.0, quant_tight.0);
        assert!(!quant_tight.0.contains(&(0, 0)));
    }

    #[test]
    fn empty_and_dimless_slabs_sweep_to_nothing() {
        let empty = QuantizedSlab::from_vectors(&[]);
        let v = Vector::new(vec![1.0, 0.0]);
        let one = QuantizedSlab::from_vectors(&[&v]);
        let mut stats = KernelStats::default();
        assert_eq!(sweep_below(&empty, &one, 1.0, &mut stats).0.len(), 0);
        assert_eq!(sweep_below(&one, &empty, 1.0, &mut stats).0.len(), 0);
        assert_eq!(stats, KernelStats::default());

        // A zero-dimensional side means every pair is zero-norm: constant
        // distance 1.0, admitted only under a looser-than-1.0 cutoff —
        // exactly the dense behaviour, which never panics on this shape.
        let dimless = QuantizedSlab::from_rows([[].as_slice(), [].as_slice()]);
        let (pairs, costs) = sweep_below(&dimless, &one, 1.5, &mut stats);
        assert_eq!(pairs, vec![(0, 0), (1, 0)]);
        assert_eq!(costs, vec![1.0, 1.0]);
        assert_eq!(stats.trivial, 2);
        let (none, _) = sweep_below(&dimless, &one, 1.0, &mut stats);
        assert!(none.is_empty());
    }

    #[test]
    fn distance_below_agrees_with_the_sweep() {
        let rows = test_vectors(13, 20, 7);
        let cols = test_vectors(11, 20, 8);
        let row_refs: Vec<&Vector> = rows.iter().collect();
        let col_refs: Vec<&Vector> = cols.iter().collect();
        let row_slab = QuantizedSlab::from_vectors(&row_refs);
        let col_slab = QuantizedSlab::from_vectors(&col_refs);
        let cutoff = 0.6f32;
        let mut sweep_stats = KernelStats::default();
        let (pairs, costs) = sweep_below(&row_slab, &col_slab, cutoff, &mut sweep_stats);
        let mut pair_stats = KernelStats::default();
        let mut single: Vec<((usize, usize), f32)> = Vec::new();
        for r in 0..rows.len() {
            for c in 0..cols.len() {
                if let Some(d) = distance_below(&row_slab, r, &col_slab, c, cutoff, &mut pair_stats)
                {
                    single.push(((r, c), d));
                }
            }
        }
        let collected: Vec<((usize, usize), f32)> =
            pairs.iter().copied().zip(costs.iter().copied()).collect();
        assert_eq!(single, collected);
        // Same pair-level counters; only tile accounting differs.
        assert_eq!(pair_stats.int8_scored, sweep_stats.int8_scored);
        assert_eq!(pair_stats.skipped, sweep_stats.skipped);
        assert_eq!(pair_stats.rescored, sweep_stats.rescored);
        assert_eq!(pair_stats.blocks, 0);
    }

    #[test]
    fn stats_merge_saturates() {
        let mut acc = KernelStats {
            int8_scored: usize::MAX - 1,
            skipped: usize::MAX,
            rescored: 3,
            trivial: 0,
            blocks: 1,
        };
        acc.merge(&KernelStats {
            int8_scored: 7,
            skipped: 7,
            rescored: 1,
            trivial: usize::MAX,
            blocks: 2,
        });
        assert_eq!(acc.int8_scored, usize::MAX);
        assert_eq!(acc.skipped, usize::MAX);
        assert_eq!(acc.rescored, 4);
        assert_eq!(acc.trivial, usize::MAX);
        assert_eq!(acc.blocks, 3);
        assert!((0.0..=1.0).contains(&acc.rescored_fraction()));
        assert_eq!(KernelStats::default().rescored_fraction(), 0.0);
    }

    #[test]
    fn adversarial_magnitudes_never_break_bit_equality() {
        // One slab mixing huge and tiny magnitudes forces a coarse grid and
        // near-total re-scoring — slower, never wrong.
        let mut rows = test_vectors(9, 12, 3);
        rows.push(Vector::new(vec![1.0e7; 12]));
        rows.push(Vector::new(vec![1.0e-6; 12]));
        let mut cols = test_vectors(9, 12, 4);
        cols.push(Vector::new(vec![-1.0e7; 12]));
        for cutoff in [0.4f32, 1.0] {
            let (dense, quantized, stats) = sweep_both(&rows, &cols, cutoff);
            assert_eq!(dense.0, quantized.0, "cutoff {cutoff}");
            assert_eq!(dense.1, quantized.1, "cutoff {cutoff}");
            assert_eq!(stats.int8_scored, stats.skipped + stats.rescored);
        }
    }
}
