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
//! emission is exactly row-major without a global sort.  The f32 rows are
//! only touched for the near-threshold band.
//!
//! The integer tier is runtime-dispatched (the workspace builds for the
//! baseline target, so nothing wide is assumed at compile time): an AVX2
//! `vpmaddwd` dot where the CPU has it, else a portable [`SLAB_LANE`]-chunked
//! multiply-accumulate the autovectorizer widens.  Both compute the same
//! exact integer, so every path makes the identical skip/re-score decision
//! on every pair, and the tests hold each one the host can run to the dense
//! sweep.

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
/// hosts without the AVX2 path in [`simd`].
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DotImpl {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

fn detect_dot() -> DotImpl {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return DotImpl::Avx2;
    }
    DotImpl::Portable
}

/// Every implementation this CPU can run — the portable dot and, where it
/// differs, the one [`detect_dot`] picks — so each test holds all of them to
/// the dense reference and not only the one production takes here.
#[cfg(test)]
fn supported_impls() -> Vec<DotImpl> {
    let mut impls = vec![DotImpl::Portable];
    if detect_dot() != DotImpl::Portable {
        impls.push(detect_dot());
    }
    impls
}

/// An integer-dot strategy, monomorphized into the sweep so the hot loops
/// pay no indirect calls.
trait DotKind {
    fn dot(a: &[i8], b: &[i8]) -> i64;
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

/// The runtime-detected AVX2 integer dot.  It accumulates `vpmaddwd`
/// partial sums in i32 lanes: each lane holds sums of paired `i16 × i16`
/// products (`≤ 2 · 128² = 2¹⁵` per chunk), so a row bounded by the
/// [`QuantizedSlab`] width cap of `2²⁰` components keeps every lane below
/// `2¹⁵ · 2¹⁶ = 2³¹` — no overflow, the bracket stays exact.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "sole exception to the workspace-wide deny: CPU intrinsics have no safe form.  \
              The one unsafe block is gated on runtime feature detection, and its pointer \
              arithmetic stays inside slice bounds the kernel's entry points assert"
)]
mod simd {
    use std::arch::x86_64::*;

    #[inline]
    pub fn dot_avx2(a: &[i8], b: &[i8]) -> i64 {
        // SAFETY: only selected after runtime AVX2 detection.  The loads
        // stay in bounds because both rows have one padded width (a multiple
        // of 16, `SLAB_LANE`): every dot is reached only after an entry
        // assert that the two slabs share one dimension or that one side
        // has zero norm (which is answered without a dot) — `assert_eq!` in
        // `sweep_with`, `assert!` in `distance_below` and in
        // `row_distances_below`.
        unsafe { dot_avx2_inner(a, b) }
    }

    /// # Safety
    /// The CPU must support AVX2, and `b` must hold at least `a.len()` bytes.
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
}

/// The exact f32 re-score: operation-for-operation identical to
/// [`Vector::cosine_distance_given_norms`] with non-zero norms, applied to
/// the slab's preserved f32 rows.
#[inline]
fn exact_distance(a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    distance_from_dot(dot, na, nb)
}

/// The cosine distance of a pair from its f32 dot product and norms, with
/// the arithmetic of [`Vector::cosine_distance_given_norms`].
#[inline]
fn distance_from_dot(dot: f32, na: f32, nb: f32) -> f32 {
    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Candidates re-scored together by [`exact_dots`].
const RESCORE_LANES: usize = 8;

/// The f32 dot products of row `a` with [`RESCORE_LANES`] column rows in one
/// pass over the components.  Each lane sums its own products in component
/// order from the `-0.0` that `f32`'s `Sum` starts from, so lane `l` equals
/// the dot of [`exact_distance`] with `bs[l]` bit for bit; the eight sums
/// are independent, so their adds do not wait on each other.
#[inline]
fn exact_dots(a: &[f32], bs: [&[f32]; RESCORE_LANES]) -> [f32; RESCORE_LANES] {
    let n = a.len();
    let bs = bs.map(|b| &b[..n]);
    let mut sums = [-0.0f32; RESCORE_LANES];
    for k in 0..n {
        let x = a[k];
        for lane in 0..RESCORE_LANES {
            sums[lane] += x * bs[lane][k];
        }
    }
    sums
}

/// What the int8 tier makes of one pair.
enum Triage {
    /// Answered without an f32 dot product: the zero-norm constant `1.0`
    /// (`Some` iff it is below the cutoff) or a proven skip (`None`).
    Settled(Option<f32>),
    /// In the near-threshold band: only the exact f32 re-score decides.
    Rescore,
}

/// Triages one pair on the int8 tier and counts it in `stats`: zero-norm
/// pairs are settled with the dense path's constant, pairs the error bound
/// proves at or above the cutoff are skipped, and the rest need the exact
/// f32 re-score.
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
fn triage_pair<D: DotKind>(
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
    stats: &mut KernelStats,
) -> Triage {
    if na == 0.0 || nb == 0.0 {
        // The dense path defines zero-norm similarity as 0: distance 1.0,
        // exactly, with no dot product on either tier.
        stats.trivial += 1;
        return Triage::Settled((1.0 < p.cutoff).then_some(1.0));
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
        return Triage::Settled(None);
    }
    stats.rescored += 1;
    Triage::Rescore
}

/// Sweeps the full `rows × cols` space and returns exactly the pairs whose
/// dense f32 cosine distance is strictly below `cutoff`, in row-major order
/// with their exact f32 distances — bit-identical to [`dense_sweep_below`]
/// over the source vectors, at a fraction of the f32 work.  A collecting
/// wrapper over [`sweep_distances_below`].
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
    let (mut pairs, mut costs) = (Vec::new(), Vec::new());
    sweep_distances_below(rows, cols, cutoff, stats, |r, c, d| {
        pairs.push((r, c));
        costs.push(d);
    });
    (pairs, costs)
}

/// The sweep of [`sweep_below`], handing each kept pair to `keep` as
/// `(r, c, d)` in row-major order instead of collecting them, so a caller
/// can store the pairs in its own form without an intermediate list.
///
/// # Panics
/// As [`sweep_below`].
pub fn sweep_distances_below(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
    mut keep: impl FnMut(usize, usize, f32),
) {
    sweep_with(detect_dot(), rows, cols, cutoff, stats, &mut keep);
}

/// [`sweep_distances_below`] on a given integer-dot implementation.
fn sweep_with(
    dot: DotImpl,
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
    keep: &mut dyn FnMut(usize, usize, f32),
) {
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    if rows.dim() == 0 || cols.dim() == 0 {
        // Every pair has a zero-norm side: constant distance 1.0.
        stats.trivial = stats.trivial.saturating_add(rows.len() * cols.len());
        if 1.0 < cutoff {
            for r in 0..rows.len() {
                for c in 0..cols.len() {
                    keep(r, c, 1.0);
                }
            }
        }
        return;
    }
    assert_eq!(rows.dim(), cols.dim(), "slab dimension mismatch");
    match dot {
        DotImpl::Portable => sweep_tiles::<PortableDot>(rows, cols, cutoff, stats, keep),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => sweep_tiles::<Avx2Dot>(rows, cols, cutoff, stats, keep),
    }
}

/// The tiled sweep body, monomorphized per integer-dot implementation.
///
/// Shape of the hot path: one tight loop takes a row's integer dots against
/// the whole column tile, then a branch-lean scalar loop turns each dot into
/// the skip/re-score decision using per-column arrays (`1/‖b‖`, `z_a·Σq_b`,
/// `ρ_b`) divided and multiplied once per sweep rather than once per pair.
/// Candidates land in per-row stripe buffers: a row's columns arrive tile by
/// tile in ascending order, so draining the stripe row by row into `keep`
/// restores exact row-major emission without a global sort.
fn sweep_tiles<D: DotKind>(
    rows: &QuantizedSlab,
    cols: &QuantizedSlab,
    cutoff: f32,
    stats: &mut KernelStats,
    keep: &mut dyn FnMut(usize, usize, f32),
) {
    let p = SweepParams::new(rows, cols, cutoff);
    let padded = rows.padded_dim();
    let admit_trivial = 1.0 < p.cutoff;

    // Per-column constants, computed once per sweep.
    let col_norms = cols.norms();
    let col_errs = cols.rel_error_bounds();
    let inv_nb: Vec<f64> = col_norms.iter().map(|&nb| 1.0 / nb as f64).collect();
    let za_qsb: Vec<i64> = cols.qsums().iter().map(|&qsb| p.za * qsb).collect();

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
                let qa = rows.quant_row(r);
                for (d, qb) in dots.iter_mut().zip(tile_quant.chunks_exact(padded)) {
                    *d = D::dot(qa, qb);
                }
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
                keep(r, c, d);
            }
        }
    }
    stats.int8_scored = stats.int8_scored.saturating_add(int8_scored);
    stats.skipped = stats.skipped.saturating_add(skipped);
    stats.rescored = stats.rescored.saturating_add(rescored);
    stats.trivial = stats.trivial.saturating_add(trivial);
}

/// Classifies a single `(r, c)` pair: `Some(d)` iff the dense f32 distance
/// `d` is strictly below `cutoff`, with `d` bit-identical to the dense
/// computation.  This is the escalated tier's re-score primitive — the ANN
/// index picks *which* pairs to look at, this decides them one at a time
/// under the same two-tier guarantee as [`sweep_below`].
///
/// # Panics
/// Panics when the slabs' dimensions differ and neither row has zero norm
/// (a zero-norm side is answered with the exact constant `1.0`).
pub fn distance_below(
    rows: &QuantizedSlab,
    r: usize,
    cols: &QuantizedSlab,
    c: usize,
    cutoff: f32,
    stats: &mut KernelStats,
) -> Option<f32> {
    distance_below_with(detect_dot(), rows, r, cols, c, cutoff, stats)
}

/// [`distance_below`] on a given integer-dot implementation.
fn distance_below_with(
    dot: DotImpl,
    rows: &QuantizedSlab,
    r: usize,
    cols: &QuantizedSlab,
    c: usize,
    cutoff: f32,
    stats: &mut KernelStats,
) -> Option<f32> {
    let na = rows.norm(r);
    let nb = cols.norm(c);
    assert!(
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
        let triage = triage_pair::<D>(
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
            stats,
        );
        match triage {
            Triage::Settled(kept) => kept,
            Triage::Rescore => {
                let d = exact_distance(rows.row(r), cols.row(c), na, nb);
                (d < p.cutoff).then_some(d)
            }
        }
    }
    match dot {
        DotImpl::Portable => classify_at::<PortableDot>(&p, rows, r, na, cols, c, nb, inv, stats),
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => classify_at::<Avx2Dot>(&p, rows, r, na, cols, c, nb, inv, stats),
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
///
/// # Panics
/// Panics, like [`distance_below`], on a candidate whose slab dimension
/// differs from the row's when neither side has zero norm.
pub fn row_distances_below(
    rows: &QuantizedSlab,
    r: usize,
    cols: &QuantizedSlab,
    candidates: impl IntoIterator<Item = usize>,
    cutoff: f32,
    stats: &mut KernelStats,
    keep: impl FnMut(usize, f32),
) {
    row_distances_below_with(detect_dot(), rows, r, cols, candidates, cutoff, stats, keep);
}

/// [`row_distances_below`] on a given integer-dot implementation.
#[allow(clippy::too_many_arguments, reason = "the public signature plus the implementation")]
fn row_distances_below_with(
    dot: DotImpl,
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
        let a = rows.row(r);
        // Candidates in the re-score band wait here, with their norms, for
        // one pass of `exact_dots` over all eight; whatever reaches `keep`
        // still arrives in candidate order.
        let mut pending = [(0usize, 0.0f32); RESCORE_LANES];
        let mut waiting = 0usize;
        for c in candidates {
            let nb = cols.norm(c);
            assert!(
                rows.dim() == cols.dim() || na == 0.0 || nb == 0.0,
                "slab dimension mismatch: {} vs {}",
                rows.dim(),
                cols.dim()
            );
            let inv = inv_row * (1.0 / nb as f64);
            let triage = triage_pair::<D>(
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
                stats,
            );
            match triage {
                Triage::Settled(None) => {}
                Triage::Settled(Some(d)) => {
                    // A zero-norm admission: the waiting candidates precede it.
                    rescore_pending(p.cutoff, a, na, cols, &pending[..waiting], &mut keep);
                    waiting = 0;
                    keep(c, d);
                }
                Triage::Rescore => {
                    pending[waiting] = (c, nb);
                    waiting += 1;
                    if waiting == RESCORE_LANES {
                        rescore_pending(p.cutoff, a, na, cols, &pending, &mut keep);
                        waiting = 0;
                    }
                }
            }
        }
        rescore_pending(p.cutoff, a, na, cols, &pending[..waiting], &mut keep);
    }
    match dot {
        DotImpl::Portable => {
            run::<PortableDot>(&p, rows, r, na, inv_row, cols, candidates, stats, keep)
        }
        #[cfg(target_arch = "x86_64")]
        DotImpl::Avx2 => run::<Avx2Dot>(&p, rows, r, na, inv_row, cols, candidates, stats, keep),
    }
}

/// Re-scores the candidates `row_distances_below` deferred, `(c, ‖c‖)` in
/// candidate order, exactly against row `a` (norm `na`), and hands each one
/// strictly below `cutoff` to `keep` in that order.  A full set of
/// [`RESCORE_LANES`] goes through one [`exact_dots`]; a shorter tail through
/// [`exact_distance`] one at a time — the same bits either way.
fn rescore_pending(
    cutoff: f32,
    a: &[f32],
    na: f32,
    cols: &QuantizedSlab,
    pending: &[(usize, f32)],
    keep: &mut impl FnMut(usize, f32),
) {
    if let Ok(&lanes) = <&[(usize, f32); RESCORE_LANES]>::try_from(pending) {
        let dots = exact_dots(a, lanes.map(|(c, _)| cols.row(c)));
        for ((c, nb), dot) in lanes.into_iter().zip(dots) {
            let d = distance_from_dot(dot, na, nb);
            if d < cutoff {
                keep(c, d);
            }
        }
    } else {
        for &(c, nb) in pending {
            let d = exact_distance(a, cols.row(c), na, nb);
            if d < cutoff {
                keep(c, d);
            }
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
    use crate::embedder::splitmix64;

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

    /// [`sweep_below`] on a given integer-dot implementation.
    fn sweep_below_with(
        dot: DotImpl,
        rows: &QuantizedSlab,
        cols: &QuantizedSlab,
        cutoff: f32,
        stats: &mut KernelStats,
    ) -> SweepResult {
        let (mut pairs, mut costs) = (Vec::new(), Vec::new());
        sweep_with(dot, rows, cols, cutoff, stats, &mut |r, c, d| {
            pairs.push((r, c));
            costs.push(d);
        });
        (pairs, costs)
    }

    fn slabs(rows: &[Vector], cols: &[Vector]) -> (QuantizedSlab, QuantizedSlab) {
        let row_refs: Vec<&Vector> = rows.iter().collect();
        let col_refs: Vec<&Vector> = cols.iter().collect();
        (QuantizedSlab::from_vectors(&row_refs), QuantizedSlab::from_vectors(&col_refs))
    }

    fn dense(rows: &[Vector], cols: &[Vector], cutoff: f32) -> SweepResult {
        let row_refs: Vec<&Vector> = rows.iter().collect();
        let col_refs: Vec<&Vector> = cols.iter().collect();
        dense_sweep_below(&row_refs, &col_refs, cutoff)
    }

    fn sweep_both(
        dot: DotImpl,
        rows: &[Vector],
        cols: &[Vector],
        cutoff: f32,
    ) -> (SweepResult, SweepResult, KernelStats) {
        let (row_slab, col_slab) = slabs(rows, cols);
        let mut stats = KernelStats::default();
        let quantized = sweep_below_with(dot, &row_slab, &col_slab, cutoff, &mut stats);
        (dense(rows, cols, cutoff), quantized, stats)
    }

    /// `(pairs, cost bits)`: costs compared as bit patterns, so `-0.0` can
    /// never pass for `0.0`.
    fn bits(result: &SweepResult) -> (Vec<(usize, usize)>, Vec<u32>) {
        (result.0.clone(), result.1.iter().map(|d| d.to_bits()).collect())
    }

    /// Holds every entry point on `dot` to the dense sweep bit for bit: the
    /// tiled sweep, [`distance_below`] per pair, and [`row_distances_below`]
    /// per row, with the pair-level counters of all three equal.
    fn assert_every_entry_point_is_dense(
        dot: DotImpl,
        rows: &[Vector],
        cols: &[Vector],
        cutoff: f32,
    ) {
        let (row_slab, col_slab) = slabs(rows, cols);
        let expected = bits(&dense(rows, cols, cutoff));
        let mut sweep_stats = KernelStats::default();
        let swept = sweep_below_with(dot, &row_slab, &col_slab, cutoff, &mut sweep_stats);
        assert_eq!(bits(&swept), expected, "{dot:?} sweep at cutoff {cutoff}");
        assert_eq!(sweep_stats.int8_scored, sweep_stats.skipped + sweep_stats.rescored);
        assert_eq!(sweep_stats.classified(), rows.len() * cols.len());

        let mut pair_stats = KernelStats::default();
        let mut row_stats = KernelStats::default();
        let mut per_pair: SweepResult = (Vec::new(), Vec::new());
        let mut per_row: SweepResult = (Vec::new(), Vec::new());
        for r in 0..rows.len() {
            for c in 0..cols.len() {
                let found =
                    distance_below_with(dot, &row_slab, r, &col_slab, c, cutoff, &mut pair_stats);
                if let Some(d) = found {
                    per_pair.0.push((r, c));
                    per_pair.1.push(d);
                }
            }
            row_distances_below_with(
                dot,
                &row_slab,
                r,
                &col_slab,
                0..cols.len(),
                cutoff,
                &mut row_stats,
                |c, d| {
                    per_row.0.push((r, c));
                    per_row.1.push(d);
                },
            );
        }
        assert_eq!(bits(&per_pair), expected, "{dot:?} distance_below at cutoff {cutoff}");
        assert_eq!(bits(&per_row), expected, "{dot:?} row_distances_below at {cutoff}");
        // Same pair-level counters; only tile accounting differs.
        for stats in [pair_stats, row_stats] {
            assert_eq!(stats.int8_scored, sweep_stats.int8_scored, "{dot:?}");
            assert_eq!(stats.skipped, sweep_stats.skipped, "{dot:?}");
            assert_eq!(stats.rescored, sweep_stats.rescored, "{dot:?}");
            assert_eq!(stats.trivial, sweep_stats.trivial, "{dot:?}");
            assert_eq!(stats.blocks, 0);
        }
    }

    #[test]
    fn quantized_sweep_matches_dense_reference_bitwise() {
        let rows = test_vectors(70, 24, 1);
        let cols = test_vectors(53, 24, 2);
        for dot in supported_impls() {
            for cutoff in [0.05f32, 0.3, 0.8, 1.0, 1.4] {
                let (dense, quantized, stats) = sweep_both(dot, &rows, &cols, cutoff);
                assert_eq!(dense.0, quantized.0, "{dot:?}: pairs diverge at cutoff {cutoff}");
                assert_eq!(dense.1, quantized.1, "{dot:?}: costs diverge at cutoff {cutoff}");
                assert_eq!(stats.int8_scored, stats.skipped + stats.rescored);
                assert_eq!(stats.classified(), rows.len() * cols.len());
                assert!(stats.blocks > 0);
            }
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
        for dot in supported_impls() {
            let (dense_at, quant_at, _) = sweep_both(dot, &rows, &cols, 1.0);
            assert!(dense_at.0.is_empty());
            assert!(quant_at.0.is_empty(), "{dot:?}");
            let above = f32::from_bits(1.0f32.to_bits() + 1);
            let (dense_up, quant_up, _) = sweep_both(dot, &rows, &cols, above);
            assert_eq!(dense_up.0, vec![(0, 0)]);
            assert_eq!(quant_up.0, vec![(0, 0)], "{dot:?}");
            assert_eq!(dense_up.1[0].to_bits(), quant_up.1[0].to_bits(), "{dot:?}");
        }
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
        let (row_slab, col_slab) = slabs(&rows, &cols);
        assert_eq!(row_slab.max_rel_error_bound(), 0.0, "grid data must quantize exactly");
        assert_eq!(col_slab.max_rel_error_bound(), 0.0);

        let cutoff = 0.5f32;
        let (dense_pairs, dense_costs) = dense(&rows, &cols, cutoff);
        for dot in supported_impls() {
            let mut stats = KernelStats::default();
            let (pairs, costs) = sweep_below_with(dot, &row_slab, &col_slab, cutoff, &mut stats);
            assert_eq!(pairs, dense_pairs, "{dot:?}");
            assert_eq!(costs, dense_costs, "{dot:?}");
            // Only the accepted pair (row 0 with its identical column) was
            // ever re-scored; every rejected pair was proven away in int8.
            assert_eq!(stats.rescored, pairs.len(), "{dot:?}");
            assert_eq!(stats.skipped, rows.len() * cols.len() - pairs.len(), "{dot:?}");
            assert_eq!(stats.trivial, 0);
        }
    }

    #[test]
    fn zero_norm_pairs_classify_trivially() {
        let rows = vec![Vector::zeros(8), Vector::new(vec![1.0; 8])];
        let cols = vec![Vector::new(vec![1.0; 8]), Vector::zeros(8)];
        for dot in supported_impls() {
            // Distance to/from a zero vector is exactly 1.0: below a 1.5
            // cutoff, at-or-above a 1.0 cutoff.
            let (dense, quantized, stats) = sweep_both(dot, &rows, &cols, 1.5);
            assert_eq!(dense.0, quantized.0, "{dot:?}");
            assert_eq!(dense.1, quantized.1, "{dot:?}");
            assert!(quantized.0.contains(&(0, 0)) && quantized.0.contains(&(1, 1)));
            assert!(quantized.1.iter().filter(|&&d| d == 1.0).count() >= 3);
            assert_eq!(stats.trivial, 3, "{dot:?}");
            let (dense_tight, quant_tight, _) = sweep_both(dot, &rows, &cols, 1.0);
            assert_eq!(dense_tight.0, quant_tight.0, "{dot:?}");
            assert!(!quant_tight.0.contains(&(0, 0)));
        }
    }

    #[test]
    fn empty_and_dimless_slabs_sweep_to_nothing() {
        let empty = QuantizedSlab::from_vectors(&[]);
        let v = Vector::new(vec![1.0, 0.0]);
        let one = QuantizedSlab::from_vectors(&[&v]);
        let dimless = QuantizedSlab::from_rows([[].as_slice(), [].as_slice()]);
        for dot in supported_impls() {
            let mut stats = KernelStats::default();
            assert_eq!(sweep_below_with(dot, &empty, &one, 1.0, &mut stats).0.len(), 0);
            assert_eq!(sweep_below_with(dot, &one, &empty, 1.0, &mut stats).0.len(), 0);
            assert_eq!(stats, KernelStats::default());

            // A zero-dimensional side means every pair is zero-norm:
            // constant distance 1.0, admitted only under a looser-than-1.0
            // cutoff — exactly the dense behaviour, which never panics on
            // this shape.
            let (pairs, costs) = sweep_below_with(dot, &dimless, &one, 1.5, &mut stats);
            assert_eq!(pairs, vec![(0, 0), (1, 0)], "{dot:?}");
            assert_eq!(costs, vec![1.0, 1.0]);
            assert_eq!(stats.trivial, 2);
            let (none, _) = sweep_below_with(dot, &dimless, &one, 1.0, &mut stats);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn distance_below_agrees_with_the_sweep() {
        let rows = test_vectors(13, 20, 7);
        let cols = test_vectors(11, 20, 8);
        for dot in supported_impls() {
            assert_every_entry_point_is_dense(dot, &rows, &cols, 0.6);
        }
    }

    #[test]
    fn batched_rescores_match_one_distance_below_per_candidate() {
        // Every candidate count from 0 to 17 crosses zero, one and two full
        // eight-lane batches with every tail length.  Zero-norm columns sit
        // among the candidates and a cutoff above 1.0 admits them, so a
        // batch is flushed early; the candidate order is scrambled and
        // repeats a column.  Same kept list, same order, same bits, same
        // counters as one `distance_below` per candidate.
        let mut rows = test_vectors(3, 20, 11);
        rows.push(Vector::zeros(20));
        let mut cols = test_vectors(14, 20, 12);
        cols.insert(3, Vector::zeros(20));
        cols.insert(9, Vector::zeros(20));
        let (row_slab, col_slab) = slabs(&rows, &cols);
        let order: Vec<usize> = (0..18).map(|i| (i * 7 + 2) % cols.len()).collect();
        for dot in supported_impls() {
            for cutoff in [0.6f32, 1.2, 2.0] {
                for count in 0..=17 {
                    let candidates = &order[..count];
                    for r in 0..rows.len() {
                        let mut expected_stats = KernelStats::default();
                        let expected: Vec<(usize, u32)> = candidates
                            .iter()
                            .filter_map(|&c| {
                                distance_below_with(
                                    dot,
                                    &row_slab,
                                    r,
                                    &col_slab,
                                    c,
                                    cutoff,
                                    &mut expected_stats,
                                )
                                .map(|d| (c, d.to_bits()))
                            })
                            .collect();
                        let mut stats = KernelStats::default();
                        let mut kept = Vec::new();
                        row_distances_below_with(
                            dot,
                            &row_slab,
                            r,
                            &col_slab,
                            candidates.iter().copied(),
                            cutoff,
                            &mut stats,
                            |c, d| kept.push((c, d.to_bits())),
                        );
                        assert_eq!(kept, expected, "{dot:?} row {r}, {count} at {cutoff}");
                        assert_eq!(stats, expected_stats, "{dot:?} row {r}, {count} at {cutoff}");
                    }
                }
            }
        }
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
        for dot in supported_impls() {
            for cutoff in [0.4f32, 1.0] {
                assert_every_entry_point_is_dense(dot, &rows, &cols, cutoff);
            }
        }
    }

    /// A 48-wide row against a 16-wide column: the SIMD dot would read past
    /// the narrower row and the portable one would silently truncate, so the
    /// entry points must refuse the pair in release builds too.
    fn mismatched_widths() -> (QuantizedSlab, QuantizedSlab) {
        slabs(&[Vector::new(vec![0.5; 48])], &[Vector::new(vec![0.5; 16])])
    }

    #[test]
    #[should_panic(expected = "slab dimension mismatch")]
    fn distance_below_rejects_mismatched_slab_widths() {
        let (rows, cols) = mismatched_widths();
        distance_below(&rows, 0, &cols, 0, 2.0, &mut KernelStats::default());
    }

    #[test]
    #[should_panic(expected = "slab dimension mismatch")]
    fn row_distances_below_rejects_mismatched_slab_widths() {
        let (rows, cols) = mismatched_widths();
        row_distances_below(&rows, 0, &cols, [0], 2.0, &mut KernelStats::default(), |_, _| {});
    }

    #[test]
    fn zero_norm_sides_of_mismatched_widths_stay_trivial() {
        let wide = QuantizedSlab::from_vectors(&[&Vector::zeros(48)]);
        let (_, narrow) = mismatched_widths();
        let mut stats = KernelStats::default();
        assert_eq!(distance_below(&wide, 0, &narrow, 0, 1.5, &mut stats), Some(1.0));
        assert_eq!(distance_below(&narrow, 0, &wide, 0, 1.0, &mut stats), None);
        assert_eq!(stats.trivial, 2);
    }

    /// A seeded stand-in for `tests/kernel_equivalence.rs`'s proptest
    /// strategies, so the same shapes reach every implementation: dims 1–19
    /// (straddling [`SLAB_LANE`], so padding and multi-chunk rows both
    /// occur), up to 31 rows a side, components mixing ordinary values,
    /// exact zeros and ±1e6 / 1e-6 magnitudes, and cutoffs drawn at random
    /// as well as set exactly at (and one ulp above) observed distances.
    #[test]
    fn seeded_folds_are_bit_identical_on_every_impl() {
        let impls = supported_impls();
        let mut state = 0x6b65_726e_656cu64;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        for _ in 0..48 {
            let dim = 1 + (next() % 19) as usize;
            let side = |next: &mut dyn FnMut() -> u64| -> Vec<Vector> {
                (0..next() % 32)
                    .map(|_| {
                        Vector::new(
                            (0..dim)
                                .map(|_| {
                                    let unit = (next() >> 40) as f32 / (1u32 << 24) as f32;
                                    let x = unit * 3.0 - 1.5;
                                    match next() % 4 {
                                        0 => x,
                                        1 => 0.0,
                                        2 => x * 1.0e6,
                                        _ => x * 1.0e-6,
                                    }
                                })
                                .collect(),
                        )
                    })
                    .collect()
            };
            let rows = side(&mut next);
            let cols = side(&mut next);
            let mut cutoffs = vec![(next() >> 40) as f32 / (1u32 << 24) as f32 * 1.6];
            // Every observed distance, dense and exact: cutoff 2.0 admits
            // all.  At the distance itself the pair must be excluded
            // (strict θ); one ulp up it must be included.
            let mut observed: Vec<u32> =
                dense(&rows, &cols, 2.0).1.iter().map(|d| d.to_bits()).collect();
            observed.sort_unstable();
            observed.dedup();
            for &at in observed.iter().take(4) {
                cutoffs.push(f32::from_bits(at));
                cutoffs.push(f32::from_bits(at + 1));
            }
            for &dot in &impls {
                for &cutoff in &cutoffs {
                    assert_every_entry_point_is_dense(dot, &rows, &cols, cutoff);
                }
            }
        }
    }
}
