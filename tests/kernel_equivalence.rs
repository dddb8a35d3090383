//! Equivalence harness for the quantized scoring kernel.
//!
//! The int8 kernel (`lake_embed::kernel::sweep_below`) must be a faithful
//! optimisation of the dense f32 sweep: same pairs, same costs, bit for bit,
//! for every slab shape and threshold.  The property tests below drive random
//! slabs through both paths and compare the emitted candidate sets exactly —
//! including the adversarial regimes where the quantizer is weakest: cutoffs
//! that coincide *exactly* with an observed distance (strict-θ semantics),
//! zero-variance columns (degenerate quantization range), and rows whose
//! magnitudes differ by twelve orders (saturation pressure).
//!
//! Group-level equivalence of the full matcher over the kernel-backed exact
//! tier is covered by `tests/blocking_equivalence.rs`
//! (`autojoin_150_set_blocked_equals_exhaustive` et al.); this file pins the
//! kernel itself.

use datalake_fuzzy_fd::benchdata::generate_kernel_fold_columns;
use datalake_fuzzy_fd::embed::kernel::{self, dense_sweep_below, sweep_below};
use datalake_fuzzy_fd::embed::{EmbeddingModel, KernelStats, QuantizedSlab, Vector};
use proptest::prelude::*;

/// Runs the quantized sweep and the dense f32 reference over the same rows ×
/// cols fold and returns `(quantized, dense, stats)`.
#[allow(clippy::type_complexity, reason = "a one-off test helper returning both sides plus stats")]
fn run_both(
    rows: &[Vec<f32>],
    cols: &[Vec<f32>],
    cutoff: f32,
) -> ((Vec<(usize, usize)>, Vec<f32>), (Vec<(usize, usize)>, Vec<f32>), KernelStats) {
    let row_slab = QuantizedSlab::from_rows(rows.iter().map(|r| r.as_slice()));
    let col_slab = QuantizedSlab::from_rows(cols.iter().map(|c| c.as_slice()));
    let mut stats = KernelStats::default();
    let quantized = sweep_below(&row_slab, &col_slab, cutoff, &mut stats);

    let row_vecs: Vec<Vector> = rows.iter().map(|r| Vector::new(r.clone())).collect();
    let col_vecs: Vec<Vector> = cols.iter().map(|c| Vector::new(c.clone())).collect();
    let row_refs: Vec<&Vector> = row_vecs.iter().collect();
    let col_refs: Vec<&Vector> = col_vecs.iter().collect();
    let dense = dense_sweep_below(&row_refs, &col_refs, cutoff);
    (quantized, dense, stats)
}

/// Asserts the two sweeps agree bit for bit and the kernel's counters add up.
fn assert_bit_identical(rows: &[Vec<f32>], cols: &[Vec<f32>], cutoff: f32) {
    let ((q_pairs, q_costs), (d_pairs, d_costs), stats) = run_both(rows, cols, cutoff);
    assert_eq!(q_pairs, d_pairs, "pair sets diverged at cutoff {cutoff}");
    let q_bits: Vec<u32> = q_costs.iter().map(|d| d.to_bits()).collect();
    let d_bits: Vec<u32> = d_costs.iter().map(|d| d.to_bits()).collect();
    assert_eq!(q_bits, d_bits, "costs diverged bitwise at cutoff {cutoff}");
    assert_eq!(
        stats.int8_scored,
        stats.skipped + stats.rescored,
        "kernel counters disagree: {stats:?}"
    );
    assert_eq!(stats.classified(), rows.len() * cols.len(), "{stats:?}");
}

/// One slab side: up to 32 rows of the given dimension, each component drawn
/// from a mix of ordinary values, exact zeros (zero-variance pressure) and
/// huge/tiny magnitudes (saturation pressure).
fn rows_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    let component = prop_oneof![
        -1.5f32..1.5,
        Just(0.0f32),
        (-1.5f32..1.5).prop_map(|x| x * 1.0e6),
        (-1.5f32..1.5).prop_map(|x| x * 1.0e-6),
    ];
    prop::collection::vec(prop::collection::vec(component, dim..=dim), 0..32)
}

/// Both sides of a fold, sharing one random dimension (1–19, deliberately
/// straddling the slab lane width so padding is exercised).
fn fold_strategy() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<Vec<f32>>)> {
    (1usize..20).prop_flat_map(|dim| (rows_strategy(dim), rows_strategy(dim)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Random slabs, random thresholds: the quantized sweep emits exactly the
    /// dense sweep's pairs and costs.
    #[test]
    fn quantized_sweep_is_bit_identical_to_dense(
        (rows, cols) in fold_strategy(),
        cutoff in 0.0f32..1.6,
    ) {
        assert_bit_identical(&rows, &cols, cutoff);
    }

    /// Adversarial thresholds: every distance the fold actually produces is
    /// replayed as the cutoff itself (the pair must be *excluded* — strict θ)
    /// and as the next representable float up (the pair must be *included*,
    /// which forces the near-band through the exact f32 re-score).
    #[test]
    fn cutoffs_exactly_at_observed_distances_stay_bit_identical(
        (rows, cols) in fold_strategy(),
    ) {
        let row_vecs: Vec<Vector> = rows.iter().map(|r| Vector::new(r.clone())).collect();
        let col_vecs: Vec<Vector> = cols.iter().map(|c| Vector::new(c.clone())).collect();
        let row_refs: Vec<&Vector> = row_vecs.iter().collect();
        let col_refs: Vec<&Vector> = col_vecs.iter().collect();
        // Every observed distance, dense and exact: cutoff 2.0 admits all.
        let (_, all_distances) = dense_sweep_below(&row_refs, &col_refs, 2.0);
        let mut observed: Vec<u32> = all_distances.iter().map(|d| d.to_bits()).collect();
        observed.sort_unstable();
        observed.dedup();
        for bits in observed.into_iter().take(8) {
            let at = f32::from_bits(bits);
            assert_bit_identical(&rows, &cols, at);
            assert_bit_identical(&rows, &cols, f32::from_bits(bits + 1));
        }
    }
}

/// Zero-variance regimes: all-identical rows (the quantizer's degenerate
/// `hi == lo` range), all-zero rows (trivial distance-1 classification) and a
/// slab whose columns each hold a single repeated value.
#[test]
fn zero_variance_slabs_stay_bit_identical() {
    let constant: Vec<Vec<f32>> = vec![vec![0.25f32; 7]; 5];
    let zeros: Vec<Vec<f32>> = vec![vec![0.0f32; 7]; 4];
    let striped: Vec<Vec<f32>> =
        (0..6).map(|_| vec![1.0, -2.0, 0.0, 0.5, 1.0, -2.0, 0.25]).collect();
    for cutoff in [0.0, 0.5, 1.0, f32::from_bits(1.0f32.to_bits() + 1), 1.5] {
        assert_bit_identical(&constant, &constant, cutoff);
        assert_bit_identical(&constant, &zeros, cutoff);
        assert_bit_identical(&zeros, &striped, cutoff);
        assert_bit_identical(&striped, &constant, cutoff);
    }
}

/// Mixed magnitudes: rows twelve orders of magnitude apart share one slab, so
/// the small rows quantize to pure noise (relative error ≈ 1) and must all be
/// routed through the exact f32 re-score rather than mis-skipped.
#[test]
fn mixed_magnitude_slabs_stay_bit_identical() {
    let rows: Vec<Vec<f32>> = vec![
        vec![1.0e6, -2.0e6, 3.0e6, 0.0],
        vec![1.0e-6, 2.0e-6, -1.0e-6, 3.0e-6],
        vec![0.5, -0.25, 0.125, 1.0],
        vec![-1.0e6, 1.0e-6, 0.5, 0.0],
    ];
    let cols: Vec<Vec<f32>> = vec![
        vec![1.0e6, -2.0e6, 3.0e6, 1.0e-6],
        vec![-1.0e-6, -2.0e-6, 1.0e-6, -3.0e-6],
        vec![0.5, -0.25, 0.125, 1.0],
    ];
    for cutoff in [0.05, 0.3, 0.8, 1.0, 1.4] {
        assert_bit_identical(&rows, &cols, cutoff);
    }
}

/// Degenerate shapes: empty sides and dimension-zero slabs match the dense
/// sweep's semantics (no pairs, or all-trivial distance-1 pairs).
#[test]
fn degenerate_shapes_stay_bit_identical() {
    let empty: Vec<Vec<f32>> = Vec::new();
    let dimless: Vec<Vec<f32>> = vec![vec![], vec![]];
    let plain: Vec<Vec<f32>> = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
    for cutoff in [0.5, 1.0, f32::from_bits(1.0f32.to_bits() + 1), 1.5] {
        assert_bit_identical(&empty, &plain, cutoff);
        assert_bit_identical(&plain, &empty, cutoff);
        assert_bit_identical(&empty, &empty, cutoff);
        assert_bit_identical(&dimless, &dimless, cutoff);
    }
}

/// Real embeddings rather than proptest noise: the seeded 316 × 316 kernel
/// fold (~100k pairs of distinctive pseudo-word entities against their
/// surface variants) under the default model and the default matching
/// cutoff (θ 0.7 plus the exact channel's 0.1 slack).  Distances here
/// cluster the way a lake fold's do — a few near pairs, a mass far above the
/// cutoff — so the skip bound and the re-score band both carry real load.
#[test]
fn seeded_kernel_fold_stays_bit_identical() {
    let (canonical, noisy) = generate_kernel_fold_columns(316, 42);
    let embedder = EmbeddingModel::Mistral.build();
    let embed = |column: &[String]| -> Vec<Vec<f32>> {
        column.iter().map(|value| embedder.embed(value).components().to_vec()).collect()
    };
    assert_bit_identical(&embed(&canonical), &embed(&noisy), 0.8);
}

/// The per-pair entry point agrees with the sweep over a whole fold — the
/// escalated tier re-scores through `distance_below`, so its classifications
/// must carry the same bit-exact guarantee.
#[test]
fn per_pair_classification_matches_the_sweep() {
    let rows: Vec<Vec<f32>> =
        (0..9).map(|i| (0..5).map(|j| ((i * 5 + j) as f32 * 0.37).sin()).collect()).collect();
    let cols: Vec<Vec<f32>> =
        (0..7).map(|i| (0..5).map(|j| ((i * 5 + j) as f32 * 0.53).cos()).collect()).collect();
    let row_slab = QuantizedSlab::from_rows(rows.iter().map(|r| r.as_slice()));
    let col_slab = QuantizedSlab::from_rows(cols.iter().map(|c| c.as_slice()));
    for cutoff in [0.2, 0.7, 1.0, 1.3] {
        let mut sweep_stats = KernelStats::default();
        let (pairs, costs) = sweep_below(&row_slab, &col_slab, cutoff, &mut sweep_stats);
        let mut pair_stats = KernelStats::default();
        let mut found: Vec<((usize, usize), f32)> = Vec::new();
        for r in 0..row_slab.len() {
            for c in 0..col_slab.len() {
                if let Some(d) =
                    kernel::distance_below(&row_slab, r, &col_slab, c, cutoff, &mut pair_stats)
                {
                    found.push(((r, c), d));
                }
            }
        }
        let swept: Vec<((usize, usize), f32)> = pairs.iter().copied().zip(costs).collect();
        assert_eq!(found, swept, "cutoff {cutoff}");
        assert_eq!(pair_stats.int8_scored, sweep_stats.int8_scored, "cutoff {cutoff}");
        assert_eq!(pair_stats.rescored, sweep_stats.rescored, "cutoff {cutoff}");
        assert_eq!(pair_stats.skipped, sweep_stats.skipped, "cutoff {cutoff}");
    }
}
