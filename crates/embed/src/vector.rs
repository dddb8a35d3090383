//! Dense embedding vectors and the cosine geometry used for value matching,
//! plus the structure-of-arrays slab ([`QuantizedSlab`]) the scoring kernel
//! sweeps over.

/// The one distance tolerance shared by every tier that compares cosine
/// distances across evaluation strategies (tests, diagnostics, and the
/// kernel's re-score slop floor all derive from it).
///
/// θ comparisons themselves are *strict* and tolerance-free — a pair matches
/// iff `distance < θ` — in every tier: the dense sweep, the quantized kernel
/// (`lake_embed::kernel`), and the escalated ANN re-score all test the same
/// exact `f32` distance against the same θ.  This constant only bounds how
/// far two *different evaluation strategies* of the same mathematical
/// distance may drift (f32 vs f64 rounding), which is why the kernel's
/// re-score band is at least this wide.
pub const DISTANCE_EPSILON: f32 = 1e-5;

/// Whether two distances are equal within [`DISTANCE_EPSILON`].
///
/// This module is the workspace's designated home for float comparison
/// (the `float-eq` lint points every bare `== <literal>` here): comparing
/// a computed distance to a non-zero constant with `==` silently depends
/// on rounding, so such checks must go through this helper.  Comparisons
/// against literal `0.0` stay exempt — zero is exactly representable and
/// `norm == 0.0` is the idiomatic divide-by-zero guard.
pub fn approx_eq(a: f32, b: f32) -> bool {
    (a - b).abs() <= DISTANCE_EPSILON
}

/// [`approx_eq`] with a caller-chosen tolerance, for tiers that derive a
/// wider band from [`DISTANCE_EPSILON`] (e.g. the kernel's re-score slop).
pub fn approx_eq_within(a: f32, b: f32, tolerance: f32) -> bool {
    (a - b).abs() <= tolerance
}

/// Every [`QuantizedSlab`] int8 row is padded to a multiple of this many
/// components so the kernel's inner loops run over fixed-width chunks with no
/// per-pair bounds checks or remainder handling.
pub const SLAB_LANE: usize = 16;

/// A dense embedding vector (`f32` components).
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    components: Vec<f32>,
}

impl Vector {
    /// Creates a vector from raw components.
    pub fn new(components: Vec<f32>) -> Self {
        Vector { components }
    }

    /// The zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Vector { components: vec![0.0; dim] }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Raw components.
    pub fn components(&self) -> &[f32] {
        &self.components
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.components.iter().map(|c| c * c).sum::<f32>().sqrt()
    }

    /// `true` when every component is zero (or the vector is empty).
    pub fn is_zero(&self) -> bool {
        self.components.iter().all(|c| *c == 0.0)
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics when dimensions differ.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.dim(), other.dim(), "vector dimension mismatch");
        self.components.iter().zip(&other.components).map(|(a, b)| a * b).sum()
    }

    /// Adds `other * scale` into this vector in place.
    pub fn add_scaled(&mut self, other: &Vector, scale: f32) {
        assert_eq!(self.dim(), other.dim(), "vector dimension mismatch");
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            *a += b * scale;
        }
    }

    /// Returns a copy scaled to unit norm (zero vectors stay zero).
    pub fn normalized(&self) -> Vector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        Vector { components: self.components.iter().map(|c| c / n).collect() }
    }

    /// Cosine similarity in `[-1, 1]`.  Zero vectors have similarity 0 with
    /// everything (including other zero vectors) so that empty values never
    /// fuzzily match anything.
    pub fn cosine_similarity(&self, other: &Vector) -> f32 {
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (self.dot(other) / (na * nb)).clamp(-1.0, 1.0)
    }

    /// Cosine distance in `[0, 2]` (`1 - cosine_similarity`).
    pub fn cosine_distance(&self, other: &Vector) -> f32 {
        1.0 - self.cosine_similarity(other)
    }

    /// [`cosine_similarity`](Self::cosine_similarity) with both norms
    /// supplied by the caller.  Hot loops that compare the same vectors many
    /// times (cost-matrix construction) compute each norm once instead of
    /// per entry; the arithmetic is identical, so the result is bit-equal to
    /// the naive form.
    pub fn cosine_similarity_given_norms(
        &self,
        self_norm: f32,
        other: &Vector,
        other_norm: f32,
    ) -> f32 {
        if self_norm == 0.0 || other_norm == 0.0 {
            return 0.0;
        }
        (self.dot(other) / (self_norm * other_norm)).clamp(-1.0, 1.0)
    }

    /// [`cosine_distance`](Self::cosine_distance) with both norms supplied
    /// by the caller.
    pub fn cosine_distance_given_norms(
        &self,
        self_norm: f32,
        other: &Vector,
        other_norm: f32,
    ) -> f32 {
        1.0 - self.cosine_similarity_given_norms(self_norm, other, other_norm)
    }

    /// The element-wise mean of a non-empty set of vectors; `None` when the
    /// iterator is empty.  Used to build column-level signatures for schema
    /// matching.
    pub fn mean<'a>(vectors: impl IntoIterator<Item = &'a Vector>) -> Option<Vector> {
        let mut iter = vectors.into_iter();
        let first = iter.next()?;
        let mut acc = first.clone();
        let mut count = 1usize;
        for v in iter {
            acc.add_scaled(v, 1.0);
            count += 1;
        }
        let scale = 1.0 / count as f32;
        for c in &mut acc.components {
            *c *= scale;
        }
        Some(acc)
    }
}

/// A structure-of-arrays slab of embedding vectors: contiguous `f32` lanes
/// plus an asymmetric int8 scalar-quantized mirror, the storage layout the
/// scoring kernel ([`crate::kernel`]) sweeps over.
///
/// Both mirrors store rows back to back.  The f32 lanes hold the original
/// components bit-for-bit at the logical width, so a dot product over a slab
/// row is bit-identical to [`Vector::dot`] over the source vector.  The int8
/// mirror pads every row to a multiple of [`SLAB_LANE`] components, so the
/// kernel's integer loops see equal-length fixed-width slices (no per-pair
/// bounds checks, autovectorizer-friendly).
///
/// The int8 mirror uses one asymmetric affine quantizer per slab — scale `s`
/// and zero point `z` chosen from the slab-wide value range (always extended
/// to include `0.0`, so zero and the row padding are exactly representable):
/// `q(x) = clamp(round(x / s) + z, -128, 127)`, dequantized as `s · (q - z)`.
/// At build time the slab measures, per row, the *actual* relative
/// quantization error `‖x - x̂‖ / ‖x‖` from the dequantized values — not a
/// worst-case formula — so saturation and rounding are automatically
/// accounted for, and the kernel's error bound stays valid for any input.
///
/// ```
/// use lake_embed::{QuantizedSlab, Vector};
///
/// let a = Vector::new(vec![0.6, 0.8, 0.0]);
/// let b = Vector::new(vec![0.0, 1.0, 0.0]);
/// let slab = QuantizedSlab::from_vectors(&[&a, &b]);
/// assert_eq!((slab.len(), slab.dim()), (2, 3));
/// // The f32 lanes preserve the source components bit for bit …
/// assert_eq!(slab.row(0), a.components());
/// // … norms match Vector::norm exactly …
/// assert_eq!(slab.norm(1), b.norm());
/// // … and the int8 mirror is accurate to well under a percent here.
/// assert!(slab.rel_error_bound(0) < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSlab {
    len: usize,
    dim: usize,
    padded: usize,
    /// `len × dim` f32 components, row-major.
    lanes: Vec<f32>,
    /// `len × padded` quantized components, row-major, padded with the zero
    /// point (so padded entries dequantize to exactly `0.0`).
    quant: Vec<i8>,
    /// Per-row Euclidean norm, bit-identical to [`Vector::norm`].
    norms: Vec<f32>,
    /// Per-row sum of quantized components over the padded width (the
    /// kernel's integer dot product expansion consumes these).
    qsums: Vec<i64>,
    /// Per-row relative quantization error bound `‖x - x̂‖ / ‖x‖` (measured
    /// in f64 from the dequantized values; `0.0` for zero-norm rows).
    rel_err: Vec<f64>,
    scale: f32,
    zero_point: i8,
}

impl QuantizedSlab {
    /// Builds a slab from borrowed vectors.  See [`from_rows`](Self::from_rows).
    pub fn from_vectors(vectors: &[&Vector]) -> Self {
        Self::from_rows(vectors.iter().map(|v| v.components()))
    }

    /// Builds a slab from component slices.
    ///
    /// # Panics
    /// Panics when the rows do not all share one dimension — a slab is a
    /// rectangular block by construction (the dense sweep would panic on the
    /// first mixed-dimension dot product anyway) — or when that dimension
    /// exceeds `2²⁰` components, the width cap under which the kernel's
    /// i32-lane integer accumulators are provably overflow-free.
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let rows: Vec<&[f32]> = rows.into_iter().collect();
        let len = rows.len();
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(dim < (1 << 20), "slab width {dim} exceeds the kernel's 2^20-component cap");
        for row in &rows {
            assert_eq!(row.len(), dim, "vector dimension mismatch");
        }
        let padded = if dim == 0 { 0 } else { dim.div_ceil(SLAB_LANE) * SLAB_LANE };

        // Slab-wide value range, seeded with 0.0 so zero (and with it the row
        // padding) is always inside the quantized range.  NaN components fall
        // through min/max harmlessly; their rows get a NaN error bound, which
        // the kernel treats as "always re-score".
        let (mut lo, mut hi) = (0.0f32, 0.0f32);
        for row in &rows {
            for &x in *row {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        #[allow(
            clippy::float_cmp,
            reason = "the epsilon module: exact equality is the zero-spread test — hi and lo are \
                      a max and a min of the same components, not computed quantities"
        )]
        let (scale, zero_point) = if hi == lo {
            // All-zero slab: no spread to quantize (the textbook zero-scale
            // degeneracy).  Unit scale with zero point 0 represents every
            // component exactly.
            (1.0f32, 0i8)
        } else {
            let mut scale = ((hi as f64 - lo as f64) / 255.0) as f32;
            if !(scale > 0.0 && scale.is_finite()) {
                // A range so degenerate (underflow / infinities) that no
                // useful grid exists.  Any positive scale is *correct* —
                // the measured per-row error bound absorbs the imprecision.
                scale = 1.0;
            }
            let zero_point =
                (-128.0f64 - (lo as f64 / scale as f64).round()).clamp(-128.0, 127.0) as i8;
            (scale, zero_point)
        };

        let scale_f64 = scale as f64;
        let z_f64 = zero_point as f64;
        let mut lanes = Vec::with_capacity(len * dim);
        let mut quant = Vec::with_capacity(len * padded);
        let mut norms = Vec::with_capacity(len);
        let mut qsums = Vec::with_capacity(len);
        let mut rel_err = Vec::with_capacity(len);
        for row in &rows {
            lanes.extend_from_slice(row);
            let mut qsum = 0i64;
            let mut err2 = 0.0f64;
            let mut norm2 = 0.0f64;
            for &x in *row {
                // `as i8` saturates (and maps NaN to 0), but the clamp keeps
                // the arithmetic explicit and the measured error honest.
                let q = ((x as f64 / scale_f64).round() + z_f64).clamp(-128.0, 127.0) as i8;
                quant.push(q);
                qsum += q as i64;
                let dequantized = scale_f64 * (q as f64 - z_f64);
                err2 += (x as f64 - dequantized) * (x as f64 - dequantized);
                norm2 += x as f64 * x as f64;
            }
            quant.resize(quant.len() + (padded - dim), zero_point);
            qsum += (padded - dim) as i64 * zero_point as i64;
            // Bit-identical to `Vector::norm`: same expression, same order.
            norms.push(row.iter().map(|c| c * c).sum::<f32>().sqrt());
            qsums.push(qsum);
            rel_err.push(if norm2 == 0.0 { 0.0 } else { err2.sqrt() / norm2.sqrt() });
        }
        QuantizedSlab { len, dim, padded, lanes, quant, norms, qsums, rel_err, scale, zero_point }
    }

    /// Number of vectors in the slab.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the slab holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Padded (stored) width of every int8 row — [`dim`](Self::dim) rounded
    /// up to a multiple of [`SLAB_LANE`].
    pub fn padded_dim(&self) -> usize {
        self.padded
    }

    /// The slab's quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The slab's quantization zero point (`0.0` quantizes to exactly this).
    pub fn zero_point(&self) -> i8 {
        self.zero_point
    }

    /// Row `i`'s original f32 components.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.lanes[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i`'s quantized mirror at full padded width.
    pub fn quant_row(&self, i: usize) -> &[i8] {
        &self.quant[i * self.padded..(i + 1) * self.padded]
    }

    /// Row `i`'s Euclidean norm, bit-identical to [`Vector::norm`] of the
    /// source vector.
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// Sum of row `i`'s quantized components over the padded width.
    pub fn qsum(&self, i: usize) -> i64 {
        self.qsums[i]
    }

    /// Row `i`'s measured relative quantization error `‖x - x̂‖ / ‖x‖`
    /// (`0.0` for zero-norm rows; `NaN` when the row held non-finite values,
    /// which the kernel reads as "never trust the estimate").
    pub fn rel_error_bound(&self, i: usize) -> f64 {
        self.rel_err[i]
    }

    /// The largest per-row relative error bound in the slab (`0.0` when
    /// empty).  `NaN` bounds propagate so callers cannot mistake a poisoned
    /// slab for an exact one.
    pub fn max_rel_error_bound(&self) -> f64 {
        self.rel_err.iter().fold(0.0f64, |acc, &e| if e > acc || e.is_nan() { e } else { acc })
    }

    /// The whole int8 mirror (`len × padded_dim` components, row-major,
    /// zero-point-padded) for tile-slicing kernels.
    pub fn quant_lanes(&self) -> &[i8] {
        &self.quant
    }

    /// All per-row norms, aligned with row order.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// All per-row quantized-component sums, aligned with row order.
    pub fn qsums(&self) -> &[i64] {
        &self.qsums
    }

    /// All per-row relative quantization error bounds, aligned with row
    /// order.
    pub fn rel_error_bounds(&self) -> &[f64] {
        &self.rel_err
    }

    /// Row `i` dequantized from the int8 mirror (logical width).  Intended
    /// for tests and diagnostics — the kernel never materialises this.
    pub fn dequantized(&self, i: usize) -> Vector {
        let scale = self.scale as f64;
        let z = self.zero_point as f64;
        Vector::new(
            self.quant_row(i)[..self.dim]
                .iter()
                .map(|&q| (scale * (q as f64 - z)) as f32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        let a = Vector::new(vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < DISTANCE_EPSILON);
        let b = Vector::new(vec![1.0, 0.0]);
        assert!((a.dot(&b) - 3.0).abs() < DISTANCE_EPSILON);
    }

    #[test]
    fn cosine_similarity_range_and_identity() {
        let a = Vector::new(vec![1.0, 2.0, 3.0]);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < DISTANCE_EPSILON);
        let opposite = Vector::new(vec![-1.0, -2.0, -3.0]);
        assert!((a.cosine_similarity(&opposite) + 1.0).abs() < DISTANCE_EPSILON);
        let orthogonal = Vector::new(vec![0.0, 0.0, 0.0]);
        assert_eq!(a.cosine_similarity(&orthogonal), 0.0);
    }

    #[test]
    fn cosine_distance_complements_similarity() {
        let a = Vector::new(vec![1.0, 0.0]);
        let b = Vector::new(vec![0.0, 1.0]);
        assert!((a.cosine_distance(&b) - 1.0).abs() < DISTANCE_EPSILON);
        assert!((a.cosine_distance(&a)).abs() < DISTANCE_EPSILON);
    }

    #[test]
    fn given_norms_variant_is_bit_identical() {
        let a = Vector::new(vec![0.3, -1.2, 0.7]);
        let b = Vector::new(vec![-0.9, 0.1, 2.0]);
        let (na, nb) = (a.norm(), b.norm());
        assert_eq!(a.cosine_similarity(&b), a.cosine_similarity_given_norms(na, &b, nb));
        assert_eq!(a.cosine_distance(&b), a.cosine_distance_given_norms(na, &b, nb));
        let zero = Vector::zeros(3);
        assert_eq!(zero.cosine_distance_given_norms(0.0, &b, nb), 1.0);
    }

    #[test]
    fn zero_vectors_never_match() {
        let z = Vector::zeros(4);
        let a = Vector::new(vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(z.cosine_similarity(&a), 0.0);
        assert_eq!(z.cosine_similarity(&z), 0.0);
        assert!(z.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = Vector::new(vec![2.0, 0.0, 0.0]);
        assert!((a.normalized().norm() - 1.0).abs() < DISTANCE_EPSILON);
        let z = Vector::zeros(3);
        assert!(z.normalized().is_zero());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Vector::zeros(2);
        a.add_scaled(&Vector::new(vec![1.0, 2.0]), 0.5);
        a.add_scaled(&Vector::new(vec![1.0, 0.0]), 1.0);
        assert_eq!(a.components(), &[1.5, 1.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = Vector::new(vec![1.0, 0.0]);
        let b = Vector::new(vec![3.0, 2.0]);
        let m = Vector::mean([&a, &b]).unwrap();
        assert_eq!(m.components(), &[2.0, 1.0]);
        assert!(Vector::mean(std::iter::empty()).is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_panics_on_dim_mismatch() {
        Vector::new(vec![1.0]).dot(&Vector::new(vec![1.0, 2.0]));
    }

    #[test]
    fn slab_preserves_f32_lanes_and_norms_bitwise() {
        let vectors: Vec<Vector> = (0..5)
            .map(|i| Vector::new((0..7).map(|j| ((i * 7 + j) as f32 * 0.37).sin()).collect()))
            .collect();
        let refs: Vec<&Vector> = vectors.iter().collect();
        let slab = QuantizedSlab::from_vectors(&refs);
        assert_eq!(slab.len(), 5);
        assert_eq!(slab.dim(), 7);
        assert_eq!(slab.padded_dim(), SLAB_LANE);
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(slab.row(i), v.components());
            assert_eq!(slab.norm(i), v.norm());
            assert_eq!(slab.quant_row(i).len(), slab.padded_dim());
            // Padding dequantizes to exactly zero.
            for &q in &slab.quant_row(i)[slab.dim()..] {
                assert_eq!(q, slab.zero_point());
            }
            assert_eq!(slab.qsum(i), slab.quant_row(i).iter().map(|&q| q as i64).sum::<i64>());
        }
    }

    #[test]
    fn empty_and_single_row_slabs() {
        let empty = QuantizedSlab::from_vectors(&[]);
        assert!(empty.is_empty());
        assert_eq!((empty.len(), empty.dim(), empty.padded_dim()), (0, 0, 0));
        assert_eq!(empty.max_rel_error_bound(), 0.0);

        let v = Vector::new(vec![0.25, -0.75]);
        let single = QuantizedSlab::from_vectors(&[&v]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.row(0), v.components());
        assert_eq!(single.norm(0), v.norm());
        assert!(single.rel_error_bound(0) < 0.05, "{}", single.rel_error_bound(0));

        // Zero-dimensional rows are legal: nothing to quantize, zero norms.
        let dimless = QuantizedSlab::from_rows([[].as_slice(), [].as_slice()]);
        assert_eq!((dimless.len(), dimless.dim(), dimless.padded_dim()), (2, 0, 0));
        assert_eq!(dimless.norm(0), 0.0);
        assert_eq!(dimless.rel_error_bound(1), 0.0);
    }

    #[test]
    fn all_equal_vectors_quantize_with_degenerate_range() {
        // All-zero slab: the min == max == 0 range has no spread at all (the
        // textbook zero-scale case); the build falls back to a unit scale and
        // represents every component exactly.
        let z = Vector::zeros(4);
        let zeros = QuantizedSlab::from_vectors(&[&z, &z]);
        assert_eq!(zeros.scale(), 1.0);
        assert_eq!(zeros.zero_point(), 0);
        assert_eq!(zeros.rel_error_bound(0), 0.0);
        assert_eq!(zeros.max_rel_error_bound(), 0.0);
        assert!(zeros.quant_row(0).iter().all(|&q| q == 0));

        // All components equal and non-zero: the zero-extended range is
        // [0, v], every component sits on the top grid point, and the
        // measured relative error stays at quantization-grid magnitude.
        let v = Vector::new(vec![0.625; 6]);
        let equal = QuantizedSlab::from_vectors(&[&v, &v, &v]);
        assert!(equal.scale() > 0.0);
        for i in 0..equal.len() {
            assert!(equal.rel_error_bound(i) < 1e-2, "{}", equal.rel_error_bound(i));
        }
        let back = equal.dequantized(0);
        for (&x, &y) in v.components().iter().zip(back.components()) {
            assert!((x - y).abs() <= equal.scale(), "{x} vs {y}");
        }
    }

    #[test]
    fn saturating_extremes_stay_covered_by_the_measured_bound() {
        // One huge outlier forces a coarse grid; the small components all
        // collapse onto the zero point.  The measured per-row bound must own
        // up to that (large relative error), never under-report it.
        let outlier = Vector::new(vec![1.0e6, 0.0, 0.0, 0.0]);
        let tiny = Vector::new(vec![1.0e-3, -2.0e-3, 5.0e-4, 0.0]);
        let slab = QuantizedSlab::from_vectors(&[&outlier, &tiny]);
        // The tiny row is annihilated by the coarse grid: x̂ = 0, so the
        // measured relative error is exactly 1.
        assert!((slab.rel_error_bound(1) - 1.0).abs() < 1e-12, "{}", slab.rel_error_bound(1));
        assert!(slab.dequantized(1).is_zero());
        // The outlier row itself is representable to grid precision.
        assert!(slab.rel_error_bound(0) < 1e-2, "{}", slab.rel_error_bound(0));
        // And the measured bound really bounds the dequantization residual.
        for (i, v) in [&outlier, &tiny].into_iter().enumerate() {
            let back = slab.dequantized(i);
            let err2: f64 = v
                .components()
                .iter()
                .zip(back.components())
                .map(|(&x, &y)| (x as f64 - y as f64) * (x as f64 - y as f64))
                .sum();
            let norm: f64 = v.components().iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
            assert!(err2.sqrt() / norm <= slab.rel_error_bound(i) + 1e-12);
        }
    }

    #[test]
    fn zero_is_exactly_representable_in_every_slab() {
        // The quantized range always includes 0.0, so mixed-sign slabs
        // dequantize zero components back to exactly zero — the property the
        // row padding relies on.
        let a = Vector::new(vec![-3.0, 0.0, 7.0, 0.0]);
        let slab = QuantizedSlab::from_vectors(&[&a]);
        let back = slab.dequantized(0);
        assert_eq!(back.components()[1], 0.0);
        assert_eq!(back.components()[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn slab_rejects_mixed_dimensions() {
        let a = Vector::new(vec![1.0, 2.0]);
        let b = Vector::new(vec![1.0]);
        QuantizedSlab::from_vectors(&[&a, &b]);
    }
}
