//! FastText-style hashing n-gram embedder and SimHash signatures.
//!
//! Two related pieces live here:
//!
//! * [`HashingNgramEmbedder`] — each padded character n-gram and each word
//!   token of the (normalised) input is hashed to a deterministic
//!   pseudo-random direction; the value embedding is the normalised sum.
//!   Two strings that share many character n-grams (typos, case changes,
//!   plural/singular, small edits) get high cosine similarity; strings with
//!   disjoint surfaces (e.g. `"Germany"` vs `"DE"`) do not — exactly the
//!   strength and the weakness the paper reports for FastText in Table 1.
//! * [`SimHasher`] — random-hyperplane LSH over any embedding vector:
//!   compact bit signatures
//!   ([`slab_signatures_into`](SimHasher::slab_signatures_into))
//!   and query-directed multi-probe sequences of banded collision keys
//!   ([`probe_packed_keys_into`](SimHasher::probe_packed_keys_into), keyed by
//!   [`packed_band_key`]) that power the [`AnnIndex`](crate::AnnIndex) behind
//!   the fuzzy value matcher's escalated blocking tier.

use lake_text::TextScanner;

use crate::directions::{embed_batch_of, seeded_direction_into, Batch};
use crate::embedder::{Embedder, Fnv1a};
use crate::vector::{total_order_bits, QuantizedSlab, Vector};

/// Packs one SimHash band collision key into a `u64`: band id in the high
/// bits, band signature (bucket) in the low `band_bits` bits — a band's
/// bucket made unique across bands.  For narrow bands the keys form a small
/// dense range, so bucket tables index on them directly and nothing
/// materialises a `String` per band per vector.
///
/// Distinct `(band, bucket)` inputs map to distinct keys by construction
/// (the bucket occupies exactly `band_bits` bits, the band the bits above).
#[inline]
pub fn packed_band_key(band: usize, band_bits: usize, bucket: u64) -> u64 {
    debug_assert!(band_bits > 0 && band_bits <= 64);
    debug_assert!(band_bits == 64 || bucket < (1u64 << band_bits));
    if band_bits >= 64 {
        // A 64-bit band is the whole signature: only band 0 exists.
        bucket
    } else {
        ((band as u64) << band_bits) | bucket
    }
}

/// Configuration and state of the hashing n-gram embedder.
#[derive(Debug, Clone)]
pub struct HashingNgramEmbedder {
    name: String,
    dim: usize,
    min_ngram: usize,
    max_ngram: usize,
    word_weight: f32,
}

impl HashingNgramEmbedder {
    /// Default configuration: 64 dimensions, n-grams of length 2–4, word
    /// tokens weighted slightly higher than character n-grams.
    pub fn new() -> Self {
        HashingNgramEmbedder::with_config(64, 2, 4, 2.5)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `min_ngram == 0` or `min_ngram > max_ngram`.
    pub fn with_config(dim: usize, min_ngram: usize, max_ngram: usize, word_weight: f32) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(min_ngram > 0 && min_ngram <= max_ngram, "invalid n-gram range");
        HashingNgramEmbedder {
            name: "FastText".to_string(),
            dim,
            min_ngram,
            max_ngram,
            word_weight,
        }
    }

    /// Overrides the reported model name (used when the embedder is wrapped
    /// by a simulated LM).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Feeds the *surface form* of the value loaded in `text` into `batch`:
    /// one direction per padded character n-gram, then one weighted
    /// direction per word token.  [`SimulatedLmEmbedder`] feeds the same
    /// terms ahead of its semantic ones.
    ///
    /// [`SimulatedLmEmbedder`]: crate::SimulatedLmEmbedder
    pub(crate) fn surface_terms(&self, text: &TextScanner, batch: &mut Batch<'_>) {
        for n in self.min_ngram..=self.max_ngram {
            let salt = (n as u64).wrapping_mul(0x51_7c_c1_b7);
            for gram in text.padded_ngrams(n) {
                batch.add(Fnv1a::new().chars(gram).finish() ^ salt, 1.0);
            }
        }
        for word in text.words() {
            batch.add(Fnv1a::new().chars(word).finish() ^ WORD_SALT, self.word_weight);
        }
    }
}

// Salt separating the word-token hash space from the n-gram hash space.
const WORD_SALT: u64 = 0xDEAD_BEEF_1234_5678;

// Salt separating SimHash hyperplane seeds from every other direction seed.
const SIMHASH_SALT: u64 = 0x51A4_7E05_6B1C_93D7;

/// Hyperplanes [`SimHasher`] projects onto per pass over a vector: eight
/// independent sums, so the adds of one pass do not wait on each other.
const LANES: usize = 8;

/// The seed of SimHash hyperplane `bit`.
fn hyperplane_seed(bit: usize) -> u64 {
    SIMHASH_SALT ^ (bit as u64).wrapping_mul(0x9E37_79B9_97F4_A7C1)
}

/// Locality-sensitive signature generator over embedding vectors
/// (SimHash / random-hyperplane LSH, Charikar 2002).
///
/// Each signature bit is the sign of the vector's projection onto one fixed
/// pseudo-random hyperplane; vectors at small cosine distance agree on most
/// bits.  [`probe_packed_keys_into`](Self::probe_packed_keys_into) splits the
/// signature into bands so that close vectors collide on at least one band
/// bucket with high probability — the embedding-bucket blocking used by the
/// fuzzy value matcher for semantic matches (aliases, codes) that share no
/// surface key.
///
/// Hyperplane directions depend only on `(bit index, dimension)`, so
/// signatures are comparable across embedders of the same dimension and
/// stable across runs.
#[derive(Debug, Clone)]
pub struct SimHasher {
    bits: usize,
    dim: usize,
    /// The hyperplanes, [`LANES`] to a group and interleaved within it:
    /// component `k` of hyperplane `LANES · g + l` is
    /// `planes[g · dim + k][l]`.  Lanes past `bits` in the last group are
    /// zero, and their sums are dropped.
    planes: Vec<[f32; LANES]>,
}

impl SimHasher {
    /// Creates a hasher producing `bits`-bit signatures for `dim`-dimensional
    /// vectors.
    ///
    /// # Panics
    /// Panics if `bits == 0`, `bits > 64` or `dim == 0`.
    pub fn new(bits: usize, dim: usize) -> Self {
        assert!(bits > 0 && bits <= 64, "signature width must be in 1..=64");
        assert!(dim > 0, "vector dimension must be positive");
        let mut planes = vec![[0.0f32; LANES]; bits.div_ceil(LANES) * dim];
        let mut direction = vec![0.0f32; dim];
        for bit in 0..bits {
            seeded_direction_into(hyperplane_seed(bit), &mut direction);
            let group = &mut planes[bit / LANES * dim..(bit / LANES + 1) * dim];
            for (lanes, &component) in group.iter_mut().zip(&direction) {
                lanes[bit % LANES] = component;
            }
        }
        SimHasher { bits, dim, planes }
    }

    /// Signature width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// One SimHash signature per slab row (bit *i* is the sign of the
    /// projection onto hyperplane *i*), appended to `out` (which is cleared
    /// first).  The slab keeps all rows contiguous in a single resident
    /// allocation, so the batch is one matrix sweep with one projection
    /// buffer for all rows; every signature is bit-identical to hashing the
    /// row's source vector.
    ///
    /// # Panics
    /// Panics when the slab is non-empty and its dimension differs from the
    /// hasher's.
    pub fn slab_signatures_into(&self, slab: &QuantizedSlab, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(slab.len());
        let mut projections = Vec::with_capacity(self.planes.len() / self.dim * LANES);
        for i in 0..slab.len() {
            self.projections_into(slab.row(i), &mut projections);
            out.push(sign_bits(&projections));
        }
    }

    /// The raw hyperplane projections of a component slice, into a
    /// caller-provided buffer (cleared first) that probing loops reuse: bit
    /// *i* of the signature is set iff `out[i] >= 0`.  The magnitude
    /// `|out[i]|` is the *margin* of bit *i* — how far the vector sits from
    /// hyperplane *i*.  Low-margin bits are the ones a near-duplicate is
    /// most likely to flip, which is what query-directed multi-probing
    /// ([`probe_packed_keys_into`](Self::probe_packed_keys_into)) exploits.
    ///
    /// One pass over the components feeds [`LANES`] hyperplanes at once.
    /// Each lane sums its own products in component order, starting from
    /// the `-0.0` that `f32`'s `Sum` starts from, so `out[i]` is
    /// [`Vector::dot`] of the vector and hyperplane *i*, bit for bit: a
    /// [`QuantizedSlab`] row projects (and hashes) exactly like its source
    /// vector.
    ///
    /// # Panics
    /// Panics when the slice length differs from the hasher's dimension.
    fn projections_into(&self, components: &[f32], out: &mut Vec<f32>) {
        assert_eq!(components.len(), self.dim, "vector dimensions differ");
        out.clear();
        for group in self.planes.chunks_exact(self.dim) {
            let mut sums = [-0.0f32; LANES];
            for (&x, planes) in components.iter().zip(group) {
                for lane in 0..LANES {
                    sums[lane] += x * planes[lane];
                }
            }
            out.extend_from_slice(&sums);
        }
        out.truncate(self.bits);
    }

    /// Query-directed multi-probe banded LSH keys (Lv et al., *Multi-Probe
    /// LSH*, VLDB 2007).  The signature is split into `bits() / band_bits`
    /// contiguous bands; two vectors collide iff they agree on every bit of
    /// at least one band.  For every band this emits, as [`packed_band_key`]s
    /// into `out` (cleared first), the `probes` most promising buckets — the
    /// vector's own bucket first, then perturbed buckets obtained by flipping
    /// subsets of the band's bits in order of increasing total flipped
    /// margin (the sum of `|projection|` over the flipped bits).  A
    /// near-duplicate indexed under its exact bucket is found as soon as the
    /// bits it disagrees on are a low-margin subset of the query's band, so
    /// probing multiplies recall without widening the index.
    ///
    /// Each band contributes `min(probes, 2^band_bits)` distinct keys, in
    /// band order; `probes == 1` is exact banding (one key per band).  Every
    /// intermediate buffer is drawn from `scratch`, so a probing loop
    /// performs zero allocations per vector after warm-up.
    ///
    /// ```
    /// use lake_embed::{Embedder, HashingNgramEmbedder, ProbeScratch, SimHasher};
    ///
    /// let embedder = HashingNgramEmbedder::new();
    /// let hasher = SimHasher::new(32, embedder.dim());
    /// let mut scratch = ProbeScratch::default();
    /// let (mut keys, mut close) = (Vec::new(), Vec::new());
    /// let barcelona = embedder.embed("Barcelona");
    /// hasher.probe_packed_keys_into(barcelona.components(), 4, 1, &mut scratch, &mut keys);
    /// assert_eq!(keys.len(), 8); // 32 bits / 4 bits per band
    /// // A near-duplicate agrees on at least one full band.
    /// let typo = embedder.embed("Barcelonna");
    /// hasher.probe_packed_keys_into(typo.components(), 4, 1, &mut scratch, &mut close);
    /// assert!(keys.iter().any(|key| close.contains(key)));
    /// ```
    ///
    /// # Panics
    /// Panics if `probes == 0`, if `band_bits` is `0` or does not divide
    /// [`bits`](Self::bits), or if the slice length differs from the
    /// hasher's dimension.
    pub fn probe_packed_keys_into(
        &self,
        components: &[f32],
        band_bits: usize,
        probes: usize,
        scratch: &mut ProbeScratch,
        out: &mut Vec<u64>,
    ) {
        assert!(probes > 0, "at least one probe per band is required");
        assert!(
            band_bits > 0 && self.bits().is_multiple_of(band_bits),
            "band width must divide the signature width"
        );
        out.clear();
        self.projections_into(components, &mut scratch.projections);
        let mask = if band_bits == 64 { u64::MAX } else { (1u64 << band_bits) - 1 };
        let signature = sign_bits(&scratch.projections);
        for band in 0..self.bits() / band_bits {
            let base = (signature >> (band * band_bits)) & mask;
            out.push(packed_band_key(band, band_bits, base));
            let margins = &scratch.projections[band * band_bits..(band + 1) * band_bits];
            perturbation_sequence_into(
                margins,
                probes - 1,
                &mut scratch.ranked,
                &mut scratch.heap,
                &mut scratch.flips,
            );
            for &flips in scratch.flips.iter() {
                out.push(packed_band_key(band, band_bits, base ^ flips));
            }
        }
    }
}

/// The signature of a projection list: bit *i* set iff `projections[i] >= 0`.
fn sign_bits(projections: &[f32]) -> u64 {
    let mut signature = 0u64;
    for (bit, &projection) in projections.iter().enumerate() {
        if projection >= 0.0 {
            signature |= 1 << bit;
        }
    }
    signature
}

/// Reusable buffers for
/// [`probe_packed_keys_into`](SimHasher::probe_packed_keys_into): one
/// instance per probing loop amortises every per-vector allocation.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    projections: Vec<f32>,
    ranked: Vec<(u32, u64, f32)>,
    heap: Vec<Perturbation>,
    flips: Vec<u64>,
}

/// One candidate perturbation during best-first enumeration: `score` is the
/// total flipped margin, `last` the largest margin-sorted index in the set
/// (the expansion frontier), and `rank` its place in the enumeration order,
/// which carries the flip mask over the band's bits in its low 64 bits.
#[derive(Debug)]
struct Perturbation {
    rank: u128,
    score: f32,
    last: usize,
}

impl Perturbation {
    fn new(score: f32, last: usize, xor: u64) -> Self {
        // `score` in `f32::total_cmp` order, ties broken by the flip mask,
        // as one integer: a single compare per heap entry, no branch chain.
        let rank = (u128::from(total_order_bits(score)) << 64) | u128::from(xor);
        Perturbation { rank, score, last }
    }

    /// The flip mask.
    fn xor(&self) -> u64 {
        self.rank as u64
    }
}

/// The first `count` non-empty bit-flip subsets of a band (at most all
/// `2^bits − 1` of them), ordered by increasing total flipped margin (ties
/// broken by flip mask for determinism).  This is the classic best-first
/// probe-sequence generator: starting from the single lowest-margin flip,
/// each popped subset spawns an *expand* step (add the next-ranked bit) and a
/// *shift* step (replace its frontier bit with the next-ranked one), which
/// enumerates subsets in exactly nondecreasing score order.  `ranked`/`heap`
/// come from the caller and the flip masks land in `out` (cleared first), so
/// a probing loop performs zero allocations per band after warm-up.
///
/// Both orders compare integers: margins and scores by their
/// [`total_order_bits`], which orders exactly as [`f32::total_cmp`] does for
/// every `f32`, NaN included.
fn perturbation_sequence_into(
    margins: &[f32],
    count: usize,
    ranked: &mut Vec<(u32, u64, f32)>,
    heap: &mut Vec<Perturbation>,
    out: &mut Vec<u64>,
) {
    out.clear();
    let bits = margins.len();
    let count = count.min((1usize << bits.min(20)) - 1);
    if count == 0 || bits == 0 {
        return;
    }
    // Rank the band's bits by |margin|, cheapest flip first, ties to the
    // lower bit: `(order key, flip mask, margin)` per rank.
    ranked.clear();
    ranked.extend(
        margins
            .iter()
            .enumerate()
            .map(|(bit, m)| (total_order_bits(m.abs()), 1u64 << bit, m.abs())),
    );
    ranked.sort_unstable_by_key(|&(key, mask, _)| (key, mask));
    let cost = |rank: usize| ranked[rank].2;
    let mask = |rank: usize| ranked[rank].1;

    heap.clear();
    heap.push(Perturbation::new(cost(0), 0, mask(0)));
    out.reserve(count);
    while out.len() < count {
        if heap.is_empty() {
            break;
        }
        let mut best = 0;
        let mut best_rank = heap[0].rank;
        for (i, p) in heap.iter().enumerate().skip(1) {
            if p.rank < best_rank {
                best = i;
                best_rank = p.rank;
            }
        }
        let next = heap.swap_remove(best);
        out.push(next.xor());
        let frontier = next.last + 1;
        if frontier < bits {
            // Expand: add the next-ranked bit to the set.
            heap.push(Perturbation::new(
                next.score + cost(frontier),
                frontier,
                next.xor() | mask(frontier),
            ));
            // Shift: replace the frontier bit with the next-ranked one.
            heap.push(Perturbation::new(
                next.score - cost(next.last) + cost(frontier),
                frontier,
                (next.xor() & !mask(next.last)) | mask(frontier),
            ));
        }
    }
}

impl Default for HashingNgramEmbedder {
    fn default() -> Self {
        HashingNgramEmbedder::new()
    }
}

impl Embedder for HashingNgramEmbedder {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_many(&self, values: &[&str]) -> Vec<Vector> {
        embed_batch_of(values, self.dim, |_, text, _, batch| self.surface_terms(text, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directions::seeded_direction;
    use crate::vector::DISTANCE_EPSILON;
    use proptest::prelude::*;

    /// The reference projection: a sequential dot product over raw slices,
    /// in exactly the accumulation order of [`Vector::dot`].
    fn dot_slice(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "vector dimensions differ");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The reference projections of `components` onto a `bits`-bit
    /// hasher's hyperplanes, one `dot_slice` per hyperplane.
    fn reference_projections(bits: usize, components: &[f32]) -> Vec<f32> {
        (0..bits)
            .map(|bit| {
                let plane = seeded_direction(hyperplane_seed(bit), components.len());
                dot_slice(components, plane.components())
            })
            .collect()
    }

    /// The reference signature: the sign bits of the reference projections.
    fn signature_of(hasher: &SimHasher, components: &[f32]) -> u64 {
        sign_bits(&reference_projections(hasher.bits(), components))
    }

    #[test]
    fn deterministic() {
        let e = HashingNgramEmbedder::new();
        assert_eq!(e.embed("Berlin"), e.embed("Berlin"));
        assert_eq!(e.dim(), 64);
        assert_eq!(e.name(), "FastText");
    }

    #[test]
    fn typos_are_close_unrelated_far() {
        let e = HashingNgramEmbedder::new();
        let typo = e.distance("Berlinn", "Berlin");
        let unrelated = e.distance("Berlin", "Toronto");
        assert!(typo < 0.45, "typo distance too large: {typo}");
        assert!(unrelated > 0.6, "unrelated distance too small: {unrelated}");
        assert!(typo < unrelated);
    }

    #[test]
    fn case_differences_vanish() {
        let e = HashingNgramEmbedder::new();
        assert!(e.distance("barcelona", "Barcelona") < DISTANCE_EPSILON);
    }

    #[test]
    fn abbreviations_are_far_for_surface_embedder() {
        // The documented weakness: no semantic knowledge, so country codes
        // do not match country names.
        let e = HashingNgramEmbedder::new();
        assert!(e.distance("Germany", "DE") > 0.55);
        assert!(e.distance("Canada", "CA") > 0.3);
    }

    #[test]
    fn empty_strings_get_zero_vector() {
        let e = HashingNgramEmbedder::new();
        assert!(e.embed("").is_zero());
        assert_eq!(e.embed("x").cosine_similarity(&e.embed("")), 0.0);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = HashingNgramEmbedder::new();
        for s in ["Berlin", "New Delhi", "83%", "a"] {
            assert!((e.embed(s).norm() - 1.0).abs() < DISTANCE_EPSILON);
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        HashingNgramEmbedder::with_config(0, 2, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid n-gram range")]
    fn bad_ngram_range_rejected() {
        HashingNgramEmbedder::with_config(8, 3, 2, 1.0);
    }

    #[test]
    fn simhash_is_deterministic_and_locality_sensitive() {
        let e = HashingNgramEmbedder::new();
        let hasher = SimHasher::new(64, e.dim());
        let signature = |value: &str| signature_of(&hasher, e.embed(value).components());
        assert_eq!(signature("Berlin"), signature("Berlin"));
        // Close pairs agree on more bits than far pairs.  Individual pairs
        // can be unlucky with the fixed hyperplane draw, so compare totals
        // over several pairs.
        let flips = |pairs: &[(&str, &str)]| -> u32 {
            pairs.iter().map(|(a, b)| (signature(a) ^ signature(b)).count_ones()).sum()
        };
        let typo = flips(&[("Berlin", "Berlinn"), ("Toronto", "Torontoo"), ("Lima", "Limaa")]);
        let unrelated = flips(&[("Berlin", "Toronto"), ("Toronto", "Lima"), ("Lima", "Berlin")]);
        assert!(typo < unrelated, "typo flips {typo} bits, unrelated {unrelated}");
    }

    /// The packed collision keys of a value's bands, in band order: one
    /// probe per band is exact banding.
    fn packed_band_keys(hasher: &SimHasher, vector: &Vector, band_bits: usize) -> Vec<u64> {
        let mut keys = Vec::new();
        hasher.probe_packed_keys_into(
            vector.components(),
            band_bits,
            1,
            &mut ProbeScratch::default(),
            &mut keys,
        );
        keys
    }

    #[test]
    fn band_keys_collide_for_near_duplicates() {
        let e = HashingNgramEmbedder::new();
        let hasher = SimHasher::new(32, e.dim());
        let a = packed_band_keys(&hasher, &e.embed("Barcelona"), 4);
        let b = packed_band_keys(&hasher, &e.embed("Barcelonna"), 4);
        assert_eq!(a.len(), 8);
        assert!(a.iter().any(|k| b.contains(k)), "no shared band: {a:?} vs {b:?}");
        // Identical vectors share every band key.
        assert_eq!(a, packed_band_keys(&hasher, &e.embed("Barcelona"), 4));
    }

    #[test]
    fn band_keys_are_namespaced_per_band() {
        // The band id sits above the bucket bits, so equal buckets of
        // different bands never share a key.
        let e = HashingNgramEmbedder::new();
        let hasher = SimHasher::new(8, e.dim());
        let keys = packed_band_keys(&hasher, &e.embed("x"), 4);
        assert_eq!(keys[0] >> 4, 0);
        assert_eq!(keys[1] >> 4, 1);
    }

    #[test]
    #[should_panic(expected = "band width must divide")]
    fn band_width_must_divide_signature_width() {
        let hasher = SimHasher::new(32, 8);
        packed_band_keys(&hasher, &Vector::zeros(8), 5);
    }

    #[test]
    #[should_panic(expected = "signature width")]
    fn zero_bits_rejected() {
        SimHasher::new(0, 8);
    }

    #[test]
    fn packed_band_keys_are_injective_over_band_and_bucket() {
        let mut seen = std::collections::HashSet::new();
        for band in 0..8 {
            for bucket in 0..(1u64 << 8) {
                assert!(seen.insert(packed_band_key(band, 8, bucket)));
            }
        }
        // A 64-bit band is the whole signature: the key is the bucket itself.
        assert_eq!(packed_band_key(0, 64, u64::MAX), u64::MAX);
    }

    #[test]
    fn slab_signatures_match_per_vector_signatures() {
        let e = HashingNgramEmbedder::new();
        let hasher = SimHasher::new(64, e.dim());
        let vectors: Vec<Vector> =
            ["Berlin", "Barcelona", "Toronto", "", "83%"].iter().map(|s| e.embed(s)).collect();
        let refs: Vec<&Vector> = vectors.iter().collect();
        let slab = QuantizedSlab::from_vectors(&refs);
        let mut batch = Vec::new();
        hasher.slab_signatures_into(&slab, &mut batch);
        assert_eq!(batch.len(), vectors.len());
        for (vector, &signature) in vectors.iter().zip(&batch) {
            assert_eq!(signature, signature_of(&hasher, vector.components()));
        }
    }

    #[test]
    fn eight_lane_projections_equal_one_dot_per_hyperplane() {
        // Widths below, at and past one eight-lane group and up to the full
        // 64 bits; real embeddings of the default dimension and of one that
        // is not a multiple of eight, and all-signed-zero inputs.
        let e = HashingNgramEmbedder::new();
        let mut inputs: Vec<Vec<f32>> = ["Berlin", "Barcelonna", "83%", "New Delhi", ""]
            .iter()
            .map(|value| e.embed(value).components().to_vec())
            .collect();
        inputs.push(vec![-0.0; e.dim()]);
        let odd = HashingNgramEmbedder::with_config(13, 2, 3, 1.0);
        inputs.push(odd.embed("Toronto").components().to_vec());
        inputs.push(vec![-0.0; 13]);
        // Signed zeros against hyperplane 0's signs: every product with it
        // is −0.0, so only a lane that starts from −0.0 sums to −0.0.
        for dim in [e.dim(), 13] {
            let plane = seeded_direction(hyperplane_seed(0), dim);
            inputs.push(
                plane.components().iter().map(|&d| if d > 0.0 { -0.0 } else { 0.0 }).collect(),
            );
        }
        let mut out = Vec::new();
        for bits in [1, 7, 8, 9, 63, 64] {
            for components in &inputs {
                let hasher = SimHasher::new(bits, components.len());
                hasher.projections_into(components, &mut out);
                let expected = reference_projections(bits, components);
                let as_bits =
                    |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(as_bits(&out), as_bits(&expected), "{bits} bits, {components:?}");
            }
        }
    }

    /// The probe order as it was specified first: a linear scan comparing
    /// `f32::total_cmp` of the scores, then the flip masks.
    fn reference_perturbations(margins: &[f32], count: usize) -> Vec<u64> {
        let bits = margins.len();
        let count = count.min((1usize << bits.min(20)) - 1);
        let mut out = Vec::new();
        if count == 0 || bits == 0 {
            return out;
        }
        let mut order: Vec<usize> = (0..bits).collect();
        order.sort_by(|&a, &b| {
            margins[a].abs().total_cmp(&margins[b].abs()).then_with(|| a.cmp(&b))
        });
        let cost = |rank: usize| margins[order[rank]].abs();
        let mut heap: Vec<(f32, usize, u64)> = vec![(cost(0), 0, 1u64 << order[0])];
        while out.len() < count && !heap.is_empty() {
            let mut best = 0;
            for (i, p) in heap.iter().enumerate().skip(1) {
                if p.0.total_cmp(&heap[best].0).then_with(|| p.2.cmp(&heap[best].2))
                    == std::cmp::Ordering::Less
                {
                    best = i;
                }
            }
            let (score, last, xor) = heap.swap_remove(best);
            out.push(xor);
            if last + 1 < bits {
                heap.push((score + cost(last + 1), last + 1, xor | (1u64 << order[last + 1])));
                heap.push((
                    score - cost(last) + cost(last + 1),
                    last + 1,
                    (xor & !(1u64 << order[last])) | (1u64 << order[last + 1]),
                ));
            }
        }
        out
    }

    /// Finite margins that stress the integer order: ties, both zeros,
    /// subnormals, the largest float (whose sums overflow to infinity), and
    /// arbitrary finite bit patterns.
    fn finite_margin() -> impl Strategy<Value = f32> {
        prop_oneof![
            3 => prop::sample::select(vec![
                0.0f32,
                -0.0,
                0.25,
                -0.25,
                0.5,
                1.0,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
                -f32::from_bits(1),
                f32::from_bits(0x007f_ffff),
                f32::MAX,
            ]),
            2 => any::<u32>().prop_map(f32::from_bits).prop_filter("finite", |m| m.is_finite()),
            1 => -2.0f32..2.0,
        ]
    }

    /// A band's margins: finite ones, with one kind of non-finite value
    /// mixed in per case — NaNs of one payload (either sign) or infinities
    /// (either sign).  The kinds never meet in one case: NaN scores then
    /// only meet NaNs of the same bits, whereas the sign and payload of a
    /// NaN that arithmetic makes from two different NaNs is the compiler's
    /// choice, and no probe order can be held to one across two compiled
    /// copies of the score arithmetic.
    fn band_margins() -> impl Strategy<Value = Vec<f32>> {
        (prop::collection::vec((finite_margin(), 0u32..8), 1..=64), 0u32..3, any::<u32>()).prop_map(
            |(draws, kind, payload)| {
                let nan = f32::from_bits(0x7fc0_0000 | (payload & 0x003f_ffff));
                draws
                    .into_iter()
                    .map(|(finite, pick)| match (kind, pick) {
                        (1, 0) => nan,
                        (1, 1) => -nan,
                        (2, 0) => f32::INFINITY,
                        (2, 1) => f32::NEG_INFINITY,
                        _ => finite,
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn integer_keyed_probe_order_equals_the_total_cmp_scan(
            margins in band_margins(),
            count in 0usize..48,
        ) {
            let (mut ranked, mut heap, mut out) = (Vec::new(), Vec::new(), Vec::new());
            perturbation_sequence_into(&margins, count, &mut ranked, &mut heap, &mut out);
            prop_assert_eq!(out, reference_perturbations(&margins, count), "{:?}", margins);
        }

        #[test]
        fn perturbation_ranks_order_like_total_cmp_then_flip_mask(
            a in any::<u32>(),
            b in prop_oneof![any::<u32>(), (0u32..4).prop_map(|low| low ^ 0x7fc0_0000)],
            a_xor in 0u64..4,
            b_xor in 0u64..4,
        ) {
            // Every pair of f32 bit patterns, NaNs of every sign and payload
            // included: the integer rank orders exactly as the comparison
            // it replaced.
            let (sa, sb) = (f32::from_bits(a), f32::from_bits(b));
            let expected = sa.total_cmp(&sb).then(a_xor.cmp(&b_xor));
            let ranked = Perturbation::new(sa, 0, a_xor).rank.cmp(&Perturbation::new(sb, 0, b_xor).rank);
            prop_assert_eq!(ranked, expected);
        }
    }

    #[test]
    fn probes_past_a_bands_bucket_count_enumerate_each_bucket_once() {
        let hasher = SimHasher::new(8, 8);
        let v = Vector::new(vec![0.3, -0.2, 0.9, 0.1, -0.7, 0.4, 0.05, -0.6]);
        let mut keys = Vec::new();
        hasher.probe_packed_keys_into(
            v.components(),
            2,
            1_000,
            &mut ProbeScratch::default(),
            &mut keys,
        );
        // 4 bands × the 4 buckets a 2-bit band has, each exactly once.
        assert_eq!(keys.len(), 16);
        assert_eq!(keys.iter().collect::<std::collections::HashSet<_>>().len(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn packed_probing_rejects_zero_probes() {
        let hasher = SimHasher::new(32, 8);
        let v = Vector::zeros(8);
        hasher.probe_packed_keys_into(
            v.components(),
            4,
            0,
            &mut ProbeScratch::default(),
            &mut Vec::new(),
        );
    }
}
