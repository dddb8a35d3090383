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

use crate::directions::{normalize_in_place, seeded_direction, with_scratch, EmbedScratch};
use crate::embedder::{Embedder, Fnv1a};
use crate::vector::{QuantizedSlab, Vector};

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

    /// Loads `value` into the scratch's scanner and adds its *surface form*
    /// into `acc`: one direction per padded character n-gram, then one
    /// weighted direction per word token, before normalisation.  Exposed so
    /// [`SimulatedLmEmbedder`](crate::SimulatedLmEmbedder) can combine it
    /// with a semantic component over the same scan.
    pub(crate) fn accumulate_surface(
        &self,
        value: &str,
        scratch: &mut EmbedScratch,
        acc: &mut [f32],
    ) {
        let EmbedScratch { text, terms, table, .. } = scratch;
        text.load(value);
        terms.clear();
        for n in self.min_ngram..=self.max_ngram {
            let salt = (n as u64).wrapping_mul(0x51_7c_c1_b7);
            terms.extend(
                text.padded_ngrams(n).map(|gram| (Fnv1a::new().chars(gram).finish() ^ salt, 1.0)),
            );
        }
        terms.extend(
            text.words()
                .map(|word| (Fnv1a::new().chars(word).finish() ^ WORD_SALT, self.word_weight)),
        );
        table.accumulate(terms, self.dim, acc);
    }
}

// Salt separating the word-token hash space from the n-gram hash space.
const WORD_SALT: u64 = 0xDEAD_BEEF_1234_5678;

// Salt separating SimHash hyperplane seeds from every other direction seed.
const SIMHASH_SALT: u64 = 0x51A4_7E05_6B1C_93D7;

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
    directions: Vec<Vector>,
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
        let directions = (0..bits)
            .map(|bit| {
                let seed = SIMHASH_SALT ^ (bit as u64).wrapping_mul(0x9E37_79B9_97F4_A7C1);
                seeded_direction(seed, dim)
            })
            .collect();
        SimHasher { directions }
    }

    /// Signature width in bits.
    pub fn bits(&self) -> usize {
        self.directions.len()
    }

    /// The SimHash signature of a raw component slice (bit *i* is the sign
    /// of the projection onto hyperplane *i*).  The accumulation order is
    /// that of [`Vector::dot`], so a [`QuantizedSlab`] row hashes
    /// bit-identically to its source vector.
    ///
    /// # Panics
    /// Panics when the slice length differs from the hasher's dimension.
    fn signature_of(&self, components: &[f32]) -> u64 {
        let mut signature = 0u64;
        for (bit, direction) in self.directions.iter().enumerate() {
            if dot_slice(components, direction.components()) >= 0.0 {
                signature |= 1 << bit;
            }
        }
        signature
    }

    /// One SimHash signature per slab row (bit *i* is the sign of the
    /// projection onto hyperplane *i*), appended to `out` (which is cleared
    /// first).  The slab keeps all rows contiguous in a single resident
    /// allocation, so the batch is one matrix sweep with zero per-vector
    /// allocations; every signature is bit-identical to hashing the row's
    /// source vector.
    ///
    /// # Panics
    /// Panics when the slab is non-empty and its dimension differs from the
    /// hasher's.
    pub fn slab_signatures_into(&self, slab: &QuantizedSlab, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(slab.len());
        for i in 0..slab.len() {
            out.push(self.signature_of(slab.row(i)));
        }
    }

    /// The raw hyperplane projections behind
    /// [`signature_of`](Self::signature_of), into a caller-provided buffer
    /// (cleared first) that probing loops reuse: bit *i* of the signature is
    /// set iff `out[i] >= 0`.  The magnitude `|out[i]|` is the *margin* of
    /// bit *i* — how far the vector sits from hyperplane *i*.  Low-margin
    /// bits are the ones a near-duplicate is most likely to flip, which is
    /// what query-directed multi-probing
    /// ([`probe_packed_keys_into`](Self::probe_packed_keys_into)) exploits.
    ///
    /// # Panics
    /// Panics when the slice length differs from the hasher's dimension.
    fn projections_into(&self, components: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.directions.len());
        for direction in &self.directions {
            out.push(dot_slice(components, direction.components()));
        }
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
        let mut signature = 0u64;
        for (bit, &projection) in scratch.projections.iter().enumerate() {
            if projection >= 0.0 {
                signature |= 1 << bit;
            }
        }
        for band in 0..self.bits() / band_bits {
            let base = (signature >> (band * band_bits)) & mask;
            out.push(packed_band_key(band, band_bits, base));
            let margins = &scratch.projections[band * band_bits..(band + 1) * band_bits];
            perturbation_sequence_into(
                margins,
                probes - 1,
                &mut scratch.order,
                &mut scratch.heap,
                &mut scratch.flips,
            );
            for &flips in scratch.flips.iter() {
                out.push(packed_band_key(band, band_bits, base ^ flips));
            }
        }
    }
}

// Sequential dot product over raw slices, in exactly the accumulation order
// of `Vector::dot`, so slab rows and their source vectors project (and
// therefore hash) bit-identically.
#[inline]
fn dot_slice(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector dimensions differ");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Reusable buffers for
/// [`probe_packed_keys_into`](SimHasher::probe_packed_keys_into): one
/// instance per probing loop amortises every per-vector allocation.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    projections: Vec<f32>,
    order: Vec<usize>,
    heap: Vec<Perturbation>,
    flips: Vec<u64>,
}

/// One candidate perturbation during best-first enumeration: `xor` is the
/// flip mask over the band's bits (in margin-sorted index space mapped back
/// to real bit positions), `score` the total flipped margin, `last` the
/// largest margin-sorted index in the set (the expansion frontier).
#[derive(Debug)]
struct Perturbation {
    score: f32,
    last: usize,
    xor: u64,
}

/// The first `count` non-empty bit-flip subsets of a band (at most all
/// `2^bits − 1` of them), ordered by increasing total flipped margin (ties
/// broken by flip mask for determinism).  This is the classic best-first
/// probe-sequence generator: starting from the single lowest-margin flip,
/// each popped subset spawns an *expand* step (add the next-ranked bit) and a
/// *shift* step (replace its frontier bit with the next-ranked one), which
/// enumerates subsets in exactly nondecreasing score order.  `order`/`heap`
/// come from the caller and the flip masks land in `out` (cleared first), so
/// a probing loop performs zero allocations per band after warm-up.
fn perturbation_sequence_into(
    margins: &[f32],
    count: usize,
    order: &mut Vec<usize>,
    heap: &mut Vec<Perturbation>,
    out: &mut Vec<u64>,
) {
    out.clear();
    let bits = margins.len();
    let count = count.min((1usize << bits.min(20)) - 1);
    if count == 0 || bits == 0 {
        return;
    }
    // Rank the band's bits by |margin|, cheapest flip first.
    order.clear();
    order.extend(0..bits);
    order.sort_by(|&a, &b| margins[a].abs().total_cmp(&margins[b].abs()).then_with(|| a.cmp(&b)));
    let cost = |rank: usize| margins[order[rank]].abs();

    heap.clear();
    heap.push(Perturbation { score: cost(0), last: 0, xor: 1u64 << order[0] });
    let pop_min = |heap: &mut Vec<Perturbation>| -> Perturbation {
        let mut best = 0;
        for (i, p) in heap.iter().enumerate().skip(1) {
            if p.score.total_cmp(&heap[best].score).then_with(|| p.xor.cmp(&heap[best].xor))
                == std::cmp::Ordering::Less
            {
                best = i;
            }
        }
        heap.swap_remove(best)
    };

    out.reserve(count);
    while out.len() < count {
        if heap.is_empty() {
            break;
        }
        let next = pop_min(heap);
        out.push(next.xor);
        if next.last + 1 < bits {
            // Expand: add the next-ranked bit to the set.
            heap.push(Perturbation {
                score: next.score + cost(next.last + 1),
                last: next.last + 1,
                xor: next.xor | (1u64 << order[next.last + 1]),
            });
            // Shift: replace the frontier bit with the next-ranked one.
            heap.push(Perturbation {
                score: next.score - cost(next.last) + cost(next.last + 1),
                last: next.last + 1,
                xor: (next.xor & !(1u64 << order[next.last])) | (1u64 << order[next.last + 1]),
            });
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

    fn embed(&self, value: &str) -> Vector {
        let mut out = vec![0.0; self.dim];
        with_scratch(|scratch| self.accumulate_surface(value, scratch, &mut out));
        normalize_in_place(&mut out);
        Vector::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DISTANCE_EPSILON;

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
        let signature = |value: &str| hasher.signature_of(e.embed(value).components());
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
            assert_eq!(signature, hasher.signature_of(vector.components()));
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
