//! Approximate nearest-neighbour candidate index over embedding vectors.
//!
//! [`AnnIndex`] is the sub-quadratic candidate generator behind the fuzzy
//! value matcher's *escalated* blocking tier: when a fold is too large for
//! the exact O(n²) distance sweep, the column vectors are indexed once under
//! their SimHash band buckets, and each query (group) vector retrieves only
//! the vectors it collides with under query-directed multi-probing
//! ([`SimHasher::probe_packed_keys_into`]).  Colliding pairs are then re-scored
//! *exactly* by the caller, so the index decides only *which* pairs get a
//! distance — never what that distance is.
//!
//! The index is probabilistic: a true near pair whose disagreeing signature
//! bits all carry large margins can be missed.  More probes (or more bands ×
//! fewer bits) raise recall at the cost of more colliding pairs to re-score;
//! the defaults in [`AnnParams`] are calibrated so the escalated tier
//! reproduces the exact tier's groups on the Auto-Join benchmark sets while
//! scoring a small fraction of the cartesian space on diverse folds.
//!
//! ```
//! use lake_embed::{
//!     AnnIndex, AnnParams, AnnScratch, Embedder, HashingNgramEmbedder, QuantizedSlab,
//! };
//!
//! let embedder = HashingNgramEmbedder::new();
//! let values = ["Berlin", "Toronto", "Barcelona"];
//! let vectors: Vec<_> = values.iter().map(|v| embedder.embed(v)).collect();
//! let slab = QuantizedSlab::from_vectors(&vectors.iter().collect::<Vec<_>>());
//! let index = AnnIndex::build_from_slab(AnnParams::default(), &slab);
//!
//! // A typo of "Berlin" collides with the indexed original …
//! let mut candidates = Vec::new();
//! index.candidates_with(&embedder.embed("Berlinn"), &mut AnnScratch::default(), &mut candidates);
//! assert!(candidates.contains(&0));
//! // … and every candidate list is sorted and duplicate-free.
//! assert!(candidates.windows(2).all(|pair| pair[0] < pair[1]));
//! ```

use crate::hashing::{packed_band_key, ProbeScratch, SimHasher};
use crate::vector::{QuantizedSlab, Vector};

/// Slot-count ceiling of the direct-indexed bucket table, enforced by
/// [`AnnParams::check`]: a `u32` offset per slot, so the default shape
/// (8 bands × 2⁸ buckets = 2048 slots) costs 8 KiB and even the cap costs
/// 4 MiB — far cheaper than a pointer chase per probe.
const MAX_DENSE_SLOTS: usize = 1 << 20;

/// Physical bucket storage of an [`AnnIndex`].
///
/// A packed band key is `(band << band_bits) | bucket`, so the whole key
/// space is a small dense range — the buckets are one flat CSR array indexed
/// directly by key (`offsets[key]..offsets[key + 1]` spans the bucket's ids
/// in `ids`), and a probe is two array reads.
#[derive(Debug, Clone, Default)]
struct BucketStore {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl BucketStore {
    /// The ids bucketed under `key`.
    #[inline]
    fn get(&self, key: u64) -> &[u32] {
        let slot = key as usize;
        debug_assert!(slot + 1 < self.offsets.len(), "probed key outside the table");
        &self.ids[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// Reusable buffers for [`AnnIndex::candidates_with`]: one instance per
/// query loop amortises the probe-sequence and key-list allocations.
#[derive(Debug, Default)]
pub struct AnnScratch {
    probe: ProbeScratch,
    keys: Vec<u64>,
    /// Per-id distinct-band hit counters, sized to the index and zeroed
    /// between queries by walking `touched` (never by refilling).
    counts: Vec<u32>,
    /// The ids whose counter moved this query — the only ones to reset.
    touched: Vec<u32>,
}

/// Shape of an [`AnnIndex`]: the SimHash banding and how many buckets each
/// query probes per band.  The value matcher always builds its index with
/// [`AnnParams::default`]; the fields exist so the index can be measured and
/// tested at other shapes, not as operator settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnParams {
    /// Number of SimHash bands.  Every vector is indexed once per band, and
    /// two vectors collide when they meet in at least one band.
    pub bands: usize,
    /// Bits per band; `bands * band_bits` must fit a 64-bit signature and
    /// `bands × 2^band_bits` the 2²⁰-slot bucket table.  Fewer bits per band
    /// collide more aggressively (higher recall, more re-scoring); more bits
    /// prune harder.
    pub band_bits: usize,
    /// Buckets probed per band and query (the query's own bucket plus the
    /// `probes - 1` cheapest margin perturbations).  `1` is exact banding.
    ///
    /// A band of `band_bits` bits only has `2^band_bits` distinct buckets, so
    /// the reachable neighbourhood of any configuration is `bands ×
    /// 2^band_bits`; asking for more probes than a band has buckets cannot
    /// retrieve anything new and is refused by [`check`](Self::check).
    pub probes: usize,
    /// Minimum number of *distinct bands* a pair must collide in to become a
    /// candidate.  `1` is plain OR-amplification over the bands; `2`+ adds
    /// an AND layer that suppresses the ambient-similarity tail (random
    /// far pairs overwhelmingly collide in exactly one band by chance, while
    /// genuinely close pairs collide in several), multiplying the pruning
    /// power at a small recall cost near the candidacy cutoff.
    pub min_band_hits: usize,
}

impl Default for AnnParams {
    fn default() -> Self {
        // Probe generously (16 buckets over 8-bit bands keeps near pairs),
        // then demand two independent band collisions to kill the
        // ambient-similarity tail.  Calibrated — jointly with the matcher's
        // candidacy slack and key-bucket cap — so the escalated blocking
        // tier reproduces the exact tier's groups on the Auto-Join sets (see
        // `tests/blocking_equivalence.rs`) while scoring ~5× fewer pairs
        // than the exact sweep on the lake-scale escalation fold.
        AnnParams { bands: 8, band_bits: 8, probes: 16, min_band_hits: 2 }
    }
}

impl AnnParams {
    /// Total signature width this configuration uses (saturating, so an
    /// absurd shape reads as "too wide" instead of overflowing).
    pub fn signature_bits(&self) -> usize {
        self.bands.saturating_mul(self.band_bits)
    }

    /// Checks the configuration without panicking, describing the first
    /// problem found: a zero `bands`, `band_bits`, `probes` or
    /// `min_band_hits`, a signature wider than 64 bits, a key space of more
    /// than 2²⁰ buckets, more `probes` than a band has buckets, or
    /// `min_band_hits` above `bands`.  The one validator:
    /// [`AnnIndex::build_from_slab`] panics with its message.
    pub fn check(&self) -> Result<(), String> {
        if self.bands == 0 || self.band_bits == 0 {
            return Err(format!(
                "ANN banding needs at least one band and one bit per band (got {} × {})",
                self.bands, self.band_bits
            ));
        }
        if self.signature_bits() > 64 {
            return Err(format!(
                "ANN signature must fit in a u64: {} bands × {} bits > 64",
                self.bands, self.band_bits
            ));
        }
        // `band_bits` is at most 64 here, so the cast is lossless; a 64-bit
        // band saturates instead of shifting out.
        let buckets = 1usize.checked_shl(self.band_bits as u32).unwrap_or(usize::MAX);
        if buckets.saturating_mul(self.bands) > MAX_DENSE_SLOTS {
            return Err(format!(
                "ANN bucket table is capped at {MAX_DENSE_SLOTS} slots: \
                 {} bands × 2^{} buckets exceed it",
                self.bands, self.band_bits
            ));
        }
        if self.probes == 0 {
            return Err(
                "ANN probes must be ≥ 1: each band must probe at least its own bucket".into()
            );
        }
        if self.probes > buckets {
            return Err(format!(
                "ANN probes ({}) exceed the {buckets} reachable buckets of a {}-bit band",
                self.probes, self.band_bits
            ));
        }
        if !(1..=self.bands).contains(&self.min_band_hits) {
            return Err(format!(
                "ANN min_band_hits must be in 1..=bands (got {} with {} bands)",
                self.min_band_hits, self.bands
            ));
        }
        Ok(())
    }
}

/// A SimHash multi-probe candidate index over a fixed set of vectors.
///
/// Build once per fold over the column vectors, query once per group vector;
/// see the [module docs](self) for the contract and an example.
#[derive(Debug, Clone)]
pub struct AnnIndex {
    params: AnnParams,
    hasher: Option<SimHasher>,
    /// [`packed_band_key`] → indexed vector ids, ascending.
    buckets: BucketStore,
    indexed: usize,
}

impl AnnIndex {
    /// Indexes every row of a pre-packed slab (ids are row indices) under
    /// every band bucket of its SimHash signature.  Signatures come from one
    /// slab-resident sweep ([`SimHasher::slab_signatures_into`]) with zero
    /// per-vector allocations, and the slab can be shared with the exact
    /// re-scoring kernel instead of being quantized twice.  Rows of a
    /// zero-dimensional slab keep their ids but are inert.
    ///
    /// # Panics
    /// Panics with the message of [`AnnParams::check`] on an invalid shape,
    /// and when the slab holds more than `u32::MAX` rows.
    pub fn build_from_slab(params: AnnParams, slab: &QuantizedSlab) -> Self {
        if let Err(problem) = params.check() {
            panic!("{problem}");
        }
        assert!(slab.len() <= u32::MAX as usize, "ANN index capacity exceeded");
        if slab.is_empty() || slab.dim() == 0 {
            return AnnIndex {
                params,
                hasher: None,
                buckets: BucketStore::default(),
                indexed: slab.len(),
            };
        }
        let hasher = SimHasher::new(params.signature_bits(), slab.dim());
        let mut signatures = Vec::new();
        hasher.slab_signatures_into(slab, &mut signatures);
        // Two counting passes fill the CSR table; ids come out ascending
        // per bucket.
        let mask = (1u64 << params.band_bits) - 1;
        let mut offsets = vec![0u32; (params.bands << params.band_bits) + 1];
        for &signature in &signatures {
            for band in 0..params.bands {
                let bucket = (signature >> (band * params.band_bits)) & mask;
                let slot = packed_band_key(band, params.band_bits, bucket) as usize;
                offsets[slot + 1] += 1;
            }
        }
        for slot in 1..offsets.len() {
            offsets[slot] += offsets[slot - 1];
        }
        let mut cursor: Vec<u32> = offsets.clone();
        let mut ids = vec![0u32; signatures.len() * params.bands];
        for (id, &signature) in signatures.iter().enumerate() {
            for band in 0..params.bands {
                let bucket = (signature >> (band * params.band_bits)) & mask;
                let slot = packed_band_key(band, params.band_bits, bucket) as usize;
                ids[cursor[slot] as usize] = id as u32;
                cursor[slot] += 1;
            }
        }
        let buckets = BucketStore { offsets, ids };
        AnnIndex { params, hasher: Some(hasher), buckets, indexed: slab.len() }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.indexed
    }

    /// `true` when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.indexed == 0
    }

    /// The ids of indexed vectors colliding with `query` in at least
    /// `min_band_hits` probed bands — sorted, duplicate-free — into `out`
    /// (cleared first).  Every probe buffer is drawn from `scratch`, so a
    /// fold loop performs zero allocations per query after warm-up.
    pub fn candidates_with(&self, query: &Vector, scratch: &mut AnnScratch, out: &mut Vec<u32>) {
        out.clear();
        let Some(hasher) = &self.hasher else { return };
        if query.dim() == 0 {
            return;
        }
        hasher.probe_packed_keys_into(
            query.components(),
            self.params.band_bits,
            self.params.probes,
            &mut scratch.probe,
            &mut scratch.keys,
        );
        // An id occurs at most once per band (each vector is indexed under
        // exactly one bucket per band), so its occurrence count across the
        // probed buckets is its distinct-band hit count.  Counting into a
        // scratch array filters against the AND floor without sorting the
        // full probe multiset.  The bucket sizes are known up front, so the
        // query picks its filtering strategy before counting: a query that
        // touches a large fraction of the index counts branch-free and
        // sweeps the counters sequentially (ids come out ascending for
        // free); a sparse query tracks the touched ids and sorts only the
        // survivors.  Both emit the identical sorted candidate list.
        scratch.counts.resize(self.indexed, 0);
        let min_hits = self.params.min_band_hits as u32;
        let occurrences: usize = scratch.keys.iter().map(|&key| self.buckets.get(key).len()).sum();
        if occurrences * 2 >= self.indexed {
            for &key in &scratch.keys {
                for &id in self.buckets.get(key) {
                    scratch.counts[id as usize] += 1;
                }
            }
            for (id, count) in scratch.counts.iter_mut().enumerate() {
                if *count >= min_hits {
                    out.push(id as u32);
                }
                *count = 0;
            }
        } else {
            scratch.touched.clear();
            for &key in &scratch.keys {
                for &id in self.buckets.get(key) {
                    let count = &mut scratch.counts[id as usize];
                    if *count == 0 {
                        scratch.touched.push(id);
                    }
                    *count += 1;
                }
            }
            for &id in &scratch.touched {
                if scratch.counts[id as usize] >= min_hits {
                    out.push(id);
                }
                scratch.counts[id as usize] = 0;
            }
            out.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::Embedder;
    use crate::hashing::HashingNgramEmbedder;

    fn embeddings(values: &[&str]) -> Vec<Vector> {
        let embedder = HashingNgramEmbedder::new();
        values.iter().map(|v| embedder.embed(v)).collect()
    }

    fn build(params: AnnParams, vectors: &[Vector]) -> AnnIndex {
        let refs: Vec<&Vector> = vectors.iter().collect();
        AnnIndex::build_from_slab(params, &QuantizedSlab::from_vectors(&refs))
    }

    fn candidates_of(index: &AnnIndex, query: &Vector) -> Vec<u32> {
        let mut out = Vec::new();
        index.candidates_with(query, &mut AnnScratch::default(), &mut out);
        out
    }

    #[test]
    fn ann_candidates_rescore_against_the_same_theta_semantics() {
        // The index only decides *which* pairs get a distance.  The distance
        // itself — and the strict `< θ` comparison — is the same exact f32
        // computation in every tier: `Vector::cosine_distance` in the dense
        // sweep and `kernel::distance_below` in the quantized kernel the
        // escalated tier re-scores through.  (`DISTANCE_EPSILON` bounds how
        // far *evaluation strategies* may drift; θ itself is tolerance-free.)
        use crate::kernel::{distance_below, KernelStats};

        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona"]);
        let queries = embeddings(&["Berlinn", "Torontoo"]);
        let index = build(AnnParams::default(), &indexed);
        let col_refs: Vec<&Vector> = indexed.iter().collect();
        let row_refs: Vec<&Vector> = queries.iter().collect();
        let rows = QuantizedSlab::from_vectors(&row_refs);
        let cols = QuantizedSlab::from_vectors(&col_refs);
        let mut stats = KernelStats::default();
        let mut checked = 0usize;
        for (r, query) in queries.iter().enumerate() {
            for c in candidates_of(&index, query) {
                let c = c as usize;
                let dense = query.cosine_distance(&indexed[c]);
                // θ at, just above, and far below the pair's distance: the
                // kernel must admit exactly when the dense comparison does,
                // with the identical bit pattern.
                for theta in [dense, f32::from_bits(dense.to_bits() + 1), 0.05] {
                    let via_kernel = distance_below(&rows, r, &cols, c, theta, &mut stats);
                    assert_eq!(via_kernel.is_some(), dense < theta, "θ = {theta}");
                    if let Some(d) = via_kernel {
                        assert_eq!(d.to_bits(), dense.to_bits());
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "probing must surface at least the typo pairs");
    }

    #[test]
    fn near_duplicates_collide_unrelated_mostly_do_not() {
        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona", "New Delhi"]);
        let index = build(AnnParams::default(), &indexed);
        assert_eq!(index.len(), 4);
        let embedder = HashingNgramEmbedder::new();
        for (typo, expected) in [("Berlinn", 0u32), ("Torontoo", 1), ("Barcelonna", 2)] {
            let found = candidates_of(&index, &embedder.embed(typo));
            assert!(found.contains(&expected), "{typo}: {found:?}");
        }
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let indexed = embeddings(&["alpha", "alpha beta", "beta", "gamma", "alpha gamma"]);
        let index = build(AnnParams::default(), &indexed);
        let found = candidates_of(&index, &embeddings(&["alpha beta gamma"])[0]);
        let mut expected = found.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(found, expected);
    }

    #[test]
    fn more_probes_never_lose_candidates() {
        let indexed = embeddings(&[
            "Berlin",
            "Toronto",
            "Barcelona",
            "Quito",
            "Lima",
            "Lagos",
            "Dallas",
            "Austin",
        ]);
        let query = &embeddings(&["Berlinn"])[0];
        let mut previous: Vec<u32> = Vec::new();
        for probes in [1usize, 2, 4, 8] {
            let params = AnnParams { probes, ..AnnParams::default() };
            let found = candidates_of(&build(params, &indexed), query);
            assert!(
                previous.iter().all(|id| found.contains(id)),
                "probes={probes} lost candidates: {previous:?} → {found:?}"
            );
            previous = found;
        }
    }

    #[test]
    fn empty_and_zero_dim_inputs_are_harmless() {
        let index = build(AnnParams::default(), &[]);
        assert!(index.is_empty());
        assert!(candidates_of(&index, &Vector::new(vec![1.0, 0.0])).is_empty());

        // Zero-dimensional vectors are indexed as inert ids.
        let index = build(AnnParams::default(), &[Vector::new(Vec::new())]);
        assert_eq!(index.len(), 1);
        assert!(candidates_of(&index, &Vector::new(Vec::new())).is_empty());
    }

    #[test]
    fn identical_vectors_always_collide() {
        let indexed = embeddings(&["Berlin", "Toronto"]);
        for probes in [1usize, 4] {
            let params = AnnParams { probes, ..AnnParams::default() };
            let index = build(params, &indexed);
            // A vector always lands in its own bucket in every band.
            assert!(candidates_of(&index, &indexed[0]).contains(&0));
            assert!(candidates_of(&index, &indexed[1]).contains(&1));
        }
    }

    #[test]
    fn check_names_the_first_problem_without_panicking() {
        let base = AnnParams::default();
        for (params, problem) in [
            (AnnParams { bands: 0, ..base }, "at least one band"),
            (AnnParams { band_bits: 0, ..base }, "at least one band"),
            (AnnParams { bands: 9, band_bits: 8, ..base }, "fit in a u64"),
            // `bands * band_bits` overflows `usize`: still "too wide", in
            // debug and release builds alike.
            (AnnParams { bands: usize::MAX / 2 + 1, band_bits: 2, ..base }, "fit in a u64"),
            // 2 bands × 2³⁰ buckets: no table of 2³¹ slots is allocated.
            (AnnParams { bands: 2, band_bits: 30, probes: 2, min_band_hits: 1 }, "capped at"),
            (AnnParams { bands: 1, band_bits: 64, probes: 1, min_band_hits: 1 }, "capped at"),
            (AnnParams { probes: 0, ..base }, "at least its own bucket"),
            // A 2-bit band reaches 4 buckets; a fifth probe finds nothing new.
            (
                AnnParams { bands: 4, band_bits: 2, probes: 5, min_band_hits: 1 },
                "reachable buckets",
            ),
            (AnnParams { min_band_hits: 0, ..base }, "min_band_hits"),
            (AnnParams { min_band_hits: base.bands + 1, ..base }, "min_band_hits"),
        ] {
            let err = params.check().expect_err(&format!("{params:?} passed"));
            assert!(err.contains(problem), "{params:?}: {err}");
        }
        assert_eq!(base.check(), Ok(()));
        // The boundaries themselves are legal: every bucket of a band probed,
        // and a table of exactly 2²⁰ slots.
        assert_eq!(
            AnnParams { bands: 4, band_bits: 2, probes: 4, min_band_hits: 1 }.check(),
            Ok(())
        );
        assert_eq!(
            AnnParams { bands: 1, band_bits: 20, probes: 1, min_band_hits: 1 }.check(),
            Ok(())
        );
    }

    #[test]
    #[should_panic(expected = "must fit in a u64")]
    fn oversized_signature_is_rejected() {
        build(AnnParams { bands: 16, band_bits: 8, probes: 1, min_band_hits: 1 }, &[]);
    }

    #[test]
    #[should_panic(expected = "at least its own bucket")]
    fn zero_probes_are_rejected() {
        build(AnnParams { probes: 0, ..AnnParams::default() }, &[]);
    }
}
