//! Approximate nearest-neighbour candidate index over embedding vectors.
//!
//! [`AnnIndex`] is the sub-quadratic candidate generator behind the fuzzy
//! value matcher's *escalated* blocking tier: when a fold is too large for
//! the exact O(n²) distance sweep, the column vectors are indexed once under
//! their SimHash band buckets, and each query (group) vector retrieves only
//! the vectors it collides with under query-directed multi-probing
//! ([`SimHasher::probe_band_buckets`]).  Colliding pairs are then re-scored
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
//! use lake_embed::{AnnIndex, AnnParams, Embedder, HashingNgramEmbedder};
//!
//! let embedder = HashingNgramEmbedder::new();
//! let values = ["Berlin", "Toronto", "Barcelona"];
//! let vectors: Vec<_> = values.iter().map(|v| embedder.embed(v)).collect();
//! let index = AnnIndex::build(AnnParams::default(), vectors.iter());
//!
//! // A typo of "Berlin" collides with the indexed original …
//! let candidates = index.candidates(&embedder.embed("Berlinn"));
//! assert!(candidates.contains(&0));
//! // … and every candidate list is sorted and duplicate-free.
//! let mut sorted = candidates.clone();
//! sorted.dedup();
//! assert_eq!(candidates, sorted);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::hashing::{packed_band_key, ProbeScratch, SimHasher};
use crate::vector::{QuantizedSlab, Vector};

/// Pass-through [`Hasher`] for the packed band keys: the low bits of a
/// packed key are SimHash signature bits — already uniformly distributed by
/// the random hyperplanes — so re-hashing them through SipHash would only
/// burn cycles per probe.
#[derive(Debug, Clone, Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("packed band keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Bucket map keyed on [`packed_band_key`] values with identity hashing.
type PackedKeyMap<V> = HashMap<u64, V, BuildHasherDefault<PackedKeyHasher>>;

/// Slot-count ceiling for the direct-indexed bucket table: a `u32` offset
/// per slot, so the default shape (8 bands × 2⁸ buckets = 2048 slots) costs
/// 8 KiB and even the cap costs 4 MiB — far cheaper than a pointer chase
/// per probe.
const MAX_DENSE_SLOTS: usize = 1 << 20;

/// Physical bucket storage of an [`AnnIndex`].
///
/// A packed band key is `(band << band_bits) | bucket`, so for narrow bands
/// the whole key space is a small dense range — the buckets become one flat
/// CSR array indexed directly by key, and a probe is two array reads instead
/// of a hash lookup chasing a per-bucket heap `Vec`.  Wide bands (sparse key
/// spaces) keep the identity-hashed map.
#[derive(Debug, Clone)]
enum BucketStore {
    /// `offsets[key]..offsets[key + 1]` spans the bucket's ids in `ids`.
    Dense { offsets: Vec<u32>, ids: Vec<u32> },
    /// Sparse key space: [`packed_band_key`] → ids, identity-hashed.
    Sparse(PackedKeyMap<Vec<u32>>),
}

impl BucketStore {
    fn empty() -> Self {
        BucketStore::Sparse(PackedKeyMap::default())
    }

    /// The ids bucketed under `key` (empty when the bucket does not exist).
    #[inline]
    fn get(&self, key: u64) -> &[u32] {
        match self {
            BucketStore::Dense { offsets, ids } => {
                let slot = key as usize;
                debug_assert!(slot + 1 < offsets.len(), "probed key outside the dense table");
                &ids[offsets[slot] as usize..offsets[slot + 1] as usize]
            }
            BucketStore::Sparse(map) => map.get(&key).map_or(&[], Vec::as_slice),
        }
    }

    /// Applies `f` to every stored id (the zero-dim-gap remap in
    /// [`AnnIndex::build`]).
    fn for_each_id_mut(&mut self, mut f: impl FnMut(&mut u32)) {
        match self {
            BucketStore::Dense { ids, .. } => ids.iter_mut().for_each(&mut f),
            BucketStore::Sparse(map) => {
                map.values_mut().for_each(|bucket| bucket.iter_mut().for_each(&mut f));
            }
        }
    }
}

/// Reusable buffers for [`AnnIndex::candidates_with`]: one instance per
/// query loop amortises the probe-sequence and key-list allocations that the
/// per-call API would otherwise pay per query.
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

/// Tuning knobs of an [`AnnIndex`]: the SimHash banding shape and how many
/// buckets each query probes per band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnParams {
    /// Number of SimHash bands.  Every vector is indexed once per band, and
    /// two vectors collide when they meet in at least one band.
    pub bands: usize,
    /// Bits per band; `bands * band_bits` must fit a 64-bit signature.
    /// Fewer bits per band collide more aggressively (higher recall, more
    /// re-scoring); more bits prune harder.
    pub band_bits: usize,
    /// Buckets probed per band and query (the query's own bucket plus the
    /// `probes - 1` cheapest margin perturbations).  `1` is exact banding.
    ///
    /// A band of `band_bits` bits only has `2^band_bits` distinct buckets, so
    /// the reachable neighbourhood of any configuration is `bands ×
    /// 2^band_bits` — probing past that re-enumerates buckets that were
    /// already probed.  Queries clamp to the per-band bound, and
    /// [`validate`](Self::validate) flags the misconfiguration in debug
    /// builds.
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
        // ambient-similarity tail.  Calibrated so the escalated blocking
        // tier reproduces the exact tier's groups on the Auto-Join sets (see
        // `tests/blocking_equivalence.rs`) while scoring ~5× fewer pairs
        // than the exact sweep on the lake-scale escalation fold.
        AnnParams { bands: 8, band_bits: 8, probes: 16, min_band_hits: 2 }
    }
}

impl AnnParams {
    /// Total signature width this configuration uses.
    pub fn signature_bits(&self) -> usize {
        self.bands * self.band_bits
    }

    /// Checks the configuration without panicking, describing the first
    /// problem found: a zero `bands`, `band_bits`, `probes` or
    /// `min_band_hits`, a signature wider than 64 bits, or `min_band_hits`
    /// above `bands`.  Config validators return this error to their caller
    /// instead of letting an index build panic mid-fold.
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
        if self.probes == 0 {
            return Err(
                "ANN probes must be ≥ 1: each band must probe at least its own bucket".into()
            );
        }
        if !(1..=self.bands).contains(&self.min_band_hits) {
            return Err(format!(
                "ANN min_band_hits must be in 1..=bands (got {} with {} bands)",
                self.min_band_hits, self.bands
            ));
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics when [`check`](Self::check) fails.
    pub fn validate(&self) {
        if let Err(problem) = self.check() {
            panic!("{problem}");
        }
        // A band reaches at most 2^band_bits buckets (bands × 2^band_bits
        // neighbourhoods in total), so more probes than that per band cannot
        // retrieve anything new — queries clamp to the bound either way, but
        // asking for more is a misconfiguration worth hearing about.
        debug_assert!(
            self.probes <= self.reachable_buckets_per_band(),
            "probes ({}) exceeds the {} reachable buckets of a {}-bit band; \
             the excess probes are clamped away",
            self.probes,
            self.reachable_buckets_per_band(),
            self.band_bits
        );
    }

    /// Distinct buckets one band can address: `2^band_bits`, the per-band
    /// share of the `bands × 2^band_bits` reachable neighbourhoods.  This is
    /// the effective upper bound on [`probes`](Self::probes).
    pub fn reachable_buckets_per_band(&self) -> usize {
        1usize << self.band_bits.min(usize::BITS as usize - 1)
    }

    /// [`probes`](Self::probes) clamped to the reachable per-band bucket
    /// count — what queries actually execute.
    pub fn effective_probes(&self) -> usize {
        self.probes.min(self.reachable_buckets_per_band())
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
    /// [`packed_band_key`] → indexed vector ids, in insertion (id) order.
    buckets: BucketStore,
    indexed: usize,
}

impl AnnIndex {
    /// Indexes `vectors` (ids are their enumeration order) under every band
    /// bucket of their SimHash signature.
    ///
    /// Internally the hashable (non-zero-dimensional) vectors are packed
    /// into a [`QuantizedSlab`] and signed in one batch sweep
    /// ([`build_from_slab`](Self::build_from_slab)); callers that already
    /// hold a slab — e.g. to share with the exact re-scoring kernel —
    /// should build from it directly and skip the repack.
    ///
    /// # Panics
    /// Panics on an invalid [`AnnParams`] (see [`AnnParams::validate`]) and
    /// when more than `u32::MAX` vectors are supplied.
    pub fn build<'a>(params: AnnParams, vectors: impl IntoIterator<Item = &'a Vector>) -> Self {
        params.validate();
        let mut indexed = 0usize;
        let mut ids: Vec<u32> = Vec::new();
        let mut refs: Vec<&Vector> = Vec::new();
        for (id, vector) in vectors.into_iter().enumerate() {
            assert!(id <= u32::MAX as usize, "ANN index capacity exceeded");
            indexed = id + 1;
            // Zero-dimensional vectors keep their id but are inert.
            if vector.dim() > 0 {
                ids.push(id as u32);
                refs.push(vector);
            }
        }
        if refs.is_empty() {
            return AnnIndex { params, hasher: None, buckets: BucketStore::empty(), indexed };
        }
        let slab = QuantizedSlab::from_vectors(&refs);
        let mut index = AnnIndex::build_from_slab(params, &slab);
        index.indexed = indexed;
        // Slab slots equal original ids unless zero-dimensional gaps shifted
        // them; remap only in that (test-only) case.
        if ids.iter().enumerate().any(|(slot, &id)| slot as u32 != id) {
            index.buckets.for_each_id_mut(|slot| *slot = ids[*slot as usize]);
        }
        index
    }

    /// Indexes every row of a pre-packed slab (ids are row indices).  This
    /// is the batch fast path: signatures come from one slab-resident sweep
    /// ([`SimHasher::slab_signatures_into`]) with zero per-vector
    /// allocations, and the slab can be shared with the exact re-scoring
    /// kernel instead of being quantized twice.
    ///
    /// # Panics
    /// Panics on an invalid [`AnnParams`] and when the slab holds more than
    /// `u32::MAX` rows.
    pub fn build_from_slab(params: AnnParams, slab: &QuantizedSlab) -> Self {
        params.validate();
        assert!(slab.len() <= u32::MAX as usize, "ANN index capacity exceeded");
        if slab.is_empty() || slab.dim() == 0 {
            return AnnIndex {
                params,
                hasher: None,
                buckets: BucketStore::empty(),
                indexed: slab.len(),
            };
        }
        let hasher = SimHasher::new(params.signature_bits(), slab.dim());
        let mut signatures = Vec::new();
        hasher.slab_signatures_into(slab, &mut signatures);
        let mask = if params.band_bits >= 64 { u64::MAX } else { (1u64 << params.band_bits) - 1 };
        // Narrow bands direct-index a flat CSR table (two counting passes,
        // ids ascending per bucket exactly like map insertion order); wide
        // bands fall back to the identity-hashed map.
        let dense_slots = params
            .bands
            .checked_shl(params.band_bits.min(u32::MAX as usize) as u32)
            .filter(|&slots| slots <= MAX_DENSE_SLOTS);
        let buckets = match dense_slots {
            Some(slots) => {
                let mut offsets = vec![0u32; slots + 1];
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
                BucketStore::Dense { offsets, ids }
            }
            None => {
                let mut map: PackedKeyMap<Vec<u32>> = PackedKeyMap::default();
                for (id, &signature) in signatures.iter().enumerate() {
                    for band in 0..params.bands {
                        let bucket = (signature >> (band * params.band_bits)) & mask;
                        map.entry(packed_band_key(band, params.band_bits, bucket))
                            .or_default()
                            .push(id as u32);
                    }
                }
                BucketStore::Sparse(map)
            }
        };
        AnnIndex { params, hasher: Some(hasher), buckets, indexed: slab.len() }
    }

    /// The configuration the index was built with.
    pub fn params(&self) -> AnnParams {
        self.params
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.indexed
    }

    /// `true` when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.indexed == 0
    }

    /// The ids of indexed vectors colliding with `query` in at least one
    /// probed band bucket — sorted, duplicate-free.  Convenience wrapper over
    /// [`candidates_with`](Self::candidates_with) that pays a fresh scratch
    /// and output vector per call.
    pub fn candidates(&self, query: &Vector) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_with(query, &mut AnnScratch::default(), &mut out);
        out
    }

    /// The fully amortised query path: as [`candidates`](Self::candidates)
    /// but reusing `out` (cleared first) and drawing every probe buffer from
    /// `scratch`, so a fold loop performs zero allocations per query after
    /// warm-up.
    pub fn candidates_with(&self, query: &Vector, scratch: &mut AnnScratch, out: &mut Vec<u32>) {
        out.clear();
        let Some(hasher) = &self.hasher else { return };
        if query.dim() == 0 {
            return;
        }
        hasher.probe_packed_keys_into(
            query.components(),
            self.params.band_bits,
            self.params.effective_probes(),
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

    #[test]
    fn ann_candidates_rescore_against_the_same_theta_semantics() {
        // The index only decides *which* pairs get a distance.  The distance
        // itself — and the strict `< θ` comparison — is the same exact f32
        // computation in every tier: `Vector::cosine_distance` in the dense
        // sweep and `kernel::distance_below` in the quantized kernel the
        // escalated tier re-scores through.  (`DISTANCE_EPSILON` bounds how
        // far *evaluation strategies* may drift; θ itself is tolerance-free.)
        use crate::kernel::{distance_below, KernelStats};
        use crate::vector::QuantizedSlab;

        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona"]);
        let queries = embeddings(&["Berlinn", "Torontoo"]);
        let index = AnnIndex::build(AnnParams::default(), indexed.iter());
        let col_refs: Vec<&Vector> = indexed.iter().collect();
        let row_refs: Vec<&Vector> = queries.iter().collect();
        let rows = QuantizedSlab::from_vectors(&row_refs);
        let cols = QuantizedSlab::from_vectors(&col_refs);
        let mut stats = KernelStats::default();
        let mut checked = 0usize;
        for (r, query) in queries.iter().enumerate() {
            for c in index.candidates(query) {
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
        let index = AnnIndex::build(AnnParams::default(), indexed.iter());
        assert_eq!(index.len(), 4);
        let embedder = HashingNgramEmbedder::new();
        for (typo, expected) in [("Berlinn", 0u32), ("Torontoo", 1), ("Barcelonna", 2)] {
            let candidates = index.candidates(&embedder.embed(typo));
            assert!(candidates.contains(&expected), "{typo}: {candidates:?}");
        }
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let indexed = embeddings(&["alpha", "alpha beta", "beta", "gamma", "alpha gamma"]);
        let index = AnnIndex::build(AnnParams::default(), indexed.iter());
        let candidates = index.candidates(&embeddings(&["alpha beta gamma"])[0]);
        let mut expected = candidates.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(candidates, expected);
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
            let candidates = AnnIndex::build(params, indexed.iter()).candidates(query);
            assert!(
                previous.iter().all(|id| candidates.contains(id)),
                "probes={probes} lost candidates: {previous:?} → {candidates:?}"
            );
            previous = candidates;
        }
    }

    #[test]
    fn empty_and_zero_dim_inputs_are_harmless() {
        let index = AnnIndex::build(AnnParams::default(), std::iter::empty());
        assert!(index.is_empty());
        assert!(index.candidates(&Vector::new(vec![1.0, 0.0])).is_empty());

        // Zero-dimensional vectors are indexed as inert ids.
        let zero = [Vector::new(Vec::new())];
        let index = AnnIndex::build(AnnParams::default(), zero.iter());
        assert_eq!(index.len(), 1);
        assert!(index.candidates(&Vector::new(Vec::new())).is_empty());
    }

    #[test]
    fn identical_vectors_always_collide() {
        let indexed = embeddings(&["Berlin", "Toronto"]);
        for probes in [1usize, 4] {
            let params = AnnParams { probes, ..AnnParams::default() };
            let index = AnnIndex::build(params, indexed.iter());
            // A vector always lands in its own bucket in every band.
            assert!(index.candidates(&indexed[0]).contains(&0));
            assert!(index.candidates(&indexed[1]).contains(&1));
        }
    }

    #[test]
    fn slab_build_matches_iterator_build() {
        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona", "Quito", "Lima"]);
        let refs: Vec<&Vector> = indexed.iter().collect();
        let slab = crate::vector::QuantizedSlab::from_vectors(&refs);
        let from_iter = AnnIndex::build(AnnParams::default(), indexed.iter());
        let from_slab = AnnIndex::build_from_slab(AnnParams::default(), &slab);
        assert_eq!(from_iter.len(), from_slab.len());
        let mut scratch = AnnScratch::default();
        let mut scratched = Vec::new();
        for query in embeddings(&["Berlinn", "Torontoo", "Lagos", ""]) {
            let expected = from_iter.candidates(&query);
            assert_eq!(from_slab.candidates(&query), expected);
            from_slab.candidates_with(&query, &mut scratch, &mut scratched);
            assert_eq!(scratched, expected, "scratch path diverged");
        }
    }

    #[test]
    fn wide_band_key_spaces_fall_back_to_the_sparse_store() {
        // 2 bands × 2³⁰ buckets blow past MAX_DENSE_SLOTS, so this shape must
        // take the Sparse store — and retrieval semantics must not change:
        // self-collision, iterator/slab build parity and the scratch path all
        // behave exactly as they do under the dense table.
        let params = AnnParams { bands: 2, band_bits: 30, probes: 2, min_band_hits: 1 };
        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona", "Quito", "Lima"]);
        let refs: Vec<&Vector> = indexed.iter().collect();
        let slab = crate::vector::QuantizedSlab::from_vectors(&refs);
        let index = AnnIndex::build_from_slab(params, &slab);
        assert!(
            matches!(index.buckets, BucketStore::Sparse(_)),
            "a 2³¹-slot key space must not allocate a dense table"
        );
        for (id, vector) in indexed.iter().enumerate() {
            assert!(
                index.candidates(vector).contains(&(id as u32)),
                "vector {id} no longer collides with itself in the sparse store"
            );
        }
        let from_iter = AnnIndex::build(params, indexed.iter());
        let mut scratch = AnnScratch::default();
        let mut out = Vec::new();
        for query in embeddings(&["Berlinn", "Torontoo", ""]) {
            let expected = from_iter.candidates(&query);
            assert_eq!(index.candidates(&query), expected);
            index.candidates_with(&query, &mut scratch, &mut out);
            assert_eq!(out, expected, "scratch path diverged in the sparse store");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "candidates must stay sorted unique");
        }
    }

    #[test]
    #[should_panic(expected = "must fit in a u64")]
    fn oversized_signature_is_rejected() {
        AnnIndex::build(
            AnnParams { bands: 16, band_bits: 8, probes: 1, min_band_hits: 1 },
            std::iter::empty(),
        );
    }

    #[test]
    #[should_panic(expected = "at least its own bucket")]
    fn zero_probes_are_rejected() {
        AnnIndex::build(AnnParams { probes: 0, ..AnnParams::default() }, std::iter::empty());
    }

    #[test]
    fn probes_clamp_to_the_reachable_bucket_count() {
        // A 2-bit band reaches 4 buckets; asking for 1000 probes per band is
        // equivalent to asking for all 4.
        let bounded = AnnParams { bands: 4, band_bits: 2, probes: 4, min_band_hits: 1 };
        let oversized = AnnParams { probes: 1_000, ..bounded };
        assert_eq!(bounded.reachable_buckets_per_band(), 4);
        assert_eq!(oversized.effective_probes(), 4);
        assert_eq!(bounded.effective_probes(), 4);
        // The bound is per band: the full reachable neighbourhood is
        // bands × 2^band_bits, never what a single band can exhaust.
        assert_eq!(AnnParams::default().reachable_buckets_per_band(), 256);
        assert_eq!(AnnParams::default().effective_probes(), 16);
    }

    // In debug builds `AnnIndex::build` flags oversized probe counts (see
    // below), so the clamp's retrieval equivalence is exercised where the
    // misconfiguration survives to a query: release builds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn oversized_probe_counts_retrieve_exactly_the_bounded_set() {
        let bounded = AnnParams { bands: 4, band_bits: 2, probes: 4, min_band_hits: 1 };
        let oversized = AnnParams { probes: 1_000, ..bounded };
        let indexed = embeddings(&["Berlin", "Toronto", "Barcelona", "Quito", "Lima"]);
        let query = &embeddings(&["Berlinn"])[0];
        let full = AnnIndex::build(bounded, indexed.iter()).candidates(query);
        let clamped = AnnIndex::build(oversized, indexed.iter()).candidates(query);
        assert_eq!(clamped, full, "excess probes must not change retrieval");
    }

    // `validate` flags the oversized-probe misconfiguration with a debug
    // assertion only (release builds clamp silently), so the should-panic
    // expectation holds only where debug assertions are compiled in.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reachable buckets")]
    fn oversized_probe_count_is_flagged_in_debug_builds() {
        AnnParams { bands: 4, band_bits: 2, probes: 5, min_band_hits: 1 }.validate();
    }
}
