//! Blocked candidate generation for fuzzy value matching.
//!
//! Each fold step of the Match Values component bipartite-matches the current
//! combined column (the groups) against the next column's values.  Done
//! naively that is one dense `groups × values` cost matrix — O(n²) distance
//! computations plus a cubic assignment solve.  This module partitions the
//! candidate space first; the connected components of the candidate-pair
//! bipartite graph become independent sub-problems.  Pairs in different
//! components are never compared; each component is solved as its own small
//! assignment problem, and the components can be solved concurrently because
//! they share no group and no value.
//!
//! There is one candidate channel: **exact sub-threshold distances**.  A
//! (group, value) pair is a candidate when its cosine distance is below
//! `θ + slack` ([`CANDIDACY_SLACK`]).  Any pair the post-solve thresholding
//! step could accept is a candidate by construction, and each candidate's
//! distance is recorded on its block so the solver reuses it instead of
//! recomputing.  The win is the (cubic) solver seeing much smaller
//! independent sub-problems and the masked share of the matrix never being
//! touched again.
//!
//! Within a block, non-candidate combinations are masked with an
//! above-threshold cost, so blocked mode never matches a pair that was not a
//! candidate.  The cartesian fallback (a fold below the policy's
//! `min_blocked_pairs` floor — every fold, under
//! [`BlockingPolicy::exhaustive`]) produces a single unmasked block covering
//! every pair, which preserves the exact exhaustive behaviour.
//!
//! # Size-tiered planning
//!
//! Fold size alone picks how the candidates are found, so blocking stays
//! faithful where it is cheap to be and sub-quadratic where it has to be:
//!
//! 1. **cartesian** (below `min_blocked_pairs`) — one dense block, exactly
//!    the exhaustive behaviour;
//! 2. **exact sweep** (default) — one kernel sweep scores every pair once,
//!    the same dot products the exhaustive cost matrix would pay; recall at
//!    the matching threshold is *exact* as long as no connected component
//!    trips the splitting cap below;
//! 3. **escalated ANN** (at or above [`BlockingPolicy::min_fold_pairs`]) —
//!    the fold's value embeddings are indexed in a
//!    [`lake_embed::AnnIndex`] (SimHash multi-probe buckets), each group
//!    embedding retrieves its colliding values, and only the union of
//!    collisions and surface-key nominations
//!    ([`lake_text::string_block_keys`]: tokens, q-grams, acronyms) is
//!    exactly re-scored.  Probabilistic recall: a sub-cutoff pair can be
//!    missed when its signature disagreements all carry large margins *and*
//!    it shares no usable surface key.
//!
//! Both planned tiers split oversized connected components before solving
//! (see [`BlockingPolicy::max_component_cells`]): candidate edges re-join
//! components strongest-first, and an edge that would merge two clusters
//! past the cell cap is severed and recorded as a [`CutEdge`] so post-solve
//! thresholding (and the equivalence harness) can re-verify that nothing
//! below θ was lost.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use lake_embed::kernel::{self, KernelStats};
use lake_embed::{AnnIndex, AnnParams, AnnScratch, QuantizedSlab, Vector};
use lake_metrics::{PhaseTimings, Stopwatch};
use lake_text::{string_block_keys, BlockKeyOptions};

use crate::config::{BlockingPolicy, FoldTier};

/// Safety margin added to θ when deciding candidacy: pairs at cosine
/// distance below `θ + CANDIDACY_SLACK` are candidates, so any pair the
/// thresholding step could accept is one by construction, and each
/// candidate's measured distance is reused as its cost-matrix entry.
///
/// Zero would keep exactly the pairs thresholding could accept, which
/// maximises pruning but lets the global assignment drift on near-threshold
/// ties: the exhaustive solver's choice *among* sub-θ pairs is steered by the
/// true costs of slightly-above-θ pairs, and masking those severs that
/// influence.  A small positive slack keeps the influence band as
/// candidates; `0.1` reproduces the exhaustive groups exactly on the
/// Auto-Join benchmark sets while still pruning ~90% of the candidate space.
/// (End-to-end recall additionally depends on
/// [`BlockingPolicy::max_component_cells`]: an oversized component may have
/// recorded candidate edges severed before solving.)
///
/// A constant, not a setting: it was calibrated jointly with the surface-key
/// bucket cap (64) and the ANN shape ([`AnnParams::default`]) until the
/// escalated tier reproduced the exact tier's groups on Auto-Join-150
/// (`tests/blocking_equivalence.rs`), and moving one alone voids that.
pub const CANDIDACY_SLACK: f32 = 0.1;

/// Surface keys shared by more than this many participants (groups +
/// values) of an escalated fold are dropped as uninformative — they would
/// nominate a near-cartesian share of the fold for re-scoring and
/// reintroduce the quadratic blow-up.  Calibrated with [`CANDIDACY_SLACK`].
const MAX_KEY_BUCKET: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash over more bytes.
#[inline]
fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes one surface blocking key (a `value_block_keys` string) to the
/// compact `u64` form the planner works with (FNV-1a, the same stable hash
/// the embedders use).
pub fn hash_key(key: &str) -> u64 {
    fnv1a_continue(FNV_OFFSET, key.as_bytes())
}

/// Hashed planner keys are already uniformly mixed (`FNV` output), so the
/// bucket maps use them verbatim instead of re-hashing with SipHash.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }

    fn write_usize(&mut self, value: usize) {
        self.0 = value as u64;
    }
}

type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// One independent sub-problem: row indices (groups) × column indices
/// (values) that may be matched to each other.  Indices refer to the caller's
/// candidate arrays, not to global group ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Row-side members (indices into the candidate group list).
    pub rows: Vec<usize>,
    /// Column-side members (indices into the candidate value list).
    pub cols: Vec<usize>,
    /// The candidate `(row, col, distance)` triples of this block (global
    /// indices, sorted by `(row, col)`), each carrying the exact cosine
    /// distance the planner measured so the solver builds cost matrices
    /// without re-embedding or re-measuring.  `None` means the block is dense
    /// — every combination is a candidate and nothing has been measured yet
    /// (the cartesian fallback).
    pub candidates: Option<Vec<(usize, usize, f32)>>,
}

impl Block {
    /// Number of candidate pairs this block generates (combinations whose
    /// distance is actually computed).
    pub fn pair_count(&self) -> usize {
        match &self.candidates {
            Some(candidates) => candidates.len(),
            None => self.rows.len() * self.cols.len(),
        }
    }

    /// Number of participants (rows + columns).
    pub fn size(&self) -> usize {
        self.rows.len() + self.cols.len()
    }
}

/// Statistics of one or more blocking rounds, reported through
/// [`FuzzyFdReport`](crate::FuzzyFdReport).
///
/// Counters accumulate with [`merge`](Self::merge) (saturating, so
/// pathological workloads degrade to pegged counters instead of wrapping).
///
/// ```
/// use fuzzy_fd_core::BlockingStats;
///
/// let mut total = BlockingStats::default();
/// total.merge(&BlockingStats { folds: 1, candidate_pairs: 25, pruned_pairs: 75, ..Default::default() });
/// assert_eq!(total.pruned_fraction(), 0.75);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockingStats {
    /// Bipartite matching steps (column folds) that went through planning.
    pub folds: usize,
    /// Folds that escalated from the exact sweep to the ANN tier.
    pub escalated_folds: usize,
    /// Blocks actually solved (a cartesian fallback counts as one block).
    pub blocks: usize,
    /// Candidate pairs that entered cost matrices.
    pub candidate_pairs: usize,
    /// Pairs whose exact distance is (or will be) computed: the full
    /// cartesian space for the dense and exact-sweep tiers, only the probed
    /// union for the escalated ANN tier.  This is the number the escalation
    /// tier exists to shrink.
    pub scored_pairs: usize,
    /// Pairs pruned away relative to the exhaustive cartesian space.
    pub pruned_pairs: usize,
    /// Oversized connected components that were split before solving.
    pub split_components: usize,
    /// Candidate edges severed while splitting oversized components.
    pub severed_pairs: usize,
    /// Participants (groups + values) of the largest block seen.
    pub max_block_size: usize,
    /// How the block solves were scheduled on the shared executor
    /// ([`lake_runtime::run_scope`]), accumulated over every fold: tasks,
    /// steals, per-worker busy time.  Empty when every fold solved inline.
    pub runtime: lake_runtime::RuntimeStats,
    /// What the quantized scoring kernel did under the planned tiers:
    /// int8-scored / bound-skipped / f32-re-scored pairs and swept cache
    /// tiles, accumulated over every fold.  Empty for folds that never
    /// touched the kernel (cartesian fallback).
    pub kernel: KernelStats,
    /// Where the planning wall clock went, phase by phase
    /// (hash/probe/pairs/dedup/score/fallback from the planners, assign from
    /// the block solver), accumulated over every fold.  Zero for cartesian
    /// plans, whose only measured phase is the assignment solve.
    pub phase: PhaseTimings,
}

impl BlockingStats {
    /// Folds another round's statistics into this accumulator (saturating).
    pub fn merge(&mut self, other: &BlockingStats) {
        self.folds = self.folds.saturating_add(other.folds);
        self.escalated_folds = self.escalated_folds.saturating_add(other.escalated_folds);
        self.blocks = self.blocks.saturating_add(other.blocks);
        self.candidate_pairs = self.candidate_pairs.saturating_add(other.candidate_pairs);
        self.scored_pairs = self.scored_pairs.saturating_add(other.scored_pairs);
        self.pruned_pairs = self.pruned_pairs.saturating_add(other.pruned_pairs);
        self.split_components = self.split_components.saturating_add(other.split_components);
        self.severed_pairs = self.severed_pairs.saturating_add(other.severed_pairs);
        self.max_block_size = self.max_block_size.max(other.max_block_size);
        self.runtime.merge(&other.runtime);
        self.kernel.merge(&other.kernel);
        self.phase.merge(&other.phase);
    }

    /// Fraction of the exhaustive candidate space that was pruned, in
    /// `[0, 1]` (`0` when nothing was pruned or nothing was planned).
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.candidate_pairs.saturating_add(self.pruned_pairs);
        if total == 0 {
            0.0
        } else {
            self.pruned_pairs as f64 / total as f64
        }
    }
}

/// A candidate edge severed while splitting an oversized component.  Every
/// cut is recorded so post-solve thresholding (and the equivalence harness)
/// can re-verify it: a cut at `distance >= θ` could never have produced a
/// match, so severing it is provably harmless; a cut below θ can only make
/// the matching *miss* a pair, never fabricate one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// Row-side (group) index of the severed candidate pair.
    pub row: usize,
    /// Column-side (value) index of the severed candidate pair.
    pub col: usize,
    /// The pair's exact cosine distance, as measured by the planner.
    pub distance: f32,
}

/// The result of planning one bipartite matching step.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Independent sub-problems; every row and every column appears in at
    /// most one block.  Rows/columns in no block have no candidate partner.
    pub blocks: Vec<Block>,
    /// Candidate edges severed by oversized-component splitting (empty when
    /// nothing was split).
    pub cut_edges: Vec<CutEdge>,
    /// What the plan pruned.
    pub stats: BlockingStats,
}

/// The inputs of one bipartite matching step, from the planner's point of
/// view: hashed surface keys and embeddings for both sides, plus the matching
/// threshold.  Only an escalating fold reads the key slices (they back the
/// ANN index up); the cartesian and exact-sweep tiers ignore them — a pair
/// at distance ≥ θ + slack can never survive thresholding, so surface keys
/// cannot add a useful candidate there — and they may be left empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldInputs<'a> {
    /// Hashed blocking keys of each row (surface keys via
    /// [`hashed_value_block_keys`]; duplicates within an item are tolerated).
    pub row_keys: &'a [Vec<u64>],
    /// Hashed blocking keys of each column.
    pub col_keys: &'a [Vec<u64>],
    /// Embedding of each row (group representative).
    pub row_embeddings: &'a [&'a Vector],
    /// Embedding of each column (value).
    pub col_embeddings: &'a [&'a Vector],
    /// Matching threshold θ of this fold (the candidacy cutoff is
    /// `theta + CANDIDACY_SLACK`).
    pub theta: f32,
}

impl FoldInputs<'_> {
    /// Number of rows, from whichever channel is populated.
    fn rows(&self) -> usize {
        self.row_keys.len().max(self.row_embeddings.len())
    }

    /// Number of columns, from whichever channel is populated.
    fn cols(&self) -> usize {
        self.col_keys.len().max(self.col_embeddings.len())
    }
}

/// The surface blocking keys of one value string under the value-matching
/// profile (all trigrams + acronym keys).  Group keys are the union of the
/// member values' keys, so a value and a group collide as soon as the value
/// shares a key with any member.
pub fn value_block_keys(value: &str) -> BTreeSet<String> {
    string_block_keys(value, &BlockKeyOptions::value_matching())
}

/// Hashes a full surface-key set ([`value_block_keys`]) into planner form.
pub fn hashed_keys(keys: &BTreeSet<String>) -> Vec<u64> {
    keys.iter().map(|k| hash_key(k)).collect()
}

/// The hashed surface keys of one value, computed without materialising the
/// key strings — hash-identical to `hashed_keys(&value_block_keys(value))`
/// (duplicates may appear; the planner dedups).  This is the hot-path form
/// used by every fold step.
pub fn hashed_value_block_keys(value: &str) -> Vec<u64> {
    use lake_text::{acronym, normalize_aggressive, words};

    // Seeds equal an FNV-1a hash of the namespace prefix, so continuing over
    // the token bytes matches `hash_key("t:<token>")` &c. exactly.
    let token_seed = fnv1a_continue(FNV_OFFSET, b"t:");
    let gram_seed = fnv1a_continue(FNV_OFFSET, b"g:");
    let acronym_seed = fnv1a_continue(FNV_OFFSET, b"a:");
    let options = BlockKeyOptions::value_matching();

    let mut keys = Vec::new();
    let mut utf8 = [0u8; 4];
    let text = normalize_aggressive(value);
    let tokens = words(&text);
    for token in &tokens {
        // Byte-measured gate, mirroring `string_block_keys`.
        if token.len() < options.min_token_len {
            continue;
        }
        let chars: Vec<char> = token.chars().collect();
        keys.push(fnv1a_continue(token_seed, token.as_bytes()));
        if chars.len() < options.qgram {
            // `char_ngrams` yields the whole (short) token as its one gram.
            keys.push(fnv1a_continue(gram_seed, token.as_bytes()));
        } else {
            for gram in chars.windows(options.qgram) {
                let mut hash = gram_seed;
                for &c in gram {
                    hash = fnv1a_continue(hash, c.encode_utf8(&mut utf8).as_bytes());
                }
                keys.push(hash);
            }
        }
    }
    if tokens.len() >= 2 {
        // Round-trip through `acronym` so case-folding edge cases (ß → ss)
        // agree with the string form byte for byte.
        let initials = acronym(&text).to_lowercase();
        if initials.chars().count() >= 2 {
            keys.push(fnv1a_continue(acronym_seed, initials.as_bytes()));
        }
    } else if let Some(token) = tokens.first() {
        let len = token.chars().count();
        if (2..=lake_text::MAX_ACRONYM_LEN).contains(&len) {
            keys.push(fnv1a_continue(acronym_seed, token.as_bytes()));
        }
    }
    keys
}

/// Canonicalizes a candidate-pair list in place: ascending `(row, col)`
/// order with duplicates removed — the one place the planner's pair-list
/// invariant (sorted, unique, row-major) lives.  Pair coordinates must be in
/// `0..rows` / `0..cols`.
///
/// Runs as a two-pass stable counting (radix) sort in O(pairs + rows + cols)
/// — the planner's id spaces are dense, so this beats the O(pairs·log pairs)
/// comparison sort the call sites used to carry — and falls back to the
/// comparison sort when the id space dwarfs the pair list.  The output never
/// exceeds the input length (pinned by the planner regression test).
pub fn canonicalize_pairs(pairs: &mut Vec<(usize, usize)>, rows: usize, cols: usize) {
    radix_canonicalize(pairs, None, rows, cols);
}

/// As [`canonicalize_pairs`], keeping `costs` aligned with `pairs`.  Every
/// duplicate of a pair must carry the same cost (the planner measures each
/// pair's distance exactly, so re-encounters agree bit for bit); the first
/// occurrence survives.
///
/// # Panics
/// Panics (in debug builds) when `costs` is not aligned with `pairs`.
pub fn canonicalize_pairs_with_costs(
    pairs: &mut Vec<(usize, usize)>,
    costs: &mut Vec<f32>,
    rows: usize,
    cols: usize,
) {
    debug_assert_eq!(pairs.len(), costs.len(), "costs must align with pairs");
    radix_canonicalize(pairs, Some(costs), rows, cols);
}

fn radix_canonicalize(
    pairs: &mut Vec<(usize, usize)>,
    costs: Option<&mut Vec<f32>>,
    rows: usize,
    cols: usize,
) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    if rows.saturating_add(cols) > (4 * n).saturating_add(1024) {
        // The counting arrays would dwarf the pair list; compare instead.
        match costs {
            Some(costs) => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_unstable_by_key(|&i| pairs[i]);
                order.dedup_by_key(|i| pairs[*i]);
                let (kept_pairs, kept_costs): (Vec<_>, Vec<_>) =
                    order.into_iter().map(|i| (pairs[i], costs[i])).unzip();
                *pairs = kept_pairs;
                *costs = kept_costs;
            }
            None => {
                pairs.sort_unstable();
                pairs.dedup();
            }
        }
        return;
    }
    // LSD radix over the two coordinates: a stable counting pass by column,
    // then one by row, yields ascending (row, col) order.
    let mut by_col = vec![0usize; cols + 1];
    for &(_, c) in pairs.iter() {
        by_col[c + 1] += 1;
    }
    for i in 1..by_col.len() {
        by_col[i] += by_col[i - 1];
    }
    let mut order_by_col = vec![0usize; n];
    for (i, &(_, c)) in pairs.iter().enumerate() {
        order_by_col[by_col[c]] = i;
        by_col[c] += 1;
    }
    let mut by_row = vec![0usize; rows + 1];
    for &(r, _) in pairs.iter() {
        by_row[r + 1] += 1;
    }
    for i in 1..by_row.len() {
        by_row[i] += by_row[i - 1];
    }
    let mut order = vec![0usize; n];
    for &i in &order_by_col {
        let r = pairs[i].0;
        order[by_row[r]] = i;
        by_row[r] += 1;
    }
    // Gather in final order, dropping adjacent duplicates as they stream by.
    let mut out_pairs = Vec::with_capacity(n);
    let mut out_costs = costs.as_ref().map(|c| Vec::with_capacity(c.len()));
    for &i in &order {
        if out_pairs.last() == Some(&pairs[i]) {
            continue;
        }
        out_pairs.push(pairs[i]);
        if let (Some(out), Some(costs)) = (&mut out_costs, &costs) {
            out.push(costs[i]);
        }
    }
    *pairs = out_pairs;
    if let (Some(costs), Some(out)) = (costs, out_costs) {
        *costs = out;
    }
}

/// Merges one row's sorted duplicate-free probe candidates with its
/// (canonical, hence sorted) surface-key run into `out` — the union, sorted
/// and duplicate-free, in O(a + b).  The escalated planner calls this once
/// per row, so the two candidate channels deduplicate without ever
/// materializing a fold-wide pair list.
fn merge_sorted_cols(candidates: &[u32], keyed_run: &[(usize, usize)], out: &mut Vec<usize>) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "probe candidates not canonical");
    debug_assert!(keyed_run.windows(2).all(|w| w[0].1 < w[1].1), "keyed run not canonical");
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < candidates.len() && j < keyed_run.len() {
        let a = candidates[i] as usize;
        let b = keyed_run[j].1;
        match a.cmp(&b) {
            std::cmp::Ordering::Less => {
                out.push(a);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(candidates[i..].iter().map(|&c| c as usize));
    out.extend(keyed_run[j..].iter().map(|&(_, c)| c));
}

/// Merges two already-canonical (strictly ascending, duplicate-free) pair
/// lists, carrying costs alongside: `pairs`/`costs` (already
/// canonical) absorb the canonical `tail_pairs`/`tail_costs`.  Cross-list
/// duplicates keep the first list's copy — callers guarantee duplicates carry
/// the same measured cost.
fn merge_canonical_with_costs(
    pairs: &mut Vec<(usize, usize)>,
    costs: &mut Vec<f32>,
    tail_pairs: Vec<(usize, usize)>,
    tail_costs: Vec<f32>,
) {
    debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "base merge input is not canonical");
    debug_assert!(tail_pairs.windows(2).all(|w| w[0] < w[1]), "tail merge input is not canonical");
    debug_assert_eq!(pairs.len(), costs.len());
    debug_assert_eq!(tail_pairs.len(), tail_costs.len());
    if tail_pairs.is_empty() {
        return;
    }
    let mut out_pairs = Vec::with_capacity(pairs.len() + tail_pairs.len());
    let mut out_costs = Vec::with_capacity(pairs.len() + tail_pairs.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < pairs.len() && j < tail_pairs.len() {
        match pairs[i].cmp(&tail_pairs[j]) {
            std::cmp::Ordering::Less => {
                out_pairs.push(pairs[i]);
                out_costs.push(costs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out_pairs.push(tail_pairs[j]);
                out_costs.push(tail_costs[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out_pairs.push(pairs[i]);
                out_costs.push(costs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out_pairs.extend_from_slice(&pairs[i..]);
    out_costs.extend_from_slice(&costs[i..]);
    out_pairs.extend_from_slice(&tail_pairs[j..]);
    out_costs.extend_from_slice(&tail_costs[j..]);
    *pairs = out_pairs;
    *costs = out_costs;
}

/// Plans the blocks of one bipartite matching step.
///
/// When the policy's `min_blocked_pairs` floor exceeds the candidate space
/// (always, under [`BlockingPolicy::exhaustive`]) the plan is a single
/// cartesian block and nothing is pruned.  Otherwise the fold's size picks
/// between the exact distance sweep over the embedding slices and, for folds
/// at or above [`BlockingPolicy::min_fold_pairs`], the sub-quadratic ANN
/// tier (the only one that reads `input`'s key slices).
///
/// ```
/// use fuzzy_fd_core::{plan_blocks, BlockingPolicy, FoldInputs};
/// use lake_embed::Vector;
///
/// // Two well-separated clusters: each row is near exactly one column.
/// let (a, b) = (Vector::new(vec![1.0, 0.0]), Vector::new(vec![0.0, 1.0]));
/// let input = FoldInputs {
///     row_embeddings: &[&a, &b],
///     col_embeddings: &[&a, &b],
///     theta: 0.5,
///     ..FoldInputs::default()
/// };
/// let plan = plan_blocks(&input, &BlockingPolicy::default().force_blocked());
/// assert_eq!(plan.blocks.len(), 2); // one independent sub-problem per cluster
/// assert_eq!(plan.stats.pruned_pairs, 2); // the cross-cluster pairs
/// ```
pub fn plan_blocks(input: &FoldInputs<'_>, policy: &BlockingPolicy) -> BlockPlan {
    plan_tier(input, policy.tier(input.rows(), input.cols()), policy.max_component_cells)
}

/// Runs the planner of an already-chosen tier (see [`BlockingPolicy::tier`]).
pub(crate) fn plan_tier(
    input: &FoldInputs<'_>,
    tier: FoldTier,
    max_component_cells: usize,
) -> BlockPlan {
    let cutoff = input.theta + CANDIDACY_SLACK;
    match tier {
        FoldTier::Cartesian => plan_cartesian(input.rows(), input.cols()),
        FoldTier::Exact => plan_exact(input, cutoff, max_component_cells),
        FoldTier::Escalated => plan_escalated(input, cutoff, max_component_cells),
    }
}

/// The exact sub-threshold planner: the fold's embeddings are packed into
/// [`QuantizedSlab`]s and one cache-blocked kernel sweep
/// ([`kernel::sweep_below`]) classifies every (row, col) pair — int8
/// estimates prove most pairs above `cutoff`, the near-threshold band is
/// re-scored in exact f32, and surviving pairs carry their exact distance
/// into the blocks, bit-identical to a dense f32 sweep.  *Candidacy* at the
/// matching threshold is exact by construction; when a component exceeds
/// `max_component_cells` the splitter may still sever candidate edges
/// (each one recorded as a [`CutEdge`]), so end-to-end recall is exact
/// whenever no component is oversized.
fn plan_exact(input: &FoldInputs<'_>, cutoff: f32, max_component_cells: usize) -> BlockPlan {
    let watch = Stopwatch::start();
    let rows = input.row_embeddings.len();
    let cols = input.col_embeddings.len();
    let ((row_slab, col_slab), hash_time) = Stopwatch::time(|| {
        (
            QuantizedSlab::from_vectors(input.row_embeddings),
            QuantizedSlab::from_vectors(input.col_embeddings),
        )
    });
    let mut kernel_stats = KernelStats::default();
    let ((pairs, costs), score_time) =
        Stopwatch::time(|| kernel::sweep_below(&row_slab, &col_slab, cutoff, &mut kernel_stats));
    let (mut plan, assemble_time) =
        Stopwatch::time(|| assemble_components(rows, cols, pairs, costs, max_component_cells));
    plan.stats.scored_pairs = rows * cols;
    plan.stats.kernel = kernel_stats;
    plan.stats.phase.hash = hash_time;
    plan.stats.phase.score = score_time;
    plan.stats.phase.pairs = assemble_time;
    plan.stats.phase.total = watch.total();
    plan
}

/// The escalated (ANN) planner: the fold's column embeddings are indexed
/// once under SimHash multi-probe buckets, every row embedding retrieves its
/// colliding columns, and the union of collisions and surface-key candidate
/// pairs is re-scored exactly against `cutoff`.  Sub-quadratic — only the
/// probed union is scored — but probabilistically incomplete: a sub-cutoff
/// pair can be missed when its signature disagreements all carry large
/// margins and it shares no usable surface key.
///
/// Two repairs bound the incompleteness:
///
/// * every candidate that survives *is* exact — distances come from real
///   dot products, never from the sketch;
/// * a row or column left without any *matchable* candidate (below θ — a
///   candidate in the slack band `[θ, θ + slack)` can only influence the
///   solver, never become a match) is swept exactly against the whole other
///   side before being given up on.  A participant can therefore only
///   deviate from the exact sweep's result if the index supplied at least
///   one genuine alternative for it.
fn plan_escalated(input: &FoldInputs<'_>, cutoff: f32, max_component_cells: usize) -> BlockPlan {
    let watch = Stopwatch::start();
    let rows = input.row_embeddings.len();
    let cols = input.col_embeddings.len();
    let mut phase = PhaseTimings::default();

    // One pair of quantized slabs serves the whole tier: the column slab
    // feeds the batch-signed ANN index (`build_from_slab` signs every row in
    // one slab-resident sweep) and both slabs feed the exact re-scoring
    // kernel below, so the fold's embeddings are packed exactly once.
    let ((row_slab, col_slab, index), hash_time) = Stopwatch::time(|| {
        let row_slab = QuantizedSlab::from_vectors(input.row_embeddings);
        let col_slab = QuantizedSlab::from_vectors(input.col_embeddings);
        let index = AnnIndex::build_from_slab(AnnParams::default(), &col_slab);
        (row_slab, col_slab, index)
    });
    phase.hash = hash_time;

    // The surface-key channel is sub-quadratic by construction and catches
    // the shared-token/typo pairs the probabilistic index is most likely to
    // drop, so its candidates ride along for free.
    let (keyed_pairs, keyed_time) = Stopwatch::time(|| keyed_pair_set(input, MAX_KEY_BUCKET));
    phase.pairs = keyed_time;

    // All re-scoring below goes through the quantized kernel: the int8 tier
    // proves most candidates above `cutoff` and only the near-threshold band
    // pays for an exact f32 dot product — with results bit-identical to the
    // dense distance closure this code used to carry.
    //
    // Probing, channel union and scoring run fused, one row at a time: the
    // row's probe candidates and its (canonical, row-grouped) surface-key run
    // merge into one sorted column list that feeds straight into the batched
    // kernel entry point — no fold-wide pair list is ever materialized, and
    // deduplicating the two channels is a linear per-row merge.
    let mut kernel_stats = KernelStats::default();
    let mut scored = 0usize;
    let theta = input.theta;
    let mut kept: Vec<(usize, usize)> = Vec::new();
    let mut costs: Vec<f32> = Vec::new();
    let mut row_live = vec![false; rows];
    let mut col_live = vec![false; cols];
    {
        let mut ann_scratch = AnnScratch::default();
        let mut candidates: Vec<u32> = Vec::new();
        let mut merged_cols: Vec<usize> = Vec::new();
        let mut keyed_at = 0usize;
        for (r, row) in input.row_embeddings.iter().enumerate() {
            let ((), probe_time) = Stopwatch::time(|| {
                index.candidates_with(row, &mut ann_scratch, &mut candidates);
            });
            phase.probe += probe_time;
            let keyed_start = keyed_at;
            while keyed_at < keyed_pairs.len() && keyed_pairs[keyed_at].0 == r {
                keyed_at += 1;
            }
            let ((), dedup_time) = Stopwatch::time(|| {
                merge_sorted_cols(
                    &candidates,
                    &keyed_pairs[keyed_start..keyed_at],
                    &mut merged_cols,
                );
            });
            phase.dedup += dedup_time;
            scored += merged_cols.len();
            let ((), score_time) = Stopwatch::time(|| {
                let mut live = false;
                kernel::row_distances_below(
                    &row_slab,
                    r,
                    &col_slab,
                    merged_cols.iter().copied(),
                    cutoff,
                    &mut kernel_stats,
                    |c, d| {
                        kept.push((r, c));
                        costs.push(d);
                        live |= d < theta;
                        col_live[c] |= d < theta;
                    },
                );
                row_live[r] = live;
            });
            phase.score += score_time;
        }
    }

    // Fallback sweeps: a column value with no *matchable* candidate (below
    // θ; slack-band candidates only steer the solver) is exactly swept
    // against every group, and vice versa for rows, before the plan declares
    // it unmatchable.  This is what keeps the tier faithful for participants
    // the sketch is blind to; it degrades to the exact sweep's own cost only
    // in the pathological fold where nothing is matchable at all.
    let fallback_start = kept.len();
    let ((), fallback_time) = Stopwatch::time(|| {
        let swept_cols: Vec<bool> = col_live.iter().map(|&live| !live).collect();
        let unswept_cols = cols - swept_cols.iter().filter(|&&swept| swept).count();
        for (c, &swept) in swept_cols.iter().enumerate() {
            if !swept {
                continue;
            }
            scored += rows;
            for (r, live) in row_live.iter_mut().enumerate() {
                if let Some(d) =
                    kernel::distance_below(&row_slab, r, &col_slab, c, cutoff, &mut kernel_stats)
                {
                    kept.push((r, c));
                    costs.push(d);
                    *live |= d < theta;
                }
            }
        }
        for (r, &live) in row_live.iter().enumerate() {
            if live {
                continue;
            }
            // Columns swept above are already fully scored against every
            // row, including this one — only the others need a look.
            for (c, &already_swept) in swept_cols.iter().enumerate() {
                if !already_swept {
                    if let Some(d) = kernel::distance_below(
                        &row_slab,
                        r,
                        &col_slab,
                        c,
                        cutoff,
                        &mut kernel_stats,
                    ) {
                        kept.push((r, c));
                        costs.push(d);
                    }
                }
            }
            scored += unswept_cols;
        }
    });
    phase.fallback = fallback_time;

    // A sweep can revisit a slack-band pair the probing already kept (slack
    // candidates do not make their participants live); duplicates carry the
    // same measured distance, so either copy may survive.  The pre-fallback
    // prefix of `kept` is a filtered subsequence of the canonical pair list
    // and therefore still canonical — only the fallback suffix needs sorting
    // before a linear merge folds it in.
    let ((), sweep_dedup_time) = Stopwatch::time(|| {
        if kept.len() > fallback_start {
            let mut tail_pairs = kept.split_off(fallback_start);
            let mut tail_costs = costs.split_off(fallback_start);
            canonicalize_pairs_with_costs(&mut tail_pairs, &mut tail_costs, rows, cols);
            merge_canonical_with_costs(&mut kept, &mut costs, tail_pairs, tail_costs);
        }
    });
    phase.dedup += sweep_dedup_time;

    let (mut plan, assemble_time) =
        Stopwatch::time(|| assemble_components(rows, cols, kept, costs, max_component_cells));
    phase.pairs += assemble_time;
    plan.stats.scored_pairs = scored;
    plan.stats.escalated_folds = 1;
    plan.stats.kernel = kernel_stats;
    phase.total = watch.total();
    plan.stats.phase = phase;
    plan
}

/// The sorted, duplicate-free pairs the surface-key channel nominates: a row
/// and a column sharing a usable key.  Nominations carry no distance — the
/// escalated planner re-scores each one.
fn keyed_pair_set(input: &FoldInputs<'_>, max_key_bucket: usize) -> Vec<(usize, usize)> {
    let rows = input.rows();
    let cols = input.cols();
    let total_pairs = rows * cols;

    // Bucket rows and columns by key — sort-based grouping of (key, node)
    // entries instead of a hash map, which keeps the hot path allocation-free
    // — then emit every cross-side combination of each usable bucket as a
    // candidate pair.  Buckets bigger than the cap are uninformative
    // ("the"-style keys) and skipped entirely.  A bitmap over the candidate
    // space dedups pairs reachable through several shared keys (it costs one
    // bit per cartesian pair, which is fine for any space worth blocking; a
    // keyed map takes over for astronomically large folds).
    let mut entries: Vec<(u64, u32)> = Vec::with_capacity(
        input.row_keys.iter().map(Vec::len).sum::<usize>()
            + input.col_keys.iter().map(Vec::len).sum::<usize>(),
    );
    for (i, keys) in input.row_keys.iter().enumerate() {
        entries.extend(keys.iter().map(|&k| (k, i as u32)));
    }
    for (j, keys) in input.col_keys.iter().enumerate() {
        entries.extend(keys.iter().map(|&k| (k, (rows + j) as u32)));
    }
    entries.sort_unstable();
    entries.dedup();

    const BITMAP_CAP: usize = 1 << 24; // 2 MiB of bits
    let mut bitmap: Vec<u64> =
        if total_pairs <= BITMAP_CAP { vec![0u64; total_pairs.div_ceil(64)] } else { Vec::new() };
    let mut seen: KeyMap<()> = KeyMap::default();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < entries.len() {
        let key = entries[start].0;
        let mut end = start;
        while end < entries.len() && entries[end].0 == key {
            end += 1;
        }
        let bucket = &entries[start..end];
        start = end;
        // Nodes in a run are sorted, so rows come before columns.
        let split = bucket.partition_point(|&(_, node)| (node as usize) < rows);
        let (bucket_rows, bucket_cols) = bucket.split_at(split);
        if bucket_rows.is_empty() || bucket_cols.is_empty() {
            continue;
        }
        if bucket.len() > max_key_bucket {
            continue;
        }
        for &(_, r) in bucket_rows {
            for &(_, c) in bucket_cols {
                let (r, c) = (r as usize, c as usize - rows);
                let flat = r * cols + c;
                let fresh = if bitmap.is_empty() {
                    seen.insert(flat as u64, ()).is_none()
                } else {
                    let (word, bit) = (flat / 64, flat % 64);
                    let fresh = bitmap[word] & (1 << bit) == 0;
                    bitmap[word] |= 1 << bit;
                    fresh
                };
                if fresh {
                    pairs.push((r, c));
                }
            }
        }
    }
    // The bitmap/map already deduplicated; canonicalization radix-sorts.
    canonicalize_pairs(&mut pairs, rows, cols);
    pairs
}

/// Builds the block plan from a canonical candidate-pair list and its
/// aligned costs: connected components of the candidate graph are
/// independent sub-problems (they share no row and no column), and oversized
/// ones are split first.
///
/// Components whose cost matrix would exceed `max_component_cells` cells are
/// rebuilt Kruskal-style: edges re-join components in order of increasing
/// distance, and an edge that would merge two clusters past the cap is
/// severed instead (an edge *inside* a cluster is always kept — it only
/// unmasks a cell that is already being paid for).  Severing keeps the
/// strongest links and cuts the weakest ones, which on real folds are
/// overwhelmingly slack-band edges (distance ≥ θ) that post-solve
/// thresholding would reject anyway; every cut is recorded as a [`CutEdge`]
/// so that claim is verifiable after the fact.
fn assemble_components(
    rows: usize,
    cols: usize,
    pairs: Vec<(usize, usize)>,
    costs: Vec<f32>,
    max_component_cells: usize,
) -> BlockPlan {
    // Cheap pre-pass: splitting is a no-op unless some component is actually
    // oversized.
    let mut parent: Vec<usize> = (0..rows + cols).collect();
    for &(r, c) in &pairs {
        union(&mut parent, r, rows + c);
    }
    let mut row_count = vec![0usize; rows + cols];
    let mut col_count = vec![0usize; rows + cols];
    for node in 0..rows + cols {
        let root = find(&mut parent, node);
        if node < rows {
            row_count[root] += 1;
        } else {
            col_count[root] += 1;
        }
    }
    let oversized = (0..rows + cols)
        .filter(|&node| {
            parent[node] == node && row_count[node] * col_count[node] > max_component_cells
        })
        .count();
    if oversized == 0 {
        return assemble_from_parent(rows, cols, pairs, costs, parent);
    }

    // Kruskal rebuild: strongest (smallest-distance) edges first, capped
    // cluster sizes.  Ties break on the pair itself for determinism — the
    // pair list arrives canonical (strictly ascending), so the index is the
    // pair order and the whole sort key packs into one u64 (total-order cost
    // bits high, index low), sorted without a comparator closure.
    debug_assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "assemble_components needs a canonical pair list"
    );
    let order: Vec<usize> = if pairs.len() <= u32::MAX as usize {
        let mut packed: Vec<u64> = costs
            .iter()
            .enumerate()
            .map(|(idx, &cost)| ((total_order_bits(cost) as u64) << 32) | idx as u64)
            .collect();
        packed.sort_unstable();
        packed.into_iter().map(|key| (key & u32::MAX as u64) as usize).collect()
    } else {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then_with(|| pairs[a].cmp(&pairs[b])));
        order
    };
    let mut parent: Vec<usize> = (0..rows + cols).collect();
    let mut row_count = vec![0usize; rows + cols];
    let mut col_count = vec![0usize; rows + cols];
    row_count[..rows].fill(1);
    col_count[rows..].fill(1);
    let mut kept = vec![false; pairs.len()];
    for idx in order {
        let (r, c) = pairs[idx];
        let (ra, rb) = (find(&mut parent, r), find(&mut parent, rows + c));
        if ra == rb {
            kept[idx] = true;
            continue;
        }
        let merged_rows = row_count[ra] + row_count[rb];
        let merged_cols = col_count[ra] + col_count[rb];
        if merged_rows * merged_cols <= max_component_cells {
            union(&mut parent, r, rows + c);
            let root = find(&mut parent, r);
            row_count[root] = merged_rows;
            col_count[root] = merged_cols;
            kept[idx] = true;
        }
    }
    // Severed edges read back out of the kept bitmap in index order — the
    // pair list is canonical, so they come out already sorted by (row, col)
    // and the old post-hoc sort disappears.
    let cut_edges: Vec<CutEdge> = kept
        .iter()
        .enumerate()
        .filter(|&(_, &keep)| !keep)
        .map(|(idx, _)| CutEdge { row: pairs[idx].0, col: pairs[idx].1, distance: costs[idx] })
        .collect();

    // Compact the kept edges in place (the lists are ours to reuse), then
    // hand the Kruskal union-find over directly: it unioned exactly the kept
    // edges, so it already is the component structure of the kept pairs, and
    // roots are the minimum node of each component by construction, so block
    // order is unaffected.
    let mut pairs = pairs;
    let mut costs = costs;
    let mut write = 0usize;
    for idx in 0..pairs.len() {
        if kept[idx] {
            pairs[write] = pairs[idx];
            costs[write] = costs[idx];
            write += 1;
        }
    }
    pairs.truncate(write);
    costs.truncate(write);
    let mut plan = assemble_from_parent(rows, cols, pairs, costs, parent);
    plan.stats.split_components = oversized;
    plan.stats.severed_pairs = cut_edges.len();
    plan.cut_edges = cut_edges;
    plan
}

/// Gathers the components of `parent` — a union-find over rows (nodes
/// `0..rows`) and columns (`rows..rows + cols`) that unioned exactly `pairs`
/// — into blocks and scatters each pair, with its cost, onto its block.
fn assemble_from_parent(
    rows: usize,
    cols: usize,
    pairs: Vec<(usize, usize)>,
    costs: Vec<f32>,
    mut parent: Vec<usize>,
) -> BlockPlan {
    // Gather components in node order for determinism; nodes in no candidate
    // pair form one-sided components and are dropped below.  Roots index a
    // plain vector (sentinel = unseen) — the pair scatter below does one
    // lookup per pair, which a hash map would turn into the hottest line of
    // plan assembly.
    const UNSEEN: usize = usize::MAX;
    let mut component_of_root: Vec<usize> = vec![UNSEEN; rows + cols];
    let mut blocks: Vec<Block> = Vec::new();
    for node in 0..rows + cols {
        let root = find(&mut parent, node);
        if component_of_root[root] == UNSEEN {
            component_of_root[root] = blocks.len();
            blocks.push(Block { rows: Vec::new(), cols: Vec::new(), candidates: None });
        }
        let idx = component_of_root[root];
        if node < rows {
            blocks[idx].rows.push(node);
        } else {
            blocks[idx].cols.push(node - rows);
        }
    }
    for ((r, c), cost) in pairs.into_iter().zip(costs) {
        let root = find(&mut parent, r);
        let block = &mut blocks[component_of_root[root]];
        block.candidates.get_or_insert_with(Vec::new).push((r, c, cost));
    }
    // Blocks missing one side generate no pairs; drop them.  Every block
    // that stays was unioned by at least one pair, so it is enumerated.
    blocks.retain(|b| !b.rows.is_empty() && !b.cols.is_empty());

    let candidate_pairs: usize = blocks.iter().map(Block::pair_count).sum();
    let stats = BlockingStats {
        folds: 1,
        blocks: blocks.len(),
        candidate_pairs,
        pruned_pairs: rows * cols - candidate_pairs,
        max_block_size: blocks.iter().map(Block::size).max().unwrap_or(0),
        ..BlockingStats::default()
    };
    BlockPlan { blocks, cut_edges: Vec::new(), stats }
}

/// The plan of a cartesian (unblocked) step: one dense block covering every
/// (row, col) combination, nothing pruned.  This is what the
/// `min_blocked_pairs` floor (and with it [`BlockingPolicy::exhaustive`])
/// resolves to; exposed so callers that already know a fold is cartesian can
/// skip [`plan_blocks`]' input assembly entirely.
///
/// Degenerate shapes are legal: a `0 × n` (or `n × 0`, or `0 × 0`) step has
/// an empty candidate space, so the plan holds no block at all and every
/// counter is zero.
///
/// ```
/// use fuzzy_fd_core::plan_cartesian;
///
/// let plan = plan_cartesian(2, 3);
/// assert_eq!(plan.blocks.len(), 1);
/// assert_eq!(plan.stats.candidate_pairs, 6);
/// assert!(plan_cartesian(0, 3).blocks.is_empty());
/// ```
pub fn plan_cartesian(rows: usize, cols: usize) -> BlockPlan {
    let mut blocks = Vec::new();
    if rows > 0 && cols > 0 {
        blocks.push(Block {
            rows: (0..rows).collect(),
            cols: (0..cols).collect(),
            candidates: None,
        });
    }
    let stats = BlockingStats {
        folds: 1,
        blocks: blocks.len(),
        candidate_pairs: rows * cols,
        scored_pairs: rows * cols,
        pruned_pairs: 0,
        max_block_size: blocks.first().map(Block::size).unwrap_or(0),
        ..BlockingStats::default()
    };
    BlockPlan { blocks, cut_edges: Vec::new(), stats }
}

/// Monotone map from [`f32::total_cmp`] order onto unsigned integer order:
/// negative floats flip every bit, non-negatives flip the sign bit.  Lets a
/// cost ride in the high half of a packed `u64` sort key.
fn total_order_bits(cost: f32) -> u32 {
    let bits = cost.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000
    }
}

fn find(parent: &mut [usize], node: usize) -> usize {
    let mut root = node;
    while parent[root] != root {
        root = parent[root];
    }
    // Path compression.
    let mut current = node;
    while parent[current] != root {
        let next = parent[current];
        parent[current] = root;
        current = next;
    }
    root
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        // Attach the larger root under the smaller one so component roots —
        // and with them block order — stay deterministic.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(strs: &[&str]) -> Vec<Vec<u64>> {
        strs.iter().map(|s| hashed_keys(&value_block_keys(s))).collect()
    }

    /// Every fold, however small, takes the escalated (ANN) planner.
    fn always_escalate() -> BlockingPolicy {
        BlockingPolicy { min_blocked_pairs: 0, min_fold_pairs: 0, ..BlockingPolicy::default() }
    }

    fn key_inputs<'a>(rows: &'a [Vec<u64>], cols: &'a [Vec<u64>]) -> FoldInputs<'a> {
        FoldInputs { row_keys: rows, col_keys: cols, ..FoldInputs::default() }
    }

    #[test]
    fn exhaustive_policy_yields_one_cartesian_block() {
        let rows = keys(&["Berlin", "Toronto"]);
        let cols = keys(&["Boston", "Quito", "Lima"]);
        let plan = plan_blocks(&key_inputs(&rows, &cols), &BlockingPolicy::exhaustive());
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.blocks[0].rows, vec![0, 1]);
        assert_eq!(plan.blocks[0].cols, vec![0, 1, 2]);
        assert_eq!(plan.stats.pruned_pairs, 0);
        assert_eq!(plan.stats.candidate_pairs, 6);
    }

    #[test]
    fn min_blocked_pairs_floor_falls_back_to_cartesian() {
        let rows = keys(&["Berlin"]);
        let cols = keys(&["Toronto"]);
        let policy = BlockingPolicy { min_blocked_pairs: 100, ..BlockingPolicy::default() };
        let plan = plan_blocks(&key_inputs(&rows, &cols), &policy);
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.stats.pruned_pairs, 0);
    }

    #[test]
    fn disjoint_surfaces_nominate_disjoint_pairs() {
        let rows = keys(&["Berlin", "Toronto"]);
        let cols = keys(&["Berlinn", "Torontoo"]);
        let pairs = keyed_pair_set(&key_inputs(&rows, &cols), MAX_KEY_BUCKET);
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn unmatched_values_appear_in_no_pair() {
        let rows = keys(&["Berlin"]);
        let cols = keys(&["Berlinn", "Zanzibar"]);
        let pairs = keyed_pair_set(&key_inputs(&rows, &cols), MAX_KEY_BUCKET);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn oversized_key_buckets_are_ignored() {
        // Every value shares the token "city", but the bucket cap is too
        // small for that key to be usable, so nothing connects.
        let rows = keys(&["city alpha", "city beta"]);
        let cols = keys(&["city gamma", "city delta"]);
        let input = key_inputs(&rows, &cols);
        assert!(keyed_pair_set(&input, 3).is_empty());
        // With a generous cap the shared token nominates every combination.
        assert_eq!(keyed_pair_set(&input, MAX_KEY_BUCKET).len(), 4);
    }

    #[test]
    fn acronym_keys_bridge_initialisms() {
        let rows = keys(&["United Nations"]);
        let cols = keys(&["UN"]);
        assert_eq!(keyed_pair_set(&key_inputs(&rows, &cols), MAX_KEY_BUCKET), vec![(0, 0)]);
    }

    #[test]
    fn empty_inputs_plan_no_blocks() {
        assert!(keyed_pair_set(&key_inputs(&[], &[]), MAX_KEY_BUCKET).is_empty());
        let rows = keys(&["Berlin"]);
        let plan = plan_blocks(&key_inputs(&rows, &[]), &BlockingPolicy::exhaustive());
        assert!(plan.blocks.is_empty());
        assert_eq!(plan.stats.candidate_pairs, 0);
    }

    #[test]
    fn blocks_partition_rows_and_cols() {
        let rows = keys(&["alpha one", "beta two", "gamma three", "alpha four"]);
        let cols = keys(&["alpha", "beta", "delta", "gamma"]);
        let pairs = keyed_pair_set(&key_inputs(&rows, &cols), MAX_KEY_BUCKET);
        let costs = vec![0.0; pairs.len()];
        let plan = assemble_components(rows.len(), cols.len(), pairs, costs, usize::MAX);
        let mut seen_rows = BTreeSet::new();
        let mut seen_cols = BTreeSet::new();
        for block in &plan.blocks {
            for r in &block.rows {
                assert!(seen_rows.insert(*r), "row {r} in two blocks");
            }
            for c in &block.cols {
                assert!(seen_cols.insert(*c), "col {c} in two blocks");
            }
        }
        let total: usize = plan.blocks.iter().map(Block::pair_count).sum();
        assert_eq!(total, plan.stats.candidate_pairs);
        assert_eq!(plan.stats.candidate_pairs + plan.stats.pruned_pairs, 16);
    }

    #[test]
    fn allocation_free_hashing_matches_the_string_keys() {
        for value in [
            "Berlin",
            "New Delhi",
            "United Nations",
            "UN",
            "U.S.",
            "Zürich",
            "a",
            "",
            "Jean-Luc  Picard!",
            "rock-n-roll 42",
            "xy",
            "東",
            "東 京都",
        ] {
            let via_strings: BTreeSet<u64> =
                hashed_keys(&value_block_keys(value)).into_iter().collect();
            let direct: BTreeSet<u64> = hashed_value_block_keys(value).into_iter().collect();
            assert_eq!(via_strings, direct, "hash mismatch for {value:?}");
        }
    }

    #[test]
    fn hashed_keys_are_stable_and_distinct_per_namespace() {
        assert_eq!(hash_key("t:berlin"), hash_key("t:berlin"));
        assert_ne!(hash_key("t:berlin"), hash_key("g:berlin"));
    }

    #[test]
    fn exact_channel_blocks_on_sub_threshold_distances() {
        // Two orthogonal-ish clusters: e0/e1 close to each other, e2/e3 close
        // to each other, cross-cluster pairs far.
        let near = |base: f32| Vector::new(vec![base, 1.0 - base, 0.0, 0.0]);
        let far = |base: f32| Vector::new(vec![0.0, 0.0, base, 1.0 - base]);
        let (r0, r1) = (near(0.45), far(0.45));
        let (c0, c1) = (near(0.55), far(0.55));
        let input = FoldInputs {
            row_embeddings: &[&r0, &r1],
            col_embeddings: &[&c0, &c1],
            theta: 0.5,
            ..FoldInputs::default()
        };
        // A cutoff of exactly θ (no slack) keeps only the matchable pairs.
        let plan = plan_exact(&input, input.theta, usize::MAX);
        assert_eq!(plan.blocks.len(), 2, "{plan:?}");
        assert_eq!(plan.stats.candidate_pairs, 2);
        assert_eq!(plan.stats.pruned_pairs, 2);
        // Each candidate pair carries its measured distance, below θ.
        for block in &plan.blocks {
            let candidates = block.candidates.as_ref().expect("exact plans enumerate pairs");
            assert!(candidates.iter().all(|&(_, _, d)| d < 0.5), "{candidates:?}");
        }
        // A generous slack admits the cross-cluster pairs too and glues the
        // fold into one block.
        let glued = plan_exact(&input, input.theta + 1.5, usize::MAX);
        assert_eq!(glued.blocks.len(), 1);
        assert_eq!(glued.stats.pruned_pairs, 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut acc = BlockingStats::default();
        acc.merge(&BlockingStats {
            folds: 1,
            blocks: 2,
            candidate_pairs: 10,
            pruned_pairs: 90,
            max_block_size: 5,
            ..BlockingStats::default()
        });
        acc.merge(&BlockingStats {
            folds: 1,
            blocks: 1,
            candidate_pairs: 20,
            pruned_pairs: 0,
            max_block_size: 9,
            ..BlockingStats::default()
        });
        assert_eq!(acc.folds, 2);
        assert_eq!(acc.blocks, 3);
        assert_eq!(acc.candidate_pairs, 30);
        assert_eq!(acc.pruned_pairs, 90);
        assert_eq!(acc.max_block_size, 9);
        assert!((acc.pruned_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(BlockingStats::default().pruned_fraction(), 0.0);
    }

    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let mut acc = BlockingStats {
            folds: usize::MAX - 1,
            candidate_pairs: usize::MAX,
            scored_pairs: usize::MAX - 10,
            pruned_pairs: usize::MAX,
            ..BlockingStats::default()
        };
        acc.merge(&BlockingStats {
            folds: 5,
            candidate_pairs: 1,
            scored_pairs: 100,
            pruned_pairs: usize::MAX,
            max_block_size: 3,
            ..BlockingStats::default()
        });
        assert_eq!(acc.folds, usize::MAX);
        assert_eq!(acc.candidate_pairs, usize::MAX);
        assert_eq!(acc.scored_pairs, usize::MAX);
        assert_eq!(acc.pruned_pairs, usize::MAX);
        assert_eq!(acc.max_block_size, 3);
        // Saturated totals still yield a sane fraction, not a panic.
        let fraction = acc.pruned_fraction();
        assert!((0.0..=1.0).contains(&fraction), "{fraction}");
    }

    #[test]
    fn zero_pair_folds_merge_into_empty_stats() {
        // A fold with no candidate space at all (0 × n) contributes nothing
        // but its fold count.
        let mut acc = BlockingStats::default();
        acc.merge(&plan_cartesian(0, 7).stats);
        acc.merge(&plan_cartesian(4, 0).stats);
        assert_eq!(acc.folds, 2);
        assert_eq!(acc.blocks, 0);
        assert_eq!(acc.candidate_pairs, 0);
        assert_eq!(acc.scored_pairs, 0);
        assert_eq!(acc.pruned_fraction(), 0.0);
    }

    #[test]
    fn plan_cartesian_handles_degenerate_shapes() {
        for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0)] {
            let plan = plan_cartesian(rows, cols);
            assert!(plan.blocks.is_empty(), "{rows}×{cols}: {plan:?}");
            assert!(plan.cut_edges.is_empty());
            assert_eq!(plan.stats.candidate_pairs, 0);
            assert_eq!(plan.stats.scored_pairs, 0);
            assert_eq!(plan.stats.pruned_pairs, 0);
            assert_eq!(plan.stats.max_block_size, 0);
            assert_eq!(plan.stats.folds, 1);
        }
        // The 1 × 1 shape is the smallest real plan: one dense block.
        let plan = plan_cartesian(1, 1);
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.stats.candidate_pairs, 1);
        assert_eq!(plan.stats.max_block_size, 2);
    }

    #[test]
    fn canonicalize_pairs_matches_comparison_sort() {
        // A small dense id space exercises the radix path; the oversized one
        // exercises the comparison fallback.  Both must agree with the
        // reference sort+dedup on every input, duplicates included.
        type Case = (Vec<(usize, usize)>, usize, usize);
        let cases: Vec<Case> = vec![
            (vec![], 4, 4),
            (vec![(3, 2)], 4, 4),
            (vec![(1, 1), (0, 3), (1, 1), (0, 0), (3, 2), (0, 3), (2, 1)], 4, 4),
            (vec![(0, 0), (0, 0), (0, 0)], 1, 1),
            (vec![(7, 900_000), (2, 1), (7, 900_000), (0, 999_999)], 1_000_000, 1_000_000),
        ];
        for (pairs, rows, cols) in cases {
            let mut expected = pairs.clone();
            expected.sort_unstable();
            expected.dedup();
            let mut canonical = pairs.clone();
            canonicalize_pairs(&mut canonical, rows, cols);
            assert_eq!(canonical, expected, "input {pairs:?}");
            assert!(canonical.len() <= pairs.len());
        }
    }

    #[test]
    fn canonicalize_pairs_with_costs_keeps_costs_aligned() {
        // Duplicates carry equal costs (the planner's contract), so any
        // surviving copy must keep its pair's cost.
        let pairs = vec![(2usize, 0usize), (0, 1), (2, 0), (1, 1), (0, 1), (0, 0)];
        let costs = vec![0.5f32, 0.25, 0.5, 0.75, 0.25, 0.125];
        for (rows, cols) in [(3usize, 2usize), (100_000, 100_000)] {
            let mut p = pairs.clone();
            let mut c = costs.clone();
            canonicalize_pairs_with_costs(&mut p, &mut c, rows, cols);
            assert_eq!(p, vec![(0, 0), (0, 1), (1, 1), (2, 0)]);
            assert_eq!(c, vec![0.125, 0.25, 0.75, 0.5]);
        }
    }

    #[test]
    fn cost_planners_attribute_their_phases() {
        let near = |base: f32| Vector::new(vec![base, 1.0 - base, 0.0, 0.0]);
        let (r0, c0) = (near(0.45), near(0.55));
        let input = FoldInputs {
            row_embeddings: &[&r0],
            col_embeddings: &[&c0],
            theta: 0.5,
            ..FoldInputs::default()
        };
        let exact = plan_blocks(&input, &BlockingPolicy::default().force_blocked());
        assert!(exact.stats.phase.total > std::time::Duration::ZERO);
        assert!(exact.stats.phase.phase_sum() <= exact.stats.phase.total);
        let escalated = plan_blocks(&input, &always_escalate());
        assert_eq!(escalated.stats.escalated_folds, 1);
        assert!(escalated.stats.phase.total > std::time::Duration::ZERO);
        assert!(escalated.stats.phase.phase_sum() <= escalated.stats.phase.total);
        // Phase timings accumulate across merges like every other counter.
        let mut acc = BlockingStats::default();
        acc.merge(&exact.stats);
        acc.merge(&escalated.stats);
        assert_eq!(acc.phase.total, exact.stats.phase.total + escalated.stats.phase.total);
    }

    #[test]
    fn escalated_plans_report_scored_pairs_and_fallback_sweeps() {
        // Two tight clusters; the ANN tier must find both sub-threshold
        // pairs (identical vectors share every band) and report an escalated
        // fold with fewer-or-equal scored pairs than the cartesian space.
        let a = Vector::new(vec![1.0, 0.0, 0.0, 0.0]);
        let b = Vector::new(vec![0.0, 1.0, 0.0, 0.0]);
        let rows = [&a, &b];
        let cols = [&a, &b];
        let input = FoldInputs {
            row_embeddings: &rows,
            col_embeddings: &cols,
            theta: 0.5,
            ..FoldInputs::default()
        };
        let plan = plan_blocks(&input, &always_escalate());
        assert_eq!(plan.stats.escalated_folds, 1);
        assert_eq!(plan.blocks.len(), 2, "{plan:?}");
        assert_eq!(plan.stats.candidate_pairs, 2);
        assert!(plan.stats.scored_pairs <= 4, "{:?}", plan.stats);
        for block in &plan.blocks {
            let candidates = block.candidates.as_ref().expect("escalated plans enumerate pairs");
            assert!(candidates.iter().all(|&(_, _, d)| d < 0.5), "{candidates:?}");
        }
    }
}
