//! Configuration of the Fuzzy Full Disjunction pipeline.
//!
//! The central type is [`FuzzyFdConfig`], which bundles the paper-level
//! parameters (threshold θ, embedding model) with the candidate-space
//! machinery of `fuzzy_fd_core::blocking`:
//!
//! * [`BlockingPolicy`] — exhaustive dense matrices vs blocked candidate
//!   generation.  There is one semantic channel — exact sub-threshold
//!   distances below `θ + slack` — and the fold's size alone picks how it is
//!   computed (cartesian block, full sweep, or ANN-gated re-scoring);
//! * [`EscalationPolicy`] — when a fold abandons the quadratic exact sweep
//!   for the sub-quadratic ANN index of [`lake_embed::AnnIndex`];
//! * [`KeyedBlockingConfig::max_component_cells`] — when an oversized
//!   connected component is split before solving.
//!
//! Every knob defaults to the configuration validated against the paper's
//! reported behaviour; see `ARCHITECTURE.md` for the tier map and the
//! equivalence guarantee each tier keeps.

use lake_embed::{AnnParams, EmbeddingModel};

/// How the bipartite value-matching step is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentStrategy {
    /// Always use the exact solver (shortest augmenting path — sparse over
    /// enumerated candidates, dense over a cartesian block).
    AlwaysExact,
    /// Use the exact solver up to `max_side` values per side and fall back to
    /// the greedy solver beyond that.  Large residual matrices only occur on
    /// key-like columns with tens of thousands of distinct values, where the
    /// O(n³) exact solver becomes the bottleneck.  `max_side: 0` demotes
    /// every block (the ablation study's greedy baseline).
    ExactUpTo {
        /// Largest per-side size still solved exactly.
        max_side: usize,
    },
}

impl Default for AssignmentStrategy {
    fn default() -> Self {
        AssignmentStrategy::ExactUpTo { max_side: 1_500 }
    }
}

/// How the combined-column × next-column candidate space is partitioned
/// before cost matrices are built (see `fuzzy_fd_core::blocking`).
///
/// ```
/// use fuzzy_fd_core::{BlockingPolicy, EscalationPolicy, KeyedBlockingConfig};
///
/// // The default is keyed blocking on exact sub-threshold distances with
/// // size-gated ANN escalation; every knob can be overridden piecemeal.
/// let policy = BlockingPolicy::Keyed(KeyedBlockingConfig {
///     escalation: EscalationPolicy { min_fold_pairs: 10_000, ..Default::default() },
///     ..KeyedBlockingConfig::default()
/// });
/// assert_ne!(policy, BlockingPolicy::Exhaustive);
/// assert_ne!(policy, BlockingPolicy::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockingPolicy {
    /// One dense cost matrix over every (group, value) pair — the paper's
    /// exact behaviour, quadratic in the column size.
    Exhaustive,
    /// Blocked matching: (group, value) pairs at cosine distance below
    /// `θ + slack` are the candidates, and the connected components of the
    /// candidate graph are solved as independent (much smaller) assignment
    /// problems.  Pairs in no common block are never matched, which prunes
    /// most of the quadratic space.  The fold's size picks how candidates
    /// are found: one cartesian block below `min_blocked_pairs`, an exact
    /// distance sweep up to the [`EscalationPolicy`] threshold, and above it
    /// an ANN index backed by shared surface keys (tokens, q-grams,
    /// acronyms).
    Keyed(KeyedBlockingConfig),
}

impl Default for BlockingPolicy {
    fn default() -> Self {
        BlockingPolicy::Keyed(KeyedBlockingConfig::default())
    }
}

impl BlockingPolicy {
    /// This policy with the cartesian fallback forced off
    /// (`min_blocked_pairs = 0`): every matching step goes through blocked
    /// candidate generation regardless of size.  Exhaustive stays
    /// exhaustive.
    pub fn force_blocked(self) -> Self {
        match self {
            BlockingPolicy::Exhaustive => BlockingPolicy::Exhaustive,
            BlockingPolicy::Keyed(keyed) => {
                BlockingPolicy::Keyed(KeyedBlockingConfig { min_blocked_pairs: 0, ..keyed })
            }
        }
    }

    /// The plan a `rows × cols` fold gets under this policy — the one place
    /// the size thresholds are read, shared by the matcher (which needs the
    /// answer before deciding whether to hash surface keys) and
    /// [`plan_blocks`](crate::plan_blocks).
    pub(crate) fn tier(&self, rows: usize, cols: usize) -> FoldTier<'_> {
        match self {
            BlockingPolicy::Exhaustive => FoldTier::Cartesian,
            BlockingPolicy::Keyed(keyed) if rows.saturating_mul(cols) < keyed.min_blocked_pairs => {
                FoldTier::Cartesian
            }
            BlockingPolicy::Keyed(keyed) if keyed.escalation.applies_to(rows, cols) => {
                FoldTier::Escalated(keyed)
            }
            BlockingPolicy::Keyed(keyed) => FoldTier::Exact(keyed),
        }
    }
}

/// How one fold's candidate pairs are found (see the size-tiered planning
/// section of `fuzzy_fd_core::blocking`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FoldTier<'a> {
    /// One dense block over every pair; nothing is planned or pruned.
    Cartesian,
    /// One kernel sweep scores every pair against `θ + slack`.
    Exact(&'a KeyedBlockingConfig),
    /// ANN probes plus surface keys nominate pairs; only those are scored.
    Escalated(&'a KeyedBlockingConfig),
}

/// When a fold escalates from the exact sub-threshold sweep to the ANN
/// candidate index ([`lake_embed::AnnIndex`]).
///
/// The exact one-dot-product-per-pair sweep is the right default
/// up to moderate fold sizes, but it is still quadratic.  Above
/// `min_fold_pairs` the planner stops sweeping and instead indexes the
/// fold's value embeddings once, probes the index with every group
/// embedding, and exactly re-scores only the colliding pairs (unioned with
/// the surface-key candidates, which are sub-quadratic by construction).
/// The escalated tier is probabilistic — a near pair whose signature
/// disagreements all carry large margins can be missed — which is why it is
/// gated behind a size threshold instead of being the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Folds with at least this many (group × value) pairs escalate to the
    /// ANN index.  `usize::MAX` never escalates; `0` always escalates.
    pub min_fold_pairs: usize,
    /// Banding/probing shape of the escalated tier's ANN index.
    pub ann: AnnParams,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        // 1M pairs ≈ a 1000 × 1000 fold — the measured wall-clock
        // break-even of the ANN tier on 64-dimensional embeddings (see
        // docs/PERF.md and the `diag_escalation` example).
        // Below this the exact sweep is both faster and recall-exact, so
        // escalating earlier would pay twice for nothing; above it the
        // sweep's quadratic cost dominates and the tier wins on wall clock
        // as well as on scored pairs.
        EscalationPolicy { min_fold_pairs: 1_000_000, ann: AnnParams::default() }
    }
}

impl EscalationPolicy {
    /// A policy that never leaves the exact sweep.
    pub fn never() -> Self {
        EscalationPolicy { min_fold_pairs: usize::MAX, ..EscalationPolicy::default() }
    }

    /// Whether a `rows × cols` fold escalates under this policy.
    pub fn applies_to(&self, rows: usize, cols: usize) -> bool {
        self.min_fold_pairs == 0
            || rows.checked_mul(cols).map(|pairs| pairs >= self.min_fold_pairs).unwrap_or(true)
    }
}

/// Tuning knobs of [`BlockingPolicy::Keyed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyedBlockingConfig {
    /// Surface keys shared by more than this many participants (groups +
    /// values) are dropped as uninformative — they would nominate a
    /// near-cartesian share of an escalated fold for re-scoring and
    /// reintroduce the quadratic blow-up.
    pub max_key_bucket: usize,
    /// Safety margin added to θ when deciding candidacy: pairs at cosine
    /// distance below `θ + slack` are candidates, so any pair the
    /// thresholding step could accept is one by construction, and each
    /// candidate's measured distance is reused as its cost-matrix entry.
    /// `0.0` keeps exactly the pairs thresholding could accept, which
    /// maximises pruning but lets the global assignment drift on
    /// near-threshold ties: the exhaustive solver's choice *among* sub-θ
    /// pairs is steered by the true costs of slightly-above-θ pairs, and
    /// masking those severs that influence.  A small positive slack keeps
    /// the influence band as candidates; `0.1` reproduces the exhaustive
    /// groups exactly on the Auto-Join benchmark sets while still pruning
    /// ~90% of the candidate space.  (End-to-end recall additionally depends
    /// on [`max_component_cells`](Self::max_component_cells): an oversized
    /// component may have recorded candidate edges severed before solving.)
    pub slack: f32,
    /// Candidate spaces smaller than this many (group × value) pairs skip
    /// blocking and use one cartesian block: below it the dense solve is
    /// cheaper than planning, and the result is exactly the exhaustive one.
    /// Set to `usize::MAX` to force the cartesian fallback (useful to A/B
    /// the paths), or to `0` to always block.
    pub min_blocked_pairs: usize,
    /// When a fold grows past the exact sweep's comfort zone, this policy
    /// switches it to the ANN tier.
    pub escalation: EscalationPolicy,
    /// Connected components whose cost matrix would exceed this many cells
    /// (component rows × component cols) are split before solving: candidate
    /// edges are re-added strongest-first (smallest distance), and an edge
    /// that would merge two clusters past the cap is severed instead.  Cut
    /// edges are recorded on the plan so tests and post-solve thresholding
    /// can re-verify that nothing below θ was lost.  Set to `usize::MAX` to
    /// disable.
    pub max_component_cells: usize,
}

impl Default for KeyedBlockingConfig {
    fn default() -> Self {
        KeyedBlockingConfig {
            max_key_bucket: 64,
            slack: 0.1,
            min_blocked_pairs: 4_096,
            escalation: EscalationPolicy::default(),
            // 256 × 256 per component: far above every benchmark fold (the
            // Auto-Join components stay untouched) while keeping the cubic
            // solver off matrices that would dominate a lake-scale fold.
            max_component_cells: 65_536,
        }
    }
}

/// Reuse knobs of an [`IntegrationSession`](crate::IntegrationSession) —
/// which artifacts of the prior integration an `add_table` call may keep.
///
/// Both knobs default to maximal reuse; turning one off makes the session
/// drop that part of its retained state before every step, so the step
/// recomputes it the way the batch operator's one step does (the
/// equivalence harness runs both settings against batch re-integration).
/// The session's warmed
/// [`EmbeddingCache`](lake_embed::EmbeddingCache) is always kept — embedding
/// a value is pure, so a cache hit can never change a result, only skip
/// recomputing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalPolicy {
    /// Keep the matcher state (groups, representatives, occurrence counts)
    /// of aligned sets the appended tables do not touch, instead of
    /// re-matching them from their columns.  Touched sets always re-plan
    /// only the appended columns' folds on top of the retained state.
    pub reuse_untouched_sets: bool,
    /// Upper bound on the Full Disjunction component closures
    /// ([`lake_fd::ComponentCache`]) kept across `add_table` calls for
    /// join-connected components whose member tuples an append leaves
    /// unchanged.  The closure of a component is a pure function of its
    /// member tuples, so a verified hit is exact, never approximate.  When
    /// an append would grow the cache past this bound, the oldest
    /// generation is dropped first; `0` stores nothing, so every component
    /// is re-closed on every step (lookups are still counted).
    pub max_cached_components: usize,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            reuse_untouched_sets: true,
            // The shared bound documented on `ComponentCache`: far above any
            // benchmark lake while bounding worst-case memory.
            max_cached_components: lake_fd::ComponentCache::DEFAULT_CAPACITY,
        }
    }
}

impl IncrementalPolicy {
    /// A policy that reuses nothing but the embedding cache: every append
    /// re-matches every aligned set and re-closes every FD component.  The
    /// baseline side of the incremental A/B.
    pub fn full_recompute() -> Self {
        IncrementalPolicy { reuse_untouched_sets: false, max_cached_components: 0 }
    }
}

/// Parameters of Fuzzy Full Disjunction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzyFdConfig {
    /// Matching threshold θ: assignments whose cosine distance is **not**
    /// strictly below θ are discarded.  The paper reports θ = 0.7 as the best
    /// setting and we default to it.
    pub theta: f32,
    /// Embedding model used to embed cell values (Table 1 compares the five
    /// tiers; Mistral is the paper's default).
    pub model: EmbeddingModel,
    /// When bipartite matching falls back from the exact solver (shortest
    /// augmenting path) to the greedy one.
    pub assignment_strategy: AssignmentStrategy,
    /// Minimum number of characters a value must have to participate in fuzzy
    /// (non-exact) matching.  Very short values ("1", "A") carry too little
    /// signal and are matched only exactly.
    pub min_fuzzy_length: usize,
    /// How the candidate space of each bipartite matching step is pruned.
    pub blocking: BlockingPolicy,
    /// Worker threads for the operator's parallel stages (block solving,
    /// embedding warm-up, FD component closures), interpreted by
    /// [`lake_runtime::ParallelPolicy`]: `1` = sequential; an explicit
    /// count ≥ 2 is a command whenever a stage has at least two tasks;
    /// `0` = auto — use the machine's available parallelism, but only when
    /// the stage carries enough work for the thread overhead to pay off.
    pub matching_threads: usize,
}

impl Default for FuzzyFdConfig {
    fn default() -> Self {
        FuzzyFdConfig {
            theta: 0.7,
            model: EmbeddingModel::Mistral,
            assignment_strategy: AssignmentStrategy::default(),
            min_fuzzy_length: 2,
            blocking: BlockingPolicy::default(),
            matching_threads: 1,
        }
    }
}

impl FuzzyFdConfig {
    /// Checks the configuration's floating-point parameters and the shape of
    /// the escalated tier's ANN index.
    ///
    /// `PartialEq` is derived over the `f32` fields, so a `NaN` threshold or
    /// slack would silently disable every equality check on the config (and
    /// on [`BlockingPolicy`]) and poison the `total_cmp`-sorted candidate
    /// edge ordering of `fuzzy_fd_core::blocking` — every distance involving
    /// a `NaN`-driven comparison would sort last instead of failing loudly.
    /// Rejected here instead:
    ///
    /// * `theta` must be finite and within `[0, 2]` (the cosine-distance
    ///   range; anything above 2 can never reject a pair);
    /// * a keyed policy's `slack` must be finite and non-negative (a
    ///   negative slack would mask candidates the matching threshold could
    ///   still accept, breaking the candidacy guarantee);
    /// * a keyed policy's `escalation.ann` must pass
    ///   [`AnnParams::check`] — otherwise the first fold large enough to
    ///   escalate would panic while building its index, mid-ingest.
    ///
    /// ```
    /// use fuzzy_fd_core::FuzzyFdConfig;
    ///
    /// assert!(FuzzyFdConfig::default().validate().is_ok());
    /// assert!(FuzzyFdConfig::with_theta(f32::NAN).validate().is_err());
    /// assert!(FuzzyFdConfig::with_theta(-0.5).validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        if !self.theta.is_finite() || !(0.0..=2.0).contains(&self.theta) {
            return Err(format!(
                "matching threshold theta must be a finite cosine distance in [0, 2], got {}",
                self.theta
            ));
        }
        if let BlockingPolicy::Keyed(keyed) = &self.blocking {
            if !keyed.slack.is_finite() || keyed.slack < 0.0 {
                return Err(format!(
                    "blocking slack must be finite and non-negative \
                     (candidacy cutoff is theta + slack), got {}",
                    keyed.slack
                ));
            }
            keyed.escalation.ann.check()?;
        }
        Ok(())
    }

    /// Convenience constructor overriding only the threshold.
    pub fn with_theta(theta: f32) -> Self {
        FuzzyFdConfig { theta, ..FuzzyFdConfig::default() }
    }

    /// Convenience constructor overriding only the embedding model.
    pub fn with_model(model: EmbeddingModel) -> Self {
        FuzzyFdConfig { model, ..FuzzyFdConfig::default() }
    }

    /// Convenience constructor overriding only the blocking policy.
    pub fn with_blocking(blocking: BlockingPolicy) -> Self {
        FuzzyFdConfig { blocking, ..FuzzyFdConfig::default() }
    }

    /// The configured candidate-space policy with the cartesian fallback
    /// forced off (`min_blocked_pairs = 0`) — every matching step goes
    /// through blocked candidate generation regardless of size.  Exhaustive
    /// stays exhaustive.
    pub fn force_blocking(self) -> Self {
        FuzzyFdConfig { blocking: self.blocking.force_blocked(), ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = FuzzyFdConfig::default();
        assert!((config.theta - 0.7).abs() < 1e-6);
        assert_eq!(config.model, EmbeddingModel::Mistral);
    }

    #[test]
    fn convenience_constructors() {
        assert!((FuzzyFdConfig::with_theta(0.5).theta - 0.5).abs() < 1e-6);
        assert_eq!(FuzzyFdConfig::with_model(EmbeddingModel::Bert).model, EmbeddingModel::Bert);
    }

    #[test]
    fn default_strategy_caps_exact_solver() {
        match AssignmentStrategy::default() {
            AssignmentStrategy::ExactUpTo { max_side } => assert!(max_side >= 500),
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn default_blocking_is_keyed_with_a_cartesian_floor() {
        let config = FuzzyFdConfig::default();
        match config.blocking {
            BlockingPolicy::Keyed(keyed) => {
                assert!(keyed.min_blocked_pairs > 0, "small problems must stay exhaustive");
                // A non-negative slack keeps candidacy recall-exact, so
                // blocked matching reproduces the exhaustive groups.
                assert!(keyed.slack >= 0.0);
                assert!(keyed.max_key_bucket >= 2);
            }
            BlockingPolicy::Exhaustive => panic!("default must prune the candidate space"),
        }
        assert_eq!(config.matching_threads, 1);
    }

    #[test]
    fn nan_and_out_of_range_floats_are_rejected() {
        for theta in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.01, 2.01] {
            let err = FuzzyFdConfig::with_theta(theta).validate().unwrap_err();
            assert!(err.contains("theta"), "{err}");
        }
        for slack in [f32::NAN, f32::INFINITY, -0.1] {
            let config = FuzzyFdConfig::with_blocking(BlockingPolicy::Keyed(KeyedBlockingConfig {
                slack,
                ..KeyedBlockingConfig::default()
            }));
            let err = config.validate().unwrap_err();
            assert!(err.contains("slack"), "{err}");
        }
        // An unusable ANN shape is reported here, not by a panic inside the
        // first fold big enough to escalate.
        let base = AnnParams::default();
        for (ann, problem) in [
            (AnnParams { bands: 9, band_bits: 8, ..base }, "fit in a u64"),
            (AnnParams { bands: 0, ..base }, "at least one band"),
            (AnnParams { probes: 0, ..base }, "probes"),
            (AnnParams { min_band_hits: 0, ..base }, "min_band_hits"),
            (AnnParams { min_band_hits: base.bands + 1, ..base }, "min_band_hits"),
        ] {
            let config = FuzzyFdConfig::with_blocking(BlockingPolicy::Keyed(KeyedBlockingConfig {
                escalation: EscalationPolicy { ann, ..EscalationPolicy::default() },
                ..KeyedBlockingConfig::default()
            }));
            let err = config.validate().unwrap_err();
            assert!(err.contains(problem), "{err}");
        }
        // The range boundaries themselves are legal, and the exhaustive
        // policy has no slack or index to check.
        assert!(FuzzyFdConfig::with_theta(0.0).validate().is_ok());
        assert!(FuzzyFdConfig::with_theta(2.0).validate().is_ok());
        assert!(FuzzyFdConfig::with_blocking(BlockingPolicy::Exhaustive).validate().is_ok());
        let zero_slack = FuzzyFdConfig::with_blocking(BlockingPolicy::Keyed(KeyedBlockingConfig {
            slack: 0.0,
            ..KeyedBlockingConfig::default()
        }));
        assert!(zero_slack.validate().is_ok());
    }

    #[test]
    fn incremental_policy_defaults_to_maximal_reuse() {
        let policy = IncrementalPolicy::default();
        assert!(policy.reuse_untouched_sets);
        assert!(policy.max_cached_components > 0);
        let baseline = IncrementalPolicy::full_recompute();
        assert!(!baseline.reuse_untouched_sets);
        assert_eq!(baseline.max_cached_components, 0);
    }

    #[test]
    fn force_blocking_removes_the_cartesian_floor() {
        let forced = FuzzyFdConfig::default().force_blocking();
        match forced.blocking {
            BlockingPolicy::Keyed(keyed) => assert_eq!(keyed.min_blocked_pairs, 0),
            BlockingPolicy::Exhaustive => panic!("keyed must stay keyed"),
        }
        let exhaustive = FuzzyFdConfig::with_blocking(BlockingPolicy::Exhaustive).force_blocking();
        assert_eq!(exhaustive.blocking, BlockingPolicy::Exhaustive);
    }
}
