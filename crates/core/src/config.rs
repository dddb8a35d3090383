//! Configuration of the Fuzzy Full Disjunction pipeline.
//!
//! [`FuzzyFdConfig`] has six settable values, and that is all of them:
//!
//! * `theta` — the paper's matching threshold θ;
//! * `model` — the embedding model (Table 1);
//! * `assignment_strategy` — when a block falls back from the exact
//!   assignment solver to the greedy one;
//! * `blocking.min_blocked_pairs`, `blocking.min_fold_pairs` and
//!   `blocking.max_component_cells` — the three size thresholds of
//!   [`BlockingPolicy`], the tier map of `fuzzy_fd_core::blocking`.
//!
//! Everything else the matcher reads — the candidacy slack, the surface-key
//! bucket cap, the fuzzy-length floor and the shape of the escalated tier's
//! ANN index — is a constant beside the code that reads it, because those
//! values were calibrated *together* against the equivalence harness and no
//! caller ever needed a second setting.  The operator has no thread count
//! either: it runs on its caller's thread.  See `ARCHITECTURE.md` for the tier
//! map and the equivalence guarantee each tier keeps.

use lake_embed::EmbeddingModel;

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

/// How the combined-column × next-column candidate space of one fold is
/// planned before cost matrices are built (see `fuzzy_fd_core::blocking`):
/// three size thresholds, and the fold's size alone picks the tier.
///
/// Below `min_blocked_pairs` a fold is one cartesian block — the paper's
/// exact behaviour.  From there up to `min_fold_pairs` an exact distance
/// sweep keeps the (group, value) pairs below the candidacy cutoff and the
/// connected components of that candidate graph are solved as independent,
/// much smaller assignment problems.  At `min_fold_pairs` and above the
/// sweep is replaced by an ANN index backed by shared surface keys (tokens,
/// q-grams, acronyms), and only the nominated pairs are scored.
///
/// ```
/// use fuzzy_fd_core::BlockingPolicy;
///
/// // Each threshold can be overridden piecemeal; the paper-exact reference
/// // is the policy whose cartesian floor no fold reaches.
/// let policy = BlockingPolicy { min_fold_pairs: 10_000, ..BlockingPolicy::default() };
/// assert_ne!(policy, BlockingPolicy::default());
/// assert_eq!(BlockingPolicy::exhaustive().min_blocked_pairs, usize::MAX);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingPolicy {
    /// Candidate spaces smaller than this many (group × value) pairs skip
    /// blocking and use one cartesian block: below it the dense solve is
    /// cheaper than planning, and the result is exactly the exhaustive one.
    /// `usize::MAX` forces the cartesian block ([`exhaustive`](Self::exhaustive)),
    /// `0` always blocks ([`force_blocked`](Self::force_blocked)).
    pub min_blocked_pairs: usize,
    /// Folds with at least this many (group × value) pairs escalate from the
    /// exact sweep to the ANN candidate index ([`lake_embed::AnnIndex`]): the
    /// fold's value embeddings are indexed once, every group embedding probes
    /// the index, and only the colliding pairs (unioned with the surface-key
    /// candidates, which are sub-quadratic by construction) are exactly
    /// re-scored.  The escalated tier is probabilistic — a near pair whose
    /// signature disagreements all carry large margins can be missed — which
    /// is why it is gated behind a size threshold instead of being the
    /// default.  `usize::MAX` never escalates; `0` always escalates.
    pub min_fold_pairs: usize,
    /// Connected components whose cost matrix would exceed this many cells
    /// (component rows × component cols) are split before solving: candidate
    /// edges are re-added strongest-first (smallest distance), and an edge
    /// that would merge two clusters past the cap is severed instead.  Cut
    /// edges are recorded on the plan so tests and post-solve thresholding
    /// can re-verify that nothing below θ was lost.  `usize::MAX` disables
    /// splitting.
    pub max_component_cells: usize,
}

impl Default for BlockingPolicy {
    fn default() -> Self {
        BlockingPolicy {
            min_blocked_pairs: 4_096,
            // 1M pairs ≈ a 1000 × 1000 fold.  It was the wall-clock
            // break-even of the ANN tier against the f32 sweep.  Re-measured
            // 2026-10-19 with the `diag_escalation` example on the AVX2
            // integer dot (table in docs/PERF.md, "Escalation threshold"):
            // exact sweep vs tier 26.3 vs 27.5 ms at 1M pairs, 93.9 vs
            // 64.8 ms at 4M and 361.5 vs 182.3 ms at 17M, so the break-even
            // sits near this value again; the sweep stays recall-exact while
            // the tier recovers fewer gold pairs (3 044 vs 3 122 of 3 565 at
            // 17M).  Moving it or retiring the tier changes
            // `escalation_fold`'s output, so that is ROADMAP item 5(e)'s
            // decision, not a constant to nudge here.
            min_fold_pairs: 1_000_000,
            // 256 × 256 per component: far above every benchmark fold (the
            // Auto-Join components stay untouched) while keeping the cubic
            // solver off matrices that would dominate a lake-scale fold.
            max_component_cells: 65_536,
        }
    }
}

impl BlockingPolicy {
    /// One dense cost matrix over every (group, value) pair of every fold —
    /// the paper's exact behaviour, quadratic in the column size, and the
    /// reference the equivalence harness compares the blocked tiers against.
    /// It is the default policy with a cartesian floor (`usize::MAX`) no
    /// fold that fits in memory reaches.
    pub fn exhaustive() -> Self {
        BlockingPolicy { min_blocked_pairs: usize::MAX, ..BlockingPolicy::default() }
    }

    /// This policy with the cartesian floor removed
    /// (`min_blocked_pairs = 0`): every matching step goes through blocked
    /// candidate generation regardless of size.
    pub fn force_blocked(self) -> Self {
        BlockingPolicy { min_blocked_pairs: 0, ..self }
    }

    /// The plan a `rows × cols` fold gets under this policy — the one place
    /// the size thresholds are read, shared by the matcher (which needs the
    /// answer before deciding whether to hash surface keys) and
    /// [`plan_blocks`](crate::plan_blocks).
    pub(crate) fn tier(&self, rows: usize, cols: usize) -> FoldTier {
        let pairs = rows.saturating_mul(cols);
        if pairs < self.min_blocked_pairs {
            FoldTier::Cartesian
        } else if pairs >= self.min_fold_pairs {
            FoldTier::Escalated
        } else {
            FoldTier::Exact
        }
    }
}

/// How one fold's candidate pairs are found (see the size-tiered planning
/// section of `fuzzy_fd_core::blocking`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FoldTier {
    /// One dense block over every pair; nothing is planned or pruned.
    Cartesian,
    /// One kernel sweep scores every pair against the candidacy cutoff.
    Exact,
    /// ANN probes plus surface keys nominate pairs; only those are scored.
    Escalated,
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
    /// Upper bound on the join-connected components of the lake the
    /// session keeps alive ([`lake_fd::ComponentCache`]: the rewritten rows,
    /// the cell index and one closure per component) across `add_table`
    /// calls, so an append re-closes only the components it touches.  A
    /// component is kept only after every one of its rows compared equal
    /// to the current lake's, so reuse is exact, never approximate.  A lake
    /// with more components than this bound retains nothing — the next step
    /// closes every component again; so does `0` (components are still
    /// counted as misses).
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
    /// The size thresholds that pick how each bipartite matching step's
    /// candidate space is planned.
    pub blocking: BlockingPolicy,
}

impl Default for FuzzyFdConfig {
    fn default() -> Self {
        FuzzyFdConfig {
            theta: 0.7,
            model: EmbeddingModel::Mistral,
            assignment_strategy: AssignmentStrategy::default(),
            blocking: BlockingPolicy::default(),
        }
    }
}

impl FuzzyFdConfig {
    /// Checks the matching threshold — the one of the six settable values
    /// that can be wrong: the other five are two enums and three size
    /// thresholds whose whole range is meaningful.
    ///
    /// `PartialEq` is derived over the `f32` field, so a `NaN` threshold
    /// would silently disable every equality check on the config and poison
    /// the `total_cmp`-sorted candidate edge ordering of
    /// `fuzzy_fd_core::blocking` — every distance involving a `NaN`-driven
    /// comparison would sort last instead of failing loudly.  Rejected here
    /// instead: `theta` must be finite and within `[0, 2]` (the
    /// cosine-distance range; anything above 2 can never reject a pair).
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

    /// This configuration with the cartesian floor removed
    /// ([`BlockingPolicy::force_blocked`]) — every matching step goes
    /// through blocked candidate generation regardless of size.
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

    /// `FuzzyFdConfig` has 6 settable leaf values.  The destructuring below
    /// names every one of them with no `..`, so adding a field anywhere in
    /// the config is a compile error here: a new knob means editing this
    /// test and the "Least code" tally in ROADMAP.md, where a reviewer sees
    /// it.
    #[test]
    fn the_config_has_six_settable_values() {
        let FuzzyFdConfig {
            theta: _,
            model: _,
            assignment_strategy: _,
            blocking:
                BlockingPolicy { min_blocked_pairs: _, min_fold_pairs: _, max_component_cells: _ },
        } = FuzzyFdConfig::default();
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
        assert_ne!(config.blocking, BlockingPolicy::exhaustive(), "default must prune");
        assert!(config.blocking.min_blocked_pairs > 0, "small problems must stay exhaustive");
    }

    #[test]
    fn nan_and_out_of_range_floats_are_rejected() {
        for theta in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.01, 2.01] {
            let err = FuzzyFdConfig::with_theta(theta).validate().unwrap_err();
            assert!(err.contains("theta"), "{err}");
        }
        // The range boundaries themselves are legal, and no blocking policy
        // can be invalid.
        assert!(FuzzyFdConfig::with_theta(0.0).validate().is_ok());
        assert!(FuzzyFdConfig::with_theta(2.0).validate().is_ok());
        assert!(FuzzyFdConfig::with_blocking(BlockingPolicy::exhaustive()).validate().is_ok());
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
        assert_eq!(forced.blocking.min_blocked_pairs, 0);
        // Exhaustive *is* the default policy under an unreachable floor, so
        // forcing it to block lands on the same policy: the floor is the
        // only thing that made it exhaustive.
        let exhaustive =
            FuzzyFdConfig::with_blocking(BlockingPolicy::exhaustive()).force_blocking();
        assert_eq!(exhaustive.blocking, forced.blocking);
        assert_ne!(exhaustive.blocking, BlockingPolicy::exhaustive());
    }
}
