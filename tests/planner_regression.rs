//! Planner fast-path regression harness: deterministic counter invariants
//! plus a lint-enforced ban on String band keys in the planning hot path.
//!
//! PR "escalation-planner fast path" replaced per-vector `Vec<String>` band
//! keys with packed `u64` keys, the triplicated sort+dedup pair
//! canonicalization with one radix helper, and the dense per-block cost
//! matrix with a sparse solve — all bit-identical by construction (see
//! `tests/blocking_equivalence.rs` for the equivalence side).  This file
//! pins the *structural* properties those changes rely on, so a later edit
//! that quietly reintroduces allocation churn or breaks an attribution
//! invariant fails fast with a named assertion instead of a silent
//! benchmark regression.

use std::collections::BTreeSet;
use std::time::Duration;

use datalake_fuzzy_fd::benchdata::{generate_escalation_fold, EscalationFoldConfig};
use datalake_fuzzy_fd::core::{
    canonicalize_pairs, canonicalize_pairs_with_costs, match_column_values_with_stats,
    BlockingPolicy, FuzzyFdConfig,
};
use datalake_fuzzy_fd::table::Value;

/// Canonicalization never grows a pair list, always sorts it, and keeps the
/// costs aligned with the surviving pairs — on shapes that take the radix
/// path and shapes that take the comparison fallback.
#[test]
fn pair_canonicalization_shrinks_sorts_and_keeps_costs_aligned() {
    type Case = (Vec<(usize, usize)>, usize, usize);
    let cases: Vec<Case> = vec![
        (vec![], 0, 0),
        (vec![(3, 1), (0, 2), (3, 1), (0, 2), (1, 0)], 4, 3),
        // Sparse ids against a huge key space force the comparison fallback.
        (vec![(900_000, 3), (2, 700_000), (2, 700_000), (900_000, 3)], 1_000_000, 1_000_000),
    ];
    for (input, rows, cols) in cases {
        let mut pairs = input.clone();
        canonicalize_pairs(&mut pairs, rows, cols);
        assert!(pairs.len() <= input.len(), "dedup output must not exceed input");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "output must be strictly ascending");
        let unique: BTreeSet<(usize, usize)> = input.iter().copied().collect();
        assert_eq!(pairs, unique.into_iter().collect::<Vec<_>>());

        // The cost-carrying variant must keep each surviving pair's cost.
        let mut with_costs = input.clone();
        let mut costs: Vec<f32> = (0..input.len()).map(|i| i as f32).collect();
        let expected: Vec<(usize, usize)> = pairs.clone();
        canonicalize_pairs_with_costs(&mut with_costs, &mut costs, rows, cols);
        assert_eq!(with_costs, expected);
        assert_eq!(costs.len(), with_costs.len());
        for (pair, &cost) in with_costs.iter().zip(&costs) {
            // Duplicates carry equal planner costs in production; here costs
            // differ per occurrence, so "some occurrence's cost" is the
            // contract worth pinning.
            let occurrence = input.iter().position(|p| p == pair).expect("pair came from input");
            let occurrences: Vec<f32> = input
                .iter()
                .enumerate()
                .filter(|&(_, p)| p == pair)
                .map(|(i, _)| i as f32)
                .collect();
            assert!(
                occurrences.contains(&cost),
                "cost {cost} of {pair:?} is not one of its occurrences {occurrences:?} \
                 (first occurrence at {occurrence})"
            );
        }
    }
}

/// A forced-escalation fold must attribute its planning wall clock: the total
/// is non-zero and the named phases never sum past it (phases are disjoint
/// sub-intervals of the planning/solving wall).
#[test]
fn escalated_fold_phase_timings_are_attributed_and_bounded() {
    let fold = generate_escalation_fold(EscalationFoldConfig {
        entities: 400,
        ..EscalationFoldConfig::default()
    });
    let columns: Vec<Vec<Value>> = fold
        .columns
        .iter()
        .map(|col| col.iter().map(|s| Value::text(s.clone())).collect())
        .collect();
    // Blocking floor removed and escalation threshold zeroed: every fold
    // takes the escalated (ANN) planner, the path this PR made fast.
    let config = FuzzyFdConfig::with_blocking(BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs: 0,
        ..BlockingPolicy::default()
    });
    let embedder = config.model.build();
    let (_, stats) = match_column_values_with_stats(&columns, embedder.as_ref(), config);
    assert!(stats.escalated_folds > 0, "the fold never escalated: {stats:?}");

    let phase = &stats.phase;
    assert!(phase.total > Duration::ZERO, "planning happened but total is zero: {phase:?}");
    assert!(phase.phase_sum() <= phase.total, "phases sum past the measured total: {phase:?}");
    assert!(phase.hash > Duration::ZERO, "hashing ran but was not attributed: {phase:?}");
    assert!(
        phase.assign > Duration::ZERO,
        "blocks were solved but assign was not attributed: {phase:?}"
    );
}

/// The planner hot path must never build String band keys.  The packed-u64
/// representation (`packed_band_key`) exists precisely so the per-vector
/// `Vec<String>` churn cannot come back: the planning files may not format
/// the `sh{band}:{bucket}` key shape themselves.  `include_str!`, so a
/// moved or unreadable source is a compile error rather than a skipped check.
#[test]
fn no_string_band_keys_in_the_planner_hot_path() {
    // Candidate planning, block solving and the ANN index they drive.
    let hot_path = [
        ("crates/core/src/blocking.rs", include_str!("../crates/core/src/blocking.rs")),
        ("crates/core/src/value_match.rs", include_str!("../crates/core/src/value_match.rs")),
        ("crates/embed/src/ann.rs", include_str!("../crates/embed/src/ann.rs")),
    ];
    let offenders: Vec<&str> = hot_path
        .iter()
        .filter(|(_, source)| source.contains("sh{"))
        .map(|(path, _)| *path)
        .collect();
    assert!(
        offenders.is_empty(),
        "String band keys reintroduced on the planner hot path — use \
         packed_band_key / signature shifts instead: {offenders:?}"
    );
}
