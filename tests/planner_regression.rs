//! Planner fast-path regression harness: deterministic counter invariants
//! plus a lint-enforced ban on String band keys in the planning hot path.
//!
//! The escalation planner's fast path replaced per-vector `Vec<String>` band
//! keys with packed `u64` keys and the dense per-block cost matrix with a
//! sparse solve — both bit-identical by construction (see
//! `tests/blocking_equivalence.rs` for the equivalence side).  This file
//! pins the *structural* properties those changes rely on, so a later edit
//! that quietly reintroduces allocation churn or breaks an attribution
//! invariant fails fast with a named assertion instead of a silent
//! benchmark regression.

use std::time::Duration;

use datalake_fuzzy_fd::benchdata::{generate_escalation_fold, EscalationFoldConfig};
use datalake_fuzzy_fd::core::{match_column_values_with_stats, BlockingPolicy, FuzzyFdConfig};
use datalake_fuzzy_fd::table::Value;

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
