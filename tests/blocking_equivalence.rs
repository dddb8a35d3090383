//! Equivalence and property harness for blocked candidate generation.
//!
//! The blocked value matcher must be a faithful optimisation: its cartesian
//! fallback has to reproduce the exhaustive path exactly, the blocked tiers
//! must never match pairs that were not candidates (at or above the distance
//! cutoff), and on the Auto-Join benchmark set the pruned search space may
//! not change the produced groups.

use std::collections::BTreeSet;

use datalake_fuzzy_fd::core::blocking::CANDIDACY_SLACK;
use datalake_fuzzy_fd::core::{
    match_column_values, match_column_values_with_stats, plan_blocks, BlockingPolicy, FoldInputs,
    FuzzyFdConfig, ValueGroup,
};
use datalake_fuzzy_fd::embed::{Embedder, EmbeddingModel};
use datalake_fuzzy_fd::table::Value;
use proptest::prelude::*;

fn to_value_columns(columns: &[Vec<String>]) -> Vec<Vec<Value>> {
    columns.iter().map(|col| col.iter().map(|s| Value::text(s.clone())).collect()).collect()
}

fn run(columns: &[Vec<String>], config: FuzzyFdConfig) -> Vec<ValueGroup> {
    let embedder = config.model.build();
    match_column_values(&to_value_columns(columns), embedder.as_ref(), config)
}

/// Strategy: 2–3 columns mixing exact duplicates, typo variants, acronyms and
/// unrelated values, so exact, fuzzy and unmatched paths are all exercised.
fn columns_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    let word = prop::sample::select(vec![
        "berlin",
        "berlinn",
        "toronto",
        "torontoo",
        "boston",
        "barcelona",
        "barcelonna",
        "new delhi",
        "nd",
        "united nations",
        "un",
        "germany",
        "de",
        "canada",
        "ca",
        "quito",
        "lima",
        "lagos",
        "dallas",
        "austin",
    ]);
    let column = prop::collection::hash_set(word, 0..10)
        .prop_map(|set| set.into_iter().map(String::from).collect::<Vec<String>>());
    prop::collection::vec(column, 2..=3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The keyed policy's cartesian fallback (blocking floor never reached)
    /// is bit-identical to the exhaustive path.
    #[test]
    fn cartesian_fallback_equals_exhaustive(
        columns in columns_strategy(),
        theta in 0.0f32..0.95,
    ) {
        let exhaustive = run(
            &columns,
            FuzzyFdConfig { theta, ..FuzzyFdConfig::with_blocking(BlockingPolicy::exhaustive()) },
        );
        let fallback = run(
            &columns,
            FuzzyFdConfig {
                theta,
                blocking: BlockingPolicy {
                    min_blocked_pairs: usize::MAX,
                    ..BlockingPolicy::default()
                },
                ..FuzzyFdConfig::default()
            },
        );
        prop_assert_eq!(exhaustive, fallback);
    }

    /// The default exact semantic channel never groups a value with others it
    /// is not close to: every member of a multi-member group is an exact
    /// duplicate of another member, or lies within the distance cutoff
    /// (θ + slack) of at least one other member — the witness being the group
    /// representative it was matched against, which stays a member forever.
    #[test]
    fn exact_mode_only_groups_sub_threshold_values(
        columns in columns_strategy(),
        theta in 0.0f32..0.95,
    ) {
        // Keyed blocking regardless of problem size.
        let config = FuzzyFdConfig::with_theta(theta).force_blocking();
        let cutoff = theta + CANDIDACY_SLACK;
        let embedder = config.model.build();
        let groups = run(&columns, config);
        for group in groups.iter().filter(|g| g.len() >= 2) {
            for (i, (_, value)) in group.members.iter().enumerate() {
                let rendered = value.render();
                if group.members.iter().enumerate().any(|(j, (_, other))| {
                    i != j && other.render() == rendered
                }) {
                    continue; // exact duplicate, joined by the exact pass
                }
                let own = embedder.embed(&rendered);
                let close = group.members.iter().enumerate().any(|(j, (_, other))| {
                    i != j && own.cosine_distance(&embedder.embed(&other.render())) < cutoff
                });
                prop_assert!(
                    close,
                    "{rendered:?} grouped at distance ≥ {cutoff}: {group:#?}"
                );
            }
        }
    }
}

/// Acceptance: on the Auto-Join 150-value integration set, keyed blocking
/// prunes a substantial share of the candidate space without changing a
/// single group.
#[test]
fn autojoin_150_set_blocked_equals_exhaustive() {
    use datalake_fuzzy_fd::benchdata::{generate_autojoin_benchmark, AutoJoinConfig};

    let config =
        AutoJoinConfig { num_sets: 1, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(0);
    let columns = to_value_columns(&set.columns);
    let embedder = EmbeddingModel::Mistral.build();

    let (exhaustive, exhaustive_stats) = match_column_values_with_stats(
        &columns,
        embedder.as_ref(),
        FuzzyFdConfig::with_blocking(BlockingPolicy::exhaustive()),
    );
    assert_eq!(exhaustive_stats.pruned_pairs, 0);

    let (blocked, stats) = match_column_values_with_stats(
        &columns,
        embedder.as_ref(),
        FuzzyFdConfig::default().force_blocking(),
    );
    assert_eq!(blocked, exhaustive, "blocking changed the produced groups");
    assert!(stats.pruned_pairs > 0, "no pruning happened: {stats:?}");
    assert!(
        stats.candidate_pairs < exhaustive_stats.candidate_pairs,
        "blocked: {stats:?}, exhaustive: {exhaustive_stats:?}"
    );
    // The exact tier runs on the quantized kernel: every scored pair is
    // classified, the counters add up, and the exact f32 re-score band stays
    // a strict subset of the int8-classified pairs.
    assert_eq!(stats.kernel.classified(), stats.scored_pairs, "{stats:?}");
    assert_eq!(stats.kernel.int8_scored, stats.kernel.skipped + stats.kernel.rescored);
    assert!(stats.kernel.rescored < stats.kernel.int8_scored, "{stats:?}");
    assert!(stats.kernel.blocks > 0, "{stats:?}");
    // The exhaustive path never touches the kernel.
    assert_eq!(exhaustive_stats.kernel.classified(), 0, "{exhaustive_stats:?}");
    // On single-topic data the sub-cutoff candidate graph is connected, so
    // the plan is one (heavily sparsified) block; splitting into several
    // blocks needs genuinely separable value clusters and is covered by the
    // dedicated multi-cluster test below.
    assert!(stats.blocks >= 1, "{stats:?}");
    assert!(
        stats.pruned_fraction() > 0.5,
        "the exact channel should prune most of the space: {stats:?}"
    );

    // The default config (with its cartesian floor) must also agree: the
    // 150-value columns sit far above the floor, so blocking engages.
    let (default_mode, default_stats) =
        match_column_values_with_stats(&columns, embedder.as_ref(), FuzzyFdConfig::default());
    assert_eq!(default_mode, exhaustive);
    assert!(default_stats.pruned_pairs > 0);
}

/// Acceptance: a fold over well-separated value clusters (no shared surface,
/// distant embeddings) splits into many independent blocks that solve to the
/// same groups as the exhaustive path.
#[test]
fn separable_clusters_split_into_parallel_blocks() {
    // Distinctive base words sharing no character trigrams, so both the
    // surface and the embedding of different clusters are far apart; the
    // second column holds a typo variant of each base (last letter doubled).
    let bases = [
        "qavlumper",
        "zorbekkin",
        "wyxtrovan",
        "fenglodar",
        "mubrizzok",
        "tislenkor",
        "hardwexil",
        "covantrup",
        "jesprilon",
        "nuxbalter",
        "ryzomenta",
        "gwalfiddo",
        "spuncrati",
        "dovekharn",
        "ilmoquist",
        "braxxulen",
    ];
    let columns: Vec<Vec<String>> = vec![
        bases.iter().map(|b| b.to_string()).collect(),
        bases.iter().map(|b| format!("{b}{}", b.chars().last().unwrap())).collect(),
    ];
    let value_columns = to_value_columns(&columns);
    let embedder = EmbeddingModel::Mistral.build();

    let exhaustive = match_column_values(
        &value_columns,
        embedder.as_ref(),
        FuzzyFdConfig::with_blocking(BlockingPolicy::exhaustive()),
    );
    let (blocked, stats) = match_column_values_with_stats(
        &value_columns,
        embedder.as_ref(),
        FuzzyFdConfig::default().force_blocking(),
    );
    assert_eq!(blocked, exhaustive, "blocking changed the produced groups");
    assert!(stats.blocks > 1, "separable clusters must split: {stats:?}");
    assert!(stats.pruned_pairs > 0, "{stats:?}");
    // Every base must still absorb its typo variant.
    for group in &blocked {
        assert_eq!(group.len(), 2, "cluster failed to pair: {group:#?}");
    }
}

/// A keyed config whose exact channel escalates to the ANN tier for every
/// fold of at least `min_fold_pairs` pairs (blocking floor removed).
fn escalated_config(min_fold_pairs: usize) -> FuzzyFdConfig {
    FuzzyFdConfig::with_blocking(BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs,
        ..BlockingPolicy::default()
    })
}

/// The exact channel with escalation disabled entirely.
fn exact_config() -> FuzzyFdConfig {
    FuzzyFdConfig::with_blocking(BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs: usize::MAX,
        ..BlockingPolicy::default()
    })
}

/// Acceptance: on the Auto-Join 150-value set the escalated (ANN) channel
/// produces groups identical to the exact sub-threshold sweep while scoring
/// fewer pairs.  The equivalence here is *empirical*, not structural — the
/// ANN tier is probabilistic and repairs itself through the surface-key
/// union and the no-matchable-candidate fallback sweeps (see
/// `fuzzy_fd_core::blocking`) — which is exactly why this canary exercises
/// it on a workload small enough to verify against the exact channel.
#[test]
fn escalated_channel_equals_exact_on_autojoin_150() {
    use datalake_fuzzy_fd::benchdata::{generate_autojoin_benchmark, AutoJoinConfig};

    let config =
        AutoJoinConfig { num_sets: 1, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(0);
    let columns = to_value_columns(&set.columns);
    let embedder = EmbeddingModel::Mistral.build();

    let (exact, exact_stats) =
        match_column_values_with_stats(&columns, embedder.as_ref(), exact_config());
    assert_eq!(exact_stats.escalated_folds, 0);

    let (escalated, stats) =
        match_column_values_with_stats(&columns, embedder.as_ref(), escalated_config(0));
    assert_eq!(escalated, exact, "the escalated channel changed the produced groups");
    assert!(stats.escalated_folds > 0, "escalation never engaged: {stats:?}");
    assert!(
        stats.scored_pairs < exact_stats.scored_pairs,
        "escalation scored as much as the sweep: {stats:?} vs {exact_stats:?}"
    );
    // Both tiers re-score through the quantized kernel; the escalated tier
    // classifies far fewer pairs (per-pair probes, no cache tiles).
    assert!(stats.kernel.classified() > 0, "{stats:?}");
    assert_eq!(stats.kernel.blocks, 0, "per-pair probing uses no sweep tiles: {stats:?}");
    assert!(
        stats.kernel.classified() < exact_stats.kernel.classified(),
        "escalated: {stats:?}, exact: {exact_stats:?}"
    );
}

/// Acceptance: on the lake-scale escalation fold (1k+ values per column) the
/// default configuration escalates on its own, scores at least 3× fewer
/// pairs than the exact sweep, and still recovers almost all of the gold
/// matches the exact channel finds.
#[test]
fn escalation_fold_scores_three_times_fewer_pairs() {
    use datalake_fuzzy_fd::benchdata::{generate_escalation_fold, EscalationFoldConfig};

    let fold = generate_escalation_fold(EscalationFoldConfig::default());
    let columns = to_value_columns(&fold.columns);
    let embedder = EmbeddingModel::Mistral.build();

    // The default config escalates by itself: the fold sits far above the
    // 1M-pair threshold (and above the cartesian floor).
    let (escalated, stats) =
        match_column_values_with_stats(&columns, embedder.as_ref(), FuzzyFdConfig::default());
    assert!(stats.escalated_folds > 0, "default config failed to escalate: {stats:?}");

    let (exact, exact_stats) =
        match_column_values_with_stats(&columns, embedder.as_ref(), exact_config());
    assert_eq!(exact_stats.escalated_folds, 0);
    assert!(
        stats.scored_pairs * 3 <= exact_stats.scored_pairs,
        "escalation must score ≥3× fewer pairs: {} vs {}",
        stats.scored_pairs,
        exact_stats.scored_pairs
    );

    // Oversized-component splitting engages on both paths (the fold's
    // ambient-similarity tail glues one giant component) and is reported.
    assert!(stats.split_components > 0 && stats.severed_pairs > 0, "{stats:?}");

    // Recall parity: the probabilistic tier may drop a small share of the
    // gold matches, but must stay within a few percent of the exact sweep.
    let recovered = |groups: &[ValueGroup]| {
        fold.gold
            .iter()
            .filter(|(base, variant)| {
                groups.iter().any(|g| {
                    g.members.iter().any(|(_, v)| v.render() == *base)
                        && g.members.iter().any(|(_, v)| v.render() == *variant)
                })
            })
            .count()
    };
    let (exact_gold, escalated_gold) = (recovered(&exact), recovered(&escalated));
    assert!(
        escalated_gold * 100 >= exact_gold * 95,
        "escalated gold recall {escalated_gold}/{} fell too far below exact {exact_gold}/{}",
        fold.gold.len(),
        fold.gold.len()
    );
}

/// Acceptance: oversized-component splitting keeps groups equivalence-safe.
/// With an aggressively small cell cap the splitter must engage on the
/// Auto-Join set, record its cuts, and still only ever produce groups whose
/// members are witnessed by a sub-cutoff distance — no fabricated matches.
#[test]
fn split_components_preserve_group_equivalence() {
    use datalake_fuzzy_fd::benchdata::{generate_autojoin_benchmark, AutoJoinConfig};

    let config =
        AutoJoinConfig { num_sets: 1, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(0);
    let columns = to_value_columns(&set.columns);
    let embedder = EmbeddingModel::Mistral.build();

    let split_config = FuzzyFdConfig::with_blocking(BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs: usize::MAX,
        max_component_cells: 256, // 16 × 16 — far below the fold's one big component
    });
    let cutoff = split_config.theta + CANDIDACY_SLACK;

    let (groups, stats) = match_column_values_with_stats(&columns, embedder.as_ref(), split_config);
    assert!(stats.split_components > 0, "the tiny cap must trigger splitting: {stats:?}");
    assert!(stats.severed_pairs > 0, "{stats:?}");
    // The cap bounds cells (rows × cols), not participants: a 256-cell
    // component can be as skinny as 1 × 256, i.e. up to 257 participants.
    assert!(stats.max_block_size <= 257, "cap violated: {stats:?}");

    // Equivalence safety: every matched member still has a sub-cutoff
    // witness among its group mates, and the bipartite constraint holds.
    for group in groups.iter().filter(|g| g.len() >= 2) {
        let mut columns_seen = BTreeSet::new();
        for (column, _) in &group.members {
            assert!(columns_seen.insert(*column), "two members from one column: {group:#?}");
        }
        for (i, (_, value)) in group.members.iter().enumerate() {
            let rendered = value.render();
            if group
                .members
                .iter()
                .enumerate()
                .any(|(j, (_, other))| i != j && other.render() == rendered)
            {
                continue;
            }
            let own = embedder.embed(&rendered);
            let close = group.members.iter().enumerate().any(|(j, (_, other))| {
                i != j && own.cosine_distance(&embedder.embed(&other.render())) < cutoff
            });
            assert!(close, "{rendered:?} grouped without a sub-cutoff witness: {group:#?}");
        }
    }
}

/// Acceptance: cut edges recorded by the splitter are re-verifiable — on a
/// plan built directly over fold inputs, every severed edge carries its
/// exact measured distance, kept blocks respect the cell cap, and the kept
/// pairs plus the cut edges together are exactly the pairs of the unsplit
/// plan (the splitter drops no edge silently).
#[test]
fn splitter_cuts_are_recorded_and_exact() {
    use datalake_fuzzy_fd::embed::Vector;

    // A blurry 12 × 12 fold: three loose clusters of four values whose
    // cross-cluster distances straddle θ, so the candidate graph is one
    // component far above the 4-cell cap.
    let embed = |cluster: usize, jitter: f32| {
        let mut components = vec![0.1f32; 8];
        components[cluster] = 1.0;
        components[(cluster + 1) % 8] = 0.4 + jitter;
        Vector::new(components)
    };
    let vectors: Vec<Vector> = (0..12).map(|i| embed(i % 3, 0.05 * (i / 3) as f32)).collect();
    let refs: Vec<&Vector> = vectors.iter().collect();
    let input = FoldInputs {
        row_embeddings: &refs,
        col_embeddings: &refs,
        theta: 0.7,
        ..FoldInputs::default()
    };
    let keyed = |max_component_cells| BlockingPolicy {
        min_blocked_pairs: 0,
        min_fold_pairs: usize::MAX,
        max_component_cells,
    };

    let unsplit = plan_blocks(&input, &keyed(usize::MAX));
    assert!(unsplit.cut_edges.is_empty());
    let split = plan_blocks(&input, &keyed(16));
    assert!(split.stats.split_components > 0, "{:?}", split.stats);
    assert_eq!(split.stats.severed_pairs, split.cut_edges.len());
    for block in &split.blocks {
        assert!(block.rows.len() * block.cols.len() <= 16, "block exceeds the cell cap: {block:?}");
    }

    // Kept pairs ∪ cut edges == the unsplit candidate set, with distances
    // preserved bit for bit.
    let mut recovered: Vec<(usize, usize, f32)> = Vec::new();
    for block in &split.blocks {
        recovered.extend(block.candidates.as_ref().expect("planned blocks enumerate pairs"));
    }
    recovered.extend(split.cut_edges.iter().map(|e| (e.row as usize, e.col as usize, e.distance)));
    recovered.sort_by_key(|e| (e.0, e.1));
    let mut expected: Vec<(usize, usize, f32)> = Vec::new();
    for block in &unsplit.blocks {
        expected.extend(block.candidates.as_ref().unwrap());
    }
    expected.sort_by_key(|e| (e.0, e.1));
    assert_eq!(recovered, expected, "the splitter lost or altered candidate edges");
}

/// Acceptance: tier selection is a pure threshold function of the fold size,
/// and on separable data the tiers agree wherever they overlap.  For a fold
/// of exactly `T` pairs, `min_fold_pairs = T` escalates and `T + 1` stays on
/// the exact sweep; both produce the same groups.
#[test]
fn threshold_boundary_tier_selection_is_invariant() {
    // Same separable-cluster construction as the parallel-blocks test:
    // distinctive surfaces, far-apart embeddings.
    let bases = [
        "qavlumper",
        "zorbekkin",
        "wyxtrovan",
        "fenglodar",
        "mubrizzok",
        "tislenkor",
        "hardwexil",
        "covantrup",
        "jesprilon",
        "nuxbalter",
        "ryzomenta",
        "gwalfiddo",
    ];
    let columns: Vec<Vec<String>> = vec![
        bases.iter().map(|b| b.to_string()).collect(),
        bases.iter().map(|b| format!("{b}{}", b.chars().last().unwrap())).collect(),
    ];
    let value_columns = to_value_columns(&columns);
    let embedder = EmbeddingModel::Mistral.build();
    // One fold: 12 groups × 12 fuzzy values.
    let fold_pairs = bases.len() * bases.len();

    let (at_threshold, at_stats) = match_column_values_with_stats(
        &value_columns,
        embedder.as_ref(),
        escalated_config(fold_pairs),
    );
    assert_eq!(at_stats.escalated_folds, 1, "T-pair fold must escalate at T: {at_stats:?}");

    let (above_threshold, above_stats) = match_column_values_with_stats(
        &value_columns,
        embedder.as_ref(),
        escalated_config(fold_pairs + 1),
    );
    assert_eq!(above_stats.escalated_folds, 0, "{above_stats:?}");

    assert_eq!(at_threshold, above_threshold, "tier choice changed the groups");
    for group in &at_threshold {
        assert_eq!(group.len(), 2, "cluster failed to pair: {group:#?}");
    }
}
