//! Compares the exact sub-threshold sweep with the escalated ANN tier on
//! lake-scale folds of growing size: wall clock, scored pairs, splitting
//! activity and gold-pair recall, plus the Auto-Join equivalence canary.
//!
//! Run with `cargo run --release --example diag_escalation`.

use datalake_fuzzy_fd::benchdata::{
    generate_autojoin_benchmark, generate_escalation_fold, AutoJoinConfig, EscalationFoldConfig,
};
use datalake_fuzzy_fd::core::{
    match_column_values_with_stats, BlockingPolicy, FuzzyFdConfig, ValueGroup,
};
use datalake_fuzzy_fd::embed::EmbeddingCache;
use datalake_fuzzy_fd::table::Value;
use std::time::Instant;

fn to_value_columns(columns: &[Vec<String>]) -> Vec<Vec<Value>> {
    columns.iter().map(|col| col.iter().map(|s| Value::text(s.clone())).collect()).collect()
}

/// The default policy escalating from `min_fold_pairs` pairs (`usize::MAX`
/// = never, `0` = every blocked fold).
fn config_with(min_fold_pairs: usize) -> FuzzyFdConfig {
    FuzzyFdConfig::with_blocking(BlockingPolicy { min_fold_pairs, ..BlockingPolicy::default() })
}

fn main() {
    // Equivalence canary: forced escalation on the Auto-Join 150-value set
    // must reproduce the exact channel's groups.
    let autojoin =
        AutoJoinConfig { num_sets: 1, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(autojoin).remove(0);
    let columns = to_value_columns(&set.columns);
    let embedder = EmbeddingCache::new(FuzzyFdConfig::default().model.build());
    let (exact, exact_stats) =
        match_column_values_with_stats(&columns, &embedder, config_with(usize::MAX));
    let (escalated, stats) = match_column_values_with_stats(&columns, &embedder, config_with(0));
    println!(
        "autojoin-150: groups {} (exact {} — {}), scored {} vs {}",
        escalated.len(),
        exact.len(),
        if escalated == exact { "identical" } else { "DIFFERENT" },
        stats.scored_pairs,
        exact_stats.scored_pairs,
    );

    // Scale sweep: where the quadratic sweep loses to the escalated tier.
    for entities in [1_050usize, 2_100, 4_200] {
        let fold = generate_escalation_fold(EscalationFoldConfig {
            entities,
            ..EscalationFoldConfig::default()
        });
        let columns = to_value_columns(&fold.columns);
        let embedder = EmbeddingCache::new(FuzzyFdConfig::default().model.build());
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
        for (name, min_fold_pairs) in
            [("exact", usize::MAX), ("ann", BlockingPolicy::default().min_fold_pairs)]
        {
            let config = config_with(min_fold_pairs);
            let _ = match_column_values_with_stats(&columns, &embedder, config); // warm cache
            let t = Instant::now();
            let (groups, stats) = match_column_values_with_stats(&columns, &embedder, config);
            println!(
                "{entities:>5} {name:<5} {:>10?}  scored={:<9} splits={} severed={:<6} \
                 gold={}/{}",
                t.elapsed(),
                stats.scored_pairs,
                stats.split_components,
                stats.severed_pairs,
                recovered(&groups),
                fold.gold.len(),
            );
            // Phase attribution of the planning + solving wall clock.
            let named = stats.phase.named();
            let line: Vec<String> = named.iter().map(|(n, d)| format!("{n}={d:.1?}")).collect();
            println!("            phases: {}", line.join(" "));
            println!(
                "            kernel: cand={} int8={} skipped={} rescored={}",
                stats.candidate_pairs,
                stats.kernel.int8_scored,
                stats.kernel.skipped,
                stats.kernel.rescored,
            );
        }
    }
}
