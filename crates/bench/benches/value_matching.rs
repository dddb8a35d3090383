//! Criterion bench backing Table 1: value-matching cost per embedding model
//! on one Auto-Join-style integration set, a blocked-vs-exhaustive
//! comparison of the candidate-space policies, the escalation tier on a
//! lake-scale fold, a plan-only `value_matching_planner` group over the same
//! fold, and a `scheduling` group timing the shared work-stealing executor on
//! the skewed-components and escalation folds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy_fd_core::{
    match_column_values, match_column_values_with_stats, BlockingPolicy, EscalationPolicy,
    FuzzyFdConfig, KeyedBlockingConfig,
};
use lake_benchdata::{
    generate_autojoin_benchmark, generate_escalation_fold, generate_skewed_components,
    AutoJoinConfig, EscalationFoldConfig, SkewedComponentsConfig,
};
use lake_embed::ALL_MODELS;
use lake_table::Value;

fn autojoin_columns() -> Vec<Vec<Value>> {
    let config =
        AutoJoinConfig { num_sets: 1, values_per_column: 150, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(0);
    set.columns.iter().map(|col| col.iter().map(|s| Value::text(s.clone())).collect()).collect()
}

fn bench_value_matching(c: &mut Criterion) {
    let columns = autojoin_columns();

    let mut group = c.benchmark_group("value_matching");
    group.sample_size(10);
    for model in ALL_MODELS {
        let embedder = model.build();
        group.bench_with_input(BenchmarkId::from_parameter(model.name()), &columns, |b, cols| {
            b.iter(|| {
                let cfg = FuzzyFdConfig { model, ..FuzzyFdConfig::default() };
                match_column_values(cols, embedder.as_ref(), cfg)
            })
        });
    }
    group.finish();
}

/// Blocked vs exhaustive candidate generation on the default (Mistral)
/// model: the exhaustive dense matrix against the exact sub-threshold sweep.
fn bench_blocking_policies(c: &mut Criterion) {
    let columns = autojoin_columns();
    let embedder = FuzzyFdConfig::default().model.build();

    let policies: [(&str, BlockingPolicy); 2] = [
        ("exhaustive", BlockingPolicy::Exhaustive),
        ("exact", BlockingPolicy::default().force_blocked()),
    ];

    let mut group = c.benchmark_group("value_matching_blocking");
    group.sample_size(10);
    for (name, policy) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(name), &columns, |b, cols| {
            b.iter(|| {
                match_column_values(cols, embedder.as_ref(), FuzzyFdConfig::with_blocking(policy))
            })
        });
    }
    group.finish();
}

/// The escalation tier on a lake-scale fold (4200 distinctive values plus
/// surface variants — see `lake_benchdata::escalation`): the quadratic exact
/// sweep vs the ANN-gated escalated channel, both under the default model.
/// At this size the sweep's quadratic cost dominates and the escalated
/// channel wins on wall clock as well as on scored pairs (~8× fewer, the
/// number `FuzzyFdReport::blocking` reports and the equivalence harness
/// asserts on).
///
/// Like the kernel group, the claims the timings rest on are asserted in a
/// pre-pass before any measurement: the escalated channel's groups must be
/// identical to the exact sweep's on the Auto-Join-150 set (the equivalence
/// canary — on the lake-scale fold the tier is probabilistic-recall by
/// design), the escalated fold must score ≥3× fewer pairs than the sweep,
/// and the planner fast path's ≥2× win over the pre-fast-path recording
/// must still hold (fastest of three warm runs under half the recorded
/// 569.2 ms mean — min-of-3 because a single run on a noisy shared host is
/// not a measurement).
fn bench_escalation(c: &mut Criterion) {
    let fold =
        generate_escalation_fold(EscalationFoldConfig { entities: 4_200, ..Default::default() });
    let columns: Vec<Vec<Value>> = fold
        .columns
        .iter()
        .map(|col| col.iter().map(|s| Value::text(s.clone())).collect())
        .collect();
    // Embeddings are memoised across iterations (as the pipeline does via
    // `EmbeddingCache`), so the series isolates candidate generation and
    // solving instead of re-measuring the linear embedding cost.
    let embedder = lake_embed::EmbeddingCache::new(FuzzyFdConfig::default().model.build());

    let config_for = |escalation: EscalationPolicy| {
        FuzzyFdConfig::with_blocking(BlockingPolicy::Keyed(KeyedBlockingConfig {
            escalation,
            ..KeyedBlockingConfig::default()
        }))
    };

    // Pre-pass, claim 1 — bit-identical groups where the tier guarantees
    // them: forced escalation on the Auto-Join-150 set reproduces the exact
    // channel (the blocking_equivalence canary, re-asserted here so the
    // timings below never describe a diverged planner).
    let canary = autojoin_columns();
    let forced = EscalationPolicy { min_fold_pairs: 0, ..EscalationPolicy::default() };
    let canary_exact =
        match_column_values(&canary, &embedder, config_for(EscalationPolicy::never()));
    let canary_escalated = match_column_values(&canary, &embedder, config_for(forced));
    assert_eq!(
        canary_escalated, canary_exact,
        "escalated channel diverged from the exact sweep on Auto-Join-150"
    );

    // Pre-pass, claim 2 — the lake-scale fold actually prunes: the escalated
    // channel must score ≥3× fewer pairs than the quadratic sweep.  (Also
    // warms the embedding cache for the timed loops.)
    let (exact, exact_stats) =
        match_column_values_with_stats(&columns, &embedder, config_for(EscalationPolicy::never()));
    let (_, escalated_stats) = match_column_values_with_stats(
        &columns,
        &embedder,
        config_for(EscalationPolicy::default()),
    );
    assert!(
        escalated_stats.scored_pairs * 3 <= exact_stats.scored_pairs,
        "escalated channel stopped pruning: {} scored vs {} exact",
        escalated_stats.scored_pairs,
        exact_stats.scored_pairs
    );

    // Pre-pass, claim 3 — the planner fast path's headline win.
    const PRE_FAST_PATH_ESCALATED_MS: f64 = 569.2;
    let best_ms = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let groups =
                match_column_values(&columns, &embedder, config_for(EscalationPolicy::default()));
            assert!(!groups.is_empty() && groups.len() <= exact.len() * 2);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_ms * 2.0 < PRE_FAST_PATH_ESCALATED_MS,
        "the escalated fold lost its ≥2× win over the pre-fast-path baseline \
         ({PRE_FAST_PATH_ESCALATED_MS} ms mean): best of 3 warm runs took {best_ms:.1} ms"
    );

    let policies: [(&str, EscalationPolicy); 2] =
        [("exact-sweep", EscalationPolicy::never()), ("escalated", EscalationPolicy::default())];
    let mut group = c.benchmark_group("value_matching_escalation");
    group.sample_size(10);
    for (name, escalation) in policies {
        let config = config_for(escalation);
        group.bench_with_input(BenchmarkId::from_parameter(name), &columns, |b, cols| {
            b.iter(|| match_column_values(cols, &embedder, config))
        });
    }
    group.finish();
}

/// Plan-only series over the 4200-entity fold's bipartite inputs:
/// `plan_blocks` alone, isolating the escalation planner (packed band keys,
/// slab-batched signatures, per-row merge dedup, Kruskal splitting) from
/// embedding, assignment and group assembly.  `escalated-plan` forces the
/// ANN tier (`min_fold_pairs` zeroed); `exact-plan` runs the quadratic
/// sub-threshold sweep over the same inputs.  Embeddings and surface keys
/// are built once outside the timed region.
fn bench_planner(c: &mut Criterion) {
    use fuzzy_fd_core::{hashed_value_block_keys, plan_blocks, FoldInputs};
    use lake_embed::{Embedder, Vector};

    let fold =
        generate_escalation_fold(EscalationFoldConfig { entities: 4_200, ..Default::default() });
    let embedder = FuzzyFdConfig::default().model.build();
    let embed_column = |column: &[String]| -> Vec<Vector> {
        column.iter().map(|value| embedder.embed(value)).collect()
    };
    let key_column = |column: &[String]| -> Vec<Vec<u64>> {
        column.iter().map(|v| hashed_value_block_keys(v)).collect()
    };
    let row_embeddings = embed_column(&fold.columns[0]);
    let col_embeddings = embed_column(&fold.columns[1]);
    let row_refs: Vec<&Vector> = row_embeddings.iter().collect();
    let col_refs: Vec<&Vector> = col_embeddings.iter().collect();
    let row_keys = key_column(&fold.columns[0]);
    let col_keys = key_column(&fold.columns[1]);
    let inputs = FoldInputs {
        row_keys: &row_keys,
        col_keys: &col_keys,
        row_embeddings: &row_refs,
        col_embeddings: &col_refs,
        theta: FuzzyFdConfig::default().theta,
    };

    let keyed = |escalation| {
        BlockingPolicy::Keyed(KeyedBlockingConfig {
            min_blocked_pairs: 0,
            escalation,
            ..KeyedBlockingConfig::default()
        })
    };
    let policies: [(&str, BlockingPolicy); 2] = [
        (
            "escalated-plan",
            keyed(EscalationPolicy { min_fold_pairs: 0, ..EscalationPolicy::default() }),
        ),
        ("exact-plan", keyed(EscalationPolicy::never())),
    ];

    let mut group = c.benchmark_group("value_matching_planner");
    group.sample_size(10);
    for (name, policy) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(name), &inputs, |b, inputs| {
            b.iter(|| plan_blocks(inputs, &policy))
        });
    }
    group.finish();
}

/// The work-stealing executor on the two workloads it was built for:
///
/// * the **skewed-components FD fold** (`lake_benchdata::skew`): component
///   closure costs span ~1000×, and the mediums sit on round-robin stride
///   positions, the shape that stacks a static bucketing behind the giant
///   (the ≥ 1.3× makespan win over it is asserted in cost units by
///   `tests/runtime_scheduling.rs`);
/// * the **4200-entity escalation fold**: the value matcher's block solves
///   at `matching_threads = 4` (`escalation-stealing-4t`), to be read
///   against the sequential `value_matching_escalation/escalated` series.
fn bench_scheduling(c: &mut Criterion) {
    use lake_fd::complement::component_closure;
    use lake_fd::components::join_components;
    use lake_fd::tuple::IntegratedTuple;
    use lake_fd::{outer_union, IntegrationSchema};
    use lake_runtime::{run_scope, ParallelPolicy};

    const WORKERS: usize = 4;

    let fold = generate_skewed_components(SkewedComponentsConfig::default());
    let schema = IntegrationSchema::from_matching_headers(&fold.tables);
    let base = outer_union(&schema, &fold.tables);
    let components = join_components(&base);
    let work: Vec<Vec<IntegratedTuple>> = components
        .iter()
        .map(|component| component.iter().map(|&i| base[i].clone()).collect())
        .collect();

    let mut group = c.benchmark_group("scheduling");
    group.sample_size(10);
    group.bench_function("components-stealing", |b| {
        b.iter(|| {
            run_scope(
                &ParallelPolicy::explicit(WORKERS),
                work.clone(),
                |component| (component.len() * component.len()) as u64,
                component_closure,
            )
        })
    });

    let escalation =
        generate_escalation_fold(EscalationFoldConfig { entities: 4_200, ..Default::default() });
    let columns: Vec<Vec<Value>> = escalation
        .columns
        .iter()
        .map(|col| col.iter().map(|s| Value::text(s.clone())).collect())
        .collect();
    let embedder = lake_embed::EmbeddingCache::new(FuzzyFdConfig::default().model.build());
    let config = FuzzyFdConfig { matching_threads: WORKERS, ..FuzzyFdConfig::default() };
    group.bench_with_input(
        BenchmarkId::from_parameter("escalation-stealing-4t"),
        &columns,
        |b, cols| b.iter(|| match_column_values(cols, &embedder, config)),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_value_matching,
    bench_blocking_policies,
    bench_escalation,
    bench_planner,
    bench_scheduling
);
criterion_main!(benches);
