//! Scheduler invariance harness for the shared work-stealing executor
//! (`lake-runtime`).
//!
//! The executor's contract is **invariance**: outputs are identical to the
//! sequential path for any worker count, even on the skewed (power-law)
//! workloads where scheduling actually matters.  Checked by proptests at
//! the executor, FD-component and matching-block layers; two plain tests
//! hold that its stats reach the FD report and that a task's panic reaches
//! the caller.

use datalake_fuzzy_fd::benchdata::{generate_skewed_components, SkewedComponentsConfig};
use datalake_fuzzy_fd::core::{match_column_values, FuzzyFdConfig};
use datalake_fuzzy_fd::embed::EmbeddingModel;
use datalake_fuzzy_fd::fd::{full_disjunction, parallel_full_disjunction_with, IntegrationSchema};
use datalake_fuzzy_fd::runtime::{run_scope, ParallelPolicy};
use datalake_fuzzy_fd::table::Value;
use proptest::prelude::*;

/// Deterministic stand-in for real work: chunky enough that schedules
/// interleave, pure enough that outputs compare exactly.
fn churn(seed: u64, rounds: u64) -> u64 {
    let mut acc = seed;
    for i in 0..rounds {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i ^ seed);
    }
    acc
}

/// Power-law-ish task sizes: many small, few enormous (the distribution the
/// escalation fold's Kruskal splitter emits).
fn power_law_sizes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u32..10).prop_map(|exponent| 1u64 << exponent), 2..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// The executor itself: outputs equal the sequential map, in input
    /// order, for every worker count — on skewed inputs.
    #[test]
    fn executor_is_thread_count_invariant_on_skewed_tasks(sizes in power_law_sizes()) {
        let expected: Vec<u64> =
            sizes.iter().map(|&size| churn(size, size * 64)).collect();
        for threads in [1usize, 2, 3, 8] {
            let (outputs, stats) = run_scope(
                &ParallelPolicy::explicit(threads),
                sizes.clone(),
                |&size| size,
                |size| churn(size, size * 64),
            );
            prop_assert_eq!(&outputs, &expected, "threads = {}", threads);
            prop_assert_eq!(stats.tasks, sizes.len() as u64);
        }
    }

    /// Parallel FD over components with power-law sizes: identical to the
    /// sequential operator for every thread count (0 = auto included).
    #[test]
    fn parallel_fd_is_thread_count_invariant_on_skewed_components(
        small_sizes in prop::collection::vec((0u32..5).prop_map(|e| 2usize + (1usize << e)), 1..8),
        giant in 16usize..48,
    ) {
        let fold = generate_skewed_components(SkewedComponentsConfig {
            giant,
            mediums: 1,
            medium: 12,
            smalls: small_sizes.len(),
            small: *small_sizes.first().unwrap_or(&3),
            stride: 3,
        });
        let schema = IntegrationSchema::from_matching_headers(&fold.tables);
        let sequential = full_disjunction(&schema, &fold.tables);
        for threads in [0usize, 1, 2, 3, 8] {
            let (parallel, stats) =
                parallel_full_disjunction_with(&schema, &fold.tables, threads);
            prop_assert_eq!(&parallel, &sequential, "threads = {}", threads);
            if threads >= 2 {
                prop_assert_eq!(stats.runtime.tasks as usize, stats.components);
            }
        }
    }
}

/// Distinctive pseudo-words sharing no character trigrams, so clusters
/// block apart cleanly (same construction as `blocking_equivalence.rs`).
const BASES: [&str; 12] = [
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Blocked value matching over clusters of power-law sizes: the block
    /// cost matrices span ~1000× (1×1 up to 1×16 and wider), and the solved
    /// groups must be identical to the sequential path for every worker
    /// count.
    #[test]
    fn skewed_block_solving_is_thread_count_invariant(
        variant_counts in prop::collection::vec((0u32..5).prop_map(|e| 1usize << e), 3..10),
    ) {
        // Cluster i: one canonical value plus `variant_counts[i]` variants
        // sharing its leading token, so each cluster is one independent
        // block of 1 × count cells (plus whatever the variants contribute).
        let mut canonical: Vec<Value> = Vec::new();
        let mut noisy: Vec<Value> = Vec::new();
        for (i, &count) in variant_counts.iter().enumerate() {
            let base = BASES[i % BASES.len()];
            canonical.push(Value::text(base));
            for variant in 0..count {
                noisy.push(Value::text(format!("{base} v{variant}")));
            }
        }
        let columns = vec![canonical, noisy];
        let embedder = EmbeddingModel::Mistral.build();
        let config = |threads: usize| {
            FuzzyFdConfig { matching_threads: threads, ..FuzzyFdConfig::default() }
                .force_blocking()
        };
        let sequential = match_column_values(&columns, embedder.as_ref(), config(1));
        for threads in [0usize, 2, 3, 8] {
            let parallel = match_column_values(&columns, embedder.as_ref(), config(threads));
            prop_assert_eq!(&parallel, &sequential, "threads = {}", threads);
        }
    }
}

/// The executor's scheduling must surface in the FD report: running the
/// skewed fold at 4 workers schedules one task per component on 4 workers,
/// and imbalance is meaningful (≥ 1).
#[test]
fn fd_runtime_stats_surface_scheduling_quality() {
    let fold = generate_skewed_components(SkewedComponentsConfig {
        giant: 40,
        mediums: 2,
        medium: 12,
        smalls: 6,
        small: 4,
        stride: 4,
    });
    let schema = IntegrationSchema::from_matching_headers(&fold.tables);
    let (_, stats) = parallel_full_disjunction_with(&schema, &fold.tables, 4);
    assert_eq!(stats.components, fold.component_sizes.len());
    assert_eq!(stats.runtime.tasks as usize, stats.components);
    assert_eq!(stats.runtime.workers(), 4);
    assert!(stats.runtime.imbalance() >= 1.0);
    assert!(stats.runtime.busy_nanos() > 0);
}

/// A panicking task aborts the batch with the original panic — the scope
/// must never deadlock waiting for the dead worker's queue.
#[test]
#[should_panic(expected = "integration-level panic probe")]
fn panicking_task_propagates_through_the_scope() {
    let items: Vec<u64> = (0..48).collect();
    let _ = run_scope(
        &ParallelPolicy::explicit(4),
        items,
        |_| 1,
        |item| {
            if item == 31 {
                panic!("integration-level panic probe");
            }
            churn(item, 50_000)
        },
    );
}
