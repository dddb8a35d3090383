//! The end-to-end Fuzzy Full Disjunction operator: its configuration, its
//! report, and the batch entry points.  The integration itself is the
//! step an [`IntegrationSession`](crate::IntegrationSession) runs per
//! arrival (`session::integration_step`) — a batch call is the first step
//! of a session nobody keeps.

use std::time::Duration;

use lake_embed::EmbeddingCache;
use lake_fd::{full_disjunction, IntegratedTable, IntegrationSchema};
use lake_runtime::RuntimeStats;
use lake_schema_match::{align_by_headers, align_columns, Alignment, AlignmentOptions};
use lake_table::{ColumnRef, Table, TableResult};

use crate::blocking::BlockingStats;
use crate::config::FuzzyFdConfig;
use crate::session::{integration_step, Retained};
use crate::value_match::ValueGroup;

/// Statistics of one Fuzzy FD execution, reported next to the result.
#[derive(Debug, Clone, Default)]
pub struct FuzzyFdReport {
    /// Number of aligned column sets that spanned more than one table.
    pub aligned_sets: usize,
    /// Total number of value groups produced by the Match Values component.
    pub value_groups: usize,
    /// Value groups with more than one member (an actual match happened).
    pub matched_groups: usize,
    /// Number of cells rewritten to a representative value.
    pub rewritten_cells: usize,
    /// How the value-matching candidate space was blocked and pruned,
    /// accumulated over every aligned set and fold step (its `runtime`
    /// field covers the block solves).
    pub blocking: BlockingStats,
    /// How the embedding-cache warm-up batches were scheduled (empty under
    /// `matching_threads == 1`, where no warm-up runs).
    pub embed_runtime: RuntimeStats,
    /// Wall-clock time spent matching and rewriting values.
    pub matching_time: Duration,
    /// Wall-clock time spent computing the Full Disjunction.
    pub fd_time: Duration,
    /// Statistics of the FD computation itself (its `runtime` field covers
    /// the component closures).
    pub fd_stats: lake_fd::FdStats,
}

impl FuzzyFdReport {
    /// All shared-executor activity of the run — embedding warm-up, block
    /// solving and FD component closures — merged into one set of counters
    /// (tasks, steals, injected, busy time).  The per-worker busy vector
    /// adds positionally across the three independent stage pools, so the
    /// merged [`RuntimeStats::imbalance`] is indicative only (and reports
    /// `1.0` outright once any merged stage ran sequentially — see
    /// [`RuntimeStats::sequential_batches`]); inspect `embed_runtime`,
    /// `blocking.runtime` and `fd_stats.runtime` for a per-stage imbalance
    /// that reflects one actual schedule.
    pub fn runtime(&self) -> RuntimeStats {
        let mut total = self.embed_runtime.clone();
        total.merge(&self.blocking.runtime);
        total.merge(&self.fd_stats.runtime);
        total
    }
}

/// The result of an integration: the integrated table, the per-aligned-set
/// value groups (for evaluation against gold matches), and the report.
#[derive(Debug, Clone)]
pub struct IntegrationOutcome {
    /// The integrated (Full Disjunction) table.
    pub table: IntegratedTable,
    /// For every multi-table aligned set: the source columns (in matching
    /// order) and the value groups found for them.
    pub value_groups: Vec<(Vec<ColumnRef>, Vec<ValueGroup>)>,
    /// Execution statistics.
    pub report: FuzzyFdReport,
}

/// The Fuzzy Full Disjunction operator.
#[derive(Debug, Clone)]
pub struct FuzzyFullDisjunction {
    config: FuzzyFdConfig,
}

impl Default for FuzzyFullDisjunction {
    fn default() -> Self {
        FuzzyFullDisjunction::new(FuzzyFdConfig::default())
    }
}

impl FuzzyFullDisjunction {
    /// Creates the operator with the given configuration.
    ///
    /// # Panics
    /// Panics when the matching threshold is invalid (see
    /// [`FuzzyFdConfig::validate`]) — a `NaN` θ would otherwise poison
    /// distance ordering silently.  Use [`try_new`](Self::try_new) to handle
    /// the error instead.
    pub fn new(config: FuzzyFdConfig) -> Self {
        match FuzzyFullDisjunction::try_new(config) {
            Ok(operator) => operator,
            Err(error) => panic!("invalid FuzzyFdConfig: {error}"),
        }
    }

    /// As [`new`](Self::new), returning the validation error instead of
    /// panicking.
    pub fn try_new(config: FuzzyFdConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(FuzzyFullDisjunction { config })
    }

    /// The operator's configuration.
    pub fn config(&self) -> &FuzzyFdConfig {
        &self.config
    }

    /// Integrates tables whose columns are aligned by matching headers
    /// (suitable for benchmark data and the Figure 1 example, where headers
    /// are consistent by construction).
    pub fn integrate_by_headers(&self, tables: &[Table]) -> TableResult<IntegrationOutcome> {
        let alignment = align_by_headers(tables);
        self.integrate(tables, &alignment)
    }

    /// Integrates tables, discovering the column alignment automatically with
    /// holistic schema matching over the configured embedding model (the
    /// fully automatic ALITE-style pipeline).
    pub fn integrate_auto(&self, tables: &[Table]) -> TableResult<IntegrationOutcome> {
        let embedder = self.config.model.build();
        let alignment = align_columns(tables, embedder.as_ref(), AlignmentOptions::default());
        self.integrate(tables, &alignment)
    }

    /// Integrates tables under an explicit column alignment: one
    /// integration step over all of `tables` with nothing retained from an
    /// earlier step, whose own retained state is dropped.
    pub fn integrate(
        &self,
        tables: &[Table],
        alignment: &Alignment,
    ) -> TableResult<IntegrationOutcome> {
        let embedder = EmbeddingCache::new(self.config.model.build());
        let step = integration_step(
            &self.config,
            &embedder,
            tables,
            0,
            alignment,
            &mut Retained::default(),
        )?;
        Ok(IntegrationOutcome {
            table: step.table,
            value_groups: step.value_groups,
            report: step.report,
        })
    }
}

/// The equi-join baseline: ALITE-style Full Disjunction without any value
/// matching, under the same alignment.  This is the "regular FD" every
/// experiment compares against.
pub fn regular_full_disjunction(tables: &[Table], alignment: &Alignment) -> IntegratedTable {
    let schema = IntegrationSchema::from_aligned_sets(tables, alignment.groups());
    full_disjunction(&schema, tables)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lake_table::{TableBuilder, Value};

    /// The three COVID tables of the paper's Figure 1.
    pub(crate) fn figure1_tables() -> Vec<Table> {
        vec![
            TableBuilder::new("T1", ["City", "Country"])
                .row(["Berlinn", "Germany"])
                .row(["Toronto", "Canada"])
                .row(["Barcelona", "Spain"])
                .row(["New Delhi", "India"])
                .build()
                .unwrap(),
            TableBuilder::new("T2", ["Country", "City", "Vac. Rate (1+ dose)"])
                .row(["CA", "Toronto", "83%"])
                .row(["US", "Boston", "62%"])
                .row(["DE", "Berlin", "63%"])
                .row(["ES", "Barcelona", "82%"])
                .build()
                .unwrap(),
            TableBuilder::new("T3", ["City", "Total Cases", "Death Rate (per 100k)"])
                .row(["Berlin", "1.4M", "147"])
                .row(["barcelona", "2.68M", "275"])
                .row(["Boston", "263K", "335"])
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn figure1_fuzzy_fd_produces_five_tuples() {
        let tables = figure1_tables();
        let fuzzy = FuzzyFullDisjunction::default();
        let outcome = fuzzy.integrate_by_headers(&tables).unwrap();
        // Fuzzy FD(T1, T2, T3) of Figure 1: f10..f14 — exactly 5 tuples.
        assert_eq!(outcome.table.len(), 5, "{:#?}", outcome.table.tuples());

        // The Berlin tuple merges t1, t7 and t9.
        let berlin = outcome
            .table
            .tuples()
            .iter()
            .find(|t| t.values().contains(&Value::text("Berlin")))
            .expect("berlin tuple");
        assert_eq!(berlin.provenance().len(), 3);

        // The report reflects actual fuzzy work.
        assert_eq!(outcome.report.aligned_sets, 2);
        assert!(outcome.report.matched_groups >= 5);
        assert!(outcome.report.rewritten_cells >= 4);
        // City folds twice, Country folds once; at this size every fold is a
        // single cartesian block below the blocking floor.
        assert_eq!(outcome.report.blocking.folds, 3);
        assert!(outcome.report.blocking.blocks >= 3);
        assert!(outcome.report.blocking.candidate_pairs > 0);
        assert_eq!(outcome.report.blocking.pruned_pairs, 0);
    }

    #[test]
    fn figure1_regular_fd_produces_nine_tuples() {
        let tables = figure1_tables();
        let alignment = align_by_headers(&tables);
        let regular = regular_full_disjunction(&tables, &alignment);
        assert_eq!(regular.len(), 9);
        // Fuzzy integrates strictly more: fewer, more complete tuples.
        let fuzzy = FuzzyFullDisjunction::default().integrate(&tables, &alignment).unwrap();
        assert!(fuzzy.table.len() < regular.len());
        let max_nonnull_fuzzy =
            fuzzy.table.tuples().iter().map(|t| t.non_null_count()).max().unwrap();
        let max_nonnull_regular =
            regular.tuples().iter().map(|t| t.non_null_count()).max().unwrap();
        assert!(max_nonnull_fuzzy >= max_nonnull_regular);
    }

    #[test]
    fn equi_join_inputs_are_unaffected_by_fuzzy_matching() {
        // When values are already consistent, Fuzzy FD and regular FD agree.
        let tables = vec![
            TableBuilder::new("A", ["id", "x"])
                .row(["k1", "x1"])
                .row(["k2", "x2"])
                .build()
                .unwrap(),
            TableBuilder::new("B", ["id", "y"])
                .row(["k1", "y1"])
                .row(["k3", "y3"])
                .build()
                .unwrap(),
        ];
        let alignment = align_by_headers(&tables);
        let fuzzy = FuzzyFullDisjunction::default().integrate(&tables, &alignment).unwrap();
        let regular = regular_full_disjunction(&tables, &alignment);
        let fuzzy_values: Vec<_> =
            fuzzy.table.tuples().iter().map(|t| t.values().to_vec()).collect();
        let regular_values: Vec<_> = regular.tuples().iter().map(|t| t.values().to_vec()).collect();
        assert_eq!(fuzzy_values, regular_values);
        assert_eq!(fuzzy.report.rewritten_cells, 0);
    }

    #[test]
    fn empty_alignment_degenerates_to_outer_union() {
        let tables = vec![
            TableBuilder::new("A", ["a"]).row(["1"]).build().unwrap(),
            TableBuilder::new("B", ["b"]).row(["2"]).build().unwrap(),
        ];
        let outcome = FuzzyFullDisjunction::default().integrate_by_headers(&tables).unwrap();
        assert_eq!(outcome.table.len(), 2);
        assert_eq!(outcome.report.aligned_sets, 0);
        assert_eq!(outcome.report.value_groups, 0);
    }

    #[test]
    fn automatic_alignment_pipeline_runs_end_to_end() {
        // Same data, but headers give no hint — alignment must come from the
        // value embeddings.
        let tables = vec![
            TableBuilder::new("T1", ["col_a", "col_b"])
                .row(["Berlin", "Germany"])
                .row(["Toronto", "Canada"])
                .row(["Boston", "United States"])
                .row(["Barcelona", "Spain"])
                .build()
                .unwrap(),
            TableBuilder::new("T2", ["f1", "f2"])
                .row(["Germany", "Berlin"])
                .row(["Canada", "Toronto"])
                .row(["Spain", "Barcelona"])
                .row(["United States", "Boston"])
                .build()
                .unwrap(),
        ];
        let outcome = FuzzyFullDisjunction::default().integrate_auto(&tables).unwrap();
        // The two tables describe the same four entities: a good automatic
        // alignment integrates them into four complete tuples.
        assert_eq!(outcome.table.len(), 4, "{:#?}", outcome.table.tuples());
        for t in outcome.table.tuples() {
            assert_eq!(t.provenance().len(), 2);
        }
    }

    #[test]
    fn threshold_zero_reduces_to_regular_fd() {
        let tables = figure1_tables();
        let alignment = align_by_headers(&tables);
        let strict = FuzzyFullDisjunction::new(FuzzyFdConfig { theta: 0.0, ..Default::default() })
            .integrate(&tables, &alignment)
            .unwrap();
        let regular = regular_full_disjunction(&tables, &alignment);
        assert_eq!(strict.table.len(), regular.len());
    }
}
