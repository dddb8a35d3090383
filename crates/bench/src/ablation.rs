//! Ablation studies: the θ threshold sweep mentioned in §3.1 and the design
//! choices behind the pipeline (assignment solver, component partitioning,
//! parallelism).

use std::time::Instant;

use fuzzy_fd_core::{AssignmentStrategy, FuzzyFdConfig};
use lake_benchdata::{
    generate_autojoin_benchmark, generate_imdb_benchmark, AutoJoinConfig, ImdbConfig,
};
use lake_embed::EmbeddingModel;
use lake_fd::complement::component_closure;
use lake_fd::{
    full_disjunction, outer_union, parallel_full_disjunction, IntegratedTable, IntegrationSchema,
};
use lake_metrics::PrecisionRecall;
use lake_table::{JsonWriter, Table};

use crate::table1::evaluate_set;

/// One point of the θ sweep.
#[derive(Debug, Clone)]
pub struct ThresholdPoint {
    /// The matching threshold θ.
    pub theta: f32,
    /// Macro-averaged precision over the benchmark sets.
    pub precision: f64,
    /// Macro-averaged recall.
    pub recall: f64,
    /// Macro-averaged F1.
    pub f1: f64,
}

impl ThresholdPoint {
    /// Writes the point as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.number("theta", f64::from(self.theta));
        w.number("precision", self.precision);
        w.number("recall", self.recall);
        w.number("f1", self.f1);
        w.close('}');
    }
}

/// Sweeps the matching threshold θ with the default (Mistral) model.
/// The paper states θ = 0.7 gives the best results.
pub fn threshold_sweep(config: AutoJoinConfig, thetas: &[f32]) -> Vec<ThresholdPoint> {
    let sets = generate_autojoin_benchmark(config);
    thetas
        .iter()
        .map(|&theta| {
            let scores: Vec<PrecisionRecall> =
                sets.iter().map(|set| evaluate_set(set, EmbeddingModel::Mistral, theta)).collect();
            let avg = PrecisionRecall::macro_average(&scores).expect("non-empty benchmark");
            ThresholdPoint { theta, precision: avg.precision, recall: avg.recall, f1: avg.f1 }
        })
        .collect()
}

/// One row of the assignment-solver ablation.
#[derive(Debug, Clone)]
pub struct AssignmentAblationRow {
    /// Solver label.
    pub solver: String,
    /// Macro-averaged F1 of value matching with this solver.
    pub f1: f64,
    /// Total wall-clock seconds spent matching across the benchmark.
    pub seconds: f64,
}

impl AssignmentAblationRow {
    /// Writes the row as one JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.text("solver", &self.solver);
        w.number("f1", self.f1);
        w.number("seconds", self.seconds);
        w.close('}');
    }
}

/// Compares the exact assignment solver against the greedy baseline (every
/// block demoted: `ExactUpTo { max_side: 0 }`) on the value-matching
/// benchmark.
pub fn assignment_ablation(config: AutoJoinConfig) -> Vec<AssignmentAblationRow> {
    let sets = generate_autojoin_benchmark(config);
    let solvers = [
        ("ShortestAugmentingPath", AssignmentStrategy::AlwaysExact),
        ("Greedy", AssignmentStrategy::ExactUpTo { max_side: 0 }),
    ];
    solvers
        .iter()
        .map(|(label, strategy)| {
            let embedder = EmbeddingModel::Mistral.build();
            let start = Instant::now();
            let scores: Vec<PrecisionRecall> = sets
                .iter()
                .map(|set| {
                    let columns: Vec<Vec<lake_table::Value>> = set
                        .columns
                        .iter()
                        .map(|col| col.iter().map(|s| lake_table::Value::text(s.clone())).collect())
                        .collect();
                    let cfg = FuzzyFdConfig {
                        assignment_strategy: *strategy,
                        ..FuzzyFdConfig::default()
                    };
                    let groups =
                        fuzzy_fd_core::match_column_values(&columns, embedder.as_ref(), cfg);
                    crate::table1::predicted_pairs(&groups).confusion_against(&set.gold).scores()
                })
                .collect();
            let seconds = start.elapsed().as_secs_f64();
            let avg = PrecisionRecall::macro_average(&scores).expect("non-empty benchmark");
            AssignmentAblationRow { solver: label.to_string(), f1: avg.f1, seconds }
        })
        .collect()
}

/// One row of the FD-algorithm ablation (partitioning / parallelism).
#[derive(Debug, Clone)]
pub struct FdAblationRow {
    /// Configuration label.
    pub configuration: String,
    /// Wall-clock seconds for one FD run.
    pub seconds: f64,
    /// Number of output tuples (identical across configurations).
    pub output_tuples: usize,
}

impl FdAblationRow {
    /// Writes the row as one JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.text("configuration", &self.configuration);
        w.number("seconds", self.seconds);
        w.field("output_tuples", self.output_tuples as u64);
        w.close('}');
    }
}

/// Both design ablations as `{"assignment": [...], "fd": [...]}`.
pub fn ablations_json(assignment: &[AssignmentAblationRow], fd: &[FdAblationRow]) -> String {
    let mut w = JsonWriter::object(512);
    w.key("assignment");
    w.open('[');
    for row in assignment {
        row.write_json(&mut w);
    }
    w.close(']');
    w.key("fd");
    w.open('[');
    for row in fd {
        row.write_json(&mut w);
    }
    w.close(']');
    w.finish()
}

/// The "no partitioning" side of the design ablation: the closure run over
/// the whole outer union as if it were one join-connected component.
fn unpartitioned_full_disjunction(schema: &IntegrationSchema, tables: &[Table]) -> IntegratedTable {
    let closure = component_closure(outer_union(schema, tables));
    IntegratedTable::new(schema.column_names().to_vec(), closure).sorted()
}

/// Compares FD with and without component partitioning, and the parallel
/// variant, on an IMDB-style workload.
pub fn fd_ablation(total_tuples: usize, seed: u64, threads: usize) -> Vec<FdAblationRow> {
    let tables = generate_imdb_benchmark(ImdbConfig { total_tuples, seed });
    let schema = IntegrationSchema::from_matching_headers(&tables);

    let mut rows = Vec::new();

    let start = Instant::now();
    let with_partition = full_disjunction(&schema, &tables);
    rows.push(FdAblationRow {
        configuration: "partitioned (default)".to_string(),
        seconds: start.elapsed().as_secs_f64(),
        output_tuples: with_partition.len(),
    });

    let start = Instant::now();
    let without_partition = unpartitioned_full_disjunction(&schema, &tables);
    rows.push(FdAblationRow {
        configuration: "no partitioning".to_string(),
        seconds: start.elapsed().as_secs_f64(),
        output_tuples: without_partition.len(),
    });

    let start = Instant::now();
    let parallel = parallel_full_disjunction(&schema, &tables, threads);
    rows.push(FdAblationRow {
        configuration: format!("parallel ({threads} threads)"),
        seconds: start.elapsed().as_secs_f64(),
        output_tuples: parallel.len(),
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AutoJoinConfig {
        AutoJoinConfig { num_sets: 3, values_per_column: 25, ..AutoJoinConfig::default() }
    }

    #[test]
    fn threshold_sweep_covers_requested_points() {
        let points = threshold_sweep(tiny(), &[0.3, 0.7, 0.9]);
        assert_eq!(points.len(), 3);
        // A permissive threshold never has lower recall than a strict one.
        assert!(points[2].recall >= points[0].recall);
        // All scores are probabilities.
        for p in &points {
            assert!(p.f1 >= 0.0 && p.f1 <= 1.0);
        }
    }

    #[test]
    fn assignment_ablation_reports_all_solvers() {
        let rows = assignment_ablation(tiny());
        assert_eq!(rows.len(), 2);
        let exact = rows.iter().find(|r| r.solver == "ShortestAugmentingPath").unwrap();
        let greedy = rows.iter().find(|r| r.solver == "Greedy").unwrap();
        // Greedy never beats the exact solver on match quality by more than
        // numerical noise.
        assert!(greedy.f1 <= exact.f1 + 0.02);
    }

    #[test]
    fn fd_ablation_configurations_agree_on_output() {
        let rows = fd_ablation(400, 5, 2);
        assert_eq!(rows.len(), 3);
        let outputs: std::collections::HashSet<usize> =
            rows.iter().map(|r| r.output_tuples).collect();
        assert_eq!(outputs.len(), 1, "all configurations must produce the same FD: {rows:#?}");
    }
}
