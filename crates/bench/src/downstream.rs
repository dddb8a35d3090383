//! §3.2 downstream-task experiment — entity matching over the integrated
//! tables produced by regular FD and by Fuzzy FD.

use fuzzy_fd_core::{regular_full_disjunction, FuzzyFdConfig, FuzzyFullDisjunction};
use lake_benchdata::{generate_em_benchmark, EmBenchmark, EmBenchmarkConfig};
use lake_em::{match_entities, EmOptions};
use lake_metrics::PrecisionRecall;
use lake_schema_match::align_by_headers;
use lake_table::JsonWriter;

/// Entity-matching effectiveness over one integration method.
#[derive(Debug, Clone)]
pub struct DownstreamScores {
    /// Integration method label ("Regular FD (ALITE)" or "Fuzzy FD").
    pub method: String,
    /// Pairwise precision.
    pub precision: f64,
    /// Pairwise recall.
    pub recall: f64,
    /// Pairwise F1.
    pub f1: f64,
    /// Number of integrated tuples the entity matcher saw.
    pub integrated_tuples: usize,
}

/// Result of the downstream experiment: one row per integration method.
#[derive(Debug, Clone)]
pub struct DownstreamResult {
    /// Regular (equi-join) FD row.
    pub regular: DownstreamScores,
    /// Fuzzy FD row.
    pub fuzzy: DownstreamScores,
}

impl DownstreamScores {
    /// Writes the row as one JSON object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.text("method", &self.method);
        w.number("precision", self.precision);
        w.number("recall", self.recall);
        w.number("f1", self.f1);
        w.field("integrated_tuples", self.integrated_tuples as u64);
        w.close('}');
    }
}

impl DownstreamResult {
    /// The result as `{"regular": {...}, "fuzzy": {...}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object(256);
        w.key("regular");
        self.regular.write_json(&mut w);
        w.key("fuzzy");
        self.fuzzy.write_json(&mut w);
        w.finish()
    }
}

/// Runs the experiment on a generated ALITE-EM-style benchmark.
pub fn run(config: EmBenchmarkConfig, em_options: EmOptions) -> DownstreamResult {
    let benchmark = generate_em_benchmark(config);
    run_on(&benchmark, em_options)
}

/// Runs the experiment on an existing benchmark instance.
pub fn run_on(benchmark: &EmBenchmark, em_options: EmOptions) -> DownstreamResult {
    let alignment = align_by_headers(&benchmark.tables);

    let regular_table = regular_full_disjunction(&benchmark.tables, &alignment);
    let regular_scores = score(&regular_table, benchmark, em_options);

    let fuzzy_outcome = FuzzyFullDisjunction::new(FuzzyFdConfig::default())
        .integrate(&benchmark.tables, &alignment)
        .expect("fuzzy FD");
    let fuzzy_scores = score(&fuzzy_outcome.table, benchmark, em_options);

    DownstreamResult {
        regular: DownstreamScores {
            method: "Regular FD (ALITE)".to_string(),
            precision: regular_scores.precision,
            recall: regular_scores.recall,
            f1: regular_scores.f1,
            integrated_tuples: regular_table.len(),
        },
        fuzzy: DownstreamScores {
            method: "Fuzzy FD".to_string(),
            precision: fuzzy_scores.precision,
            recall: fuzzy_scores.recall,
            f1: fuzzy_scores.f1,
            integrated_tuples: fuzzy_outcome.table.len(),
        },
    }
}

fn score(
    table: &lake_fd::IntegratedTable,
    benchmark: &EmBenchmark,
    em_options: EmOptions,
) -> PrecisionRecall {
    let result = match_entities(table, em_options);
    result.evaluate(table, &benchmark.gold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzy_fd_improves_downstream_entity_matching() {
        let config = EmBenchmarkConfig { num_entities: 90, ..EmBenchmarkConfig::default() };
        let result = run(config, EmOptions::default());
        // Sanity: scores are probabilities and the integrated tables shrank
        // relative to the raw tuple count.
        for row in [&result.regular, &result.fuzzy] {
            assert!(row.precision > 0.0 && row.precision <= 1.0);
            assert!(row.recall > 0.0 && row.recall <= 1.0);
            assert!(row.integrated_tuples > 0);
        }
        // The paper's qualitative claim: Fuzzy FD integration yields better
        // downstream entity matching (F1 85 vs 81 in the paper).
        assert!(
            result.fuzzy.f1 > result.regular.f1,
            "fuzzy {:?} should beat regular {:?}",
            result.fuzzy,
            result.regular
        );
        // Fuzzy FD integrates more aggressively: fewer, fuller tuples.
        assert!(result.fuzzy.integrated_tuples <= result.regular.integrated_tuples);
    }
}
