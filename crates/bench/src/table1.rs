//! Table 1 — value-matching effectiveness of the five embedding models on the
//! Auto-Join-style benchmark.

use fuzzy_fd_core::{match_column_values, FuzzyFdConfig, ValueGroup};
use lake_benchdata::{generate_autojoin_benchmark, AutoJoinConfig, ValueMatchingSet};
use lake_embed::{EmbeddingModel, ALL_MODELS};
use lake_metrics::{PairSet, PrecisionRecall};
use lake_table::{JsonWriter, Value};

/// Scores of one embedding model, averaged over all integration sets.
#[derive(Debug, Clone)]
pub struct ModelScores {
    /// Model name (Table 1 row label).
    pub model: String,
    /// Macro-averaged precision.
    pub precision: f64,
    /// Macro-averaged recall.
    pub recall: f64,
    /// Macro-averaged F1.
    pub f1: f64,
    /// Number of integration sets evaluated.
    pub sets: usize,
}

impl ModelScores {
    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.text("model", &self.model);
        w.number("precision", self.precision);
        w.number("recall", self.recall);
        w.number("f1", self.f1);
        w.field("sets", self.sets as u64);
        w.close('}');
    }
}

/// Evaluates one model on one integration set.
pub fn evaluate_set(set: &ValueMatchingSet, model: EmbeddingModel, theta: f32) -> PrecisionRecall {
    let embedder = model.build();
    let columns: Vec<Vec<Value>> = set
        .columns
        .iter()
        .map(|col| col.iter().map(|s| Value::text(s.clone())).collect())
        .collect();
    let config = FuzzyFdConfig { theta, model, ..FuzzyFdConfig::default() };
    let groups = match_column_values(&columns, embedder.as_ref(), config);
    let predicted = predicted_pairs(&groups);
    predicted.confusion_against(&set.gold).scores()
}

/// Converts value groups to cross-column `(column, value)` pairs.
pub fn predicted_pairs(groups: &[ValueGroup]) -> PairSet<(usize, String)> {
    let mut pairs = PairSet::new();
    for group in groups {
        for ((ca, va), (cb, vb)) in group.cross_column_pairs() {
            pairs.insert((ca, va.render().to_string()), (cb, vb.render().to_string()));
        }
    }
    pairs
}

/// Runs the full Table 1 experiment.
pub fn run(config: AutoJoinConfig, theta: f32) -> Vec<ModelScores> {
    let sets = generate_autojoin_benchmark(config);
    ALL_MODELS
        .iter()
        .map(|&model| {
            let scores: Vec<PrecisionRecall> =
                sets.iter().map(|set| evaluate_set(set, model, theta)).collect();
            let avg = PrecisionRecall::macro_average(&scores)
                .expect("benchmark contains at least one set");
            ModelScores {
                model: model.name().to_string(),
                precision: avg.precision,
                recall: avg.recall,
                f1: avg.f1,
                sets: sets.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AutoJoinConfig {
        AutoJoinConfig { num_sets: 4, values_per_column: 30, ..AutoJoinConfig::default() }
    }

    #[test]
    fn scores_are_sane_and_ordered() {
        let rows = run(tiny(), 0.7);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.precision >= 0.0 && row.precision <= 1.0);
            assert!(row.recall >= 0.0 && row.recall <= 1.0);
            assert!(row.f1 >= 0.0 && row.f1 <= 1.0);
            assert_eq!(row.sets, 4);
        }
        let f1 = |name: &str| rows.iter().find(|r| r.model == name).unwrap().f1;
        // The headline qualitative claim of Table 1: the LLM-tier embedders
        // beat the surface embedder.
        assert!(f1("Mistral") > f1("FastText"), "{rows:#?}");
        assert!(f1("Llama3") > f1("FastText"), "{rows:#?}");
    }

    #[test]
    fn per_set_evaluation_scores_a_known_easy_set() {
        let sets = generate_autojoin_benchmark(tiny());
        let scores = evaluate_set(&sets[0], EmbeddingModel::Mistral, 0.7);
        assert!(scores.f1 > 0.3, "unexpectedly poor: {scores:?}");
    }

    #[test]
    fn predicted_pairs_are_cross_column_only() {
        let groups = vec![ValueGroup {
            members: vec![(0, Value::text("a")), (0, Value::text("b")), (1, Value::text("c"))],
            representative: Value::text("a"),
        }];
        let pairs = predicted_pairs(&groups);
        assert_eq!(pairs.len(), 2); // (0,a)-(1,c) and (0,b)-(1,c) but not (0,a)-(0,b)
    }
}
