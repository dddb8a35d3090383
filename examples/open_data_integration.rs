//! Open-data integration: align columns by their headers, match values
//! fuzzily, and evaluate the matches against gold labels.
//!
//! The scenario mirrors the paper's motivation: several open-data portals
//! publish tables about the same universities, and values use different
//! conventions (abbreviations, acronyms, typos).  The example generates such
//! an integration set with the Auto-Join-style generator, whose tables carry
//! the topic as their one header, runs the pipeline (header alignment →
//! fuzzy value matching → Full Disjunction) and reports value-matching
//! precision/recall against the generator's gold standard.
//!
//! Run with `cargo run --example open_data_integration`.

use datalake_fuzzy_fd::benchdata::{generate_autojoin_benchmark, AutoJoinConfig};
use datalake_fuzzy_fd::core::{match_column_values, FuzzyFdConfig, FuzzyFullDisjunction};
use datalake_fuzzy_fd::embed::{EmbeddingModel, ALL_MODELS};
use datalake_fuzzy_fd::metrics::PairSet;
use datalake_fuzzy_fd::table::{print, Value};

fn main() {
    // One integration set (~150 values per aligned column) from the
    // Auto-Join-style benchmark.
    let config = AutoJoinConfig { num_sets: 3, values_per_column: 60, ..AutoJoinConfig::default() };
    let set = generate_autojoin_benchmark(config).remove(2);
    println!(
        "Integration set `{}` ({} aligned columns, {} values total)",
        set.id,
        set.columns.len(),
        set.total_values()
    );

    // 1. Evaluate value matching for every embedding model (a mini Table 1).
    println!("\n== Value matching quality by embedding model ==");
    for model in ALL_MODELS {
        let embedder = model.build();
        let columns: Vec<Vec<Value>> = set
            .columns
            .iter()
            .map(|col| col.iter().map(|s| Value::text(s.clone())).collect())
            .collect();
        let groups = match_column_values(
            &columns,
            embedder.as_ref(),
            FuzzyFdConfig { model, ..FuzzyFdConfig::default() },
        );
        let mut predicted = PairSet::new();
        for group in &groups {
            for ((ca, va), (cb, vb)) in group.cross_column_pairs() {
                predicted.insert((ca, va.render().to_string()), (cb, vb.render().to_string()));
            }
        }
        let scores = predicted.confusion_against(&set.gold).scores();
        println!(
            "  {:<9} precision {:.2}  recall {:.2}  F1 {:.2}",
            model.name(),
            scores.precision,
            scores.recall,
            scores.f1
        );
    }

    // 2. Run the integration pipeline over the header alignment.
    let tables = set.tables();
    let fuzzy = FuzzyFullDisjunction::new(FuzzyFdConfig::with_model(EmbeddingModel::Mistral));
    let outcome = fuzzy.integrate_by_headers(&tables).expect("integration");
    println!(
        "\n== Integrated table (header alignment, fuzzy FD): {} tuples from {} input rows ==",
        outcome.table.len(),
        tables.iter().map(|t| t.num_rows()).sum::<usize>()
    );
    let rendered = outcome.table.to_table("integrated", true).expect("render");
    println!("{}", print::render_with_limit(&rendered, 36, 12));
    println!(
        "value groups: {} total, {} with an actual fuzzy match, {} cells rewritten",
        outcome.report.value_groups, outcome.report.matched_groups, outcome.report.rewritten_cells
    );
}
