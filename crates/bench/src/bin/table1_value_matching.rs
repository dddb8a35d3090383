//! Regenerates **Table 1**: value-matching effectiveness (precision, recall,
//! F1) of FastText, BERT, RoBERTa, Llama3 and Mistral on the Auto-Join-style
//! benchmark (31 integration sets, 17 topics, θ = 0.7).
//!
//! Run with `cargo run -p lake-bench --release --bin table1_value_matching`.

use lake_bench::{json_array, table1, write_results_json};
use lake_benchdata::AutoJoinConfig;
use lake_metrics::{format_table, ReportRow};

fn main() {
    let config = AutoJoinConfig::default();
    let theta = 0.7;
    eprintln!(
        "Running Table 1: {} integration sets, ~{} values/column, theta = {theta}",
        config.num_sets, config.values_per_column
    );

    let rows = table1::run(config, theta);

    let report: Vec<ReportRow> = rows
        .iter()
        .map(|r| {
            ReportRow::new(
                r.model.clone(),
                vec![
                    format!("{:.2}", r.precision),
                    format!("{:.2}", r.recall),
                    format!("{:.2}", r.f1),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Table 1: Value Matching effectiveness in the Auto-Join-style benchmark",
            &["Model", "Precision", "Recall", "F1-Score"],
            &report
        )
    );
    println!(
        "(paper reports: FastText 0.70/0.67/0.66, BERT 0.72/0.76/0.73, RoBERTa 0.73/0.77/0.74,"
    );
    println!(" Llama3 0.81/0.85/0.81, Mistral 0.81/0.86/0.82)");

    match write_results_json(
        "table1_value_matching",
        &json_array(&rows, table1::ModelScores::write_json),
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write results file: {err}"),
    }
}
