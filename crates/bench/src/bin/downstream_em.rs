//! Regenerates the **§3.2 downstream-task experiment**: entity matching over
//! the tables integrated by regular FD and by Fuzzy FD.
//!
//! Run with `cargo run -p lake-bench --release --bin downstream_em`.

use lake_bench::{downstream, write_results_json};
use lake_benchdata::EmBenchmarkConfig;
use lake_em::EmOptions;
use lake_metrics::{format_table, ReportRow};

fn main() {
    let config = EmBenchmarkConfig::default();
    eprintln!(
        "Running downstream EM experiment: {} entities, {:.0}% confusable twins",
        config.num_entities,
        config.confusable_fraction * 100.0
    );
    let result = downstream::run(config, EmOptions::default());

    let rows = vec![
        ReportRow::new(
            result.regular.method.clone(),
            vec![
                format!("{:.0}%", result.regular.precision * 100.0),
                format!("{:.0}%", result.regular.recall * 100.0),
                format!("{:.0}%", result.regular.f1 * 100.0),
                format!("{}", result.regular.integrated_tuples),
            ],
        ),
        ReportRow::new(
            result.fuzzy.method.clone(),
            vec![
                format!("{:.0}%", result.fuzzy.precision * 100.0),
                format!("{:.0}%", result.fuzzy.recall * 100.0),
                format!("{:.0}%", result.fuzzy.f1 * 100.0),
                format!("{}", result.fuzzy.integrated_tuples),
            ],
        ),
    ];
    println!(
        "{}",
        format_table(
            "Downstream entity matching over integrated tables (ALITE-EM-style benchmark)",
            &["Integration", "Precision", "Recall", "F1", "integrated tuples"],
            &rows
        )
    );
    println!("(paper reports: regular FD P=79% R=83% F1=81%; Fuzzy FD P=86% R=85% F1=85%)");

    match write_results_json("downstream_em", &result.to_json()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write results file: {err}"),
    }
}
