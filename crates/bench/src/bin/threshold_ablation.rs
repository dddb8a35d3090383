//! θ sensitivity study: the paper (§3.1) states that a matching threshold of
//! θ = 0.7 gives the best results; this harness sweeps θ and reports
//! precision / recall / F1 at each point.
//!
//! Run with `cargo run -p lake-bench --release --bin threshold_ablation`.

use lake_bench::{ablation, json_array, write_results_json};
use lake_benchdata::AutoJoinConfig;
use lake_metrics::{format_table, ReportRow};

fn main() {
    let config = AutoJoinConfig::default();
    let thetas = [0.3f32, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    eprintln!("Sweeping theta over {thetas:?} with the Mistral-tier embedder");
    let points = ablation::threshold_sweep(config, &thetas);

    let rows: Vec<ReportRow> = points
        .iter()
        .map(|p| {
            ReportRow::new(
                format!("{:.1}", p.theta),
                vec![
                    format!("{:.2}", p.precision),
                    format!("{:.2}", p.recall),
                    format!("{:.2}", p.f1),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Matching threshold sensitivity (Mistral embedder, Auto-Join-style benchmark)",
            &["theta", "Precision", "Recall", "F1-Score"],
            &rows
        )
    );
    let best = points.iter().max_by(|a, b| a.f1.total_cmp(&b.f1)).expect("non-empty sweep");
    println!("best F1 at theta = {:.1} (paper uses theta = 0.7)", best.theta);

    match write_results_json(
        "threshold_ablation",
        &json_array(&points, ablation::ThresholdPoint::write_json),
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write results file: {err}"),
    }
}
