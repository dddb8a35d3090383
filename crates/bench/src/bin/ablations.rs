//! Design-choice ablations (last row of the `lake-bench` index):
//! assignment solver choice, FD component partitioning and parallel FD.
//!
//! Run with `cargo run -p lake-bench --release --bin ablations`.

use lake_bench::{ablation, write_results_json};
use lake_benchdata::AutoJoinConfig;
use lake_metrics::{format_table, ReportRow};

fn main() {
    let autojoin =
        AutoJoinConfig { num_sets: 17, values_per_column: 120, ..AutoJoinConfig::default() };
    eprintln!("Assignment-solver ablation on {} integration sets…", autojoin.num_sets);
    let assignment = ablation::assignment_ablation(autojoin);
    let rows: Vec<ReportRow> = assignment
        .iter()
        .map(|r| {
            ReportRow::new(
                r.solver.clone(),
                vec![format!("{:.3}", r.f1), format!("{:.2}s", r.seconds)],
            )
        })
        .collect();
    println!(
        "{}",
        format_table("Ablation A: bipartite assignment solver", &["Solver", "F1", "time"], &rows)
    );

    let fd_size = 8_000;
    eprintln!("FD ablation on an IMDB-style workload of ~{fd_size} tuples…");
    let fd = ablation::fd_ablation(fd_size, 0xAB1A, 4);
    let rows: Vec<ReportRow> = fd
        .iter()
        .map(|r| {
            ReportRow::new(
                r.configuration.clone(),
                vec![format!("{:.3}s", r.seconds), format!("{}", r.output_tuples)],
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Ablation B: Full Disjunction execution strategy",
            &["Configuration", "time", "output tuples"],
            &rows
        )
    );

    match write_results_json("ablations", &ablation::ablations_json(&assignment, &fd)) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write results file: {err}"),
    }
}
