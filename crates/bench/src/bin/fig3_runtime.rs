//! Regenerates **Figure 3**: runtime of regular FD (ALITE) vs Fuzzy FD on the
//! IMDB-style benchmark for 5K–30K input tuples.
//!
//! Run with `cargo run -p lake-bench --release --bin fig3_runtime`.
//! Pass custom sizes as arguments, e.g. `-- 1000 2000 4000`; an argument
//! that is not a tuple count is a usage error (exit 2), never a silent
//! fall-back to the full paper sweep.

use lake_bench::{fig3, json_array, write_results_json};
use lake_metrics::{format_table, ReportRow};

/// The sweep sizes the arguments name: the paper's when there are none.
fn sizes_from(args: &[String]) -> Result<Vec<usize>, String> {
    if args.is_empty() {
        return Ok(fig3::PAPER_SIZES.to_vec());
    }
    args.iter()
        .map(|arg| arg.parse().map_err(|_| format!("`{arg}` is not a tuple count")))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = sizes_from(&args).unwrap_or_else(|problem| {
        eprintln!("fig3_runtime: {problem}\nusage: fig3_runtime [<input tuples>...]");
        std::process::exit(2);
    });

    eprintln!("Running Figure 3 sweep over sizes {sizes:?} (use --release for meaningful times)");
    let points = fig3::run(&sizes, 0x1_4DB);

    let rows: Vec<ReportRow> = points
        .iter()
        .map(|p| {
            ReportRow::new(
                format!("{}", p.requested_tuples),
                vec![
                    format!("{}", p.input_tuples),
                    format!("{:.3}", p.alite_seconds),
                    format!("{:.3}", p.fuzzy_seconds),
                    format!("{:.3}", p.matching_seconds),
                    format!("{:+.1}%", p.overhead() * 100.0),
                ],
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Figure 3: Runtime comparison of Regular FD (ALITE) with Fuzzy FD (IMDB-style benchmark)",
            &["S (requested)", "input tuples", "ALITE (s)", "Fuzzy FD (s)", "matching (s)", "overhead"],
            &rows
        )
    );
    println!("(paper: the two runtime curves almost overlap for all sizes 5K-30K)");

    match write_results_json("fig3_runtime", &json_array(&points, fig3::RuntimePoint::write_json)) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write results file: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_argument_that_does_not_parse_is_an_error_not_the_paper_sweep() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(sizes_from(&[]), Ok(fig3::PAPER_SIZES.to_vec()));
        assert_eq!(sizes_from(&args(&["1000", "2000"])), Ok(vec![1000, 2000]));
        assert!(sizes_from(&args(&["5k"])).is_err());
        assert!(sizes_from(&args(&["1000", "-3"])).is_err());
    }
}
