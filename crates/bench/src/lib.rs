//! # lake-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (the table below is the experiment index; `docs/PERF.md` says
//! where paper-vs-measured numbers live):
//!
//! | Target            | Module / binary                         |
//! |-------------------|------------------------------------------|
//! | Table 1           | [`table1`] / `table1_value_matching`     |
//! | Figure 3          | [`fig3`] / `fig3_runtime`                |
//! | §3.2 downstream EM| [`downstream`] / `downstream_em`         |
//! | θ sensitivity     | [`ablation`] / `threshold_ablation`      |
//! | design ablations  | [`ablation`] / `ablations`               |
//!
//! The harness binaries print a plain-text table in the style of the paper
//! and write a JSON file with the raw numbers next to it (under `results/`).
//! Timing that gates a change is `lakebench`'s (`BENCHMARK.json`), not
//! these binaries'.

pub mod ablation;
pub mod downstream;
pub mod fig3;
pub mod table1;

use std::path::{Path, PathBuf};

/// Writes a serialisable result to `results/<name>.json` under the current
/// directory (creating `results/` if needed) and returns the path.
pub fn write_results_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    write_results_json_in(Path::new("results"), name, value)
}

/// Writes a serialisable result to `<dir>/<name>.json` (creating `dir` if
/// needed) and returns the path.
fn write_results_json_in<T: serde::Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_written_as_json() {
        let dir = std::env::temp_dir().join("lake_bench_results_test");
        let path = write_results_json_in(&dir, "unit_test", &vec![1, 2, 3]).unwrap();
        assert_eq!(path, dir.join("unit_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('1'));
    }
}
