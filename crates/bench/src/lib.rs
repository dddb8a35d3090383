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
//! and write a compact JSON file with the raw numbers next to it (under
//! `results/`), through the workspace's one encoder, [`JsonWriter`].
//! Timing that gates a change is `lakebench`'s (`BENCHMARK.json`), not
//! these binaries'.

pub mod ablation;
pub mod downstream;
pub mod fig3;
pub mod table1;

use std::path::{Path, PathBuf};

use lake_table::JsonWriter;

/// Renders `rows` as one JSON array, each row written by `write`.
pub fn json_array<T>(rows: &[T], write: impl Fn(&T, &mut JsonWriter)) -> String {
    let mut w = JsonWriter::array(128 * rows.len());
    for row in rows {
        write(row, &mut w);
    }
    w.finish()
}

/// Writes a rendered JSON body to `results/<name>.json` under the current
/// directory (creating `results/` if needed) and returns the path.
pub fn write_results_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    write_results_json_in(Path::new("results"), name, body)
}

/// Writes a rendered JSON body to `<dir>/<name>.json` (creating `dir` if
/// needed) and returns the path.
fn write_results_json_in(dir: &Path, name: &str, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    use super::*;
    use crate::ablation::{AssignmentAblationRow, FdAblationRow, ThresholdPoint};
    use crate::downstream::{DownstreamResult, DownstreamScores};
    use crate::fig3::RuntimePoint;
    use crate::table1::ModelScores;

    /// Writes `body` as result file `name` in a fresh directory, reads it
    /// back and parses it.
    fn written(name: &str, body: &str) -> Value {
        let dir = std::env::temp_dir().join(format!("lake-bench-{name}-{}", std::process::id()));
        let path = write_results_json_in(&dir, name, body).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        serde_json::from_str(&text).unwrap_or_else(|err| panic!("{err}: {text}"))
    }

    #[test]
    fn results_are_written_as_json() {
        let dir = std::env::temp_dir().join(format!("lake-bench-results-{}", std::process::id()));
        let path = write_results_json_in(&dir, "unit_test", "[1,2,3]").unwrap();
        assert_eq!(path, dir.join("unit_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(text, "[1,2,3]");
        assert_eq!(serde_json::from_str(&text).unwrap().as_array().map(<[Value]>::len), Some(3));
    }

    #[test]
    fn table1_results_keep_every_key_and_value() {
        let rows = [ModelScores {
            model: "Mistral \"7B\"".into(),
            precision: 0.8,
            recall: 2.0 / 3.0,
            f1: 0.7272727272727273,
            sets: 31,
        }];
        let parsed = written("table1_value_matching", &json_array(&rows, ModelScores::write_json));
        let expected = r#"[{"model":"Mistral \"7B\"","precision":0.8,"recall":0.6666666666666666,"f1":0.7272727272727273,"sets":31}]"#;
        assert_eq!(parsed, serde_json::from_str(expected).unwrap());
        assert_eq!(parsed.as_array().unwrap()[0].get("sets").and_then(Value::as_u64), Some(31));
    }

    #[test]
    fn fig3_results_keep_every_key_and_value() {
        let points = [RuntimePoint {
            requested_tuples: 5000,
            input_tuples: 4987,
            alite_seconds: 1.25,
            fuzzy_seconds: 1.5,
            matching_seconds: 0.0,
            alite_output: 4000,
            fuzzy_output: 3990,
        }];
        let parsed = written("fig3_runtime", &json_array(&points, RuntimePoint::write_json));
        let expected = r#"[{"requested_tuples":5000,"input_tuples":4987,"alite_seconds":1.25,"fuzzy_seconds":1.5,"matching_seconds":0.0,"alite_output":4000,"fuzzy_output":3990}]"#;
        assert_eq!(parsed, serde_json::from_str(expected).unwrap());
    }

    #[test]
    fn downstream_results_keep_every_key_and_value() {
        let scores = |method: &str, f1: f64, integrated_tuples| DownstreamScores {
            method: method.into(),
            precision: 0.75,
            recall: 1.0,
            f1,
            integrated_tuples,
        };
        let result = DownstreamResult {
            regular: scores("Regular FD (ALITE)", 0.81, 420),
            fuzzy: scores("Fuzzy FD", f64::NAN, 400),
        };
        let parsed = written("downstream_em", &result.to_json());
        let expected = r#"{"regular":{"method":"Regular FD (ALITE)","precision":0.75,"recall":1.0,"f1":0.81,"integrated_tuples":420},"fuzzy":{"method":"Fuzzy FD","precision":0.75,"recall":1.0,"f1":null,"integrated_tuples":400}}"#;
        assert_eq!(parsed, serde_json::from_str(expected).unwrap());
    }

    #[test]
    fn threshold_results_keep_every_key_and_value() {
        let points = [
            ThresholdPoint { theta: 0.7, precision: 0.5, recall: 0.25, f1: 1.0 / 3.0 },
            ThresholdPoint { theta: 0.9, precision: f64::INFINITY, recall: 0.0, f1: 0.0 },
        ];
        let parsed =
            written("threshold_ablation", &json_array(&points, ThresholdPoint::write_json));
        // θ is an `f32`, written widened to `f64`.
        let expected = r#"[{"theta":0.699999988079071,"precision":0.5,"recall":0.25,"f1":0.3333333333333333},{"theta":0.8999999761581421,"precision":null,"recall":0.0,"f1":0.0}]"#;
        assert_eq!(parsed, serde_json::from_str(expected).unwrap());
    }

    #[test]
    fn ablation_results_keep_every_key_and_value() {
        let assignment = [
            AssignmentAblationRow {
                solver: "ShortestAugmentingPath".into(),
                f1: 0.78,
                seconds: 2.5,
            },
            AssignmentAblationRow { solver: "Greedy".into(), f1: 0.75, seconds: 1e-7 },
        ];
        let fd = [FdAblationRow {
            configuration: "parallel (4 threads)".into(),
            seconds: 0.125,
            output_tuples: 7000,
        }];
        let parsed = written("ablations", &ablation::ablations_json(&assignment, &fd));
        let expected = r#"{"assignment":[{"solver":"ShortestAugmentingPath","f1":0.78,"seconds":2.5},{"solver":"Greedy","f1":0.75,"seconds":1e-7}],"fd":[{"configuration":"parallel (4 threads)","seconds":0.125,"output_tuples":7000}]}"#;
        assert_eq!(parsed, serde_json::from_str(expected).unwrap());
        assert_eq!(
            serde_json::from_str(&ablation::ablations_json(&[], &[])).unwrap(),
            serde_json::from_str(r#"{"assignment":[],"fd":[]}"#).unwrap()
        );
    }
}
