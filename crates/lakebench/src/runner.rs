//! `lakebench run`, `trace` and `repeat`: one child process per workload
//! (so peak memory is per workload), every metric printed by name.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::layers::UNIT_SPANS;
use crate::outcome::specs_for;
use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use crate::stats::median;

/// What every child run of one invocation shares.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Seed handed to every child.
    pub seed: u64,
    /// Seconds every child measures for.
    pub seconds: f64,
}

/// One child's parsed result line.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// The contract's `correct`.
    pub correct: bool,
    /// The contract's `attempted`.
    pub attempted: u64,
    /// The contract's `failed`.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the last line of a child's standard output.
pub fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let json = serde_json::from_str(line).map_err(|e| format!("unparseable result line: {e}"))?;
    let field = |name: &str| json.get(name).ok_or(format!("result line lacks `{name}`"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(|v| v.as_f64());
            value.map(|v| (name.clone(), v)).ok_or(format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("`correct` is not a boolean")?,
        attempted: field("attempted")?.as_u64().ok_or("`attempted` is not a whole number")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a whole number")?,
        metrics,
    })
}

/// Runs every workload once in its own child process.
fn run_set(fleet: &Fleet, trace: bool) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Workload::ALL
        .iter()
        .map(|workload| {
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &fleet.seed.to_string()])
                .args(["--seconds", &fleet.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            if !output.status.success() {
                return Err(format!("{} exited with {}", workload.name(), output.status));
            }
            parse_result_line(&String::from_utf8_lossy(&output.stdout))
                .map_err(|problem| format!("{}: {problem}", workload.name()))
        })
        .collect()
}

fn print_table(specs: &[MetricSpec], results: &[ChildResult]) {
    print!("{:<34}{:>9}", "metric", "unit");
    for workload in Workload::ALL {
        print!("{:>16}", workload.name());
    }
    println!();
    for spec in specs {
        print!("{:<34}{:>9}", spec.name, spec.unit);
        for result in results {
            match result.metrics.get(spec.name) {
                Some(value) => print!("{:>16}", format_value(*value)),
                None => print!("{:>16}", "missing"),
            }
        }
        println!();
    }
    for (label, pick) in [
        ("attempted", (|r: &ChildResult| r.attempted) as fn(&ChildResult) -> u64),
        ("failed", |r| r.failed),
    ] {
        print!("{label:<34}{:>9}", "count");
        for result in results {
            print!("{:>16}", pick(result));
        }
        println!();
    }
    print!("{:<34}{:>9}", "outputs correct", "");
    for result in results {
        print!("{:>16}", if result.correct { "yes" } else { "NO" });
    }
    println!();
}

fn format_value(value: f64) -> String {
    if value == 0.0 || (0.01..1e7).contains(&value.abs()) {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    }
}

fn all_correct(results: &[ChildResult], specs: &[MetricSpec]) -> bool {
    results.iter().all(|r| r.correct && specs.iter().all(|s| r.metrics.contains_key(s.name)))
}

/// `lakebench run`: every workload with tracing off, every end-to-end
/// metric by name.  Returns whether every output check passed.
pub fn run(fleet: &Fleet) -> Result<bool, String> {
    let results = run_set(fleet, false)?;
    print_table(&END_TO_END, &results);
    Ok(all_correct(&results, &END_TO_END))
}

/// How far the spans' sum may sit from the untraced call they re-compose.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// `lakebench trace`: every workload re-run with spans recorded, every
/// per-layer metric by name, the top three costs per workload and the
/// tracing overhead.  A workload whose spans sit more than 5 % from the
/// untraced call they re-compose is flagged (not failed: on a shared box
/// two medians of a handful of samples differ by that much now and then).
pub fn trace(fleet: &Fleet) -> Result<bool, String> {
    let results = run_set(fleet, true)?;
    print_table(&PER_LAYER, &results);
    println!();
    for (workload, result) in Workload::ALL.iter().zip(&results) {
        let get = |name: &str| result.metrics.get(name).copied().unwrap_or(0.0);
        let untraced = get("lakebench.untraced_ms");
        let mut costs: Vec<(&str, f64)> =
            UNIT_SPANS.iter().map(|(_, metric)| (*metric, get(metric))).collect();
        costs.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = costs
            .iter()
            .take(3)
            .map(|(name, ms)| format!("{name} {ms:.1} ms ({:.0}%)", 100.0 * ms / untraced))
            .collect();
        println!(
            "{}: batch integrate {untraced:.1} ms untraced, {:.1} ms traced (overhead {:+.1} ms), spans cover {:.1}%; top costs: {}",
            workload.name(),
            get("lakebench.traced_ms"),
            get("lakebench.trace_overhead_ms"),
            100.0 * get("lakebench.span_coverage"),
            top.join(", ")
        );
        println!(
            "{}: own unit {:.1} ms; session replay {:.1} ms (FD {:.0}% of appends), store restore {:.1} ms",
            workload.name(),
            get("lakebench.unit_ms"),
            get("core.session_replay_ms"),
            100.0 * get("core.session_fd_share"),
            get("store.restore_ms"),
        );
        if (get("lakebench.span_coverage") - 1.0).abs() > COVERAGE_TOLERANCE {
            println!("{}: spans are more than 5% from the untraced call", workload.name());
        }
    }
    Ok(all_correct(&results, &PER_LAYER))
}

/// Values that must repeat exactly between two runs on one seed.
const DETERMINISTIC: [&str; 10] = [
    "match_f1",
    "core.folds",
    "core.scored_pairs",
    "core.candidate_pairs",
    "fd.components",
    "fd.output_tuples",
    "store.fsyncs_per_append",
    "embed.values",
    "lakebench.output_digest",
    "lakebench.output_tuples",
];

/// `lakebench repeat N`: `sets` full sets (untraced and traced), then per
/// metric and workload the minimum, median and maximum and how far apart
/// the sets are against the metric's bound.  Returns whether every output
/// was correct, every bounded metric agreed within its bound and every
/// deterministic value repeated exactly.
pub fn repeat(fleet: &Fleet, sets: usize) -> Result<bool, String> {
    let mut runs: Vec<Vec<ChildResult>> = Vec::new();
    let mut traces: Vec<Vec<ChildResult>> = Vec::new();
    for set in 0..sets.max(2) {
        eprintln!("lakebench: set {} of {}", set + 1, sets.max(2));
        runs.push(run_set(fleet, false)?);
        traces.push(run_set(fleet, true)?);
    }
    let mut agreed = runs.iter().all(|set| all_correct(set, &END_TO_END))
        && traces.iter().all(|set| all_correct(set, &PER_LAYER));

    println!(
        "{:<18}{:<34}{:>12}{:>12}{:>12}{:>9}{:>8}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (specs, sets) in [(specs_for(false), &runs), (specs_for(true), &traces)] {
            for spec in specs {
                let values: Vec<f64> =
                    sets.iter().filter_map(|set| set[w].metrics.get(spec.name).copied()).collect();
                let verdict = judge(spec, &values);
                if specs.len() == END_TO_END.len() || verdict.is_some() {
                    let (min, max) = min_max(&values);
                    println!(
                        "{:<18}{:<34}{:>12}{:>12}{:>12}{:>8.1}%{:>7.0}%  {}",
                        workload.name(),
                        spec.name,
                        format_value(min),
                        format_value(median(&values)),
                        format_value(max),
                        100.0 * spread(&values),
                        100.0 * spec.bound,
                        verdict.unwrap_or("")
                    );
                }
                agreed &= verdict.is_none();
            }
        }
    }
    Ok(agreed)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)))
}

/// Distance between the extremes as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (min, max) = min_max(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (max - min) / mid.abs()
    }
}

/// Why the sets disagree on this metric, if they do.  The direction of the
/// metric does not matter: the sets ran the same code.
fn judge(spec: &MetricSpec, values: &[f64]) -> Option<&'static str> {
    let (min, max) = min_max(values);
    if DETERMINISTIC.contains(&spec.name) {
        return (min.to_bits() != max.to_bits()).then_some("NOT REPEATABLE (must be exact)");
    }
    let bounded = END_TO_END.iter().any(|m| m.name == spec.name);
    (bounded && spread(values) > spec.bound).then_some("DISAGREE (beyond the bound)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_reject_malformed_ones() {
        let line = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        let result = parse_result_line(line).unwrap();
        assert!(result.correct);
        assert_eq!((result.attempted, result.failed), (3, 0));
        assert_eq!(result.metrics["setup_s"], 0.25);
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("{\"correct\": true}").is_err());
        assert!(parse_result_line("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": null}}}").is_err());
    }

    #[test]
    fn judging_uses_the_bound_and_exactness() {
        let integrate = END_TO_END.iter().find(|m| m.name == "integrate_s").unwrap();
        assert_eq!(judge(integrate, &[1.0, 1.05]), None);
        assert!(judge(integrate, &[1.0, 1.5]).is_some());
        let f1 = END_TO_END.iter().find(|m| m.name == "match_f1").unwrap();
        assert_eq!(judge(f1, &[0.8, 0.8]), None);
        assert!(judge(f1, &[0.8, 0.8000001]).is_some());
        let unbounded = PER_LAYER.iter().find(|m| m.name == "fd.closure_ms").unwrap();
        assert_eq!(judge(unbounded, &[1.0, 9.0]), None);
    }
}
