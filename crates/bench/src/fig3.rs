//! Figure 3 — runtime of regular FD (ALITE) vs Fuzzy FD on the IMDB-style
//! benchmark as the number of input tuples grows.

use std::time::Instant;

use fuzzy_fd_core::{regular_full_disjunction, FuzzyFdConfig, FuzzyFullDisjunction};
use lake_benchdata::{generate_imdb_benchmark, ImdbConfig};
use lake_schema_match::align_by_headers;
use lake_table::JsonWriter;

/// One point of the Figure 3 curves.
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    /// Requested number of input tuples (the X axis of Figure 3).
    pub requested_tuples: usize,
    /// Actual number of generated input tuples.
    pub input_tuples: usize,
    /// Regular (ALITE-style) FD runtime in seconds.
    pub alite_seconds: f64,
    /// Fuzzy FD runtime in seconds (value matching + rewriting + FD).
    pub fuzzy_seconds: f64,
    /// Seconds spent in the value-matching step of Fuzzy FD.
    pub matching_seconds: f64,
    /// Output tuples of regular FD.
    pub alite_output: usize,
    /// Output tuples of Fuzzy FD.
    pub fuzzy_output: usize,
}

impl RuntimePoint {
    /// Relative overhead of Fuzzy FD over regular FD
    /// (`fuzzy / alite - 1`, e.g. `0.05` = 5 % slower).
    pub fn overhead(&self) -> f64 {
        if self.alite_seconds == 0.0 {
            return 0.0;
        }
        self.fuzzy_seconds / self.alite_seconds - 1.0
    }

    /// Writes the point as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open('{');
        w.field("requested_tuples", self.requested_tuples as u64);
        w.field("input_tuples", self.input_tuples as u64);
        w.number("alite_seconds", self.alite_seconds);
        w.number("fuzzy_seconds", self.fuzzy_seconds);
        w.number("matching_seconds", self.matching_seconds);
        w.field("alite_output", self.alite_output as u64);
        w.field("fuzzy_output", self.fuzzy_output as u64);
        w.close('}');
    }
}

/// Runs the runtime sweep for the given input sizes.
pub fn run(sizes: &[usize], seed: u64) -> Vec<RuntimePoint> {
    sizes
        .iter()
        .map(|&requested| {
            let tables = generate_imdb_benchmark(ImdbConfig { total_tuples: requested, seed });
            let input_tuples: usize = tables.iter().map(|t| t.num_rows()).sum();
            let alignment = align_by_headers(&tables);

            let start = Instant::now();
            let alite = regular_full_disjunction(&tables, &alignment);
            let alite_seconds = start.elapsed().as_secs_f64();

            let fuzzy_fd = FuzzyFullDisjunction::new(FuzzyFdConfig::default());
            let start = Instant::now();
            let outcome = fuzzy_fd.integrate(&tables, &alignment).expect("fuzzy FD");
            let fuzzy_seconds = start.elapsed().as_secs_f64();

            RuntimePoint {
                requested_tuples: requested,
                input_tuples,
                alite_seconds,
                fuzzy_seconds,
                matching_seconds: outcome.report.matching_time.as_secs_f64(),
                alite_output: alite.len(),
                fuzzy_output: outcome.table.len(),
            }
        })
        .collect()
}

/// The input sizes of the paper's Figure 3 (5K … 30K).
pub const PAPER_SIZES: [usize; 6] = [5_000, 10_000, 15_000, 20_000, 25_000, 30_000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_points() {
        let points = run(&[400, 800], 3);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.alite_seconds > 0.0);
            assert!(p.fuzzy_seconds > 0.0);
            assert!(p.input_tuples > 0);
            assert!(p.alite_output > 0);
            // Fuzzy FD may merge residual identifier-like values that equi
            // FD keeps apart, which can either shrink or branch the output;
            // it must still produce a result.
            assert!(p.fuzzy_output > 0);
        }
        // Bigger inputs do not get cheaper.
        assert!(points[1].input_tuples > points[0].input_tuples);
    }

    #[test]
    fn overhead_is_a_ratio() {
        let p = RuntimePoint {
            requested_tuples: 100,
            input_tuples: 100,
            alite_seconds: 2.0,
            fuzzy_seconds: 2.2,
            matching_seconds: 0.2,
            alite_output: 10,
            fuzzy_output: 10,
        };
        assert!((p.overhead() - 0.1).abs() < 1e-9);
    }
}
