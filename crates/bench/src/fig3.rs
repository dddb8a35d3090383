//! Figure 3 — runtime of regular FD (ALITE) vs Fuzzy FD on the IMDB-style
//! benchmark as the number of input tuples grows.

use std::time::Instant;

use fuzzy_fd_core::{regular_full_disjunction, FuzzyFdConfig, FuzzyFullDisjunction};
use lake_benchdata::{generate_imdb_benchmark, ImdbConfig};
use lake_schema_match::align_by_headers;
use serde::Serialize;

/// One point of the Figure 3 curves.
#[derive(Debug, Clone, Serialize)]
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
