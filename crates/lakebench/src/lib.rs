//! # lakebench
//!
//! The benchmark recorded in the repository's `BENCHMARK.json`: five
//! seeded workloads, eight end-to-end metrics and an outside-in per-layer
//! trace of the Fuzzy Full Disjunction workspace.  See the crate's
//! `README.md` for what every metric means and why each workload exists.
//!
//! One run (`lakebench --workload W --seed N --seconds S --trace 0|1`)
//! generates its inputs from the seed, measures for `S` seconds, checks
//! the outputs and prints one JSON result line.  `lakebench run`, `trace`
//! and `repeat N` drive one child process per workload and print every
//! metric by name.

pub mod inputs;
pub mod layers;
pub mod library;
pub mod outcome;
pub mod runner;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;

use std::time::Instant;

use outcome::{Outcome, RunConfig};
use spec::Workload;

/// Set-ups a run performs at least (the fastest is `setup_s`).
const MIN_SETUPS: usize = 3;
/// Share of `--seconds` after which no further set-up is started.
const SETUP_SHARE: f64 = 0.05;

/// Runs one workload as `config` describes and reports its outcome.
///
/// # Errors
/// Returns a description when set-up itself fails (nothing was measured).
pub fn run_workload(config: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.scratch).map_err(|e| e.to_string())?;
    match config.workload {
        Workload::ServeMixed => {
            let (prepared, setup_s) = repeated_setup(config, || serve::prepare(config))?;
            Ok(if config.trace {
                layers::run_served(config, &prepared)
            } else {
                serve::run(config, &prepared, setup_s)
            })
        }
        workload => {
            let generate = || Ok(inputs::generate(workload, config.seed, config.scale));
            let (inputs, setup_s) = repeated_setup(config, generate)?;
            Ok(if config.trace {
                layers::run_library(config, &inputs)
            } else {
                library::run(config, &inputs, setup_s)
            })
        }
    }
}

/// Sets up several times, keeping the last result, and returns the fastest
/// set-up's time in seconds.
fn repeated_setup<T>(
    config: &RunConfig,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let start = Instant::now();
        let prepared = setup()?;
        times.push(start.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if times.len() >= MIN_SETUPS && spent >= SETUP_SHARE * config.seconds {
            return Ok((prepared, stats::fastest(&times)));
        }
    }
}
