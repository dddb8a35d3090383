//! The `lakebench` command (see the crate README).
//!
//! ```text
//! lakebench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! lakebench run    [--seed n] [--seconds s]     all workloads untraced, end-to-end metrics
//! lakebench trace  [--seed n] [--seconds s]     all workloads traced, per-layer metrics
//! lakebench repeat <sets> [--seed n] [--seconds s]   agreement between full sets
//! lakebench manifest                            print BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use lakebench::inputs::Scale;
use lakebench::outcome::{specs_for, RunConfig};
use lakebench::runner::{self, Fleet};
use lakebench::spec::{manifest_json, Workload, RUN_SECONDS};

const USAGE: &str = "usage: lakebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       lakebench run|trace [--seed <n>] [--seconds <s>]
       lakebench repeat <sets> [--seed <n>] [--seconds <s>]
       lakebench manifest";

/// The value after `name`, parsed; `default` when the flag is absent.
fn flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|value| value.parse().ok())
            .ok_or(format!("{name} needs a valid value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("lakebench: {problem}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let usage = |problem: String| format!("{problem}\n{USAGE}");
    let seed: u64 = flag(args, "--seed", 42).map_err(usage)?;
    let seconds: f64 = flag(args, "--seconds", RUN_SECONDS as f64).map_err(usage)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(usage("--seconds needs a positive number".into()));
    }
    let fleet = Fleet { seed, seconds };
    match args.first().map(String::as_str) {
        Some("run") => runner::run(&fleet),
        Some("trace") => runner::trace(&fleet),
        Some("repeat") => {
            let sets = args.get(1).and_then(|n| n.parse().ok());
            runner::repeat(&fleet, sets.ok_or_else(|| usage("repeat needs a set count".into()))?)
        }
        Some("manifest") => {
            print!("{}", manifest_json());
            Ok(true)
        }
        _ => {
            let name: String = flag(args, "--workload", String::new()).map_err(usage)?;
            let workload =
                Workload::parse(&name).ok_or_else(|| usage(format!("no workload `{name}`")))?;
            let trace: u8 = flag(args, "--trace", 0).map_err(usage)?;
            if trace > 1 {
                return Err(usage("--trace is 0 or 1".into()));
            }
            let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
            one_run(&RunConfig {
                workload,
                seed,
                seconds,
                trace: trace == 1,
                scale: Scale::Full,
                scratch: PathBuf::from(target).join("lakebench-tmp"),
            })
        }
    }
}

/// One run of one workload: the result line goes last on standard output.
/// A run that measured exits with 0 even when its outputs were wrong — the
/// result line says so.
fn one_run(config: &RunConfig) -> Result<bool, String> {
    let name = config.workload.name();
    let outcome =
        lakebench::run_workload(config).map_err(|problem| format!("{name}: {problem}"))?;
    for problem in &outcome.problems {
        eprintln!("lakebench: {name}: {problem}");
    }
    eprintln!("lakebench: {name} seed {} digest {:016x}", config.seed, outcome.digest);
    println!("{}", outcome.to_json_line(specs_for(config.trace)));
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_that_does_not_parse_is_an_error_not_a_default() {
        let args: Vec<String> = ["run", "--seed", "4x2", "--seconds"].map(String::from).to_vec();
        assert!(flag(&args, "--seed", 42u64).is_err());
        assert!(flag(&args, "--seconds", 22.0f64).is_err(), "a flag without a value");
        assert_eq!(flag(&args, "--trace", 0u8), Ok(0), "an absent flag takes its default");
        assert!(dispatch(&args).is_err());
        assert!(dispatch(&["--workload".into(), "imdb".into()]).is_err(), "unknown workload");
    }
}
