//! Smoke test of every workload at miniature sizes, in both modes: the
//! metric names of `BENCHMARK.json` are each emitted once, output checks
//! run and pass, spans account for the unit they re-compose.

use std::collections::BTreeSet;
use std::path::PathBuf;

use lakebench::inputs::{self, Scale};
use lakebench::outcome::{specs_for, Outcome, RunConfig};
use lakebench::serve::replay_shards;
use lakebench::spec::{manifest_json, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let config = RunConfig {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lakebench-smoke"),
    };
    lakebench::run_workload(&config).expect("set-up succeeds")
}

#[test]
fn benchmark_json_is_the_manifest_the_crate_generates() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let recorded = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(recorded, manifest_json(), "regenerate with `cargo run -p lakebench -- manifest`");
}

/// Both modes of one workload: every metric of the mode's list is emitted
/// exactly once, the output checks ran and passed, the spans account for
/// the unit they re-compose.
fn check_both_modes(workload: Workload) {
    for trace in [false, true] {
        let outcome = tiny(workload, 42, trace);
        let context = format!("{} trace={trace}: {:?}", workload.name(), outcome.problems);
        assert!(outcome.correct, "{context}");
        assert_eq!(outcome.failed, 0, "{context}");
        assert!(outcome.attempted >= 1, "{context}");
        let expected: BTreeSet<&str> = specs_for(trace).iter().map(|m| m.name).collect();
        let emitted: Vec<&str> = outcome.metrics.iter().map(|(name, _)| *name).collect();
        assert_eq!(emitted.len(), expected.len(), "{context}: a metric is doubled or missing");
        assert_eq!(emitted.iter().copied().collect::<BTreeSet<_>>(), expected, "{context}");
        assert!(outcome.metrics.iter().all(|(_, value)| value.is_finite()), "{context}");
        if trace {
            // Loose on purpose: the tests of this file share two cores, and
            // a missing or doubled dominant span is off by far more.
            let coverage = outcome.metric("lakebench.span_coverage").unwrap();
            assert!((0.25..4.0).contains(&coverage), "{context}: spans cover {coverage}");
            assert!(outcome.metric("lakebench.spans").unwrap() > 10.0, "{context}");
        } else {
            // End-to-end metrics are never zero.
            assert!(outcome.metrics.iter().all(|(_, value)| *value > 0.0), "{context}");
        }
        let line = outcome.to_json_line(specs_for(trace));
        assert!(lakebench::runner::parse_result_line(&line).is_ok(), "{context}");
    }
}

#[test]
fn imdb_equi_reports_every_metric_and_checks_its_outputs() {
    check_both_modes(Workload::ImdbEqui);
}

#[test]
fn autojoin_fuzzy_reports_every_metric_and_checks_its_outputs() {
    check_both_modes(Workload::AutojoinFuzzy);
}

#[test]
fn escalation_fold_reports_every_metric_and_checks_its_outputs() {
    check_both_modes(Workload::EscalationFold);
}

#[test]
fn lake_growth_reports_every_metric_and_checks_its_outputs() {
    check_both_modes(Workload::LakeGrowth);
}

#[test]
fn serve_mixed_reports_every_metric_and_checks_its_outputs() {
    check_both_modes(Workload::ServeMixed);
}

#[test]
fn outputs_repeat_on_one_seed_and_change_with_the_seed() {
    for workload in [Workload::AutojoinFuzzy, Workload::LakeGrowth] {
        let (a, b, c) =
            (tiny(workload, 7, false), tiny(workload, 7, false), tiny(workload, 8, false));
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(a.metric("match_f1"), b.metric("match_f1"), "{}", workload.name());
        assert_ne!(a.digest, c.digest, "{}", workload.name());
    }
}

#[test]
fn served_tuples_never_mix_tenants() {
    let inputs = inputs::generate(Workload::ServeMixed, 42, Scale::Tiny);
    let replays = replay_shards(&inputs.arrivals).unwrap();
    let mut tuples = 0;
    for replay in &replays {
        for tuple in replay.outcome.table.tuples() {
            // Tables are named `<tenant>-S<i>`.
            let tenants: BTreeSet<&str> = tuple
                .provenance()
                .tables()
                .into_iter()
                .map(|table| table.rsplit_once("-S").expect("trace table name").0)
                .collect();
            assert_eq!(
                tenants.len(),
                1,
                "tuple {:?} spans tenants {tenants:?}",
                tuple.provenance()
            );
            tuples += 1;
        }
    }
    assert!(tuples > 0);
}
