//! The four library workloads with tracing off: the timed unit, the
//! regular-FD baseline and the output checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fuzzy_fd_core::{
    regular_full_disjunction, FuzzyFdConfig, FuzzyFullDisjunction, IncrementalOutcome,
    IntegrationOutcome, IntegrationSession, ValueGroup,
};
use lake_bench::table1::predicted_pairs;
use lake_fd::IntegratedTable;
use lake_metrics::PrecisionRecall;
use lake_schema_match::align_by_headers;
use lake_table::csv::{parse_csv, to_csv};
use lake_table::{ColumnRef, Table};

use crate::inputs::{GoldPairs, Inputs, LakeSet, SourceTable};
use crate::outcome::{peak_rss_mb, Outcome, RunConfig};
use crate::stats::{fastest, fnv1a, FNV_OFFSET};

/// Timed samples a run needs at least, however short `--seconds` is.
pub const MIN_SAMPLES: usize = 3;

/// The integration of one lake, through whichever path the workload uses.
#[derive(Debug, Clone)]
pub enum Integrated {
    /// One `integrate_by_headers` call.
    Batch(Box<IntegrationOutcome>),
    /// The final outcome of a session lifecycle.
    Session(Arc<IncrementalOutcome>),
}

impl Integrated {
    /// The integrated table.
    pub fn table(&self) -> &IntegratedTable {
        match self {
            Integrated::Batch(outcome) => &outcome.table,
            Integrated::Session(outcome) => &outcome.table,
        }
    }

    /// The value groups per aligned set.
    pub fn value_groups(&self) -> &[(Vec<ColumnRef>, Vec<ValueGroup>)] {
        match self {
            Integrated::Batch(outcome) => &outcome.value_groups,
            Integrated::Session(outcome) => &outcome.value_groups,
        }
    }
}

/// Parses `sources` the way a library user hands tables over.
pub fn parse_tables(sources: &[SourceTable]) -> Result<Vec<Table>, String> {
    sources
        .iter()
        .map(|source| parse_csv(source.name.as_str(), &source.csv).map_err(|e| e.to_string()))
        .collect()
}

/// Integrates parsed `tables` the way `set` hands them over: one batch
/// call, or a session `begin` plus one `add_tables` per later batch.
pub fn integrate_set(set: &LakeSet, tables: &[Table]) -> Result<Integrated, String> {
    let config = FuzzyFdConfig::default();
    if let [_] = set.batches[..] {
        let outcome = FuzzyFullDisjunction::new(config)
            .integrate_by_headers(tables)
            .map_err(|e| e.to_string())?;
        return Ok(Integrated::Batch(Box::new(outcome)));
    }
    Ok(Integrated::Session(session_over(set, tables)?.snapshot()))
}

/// Opens a session over `tables` with `set`'s call boundaries.
fn session_over(set: &LakeSet, tables: &[Table]) -> Result<IntegrationSession, String> {
    let (first, rest) = set.batches.split_first().ok_or("a lake set needs a batch")?;
    let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..*first])
        .map_err(|e| e.to_string())?;
    let mut next = *first;
    for size in rest {
        session.add_tables(&tables[next..next + size]).map_err(|e| e.to_string())?;
        next += size;
    }
    Ok(session)
}

/// The regular (equi-join, ALITE-style) Full Disjunction of `tables`.
pub fn regular_fd(tables: &[Table]) -> IntegratedTable {
    regular_full_disjunction(tables, &align_by_headers(tables))
}

/// The baseline of `fuzzy_overhead`: parse the lake's clean twin and
/// integrate it with regular FD.  Returns the seconds it took.
pub fn regular_unit(set: &LakeSet) -> Result<f64, String> {
    let start = Instant::now();
    std::hint::black_box(regular_fd(&parse_tables(&set.clean)?));
    Ok(start.elapsed().as_secs_f64())
}

/// FNV-1a digest of an integrated table rendered the way a library user
/// exports it: CSV with the provenance column.
pub fn table_digest(table: &IntegratedTable) -> Result<u64, String> {
    let rendered = table.to_table("integrated", true).map_err(|e| e.to_string())?;
    Ok(fnv1a(FNV_OFFSET, to_csv(&rendered).as_bytes()))
}

/// A run's output digest: its lakes' [`table_digest`]s folded in order.
pub fn fold_digests(lakes: impl Iterator<Item = u64>) -> u64 {
    lakes.fold(FNV_OFFSET, |hash, lake| fnv1a(hash, &lake.to_le_bytes()))
}

/// One integrated lake as the F1 score needs it.
#[derive(Debug, Clone, Copy)]
pub struct MatchedLake<'a> {
    /// Gold pairs per aligned header.
    pub gold: &'a BTreeMap<String, GoldPairs>,
    /// The lake's parsed tables.
    pub tables: &'a [Table],
    /// The value groups the integration found, per aligned set.
    pub value_groups: &'a [(Vec<ColumnRef>, Vec<ValueGroup>)],
}

/// Macro-F1 of the predicted value pairs against gold, over every aligned
/// set that has gold.
pub fn match_f1(lakes: &[MatchedLake<'_>]) -> f64 {
    let mut scores: Vec<PrecisionRecall> = Vec::new();
    for lake in lakes {
        for (columns, groups) in lake.value_groups {
            let first = columns[0];
            let header =
                lake.tables[first.table].schema().columns()[first.column].name.to_lowercase();
            if let Some(gold) = lake.gold.get(header.trim()) {
                scores.push(predicted_pairs(groups).confusion_against(gold).scores());
            }
        }
    }
    PrecisionRecall::macro_average(&scores).map_or(0.0, |average| average.f1)
}

/// One timed pass over one lake.
struct Sample {
    /// The timed unit: parsing plus integrating, in seconds.
    integrate_s: f64,
    /// The regular-FD baseline over the clean twin, in seconds.
    regular_s: f64,
    /// Digest of the integrated table.
    digest: u64,
}

/// One lake after a pass: its parsed tables and their integration.
type Lake = (Vec<Table>, Integrated);

fn sample(set: &LakeSet) -> Result<(Sample, Lake), String> {
    let start = Instant::now();
    let tables = parse_tables(&set.sources)?;
    let integrated = integrate_set(set, &tables)?;
    let integrate_s = start.elapsed().as_secs_f64();
    let digest = table_digest(integrated.table())?;
    let regular_s = regular_unit(set)?;
    Ok((Sample { integrate_s, regular_s, digest }, (tables, integrated)))
}

/// Output checks over every lake's samples; returns the match F1.
fn check(sets: &[LakeSet], lakes: &[Lake], samples: &[Vec<Sample>]) -> (f64, Vec<String>) {
    let mut problems = Vec::new();
    if samples.iter().any(|lake| lake.iter().any(|s| s.digest != lake[0].digest)) {
        problems.push("final tables differ across samples".into());
    }
    if lakes.iter().any(|(_, integrated)| integrated.table().is_empty()) {
        problems.push("an integrated table is empty".into());
    }
    for (set, (tables, integrated)) in sets.iter().zip(lakes) {
        if set.batches.len() > 1 {
            let batch =
                FuzzyFullDisjunction::new(FuzzyFdConfig::default()).integrate_by_headers(tables);
            if batch.map_or(true, |batch| batch.table != *integrated.table()) {
                problems.push("the session's final table differs from one batch call".into());
            }
        }
    }
    let matched: Vec<_> = sets
        .iter()
        .zip(lakes)
        .map(|(set, (tables, integrated))| MatchedLake {
            gold: &set.gold,
            tables,
            value_groups: integrated.value_groups(),
        })
        .collect();
    (match_f1(&matched), problems)
}

/// Samples the lakes round-robin for `seconds` after a warm-up pass.
/// Returns the first pass's lakes and every lake's samples, and counts the
/// operations into `attempted`.
fn measure(
    sets: &[LakeSet],
    seconds: f64,
    attempted: &mut u64,
) -> Result<(Vec<Lake>, Vec<Vec<Sample>>), String> {
    for set in sets {
        *attempted += 1;
        sample(set)?;
    }
    let mut lakes = Vec::with_capacity(sets.len());
    let mut samples: Vec<Vec<Sample>> = sets.iter().map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_SAMPLES || started.elapsed().as_secs_f64() < seconds {
        for (set, taken) in sets.iter().zip(&mut samples) {
            *attempted += 2; // integrate, regular FD
            let (sample, lake) = sample(set)?;
            // Only the first pass keeps its tables (for the checks); later
            // ones would only inflate peak memory.
            if passes == 0 {
                lakes.push(lake);
            }
            taken.push(sample);
        }
        passes += 1;
    }
    Ok((lakes, samples))
}

/// Runs a library workload with tracing off and reports the end-to-end
/// metrics.
///
/// Every timing is the sum over the lakes of each lake's fastest sample:
/// the smaller the piece that is timed, the likelier one of its samples
/// ran undisturbed (see [`fastest`]).
pub fn run(config: &RunConfig, inputs: &Inputs, setup_s: f64) -> Outcome {
    let sets = &inputs.sets;
    let mut attempted = 0u64;
    let (samples, f1, problems) = match measure(sets, config.seconds, &mut attempted) {
        Ok((lakes, samples)) => {
            attempted += 1;
            let (f1, problems) = check(sets, &lakes, &samples);
            (samples, f1, problems)
        }
        Err(problem) => (Vec::new(), 0.0, vec![problem]),
    };

    let sum = |pick: fn(&Sample) -> f64| -> f64 {
        samples.iter().map(|lake| fastest(&lake.iter().map(pick).collect::<Vec<_>>())).sum()
    };
    let integrate_s = sum(|s| s.integrate_s);
    // A library call is synchronous: a table handed over is acknowledged,
    // readable and, after a crash, rebuilt exactly when the integration
    // returns.  The three served metrics therefore read `integrate_s`, in
    // their own units, rather than name some other library operation.
    let metrics = vec![
        ("setup_s", setup_s),
        ("integrate_s", integrate_s),
        ("fuzzy_overhead", integrate_s / sum(|s| s.regular_s)),
        ("match_f1", f1),
        ("peak_rss_mb", peak_rss_mb()),
        ("ack_p50_ms", integrate_s * 1e3),
        ("query_p50_ms", integrate_s * 1e3),
        ("recover_s", integrate_s),
    ];
    let digest = fold_digests(samples.iter().filter_map(|lake| lake.first()).map(|s| s.digest));
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: if problems.is_empty() { 0 } else { attempted },
        metrics,
        digest,
        problems,
    }
}
