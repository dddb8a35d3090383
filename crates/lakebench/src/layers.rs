//! The traced mode: per-layer metrics, measured from outside.
//!
//! Every span is recorded by this file around a call into one crate's
//! public functions; counts are read from the reports those calls return.
//! For each lake of the workload the trace
//!
//! 1. re-composes the batch operator from its public pieces —
//!    `parse_csv` → `align_by_headers` → column projection →
//!    `EmbeddingCache::embed_batch_with_stats` (cold) →
//!    `ValueMatcher::match_values_with_stats` (warm cache) →
//!    `build_substitutions` + `apply_substitutions` →
//!    `IntegrationSchema::from_aligned_sets` →
//!    `parallel_full_disjunction_with` — one span each, checks the result
//!    against `integrate_by_headers`, and compares the spans' sum with the
//!    untraced call (the difference is the tracing overhead);
//! 2. probes the layers the operator hides on the lake's largest fold
//!    (block keys, the int8 kernel, the ANN index, `plan_blocks`, dense
//!    against sparse assignment) and the FD closure across threads;
//! 3. replays the lake table by table through an `IntegrationSession`;
//! 4. probes `lake-store` and `lake-serve` on the lake's own tables.

use std::collections::HashMap;
use std::io::Cursor;
use std::time::{Duration, Instant};

use fuzzy_fd_core::rewrite::apply_substitutions;
use fuzzy_fd_core::{
    build_substitutions, hashed_value_block_keys, plan_blocks, BlockingPolicy, BlockingStats,
    FoldInputs, FuzzyFdConfig, FuzzyFullDisjunction, IncrementalPolicy, IntegrationSession,
    KernelStats, ParallelPolicy, ValueMatcher,
};
use lake_assign::{
    shortest_augmenting_path, sparse_shortest_augmenting_path, CostMatrix, SparseCostMatrix,
};
use lake_embed::{kernel, AnnIndex, AnnParams, AnnScratch, EmbeddingCache, QuantizedSlab, Vector};
use lake_fd::{parallel_full_disjunction_with, FdStats, IntegratedTable, IntegrationSchema};
use lake_schema_match::align_by_headers;
use lake_serve::{http, wire, LakeServer, QueryView, ServeClient, ServePolicy, ShardSnapshot};
use lake_store::{restore_session, FsyncPolicy, LakeStore, StorePolicy};
use lake_table::csv::parse_csv;
use lake_table::{ColumnRef, Table, Value};
use lake_text::{string_block_keys, BlockKeyOptions};

use crate::inputs::{Inputs, LakeSet};
use crate::library::{self, parse_tables, regular_fd};
use crate::outcome::{Outcome, RunConfig, ScratchDir};
use crate::serve;
use crate::spec::PER_LAYER;
use crate::stats::{fastest, median, percentile, share_above};
use crate::trace::Tracer;

/// Share of `--seconds` the re-composition samples may take.
const RECOMPOSE_SHARE: f64 = 0.3;
/// Share of `--seconds` the session replays may take.
const REPLAY_SHARE: f64 = 0.2;
/// Share of `--seconds` the served lifecycles get in traced mode.
const SERVED_SHARE: f64 = 0.4;
/// Repetitions of a probe whose fastest is reported.
const PROBE_REPS: usize = 5;
/// Side cap of the assignment probe's matrix (dense SAP is cubic).
const ASSIGN_SIDE: usize = 256;

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Fastest of `reps` runs of `body` in milliseconds, each one a span `name`.
fn probe_ms<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut body: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = tracer.timed(name, &mut body);
            std::hint::black_box(out);
            ms
        })
        .collect();
    fastest(&times)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Metric values collected by name.
#[derive(Debug, Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown metric {name}");
        debug_assert!(self.0.iter().all(|(n, _)| *n != name), "metric {name} set twice");
        self.0.push((name, value));
    }
}

/// What one traced re-composition of one lake produced.
struct Recomposed {
    tables: Vec<Table>,
    table: IntegratedTable,
    schema: IntegrationSchema,
    rewritten: Vec<Table>,
    blocking: BlockingStats,
    fd: FdStats,
    rewritten_cells: usize,
    embedded_values: usize,
    cache: (u64, u64),
}

/// Integrates one lake from the operator's public pieces, one span each.
fn recompose(tracer: &mut Tracer, set: &LakeSet) -> Result<Recomposed, String> {
    let config = FuzzyFdConfig::default();
    let tables: Vec<Table> = set
        .sources
        .iter()
        .map(|source| {
            tracer.span("table.csv_parse", |_| parse_csv(source.name.as_str(), &source.csv))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let alignment = tracer.span("schema-match.align", |_| align_by_headers(&tables));

    let projected: Vec<(Vec<ColumnRef>, Vec<Vec<Value>>)> = tracer
        .span("table.project", |_| {
            alignment
                .multi_table_groups()
                .map(|group| {
                    let mut columns = group.clone();
                    columns.sort();
                    let values = columns
                        .iter()
                        .map(|cref| {
                            tables[cref.table]
                                .column_values(cref.column)
                                .map(|vs| vs.into_iter().cloned().collect())
                        })
                        .collect::<Result<Vec<Vec<Value>>, _>>()?;
                    Ok((columns, values))
                })
                .collect::<Result<_, lake_table::TableError>>()
        })
        .map_err(|e| e.to_string())?;

    let sequential = ParallelPolicy { threads: 1, min_auto_cost: 0 };
    let embedder = tracer.span("embed.embed", |_| {
        let embedder = EmbeddingCache::new(config.model.build());
        for (_, columns) in &projected {
            let rendered: Vec<String> = columns
                .iter()
                .flatten()
                .filter(|v| v.is_present())
                .map(|v| v.render().into_owned())
                .collect();
            let values: Vec<&str> = rendered.iter().map(String::as_str).collect();
            embedder.embed_batch_with_stats(&values, &sequential);
        }
        embedder
    });
    let embedded_values = embedder.len();

    let mut blocking = BlockingStats::default();
    let matched: Vec<_> = tracer.span("core.match", |_| {
        let matcher = ValueMatcher::new(&embedder, config);
        projected
            .iter()
            .map(|(_, columns)| {
                let (groups, stats) = matcher.match_values_with_stats(columns);
                blocking.merge(&stats);
                groups
            })
            .collect()
    });
    let cache = embedder.stats();

    let (rewritten, rewritten_cells) = tracer
        .span("core.rewrite", |_| {
            let mut substitutions: HashMap<ColumnRef, HashMap<Value, Value>> = HashMap::new();
            for ((columns, _), groups) in projected.iter().zip(&matched) {
                for (column, mapping) in build_substitutions(columns, groups) {
                    substitutions.entry(column).or_default().extend(mapping);
                }
            }
            apply_substitutions(&tables, &substitutions)
        })
        .map_err(|e| e.to_string())?;

    let schema = tracer.span("fd.schema", |_| {
        IntegrationSchema::from_aligned_sets(&rewritten, alignment.groups())
    });
    let (table, fd) =
        tracer.span("fd.closure", |_| parallel_full_disjunction_with(&schema, &rewritten, 1));
    Ok(Recomposed {
        tables,
        table,
        schema,
        rewritten,
        blocking,
        fd,
        rewritten_cells,
        embedded_values,
        cache,
    })
}

/// The layer spans whose per-request self times make up a re-composed
/// unit, with the metric each reports under.
pub const UNIT_SPANS: [(&str, &str); 8] = [
    ("table.csv_parse", "table.csv_parse_ms"),
    ("schema-match.align", "schema-match.align_ms"),
    ("table.project", "table.project_ms"),
    ("embed.embed", "embed.embed_ms"),
    ("core.match", "core.match_ms"),
    ("core.rewrite", "core.rewrite_ms"),
    ("fd.schema", "fd.schema_ms"),
    ("fd.closure", "fd.closure_ms"),
];

/// Phase 1: alternates the untraced batch operator with its traced
/// re-composition over every lake, and reports the span metrics.  Returns
/// the last re-composition of every lake.
fn recomposition(
    tracer: &mut Tracer,
    sets: &[LakeSet],
    budget_s: f64,
    out: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<Vec<Recomposed>, String> {
    let operator = FuzzyFullDisjunction::new(FuzzyFdConfig::default());
    let untraced = || -> Result<(f64, Vec<IntegratedTable>), String> {
        let start = Instant::now();
        let mut tables = Vec::with_capacity(sets.len());
        for set in sets {
            let parsed = parse_tables(&set.sources)?;
            tables.push(operator.integrate_by_headers(&parsed).map_err(|e| e.to_string())?.table);
        }
        Ok((ms(start.elapsed()), tables))
    };

    // Warm-up: first iteration of both sides, discarded.
    let (_, reference) = untraced()?;
    let mut scratch = Tracer::new();
    for set in sets {
        recompose(&mut scratch, set)?;
    }

    let mut untraced_ms = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    while untraced_ms.len() < library::MIN_SAMPLES || started.elapsed().as_secs_f64() < budget_s {
        untraced_ms.push(untraced()?.0);
        tracer.next_request();
        last = tracer.span("unit", |t| {
            sets.iter().map(|set| recompose(t, set)).collect::<Result<Vec<_>, _>>()
        })?;
    }
    if last.iter().zip(&reference).any(|(lake, table)| lake.table != *table) {
        problems.push("the re-composed pipeline's table differs from integrate's".into());
    }

    let mut span_sum = 0.0;
    for (span, metric) in UNIT_SPANS {
        let value = fastest(&tracer.self_ms_by_request(span));
        span_sum += value;
        out.set(metric, value);
    }
    let untraced = fastest(&untraced_ms);
    let traced = fastest(&tracer.durations_ms("unit"));
    out.set("lakebench.untraced_ms", untraced);
    out.set("lakebench.traced_ms", traced);
    out.set("lakebench.trace_overhead_ms", traced - untraced);
    out.set("lakebench.span_sum_ms", span_sum);
    out.set("lakebench.span_coverage", ratio(span_sum, untraced));
    out.set("lakebench.samples", untraced_ms.len() as f64);

    let csv_bytes: usize = sets.iter().flat_map(|s| &s.sources).map(|t| t.csv.len()).sum();
    let parse_ms = fastest(&tracer.self_ms_by_request("table.csv_parse"));
    out.set("table.csv_mb_per_s", ratio(csv_bytes as f64 / 1e6, parse_ms / 1e3));

    let embedded: usize = last.iter().map(|l| l.embedded_values).sum();
    let (hits, misses) = last.iter().fold((0, 0), |(h, m), l| (h + l.cache.0, m + l.cache.1));
    let embed_ms = fastest(&tracer.self_ms_by_request("embed.embed"));
    out.set("embed.values", embedded as f64);
    out.set("embed.us_per_value", ratio(embed_ms * 1e3, embedded as f64));
    out.set("embed.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));

    let mut blocking = BlockingStats::default();
    let mut fd = FdStats::default();
    for lake in &last {
        blocking.merge(&lake.blocking);
        fd.input_tuples += lake.fd.input_tuples;
        fd.output_tuples += lake.fd.output_tuples;
        fd.components += lake.fd.components;
        fd.largest_component = fd.largest_component.max(lake.fd.largest_component);
    }
    out.set("core.folds", blocking.folds as f64);
    out.set("core.escalated_folds", blocking.escalated_folds as f64);
    out.set("core.blocks", blocking.blocks as f64);
    out.set("core.candidate_pairs", blocking.candidate_pairs as f64);
    out.set("core.scored_pairs", blocking.scored_pairs as f64);
    out.set("core.pruned_share", blocking.pruned_fraction());
    out.set("core.max_block_size", blocking.max_block_size as f64);
    out.set("core.rewritten_cells", last.iter().map(|l| l.rewritten_cells).sum::<usize>() as f64);
    out.set("fd.input_tuples", fd.input_tuples as f64);
    out.set("fd.output_tuples", fd.output_tuples as f64);
    out.set("fd.components", fd.components as f64);
    out.set("fd.largest_component", fd.largest_component as f64);
    let closure_ms = fastest(&tracer.self_ms_by_request("fd.closure"));
    out.set("fd.us_per_input_tuple", ratio(closure_ms * 1e3, fd.input_tuples as f64));

    let clean: Vec<Vec<Table>> =
        sets.iter().map(|set| parse_tables(&set.clean)).collect::<Result<_, _>>()?;
    let regular = probe_ms(tracer, "fd.regular", 3, || {
        clean.iter().map(|t| regular_fd(t).len()).sum::<usize>()
    });
    out.set("fd.regular_ms", regular);
    Ok(last)
}

/// The two largest aligned columns of the lake whose product of distinct
/// value counts is largest: the rows and columns of the probe fold.
fn largest_fold(lakes: &[Recomposed]) -> (Vec<String>, Vec<String>) {
    let mut best: (Vec<String>, Vec<String>) = (Vec::new(), Vec::new());
    for lake in lakes {
        for group in align_by_headers(&lake.tables).multi_table_groups() {
            let mut columns: Vec<Vec<String>> = group
                .iter()
                .filter_map(|cref| lake.tables[cref.table].distinct_values(cref.column).ok())
                .map(|values| {
                    values
                        .iter()
                        .filter(|v| v.is_present())
                        .map(|v| v.render().into_owned())
                        .collect()
                })
                .collect();
            columns.sort_by_key(|column: &Vec<String>| std::cmp::Reverse(column.len()));
            if let [rows, cols, ..] = &columns[..] {
                if rows.len() * cols.len() > best.0.len() * best.1.len() {
                    best = (rows.clone(), cols.clone());
                }
            }
        }
    }
    best
}

/// Phase 2a: probes of `lake-text`, `lake-embed`, `plan_blocks` and
/// `lake-assign` on the largest fold.
fn fold_probes(tracer: &mut Tracer, lakes: &[Recomposed], out: &mut Metrics) {
    let config = FuzzyFdConfig::default();
    let (rows, cols) = largest_fold(lakes);
    let values: Vec<&str> = rows.iter().chain(&cols).map(String::as_str).collect();

    let mut keys = 0usize;
    let block_keys_ms = probe_ms(tracer, "text.block_keys", PROBE_REPS, || {
        let options = BlockKeyOptions::value_matching();
        keys = values.iter().map(|v| string_block_keys(v, &options).len()).sum();
    });
    out.set("text.block_keys_ms", block_keys_ms);
    out.set("text.keys_per_value", ratio(keys as f64, values.len() as f64));

    let embedder = EmbeddingCache::new(config.model.build());
    let sequential = ParallelPolicy { threads: 1, min_auto_cost: 0 };
    let as_strs = |side: &[String]| -> Vec<Vector> {
        let strs: Vec<&str> = side.iter().map(String::as_str).collect();
        embedder.embed_batch(&strs, &sequential)
    };
    let (row_vectors, col_vectors) = (as_strs(&rows), as_strs(&cols));
    let row_refs: Vec<&Vector> = row_vectors.iter().collect();
    let col_refs: Vec<&Vector> = col_vectors.iter().collect();
    let row_slab = QuantizedSlab::from_vectors(&row_refs);
    let col_slab = QuantizedSlab::from_vectors(&col_refs);
    let cutoff = config.theta + 0.1;

    let mut kernel_stats = KernelStats::default();
    let sweep_ms = probe_ms(tracer, "embed.kernel_sweep", PROBE_REPS, || {
        kernel_stats = KernelStats::default();
        kernel::sweep_below(&row_slab, &col_slab, cutoff, &mut kernel_stats)
    });
    out.set("embed.kernel_sweep_ms", sweep_ms);
    let pairs = (rows.len() * cols.len()) as f64;
    out.set("embed.kernel_mpairs_per_s", ratio(pairs / 1e6, sweep_ms / 1e3));
    let scored = kernel_stats.int8_scored as f64;
    out.set("embed.kernel_skipped_share", ratio(kernel_stats.skipped as f64, scored));
    out.set("embed.kernel_rescored_share", ratio(kernel_stats.rescored as f64, scored));

    let mut index = AnnIndex::build_from_slab(AnnParams::default(), &col_slab);
    let build_ms = probe_ms(tracer, "embed.ann_build", PROBE_REPS, || {
        index = AnnIndex::build_from_slab(AnnParams::default(), &col_slab);
    });
    out.set("embed.ann_build_ms", build_ms);
    let mut candidates = 0usize;
    let probe = probe_ms(tracer, "embed.ann_probe", PROBE_REPS, || {
        let (mut scratch, mut found) = (AnnScratch::default(), Vec::new());
        candidates = 0;
        for query in &row_vectors {
            index.candidates_with(query, &mut scratch, &mut found);
            candidates += found.len();
        }
    });
    out.set("embed.ann_probe_ms", probe);
    out.set("embed.ann_candidates_per_query", ratio(candidates as f64, rows.len() as f64));

    let row_keys: Vec<Vec<u64>> = rows.iter().map(|v| hashed_value_block_keys(v)).collect();
    let col_keys: Vec<Vec<u64>> = cols.iter().map(|v| hashed_value_block_keys(v)).collect();
    let fold = FoldInputs {
        row_keys: &row_keys,
        col_keys: &col_keys,
        row_embeddings: &row_refs,
        col_embeddings: &col_refs,
        theta: config.theta,
    };
    let plan_ms = probe_ms(tracer, "core.plan", PROBE_REPS, || {
        plan_blocks(&fold, &BlockingPolicy::default())
    });
    out.set("core.plan_ms", plan_ms);

    // Dense against sparse assignment over the same (capped) distance
    // matrix: every cell, or only the cells a blocked plan would keep.
    let (r, c) = (rows.len().min(ASSIGN_SIDE), cols.len().min(ASSIGN_SIDE));
    let distance = |i: usize, j: usize| f64::from(row_vectors[i].cosine_distance(&col_vectors[j]));
    let dense = CostMatrix::from_fn(r, c, distance);
    let entries: Vec<(usize, usize, f64)> = (0..r)
        .flat_map(|i| (0..c).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, dense.get(i, j)))
        .filter(|(_, _, d)| *d < f64::from(cutoff))
        .collect();
    out.set("assign.cells", entries.len() as f64);
    let dense_ms =
        probe_ms(tracer, "assign.sap_dense", PROBE_REPS, || shortest_augmenting_path(&dense));
    out.set("assign.sap_dense_ms", dense_ms);
    let sparse = SparseCostMatrix::from_entries(r, c, 1.0e6, &entries)
        .expect("entries are generated row-major, in range and finite");
    let sparse_ms = probe_ms(tracer, "assign.sap_sparse", PROBE_REPS, || {
        sparse_shortest_augmenting_path(&sparse)
    });
    out.set("assign.sap_sparse_ms", sparse_ms);
}

/// Phase 2b: the FD closure of the largest lake across threads.
fn runtime_probe(tracer: &mut Tracer, lakes: &[Recomposed], out: &mut Metrics) {
    let Some(lake) = lakes.iter().max_by_key(|l| l.fd.input_tuples) else { return };
    // Auto mode resolves to the machine's available parallelism.
    let workers = ParallelPolicy::auto().resolve(usize::MAX, u64::MAX);
    let one = probe_ms(tracer, "fd.closure_1", 3, || {
        parallel_full_disjunction_with(&lake.schema, &lake.rewritten, 1)
    });
    let mut stats = FdStats::default();
    let many = probe_ms(tracer, "fd.closure_n", 3, || {
        stats = parallel_full_disjunction_with(&lake.schema, &lake.rewritten, workers).1;
    });
    out.set("runtime.fd_parallel_speedup", ratio(one, many));
    out.set("runtime.tasks", stats.runtime.tasks as f64);
    out.set("runtime.steals", stats.runtime.steals as f64);
    out.set("runtime.imbalance", stats.runtime.imbalance());
}

/// One stepwise session replay of one lake.
struct Replay {
    session: IntegrationSession,
    begin_ms: f64,
    append_ms: Vec<f64>,
    fd_ms: f64,
    refolded: usize,
    reused: usize,
    embed: (u64, u64),
    components: (usize, usize),
}

/// Replays `tables` through a session: `begin` with the lake's initial
/// batch (one table for a batch workload) and one `add_table` per later
/// table.
fn replay(tracer: &mut Tracer, set: &LakeSet, tables: &[Table]) -> Result<Replay, String> {
    let initial = if set.batches.len() > 1 { set.batches[0] } else { 1 };
    let (session, begin_ms) = tracer.timed("core.session_begin", || {
        IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..initial])
    });
    let mut replay = Replay {
        session: session.map_err(|e| e.to_string())?,
        begin_ms,
        append_ms: Vec::new(),
        fd_ms: 0.0,
        refolded: 0,
        reused: 0,
        embed: (0, 0),
        components: (0, 0),
    };
    for table in &tables[initial..] {
        let (outcome, append_ms) =
            tracer.timed("core.session_append", || replay.session.add_table(table));
        let outcome = outcome.map_err(|e| e.to_string())?;
        replay.append_ms.push(append_ms);
        replay.fd_ms += ms(outcome.report.fd_time);
        replay.refolded += outcome.incremental.refolded_sets;
        replay.reused += outcome.incremental.reused_sets;
        replay.embed.0 += outcome.incremental.embed_hits;
        replay.embed.1 += outcome.incremental.embed_misses;
        replay.components.0 += outcome.report.fd_stats.reused_components;
        replay.components.1 += outcome.report.fd_stats.components;
    }
    Ok(replay)
}

/// Phase 3: session replays of every lake.  Returns the final sessions.
fn session_replays(
    tracer: &mut Tracer,
    sets: &[LakeSet],
    lakes: &[Recomposed],
    budget_s: f64,
    out: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<Vec<IntegrationSession>, String> {
    let mut passes: Vec<Vec<Replay>> = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        let pass = sets
            .iter()
            .zip(lakes)
            .map(|(set, lake)| replay(tracer, set, &lake.tables))
            .collect::<Result<Vec<_>, _>>()?;
        passes.push(pass);
    }
    let over_passes = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        fastest(&passes.iter().map(|pass| pass.iter().map(f).sum::<f64>()).collect::<Vec<_>>())
    };
    let begin = over_passes(&|r| r.begin_ms);
    let appends = over_passes(&|r| r.append_ms.iter().sum::<f64>());
    let first = over_passes(&|r| r.append_ms.first().copied().unwrap_or(0.0));
    let last = over_passes(&|r| r.append_ms.last().copied().unwrap_or(0.0));
    out.set("core.session_begin_ms", begin);
    out.set("core.session_first_append_ms", first);
    out.set("core.session_last_append_ms", last);
    out.set("core.session_growth_ratio", ratio(last, first));
    out.set("core.session_replay_ms", begin + appends);
    out.set("core.session_fd_share", ratio(over_passes(&|r| r.fd_ms), appends));

    let pass = passes.pop().expect("at least one replay pass ran");
    let sum = |f: &dyn Fn(&Replay) -> f64| -> f64 { pass.iter().map(f).sum() };
    out.set("core.session_refolded_sets", sum(&|r| r.refolded as f64));
    out.set("core.session_reused_sets", sum(&|r| r.reused as f64));
    let (hits, misses) = (sum(&|r| r.embed.0 as f64), sum(&|r| r.embed.1 as f64));
    out.set("core.session_embed_hit_ratio", ratio(hits, hits + misses));
    out.set(
        "fd.reused_share",
        ratio(sum(&|r| r.components.0 as f64), sum(&|r| r.components.1 as f64)),
    );

    for (replay, lake) in pass.iter().zip(lakes) {
        if replay.session.current().table != lake.table {
            problems.push("a replayed session's table differs from the batch table".into());
        }
        if let Some(series) = series_line(&replay.append_ms) {
            eprintln!("lakebench: core.session_append_ms by depth: {series}");
        }
    }
    Ok(pass.into_iter().map(|r| r.session).collect())
}

/// The per-append series of a replay, for lakes deep enough to show growth
/// and short enough to read.
fn series_line(append_ms: &[f64]) -> Option<String> {
    (3..=8)
        .contains(&append_ms.len())
        .then(|| append_ms.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>().join(" "))
}

/// Phase 4a: `lake-store` probes on every lake's tables.
fn store_probes(
    tracer: &mut Tracer,
    sessions: &[IntegrationSession],
    scratch: &std::path::Path,
    out: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let text = |e: lake_store::StoreError| e.to_string();
    let mut append_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut fsyncs, mut appends, mut wal_bytes, mut user_bytes) = (0u64, 0u64, 0u64, 0usize);
    let (mut checkpoint_ms, mut open_ms, mut restore_ms) = (0.0, 0.0, 0.0);
    let (mut pool_hits, mut pool_misses) = (0u64, 0u64);
    for session in sessions {
        for (slot, fsync) in [FsyncPolicy::Always, FsyncPolicy::Never].into_iter().enumerate() {
            let dir = ScratchDir::create(scratch, "store-probe").map_err(|e| e.to_string())?;
            let policy = StorePolicy { fsync, ..StorePolicy::default() };
            let mut store = LakeStore::open(dir.path(), policy).map_err(text)?;
            for table in session.tables() {
                let (appended, ms) =
                    tracer.timed("store.append", || store.append(table.name(), table, true));
                appended.map_err(text)?;
                append_us[slot].push(ms * 1e3);
            }
            if fsync != FsyncPolicy::Always {
                continue;
            }
            let status = store.status();
            fsyncs += status.fsyncs;
            appends += status.appends;
            wal_bytes += status.wal_bytes;
            user_bytes += session
                .tables()
                .iter()
                .map(|t| wire::ingest_body(t.name(), t).len())
                .sum::<usize>();
            if store.next_seq() > 0 {
                let (checkpointed, ms) =
                    tracer.timed("store.checkpoint", || store.checkpoint(store.next_seq() - 1));
                checkpointed.map_err(text)?;
                checkpoint_ms += ms;
            }
            drop(store);
            let (store, ms) = tracer.timed("store.open", || LakeStore::open(dir.path(), policy));
            let store = store.map_err(text)?;
            open_ms += ms;
            let pool = store.status().pool;
            pool_hits += pool.hits;
            pool_misses += pool.misses;
            let (restored, ms) = tracer.timed("store.restore", || {
                restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default())
            });
            let restored = restored.map_err(|e| e.to_string())?;
            restore_ms += ms;
            if restored.current().table != session.current().table {
                problems.push("a store-restored session's table differs from the live one".into());
            }
        }
    }
    out.set("store.append_p50_us", median(&append_us[0]));
    out.set("store.append_nofsync_p50_us", median(&append_us[1]));
    out.set("store.fsyncs_per_append", ratio(fsyncs as f64, appends as f64));
    out.set("store.wal_bytes_per_user_byte", ratio(wal_bytes as f64, user_bytes as f64));
    out.set("store.checkpoint_ms", checkpoint_ms);
    out.set("store.open_ms", open_ms);
    out.set("store.restore_ms", restore_ms);
    out.set("store.pool_hit_ratio", ratio(pool_hits as f64, (pool_hits + pool_misses) as f64));
    Ok(())
}

/// Phase 4b: `lake-serve` probes on every lake's tables and final state.
fn serve_probes(
    tracer: &mut Tracer,
    sessions: &[IntegrationSession],
    out: &mut Metrics,
) -> Result<(), String> {
    let (mut http_us, mut ingest_us) = (Vec::new(), Vec::new());
    let (mut snapshot_us, mut render_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for session in sessions {
        for table in session.tables() {
            let body = wire::ingest_body(table.name(), table);
            let request = format!(
                "POST /ingest HTTP/1.1\r\nHost: lake-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            http_us.push(
                1e3 * probe_ms(tracer, "serve.http_parse", PROBE_REPS, || {
                    http::read_request(&mut Cursor::new(request.as_bytes())).is_ok()
                }),
            );
            ingest_us.push(
                1e3 * probe_ms(tracer, "serve.parse_ingest", PROBE_REPS, || {
                    wire::parse_ingest(body.as_bytes()).is_ok()
                }),
            );
        }
        let version = session.tables().len() as u64;
        snapshot_us.push(
            1e3 * probe_ms(tracer, "serve.snapshot_build", PROBE_REPS, || {
                ShardSnapshot::from_session(version, session)
            }),
        );
        let snapshot = ShardSnapshot::from_session(version, session);
        render_us.push(
            1e3 * probe_ms(tracer, "serve.render_query", PROBE_REPS, || {
                wire::query_body(QueryView::Table, 0, &snapshot)
            }),
        );
        bytes.push(wire::query_body(QueryView::Table, 0, &snapshot).len() as f64);
    }
    out.set("serve.http_parse_us", median(&http_us));
    out.set("serve.parse_ingest_us", median(&ingest_us));
    out.set("serve.snapshot_build_us", median(&snapshot_us));
    out.set("serve.render_query_us", median(&render_us));
    out.set("serve.query_bytes", median(&bytes));

    let server = LakeServer::start(ServePolicy::default()).map_err(|e| e.to_string())?;
    let client = ServeClient::new(server.addr());
    let connects: Vec<f64> = (0..30)
        .map(|_| tracer.timed("serve.connect", || client.health().is_ok_and(|r| r.status == 200)))
        .filter_map(|(healthy, ms)| healthy.then_some(ms * 1e3))
        .collect();
    server.shutdown();
    out.set("serve.connect_us", median(&connects));
    Ok(())
}

/// Everything the traced mode measures on the lakes themselves.
fn lake_layers(
    config: &RunConfig,
    tracer: &mut Tracer,
    sets: &[LakeSet],
    out: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let lakes = recomposition(tracer, sets, RECOMPOSE_SHARE * config.seconds, out, problems)?;
    fold_probes(tracer, &lakes, out);
    runtime_probe(tracer, &lakes, out);
    let sessions =
        session_replays(tracer, sets, &lakes, REPLAY_SHARE * config.seconds, out, problems)?;
    store_probes(tracer, &sessions, &config.scratch, out, problems)?;
    serve_probes(tracer, &sessions, out)
}

fn finish(
    tracer: &Tracer,
    mut out: Metrics,
    mut problems: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: u64,
) -> Outcome {
    out.set("lakebench.spans", tracer.spans().len() as f64);
    out.set("lakebench.output_digest", (digest & 0xFFFF_FFFF_FFFF) as f64);
    for spec in &PER_LAYER {
        if !out.0.iter().any(|(name, _)| *name == spec.name) {
            problems.push(format!("metric {} was not measured", spec.name));
        }
    }
    let attempted = attempted + tracer.spans().len() as u64;
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: if problems.is_empty() { failed } else { attempted },
        metrics: out.0,
        digest,
        problems,
    }
}

/// Runs a library workload in traced mode and reports the per-layer
/// metrics.
pub fn run_library(config: &RunConfig, inputs: &Inputs) -> Outcome {
    let sets = &inputs.sets;
    let mut tracer = Tracer::new();
    let mut out = Metrics::default();
    let mut problems = Vec::new();

    // The workload's own unit, untraced, as the reference the layer
    // numbers are read against.
    let mut unit_ms = Vec::new();
    let mut digest = 0;
    let mut tuples = 0;
    for _ in 0..=library::MIN_SAMPLES {
        let start = Instant::now();
        let unit = sets.iter().try_fold(Vec::new(), |mut done, set| {
            let tables = parse_tables(&set.sources)?;
            done.push(library::integrate_set(set, &tables)?);
            Ok::<_, String>(done)
        });
        unit_ms.push(ms(start.elapsed()));
        match unit {
            Ok(lakes) => {
                tuples = lakes.iter().map(|l| l.table().len()).sum();
                digest = library::fold_digests(
                    lakes.iter().map(|l| library::table_digest(l.table()).unwrap_or(0)),
                );
            }
            Err(problem) => problems.push(problem),
        }
    }
    out.set("lakebench.unit_ms", fastest(&unit_ms[1..]));
    out.set("lakebench.output_tuples", tuples as f64);
    for name in SERVED_ONLY {
        out.set(name, 0.0);
    }
    if let Err(problem) = lake_layers(config, &mut tracer, sets, &mut out, &mut problems) {
        problems.push(problem);
    }
    finish(&tracer, out, problems, unit_ms.len() as u64, 0, digest)
}

/// Metrics only the served workload observes; `0` where nothing is served.
const SERVED_ONLY: [&str; 9] = [
    "lakebench.ack_p90_ms",
    "lakebench.query_p90_ms",
    "serve.ack_over_10ms_share",
    "serve.query_over_20ms_share",
    "serve.gen_late_share",
    "serve.paced_backlog",
    "serve.rejected",
    "serve.acks",
    "serve.queries",
];

/// Runs the served workload in traced mode: the paced and burst phases
/// (their requests become spans), then the layer phases on each shard's
/// lake.
pub fn run_served(config: &RunConfig, prepared: &serve::Prepared) -> Outcome {
    let mut tracer = Tracer::new();
    let mut out = Metrics::default();
    let served = RunConfig { seconds: SERVED_SHARE * config.seconds, ..config.clone() };
    let seen = serve::measure(&served, prepared);
    let mut problems = seen.problems.clone();
    for paced in &seen.paced {
        for (name, requests) in [("serve.ingest", &paced.acks), ("serve.query", &paced.queries)] {
            for request in requests {
                tracer.record(name, request.sent, request.done);
            }
        }
    }

    let (acks, queries, late) = (seen.ack_ms(), seen.query_ms(), seen.late_ms());
    out.set("serve.ack_over_10ms_share", share_above(&acks, 10.0));
    out.set("serve.query_over_20ms_share", share_above(&queries, 20.0));
    out.set("serve.gen_late_share", share_above(&late, 1.0));
    out.set("serve.paced_backlog", seen.paced.iter().map(|p| p.backlog).sum::<usize>() as f64);
    out.set("serve.rejected", seen.paced.iter().map(|p| p.rejected).sum::<u64>() as f64);
    out.set("serve.acks", acks.len() as f64);
    out.set("serve.queries", queries.len() as f64);
    let drains: Vec<f64> = seen.bursts.iter().map(|b| b.drain_s * 1e3).collect();
    out.set("lakebench.unit_ms", fastest(&drains));
    out.set("lakebench.output_tuples", seen.output_tuples as f64);

    if let Err(problem) =
        lake_layers(config, &mut tracer, &prepared.inputs.sets, &mut out, &mut problems)
    {
        problems.push(problem);
    }
    out.set("lakebench.ack_p90_ms", percentile(&acks, 90.0));
    out.set("lakebench.query_p90_ms", percentile(&queries, 90.0));
    finish(&tracer, out, problems, seen.attempted, seen.failed, seen.digest)
}
