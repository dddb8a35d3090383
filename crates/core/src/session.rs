//! Incremental integration sessions for lake-append workloads.
//!
//! There is one integration path, `integration_step`: match the values of
//! every aligned set → rewrite → Full Disjunction, consulting whatever the
//! previous step retained.  [`FuzzyFullDisjunction::integrate`] runs it once
//! over all its tables with nothing retained and drops what it leaves
//! behind, so every call re-embeds every value, re-plans every fold and
//! re-closes every FD component.  Data lakes do not arrive like that — new
//! tables land against an already-integrated lake.  An
//! [`IntegrationSession`] runs the same step per arrival and keeps
//!
//! * the **warmed embedding cache** — values seen in any earlier call are
//!   never re-embedded (embedding is the simulated-LLM cost the paper
//!   amortises, so this is the dominant saving);
//! * the **column alignment** — header-keyed, so appended columns join
//!   their aligned sets without re-clustering anything;
//! * the **matcher state of every aligned set** — groups, representatives
//!   and occurrence counts survive, and an appended column folds *into*
//!   them ([`ValueMatcher::extend`]) instead of re-running the whole fold
//!   chain: only folds touching the appended tables' columns are
//!   re-planned and re-solved on the shared `lake-runtime` executor;
//! * the **rewritten tables** — a table is rewritten again only when it is
//!   new or a substitution map of one of its columns changed;
//! * the **live FD partition** ([`lake_fd::ComponentCache`]) — the
//!   rewritten rows, the cell index and one closure per join component: the
//!   step diffs the rows, evicts the components a changed or appended row
//!   reaches and re-closes only those.
//!
//! The reuse guarantees are layered: embedding reuse and FD-component reuse
//! are *exact by construction* (pure functions of their inputs; a component
//! is kept only after each of its rows compared equal to the current one),
//! and matcher-state reuse is *guarded*: occurrence
//! counts influence matching only through representative elections, so
//! before extending a set the session re-verifies every election the
//! retained folds consumed under the appended counts
//! ([`ValueMatcher::representatives_stable`]) and re-matches the whole set
//! from scratch on any difference — extension happens only when the
//! retained folds would have made identical decisions under the final
//! counts.  The equivalence harness (`tests/incremental_session.rs`)
//! additionally asserts byte-identical output against
//! [`FuzzyFullDisjunction::integrate`] on the Auto-Join benchmark sets and
//! on representative-flip counterexamples, for every [`IncrementalPolicy`]
//! switch and across worker-thread counts.
//!
//! ```
//! use fuzzy_fd_core::{FuzzyFdConfig, IntegrationSession};
//! use lake_table::TableBuilder;
//!
//! let cases = TableBuilder::new("cases", ["City", "Total Cases"])
//!     .row(["Berlin", "1.4M"])
//!     .row(["Boston", "263K"])
//!     .build()
//!     .unwrap();
//! let rates = TableBuilder::new("rates", ["City", "Vaccination Rate"])
//!     .row(["Berlinn", "63%"])
//!     .row(["Boston", "62%"])
//!     .build()
//!     .unwrap();
//! let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[cases, rates]).unwrap();
//! assert_eq!(session.current().table.len(), 2);
//!
//! // A new portal arrives later: only its folds are planned, everything
//! // already embedded stays cached.
//! let deaths = TableBuilder::new("deaths", ["City", "Death Rate"])
//!     .row(["berlin", "147"])
//!     .build()
//!     .unwrap();
//! let outcome = session.add_table(&deaths).unwrap();
//! assert_eq!(outcome.table.len(), 2); // berlin merges into the Berlin tuple
//! assert_eq!(outcome.incremental.appended_tables, 1);
//! ```
//!
//! [`FuzzyFullDisjunction::integrate`]: crate::FuzzyFullDisjunction::integrate

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lake_embed::EmbeddingCache;
use lake_fd::{ComponentCache, IntegrationSchema};
use lake_runtime::{ParallelPolicy, RuntimeStats};
use lake_schema_match::{align_by_headers, Alignment};
use lake_table::{ColumnRef, Table, TableResult, Value};

use crate::blocking::BlockingStats;
use crate::config::{FuzzyFdConfig, IncrementalPolicy};
use crate::pipeline::FuzzyFdReport;
use crate::rewrite::{build_substitutions, refresh_rewritten};
use crate::value_match::{MatcherState, ValueGroup, ValueMatcher};

/// What one [`IntegrationSession::add_tables`] call reused and what it had
/// to recompute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Tables appended by this call.
    pub appended_tables: usize,
    /// Aligned sets whose retained matcher state absorbed at least one
    /// appended column (only the appended folds were planned).
    pub refolded_sets: usize,
    /// Aligned sets matched from scratch — newly multi-table sets, and every
    /// set when [`IncrementalPolicy::reuse_untouched_sets`] is off.
    pub rebuilt_sets: usize,
    /// Aligned sets untouched by the appended tables, reused without
    /// planning a single fold.
    pub reused_sets: usize,
    /// Embedding-cache hits during this call (appended values already seen
    /// in an earlier call, plus representative re-checks).
    pub embed_hits: u64,
    /// Embedding-cache misses during this call (genuinely new values).
    pub embed_misses: u64,
}

/// The result of one incremental step: the full current integration plus
/// what this step actually cost.
///
/// `table` and `value_groups` describe the whole session lake — kept equal
/// to what batch re-integration of all session tables would return, via the
/// session's drift guard (see the [module docs](self) for the exact
/// guarantee layering); `report` and `incremental` describe only this
/// call's work — in particular `report.blocking.folds` counts the folds
/// this call re-planned, which for an append is strictly fewer than a batch
/// run would plan.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The integrated (Full Disjunction) table over every session table.
    pub table: lake_fd::IntegratedTable,
    /// For every multi-table aligned set: the source columns (in matching
    /// order) and the current value groups.
    pub value_groups: Vec<(Vec<ColumnRef>, Vec<ValueGroup>)>,
    /// Execution statistics of this call (blocking/fold counters cover only
    /// the folds this call planned).
    pub report: FuzzyFdReport,
    /// Reuse accounting of this call.
    pub incremental: IncrementalStats,
}

/// Retained per-aligned-set state: the columns folded so far (sorted, the
/// fold order), the live matcher state (group snapshots are derived from it
/// on demand — see [`MatcherState::groups`]) and the substitution maps its
/// groups gave when a column was last folded in.
#[derive(Debug, Clone, Default)]
struct SetState {
    columns: Vec<ColumnRef>,
    state: MatcherState,
    substitutions: HashMap<ColumnRef, HashMap<Value, Value>>,
}

/// What one [`integration_step`] leaves for the next.  The default — no
/// matcher state, no rewritten tables, no live FD partition, no schema — is
/// what the batch operator starts from (and it drops what the step leaves
/// behind).
#[derive(Debug, Default)]
pub(crate) struct Retained {
    /// Live matcher state keyed by `(header key, ordinal)` — the ordinal
    /// disambiguates the rare case of several aligned sets sharing one
    /// header (duplicate headers within a table).
    sets: HashMap<(String, usize), SetState>,
    /// The rewritten tables of the previous step and, beside each, its
    /// count of rewritten cells: a table is rewritten again only when it is
    /// new or a substitution map of one of its columns changed.
    rewritten: Vec<Table>,
    rewritten_cells: Vec<usize>,
    /// The live FD partition; `None` closes every component every time.
    fd_cache: Option<ComponentCache>,
    /// The integration schema of the previous step (what
    /// [`IntegrationSession::schema`] hands out).
    last_schema: Option<IntegrationSchema>,
}

/// A stateful integration handle over a growing set of tables.
///
/// Columns are aligned by matching headers (the alignment that is
/// incremental by construction: an appended column joins the set its header
/// names, or starts a new one).  See the [module docs](self) for the reuse
/// architecture and the equivalence guarantees, and
/// [`IncrementalPolicy`] for the A/B switches.
pub struct IntegrationSession {
    config: FuzzyFdConfig,
    policy: IncrementalPolicy,
    tables: Vec<Arc<Table>>,
    embedder: EmbeddingCache<Box<dyn lake_embed::Embedder>>,
    retained: Retained,
    latest: Arc<IncrementalOutcome>,
    /// Number of tables appended by each `add_tables` call, in call order
    /// (the first entry is the `begin` batch).  The session is a pure,
    /// deterministic function of these batch boundaries, which is what lets
    /// `lake-store` restore a session — warmed caches included — by
    /// replaying the same calls.
    batch_sizes: Vec<usize>,
}

impl std::fmt::Debug for IntegrationSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntegrationSession")
            .field("tables", &self.tables.len())
            .field("sets", &self.retained.sets.len())
            .field("cached_embeddings", &self.embedder.len())
            .field("cached_components", &self.retained.fd_cache.as_ref().map_or(0, |c| c.len()))
            .finish()
    }
}

impl IntegrationSession {
    /// Opens a session by integrating `tables` (the initial lake; may be
    /// empty), under the default [`IncrementalPolicy`].
    ///
    /// # Errors
    /// Returns an error when the configuration is invalid
    /// ([`FuzzyFdConfig::validate`]) or a table lookup fails.
    pub fn begin(config: FuzzyFdConfig, tables: &[Table]) -> TableResult<Self> {
        IntegrationSession::begin_with_policy(config, IncrementalPolicy::default(), tables)
    }

    /// As [`begin`](Self::begin) with an explicit reuse policy.
    pub fn begin_with_policy(
        config: FuzzyFdConfig,
        policy: IncrementalPolicy,
        tables: &[Table],
    ) -> TableResult<Self> {
        if let Err(error) = config.validate() {
            return Err(lake_table::TableError::InvalidConfig(error));
        }
        let mut session = IntegrationSession {
            config,
            policy,
            tables: Vec::new(),
            embedder: EmbeddingCache::new(config.model.build()),
            retained: Retained {
                fd_cache: Some(ComponentCache::with_capacity(policy.max_cached_components)),
                ..Retained::default()
            },
            batch_sizes: Vec::new(),
            latest: Arc::new(IncrementalOutcome {
                table: lake_fd::IntegratedTable::new(Vec::new(), Vec::new()),
                value_groups: Vec::new(),
                report: FuzzyFdReport::default(),
                incremental: IncrementalStats::default(),
            }),
        };
        session.add_tables(tables)?;
        Ok(session)
    }

    /// The session's configuration.
    pub fn config(&self) -> &FuzzyFdConfig {
        &self.config
    }

    /// The session's reuse policy.
    pub fn policy(&self) -> &IncrementalPolicy {
        &self.policy
    }

    /// Every table integrated so far, in arrival order — shared, so a
    /// published snapshot takes the list by pointer bumps, not copies.
    pub fn tables(&self) -> &[Arc<Table>] {
        &self.tables
    }

    /// The most recent integration outcome (initially the outcome of the
    /// tables the session was opened with).
    pub fn current(&self) -> &IncrementalOutcome {
        &self.latest
    }

    /// A shared handle to the most recent outcome.
    ///
    /// The retained outcome lives behind an `Arc`, so taking a snapshot is
    /// a reference-count bump — no copy of the integrated table.  This is
    /// the accessor the serving layer publishes to concurrent readers:
    /// they hold the `Arc` while the session mutates on, and the snapshot
    /// they observed stays immutable and valid.
    pub fn snapshot(&self) -> Arc<IncrementalOutcome> {
        Arc::clone(&self.latest)
    }

    /// The integration schema of the most recent call: which base-table
    /// columns landed in which integrated column.  `None` only before the
    /// first (possibly empty) integration finishes — i.e. never on a
    /// constructed session, since `begin` integrates its initial tables.
    pub fn schema(&self) -> Option<&IntegrationSchema> {
        self.retained.last_schema.as_ref()
    }

    /// `(hits, misses)` of the session's embedding cache, accumulated over
    /// every call.
    pub fn embedding_stats(&self) -> (u64, u64) {
        self.embedder.stats()
    }

    /// `(hits, misses)` of the session's FD component cache, accumulated
    /// over every call: components kept as they were, and components closed.
    pub fn fd_cache_stats(&self) -> (u64, u64) {
        self.retained.fd_cache.as_ref().map_or((0, 0), ComponentCache::stats)
    }

    /// Number of tables appended by each `add_tables` call so far, in call
    /// order; the first entry is the batch `begin` integrated (possibly 0).
    ///
    /// Together with [`tables`](Self::tables) this fully determines the
    /// session: replaying the same tables with the same call boundaries
    /// reproduces every outcome, cache counter and retained state exactly —
    /// the contract `lake-store` snapshot/restore is built on.
    pub fn batch_sizes(&self) -> &[usize] {
        &self.batch_sizes
    }

    /// Appends one table and re-integrates incrementally.
    pub fn add_table(&mut self, table: &Table) -> TableResult<Arc<IncrementalOutcome>> {
        self.add_tables(std::slice::from_ref(table))
    }

    /// Appends a batch of tables and re-integrates incrementally: every
    /// aligned set touched by the appended columns folds them in (one
    /// planned fold per appended column), untouched sets are reused
    /// outright, and the Full Disjunction recomputes only the join
    /// components the rewrites actually changed.
    ///
    /// The outcome is the one the session retains (what
    /// [`snapshot`](Self::snapshot) hands out until the next call), shared,
    /// not copied.
    pub fn add_tables(&mut self, new_tables: &[Table]) -> TableResult<Arc<IncrementalOutcome>> {
        let first_new = self.tables.len();
        self.tables.extend(new_tables.iter().cloned().map(Arc::new));
        self.batch_sizes.push(new_tables.len());
        if !self.policy.reuse_untouched_sets {
            self.retained.sets.clear();
        }
        let alignment = align_by_headers(&self.tables);
        let outcome = integration_step(
            &self.config,
            &self.embedder,
            &self.tables,
            first_new,
            &alignment,
            &mut self.retained,
        )?;
        self.latest = Arc::new(outcome);
        Ok(Arc::clone(&self.latest))
    }
}

/// The one integration path: matches the values of every aligned set of
/// `tables` (of which `tables[first_new..]` are new since the step that left
/// `retained`), rewrites them to their representatives and runs the Full
/// Disjunction, then leaves its own state in `retained`.
///
/// What the step reuses depends only on what it finds there: a set whose
/// retained matcher state covers exactly its old columns folds just the new
/// ones in (or is reused outright when it has none), any other set is
/// matched from its columns; with a component cache the FD re-closes only
/// the components a changed or new row reaches, without one it closes every
/// component.
pub(crate) fn integration_step<T: Borrow<Table>>(
    config: &FuzzyFdConfig,
    embedder: &EmbeddingCache<Box<dyn lake_embed::Embedder>>,
    tables: &[T],
    first_new: usize,
    alignment: &Alignment,
    retained: &mut Retained,
) -> TableResult<IncrementalOutcome> {
    let (embed_hits_before, embed_misses_before) = embedder.stats();
    let matcher = ValueMatcher::new(embedder, *config);

    #[expect(
        clippy::disallowed_methods,
        reason = "observability only — the elapsed time feeds IncrementalStats phase attribution \
                  and never flows into integrated state, so replay stays deterministic"
    )]
    let matching_start = Instant::now();
    let mut incremental = IncrementalStats {
        appended_tables: tables.len() - first_new,
        ..IncrementalStats::default()
    };
    let mut blocking = BlockingStats::default();
    let mut embed_runtime = RuntimeStats::default();
    let mut next_sets: HashMap<(String, usize), SetState> = HashMap::new();
    let mut all_groups: Vec<(Vec<ColumnRef>, Vec<ValueGroup>)> = Vec::new();
    // Tables whose retained rewritten copy a changed substitution map
    // invalidates.
    let mut stale = vec![false; tables.len()];
    let mut ordinals: HashMap<String, usize> = HashMap::new();
    let mut aligned_sets = 0usize;

    for group in alignment.multi_table_groups() {
        aligned_sets += 1;
        let mut columns: Vec<ColumnRef> = group.clone();
        columns.sort();
        let key = {
            let first = columns[0];
            let table = tables[first.table].borrow();
            let name = table.schema().column(first.column)?.name.trim().to_lowercase();
            let ordinal = ordinals.entry(name.clone()).or_insert(0);
            let key = (name, *ordinal);
            *ordinal += 1;
            key
        };
        let split = columns.partition_point(|cref| cref.table < first_new);
        let (old_columns, new_columns) = columns.split_at(split);

        let prior = retained
            .sets
            .remove(&key)
            // The retained state is only valid if it was folded over
            // exactly the columns that precede the appended ones.
            .filter(|entry| entry.columns == old_columns);

        // Drift guard: retained folds ran under the occurrence counts of
        // their time.  If the appended columns' counts would change any
        // representative election a retained fold consumed, that fold
        // would have matched differently under the final counts — so
        // the set re-matches from scratch instead of extending (the
        // equivalence the session promises beats the saved folds).
        let (prior, to_fold) = match prior {
            Some(entry) if !new_columns.is_empty() => {
                let new_values = column_values(tables, new_columns)?;
                if matcher.representatives_stable(&entry.state, &new_values) {
                    (Some(entry), new_values)
                } else {
                    (None, column_values(tables, &columns)?)
                }
            }
            Some(entry) => (Some(entry), Vec::new()),
            None => (None, column_values(tables, &columns)?),
        };

        // Fold the columns still to be matched — all of them onto a fresh
        // state, the appended ones onto a retained one, none for a set the
        // new tables do not touch.
        let counted = match &prior {
            None => &mut incremental.rebuilt_sets,
            Some(_) if to_fold.is_empty() => &mut incremental.reused_sets,
            Some(_) => &mut incremental.refolded_sets,
        };
        *counted += 1;
        let rebuilt = prior.is_none();
        let mut entry = prior.unwrap_or_default();
        let groups = if to_fold.is_empty() {
            entry.state.groups()
        } else {
            embed_runtime.merge(&warm_embedding_cache(config, embedder, &to_fold));
            blocking.merge(&matcher.extend(&mut entry.state, &to_fold));
            entry.columns = columns.clone();
            // The fold may have moved a map under an old column (a
            // re-elected representative, a newly matched value); a rebuilt
            // set's previous maps are gone, so all its tables count as moved.
            let groups = entry.state.groups();
            let substitutions = build_substitutions(&columns, &groups);
            for column in &columns {
                stale[column.table] |=
                    rebuilt || substitutions.get(column) != entry.substitutions.get(column);
            }
            entry.substitutions = substitutions;
            groups
        };
        all_groups.push((columns, groups));
        next_sets.insert(key, entry);
    }
    retained.sets = next_sets;

    refresh_rewritten(
        tables,
        retained.sets.values().flat_map(|entry| &entry.substitutions),
        &stale,
        &mut retained.rewritten,
        &mut retained.rewritten_cells,
    )?;
    let rewritten_tables = &retained.rewritten;
    let rewritten_cells = retained.rewritten_cells.iter().sum();
    let matching_time = matching_start.elapsed();

    #[expect(
        clippy::disallowed_methods,
        reason = "observability only — phase timing for stats, not replayed state"
    )]
    let fd_start = Instant::now();
    let schema = IntegrationSchema::from_aligned_sets(rewritten_tables, alignment.groups());
    // The FD stage shares the matcher's thread semantics: component closures
    // run on the same work-stealing executor as the block solves, and the
    // result is identical across worker counts.
    let threads = config.matching_threads;
    let (table, fd_stats) = match &mut retained.fd_cache {
        Some(cache) => {
            lake_fd::incremental_full_disjunction_with(&schema, rewritten_tables, threads, cache)
        }
        None => lake_fd::parallel_full_disjunction_with(&schema, rewritten_tables, threads),
    };
    retained.last_schema = Some(schema);
    let fd_time = fd_start.elapsed();

    let (embed_hits, embed_misses) = embedder.stats();
    incremental.embed_hits = embed_hits - embed_hits_before;
    incremental.embed_misses = embed_misses - embed_misses_before;

    let report = FuzzyFdReport {
        aligned_sets,
        value_groups: all_groups.iter().map(|(_, g)| g.len()).sum(),
        matched_groups: all_groups
            .iter()
            .flat_map(|(_, g)| g.iter())
            .filter(|g| !g.is_singleton())
            .count(),
        rewritten_cells,
        blocking,
        embed_runtime,
        matching_time,
        fd_time,
        fd_stats,
    };
    Ok(IncrementalOutcome { table, value_groups: all_groups, report, incremental })
}

/// Warms the embedding cache for one aligned set's columns on the shared
/// executor, so the fold loop's embed calls all hit.
///
/// Every distinct present value string is eventually embedded by the
/// matcher (as a singleton, fuzzy candidate or representative), so
/// warming embeds nothing extra — it only moves the work ahead of the
/// sequential fold loop, where it can spread across workers.  Under
/// `matching_threads == 1` there is nothing to spread and the warm-up is
/// skipped entirely; in auto mode it gates on the total rendered length.
/// Already-cached values make the warm-up a cheap no-op.
fn warm_embedding_cache(
    config: &FuzzyFdConfig,
    embedder: &EmbeddingCache<Box<dyn lake_embed::Embedder>>,
    column_values: &[Vec<Value>],
) -> RuntimeStats {
    /// Auto-gate floor for the warm-up batch, in rendered characters
    /// (the cost hint of one embedding task).
    const MIN_AUTO_EMBED_CHARS: u64 = 16_384;
    if config.matching_threads == 1 {
        return RuntimeStats::default();
    }
    let policy =
        ParallelPolicy { threads: config.matching_threads, min_auto_cost: MIN_AUTO_EMBED_CHARS };
    let mut seen = std::collections::HashSet::new();
    let mut rendered: Vec<String> = Vec::new();
    for column in column_values {
        for value in column {
            if value.is_present() {
                let text = value.render().into_owned();
                if seen.insert(text.clone()) {
                    rendered.push(text);
                }
            }
        }
    }
    let values: Vec<&str> = rendered.iter().map(String::as_str).collect();
    embedder.embed_batch_with_stats(&values, &policy).1
}

/// Extracts the (cloned) value columns of an aligned set, in fold order.
fn column_values<T: Borrow<Table>>(
    tables: &[T],
    columns: &[ColumnRef],
) -> TableResult<Vec<Vec<Value>>> {
    columns
        .iter()
        .map(|cref| {
            tables[cref.table]
                .borrow()
                .column_values(cref.column)
                .map(|vs| vs.into_iter().cloned().collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::figure1_tables;
    use crate::pipeline::FuzzyFullDisjunction;
    use lake_table::TableBuilder;

    #[test]
    fn session_over_figure1_matches_batch() {
        let tables = figure1_tables();
        let batch = FuzzyFullDisjunction::default().integrate_by_headers(&tables).unwrap();

        // All three tables at once.
        let session = IntegrationSession::begin(FuzzyFdConfig::default(), &tables).unwrap();
        assert_eq!(session.current().table, batch.table);
        assert_eq!(session.current().value_groups, batch.value_groups);
        assert_eq!(session.current().incremental.rebuilt_sets, 2);

        // Two tables, then the third appended.
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        let outcome = session.add_table(&tables[2]).unwrap();
        assert_eq!(outcome.table, batch.table);
        assert_eq!(outcome.value_groups, batch.value_groups);
        // T3 only brings a City column: the City set refolds (one fold —
        // the retained folds consumed only single-member elections, which
        // no count change can flip), the Country set is reused untouched.
        assert_eq!(outcome.incremental.refolded_sets, 1);
        assert_eq!(outcome.incremental.rebuilt_sets, 0);
        assert_eq!(outcome.incremental.reused_sets, 1);
        assert_eq!(outcome.report.blocking.folds, 1);
        assert!(outcome.report.blocking.folds < batch.report.blocking.folds);
    }

    #[test]
    fn batch_is_the_first_step_of_a_session() {
        // One path: apart from wall-clock fields, a batch call and opening a
        // session over the same tables report the same work.
        let autojoin =
            lake_benchdata::generate_autojoin_benchmark(lake_benchdata::AutoJoinConfig {
                num_sets: 1,
                values_per_column: 40,
                ..Default::default()
            });
        for tables in [figure1_tables(), autojoin[0].tables()] {
            let config = FuzzyFdConfig::default();
            let batch = FuzzyFullDisjunction::new(config).integrate_by_headers(&tables).unwrap();
            let session = IntegrationSession::begin(config, &tables).unwrap();
            let first = session.current();
            assert_eq!(first.table, batch.table);
            assert_eq!(first.value_groups, batch.value_groups);

            let (a, b) = (&first.report, &batch.report);
            assert_eq!(a.aligned_sets, b.aligned_sets);
            assert_eq!(a.value_groups, b.value_groups);
            assert_eq!(a.matched_groups, b.matched_groups);
            assert_eq!(a.rewritten_cells, b.rewritten_cells);
            let untimed = |stats: &BlockingStats| BlockingStats {
                runtime: Default::default(),
                phase: Default::default(),
                ..stats.clone()
            };
            assert_eq!(untimed(&a.blocking), untimed(&b.blocking));
            let unscheduled = |stats: &lake_fd::FdStats| lake_fd::FdStats {
                runtime: Default::default(),
                ..stats.clone()
            };
            assert_eq!(unscheduled(&a.fd_stats), unscheduled(&b.fd_stats));
            assert_eq!(a.fd_stats.runtime.tasks, b.fd_stats.runtime.tasks);
        }
    }

    #[test]
    fn representative_flips_trigger_a_rebuild_and_stay_batch_identical() {
        // Adversarial count flip: "colou" appears once when "colouur" is
        // matched, then a second "colou" arrives and re-elects the group
        // representative.  Extending blindly would keep the group built
        // around the stale representative; the drift guard must rebuild and
        // land exactly on the batch result at every prefix.
        let column_table =
            |name: &str, value: &str| TableBuilder::new(name, ["c"]).row([value]).build().unwrap();
        let tables = [
            column_table("S0", "colour"),
            column_table("S1", "colou"),
            column_table("S2", "colouur"),
            column_table("S3", "colou"),
        ];

        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        for (idx, table) in tables.iter().enumerate().skip(2) {
            let outcome = session.add_table(table).unwrap();
            let reference =
                FuzzyFullDisjunction::default().integrate_by_headers(&tables[..=idx]).unwrap();
            assert_eq!(outcome.table, reference.table, "diverged at prefix {}", idx + 1);
            assert_eq!(outcome.value_groups, reference.value_groups);
        }
        // The flip itself must have been detected at least once.
        let final_outcome = session.current();
        assert!(
            final_outcome.incremental.rebuilt_sets > 0,
            "the duplicate 'colou' must re-elect a representative and force a rebuild: {:?}",
            final_outcome.incremental
        );
    }

    #[test]
    fn appended_values_hit_the_warm_embedding_cache() {
        let tables = figure1_tables();
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        let outcome = session.add_table(&tables[2]).unwrap();
        // "Berlin", "Boston" and "barcelona"'s representative were all seen
        // before; only genuinely new strings may miss.
        assert!(outcome.incremental.embed_hits > 0, "{:?}", outcome.incremental);
        let (hits, _) = session.embedding_stats();
        assert!(hits >= outcome.incremental.embed_hits);
    }

    #[test]
    fn fd_components_reuse_across_appends() {
        // Disjoint keys: appending a table touching one key leaves the other
        // components' closures reusable.
        let mut a = TableBuilder::new("A", ["id", "x"]);
        for i in 0..12 {
            a = a.row([format!("key-entity-{i}"), format!("x{i}")]);
        }
        let b = TableBuilder::new("B", ["id", "y"])
            .row(["key-entity-0", "y0"])
            .row(["key-entity-1", "y1"])
            .build()
            .unwrap();
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &[a.build().unwrap(), b]).unwrap();
        let c = TableBuilder::new("C", ["id", "z"]).row(["key-entity-2", "z2"]).build().unwrap();
        let outcome = session.add_table(&c).unwrap();
        assert!(
            outcome.report.fd_stats.reused_components > 0,
            "untouched components must be reused: {:?}",
            outcome.report.fd_stats
        );
        let (fd_hits, _) = session.fd_cache_stats();
        assert!(fd_hits > 0);
    }

    #[test]
    fn retained_fd_state_is_the_live_lake_after_every_append() {
        // A `serve_mixed`-shaped shard: eight tenants' tables arriving
        // round-robin, 32 appends, several re-electing representatives
        // under old rows; the attribute headers are tenant-private, as in the
        // benchmark, so tenants share the shard, not tuples.  The partition
        // must hold one closure per component of the lake as batch
        // re-integration partitions it — no superseded one, none missing.
        let trace = lake_benchdata::generate_serving_trace(lake_benchdata::ServingTraceConfig {
            tenants: 8,
            tables_per_tenant: 4,
            entities: 12,
            ..Default::default()
        });
        assert_eq!(trace.arrivals.len(), 32);
        let arrivals = trace.arrivals.iter().map(|arrival| {
            let headers =
                arrival.table.schema().names().into_iter().enumerate().map(|(i, name)| {
                    if i == 0 {
                        name.to_string()
                    } else {
                        format!("{}.{name}", arrival.tenant)
                    }
                });
            let mut builder = TableBuilder::new(arrival.table.name(), headers);
            for row in arrival.table.rows() {
                builder = builder.row_values(row.clone());
            }
            builder.build().unwrap()
        });
        let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        let mut lake: Vec<Table> = Vec::new();
        for table in arrivals {
            let live = session.add_table(&table).unwrap().report.fd_stats.clone();
            lake.push(table);
            let batch = FuzzyFullDisjunction::default().integrate_by_headers(&lake).unwrap();
            assert_eq!(session.current().table, batch.table);
            let retained = session.retained.fd_cache.as_ref().unwrap().len();
            assert_eq!(retained, batch.report.fd_stats.components, "{} tables", lake.len());
            assert_eq!(retained, live.components);
            assert_eq!(live.input_tuples, batch.report.fd_stats.input_tuples);
        }
    }

    #[test]
    fn full_recompute_policy_matches_reuse_policy() {
        let tables = figure1_tables();
        let mut reusing =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        let mut recomputing = IntegrationSession::begin_with_policy(
            FuzzyFdConfig::default(),
            IncrementalPolicy::full_recompute(),
            &tables[..2],
        )
        .unwrap();
        let fast = reusing.add_table(&tables[2]).unwrap();
        let slow = recomputing.add_table(&tables[2]).unwrap();
        assert_eq!(fast.table, slow.table);
        assert_eq!(fast.value_groups, slow.value_groups);
        assert_eq!(slow.incremental.reused_sets, 0);
        assert_eq!(slow.incremental.refolded_sets, 0);
        assert!(slow.report.blocking.folds > fast.report.blocking.folds);
    }

    #[test]
    fn empty_session_grows_from_nothing() {
        let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        assert!(session.current().table.is_empty());
        let tables = figure1_tables();
        for table in &tables {
            session.add_table(table).unwrap();
        }
        let batch = FuzzyFullDisjunction::default().integrate_by_headers(&tables).unwrap();
        assert_eq!(session.current().table, batch.table);
        assert_eq!(session.tables().len(), 3);
    }

    #[test]
    fn batch_sizes_record_call_boundaries() {
        let tables = figure1_tables();
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        assert_eq!(session.batch_sizes(), &[2]);
        session.add_table(&tables[2]).unwrap();
        session.add_tables(&[]).unwrap();
        assert_eq!(session.batch_sizes(), &[2, 1, 0]);
        assert_eq!(session.batch_sizes().iter().sum::<usize>(), session.tables().len());
    }

    #[test]
    fn invalid_config_is_rejected_at_session_start() {
        let error = IntegrationSession::begin(FuzzyFdConfig::with_theta(f32::NAN), &[]);
        assert!(error.is_err());
    }

    #[test]
    fn operator_convenience_opens_a_session() {
        let tables = figure1_tables();
        let operator = FuzzyFullDisjunction::default();
        let session = IntegrationSession::begin(*operator.config(), &tables).unwrap();
        let batch = operator.integrate_by_headers(&tables).unwrap();
        assert_eq!(session.current().table, batch.table);
    }
}
