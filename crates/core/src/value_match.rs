//! The Match Values component (paper §2.1–2.2).
//!
//! Given a set of aligned columns, partition their values into disjoint
//! groups of fuzzily-matching values (Definition 2) and pick a representative
//! per group.  The implementation follows the paper's iterative procedure:
//! start from the first column, bipartite-match the current *combined column*
//! against the next column (linear sum assignment over cosine distances,
//! discarding assignments at distance ≥ θ), merge matched values, and repeat
//! until every column has been folded in.
//!
//! Each bipartite step first partitions its candidate space into independent
//! blocks (see [`crate::blocking`]); the dense cartesian matrix of the paper
//! is the fallback for small steps and for
//! [`BlockingPolicy::exhaustive`](crate::config::BlockingPolicy::exhaustive).

use std::collections::HashMap;

use lake_assign::{
    greedy, shortest_augmenting_path, sparse_shortest_augmenting_path, CostMatrix, SparseCostMatrix,
};
use lake_embed::{Embedder, Vector};
use lake_metrics::Stopwatch;
use lake_table::Value;

use crate::blocking::{
    hashed_value_block_keys, plan_cartesian, plan_tier, Block, BlockPlan, BlockingStats, FoldInputs,
};
use crate::config::{AssignmentStrategy, FoldTier, FuzzyFdConfig};

/// Cost assigned to masked (non-candidate) combinations inside a block.
/// Far above any cosine distance (≤ 2) and any sane θ, so a masked pair can
/// be assigned (the solver must produce a maximum matching) but never
/// survives thresholding.
const PRUNED_COST: f64 = 1.0e6;

/// Minimum number of characters a value must have to participate in fuzzy
/// (non-exact) matching.  Shorter values ("1", "A") carry too little signal
/// for an embedding distance to mean anything and are matched only exactly.
const MIN_FUZZY_LENGTH: usize = 2;

/// Index of a column within one aligned column set (0 = first/earliest table).
pub type ColumnPosition = usize;

/// A group of values (across aligned columns) determined to denote the same
/// thing, together with the representative value that will replace all of
/// them before the equi-join Full Disjunction runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueGroup {
    /// The member values, tagged with the column they came from.
    pub members: Vec<(ColumnPosition, Value)>,
    /// The representative (most frequent member; ties go to the earliest
    /// column, per the paper's rule).
    pub representative: Value,
}

impl ValueGroup {
    /// All cross-column member pairs of this group — the unit the Table 1
    /// experiment scores against gold pairs.
    pub fn cross_column_pairs(&self) -> Vec<((ColumnPosition, Value), (ColumnPosition, Value))> {
        let mut out = Vec::new();
        for i in 0..self.members.len() {
            for j in (i + 1)..self.members.len() {
                if self.members[i].0 != self.members[j].0 {
                    out.push((self.members[i].clone(), self.members[j].clone()));
                }
            }
        }
        out
    }

    /// Number of member values.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the group has no members (never produced by the matcher,
    /// but provided alongside [`len`](Self::len) for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` when the group has exactly one member (nothing was matched to
    /// it).  An empty group is *not* a singleton — use
    /// [`is_empty`](Self::is_empty) for that; the two states are distinct so
    /// `is_empty() || is_singleton()` is the "no actual match" predicate.
    pub fn is_singleton(&self) -> bool {
        self.members.len() == 1
    }
}

/// Matches values across aligned columns using a configured embedder.
pub struct ValueMatcher<'a> {
    embedder: &'a dyn Embedder,
    config: FuzzyFdConfig,
}

/// Internal working state of one group during the iterative matching.
#[derive(Debug, Clone)]
struct WorkingGroup {
    members: Vec<(ColumnPosition, Value)>,
    representative: Value,
    embedding: Vector,
}

impl WorkingGroup {
    /// The group of one value, represented by it.
    fn singleton(position: ColumnPosition, value: Value, embedding: Vector) -> Self {
        WorkingGroup { members: vec![(position, value.clone())], representative: value, embedding }
    }
}

/// Persistent matching state of one aligned column set: the working groups,
/// the per-value occurrence counts that drive representative selection, and
/// how many columns have been folded in so far.
///
/// Batch matching ([`ValueMatcher::match_values`]) builds one, folds every
/// column and throws it away.  An
/// [`IntegrationSession`](crate::IntegrationSession) instead retains the
/// state between calls and folds *appended* columns into it via
/// [`ValueMatcher::extend`] — the groups of the already-folded columns are
/// never recomputed, only their representatives are re-checked against the
/// updated occurrence counts.
#[derive(Debug, Clone, Default)]
pub struct MatcherState {
    groups: Vec<WorkingGroup>,
    counts: HashMap<Value, usize>,
    columns_folded: usize,
}

impl MatcherState {
    /// Number of value groups held so far.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` before any column carrying present values has been folded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of columns folded into this state (including the seeding
    /// column and columns that turned out empty).
    pub fn columns_folded(&self) -> usize {
        self.columns_folded
    }

    /// The current value groups, cloned out of the working state (the state
    /// itself stays usable for further [`ValueMatcher::extend`] calls).
    pub fn groups(&self) -> Vec<ValueGroup> {
        self.groups
            .iter()
            .map(|g| ValueGroup {
                members: g.members.clone(),
                representative: g.representative.clone(),
            })
            .collect()
    }

    /// Consumes the state into its value groups (the batch path, where no
    /// further folds will happen).
    pub fn into_groups(self) -> Vec<ValueGroup> {
        self.groups
            .into_iter()
            .map(|g| ValueGroup { members: g.members, representative: g.representative })
            .collect()
    }
}

impl<'a> ValueMatcher<'a> {
    /// Creates a matcher.
    pub fn new(embedder: &'a dyn Embedder, config: FuzzyFdConfig) -> Self {
        ValueMatcher { embedder, config }
    }

    /// Matches the values of a set of aligned columns.
    ///
    /// `columns[i]` holds the values of the i-th aligned column in table
    /// order; duplicates and nulls are tolerated (nulls are ignored, and the
    /// clean-clean assumption means duplicates within a column are simply
    /// collapsed).
    pub fn match_values(&self, columns: &[Vec<Value>]) -> Vec<ValueGroup> {
        self.match_values_with_stats(columns).0
    }

    /// As [`match_values`](Self::match_values), additionally reporting how
    /// the candidate space was blocked and pruned across all fold steps.
    pub fn match_values_with_stats(
        &self,
        columns: &[Vec<Value>],
    ) -> (Vec<ValueGroup>, BlockingStats) {
        let (state, stats) = self.begin(columns);
        (state.into_groups(), stats)
    }

    /// Builds a fresh [`MatcherState`] by folding every column, returning
    /// the state (reusable by [`extend`](Self::extend)) alongside the
    /// blocking statistics.  `begin(columns)` performs exactly the folds of
    /// [`match_values`](Self::match_values).
    pub fn begin(&self, columns: &[Vec<Value>]) -> (MatcherState, BlockingStats) {
        let mut state = MatcherState::default();
        let stats = self.extend(&mut state, columns);
        (state, stats)
    }

    /// Folds additional columns into retained state, continuing the column
    /// positions where the previous folds stopped.
    ///
    /// Occurrence counts are extended with the appended columns' values
    /// first, and every existing group's representative is re-checked
    /// against the updated counts before any fold runs.  The groups of
    /// already-folded columns are otherwise untouched: only the appended
    /// columns are planned, which is why an incremental append re-plans
    /// strictly fewer folds than re-matching the whole set.
    ///
    /// The earlier folds themselves are *not* re-run, so a count change
    /// that re-elects a representative can leave the retained groups
    /// different from what a batch run under the final counts would have
    /// built.  Callers needing batch equivalence must gate on
    /// [`representatives_stable`](Self::representatives_stable) and fall
    /// back to [`begin`](Self::begin) over all columns when it reports
    /// drift — which is exactly what
    /// [`IntegrationSession`](crate::IntegrationSession) does.
    pub fn extend(&self, state: &mut MatcherState, columns: &[Vec<Value>]) -> BlockingStats {
        for column in columns {
            for value in column {
                if value.is_present() {
                    *state.counts.entry(value.clone()).or_insert(0) += 1;
                }
            }
        }
        if !state.groups.is_empty() && !columns.is_empty() {
            for group in &mut state.groups {
                self.refresh_representative(group, &state.counts);
            }
        }

        let mut stats = BlockingStats::default();
        for column in columns {
            let position = state.columns_folded;
            state.columns_folded += 1;
            let distinct = distinct_present(column);
            if state.groups.is_empty() {
                let embeddings = self.embed_all(&distinct);
                for (value, embedding) in distinct.into_iter().zip(embeddings) {
                    state.groups.push(WorkingGroup::singleton(position, value, embedding));
                }
                continue;
            }
            stats.merge(&self.fold_column(&mut state.groups, position, distinct, &state.counts));
        }
        stats
    }

    /// Folds one more column into the current combined column (the groups),
    /// returning the blocking statistics of the fuzzy pass.
    fn fold_column(
        &self,
        groups: &mut Vec<WorkingGroup>,
        position: ColumnPosition,
        values: Vec<Value>,
        counts: &HashMap<Value, usize>,
    ) -> BlockingStats {
        // Which groups already absorbed a value from this column (bipartite
        // constraint: at most one value per column per group).
        let mut group_taken = vec![false; groups.len()];
        let mut leftover: Vec<Value> = Vec::new();

        // Pass 1: exact matches (identical values are at distance 0, so the
        // assignment would match them anyway — doing it first is the
        // optimisation that keeps equi-join workloads cheap).
        let mut member_index: HashMap<Value, usize> = HashMap::new();
        for (g_idx, group) in groups.iter().enumerate() {
            for (_, member) in &group.members {
                member_index.entry(member.clone()).or_insert(g_idx);
            }
        }
        for value in values {
            match member_index.get(&value) {
                Some(&g_idx) if !group_taken[g_idx] => {
                    groups[g_idx].members.push((position, value));
                    group_taken[g_idx] = true;
                    self.refresh_representative(&mut groups[g_idx], counts);
                }
                _ => leftover.push(value),
            }
        }

        // Pass 2: fuzzy matching of the leftovers against the untaken groups.
        // The candidate space is partitioned into blocks first; each block is
        // an independent assignment sub-problem (see `crate::blocking`).
        let candidate_groups: Vec<usize> = (0..groups.len()).filter(|&i| !group_taken[i]).collect();
        // Leftover slots long enough to participate in fuzzy matching, paired
        // with their index back into `leftover`.
        let mut fuzzy_values: Vec<Value> = Vec::new();
        let mut fuzzy_slots: Vec<usize> = Vec::new();
        for (slot, value) in leftover.iter().enumerate() {
            if value.render().chars().count() >= MIN_FUZZY_LENGTH {
                fuzzy_values.push(value.clone());
                fuzzy_slots.push(slot);
            }
        }
        let mut matched_values: Vec<bool> = vec![false; leftover.len()];
        let mut stats = BlockingStats::default();

        let mut leftover_embeddings: Vec<Option<Vector>> = vec![None; leftover.len()];
        if !candidate_groups.is_empty() && !fuzzy_values.is_empty() {
            let value_embeddings = self.embed_all(&fuzzy_values);
            let plan = self.plan_fold(&candidate_groups, groups, &fuzzy_values, &value_embeddings);
            let (accepted, solve_time) = Stopwatch::time(|| {
                self.solve_blocks(&plan.blocks, &candidate_groups, groups, &value_embeddings)
            });
            stats = plan.stats;
            // The assignment solve happens outside the planner, so its wall
            // clock is appended to both the phase and the fold total here.
            stats.phase.assign += solve_time;
            stats.phase.total += solve_time;
            for (row, col) in accepted {
                let g_idx = candidate_groups[row];
                groups[g_idx].members.push((position, fuzzy_values[col].clone()));
                self.refresh_representative(&mut groups[g_idx], counts);
                matched_values[fuzzy_slots[col]] = true;
            }
            // Keep the embeddings of unmatched fuzzy values: pass 3 turns
            // them into singletons and must not embed them a second time.
            for (f_idx, embedding) in value_embeddings.into_iter().enumerate() {
                leftover_embeddings[fuzzy_slots[f_idx]] = Some(embedding);
            }
        }

        // Pass 3: everything still unmatched becomes a new singleton group —
        // "left in a singleton set represented by its embedding".  Values
        // pass 2 did not embed are embedded here, as one batch.
        let unembedded: Vec<Value> = leftover
            .iter()
            .enumerate()
            .filter(|&(idx, _)| !matched_values[idx] && leftover_embeddings[idx].is_none())
            .map(|(_, value)| value.clone())
            .collect();
        let mut fresh = self.embed_all(&unembedded).into_iter();
        for (idx, value) in leftover.into_iter().enumerate() {
            if !matched_values[idx] {
                let embedding = match leftover_embeddings[idx].take() {
                    Some(embedding) => embedding,
                    None => fresh.next().expect("one embedding per unembedded leftover"),
                };
                groups.push(WorkingGroup::singleton(position, value, embedding));
            }
        }
        stats
    }

    /// The embeddings of `values`' renderings, as one batch.
    fn embed_all(&self, values: &[Value]) -> Vec<Vector> {
        let rendered: Vec<_> = values.iter().map(Value::render).collect();
        let rendered: Vec<&str> = rendered.iter().map(AsRef::as_ref).collect();
        self.embedder.embed_many(&rendered)
    }

    /// Plans the blocks of one fuzzy pass.  The fold's size picks the tier
    /// ([`BlockingPolicy::tier`](crate::config::BlockingPolicy)); a cartesian
    /// fold skips input assembly entirely, and only an escalating fold pays
    /// for surface keys.
    fn plan_fold(
        &self,
        candidate_groups: &[usize],
        groups: &[WorkingGroup],
        fuzzy_values: &[Value],
        value_embeddings: &[Vector],
    ) -> BlockPlan {
        let rows = candidate_groups.len();
        let cols = fuzzy_values.len();
        let tier = self.config.blocking.tier(rows, cols);
        if tier == FoldTier::Cartesian {
            return plan_cartesian(rows, cols);
        }
        let row_embeddings: Vec<&Vector> =
            candidate_groups.iter().map(|&g_idx| &groups[g_idx].embedding).collect();
        let col_embeddings: Vec<&Vector> = value_embeddings.iter().collect();
        let ((row_keys, col_keys), key_time) =
            Stopwatch::time(|| fold_surface_keys(tier, candidate_groups, groups, fuzzy_values));
        let input = FoldInputs {
            row_keys: &row_keys,
            col_keys: &col_keys,
            row_embeddings: &row_embeddings,
            col_embeddings: &col_embeddings,
            theta: self.config.theta,
        };
        let mut plan = plan_tier(&input, tier, self.config.blocking.max_component_cells);
        // Key extraction above is hashing work the planner did not see —
        // fold it into the hash phase so the attribution covers the whole
        // planning wall clock.
        plan.stats.phase.hash += key_time;
        plan.stats.phase.total += key_time;
        plan
    }

    /// Solves every block, one after the other on the calling thread, and
    /// returns the accepted `(row, col)` pairs, where `row` indexes
    /// `candidate_groups` and `col` indexes the fuzzy values.  Blocks share
    /// no row and no column, so each is solved on its own.
    ///
    /// Combinations that are not candidate pairs of their block (the planner
    /// measured them at or above the cutoff, or never nominated them) are
    /// masked with [`PRUNED_COST`]: being far above any θ, a masked
    /// assignment is always discarded — blocked mode can only ever match
    /// candidate pairs.
    fn solve_blocks(
        &self,
        blocks: &[Block],
        candidate_groups: &[usize],
        groups: &[WorkingGroup],
        value_embeddings: &[Vector],
    ) -> Vec<(usize, usize)> {
        // Norms are reused across every matrix entry a vector appears in.
        let group_norms: Vec<f32> =
            candidate_groups.iter().map(|&g| groups[g].embedding.norm()).collect();
        let value_norms: Vec<f32> = value_embeddings.iter().map(Vector::norm).collect();

        let solve_one = |block: &Block| -> Vec<(usize, usize)> {
            let (n_rows, n_cols) = (block.rows.len(), block.cols.len());
            let exact = self.solves_exactly(n_rows, n_cols);
            // Local indices of the block's candidates; rows/cols are sorted,
            // so global→local is a binary search.  The planner already
            // measured each candidate's distance — reusing it keeps the
            // matrix entry bit-identical and computed exactly once.
            let local = |&(r, c, cost): &(usize, usize, f32)| {
                let lr = block.rows.binary_search(&r).expect("pair row outside block");
                let lc = block.cols.binary_search(&c).expect("pair col outside block");
                (lr, lc, cost as f64)
            };
            let accepted = match &block.candidates {
                // Sparse fast path: enumerated candidates need no dense
                // matrix under the exact solver — the sparse solver replays
                // the dense big-M arithmetic over candidate cells only,
                // bit-identical by construction (see `lake_assign::sparse`).
                Some(candidates) if exact => {
                    let mut entries: Vec<(usize, usize, f64)> =
                        candidates.iter().map(local).collect();
                    // Canonical plans arrive row-major already; sorting a
                    // sorted run is O(n) and keeps the invariant local.
                    entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
                    let matrix =
                        SparseCostMatrix::from_entries(n_rows, n_cols, PRUNED_COST, &entries)
                            .expect("planner pairs are deduplicated and in range");
                    sparse_shortest_augmenting_path(&matrix)
                        .threshold_with(|r, c| matrix.get(r, c), self.config.theta as f64)
                }
                // Greedy demotions of an enumerated block and cartesian
                // blocks (which have measured nothing yet) go through a
                // dense matrix.
                candidates => {
                    let matrix = match candidates {
                        Some(candidates) => {
                            let mut grid = vec![PRUNED_COST; n_rows * n_cols];
                            for (lr, lc, cost) in candidates.iter().map(local) {
                                grid[lr * n_cols + lc] = cost;
                            }
                            CostMatrix::from_fn(n_rows, n_cols, |r, c| grid[r * n_cols + c])
                        }
                        None => CostMatrix::from_fn(n_rows, n_cols, |r, c| {
                            let (row, col) = (block.rows[r], block.cols[c]);
                            groups[candidate_groups[row]].embedding.cosine_distance_given_norms(
                                group_norms[row],
                                &value_embeddings[col],
                                value_norms[col],
                            ) as f64
                        }),
                    };
                    let assignment =
                        if exact { shortest_augmenting_path(&matrix) } else { greedy(&matrix) };
                    assignment.threshold(&matrix, self.config.theta as f64)
                }
            };
            accepted.pairs.iter().map(|&(r, c)| (block.rows[r], block.cols[c])).collect()
        };

        let mut accepted: Vec<(usize, usize)> = blocks.iter().flat_map(solve_one).collect();
        // Blocks are disjoint, so ordering only affects the order in which
        // members are appended — sort into the canonical `(row, col)` order.
        accepted.sort_unstable();
        accepted
    }

    /// Whether the configured strategy solves a block of the given shape
    /// exactly (`ExactUpTo` demotes oversized blocks to the greedy solver).
    fn solves_exactly(&self, rows: usize, cols: usize) -> bool {
        match self.config.assignment_strategy {
            AssignmentStrategy::AlwaysExact => true,
            AssignmentStrategy::ExactUpTo { max_side } => rows.max(cols) <= max_side,
        }
    }

    /// Recomputes the representative (most frequent member, ties to the
    /// earliest column) and its embedding.
    fn refresh_representative(&self, group: &mut WorkingGroup, counts: &HashMap<Value, usize>) {
        if let Some((_, value)) = elect_representative(&group.members, counts) {
            if *value != group.representative {
                group.representative = value.clone();
                group.embedding = self.embedder.embed(&group.representative.render());
            }
        }
    }

    /// Whether folding `columns`' occurrence counts into `state` would leave
    /// every representative election the retained folds *consumed*
    /// unchanged.
    ///
    /// The retained groups were folded under the counts of the columns
    /// present at the time; an appended duplicate can flip a
    /// most-frequent-member election, and a fold that matched against the
    /// old representative's embedding may then differ from what a batch run
    /// under the final counts would have built.  Counts influence matching
    /// *only* through these elections, and the election a fold consumes is
    /// the one over each group's members **before that fold ran** — so this
    /// checks, per group, the election over every members-prefix at a fold
    /// boundary (members are stored in join order and tagged with their
    /// column position).  The full-member-set election is included whenever
    /// any retained fold ran after the group's last member joined (such
    /// folds matched against it under the old counts); it is exempt only
    /// when the group gained a member in the final retained fold, because
    /// then its next consumer is the appended fold, which re-elects under
    /// the updated counts before running ([`extend`](Self::extend)
    /// refreshes first), exactly as batch would.
    ///
    /// A caller that needs batch equivalence (notably
    /// [`IntegrationSession`](crate::IntegrationSession)) checks this before
    /// [`extend`](Self::extend) and re-matches the whole set from scratch
    /// when it returns `false`: stability here means every retained fold
    /// would have made identical decisions under the appended counts.
    pub fn representatives_stable(&self, state: &MatcherState, columns: &[Vec<Value>]) -> bool {
        // Count only the appended occurrences; the retained totals stay in
        // `state.counts` and are combined per member below (no clone of the
        // full map on the per-append fast path).
        let mut delta: HashMap<&Value, usize> = HashMap::new();
        for column in columns {
            for value in column {
                if value.is_present() {
                    *delta.entry(value).or_insert(0) += 1;
                }
            }
        }
        if delta.is_empty() {
            return true;
        }
        state.groups.iter().all(|group| {
            // Running elections over the join-ordered members, under the old
            // and the appended counts side by side; at each fold boundary
            // (position increase) the consumed election must agree.
            let mut best_old: Option<(&(ColumnPosition, Value), usize)> = None;
            let mut best_new: Option<(&(ColumnPosition, Value), usize)> = None;
            let mut prev_position: Option<ColumnPosition> = None;
            for member in &group.members {
                if prev_position.is_some_and(|p| member.0 > p) {
                    let old = best_old.map(|(m, _)| &m.1);
                    let new = best_new.map(|(m, _)| &m.1);
                    if old != new {
                        return false;
                    }
                }
                prev_position = Some(member.0);
                let count_old = state.counts.get(&member.1).copied().unwrap_or(1);
                let count_new =
                    count_old.saturating_add(delta.get(&member.1).copied().unwrap_or(0));
                let better =
                    |best: &Option<(&(ColumnPosition, Value), usize)>, count: usize| match best {
                        None => true,
                        Some((current, current_count)) => {
                            count > *current_count
                                || (count == *current_count && member.0 < current.0)
                        }
                    };
                if better(&best_old, count_old) {
                    best_old = Some((member, count_old));
                }
                if better(&best_new, count_new) {
                    best_new = Some((member, count_new));
                }
            }
            // The full-member-set election was consumed by every retained
            // fold that ran after the last member joined; only a group that
            // gained a member in the final retained fold has no such
            // consumer (its next one is the appended fold, which re-elects
            // under the new counts first).
            match group.members.last() {
                Some(last) if last.0 + 1 < state.columns_folded => {
                    best_old.map(|(m, _)| &m.1) == best_new.map(|(m, _)| &m.1)
                }
                _ => true,
            }
        })
    }
}

/// The hashed surface keys of one fold's groups and values — computed only
/// for an escalating fold, where they back the ANN index up; the other tiers'
/// candidacy test is purely distance-based, so they get none.  Group keys are
/// rebuilt from the members (duplicates are fine — the planner dedups):
/// escalated folds are rare and large, so the rebuild is noise there, while
/// every other fold stays key-free.
fn fold_surface_keys(
    tier: FoldTier,
    candidate_groups: &[usize],
    groups: &[WorkingGroup],
    fuzzy_values: &[Value],
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    if tier != FoldTier::Escalated {
        return (Vec::new(), Vec::new());
    }
    let row_keys = candidate_groups
        .iter()
        .map(|&g_idx| {
            let mut keys = Vec::new();
            for (_, member) in &groups[g_idx].members {
                keys.extend(hashed_value_block_keys(&member.render()));
            }
            keys
        })
        .collect();
    let col_keys =
        fuzzy_values.iter().map(|value| hashed_value_block_keys(&value.render())).collect();
    (row_keys, col_keys)
}

/// The member a group elects as representative under `counts`: most
/// frequent, ties to the earliest column (the paper's rule).
fn elect_representative<'a>(
    members: &'a [(ColumnPosition, Value)],
    counts: &HashMap<Value, usize>,
) -> Option<&'a (ColumnPosition, Value)> {
    let mut best: Option<(&(ColumnPosition, Value), usize)> = None;
    for member in members {
        let count = counts.get(&member.1).copied().unwrap_or(1);
        let better = match best {
            None => true,
            Some((current, current_count)) => {
                count > current_count || (count == current_count && member.0 < current.0)
            }
        };
        if better {
            best = Some((member, count));
        }
    }
    best.map(|(member, _)| member)
}

/// Convenience wrapper: match the values of aligned columns with a given
/// embedder and configuration.
pub fn match_column_values(
    columns: &[Vec<Value>],
    embedder: &dyn Embedder,
    config: FuzzyFdConfig,
) -> Vec<ValueGroup> {
    ValueMatcher::new(embedder, config).match_values(columns)
}

/// As [`match_column_values`], additionally returning blocking statistics.
pub fn match_column_values_with_stats(
    columns: &[Vec<Value>],
    embedder: &dyn Embedder,
    config: FuzzyFdConfig,
) -> (Vec<ValueGroup>, BlockingStats) {
    ValueMatcher::new(embedder, config).match_values_with_stats(columns)
}

fn distinct_present(column: &[Value]) -> Vec<Value> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for value in column {
        if value.is_present() && seen.insert(value.clone()) {
            out.push(value.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_embed::EmbeddingModel;

    fn values(strings: &[&str]) -> Vec<Value> {
        strings.iter().map(|s| Value::text(*s)).collect()
    }

    fn mistral_groups(columns: &[Vec<Value>]) -> Vec<ValueGroup> {
        let embedder = EmbeddingModel::Mistral.build();
        match_column_values(columns, embedder.as_ref(), FuzzyFdConfig::default())
    }

    #[test]
    fn example4_city_columns() {
        // Figure 2 / Example 4 of the paper: three aligned City columns.
        let columns = vec![
            values(&["Berlinn", "Toronto", "Barcelona", "New Delhi"]),
            values(&["Toronto", "Boston", "Berlin", "Barcelona"]),
            values(&["Berlin", "barcelona", "Boston"]),
        ];
        let groups = mistral_groups(&columns);

        // Expected combined column: Berlin, Toronto, Barcelona, New Delhi, Boston.
        assert_eq!(groups.len(), 5, "{groups:#?}");

        let rep_of = |needle: &str| {
            groups
                .iter()
                .find(|g| g.members.iter().any(|(_, v)| v == &Value::text(needle)))
                .map(|g| g.representative.clone())
        };
        // Berlin appears twice, Berlinn once → Berlin is the representative.
        assert_eq!(rep_of("Berlinn"), Some(Value::text("Berlin")));
        // barcelona (lower case) resolves to the majority spelling Barcelona.
        assert_eq!(rep_of("barcelona"), Some(Value::text("Barcelona")));
        // New Delhi stays a singleton.
        let delhi = groups.iter().find(|g| g.representative == Value::text("New Delhi")).unwrap();
        assert!(delhi.is_singleton());
        // Boston appears in two columns and groups together.
        let boston = groups.iter().find(|g| g.representative == Value::text("Boston")).unwrap();
        assert_eq!(boston.len(), 2);
    }

    #[test]
    fn extending_retained_state_matches_batch_matching() {
        // Folding these columns through begin + extend lands on exactly the
        // groups one batch call produces at every split point.  (Column 2
        // does flip the Berlin representative, but benignly — the earlier
        // folds' matching decisions are unaffected.  `IntegrationSession`
        // does not rely on such luck: it gates on `representatives_stable`
        // and rebuilds on any flip; the harmful-flip case is covered at
        // session level in `tests/incremental_session.rs`.)
        let columns = vec![
            values(&["Berlinn", "Toronto", "Barcelona", "New Delhi"]),
            values(&["Toronto", "Boston", "Berlin", "Barcelona"]),
            values(&["Berlin", "barcelona", "Boston"]),
        ];
        let embedder = EmbeddingModel::Mistral.build();
        let matcher = ValueMatcher::new(embedder.as_ref(), FuzzyFdConfig::default());
        let (batch, batch_stats) = matcher.match_values_with_stats(&columns);

        for split in 0..=columns.len() {
            let (mut state, mut stats) = matcher.begin(&columns[..split]);
            for column in &columns[split..] {
                stats.merge(&matcher.extend(&mut state, std::slice::from_ref(column)));
            }
            assert_eq!(state.columns_folded(), columns.len());
            assert_eq!(state.groups(), batch, "split at {split}");
            assert_eq!(state.into_groups(), batch, "split at {split}");
            // The fold count is the same work, just partitioned differently.
            assert_eq!(stats.folds, batch_stats.folds, "split at {split}");
        }
    }

    #[test]
    fn extend_refreshes_representatives_under_new_counts() {
        // After folding ["Colour"], ["Color"], the tie goes to the earlier
        // column.  A third column repeating "Color" flips the majority; the
        // extended fold must re-elect the representative exactly like a
        // batch run over all three columns would.
        let columns = vec![values(&["Colour"]), values(&["Color"]), values(&["Color"])];
        let embedder = EmbeddingModel::Mistral.build();
        let matcher = ValueMatcher::new(embedder.as_ref(), FuzzyFdConfig::default());
        let batch = matcher.match_values(&columns);

        let (mut state, _) = matcher.begin(&columns[..2]);
        matcher.extend(&mut state, &columns[2..]);
        assert_eq!(state.groups(), batch);
        if batch.len() == 1 {
            assert_eq!(batch[0].representative, Value::text("Color"));
        }
    }

    #[test]
    fn empty_matcher_state_reports_itself() {
        let state = MatcherState::default();
        assert!(state.is_empty());
        assert_eq!(state.len(), 0);
        assert_eq!(state.columns_folded(), 0);
        assert!(state.groups().is_empty());
    }

    #[test]
    fn country_codes_match_with_semantic_embedder_only() {
        let columns = vec![
            values(&["Germany", "Canada", "Spain", "India"]),
            values(&["CA", "US", "DE", "ES"]),
        ];
        let semantic = mistral_groups(&columns);
        // Germany–DE, Canada–CA, Spain–ES matched; India and US unmatched:
        // 4 + 2 - 3 = hold on: groups = 4 originals, DE/CA/ES join them, US new → 5.
        assert_eq!(semantic.len(), 5, "{semantic:#?}");
        let canada = semantic
            .iter()
            .find(|g| g.members.iter().any(|(_, v)| v == &Value::text("CA")))
            .unwrap();
        assert!(canada.members.iter().any(|(_, v)| v == &Value::text("Canada")));

        // The surface-only embedder bridges at most as many code pairs as the
        // semantic one (codes like "DE" share no surface with "Germany"), and
        // it must not correctly resolve the full Germany↔DE pair.
        let fasttext = EmbeddingModel::FastText.build();
        let surface = match_column_values(&columns, fasttext.as_ref(), FuzzyFdConfig::default());
        let matched = |groups: &[ValueGroup]| groups.iter().filter(|g| !g.is_singleton()).count();
        assert!(matched(&surface) <= matched(&semantic));
        let germany_surface = surface
            .iter()
            .find(|g| g.members.iter().any(|(_, v)| v == &Value::text("Germany")))
            .unwrap();
        assert!(
            !germany_surface.members.iter().any(|(_, v)| v == &Value::text("DE")),
            "FastText should not resolve Germany ↔ DE: {surface:#?}"
        );
    }

    #[test]
    fn exact_matches_group_without_fuzzy_work() {
        let columns = vec![values(&["alpha", "beta"]), values(&["beta", "gamma"])];
        let embedder = EmbeddingModel::FastText.build();
        let config = FuzzyFdConfig { theta: 0.0, ..FuzzyFdConfig::default() }; // fuzzy disabled
        let groups = match_column_values(&columns, embedder.as_ref(), config);
        assert_eq!(groups.len(), 3);
        let beta = groups.iter().find(|g| g.representative == Value::text("beta")).unwrap();
        assert_eq!(beta.len(), 2);
    }

    #[test]
    fn bipartite_constraint_prevents_double_matching() {
        // Two near-identical variants in the second column both want "Berlin";
        // only one of them may join the group (clean-clean: they must denote
        // different things because they are in the same column).
        let columns = vec![values(&["Berlin"]), values(&["Berlinn", "Berlln"])];
        let groups = mistral_groups(&columns);
        let berlin_groups: Vec<&ValueGroup> = groups
            .iter()
            .filter(|g| g.members.iter().any(|(_, v)| v == &Value::text("Berlin")))
            .collect();
        assert_eq!(berlin_groups.len(), 1);
        assert_eq!(berlin_groups[0].len(), 2, "exactly one variant joins: {groups:#?}");
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn representative_ties_prefer_the_earlier_column() {
        let columns = vec![values(&["Colour"]), values(&["Color"])];
        let embedder = EmbeddingModel::Mistral.build();
        let groups = match_column_values(&columns, embedder.as_ref(), FuzzyFdConfig::default());
        if groups.len() == 1 {
            // Both appear once; the tie goes to the first column's value.
            assert_eq!(groups[0].representative, Value::text("Colour"));
        }
    }

    #[test]
    fn nulls_and_duplicates_are_ignored() {
        let columns = vec![
            vec![Value::text("x"), Value::Null, Value::text("x")],
            vec![Value::Null, Value::text("x")],
        ];
        let groups = mistral_groups(&columns);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(mistral_groups(&[]).is_empty());
        assert!(mistral_groups(&[vec![], vec![]]).is_empty());
        // First column empty, second column seeds the groups.
        let groups = mistral_groups(&[vec![], values(&["a", "b"])]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn cross_column_pairs_enumerates_matches() {
        let group = ValueGroup {
            members: vec![
                (0, Value::text("Canada")),
                (1, Value::text("CA")),
                (2, Value::text("CAN")),
            ],
            representative: Value::text("Canada"),
        };
        assert_eq!(group.cross_column_pairs().len(), 3);
        let singleton =
            ValueGroup { members: vec![(0, Value::text("x"))], representative: Value::text("x") };
        assert!(singleton.cross_column_pairs().is_empty());
    }

    #[test]
    fn cross_column_pairs_preserve_member_order_and_never_duplicate() {
        // Pairs must come out in member order ((i, j) with i < j), skipping
        // same-column combinations, with no pair enumerated twice.
        let group = ValueGroup {
            members: vec![
                (0, Value::text("a")),
                (1, Value::text("b")),
                (0, Value::text("c")), // same column as the first member
                (2, Value::text("d")),
            ],
            representative: Value::text("a"),
        };
        let pairs = group.cross_column_pairs();
        let expected = vec![
            ((0, Value::text("a")), (1, Value::text("b"))),
            ((0, Value::text("a")), (2, Value::text("d"))),
            ((1, Value::text("b")), (0, Value::text("c"))),
            ((1, Value::text("b")), (2, Value::text("d"))),
            ((0, Value::text("c")), (2, Value::text("d"))),
        ];
        assert_eq!(pairs, expected);
        let unique: std::collections::HashSet<_> = pairs.iter().cloned().collect();
        assert_eq!(unique.len(), pairs.len(), "cross-column pairs must be unique");
    }

    #[test]
    fn empty_and_singleton_are_distinct_states() {
        let empty = ValueGroup { members: vec![], representative: Value::text("x") };
        assert!(empty.is_empty());
        assert!(!empty.is_singleton(), "an empty group is not a singleton");
        assert_eq!(empty.len(), 0);

        let singleton =
            ValueGroup { members: vec![(0, Value::text("x"))], representative: Value::text("x") };
        assert!(!singleton.is_empty());
        assert!(singleton.is_singleton());

        let pair = ValueGroup {
            members: vec![(0, Value::text("x")), (1, Value::text("y"))],
            representative: Value::text("x"),
        };
        assert!(!pair.is_empty());
        assert!(!pair.is_singleton());
    }

    #[test]
    fn matcher_reports_cartesian_stats_on_small_inputs() {
        // Under the default config, a figure-1-sized input stays below the
        // blocking floor: one cartesian block per fold, nothing pruned.
        let columns = vec![values(&["Berlinn", "Toronto"]), values(&["Berlin", "Boston"])];
        let embedder = EmbeddingModel::Mistral.build();
        let matcher = ValueMatcher::new(embedder.as_ref(), FuzzyFdConfig::default());
        let (groups, stats) = matcher.match_values_with_stats(&columns);
        assert!(!groups.is_empty());
        assert_eq!(stats.folds, 1);
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.pruned_pairs, 0);
        assert!(stats.candidate_pairs > 0);
    }

    #[test]
    fn forced_blocking_prunes_disjoint_values_and_still_matches_typos() {
        let columns = vec![
            values(&["Berlin", "Toronto", "Barcelona", "Quito"]),
            values(&["Berlinn", "Torontoo", "Barcelonna", "Lagos"]),
        ];
        let embedder = EmbeddingModel::FastText.build();
        let config = FuzzyFdConfig::default().force_blocking();
        let (groups, stats) = match_column_values_with_stats(&columns, embedder.as_ref(), config);
        assert!(stats.pruned_pairs > 0, "{stats:?}");
        assert!(stats.blocks >= 2, "{stats:?}");
        for (city, typo) in
            [("Berlin", "Berlinn"), ("Toronto", "Torontoo"), ("Barcelona", "Barcelonna")]
        {
            let group = groups
                .iter()
                .find(|g| g.members.iter().any(|(_, v)| v == &Value::text(city)))
                .unwrap();
            assert!(
                group.members.iter().any(|(_, v)| v == &Value::text(typo)),
                "{city} did not absorb {typo}: {groups:#?}"
            );
        }
    }

    #[test]
    fn fold_size_alone_picks_the_tier_and_only_escalation_hashes_keys() {
        let config = FuzzyFdConfig::default();
        let (floor, ceiling) = (config.blocking.min_blocked_pairs, config.blocking.min_fold_pairs);
        assert_eq!(config.blocking.tier(1, floor - 1), FoldTier::Cartesian);
        assert_eq!(config.blocking.tier(1, floor), FoldTier::Exact);
        assert_eq!(config.blocking.tier(1, ceiling - 1), FoldTier::Exact);
        assert_eq!(config.blocking.tier(1, ceiling), FoldTier::Escalated);
        let exhaustive = crate::config::BlockingPolicy::exhaustive();
        assert_eq!(exhaustive.tier(ceiling, ceiling), FoldTier::Cartesian);

        // What `plan_fold` hands the planner as surface keys, per tier.
        let embedding = EmbeddingModel::FastText.build().embed("United Nations");
        let groups = [WorkingGroup::singleton(0, Value::text("United Nations"), embedding)];
        let fuzzy = values(&["UN", "Quito"]);
        for tier in [FoldTier::Cartesian, FoldTier::Exact] {
            let (row_keys, col_keys) = fold_surface_keys(tier, &[0], &groups, &fuzzy);
            assert!(row_keys.is_empty() && col_keys.is_empty(), "{tier:?} hashed keys");
        }
        let (row_keys, col_keys) = fold_surface_keys(FoldTier::Escalated, &[0], &groups, &fuzzy);
        assert_eq!((row_keys.len(), col_keys.len()), (1, 2));
        assert!(row_keys[0].iter().any(|key| col_keys[0].contains(key)), "acronym key missing");
    }

    #[test]
    fn kernel_stats_flow_through_matcher_stats() {
        // With blocking forced on, the exact tier runs the quantized scoring
        // kernel and its counters must surface through the matcher report.
        let columns = vec![
            values(&["Berlin", "Toronto", "Barcelona", "Quito"]),
            values(&["Berlinn", "Torontoo", "Barcelonna", "Lagos"]),
        ];
        let embedder = EmbeddingModel::FastText.build();
        let config = FuzzyFdConfig::default().force_blocking();
        let (_, stats) = match_column_values_with_stats(&columns, embedder.as_ref(), config);
        assert!(stats.kernel.classified() > 0, "{stats:?}");
        assert_eq!(stats.kernel.int8_scored, stats.kernel.skipped + stats.kernel.rescored);
        // Fewer exact f32 dot products than classified pairs is the whole
        // point of the int8 tier.
        assert!(stats.kernel.rescored <= stats.kernel.int8_scored, "{stats:?}");
    }

    #[test]
    fn strict_threshold_disables_fuzzy_matching() {
        let columns = vec![values(&["Berlinn"]), values(&["Berlin"])];
        let embedder = EmbeddingModel::Mistral.build();
        let none = match_column_values(
            &columns,
            embedder.as_ref(),
            FuzzyFdConfig { theta: 0.0, ..FuzzyFdConfig::default() },
        );
        assert_eq!(none.len(), 2);
        let loose = match_column_values(
            &columns,
            embedder.as_ref(),
            FuzzyFdConfig { theta: 0.7, ..FuzzyFdConfig::default() },
        );
        assert_eq!(loose.len(), 1);
    }
}
