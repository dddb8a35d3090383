//! The live partition behind delta-aware Full Disjunction.
//!
//! The closure of a join-connected component is a pure function of its
//! member rows, and an append leaves most components alone.  A
//! [`ComponentCache`] therefore keeps what the last
//! [`incremental_full_disjunction_with`] run saw — every base row, the
//! `(column, value) → component` index and one closure per live component —
//! and the next run pays only for the difference: it compares the rows,
//! evicts the components a changed or new row can reach, and re-closes just
//! those.  Nothing is trusted unchecked: a retained row is compared cell by
//! cell with the current one before its component is kept, and a lake that
//! is not an extension of the retained one starts from empty.
//!
//! [`incremental_full_disjunction_with`]: crate::incremental_full_disjunction_with

use std::collections::HashMap;

use lake_runtime::RuntimeStats;
use lake_table::{ColumnRef, Table, Value};

use crate::schema::IntegrationSchema;
use crate::stats::FdStats;
use crate::tuple::IntegratedTuple;

/// `(table, row)` of a base row.
type RowId = (usize, usize);

/// What is retained of one input table.
#[derive(Debug, Clone)]
struct LiveTable {
    name: String,
    /// The stable key of every source column: the first source column of
    /// the aligned set it belongs to.  Appended tables only ever join a set
    /// behind its first column, so the key survives schema growth while the
    /// integrated column's *position* does not.
    keys: Vec<ColumnRef>,
    rows: Vec<Vec<Value>>,
    /// Slab slot of each row's component (`None` for all-null rows, which
    /// the outer union skips).
    slots: Vec<Option<usize>>,
}

/// One live join-connected component.
#[derive(Debug, Clone)]
struct Component {
    /// Member rows in outer-union order.
    members: Vec<RowId>,
    closure: Vec<IntegratedTuple>,
}

/// The join-connected components of a lake and their closures, kept alive
/// between [`incremental_full_disjunction_with`] runs.
///
/// Each run diffs the lake against the retained rows and re-closes only the
/// components a changed or appended row touches; every other closure is
/// served as is (re-padded when the integration schema moved its columns).
/// A lake that does not extend the retained one — fewer tables, a renamed or
/// resized table, a source column whose aligned set got a new first column —
/// drops the state, so one cache may be handed unrelated lakes safely.
///
/// **Bound.**  The retained state is the lake and nothing else: one row per
/// base row, one index entry per distinct `(column, value)` cell and one
/// closure per *live* component — never a superseded one, so
/// [`len`](Self::len) equals [`FdStats::components`] after every run.  A lake
/// with more components than the capacity retains nothing (the next run
/// closes everything again).
///
/// [`incremental_full_disjunction_with`]: crate::incremental_full_disjunction_with
///
/// ```
/// use lake_fd::{incremental_full_disjunction_with, ComponentCache, IntegrationSchema};
/// use lake_table::TableBuilder;
///
/// let tables = vec![
///     TableBuilder::new("A", ["id", "x"]).row(["k1", "x1"]).build().unwrap(),
///     TableBuilder::new("B", ["id", "y"]).row(["k1", "y1"]).build().unwrap(),
/// ];
/// let schema = IntegrationSchema::from_matching_headers(&tables);
/// let mut cache = ComponentCache::default();
/// let (first, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
/// assert_eq!(stats.reused_components, 0, "a cold cache reuses nothing");
/// let (second, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
/// assert_eq!(first, second);
/// assert_eq!(stats.reused_components, stats.components, "a warm re-run reuses everything");
/// ```
#[derive(Debug, Clone)]
pub struct ComponentCache {
    capacity: usize,
    hits: u64,
    misses: u64,
    tables: Vec<LiveTable>,
    /// The column key of every integrated column of the last run's schema.
    layout: Vec<ColumnRef>,
    /// `column key → value → slot` of the component holding that cell: the
    /// `seen` map of [`join_components`](crate::components::join_components),
    /// kept alive.  A cell occurs in exactly one component.
    index: HashMap<ColumnRef, HashMap<Value, usize>>,
    /// Slab of live components; `free` lists its empty slots.
    components: Vec<Option<Component>>,
    free: Vec<usize>,
    /// The rows [`stage`](Self::stage) handed out for closing, in pool order,
    /// until [`commit`](Self::commit) registers their components.
    staged: Vec<RowId>,
}

impl Default for ComponentCache {
    fn default() -> Self {
        ComponentCache::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl ComponentCache {
    /// Default component bound, shared with
    /// `IncrementalPolicy::max_cached_components` in `fuzzy-fd-core`: far
    /// above any benchmark lake (the IMDB fold peaks at ~20k components)
    /// while bounding worst-case memory on key-explosive inputs.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// An empty cache retaining lakes of at most `capacity` components (`0`
    /// retains nothing: every run closes every component).
    pub fn with_capacity(capacity: usize) -> Self {
        ComponentCache {
            capacity,
            hits: 0,
            misses: 0,
            tables: Vec::new(),
            layout: Vec::new(),
            index: HashMap::new(),
            components: Vec::new(),
            free: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Number of live components (each holding its closure).
    pub fn len(&self) -> usize {
        self.components.len() - self.free.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` over the cache's lifetime: components kept as they
    /// were, and components closed.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops the retained lake (counters are kept — they describe runs, not
    /// contents).
    pub fn clear(&mut self) {
        let (hits, misses) = (self.hits, self.misses);
        *self = ComponentCache { hits, misses, ..ComponentCache::with_capacity(self.capacity) };
    }

    /// Brings the retained lake up to `tables` under `schema` and returns
    /// the padded rows whose components must be closed — the whole outer
    /// union on a cold or foreign cache, the touched components' rows after
    /// an append.  [`commit`](Self::commit) must follow.
    pub(crate) fn stage(
        &mut self,
        schema: &IntegrationSchema,
        tables: &[Table],
    ) -> Vec<IntegratedTuple> {
        let layout: Vec<ColumnRef> = schema.aligned_sets().iter().map(|set| set[0]).collect();
        let keys: Vec<Vec<ColumnRef>> = tables
            .iter()
            .enumerate()
            .map(|(t, table)| {
                (0..table.num_columns()).map(|c| layout[schema.integrated_column(t, c)]).collect()
            })
            .collect();

        // Verify: the lake must extend the retained one table by table.
        let extends = self.tables.len() <= tables.len()
            && self.tables.iter().zip(tables).zip(&keys).all(|((kept, table), keys)| {
                kept.name == table.name()
                    && kept.rows.len() == table.num_rows()
                    && kept.keys == *keys
            });
        if !extends {
            self.clear();
        }

        // Diff: a changed row dirties the component it was in, and every
        // present cell of a changed or new row dirties the component the
        // index maps it to.  One level suffices — a clean component shares
        // no cell with any row outside itself, so whatever the pool's rows
        // can reach is already dirty.
        let mut pool: Vec<RowId> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        for (t, table) in tables.iter().enumerate() {
            let kept = self.tables.get(t);
            for (r, row) in table.rows().iter().enumerate() {
                if kept.is_some_and(|kept| kept.rows[r] == *row) {
                    continue;
                }
                dirty.extend(kept.and_then(|kept| kept.slots[r]));
                for (value, key) in row.iter().zip(&keys[t]) {
                    dirty.extend(self.index.get(key).and_then(|values| values.get(value)));
                }
                pool.push((t, r));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        // Evict the dirty components under their *old* row contents — the
        // index was built from those — and only then take the new rows in.
        let changed = pool.len();
        for slot in dirty {
            let component = self.components[slot].take().expect("dirty slots are live");
            self.free.push(slot);
            for &(t, r) in &component.members {
                let kept = &self.tables[t];
                for (value, key) in kept.rows[r].iter().zip(&kept.keys) {
                    if let Some(values) = self.index.get_mut(key) {
                        values.remove(value);
                    }
                }
            }
            pool.extend(component.members);
        }
        for &(t, r) in &pool[..changed] {
            if let Some(kept) = self.tables.get_mut(t) {
                kept.rows[r].clone_from(&tables[t].rows()[r]);
            }
        }
        for (table, keys) in tables.iter().zip(keys).skip(self.tables.len()) {
            self.tables.push(LiveTable {
                name: table.name().to_string(),
                keys,
                rows: table.rows().to_vec(),
                slots: vec![None; table.num_rows()],
            });
        }

        // The clean closures follow their columns to the new positions.
        if self.layout != layout {
            let mapping: Vec<usize> = self
                .layout
                .iter()
                .map(|key| schema.integrated_column(key.table, key.column))
                .collect();
            for component in self.components.iter_mut().flatten() {
                for tuple in &mut component.closure {
                    tuple.remap_columns(&mapping, layout.len());
                }
            }
            self.layout = layout;
        }

        // The pool in outer-union order, all-null rows skipped as the outer
        // union skips them.
        pool.sort_unstable();
        pool.dedup();
        pool.retain(|&(t, r)| {
            let kept = &mut self.tables[t];
            let present = kept.rows[r].iter().any(Value::is_present);
            if !present {
                kept.slots[r] = None;
            }
            present
        });
        let padded = pool
            .iter()
            .map(|&(t, r)| {
                let kept = &self.tables[t];
                IntegratedTuple::from_base(schema, t, &kept.name, r, &kept.rows[r])
            })
            .collect();
        self.staged = pool;
        padded
    }

    /// Registers the closed `components` of the staged pool (index lists
    /// into it, paired with their `closures`) and returns every live
    /// closure's tuples with the run's statistics.
    pub(crate) fn commit(
        &mut self,
        components: Vec<Vec<usize>>,
        closures: Vec<Vec<IntegratedTuple>>,
        runtime: RuntimeStats,
    ) -> (Vec<IntegratedTuple>, FdStats) {
        let staged = std::mem::take(&mut self.staged);
        let closed = components.len();
        for (component, closure) in components.into_iter().zip(closures) {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.components.push(None);
                self.components.len() - 1
            });
            let members: Vec<RowId> = component.into_iter().map(|i| staged[i]).collect();
            for &(t, r) in &members {
                let kept = &mut self.tables[t];
                kept.slots[r] = Some(slot);
                for (value, key) in kept.rows[r].iter().zip(&kept.keys) {
                    if value.is_present() {
                        let values = self.index.entry(*key).or_default();
                        if !values.contains_key(value) {
                            values.insert(value.clone(), slot);
                        }
                    }
                }
            }
            self.components[slot] = Some(Component { members, closure });
        }

        let mut stats = FdStats { runtime, ..FdStats::default() };
        let mut tuples = Vec::new();
        for component in self.components.iter().flatten() {
            stats.components += 1;
            stats.input_tuples += component.members.len();
            stats.largest_component = stats.largest_component.max(component.members.len());
            tuples.extend_from_slice(&component.closure);
        }
        stats.output_tuples = tuples.len();
        stats.reused_components = stats.components - closed;
        self.hits += stats.reused_components as u64;
        self.misses += closed as u64;
        if stats.components > self.capacity {
            self.clear();
        }
        (tuples, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alite::tests::keyed_lake as lake;
    use crate::alite::{
        full_disjunction, incremental_full_disjunction_with, parallel_full_disjunction_with,
    };
    use crate::schema::IntegrationSchema;
    use lake_table::TableBuilder;

    #[test]
    fn cold_cache_matches_batch_and_warm_rerun_reuses_everything() {
        let tables = lake(30);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let batch = full_disjunction(&schema, &tables);
        let mut cache = ComponentCache::default();

        let (cold, cold_stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(cold, batch);
        assert_eq!(cold_stats.reused_components, 0);
        assert_eq!(cache.len(), cold_stats.components);

        let (warm, warm_stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(warm, batch);
        assert_eq!(warm_stats.reused_components, warm_stats.components);
        assert_eq!(warm_stats.runtime.tasks, 0, "nothing reaches the executor on a full reuse");
    }

    #[test]
    fn appending_a_table_recomputes_only_touched_components() {
        let mut tables = lake(30);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::default();
        let (_, first) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);

        // A third table joining three existing keys: exactly those three
        // components change (the new table brings no new columns, so the
        // integration schema is unchanged).
        let c = TableBuilder::new("C", ["id", "x"])
            .row(["k1", "x1"])
            .row(["k3", "x3"])
            .row(["k5", "x5"])
            .build()
            .unwrap();
        tables.push(c);
        let schema2 = IntegrationSchema::from_matching_headers(&tables);
        assert_eq!(schema2.num_columns(), schema.num_columns());

        let (incremental, stats) =
            incremental_full_disjunction_with(&schema2, &tables, 1, &mut cache);
        assert_eq!(incremental, full_disjunction(&schema2, &tables));
        assert_eq!(stats.components, first.components);
        assert_eq!(
            stats.reused_components,
            first.components - 3,
            "only the three joined components may recompute: {stats:?}"
        );
    }

    #[test]
    fn equivalent_across_thread_counts_and_cache_states() {
        let tables = lake(40);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let (batch, _) = parallel_full_disjunction_with(&schema, &tables, 2);
        for threads in [0usize, 1, 2, 4] {
            let mut cache = ComponentCache::default();
            let (cold, _) =
                incremental_full_disjunction_with(&schema, &tables, threads, &mut cache);
            let (warm, _) =
                incremental_full_disjunction_with(&schema, &tables, threads, &mut cache);
            assert_eq!(cold, batch, "threads = {threads}");
            assert_eq!(warm, batch, "threads = {threads}");
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let tables = lake(10);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::with_capacity(0);
        let (first, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(stats.reused_components, 0);
        let (second, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(stats.reused_components, 0, "capacity 0 must never reuse");
        assert!(cache.is_empty());
        assert_eq!(first, second);
    }

    #[test]
    fn provenance_differences_are_not_cache_hits() {
        // Two lakes with identical values but different provenance must not
        // share closures: the closure output embeds provenance.
        let t1 = TableBuilder::new("T1", ["id"]).row(["k"]).build().unwrap();
        let t2 = TableBuilder::new("T2", ["id"]).row(["k"]).build().unwrap();
        let schema1 = IntegrationSchema::from_matching_headers(std::slice::from_ref(&t1));
        let mut cache = ComponentCache::default();
        let (only_t1, _) =
            incremental_full_disjunction_with(&schema1, std::slice::from_ref(&t1), 1, &mut cache);
        assert_eq!(only_t1.tuples()[0].provenance().len(), 1);

        let schema2 = IntegrationSchema::from_matching_headers(std::slice::from_ref(&t2));
        let (only_t2, stats) = incremental_full_disjunction_with(&schema2, &[t2], 1, &mut cache);
        assert_eq!(stats.reused_components, 0, "provenance differs, so no reuse");
        assert!(only_t2.tuples()[0].provenance().iter().all(|id| id.table == "T2"));
        drop(only_t1);
    }

    #[test]
    fn eviction_keeps_the_live_generation() {
        // A lake of more components than the bound retains nothing.
        let mut cache = ComponentCache::with_capacity(4);
        let over = lake(5);
        let over_schema = IntegrationSchema::from_matching_headers(&over);
        let (result, stats) = incremental_full_disjunction_with(&over_schema, &over, 1, &mut cache);
        assert_eq!(result, full_disjunction(&over_schema, &over));
        assert_eq!((stats.components, cache.len()), (5, 0));

        // One that exactly fills the bound is retained and keeps hitting
        // across runs.
        let tables = lake(4); // 4 key components
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let _ = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(cache.len(), 4);
        let (_, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(stats.reused_components, 4);

        // A different lake of the same size replaces the retained one
        // instead of refusing to cache.
        let other = vec![TableBuilder::new("D", ["id", "z"])
            .row(["p0", "z0"])
            .row(["p1", "z1"])
            .row(["p2", "z2"])
            .row(["p3", "z3"])
            .build()
            .unwrap()];
        let other_schema = IntegrationSchema::from_matching_headers(&other);
        let _ = incremental_full_disjunction_with(&other_schema, &other, 1, &mut cache);
        assert!(cache.len() <= 4);
        let (_, stats) = incremental_full_disjunction_with(&other_schema, &other, 1, &mut cache);
        assert!(stats.reused_components > 0, "{stats:?}");
    }

    #[test]
    fn remapped_cache_survives_schema_growth() {
        // A two-table lake, then a third table bringing a *new* column: the
        // integration schema widens, every padded tuple changes shape, but
        // the untouched components keep their (re-padded) closures.
        let mut tables = lake(20);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::default();
        let (_, first) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);

        let c = TableBuilder::new("C", ["id", "z"]).row(["k1", "z1"]).build().unwrap();
        tables.push(c);
        let wider = IntegrationSchema::from_matching_headers(&tables);
        assert!(wider.num_columns() > schema.num_columns());

        let (incremental, stats) =
            incremental_full_disjunction_with(&wider, &tables, 1, &mut cache);
        assert_eq!(incremental, full_disjunction(&wider, &tables));
        assert_eq!(
            stats.reused_components,
            first.components - 1,
            "only the k1 component may recompute after the widening: {stats:?}"
        );
    }
}
