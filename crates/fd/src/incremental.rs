//! The closure memo behind delta-aware Full Disjunction.
//!
//! The closure of a join-connected component is a pure function of its
//! member tuples, so [`incremental_full_disjunction_with`] may serve it from
//! a [`ComponentCache`] instead of recomputing it.  Correctness does not
//! depend on any diffing heuristic: a hit requires the entry's member tuples
//! (values *and* provenance, in outer-union order) to equal the component's
//! members exactly.
//!
//! [`incremental_full_disjunction_with`]: crate::incremental_full_disjunction_with

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::tuple::IntegratedTuple;

/// One memoised closure: the exact member tuples it was computed from (the
/// verification key) and the closure output.
#[derive(Debug, Clone)]
struct CacheEntry {
    members: Vec<IntegratedTuple>,
    closure: Vec<IntegratedTuple>,
    last_used: u64,
}

/// A memo table of component closures, keyed by the components' exact member
/// tuples.
///
/// Lookups hash the member tuples (values and provenance) and verify full
/// equality before a hit is served, so hash collisions can never smuggle a
/// wrong closure in.  The cache is bounded: when an insert would exceed the
/// capacity, entries not used by the current generation (one generation per
/// [`incremental_full_disjunction_with`] call) are evicted first, and the
/// cache is cleared outright if the live set alone exceeds the bound.
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
    entries: HashMap<u64, Vec<CacheEntry>>,
    len: usize,
    capacity: usize,
    generation: u64,
    hits: u64,
    misses: u64,
}

impl Default for ComponentCache {
    fn default() -> Self {
        ComponentCache::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl ComponentCache {
    /// Default closure-memo bound, shared with
    /// `IncrementalPolicy::max_cached_components` in `fuzzy-fd-core`: far
    /// above any benchmark lake (the IMDB fold peaks at ~20k components)
    /// while bounding worst-case memory on key-explosive inputs.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// An empty cache holding at most `capacity` closures (`0` disables
    /// caching: every lookup misses and nothing is stored).
    pub fn with_capacity(capacity: usize) -> Self {
        ComponentCache {
            entries: HashMap::new(),
            len: 0,
            capacity,
            generation: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of memoised closures.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(hits, misses)` counters over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops every memoised closure (counters are kept — they describe
    /// lookups, not contents).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Starts a new reuse generation (called once per incremental FD run so
    /// eviction can distinguish entries the current lake still produces from
    /// leftovers of rewritten history).
    pub(crate) fn advance_generation(&mut self) {
        self.generation += 1;
    }

    fn key_hash(members: &[IntegratedTuple]) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        members.len().hash(&mut hasher);
        for tuple in members {
            tuple.values().hash(&mut hasher);
            tuple.provenance().hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The memoised closure of a component with exactly these members, if
    /// one is cached.
    pub(crate) fn lookup(&mut self, members: &[IntegratedTuple]) -> Option<Vec<IntegratedTuple>> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        let generation = self.generation;
        let found = self
            .entries
            .get_mut(&Self::key_hash(members))
            .and_then(|bucket| bucket.iter_mut().find(|entry| entry.members == members))
            .map(|entry| {
                entry.last_used = generation;
                entry.closure.clone()
            });
        match found {
            Some(closure) => {
                self.hits += 1;
                Some(closure)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoises one freshly computed closure, evicting stale generations if
    /// the bound would be exceeded.
    pub(crate) fn insert(&mut self, members: Vec<IntegratedTuple>, closure: Vec<IntegratedTuple>) {
        if self.capacity == 0 {
            return;
        }
        if self.len >= self.capacity {
            self.evict_stale();
        }
        if self.len >= self.capacity {
            // The live set alone overflows the bound: reset rather than
            // thrash (the next run simply recomputes).
            self.clear();
        }
        let hash = Self::key_hash(&members);
        self.entries.entry(hash).or_default().push(CacheEntry {
            members,
            closure,
            last_used: self.generation,
        });
        self.len += 1;
    }

    /// Evicts entries last used before the current generation.
    fn evict_stale(&mut self) {
        let generation = self.generation;
        self.entries.retain(|_, bucket| {
            bucket.retain(|entry| entry.last_used >= generation);
            !bucket.is_empty()
        });
        self.len = self.entries.values().map(Vec::len).sum();
    }

    /// Re-pads every memoised component into a new integrated-column space:
    /// old column `i` becomes column `mapping[i]` of a `new_columns`-wide
    /// schema.
    ///
    /// Appending tables usually *widens* the integration schema (new
    /// attribute columns, new aligned sets), which re-pads every outer-union
    /// tuple and would turn the whole cache stale.  Re-padding is
    /// position-only — no cell changes — so the cache migrates instead: a
    /// component untouched by the append then matches its remapped entry
    /// exactly.  An out-of-range or non-injective mapping (two old columns
    /// merging) cannot be migrated faithfully and clears the cache instead.
    pub fn remap_columns(&mut self, mapping: &[usize], new_columns: usize) {
        if mapping.len() == new_columns && mapping.iter().enumerate().all(|(i, &m)| i == m) {
            return;
        }
        let mut seen = vec![false; new_columns];
        for &target in mapping {
            if target >= new_columns || seen[target] {
                self.clear();
                return;
            }
            seen[target] = true;
        }
        // Remapping changes the member hashes, so the bucket map is rebuilt.
        let entries = std::mem::take(&mut self.entries);
        for (_, bucket) in entries {
            for mut entry in bucket {
                for tuple in entry.members.iter_mut().chain(entry.closure.iter_mut()) {
                    tuple.remap_columns(mapping, new_columns);
                }
                self.entries.entry(Self::key_hash(&entry.members)).or_default().push(entry);
            }
        }
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
    use lake_table::{TableBuilder, Value};

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
        // Two components with identical values but different provenance must
        // not collide: the closure output embeds provenance.
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
        // Capacity 4, lake with 5 components: the first run overflows and
        // resets, but a stable smaller lake keeps hitting across runs.
        let tables = lake(4); // 4 key components
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::with_capacity(4);
        let _ = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(cache.len(), 4);
        let (_, stats) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert_eq!(stats.reused_components, 4);

        // A different lake of the same size evicts the old generation
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
        // integration schema widens, every padded tuple changes shape, but a
        // remapped cache still reuses the untouched components.
        let mut tables = lake(20);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::default();
        let (_, first) = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);

        let c = TableBuilder::new("C", ["id", "z"]).row(["k1", "z1"]).build().unwrap();
        tables.push(c);
        let wider = IntegrationSchema::from_matching_headers(&tables);
        assert!(wider.num_columns() > schema.num_columns());

        // old column i → the new position of any of its source columns.
        let mapping: Vec<usize> = schema
            .aligned_sets()
            .iter()
            .map(|sources| wider.integrated_column(sources[0].table, sources[0].column))
            .collect();
        cache.remap_columns(&mapping, wider.num_columns());

        let (incremental, stats) =
            incremental_full_disjunction_with(&wider, &tables, 1, &mut cache);
        assert_eq!(incremental, full_disjunction(&wider, &tables));
        assert_eq!(
            stats.reused_components,
            first.components - 1,
            "only the k1 component may recompute after the remap: {stats:?}"
        );
    }

    #[test]
    fn degenerate_remaps_clear_instead_of_corrupting() {
        let tables = lake(4);
        let schema = IntegrationSchema::from_matching_headers(&tables);
        let mut cache = ComponentCache::default();
        let _ = incremental_full_disjunction_with(&schema, &tables, 1, &mut cache);
        assert!(!cache.is_empty());
        // Identity remap is a no-op.
        let width = schema.num_columns();
        cache.remap_columns(&(0..width).collect::<Vec<_>>(), width);
        assert!(!cache.is_empty());
        // A non-injective mapping cannot be migrated: the cache resets.
        cache.remap_columns(&vec![0; width], width);
        assert!(cache.is_empty());
    }

    #[test]
    fn values_sharing_hash_buckets_verify_membership() {
        // Same values, different provenance → same value hash contribution
        // but full-equality verification must reject the pairing.
        let a = IntegratedTuple::new(
            vec![Value::text("x")],
            lake_table::ProvenanceSet::single(lake_table::TupleId::new("A", 0)),
        );
        let b = IntegratedTuple::new(
            vec![Value::text("x")],
            lake_table::ProvenanceSet::single(lake_table::TupleId::new("B", 0)),
        );
        let mut cache = ComponentCache::default();
        cache.insert(vec![a.clone()], vec![a.clone()]);
        assert!(cache.lookup(&[b]).is_none());
        assert!(cache.lookup(&[a]).is_some());
    }
}
