//! Per-value embedding memoisation.
//!
//! Columns in the Auto-Join benchmark contain ~150 distinct values each, and
//! the same value ("Toronto") appears in many rows and many columns.  The
//! cache guarantees each distinct string is embedded exactly once per run,
//! which is also how the paper's implementation amortises LLM inference cost.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use lake_runtime::{run_scope_batched, ParallelPolicy, RuntimeStats};

use crate::embedder::Embedder;
use crate::vector::Vector;

/// A thread-safe memoising wrapper around any [`Embedder`].
pub struct EmbeddingCache<E: Embedder> {
    inner: E,
    state: Mutex<CacheState>,
}

/// The memo and its counters, behind one lock so that they can only be read
/// or reset together.
#[derive(Default)]
struct CacheState {
    vectors: HashMap<String, Vector>,
    hits: u64,
    misses: u64,
}

impl<E: Embedder> EmbeddingCache<E> {
    /// Wraps an embedder with an empty cache.
    pub fn new(inner: E) -> Self {
        EmbeddingCache { inner, state: Mutex::default() }
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("cache poisoned")
    }

    /// The wrapped embedder.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Number of distinct values embedded so far.
    pub fn len(&self) -> usize {
        self.state().vectors.len()
    }

    /// `true` when nothing has been embedded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters, for diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.state();
        (state.hits, state.misses)
    }

    /// Clears the cache (counters included).
    pub fn clear(&self) {
        *self.state() = CacheState::default();
    }

    /// Embeds a batch of values, computing the distinct uncached ones on the
    /// shared scoped executor and returning the vectors in input order.
    ///
    /// The per-value workload is the wrapped embedder's cost, so the
    /// executor's cost hint is the value length.  When `policy` resolves to
    /// one worker, the distinct uncached values go to the wrapped
    /// embedder's [`embed_many`](Embedder::embed_many) in one call.  Counter
    /// semantics match a sequence of [`embed`](Embedder::embed) calls: each
    /// distinct value not yet cached is one miss, every other lookup is a
    /// hit.
    pub fn embed_batch(&self, values: &[&str], policy: &ParallelPolicy) -> Vec<Vector> {
        self.embed_batch_with_stats(values, policy).0
    }

    /// As [`embed_batch`](Self::embed_batch), also returning the executor's
    /// [`RuntimeStats`] for the uncached remainder of the batch.
    pub fn embed_batch_with_stats(
        &self,
        values: &[&str],
        policy: &ParallelPolicy,
    ) -> (Vec<Vector>, RuntimeStats) {
        // One pass under the lock: number the distinct values in
        // first-occurrence order and capture the vectors already cached.
        // Outputs are assembled from this local state, so a concurrent
        // `clear()` after the lock drops can empty the cache but never break
        // the batch.
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut distinct: Vec<Option<Vector>> = Vec::new();
        let mut pending: Vec<(usize, &str)> = Vec::new();
        let slots: Vec<usize> = {
            let state = self.state();
            values
                .iter()
                .map(|&value| {
                    *slot_of.entry(value).or_insert_with(|| {
                        let cached = state.vectors.get(value).cloned();
                        if cached.is_none() {
                            pending.push((distinct.len(), value));
                        }
                        distinct.push(cached);
                        distinct.len() - 1
                    })
                })
                .collect()
        };

        let inner = &self.inner;
        let (embedded, stats) = run_scope_batched(
            policy,
            pending.iter().map(|&(_, value)| value).collect(),
            |value| value.len() as u64,
            |value| inner.embed(value),
            |values| inner.embed_many(&values),
        );

        {
            let mut state = self.state();
            for (&(_, value), vector) in pending.iter().zip(&embedded) {
                state.vectors.insert(value.to_string(), vector.clone());
            }
            state.misses += pending.len() as u64;
            state.hits += (values.len() - pending.len()) as u64;
        }

        for (&(slot, _), vector) in pending.iter().zip(embedded) {
            distinct[slot] = Some(vector);
        }
        // The last output of each distinct value takes its vector, the
        // others clone it: a batch holds no third copy beside the cache's.
        let mut uses = vec![0usize; distinct.len()];
        for &slot in &slots {
            uses[slot] += 1;
        }
        let outputs = slots
            .into_iter()
            .map(|slot| {
                uses[slot] -= 1;
                let vector =
                    if uses[slot] == 0 { distinct[slot].take() } else { distinct[slot].clone() };
                vector.expect("every distinct value is cached or embedded")
            })
            .collect();
        (outputs, stats)
    }
}

impl<E: Embedder> Embedder for EmbeddingCache<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// [`embed_batch`](Self::embed_batch) on the calling thread.  The lock
    /// is not held across the inner embedder: concurrent first lookups of
    /// one value may each compute it (and each count a miss).
    fn embed_many(&self, values: &[&str]) -> Vec<Vector> {
        self.embed_batch(values, &ParallelPolicy::explicit(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashingNgramEmbedder;
    use lake_runtime::run_scope;

    #[test]
    fn caches_and_counts() {
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        assert!(cache.is_empty());
        let a = cache.embed("Toronto");
        let b = cache.embed("Toronto");
        let _c = cache.embed("Boston");
        assert_eq!(a, b);
        assert_eq!(cache.len(), 2);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn cached_results_match_uncached() {
        let raw = HashingNgramEmbedder::new();
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        assert_eq!(raw.embed("Berlin"), cache.embed("Berlin"));
        assert_eq!(cache.name(), "FastText");
        assert_eq!(cache.dim(), raw.dim());
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        cache.embed("x");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn stats_accounting_is_exact_under_interleaving() {
        // Regression: hits + misses must equal the total number of embed
        // calls, misses must equal the number of distinct values, and the
        // counters must not drift when lookups interleave.
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        let calls = ["a", "b", "a", "c", "b", "a", "c", "c", "d", "a"];
        for value in calls {
            cache.embed(value);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, calls.len() as u64);
        assert_eq!(misses, 4, "one miss per distinct value");
        assert_eq!(hits, 6);
        assert_eq!(cache.len(), 4);
        // A fresh value is a miss, a repeat is a hit — in that exact order.
        cache.embed("e");
        assert_eq!(cache.stats(), (6, 5));
        cache.embed("e");
        assert_eq!(cache.stats(), (7, 5));
    }

    #[test]
    fn stats_account_for_every_threaded_call() {
        // 4 workers × 8 calls over 2 distinct values: every call is either a
        // hit or a miss, and only distinct values count as misses.  The
        // scoped executor borrows the cache directly — no `Arc` plumbing.
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        let _ = run_scope(
            &ParallelPolicy::explicit(4),
            (0..4usize).collect(),
            |_| 1,
            |t| {
                for i in 0..8 {
                    cache.embed(&format!("value-{}", (t + i) % 2));
                }
            },
        );
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 32);
        assert_eq!(cache.len(), 2);
        // Concurrent first lookups may race past the read-then-insert gap,
        // so a distinct value can miss more than once — but never more than
        // once per worker.
        assert!((2..=8).contains(&misses), "misses = {misses}");
    }

    #[test]
    fn usable_across_threads() {
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        let _ = run_scope(
            &ParallelPolicy::explicit(4),
            (0..4usize).collect(),
            |_| 1,
            |i| {
                cache.embed(&format!("value-{}", i % 2));
            },
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_embedding_matches_sequential_and_counts_once() {
        let reference = HashingNgramEmbedder::new();
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        let values = ["Toronto", "Berlin", "Toronto", "Boston", "Berlin", "Toronto"];
        for threads in [1, 2, 4] {
            cache.clear();
            let (vectors, stats) =
                cache.embed_batch_with_stats(&values, &ParallelPolicy::explicit(threads));
            assert_eq!(vectors.len(), values.len());
            for (value, vector) in values.iter().zip(&vectors) {
                assert_eq!(vector, &reference.embed(value), "threads = {threads}");
            }
            // Sequential-call semantics: one miss per distinct value, a hit
            // for every repeat; only the 3 distinct values hit the embedder.
            assert_eq!(cache.stats(), (3, 3), "threads = {threads}");
            assert_eq!(stats.tasks, 3, "threads = {threads}");
        }
    }

    /// An embedder that counts how often the expensive inner call actually
    /// runs — the ground truth the hit/miss counters are supposed to track.
    struct CountingEmbedder {
        inner: HashingNgramEmbedder,
        calls: Mutex<Vec<String>>,
    }

    impl CountingEmbedder {
        fn new() -> Self {
            CountingEmbedder { inner: HashingNgramEmbedder::new(), calls: Mutex::new(Vec::new()) }
        }
    }

    impl Embedder for CountingEmbedder {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn embed_many(&self, values: &[&str]) -> Vec<Vector> {
            self.calls.lock().unwrap().extend(values.iter().map(|value| value.to_string()));
            self.inner.embed_many(values)
        }
    }

    #[test]
    fn intra_batch_duplicates_reach_the_embedder_exactly_once() {
        // Regression guard for the double-embed failure mode: a batch with
        // heavy intra-batch duplication must invoke the wrapped embedder
        // exactly once per *distinct* string, whatever the thread count, and
        // the (hits, misses) counters must agree with that ground truth.
        let values =
            ["Toronto", "Berlin", "Toronto", "Toronto", "Boston", "Berlin", "Boston", "Toronto"];
        for threads in [1usize, 2, 4] {
            let cache = EmbeddingCache::new(CountingEmbedder::new());
            let (vectors, _) =
                cache.embed_batch_with_stats(&values, &ParallelPolicy::explicit(threads));
            assert_eq!(vectors.len(), values.len());
            let mut calls = cache.inner().calls.lock().unwrap().clone();
            calls.sort();
            assert_eq!(
                calls,
                vec!["Berlin".to_string(), "Boston".to_string(), "Toronto".to_string()],
                "each distinct value must be embedded exactly once (threads = {threads})"
            );
            // Counter semantics: one miss per distinct value, one hit per
            // duplicate occurrence.
            assert_eq!(cache.stats(), (5, 3), "threads = {threads}");
            // Duplicates all received the identical vector.
            assert_eq!(vectors[0], vectors[2]);
            assert_eq!(vectors[0], vectors[3]);
            assert_eq!(vectors[1], vectors[5]);
        }
    }

    #[test]
    fn duplicates_of_cached_values_schedule_no_work_at_all() {
        let cache = EmbeddingCache::new(CountingEmbedder::new());
        cache.embed("Toronto");
        assert_eq!(cache.inner().calls.lock().unwrap().len(), 1);
        // Every batch entry is either cached or a duplicate of a cached
        // value: the inner embedder must not run again.
        let (vectors, stats) = cache.embed_batch_with_stats(
            &["Toronto", "Toronto", "Toronto"],
            &ParallelPolicy::explicit(2),
        );
        assert_eq!(vectors.len(), 3);
        assert_eq!(stats.tasks, 0, "all-cached batches schedule nothing");
        assert_eq!(cache.inner().calls.lock().unwrap().len(), 1, "no re-embedding");
        assert_eq!(cache.stats(), (3, 1));
    }

    #[test]
    fn batch_embedding_reuses_prior_cache_entries() {
        let cache = EmbeddingCache::new(HashingNgramEmbedder::new());
        cache.embed("Berlin");
        let (vectors, stats) =
            cache.embed_batch_with_stats(&["Berlin", "Lagos"], &ParallelPolicy::explicit(2));
        assert_eq!(vectors.len(), 2);
        assert_eq!(stats.tasks, 1, "only the uncached value reaches the executor");
        // Berlin: prior miss + batch hit; Lagos: batch miss.
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);
        // An all-cached batch schedules nothing at all.
        let (_, warm) =
            cache.embed_batch_with_stats(&["Berlin", "Lagos"], &ParallelPolicy::explicit(2));
        assert_eq!(warm.tasks, 0);
        assert_eq!(cache.stats(), (3, 2));
    }
}
