//! Lake shards: routing, snapshots, and the bounded admission queue.
//!
//! Each shard owns one [`IntegrationSession`] confined to its writer
//! thread; everything other threads may touch lives here, split into two
//! halves with different locking disciplines:
//!
//! * the **admission queue** (`Mutex` + `Condvar`): bounded, rejecting at
//!   capacity so backpressure is explicit (the server turns a rejection
//!   into `429 Too Many Requests`), drained by the writer;
//! * the **published version** (`RwLock<Arc<Published>>`): a snapshot plus
//!   one lazily rendered `/query` body per view.  Readers clone the `Arc`
//!   under a momentary read lock and then work entirely on their own
//!   handle, so a multi-second integration in the writer never blocks a
//!   query — the writer swaps in the next version in O(1) after
//!   integrating *outside* any lock.  The first reader to ask for a view of
//!   a version renders it; everyone after gets the same bytes by `Arc`
//!   bump.  `publish` replaces the whole value, so a body cannot outlive
//!   its version: a shard holds at most three rendered bodies, all of the
//!   published version, beside whatever in-flight responses still hold.

// A panic here kills a reader thread: degrade to a `500` (docs/LINTS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use fuzzy_fd_core::{IncrementalOutcome, IntegrationSession};
use lake_fd::IntegrationSchema;
use lake_store::{LakeStore, StoreStatus};
use lake_table::Table;

use crate::wire::{self, QueryView};

/// Routes a table group to a shard by FNV-1a hash of the group name.
///
/// Pure and stable across processes, so clients (and tests) can re-derive
/// placement without asking the server.
///
/// # Panics
/// Panics if `shards` is zero (a [`ServePolicy`](crate::ServePolicy) that
/// validated cannot have zero shards).
pub fn route_group(group: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in group.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// An accepted ingest waiting for the shard's writer.
#[derive(Debug)]
pub struct IngestJob {
    /// Table group the client routed by.
    pub group: String,
    /// The table to append.
    pub table: Table,
}

/// Why [`Shard::try_ingest`] refused a job.
#[derive(Debug, PartialEq, Eq)]
pub enum IngestReject {
    /// The bounded admission queue is at capacity; carries the current
    /// depth for the `429` body.
    QueueFull(usize),
    /// The durable log append failed, so the ingest cannot be
    /// acknowledged (`202` promises durability); carries the store error.
    Wal(String),
    /// The shard's queue mutex is poisoned — a thread panicked while
    /// holding it.  Reads recover (the queue state is plain data; see
    /// the recovery policy on `Shard::queue_state`) and keep serving,
    /// but ingest refuses: a
    /// `202` promises the append will be applied, and a shard whose
    /// writer or a request thread just panicked mid-critical-section
    /// cannot make that promise.
    Poisoned,
}

/// An immutable, shareable view of a shard's lake at one version.
///
/// Published by the writer after every applied append; readers render all
/// query views from it without touching the session.  Built through
/// [`from_session`](Self::from_session) by the server *and* by the
/// integration tests, which replay the same tables through a direct
/// [`IntegrationSession`] and assert the rendered bytes match.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Monotone per-shard version: the number of appends applied so far.
    pub version: u64,
    /// The latest integration outcome (shared with the session's retained
    /// copy — an `Arc` bump, not a table copy).
    pub outcome: Arc<IncrementalOutcome>,
    /// Every table integrated so far, in arrival order (shared with the
    /// session — one pointer bump per table, not a copy).
    pub tables: Vec<Arc<Table>>,
    /// Source-column → integrated-column mapping of the latest call (feeds
    /// the per-cell provenance view).
    pub schema: Option<IntegrationSchema>,
    /// Session embedding-cache `(hits, misses)`, cumulative.
    pub embed_cache: (u64, u64),
    /// Session FD component-cache `(hits, misses)`, cumulative.
    pub fd_cache: (u64, u64),
}

impl ShardSnapshot {
    /// Captures the current state of `session` as version `version`.
    pub fn from_session(version: u64, session: &IntegrationSession) -> Self {
        ShardSnapshot {
            version,
            outcome: session.snapshot(),
            tables: session.tables().to_vec(),
            schema: session.schema().cloned(),
            embed_cache: session.embedding_stats(),
            fd_cache: session.fd_cache_stats(),
        }
    }
}

/// What a shard publishes per version: the snapshot and, once somebody has
/// asked for them, its rendered `/query` bodies (indexed by [`QueryView`]).
///
/// Rendering is left to the first reader rather than done at publish: a
/// burst publishes dozens of versions nobody reads, and their render time
/// would land on the writer.
#[derive(Debug)]
struct Published {
    snapshot: Arc<ShardSnapshot>,
    bodies: [OnceLock<Arc<str>>; 3],
}

impl Published {
    fn new(snapshot: ShardSnapshot) -> Arc<Self> {
        Arc::new(Published { snapshot: Arc::new(snapshot), bodies: Default::default() })
    }
}

/// Mutable queue state behind the shard's mutex.
#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<IngestJob>,
    /// Whether the writer is currently integrating a popped job.
    busy: bool,
    /// Shutdown flag; the writer drains remaining jobs, then exits.
    stopping: bool,
    accepted: u64,
    rejected: u64,
    applied: u64,
    failed: u64,
}

/// A point-in-time external view of one shard, rendered by `/stats`.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub id: usize,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Whether the writer is integrating right now.
    pub busy: bool,
    /// Ingests admitted to the queue, cumulative.
    pub accepted: u64,
    /// Ingests rejected with 429, cumulative.
    pub rejected: u64,
    /// Appends applied to the session, cumulative.
    pub applied: u64,
    /// Appends that failed integration (accepted but not applied).
    pub failed: u64,
    /// Durability counters of the shard's store (`None` on in-memory
    /// shards).
    pub durability: Option<StoreStatus>,
    /// The published snapshot (version, sizes, stats).
    pub snapshot: ShardSnapshot,
}

/// One lake shard: admission queue + published version.
///
/// The owning [`IntegrationSession`] is *not* stored here — it is confined
/// to the shard's writer thread (see [`writer_loop`](crate::LakeServer)).
#[derive(Debug)]
pub struct Shard {
    id: usize,
    depth: usize,
    state: Mutex<QueueState>,
    work: Condvar,
    published: RwLock<Arc<Published>>,
    /// The shard's durable store, when serving durably.  Lock order is
    /// `store` → `state`: admission holds the store lock across the log
    /// append *and* the queue push so log order equals apply order.
    store: Option<Mutex<LakeStore>>,
}

impl Shard {
    /// Creates shard `id` with a bounded queue of `depth` and an initial
    /// (empty-lake) snapshot.
    pub fn new(id: usize, depth: usize, initial: ShardSnapshot) -> Self {
        Shard {
            id,
            depth,
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            published: RwLock::new(Published::new(initial)),
            store: None,
        }
    }

    /// Creates a durable shard: every admitted ingest is logged to
    /// `store` before it is queued, and the writer replays the store's
    /// recovered records before draining.
    pub fn new_durable(id: usize, depth: usize, initial: ShardSnapshot, store: LakeStore) -> Self {
        let mut shard = Shard::new(id, depth, initial);
        shard.store = Some(Mutex::new(store));
        shard
    }

    /// Shard index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the shard logs ingests durably.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Locks the queue state, recovering from poisoning.
    ///
    /// The state is plain data — a job deque and monotone counters.  A
    /// panic while the lock was held cannot tear an invariant worse than
    /// a momentarily incoherent `/stats` counter, and the shard must keep
    /// draining, reporting and shutting down even after a request thread
    /// panics, so every *read or writer-side* path recovers.  Admission
    /// is the exception: it checks [`Mutex::is_poisoned`] first and
    /// refuses (see [`IngestReject::Poisoned`]), because recovery leaves
    /// the poison flag set and a `202` durability promise should not be
    /// issued by a wounded shard.
    fn queue_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with exclusive access to the shard's store; `None` on
    /// in-memory shards.  Used by the writer (recovery replay, the
    /// shutdown flush) and the periodic flusher.
    ///
    /// Recovers from a poisoned store mutex: `LakeStore`'s consistency
    /// lives in its write-ahead log (appends are self-delimiting and
    /// re-validated on recovery), so a panic mid-operation risks a stale
    /// in-memory counter, not a torn log — and the flusher and shutdown
    /// flush must keep running after a request panic.  Admission
    /// does *not* use this helper; it refuses a poisoned store outright
    /// ([`IngestReject::Wal`]) rather than promise durability over it.
    pub fn with_store<T>(&self, f: impl FnOnce(&mut LakeStore) -> T) -> Option<T> {
        self.store
            .as_ref()
            .map(|store| f(&mut store.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Admits `job` to the queue, or rejects it when the queue is full.
    ///
    /// On a durable shard the job is appended to the write-ahead log
    /// before it is queued, under the store lock, so a `202` means the
    /// table is durable (per the store's fsync policy) and log order is
    /// exactly apply order.  A full queue is checked first — a rejected
    /// ingest must leave no log record behind.
    ///
    /// Returns the queue depth after admission; the error carries either
    /// the current depth (for the 429 body) or the log failure.
    pub fn try_ingest(&self, job: IngestJob) -> Result<usize, IngestReject> {
        // Refuse before any side effect: a poisoned queue must not gain a
        // WAL record (the writer may never apply it), and a poisoned
        // store must not back a durability promise.
        if self.state.is_poisoned() {
            return Err(IngestReject::Poisoned);
        }
        let Some(store) = &self.store else { return self.admit(job) };
        let Ok(mut store) = store.lock() else {
            return Err(IngestReject::Wal(
                "shard store mutex poisoned; refusing to promise durability".to_string(),
            ));
        };
        // Capacity pre-check: holding the store lock keeps it valid (every
        // other durable admission needs this lock too; the writer only
        // shrinks the queue).
        {
            let mut state = self.queue_state();
            if state.jobs.len() >= self.depth {
                state.rejected += 1;
                return Err(IngestReject::QueueFull(state.jobs.len()));
            }
        }
        store
            .append(&job.group, &job.table, true)
            .map_err(|err| IngestReject::Wal(err.to_string()))?;
        self.admit(job)
    }

    /// Queue admission proper (capacity check + push + wake).
    fn admit(&self, job: IngestJob) -> Result<usize, IngestReject> {
        if self.state.is_poisoned() {
            return Err(IngestReject::Poisoned);
        }
        let mut state = self.queue_state();
        if state.jobs.len() >= self.depth {
            state.rejected += 1;
            return Err(IngestReject::QueueFull(state.jobs.len()));
        }
        state.jobs.push_back(job);
        state.accepted += 1;
        let depth = state.jobs.len();
        drop(state);
        self.work.notify_one();
        Ok(depth)
    }

    /// Folds a recovery replay into the shard's counters so `/stats`
    /// stays coherent across restarts (`accepted == applied + failed +
    /// queued` keeps holding).
    pub fn record_recovery(&self, applied: u64, failed: u64) {
        let mut state = self.queue_state();
        state.accepted += applied + failed;
        state.applied += applied;
        state.failed += failed;
    }

    /// Blocks until a job is available or shutdown is requested.
    ///
    /// Returns `None` once stopping *and* drained — the writer exits then,
    /// so shutdown applies every admitted ingest before the server joins.
    /// Marks the shard busy when returning a job; the writer must call
    /// [`finish_job`](Self::finish_job) afterwards.
    pub fn next_job(&self) -> Option<IngestJob> {
        let mut state = self.queue_state();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.busy = true;
                return Some(job);
            }
            if state.stopping {
                return None;
            }
            state = self.work.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records the outcome of the job returned by [`next_job`](Self::next_job)
    /// and clears the busy flag.
    pub fn finish_job(&self, applied: bool) {
        let mut state = self.queue_state();
        if applied {
            state.applied += 1;
        } else {
            state.failed += 1;
        }
        state.busy = false;
    }

    /// Publishes a new snapshot (an O(1) pointer swap under the write
    /// lock), dropping the previous version's rendered bodies with it.
    /// Recovers from poisoning: the slot holds a plain `Arc`, and a pointer
    /// swap cannot be observed torn.
    pub fn publish(&self, snapshot: ShardSnapshot) {
        *self.published.write().unwrap_or_else(PoisonError::into_inner) = Published::new(snapshot);
    }

    /// The current published version (an `Arc` clone under a momentary
    /// read lock; never blocks on an in-flight integration).  Recovers
    /// from poisoning — queries must keep serving the last good snapshot
    /// even after a panic elsewhere on the shard.
    fn published(&self) -> Arc<Published> {
        Arc::clone(&self.published.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current published snapshot.
    pub fn read_snapshot(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.published().snapshot)
    }

    /// The `/query` body of the current published snapshot for `view` —
    /// [`wire::query_body`]'s bytes, rendered at most once per version:
    /// the first caller renders, callers racing it wait for that one
    /// rendering instead of starting their own, later callers share it.
    pub fn query_body(&self, view: QueryView) -> Arc<str> {
        let published = self.published();
        let body = published.bodies[view as usize]
            .get_or_init(|| wire::query_body(view, self.id, &published.snapshot).into());
        Arc::clone(body)
    }

    /// Requests writer shutdown (drain-then-exit) and wakes it.
    pub fn stop(&self) {
        self.queue_state().stopping = true;
        self.work.notify_all();
    }

    /// The current external view of this shard.
    pub fn status(&self) -> ShardStatus {
        let snapshot = self.read_snapshot();
        let durability = self.with_store(|store| store.status());
        let state = self.queue_state();
        ShardStatus {
            id: self.id,
            queued: state.jobs.len(),
            busy: state.busy,
            accepted: state.accepted,
            rejected: state.rejected,
            applied: state.applied,
            failed: state.failed,
            durability,
            snapshot: (*snapshot).clone(),
        }
    }

    /// Deliberately poisons the queue mutex, simulating a thread that
    /// panicked while holding it.  Test-only hook (used by the degraded-
    /// shard regression tests to drive the [`IngestReject::Poisoned`] →
    /// `500` path over a real socket); hidden from docs, never called by
    /// serving code.
    #[doc(hidden)]
    #[expect(
        clippy::panic,
        reason = "deliberate poison injection — the unwind is caught where it is raised and \
                  never crosses a request thread"
    )]
    pub fn poison_queue_for_test(&self) {
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.queue_state();
            panic!("deliberate queue poisoning (test hook)");
        }));
        assert!(poisoner.is_err(), "the poisoning closure must panic");
        assert!(self.state.is_poisoned(), "queue mutex should now be poisoned");
    }
}

#[cfg(test)]
mod tests {
    use fuzzy_fd_core::FuzzyFdConfig;

    use super::*;

    fn empty_snapshot() -> ShardSnapshot {
        let session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        ShardSnapshot::from_session(0, &session)
    }

    fn job(name: &str) -> IngestJob {
        let table = lake_table::TableBuilder::new(name, ["c"]).row(["v"]).build().unwrap();
        IngestJob { group: "g".into(), table }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1, 2, 7] {
            for group in ["alpha", "beta", "tenant-42", ""] {
                let shard = route_group(group, shards);
                assert!(shard < shards);
                assert_eq!(shard, route_group(group, shards));
            }
        }
        // Distinct groups should not all collapse onto one shard.
        let hits: std::collections::HashSet<usize> =
            (0..32).map(|i| route_group(&format!("g{i}"), 4)).collect();
        assert!(hits.len() > 1);
    }

    #[test]
    fn queue_rejects_at_capacity() {
        let shard = Shard::new(0, 2, empty_snapshot());
        assert_eq!(shard.try_ingest(job("a")), Ok(1));
        assert_eq!(shard.try_ingest(job("b")), Ok(2));
        assert_eq!(shard.try_ingest(job("c")), Err(IngestReject::QueueFull(2)));
        let status = shard.status();
        assert_eq!((status.accepted, status.rejected), (2, 1));
    }

    #[test]
    fn next_job_drains_then_honours_stop() {
        let shard = Shard::new(0, 4, empty_snapshot());
        shard.try_ingest(job("a")).unwrap();
        shard.stop();
        assert!(shard.next_job().is_some());
        shard.finish_job(true);
        assert!(shard.next_job().is_none());
        assert_eq!(shard.status().applied, 1);
    }

    #[test]
    fn durable_admission_logs_before_queueing_and_rejections_leave_no_record() {
        let dir =
            std::env::temp_dir().join(format!("lake-serve-shard-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = LakeStore::open(&dir, lake_store::StorePolicy::default()).unwrap();
        let shard = Shard::new_durable(0, 2, empty_snapshot(), store);
        assert!(shard.is_durable());

        assert_eq!(shard.try_ingest(job("a")), Ok(1));
        assert_eq!(shard.try_ingest(job("b")), Ok(2));
        // Full queue: rejected *before* the log append, so no orphan record.
        assert_eq!(shard.try_ingest(job("c")), Err(IngestReject::QueueFull(2)));
        assert_eq!(shard.with_store(|s| s.next_seq()), Some(2));

        // Jobs drain in admission order, which is log order.
        shard.stop();
        assert_eq!(shard.next_job().unwrap().table.name(), "a");
        shard.finish_job(true);
        assert_eq!(shard.next_job().unwrap().table.name(), "b");
        shard.finish_job(true);
        assert!(shard.status().durability.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_queue_refuses_ingest_but_keeps_reads_and_shutdown_alive() {
        let shard = Shard::new(0, 4, empty_snapshot());
        shard.try_ingest(job("before")).unwrap();
        shard.poison_queue_for_test();

        // Ingest refuses: no new durability promises from a wounded shard.
        assert_eq!(shard.try_ingest(job("after")), Err(IngestReject::Poisoned));

        // Reads recover: status and snapshots still serve.
        let status = shard.status();
        assert_eq!(status.queued, 1);
        assert_eq!(shard.read_snapshot().version, 0);

        // The writer-side path still drains and shuts down cleanly.
        shard.stop();
        assert!(shard.next_job().is_some());
        shard.finish_job(true);
        assert!(shard.next_job().is_none());
    }

    #[test]
    fn a_version_renders_each_view_once_and_a_publish_drops_its_bodies() {
        let shard = Shard::new(3, 4, empty_snapshot());
        let table = shard.query_body(QueryView::Table);
        assert!(Arc::ptr_eq(&table, &shard.query_body(QueryView::Table)));
        assert_eq!(*table, *wire::query_body(QueryView::Table, 3, &shard.read_snapshot()));
        let report = shard.query_body(QueryView::Report);
        assert_eq!(*report, *wire::query_body(QueryView::Report, 3, &shard.read_snapshot()));
        let old_bodies = [Arc::downgrade(&table), Arc::downgrade(&report)];

        let mut next = empty_snapshot();
        next.version = 7;
        shard.publish(next);
        // A response still being written keeps its bytes; the shard does not.
        assert_eq!(Arc::strong_count(&table), 1);
        drop((table, report));
        assert!(old_bodies.iter().all(|body| body.upgrade().is_none()));
        assert!(shard.query_body(QueryView::Table).contains("\"version\":7,"));
    }

    #[test]
    fn readers_racing_the_first_read_of_a_version_share_one_rendering() {
        const READERS: usize = 8;
        let mut wide = lake_table::TableBuilder::new("wide", ["k", "v"]);
        for i in 0..2_000 {
            wide = wide.row([format!("key-{i}"), format!("value-{i}")]);
        }
        let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        session.add_table(&wide.build().unwrap()).unwrap();
        let shard = Arc::new(Shard::new(0, 4, ShardSnapshot::from_session(1, &session)));

        let gate = Arc::new(std::sync::Barrier::new(READERS));
        let served = Arc::new(Mutex::new(Vec::new()));
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                let (shard, gate, served) =
                    (Arc::clone(&shard), Arc::clone(&gate), Arc::clone(&served));
                lake_runtime::spawn_service(format!("racing-reader-{i}"), move || {
                    gate.wait();
                    let body = shard.query_body(QueryView::Table);
                    served.lock().unwrap().push(body);
                })
            })
            .collect();
        readers.into_iter().for_each(lake_runtime::ServiceHandle::join);
        let bodies: Vec<Arc<str>> = std::mem::take(&mut *served.lock().unwrap());
        assert_eq!(bodies.len(), READERS);
        assert!(bodies.iter().all(|body| Arc::ptr_eq(body, &bodies[0])));
        // The shard's slot and the eight handles: nobody rendered a copy.
        assert_eq!(Arc::strong_count(&bodies[0]), READERS + 1);
    }

    #[test]
    fn publish_swaps_reader_snapshot() {
        let shard = Shard::new(3, 4, empty_snapshot());
        assert_eq!(shard.read_snapshot().version, 0);
        let mut next = empty_snapshot();
        next.version = 7;
        shard.publish(next);
        assert_eq!(shard.read_snapshot().version, 7);
        assert_eq!(shard.status().snapshot.version, 7);
    }
}
