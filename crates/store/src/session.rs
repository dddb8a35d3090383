//! Session snapshot and restore.
//!
//! A session is **not** serialized structurally — its matcher states,
//! embedding cache and FD component cache are large, intertwined and
//! private.  Instead the store persists what the session is a pure
//! function of: the appended tables and the `add_tables` call boundaries
//! ([`IntegrationSession::batch_sizes`]).  Restoring replays exactly those
//! calls through a fresh session, which reproduces every retained
//! structure *and every cache counter* byte-for-byte — the warmed
//! `EmbeddingCache` and `ComponentCache` come back warm
//! because the replayed calls warm them the same way the originals did.
//! That exactness is what lets a restarted server serve `/query` bodies
//! identical to an uninterrupted run.

use fuzzy_fd_core::{FuzzyFdConfig, IncrementalPolicy, IntegrationSession};
use lake_table::{Table, TableResult};

use crate::error::{StoreError, StoreResult};
use crate::store::{DurableOp, DurableRecord, LakeStore};

/// Rebuilds a session by replaying `records` (in order) with their
/// original call boundaries: records up to the second batch marker form
/// the `begin` batch, every later marker starts an `add_tables` call.
pub fn replay_session(
    config: FuzzyFdConfig,
    policy: IncrementalPolicy,
    records: &[DurableRecord],
) -> TableResult<IntegrationSession> {
    let mut batches: Vec<Vec<Table>> = Vec::new();
    for record in records {
        match &record.op {
            DurableOp::EmptyBatch => batches.push(Vec::new()),
            DurableOp::Append { new_batch, table, .. } => {
                if *new_batch || batches.is_empty() {
                    batches.push(Vec::new());
                }
                batches.last_mut().expect("batch list is non-empty").push(table.clone());
            }
        }
    }
    let mut batches = batches.into_iter();
    let first = batches.next().unwrap_or_default();
    let mut session = IntegrationSession::begin_with_policy(config, policy, &first)?;
    for batch in batches {
        session.add_tables(&batch)?;
    }
    Ok(session)
}

/// Persists `session` into `store` (which must be empty): one record per
/// appended table, batch boundaries preserved, finished with a flush so
/// the snapshot survives any crash after this returns.
///
/// The record group is the table name (plain snapshots have no routing
/// key; the serving layer writes its own records with tenant groups).
pub fn snapshot_session(store: &mut LakeStore, session: &IntegrationSession) -> StoreResult<()> {
    if store.next_seq() != 0 {
        return Err(StoreError::Snapshot(format!(
            "store already holds records up to seq {}; snapshot needs an empty store",
            store.next_seq() - 1
        )));
    }
    let mut tables = session.tables().iter();
    for &size in session.batch_sizes() {
        if size == 0 {
            store.append_empty_batch()?;
            continue;
        }
        for index in 0..size {
            let table = tables.next().expect("batch sizes sum to the table count");
            store.append(table.name(), table, index == 0)?;
        }
    }
    store.flush()
}

/// Restores the session a store's records describe, replaying them with
/// their original call boundaries.
pub fn restore_session(
    store: &LakeStore,
    config: FuzzyFdConfig,
    policy: IncrementalPolicy,
) -> TableResult<IntegrationSession> {
    replay_session(config, policy, store.recovered())
}

#[cfg(test)]
mod tests {
    use fuzzy_fd_core::FuzzyFdConfig;
    use lake_table::TableBuilder;

    use super::*;
    use crate::store::StorePolicy;

    fn figure_tables() -> Vec<Table> {
        vec![
            TableBuilder::new("cases", ["City", "Cases"])
                .row(["Berlin", "1.4M"])
                .row(["Boston", "263K"])
                .build()
                .unwrap(),
            TableBuilder::new("rates", ["City", "Rate"])
                .row(["Berlinn", "63%"])
                .row(["Boston", "62%"])
                .build()
                .unwrap(),
            TableBuilder::new("deaths", ["City", "Deaths"]).row(["berlin", "147"]).build().unwrap(),
        ]
    }

    /// Asserts two sessions are observably identical: same outcome bytes,
    /// same tables, same call boundaries, same cache counters.
    fn assert_sessions_equal(a: &IntegrationSession, b: &IntegrationSession) {
        assert_eq!(a.current().table, b.current().table);
        assert_eq!(a.current().value_groups, b.current().value_groups);
        assert_eq!(a.current().incremental, b.current().incremental);
        assert_eq!(a.tables(), b.tables());
        assert_eq!(a.batch_sizes(), b.batch_sizes());
        assert_eq!(a.embedding_stats(), b.embedding_stats());
        assert_eq!(a.fd_cache_stats(), b.fd_cache_stats());
    }

    #[test]
    fn snapshot_then_restore_reproduces_the_session_exactly() {
        let tables = figure_tables();
        let mut session =
            IntegrationSession::begin(FuzzyFdConfig::default(), &tables[..2]).unwrap();
        session.add_table(&tables[2]).unwrap();

        let dir = crate::test_dir("session-roundtrip");
        let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        snapshot_session(&mut store, &session).unwrap();
        drop(store);

        let store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        let restored =
            restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default())
                .unwrap();
        assert_sessions_equal(&session, &restored);

        // The restored session keeps evolving identically.
        let mut original = session;
        let mut restored = restored;
        let extra =
            TableBuilder::new("extra", ["City", "Extra"]).row(["Boston", "x"]).build().unwrap();
        let a = original.add_table(&extra).unwrap();
        let b = restored.add_table(&extra).unwrap();
        assert_eq!(a.table, b.table);
        assert_eq!(a.incremental, b.incremental);
    }

    #[test]
    fn snapshot_of_an_empty_session_restores_empty() {
        let session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        let dir = crate::test_dir("session-empty");
        let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        snapshot_session(&mut store, &session).unwrap();
        drop(store);

        let store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        let restored =
            restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default())
                .unwrap();
        assert_sessions_equal(&session, &restored);
        assert!(restored.current().table.is_empty());
        assert_eq!(restored.batch_sizes(), &[0]);
    }

    #[test]
    fn empty_interior_batches_replay_as_calls() {
        let tables = figure_tables();
        let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        session.add_table(&tables[0]).unwrap();
        session.add_tables(&[]).unwrap();
        session.add_tables(&tables[1..]).unwrap();
        assert_eq!(session.batch_sizes(), &[0, 1, 0, 2]);

        let dir = crate::test_dir("session-empty-batches");
        let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        snapshot_session(&mut store, &session).unwrap();
        drop(store);

        let store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        let restored =
            restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default())
                .unwrap();
        assert_sessions_equal(&session, &restored);
    }

    #[test]
    fn snapshot_into_a_nonempty_store_is_rejected() {
        let session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
        let dir = crate::test_dir("session-nonempty");
        let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        let table = TableBuilder::new("t", ["c"]).row(["v"]).build().unwrap();
        store.append("g", &table, true).unwrap();
        let err = snapshot_session(&mut store, &session).unwrap_err();
        assert!(matches!(err, StoreError::Snapshot(_)), "{err}");
    }
}
