//! Deterministic fault-point recovery tests for `lake-store`.
//!
//! The SIGKILL harness (`crates/store/tests/crash_kill.rs`) kills a real
//! writer at arbitrary moments; these tests instead *fabricate* the exact
//! on-disk state each named fault point leaves behind — a torn tail
//! record, an acknowledged-but-never-applied tail — plus the store edge
//! cases (zero-length log, torn-only log, widened-schema restore, a
//! ten-record log, a directory left in the retired checkpointed layout),
//! and assert recovery always equals a clean uninterrupted replay.

use std::path::{Path, PathBuf};

use datalake_fuzzy_fd::core::{FuzzyFdConfig, IncrementalPolicy, IntegrationSession};
use datalake_fuzzy_fd::store::{
    restore_session, snapshot_session, DurableOp, LakeStore, StoreError, StorePolicy,
};
use datalake_fuzzy_fd::table::{Table, TableBuilder};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-recovery-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic workload table `i`: schema width varies with `i`, so the
/// integrated schema keeps widening as the sequence grows.
fn workload_table(i: u64) -> Table {
    let extra = format!("attr{}", i % 5);
    let mut builder =
        TableBuilder::new(format!("t{i}"), ["Entity".to_string(), extra, format!("wide{}", i % 3)]);
    for row in 0..4 {
        builder = builder.row([
            format!("entity-{}", (i + row) % 9),
            format!("v{i}-{row}"),
            format!("w{}", (i * 7 + row) % 13),
        ]);
    }
    builder.build().expect("workload table builds")
}

fn append_workload(store: &mut LakeStore, from: u64, upto: u64) {
    for i in from..upto {
        let seq = store.append("fault", &workload_table(i), true).expect("append");
        assert_eq!(seq, i);
    }
}

/// A clean, never-crashed session over the first `n` workload tables.
fn clean_session(n: u64) -> IntegrationSession {
    let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
    for i in 0..n {
        session.add_table(&workload_table(i)).unwrap();
    }
    session
}

/// Opens the store at `dir` and asserts it recovers exactly the first `n`
/// workload records, byte-identically, and that the restored session
/// equals a clean replay (caches and counters included).
fn assert_recovers_prefix(dir: &Path, policy: StorePolicy, n: u64) -> LakeStore {
    let store = LakeStore::open(dir, policy).unwrap();
    let records = store.recovered();
    assert_eq!(records.len() as u64, n, "recovered record count");
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.seq, i as u64);
        match &record.op {
            DurableOp::Append { group, new_batch, table } => {
                assert_eq!(group, "fault");
                assert!(*new_batch);
                assert_eq!(table, &workload_table(i as u64), "payload of seq {i}");
            }
            DurableOp::EmptyBatch => panic!("workload never logs empty batches"),
        }
    }
    let restored =
        restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default()).unwrap();
    let clean = clean_session(n);
    assert_eq!(restored.current().table, clean.current().table);
    assert_eq!(restored.current().value_groups, clean.current().value_groups);
    assert_eq!(restored.current().incremental, clean.current().incremental);
    assert_eq!(restored.tables(), clean.tables());
    assert_eq!(restored.embedding_stats(), clean.embedding_stats());
    assert_eq!(restored.fd_cache_stats(), clean.fd_cache_stats());
    store
}

#[test]
fn fault_torn_tail_record_is_dropped_and_the_prefix_replays_cleanly() {
    let dir = test_dir("torn-tail");
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    append_workload(&mut store, 0, 5);
    drop(store);

    // The crash tore the in-flight 6th record: leave half a frame behind.
    let wal = dir.join("wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let torn = [12u8, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3]; // length 12, 3 payload bytes
    bytes.extend_from_slice(&torn);
    std::fs::write(&wal, &bytes).unwrap();

    let store = assert_recovers_prefix(&dir, StorePolicy::default(), 5);
    assert_eq!(store.status().recovery.torn_bytes, torn.len() as u64);
    // The tear was truncated at open: appends continue from seq 5.
    assert_eq!(store.next_seq(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_acknowledged_but_never_applied_records_recover() {
    // The post-ack/pre-apply fault point: the writer logged (and fsynced)
    // records, acked them, and died before any session ever applied them.
    // Recovery must surface all of them — an ack is a durability promise.
    let dir = test_dir("post-ack");
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    append_workload(&mut store, 0, 3);
    drop(store); // no flush, no session, no clean shutdown

    assert_recovers_prefix(&dir, StorePolicy::default(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_zero_length_log_opens_empty_and_appends() {
    let dir = test_dir("zero-wal");
    std::fs::write(dir.join("wal"), b"").unwrap();
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    assert!(store.recovered().is_empty());
    assert_eq!(store.next_seq(), 0);
    append_workload(&mut store, 0, 2);
    drop(store);
    assert_recovers_prefix(&dir, StorePolicy::default(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_log_holding_only_a_torn_tail_recovers_to_empty() {
    let dir = test_dir("torn-only");
    std::fs::write(dir.join("wal"), [200u8, 0, 0, 0, 9, 9]).unwrap(); // claims 200 bytes, has 2
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    assert!(store.recovered().is_empty());
    assert_eq!(store.status().recovery.torn_bytes, 6);
    // The tear is gone; the store is a working empty store.
    append_workload(&mut store, 0, 1);
    drop(store);
    assert_recovers_prefix(&dir, StorePolicy::default(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_snapshot_restores_onto_a_widened_schema() {
    // Later tables introduce columns the earlier ones lack; the restored
    // session must reproduce the widened integrated schema exactly.
    let narrow = TableBuilder::new("narrow", ["City"]).row(["Berlin"]).build().unwrap();
    let wide = TableBuilder::new("wide", ["City", "Cases", "Rate"])
        .row(["Berlin", "1.4M", "63%"])
        .row(["Boston", "263K", "62%"])
        .build()
        .unwrap();
    let wider = TableBuilder::new("wider", ["City", "Deaths", "Beds", "Region"])
        .row(["berlin", "147", "900", "EU"])
        .build()
        .unwrap();

    let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[narrow]).unwrap();
    session.add_table(&wide).unwrap();
    session.add_table(&wider).unwrap();
    let widened_columns = session.current().table.columns().len();
    assert!(widened_columns > 1, "workload must actually widen the schema");

    let dir = test_dir("widened");
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    snapshot_session(&mut store, &session).unwrap();
    drop(store);

    let store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    let restored =
        restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default()).unwrap();
    assert_eq!(restored.current().table.columns().len(), widened_columns);
    assert_eq!(restored.current().table, session.current().table);
    assert_eq!(restored.batch_sizes(), session.batch_sizes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_ten_records_recover_exactly_from_one_log_pass() {
    // Ten tables whose schemas keep widening: the recovered bytes and the
    // replayed session (whose `ComponentCache` must index every append
    // afresh) still equal a clean run.
    let dir = test_dir("ten-records");
    let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
    append_workload(&mut store, 0, 10);
    store.flush().unwrap();
    drop(store);

    let store = assert_recovers_prefix(&dir, StorePolicy::default(), 10);
    let status = store.status();
    assert_eq!(status.recovery.wal_records, 10);
    assert_eq!(status.recovery.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_a_checkpointed_layout_is_refused_not_silently_dropped() {
    // Records a checkpoint moved into `segments` are not in the log, so
    // replaying the log alone would lose them without a word.
    for name in ["manifest", "segments"] {
        let dir = test_dir(&format!("checkpointed-{name}"));
        let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
        append_workload(&mut store, 0, 2);
        drop(store);
        std::fs::write(dir.join(name), b"checkpointed records").unwrap();

        let err = LakeStore::open(&dir, StorePolicy::default()).unwrap_err();
        match &err {
            StoreError::Corrupt { detail, .. } => {
                assert!(detail.contains(&dir.join(name).display().to_string()), "{err}");
            }
            other => panic!("expected Corrupt naming {name}, got {other:?}"),
        }
        // The refusal touched nothing: without the stray file the log opens.
        std::fs::remove_file(dir.join(name)).unwrap();
        assert_recovers_prefix(&dir, StorePolicy::default(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
