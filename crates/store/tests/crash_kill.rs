//! Kill-at-arbitrary-point crash harness.
//!
//! Spawns the `crash-writer` binary (which appends a deterministic
//! workload, printing `acked <seq>` after every durable append), SIGKILLs
//! it after a chosen number of acks, then recovers the store and asserts
//! the durability contract:
//!
//! * **no acked loss** — every acked sequence number is recovered;
//! * **no invention** — nothing past what the writer could have sent;
//! * **no partial apply** — recovered records are byte-identical to the
//!   workload tables, and the restored session equals a clean
//!   uninterrupted replay of the same prefix (caches and counters
//!   included);
//! * **resumability** — a restarted writer finishes the workload and the
//!   final state equals a never-crashed run.
//!
//! The kill lands wherever the writer happens to be — mid-append (torn
//! tail) or between ack and apply; recovery must not care.  Deterministic file-level fault *injection* for each named fault
//! point lives in `tests/store_recovery.rs` at the workspace root.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use fuzzy_fd_core::{FuzzyFdConfig, IncrementalPolicy, IntegrationSession};
use lake_store::{DurableOp, LakeStore, StorePolicy};
use lake_table::{Table, TableBuilder};

const WORKLOAD: u64 = 12;

/// The deterministic workload table for sequence `seq` (kept in lockstep
/// with the copy in `src/bin/crash_writer.rs`).
fn workload_table(seq: u64) -> Table {
    let mut builder =
        TableBuilder::new(format!("t{seq}"), ["Entity".to_string(), format!("attr{}", seq % 7)]);
    for row in 0..3 {
        builder = builder.row([format!("entity-{}", (seq + row) % 11), format!("v{seq}-{row}")]);
    }
    builder.build().expect("workload table builds")
}

/// A clean, never-crashed session over the first `n` workload tables,
/// integrated one `add_table` call each — exactly what the serving layer
/// would have computed with no crash.
fn clean_session(n: u64) -> IntegrationSession {
    let mut session = IntegrationSession::begin(FuzzyFdConfig::default(), &[]).unwrap();
    for seq in 0..n {
        session.add_table(&workload_table(seq)).unwrap();
    }
    session
}

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lake-store-kill-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the writer, kills it after `kill_after_acks` ack lines (or lets it
/// finish if it acks fewer), and returns the acked sequence numbers.
fn run_and_kill(dir: &Path, kill_after_acks: usize) -> Vec<u64> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crash-writer"))
        .arg(dir)
        .arg(WORKLOAD.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn crash-writer");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut acked = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read writer stdout");
        if let Some(seq) = line.strip_prefix("acked ") {
            acked.push(seq.parse::<u64>().expect("ack line carries a sequence number"));
        }
        if acked.len() >= kill_after_acks {
            child.kill().expect("SIGKILL the writer");
            break;
        }
    }
    child.wait().expect("reap the writer");
    acked
}

/// Opens the store and asserts the full durability contract against the
/// `acked` prefix; returns how many records were recovered.
fn assert_recovered_contract(dir: &Path, acked: &[u64]) -> u64 {
    let store = LakeStore::open(dir, StorePolicy::default()).unwrap();
    let records = store.recovered();
    let n = records.len() as u64;

    // Dense, ordered sequence numbers.
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.seq, i as u64, "recovered sequence must be dense");
    }
    // acked ⊆ recovered ⊆ sent.
    let max_acked = acked.last().copied();
    if let Some(max_acked) = max_acked {
        assert!(n > max_acked, "acked seq {max_acked} lost: only {n} records recovered");
    }
    assert!(n <= WORKLOAD, "recovered {n} records, sent at most {WORKLOAD}");

    // Byte-exact payloads: never a partially applied record.
    for record in records {
        match &record.op {
            DurableOp::Append { group, new_batch, table } => {
                assert_eq!(group, "crash");
                assert!(*new_batch);
                assert_eq!(table, &workload_table(record.seq), "payload of seq {}", record.seq);
            }
            DurableOp::EmptyBatch => panic!("writer never logs empty batches"),
        }
    }

    // Recovered state == clean uninterrupted replay of the same prefix.
    let restored =
        lake_store::restore_session(&store, FuzzyFdConfig::default(), IncrementalPolicy::default())
            .unwrap();
    let clean = clean_session(n);
    assert_eq!(restored.current().table, clean.current().table);
    assert_eq!(restored.current().value_groups, clean.current().value_groups);
    assert_eq!(restored.current().incremental, clean.current().incremental);
    assert_eq!(restored.tables(), clean.tables());
    assert_eq!(restored.embedding_stats(), clean.embedding_stats());
    assert_eq!(restored.fd_cache_stats(), clean.fd_cache_stats());
    n
}

#[test]
fn killed_writers_lose_nothing_acknowledged() {
    // An early kill, three consecutive ones and a deep one.
    for kill_after in [2usize, 3, 4, 7] {
        let dir = test_dir(&format!("kill-{kill_after}"));
        let acked = run_and_kill(&dir, kill_after);
        assert!(!acked.is_empty(), "writer must ack before a kill at {kill_after}");
        let recovered = assert_recovered_contract(&dir, &acked);

        // Crash again mid-flight, recover again: recovery must be stable
        // under repeated crashes on the same store.
        let acked_again = run_and_kill(&dir, 3);
        let recovered_again = assert_recovered_contract(&dir, &acked_again);
        assert!(recovered_again >= recovered, "recovery went backwards");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn restarted_writer_finishes_and_matches_a_never_crashed_run() {
    let dir = test_dir("resume");
    let acked = run_and_kill(&dir, 5);
    assert!(!acked.is_empty());

    // Restart without a kill budget: the writer resumes from next_seq and
    // completes the workload.
    let output = Command::new(env!("CARGO_BIN_EXE_crash-writer"))
        .arg(&dir)
        .arg(WORKLOAD.to_string())
        .output()
        .expect("run crash-writer to completion");
    assert!(output.status.success(), "writer failed: {:?}", output);
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.ends_with("done\n"), "writer must report completion");

    let recovered = assert_recovered_contract(&dir, &[WORKLOAD - 1]);
    assert_eq!(recovered, WORKLOAD, "resumed run must cover the whole workload");
    std::fs::remove_dir_all(&dir).ok();
}
