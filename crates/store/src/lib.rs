//! # lake-store
//!
//! Durable lake state for the integration pipeline: everything a
//! [`LakeStore`] is asked to remember survives `kill -9`.
//!
//! The design starts from the classic storage-engine decomposition (log
//! → recovery), adapted to this workspace's one unusual asset: an
//! [`IntegrationSession`](fuzzy_fd_core::IntegrationSession) is a *pure,
//! deterministic function* of its appended tables and call boundaries.
//! So the store never serializes matcher state or caches — it logs the
//! `add_table` calls themselves and restores by replay, which reproduces
//! warmed caches and every `/query` byte exactly.  Every open replays every
//! record anyway, so the log is the store's one durable copy of each
//! table: there are no pages to cache and nothing to checkpoint.
//!
//! ## Layers
//!
//! * [`Wal`] — length+CRC framed log, a streaming torn-tail-tolerant scan
//!   ([`wal::scan_decoded`]), fsync cadence per [`FsyncPolicy`];
//! * [`codec`] — the record and [`Table`](lake_table::Table) encoding
//!   inside each frame;
//! * [`LakeStore`] — one log file per store: [`append`](LakeStore::append)
//!   = one durable log record per `add_table` call, [`open`](LakeStore::open)
//!   = one pass over the log;
//! * [`snapshot_session`] / [`restore_session`] / [`replay_session`] —
//!   session persistence by deterministic replay.
//!
//! ## Crash-safety contract
//!
//! After a crash at *any* point, reopening the store recovers exactly the
//! records whose append (plus fsync, under the policy in force) completed
//! — acknowledged records are never lost and torn records are never
//! half-applied.  The fault points (torn tail, post-ack/pre-apply) are
//! exercised by `tests/store_recovery.rs` and a real `SIGKILL` harness in
//! `tests/crash_kill.rs`.
//!
//! ```
//! use fuzzy_fd_core::{FuzzyFdConfig, IncrementalPolicy, IntegrationSession};
//! use lake_store::{LakeStore, StorePolicy};
//! use lake_table::TableBuilder;
//!
//! let dir = std::env::temp_dir().join(format!("lake-store-doc-{}", std::process::id()));
//! let mut store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
//!
//! let table = TableBuilder::new("cases", ["City", "Cases"]).row(["Berlin", "1.4M"]).build().unwrap();
//! store.append("covid", &table, true).unwrap(); // durable when this returns
//! drop(store); // crash here instead: same outcome
//!
//! let store = LakeStore::open(&dir, StorePolicy::default()).unwrap();
//! let session = lake_store::restore_session(
//!     &store,
//!     FuzzyFdConfig::default(),
//!     IncrementalPolicy::default(),
//! )
//! .unwrap();
//! assert_eq!(session.tables().len(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod codec;
pub mod error;
pub mod session;
pub mod store;
pub mod wal;

pub use codec::crc32;
pub use error::{StoreError, StoreResult};
pub use session::{replay_session, restore_session, snapshot_session};
pub use store::{
    DurableOp, DurableRecord, LakeStore, PoolStats, RecoveryStats, StorePolicy, StoreStatus,
};
pub use wal::{FsyncPolicy, Wal, WalScan};

/// Creates a unique scratch directory for a unit test.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("lake-store-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
