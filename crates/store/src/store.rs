//! The durable lake store: one write-ahead log per shard.
//!
//! One [`LakeStore`] persists the append history of one
//! [`IntegrationSession`](fuzzy_fd_core::IntegrationSession) (one serving
//! shard).  The natural log record is the `add_table` call: an
//! [`append`](LakeStore::append) writes one WAL frame carrying the full
//! table and is durable when it returns (under
//! [`FsyncPolicy::Always`]).  The session is a deterministic function of
//! those records, so the log is the store's only file: it is never
//! compacted, and [`open`](LakeStore::open) recovers with one pass over it.
//!
//! ## Crash safety, by fault point
//!
//! * **torn tail** — a crash mid-append leaves a frame that fails its
//!   length/CRC check; the scan drops it.  Such a frame was never
//!   acknowledged, so recovered state equals the acknowledged history.
//! * **post-ack / pre-apply** — an acknowledged record whose session apply
//!   never ran is simply an intact log frame; recovery replays it.

use std::path::Path;

use lake_table::Table;

use crate::codec::{self, Reader};
use crate::error::{StoreError, StoreResult};
use crate::wal::{self, FsyncPolicy, Wal};

/// Files of the checkpointed layout earlier versions of this store wrote
/// beside `wal`.  The records they hold are not in the log, so a store
/// that finds one refuses to open rather than silently drop them.
const CHECKPOINTED_LAYOUT: [&str; 2] = ["manifest", "segments"];

/// Durability configuration of a [`LakeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorePolicy {
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Not a setting: keeps `StorePolicy { fsync, ..StorePolicy::default() }`,
    /// which `lakebench` writes, free of clippy's `needless_update`.  Goes
    /// with the other two `lakebench` shims ([`LakeStore::checkpoint`],
    /// [`StoreStatus::pool`]).
    #[doc(hidden)]
    pub _reserved: (),
}

/// What one durable record did to the session.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOp {
    /// One table handed to `add_tables`.  `new_batch` marks the first
    /// table of a call (replay reproduces the original call boundaries,
    /// which the session's determinism guarantee keys on).
    Append {
        /// Routing group the table arrived under (the serving layer's
        /// tenant key; the table name for plain session snapshots).
        group: String,
        /// Whether this table opened a new `add_tables` call.
        new_batch: bool,
        /// The appended table.
        table: Table,
    },
    /// An `add_tables(&[])` call — appends nothing but still advances the
    /// session's outcome, so it must replay as a call of its own.
    EmptyBatch,
}

/// One recovered log record.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableRecord {
    /// Monotone sequence number, unique per store.
    pub seq: u64,
    /// The logged operation.
    pub op: DurableOp,
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records recovered from the log.
    pub wal_records: u64,
    /// Bytes dropped from the log as a torn tail.
    pub torn_bytes: u64,
}

/// Buffer-pool counters of the retired segment reader: always zero.  Kept
/// only because `lakebench` still reads `store.pool_hit_ratio` from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Cumulative durability counters, surfaced by the serving layer's
/// `/stats` route.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStatus {
    /// Records appended through this handle.
    pub appends: u64,
    /// Frames in the log.
    pub wal_records: u64,
    /// Log length in bytes.
    pub wal_bytes: u64,
    /// Fsyncs issued (appends + flushes).
    pub fsyncs: u64,
    /// All zero; see [`PoolStats`].
    pub pool: PoolStats,
    /// What recovery found at open.
    pub recovery: RecoveryStats,
}

/// The durable store for one lake shard.
#[derive(Debug)]
pub struct LakeStore {
    wal: Wal,
    /// Records recovered at open, in sequence order.
    recovered: Vec<DurableRecord>,
    next_seq: u64,
    recovery: RecoveryStats,
}

impl LakeStore {
    /// Opens (creating if absent) the store in `dir` and runs recovery:
    /// one pass over the log decodes every intact record and drops a torn
    /// tail.  A directory that still holds a checkpointed layout (a
    /// `manifest` or `segments` file) is refused as
    /// [`StoreError::Corrupt`].
    pub fn open(dir: &Path, policy: StorePolicy) -> StoreResult<Self> {
        std::fs::create_dir_all(dir)?;
        for name in CHECKPOINTED_LAYOUT {
            let path = dir.join(name);
            if path.try_exists()? {
                return Err(StoreError::Corrupt {
                    context: "store directory",
                    detail: format!(
                        "{} belongs to a checkpointed layout whose records are not in the log",
                        path.display()
                    ),
                });
            }
        }

        let path = dir.join("wal");
        let scan = wal::scan_decoded(&path, decode_record)?;
        let wal_records = scan.records.len() as u64;
        let next_seq = scan.records.last().map_or(0, |record| record.seq + 1);
        let wal = Wal::open(&path, policy.fsync, scan.valid_bytes, wal_records)?;
        Ok(LakeStore {
            wal,
            recovered: scan.records,
            next_seq,
            recovery: RecoveryStats { wal_records, torn_bytes: scan.torn_bytes },
        })
    }

    /// Records recovered at open, in sequence order.
    pub fn recovered(&self) -> &[DurableRecord] {
        &self.recovered
    }

    /// Takes ownership of the recovered records (the serving layer hands
    /// them to the writer thread and drops the store-side copies).
    pub fn take_recovered(&mut self) -> Vec<DurableRecord> {
        std::mem::take(&mut self.recovered)
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Logs one `add_table` record; durable on return under
    /// [`FsyncPolicy::Always`].  Returns the record's sequence number.
    pub fn append(&mut self, group: &str, table: &Table, new_batch: bool) -> StoreResult<u64> {
        let mut payload = record_header(self.next_seq, 0);
        codec::put_u8(&mut payload, u8::from(new_batch));
        codec::put_str(&mut payload, group);
        payload.extend_from_slice(&codec::encode_table(table));
        self.log(&payload)
    }

    /// Logs an `add_tables(&[])` call (session snapshots use this to keep
    /// replayed call boundaries exact).
    pub fn append_empty_batch(&mut self) -> StoreResult<u64> {
        self.log(&record_header(self.next_seq, 1))
    }

    /// Appends one encoded record and hands out its sequence number.
    fn log(&mut self, payload: &[u8]) -> StoreResult<u64> {
        self.wal.append(payload)?;
        self.next_seq += 1;
        Ok(self.next_seq - 1)
    }

    /// Forces logged records to stable storage (the batched-fsync flush
    /// point; a no-op under [`FsyncPolicy::Never`]).
    pub fn flush(&mut self) -> StoreResult<()> {
        self.wal.flush()
    }

    /// A [`flush`](Self::flush) that reports no records moved.  The log is
    /// the store's only copy, so there is nothing to checkpoint; kept only
    /// because `lakebench` still times `store.checkpoint_ms` through it.
    pub fn checkpoint(&mut self, _upto_seq: u64) -> StoreResult<usize> {
        self.flush()?;
        Ok(0)
    }

    /// Current durability counters.
    pub fn status(&self) -> StoreStatus {
        StoreStatus {
            appends: self.wal.appends(),
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            fsyncs: self.wal.fsyncs(),
            pool: PoolStats::default(),
            recovery: self.recovery,
        }
    }
}

/// The first bytes of every WAL record: sequence number and record kind
/// (0 = table append, 1 = empty batch).
fn record_header(seq: u64, kind: u8) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, seq);
    codec::put_u8(&mut out, kind);
    out
}

/// Decodes a WAL frame payload (already CRC-verified by the log scan).
fn decode_record(payload: &[u8]) -> StoreResult<DurableRecord> {
    let mut reader = Reader::new(payload, "wal record");
    let seq = reader.take_u64()?;
    let op = match reader.take_u8()? {
        0 => {
            let new_batch = reader.take_u8()? != 0;
            let group = reader.take_str()?;
            let consumed = payload.len() - reader.remaining();
            let table = codec::decode_table(&payload[consumed..], "wal record")?;
            return Ok(DurableRecord { seq, op: DurableOp::Append { group, new_batch, table } });
        }
        1 => DurableOp::EmptyBatch,
        tag => {
            return Err(StoreError::Corrupt {
                context: "wal record",
                detail: format!("unknown record kind {tag}"),
            })
        }
    };
    reader.finish()?;
    Ok(DurableRecord { seq, op })
}
