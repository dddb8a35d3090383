//! Store error type, carrying enough context to tell apart "the disk
//! failed" from "the bytes on disk are not what we wrote".

use std::io;

use lake_table::TableError;

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// How a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// On-disk bytes failed validation (bad magic, CRC mismatch, truncated
    /// structure) somewhere a torn tail cannot explain.  `context` names
    /// the structure being decoded.
    Corrupt {
        /// Which durable structure was being decoded.
        context: &'static str,
        /// What exactly failed.
        detail: String,
    },
    /// A table-layer failure while decoding or replaying (e.g. a schema
    /// rejected by `lake-table`).
    Table(TableError),
    /// A record too large for one log frame (the length field is 32 bits).
    RecordTooLarge {
        /// Encoded size of the rejected record.
        bytes: usize,
    },
    /// A snapshot request the store cannot represent (e.g. snapshotting
    /// into a store that already holds records).
    Snapshot(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::Corrupt { context, detail } => write!(f, "corrupt {context}: {detail}"),
            StoreError::Table(err) => write!(f, "table error: {err}"),
            StoreError::RecordTooLarge { bytes } => {
                write!(f, "record of {bytes} bytes exceeds the 4 GiB log frame limit")
            }
            StoreError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Table(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<TableError> for StoreError {
    fn from(err: TableError) -> Self {
        StoreError::Table(err)
    }
}
