//! Write-ahead log with torn-tail-tolerant recovery.
//!
//! Frames are `[payload_len: u32][crc32: u32][payload]`, appended
//! sequentially.  A crash mid-append leaves a *torn tail*: a frame whose
//! length field overruns the file or whose CRC does not match.  Recovery
//! ([`scan`]) keeps every frame up to the first tear and drops the rest —
//! a torn frame was by definition never fsync-acknowledged, so dropping it
//! is the correct outcome, never a data loss.  The scan reads one frame at
//! a time ([`scan_decoded`]), so recovering a log costs one frame of memory
//! beyond what its records decode to.  Opening the log truncates the tear
//! so appends resume on a clean frame boundary.
//!
//! Durability cadence is the [`FsyncPolicy`]: `Always` fsyncs inside every
//! append (ack ⇒ durable), `Batched` leaves fsync to explicit
//! [`flush`](Wal::flush) calls (the serving layer drives one from a
//! `lake-runtime` periodic service), `Never` leaves it to the OS.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::codec::crc32;
use crate::error::{StoreError, StoreResult};

/// The frame header length: payload length and CRC, four bytes each.
const FRAME_HEADER: u64 = 8;

/// When the log forces appended frames to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync inside every append: an acknowledged append is durable.  The
    /// default, and the policy the serving layer's 202-implies-durable
    /// contract requires.
    #[default]
    Always,
    /// Fsync only on explicit [`flush`](Wal::flush) calls; a crash may lose
    /// appends acknowledged since the last flush (they are still torn-tail
    /// safe: lost entirely, never half-applied).
    Batched,
    /// Never fsync appends; fastest, weakest.
    Never,
}

/// Result of scanning a log file: the intact records in append order,
/// plus where the intact prefix ends.
#[derive(Debug)]
pub struct WalScan<T = Vec<u8>> {
    /// Every intact frame, in append order, as the scan's decoder returned
    /// it (the raw payload for [`scan`]).
    pub records: Vec<T>,
    /// Byte length of the intact prefix (where the next append belongs).
    pub valid_bytes: u64,
    /// Bytes dropped after the intact prefix (torn tail), 0 on a clean log.
    pub torn_bytes: u64,
}

/// Scans the log at `path`, returning every intact payload.  A missing
/// file is an empty log.
pub fn scan(path: &Path) -> StoreResult<WalScan> {
    scan_decoded(path, |payload| Ok(payload.to_vec()))
}

/// Scans the log at `path` one frame at a time, handing each intact
/// payload to `decode` as soon as its CRC checks out.  A missing file is
/// an empty log.
///
/// Only one payload is held at a time, and a length field is checked
/// against the bytes left in the file before its payload is allocated, so
/// a scan never holds more than one frame beyond what `decode` keeps.  A
/// `decode` error aborts the scan: the frame is intact, so its bytes are
/// not a torn tail but corruption.
pub fn scan_decoded<T>(
    path: &Path,
    mut decode: impl FnMut(&[u8]) -> StoreResult<T>,
) -> StoreResult<WalScan<T>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan { records: Vec::new(), valid_bytes: 0, torn_bytes: 0 })
        }
        Err(err) => return Err(StoreError::Io(err)),
    };
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut records = Vec::new();
    let mut payload = Vec::new();
    let mut pos = 0u64;
    while file_len - pos >= FRAME_HEADER {
        let mut header = [0u8; FRAME_HEADER as usize];
        reader.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u64::from(u32::from_le_bytes([l0, l1, l2, l3]));
        if len > file_len - pos - FRAME_HEADER {
            break; // length field overruns the file: torn mid-payload
        }
        payload.resize(len as usize, 0);
        reader.read_exact(&mut payload)?;
        if crc32(&payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            break; // torn mid-frame (or bit rot at the tail)
        }
        records.push(decode(&payload)?);
        pos += FRAME_HEADER + len;
    }
    Ok(WalScan { records, valid_bytes: pos, torn_bytes: file_len - pos })
}

/// The length field of a frame carrying `payload_len` bytes; a payload
/// over 4 GiB cannot be framed.
fn frame_len(payload_len: usize) -> StoreResult<u32> {
    u32::try_from(payload_len).map_err(|_| StoreError::RecordTooLarge { bytes: payload_len })
}

/// An open write-ahead log positioned after its intact prefix.
#[derive(Debug)]
pub struct Wal {
    file: File,
    policy: FsyncPolicy,
    bytes: u64,
    records: u64,
    appends: u64,
    fsyncs: u64,
}

impl Wal {
    /// Opens the log at `path`, truncating everything past `valid_bytes`
    /// (the torn tail found by [`scan`]) so appends resume cleanly.
    /// `records` is the intact frame count from the same scan.
    pub fn open(
        path: &Path,
        policy: FsyncPolicy,
        valid_bytes: u64,
        records: u64,
    ) -> StoreResult<Self> {
        let created = !path.try_exists()?;
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        file.set_len(valid_bytes)?;
        if created {
            // An fsynced append is lost with its file if the directory
            // entry is not durable too.
            sync_parent_dir(path)?;
        }
        Ok(Wal { file, policy, bytes: valid_bytes, records, appends: 0, fsyncs: 0 })
    }

    /// Appends one frame; under [`FsyncPolicy::Always`] it is durable when
    /// this returns.
    pub fn append(&mut self, payload: &[u8]) -> StoreResult<()> {
        let len = frame_len(payload.len())?;
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER as usize);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.bytes))?;
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        self.appends += 1;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Forces appended frames to stable storage (no-op under
    /// [`FsyncPolicy::Never`]).
    pub fn flush(&mut self) -> StoreResult<()> {
        if self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Current log length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Frames currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends performed through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs performed through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// Fsyncs the directory containing `path`, making a new entry durable.
fn sync_parent_dir(path: &Path) -> StoreResult<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn open_fresh(tag: &str) -> (PathBuf, Wal) {
        let path = crate::test_dir(tag).join("wal");
        let wal = Wal::open(&path, FsyncPolicy::Always, 0, 0).unwrap();
        (path, wal)
    }

    #[test]
    fn appended_frames_scan_back_in_order() {
        let (path, mut wal) = open_fresh("wal-roundtrip");
        for payload in [b"alpha".as_slice(), b"", b"gamma-gamma"] {
            wal.append(payload).unwrap();
        }
        assert_eq!(wal.records(), 3);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, vec![b"alpha".to_vec(), Vec::new(), b"gamma-gamma".to_vec()]);
        assert_eq!(scanned.valid_bytes, wal.bytes());
        assert_eq!(scanned.torn_bytes, 0);
    }

    #[test]
    fn missing_and_empty_logs_scan_empty() {
        let dir = crate::test_dir("wal-empty");
        let missing = scan(&dir.join("nope")).unwrap();
        assert_eq!((missing.records.len(), missing.valid_bytes, missing.torn_bytes), (0, 0, 0));
        std::fs::write(dir.join("wal"), b"").unwrap();
        let empty = scan(&dir.join("wal")).unwrap();
        assert_eq!((empty.records.len(), empty.valid_bytes, empty.torn_bytes), (0, 0, 0));
    }

    #[test]
    fn torn_tails_are_dropped_at_every_cut_point() {
        let (path, mut wal) = open_fresh("wal-torn");
        wal.append(b"first-record").unwrap();
        let keep = wal.bytes();
        wal.append(b"second-record").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file anywhere inside the second frame: scan must return
        // exactly the first record.
        for cut in keep as usize + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scanned = scan(&path).unwrap();
            assert_eq!(scanned.records.len(), 1, "cut at {cut}");
            assert_eq!(scanned.valid_bytes, keep, "cut at {cut}");
            assert_eq!(scanned.torn_bytes, cut as u64 - keep, "cut at {cut}");
        }
    }

    #[test]
    fn log_with_only_a_torn_tail_recovers_to_empty() {
        let dir = crate::test_dir("wal-only-torn");
        let path = dir.join("wal");
        // A length field promising more bytes than the file holds.
        std::fs::write(&path, 1_000_000u32.to_le_bytes()).unwrap();
        let scanned = scan(&path).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.valid_bytes, 0);
        assert_eq!(scanned.torn_bytes, 4);
        // Opening truncates the tear; the next append then scans cleanly.
        let mut wal = Wal::open(&path, FsyncPolicy::Always, scanned.valid_bytes, 0).unwrap();
        wal.append(b"fresh").unwrap();
        assert_eq!(scan(&path).unwrap().records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let (path, mut wal) = open_fresh("wal-crc");
        wal.append(b"aaaa").unwrap();
        wal.append(b"bbbb").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF; // flip last payload byte of record 2
        std::fs::write(&path, &bytes).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, vec![b"aaaa".to_vec()]);
        assert!(scanned.torn_bytes > 0);
    }

    #[test]
    fn a_payload_over_4_gib_is_an_error_not_a_panic() {
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        let err = frame_len(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, StoreError::RecordTooLarge { bytes } if bytes == 1 << 32), "{err}");
    }

    #[test]
    fn a_frame_that_fails_to_decode_is_corruption_not_a_tear() {
        let (path, mut wal) = open_fresh("wal-decode");
        wal.append(b"good").unwrap();
        wal.append(b"bad").unwrap();
        let err = scan_decoded(&path, |payload| {
            if payload == b"bad" {
                Err(StoreError::Corrupt { context: "test record", detail: "bad".to_string() })
            } else {
                Ok(payload.len())
            }
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { context: "test record", .. }), "{err}");
    }
}
