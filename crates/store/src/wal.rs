//! Delta write-ahead log.
//!
//! A sidecar (`corpus.delta`) is a *checkpoint*: the full overlay state
//! as plain-text ops. The WAL (`corpus.delta.wal`) is an append-only
//! journal of the batches applied *since* that checkpoint. A writer
//! appends + fsyncs the batch before making it visible, so a batch
//! whose append returned is durable across SIGKILL; readers replay
//! checkpoint + journal to reconstruct the committed state.
//!
//! ## On-disk format
//!
//! ```text
//! header:  "SOWL" | u32 version (=1)                      (8 bytes)
//! record:  u32 payload_len | u64 seq | u32 payload_crc
//!          | u32 header_crc | payload                     (20 + len bytes)
//! ```
//!
//! All integers little-endian. `payload` is the batch as sidecar ops
//! text (see [`crate::delta::parse_ops`]). `seq` starts at 1 and is
//! strictly increasing within a file. `header_crc` is the CRC32 of the
//! first 16 header bytes; `payload_crc` covers the payload. The header
//! CRC matters: without it, a bit flip in a mid-file `payload_len`
//! would make the record appear to extend past EOF and a recovery pass
//! would silently truncate *committed* later batches. With it, a
//! damaged header is always categorized corruption, and "extends past
//! EOF" with a *valid* header can only mean a torn append.
//!
//! ## Recovery semantics
//!
//! * A record whose frame runs past EOF (with a valid or incomplete
//!   header) is a **torn tail**: the append never completed, so the
//!   batch was never committed. Writer-mode recovery truncates it and
//!   records `store.wal.torn_tail`; read-only scans report it.
//! * A *complete* record that fails its CRC (header or payload), or a
//!   non-monotonic `seq`, is **corruption** — data that was once
//!   committed is damaged — and surfaces as
//!   [`StoreError::Corrupt`], never a silent truncation.
//!
//! ## Checkpoint high-water mark
//!
//! Folding the journal into a rewritten sidecar has an unavoidable
//! window: the checkpoint rename can land while the journal truncation
//! hasn't — and replaying already-folded batches is not idempotent
//! (re-retracts error, re-inserts duplicate). Checkpoint writers
//! therefore stamp the sidecar with [`checkpoint_marker`] (an ops-text
//! comment recording the last folded `seq`), recovery skips journal
//! records with `seq <=` [`checkpointed_seq`], and writers call
//! [`DeltaWal::ensure_seq_above`] with that mark so post-checkpoint
//! batches always sequence above it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use standoff_core::crc::crc32;
use standoff_core::{fault, MetricsRegistry};

use crate::error::StoreError;

const WAL_MAGIC: &[u8; 4] = b"SOWL";
const WAL_VERSION: u32 = 1;
const HEADER_BYTES: usize = 8;
const RECORD_HEADER_BYTES: usize = 20;

/// One committed batch recovered from the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic batch sequence number (1-based within the file).
    pub seq: u64,
    /// The batch as sidecar ops text.
    pub ops: String,
}

/// Result of a read-only [`DeltaWal::scan`].
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Committed batches, in append order.
    pub records: Vec<WalRecord>,
    /// A torn (partially-appended) final record was found after the
    /// valid prefix. Read-only scans leave it in place; writer-mode
    /// [`DeltaWal::open`] truncates it.
    pub torn_tail: bool,
    /// Length of the valid prefix in bytes (header included).
    pub valid_bytes: u64,
}

/// Append handle over a `<sidecar>.wal` journal.
#[derive(Debug)]
pub struct DeltaWal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    end: u64,
}

/// The journal path belonging to a sidecar: `<sidecar>.wal`.
pub fn wal_path(sidecar: &Path) -> PathBuf {
    let mut name = sidecar.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// The sidecar comment line a checkpoint writer prepends to record the
/// last journal `seq` folded into the checkpoint (`parse_ops` skips
/// `#` lines, so old readers are unaffected).
pub fn checkpoint_marker(seq: u64) -> String {
    format!("# wal-checkpoint-seq {seq}\n")
}

/// The checkpoint high-water mark recorded in sidecar ops text, or 0
/// if none: journal records with `seq` at or below it are already part
/// of the checkpoint and must not replay again.
pub fn checkpointed_seq(sidecar_text: &str) -> u64 {
    sidecar_text
        .lines()
        .map(str::trim)
        .take_while(|l| l.is_empty() || l.starts_with('#'))
        .find_map(|l| l.strip_prefix("# wal-checkpoint-seq "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Parse journal bytes into the committed prefix. Shared by the
/// read-only scan and writer-mode recovery.
fn parse(bytes: &[u8], source: &Path) -> Result<WalScan, StoreError> {
    let label = source.display();
    if bytes.is_empty() {
        // Absent or just-created journal: empty committed prefix.
        return Ok(WalScan {
            valid_bytes: 0,
            ..WalScan::default()
        });
    }
    if bytes.len() < HEADER_BYTES {
        // A torn creation: the 8-byte header itself never finished.
        return Ok(WalScan {
            torn_tail: true,
            valid_bytes: 0,
            ..WalScan::default()
        });
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(StoreError::corrupt(
            format!("wal {label}"),
            "bad magic (not a SOWL journal)",
        ));
    }
    let version = read_u32(bytes, 4);
    if version != WAL_VERSION {
        return Err(StoreError::corrupt(
            format!("wal {label}"),
            format!("unsupported journal version {version}"),
        ));
    }
    let mut scan = WalScan {
        valid_bytes: HEADER_BYTES as u64,
        ..WalScan::default()
    };
    let mut at = HEADER_BYTES;
    let mut prev_seq = 0u64;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < RECORD_HEADER_BYTES {
            // Partially-written record header: torn tail by definition
            // (appends are sequential, so nothing can follow it).
            scan.torn_tail = true;
            return Ok(scan);
        }
        let len = read_u32(bytes, at) as usize;
        let seq = read_u64(bytes, at + 4);
        let payload_crc = read_u32(bytes, at + 12);
        let header_crc = read_u32(bytes, at + 16);
        let computed_header = crc32(&bytes[at..at + 16]);
        if computed_header != header_crc {
            return Err(StoreError::corrupt(
                format!("wal {label} record {}", prev_seq + 1),
                format!(
                    "header checksum mismatch: stored {header_crc:#010x}, computed {computed_header:#010x}"
                ),
            ));
        }
        // Header is intact, so `len` can be trusted: a frame running
        // past EOF is a torn payload, nothing after it can be valid.
        if remaining - RECORD_HEADER_BYTES < len {
            scan.torn_tail = true;
            return Ok(scan);
        }
        let payload = &bytes[at + RECORD_HEADER_BYTES..at + RECORD_HEADER_BYTES + len];
        let computed_payload = crc32(payload);
        if computed_payload != payload_crc {
            return Err(StoreError::corrupt(
                format!("wal {label} record {seq}"),
                format!(
                    "payload checksum mismatch: stored {payload_crc:#010x}, computed {computed_payload:#010x}"
                ),
            ));
        }
        if seq <= prev_seq {
            return Err(StoreError::corrupt(
                format!("wal {label} record {seq}"),
                format!("non-monotonic sequence (previous {prev_seq})"),
            ));
        }
        let ops = String::from_utf8(payload.to_vec()).map_err(|_| {
            StoreError::corrupt(
                format!("wal {label} record {seq}"),
                "payload is not valid UTF-8",
            )
        })?;
        prev_seq = seq;
        at += RECORD_HEADER_BYTES + len;
        scan.valid_bytes = at as u64;
        scan.records.push(WalRecord { seq, ops });
    }
    Ok(scan)
}

impl DeltaWal {
    /// Open (creating if absent) the journal at `path` for appending,
    /// recovering the committed prefix. A torn tail is truncated away
    /// (metric `store.wal.torn_tail`); complete-but-damaged records are
    /// [`StoreError::Corrupt`].
    pub fn open(path: &Path) -> Result<(DeltaWal, Vec<WalRecord>), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = parse(&bytes, path)?;
        let registry = MetricsRegistry::global();
        let mut end = scan.valid_bytes;
        if scan.torn_tail {
            registry.add("store.wal.torn_tail", 1);
            fault::point("store.wal.recover.before_truncate");
            file.set_len(scan.valid_bytes)?;
            file.sync_all()?;
        }
        if end < HEADER_BYTES as u64 {
            // Fresh journal (or one whose own header was torn mid-
            // creation — nothing was committed): stamp the header so
            // even an empty WAL is self-identifying.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_all()?;
            crate::atomic::sync_parent_dir(path);
            end = HEADER_BYTES as u64;
        }
        registry.add("store.wal.replayed", scan.records.len() as u64);
        let next_seq = scan.records.last().map(|r| r.seq).unwrap_or(0) + 1;
        Ok((
            DeltaWal {
                file,
                path: path.to_path_buf(),
                next_seq,
                end,
            },
            scan.records,
        ))
    }

    /// Read-only scan of the journal at `path`. A missing file is an
    /// empty journal; a torn tail is reported, not repaired.
    pub fn scan(path: &Path) -> Result<WalScan, StoreError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        parse(&bytes, path)
    }

    /// Path this journal lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The highest sequence number this handle has seen or will reuse
    /// (0 on an empty journal): the value a checkpoint writer records
    /// via [`checkpoint_marker`].
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Raise the next sequence number above `seq`. Checkpoint-aware
    /// writers call this with [`checkpointed_seq`] after opening, so a
    /// journal truncated by an earlier checkpoint never re-issues
    /// sequence numbers the checkpoint already covers.
    pub fn ensure_seq_above(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Append one batch (as sidecar ops text) and fsync it. When this
    /// returns `Ok(seq)`, the batch is durable: SIGKILL at any later
    /// instant leaves it recoverable.
    pub fn append(&mut self, ops_text: &str) -> Result<u64, StoreError> {
        fault::point("store.wal.append.start");
        let payload = ops_text.as_bytes();
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        let header_crc = crc32(&frame[..16]);
        frame.extend_from_slice(&header_crc.to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        fault::point("store.wal.append.before_sync");
        self.file.sync_all()?;
        fault::point("store.wal.append.after_sync");
        self.end += frame.len() as u64;
        self.next_seq = seq + 1;
        MetricsRegistry::global().add("store.wal.appends", 1);
        Ok(seq)
    }

    /// Checkpoint: drop every journaled batch (the caller has folded
    /// them into the sidecar or a fresh snapshot). Sequence numbers
    /// keep climbing — a later batch must never reuse a `seq` a
    /// checkpoint marker already covers.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        fault::point("store.wal.truncate.start");
        self.file.set_len(HEADER_BYTES as u64)?;
        self.file.sync_all()?;
        self.end = HEADER_BYTES as u64;
        MetricsRegistry::global().add("store.wal.truncations", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("standoff-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("corpus.delta.wal")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = temp_wal("roundtrip");
        let (mut wal, recovered) = DeltaWal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.append("insert tokens w 0 5\n").unwrap(), 1);
        assert_eq!(wal.append("insert tokens w 6 9\n").unwrap(), 2);
        drop(wal);
        let (_wal, recovered) = DeltaWal::open(&path).unwrap();
        assert_eq!(
            recovered,
            vec![
                WalRecord {
                    seq: 1,
                    ops: "insert tokens w 0 5\n".into()
                },
                WalRecord {
                    seq: 2,
                    ops: "insert tokens w 6 9\n".into()
                },
            ]
        );
        cleanup(&path);
    }

    #[test]
    fn truncation_at_every_byte_recovers_committed_prefix() {
        let path = temp_wal("sweep");
        let (mut wal, _) = DeltaWal::open(&path).unwrap();
        let batches = [
            "insert tokens w 0 5\n",
            "insert tokens w 6 9\ninsert tokens w 10 12\n",
            "retract tokens w 0 5\n",
        ];
        let mut ends = vec![HEADER_BYTES as u64];
        for b in &batches {
            wal.append(b).unwrap();
            ends.push(wal.end);
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let torn = path.parent().unwrap().join("torn.wal");
        for cut in 0..full.len() {
            std::fs::write(&torn, &full[..cut]).unwrap();
            let (_w, recovered) = DeltaWal::open(&torn).unwrap_or_else(|e| {
                panic!("cut at {cut}: recovery must succeed, got {e}");
            });
            // The committed prefix is exactly the records whose frames
            // fit inside the cut (`ends[0]` is the bare file header).
            let expect = ends
                .iter()
                .filter(|&&e| e <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(recovered.len(), expect, "cut at {cut}");
            for (k, rec) in recovered.iter().enumerate() {
                assert_eq!(rec.ops, batches[k], "cut at {cut}");
            }
            // Recovery truncated the tail: reopening is clean.
            let scan = DeltaWal::scan(&torn).unwrap();
            assert!(!scan.torn_tail, "cut at {cut}: tail must be repaired");
            assert_eq!(scan.records.len(), expect);
        }
        cleanup(&path);
    }

    #[test]
    fn mid_file_bit_flips_are_categorized_corruption() {
        let path = temp_wal("flips");
        let (mut wal, _) = DeltaWal::open(&path).unwrap();
        wal.append("insert tokens w 0 5\n").unwrap();
        wal.append("insert tokens w 6 9\n").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let bent = path.parent().unwrap().join("bent.wal");
        for at in HEADER_BYTES..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&bent, &bytes).unwrap();
            let scan = DeltaWal::scan(&bent);
            match scan {
                Err(StoreError::Corrupt { .. }) => {}
                Ok(s) => panic!(
                    "flip at {at}: silently accepted ({} records, torn={})",
                    s.records.len(),
                    s.torn_tail
                ),
                Err(other) => panic!("flip at {at}: wrong category {other}"),
            }
        }
        cleanup(&path);
    }

    #[test]
    fn truncate_checkpoints_and_seq_stays_monotonic() {
        let path = temp_wal("checkpoint");
        let (mut wal, _) = DeltaWal::open(&path).unwrap();
        wal.append("insert tokens w 0 5\n").unwrap();
        wal.truncate().unwrap();
        // Post-checkpoint batches sequence above everything folded.
        assert_eq!(wal.append("insert tokens w 6 9\n").unwrap(), 2);
        drop(wal);
        let (_w, recovered) = DeltaWal::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].ops, "insert tokens w 6 9\n");
        assert_eq!(recovered[0].seq, 2);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_marker_round_trips_and_defaults_to_zero() {
        assert_eq!(checkpointed_seq(&checkpoint_marker(17)), 17);
        assert_eq!(
            checkpointed_seq(&format!("{}insert tokens w 0 5\n", checkpoint_marker(3))),
            3
        );
        assert_eq!(checkpointed_seq("insert tokens w 0 5\n"), 0);
        // Only the leading comment block is scanned: ops text that
        // merely *contains* the phrase later doesn't count.
        assert_eq!(
            checkpointed_seq("insert tokens w 0 5\n# wal-checkpoint-seq 9\n"),
            0
        );
    }

    #[test]
    fn ensure_seq_above_prevents_reuse_after_external_checkpoint() {
        let path = temp_wal("hwm");
        let (mut wal, _) = DeltaWal::open(&path).unwrap();
        wal.append("insert tokens w 0 5\n").unwrap();
        wal.append("insert tokens w 6 9\n").unwrap();
        drop(wal);
        // A checkpoint folded seqs 1..=2 and truncated; a *new process*
        // reopens the empty journal and must sequence above the mark.
        let (mut wal, recovered) = DeltaWal::open(&path).unwrap();
        wal.truncate().unwrap();
        drop((wal, recovered));
        let (mut wal, recovered) = DeltaWal::open(&path).unwrap();
        assert!(recovered.is_empty());
        wal.ensure_seq_above(2);
        assert_eq!(wal.append("insert tokens w 10 12\n").unwrap(), 3);
        cleanup(&path);
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let path = temp_wal("missing");
        let scan = DeltaWal::scan(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
        cleanup(&path);
    }
}
