//! Delta write-ahead log, and the one place a pending delta is
//! recovered, journaled and checkpointed.
//!
//! A sidecar (`corpus.delta`) is a *checkpoint*: the full overlay state
//! as plain-text ops. The WAL (`corpus.delta.wal`) is an append-only
//! journal of the batches applied *since* that checkpoint. A writer
//! appends + fsyncs the batch before making it visible, so a batch
//! whose append returned is durable across SIGKILL.
//!
//! ## The protocol, and who runs it
//!
//! Callers never assemble the steps; they call one of three entry
//! points and get a [`Recovery`] report back:
//!
//! * [`recover_delta`] — every reader: replay the checkpoint, then the
//!   committed journal records *above the checkpoint's mark*, into a
//!   [`DeltaSet`]. Read-only: a torn tail is reported and left alone.
//!   ([`audit_delta`] is the same walk for `verify`: it hands every
//!   damaged piece to the caller instead of stopping at the first.)
//! * [`recover_delta_for_write`] — every writer: the same replay, but
//!   the journal is opened for appending — a torn tail is truncated
//!   away — and the [`DeltaWal`] it returns is already sequenced above
//!   the mark, so a journal emptied by an earlier checkpoint can never
//!   re-issue sequence numbers that readers would skip.
//! * [`DeltaWal::checkpoint`] — fold: stamp the pending delta's ops
//!   text with the last journaled `seq`, replace the sidecar atomically,
//!   *then* truncate the journal.
//!
//! The mark exists because that fold has an unavoidable window: the
//! sidecar rename can land while the truncation hasn't, and replaying
//! already-folded batches is not idempotent (re-retracts error,
//! re-inserts duplicate). The stamp is an ops-text comment
//! (`# wal-checkpoint-seq N`, which `parse_ops` skips); recovery skips
//! journal records with `seq <= N`.
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

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use standoff_core::crc::crc32;
use standoff_core::{fault, MetricsRegistry};

use crate::atomic::atomic_write;
use crate::delta::{ops_to_text, parse_ops, DeltaOp, DeltaSet};
use crate::error::StoreError;
use crate::layer::LayerSet;

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
    next_seq: u64,
    end: u64,
}

/// The journal path belonging to a sidecar: `<sidecar>.wal`.
pub fn wal_path(sidecar: &Path) -> PathBuf {
    let mut name = sidecar.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// The sidecar comment line a checkpoint starts with: the last journal
/// `seq` folded into it.
fn checkpoint_marker(seq: u64) -> String {
    format!("# wal-checkpoint-seq {seq}\n")
}

/// The checkpoint high-water mark recorded in sidecar ops text, or 0
/// if none: journal records with `seq` at or below it are already part
/// of the checkpoint and must not replay again.
fn checkpointed_seq(sidecar_text: &str) -> u64 {
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
        DeltaWal::open_scan(path).map(|(wal, scan)| (wal, scan.records))
    }

    /// [`DeltaWal::open`], keeping the scan: `torn_tail` says whether a
    /// tail was truncated away.
    fn open_scan(path: &Path) -> Result<(DeltaWal, WalScan), StoreError> {
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
                next_seq,
                end,
            },
            scan,
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

    /// Checkpoint the pending `delta` into `sidecar` and drop the
    /// journal it subsumes: the ops text, stamped with the last `seq`
    /// this handle issued, replaces the sidecar atomically, *then* the
    /// journal is truncated. A crash between the two is safe — the
    /// stamp tells recovery the surviving records are already folded in.
    pub fn checkpoint(&mut self, sidecar: &Path, delta: &DeltaSet) -> Result<(), StoreError> {
        let mut text = checkpoint_marker(self.next_seq - 1);
        text.push_str(&ops_to_text(&delta.to_ops()));
        atomic_write(sidecar, text.as_bytes())?;
        self.truncate()
    }

    /// Drop every journaled batch (the caller has made them durable
    /// elsewhere — [`DeltaWal::checkpoint`], or a compacted snapshot).
    /// Sequence numbers keep climbing — a later batch must never reuse
    /// a `seq` a checkpoint stamp already covers.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        fault::point("store.wal.truncate.start");
        self.file.set_len(HEADER_BYTES as u64)?;
        self.file.sync_all()?;
        self.end = HEADER_BYTES as u64;
        MetricsRegistry::global().add("store.wal.truncations", 1);
        Ok(())
    }
}

/// What recovering one sidecar + journal pair found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Ops in the checkpoint text.
    pub checkpoint_ops: usize,
    /// The checkpoint's mark: the last journal `seq` folded into it
    /// (0 without a stamp).
    pub checkpoint_seq: u64,
    /// Committed journal records above the mark, replayed on top of
    /// the checkpoint.
    pub replayed: usize,
    /// Committed journal records at or below the mark, skipped: a
    /// checkpoint landed but its truncation didn't.
    pub skipped: usize,
    /// The journal ends in a partial append (never committed). Left in
    /// place by readers, truncated away by [`recover_delta_for_write`].
    pub torn_tail: bool,
    /// There is no checkpoint file (yet): the delta is its journal.
    pub journal_only: bool,
}

/// A recovery failure and the file, or journal record, it was found in.
#[derive(Debug)]
pub struct RecoveryError {
    /// `corpus.delta`, or `corpus.delta.wal record 3`.
    pub at: String,
    pub error: StoreError,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            StoreError::Io(e) => write!(f, "cannot read {}: {e}", self.at),
            error => write!(f, "{}: {error}", self.at),
        }
    }
}

impl std::error::Error for RecoveryError {}

fn located(at: impl ToString, error: StoreError) -> RecoveryError {
    let at = at.to_string();
    RecoveryError { at, error }
}

/// Where replayed batches go, and what happens to damage.
type ApplySink<'a> = &'a mut dyn FnMut(Vec<DeltaOp>) -> Result<(), StoreError>;
type DamageSink<'a> = &'a mut dyn FnMut(RecoveryError) -> Result<(), RecoveryError>;

/// The read side of the protocol, written once: checkpoint first, then
/// the journal records above its mark, every batch through `apply` in
/// commit order. Damage (anything but an unreadable path) goes to
/// `damage`, which stops the walk by returning the error or lets it go
/// on by keeping it.
struct Replay<'a> {
    apply: ApplySink<'a>,
    damage: DamageSink<'a>,
    report: Recovery,
}

impl Replay<'_> {
    /// Parse and apply one batch of ops text; returns the ops parsed.
    fn batch(&mut self, at: impl ToString, text: &str) -> Result<usize, RecoveryError> {
        let (parsed, outcome) = match parse_ops(text) {
            Ok(ops) => (ops.len(), (self.apply)(ops)),
            Err(e) => (0, Err(e)),
        };
        if let Err(error) = outcome {
            (self.damage)(located(at, error))?;
        }
        Ok(parsed)
    }

    /// Replay the checkpoint. A missing file is a journal-only delta
    /// when `may_be_missing`, an unreadable path otherwise.
    fn checkpoint(&mut self, sidecar: &Path, may_be_missing: bool) -> Result<(), RecoveryError> {
        let at = sidecar.display();
        let bytes = match std::fs::read(sidecar) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && may_be_missing => {
                self.report.journal_only = true;
                return Ok(());
            }
            Err(e) => return Err(located(at, StoreError::Io(e))),
        };
        match String::from_utf8(bytes) {
            Ok(text) => {
                self.report.checkpoint_seq = checkpointed_seq(&text);
                self.report.checkpoint_ops = self.batch(at, &text)?;
            }
            Err(e) => {
                let detail = format!("ops text is not UTF-8: {}", e.utf8_error());
                (self.damage)(located(at, StoreError::corrupt("checkpoint", detail)))?
            }
        }
        Ok(())
    }

    /// Replay the committed journal records above the checkpoint's mark.
    fn journal(&mut self, wal_file: &Path, scan: &WalScan) -> Result<(), RecoveryError> {
        self.report.torn_tail = scan.torn_tail;
        for record in &scan.records {
            if record.seq <= self.report.checkpoint_seq {
                self.report.skipped += 1;
                continue;
            }
            self.report.replayed += 1;
            let at = format!("{} record {}", wal_file.display(), record.seq);
            self.batch(at, &record.ops)?;
        }
        Ok(())
    }
}

/// Recover the pending delta a sidecar names — checkpoint, then the
/// committed journal records above its mark — into `delta`, validating
/// every op against `set`. Read-only. The sidecar file may be missing
/// as long as its journal exists (a delta not checkpointed yet).
/// Several sidecars replay into one `delta` by calling this in order.
pub fn recover_delta(
    sidecar: &Path,
    set: &LayerSet,
    delta: &mut DeltaSet,
) -> Result<Recovery, RecoveryError> {
    audit_delta(
        sidecar,
        &mut |ops| delta.apply_all(ops, set).map(drop),
        &mut Err,
    )
}

/// [`recover_delta`] for an fsck: the same walk, but every batch goes
/// to `apply` and every piece of damage to `damage`, which decides
/// whether the walk goes on. Only an unreadable sidecar path is
/// returned directly.
pub fn audit_delta(
    sidecar: &Path,
    apply: ApplySink<'_>,
    damage: DamageSink<'_>,
) -> Result<Recovery, RecoveryError> {
    let wal_file = wal_path(sidecar);
    let mut replay = Replay {
        apply,
        damage,
        report: Recovery::default(),
    };
    replay.checkpoint(sidecar, wal_file.exists())?;
    match DeltaWal::scan(&wal_file) {
        Ok(scan) => replay.journal(&wal_file, &scan)?,
        Err(error) => (replay.damage)(located(wal_file.display(), error))?,
    }
    Ok(replay.report)
}

/// [`recover_delta`] for a writer: the journal is opened (created if
/// absent) for appending, a torn tail is truncated away, and the handle
/// returned issues sequence numbers above both the journal's last
/// record and the checkpoint's mark. A missing sidecar is a new delta.
pub fn recover_delta_for_write(
    sidecar: &Path,
    set: &LayerSet,
    delta: &mut DeltaSet,
) -> Result<(DeltaWal, Recovery), RecoveryError> {
    let wal_file = wal_path(sidecar);
    let mut replay = Replay {
        apply: &mut |ops| delta.apply_all(ops, set).map(drop),
        damage: &mut Err,
        report: Recovery::default(),
    };
    replay.checkpoint(sidecar, true)?;
    let (mut wal, scan) =
        DeltaWal::open_scan(&wal_file).map_err(|e| located(wal_file.display(), e))?;
    replay.journal(&wal_file, &scan)?;
    wal.next_seq = wal.next_seq.max(replay.report.checkpoint_seq + 1);
    Ok((wal, replay.report))
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
    fn scan_of_missing_file_is_empty() {
        let path = temp_wal("missing");
        let scan = DeltaWal::scan(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
        cleanup(&path);
    }
}
