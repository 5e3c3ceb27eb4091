//! Crash-recovery torn-write harness: kill the process (simulated via
//! armed fault points and byte-level file surgery) at every seam of
//! the durability path and prove the invariant the README states —
//! recovery yields **exactly the committed prefix** (byte-identical
//! query results after remount) or a clean categorized error. Never a
//! panic, never silent loss of a committed batch, never a resurrected
//! uncommitted one.
//!
//! Fault points are process-global, so every test that arms one takes
//! [`crash_lock`] (shared pattern with `tests/chaos.rs`).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use standoff::core::fault::{self, FaultAction};
use standoff::core::StandoffConfig;
use standoff::store::{
    audit_delta, compact, parse_ops, recover_delta, recover_delta_for_write, save_snapshot,
    wal_path, DeltaSet, DeltaWal, LayerSet, Recovery, Snapshot, StoreError,
};
use standoff::xml::parse_document;
use standoff::xquery::{Engine, EngineOptions, WritableEngine};

fn crash_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const URI: &str = "mem://crash";

fn corpus() -> LayerSet {
    let base = parse_document("<text>Alice met Bob in Aachen</text>").unwrap();
    let mut set = LayerSet::build(URI, base, StandoffConfig::default()).unwrap();
    let tokens = parse_document(
        r#"<tokens>
             <w start="0" end="4"/>
             <w start="6" end="8"/>
             <w start="10" end="12"/>
             <w start="14" end="15"/>
             <w start="17" end="22"/>
           </tokens>"#,
    )
    .unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set
}

/// The batches a writer commits, in order, as sidecar ops text.
const BATCHES: [&str; 3] = [
    "insert tokens ner 0 4 class=PER\n",
    "insert tokens ner 10 12 class=PER\nretract tokens w 6 8\n",
    "insert tokens ner 17 22 class=LOC\n",
];

const PROBES: [&str; 3] = [
    r#"count(layer("mem://crash", "tokens")//w)"#,
    r#"count(layer("mem://crash", "tokens")//ner)"#,
    r#"layer("mem://crash", "tokens")//ner/@class"#,
];

/// Reference answers after committing `BATCHES[..n]`.
fn answers_after(n: usize) -> Vec<String> {
    let set = corpus();
    let mut delta = DeltaSet::new();
    for batch in &BATCHES[..n] {
        delta.apply_all(parse_ops(batch).unwrap(), &set).unwrap();
    }
    let mut engine = Engine::new();
    engine.mount_store(compact(&set, &delta).unwrap()).unwrap();
    PROBES
        .iter()
        .map(|q| engine.run(q).unwrap().as_xml())
        .collect()
}

/// Recover sidecar + WAL through the call every `standoff-xq` reader
/// makes, and answer the probes.
fn recovered_answers(set: &LayerSet, sidecar: &Path) -> Result<Vec<String>, String> {
    recovered_answers_to(set, sidecar, &PROBES)
}

fn recovered_answers_to(
    set: &LayerSet,
    sidecar: &Path,
    probes: &[&str],
) -> Result<Vec<String>, String> {
    let mut delta = DeltaSet::new();
    recover_delta(sidecar, set, &mut delta).map_err(|e| e.to_string())?;
    let view = compact(set, &delta).map_err(|e| e.to_string())?;
    let mut engine = Engine::new();
    engine.mount_store(view).map_err(|e| e.to_string())?;
    Ok(probes
        .iter()
        .map(|q| engine.run(q).unwrap().as_xml())
        .collect())
}

/// A writer over `sidecar` the way `standoff-xq annotate` builds one:
/// the pending delta recovered in writer mode and mounted, the journal
/// handed over separately (attach it to journal, keep it to checkpoint).
fn writer(set: &LayerSet, sidecar: &Path) -> (WritableEngine, DeltaWal, Recovery) {
    let mut delta = DeltaSet::new();
    let (wal, report) = recover_delta_for_write(sidecar, set, &mut delta).unwrap();
    let engine =
        WritableEngine::mount_with_delta(set.clone(), delta, EngineOptions::default()).unwrap();
    (engine, wal, report)
}

/// Run the real checkpoint and die where its journal truncation would
/// start: the sidecar has landed, the folded records are still on disk.
fn checkpoint_without_truncation(wal: &mut DeltaWal, sidecar: &Path, delta: &DeltaSet) {
    fault::inject_times("store.wal.truncate.start", FaultAction::Panic, 1);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        wal.checkpoint(sidecar, delta)
    }));
    fault::clear_all();
    assert!(crashed.is_err(), "armed fault point must fire");
}

/// Truncate the journal at every byte offset: recovery must yield the
/// answers of exactly the batches whose append frames survived whole —
/// byte-identical query results, never an error, never a partial batch.
#[test]
fn wal_truncation_sweep_recovers_exactly_the_committed_prefix() {
    let _guard = crash_lock();
    let dir = temp_dir("wal-sweep");
    let sidecar = dir.join("corpus.delta");
    let wal_file = wal_path(&sidecar);
    let set = corpus();

    let (mut wal, _) = DeltaWal::open(&wal_file).unwrap();
    let mut frame_ends = vec![std::fs::metadata(&wal_file).unwrap().len()];
    for batch in &BATCHES {
        wal.append(batch).unwrap();
        frame_ends.push(std::fs::metadata(&wal_file).unwrap().len());
    }
    drop(wal);
    let full = std::fs::read(&wal_file).unwrap();
    let expected: Vec<Vec<String>> = (0..=BATCHES.len()).map(answers_after).collect();

    for cut in 0..=full.len() {
        std::fs::write(&wal_file, &full[..cut]).unwrap();
        let committed = frame_ends
            .iter()
            .filter(|&&e| e <= cut as u64)
            .count()
            .saturating_sub(1);
        let got = recovered_answers(&set, &sidecar)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(
            got, expected[committed],
            "cut at {cut}: results diverge from the {committed}-batch prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-byte flips inside committed journal records must surface as
/// categorized corruption through the reader path — not as silently
/// different query results.
#[test]
fn wal_bit_flip_is_categorized_never_silent() {
    let _guard = crash_lock();
    let dir = temp_dir("wal-flip");
    let sidecar = dir.join("corpus.delta");
    let wal_file = wal_path(&sidecar);
    let set = corpus();
    let (mut wal, _) = DeltaWal::open(&wal_file).unwrap();
    for batch in &BATCHES {
        wal.append(batch).unwrap();
    }
    drop(wal);
    let full = std::fs::read(&wal_file).unwrap();
    let committed = answers_after(BATCHES.len());
    // Every byte past the 8-byte file header participates in a record.
    for at in 8..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&wal_file, &bytes).unwrap();
        match recovered_answers(&set, &sidecar) {
            Err(_) => {}
            Ok(got) => assert_eq!(
                got, committed,
                "flip at {at}: accepted with *different* results — silent corruption"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer crash *after* the WAL append fsync but *before* the
/// visibility swap: the batch reported nothing to the caller, but it
/// is durable — recovery must replay it (this is the "committed
/// batches survive SIGKILL" contract of `WritableEngine::apply`).
#[test]
fn crash_between_journal_and_swap_preserves_the_batch() {
    let _guard = crash_lock();
    let dir = temp_dir("mid-apply");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();

    let mut w = WritableEngine::mount(set.clone(), EngineOptions::default()).unwrap();
    let (wal, _) = DeltaWal::open(&wal_path(&sidecar)).unwrap();
    w.set_wal(Some(wal));
    w.apply(parse_ops(BATCHES[0]).unwrap()).unwrap();

    fault::inject_times("engine.apply.before_swap", FaultAction::Panic, 1);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.apply(parse_ops(BATCHES[1]).unwrap())
    }));
    fault::clear_all();
    assert!(crashed.is_err(), "armed fault point must fire");
    drop(w);

    // The crashed writer never swapped batch 2 in — but it journaled
    // it first, so recovery sees both batches.
    let got = recovered_answers(&set, &sidecar).unwrap();
    assert_eq!(got, answers_after(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer crash *inside* the append (before the fsync): the batch
/// was never committed, recovery must yield only the prior prefix.
#[test]
fn crash_inside_append_loses_only_the_uncommitted_batch() {
    let _guard = crash_lock();
    let dir = temp_dir("mid-append");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();

    let (mut wal, _) = DeltaWal::open(&wal_path(&sidecar)).unwrap();
    wal.append(BATCHES[0]).unwrap();
    fault::inject_times("store.wal.append.start", FaultAction::Panic, 1);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wal.append(BATCHES[1])));
    fault::clear_all();
    assert!(crashed.is_err());
    drop(wal);

    let got = recovered_answers(&set, &sidecar).unwrap();
    assert_eq!(got, answers_after(1), "uncommitted batch must not surface");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between the checkpoint rewrite landing and the journal
/// truncation: the checkpoint's high-water mark keeps the surviving
/// journal records from double-applying.
#[test]
fn crash_between_checkpoint_and_truncation_does_not_double_apply() {
    let _guard = crash_lock();
    let dir = temp_dir("checkpoint-window");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();

    let (mut w, wal, _) = writer(&set, &sidecar);
    w.set_wal(Some(wal));
    for batch in &BATCHES[..2] {
        w.apply(parse_ops(batch).unwrap()).unwrap();
    }
    // Checkpoint lands (stamped), truncation never happens — the crash
    // window. Both journal records survive on disk.
    let mut wal = w.set_wal(None).unwrap();
    checkpoint_without_truncation(&mut wal, &sidecar, w.delta());
    drop((w, wal));
    assert_eq!(
        DeltaWal::scan(&wal_path(&sidecar)).unwrap().records.len(),
        2
    );

    let got = recovered_answers(&set, &sidecar).unwrap();
    assert_eq!(got, answers_after(2), "the stamp must suppress the replay");

    // And a post-crash writer sequences above the mark, so its fresh
    // batch replays while the folded ones stay suppressed.
    let (mut w, wal, report) = writer(&set, &sidecar);
    assert_eq!(
        (report.checkpoint_seq, report.skipped, report.replayed),
        (2, 2, 0)
    );
    w.set_wal(Some(wal));
    w.apply(parse_ops(BATCHES[2]).unwrap()).unwrap();
    drop(w);
    let got = recovered_answers(&set, &sidecar).unwrap();
    assert_eq!(got, answers_after(3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bug the writer-mode open exists to rule out: a checkpoint folds
/// the journal and truncates it, the process exits, and a *new* writer
/// reopens a journal whose last record says nothing about the sequence
/// numbers already used. Its batch must land above the checkpoint's
/// mark — without the caller touching sequence numbers — or every
/// reader would skip it as already folded.
#[test]
fn writer_reopened_after_a_checkpoint_journals_what_readers_recover() {
    let _guard = crash_lock();
    let dir = temp_dir("reopen");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();

    let (mut w, wal, report) = writer(&set, &sidecar);
    assert!(report.journal_only, "nothing on disk yet: {report:?}");
    w.set_wal(Some(wal));
    for batch in &BATCHES[..2] {
        w.apply(parse_ops(batch).unwrap()).unwrap();
    }
    let mut wal = w.set_wal(None).unwrap();
    wal.checkpoint(&sidecar, w.delta()).unwrap();
    drop((w, wal));
    assert_eq!(std::fs::metadata(wal_path(&sidecar)).unwrap().len(), 8);

    let (mut w, wal, report) = writer(&set, &sidecar);
    let expected = Recovery {
        checkpoint_ops: 3,
        checkpoint_seq: 2,
        ..Recovery::default()
    };
    assert_eq!(report, expected);
    w.set_wal(Some(wal));
    w.apply(parse_ops(BATCHES[2]).unwrap()).unwrap();
    drop(w);

    let scan = DeltaWal::scan(&wal_path(&sidecar)).unwrap();
    assert_eq!(scan.records[0].seq, 3, "sequenced above the mark");
    let got = recovered_answers(&set, &sidecar).unwrap();
    assert_eq!(got, answers_after(3), "the reopened writer's batch replays");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `apply` builds the view every later reader will mount *before* it
/// journals: a writer that dies there has persisted nothing, and — if
/// it survives the panic — still answers from the old generation.
#[test]
fn crash_inside_the_view_build_journals_nothing() {
    let _guard = crash_lock();
    let dir = temp_dir("view-build");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();

    let (mut w, wal, _) = writer(&set, &sidecar);
    w.set_wal(Some(wal));
    w.apply(parse_ops(BATCHES[0]).unwrap()).unwrap();
    let generation = w.generation();
    let journal = std::fs::read(wal_path(&sidecar)).unwrap();

    fault::inject_times("engine.apply.build_view", FaultAction::Panic, 1);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.apply(parse_ops(BATCHES[1]).unwrap())
    }));
    fault::clear_all();
    assert!(crashed.is_err(), "armed fault point must fire");

    assert_eq!(std::fs::read(wal_path(&sidecar)).unwrap(), journal);
    assert_eq!(w.generation(), generation);
    let mut session = w.session();
    let live: Vec<String> = PROBES
        .iter()
        .map(|q| session.run(q).unwrap().as_xml())
        .collect();
    assert_eq!(live, answers_after(1));
    assert_eq!(recovered_answers(&set, &sidecar).unwrap(), answers_after(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery says *where* it failed, and a reader refuses a sidecar path
/// that names neither a checkpoint nor a journal (a typo must not read
/// as an empty delta). The fsck walk sees the same damage and goes on.
#[test]
fn recovery_errors_are_located() {
    let _guard = crash_lock();
    let dir = temp_dir("located");
    let sidecar = dir.join("corpus.delta");
    let wal_file = wal_path(&sidecar);
    let set = corpus();
    let mut delta = DeltaSet::new();

    let err = recover_delta(&sidecar, &set, &mut delta).unwrap_err();
    assert!(matches!(err.error, StoreError::Io(_)), "{err}");
    assert!(err.to_string().starts_with("cannot read "), "{err}");

    let (mut wal, _) = DeltaWal::open(&wal_file).unwrap();
    wal.append("retract tokens w 7 9\n").unwrap();
    let record = format!("{} record 1", wal_file.display());
    let err = recover_delta(&sidecar, &set, &mut delta).unwrap_err();
    assert_eq!(err.at, record);

    std::fs::write(&sidecar, b"insert tokens w 5 5 \xff\xfe\n").unwrap();
    let err = recover_delta(&sidecar, &set, &mut delta).unwrap_err();
    assert_eq!(err.at, sidecar.display().to_string());
    assert!(matches!(err.error, StoreError::Corrupt { .. }), "{err}");

    let mut damage = Vec::new();
    let mut apply = |ops| delta.apply_all(ops, &set).map(drop);
    let report = audit_delta(&sidecar, &mut apply, &mut |e| {
        damage.push(e.at);
        Ok(())
    })
    .unwrap();
    assert_eq!(report.replayed, 1, "the walk went on into the journal");
    assert_eq!(damage, [sidecar.display().to_string(), record]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replace in place — `retract K` then `insert K` — through the whole
/// durability path: journaled, checkpointed into the sidecar (which is
/// `DeltaSet::to_ops` text), recovered, compacted. The live
/// `WritableEngine`, the recovered sidecar, the sidecar plus a later
/// journal record, and the compacted snapshot must all give the same
/// answers; the checkpoint used to write insert-before-retract, whose
/// replay cancelled the insert and resurrected the retracted original.
#[test]
fn replace_in_place_survives_checkpoint_and_recovery() {
    let _guard = crash_lock();
    let dir = temp_dir("replace");
    let sidecar = dir.join("corpus.delta");
    let set = corpus();
    let probes = [
        r#"count(layer("mem://crash", "tokens")//w)"#,
        r#"layer("mem://crash", "tokens")//w[@start = "0"]/@word"#,
        r#"count(layer("mem://crash", "tokens")//w[@word = "ALICE"])"#,
    ];
    let answers = |session: &mut standoff::xquery::Session| -> Vec<String> {
        probes
            .iter()
            .map(|q| session.run(q).unwrap().as_xml())
            .collect()
    };

    let (mut w, wal, _) = writer(&set, &sidecar);
    w.set_wal(Some(wal));
    w.apply(parse_ops("retract tokens w 0 4\n").unwrap())
        .unwrap();
    w.apply(parse_ops("insert tokens w 0 4 word=ALICE\n").unwrap())
        .unwrap();
    let live = answers(&mut w.session());
    assert_eq!(live, ["5", r#"word="ALICE""#, "1"]);

    // Journal only: recovery replays the two records in commit order.
    let recover = |set: &LayerSet| recovered_answers_to(set, &sidecar, &probes).unwrap();
    assert_eq!(recover(&set), live, "journal replay");

    // Checkpoint: the sidecar is the pending delta as `to_ops` text.
    let mut wal = w.set_wal(None).unwrap();
    checkpoint_without_truncation(&mut wal, &sidecar, w.delta());
    assert_eq!(recover(&set), live, "checkpoint, journal not yet truncated");
    wal.checkpoint(&sidecar, w.delta()).unwrap();
    assert_eq!(recover(&set), live, "checkpoint alone");
    w.set_wal(Some(wal));

    // A later batch journals on top of the checkpoint.
    w.apply(parse_ops("insert tokens w 20 22 word=dot\n").unwrap())
        .unwrap();
    let live = answers(&mut w.session());
    assert_eq!(live[0], "6");
    assert_eq!(recover(&set), live, "checkpoint + journal");

    // Compacted: the folded snapshot, saved and reopened.
    let folded = w.compact().unwrap();
    let path = dir.join("compacted.snap");
    save_snapshot(&folded, &path).unwrap();
    let mut engine = Engine::new();
    engine
        .mount_snapshot(&Snapshot::open(&path).unwrap())
        .unwrap();
    let compacted: Vec<String> = probes
        .iter()
        .map(|q| engine.run(q).unwrap().as_xml())
        .collect();
    assert_eq!(compacted, live, "compacted snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `save_snapshot` dies before the rename: the previous snapshot must
/// still mount and verify, byte-for-byte untouched.
#[test]
fn snapshot_rewrite_crash_leaves_the_old_snapshot_intact() {
    let _guard = crash_lock();
    let dir = temp_dir("snap-replace");
    let path = dir.join("corpus.snap");
    let set = corpus();
    save_snapshot(&set, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    let bigger = {
        let mut delta = DeltaSet::new();
        delta
            .apply_all(parse_ops(BATCHES[0]).unwrap(), &set)
            .unwrap();
        standoff::store::compact(&set, &delta).unwrap()
    };
    for point in ["store.atomic.before_sync", "store.atomic.before_rename"] {
        fault::inject_times(point, FaultAction::Panic, 1);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            save_snapshot(&bigger, &path)
        }));
        fault::clear_all();
        assert!(crashed.is_err(), "{point} must fire");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "{point}: old snapshot bytes changed"
        );
        let report = Snapshot::open(&path).unwrap().verify().unwrap();
        assert!(report.sections_checked > 0);
    }
    // Without a fault the replace goes through and verifies.
    save_snapshot(&bigger, &path).unwrap();
    let snapshot = Snapshot::open(&path).unwrap();
    snapshot.verify().unwrap();
    assert_eq!(
        snapshot
            .to_layer_set()
            .unwrap()
            .layer("tokens")
            .unwrap()
            .annotation_count(),
        6
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed, never-applied tail of a torn WAL stays invisible
/// even when the *same* delta is later re-journaled: sequence numbers
/// in a file are strictly increasing, so a forged duplicate seq is
/// categorized corruption.
#[test]
fn duplicate_sequence_numbers_are_corruption() {
    let _guard = crash_lock();
    let dir = temp_dir("dup-seq");
    let wal_file = dir.join("corpus.delta.wal");
    let (mut wal, _) = DeltaWal::open(&wal_file).unwrap();
    wal.append(BATCHES[0]).unwrap();
    drop(wal);
    // Forge: duplicate the (valid) first record after itself.
    let bytes = std::fs::read(&wal_file).unwrap();
    let mut forged = bytes.clone();
    forged.extend_from_slice(&bytes[8..]);
    std::fs::write(&wal_file, &forged).unwrap();
    match DeltaWal::scan(&wal_file) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("non-monotonic"), "detail: {detail}")
        }
        other => panic!("forged duplicate seq accepted: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end: a v4 snapshot with a flipped payload byte fails at
/// layer access with a categorized error, and `verify` (the library
/// call the CLI subcommand wraps) reports it eagerly.
#[test]
fn flipped_snapshot_payload_fails_verification_not_queries() {
    let _guard = crash_lock();
    let dir = temp_dir("snap-flip");
    let path = dir.join("corpus.snap");
    save_snapshot(&corpus(), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte deep in the payload region (past header + table).
    let at = bytes.len() - 9;
    bytes[at] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    match Snapshot::open(&path).and_then(|s| s.verify()) {
        Err(StoreError::Corrupt { .. }) => {}
        Err(other) => panic!("wrong category: {other}"),
        Ok(_) => panic!("flipped payload verified clean"),
    }
    // The same for every byte of the file, through the mapped open and
    // through the in-memory one: a flip is harmless (padding) or a
    // categorized error, and the two paths always agree on which.
    bytes[at] ^= 0xff;
    let verdict = |opened: Result<Snapshot, StoreError>| -> String {
        match opened.and_then(|s| s.verify()) {
            Ok(_) => "clean".to_string(),
            Err(StoreError::Corrupt { section, detail }) => format!("corrupt {section}: {detail}"),
            Err(StoreError::Io(e)) => format!("invalid: {e}"),
            Err(other) => panic!("uncategorized: {other}"),
        }
    };
    let mut corrupt = 0;
    for at in 0..bytes.len() {
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mapped = verdict(Snapshot::open(&path));
        assert_eq!(
            mapped,
            verdict(Snapshot::mount_bytes(bytes.clone())),
            "byte {at}"
        );
        corrupt += mapped.contains("checksum mismatch") as usize;
        bytes[at] ^= 0x01;
    }
    assert!(corrupt > 0, "payload flips are checksum mismatches");
    let _ = std::fs::remove_dir_all(&dir);
}
