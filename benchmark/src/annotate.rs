//! `annotate_rw`: write batches, overlay reads and checkpoints through
//! the library's writable-engine API.
//!
//! The loop runs in a child process of the driver (the same executable,
//! `annotate-child` subcommand) so that its peak RSS is its own and the
//! driver's oracle and corpora never share its heap. The child prints
//! `ready` when warm, then one JSON line with every sample and every
//! answer; the driver judges the answers.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use standoff::store::{parse_ops, save_snapshot, DeltaSet, DeltaWal, Snapshot};
use standoff::xquery::{EngineOptions, WritableEngine};

use crate::calib::Calibrator;
use crate::classes::{Class, Workload, RESERVE_COUNT};
use crate::corpus::{seed_entities, Corpus, OpStream, Scale, CHECKPOINT_EVERY, ENTITY_SPAN};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::sys;

/// Untimed warm-up: two full checkpoint cycles.
pub const WARMUP_BATCHES: usize = 2 * CHECKPOINT_EVERY;

const CHECKPOINT_SNAP: &str = "checkpoint.snap";
const WAL_FILE: &str = "annotate.wal";

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the mounted writer needs between batches.
struct Writer {
    engine: WritableEngine,
    classes: Vec<Class>,
    stream: OpStream,
    checkpoint: PathBuf,
    wal: PathBuf,
}

/// One cycle's observations.
struct Cycle {
    write_ms: f64,
    read_ms: Vec<f64>,
    answers: Vec<String>,
    /// `Some` on the cycle that closed a checkpoint period.
    checkpoint_ms: Option<f64>,
    /// Overlay answers just before the checkpoint equal the compacted
    /// answers just after it.
    checkpoint_consistent: bool,
    wal_len: u64,
}

impl Writer {
    fn mount(snap: &Path, dir: &Path, seed: u64) -> Result<Writer, String> {
        let corpus = Corpus::generate(seed, Scale::S);
        let set = Snapshot::open(snap)
            .and_then(|s| s.to_layer_set())
            .map_err(|e| format!("mount {}: {e}", snap.display()))?;
        let mut engine = WritableEngine::mount(set, EngineOptions::default())
            .map_err(|e| format!("mount writable: {e}"))?;
        let wal = dir.join(WAL_FILE);
        let (journal, replayed) = DeltaWal::open(&wal).map_err(|e| format!("open WAL: {e}"))?;
        if !replayed.is_empty() {
            return Err("a fresh work directory already holds a journal".into());
        }
        engine.set_wal(Some(journal));
        Ok(Writer {
            engine,
            classes: Workload::AnnotateRw.classes(),
            stream: OpStream::new(seed, &corpus.tokens),
            checkpoint: dir.join(CHECKPOINT_SNAP),
            wal,
        })
    }

    fn reads(&self, timings: Option<&mut Vec<f64>>) -> Result<Vec<String>, String> {
        let mut session = self.engine.session();
        let mut answers = Vec::with_capacity(self.classes.len());
        let mut times = Vec::with_capacity(self.classes.len());
        for class in &self.classes {
            let started = Instant::now();
            let answer = session
                .run(&class.query)
                .map(|r| r.as_xml())
                .map_err(|e| format!("read {}: {e}", class.name))?;
            times.push(ms(started.elapsed()));
            answers.push(answer);
        }
        if let Some(out) = timings {
            *out = times;
        }
        Ok(answers)
    }

    /// The foreground stall: fold the delta, write the snapshot
    /// durably, reset the journal.
    fn checkpoint(&mut self) -> Result<f64, String> {
        let started = Instant::now();
        let folded = self.engine.compact().map_err(|e| format!("compact: {e}"))?;
        save_snapshot(&folded, &self.checkpoint).map_err(|e| format!("save_snapshot: {e}"))?;
        self.engine
            .truncate_wal()
            .map_err(|e| format!("truncate_wal: {e}"))?;
        Ok(ms(started.elapsed()))
    }

    fn prefill(&mut self) -> Result<(), String> {
        self.engine
            .apply(self.stream.prefill())
            .map_err(|e| format!("prefill: {e}"))?;
        self.checkpoint().map(|_| ())
    }

    /// Batch `b`: one journaled write, four overlay reads, and a
    /// checkpoint when `b` closes a period.
    fn cycle(&mut self, b: usize) -> Result<Cycle, String> {
        let ops = self.stream.batch(b);
        let started = Instant::now();
        self.engine
            .apply(ops)
            .map_err(|e| format!("apply batch {b}: {e}"))?;
        let write_ms = ms(started.elapsed());
        let wal_len = std::fs::metadata(&self.wal)
            .map_err(|e| format!("stat WAL: {e}"))?
            .len();
        let mut read_ms = Vec::new();
        let answers = self.reads(Some(&mut read_ms))?;
        let (checkpoint_ms, checkpoint_consistent) = if (b + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let took = self.checkpoint()?;
            (Some(took), self.reads(None)? == answers)
        } else {
            (None, true)
        };
        Ok(Cycle {
            write_ms,
            read_ms,
            answers,
            checkpoint_ms,
            checkpoint_consistent,
            // After a checkpoint the journal is header-only again.
            wal_len: if checkpoint_ms.is_some() {
                std::fs::metadata(&self.wal).map_or(wal_len, |m| m.len())
            } else {
                wal_len
            },
        })
    }
}

/// How long the child's timed phase lasts.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Whole cycles until this many seconds have passed (one round of
    /// the untraced run).
    Seconds(f64),
    /// Exactly this many cycles (the traced run: fixed counts make
    /// count metrics repeat exactly).
    Batches(usize),
}

impl Limit {
    /// The command-line spelling: `s<seconds>` or `b<batches>`.
    pub fn to_arg(self) -> String {
        match self {
            Limit::Seconds(s) => format!("s{s}"),
            Limit::Batches(b) => format!("b{b}"),
        }
    }

    pub fn parse(arg: &str) -> Option<Limit> {
        match arg.split_at_checked(1)? {
            ("s", value) => value.parse().ok().map(Limit::Seconds),
            ("b", value) => value.parse().ok().map(Limit::Batches),
            _ => None,
        }
    }
}

/// The child process: mount, warm up, print `ready`, run one timed
/// round, print the samples as one JSON line. Durations are normalized
/// to nominal CPU speed ([`crate::calib`]) as they are recorded.
pub fn child_main(snap: &Path, dir: &Path, seed: u64, limit: Limit) -> Result<(), String> {
    let mut writer = Writer::mount(snap, dir, seed)?;
    writer.prefill()?;
    for b in 0..WARMUP_BATCHES {
        writer.cycle(b)?;
    }
    let mut calibrator = Calibrator::new();
    println!("ready");
    let ready = Instant::now();

    let mut write = Vec::new();
    let mut checkpoint = Vec::new();
    let mut reads: Vec<Vec<f64>> = vec![Vec::new(); writer.classes.len()];
    let mut answers: Vec<Json> = Vec::new();
    let mut starts_ms: Vec<f64> = Vec::new();
    let (mut inconsistent, mut wal_len, mut busy_ms) = (0u64, 0u64, 0.0);
    // A timed round ends on a checkpoint boundary: write and read costs
    // grow with the position in the period, so a round that stopped
    // mid-period would sample the cheap positions more often.
    let more = |cycles: usize| match limit {
        Limit::Seconds(s) => {
            ready.elapsed().as_secs_f64() < s || !cycles.is_multiple_of(CHECKPOINT_EVERY)
        }
        Limit::Batches(n) => cycles < n,
    };
    while more(write.len()) {
        starts_ms.push(ms(ready.elapsed()));
        let cycle = writer.cycle(WARMUP_BATCHES + write.len())?;
        let mut record = |samples: &mut Vec<f64>, raw_ms: f64| {
            let normalized = calibrator.normalize(raw_ms);
            busy_ms += normalized;
            samples.push(normalized);
        };
        record(&mut write, cycle.write_ms);
        for (per_class, &t) in reads.iter_mut().zip(&cycle.read_ms) {
            record(per_class, t);
        }
        if let Some(t) = cycle.checkpoint_ms {
            record(&mut checkpoint, t);
        }
        inconsistent += u64::from(!cycle.checkpoint_consistent);
        wal_len = cycle.wal_len;
        answers.push(Json::Arr(
            cycle.answers.into_iter().map(Json::Str).collect(),
        ));
        calibrator.maybe_tick();
    }
    let report = Json::obj([
        ("first_batch", Json::Num(WARMUP_BATCHES as f64)),
        ("cycles", Json::Num(write.len() as f64)),
        ("busy_s", Json::Num(busy_ms / 1e3)),
        ("write_ms", Json::nums(&write)),
        ("checkpoint_ms", Json::nums(&checkpoint)),
        (
            "read_ms",
            Json::Arr(reads.iter().map(|r| Json::nums(r)).collect()),
        ),
        ("answers", Json::Arr(answers)),
        ("cycle_start_ms", Json::nums(&starts_ms)),
        ("checkpoint_mismatches", Json::Num(inconsistent as f64)),
        ("wal_len", Json::Num(wal_len as f64)),
        ("cpu_slowdown", Json::Num(calibrator.slowdown())),
        (
            "peak_rss_mb",
            Json::opt(sys::peak_rss_mb(std::process::id())),
        ),
    ]);
    println!("{}", report.compact());
    Ok(())
}

/// The driver's side of the oracle: what each cycle's four reads must
/// answer, derived from the reference engine and the op-stream model.
pub struct Expected {
    /// `reserve_count` — touches no mutated layer.
    reserve_count: String,
    /// Seed entities that overlap a description.
    seeds_overlapping: usize,
    seeds: usize,
    /// Live new entities' regions that overlap a description.
    overlapping_slots: BTreeSet<(i64, i64)>,
}

impl Expected {
    /// Ask the reference engine, once, which of *all* entity regions
    /// the stream can ever produce overlap a description. An entity is
    /// in `description/select-wide::entity` iff it overlaps some
    /// description, whatever other entities exist, so the answer for
    /// any live set is a sum over its members.
    pub fn derive(corpus: &Corpus, stream: &OpStream) -> Result<Expected, String> {
        let seeds = seed_entities(&corpus.tokens);
        let mut xml = String::from("<entities>");
        for (start, end) in seeds.iter().chain(stream.slots()) {
            xml.push_str(&format!("<entity start=\"{start}\" end=\"{end}\"/>"));
        }
        xml.push_str("</entities>");
        let mut oracle = Oracle::with_entities(corpus, &xml)?;
        let hits = oracle.answer(r#"doc("xmark")//description/select-wide::entity"#)?;
        let mut overlapping = BTreeSet::new();
        // `as_xml` concatenates the empty elements without a separator.
        for line in hits.split("/>").filter(|piece| !piece.is_empty()) {
            let attr = |name: &str| -> Option<i64> {
                let rest = &line[line.find(&format!("{name}=\""))? + name.len() + 2..];
                rest[..rest.find('"')?].parse().ok()
            };
            match (attr("start"), attr("end")) {
                (Some(start), Some(end)) => overlapping.insert((start, end)),
                _ => return Err(format!("oracle: cannot read a region from {line:?}")),
            };
        }
        let reserve_count = oracle.answer(RESERVE_COUNT)?;
        Ok(Expected {
            reserve_count,
            seeds_overlapping: seeds.iter().filter(|r| overlapping.contains(r)).count(),
            seeds: seeds.len(),
            overlapping_slots: overlapping,
        })
    }

    /// The four answers after steady-state batch `b` has been applied,
    /// in class order (`entity_tokens`, `desc_entities`, `new_entities`,
    /// `reserve_count`).
    pub fn after_batch(&self, stream: &OpStream, b: usize) -> [String; 4] {
        let live = stream.live_after(b + 1);
        let overlapping = live
            .iter()
            .filter(|r| self.overlapping_slots.contains(r))
            .count();
        [
            // Entities are token-aligned and pairwise disjoint.
            ((self.seeds + live.len()) * ENTITY_SPAN).to_string(),
            (self.seeds_overlapping + overlapping).to_string(),
            live.len().to_string(),
            self.reserve_count.clone(),
        ]
    }
}

/// The entity layer after steady-state batch `b`, as XML, for the
/// end-state check against the reference engine.
pub fn entities_after(corpus: &Corpus, stream: &OpStream, b: usize) -> String {
    let mut xml = String::from("<entities>");
    for (start, end) in seed_entities(&corpus.tokens) {
        xml.push_str(&format!(
            "<entity kind=\"seed\" start=\"{start}\" end=\"{end}\"/>"
        ));
    }
    for (start, end) in stream.live_after(b + 1) {
        xml.push_str(&format!(
            "<entity kind=\"new\" start=\"{start}\" end=\"{end}\"/>"
        ));
    }
    xml.push_str("</entities>");
    xml
}

/// The durability check: recover from the last checkpoint plus a copy
/// of the journal cut at the length recorded when the last batch was
/// acknowledged, and answer the four reads.
pub fn recover_and_read(dir: &Path, wal_len: u64) -> Result<Vec<String>, String> {
    let mut journal = std::fs::read(dir.join(WAL_FILE)).map_err(|e| format!("read WAL: {e}"))?;
    if (journal.len() as u64) < wal_len {
        return Err(format!(
            "journal holds {} bytes, {wal_len} were acknowledged",
            journal.len()
        ));
    }
    journal.truncate(wal_len as usize);
    let copy = dir.join("recovered.wal");
    std::fs::write(&copy, &journal).map_err(|e| format!("write WAL copy: {e}"))?;
    let set = Snapshot::open(dir.join(CHECKPOINT_SNAP))
        .and_then(|s| s.to_layer_set())
        .map_err(|e| format!("open checkpoint: {e}"))?;
    let (_, records) = DeltaWal::open(&copy).map_err(|e| format!("recover WAL: {e}"))?;
    let mut delta = DeltaSet::new();
    for record in records {
        let ops = parse_ops(&record.ops).map_err(|e| format!("WAL record {}: {e}", record.seq))?;
        delta
            .apply_all(ops, &set)
            .map_err(|e| format!("replay record {}: {e}", record.seq))?;
    }
    let engine = WritableEngine::mount_with_delta(set, delta, EngineOptions::default())
        .map_err(|e| format!("mount recovered: {e}"))?;
    let mut session = engine.session();
    Workload::AnnotateRw
        .classes()
        .iter()
        .map(|class| {
            session
                .run(&class.query)
                .map(|r| r.as_xml())
                .map_err(|e| format!("recovered read {}: {e}", class.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff::core::StandoffConfig;
    use standoff::store::LayerSet;
    use standoff::xml::parse_document;

    #[test]
    fn limits_round_trip_through_their_argument() {
        for limit in [Limit::Seconds(2.5), Limit::Batches(128)] {
            let back = Limit::parse(&limit.to_arg()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{limit:?}"));
        }
        for bad in ["", "x3", "s", "bx", "12"] {
            assert!(Limit::parse(bad).is_none(), "{bad:?}");
        }
    }

    /// The model the driver judges by, against the loop-lifted engine
    /// over a real overlay: prefill, then a few batches.
    #[test]
    fn the_model_predicts_what_the_overlay_answers() {
        let corpus = Corpus::generate(11, Scale::S);
        let stream = OpStream::new(11, &corpus.tokens);
        let expected = Expected::derive(&corpus, &stream).unwrap();
        let config = StandoffConfig::default;
        let mut set =
            LayerSet::build("xmark", parse_document(&corpus.base_xml).unwrap(), config()).unwrap();
        set.add_layer(
            "tokens",
            parse_document(&corpus.tokens_xml).unwrap(),
            config(),
        )
        .unwrap();
        set.add_layer(
            "entities",
            parse_document(&corpus.entities_xml).unwrap(),
            config(),
        )
        .unwrap();
        let mut engine = WritableEngine::mount(set, EngineOptions::default()).unwrap();
        engine.apply(stream.prefill()).unwrap();
        let classes = Workload::AnnotateRw.classes();
        for b in 0..3 {
            engine.apply(stream.batch(b)).unwrap();
            let mut session = engine.session();
            let got: Vec<String> = classes
                .iter()
                .map(|c| session.run(&c.query).unwrap().as_xml())
                .collect();
            assert_eq!(got, expected.after_batch(&stream, b), "after batch {b}");
        }
    }
}
