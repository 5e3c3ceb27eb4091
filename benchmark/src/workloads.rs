//! The five workloads: set-up, closed-loop timed phase, judgement.
//!
//! One client, one operation in flight: every caller this system has
//! (`call`, an annotation pipeline) waits for its reply. The timed
//! phase is five rounds of `seconds / 5`. Each round sets the workload
//! up afresh — new work directory, new `index`, new server or writer
//! process — so `setup_s` is a median of five and no single address-
//! space layout colours a whole run. A round issues whole round-robin
//! cycles over the workload's classes, so the class mix is the same in
//! every round and on every commit.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::annotate::{self, Expected, Limit};
use crate::calib::Calibrator;
use crate::classes::{Class, Workload};
use crate::corpus::{Corpus, OpStream, CHECKPOINT_EVERY};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::program::{Program, WorkDir};
use crate::stats::{class_mean, median, percentile, spread, Measured, Tally, ROUNDS};

pub struct Params<'a> {
    pub program: &'a Program,
    pub root: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

impl Params<'_> {
    fn round_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / ROUNDS as f64)
    }
}

/// One class's latency distribution over the timed phase.
pub struct ClassStat {
    pub name: &'static str,
    pub p50_us: f64,
    /// Printed for information only: p99 does not repeat within a tenth
    /// on a 2-vCPU VM (README, "Tail = p95").
    pub p99_us: f64,
    pub samples: usize,
}

impl ClassStat {
    fn of(name: &'static str, samples_ms: &[f64]) -> ClassStat {
        ClassStat {
            name,
            p50_us: percentile(samples_ms, 0.50).unwrap_or(f64::NAN) * 1e3,
            p99_us: percentile(samples_ms, 0.99).unwrap_or(f64::NAN) * 1e3,
            samples: samples_ms.len(),
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: Workload,
    pub tally: Tally,
    /// End-to-end metrics that exist on this workload: name → value.
    pub metrics: Vec<(&'static str, Measured)>,
    pub classes: Vec<ClassStat>,
    /// CRC of the inputs this run was fed (corpus, classes, op stream).
    pub digest: u32,
    /// Median CPU slowdown the calibrator saw (1.0 = nominal speed);
    /// `None` where latencies are reported raw.
    pub cpu_slowdown: Option<f64>,
    /// `annotate_rw` only: the last writer process's raw report, whose
    /// per-cycle timings the traced run turns into spans.
    pub writer_report: Option<Json>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<Measured> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| *m)
    }
}

fn digest_of(corpus: &Corpus, classes: &[Class]) -> u32 {
    classes.iter().fold(corpus.digest(), |acc, class| {
        acc.rotate_left(5) ^ standoff::core::crc32(class.query.as_bytes())
    })
}

/// Median with the (max − min) / median of the samples as its spread.
fn median_of(samples: &[f64]) -> Option<Measured> {
    Some(Measured {
        value: median(samples)?,
        spread: spread(samples),
        samples: samples.len(),
    })
}

/// The timed phase of a closed loop over `n_classes` classes.
struct Loop {
    /// `[class][round]` → latency samples in ms (correct operations).
    latency: Vec<Vec<Vec<f64>>>,
    /// Per round: summed latency of the correct operations in seconds
    /// (the closed loop's busy time), and their count.
    busy_s: Vec<f64>,
    correct: Vec<u64>,
    /// Per round: how long set-up took, in seconds.
    setup_s: Vec<f64>,
    tally: Tally,
    /// `Some` where latencies are CPU time and get normalized (every
    /// workload but `call_oneshot`, which waits on a 100 ms poll).
    calibrator: Option<Calibrator>,
    slowdowns: Vec<f64>,
}

impl Loop {
    fn new(n_classes: usize, normalize: bool) -> Loop {
        Loop {
            latency: vec![Vec::new(); n_classes],
            busy_s: Vec::new(),
            correct: Vec::new(),
            setup_s: Vec::new(),
            tally: Tally::default(),
            calibrator: normalize.then(Calibrator::new),
            slowdowns: Vec::new(),
        }
    }

    /// One round of whole cycles lasting `len`. `op(class)` performs
    /// one operation and returns its latency in ms, or why it failed.
    fn round(&mut self, len: Duration, mut op: impl FnMut(usize) -> Result<f64, String>) {
        for class in &mut self.latency {
            class.push(Vec::new());
        }
        let started = Instant::now();
        let (mut correct, mut busy_ms) = (0, 0.0);
        // At least one cycle per round, so no class is ever empty.
        loop {
            for class in 0..self.latency.len() {
                self.tally.attempted += 1;
                match op(class) {
                    Ok(raw_ms) => {
                        let ms = self
                            .calibrator
                            .as_ref()
                            .map_or(raw_ms, |c| c.normalize(raw_ms));
                        correct += 1;
                        busy_ms += ms;
                        self.latency[class]
                            .last_mut()
                            .expect("round was opened")
                            .push(ms);
                    }
                    Err(why) => self.tally.fail(why),
                }
                if let Some(calibrator) = &mut self.calibrator {
                    calibrator.maybe_tick();
                }
            }
            if started.elapsed() >= len {
                break;
            }
        }
        self.busy_s.push(busy_ms / 1e3);
        self.correct.push(correct);
        self.slowdowns
            .extend(self.calibrator.as_ref().map(Calibrator::slowdown));
    }

    /// All classes' samples, by round.
    fn pooled_rounds(&self) -> Vec<Vec<f64>> {
        (0..self.busy_s.len())
            .map(|round| {
                self.latency
                    .iter()
                    .flat_map(|class| class[round].iter().copied())
                    .collect()
            })
            .collect()
    }

    fn class_stats(&self, classes: &[Class]) -> Vec<ClassStat> {
        classes
            .iter()
            .zip(&self.latency)
            .map(|(class, rounds)| ClassStat::of(class.name, &rounds.concat()))
            .collect()
    }

    /// The metrics every workload reports from its loop.
    ///
    /// `latency_p50_ms` is the mean over classes of each class's median:
    /// with four or six equally frequent classes the pooled median sits
    /// exactly in the gap between two classes and jumps with either.
    /// `latency_p95_ms` is the pooled p95, which always lies well inside
    /// the slowest class. Throughput is operations per second of busy
    /// time (one client: the loop is busy whenever it is timed).
    fn common_metrics(&self) -> Vec<(&'static str, Measured)> {
        let mut metrics = Vec::new();
        metrics.extend(median_of(&self.setup_s).map(|m| ("setup_s", m)));
        metrics.extend(class_mean(&self.latency, 0.50).map(|m| ("latency_p50_ms", m)));
        let rounds = self.pooled_rounds();
        metrics.extend(
            Measured::pooled(&rounds, |s| percentile(s, 0.95)).map(|m| ("latency_p95_ms", m)),
        );
        let per_round: Vec<f64> = self
            .correct
            .iter()
            .zip(&self.busy_s)
            .map(|(&n, &s)| n as f64 / s)
            .collect();
        let operations: u64 = self.correct.iter().sum();
        metrics.push((
            "throughput_ops_s",
            Measured {
                value: operations as f64 / self.busy_s.iter().sum::<f64>(),
                spread: spread(&per_round),
                samples: operations as usize,
            },
        ));
        metrics
    }

    fn into_outcome(
        self,
        workload: Workload,
        classes: &[Class],
        corpus: &Corpus,
        mut metrics: Vec<(&'static str, Measured)>,
    ) -> Outcome {
        let mut all = self.common_metrics();
        all.append(&mut metrics);
        Outcome {
            workload,
            classes: self.class_stats(classes),
            digest: digest_of(corpus, classes),
            cpu_slowdown: median(&self.slowdowns),
            tally: self.tally,
            metrics: all,
            writer_report: None,
        }
    }
}

/// Corpus → XML → `standoff-xq index`, in a fresh work directory.
fn index_corpus(p: &Params, workload: Workload) -> Result<(WorkDir, Corpus, PathBuf), String> {
    let dir = WorkDir::create(p.root, workload.name()).map_err(|e| format!("work dir: {e}"))?;
    let corpus = Corpus::generate(p.seed, workload.scale());
    let snap = p.program.index(&corpus, dir.path())?;
    Ok((dir, corpus, snap))
}

/// Expected answers for `workload`'s classes on this seed's corpus.
fn expected_answers(p: &Params, workload: Workload) -> Result<Vec<String>, String> {
    Oracle::new(&Corpus::generate(p.seed, workload.scale()))?.answers(&workload.classes())
}

/// Judge a CLI child: exit status, then stdout (the result followed by
/// one newline) against the oracle.
pub fn judge_child(
    done: std::io::Result<crate::sys::Finished>,
    class: &Class,
    expected: &str,
) -> Result<crate::sys::Finished, String> {
    match done {
        Ok(done)
            if done.success && done.stdout.strip_suffix(b"\n") == Some(expected.as_bytes()) =>
        {
            Ok(done)
        }
        Ok(done) if done.success => Err(format!("{}: answer differs from the oracle", class.name)),
        Ok(_) => Err(format!("{}: non-zero exit", class.name)),
        Err(e) => Err(format!("{}: spawn: {e}", class.name)),
    }
}

/// `serve_point` and `serve_scan`: one persistent connection to a real
/// `standoff-xq serve`, round-robin over the workload's classes.
pub fn serve(p: &Params, workload: Workload) -> Result<Outcome, String> {
    let classes = workload.classes();
    let expected = expected_answers(p, workload)?;
    let mut timed = Loop::new(classes.len(), true);
    let (mut rss, mut last) = (Vec::new(), None);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let (dir, corpus, snap) = index_corpus(p, workload)?;
        let server = p.program.serve(&snap)?;
        let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
        // Warm-up: every class once, so plans are cached and layers
        // materialized before the first timed request.
        for class in &classes {
            client
                .query(&class.query)
                .map_err(|e| format!("warm-up {}: {e}", class.name))?;
        }
        timed.setup_s.push(started.elapsed().as_secs_f64());

        timed.round(p.round_len(), |k| {
            let started = Instant::now();
            let reply = client.query(&classes[k].query);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(reply) if reply.ok && reply.body == expected[k].as_bytes() => Ok(ms),
                Ok(reply) if reply.ok => Err(format!(
                    "{}: answer differs from the oracle",
                    classes[k].name
                )),
                Ok(reply) => Err(format!(
                    "{}: err reply {:?}",
                    classes[k].name,
                    String::from_utf8_lossy(&reply.body)
                        .lines()
                        .next()
                        .unwrap_or("")
                )),
                Err(e) => Err(format!("{}: transport: {e}", classes[k].name)),
            }
        });
        drop(client);
        rss.extend(server.peak_rss_mb());
        timed
            .tally
            .check(server.shutdown(), || "server did not drain cleanly".into());
        last = Some((corpus, dir));
    }
    let (corpus, _dir) = last.expect("ROUNDS > 0");
    let metrics = median_of(&rss)
        .map(|m| ("peak_rss_mb", m))
        .into_iter()
        .collect();
    Ok(timed.into_outcome(workload, &classes, &corpus, metrics))
}

/// `cold_query`: one `standoff-xq query --store` process per operation,
/// snapshot in the page cache.
pub fn cold_query(p: &Params) -> Result<Outcome, String> {
    let workload = Workload::ColdQuery;
    let classes = workload.classes();
    let expected = expected_answers(p, workload)?;
    let mut timed = Loop::new(classes.len(), true);
    let (mut rss, mut last) = (Vec::new(), None);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let (dir, corpus, snap) = index_corpus(p, workload)?;
        for class in &classes {
            p.program
                .query(&snap, &class.query)
                .map_err(|e| format!("warm-up {}: {e}", class.name))?;
        }
        timed.setup_s.push(started.elapsed().as_secs_f64());

        timed.round(p.round_len(), |k| {
            let done = judge_child(
                p.program.query(&snap, &classes[k].query),
                &classes[k],
                &expected[k],
            )?;
            rss.extend(done.peak_rss_mb);
            Ok(done.wall_ms)
        });
        let stored = std::fs::metadata(&snap)
            .map_err(|e| format!("stat snapshot: {e}"))?
            .len();
        last = Some((corpus, stored, dir));
    }
    let (corpus, stored, _dir) = last.expect("ROUNDS > 0");
    let mut metrics: Vec<(&'static str, Measured)> = median_of(&rss)
        .map(|m| ("peak_rss_mb", m))
        .into_iter()
        .collect();
    metrics.push((
        "stored_bytes_per_input_byte",
        Measured::exact(stored as f64 / corpus.input_bytes() as f64),
    ));
    Ok(timed.into_outcome(workload, &classes, &corpus, metrics))
}

/// `call_oneshot`: the bundled client, one process and one connection
/// per request, against a running server. Its 100 ms is the accept
/// loop's poll sleep, not CPU time, so it is reported as measured.
pub fn call_oneshot(p: &Params) -> Result<Outcome, String> {
    let workload = Workload::CallOneshot;
    let classes = workload.classes();
    let expected = expected_answers(p, workload)?;
    let mut timed = Loop::new(classes.len(), false);
    let (mut rss, mut last) = (Vec::new(), None);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let (dir, corpus, snap) = index_corpus(p, workload)?;
        let server = p.program.serve(&snap)?;
        // Warm-up over a connection of our own, not through `call`: a
        // spawned client races the server's first `accept` and either
        // wins or waits a whole 100 ms poll, which made `setup_s` flip
        // between 0.035 s and 0.135 s from run to run.
        let warm = server
            .connect()
            .and_then(|mut c| c.query(&classes[0].query))
            .map_err(|e| format!("warm-up: {e}"))?;
        if !warm.ok {
            return Err("warm-up query was refused".into());
        }
        timed.setup_s.push(started.elapsed().as_secs_f64());

        timed.round(p.round_len(), |k| {
            judge_child(
                p.program.call(&server.addr, &classes[k].query),
                &classes[k],
                &expected[k],
            )
            .map(|done| done.wall_ms)
        });
        rss.extend(server.peak_rss_mb());
        timed
            .tally
            .check(server.shutdown(), || "server did not drain cleanly".into());
        last = Some((corpus, dir));
    }
    let (corpus, _dir) = last.expect("ROUNDS > 0");
    let metrics = median_of(&rss)
        .map(|m| ("peak_rss_mb", m))
        .into_iter()
        .collect();
    Ok(timed.into_outcome(workload, &classes, &corpus, metrics))
}

/// The `annotate-child` process; killed on drop unless it already
/// exited.
struct AnnotateChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
}

impl AnnotateChild {
    /// Spawn this executable as the writer and wait until it is warm.
    fn spawn(snap: &Path, dir: &Path, seed: u64, limit: Limit) -> Result<AnnotateChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("annotate-child")
            .arg(snap)
            .arg(dir)
            .arg(seed.to_string())
            .arg(limit.to_arg())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn annotate child: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut me = AnnotateChild { child, stdout };
        let mut line = String::new();
        match me.stdout.read_line(&mut line) {
            Ok(_) if line.trim() == "ready" => Ok(me),
            _ => Err(format!(
                "annotate child did not become ready (said {line:?})"
            )),
        }
    }

    /// Wait for the child's report line and its exit.
    fn report(mut self) -> Result<Json, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("annotate child output: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("annotate child: {e}"))?;
        if !status.success() {
            return Err("annotate child failed".into());
        }
        Json::parse(&line)
    }
}

impl Drop for AnnotateChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `annotate_rw`: see [`crate::annotate`]. Per round the driver sets
/// up, lets a fresh writer process run, and judges every answer it
/// recorded. `Limit::Seconds` is split over five rounds;
/// `Limit::Batches` (the traced run) is one round of exactly that many
/// cycles.
pub fn annotate_rw(p: &Params, limit: Limit) -> Result<Outcome, String> {
    let workload = Workload::AnnotateRw;
    let classes = workload.classes();
    let per_round = match limit {
        Limit::Seconds(s) => vec![Limit::Seconds(s / ROUNDS as f64); ROUNDS],
        Limit::Batches(_) => vec![limit],
    };

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    // Per round: reads by class, writes, checkpoints, cycle rate.
    let mut reads: Vec<Vec<Vec<f64>>> = vec![Vec::new(); classes.len()];
    let (mut writes, mut checkpoints, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycles_total, mut busy_total) = (0.0, 0.0);
    let (mut rss, mut slowdowns) = (Vec::new(), Vec::new());
    let mut model: Option<(Corpus, OpStream, Expected)> = None;
    let mut last = None;

    for limit in per_round {
        let started = Instant::now();
        let (dir, corpus, snap) = index_corpus(p, workload)?;
        // The child starts its timed phase the moment it says `ready`.
        let child = AnnotateChild::spawn(&snap, dir.path(), p.seed, limit)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let report = child.report()?;
        if model.is_none() {
            let stream = OpStream::new(p.seed, &corpus.tokens);
            let expected = Expected::derive(&corpus, &stream)?;
            model = Some((corpus, stream, expected));
        }
        let (_, stream, expected) = model.as_ref().expect("just set");

        // Every cycle: one write and four reads judged against the model.
        let first_batch = report
            .get("first_batch")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize;
        let answers = report.get("answers").and_then(Json::as_arr).unwrap_or(&[]);
        if answers.is_empty() {
            return Err("annotate child completed no cycle".into());
        }
        let mut last_answers: Vec<String> = Vec::new();
        for (i, cycle) in answers.iter().enumerate() {
            let got: Vec<String> = cycle
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|a| a.as_str().map(str::to_string))
                .collect();
            let want = expected.after_batch(stream, first_batch + i);
            // The write was acknowledged, or the child would have died.
            tally.attempted += 1;
            for (k, want) in want.iter().enumerate() {
                tally.check(got.get(k) == Some(want), || {
                    format!(
                        "batch {}: {} answered {:?}, the model says {want}",
                        first_batch + i,
                        classes[k].name,
                        got.get(k)
                    )
                });
            }
            last_answers = got;
        }

        // Overlay ≡ compacted at every checkpoint.
        let samples = |key: &str| report.get(key).map(Json::as_f64s).unwrap_or_default();
        let round_checkpoints = samples("checkpoint_ms");
        let mismatches = report
            .get("checkpoint_mismatches")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize;
        for k in 0..round_checkpoints.len() {
            tally.check(k >= mismatches, || {
                "reads just before and just after a checkpoint differ".into()
            });
        }

        for (k, class) in report
            .get("read_ms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            if let Some(rounds) = reads.get_mut(k) {
                rounds.push(class.as_f64s());
            }
        }
        writes.push(samples("write_ms"));
        checkpoints.push(round_checkpoints);
        let number = |key: &str| report.get(key).and_then(Json::as_f64);
        if let (Some(cycles), Some(busy_s)) = (number("cycles"), number("busy_s")) {
            rates.push(cycles / busy_s);
            cycles_total += cycles;
            busy_total += busy_s;
        }
        rss.extend(number("peak_rss_mb"));
        slowdowns.extend(number("cpu_slowdown"));
        let wal_len = number("wal_len").unwrap_or(0.0) as u64;
        last = Some((
            dir,
            first_batch + answers.len() - 1,
            last_answers,
            wal_len,
            report,
        ));
    }

    let (corpus, stream, _) = model.expect("at least one round ran");
    let (dir, last_batch, last_answers, wal_len, report) = last.expect("at least one round ran");

    // The model itself, end to end, against the reference engine.
    let end_state = annotate::entities_after(&corpus, &stream, last_batch);
    let mut reference = Oracle::with_entities(&corpus, &end_state)?;
    let reference_answers: Vec<String> = classes
        .iter()
        .map(|c| reference.answer(&c.query))
        .collect::<Result<_, _>>()?;
    tally.check(reference_answers == last_answers, || {
        format!(
            "end state: answered {last_answers:?}, the reference engine says {reference_answers:?}"
        )
    });

    // Durability: checkpoint + journal cut at the last acknowledgement.
    let recovered = annotate::recover_and_read(dir.path(), wal_len);
    tally.check(recovered.as_ref() == Ok(&last_answers), || {
        format!(
            "recovery gave {recovered:?}, the last acknowledged state answered {last_answers:?}"
        )
    });

    let mut metrics = Vec::new();
    metrics.extend(median_of(&setup_s).map(|m| ("setup_s", m)));
    metrics.extend(class_mean(&reads, 0.50).map(|m| ("latency_p50_ms", m)));
    let pooled_reads: Vec<Vec<f64>> = (0..writes.len())
        .map(|r| {
            reads
                .iter()
                .flat_map(|class| class[r].iter().copied())
                .collect()
        })
        .collect();
    let mut push = |name: &'static str, rounds: &[Vec<f64>], q: f64| {
        metrics.extend(Measured::pooled(rounds, |s| percentile(s, q)).map(|m| (name, m)));
    };
    push("latency_p95_ms", &pooled_reads, 0.95);
    push("write_p50_ms", &writes, 0.50);
    push("write_p95_ms", &writes, 0.95);
    push("checkpoint_p50_ms", &checkpoints, 0.50);
    metrics.push((
        "throughput_ops_s",
        Measured {
            value: cycles_total / busy_total,
            spread: spread(&rates),
            samples: cycles_total as usize,
        },
    ));
    metrics.extend(median_of(&rss).map(|m| ("peak_rss_mb", m)));

    let class_stats = classes
        .iter()
        .zip(&reads)
        .map(|(class, rounds)| ClassStat::of(class.name, &rounds.concat()))
        .collect();
    Ok(Outcome {
        workload,
        tally,
        metrics,
        classes: class_stats,
        digest: digest_of(&corpus, &classes) ^ stream.digest(2 * CHECKPOINT_EVERY),
        cpu_slowdown: median(&slowdowns),
        writer_report: Some(report),
    })
}

/// Run one workload.
pub fn run(p: &Params, workload: Workload) -> Result<Outcome, String> {
    match workload {
        Workload::ServePoint | Workload::ServeScan => serve(p, workload),
        Workload::AnnotateRw => annotate_rw(p, Limit::Seconds(p.seconds)),
        Workload::ColdQuery => cold_query(p),
        Workload::CallOneshot => call_oneshot(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::Finished;

    fn finished(success: bool, stdout: &[u8]) -> std::io::Result<Finished> {
        Ok(Finished {
            success,
            stdout: stdout.to_vec(),
            wall_ms: 1.5,
            peak_rss_mb: None,
        })
    }

    /// Inject an oracle mismatch: the operation counts as attempted and
    /// failed, and its latency stays out of every metric.
    #[test]
    fn an_oracle_mismatch_is_a_failed_operation() {
        let class = &Workload::CallOneshot.classes()[0];
        assert!(judge_child(finished(true, b"17\n"), class, "17").is_ok());
        let wrong = judge_child(finished(true, b"18\n"), class, "17").unwrap_err();
        assert!(wrong.contains("differs from the oracle"), "{wrong}");
        assert!(
            judge_child(finished(true, b"17"), class, "17").is_err(),
            "the newline is part of the output"
        );
        assert!(judge_child(finished(false, b"17\n"), class, "17")
            .unwrap_err()
            .contains("non-zero exit"));

        let mut timed = Loop::new(2, false);
        timed.round(Duration::ZERO, |k| {
            judge_child(
                finished(true, if k == 0 { b"17\n" } else { b"18\n" }),
                class,
                "17",
            )
            .map(|d| d.wall_ms)
        });
        assert_eq!((timed.tally.attempted, timed.tally.failed), (2, 1));
        assert_eq!(timed.correct, [1]);
        assert_eq!(timed.latency[0][0], [1.5]);
        assert!(timed.latency[1][0].is_empty());
        assert_eq!(timed.tally.notes.len(), 1);
        let throughput = timed
            .common_metrics()
            .into_iter()
            .find(|(n, _)| *n == "throughput_ops_s")
            .unwrap()
            .1;
        assert_eq!(throughput.samples, 1, "only the correct operation counts");
    }

    #[test]
    fn a_round_runs_whole_cycles_and_normalizes_when_asked() {
        let mut raw = Loop::new(3, false);
        let mut calls = 0;
        raw.round(Duration::from_millis(2), |_| {
            calls += 1;
            Ok(0.25)
        });
        assert_eq!(calls % 3, 0, "rounds end on a cycle boundary");
        assert!(raw.slowdowns.is_empty());
        let mut normalized = Loop::new(1, true);
        normalized.round(Duration::ZERO, |_| Ok(1.0));
        let slowdown = normalized.slowdowns[0];
        assert!(
            (normalized.latency[0][0][0] * slowdown - 1.0).abs() < 0.2,
            "latency is divided by the slowdown"
        );
    }
}
