//! The traced run: a fixed, seeded sample of every workload's requests
//! replayed stage by stage through public functions, giving spans and
//! the per-layer ledger.
//!
//! Timing is outside-in: the benchmark times its own calls into each
//! layer. Where one call contains another (`run_governed` ⊃ cache
//! lookup + session + execute; socket round trip ⊃ `run_governed` +
//! `as_xml`) the inner call is replayed alone on the same input, and
//! the outer call's *self time* is its median minus its children's
//! medians. Child spans are therefore replays: they carry the parent's
//! id but lie after it on the clock.
//!
//! Sample sizes are fixed, so every count in the ledger repeats
//! exactly. End-to-end numbers never come from here (`benchmark run`
//! measures them with tracing off).

use std::path::Path;
use std::time::{Duration, Instant};

use standoff::core::{crc32, StandoffConfig, StandoffStrategy};
use standoff::store::{compact, save_snapshot, DeltaOp, DeltaSet, DeltaWal, LayerSet, Snapshot};
use standoff::xmark::queries::XmarkQuery;
use standoff::xml::{parse_document, serialize_document, SerializeOptions};
use standoff::xquery::{Engine, EngineOptions, Executor, Governance, QueryCache, WritableEngine};

use crate::annotate::Limit;
use crate::catalog::{self, Layer};
use crate::classes::{Class, Workload, RESERVE_COUNT};
use crate::corpus::{Corpus, OpStream, Scale, CHECKPOINT_EVERY, URI};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::program::{self, Program, WorkDir};
use crate::report;
use crate::stats::{loglog_slope, median, percentile, Measured, Tally};
use crate::sys::Env;
use crate::workloads::{self, Params};

/// Request counts of the traced sample.
struct Sample {
    point_cycles: usize,
    scan_cycles: usize,
    annotate_batches: usize,
    cold_cycles: usize,
    calls: usize,
    /// Repetitions of each micro-measurement (pings, opens, appends…).
    reps: usize,
    /// Fit cost exponents over a third, 4× larger corpus.
    with_large: bool,
}

const FULL: Sample = Sample {
    point_cycles: 200,
    scan_cycles: 20,
    annotate_batches: 128,
    cold_cycles: 5,
    calls: 8,
    reps: 5,
    with_large: true,
};

const SMOKE: Sample = Sample {
    point_cycles: 10,
    scan_cycles: 2,
    annotate_batches: CHECKPOINT_EVERY,
    cold_cycles: 1,
    calls: 2,
    reps: 2,
    with_large: false,
};

pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: String,
}

/// Spans in memory until the run ends, plus the clock they share.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Time `f` as a span; returns its result, the span's id and its
    /// duration in microseconds.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let start = self.epoch.elapsed();
        let value = f();
        let end = self.epoch.elapsed();
        let id = self.record(name, parent, request, start, end);
        (value, id, (end - start).as_secs_f64() * 1e6)
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: &str,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            request: request.to_string(),
        });
        self.spans.len() - 1
    }
}

/// The finished ledger.
pub struct Ledger {
    /// Every catalog entry, in catalog order, with its value once set.
    values: Vec<(Layer, Option<Measured>)>,
    /// Per serve workload, the round-trip figure its stages add up to
    /// (not a layer metric: the class p50s already report round trips).
    round_trip_us: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
    pub tally: Tally,
}

/// Median of `samples` with their interquartile range over the median
/// as the spread (a traced run has no rounds to compare).
fn summarize(samples: &[f64]) -> Option<Measured> {
    let value = median(samples)?;
    let iqr = percentile(samples, 0.75)? - percentile(samples, 0.25)?;
    Some(Measured {
        value,
        spread: (samples.len() > 1 && value != 0.0).then(|| iqr / value.abs()),
        samples: samples.len(),
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` `reps` times; returns the durations in microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            us(started.elapsed())
        })
        .collect()
}

impl Ledger {
    fn set(&mut self, name: &str, value: Option<Measured>) {
        match self.values.iter_mut().find(|(layer, _)| layer.name == name) {
            Some(slot) => slot.1 = value,
            None => panic!("{name} is not in the layer catalog"),
        }
    }

    fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, summarize(samples));
    }

    fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Some(Measured::exact(value)));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(layer, _)| layer.name == name)?
            .1
            .map(|m| m.value)
    }

    /// One JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `parent` (a span id or null), `request` (`<workload>/<seq>`).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("parent", Json::opt(span.parent.map(|p| p as f64))),
                ("request", Json::str(&span.request)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }

    /// `layers.json`: the ledger table with provenance.
    pub fn layers_json(&self, env: &Env, seed: u64) -> Json {
        let mut pairs = report::header("trace", env, seed, 0.0, 0);
        pairs.push((
            "attempted".to_string(),
            Json::Num(self.tally.attempted as f64),
        ));
        pairs.push(("failed".to_string(), Json::Num(self.tally.failed as f64)));
        pairs.push(("spans".to_string(), Json::Num(self.spans.len() as f64)));
        pairs.push((
            "layers".to_string(),
            Json::Obj(
                self.values
                    .iter()
                    .map(|(layer, m)| {
                        let value = match m {
                            Some(m) => Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(layer.unit)),
                                ("spread", Json::opt(m.spread)),
                                ("samples", Json::Num(m.samples as f64)),
                            ]),
                            None => {
                                Json::obj([("value", Json::Null), ("unit", Json::str(layer.unit))])
                            }
                        };
                        (layer.name.clone(), value)
                    })
                    .collect(),
            ),
        ));
        // For each serve workload: lookup + session + execute +
        // governed overhead + as_xml + unattributed = this figure.
        pairs.push((
            "round_trip_us".to_string(),
            Json::obj(self.round_trip_us.iter().map(|&(w, us)| (w, Json::Num(us)))),
        ));
        pairs.push((
            "notes".to_string(),
            Json::Arr(self.tally.notes.iter().map(Json::str).collect()),
        ));
        Json::Obj(pairs)
    }

    /// The contract line of a `--trace 1` run: every per-layer metric.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .values
            .iter()
            .map(|(layer, m)| {
                (
                    layer.name.clone(),
                    Json::obj([
                        ("value", Json::opt(m.map(|m| m.value))),
                        ("unit", Json::str(layer.unit)),
                    ]),
                )
            })
            .collect();
        report::contract_line(&self.tally, metrics)
    }

    pub fn print_table(&self) {
        println!(
            "attempted {}  failed {}  spans {}",
            self.tally.attempted,
            self.tally.failed,
            self.spans.len()
        );
        for (layer, m) in &self.values {
            let name = &layer.name;
            match m {
                Some(m) => println!(
                    "  {name:<56} {:>14.4} {:<6} {} n={}",
                    m.value,
                    layer.unit,
                    m.spread
                        .map_or_else(|| "exact  ".to_string(), |s| format!("±{:.1}%", s * 100.0)),
                    m.samples
                ),
                None => println!("  {name:<56} {:>14} {:<6}", "null", layer.unit),
            }
        }
        for note in &self.tally.notes {
            println!("  ! {note}");
        }
    }
}

/// The governance `standoff-xq serve --deadline-ms 2000 --queue-cap 64`
/// runs under (no result or scratch cap).
fn serve_governance() -> Governance {
    Governance {
        queue_cap: Some(64),
        deadline: Some(Duration::from_secs(2)),
        ..Governance::default()
    }
}

/// An engine with every layer of the snapshot at `snap` mounted — what
/// `serve` and `query --store` build before they answer anything.
fn mounted_engine(snap: &Path) -> Result<Engine, String> {
    let snapshot = Snapshot::open(snap).map_err(|e| format!("open {}: {e}", snap.display()))?;
    let mut engine = Engine::new();
    engine
        .mount_snapshot(&snapshot)
        .map_err(|e| format!("mount {}: {e}", snap.display()))?;
    Ok(engine)
}

/// One stage's samples in microseconds, by class.
#[derive(Default)]
struct Stage(Vec<Vec<f64>>);

impl Stage {
    fn push(&mut self, class: usize, sample: f64) {
        if self.0.len() <= class {
            self.0.resize(class + 1, Vec::new());
        }
        self.0[class].push(sample);
    }

    /// The per-request figure of a class-balanced mix: the mean over
    /// classes of each class's median. Unlike a median over the pooled
    /// samples it is additive, so a parent's figure minus its
    /// children's is a meaningful self time even when classes differ
    /// by two orders of magnitude.
    fn per_request(&self) -> Measured {
        let classes: Vec<Measured> = self.0.iter().filter_map(|c| summarize(c)).collect();
        let mean = |f: &dyn Fn(&Measured) -> Option<f64>| {
            classes
                .iter()
                .map(f)
                .sum::<Option<f64>>()
                .map(|sum| sum / classes.len() as f64)
        };
        Measured {
            value: mean(&|m| Some(m.value)).unwrap_or(f64::NAN),
            spread: mean(&|m| m.spread),
            samples: classes.iter().map(|m| m.samples).sum(),
        }
    }
}

/// The stages of one serve workload's sample.
#[derive(Default)]
struct ServeStages {
    rtt_untraced: Stage,
    rtt: Stage,
    governed: Stage,
    as_xml: Stage,
    lookup: Stage,
    session: Stage,
    execute: Stage,
    rows: Vec<f64>,
    bytes_out: u64,
    requests: u64,
}

/// Replay one serve workload: an untraced socket pass, a traced socket
/// pass, then the stage replays on an in-process executor built the way
/// `serve` builds its own.
fn trace_serve(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    program: &Program,
    workload: Workload,
    snap: &Path,
    expected: &[String],
    cycles: usize,
) -> Result<ServeStages, String> {
    let classes = workload.classes();
    let server = program.serve(snap)?;
    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
    for class in &classes {
        client
            .query(&class.query)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let exec = Executor::governed(mounted_engine(snap)?.into_shared(), 1, serve_governance());
    for class in &classes {
        exec.run_governed(&class.query)
            .map_err(|e| format!("replica warm-up: {e}"))?;
    }

    let mut stages = ServeStages::default();
    let before = server.stats();
    for _ in 0..cycles {
        for (k, class) in classes.iter().enumerate() {
            let started = Instant::now();
            let reply = client.query(&class.query);
            let took = us(started.elapsed());
            let ok = reply.is_ok_and(|r| r.ok && r.body == expected[k].as_bytes());
            ledger.tally.check(ok, || {
                format!(
                    "{}/{}: untraced reply differs from the oracle",
                    workload.name(),
                    class.name
                )
            });
            stages.rtt_untraced.push(k, took);
        }
    }
    // Per cycle, three traced passes over its requests, one per nesting
    // level, each in the server's own round-robin order. Every
    // execution of a query then follows a *different* query, as it does
    // inside the server (replaying one request's stages back to back
    // would time the inner ones on caches the outer one just warmed),
    // and the three levels of a request are measured within a few
    // milliseconds of each other, inside one regime of the host.
    let n = classes.len();
    for cycle in 0..cycles {
        let request = |k: usize| format!("{}/{}", workload.name(), cycle * n + k);
        let mut roots = Vec::with_capacity(n);
        for (k, class) in classes.iter().enumerate() {
            let (reply, root, rtt) = tracer.span("serve.round_trip", None, &request(k), || {
                client.query(&class.query)
            });
            let body = reply.ok().filter(|r| r.ok).map(|r| r.body);
            ledger
                .tally
                .check(body.as_deref() == Some(expected[k].as_bytes()), || {
                    format!("{}: traced reply differs from the oracle", request(k))
                });
            stages.bytes_out += body.map_or(0, |b| b.len() as u64);
            stages.requests += 1;
            stages.rtt.push(k, rtt);
            roots.push(root);
        }
        let mut governed_ids = Vec::with_capacity(n);
        for (k, class) in classes.iter().enumerate() {
            let (result, governed, t) =
                tracer.span("exec.run_governed", Some(roots[k]), &request(k), || {
                    exec.run_governed(&class.query)
                });
            stages.governed.push(k, t);
            let result = result.map_err(|e| format!("replay {}: {e}", request(k)))?;
            let (xml, _, t) = tracer.span("result.as_xml", Some(roots[k]), &request(k), || {
                result.as_xml()
            });
            stages.as_xml.push(k, t);
            stages.rows.push(result.len() as f64);
            ledger.tally.check(xml == expected[k], || {
                format!("{}: replayed answer differs from the oracle", request(k))
            });
            governed_ids.push(governed);
        }
        for (k, class) in classes.iter().enumerate() {
            let parent = Some(governed_ids[k]);
            let (plan, _, t) = tracer.span("exec.plan_cache_lookup", parent, &request(k), || {
                exec.cache().get_or_compile(&class.query, exec.engine())
            });
            stages.lookup.push(k, t);
            let plan = plan.map_err(|e| format!("replay lookup {}: {e}", request(k)))?;
            let (mut session, _, t) = tracer.span("exec.session_new", parent, &request(k), || {
                exec.engine().session()
            });
            stages.session.push(k, t);
            let (executed, _, t) = tracer.span("eval.execute_plan", parent, &request(k), || {
                session.execute_plan(&plan)
            });
            stages.execute.push(k, t);
            executed.map_err(|e| format!("replay execute {}: {e}", request(k)))?;
        }
    }
    let after = server.stats();
    drop(client);

    for (class, samples) in classes.iter().zip(&stages.rtt_untraced.0) {
        ledger.set_median(
            &format!("class.{}.{}.p50_us", workload.name(), class.name),
            samples,
        );
    }
    let w = workload.name();
    ledger
        .round_trip_us
        .push((w, stages.rtt.per_request().value));
    ledger.set_exact(
        &format!("serve.unattributed_us.{w}"),
        stages.rtt.per_request().value
            - stages.governed.per_request().value
            - stages.as_xml.per_request().value,
    );
    ledger.set_exact(
        &format!("serve.bytes_out_per_req.{w}"),
        stages.bytes_out as f64 / stages.requests as f64,
    );
    ledger.set(
        &format!("eval.execute_us.{w}"),
        Some(stages.execute.per_request()),
    );

    // Counter deltas over both passes (2 × cycles × classes requests).
    let delta = |name: &str| -> Option<f64> {
        Some(program::counter(after.as_ref()?, name)? - program::counter(before.as_ref()?, name)?)
    };
    let served = 2.0 * (cycles * classes.len()) as f64;
    if workload == Workload::ServePoint {
        let share = delta("plan_cache.hits")
            .zip(delta("plan_cache.misses"))
            .map(|(h, m)| h / (h + m));
        ledger.set(
            "exec.plan_cache_hit_share.serve_point",
            share.map(Measured::exact),
        );
    } else {
        for counter in [
            "join.candidate_node_view",
            "join.candidate_repr_dense",
            "join.result_sorts",
        ] {
            ledger.set(
                &format!("counters.serve_scan.{counter}_per_req"),
                delta(counter).map(|d| Measured::exact(d / served)),
            );
        }
        ledger.set(
            "result.as_xml_us.serve_scan",
            Some(stages.as_xml.per_request()),
        );
        ledger.set_exact(
            "result.rows_per_req.serve_scan",
            stages.rows.iter().sum::<f64>() / stages.rows.len() as f64,
        );
    }
    ledger.tally.check(server.shutdown(), || {
        format!("{w}: server did not drain cleanly")
    });
    Ok(stages)
}

/// The floor of the service: verbs that do no query work, and a fresh
/// connection's first reply.
fn trace_serve_floor(
    ledger: &mut Ledger,
    program: &Program,
    snap: &Path,
    sample: &Sample,
) -> Result<f64, String> {
    let server = program.serve(snap)?;
    let mut client = server.connect().map_err(|e| format!("connect: {e}"))?;
    let mut verb = |payload: &str, n: usize| -> Result<Vec<f64>, String> {
        client
            .request(payload)
            .map_err(|e| format!("{payload}: {e}"))?;
        let mut took = Vec::with_capacity(n);
        for _ in 0..n {
            let started = Instant::now();
            let reply = client
                .request(payload)
                .map_err(|e| format!("{payload}: {e}"))?;
            took.push(us(started.elapsed()));
            if !reply.ok {
                return Err(format!("{payload}: err reply"));
            }
        }
        Ok(took)
    };
    let many = sample.reps * 200;
    ledger.set_median("serve.ping_rtt_us", &verb("ping", many)?);
    ledger.set_median("serve.trivial_query_rtt_us", &verb("query\n1", many)?);
    ledger.set_median("serve.stats_rtt_us", &verb("stats", sample.reps * 20)?);
    let persistent = verb(&format!("query\n{RESERVE_COUNT}"), many)?;

    // New connection → `ping` reply, from this process.
    let mut first_reply = Vec::with_capacity(sample.calls);
    for _ in 0..sample.calls {
        let started = Instant::now();
        let reply = server.connect().and_then(|mut c| c.request("ping"));
        first_reply.push(started.elapsed().as_secs_f64() * 1e3);
        ledger.tally.check(reply.is_ok_and(|r| r.ok), || {
            "connect + ping failed".to_string()
        });
    }
    ledger.set_median("serve.connect_first_reply_ms", &first_reply);
    drop(client);
    ledger.tally.check(server.shutdown(), || {
        "floor server did not drain cleanly".to_string()
    });
    Ok(median(&persistent).unwrap_or(f64::NAN))
}

/// `cold_query` sample: CLI wall as the root span, then the same work
/// replayed in-process as open → mount → run.
fn trace_cold(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    program: &Program,
    snap: &Path,
    expected: &[String],
    cycles: usize,
) -> Result<(), String> {
    let classes = Workload::ColdQuery.classes();
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    for cycle in 0..cycles {
        for (k, class) in classes.iter().enumerate() {
            let request = format!("cold_query/{}", cycle * classes.len() + k);
            let (done, root, took) = tracer.span("cli.query", None, &request, || {
                program.query(snap, &class.query)
            });
            let judged = workloads::judge_child(done, class, &expected[k]);
            ledger
                .tally
                .check(judged.is_ok(), || format!("cold_query/{judged:?}"));
            per_class[k].push(took);

            let (snapshot, _, _) =
                tracer.span("store.open", Some(root), &request, || Snapshot::open(snap));
            let snapshot = snapshot.map_err(|e| format!("replay open: {e}"))?;
            let (engine, _, _) = tracer.span("engine.mount_snapshot", Some(root), &request, || {
                let mut engine = Engine::new();
                engine.mount_snapshot(&snapshot).map(|_| engine)
            });
            let mut engine = engine.map_err(|e| format!("replay mount: {e}"))?;
            let (answer, _, _) = tracer.span("engine.run", Some(root), &request, || {
                engine.run(&class.query).map(|r| r.as_xml())
            });
            ledger
                .tally
                .check(answer.as_deref() == Ok(expected[k].as_str()), || {
                    format!(
                        "cold_query/{}: replayed answer differs from the oracle",
                        class.name
                    )
                });
        }
    }
    for (class, samples) in classes.iter().zip(&per_class) {
        ledger.set_median(&format!("class.cold_query.{}.p50_us", class.name), samples);
    }
    Ok(())
}

/// `store.*`, `core.crc`, `xml.*` and `cli.*` micro-measurements over
/// the `xmark_m` snapshot.
fn trace_store(
    ledger: &mut Ledger,
    program: &Program,
    corpus: &Corpus,
    snap: &Path,
    dir: &Path,
    reps: usize,
) -> Result<(), String> {
    let bytes = std::fs::read(snap).map_err(|e| format!("read snapshot: {e}"))?;
    let mb = bytes.len() as f64 / 1e6;
    let open = || Snapshot::open(snap).expect("the snapshot opened a moment ago");
    ledger.set_median("store.open_us", &time_us(reps, open));
    let materialize: Vec<f64> = (0..reps)
        .map(|_| {
            let snapshot = open();
            time_us(1, || snapshot.to_layer_set().expect("layers materialize"))[0] / 1e3
        })
        .collect();
    ledger.set_median("store.materialize_ms", &materialize);
    ledger.set_exact(
        "store.materialize_mb_s",
        mb / (median(&materialize).unwrap_or(f64::NAN) / 1e3),
    );
    let verify: Vec<f64> = (0..reps)
        .map(|_| {
            let snapshot = open();
            time_us(1, || snapshot.verify().expect("a fresh snapshot verifies"))[0] / 1e3
        })
        .collect();
    ledger.set_median("store.verify_ms", &verify);
    let crc = time_us(reps, || crc32(&bytes));
    ledger.set_exact(
        "core.crc32_gb_s",
        bytes.len() as f64 / 1e9 / (median(&crc).unwrap_or(f64::NAN) / 1e6),
    );

    let set = open()
        .to_layer_set()
        .map_err(|e| format!("materialize: {e}"))?;
    let out = dir.join("saved.snap");
    let save: Vec<f64> = time_us(reps, || save_snapshot(&set, &out).expect("save_snapshot"))
        .iter()
        .map(|t| t / 1e3)
        .collect();
    ledger.set_median("store.save_snapshot_ms", &save);
    ledger.set_exact(
        "store.save_mb_s",
        mb / (median(&save).unwrap_or(f64::NAN) / 1e3),
    );
    ledger.set_exact(
        "stored_bytes_per_input_byte",
        bytes.len() as f64 / corpus.input_bytes() as f64,
    );

    let xml_mb = corpus.base_xml.len() as f64 / 1e6;
    let parse = time_us(reps, || {
        parse_document(&corpus.base_xml).expect("generated XML parses")
    });
    ledger.set_exact(
        "xml.parse_mb_s",
        xml_mb / (median(&parse).unwrap_or(f64::NAN) / 1e6),
    );
    let doc = parse_document(&corpus.base_xml).map_err(|e| format!("parse: {e}"))?;
    let serialize = time_us(reps, || {
        serialize_document(&doc, SerializeOptions::default())
    });
    ledger.set_exact(
        "xml.serialize_mb_s",
        xml_mb / (median(&serialize).unwrap_or(f64::NAN) / 1e6),
    );

    let help: Vec<f64> = (0..reps * 4)
        .map(|_| program.help().map(|done| done.wall_ms))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("--help: {e}"))?;
    ledger.set_median("cli.spawn_floor_ms", &help);
    let index_dir = dir.join("reindex");
    std::fs::create_dir_all(&index_dir).map_err(|e| format!("{}: {e}", index_dir.display()))?;
    let started = Instant::now();
    program.index(corpus, &index_dir)?;
    ledger.set_exact(
        "cli.index_mb_s",
        corpus.input_bytes() as f64 / 1e6 / started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// The sidecar text of a batch, as `parse_ops` reads it and the WAL
/// stores it.
fn ops_text(ops: &[DeltaOp]) -> String {
    let mut text = String::new();
    for op in ops {
        match op {
            DeltaOp::Insert {
                layer,
                name,
                start,
                end,
                attrs,
            } => {
                text.push_str(&format!("insert {layer} {name} {start} {end}"));
                for (k, v) in attrs {
                    text.push_str(&format!(" {k}={v}"));
                }
            }
            DeltaOp::Retract {
                layer,
                name,
                start,
                end,
            } => text.push_str(&format!("retract {layer} {name} {start} {end}")),
        }
        text.push('\n');
    }
    text
}

/// `store.wal`, `store.delta` and `xquery.overlay` measurements over
/// the `xmark_s` snapshot, replaying the op stream in-process.
fn trace_overlay(
    ledger: &mut Ledger,
    snap: &Path,
    dir: &Path,
    stream: &OpStream,
    reps: usize,
) -> Result<(), String> {
    // The journal alone: append + fsync of real batches.
    let wal_path = dir.join("replay.wal");
    let (mut wal, _) = DeltaWal::open(&wal_path).map_err(|e| format!("open WAL: {e}"))?;
    let empty = std::fs::metadata(&wal_path)
        .map_err(|e| format!("stat WAL: {e}"))?
        .len();
    let appends = reps * 10;
    let took = (0..appends)
        .map(|b| {
            let text = ops_text(&stream.batch(b));
            let started = Instant::now();
            wal.append(&text).map(|_| us(started.elapsed()))
        })
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("WAL append: {e}"))?;
    ledger.set_median("store.wal_append_us", &took);
    let grown = std::fs::metadata(&wal_path)
        .map_err(|e| format!("stat WAL: {e}"))?
        .len()
        - empty;
    ledger.set_exact("store.wal_bytes_per_batch", grown as f64 / appends as f64);

    // The state a checkpoint folds: the prefilled set plus one full
    // period of pending batches.
    let base = Snapshot::open(snap)
        .and_then(|s| s.to_layer_set())
        .map_err(|e| format!("mount: {e}"))?;
    let delta_of = |set: &LayerSet, ops: Vec<DeltaOp>| -> Result<DeltaSet, String> {
        let mut delta = DeltaSet::new();
        delta
            .apply_all(ops, set)
            .map_err(|e| format!("apply: {e}"))?;
        Ok(delta)
    };
    let prefilled =
        compact(&base, &delta_of(&base, stream.prefill())?).map_err(|e| format!("compact: {e}"))?;
    let batches = |n: usize| (0..n).flat_map(|b| stream.batch(b)).collect::<Vec<_>>();
    let period = delta_of(&prefilled, batches(CHECKPOINT_EVERY))?;
    let fold: Vec<f64> = time_us(reps, || compact(&prefilled, &period).expect("compact"))
        .iter()
        .map(|t| t / 1e3)
        .collect();
    ledger.set_median("store.compact_fold_ms", &fold);

    // The four reads mid-period, over the overlay and over its
    // compaction.
    let classes = Workload::AnnotateRw.classes();
    let mut engine = WritableEngine::mount_with_delta(
        prefilled.clone(),
        delta_of(&prefilled, batches(CHECKPOINT_EVERY / 2))?,
        EngineOptions::default(),
    )
    .map_err(|e| format!("mount overlay: {e}"))?;
    let reads_us = |engine: &WritableEngine| -> Result<f64, String> {
        let mut total = 0.0;
        for class in &classes {
            let mut session = engine.session();
            let took = (0..reps * 2)
                .map(|_| {
                    let started = Instant::now();
                    session.run(&class.query).map(|_| us(started.elapsed()))
                })
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| format!("overlay read {}: {e}", class.name))?;
            total += median(&took).unwrap_or(f64::NAN);
        }
        Ok(total)
    };
    let overlay = reads_us(&engine)?;
    engine.compact().map_err(|e| format!("compact: {e}"))?;
    let compacted = reads_us(&engine)?;
    ledger.set_exact("overlay.read_over_compacted_ratio", overlay / compacted);
    Ok(())
}

/// An engine over `set` under `strategy`. Cloning a layer set shares
/// its documents and indexes.
fn engine_over(set: &LayerSet, strategy: StandoffStrategy) -> Result<Engine, String> {
    let mut engine = Engine::with_options(EngineOptions {
        strategy,
        ..EngineOptions::default()
    });
    engine
        .mount_store(set.clone())
        .map_err(|e| format!("mount: {e}"))?;
    Ok(engine)
}

/// Median time of `query` on `engine` over `reps` runs, and its answer.
fn run_us(engine: &mut Engine, query: &str, reps: usize) -> Result<(f64, String), String> {
    let mut answer = String::new();
    let mut took = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let result = engine.run(query).map_err(|e| format!("{query}: {e}"))?;
        took.push(us(started.elapsed()));
        answer = result.as_xml();
    }
    Ok((median(&took).unwrap_or(f64::NAN), answer))
}

/// The paper's claim as tracked numbers, on base layers alone: cost
/// exponents of four operations over three corpus scales, and at
/// `xmark_m` Figure 6's ratios of the basic merge join and of the
/// XQuery-function form to the loop-lifted join. Basic and UDF are
/// reference paths, so none of this ever gates.
fn trace_paper(
    ledger: &mut Ledger,
    seed: u64,
    corpus_m: &Corpus,
    dir: &Path,
    sample: &Sample,
) -> Result<(), String> {
    let wide_node = r#"count(doc("xmark")//open_auction/select-wide::node())"#;
    let mut scales = vec![Scale::S, Scale::M];
    if sample.with_large {
        scales.push(Scale::L);
    }
    let shapes = ["q2_ll", "q2_basic", "wide_node", "materialize"];
    let mut points: [Vec<(f64, f64)>; 4] = Default::default();
    for scale in scales {
        let generated;
        let corpus = if scale == Scale::M {
            corpus_m
        } else {
            generated = Corpus::generate(seed, scale);
            &generated
        };
        let doc = parse_document(&corpus.base_xml).map_err(|e| format!("parse: {e}"))?;
        let set = LayerSet::build(URI, doc, StandoffConfig::default())
            .map_err(|e| format!("build: {e}"))?;
        let mut ll = engine_over(&set, StandoffStrategy::LoopLiftedMergeJoin)?;
        let mut basic = engine_over(&set, StandoffStrategy::BasicMergeJoin)?;
        let path = dir.join(format!("{}.base.snap", scale.name()));
        save_snapshot(&set, &path).map_err(|e| format!("save: {e}"))?;
        let materialize = time_us(sample.reps, || {
            Snapshot::open(&path)
                .and_then(|s| s.to_layer_set())
                .expect("materialize")
        });
        let q2 = XmarkQuery::Q2.standoff(URI);
        let times = [
            run_us(&mut ll, &q2, sample.reps)?.0,
            run_us(&mut basic, &q2, 1)?.0,
            run_us(&mut ll, wide_node, sample.reps)?.0,
            median(&materialize).unwrap_or(f64::NAN),
        ];
        for (points, t) in points.iter_mut().zip(times) {
            points.push((corpus.base_xml.len() as f64, t));
        }
        // Figure 6 at `xmark_m`; the smoke sample settles for `xmark_s`,
        // where the function form of Q2 takes 30 ms instead of 3 s.
        if scale
            != if sample.with_large {
                Scale::M
            } else {
                Scale::S
            }
        {
            continue;
        }
        for q in XmarkQuery::ALL {
            let id = q.id().to_lowercase();
            let (t_ll, a_ll) = run_us(&mut ll, &q.standoff(URI), sample.reps)?;
            let (t_basic, a_basic) = run_us(&mut basic, &q.standoff(URI), 1)?;
            // The function form is plain XQuery: the strategy never runs.
            let (t_udf, a_udf) = run_us(&mut ll, &q.standoff_udf_candidates(URI), 1)?;
            ledger.tally.check(a_ll == a_basic && a_ll == a_udf, || {
                format!("figure6 {id}: the three forms disagree")
            });
            ledger.set_exact(&format!("figure6.{id}.basic_over_ll"), t_basic / t_ll);
            ledger.set_exact(&format!("figure6.{id}.udf_over_ll"), t_udf / t_ll);
        }
    }
    for (shape, points) in shapes.iter().zip(&points) {
        ledger.set(
            &format!("shape.{shape}_exponent"),
            loglog_slope(points).map(Measured::exact),
        );
    }
    Ok(())
}

/// Compile-side costs over the eleven serve class texts.
fn trace_compile(
    ledger: &mut Ledger,
    point: &[Class],
    snap_s: &Path,
    scan: &[Class],
    snap_m: &Path,
    reps: usize,
) -> Result<(), String> {
    let shared_s = mounted_engine(snap_s)?.into_shared();
    let shared_m = mounted_engine(snap_m)?.into_shared();
    let parser = Engine::new();
    let (mut parse, mut compile_self) = (Vec::new(), Vec::new());
    for (classes, engine) in [(point, &shared_s), (scan, &shared_m)] {
        for class in classes {
            let p = median(&time_us(reps * 4, || parser.parse(&class.query))).unwrap_or(f64::NAN);
            let c = median(&time_us(reps * 4, || engine.compile(&class.query))).unwrap_or(f64::NAN);
            parse.push(p);
            compile_self.push(c - p);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ledger.set_exact("xquery.parse_us", mean(&parse));
    ledger.set_exact("xquery.compile_self_us", mean(&compile_self));

    // A cache at capacity: five texts cycling through two slots, so
    // every lookup misses, compiles and evicts.
    let cache = QueryCache::new(2);
    let mut miss = Vec::new();
    for _ in 0..reps * 2 {
        for class in point {
            let started = Instant::now();
            cache
                .get_or_compile(&class.query, &shared_s)
                .map_err(|e| format!("compile: {e}"))?;
            miss.push(us(started.elapsed()));
        }
    }
    if cache.hits() != 0 {
        return Err("the eviction loop hit the cache".into());
    }
    ledger.set_median("exec.plan_cache_miss_us", &miss);
    Ok(())
}

/// Single StandOff steps and one tree step on `xmark_m`.
fn trace_axes(ledger: &mut Ledger, snap_m: &Path, reps: usize) -> Result<(), String> {
    let mut engine = mounted_engine(snap_m)?;
    for axis in [
        "select-narrow",
        "select-wide",
        "reject-narrow",
        "reject-wide",
    ] {
        let query = format!(r#"count(doc("xmark")//open_auction/{axis}::bidder)"#);
        run_us(&mut engine, &query, 1)?;
        let (took, _) = run_us(&mut engine, &query, reps)?;
        ledger.set_exact(&format!("eval.axis.{}_us", axis.replace('-', "_")), took);
    }
    let tree = r#"count(doc("xmark")//item)"#;
    run_us(&mut engine, tree, 1)?;
    ledger.set_exact("eval.tree_step_us", run_us(&mut engine, tree, reps)?.0);
    Ok(())
}

/// Spans and ledger entries from the `annotate_rw` child's report.
fn trace_annotate(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    params: &Params,
    batches: usize,
) -> Result<(), String> {
    let spawned = tracer.epoch.elapsed();
    let outcome = workloads::annotate_rw(params, Limit::Batches(batches))?;
    for name in ["write_p50_ms", "write_p95_ms", "checkpoint_p50_ms"] {
        ledger.set(name, outcome.metric(name));
    }
    for class in &outcome.classes {
        ledger.set(
            &format!("class.annotate_rw.{}.p50_us", class.name),
            Some(Measured {
                value: class.p50_us,
                spread: None,
                samples: class.samples,
            }),
        );
    }
    let Some(report) = &outcome.writer_report else {
        return Err("annotate_rw kept no report".into());
    };
    let samples = |key: &str| report.get(key).map(Json::as_f64s).unwrap_or_default();
    let writes = samples("write_ms");
    let first_batch = report
        .get("first_batch")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as usize;
    let at = |position: usize| -> Vec<f64> {
        writes
            .iter()
            .enumerate()
            .filter(|(i, _)| (first_batch + i) % CHECKPOINT_EVERY == position)
            .map(|(_, &w)| w)
            .collect()
    };
    ledger.set_median("overlay.apply_cycle_first_ms", &at(0));
    ledger.set_median("overlay.apply_cycle_last_ms", &at(CHECKPOINT_EVERY - 1));

    // Spans: the child reports each cycle's offset from its `ready`
    // line and the durations of what ran inside it, back to back. The
    // child's clock is placed on the trace clock at the moment the
    // driver spawned the workload (set-up precedes `ready`).
    let starts = samples("cycle_start_ms");
    let reads: Vec<Vec<f64>> = report
        .get("read_ms")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(Json::as_f64s)
        .collect();
    let mut checkpoints = samples("checkpoint_ms").into_iter();
    for (i, (&start_ms, &write_ms)) in starts.iter().zip(&writes).enumerate() {
        let request = format!("annotate_rw/{i}");
        let mut clock = spawned + Duration::from_secs_f64(start_ms / 1e3);
        let mut children = vec![("overlay.apply", write_ms)];
        children.extend(
            reads
                .iter()
                .filter_map(|class| class.get(i))
                .map(|&r| ("overlay.read", r)),
        );
        if (first_batch + i + 1).is_multiple_of(CHECKPOINT_EVERY) {
            children.extend(checkpoints.next().map(|c| ("overlay.checkpoint", c)));
        }
        let total: f64 = children.iter().map(|(_, ms)| ms).sum();
        let root = tracer.record(
            "annotate.cycle",
            None,
            &request,
            clock,
            clock + Duration::from_secs_f64(total / 1e3),
        );
        for (name, ms) in children {
            let end = clock + Duration::from_secs_f64(ms / 1e3);
            tracer.record(name, Some(root), &request, clock, end);
            clock = end;
        }
    }
    ledger.tally.absorb(outcome.tally);
    Ok(())
}

/// Run the traced sample and build the ledger.
pub fn run(program: &Program, root: &Path, seed: u64, smoke: bool) -> Result<Ledger, String> {
    let sample = if smoke { &SMOKE } else { &FULL };
    let mut ledger = Ledger {
        values: catalog::per_layer()
            .into_iter()
            .map(|l| (l, None))
            .collect(),
        round_trip_us: Vec::new(),
        spans: Vec::new(),
        tally: Tally::default(),
    };
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let dir = WorkDir::create(root, "trace").map_err(|e| format!("work dir: {e}"))?;

    let corpus_s = Corpus::generate(seed, Scale::S);
    let corpus_m = Corpus::generate(seed, Scale::M);
    let (dir_s, dir_m) = (dir.path().join("s"), dir.path().join("m"));
    for d in [&dir_s, &dir_m] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let snap_s = program.index(&corpus_s, &dir_s)?;
    let snap_m = program.index(&corpus_m, &dir_m)?;
    let (point, scan) = (
        Workload::ServePoint.classes(),
        Workload::ServeScan.classes(),
    );
    let mut oracle_s = Oracle::new(&corpus_s)?;
    let mut oracle_m = Oracle::new(&corpus_m)?;
    let expected_point = oracle_s.answers(&point)?;
    let expected_call = oracle_s.answers(&Workload::CallOneshot.classes())?;
    let expected_scan = oracle_m.answers(&scan)?;
    let expected_cold = oracle_m.answers(&Workload::ColdQuery.classes())?;
    drop((oracle_s, oracle_m));

    // serve: the floor, then the two workloads stage by stage.
    let persistent_us = trace_serve_floor(&mut ledger, program, &snap_s, sample)?;
    let stages = trace_serve(
        &mut ledger,
        &mut tracer,
        program,
        Workload::ServePoint,
        &snap_s,
        &expected_point,
        sample.point_cycles,
    )?;
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let figure = |stage: &Stage| stage.per_request().value;
    ledger.set("exec.plan_cache_hit_us", Some(stages.lookup.per_request()));
    ledger.set("exec.session_new_us", Some(stages.session.per_request()));
    ledger.set_exact(
        "exec.governed_overhead_us",
        figure(&stages.governed)
            - figure(&stages.lookup)
            - figure(&stages.session)
            - figure(&stages.execute),
    );
    let scan_stages = trace_serve(
        &mut ledger,
        &mut tracer,
        program,
        Workload::ServeScan,
        &snap_m,
        &expected_scan,
        sample.scan_cycles,
    )?;
    let overhead = |s: &ServeStages| figure(&s.rtt) / figure(&s.rtt_untraced) - 1.0;
    ledger.set_exact(
        "trace.rtt_overhead_share",
        (overhead(&stages) + overhead(&scan_stages)) / 2.0,
    );

    // call_oneshot: the bundled client against a fresh server.
    {
        let server = program.serve(&snap_s)?;
        let class = &Workload::CallOneshot.classes()[0];
        let query = &class.query;
        program
            .call(&server.addr, query)
            .map_err(|e| format!("call warm-up: {e}"))?;
        let mut took = Vec::with_capacity(sample.calls);
        for i in 0..sample.calls {
            let (done, _, us) = tracer.span("cli.call", None, &format!("call_oneshot/{i}"), || {
                program.call(&server.addr, query)
            });
            let judged = workloads::judge_child(done, class, &expected_call[0]);
            ledger
                .tally
                .check(judged.is_ok(), || format!("call_oneshot/{judged:?}"));
            took.push(us);
        }
        ledger.set_median("class.call_oneshot.reserve_count.p50_us", &took);
        ledger.set_exact("cli.call_overhead_ms", (med(&took) - persistent_us) / 1e3);
        ledger.tally.check(server.shutdown(), || {
            "call server did not drain cleanly".to_string()
        });
    }

    trace_cold(
        &mut ledger,
        &mut tracer,
        program,
        &snap_m,
        &expected_cold,
        sample.cold_cycles,
    )?;
    let params = Params {
        program,
        root,
        seed,
        seconds: 0.0,
    };
    trace_annotate(&mut ledger, &mut tracer, &params, sample.annotate_batches)?;
    let stream = OpStream::new(seed, &corpus_s.tokens);
    trace_overlay(&mut ledger, &snap_s, dir.path(), &stream, sample.reps)?;
    if let (Some(write), Some(wal)) = (
        ledger.get("write_p50_ms"),
        ledger.get("store.wal_append_us"),
    ) {
        ledger.set_exact("overlay.apply_minus_wal_ms", write - wal / 1e3);
    }
    trace_compile(&mut ledger, &point, &snap_s, &scan, &snap_m, sample.reps)?;
    trace_axes(&mut ledger, &snap_m, sample.reps)?;
    trace_store(
        &mut ledger,
        program,
        &corpus_m,
        &snap_m,
        dir.path(),
        sample.reps,
    )?;
    trace_paper(&mut ledger, seed, &corpus_m, dir.path(), sample)?;

    ledger.spans = tracer.spans;
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff::store::parse_ops;

    /// The WAL stores batches in the sidecar text format; this module
    /// writes that text itself, so it must read back as the same ops.
    #[test]
    fn ops_text_round_trips_through_parse_ops() {
        let corpus = Corpus::generate(5, Scale::S);
        let batch = OpStream::new(5, &corpus.tokens).batch(3);
        assert_eq!(parse_ops(&ops_text(&batch)).unwrap(), batch);
    }

    #[test]
    fn summarize_reports_median_and_interquartile_spread() {
        let m = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(m.value, 3.0);
        assert_eq!(m.spread, Some(2.0 / 3.0));
        assert_eq!(m.samples, 5);
        assert_eq!(summarize(&[7.0]).unwrap().spread, None);
        assert!(summarize(&[]).is_none());
    }
}
