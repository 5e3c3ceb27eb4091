//! `bench-report` — the perf-trajectory harness.
//!
//! Runs a fixed set of representative measurements (merge-join kernel,
//! candidate intersection at sparse/dense selectivity, end-to-end
//! pushdown joins, batch execution, durability costs — WAL appends and
//! the v4 checksum tax) with quick criterion-style settings
//! and writes a `group → median ns` JSON report, so successive PRs leave
//! a comparable perf trail at the repo root (`BENCH_pr4.json`, …).
//!
//! ```text
//! bench-report [--out FILE] [--samples N] [--scale F]
//!              [--baseline FILE] [--tiny]
//! ```
//!
//! * `--out` (default `BENCH_report.json`): where the report is written.
//! * `--samples` (default 7): timed runs per group; the median is kept.
//! * `--scale` (default 0.005): XMark scale of the end-to-end corpus.
//! * `--baseline FILE`: embed a previous report's groups under
//!   `"baseline"`, making the file a self-contained before/after record.
//! * `--tiny`: CI smoke mode — minimal corpus, 3 samples, same groups.
//!
//! NB: the container this project is usually benched in has a single
//! CPU; thread-scaling groups report throughput, not speedup.

use std::fmt::Write as _;
use std::time::Instant;

use standoff_core::join::merge::ll_select_narrow;
use standoff_core::join::CtxEntry;
use standoff_core::obs::{MetricsRegistry, MetricsSnapshot};
use standoff_core::{
    evaluate_standoff_join, CandidateScratch, IterNode, JoinInput, RegionEntry, RegionIndex,
    StandoffAxis, StandoffStrategy,
};
use standoff_xmark::queries::XmarkQuery;
use standoff_xquery::{Executor, Governance, QueryError};

struct Config {
    out: String,
    samples: usize,
    scale: f64,
    baseline: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_report.json".to_string(),
        samples: 7,
        scale: 0.005,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--out" => config.out = value("--out"),
            "--samples" => config.samples = value("--samples").parse().expect("--samples: integer"),
            "--scale" => config.scale = value("--scale").parse().expect("--scale: number"),
            "--baseline" => config.baseline = Some(value("--baseline")),
            "--tiny" => {
                config.samples = 3;
                config.scale = 0.001;
            }
            other => panic!("unknown argument: {other} (see bench_report.rs)"),
        }
    }
    config
}

/// Median wall-clock nanoseconds of `samples` runs (one warm-up first).
fn median_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> u64 {
    std::hint::black_box(f());
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The synthetic merge-join workload of `benches/mergejoin.rs`.
fn kernel_workload(n_ctx: usize, iters: u32, n_cand: usize) -> (Vec<CtxEntry>, Vec<RegionEntry>) {
    let mut context = Vec::with_capacity(n_ctx);
    let mut x = 0i64;
    for k in 0..n_ctx {
        let depth = (k % 4) as i64;
        let base = (x - depth * 10).max(0);
        context.push(CtxEntry {
            iter: (k as u32) % iters,
            node: k as u32,
            start: base,
            end: base + 100 - depth * 20,
        });
        if k % 4 == 3 {
            x += 37;
        }
    }
    context.sort_by_key(|c| (c.start, c.end, c.iter));
    let mut candidates = Vec::with_capacity(n_cand);
    for k in 0..n_cand {
        let start = (k as i64 * 13) % (x + 200);
        candidates.push(RegionEntry {
            start,
            end: start + (k as i64 % 40),
            id: k as u32,
        });
    }
    candidates.sort_by_key(|e| (e.start, e.end));
    (context, candidates)
}

/// A synthetic region index of `n` single-region annotations.
fn synthetic_index(n: usize) -> RegionIndex {
    let pairs: Vec<(u32, standoff_core::Area)> = (0..n)
        .map(|k| {
            let start = (k as i64) * 10;
            (
                k as u32,
                standoff_core::Area::single(start, start + 8).unwrap(),
            )
        })
        .collect();
    RegionIndex::from_areas(&pairs)
}

fn main() {
    let config = parse_args();
    let mut groups: Vec<(String, u64)> = Vec::new();
    let metrics: MetricsSnapshot;
    let mut record = |name: &str, ns: u64| {
        println!("bench-report: {name:<44} {ns:>12} ns (median)");
        groups.push((name.to_string(), ns));
    };

    // ---- merge-join kernel (benches/mergejoin.rs territory) ----
    {
        let (context, candidates) = kernel_workload(2048, 64, 8192);
        let ns = median_ns(config.samples, || {
            ll_select_narrow(&context, &candidates, false, None)
        });
        record("mergejoin/ll_select_narrow", ns);
    }

    // ---- candidate intersection (benches/region_index.rs territory) ----
    {
        let index = synthetic_index(50_000);
        // Sparse: 64 candidates out of 50k entries — must scale with the
        // candidate count, not the index size.
        let sparse: Vec<u32> = (0..64u32).map(|k| k * 700).collect();
        let ns = median_ns(config.samples, || index.candidates_for(&sparse));
        record("region_index/candidates_sparse_64_of_50k", ns);
        // Dense: every other annotation — the scan path's home turf.
        let dense: Vec<u32> = (0..25_000u32).map(|k| k * 2).collect();
        let ns = median_ns(config.samples, || index.candidates_for(&dense));
        record("region_index/candidates_dense_25k_of_50k", ns);
    }

    // ---- kernel crossover (dense_scaling) ----
    // Both kernels forced over the same 50k-entry index at several
    // candidate densities, next to the entry point that chooses between
    // them. The crossover visible here is what calibrates
    // `node_view_preferred` — the adaptive row should track the cheaper
    // kernel row at every density.
    {
        let index = synthetic_index(50_000);
        for count in [64usize, 1_000, 5_000, 25_000] {
            let stride = (50_000 / count) as u32;
            let cands: Vec<u32> = (0..count as u32).map(|k| k * stride).collect();
            let ns = median_ns(config.samples, || index.candidates_for(&cands));
            record(&format!("dense_scaling/adaptive_{count}"), ns);
            let ns = median_ns(config.samples, || {
                let mut out = Vec::new();
                index.dense_scan_candidates(&cands, &mut CandidateScratch::default(), &mut out);
                out
            });
            record(&format!("dense_scaling/dense_{count}"), ns);
            let ns = median_ns(config.samples, || {
                let mut out = Vec::new();
                index.gather_candidates(&cands, &mut out);
                out
            });
            record(&format!("dense_scaling/gather_{count}"), ns);
        }
        // The one regime the deleted sparse-list scan used to take:
        // far more candidate elements than index entries (C ≫ E), where
        // the scan now pays an O(C) bitset fill for a one-block pass.
        let tiny = synthetic_index(64);
        let many: Vec<u32> = (0..50_000u32).collect();
        let ns = median_ns(config.samples, || tiny.candidates_for(&many));
        record("dense_scaling/oversubscribed_50k_cands_of_64", ns);
    }

    // ---- raw join with sparse pushdown (core, no query layers) ----
    {
        let doc = standoff_xml::parse_document("<d/>").unwrap();
        let index = synthetic_index(50_000);
        let sparse: Vec<u32> = (0..64u32).map(|k| k * 700).collect();
        let context: Vec<IterNode> = (0..64u32)
            .map(|k| IterNode {
                iter: k,
                node: k * 650,
            })
            .collect();
        let iter_domain: Vec<u32> = (0..64).collect();
        let ns = median_ns(config.samples, || {
            let input = JoinInput {
                doc: &doc,
                index: (&index).into(),
                ctx_index: None,
                context: &context,
                candidates: Some(&sparse),
                iter_domain: &iter_domain,
            };
            evaluate_standoff_join(
                StandoffAxis::SelectNarrow,
                StandoffStrategy::LoopLiftedMergeJoin,
                &input,
                None,
            )
        });
        record("join/select_narrow_sparse_pushdown", ns);
    }

    // ---- snapshot mount (the SOSN v3 zero-copy story) ----
    {
        use standoff_store::{write_snapshot, write_snapshot_legacy, LayerSet, Snapshot};
        let so = standoff_xmark::standoffify(
            &standoff_xmark::generate(&standoff_xmark::XmarkConfig::with_scale(config.scale)),
            7,
        );
        let xml = standoff_xml::serialize_document(&so.doc, Default::default());
        // Base plus two shadow sibling layers: multi-layer mount costs
        // (and the lazy win of not touching siblings) are visible.
        let cfg = standoff_core::StandoffConfig::default();
        let mut set = LayerSet::build("xmark-standoff.xml", so.doc, cfg.clone()).unwrap();
        for name in ["shadow1", "shadow2"] {
            let doc = standoff_xml::parse_document(&xml).unwrap();
            set.add_layer(name, doc, cfg.clone()).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v3_path = dir.join("corpus_v3.snap");
        let v1_path = dir.join("corpus_v1.snap");
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        std::fs::write(&v3_path, &buf).unwrap();
        buf.clear();
        write_snapshot_legacy(&set, &mut buf).unwrap();
        std::fs::write(&v1_path, &buf).unwrap();

        // Legacy eager decode — the pre-v3 cold-start baseline.
        let ns = median_ns(config.samples, || {
            Snapshot::open(&v1_path).unwrap().to_layer_set().unwrap()
        });
        record("snapshot/mount_cold_v2", ns);
        // v3 cold mount: I/O + section walk + zero-copy views +
        // validation, all layers materialized.
        let ns = median_ns(config.samples, || {
            Snapshot::open(&v3_path).unwrap().to_layer_set().unwrap()
        });
        record("snapshot/mount_cold", ns);
        // Lazy mount + first query: only the base layer is realized —
        // the shadow siblings are never touched.
        let ns = median_ns(config.samples, || {
            let snapshot = Snapshot::open(&v3_path).unwrap();
            let base = snapshot.layer("base").unwrap();
            let set = LayerSet::from_layers(snapshot.uri(), vec![(*base).clone()]).unwrap();
            let mut engine = standoff_xquery::Engine::new();
            engine.mount_store(set).unwrap();
            engine
                .run(r#"count(doc("xmark-standoff.xml")//item)"#)
                .unwrap()
                .len()
        });
        record("snapshot/mount_lazy_first_query", ns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- writable overlay: merge-on-read overhead ----
    {
        use standoff_store::{DeltaOp, DeltaSet, LayerSet};
        // A base text plus one annotation layer, sized with the corpus
        // scale; the delta mutates 1/16 of it (inserts + retracts).
        let n = ((400_000.0 * config.scale) as usize).max(500);
        let cfg = standoff_core::StandoffConfig::default();
        let mut xml = String::from("<tokens>");
        for k in 0..n {
            let s = k as i64 * 10;
            let _ = write!(xml, r#"<w n="{k}" start="{s}" end="{}"/>"#, s + 8);
        }
        xml.push_str("</tokens>");
        let mut set = LayerSet::build(
            "bench://overlay",
            standoff_xml::parse_document("<text>overlay bench corpus</text>").unwrap(),
            cfg.clone(),
        )
        .unwrap();
        set.add_layer("tokens", standoff_xml::parse_document(&xml).unwrap(), cfg)
            .unwrap();
        let ops: Vec<DeltaOp> = (0..n / 16)
            .flat_map(|k| {
                let s = (k as i64 * 160) + 3;
                [
                    DeltaOp::Insert {
                        layer: "tokens".into(),
                        name: "w".into(),
                        start: s,
                        end: s + 4,
                        attrs: vec![("d".into(), k.to_string())],
                    },
                    DeltaOp::Retract {
                        layer: "tokens".into(),
                        name: "w".into(),
                        start: k as i64 * 160,
                        end: k as i64 * 160 + 8,
                    },
                ]
            })
            .collect();
        let mut delta = DeltaSet::new();
        delta.apply_all(ops, &set).unwrap();

        let probe = r#"count(doc("bench://overlay#tokens")//w/select-wide::w)"#;
        // Pure snapshot: the no-delta regression guard — this path must
        // not pay for the overlay machinery it isn't using.
        let mut pure = standoff_xquery::Engine::new();
        pure.mount_store(set.clone()).unwrap();
        let ns = median_ns(config.samples, || pure.run_and_discard(probe).unwrap());
        record("delta_overlay/join_pure_snapshot", ns);
        // Merge-on-read: same query through base + delta.
        let mut overlay = standoff_xquery::Engine::new();
        overlay.mount_overlay(set.clone(), &delta).unwrap();
        let ns = median_ns(config.samples, || overlay.run_and_discard(probe).unwrap());
        record("delta_overlay/join_merge_on_read", ns);
        // Writer-side costs (one apply batch, one compaction fold) are
        // the benchmark ledger's `write_p50_ms` / `store.compact_fold_ms`.
    }

    // ---- durability: WAL appends and the v4 checksum tax ----
    // The fsync per committed batch is the price of SIGKILL-safe deltas;
    // the nosync row isolates it from the encode-and-write cost. The
    // mount rows bound the checksum tax: a lazy open only CRCs the small
    // header sections, full materialization pays per column, and
    // `verify` is the eager fsck sweep over every section.
    {
        use standoff_store::{
            ops_to_text, write_snapshot, write_snapshot_unchecksummed, DeltaOp, DeltaWal, LayerSet,
            Snapshot,
        };
        let dir = std::env::temp_dir().join(format!("bench-durability-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A representative 32-op batch, journaled whole per append.
        let ops: Vec<DeltaOp> = (0..16)
            .flat_map(|k| {
                let s = k as i64 * 40;
                [
                    DeltaOp::Insert {
                        layer: "tokens".into(),
                        name: "w".into(),
                        start: s,
                        end: s + 8,
                        attrs: vec![("d".into(), k.to_string())],
                    },
                    DeltaOp::Retract {
                        layer: "tokens".into(),
                        name: "w".into(),
                        start: s + 10,
                        end: s + 18,
                    },
                ]
            })
            .collect();
        let batch = ops_to_text(&ops);
        for (sync, name) in [
            (true, "durability/wal_append_fsync"),
            (false, "durability/wal_append_nosync"),
        ] {
            let path = dir.join(if sync { "sync.wal" } else { "nosync.wal" });
            let (mut wal, _) = DeltaWal::open(&path).unwrap();
            wal.set_sync(sync);
            let ns = median_ns(config.samples, || wal.append(&batch).unwrap());
            record(name, ns);
        }

        let so = standoff_xmark::standoffify(
            &standoff_xmark::generate(&standoff_xmark::XmarkConfig::with_scale(config.scale)),
            7,
        );
        let cfg = standoff_core::StandoffConfig::default();
        let set = LayerSet::build("xmark-standoff.xml", so.doc, cfg).unwrap();
        let checked = dir.join("checked.snap");
        let unchecked = dir.join("unchecked.snap");
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        std::fs::write(&checked, &buf).unwrap();
        buf.clear();
        write_snapshot_unchecksummed(&set, &mut buf).unwrap();
        std::fs::write(&unchecked, &buf).unwrap();

        let ns = median_ns(config.samples, || {
            Snapshot::open(&checked).unwrap().to_layer_set().unwrap()
        });
        record("durability/mount_checksummed", ns);
        let ns = median_ns(config.samples, || {
            Snapshot::open(&unchecked).unwrap().to_layer_set().unwrap()
        });
        record("durability/mount_unchecksummed", ns);
        let ns = median_ns(config.samples, || Snapshot::open(&checked).unwrap());
        record("durability/open_lazy_checksummed", ns);
        let ns = median_ns(config.samples, || {
            Snapshot::open_verified(&checked)
                .unwrap()
                .1
                .sections_checked
        });
        record("durability/verify", ns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- end-to-end engine measurements over an XMark corpus ----
    {
        let mut w = standoff_bench::prepare_workload(config.scale);
        let q2 = XmarkQuery::Q2.standoff(standoff_bench::SO_URI);
        let ns = median_ns(config.samples, || w.engine.run_and_discard(&q2).unwrap());
        record("eval/xmark_q2_standoff_ll", ns);

        // A sparse-pushdown step: few contexts, rare candidate name.
        let sparse = format!(
            r#"count(doc("{}")//open_auction/select-narrow::reserve)"#,
            standoff_bench::SO_URI
        );
        let ns = median_ns(config.samples, || {
            w.engine.run_and_discard(&sparse).unwrap()
        });
        record("eval/select_narrow_sparse_pushdown", ns);

        // A no-pushdown step: the join consumes the *full* region index
        // as its candidate sequence — the shape that used to copy the
        // whole entries table per operator.
        let wide = format!(
            r#"count(doc("{}")//open_auction/select-wide::node())"#,
            standoff_bench::SO_URI
        );
        let ns = median_ns(config.samples, || w.engine.run_and_discard(&wide).unwrap());
        record("eval/select_wide_no_pushdown", ns);

        // Q2 under the basic (per-iteration) strategy: re-derives its
        // candidate sequence every iteration, so per-derivation overhead
        // multiplies.
        w.engine.set_strategy(StandoffStrategy::BasicMergeJoin);
        let ns = median_ns(config.samples, || w.engine.run_and_discard(&q2).unwrap());
        record("eval/xmark_q2_standoff_basic", ns);
        w.engine.set_strategy(StandoffStrategy::LoopLiftedMergeJoin);

        // Batch executor, warm plan cache (single CPU: throughput only).
        let batch: Vec<String> = (0..16).map(|_| q2.clone()).collect();
        let shared = w.engine.into_shared();
        let exec = Executor::new(shared.clone(), 2);
        exec.run_batch(&batch[..1]); // warm the plan cache
        let ns = median_ns(config.samples, || exec.run_batch(&batch));
        record("batch/q2_x16_warm_cache", ns);

        // ---- serve: governed executor under concurrent clients ----
        // The service path minus the sockets: 4 client threads driving
        // `run_governed` against a governed executor, swept across
        // admission queue caps. A narrow cap trades completed work for
        // sheds (shed requests are counted, not timed); the sustained
        // figure is wall-clock per *successful* query, and p50/p99 are
        // the successful requests' queue-wait + evaluation latency.
        {
            const CLIENTS: usize = 4;
            const REQUESTS_PER_CLIENT: usize = 64;
            for cap in [1usize, 16, 64] {
                let exec = std::sync::Arc::new(Executor::governed(
                    shared.clone(),
                    2,
                    Governance {
                        queue_cap: Some(cap),
                        ..Governance::default()
                    },
                ));
                exec.run_governed(&sparse).unwrap(); // warm the plan cache
                let started = Instant::now();
                let mut latencies: Vec<u64> = Vec::new();
                let mut sheds = 0u64;
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..CLIENTS)
                        .map(|_| {
                            let exec = std::sync::Arc::clone(&exec);
                            let sparse = &sparse;
                            scope.spawn(move || {
                                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                                let mut sheds = 0u64;
                                for _ in 0..REQUESTS_PER_CLIENT {
                                    let t = Instant::now();
                                    match exec.run_governed(sparse) {
                                        Ok(_) => latencies.push(t.elapsed().as_nanos() as u64),
                                        Err(QueryError::Overloaded(_)) => sheds += 1,
                                        Err(e) => panic!("serve bench query failed: {e}"),
                                    }
                                }
                                (latencies, sheds)
                            })
                        })
                        .collect();
                    for worker in workers {
                        let (l, s) = worker.join().unwrap();
                        latencies.extend(l);
                        sheds += s;
                    }
                });
                let total_ns = started.elapsed().as_nanos() as u64;
                latencies.sort_unstable();
                let ok = latencies.len().max(1) as u64;
                println!(
                    "bench-report: serve qcap={cap}: {} ok / {sheds} shed",
                    latencies.len()
                );
                record(
                    &format!("serve/qcap_{cap}_sustained_ns_per_query"),
                    total_ns / ok,
                );
                record(
                    &format!("serve/qcap_{cap}_p50"),
                    latencies.get(latencies.len() / 2).copied().unwrap_or(0),
                );
                record(
                    &format!("serve/qcap_{cap}_p99"),
                    latencies
                        .get(latencies.len() * 99 / 100)
                        .copied()
                        .unwrap_or(0),
                );
            }
        }

        // Observability snapshot for the run as a whole: the engine-side
        // registry (queries, joins, plan cache, executor queues) merged
        // with the process-global one (store mount/materialize timings).
        let mut snap = exec.metrics_snapshot();
        snap.merge(&MetricsRegistry::global().snapshot());
        metrics = snap;
    }

    // ---- render ----
    let peak_rss_kb = peak_rss_kb();
    if let Some(kb) = peak_rss_kb {
        println!("bench-report: peak RSS {kb} kB (VmHWM, whole process)");
    }
    let baseline = config.baseline.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"))
    });
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"harness\": \"bench-report\",");
    let _ = writeln!(json, "  \"samples\": {},", config.samples);
    let _ = writeln!(json, "  \"scale\": {},", config.scale);
    let _ = writeln!(json, "  \"unit\": \"ns (median)\",");
    if let Some(kb) = peak_rss_kb {
        // Whole-process high-water mark — a coarse but honest peak-memory
        // note (covers corpus generation and every group above).
        let _ = writeln!(json, "  \"peak_rss_kb\": {kb},");
    }
    let _ = writeln!(json, "  \"groups\": {{");
    for (k, (name, ns)) in groups.iter().enumerate() {
        let comma = if k + 1 == groups.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ns}{comma}");
    }
    let _ = write!(json, "  }}");
    {
        // Re-indent the snapshot's own pretty-printing to nest under the
        // report object.
        let nested = metrics.to_json().replace('\n', "\n  ");
        let _ = write!(json, ",\n  \"metrics\": {nested}");
    }
    if let Some(base) = baseline {
        // Embed the previous report's groups verbatim as the baseline.
        let groups_obj = extract_groups_object(&base)
            .unwrap_or_else(|| panic!("baseline file has no \"groups\" object"));
        let _ = write!(json, ",\n  \"baseline\": {groups_obj}");
    }
    json.push_str("\n}\n");
    std::fs::write(&config.out, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", config.out));
    println!("bench-report: wrote {}", config.out);
}

/// The process's peak resident set size in kB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Pull the `"groups": { ... }` object out of a previous report without
/// a JSON dependency — the harness writes it, so the shape is known.
fn extract_groups_object(json: &str) -> Option<String> {
    let key = "\"groups\":";
    let at = json.find(key)?;
    let open = json[at..].find('{')? + at;
    let mut depth = 0usize;
    for (k, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + k].to_string());
                }
            }
            _ => {}
        }
    }
    None
}
