//! `bench-report` — the in-process kernel harness.
//!
//! Times what cannot be seen from outside the process — the merge-join
//! kernel (`mergejoin/*`), candidate intersection at sparse and dense
//! selectivity (`region_index/*`) and the kernel crossover
//! (`dense_scaling/*`) — with quick criterion-style settings, and writes
//! a `group → median ns` JSON report. Everything a request or a CLI run
//! can observe (snapshot open/materialize/verify, WAL appends, overlay
//! reads, evaluation, the executor and the server) is measured with a
//! spread by the `benchmark/` package's ledger instead.
//!
//! ```text
//! bench-report [--out FILE] [--samples N] [--baseline FILE] [--tiny]
//! ```
//!
//! * `--out` (default `BENCH_report.json`): where the report is written.
//! * `--samples` (default 7): timed runs per group; the median is kept.
//! * `--baseline FILE`: embed a previous report's groups under
//!   `"baseline"`, making the file a self-contained before/after record.
//! * `--tiny`: CI smoke mode — 3 samples, same groups.

use std::fmt::Write as _;
use std::time::Instant;

use standoff_core::join::merge::ll_select_narrow;
use standoff_core::join::CtxEntry;
use standoff_core::{CandidateScratch, RegionEntry, RegionIndex};

struct Config {
    out: String,
    samples: usize,
    baseline: Option<String>,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_report.json".to_string(),
        samples: 7,
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
            "--baseline" => config.baseline = Some(value("--baseline")),
            "--tiny" => config.samples = 3,
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
    // The kernels forced over the whole of the same 50k-entry index at
    // several candidate densities, next to the entry point that chooses
    // among them. The crossover visible here is what calibrates
    // `candidate_kernel` at full reach — the adaptive row should track
    // the cheapest kernel row at every density (the reach-bounded
    // crossovers are `benches/region_index.rs`'s `reach` group).
    {
        let index = synthetic_index(50_000);
        let whole = 0..index.len();
        for count in [64usize, 1_000, 5_000, 25_000] {
            let stride = (50_000 / count) as u32;
            let cands: Vec<u32> = (0..count as u32).map(|k| k * stride).collect();
            let ns = median_ns(config.samples, || index.candidates_for(&cands));
            record(&format!("dense_scaling/adaptive_{count}"), ns);
            // Fresh buffers per run, like the allocating adaptive row.
            let ns = median_ns(config.samples, || {
                let (mut scratch, mut out) = (CandidateScratch::default(), Vec::new());
                index.dense_scan_candidates(&cands, whole.clone(), &mut scratch, &mut out);
                out
            });
            record(&format!("dense_scaling/dense_{count}"), ns);
            let ns = median_ns(config.samples, || {
                let mut out = Vec::new();
                index.gather_candidates(&cands, whole.clone(), &mut out);
                out
            });
            record(&format!("dense_scaling/gather_{count}"), ns);
            let ns = median_ns(config.samples, || {
                let (scratch, mut out) = (CandidateScratch::default(), Vec::new());
                index.probe_candidates(&cands, whole.clone(), &scratch, &mut out);
                out
            });
            record(&format!("dense_scaling/probe_{count}"), ns);
        }
        // Far more candidate elements than index entries (C ≫ E): the
        // probe's regime, where a scan would pay an O(C) bitset fill for
        // a one-block pass.
        let tiny = synthetic_index(64);
        let many: Vec<u32> = (0..50_000u32).collect();
        let ns = median_ns(config.samples, || tiny.candidates_for(&many));
        record("dense_scaling/oversubscribed_50k_cands_of_64", ns);
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
    let _ = writeln!(json, "  \"unit\": \"ns (median)\",");
    if let Some(kb) = peak_rss_kb {
        // Whole-process high-water mark — a coarse but honest peak-memory
        // note (covers every group above).
        let _ = writeln!(json, "  \"peak_rss_kb\": {kb},");
    }
    let _ = writeln!(json, "  \"groups\": {{");
    for (k, (name, ns)) in groups.iter().enumerate() {
        let comma = if k + 1 == groups.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ns}{comma}");
    }
    let _ = write!(json, "  }}");
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
