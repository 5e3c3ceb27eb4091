//! Turning outcomes into the three things the benchmark prints: the
//! contract line (`--workload`), the `run` report, and its table.

use crate::catalog::{self, END_TO_END};
use crate::json::Json;
use crate::stats::{Measured, Tally};
use crate::sys::Env;
use crate::workloads::Outcome;

fn measured_json(m: &Measured, unit: &str, bound: Option<f64>) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::str(unit)),
        ("spread".to_string(), Json::opt(m.spread)),
        ("samples".to_string(), Json::Num(m.samples as f64)),
    ];
    pairs.extend(bound.map(|b| ("bound".to_string(), Json::Num(b))));
    Json::Obj(pairs)
}

/// Unit of an end-to-end metric, from the catalog.
fn unit_of(metric: &str) -> &'static str {
    catalog::end_to_end(metric).map_or("", |spec| spec.unit)
}

/// The last stdout line of the contract command: `correct`,
/// `attempted`, `failed` and the named metrics as `{value, unit}`.
pub fn contract_line(tally: &Tally, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

/// `--trace 0`: the end-to-end metrics every workload reports.
pub fn contract_end_to_end(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for spec in END_TO_END.iter().filter(|m| m.everywhere) {
        let measured = outcome
            .metric(spec.name)
            .ok_or_else(|| format!("{} did not produce {}", outcome.workload.name(), spec.name))?;
        metrics.push((
            spec.name.to_string(),
            Json::obj([
                ("value", Json::Num(measured.value)),
                ("unit", Json::str(spec.unit)),
            ]),
        ));
    }
    Ok(contract_line(&outcome.tally, metrics))
}

/// One workload's section of a `run` report.
pub fn workload_json(outcome: &Outcome) -> Json {
    let mut metrics: Vec<(String, Json)> = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            let bound = catalog::end_to_end(name).map(|spec| spec.bound);
            (name.to_string(), measured_json(m, unit_of(name), bound))
        })
        .collect();
    metrics.push((
        "failed_share".to_string(),
        measured_json(
            &Measured {
                value: outcome.tally.failed_share(),
                spread: None,
                samples: outcome.tally.attempted as usize,
            },
            "ratio",
            Some(0.0),
        ),
    ));
    Json::obj([
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("digest", Json::str(format!("{:08x}", outcome.digest))),
        // Times are at nominal CPU speed; multiply by this to get the
        // wall-clock the run actually saw (null: reported raw).
        ("cpu_slowdown", Json::opt(outcome.cpu_slowdown)),
        ("metrics", Json::Obj(metrics)),
        (
            "classes",
            Json::Obj(
                outcome
                    .classes
                    .iter()
                    .map(|c| {
                        (
                            c.name.to_string(),
                            Json::obj([
                                ("p50_us", Json::Num(c.p50_us)),
                                ("p99_us", Json::Num(c.p99_us)),
                                ("samples", Json::Num(c.samples as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(outcome.tally.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// The provenance block every report starts with.
pub fn header(mode: &str, env: &Env, seed: u64, seconds: f64, digest: u32) -> Vec<(String, Json)> {
    vec![
        (
            "benchmark".to_string(),
            Json::str("standoff socket-to-kernel"),
        ),
        ("mode".to_string(), Json::str(mode)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds_per_workload".to_string(), Json::Num(seconds)),
        ("digest".to_string(), Json::str(format!("{digest:08x}"))),
        ("env".to_string(), env.to_json()),
    ]
}

/// The whole-run digest: every workload's inputs, in order.
pub fn run_digest(outcomes: &[Outcome]) -> u32 {
    outcomes
        .iter()
        .fold(0, |acc, o| acc.rotate_left(7) ^ o.digest)
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

fn fmt_spread(spread: Option<f64>) -> String {
    spread.map_or_else(|| "exact".to_string(), |s| format!("±{:.1}%", s * 100.0))
}

/// The human-readable table of a `run`: every metric by name with its
/// unit, sample count and round-to-round spread.
pub fn print_table(outcomes: &[Outcome]) {
    for outcome in outcomes {
        println!(
            "\n{}  attempted {}  failed {}  failed_share {}  cpu_slowdown {}",
            outcome.workload.name(),
            outcome.tally.attempted,
            outcome.tally.failed,
            outcome.tally.failed_share(),
            outcome
                .cpu_slowdown
                .map_or_else(|| "n/a (raw)".to_string(), |s| format!("{s:.3}")),
        );
        for (name, m) in &outcome.metrics {
            println!(
                "  {name:<28} {:>12} {:<6} spread {:<8} n={}",
                fmt_value(m.value),
                unit_of(name),
                fmt_spread(m.spread),
                m.samples
            );
        }
        for class in &outcome.classes {
            println!(
                "  class {:<22} p50 {:>10} us   p99 {:>10} us   n={}",
                class.name,
                fmt_value(class.p50_us),
                fmt_value(class.p99_us),
                class.samples
            );
        }
        for note in &outcome.tally.notes {
            println!("  ! {note}");
        }
    }
}
