//! `benchmark compare A.json B.json` — the noise-floor gate.
//!
//! One row per workload × end-to-end metric: both values, the delta in
//! the metric's "worse" direction, its bound, and a verdict. A metric
//! whose round-to-round spread (on either side) exceeds its bound
//! cannot resolve a change of bound size, so it is *unresolved* —
//! never silently *ok*.

use std::process::ExitCode;

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the pooled value and its spread.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread: Option<f64>,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better). `failed_share` is judged absolutely: its baseline is 0.
pub fn worsening(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if spec.bound == 0.0 {
        delta
    } else if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn judge(spec: &EndToEnd, a: Side, b: Side) -> Verdict {
    let worse = worsening(spec, a.value, b.value);
    if spec.bound == 0.0 {
        return if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let noisy = [a.spread, b.spread]
        .iter()
        .flatten()
        .any(|&s| s > spec.bound);
    match (worse > spec.bound, noisy) {
        (_, true) => Verdict::Unresolved,
        (true, false) => Verdict::Regressed,
        (false, false) => Verdict::Ok,
    }
}

fn side(report: &Json, workload: &str, metric: &str) -> Option<Side> {
    let node = report.path(&["workloads", workload, "metrics", metric])?;
    Some(Side {
        value: node.get("value")?.as_f64()?,
        spread: node.get("spread").and_then(Json::as_f64),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.path(&["env", "pinned"]).and_then(Json::as_bool) != Some(true) {
        return Err(format!("{path}: the run was not pinned; its numbers carry scheduler noise and are not comparable"));
    }
    Ok(report)
}

/// Compare two parsed `run` reports; returns the printed rows and
/// whether any metric regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let key = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
    for field in ["seed", "digest", "seconds_per_workload"] {
        if key(a, field) != key(b, field) {
            return Err(format!(
                "the reports differ in {field} ({} vs {}): not the same experiment",
                key(a, field).compact(),
                key(b, field).compact()
            ));
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first report has no workloads")?;
    let mut rows = vec![format!(
        "{:<13} {:<28} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    )];
    let mut regressed = false;
    for (workload, _) in workloads {
        for spec in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, workload, spec.name), side(b, workload, spec.name))
            else {
                continue;
            };
            let verdict = judge(spec, sa, sb);
            regressed |= verdict == Verdict::Regressed;
            rows.push(format!(
                "{workload:<13} {:<28} {:>12.4} {:>12.4} {:>+8.2}% {:>6.1}%  {}",
                spec.name,
                sa.value,
                sb.value,
                worsening(spec, sa.value, sb.value) * 100.0,
                spec.bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    Ok((rows, regressed))
}

pub fn main(a: &str, b: &str) -> Result<ExitCode, String> {
    let (rows, regressed) = compare(&load(a)?, &load(b)?)?;
    for row in rows {
        println!("{row}");
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn s(value: f64, spread: f64) -> Side {
        Side {
            value,
            spread: Some(spread),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_noise() {
        let p50 = end_to_end("latency_p50_ms").unwrap();
        let within = 1.0 + p50.bound * 0.5;
        let beyond = 1.0 + p50.bound * 2.0;
        assert_eq!(judge(p50, s(1.0, 0.01), s(within, 0.01)), Verdict::Ok);
        assert_eq!(
            judge(p50, s(1.0, 0.01), s(beyond, 0.01)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, s(1.0, 0.01), s(0.5, 0.01)),
            Verdict::Ok,
            "faster is fine"
        );
        // Either side noisier than the bound: nothing can be said.
        assert_eq!(
            judge(p50, s(1.0, p50.bound * 1.5), s(beyond, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, s(1.0, 0.01), s(1.0, p50.bound * 1.5)),
            Verdict::Unresolved
        );

        let rate = end_to_end("throughput_ops_s").unwrap();
        assert_eq!(
            judge(
                rate,
                s(100.0, 0.0),
                s(100.0 * (1.0 - rate.bound * 2.0), 0.0)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, s(100.0, 0.0), s(150.0, 0.0)),
            Verdict::Ok,
            "higher is better"
        );

        let failed = end_to_end("failed_share").unwrap();
        let exact = |value| Side {
            value,
            spread: None,
        };
        assert_eq!(judge(failed, exact(0.0), exact(0.0)), Verdict::Ok);
        assert_eq!(judge(failed, exact(0.0), exact(0.001)), Verdict::Regressed);
    }

    fn report(seed: f64, pinned: bool, p50: f64) -> Json {
        Json::obj([
            ("seed", Json::Num(seed)),
            ("digest", Json::str("abc")),
            ("seconds_per_workload", Json::Num(10.0)),
            ("env", Json::obj([("pinned", Json::Bool(pinned))])),
            (
                "workloads",
                Json::obj([(
                    "serve_point",
                    Json::obj([(
                        "metrics",
                        Json::obj([(
                            "latency_p50_ms",
                            Json::obj([("value", Json::Num(p50)), ("spread", Json::Num(0.001))]),
                        )]),
                    )]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_refuses_other_experiments() {
        let base = report(1.0, true, 0.2);
        let (rows, regressed) = compare(&base, &report(1.0, true, 0.2)).unwrap();
        assert!(!regressed);
        assert_eq!(rows.len(), 2, "header plus the one metric present");
        let (rows, regressed) = compare(&base, &report(1.0, true, 0.4)).unwrap();
        assert!(regressed);
        assert!(rows[1].contains("REGRESSED"));
        assert!(
            compare(&base, &report(2.0, true, 0.2)).is_err(),
            "other seed"
        );
    }

    #[test]
    fn unpinned_reports_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("standoff-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unpinned.json");
        std::fs::write(&path, report(1.0, false, 0.2).pretty()).unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not pinned"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
