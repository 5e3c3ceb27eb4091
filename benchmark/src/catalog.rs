//! The metric catalog: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` mirrors this file
//! (checked by a unit test), and `compare` judges by it.

use crate::classes::Workload;
use crate::json::Json;

/// Seconds one contract run measures (`run_seconds`), and the default
/// of `benchmark run`.
pub const RUN_SECONDS: f64 = 15.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline value by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Reported by the contract command (`--trace 0`) on every
    /// workload. The others exist on some workloads only, so the
    /// contract lists them beside the layer metrics and `run`/`compare`
    /// gate them.
    pub everywhere: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        everywhere,
    }
}

/// The ten end-to-end metrics. `failed_share` has the absolute bound 0:
/// any failure is a regression.
///
/// The relative bounds are as wide as the contract allows because this
/// box demands it: over two sets of ten 15 s runs with different seeds,
/// the interquartile range over the median reached 14.4 % for
/// `latency_p50_ms`, 17.0 % for `latency_p95_ms`, 13.7 % for
/// `throughput_ops_s` and 6.9 % for `peak_rss_mb` on the noisiest
/// workload, after CPU-speed normalization (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25, true),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25, true),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, true),
    e2e("write_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("write_p95_ms", "ms", Better::Lower, 0.25, false),
    e2e("checkpoint_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e(
        "stored_bytes_per_input_byte",
        "ratio",
        Better::Lower,
        0.01,
        false,
    ),
    e2e("failed_share", "ratio", Better::Lower, 0.0, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A layer-ledger entry. Layer metrics have no bound.
#[derive(Clone, Debug)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: impl Into<String>, unit: &'static str) -> Layer {
    let name = name.into();
    // Rates and hit shares improve upwards; every time, size, count
    // and ratio-to-a-faster-path improves downwards.
    let higher = ["_mb_s", "_gb_s", "hit_share"]
        .iter()
        .any(|s| name.contains(s));
    Layer {
        name,
        unit,
        better: if higher {
            Better::Higher
        } else {
            Better::Lower
        },
    }
}

/// Every per-layer metric name, in ledger order: the end-to-end metrics
/// that exist on one workload only, then the layers outside-in, the
/// paper reproduction, the nineteen classes, and the tracing overhead.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = END_TO_END
        .iter()
        .filter(|m| !m.everywhere && m.name != "failed_share")
        .map(|m| layer(m.name, m.unit))
        .collect();
    let fixed: &[(&str, &'static str)] = &[
        // serve
        ("serve.ping_rtt_us", "us"),
        ("serve.trivial_query_rtt_us", "us"),
        ("serve.stats_rtt_us", "us"),
        ("serve.connect_first_reply_ms", "ms"),
        ("serve.unattributed_us.serve_point", "us"),
        ("serve.unattributed_us.serve_scan", "us"),
        ("serve.bytes_out_per_req.serve_point", "B"),
        ("serve.bytes_out_per_req.serve_scan", "B"),
        // cli
        ("cli.spawn_floor_ms", "ms"),
        ("cli.index_mb_s", "MB/s"),
        ("cli.call_overhead_ms", "ms"),
        // xquery.parser, xquery.compile
        ("xquery.parse_us", "us"),
        ("xquery.compile_self_us", "us"),
        // xquery.exec
        ("exec.plan_cache_hit_us", "us"),
        ("exec.plan_cache_miss_us", "us"),
        ("exec.session_new_us", "us"),
        ("exec.governed_overhead_us", "us"),
        ("exec.plan_cache_hit_share.serve_point", "ratio"),
        // xquery.eval + algebra + core.index/core.join
        ("eval.execute_us.serve_point", "us"),
        ("eval.execute_us.serve_scan", "us"),
        ("eval.axis.select_narrow_us", "us"),
        ("eval.axis.select_wide_us", "us"),
        ("eval.axis.reject_narrow_us", "us"),
        ("eval.axis.reject_wide_us", "us"),
        ("eval.tree_step_us", "us"),
        (
            "counters.serve_scan.join.candidate_node_view_per_req",
            "count",
        ),
        (
            "counters.serve_scan.join.candidate_repr_dense_per_req",
            "count",
        ),
        ("counters.serve_scan.join.result_sorts_per_req", "count"),
        // xquery.result
        ("result.as_xml_us.serve_scan", "us"),
        ("result.rows_per_req.serve_scan", "count"),
        // store.mount + core.crc + xml columns
        ("store.open_us", "us"),
        ("store.materialize_ms", "ms"),
        ("store.materialize_mb_s", "MB/s"),
        ("store.verify_ms", "ms"),
        ("core.crc32_gb_s", "GB/s"),
        // store.snapshot
        ("store.save_snapshot_ms", "ms"),
        ("store.save_mb_s", "MB/s"),
        // store.wal
        ("store.wal_append_us", "us"),
        ("store.wal_bytes_per_batch", "B"),
        // store.delta + xquery.overlay
        ("store.compact_fold_ms", "ms"),
        ("overlay.apply_minus_wal_ms", "ms"),
        ("overlay.apply_cycle_first_ms", "ms"),
        ("overlay.apply_cycle_last_ms", "ms"),
        ("overlay.read_over_compacted_ratio", "ratio"),
        // xml.parser, xml.serialize
        ("xml.parse_mb_s", "MB/s"),
        ("xml.serialize_mb_s", "MB/s"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| layer(n, u)));
    // Paper reproduction (informational; never gates).
    for form in ["basic_over_ll", "udf_over_ll"] {
        for q in ["q1", "q2", "q6", "q7"] {
            out.push(layer(format!("figure6.{q}.{form}"), "ratio"));
        }
    }
    for shape in ["q2_ll", "q2_basic", "wide_node", "materialize"] {
        out.push(layer(format!("shape.{shape}_exponent"), "ratio"));
    }
    for workload in Workload::ALL {
        for class in workload.classes() {
            out.push(layer(
                format!("class.{}.{}.p50_us", workload.name(), class.name),
                "us",
            ));
        }
    }
    out.push(layer("trace.rtt_overhead_share", "ratio"));
    out
}

/// `BENCHMARK.json`, generated from this catalog (`benchmark contract`).
pub fn contract_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|&c| Json::str(c)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.everywhere)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(&l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventy_eight_layer_names_plus_the_single_workload_end_to_end_metrics() {
        let names = per_layer();
        assert_eq!(names.len(), 78 + 4);
        let mut unique: Vec<&str> = names.iter().map(|l| l.name.as_str()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    /// `BENCHMARK.json` is the contract other tools read; this file is
    /// what the program does. They must not drift.
    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            contract_json(),
            "regenerate with `benchmark contract > BENCHMARK.json`"
        );
    }
}
