//! Criterion form of the Figure 6 sweep: XMark Q1/Q2/Q6/Q7 under the
//! paper's variant columns at two document sizes, per-cell times for
//! regression tracking. The sweep's shape is asserted on work counters
//! by `tests/paper_shapes.rs`; its ratios are `figure6.*` rows of the
//! `benchmark/` ledger. Each cell times the plan of
//! [`standoff_bench::figure6_plan`], which keeps the join under `count`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_bench::{figure6_plan, prepare_workload, Figure6Variant, SO_URI};
use standoff_xmark::queries::XmarkQuery;

fn figure6(c: &mut Criterion) {
    // Two sizes keep `cargo bench` under a few minutes.
    for scale in [0.001, 0.005] {
        let mut w = prepare_workload(scale);
        let mb = w.standard_bytes as f64 / 1e6;
        let mut group = c.benchmark_group(format!("figure6/{mb:.2}MB"));
        group.sample_size(10);
        for query in XmarkQuery::ALL {
            for variant in [
                Figure6Variant::UdfWithCandidates,
                Figure6Variant::BasicMergeJoin,
                Figure6Variant::LoopLifted,
            ] {
                // The quadratic UDF at the larger size on the loop-heavy
                // queries costs minutes per criterion cell; the growth
                // it shows is the shape test's nested-loop slope.
                if variant == Figure6Variant::UdfWithCandidates
                    && scale > 0.002
                    && matches!(query, XmarkQuery::Q2 | XmarkQuery::Q7)
                {
                    continue;
                }
                w.engine.set_strategy(variant.strategy());
                let plan = figure6_plan(&w.engine, &variant.query_text(query, SO_URI)).unwrap();
                let label = match variant {
                    Figure6Variant::UdfNoCandidates => "udf-no-candidates",
                    Figure6Variant::UdfWithCandidates => "udf-candidates",
                    Figure6Variant::BasicMergeJoin => "basic-mergejoin",
                    Figure6Variant::LoopLifted => "loop-lifted",
                };
                group.bench_function(BenchmarkId::new(query.id(), label), |b| {
                    b.iter(|| w.engine.execute_and_discard(&plan).unwrap());
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, figure6);
criterion_main!(benches);
