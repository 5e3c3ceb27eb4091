//! Region-index microbenchmarks (paper §4.3) and the candidate-pushdown
//! ablation (§3.3(iii)): index construction, candidate-sequence
//! intersection at varying selectivity, and the effect of pushdown on a
//! full join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_core::{
    evaluate_standoff_join, CandidateScratch, IterNode, JoinInput, RegionIndex, StandoffAxis,
    StandoffConfig, StandoffStrategy,
};
use standoff_xmark::{generate, standoffify, XmarkConfig};

fn region_index(c: &mut Criterion) {
    let src = generate(&XmarkConfig::with_scale(0.005));
    let so = standoffify(&src, 7);
    let config = StandoffConfig::default();

    c.bench_function("region_index/build", |b| {
        b.iter(|| RegionIndex::build(&so.doc, &config).unwrap());
    });

    let index = RegionIndex::build(&so.doc, &config).unwrap();

    // Candidate intersection at different selectivities: a rare element
    // (person: ~9% of nodes) vs a common wildcard-ish one.
    let mut group = c.benchmark_group("region_index/candidates_for");
    for name in ["person", "bidder", "incategory"] {
        let nodes = so.doc.elements_named(name).to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(name), &nodes, |b, nodes| {
            b.iter(|| index.candidates_for(nodes));
        });
    }
    group.finish();

    // Sparse-pushdown scaling: a fixed 64-candidate set against indexes
    // an order of magnitude apart in size. The node-view path must cost
    // (roughly) the same on both — candidate-count scaling — while the
    // forced scan kernel grows with the index. This is the
    // "no longer Θ(|index|)" acceptance measurement.
    let mut group = c.benchmark_group("region_index/sparse_scaling");
    for n in [10_000usize, 100_000] {
        let pairs: Vec<(u32, standoff_core::Area)> = (0..n)
            .map(|k| {
                let s = k as i64 * 10;
                (k as u32, standoff_core::Area::single(s, s + 8).unwrap())
            })
            .collect();
        let synthetic = standoff_core::RegionIndex::from_areas(&pairs);
        let sparse: Vec<u32> = (0..64u32).map(|k| k * (n as u32 / 64)).collect();
        group.bench_with_input(
            BenchmarkId::new("adaptive_64_cands", n),
            &sparse,
            |b, cands| {
                b.iter(|| synthetic.candidates_for(cands));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("forced_scan_64_cands", n),
            &sparse,
            |b, cands| {
                let mut scratch = CandidateScratch::default();
                let mut out = Vec::new();
                b.iter(|| {
                    synthetic.dense_scan_candidates(cands, &mut scratch, &mut out);
                    out.len()
                });
            },
        );
    }
    group.finish();

    // Regression guard for the overlay seam: a dense candidate set
    // pulled through a *pure* RegionSource must cost the same as the
    // raw-index scan — no per-entry retraction check may leak into the
    // snapshot-only path (the PR-7 regression). A source with
    // retractions is benched alongside so the post-pass cost stays an
    // explicit, separate number.
    let mut group = c.benchmark_group("region_index/dense_pure_source");
    {
        let pairs: Vec<(u32, standoff_core::Area)> = (0..50_000)
            .map(|k| {
                let s = k as i64 * 10;
                (k as u32, standoff_core::Area::single(s, s + 8).unwrap())
            })
            .collect();
        let synthetic = standoff_core::RegionIndex::from_areas(&pairs);
        let dense: Vec<u32> = (0..25_000u32).map(|k| k * 2).collect();
        let retracted: Vec<u32> = (0..250u32).map(|k| k * 200).collect();
        group.bench_function("candidates_dense_raw_index", |b| {
            let mut scratch = CandidateScratch::default();
            let mut out = Vec::new();
            b.iter(|| {
                synthetic.candidates_into(&dense, &mut scratch, &mut out);
                out.len()
            });
        });
        group.bench_function("candidates_dense_pure_source", |b| {
            let source = standoff_core::RegionSource::from_index(&synthetic);
            let mut scratch = CandidateScratch::default();
            let mut out = Vec::new();
            b.iter(|| {
                source.candidates_into(&dense, &mut scratch, &mut out);
                out.len()
            });
        });
        group.bench_function("candidates_dense_retracting_source", |b| {
            let source = standoff_core::RegionSource::with_retractions(&synthetic, &retracted);
            let mut scratch = CandidateScratch::default();
            let mut out = Vec::new();
            b.iter(|| {
                source.candidates_into(&dense, &mut scratch, &mut out);
                out.len()
            });
        });
    }
    group.finish();

    // Pushdown ablation: select-narrow from <open_auction> contexts to
    // <increase> candidates, with and without the candidate restriction.
    let auctions = so.doc.elements_named("open_auction").to_vec();
    let context: Vec<IterNode> = auctions
        .iter()
        .map(|&node| IterNode { iter: 0, node })
        .collect();
    let increases = so.doc.elements_named("increase").to_vec();
    let mut group = c.benchmark_group("pushdown_ablation");
    group.bench_function("with_candidates", |b| {
        b.iter(|| {
            let input = JoinInput {
                doc: &so.doc,
                index: (&index).into(),
                ctx_index: None,
                context: &context,
                candidates: Some(&increases),
                iter_domain: &[0],
            };
            evaluate_standoff_join(
                StandoffAxis::SelectNarrow,
                StandoffStrategy::LoopLiftedMergeJoin,
                &input,
                None,
            )
        });
    });
    group.bench_function("without_candidates", |b| {
        b.iter(|| {
            let input = JoinInput {
                doc: &so.doc,
                index: (&index).into(),
                ctx_index: None,
                context: &context,
                candidates: None,
                iter_domain: &[0],
            };
            evaluate_standoff_join(
                StandoffAxis::SelectNarrow,
                StandoffStrategy::LoopLiftedMergeJoin,
                &input,
                None,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, region_index);
criterion_main!(benches);
