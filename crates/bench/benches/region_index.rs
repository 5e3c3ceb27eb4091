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
                    synthetic.dense_scan_candidates(cands, 0..n, &mut scratch, &mut out);
                    out.len()
                });
            },
        );
    }
    group.finish();

    // The candidate rule's calibration: every kernel forced over reaches
    // of 0.01 %, 1 %, 25 % and 100 % of a 50k-entry table, centred in it,
    // at C ∈ {64, 4 000, 50 000} candidates (half of them unannotated, so
    // no set covers the table and borrowing is off the table), next to
    // the entry point that chooses. The crossovers visible here are the
    // ones `candidate_kernel`'s costs must reproduce.
    let mut group = c.benchmark_group("region_index/reach");
    group.sample_size(50);
    {
        let n = 50_000usize;
        let pairs: Vec<(u32, standoff_core::Area)> = (0..n)
            .map(|k| {
                let s = k as i64 * 10;
                (2 * k as u32, standoff_core::Area::single(s, s + 8).unwrap())
            })
            .collect();
        let synthetic = standoff_core::RegionIndex::from_areas(&pairs);
        for reach_len in [5usize, 500, 12_500, 50_000] {
            let from = 10 * (n - reach_len) as i64 / 2;
            let reach = synthetic.reach(from, from + 10 * reach_len as i64 - 1);
            assert_eq!(reach.len(), reach_len);
            for count in [64u32, 4_000, 50_000] {
                let stride = 2 * n as u32 / count;
                let cands: Vec<u32> = (0..count).map(|k| k * stride + k % 2).collect();
                let id = |kernel: &str| format!("{kernel}/R{reach_len}/C{count}");
                let mut scratch = CandidateScratch::default();
                let mut out = Vec::new();
                group.bench_function(id("adaptive"), |b| {
                    b.iter(|| {
                        synthetic.candidates_in(Some(&cands), reach.clone(), &mut scratch, &mut out)
                    })
                });
                group.bench_function(id("gather"), |b| {
                    b.iter(|| synthetic.gather_candidates(&cands, reach.clone(), &mut out))
                });
                group.bench_function(id("scan"), |b| {
                    b.iter(|| {
                        synthetic.dense_scan_candidates(
                            &cands,
                            reach.clone(),
                            &mut scratch,
                            &mut out,
                        )
                    })
                });
                group.bench_function(id("probe"), |b| {
                    b.iter(|| synthetic.probe_candidates(&cands, reach.clone(), &scratch, &mut out))
                });
            }
        }
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
                index: &index,
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
                index: &index,
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
