//! Region-index microbenchmarks (paper §4.3) and the candidate-pushdown
//! ablation (§3.3(iii)): index construction, candidate-sequence
//! intersection at varying selectivity, a name's posting against the
//! per-join gather it replaces, and the effect of pushdown on a full
//! join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_core::join::join_resolved;
use standoff_core::{
    IterNode, JoinScratch, JoinTarget, RegionIndex, RowBuf, StandoffAxis, StandoffConfig,
    StandoffStrategy,
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

    // Candidate intersection over the whole table at different
    // selectivities: a rare element (person: ~9% of nodes) vs a common
    // wildcard-ish one.
    let mut group = c.benchmark_group("region_index/gather_all");
    let mut out = RowBuf::default();
    for name in ["person", "bidder", "incategory"] {
        let nodes = so.doc.elements_named(name).to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(name), &nodes, |b, nodes| {
            b.iter(|| {
                index.gather_candidates(nodes, 0..index.len(), &mut out);
                out.rows().len()
            });
        });
    }
    group.finish();

    // Sparse-pushdown scaling: a fixed 64-candidate set against indexes
    // an order of magnitude apart in size. The node-view gather must
    // cost (roughly) the same on both — candidate-count scaling, not
    // Θ(|index|).
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
            BenchmarkId::new("gather_64_cands", n),
            &sparse,
            |b, cands| {
                b.iter(|| {
                    synthetic.gather_candidates(cands, 0..synthetic.len(), &mut out);
                    out.rows().len()
                });
            },
        );
    }
    group.finish();

    // What a join over a pushed name pays for its candidates inside a
    // reach of a tenth of the table: the node-view gather every join
    // paid before postings (and an explicit candidate sequence still
    // pays), against the cached posting's two partition points.
    let mut group = c.benchmark_group("region_index/posting");
    let (from, to) = {
        let rows = index.table().rows;
        (rows.start(rows.len() * 4 / 10), rows.start(rows.len() / 2))
    };
    let reach = index.table().reach(from, to);
    for name in ["person", "bidder", "incategory"] {
        let id = so.doc.names().get(name).unwrap();
        let nodes = so.doc.elements_named(name);
        let mut out = RowBuf::default();
        group.bench_function(format!("gather/{name}"), |b| {
            b.iter(|| {
                index.gather_candidates(nodes, reach.clone(), &mut out);
                out.rows().len()
            })
        });
        group.bench_function(format!("posting/{name}"), |b| {
            b.iter(|| {
                let posting = index.posting(&so.doc, id, None).unwrap().unwrap();
                posting.table.reach(from, to).len()
            })
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
    let (axis, strategy) = (
        StandoffAxis::SelectNarrow,
        StandoffStrategy::LoopLiftedMergeJoin,
    );
    let mut scratch = JoinScratch::default();
    for (label, candidates) in [
        ("with_candidates", Some(&increases[..])),
        ("without_candidates", None),
    ] {
        let target = JoinTarget {
            doc: &so.doc,
            index: &index,
            candidates,
            posting: None,
            iter_domain: &[0],
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                scratch.resolve_context([(&index, &context[..])]);
                join_resolved(axis, strategy, &target, None, None, &mut scratch)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, region_index);
criterion_main!(benches);
