//! Criterion form of the §4.6 claim: loop-lifted `select-narrow` vs the
//! loop-lifted `descendant` Staircase Join (paper: select-narrow is less
//! than 20% slower), on the same logical queries and at operator level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_algebra::{staircase, NodeTable, NodeTest, TreeAxis};
use standoff_bench::{prepare_workload, SO_URI, STD_URI};
use standoff_core::{
    evaluate_standoff_join, IterNode, JoinInput, RegionIndex, StandoffAxis, StandoffConfig,
    StandoffStrategy,
};
use standoff_xmark::queries::XmarkQuery;
use standoff_xml::NodeRef;

fn staircase_vs_standoff(c: &mut Criterion) {
    let mut w = prepare_workload(0.005);
    w.engine.set_strategy(StandoffStrategy::LoopLiftedMergeJoin);
    let mut group = c.benchmark_group("staircase_vs_standoff");
    group.sample_size(10);
    for query in XmarkQuery::ALL {
        let std_q = query.standard(STD_URI);
        group.bench_function(BenchmarkId::new(query.id(), "descendant-staircase"), |b| {
            b.iter(|| w.engine.run_and_discard(&std_q).unwrap());
        });
        let so_q = query.standoff(SO_URI);
        group.bench_function(BenchmarkId::new(query.id(), "select-narrow"), |b| {
            b.iter(|| w.engine.run_and_discard(&so_q).unwrap());
        });
    }

    // Operator level, what the paper's 20% refers to: the same logical
    // step — from every <open_auction>, one per iteration (Q2's loop
    // shape), to its `increase` descendants — through each join alone.
    // The index and the candidates are prepared outside the timed
    // region on both sides.
    let store = w.engine.store();
    let (std_id, so_id) = (
        store.by_uri(STD_URI).unwrap(),
        store.by_uri(SO_URI).unwrap(),
    );
    let (std_doc, so_doc) = (store.doc(std_id), store.doc(so_id));
    let std_ctx: Vec<NodeRef> = std_doc
        .elements_named("open_auction")
        .iter()
        .map(|&pre| NodeRef::tree(std_id, pre))
        .collect();
    let std_table = NodeTable::from_columns((0..std_ctx.len() as u32).collect(), std_ctx);
    let test = NodeTest::named("increase");
    let so_ctx: Vec<IterNode> = so_doc
        .elements_named("open_auction")
        .iter()
        .enumerate()
        .map(|(k, &node)| IterNode {
            iter: k as u32,
            node,
        })
        .collect();
    let index = RegionIndex::build(so_doc, &StandoffConfig::default()).unwrap();
    let candidates = so_doc.elements_named("increase").to_vec();
    let iter_domain: Vec<u32> = (0..so_ctx.len() as u32).collect();
    let input = JoinInput {
        doc: so_doc,
        index: &index,
        ctx_index: None,
        context: &so_ctx,
        candidates: Some(&candidates),
        iter_domain: &iter_domain,
    };
    let select_narrow = || {
        let axis = StandoffAxis::SelectNarrow;
        evaluate_standoff_join(axis, StandoffStrategy::LoopLiftedMergeJoin, &input, None)
    };
    let descendant = || staircase::ll_step(store, &std_table, TreeAxis::Descendant, &test);
    assert_eq!(
        descendant().len(),
        select_narrow().len(),
        "operators must agree on the result"
    );
    group.bench_function("operator/descendant-staircase", |b| b.iter(descendant));
    group.bench_function("operator/select-narrow", |b| b.iter(select_narrow));
    group.finish();
}

criterion_group!(benches, staircase_vs_standoff);
criterion_main!(benches);
