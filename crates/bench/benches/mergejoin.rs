//! StandOff MergeJoin microbenchmarks and ablations:
//!
//! * loop-lifted vs basic (per-iteration) invocation as the iteration
//!   count grows — the mechanism behind the paper's Q2 blow-up — through
//!   the production entry point, so "basic" is the loop queries run;
//! * the active-list context-skip optimization (Listing 1 lines 11–18)
//!   on nested context workloads (`per_annotation = true` disables
//!   cross-annotation skipping, isolating the optimization's value);
//! * select-narrow vs select-wide merge cores;
//! * the two stages of the heavy loop-lifted counts over XMark 0.05
//!   (seed 7) and a token layer of one `w` per BLOB word, each timed
//!   alone: `join/resolve_context` looks up and sorts the 2 224
//!   `description` rows, `count/desc_tokens` counts the tokens inside
//!   them (`count(//description/select-narrow::w)`), and
//!   `count/wide_node` the base-layer nodes overlapping the
//!   `open_auction`s (`count(//open_auction/select-wide::node())`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_core::join::merge::{ll_select_narrow, ll_select_wide};
use standoff_core::join::{count_resolved, join_resolved, CtxEntry, JoinScratch, JoinTarget};
use standoff_core::{
    Area, IterNode, RegionEntry, RegionIndex, StandoffAxis, StandoffConfig, StandoffStrategy,
};
use standoff_xmark::{generate, standoffify, XmarkConfig};
use standoff_xml::{Document, DocumentBuilder};

/// Deterministic synthetic workload: `n_ctx` context regions spread over
/// `iters` iterations, nested in chains of depth ~4, over `n_cand`
/// candidates.
fn workload(n_ctx: usize, iters: u32, n_cand: usize) -> (Vec<CtxEntry>, Vec<RegionEntry>) {
    let mut context = Vec::with_capacity(n_ctx);
    let mut x = 0i64;
    for k in 0..n_ctx {
        // Chains of nested regions: every 4th starts a new chain.
        let depth = (k % 4) as i64;
        let base = x - depth * 10;
        let len = 100 - depth * 20;
        context.push(CtxEntry {
            iter: (k as u32) % iters,
            node: k as u32,
            start: base.max(0),
            end: base.max(0) + len,
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

/// One join as the query engine runs it: `context` resolved into
/// `scratch`, then joined into `target`.
fn join(
    axis: StandoffAxis,
    strategy: StandoffStrategy,
    target: &JoinTarget<'_>,
    context: &[IterNode],
    scratch: &mut JoinScratch,
) -> Vec<IterNode> {
    scratch.resolve_context([(target.index, context)]);
    join_resolved(axis, strategy, target, None, None, scratch)
}

fn mergejoin(c: &mut Criterion) {
    // Loop-lifted vs basic as iteration count grows (context and
    // candidate sizes fixed): basic re-scans candidates per iteration.
    let mut group = c.benchmark_group("ll_vs_basic");
    let doc = standoff_xml::parse_document("<d/>").unwrap();
    for iters in [1u32, 16, 256, 1024] {
        // The same workload as one region index: context annotations are
        // nodes 0..n, the candidate restriction is every node after them.
        let (ctx_rows, cand_rows) = workload(2048, iters, 8192);
        let n = ctx_rows.len() as u32;
        let area = |start, end| Area::single(start, end).unwrap();
        let mut areas: Vec<(u32, Area)> = ctx_rows
            .iter()
            .map(|c| (c.node, area(c.start, c.end)))
            .collect();
        areas.extend(cand_rows.iter().map(|e| (n + e.id, area(e.start, e.end))));
        let index = RegionIndex::from_areas(&areas);
        let mut context: Vec<IterNode> = ctx_rows
            .iter()
            .map(|c| IterNode {
                iter: c.iter,
                node: c.node,
            })
            .collect();
        context.sort_unstable();
        let candidates: Vec<u32> = (n..n + cand_rows.len() as u32).collect();
        let iter_domain: Vec<u32> = (0..iters).collect();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: Some(&candidates),
            posting: None,
            iter_domain: &iter_domain,
        };
        let narrow = StandoffAxis::SelectNarrow;
        for (label, strategy) in [
            ("loop-lifted", StandoffStrategy::LoopLiftedMergeJoin),
            ("basic", StandoffStrategy::BasicMergeJoin),
        ] {
            group.bench_with_input(BenchmarkId::new(label, iters), &iters, |b, _| {
                b.iter(|| {
                    let fresh = &mut JoinScratch::default();
                    join(narrow, strategy, &target, &context, fresh)
                });
            });
        }
    }
    group.finish();

    // Context-skip ablation: heavily nested contexts in one iteration.
    let mut group = c.benchmark_group("context_skip_ablation");
    let (context, candidates) = workload(4096, 1, 8192);
    group.bench_function("skip_enabled", |b| {
        b.iter(|| ll_select_narrow(&context, &candidates, false, None));
    });
    group.bench_function("skip_disabled(per_annotation)", |b| {
        b.iter(|| ll_select_narrow(&context, &candidates, true, None));
    });
    group.finish();

    // Allocation discipline: many small joins back to back, fresh
    // buffers per join vs one reused JoinScratch (the executor's shape).
    let mut group = c.benchmark_group("scratch_reuse");
    {
        let pairs: Vec<(u32, Area)> = (0..256)
            .map(|k| {
                let s = k as i64 * 10;
                (k, Area::single(s, s + 8).unwrap())
            })
            .collect();
        let index = RegionIndex::from_areas(&pairs);
        let doc = standoff_xml::parse_document("<d/>").unwrap();
        let context: Vec<IterNode> = (0..32)
            .map(|k| IterNode {
                iter: k,
                node: k * 7,
            })
            .collect();
        let cands: Vec<u32> = (0..64u32).map(|k| k * 4).collect();
        let iter_domain: Vec<u32> = (0..32).collect();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: Some(&cands),
            posting: None,
            iter_domain: &iter_domain,
        };
        let (axis, strategy) = (
            StandoffAxis::SelectNarrow,
            StandoffStrategy::LoopLiftedMergeJoin,
        );
        group.bench_function("fresh_buffers_x64", |b| {
            b.iter(|| {
                for _ in 0..64 {
                    join(
                        axis,
                        strategy,
                        &target,
                        &context,
                        &mut JoinScratch::default(),
                    );
                }
            });
        });
        group.bench_function("shared_scratch_x64", |b| {
            let mut scratch = JoinScratch::default();
            b.iter(|| {
                for _ in 0..64 {
                    join(axis, strategy, &target, &context, &mut scratch);
                }
            });
        });
    }
    group.finish();

    // Narrow vs wide merge cores on the same input.
    let mut group = c.benchmark_group("narrow_vs_wide");
    let (context, candidates) = workload(2048, 64, 8192);
    group.bench_function("select-narrow", |b| {
        b.iter(|| ll_select_narrow(&context, &candidates, false, None));
    });
    group.bench_function("select-wide", |b| {
        b.iter(|| ll_select_wide(&context, &candidates));
    });
    group.finish();
}

/// A token layer over `blob`: one `w` per maximal run of
/// non-whitespace bytes, with its inclusive span.
fn token_layer(blob: &str) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("tokens");
    let mut word = |start: usize, end: usize| {
        b.start_element("w");
        b.attribute("start", &start.to_string());
        b.attribute("end", &(end - 1).to_string());
        b.end_element();
    };
    let mut start = None;
    for (i, byte) in blob.bytes().enumerate() {
        match (byte.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                word(s, i);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        word(s, blob.len());
    }
    b.end_element();
    b.finish().expect("a well-formed token layer")
}

fn scan_layers(c: &mut Criterion) {
    if !c.is_enabled() {
        return; // no corpus to build outside `cargo bench`
    }
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.05)), 7);
    let config = StandoffConfig::default();
    let base = RegionIndex::build(&so.doc, &config).unwrap();
    let tokens_doc = token_layer(&so.blob);
    let tokens = RegionIndex::build(&tokens_doc, &config).unwrap();
    let rows = |name| -> Vec<IterNode> {
        (so.doc.elements_named(name).iter())
            .map(|&node| IterNode { iter: 0, node })
            .collect()
    };
    let (descriptions, auctions) = (rows("description"), rows("open_auction"));
    let mut scratch = JoinScratch::default();

    let mut group = c.benchmark_group("join");
    group.sample_size(500);
    group.bench_function("resolve_context", |b| {
        b.iter(|| scratch.resolve_context([(&base, &descriptions[..])]));
    });
    group.finish();

    // The targets the engine joins: `w`'s posting (every token), and
    // the whole base index for `node()`.
    let w = tokens_doc.names().get("w").unwrap();
    let desc_tokens = JoinTarget {
        doc: &tokens_doc,
        index: &tokens,
        candidates: Some(tokens_doc.elements_named("w")),
        posting: tokens.posting(&tokens_doc, w, None).unwrap(),
        iter_domain: &[0],
    };
    let wide_node = JoinTarget {
        doc: &so.doc,
        index: &base,
        candidates: None,
        posting: None,
        iter_domain: &[0],
    };
    let mut group = c.benchmark_group("count");
    group.sample_size(500);
    for (name, axis, context, target) in [
        (
            "desc_tokens",
            StandoffAxis::SelectNarrow,
            &descriptions,
            &desc_tokens,
        ),
        ("wide_node", StandoffAxis::SelectWide, &auctions, &wide_node),
    ] {
        scratch.resolve_context([(&base, &context[..])]);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut count = [0u64];
                count_resolved(axis, target, &mut scratch, &mut count);
                count[0]
            });
        });
    }
    group.finish();
}

criterion_group!(benches, mergejoin, scan_layers);
criterion_main!(benches);
