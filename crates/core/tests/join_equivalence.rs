//! Property-based equivalence of the four StandOff join strategies.
//!
//! The naive nested-loop join applies the §3.1 predicates literally and
//! serves as the oracle. The Basic and Loop-Lifted StandOff MergeJoins
//! must produce identical results on arbitrary region configurations —
//! overlapping, nested, duplicated, multi-iteration, with and without
//! candidate restrictions, in both region representations. Every join
//! runs the query engine's sequence: the context resolved into a
//! [`JoinScratch`], then [`join_resolved`] or [`count_resolved`] over a
//! [`JoinTarget`] — an explicit candidate sequence, or a pushed name's
//! posting.

use proptest::prelude::*;

use standoff_core::join::merge::ll_select_wide;
use standoff_core::join::{count_resolved, join_resolved, CtxEntry, JoinScratch, JoinTarget};
use standoff_core::{
    IterNode, JoinStats, RegionEntry, RegionIndex, StandoffAxis, StandoffStrategy,
};
use standoff_xml::DocumentBuilder;

/// A generated annotation: node with 1..=3 regions.
#[derive(Clone, Debug)]
struct GenAnnotation {
    regions: Vec<(i64, i64)>,
}

fn annotation_strategy(max_pos: i64, multi: bool) -> impl Strategy<Value = GenAnnotation> {
    let max_regions = if multi { 3 } else { 1 };
    prop::collection::vec((0..max_pos, 0..20i64), 1..=max_regions).prop_map(move |raw| {
        // Convert (start, len) pairs into disjoint, non-touching regions
        // by sorting and dropping conflicting ones.
        let mut regions: Vec<(i64, i64)> = raw
            .into_iter()
            .map(|(s, l)| (s, (s + l).min(max_pos + 30)))
            .collect();
        regions.sort_unstable();
        let mut out: Vec<(i64, i64)> = Vec::new();
        for (s, e) in regions {
            match out.last() {
                Some(&(_, pe)) if s <= pe + 1 => {} // would overlap/touch: drop
                _ => out.push((s, e)),
            }
        }
        GenAnnotation { regions: out }
    })
}

/// Build a flat document `<doc><a .../><a .../>...</doc>` whose elements
/// carry the generated areas, and the matching region index.
fn build(annotations: &[GenAnnotation], multi: bool) -> (standoff_xml::Document, RegionIndex) {
    let named: Vec<(&str, Vec<(i64, i64)>)> = annotations
        .iter()
        .map(|a| ("a", a.regions.clone()))
        .collect();
    build_named(&named, multi)
}

/// [`build`] with a name per element: `<doc><name .../>...</doc>`.
fn build_named(
    annotations: &[(&str, Vec<(i64, i64)>)],
    multi: bool,
) -> (standoff_xml::Document, RegionIndex) {
    let mut b = DocumentBuilder::new();
    b.start_element("doc");
    for (name, regions) in annotations {
        b.start_element(name);
        if multi {
            for &(s, e) in regions {
                b.start_element("region");
                b.start_element("start");
                b.text(&s.to_string());
                b.end_element();
                b.start_element("end");
                b.text(&e.to_string());
                b.end_element();
                b.end_element();
            }
        } else {
            let (s, e) = regions[0];
            b.attribute("start", &s.to_string());
            b.attribute("end", &e.to_string());
        }
        b.end_element();
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let config = if multi {
        standoff_core::StandoffConfig::element_repr()
    } else {
        standoff_core::StandoffConfig::default()
    };
    let index = RegionIndex::build(&doc, &config).unwrap();
    (doc, index)
}

/// Resolve `context`, one fragment's rows, into `scratch` as the
/// engine's join unit does, then join it into `target`.
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

/// The posting entries the engine reads `context` from, with its one
/// iteration, when the context is one iteration of exactly one name's
/// elements over an index without multi-region annotations.
fn whole_name<'a>(
    target: &JoinTarget<'a>,
    context: &[IterNode],
) -> Option<(u32, &'a [RegionEntry])> {
    let (first, last) = (context.first()?, context.last()?);
    if first.iter != last.iter || target.index.max_regions() > 1 {
        return None;
    }
    let name = target.doc.name_id(first.node);
    let nodes = target.doc.element_postings(name);
    if !context.iter().map(|row| row.node).eq(nodes.iter().copied()) {
        return None;
    }
    let posting = target.index.posting(target.doc, name, None).unwrap()?;
    Some((first.iter, posting.table.entries))
}

/// Every axis under each of `strategies` equals the naive oracle on
/// `context` joined into `target`, as rows and as per-iteration counts;
/// with the context resolved by its node-view probes and, when it is a
/// whole name ([`whole_name`]), read from the name's posting too. The
/// loop-lifted runs and the counts use `lifted`, the others `scratch`.
fn assert_agree(
    target: &JoinTarget<'_>,
    context: &[IterNode],
    strategies: &[StandoffStrategy],
    (scratch, lifted): (&mut JoinScratch, &mut JoinScratch),
    what: &dyn std::fmt::Debug,
) {
    let whole = whole_name(target, context);
    let resolve = |scratch: &mut JoinScratch, from_posting: bool| match whole {
        Some((iter, entries)) if from_posting => scratch.context_from_posting(iter, entries),
        _ => scratch.resolve_context([(target.index, context)]),
    };
    let ways: &[bool] = if whole.is_some() {
        &[false, true]
    } else {
        &[false]
    };
    let naive = StandoffStrategy::NaiveWithCandidates;
    for axis in StandoffAxis::ALL {
        let oracle = join(axis, naive, target, context, scratch);
        let iters = context.iter().map(|r| r.iter);
        let n = iters.chain(target.iter_domain.iter().copied()).max();
        let mut expected = vec![0u64; n.map_or(0, |n| n as usize + 1)];
        for row in &oracle {
            expected[row.iter as usize] += 1;
        }
        for &from_posting in ways {
            for &strategy in strategies {
                let scratch = match strategy {
                    StandoffStrategy::LoopLiftedMergeJoin => &mut *lifted,
                    _ => &mut *scratch,
                };
                resolve(scratch, from_posting);
                let got = join_resolved(axis, strategy, target, None, None, scratch);
                assert_eq!(
                    got,
                    oracle,
                    "{axis} under {strategy} diverges from the naive oracle\n{what:?}\n\
                     context: {context:?} (from posting: {from_posting})\n\
                     candidates: {:?}\nposting: {}",
                    target.candidates,
                    target.posting.is_some()
                );
            }
            // The counted form adds, per iteration, the oracle's row count.
            let mut counts = vec![0u64; expected.len()];
            resolve(lifted, from_posting);
            let from_index = count_resolved(axis, target, lifted, &mut counts);
            assert_eq!(from_index, target.index.max_regions() <= 1);
            assert_eq!(
                counts,
                expected,
                "{axis} counted diverges from the naive oracle\n{what:?}\n\
                 context: {context:?} (from posting: {from_posting})\n\
                 candidates: {:?}\nposting: {}",
                target.candidates,
                target.posting.is_some()
            );
        }
    }
}

/// Every axis under every other strategy equals the naive oracle on
/// `context` joined into `target` ([`assert_agree`]); then the Basic and
/// loop-lifted joins do again over each annotated name's posting, the
/// name pushed as the engine's join unit pushes a name test. Returns
/// the candidate-kernel counters of the loop-lifted runs over `target`,
/// so a case can assert which derivation it exercised.
fn assert_strategies_agree(
    target: &JoinTarget<'_>,
    context: &[IterNode],
    what: &dyn std::fmt::Debug,
) -> JoinStats {
    let (mut scratch, mut lifted) = (JoinScratch::default(), JoinScratch::default());
    let all = [
        StandoffStrategy::NaiveNoCandidates,
        StandoffStrategy::BasicMergeJoin,
        StandoffStrategy::LoopLiftedMergeJoin,
    ];
    let merges = &all[1..];
    // The no-candidates baseline ignores the candidate restriction by
    // design; only compare when none is set.
    let strategies = if target.candidates.is_some() {
        merges
    } else {
        &all[..]
    };
    assert_agree(
        target,
        context,
        strategies,
        (&mut scratch, &mut lifted),
        what,
    );
    let stats = lifted.take_stats();
    let (doc, index) = (target.doc, target.index);
    let mut names: Vec<_> = (index.annotated_nodes().iter())
        .map(|&node| doc.name_id(node))
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let pushed = JoinTarget {
            candidates: Some(doc.element_postings(name)),
            posting: index.posting(doc, name, None).unwrap(),
            ..*target
        };
        assert!(pushed.posting.is_some());
        assert_agree(&pushed, context, merges, (&mut scratch, &mut lifted), what);
    }
    stats
}

/// The generated annotations, named `a` and `b` in turn so that each
/// name's posting is a proper part of the index, joined from the picked
/// context under every strategy ([`assert_strategies_agree`]) — and
/// from every `a` in one iteration, a context the engine reads from
/// `a`'s posting.
fn run_all_strategies(
    annotations: Vec<GenAnnotation>,
    ctx_picks: Vec<(u32, usize)>,
    cand_picks: Option<Vec<usize>>,
    multi: bool,
) {
    if annotations.is_empty() {
        return;
    }
    let named: Vec<(&str, Vec<(i64, i64)>)> = (annotations.iter().enumerate())
        .map(|(k, a)| (["a", "b"][k % 2], a.regions.clone()))
        .collect();
    let (doc, index) = build_named(&named, multi);
    let nodes = index.annotated_nodes();

    // Context: (iter, node) pairs, grouped by iter, doc order within iter.
    let mut context: Vec<IterNode> = ctx_picks
        .iter()
        .map(|&(iter, k)| IterNode {
            iter: iter % 3,
            node: nodes[k % nodes.len()],
        })
        .collect();
    context.sort_unstable();
    context.dedup();

    let candidates: Option<Vec<u32>> = cand_picks.map(|picks| {
        let mut c: Vec<u32> = picks.iter().map(|&k| nodes[k % nodes.len()]).collect();
        c.sort_unstable();
        c.dedup();
        c
    });

    let target = JoinTarget {
        doc: &doc,
        index: &index,
        candidates: candidates.as_deref(),
        posting: None,
        iter_domain: &[0, 1, 2],
    };
    assert_strategies_agree(&target, &context, &annotations);
    let every_a: Vec<IterNode> = (doc.elements_named("a").iter())
        .map(|&node| IterNode { iter: 1, node })
        .collect();
    assert_strategies_agree(&target, &every_a, &annotations);
}

/// A dense layer of `n` single-region `a` annotations (starts about
/// three apart, widths 0–4) plus 1–3 point contexts `c` of width ≤ 5
/// clustered within 30 positions — drawn from `seed`. Returns the
/// document, its index and the contexts' pre ranks.
fn point_contexts_over_dense_layer(
    seed: u64,
    n: usize,
    contexts: usize,
) -> (standoff_xml::Document, RegionIndex, Vec<u32>) {
    let mut state = seed | 1;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut annotations: Vec<(&str, Vec<(i64, i64)>)> = (0..n)
        .map(|k| {
            let start = 3 * k as i64 + next(3) as i64;
            ("a", vec![(start, start + next(5) as i64)])
        })
        .collect();
    let base = next(3 * n as u64) as i64;
    for _ in 0..contexts {
        let start = base + next(30) as i64;
        annotations.push(("c", vec![(start, start + next(6) as i64)]));
    }
    let (doc, index) = build_named(&annotations, false);
    let cs = doc.elements_named("c").to_vec();
    (doc, index, cs)
}

/// The reach's edges around a context extent `[from, to]` (`from ≥ 10`):
/// candidates starting at the first context start and ending at the
/// largest context end, zero-width ones on either edge and just outside
/// it, and two-region areas with one region inside the reach and one
/// outside — next to the contexts themselves.
fn edge_shapes(from: i64, to: i64, extra: &[(i64, i64)]) -> Vec<(&'static str, Vec<(i64, i64)>)> {
    let mut shapes: Vec<(&str, Vec<(i64, i64)>)> = vec![
        ("a", vec![(from, from + 1)]),
        ("a", vec![(from, to)]),
        ("a", vec![((to - 1).max(from), to)]),
        ("a", vec![(from, from)]),
        ("a", vec![(to, to)]),
        ("a", vec![(from - 1, from - 1)]),
        ("a", vec![(to + 1, to + 1)]),
        ("a", vec![(from - 1, to)]),
        ("a", vec![(from, to + 1)]),
        ("a", vec![(from, from), (to + 5, to + 6)]),
        ("a", vec![(from - 8, from - 7), (to, to)]),
        ("a", vec![(from - 8, from - 7), (to + 5, to + 6)]),
    ];
    shapes.extend(extra.iter().map(|&(s, len)| ("a", vec![(s, s + len)])));
    shapes
}

/// Region shapes picked to sit on the wide kernel's seams instead of
/// being spread uniformly: the split between active list and look-ahead
/// (`start <= cand.start` vs `start` inside the candidate), the end trim,
/// and the one-item-per-iteration rule.
fn adversarial_annotations() -> impl Strategy<Value = Vec<GenAnnotation>> {
    prop::collection::vec((0usize..6, 0i64..60, 0i64..12), 1..14).prop_map(|shapes| {
        let mut regions: Vec<(i64, i64)> = Vec::new();
        for (shape, at, len) in shapes {
            match shape {
                // One region spanning every other one.
                0 => regions.push((0, 100)),
                // Nested: covered by, then superseding, its neighbour.
                1 => regions.extend([(at, at + len + 4), (at + 1, at + len + 2)]),
                // Equal starts, different ends.
                2 => regions.extend([(at, at + len), (at, at + len + 3)]),
                // Zero width, also sitting on another region's endpoint.
                3 => regions.extend([(at, at), (at, at + len)]),
                // Touching but not overlapping, then sharing an endpoint.
                4 => regions.extend([
                    (at, at + len),
                    (at + len + 1, at + 2 * len + 1),
                    (at + 2 * len + 1, at + 3 * len + 1),
                ]),
                _ => regions.push((at, at + len)),
            }
        }
        regions
            .into_iter()
            .map(|r| GenAnnotation { regions: vec![r] })
            .collect()
    })
}

/// The shape that made the old wide kernel quadratic: one early candidate
/// spanning everything, then `n` flat contexts each overlapped by one flat
/// candidate. Returns the deduplicated `(iter, candidate id)` pairs of
/// the wide kernel; context `k` runs in iteration `k % iters`.
fn wide_over_flat(n: u32, iters: u32) -> Vec<(u32, u32)> {
    let context: Vec<CtxEntry> = (0..n)
        .map(|k| CtxEntry {
            iter: k % iters,
            node: k,
            start: 10 * k as i64,
            end: 10 * k as i64 + 5,
        })
        .collect();
    // Candidate 0 is the wide one; candidate k + 1 overlaps context k only.
    let mut candidates = vec![RegionEntry {
        start: 0,
        end: 10 * n as i64,
        id: 0,
    }];
    candidates.extend((0..n).map(|k| RegionEntry {
        start: 10 * k as i64 + 5,
        end: 10 * k as i64 + 8,
        id: k + 1,
    }));
    let mut pairs: Vec<(u32, u32)> = ll_select_wide(&context, &candidates)
        .iter()
        .map(|e| (e.iter, candidates[e.cand_idx as usize].id))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Exactly the expected pairs at both sizes; the large one is the
/// regression guard — quadratic work there is ~10⁸ steps, linear ~10⁴.
#[test]
fn wide_candidate_over_flat_contexts_is_exact_and_linear() {
    for (n, iters) in [(10u32, 1u32), (10, 3), (10_000, 1), (10_000, 3)] {
        let mut expected: Vec<(u32, u32)> = (0..iters.min(n)).map(|iter| (iter, 0)).collect();
        expected.extend((0..n).map(|k| (k % iters, k + 1)));
        expected.sort_unstable();
        // Best of three, so a descheduled run cannot fail the bound.
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let started = std::time::Instant::now();
            let lifted = wide_over_flat(n, iters);
            best = best.min(started.elapsed());
            assert_eq!(lifted, expected, "n={n} iters={iters}");
        }
        assert!(
            best < std::time::Duration::from_millis(250),
            "n={n} iters={iters} took {best:?}: the wide join is superlinear again"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Adversarial geometry, contexts interleaved over three iterations:
    /// select-wide and reject-wide (and the narrow pair) under the basic
    /// and loop-lifted merge joins equal the naive oracle.
    #[test]
    fn strategies_agree_on_adversarial_geometry(
        annotations in adversarial_annotations(),
        ctx in prop::collection::vec((0u32..3, 0usize..64), 0..24),
        cands in prop::option::of(prop::collection::vec(0usize..64, 0..24)),
    ) {
        run_all_strategies(annotations, ctx, cands, false);
    }

    /// Single-region annotations (attribute representation): all
    /// strategies agree on all four axes.
    #[test]
    fn strategies_agree_single_region(
        annotations in prop::collection::vec(annotation_strategy(120, false), 1..24),
        ctx in prop::collection::vec((0u32..3, 0usize..24), 0..12),
        cands in prop::option::of(prop::collection::vec(0usize..24, 0..16)),
    ) {
        run_all_strategies(annotations, ctx, cands, false);
    }

    /// Multi-region annotations (element representation): the ∀∃
    /// containment and ∃∃ overlap semantics agree across strategies.
    #[test]
    fn strategies_agree_multi_region(
        annotations in prop::collection::vec(annotation_strategy(80, true), 1..16),
        ctx in prop::collection::vec((0u32..3, 0usize..16), 0..10),
        cands in prop::option::of(prop::collection::vec(0usize..16, 0..12)),
    ) {
        run_all_strategies(annotations, ctx, cands, true);
    }

    /// Structural invariants of every result: sorted, duplicate-free,
    /// rejects are exact complements of selects over the candidate
    /// universe.
    #[test]
    fn rejects_complement_selects(
        annotations in prop::collection::vec(annotation_strategy(100, false), 1..20),
        ctx in prop::collection::vec((0u32..2, 0usize..20), 0..10),
    ) {
        let (doc, index) = build(&annotations, false);
        let nodes = doc.elements_named("a").to_vec();
        let mut context: Vec<IterNode> = ctx
            .iter()
            .map(|&(iter, k)| IterNode { iter: iter % 2, node: nodes[k % nodes.len()] })
            .collect();
        context.sort_unstable();
        context.dedup();
        let iter_domain = [0, 1];
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: None,
            posting: None,
            iter_domain: &iter_domain,
        };
        let (ll, mut scratch) = (StandoffStrategy::LoopLiftedMergeJoin, JoinScratch::default());
        for (sel, rej) in [
            (StandoffAxis::SelectNarrow, StandoffAxis::RejectNarrow),
            (StandoffAxis::SelectWide, StandoffAxis::RejectWide),
        ] {
            let s = join(sel, ll, &target, &context, &mut scratch);
            let r = join(rej, ll, &target, &context, &mut scratch);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "select sorted+unique");
            prop_assert!(r.windows(2).all(|w| w[0] < w[1]), "reject sorted+unique");
            // Per iteration: select ∪ reject = universe, disjoint.
            let universe = target.candidate_universe_in(&mut Vec::new()).to_vec();
            for &iter in &iter_domain {
                let sel_nodes: Vec<u32> =
                    s.iter().filter(|e| e.iter == iter).map(|e| e.node).collect();
                let rej_nodes: Vec<u32> =
                    r.iter().filter(|e| e.iter == iter).map(|e| e.node).collect();
                let mut union: Vec<u32> = sel_nodes.iter().chain(&rej_nodes).copied().collect();
                union.sort_unstable();
                prop_assert_eq!(&union, &universe, "select ⊎ reject = candidates (iter {})", iter);
            }
        }
    }

    /// Narrow results are always a subset of wide results (containment
    /// implies overlap).
    #[test]
    fn narrow_subset_of_wide(
        annotations in prop::collection::vec(annotation_strategy(100, true), 1..16),
        ctx in prop::collection::vec((0u32..2, 0usize..16), 1..8),
    ) {
        let (doc, index) = build(&annotations, true);
        let nodes = doc.elements_named("a").to_vec();
        let mut context: Vec<IterNode> = ctx
            .iter()
            .map(|&(iter, k)| IterNode { iter: iter % 2, node: nodes[k % nodes.len()] })
            .collect();
        context.sort_unstable();
        context.dedup();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: None,
            posting: None,
            iter_domain: &[0, 1],
        };
        let (ll, mut scratch) = (StandoffStrategy::LoopLiftedMergeJoin, JoinScratch::default());
        let narrow = join(StandoffAxis::SelectNarrow, ll, &target, &context, &mut scratch);
        let wide = join(StandoffAxis::SelectWide, ll, &target, &context, &mut scratch);
        for e in &narrow {
            prop_assert!(wide.contains(e), "{e:?} selected by narrow but not wide");
        }
    }

    /// One [`JoinScratch`] reused across many differently shaped joins —
    /// axes × strategies × candidate restrictions, back to back — must
    /// behave exactly like a fresh scratch per join: no state may leak
    /// between invocations through the shared buffers.
    #[test]
    fn shared_scratch_never_leaks_between_joins(
        annotations in prop::collection::vec(annotation_strategy(100, true), 1..12),
        ctx in prop::collection::vec((0u32..3, 0usize..12), 0..8),
        cands in prop::option::of(prop::collection::vec(0usize..12, 0..8)),
    ) {
        let (doc, index) = build(&annotations, true);
        let nodes = doc.elements_named("a").to_vec();
        let mut context: Vec<IterNode> = ctx
            .iter()
            .map(|&(iter, k)| IterNode { iter: iter % 3, node: nodes[k % nodes.len()] })
            .collect();
        context.sort_unstable();
        context.dedup();
        let candidates: Option<Vec<u32>> = cands.map(|picks| {
            let mut c: Vec<u32> = picks.iter().map(|&k| nodes[k % nodes.len()]).collect();
            c.sort_unstable();
            c.dedup();
            c
        });
        let mut shared = JoinScratch::default();
        for axis in StandoffAxis::ALL {
            for strategy in [
                StandoffStrategy::BasicMergeJoin,
                StandoffStrategy::LoopLiftedMergeJoin,
            ] {
                // Alternate restricted and unrestricted inputs so the
                // shared buffers see shrinking *and* growing workloads.
                for with_cands in [true, false] {
                    let target = JoinTarget {
                        doc: &doc,
                        index: &index,
                        candidates: if with_cands { candidates.as_deref() } else { None },
                        posting: None,
                        iter_domain: &[0, 1, 2],
                    };
                    let fresh = join(axis, strategy, &target, &context, &mut JoinScratch::default());
                    let reused = join(axis, strategy, &target, &context, &mut shared);
                    prop_assert_eq!(
                        &reused, &fresh,
                        "{} under {} with shared scratch diverges", axis, strategy
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A candidate sequence that is every annotation of the document:
    /// the derivation borrows the index's own entries instead of
    /// intersecting, and every strategy still equals the oracle.
    #[test]
    fn covering_candidates_borrow_the_index(
        annotations in prop::collection::vec(annotation_strategy(120, false), 2..24),
        ctx in prop::collection::vec((0u32..3, 0usize..24), 1..12),
    ) {
        // (One annotation is a one-id proof: probing it is as cheap.)
        // The last annotation spans every other one and joins the
        // context: from its first start, widened or not, every join's
        // reach is the whole table.
        let mut annotations = annotations;
        annotations.push(GenAnnotation { regions: vec![(0, 150)] });
        let (doc, index) = build(&annotations, false);
        let nodes = doc.elements_named("a");
        prop_assert_eq!(nodes, index.annotated_nodes());
        let spanning = IterNode { iter: 0, node: *nodes.last().unwrap() };
        let mut context: Vec<IterNode> = ctx
            .iter()
            .map(|&(iter, k)| IterNode { iter, node: nodes[k % nodes.len()] })
            .chain([spanning])
            .collect();
        context.sort_unstable();
        context.dedup();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: Some(nodes),
            posting: None,
            iter_domain: &[0, 1, 2],
        };
        let stats = assert_strategies_agree(&target, &context, &annotations);
        // At full reach, proving coverage is cheaper than any
        // intersection of the table.
        prop_assert_eq!(index.table().wide_reach(0, 150), 0..index.len());
        prop_assert!(stats.candidate_borrowed > 0, "{:?}", stats);
    }

    /// One to three point contexts of width ≤ 5 over a layer of ≥ 2 000
    /// annotations, most of them explicit candidates: the narrow joins
    /// gather the candidates' entries inside a reach of a handful — and
    /// answer like the oracle.
    #[test]
    fn point_contexts_over_a_dense_layer_gather(
        seed in any::<u64>(),
        n in 2_000usize..2_400,
        contexts in 1usize..=3,
        skip in 2usize..9,
    ) {
        let (doc, index, cs) = point_contexts_over_dense_layer(seed, n, contexts);
        let context: Vec<IterNode> = (cs.iter().enumerate())
            .map(|(k, &node)| IterNode { iter: k as u32, node })
            .collect();
        // Most of the layer, never all of it.
        let candidates: Vec<u32> = (doc.elements_named("a").iter())
            .enumerate()
            .filter(|(k, _)| k % skip != 0)
            .map(|(_, &a)| a)
            .collect();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: Some(&candidates),
            posting: None,
            iter_domain: &[0, 1, 2],
        };
        let stats = assert_strategies_agree(&target, &context, &seed);
        prop_assert!(stats.candidate_node_view > 0, "{:?}", stats);
    }

    /// The wide reach's left boundary, `from − max_extent`, where `M =
    /// max_extent` is drawn and held by a region ending exactly at the
    /// first context start: a region one byte further out (it ends just
    /// before the context), zero-width regions on and beside both
    /// boundaries, and two-region areas with one region left of the
    /// reach — every strategy, every axis (both wide ones among them),
    /// with and without a candidate restriction.
    #[test]
    fn wide_reach_edges_match_the_oracle(
        from in 60i64..90,
        first in 0i64..15,
        m in 16i64..30,
        second in prop::option::of((0i64..20, 0i64..15)),
        extra in prop::collection::vec((0i64..160, 0i64..16), 0..12),
        restrict in prop::option::of(prop::collection::vec(any::<bool>(), 0..40)),
    ) {
        let mut contexts = vec![("c", vec![(from, from + first)])];
        if let Some((offset, width)) = second {
            contexts.push(("c", vec![(from + offset, from + offset + width)]));
        }
        let to = contexts.iter().map(|(_, r)| r[0].1).max().unwrap();
        let left = from - m;
        let mut shapes: Vec<(&str, Vec<(i64, i64)>)> = vec![
            ("a", vec![(left, from)]),
            ("a", vec![(left - 1, from - 1)]),
            ("a", vec![(left, left)]),
            ("a", vec![(left - 1, left - 1)]),
            ("a", vec![(from, from)]),
            ("a", vec![(from - 1, from - 1)]),
            ("a", vec![(to, to)]),
            ("a", vec![(to + 1, to + 1)]),
            ("a", vec![(left - 9, left - 5), (from + 1, from + 2)]),
            ("a", vec![(left - 9, left - 5), (to, to + 3)]),
            ("a", vec![(left - 9, left - 5), (to + 2, to + 3)]),
            ("a", vec![(left - 3, left - 2), (from - 3, from - 1)]),
        ];
        shapes.extend(extra.iter().map(|&(s, len)| ("a", vec![(s, s + len)])));
        shapes.extend(contexts);
        let (doc, index) = build_named(&shapes, true);
        prop_assert_eq!(index.max_extent(), m);
        let reach = index.table().wide_reach(from, to);
        prop_assert!(index.entries()[reach.clone()].iter().all(|e| e.start >= left));
        prop_assert!(index.entries()[..reach.start].iter().all(|e| e.start < left));
        let annotated = index.annotated_nodes();
        let candidates = restrict.map(|mask| -> Vec<u32> {
            (annotated.iter().zip(mask))
                .filter(|&(_, on)| on)
                .map(|(&pre, _)| pre)
                .collect()
        });
        let context: Vec<IterNode> = (doc.elements_named("c").iter())
            .enumerate()
            .map(|(k, &node)| IterNode { iter: k as u32 % 2, node })
            .collect();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: candidates.as_deref(),
            posting: None,
            iter_domain: &[0, 1],
        };
        assert_strategies_agree(&target, &context, &shapes);
    }

    /// The reach's boundaries, over multi-region areas: candidates on
    /// and just past either edge of the context extent, zero-width ones,
    /// areas with one region inside the reach and one outside — every
    /// strategy, every axis, with and without a candidate restriction.
    #[test]
    fn reach_edges_match_the_oracle(
        from in 10i64..60,
        first in 0i64..15,
        second in prop::option::of((0i64..20, 0i64..15)),
        extra in prop::collection::vec((0i64..100, 0i64..12), 0..12),
        restrict in prop::option::of(prop::collection::vec(any::<bool>(), 0..32)),
    ) {
        let mut contexts = vec![("c", vec![(from, from + first)])];
        if let Some((offset, width)) = second {
            contexts.push(("c", vec![(from + offset, from + offset + width)]));
        }
        let to = contexts.iter().map(|(_, r)| r[0].1).max().unwrap();
        let mut shapes = edge_shapes(from, to, &extra);
        shapes.extend(contexts);
        let (doc, index) = build_named(&shapes, true);
        let annotated = index.annotated_nodes();
        let pick = |mask: &[bool]| -> Vec<u32> {
            (annotated.iter().zip(mask))
                .filter(|(_, &on)| on)
                .map(|(&pre, _)| pre)
                .collect()
        };
        let candidates = restrict.map(|mask| pick(&mask));
        let context: Vec<IterNode> = (doc.elements_named("c").iter())
            .enumerate()
            .map(|(k, &node)| IterNode { iter: k as u32 % 2, node })
            .collect();
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: candidates.as_deref(),
            posting: None,
            iter_domain: &[0, 1],
        };
        assert_strategies_agree(&target, &context, &shapes);
    }
}
