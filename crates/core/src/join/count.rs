//! Counting a loop-lifted select without producing its rows.
//!
//! Under loop-lifting an aggregate is a grouping on the `iter` column
//! (paper §4.5): `count`, `exists` and `empty` of a StandOff step need
//! how many nodes each iteration selects, not which. When every
//! candidate annotation is one region, one start-clustered entry is one
//! node, and the index's extent bound `w` ([`RegionIndex::max_extent`])
//! turns most of the count into partition points:
//!
//! * **containment** — sweep an iteration's contexts in start order with
//!   the running maximum end `M`. An entry starting at `s` is contained
//!   in some context iff its end is at most the `M` of the contexts
//!   starting at or before `s`. Between two context starts `M` is
//!   constant: entries starting in `[x, M − w]` are contained whatever
//!   their end, those in `(M − w, M]` are checked one by one, and those
//!   after `M` are not;
//! * **overlap** — merge an iteration's contexts into disjoint covered
//!   intervals `[a, b]`. Every entry starting inside one overlaps it; an
//!   entry starting in the gap before `a` overlaps iff it ends at or
//!   after `a`, which only those starting at or after `a − w` can.
//!
//! Every boundary is found by seeking forward from the previous one
//! through the candidates' [`Keys`]: the start directory's bucket of the
//! boundary bounds the seek from below, and the rows' own starts are
//! stepped through from there — a few, then a binary search — so a
//! boundary costs two directory probes and the rows of its bucket. Ends
//! are read only in the `(M − w, M]` tail and in a gap's head, where a
//! [`KEY_BLOCK`]-row block whose largest end is before `a` is counted
//! whole without reading it. An iteration costs its contexts times a
//! bucket's rows, plus the entries within `w` of a boundary.
//!
//! [`RegionIndex::max_extent`]: crate::index::RegionIndex::max_extent

use std::ops::Range;

use crate::budget::Budget;
use crate::index::{Keys, RegionEntry, KEY_BLOCK};
use crate::join::merge::POLL_BLOCK;
use crate::join::{CtxEntry, StandoffAxis};

/// The candidates a count sweeps: the entries `reach` of a
/// start-clustered run of `rows` with that run's `keys`, position for
/// position — a table with its own keys, or a buffer with keys derived
/// from it.
pub(crate) struct Candidates<'a> {
    pub rows: &'a [RegionEntry],
    pub keys: &'a Keys,
    pub reach: Range<usize>,
}

/// For each iteration of `context`, the number of `candidates` the
/// select axis `axis` keeps, appended to `out` as `(iter, count)`.
///
/// `context` must be sorted on `(iter, start)`, `candidates` on start,
/// each candidate must be a distinct node, and `max_extent` must bound
/// every candidate's `end − start`. Iterations come out ascending, each
/// once. The budget is polled once per [`POLL_BLOCK`] contexts; `false`
/// means it tripped and `out` is incomplete.
pub(crate) fn select_counts(
    axis: StandoffAxis,
    context: &[CtxEntry],
    candidates: &Candidates<'_>,
    max_extent: i64,
    budget: Option<&Budget>,
    out: &mut Vec<(u32, u64)>,
) -> bool {
    debug_assert!(axis.is_select());
    debug_assert!(context
        .windows(2)
        .all(|w| (w[0].iter, w[0].start) <= (w[1].iter, w[1].start)));
    debug_assert!(candidates.rows.is_sorted_by_key(|e| e.start));
    let mut seen = 0usize;
    let mut tripped = || {
        seen += 1;
        seen.is_multiple_of(POLL_BLOCK) && budget.is_some_and(|b| b.poll().is_some())
    };
    let mut rest = context;
    while let Some(first) = rest.first() {
        let len = rest.partition_point(|c| c.iter == first.iter);
        let (group, tail) = rest.split_at(len);
        let count = match axis {
            StandoffAxis::SelectNarrow => contained(group, candidates, max_extent, &mut tripped),
            _ => overlapping(group, candidates, max_extent, &mut tripped),
        };
        let Some(count) = count else {
            return false;
        };
        out.push((first.iter, count));
        rest = tail;
    }
    true
}

/// Candidates contained in some context of one iteration (`context`
/// sorted on start); `None` when `tripped` fired.
fn contained(
    context: &[CtxEntry],
    candidates: &Candidates<'_>,
    max_extent: i64,
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let (rows, keys, to) = (candidates.rows, candidates.keys, candidates.reach.end);
    let mut count = 0u64;
    let mut at = candidates.reach.start;
    let mut m = i64::MIN; // M: the largest end of the contexts so far
    for (k, c) in context.iter().enumerate() {
        if tripped() {
            return None;
        }
        m = m.max(c.end);
        // The step [c.start, next) of M: contexts sharing a start join
        // it before it is counted.
        let next = context.get(k + 1).map_or(i64::MAX, |d| d.start);
        if next == c.start {
            continue;
        }
        // The entries starting in [c.start, min(M, next − 1)]: all
        // contained but those of the last `w` that end past M.
        at = keys.seek(rows, at, to, c.start);
        let past = keys.seek(rows, at, to, m.saturating_add(1).min(next));
        let sure = m.saturating_sub(max_extent);
        let out = (rows[at..past].iter().rev())
            .take_while(|e| e.start > sure)
            .filter(|e| e.end > m)
            .count();
        count += (past - at - out) as u64;
        at = past;
    }
    Some(count)
}

/// Candidates overlapping some context of one iteration (`context`
/// sorted on start); `None` when `tripped` fired.
fn overlapping(
    context: &[CtxEntry],
    candidates: &Candidates<'_>,
    max_extent: i64,
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let (rows, keys, to) = (candidates.rows, candidates.keys, candidates.reach.end);
    let mut count = 0u64;
    let mut at = candidates.reach.start;
    let mut gap = i64::MIN; // first position after the last covered interval
    let mut k = 0usize;
    while k < context.len() {
        // One covered interval [a, b]: the contexts that overlap it.
        let a = context[k].start;
        let mut b = context[k].end;
        while k < context.len() && context[k].start <= b {
            if tripped() {
                return None;
            }
            b = b.max(context[k].end);
            k += 1;
        }
        // The entries starting in [max(gap, a − w), b]: all overlapping
        // but those of the gap's head that end before `a`.
        at = keys.seek(rows, at, to, gap.max(a.saturating_sub(max_extent)));
        let inside = keys.seek(rows, at, to, a);
        let past = keys.seek(rows, inside, to, b.saturating_add(1));
        let out = ended_before(candidates, at..inside, a);
        count += (past - at - out) as u64;
        at = past;
        gap = b.saturating_add(1);
    }
    Some(count)
}

/// How many of the candidates `rows` end before `a`: a [`KEY_BLOCK`]
/// block whose largest end is before `a` counts whole, unread.
fn ended_before(candidates: &Candidates<'_>, rows: Range<usize>, a: i64) -> usize {
    let mut out = 0;
    let mut at = rows.start;
    while at < rows.end {
        let block = at / KEY_BLOCK;
        let to = ((block + 1) * KEY_BLOCK).min(rows.end);
        out += if candidates.keys.block_ends[block] < a {
            to - at
        } else {
            (candidates.rows[at..to].iter())
                .filter(|e| e.end < a)
                .count()
        };
        at = to;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{RegionIndex, Table};
    use crate::region::Area;

    fn ctx(rows: &[(u32, i64, i64)]) -> Vec<CtxEntry> {
        let mut v: Vec<CtxEntry> = (rows.iter().enumerate())
            .map(|(n, &(iter, start, end))| CtxEntry {
                iter,
                node: n as u32,
                start,
                end,
            })
            .collect();
        v.sort_by_key(|c| (c.iter, c.start, c.end));
        v
    }

    fn cands(rows: &[(i64, i64)]) -> Vec<RegionEntry> {
        let mut v: Vec<RegionEntry> = (rows.iter().enumerate())
            .map(|(n, &(start, end))| RegionEntry {
                start,
                end,
                id: n as u32,
            })
            .collect();
        v.sort_by_key(|e| (e.start, e.end, e.id));
        v
    }

    fn extent(candidates: &[RegionEntry]) -> i64 {
        candidates
            .iter()
            .map(|e| e.end - e.start)
            .max()
            .unwrap_or(0)
    }

    /// The nested loop: per iteration, the candidates some context of
    /// that iteration contains (overlaps).
    fn brute(
        axis: StandoffAxis,
        context: &[CtxEntry],
        candidates: &[RegionEntry],
    ) -> Vec<(u32, u64)> {
        let mut iters: Vec<u32> = context.iter().map(|c| c.iter).collect();
        iters.dedup();
        (iters.into_iter())
            .map(|iter| {
                let hits = candidates.iter().filter(|e| {
                    context.iter().any(|c| {
                        c.iter == iter
                            && match axis {
                                StandoffAxis::SelectNarrow => c.start <= e.start && e.end <= c.end,
                                _ => c.start <= e.end && e.start <= c.end,
                            }
                    })
                });
                (iter, hits.count() as u64)
            })
            .collect()
    }

    fn counts(
        axis: StandoffAxis,
        context: &[CtxEntry],
        candidates: &[RegionEntry],
        max_extent: i64,
    ) -> Vec<(u32, u64)> {
        let keys = Keys::of(candidates);
        let candidates = Candidates {
            rows: candidates,
            keys: &keys,
            reach: 0..candidates.len(),
        };
        let mut out = Vec::new();
        assert!(select_counts(
            axis,
            context,
            &candidates,
            max_extent,
            None,
            &mut out
        ));
        out
    }

    /// Every way a count gets its candidates agrees with the nested loop
    /// over the `spans`, for both select axes and loose extent bounds:
    /// the keys of the index's own table over the context's reach, the
    /// keys of a name's posting in an index that also holds `fillers`,
    /// keys derived for a copy of the reach (the scratch of a short
    /// reach) and for the node-view gather of the spans' nodes from that
    /// index.
    fn agree(context: &[CtxEntry], spans: &[(i64, i64)], fillers: &[(i64, i64)]) {
        let mut b = standoff_xml::DocumentBuilder::new();
        b.start_element("d");
        // Candidates and fillers interleave in document order.
        let (mut c_left, mut x_left) = (spans.len(), fillers.len());
        while c_left + x_left > 0 {
            if c_left >= x_left {
                c_left -= 1;
                b.start_element("c");
            } else {
                x_left -= 1;
                b.start_element("x");
            }
            b.end_element();
        }
        b.end_element();
        let doc = b.finish().unwrap();
        let (cs, xs) = (doc.elements_named("c"), doc.elements_named("x"));
        let areas = |pres: &[u32], spans: &[(i64, i64)]| -> Vec<(u32, Area)> {
            (pres.iter().zip(spans))
                .map(|(&pre, &(s, e))| (pre, Area::single(s, e).unwrap()))
                .collect()
        };
        let own = RegionIndex::from_areas(&areas(cs, spans));
        let mut all = areas(cs, spans);
        all.extend(areas(xs, fillers));
        all.sort_by_key(|(pre, _)| *pre);
        let mixed = RegionIndex::from_areas(&all);
        // No candidates, no name `c`: its posting is empty.
        let posting =
            (doc.names().get("c")).map(|name| mixed.posting(&doc, name, None).unwrap().unwrap());
        assert!(posting.is_none_or(|p| fillers.is_empty() || !p.covering));
        let posting = posting.map_or(own.table(), |p| p.table);
        let from = context.iter().map(|c| c.start).min().unwrap();
        let to = context.iter().map(|c| c.end).max().unwrap();
        for axis in [StandoffAxis::SelectNarrow, StandoffAxis::SelectWide] {
            let expected = brute(axis, context, own.entries());
            let reach = |t: &Table| match axis {
                StandoffAxis::SelectNarrow => t.reach(from, to),
                _ => t.wide_reach(from, to),
            };
            let table = own.table();
            let slice = &table.entries[reach(&table)];
            let mut gathered = Vec::new();
            mixed.gather_candidates(cs, reach(&mixed.table()), &mut gathered);
            let (slice_keys, gathered_keys) = (Keys::of(slice), Keys::of(&gathered));
            let paths = [
                (
                    "table",
                    table.entries,
                    table.keys(),
                    reach(&table),
                    own.max_extent(),
                ),
                (
                    "posting",
                    posting.entries,
                    posting.keys(),
                    reach(&posting),
                    posting.max_extent,
                ),
                (
                    "scratch",
                    slice,
                    &slice_keys,
                    0..slice.len(),
                    own.max_extent(),
                ),
                (
                    "gathered",
                    &gathered[..],
                    &gathered_keys,
                    0..gathered.len(),
                    mixed.max_extent(),
                ),
            ];
            for (what, rows, keys, reach, bound) in paths {
                let candidates = Candidates { rows, keys, reach };
                // The extent bound may be loose: only its being an
                // upper bound matters.
                for slack in [0, 1, 7] {
                    let mut got = Vec::new();
                    assert!(select_counts(
                        axis,
                        context,
                        &candidates,
                        bound + slack,
                        None,
                        &mut got
                    ));
                    assert_eq!(
                        got, expected,
                        "{axis} via {what}, slack {slack}: {context:?} {spans:?} {fillers:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn edges_at_the_running_maximum_end() {
        // Context [10, 20], extent 4: M − w = 16.
        let context = ctx(&[(0, 10, 20)]);
        let spans = [
            (10, 14), // start at x, contained
            (15, 19), // M − w − 1: contained without a check
            (16, 20), // M − w, ends exactly at M
            (17, 21), // M − w + 1, one past M
            (17, 20), // checked, ends at M
            (20, 20), // starts at M
            (21, 21), // after M
            (6, 10),  // before the context, touching it
            (5, 9),   // before the context, in the gap
        ];
        let candidates = cands(&spans);
        assert_eq!(extent(&candidates), 4);
        assert_eq!(
            counts(StandoffAxis::SelectNarrow, &context, &candidates, 4),
            [(0, 5)]
        );
        assert_eq!(
            counts(StandoffAxis::SelectWide, &context, &candidates, 4),
            [(0, 7)]
        );
        agree(&context, &spans, &[]);
        agree(&context, &spans, &[(12, 13), (0, 30)]);
    }

    #[test]
    fn overlapping_contexts_count_a_node_once() {
        // Overlapping, not nested, and a nested one; two iterations.
        let context = ctx(&[(0, 0, 20), (0, 10, 30), (0, 12, 14), (1, 10, 30)]);
        let spans = [(2, 8), (12, 18), (15, 25), (22, 28), (5, 25), (29, 31)];
        assert_eq!(
            counts(StandoffAxis::SelectNarrow, &context, &cands(&spans), 20),
            [(0, 4), (1, 3)]
        );
        agree(&context, &spans, &[(13, 13)]);
    }

    #[test]
    fn gaps_shorter_than_the_extent() {
        let context = ctx(&[(0, 0, 4), (0, 6, 9), (0, 11, 12), (2, 40, 41)]);
        let spans = [
            (1, 7),
            (3, 5),
            (5, 5),
            (5, 10),
            (10, 10),
            (12, 20),
            (30, 39),
        ];
        agree(&context, &spans, &[(2, 3), (8, 9)]);
    }

    /// A gap head of many blocks, most ending before the covered
    /// interval and counted unread, one holding an entry that reaches
    /// into it, under a reach that starts mid-block.
    #[test]
    fn gap_head_blocks_are_skipped_whole() {
        let mut spans: Vec<(i64, i64)> = (0..500).map(|k| (k, k)).collect();
        spans.push((130, 1000)); // in the third block, ends inside [a, b]
        let context = ctx(&[(0, 600, 610), (1, 700, 700)]);
        let candidates = cands(&spans);
        let expected = brute(StandoffAxis::SelectWide, &context, &candidates);
        assert_eq!(expected, [(0, 1), (1, 1)]);
        assert_eq!(
            counts(StandoffAxis::SelectWide, &context, &candidates, 870),
            expected
        );
        agree(&context, &spans, &[(-40, -40), (650, 651)]);
    }

    #[test]
    fn generated_geometry_agrees_with_the_nested_loop() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m) as i64
        };
        for round in 0..400 {
            // Every fourth round has up to 300 candidates over ~400
            // positions, so a block holds ~85 positions and an entry
            // hundreds long spans several blocks; starts go negative.
            let wide = round % 4 == 0;
            let (n_cand, room) = if wide {
                (next(301), 400)
            } else {
                (next(30), 80)
            };
            let n_ctx = 1 + next(8) as usize;
            let rows: Vec<(u32, i64, i64)> = (0..n_ctx)
                .map(|_| {
                    let s = next(room as u64 + 20) - 20;
                    (next(3) as u32, s, s + next(room as u64 / 3))
                })
                .collect();
            let n_fill = next(20) as usize;
            let mut span = |long: bool| {
                let s = next(room as u64 + 10) - 50;
                (s, s + if long { next(room as u64) } else { next(12) })
            };
            let spans: Vec<(i64, i64)> = (0..n_cand as usize).map(|k| span(k % 37 == 5)).collect();
            let fillers: Vec<(i64, i64)> = (0..n_fill).map(|_| span(false)).collect();
            agree(&ctx(&rows), &spans, &fillers);
        }
    }

    /// Context rows `(iter, start, end)`, candidate spans and fillers.
    type Geometry = (Vec<(u32, i64, i64)>, Vec<(i64, i64)>, Vec<(i64, i64)>);

    /// A generated geometry at an edge of the start directory — the
    /// context rows, candidate spans and fillers `agree` takes — drawn
    /// from `next` (`next(m)` is uniform in `[0, m)`):
    ///
    /// 0. runs of equal starts longer than a seek's in-order scan, with
    ///    contexts starting on, inside and after them;
    /// 1. one row at 0 and the rest past 2⁴⁰, so one bucket spans 2³⁴
    ///    positions and the far rows share a few;
    /// 2. negative starts, some rows crossing 0;
    /// 3. a single row;
    /// 4. a uniform layer whose contexts begin and end mid-bucket, so
    ///    every reach does.
    fn directory_edge(kind: usize, next: &mut impl FnMut(u64) -> i64) -> Geometry {
        let mut ctx: Vec<(u32, i64, i64)> = Vec::new();
        let mut spans: Vec<(i64, i64)> = Vec::new();
        let mut fillers: Vec<(i64, i64)> = Vec::new();
        match kind {
            0 => {
                for run in 0..1 + next(3) {
                    let s = 100 * run + next(20);
                    for _ in 0..17 + next(40) {
                        spans.push((s, s + next(30)));
                    }
                    ctx.push((next(3) as u32, s, s + next(40)));
                    ctx.push((next(3) as u32, s + 1 + next(5), s + 30 + next(40)));
                    ctx.push((next(3) as u32, s - next(5), s + next(3)));
                }
                for _ in 0..next(10) {
                    fillers.push((next(300), next(300) + 300));
                }
            }
            1 => {
                let far = 1i64 << 40;
                spans.push((0, next(4)));
                for _ in 0..1 + next(80) {
                    let s = far + next(300);
                    spans.push((s, s + next(8)));
                }
                ctx.push((next(3) as u32, -next(3), next(5)));
                for _ in 0..1 + next(4) {
                    let s = far + next(320) - 10;
                    ctx.push((next(3) as u32, s, s + next(40)));
                }
                ctx.push((next(3) as u32, -2, far + 400));
                fillers.push((far + next(100), far + 150));
            }
            2 => {
                for _ in 0..1 + next(120) {
                    let s = -500 + next(520);
                    spans.push((s, s + next(25)));
                }
                for _ in 0..1 + next(6) {
                    let s = -520 + next(540);
                    ctx.push((next(3) as u32, s, s + next(60)));
                }
                for _ in 0..next(8) {
                    fillers.push((-next(40), next(40)));
                }
            }
            3 => {
                let s = next(40) - 20;
                spans.push((s, s + next(6)));
                for _ in 0..1 + next(4) {
                    let c = next(50) - 25;
                    ctx.push((next(3) as u32, c, c + next(12)));
                }
                for _ in 0..next(3) {
                    let f = next(40) - 20;
                    fillers.push((f, f + next(40)));
                }
            }
            _ => {
                // ~200 rows over ~3 200 positions: buckets of 16.
                for _ in 0..150 + next(100) {
                    let s = next(3200);
                    spans.push((s, s + next(20)));
                }
                for _ in 0..1 + next(6) {
                    let s = 16 * next(200) + 1 + next(14);
                    ctx.push((next(3) as u32, s, s + 16 * next(6) + 1 + next(14)));
                }
                for _ in 0..next(20) {
                    let f = next(3200);
                    fillers.push((f, f + 20));
                }
            }
        }
        (ctx, spans, fillers)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// Every candidate path counts as the nested loop does on the
        /// start directory's edge geometries.
        #[test]
        fn directory_edges_agree_with_the_nested_loop(
            kind in 0usize..5,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let mut seed = seed | 1;
            let mut next = |m: u64| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % m.max(1)) as i64
            };
            let (rows, spans, fillers) = directory_edge(kind, &mut next);
            agree(&ctx(&rows), &spans, &fillers);
        }
    }

    #[test]
    fn a_tripped_budget_stops_the_sweep() {
        let rows: Vec<(u32, i64, i64)> = (0..1000).map(|k| (0, 10 * k, 10 * k + 5)).collect();
        let context = ctx(&rows);
        let candidates = cands(&[(0, 1)]);
        let keys = Keys::of(&candidates);
        let candidates = Candidates {
            rows: &candidates,
            keys: &keys,
            reach: 0..1,
        };
        let budget = Budget::cancel_token();
        budget.cancel();
        for axis in [StandoffAxis::SelectNarrow, StandoffAxis::SelectWide] {
            let mut out = Vec::new();
            assert!(!select_counts(
                axis,
                &context,
                &candidates,
                1,
                Some(&budget),
                &mut out
            ));
            assert!(out.is_empty());
        }
    }
}
