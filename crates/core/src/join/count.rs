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
//! Every boundary is found by seeking forward from the previous one on
//! the table's stored `starts` column, four bytes a row: a near boundary
//! by stepping through the starts, a far one by a gallop from the row
//! the reach's density puts it at (`Candidates::seeker`), so a boundary
//! costs its distance in rows or the logarithm of the guess's error,
//! whichever is smaller. No directory of starts is derived. Ends are read only
//! in the `(M − w, M]` tail and in a gap's head, where a
//! [`KEY_BLOCK`]-row block whose largest end is before `a` is counted
//! whole without reading it. An iteration costs its contexts times the
//! logarithm of their gaps, plus the entries within `w` of a boundary.
//!
//! [`RegionIndex::max_extent`]: crate::index::RegionIndex::max_extent

use std::ops::Range;

use crate::budget::Budget;
use crate::index::{Table, KEY_BLOCK};
use crate::join::merge::{gallop, POLL_BLOCK};
use crate::join::{CtxEntry, StandoffAxis};

/// The candidates a count sweeps: the rows `reach` of a table — an
/// index's own, a posting or a gathered buffer — whose block ends and
/// extent bound it reads.
pub(crate) struct Candidates<'a> {
    pub table: Table<'a>,
    pub reach: Range<usize>,
}

impl Candidates<'_> {
    /// The seek of a sweep: the first row of `from..to` whose start is
    /// at least `pos`, or `to`. The reach's mean density of rows per
    /// position, found once per sweep, says how many rows ahead of
    /// `from` the row lies: fewer than [`NEAR_ROWS`], and the starts are
    /// stepped through from `from`, galloping on past twice that many;
    /// more, and the seek steps back from that guess by 1, 2, 4, … rows
    /// to one that starts before `pos` and gallops forward from there.
    /// On evenly spread starts — a token layer — the guess is a row or
    /// two off, so a far seek reads a cache line or two where a gallop
    /// from `from` reads one per doubling; on any spread a seek costs at
    /// most two gallops and `2 · NEAR_ROWS` steps.
    fn seeker(&self) -> impl Fn(usize, usize, i64) -> usize + '_ {
        let (rows, reach) = (self.table.rows, &self.reach);
        let span = match reach.len() {
            0 => 1,
            _ => (rows.starts[reach.end - 1] - rows.starts[reach.start]).max(1),
        };
        // Rows per position, as a fraction of 2³².
        let per_position = ((reach.len().saturating_sub(1) as u128) << 32) / span as u128;
        move |from: usize, to: usize, pos: i64| {
            let (starts, pos) = (&rows.starts[..to], rows.offset(pos));
            let before = |k: usize| (starts[k] as i64) < pos;
            if from >= to || !before(from) {
                return from;
            }
            let ahead = ((pos - starts[from] as i64).min(1 << 32) as u128 * per_position) >> 32;
            let (mut at, mut step) = (from + (ahead as usize).min(to - 1 - from), 1);
            if at - from < NEAR_ROWS {
                let near = (from + 2 * NEAR_ROWS).min(to);
                at = from + 1;
                while at < near && before(at) {
                    at += 1;
                }
                return if at < near {
                    at
                } else {
                    gallop(starts, at, |&s| (s as i64) < pos)
                };
            }
            while !before(at) {
                (at, step) = (at.saturating_sub(step).max(from), 2 * step);
            }
            gallop(starts, at, |&s| (s as i64) < pos)
        }
    }
}

/// Rows ahead a sweep's seek steps through rather than guesses.
const NEAR_ROWS: usize = 32;

/// For each iteration of `context`, the number of `candidates` the
/// select axis `axis` keeps, appended to `out` as `(iter, count)`.
///
/// `context` must be sorted on `(iter, start)`, `candidates` on start,
/// each candidate must be a distinct node, and the table's `max_extent`
/// must bound every candidate's `end − start`. Iterations come out ascending, each
/// once. The budget is polled once per [`POLL_BLOCK`] contexts; `false`
/// means it tripped and `out` is incomplete.
pub(crate) fn select_counts(
    axis: StandoffAxis,
    context: &[CtxEntry],
    candidates: &Candidates<'_>,
    budget: Option<&Budget>,
    out: &mut Vec<(u32, u64)>,
) -> bool {
    debug_assert!(axis.is_select());
    debug_assert!(context
        .windows(2)
        .all(|w| (w[0].iter, w[0].start) <= (w[1].iter, w[1].start)));
    debug_assert!(candidates.table.rows.starts.is_sorted());
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
            StandoffAxis::SelectNarrow => contained(group, candidates, &mut tripped),
            _ => overlapping(group, candidates, &mut tripped),
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
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let (rows, to) = (candidates.table.rows, candidates.reach.end);
    let (max_extent, seek) = (candidates.table.max_extent, candidates.seeker());
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
        at = seek(at, to, c.start);
        let past = seek(at, to, m.saturating_add(1).min(next));
        let (sure, m) = (rows.offset(m.saturating_sub(max_extent)), rows.offset(m));
        let out = (at..past)
            .rev()
            .take_while(|&k| rows.starts[k] as i64 > sure)
            .filter(|&k| rows.ends[k] as i64 > m)
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
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let to = candidates.reach.end;
    let (max_extent, seek) = (candidates.table.max_extent, candidates.seeker());
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
        at = seek(at, to, gap.max(a.saturating_sub(max_extent)));
        let inside = seek(at, to, a);
        let past = seek(inside, to, b.saturating_add(1));
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
    let table = &candidates.table;
    let a = table.rows.offset(a);
    let mut out = 0;
    let mut at = rows.start;
    while at < rows.end {
        let block = at / KEY_BLOCK;
        let to = ((block + 1) * KEY_BLOCK).min(rows.end);
        out += if (table.block_ends[block] as i64) < a {
            to - at
        } else {
            (table.rows.ends[at..to].iter())
                .filter(|&&e| (e as i64) < a)
                .count()
        };
        at = to;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{RegionEntry, RegionIndex, RowBuf};
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

    /// Span `n` as node `n`, clustered on start.
    fn cands(rows: &[(i64, i64)]) -> RegionIndex {
        let areas: Vec<(u32, Area)> = (rows.iter().enumerate())
            .map(|(n, &(start, end))| (n as u32, Area::single(start, end).unwrap()))
            .collect();
        RegionIndex::from_areas(&areas)
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
        candidates: &RegionIndex,
        max_extent: i64,
    ) -> Vec<(u32, u64)> {
        let table = Table {
            max_extent,
            ..candidates.table()
        };
        let candidates = Candidates {
            table,
            reach: 0..candidates.len(),
        };
        let mut out = Vec::new();
        assert!(select_counts(axis, context, &candidates, None, &mut out));
        out
    }

    /// Every way a count gets its candidates agrees with the nested loop
    /// over the `spans`, for both select axes and loose extent bounds:
    /// the index's own table over the context's reach, a name's posting
    /// in an index that also holds `fillers`, and the node-view gather
    /// of the spans' nodes from that index.
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
            let expected = brute(axis, context, &own.entries());
            let reach = |t: &Table| match axis {
                StandoffAxis::SelectNarrow => t.reach(from, to),
                _ => t.wide_reach(from, to),
            };
            let table = own.table();
            let mut gathered = RowBuf::default();
            mixed.gather_candidates(cs, reach(&mixed.table()), &mut gathered);
            let gathered = gathered.table(mixed.max_extent());
            let paths = [
                ("table", table, reach(&table)),
                ("posting", posting, reach(&posting)),
                ("gathered", gathered, 0..gathered.rows.len()),
            ];
            for (what, table, reach) in paths {
                // The extent bound may be loose: only its being an
                // upper bound matters.
                for slack in [0, 1, 7] {
                    let table = Table {
                        max_extent: table.max_extent + slack,
                        ..table
                    };
                    let candidates = Candidates {
                        table,
                        reach: reach.clone(),
                    };
                    let mut got = Vec::new();
                    assert!(select_counts(axis, context, &candidates, None, &mut got));
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
        assert_eq!(candidates.max_extent(), 4);
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
        let expected = brute(StandoffAxis::SelectWide, &context, &candidates.entries());
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

    /// A generated geometry at an edge of the seek — the context rows,
    /// candidate spans and fillers `agree` takes — drawn from `next`
    /// (`next(m)` is uniform in `[0, m)`):
    ///
    /// 0. runs of equal starts longer than a gallop's first steps, with
    ///    contexts starting on, inside and after them;
    /// 1. one row at 0 and the rest past 2³¹, so a seek gallops across
    ///    half the offsets a table holds;
    /// 2. negative starts, some rows crossing 0;
    /// 3. a single row;
    /// 4. a uniform layer whose contexts begin and end between rows, so
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
                let far = 1i64 << 31;
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
        /// seek's edge geometries.
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
        let index = cands(&[(0, 1)]);
        let candidates = Candidates {
            table: index.table(),
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
                Some(&budget),
                &mut out
            ));
            assert!(out.is_empty());
        }
    }
}
