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
//! Every boundary is found by seeking forward from the previous one —
//! a short in-order scan, then a gallop — so an iteration costs its
//! contexts times a logarithm of the entries between them, plus the
//! entries within `w` of a boundary.
//!
//! [`RegionIndex::max_extent`]: crate::index::RegionIndex::max_extent

use crate::budget::Budget;
use crate::index::RegionEntry;
use crate::join::merge::{gallop_starts, POLL_BLOCK};
use crate::join::{CtxEntry, StandoffAxis};

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
    candidates: &[RegionEntry],
    max_extent: i64,
    budget: Option<&Budget>,
    out: &mut Vec<(u32, u64)>,
) -> bool {
    debug_assert!(axis.is_select());
    debug_assert!(context
        .windows(2)
        .all(|w| (w[0].iter, w[0].start) <= (w[1].iter, w[1].start)));
    debug_assert!(candidates.windows(2).all(|w| w[0].start <= w[1].start));
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
    candidates: &[RegionEntry],
    max_extent: i64,
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let mut count = 0u64;
    let mut at = 0usize;
    let mut reach = i64::MIN; // M: the largest end of the contexts so far
    for (k, c) in context.iter().enumerate() {
        if tripped() {
            return None;
        }
        reach = reach.max(c.end);
        // The step [c.start, next) of M: contexts sharing a start join
        // it before it is counted.
        let next = context.get(k + 1).map_or(i64::MAX, |d| d.start);
        if next == c.start {
            continue;
        }
        // The entries starting in [c.start, min(M, next − 1)]: all
        // contained but those of the last `w` that end past M.
        at = seek(candidates, at, c.start);
        let past = seek(candidates, at, reach.saturating_add(1).min(next));
        let sure = reach.saturating_sub(max_extent);
        let tail = candidates[at..past].iter().rev();
        let out = (tail.take_while(|e| e.start > sure))
            .filter(|e| e.end > reach)
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
    candidates: &[RegionEntry],
    max_extent: i64,
    tripped: &mut impl FnMut() -> bool,
) -> Option<u64> {
    let mut count = 0u64;
    let mut at = 0usize;
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
        // but those of the gap that end before `a`.
        at = seek(candidates, at, gap.max(a.saturating_sub(max_extent)));
        let past = seek(candidates, at, b.saturating_add(1));
        let head = candidates[at..past].iter();
        let out = (head.take_while(|e| e.start < a))
            .filter(|e| e.end < a)
            .count();
        count += (past - at - out) as u64;
        at = past;
        gap = b.saturating_add(1);
    }
    Some(count)
}

/// Entries a seek steps through in order before it gallops.
const SCAN: usize = 64;

/// First position at or after `from` whose candidate starts at or after
/// `target`. Between the boundaries of a dense layer's contexts lie
/// tens of entries, so the first [`SCAN`] are stepped through eight at a
/// time, in memory order, before galloping ([`gallop_starts`]): probing
/// ahead and back across a short run reads the same cache lines out of
/// order, and the sweep is bound by those reads.
fn seek(candidates: &[RegionEntry], from: usize, target: i64) -> usize {
    let mut at = from;
    for _ in 0..SCAN / 8 {
        let end = (at + 8).min(candidates.len());
        let block = &candidates[at..end];
        if end - at < 8 || block[7].start >= target {
            return at + block.partition_point(|e| e.start < target);
        }
        at = end;
    }
    gallop_starts(candidates, at, target)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut out = Vec::new();
        assert!(select_counts(
            axis, context, candidates, max_extent, None, &mut out
        ));
        out
    }

    fn agree(context: &[CtxEntry], candidates: &[RegionEntry]) {
        for axis in [StandoffAxis::SelectNarrow, StandoffAxis::SelectWide] {
            let expected = brute(axis, context, candidates);
            // The extent bound may be loose: only its being an upper
            // bound matters.
            for slack in [0, 1, 7] {
                let got = counts(axis, context, candidates, extent(candidates) + slack);
                assert_eq!(
                    got, expected,
                    "{axis}, slack {slack}: {context:?} {candidates:?}"
                );
            }
        }
    }

    #[test]
    fn edges_at_the_running_maximum_end() {
        // Context [10, 20], extent 4: M − w = 16.
        let context = ctx(&[(0, 10, 20)]);
        let candidates = cands(&[
            (10, 14), // start at x, contained
            (15, 19), // M − w − 1: contained without a check
            (16, 20), // M − w, ends exactly at M
            (17, 21), // M − w + 1, one past M
            (17, 20), // checked, ends at M
            (20, 20), // starts at M
            (21, 21), // after M
            (6, 10),  // before the context, touching it
            (5, 9),   // before the context, in the gap
        ]);
        assert_eq!(extent(&candidates), 4);
        assert_eq!(
            counts(StandoffAxis::SelectNarrow, &context, &candidates, 4),
            [(0, 5)]
        );
        assert_eq!(
            counts(StandoffAxis::SelectWide, &context, &candidates, 4),
            [(0, 7)]
        );
        agree(&context, &candidates);
    }

    #[test]
    fn overlapping_contexts_count_a_node_once() {
        // Overlapping, not nested, and a nested one; two iterations.
        let context = ctx(&[(0, 0, 20), (0, 10, 30), (0, 12, 14), (1, 10, 30)]);
        let candidates = cands(&[(2, 8), (12, 18), (15, 25), (22, 28), (5, 25), (29, 31)]);
        assert_eq!(
            counts(StandoffAxis::SelectNarrow, &context, &candidates, 20),
            [(0, 4), (1, 3)]
        );
        agree(&context, &candidates);
    }

    #[test]
    fn gaps_shorter_than_the_extent() {
        let context = ctx(&[(0, 0, 4), (0, 6, 9), (0, 11, 12), (2, 40, 41)]);
        let candidates = cands(&[
            (1, 7),
            (3, 5),
            (5, 5),
            (5, 10),
            (10, 10),
            (12, 20),
            (30, 39),
        ]);
        agree(&context, &candidates);
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
        for _ in 0..400 {
            let n_ctx = 1 + next(6) as usize;
            let n_cand = next(30) as usize;
            let rows: Vec<(u32, i64, i64)> = (0..n_ctx)
                .map(|_| {
                    let s = next(60);
                    (next(3) as u32, s, s + next(25))
                })
                .collect();
            let spans: Vec<(i64, i64)> = (0..n_cand)
                .map(|_| {
                    let s = next(80) - 10;
                    (s, s + next(12))
                })
                .collect();
            agree(&ctx(&rows), &cands(&spans));
        }
    }

    #[test]
    fn a_tripped_budget_stops_the_sweep() {
        let rows: Vec<(u32, i64, i64)> = (0..1000).map(|k| (0, 10 * k, 10 * k + 5)).collect();
        let context = ctx(&rows);
        let candidates = cands(&[(0, 1)]);
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
