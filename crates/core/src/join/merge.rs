//! The StandOff MergeJoin algorithms (paper §4.4–§4.5, Listing 1).
//!
//! Both joins merge a context table (sorted on region start) with the
//! candidate entries of the region index (clustered on start), keeping a
//! list of *active* context items sorted descending on their end value.
//! A context item stays active while it can still produce results
//! (`ctx.end ≥ current candidate.start` for `select-narrow`). Because
//! annotation regions — unlike XML tree regions — may overlap arbitrarily,
//! deletions can happen in the middle of the list ("so it really is a
//! list", §5); Structural Join and Staircase Join cannot be reused as-is.
//!
//! The *loop-lifted* variant (Listing 1) carries an `iter` column through
//! the merge so that one scan evaluates the step for every iteration of a
//! for-loop scope. The *basic* variant is the same merge run once per
//! iteration (the loop lives in `join::join_resolved`) — the paper's
//! experiments show this re-scanning is what makes XMark Q2 blow up
//! (Figure 6).
//!
//! ### Fidelity notes on Listing 1
//!
//! The paper's pseudo-code is reproduced here with three clarifications
//! that are required for correctness and for the printed Figure 4 trace to
//! be internally consistent:
//!
//! 1. the "skip self-overlapping regions" test (lines 11–18) skips a
//!    context item iff an **active item of the same iteration** already
//!    covers it — only then is its contribution a subset of existing
//!    results (Figure 4's input table lists `c3` under iter 1, but its
//!    step 4 "skip c3" is only semantics-preserving if `c3` shares iter 2
//!    with its covering context `c2`; we take the trace as authoritative);
//! 2. the candidate-analysis loop (lines 26–36) also ends when the active
//!    list becomes empty — otherwise Figure 4's step 8 (skipping `r3` at
//!    lines 21–24) could never be reached;
//! 3. `replace_active_items_with` (line 41) removes active items of the
//!    same iteration that the new item supersedes (their future results
//!    are a subset of the new item's) and inserts the new item keeping
//!    the list sorted descending on `end`.

use crate::index::RegionEntry;
use crate::join::{CtxEntry, Emission};
use crate::trace::{NoTrace, TraceEvent, TraceSink};

/// An entry of the active-items list.
#[derive(Clone, Copy, Debug)]
struct ActiveItem {
    iter: u32,
    node: u32,
    end: i64,
    /// Original context row (for trace labels).
    ctx_idx: u32,
}

/// Active item of the wide join: a context that starts at or before the
/// current candidate, so `end` alone decides whether it still overlaps.
#[derive(Clone, Copy, Debug)]
struct WideActive {
    iter: u32,
    node: u32,
    end: i64,
}

/// Reusable active-list buffers for the merge kernels. The lists are
/// cleared on entry, so a scratch instance can serve any number of joins
/// back to back; only the *capacity* survives between calls.
#[derive(Debug, Default)]
pub struct MergeScratch {
    narrow_active: Vec<ActiveItem>,
    wide_active: Vec<WideActive>,
    /// 64-candidate blocks processed by the branch-free single-active
    /// emission run (accumulated until [`MergeScratch::take_blocks`]).
    blocks: u64,
    /// Governance handle polled inside the merge loops so a deadline or
    /// cancellation interrupts a long scan mid-kernel, not only at
    /// operator boundaries. `None` (the default) costs one hoisted
    /// null test per loop round.
    pub(crate) budget: Option<crate::budget::Budget>,
}

impl MergeScratch {
    /// Take the accumulated branch-free block count, leaving zero.
    pub fn take_blocks(&mut self) -> u64 {
        std::mem::take(&mut self.blocks)
    }
}

/// Poll the optional budget; `true` means the query tripped and the
/// kernel must bail out (partial emissions are discarded with the query —
/// the evaluator re-checks the budget and surfaces the recorded reason).
#[inline]
fn tripped(budget: &Option<crate::budget::Budget>) -> bool {
    budget.as_ref().is_some_and(|b| b.poll().is_some())
}

/// Candidates per budget poll inside a merge loop — the 64-entry chunk
/// [`Budget::poll`](crate::budget::Budget::poll) is priced for.
pub(crate) const POLL_BLOCK: usize = 64;

/// Loop-lifted `select-narrow` merge join — Listing 1.
///
/// `context` must be sorted ascending on `start`; `candidates` is the
/// (possibly candidate-intersected) region index, clustered on start.
/// Produces raw `(iter, ctx_node, candidate)` matches; containment of each
/// candidate *region* in a context region of the same iteration.
///
/// Tracing is monomorphized away when disabled: pass [`NoTrace`] (or
/// `None` as the trace of [`crate::join::join_resolved`]).
pub fn ll_select_narrow(
    context: &[CtxEntry],
    candidates: &[RegionEntry],
    per_annotation: bool,
    trace: Option<&mut dyn TraceSink>,
) -> Vec<Emission> {
    let mut result = Vec::new();
    ll_select_narrow_into(
        context,
        candidates,
        per_annotation,
        trace,
        &mut MergeScratch::default(),
        &mut result,
    );
    result
}

/// [`ll_select_narrow`] with caller-provided buffers: emissions are
/// *appended* to `result` (the loop-lifted caller clears, the basic
/// caller accumulates across iterations), active-list storage comes from
/// `scratch`.
pub(crate) fn ll_select_narrow_into(
    context: &[CtxEntry],
    candidates: &[RegionEntry],
    per_annotation: bool,
    trace: Option<&mut dyn TraceSink>,
    scratch: &mut MergeScratch,
    result: &mut Vec<Emission>,
) {
    match trace {
        Some(t) => ll_select_narrow_impl(context, candidates, per_annotation, t, scratch, result),
        None => ll_select_narrow_impl(
            context,
            candidates,
            per_annotation,
            NoTrace,
            scratch,
            result,
        ),
    }
}

fn ll_select_narrow_impl<T: TraceSink>(
    context: &[CtxEntry],
    candidates: &[RegionEntry],
    per_annotation: bool,
    mut trace: T,
    scratch: &mut MergeScratch,
    result: &mut Vec<Emission>,
) {
    debug_assert!(context.windows(2).all(|w| w[0].start <= w[1].start));
    debug_assert!(candidates.windows(2).all(|w| w[0].start <= w[1].start));
    if context.is_empty() || candidates.is_empty() {
        return;
    }

    let budget = scratch.budget.clone();
    let active: &mut Vec<ActiveItem> = &mut scratch.narrow_active;
    active.clear();
    let mut i = 0usize; // iterates over context
    let mut j = 0usize; // iterates over candidates
    let mut poll_at = 0usize; // next candidate position that polls

    // line 8: seed the list with the first context item.
    insert_active(active, &context[0], 0, per_annotation, &mut trace, 8);

    while i < context.len() {
        if tripped(&budget) {
            return;
        }
        // lines 11-18: skip context items covered by an active item of
        // the same iteration — they cannot yield additional results.
        let mut next_i = i + 1;
        while next_i < context.len() {
            let c = &context[next_i];
            // A context item is covered when an active item of the same
            // iteration spans it; in per-annotation mode (multi-region ∀∃
            // post-processing) the evidence must stay attributable, so
            // only entries of the same annotation may shadow each other.
            let covered = active.iter().any(|a| {
                a.iter == c.iter && a.end >= c.end && (!per_annotation || a.node == c.node)
            });
            if covered {
                trace.event(TraceEvent::SkipContext { ctx: next_i as u32 });
                next_i += 1;
            } else {
                break;
            }
        }
        // lines 19-20: if we ran out of context items the next context
        // starts infinitely far away.
        let next_start = if next_i < context.len() {
            context[next_i].start
        } else {
            i64::MAX
        };
        // lines 21-24: fast-forward over candidates that start before the
        // current context item (possible after the active list drained).
        // Untraced runs gallop (one compare when there is nothing to
        // skip, O(log gap) for a long run) instead of stepping one
        // candidate at a time; traced runs keep the per-candidate events
        // Figure 4 prints.
        if trace.enabled() {
            while j < candidates.len() && candidates[j].start < context[i].start {
                trace.event(TraceEvent::SkipCandidateBefore { cand: j as u32 });
                j += 1;
            }
        } else {
            j = gallop_starts(candidates, j, context[i].start);
        }
        // lines 26-36: analyze candidates until the next context item
        // must enter the list (or the active list drains). Each round is
        // one candidate (general path) or one galloped emission run (fast
        // path); the budget is polled once the rounds have consumed a
        // block of candidates since the last poll, so governed work is
        // bounded without a poll per candidate and without a
        // data-dependent branch inside the 64-wide match masks.
        while j < candidates.len() && candidates[j].start < next_start {
            if j >= poll_at {
                if tripped(&budget) {
                    return;
                }
                poll_at = j + POLL_BLOCK;
            }
            // Branch-free fast path for the dominant shape (flat layouts
            // keep exactly one item active): the run of candidates this
            // item survives is bounded by two monotone conditions —
            // `start < next_start` (loop bound) and `start ≤ active.end`
            // (the line 28-31 trim) — so one partition point delimits it,
            // and within the run the only per-candidate decision is the
            // emission test `cand.end ≤ active.end`, evaluated as 64-wide
            // match masks with no data-dependent branches. Equivalent to
            // the general loop below: no trim fires inside the run, the
            // descending-ends emission scan degenerates to the single
            // test, and a candidate past the run that still precedes
            // `next_start` is exactly the list-drain break (clarif. 2).
            if active.len() == 1 && !trace.enabled() {
                let a = active[0];
                let bound = next_start.min(a.end.saturating_add(1));
                if candidates[j].start >= bound {
                    // Empty run: the loop bound admits this candidate but
                    // the sole active item ended before it starts — the
                    // line 28-31 trim kills the item and the list drains.
                    // One comparison, same as the general loop's trim.
                    active.clear();
                    break;
                }
                // Gallop, not bisect: the run is usually much shorter
                // than the candidate tail, so the doubling search costs
                // O(log run), not O(log remaining).
                let hi = gallop_starts(candidates, j, bound);
                emit_contained_run(
                    &candidates[j..hi],
                    j as u32,
                    &a,
                    result,
                    &mut scratch.blocks,
                );
                j = hi;
                if j < candidates.len() && candidates[j].start < next_start {
                    // The sole active item ended before this candidate
                    // starts: trim kills it and the list drains.
                    active.clear();
                    break;
                }
                continue;
            }
            let cand = &candidates[j];
            // lines 28-31: trim active items that ended before this
            // candidate starts (list is sorted descending on end, so they
            // sit at the back).
            while let Some(last) = active.last() {
                if last.end < cand.start {
                    trace.event(TraceEvent::RemoveActive { ctx: last.ctx_idx });
                    active.pop();
                } else {
                    break;
                }
            }
            if active.is_empty() {
                break; // clarification 2: resume with the next context item
            }
            // lines 32-34: all active items with end ≥ cand.end contain
            // the candidate (their start ≤ cand.start by merge order).
            let mut emitted = false;
            for a in active.iter() {
                if a.end < cand.end {
                    break; // descending ends: nothing further contains it
                }
                result.push(Emission {
                    iter: a.iter,
                    ctx_node: a.node,
                    cand_idx: j as u32,
                });
                trace.event(TraceEvent::Emit {
                    iter: a.iter,
                    cand: j as u32,
                });
                emitted = true;
            }
            if !emitted {
                trace.event(TraceEvent::SkipCandidateNoMatch { cand: j as u32 });
            }
            j += 1;
        }
        // lines 37-38: all candidates consumed.
        if j == candidates.len() {
            trace.event(TraceEvent::Exit);
            break;
        }
        // lines 40-41: move to the next context item and add it.
        i = next_i;
        if i < context.len() {
            insert_active(
                active,
                &context[i],
                i as u32,
                per_annotation,
                &mut trace,
                41,
            );
        }
    }
}

/// First position at or after `from` whose candidate starts at or after
/// `target` ([`gallop`]).
#[inline]
pub(crate) fn gallop_starts(candidates: &[RegionEntry], from: usize, target: i64) -> usize {
    gallop(candidates, from, |c| c.start < target)
}

/// First position at or after `from` whose item is not `before` (which
/// must hold on a prefix of `items[from..]`) — exponential probe
/// bracketing a binary search, so the common no-skip case costs a single
/// comparison and a run of `s` skippable items costs `O(log s)` instead
/// of `s` steps.
#[inline]
fn gallop<T>(items: &[T], from: usize, before: impl Fn(&T) -> bool) -> usize {
    let mut step = 1usize;
    let mut hi = from;
    while hi < items.len() && before(&items[hi]) {
        hi += step;
        step *= 2;
    }
    let lo = hi - step / 2; // last probe known `before` (or `from`)
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(before)
}

/// The branch-free emission kernel of the single-active fast path: for
/// each 64-candidate block, build a match bitmask from the containment
/// test (`cand.end ≤ active.end`; `start ≥ active.start` holds by merge
/// order) with a data-independent inner loop, then pop set bits in order.
#[inline]
fn emit_contained_run(
    run: &[RegionEntry],
    base_idx: u32,
    a: &ActiveItem,
    result: &mut Vec<Emission>,
    blocks: &mut u64,
) {
    let mut idx = base_idx;
    for chunk in run.chunks(64) {
        *blocks += 1;
        let mut mask = 0u64;
        for (k, c) in chunk.iter().enumerate() {
            mask |= ((c.end <= a.end) as u64) << k;
        }
        while mask != 0 {
            result.push(Emission {
                iter: a.iter,
                ctx_node: a.node,
                cand_idx: idx + mask.trailing_zeros(),
            });
            mask &= mask - 1;
        }
        idx += chunk.len() as u32;
    }
}

/// `replace_active_items_with` (Listing 1 line 41 / line 8): remove
/// same-iteration items the new context supersedes, then insert keeping
/// the list sorted descending on `end`.
fn insert_active<T: TraceSink>(
    active: &mut Vec<ActiveItem>,
    c: &CtxEntry,
    ctx_idx: u32,
    per_annotation: bool,
    trace: &mut T,
    line: u8,
) {
    // Same-iteration items with end ≤ new end were added earlier (start ≤
    // new start), so every future result they produce, the new item
    // produces too. Deleting them keeps the list short; note this deletes
    // from the middle — the "list, not stack" remark of §5. In
    // per-annotation mode only entries of the same annotation may be
    // superseded (disjoint regions of one area never supersede anyway,
    // so this retains everything in practice).
    active
        .retain(|a| !(a.iter == c.iter && a.end <= c.end && (!per_annotation || a.node == c.node)));
    let pos = active.partition_point(|a| a.end >= c.end);
    active.insert(
        pos,
        ActiveItem {
            iter: c.iter,
            node: c.node,
            end: c.end,
            ctx_idx,
        },
    );
    trace.event(TraceEvent::AddActive { ctx: ctx_idx, line });
}

/// Loop-lifted `select-wide` merge join: overlap instead of containment.
///
/// A context region overlaps candidate `[s, e]` iff it starts at or
/// before `e` and ends at or after `s`. The scan splits that set on the
/// context's start, so every context it touches is a match:
///
/// * contexts starting at or before `s` live in the active list (sorted
///   descending on `end`, at most one item per iteration — the one
///   reaching furthest right, which overlaps whatever the others would).
///   Candidate starts are monotone, so items that ended before `s` are
///   trimmed for good, and everything left overlaps the candidate;
/// * contexts starting inside `(s, e]` overlap it by construction. They
///   are matched by a look-ahead over the start-sorted context slice but
///   not admitted: a wide candidate must not park contexts that later,
///   narrower candidates would have to walk past.
///
/// Total work is O(contexts + candidates + matches) over the reach: the
/// loop-lifted caller passes only the entries that start inside its
/// context's extent widened by the index's largest extent.
pub fn ll_select_wide(context: &[CtxEntry], candidates: &[RegionEntry]) -> Vec<Emission> {
    let mut result = Vec::new();
    ll_select_wide_into(
        context,
        candidates,
        &mut MergeScratch::default(),
        &mut result,
    );
    result
}

/// [`ll_select_wide`] with caller-provided buffers; emissions are
/// *appended* to `result`.
pub(crate) fn ll_select_wide_into(
    context: &[CtxEntry],
    candidates: &[RegionEntry],
    scratch: &mut MergeScratch,
    result: &mut Vec<Emission>,
) {
    debug_assert!(context.windows(2).all(|w| w[0].start <= w[1].start));
    debug_assert!(candidates.windows(2).all(|w| w[0].start <= w[1].start));
    if context.is_empty() || candidates.is_empty() {
        return;
    }

    let budget = scratch.budget.clone();
    let active: &mut Vec<WideActive> = &mut scratch.wide_active;
    active.clear();
    let mut i = 0usize; // first context starting after every candidate start so far

    for (j, cand) in candidates.iter().enumerate() {
        if j % POLL_BLOCK == 0 && tripped(&budget) {
            return;
        }
        // Admit the contexts that start at or before this candidate.
        while i < context.len() && context[i].start <= cand.start {
            let c = &context[i];
            i += 1;
            if c.end < cand.start {
                continue; // over before this and every later candidate starts
            }
            // One item per iteration: the earlier one either reaches at
            // least as far (the new context adds nothing) or is superseded.
            if let Some(k) = active.iter().position(|a| a.iter == c.iter) {
                if active[k].end >= c.end {
                    continue;
                }
                active.remove(k);
            }
            let pos = active.partition_point(|a| a.end >= c.end);
            active.insert(
                pos,
                WideActive {
                    iter: c.iter,
                    node: c.node,
                    end: c.end,
                },
            );
        }
        // Trim items that ended before this candidate starts.
        while active.last().is_some_and(|a| a.end < cand.start) {
            active.pop();
        }
        // Only the (iter, candidate) pair survives post-processing, so a
        // run of matches from one iteration is emitted once.
        let mut last_iter = None;
        let mut emit = |iter: u32, node: u32| {
            if last_iter != Some(iter) {
                last_iter = Some(iter);
                result.push(Emission {
                    iter,
                    ctx_node: node,
                    cand_idx: j as u32,
                });
            }
        };
        for a in active.iter() {
            emit(a.iter, a.node);
        }
        for c in context[i..].iter().take_while(|c| c.start <= cand.end) {
            emit(c.iter, c.node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rows: &[(u32, i64, i64)]) -> Vec<CtxEntry> {
        let mut v: Vec<CtxEntry> = rows
            .iter()
            .enumerate()
            .map(|(n, &(iter, start, end))| CtxEntry {
                iter,
                node: n as u32,
                start,
                end,
            })
            .collect();
        v.sort_by_key(|c| (c.start, c.end));
        v
    }

    fn cands(rows: &[(i64, i64)]) -> Vec<RegionEntry> {
        let mut v: Vec<RegionEntry> = rows
            .iter()
            .enumerate()
            .map(|(n, &(start, end))| RegionEntry {
                start,
                end,
                id: 1000 + n as u32,
            })
            .collect();
        v.sort_by_key(|e| (e.start, e.end));
        v
    }

    /// (iter, candidate id) pairs, sorted, deduplicated.
    fn narrow_pairs(context: &[CtxEntry], candidates: &[RegionEntry]) -> Vec<(u32, u32)> {
        let mut p: Vec<(u32, u32)> = ll_select_narrow(context, candidates, false, None)
            .into_iter()
            .map(|e| (e.iter, candidates[e.cand_idx as usize].id))
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    fn wide_pairs(context: &[CtxEntry], candidates: &[RegionEntry]) -> Vec<(u32, u32)> {
        let mut p: Vec<(u32, u32)> = ll_select_wide(context, candidates)
            .into_iter()
            .map(|e| (e.iter, candidates[e.cand_idx as usize].id))
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    #[test]
    fn listing1_example_input() {
        // The Figure 4 input (c3 in iteration 2; see module docs).
        let context = ctx(&[(1, 0, 15), (2, 12, 35), (2, 20, 30), (1, 55, 80)]);
        let candidates = cands(&[(5, 10), (22, 45), (40, 60), (65, 70)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(1, 1000), (1, 1003)],
            "r1 ⊂ c1 (iter 1), r4 ⊂ c4 (iter 1); r2, r3 contained nowhere"
        );
    }

    #[test]
    fn narrow_boundary_containment() {
        let context = ctx(&[(0, 10, 20)]);
        let candidates = cands(&[(10, 20), (10, 21), (9, 20), (15, 15)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(0, 1000), (0, 1003)],
            "exact bounds contained; either side out by one is not"
        );
    }

    #[test]
    fn wide_boundary_overlap() {
        let context = ctx(&[(0, 10, 20)]);
        let candidates = cands(&[(0, 9), (0, 10), (20, 30), (21, 30), (0, 100)]);
        assert_eq!(
            wide_pairs(&context, &candidates),
            vec![(0, 1001), (0, 1002), (0, 1004)],
            "endpoint-sharing overlaps; disjoint neighbours do not"
        );
    }

    #[test]
    fn overlapping_contexts_both_match() {
        // Overlapping (not nested) same-iter contexts: both must count.
        let context = ctx(&[(0, 0, 20), (0, 10, 30)]);
        let candidates = cands(&[(2, 8), (12, 18), (22, 28)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(0, 1000), (0, 1001), (0, 1002)]
        );
    }

    #[test]
    fn nested_same_iter_context_is_skipped_but_results_kept() {
        // Inner context nested in outer of the SAME iteration: skipping it
        // must not change results.
        let context = ctx(&[(0, 0, 100), (0, 10, 20)]);
        let candidates = cands(&[(12, 18), (50, 60)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(0, 1000), (0, 1001)]
        );
    }

    #[test]
    fn nested_context_different_iters_not_skipped() {
        // Same geometry, different iterations: iteration 1's inner context
        // must still produce its own result.
        let context = ctx(&[(0, 0, 100), (1, 10, 20)]);
        let candidates = cands(&[(12, 18), (50, 60)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(0, 1000), (0, 1001), (1, 1000)]
        );
    }

    #[test]
    fn iterations_are_independent() {
        let context = ctx(&[(0, 0, 10), (1, 20, 30)]);
        let candidates = cands(&[(2, 4), (22, 24)]);
        assert_eq!(
            narrow_pairs(&context, &candidates),
            vec![(0, 1000), (1, 1001)]
        );
        assert_eq!(
            wide_pairs(&context, &candidates),
            vec![(0, 1000), (1, 1001)]
        );
    }

    #[test]
    fn empty_inputs() {
        let context = ctx(&[(0, 0, 10)]);
        let candidates = cands(&[(0, 5)]);
        assert!(ll_select_narrow(&[], &candidates, false, None).is_empty());
        assert!(ll_select_narrow(&context, &[], false, None).is_empty());
        assert!(ll_select_wide(&[], &candidates).is_empty());
        assert!(ll_select_wide(&context, &[]).is_empty());
    }

    #[test]
    fn wide_keeps_long_straddling_context_alive() {
        // A context spanning far right must still match candidates that
        // appear after many shorter contexts have been trimmed.
        let context = ctx(&[(0, 0, 1000), (0, 5, 6), (0, 7, 8)]);
        let candidates = cands(&[(900, 950)]);
        assert_eq!(wide_pairs(&context, &candidates), vec![(0, 1000)]);
        assert_eq!(narrow_pairs(&context, &candidates), vec![(0, 1000)]);
    }

    #[test]
    fn wide_context_added_by_candidate_end() {
        // Candidate [0, 50] overlaps a context starting at 40 — the
        // context enters the active list because cand.end ≥ ctx.start,
        // even though cand.start < ctx.start.
        let context = ctx(&[(0, 40, 60)]);
        let candidates = cands(&[(0, 50), (0, 30)]);
        assert_eq!(wide_pairs(&context, &candidates), vec![(0, 1000)]);
    }

    /// Both kernels poll once per 64-candidate block — the wide one in
    /// its candidate loop, the narrow one in its multi-active path (two
    /// iterations keep two items active). A cancelled budget is seen at
    /// the first block boundary; an expired deadline at the first clock
    /// read, which [`Budget::poll`](crate::budget::Budget::poll) makes
    /// once per `POLL_STRIDE` polls — so within that many blocks, not at
    /// the end of the scan.
    #[test]
    fn a_tripped_budget_stops_the_kernels_within_its_poll_blocks() {
        use crate::budget::{Budget, BudgetLimits, POLL_STRIDE};
        let context = ctx(&[(0, 0, 1_000_000), (1, 0, 1_000_000)]);
        let spans: Vec<(i64, i64)> = (0..20_000).map(|k| (10 * k, 10 * k + 5)).collect();
        let candidates = cands(&spans);
        let scratch = |budget| MergeScratch {
            budget,
            ..MergeScratch::default()
        };
        let wide = |budget: Option<Budget>| {
            let mut out = Vec::new();
            ll_select_wide_into(&context, &candidates, &mut scratch(budget), &mut out);
            out.len()
        };
        let narrow = |budget: Option<Budget>| {
            let mut out = Vec::new();
            let mut s = scratch(budget);
            ll_select_narrow_into(&context, &candidates, false, None, &mut s, &mut out);
            out.len()
        };
        let cancelled = || {
            let b = Budget::cancel_token();
            b.cancel();
            Some(b)
        };
        let expired = || {
            Some(Budget::new(BudgetLimits {
                deadline: Some(std::time::Duration::ZERO),
                ..BudgetLimits::default()
            }))
        };
        assert_eq!((wide(None), narrow(None)), (40_000, 40_000));
        // Two emissions (one per iteration) per candidate.
        let block = 2 * POLL_BLOCK;
        assert!(wide(cancelled()) <= block && narrow(cancelled()) <= block);
        let stride = block * POLL_STRIDE as usize;
        assert!(wide(expired()) <= stride && narrow(expired()) <= stride);
    }

    #[test]
    fn identical_regions_contain_each_other() {
        let context = ctx(&[(0, 5, 10)]);
        let candidates = cands(&[(5, 10)]);
        assert_eq!(narrow_pairs(&context, &candidates), vec![(0, 1000)]);
        assert_eq!(wide_pairs(&context, &candidates), vec![(0, 1000)]);
    }
}
