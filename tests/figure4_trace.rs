//! Reproduces Figure 4: the execution trace of the loop-lifted StandOff
//! MergeJoin (Listing 1) on the paper's 4-context / 4-candidate input.
//!
//! The paper's 10 numbered steps (step 6 performs two actions) map to 11
//! trace events; the expected sequence below mirrors the figure's right
//! column, with the same Listing 1 line numbers.

use standoff::core::join::merge::ll_select_narrow;
use standoff::core::join::CtxEntry;
use standoff::core::{Area, RegionIndex, TraceEvent, VecTrace};
use standoff::fixtures::{FIGURE4_CANDIDATES, FIGURE4_CONTEXT};

fn figure4_inputs() -> (Vec<CtxEntry>, RegionIndex) {
    let mut context: Vec<CtxEntry> = FIGURE4_CONTEXT
        .iter()
        .enumerate()
        .map(|(k, &(iter, start, end))| CtxEntry {
            iter,
            node: k as u32, // c1..c4 by input position
            start,
            end,
        })
        .collect();
    context.sort_by_key(|c| (c.start, c.end));
    let candidates: Vec<(u32, Area)> = FIGURE4_CANDIDATES
        .iter()
        .enumerate()
        .map(|(k, &(start, end))| (k as u32, Area::single(start, end).unwrap())) // r1..r4
        .collect();
    (context, RegionIndex::from_areas(&candidates))
}

#[test]
fn figure4_trace_reproduces_all_ten_steps() {
    let (context, candidates) = figure4_inputs();
    let mut trace = VecTrace::default();
    let candidates = candidates.table().rows;
    let emissions = ll_select_narrow(&context, candidates, false, Some(&mut trace));

    use TraceEvent::*;
    // ctx indices refer to the start-sorted context: 0=c1, 1=c2, 2=c3,
    // 3=c4; cand indices: 0=r1 .. 3=r4.
    let expected = vec![
        AddActive { ctx: 0, line: 8 },    // step 1: add c1 (line 8)
        Emit { iter: 1, cand: 0 },        // step 2: (iter1, r1) (lines 32-34)
        AddActive { ctx: 1, line: 41 },   // step 3: push c2 (line 41)
        SkipContext { ctx: 2 },           // step 4: skip c3 (lines 11-18)
        RemoveActive { ctx: 0 },          // step 5: remove c1 (line 31)
        SkipCandidateNoMatch { cand: 1 }, // step 6a: skip r2 (lines 32-35)
        RemoveActive { ctx: 1 },          // step 6b: remove c2 (line 31)
        AddActive { ctx: 3, line: 41 },   // step 7: add c4 (line 41)
        SkipCandidateBefore { cand: 2 },  // step 8: skip r3 (lines 21-24)
        Emit { iter: 1, cand: 3 },        // step 9: (iter1, r4) (lines 32-34)
        Exit,                             // step 10: exit (line 38)
    ];
    assert_eq!(trace.events, expected);

    // And the join's result matches the figure: (iter1, r1), (iter1, r4).
    let pairs: Vec<(u32, u32)> = emissions
        .iter()
        .map(|e| (e.iter, candidates.ids[e.cand_idx as usize]))
        .collect();
    assert_eq!(pairs, vec![(1, 0), (1, 3)]);
}

#[test]
fn figure4_without_tracing_gives_same_result() {
    let (context, candidates) = figure4_inputs();
    let candidates = candidates.table().rows;
    let traced = {
        let mut t = VecTrace::default();
        ll_select_narrow(&context, candidates, false, Some(&mut t))
    };
    let untraced = ll_select_narrow(&context, candidates, false, None);
    assert_eq!(traced, untraced);
}

#[test]
fn figure4_active_list_never_exceeds_two() {
    // The figure's left column shows at most two simultaneous active
    // items; verify via the add/remove event balance.
    let (context, candidates) = figure4_inputs();
    let mut trace = VecTrace::default();
    ll_select_narrow(&context, candidates.table().rows, false, Some(&mut trace));
    let mut active = 0i32;
    let mut max_active = 0;
    for e in &trace.events {
        match e {
            TraceEvent::AddActive { .. } => active += 1,
            TraceEvent::RemoveActive { .. } => active -= 1,
            _ => {}
        }
        max_active = max_active.max(active);
    }
    assert_eq!(max_active, 2);
}
