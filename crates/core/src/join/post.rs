//! Post-processing of merge-join emissions (paper §4.5, "some
//! post-processing (omitted) occurs that maps these into node-ids, unique
//! and in document order per iter").
//!
//! * In the single-region (attribute) mode, a region match *is* an
//!   annotation match: map entries to node ids, then put them in
//!   document order (`document_order`) — usually without a sort.
//! * In the multi-region (element) mode, `select-narrow`'s ∀∃ semantics
//!   require every region of a candidate annotation to be contained in
//!   the *same* context annotation: group emissions by
//!   `(iter, context annotation, candidate annotation)` and check that
//!   all candidate regions were matched. (`select-wide` stays ∃∃ — any
//!   region match selects the annotation.)
//! * The reject axes are complements of their select counterparts over
//!   the candidate universe, computed per iteration of the scope.

use crate::index::{RegionEntry, RegionIndex};
use crate::join::{Emission, IterNode, JoinStats, StandoffAxis};

/// Turn raw emissions into the select-join result: `(iter, node)` pairs,
/// sorted and duplicate-free (document order per iteration).
///
/// `index` is the candidate-side region index the candidate entries were
/// drawn from, so every referenced annotation's full region set is
/// available for the ∀∃ check. A result that had to be reordered counts
/// in `stats.result_sorts`.
pub fn finalize_select(
    axis: StandoffAxis,
    emissions: &[Emission],
    candidates: &[RegionEntry],
    index: &RegionIndex,
    stats: &mut JoinStats,
) -> Vec<IterNode> {
    debug_assert!(axis.is_select());
    // Fast path: every annotation is a single region (always true in the
    // attribute representation), or overlap semantics (∃∃) — any region
    // match selects its annotation.
    if index.max_regions() <= 1 || axis == StandoffAxis::SelectWide {
        let out = emissions
            .iter()
            .map(|e| IterNode {
                iter: e.iter,
                node: candidates[e.cand_idx as usize].id,
            })
            .collect();
        return document_order(out, stats);
    }

    // Multi-region containment: a candidate annotation is selected in an
    // iteration iff SOME context annotation contains ALL of its regions.
    // Key each emission by (iter, ctx annotation, cand annotation, region
    // ordinal), deduplicate, then count ordinals per key prefix.
    let mut keyed: Vec<(u32, u32, u32, u32)> = emissions
        .iter()
        .map(|e| {
            let entry = candidates[e.cand_idx as usize];
            let ordinal = index
                .regions_of(entry.id)
                .binary_search_by_key(&(entry.start, entry.end), |r| (r.start, r.end))
                .expect("candidate entry comes from the index") as u32;
            (e.iter, e.ctx_node, entry.id, ordinal)
        })
        .collect();
    keyed.sort_unstable();
    keyed.dedup();

    let mut out: Vec<IterNode> = Vec::new();
    let mut k = 0;
    while k < keyed.len() {
        let (iter, ctx, cand, _) = keyed[k];
        let mut run = k;
        while run < keyed.len() {
            let (i2, c2, n2, _) = keyed[run];
            if (i2, c2, n2) != (iter, ctx, cand) {
                break;
            }
            run += 1;
        }
        if run - k == index.region_count(cand) {
            out.push(IterNode { iter, node: cand });
        }
        k = run;
    }
    document_order(out, stats)
}

/// Stable counting sort of `rows` on their iteration, every one of which
/// lies in `[lo, hi]`, into `out`: each iteration's rows keep their
/// order. `offsets` is scratch for the `hi − lo + 2` bucket bounds.
pub(crate) fn group_by_iter<T: Copy>(
    rows: &[T],
    iter: impl Fn(&T) -> u32,
    (lo, hi): (u32, u32),
    offsets: &mut Vec<u32>,
    out: &mut Vec<T>,
) {
    out.clear();
    let Some(&first) = rows.first() else {
        return;
    };
    offsets.clear();
    offsets.resize((hi - lo) as usize + 2, 0);
    for r in rows {
        offsets[(iter(r) - lo) as usize + 1] += 1;
    }
    for k in 1..offsets.len() {
        offsets[k] += offsets[k - 1];
    }
    out.resize(rows.len(), first);
    for r in rows {
        let slot = &mut offsets[(iter(r) - lo) as usize];
        out[*slot as usize] = *r;
        *slot += 1;
    }
}

/// `rows` sorted on `(iter, node)` and duplicate-free, by the first rule
/// that applies:
///
/// 1. already sorted — a flat layer's start order is its document
///    order: deduplicate only;
/// 2. one iteration whose id range `[lo, hi]` is at most 64 × the rows
///    — a nested layer, whose start order puts a parent before the
///    children that share its start: set a bit per row over the range
///    and read the bits back, one pass each way over a bitset no bigger
///    than the rows;
/// 3. several iterations whose range is at most twice the rows — a
///    loop-lifted join, whose start order interleaves the iterations: a
///    counting pass on `iter`, then a sort of only the iterations whose
///    rows are out of order;
/// 4. anything else: a comparison sort.
///
/// Rules 2–4 reorder the rows and count in `stats.result_sorts`.
fn document_order(mut rows: Vec<IterNode>, stats: &mut JoinStats) -> Vec<IterNode> {
    let Some(&first) = rows.first() else {
        return rows;
    };
    let mut sorted = true;
    let (mut lo, mut hi) = (first.node, first.node);
    let (mut lo_iter, mut hi_iter) = (first.iter, first.iter);
    let mut prev = first;
    for &r in &rows[1..] {
        sorted &= prev <= r;
        lo = lo.min(r.node);
        hi = hi.max(r.node);
        lo_iter = lo_iter.min(r.iter);
        hi_iter = hi_iter.max(r.iter);
        prev = r;
    }
    if sorted {
        rows.dedup();
        return rows;
    }
    stats.result_sorts += 1;
    let one_iter = lo_iter == hi_iter;
    let span = (hi - lo) as usize + 1;
    if one_iter && span / 64 <= rows.len() {
        let mut words = vec![0u64; span.div_ceil(64)];
        for r in &rows {
            let off = (r.node - lo) as usize;
            words[off / 64] |= 1 << (off % 64);
        }
        rows.clear();
        for (w, mut bits) in words.into_iter().enumerate() {
            while bits != 0 {
                let node = lo + (w * 64) as u32 + bits.trailing_zeros();
                rows.push(IterNode {
                    iter: first.iter,
                    node,
                });
                bits &= bits - 1;
            }
        }
        return rows;
    }
    if !one_iter && (hi_iter - lo_iter) as usize / 2 < rows.len() {
        let mut grouped = Vec::new();
        let iters = (lo_iter, hi_iter);
        group_by_iter(&rows, |r| r.iter, iters, &mut Vec::new(), &mut grouped);
        for run in grouped.chunk_by_mut(|a, b| a.iter == b.iter) {
            if !run.is_sorted() {
                run.sort_unstable();
            }
        }
        grouped.dedup();
        return grouped;
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Complement a select result against the candidate universe, per
/// iteration of the scope: the reject axes. `selected` must be sorted;
/// `universe` ascending node ids; `iter_domain` ascending iterations.
pub fn complement(selected: &[IterNode], universe: &[u32], iter_domain: &[u32]) -> Vec<IterNode> {
    debug_assert!(selected.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(universe.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::new();
    for &iter in iter_domain {
        let lo = selected.partition_point(|e| e.iter < iter);
        let hi = selected.partition_point(|e| e.iter <= iter);
        let taken = &selected[lo..hi];
        // Merge-difference: both sides ascending.
        let mut t = 0;
        for &node in universe {
            while t < taken.len() && taken[t].node < node {
                t += 1;
            }
            if t < taken.len() && taken[t].node == node {
                continue;
            }
            out.push(IterNode { iter, node });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RegionIndex;
    use crate::region::Area;

    fn entry(start: i64, end: i64, id: u32) -> RegionEntry {
        RegionEntry { start, end, id }
    }

    #[test]
    fn single_region_select_dedups_and_sorts() {
        let index = RegionIndex::from_areas(&[
            (5, Area::single(0, 10).unwrap()),
            (9, Area::single(20, 30).unwrap()),
        ]);
        let cands = vec![entry(0, 10, 5), entry(20, 30, 9)];
        let emissions = vec![
            Emission {
                iter: 1,
                ctx_node: 2,
                cand_idx: 1,
            },
            Emission {
                iter: 0,
                ctx_node: 2,
                cand_idx: 0,
            },
            Emission {
                iter: 0,
                ctx_node: 3,
                cand_idx: 0,
            }, // duplicate via other ctx
        ];
        let mut stats = JoinStats::default();
        let out = finalize_select(
            StandoffAxis::SelectNarrow,
            &emissions,
            &cands,
            &index,
            &mut stats,
        );
        assert_eq!(
            out,
            vec![IterNode { iter: 0, node: 5 }, IterNode { iter: 1, node: 9 }]
        );
        assert_eq!(stats.result_sorts, 1, "the rows arrived out of order");
    }

    #[test]
    fn multi_region_narrow_requires_all_regions_in_same_context() {
        // Candidate annotation 7 has two regions.
        let index = RegionIndex::from_areas(&[(
            7,
            Area::try_new(vec![
                crate::region::Region::new(0, 10).unwrap(),
                crate::region::Region::new(20, 30).unwrap(),
            ])
            .unwrap(),
        )]);
        let cands = vec![entry(0, 10, 7), entry(20, 30, 7)];

        // Context annotation 100 contains both regions → selected.
        let both = vec![
            Emission {
                iter: 0,
                ctx_node: 100,
                cand_idx: 0,
            },
            Emission {
                iter: 0,
                ctx_node: 100,
                cand_idx: 1,
            },
        ];
        assert_eq!(
            finalize_select(
                StandoffAxis::SelectNarrow,
                &both,
                &cands,
                &index,
                &mut JoinStats::default()
            ),
            vec![IterNode { iter: 0, node: 7 }]
        );

        // Two different contexts each contain one region → NOT selected
        // (∃a1 must contain all regions of a2).
        let split = vec![
            Emission {
                iter: 0,
                ctx_node: 100,
                cand_idx: 0,
            },
            Emission {
                iter: 0,
                ctx_node: 200,
                cand_idx: 1,
            },
        ];
        assert!(finalize_select(
            StandoffAxis::SelectNarrow,
            &split,
            &cands,
            &index,
            &mut JoinStats::default()
        )
        .is_empty());

        // Wide stays ∃∃: one region match suffices.
        let one = vec![Emission {
            iter: 0,
            ctx_node: 100,
            cand_idx: 1,
        }];
        assert_eq!(
            finalize_select(
                StandoffAxis::SelectWide,
                &one,
                &cands,
                &index,
                &mut JoinStats::default()
            ),
            vec![IterNode { iter: 0, node: 7 }]
        );
    }

    /// Each of `document_order`'s four rules — sorted input, one
    /// iteration over a dense id range, several dense iterations,
    /// anything else — answers like a sort with deduplication.
    #[test]
    fn document_order_is_sort_and_dedup_by_every_rule() {
        let rows = |pairs: &[(u32, u32)]| -> Vec<IterNode> {
            (pairs.iter())
                .map(|&(iter, node)| IterNode { iter, node })
                .collect()
        };
        let cases: [&[(u32, u32)]; 9] = [
            &[],
            &[(0, 7)],
            // Already sorted: deduplicated only.
            &[(0, 3), (0, 3), (0, 5), (1, 2), (1, 2)],
            // One iteration, a dense range: the bitset, across words.
            &[
                (4, 70),
                (4, 2),
                (4, 70),
                (4, 64),
                (4, 3),
                (4, 127),
                (4, 128),
            ],
            // One iteration, too sparse for a bitset.
            &[(0, 9), (0, 2), (0, 1_000_000)],
            // Several iterations, one of them out of order.
            &[(1, 2), (0, 5), (1, 1), (0, 5)],
            // Several iterations, each in order, interleaved.
            &[(2, 4), (0, 1), (2, 9), (1, 3), (0, 8), (1, 3)],
            // Several iterations, too sparse for a counting pass.
            &[(9, 1), (0, 2), (4_000_000, 3)],
            // The widest id range.
            &[(2, u32::MAX), (2, 0)],
        ];
        for case in cases {
            let mut expected = rows(case);
            let reordered = !expected.windows(2).all(|w| w[0] <= w[1]);
            expected.sort_unstable();
            expected.dedup();
            let mut stats = JoinStats::default();
            assert_eq!(document_order(rows(case), &mut stats), expected, "{case:?}");
            assert_eq!(stats.result_sorts, u64::from(reordered), "{case:?}");
        }
    }

    #[test]
    fn complement_per_iteration() {
        let selected = vec![IterNode { iter: 0, node: 2 }, IterNode { iter: 2, node: 4 }];
        let out = complement(&selected, &[2, 4, 6], &[0, 1, 2]);
        assert_eq!(
            out,
            vec![
                IterNode { iter: 0, node: 4 },
                IterNode { iter: 0, node: 6 },
                IterNode { iter: 1, node: 2 },
                IterNode { iter: 1, node: 4 },
                IterNode { iter: 1, node: 6 },
                IterNode { iter: 2, node: 2 },
                IterNode { iter: 2, node: 6 },
            ]
        );
    }

    #[test]
    fn complement_of_everything_is_empty() {
        let selected = vec![IterNode { iter: 0, node: 1 }, IterNode { iter: 0, node: 2 }];
        assert!(complement(&selected, &[1, 2], &[0]).is_empty());
    }

    #[test]
    fn complement_with_empty_selection_returns_universe() {
        let out = complement(&[], &[1, 2], &[5]);
        assert_eq!(
            out,
            vec![IterNode { iter: 5, node: 1 }, IterNode { iter: 5, node: 2 }]
        );
    }
}
