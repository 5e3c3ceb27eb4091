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
//! * A step whose first predicate picks by rank ([`Rank`]) hands the
//!   pick to the join ([`RankPick`]): for `[1]` and `[last()]`,
//!   single-region emissions go through one pass into per-iteration
//!   slots, so only the kept rows are ever materialized — never grouped
//!   or sorted whole. Every other result is picked from once it is in
//!   document order.

use crate::index::{RegionIndex, Rows};
use crate::join::{Emission, IterNode, JoinStats, StandoffAxis};

/// A predicate that keeps one row by its position in each iteration's
/// document-ordered run: `[k]` for a constant integer `k`, or
/// `[last()]`. Under loop-lifting a position is a property of the run
/// (§4.5), so the pick needs no per-row scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    Nth(i64),
    Last,
}

impl Rank {
    /// The rows kept of a table with columns `iters` (grouped by
    /// iteration) and `values`: the rank-th row of every run of equal
    /// iterations that has one.
    pub fn pick<V: Clone>(self, iters: &[u32], values: &[V]) -> (Vec<u32>, Vec<V>) {
        let (mut kept_iters, mut kept) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start < iters.len() {
            let run = (iters[start..].iter())
                .take_while(|&&i| i == iters[start])
                .count();
            let row = match self {
                Rank::Nth(k) => (k >= 1 && k as usize <= run).then(|| k as usize - 1),
                Rank::Last => Some(run - 1),
            };
            if let Some(row) = row {
                kept_iters.push(iters[start + row]);
                kept.push(values[start + row].clone());
            }
            start += run;
        }
        (kept_iters, kept)
    }

    /// The rows of a run of `run` rows a pick over any union that holds
    /// the run can take: its first `k` for `[k]` (none for `k < 1`), its
    /// last for `[last()]`.
    fn within(self, run: usize) -> std::ops::Range<usize> {
        match self {
            Rank::Nth(k) => 0..k.clamp(0, run as i64) as usize,
            Rank::Last => run.saturating_sub(1)..run,
        }
    }
}

/// A pick by rank fused into a select join: per iteration, a target
/// keeps only the rows the pick can take from the document-ordered
/// union of every target's rows ([`Rank`]'s candidates), so the caller
/// merges the targets' kept rows and picks once. `selected` counts the
/// rows the join selected before the pick, summed over the targets —
/// what the predicate is metered on.
#[derive(Clone, Copy, Debug)]
pub struct RankPick {
    pub rank: Rank,
    pub selected: u64,
}

impl RankPick {
    pub fn new(rank: Rank) -> RankPick {
        RankPick { rank, selected: 0 }
    }

    /// The rank candidates of `rows`, sorted and duplicate-free.
    fn keep_sorted(&mut self, rows: Vec<IterNode>) -> Vec<IterNode> {
        self.selected += rows.len() as u64;
        let mut out = Vec::new();
        for run in rows.chunk_by(|a, b| a.iter == b.iter) {
            out.extend_from_slice(&run[self.rank.within(run.len())]);
        }
        out
    }

    /// The rank candidates of single-region emissions — each candidate
    /// entry one annotation — for `[1]` and `[last()]`, without putting
    /// the emissions in document order. One pass counts every
    /// iteration's distinct rows into its slot and keeps the least or
    /// greatest node: a kernel emits an iteration's matches in candidate
    /// order, so a repeated row repeats its slot's last entry. `None`
    /// for any other rank, and when the iterations spread too thin for
    /// slots (the rule `document_order` uses for its counting pass).
    fn keep_emitted(
        &mut self,
        emissions: &[Emission],
        candidates: Rows<'_>,
    ) -> Option<Vec<IterNode>> {
        if !matches!(self.rank, Rank::Nth(1) | Rank::Last) {
            return None;
        }
        let (lo, hi) = (emissions.iter()).fold((u32::MAX, 0), |(lo, hi), e| {
            (lo.min(e.iter), hi.max(e.iter))
        });
        if emissions.is_empty() || (hi - lo) as usize / 2 >= emissions.len() {
            return emissions.is_empty().then(Vec::new);
        }
        let node_of = |e: &Emission| candidates.ids[e.cand_idx as usize];
        // Per iteration: the last candidate entry counted, plus one (0
        // for none yet), and the node kept.
        let mut slots = vec![(0u32, 0u32); (hi - lo) as usize + 1];
        let before = self.selected;
        for e in emissions {
            let slot = &mut slots[(e.iter - lo) as usize];
            if slot.0 == e.cand_idx + 1 {
                continue;
            }
            let (fresh, node) = (slot.0 == 0, node_of(e));
            slot.0 = e.cand_idx + 1;
            self.selected += 1;
            let better = if self.rank == Rank::Last {
                node > slot.1
            } else {
                node < slot.1
            };
            if fresh || better {
                slot.1 = node;
            }
        }
        debug_assert_eq!(self.selected - before, {
            let mut rows: Vec<(u32, u32)> =
                emissions.iter().map(|e| (e.iter, node_of(e))).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len() as u64
        });
        let slotted = slots.iter().enumerate().filter(|(_, s)| s.0 != 0);
        Some(
            slotted
                .map(|(k, &(_, node))| IterNode {
                    iter: lo + k as u32,
                    node,
                })
                .collect(),
        )
    }
}

/// `rows`, sorted and duplicate-free, or `pick`'s rank candidates of
/// them when there is one.
pub(crate) fn keep_picked(pick: Option<&mut RankPick>, rows: Vec<IterNode>) -> Vec<IterNode> {
    match pick {
        Some(p) => p.keep_sorted(rows),
        None => rows,
    }
}

/// Turn raw emissions into the select-join result: `(iter, node)` pairs,
/// sorted and duplicate-free (document order per iteration) — or, with
/// a `pick`, only its rank candidates of them ([`RankPick`]).
///
/// `index` is the candidate-side region index the candidate entries were
/// drawn from, so every referenced annotation's full region set is
/// available for the ∀∃ check. A result that had to be reordered counts
/// in `stats.result_sorts`; a single-region result picked from in its
/// slots is never reordered.
pub fn finalize_select(
    axis: StandoffAxis,
    emissions: &[Emission],
    candidates: Rows<'_>,
    index: &RegionIndex,
    mut pick: Option<&mut RankPick>,
    stats: &mut JoinStats,
) -> Vec<IterNode> {
    debug_assert!(axis.is_select());
    // Fast path: every annotation is a single region (always true in the
    // attribute representation), or overlap semantics (∃∃) — any region
    // match selects its annotation.
    if index.max_regions() <= 1 || axis == StandoffAxis::SelectWide {
        let slotted = (pick.as_deref_mut())
            .filter(|_| index.max_regions() <= 1)
            .and_then(|p| p.keep_emitted(emissions, candidates));
        if let Some(rows) = slotted {
            return rows;
        }
        let out = emissions
            .iter()
            .map(|e| IterNode {
                iter: e.iter,
                node: candidates.ids[e.cand_idx as usize],
            })
            .collect();
        return keep_picked(pick, document_order(out, stats));
    }

    // Multi-region containment: a candidate annotation is selected in an
    // iteration iff SOME context annotation contains ALL of its regions.
    // Key each emission by (iter, ctx annotation, cand annotation, region
    // ordinal), deduplicate, then count ordinals per key prefix.
    let mut keyed: Vec<(u32, u32, u32, u32)> = emissions
        .iter()
        .map(|e| {
            let entry = candidates.entry(e.cand_idx as usize);
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
    keep_picked(pick, document_order(out, stats))
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

    #[test]
    fn single_region_select_dedups_and_sorts() {
        let index = RegionIndex::from_areas(&[
            (5, Area::single(0, 10).unwrap()),
            (9, Area::single(20, 30).unwrap()),
        ]);
        let cands = index.table().rows;
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
            cands,
            &index,
            None,
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
        let cands = index.table().rows;

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
                cands,
                &index,
                None,
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
            cands,
            &index,
            None,
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
                cands,
                &index,
                None,
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

    /// A pick in the join keeps what the pick over the full,
    /// document-ordered result needs: the same rows once picked again,
    /// the same selected count, and no reordering for the slotted ranks
    /// `[1]` and `[last()]`.
    /// The emissions come in candidate order with a row repeated by a
    /// second context, a nested layer's node order unlike its start
    /// order, and iterations interleaved.
    #[test]
    fn a_pick_in_the_join_picks_what_the_full_result_would() {
        let index = RegionIndex::from_areas(&[
            (3, Area::single(0, 50).unwrap()),
            (4, Area::single(0, 10).unwrap()),
            (6, Area::single(20, 30).unwrap()),
            (8, Area::single(5, 8).unwrap()),
        ]);
        let cands = index.table().rows;
        let at = |id: u32| cands.ids.iter().position(|&c| c == id).unwrap() as u32;
        let rows = [
            (2, 4),
            (2, 4),
            (0, 3),
            (2, 3),
            (0, 8),
            (2, 8),
            (0, 6),
            (0, 6),
            (2, 6),
        ];
        let emissions: Vec<Emission> = (rows.iter())
            .map(|&(iter, id)| Emission {
                iter,
                ctx_node: 0,
                cand_idx: at(id),
            })
            .collect();
        let axis = StandoffAxis::SelectNarrow;
        let full = finalize_select(
            axis,
            &emissions,
            cands,
            &index,
            None,
            &mut JoinStats::default(),
        );
        assert_eq!(full.len(), 7);
        let (iters, nodes): (Vec<u32>, Vec<u32>) = full.iter().map(|r| (r.iter, r.node)).unzip();
        for rank in [0, 1, 2, 3, 4, 9]
            .map(Rank::Nth)
            .into_iter()
            .chain([Rank::Last])
        {
            let mut pick = RankPick::new(rank);
            let mut stats = JoinStats::default();
            let kept =
                finalize_select(axis, &emissions, cands, &index, Some(&mut pick), &mut stats);
            assert_eq!(pick.selected, 7, "{rank:?}");
            let slotted = matches!(rank, Rank::Nth(1) | Rank::Last);
            assert_eq!(stats.result_sorts, u64::from(!slotted), "{rank:?}");
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "{rank:?}: {kept:?}");
            let (kept_iters, kept_nodes): (Vec<u32>, Vec<u32>) =
                kept.iter().map(|r| (r.iter, r.node)).unzip();
            assert_eq!(
                rank.pick(&kept_iters, &kept_nodes),
                rank.pick(&iters, &nodes),
                "{rank:?}"
            );
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
