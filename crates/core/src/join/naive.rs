//! Naive nested-loop baselines — the paper's XQuery-function
//! implementation alternatives (§3.2, Figures 2 and 3).
//!
//! Both compare every context annotation against every candidate, per
//! iteration — quadratic work that the paper's Figure 6 shows DNF-ing
//! (without candidates) or trailing the merge joins by one to two orders
//! of magnitude (with candidates). They double as the test oracle: the
//! area predicates are applied literally, with no merge-join machinery to
//! get wrong.

use standoff_xml::NodeKind;

use crate::join::{CtxEntry, IterNode, JoinStats, JoinTarget, StandoffAxis};
use crate::region::{Area, Region};

/// Nested-loop evaluation of a select join over a resolved context
/// table (`context`, any order): its rows are regrouped into one
/// [`Area`] per context annotation and compared literally.
///
/// `with_candidates = false` models Figure 2 (`for $p in root($q)//*`):
/// the inner loop visits **every element of the document**, checking each
/// for region markup, whatever the candidate restriction (which only
/// filters what the loop found). With `true` it models Figure 3: the
/// inner loop visits the candidate sequence only.
///
/// The quadratic inner loop polls `budget` per candidate: these baselines
/// are exactly the strategies a deadline must be able to interrupt (the
/// paper's Figure 6 DNF bars), so a governed query bails out mid-product
/// and the evaluator surfaces the recorded trip reason. Every pair it
/// compares is counted in `stats.naive_pairs`.
pub fn naive_select(
    axis: StandoffAxis,
    context: &[CtxEntry],
    target: &JoinTarget<'_>,
    with_candidates: bool,
    budget: Option<&crate::budget::Budget>,
    stats: &mut JoinStats,
) -> Vec<IterNode> {
    debug_assert!(axis.is_select());
    let narrow = axis.is_narrow();

    // The inner node universe, fetched per the strategy.
    let inner: Vec<u32> = if with_candidates {
        target.candidate_universe_in(&mut Vec::new()).to_vec()
    } else {
        // root($q)//* — every element node, annotated or not; the area
        // check happens (and fails) inside the loop, like the UDF's
        // predicate on @start/@end.
        (0..target.doc.node_count() as u32)
            .filter(|&p| target.doc.kind(p) == NodeKind::Element)
            .collect()
    };

    // One area per context annotation: the rows sharing `(iter, node)`.
    let mut rows: Vec<&CtxEntry> = context.iter().collect();
    rows.sort_unstable_by_key(|c| (c.iter, c.node, c.start, c.end));
    let mut out: Vec<IterNode> = Vec::new();
    for annotation in rows.chunk_by(|a, b| (a.iter, a.node) == (b.iter, b.node)) {
        let iter = annotation[0].iter;
        let regions = annotation.iter().map(|c| Region {
            start: c.start,
            end: c.end,
        });
        let a1 = Area::try_new(regions.collect()).expect("index stores valid areas");
        for &cand in &inner {
            if budget.is_some_and(|b| b.poll().is_some()) {
                return out; // discarded by the evaluator's budget check
            }
            stats.naive_pairs += 1;
            let regions = target.index.regions_of(cand);
            if regions.is_empty() {
                continue; // not an area-annotation
            }
            let a2 = Area::try_new(regions.to_vec()).expect("index stores valid areas");
            let matched = if narrow {
                a1.contains(&a2)
            } else {
                a1.overlaps(&a2)
            };
            if matched {
                out.push(IterNode { iter, node: cand });
            }
        }
    }
    // Figure 2's loop knows no candidate sequence; where the built-in
    // function form passes one explicitly it still bounds the answer.
    if let (false, Some(candidates)) = (with_candidates, target.candidates) {
        out.retain(|n| candidates.binary_search(&n.node).is_ok());
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StandoffConfig;
    use crate::index::RegionIndex;
    use crate::join::JoinScratch;
    use standoff_xml::parse_document;

    /// Resolve the one row `ctx` as the engine does, then run the nested
    /// loop over `target`.
    fn naive(
        axis: StandoffAxis,
        target: &JoinTarget<'_>,
        ctx: IterNode,
        with_candidates: bool,
    ) -> Vec<IterNode> {
        let mut scratch = JoinScratch::default();
        scratch.resolve_context([(target.index, &[ctx][..])]);
        naive_select(
            axis,
            &scratch.ctx,
            target,
            with_candidates,
            None,
            &mut scratch.stats,
        )
    }

    fn figure1() -> (standoff_xml::Document, RegionIndex) {
        let doc = parse_document(
            r#"<sample>
                 <video>
                   <shot id="Intro" start="0" end="8"/>
                   <shot id="Interview" start="8" end="64"/>
                   <shot id="Outro" start="64" end="94"/>
                 </video>
                 <audio>
                   <music artist="U2" start="0" end="31"/>
                   <music artist="Bach" start="52" end="94"/>
                 </audio>
               </sample>"#,
        )
        .unwrap();
        let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
        (doc, idx)
    }

    fn shot_ids(doc: &standoff_xml::Document, nodes: &[IterNode]) -> Vec<String> {
        nodes
            .iter()
            .map(|n| doc.attribute(n.node, "id").unwrap().unwrap().to_string())
            .collect()
    }

    #[test]
    fn figure1_u2_narrow_and_wide() {
        let (doc, index) = figure1();
        let u2 = doc.elements_named("music")[0];
        let shots = doc.elements_named("shot");
        let ctx = IterNode { iter: 0, node: u2 };
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: Some(shots),
            posting: None,
            iter_domain: &[0],
        };
        let narrow = naive(StandoffAxis::SelectNarrow, &target, ctx, true);
        assert_eq!(shot_ids(&doc, &narrow), vec!["Intro"]);
        let wide = naive(StandoffAxis::SelectWide, &target, ctx, true);
        assert_eq!(shot_ids(&doc, &wide), vec!["Intro", "Interview"]);
    }

    #[test]
    fn without_candidates_scans_everything_but_matches_annotated_only() {
        let (doc, index) = figure1();
        let u2 = doc.elements_named("music")[0];
        let ctx = IterNode { iter: 0, node: u2 };
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: None,
            posting: None,
            iter_domain: &[0],
        };
        let wide = naive(StandoffAxis::SelectWide, &target, ctx, false);
        // U2 [0,31] overlaps Intro, Interview and itself; <video>/<audio>
        // have no regions and never match.
        assert_eq!(wide.len(), 3);
    }

    #[test]
    fn unannotated_context_contributes_nothing() {
        let (doc, index) = figure1();
        let video = doc.elements_named("video")[0];
        let ctx = IterNode {
            iter: 0,
            node: video,
        };
        let target = JoinTarget {
            doc: &doc,
            index: &index,
            candidates: None,
            posting: None,
            iter_domain: &[0],
        };
        assert!(naive(StandoffAxis::SelectWide, &target, ctx, false).is_empty());
    }
}
