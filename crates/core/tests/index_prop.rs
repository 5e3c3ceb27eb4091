//! Property tests for the region index: the candidate intersection's
//! single entry point and both of its kernels (node-view gather, dense
//! bitset scan) must agree with the §4.3 definition, and the index must
//! faithfully represent the annotations it was built from.

use proptest::prelude::*;

use standoff_core::{Area, CandidateScratch, Region, RegionEntry, RegionIndex, StandoffConfig};
use standoff_xml::DocumentBuilder;

/// The oracle, by definition: the start-clustered table filtered by
/// candidate membership. Shares no code with either kernel.
fn oracle(index: &RegionIndex, candidates: &[u32]) -> Vec<RegionEntry> {
    index
        .entries()
        .iter()
        .filter(|e| candidates.binary_search(&e.id).is_ok())
        .copied()
        .collect()
}

/// Entry point and both kernels against the oracle; returns the kernel
/// counters the entry point accumulated.
fn assert_all_agree(index: &RegionIndex, candidates: &[u32]) -> CandidateScratch {
    let want = oracle(index, candidates);
    let mut scratch = CandidateScratch::default();
    let mut got = vec![RegionEntry {
        start: -1,
        end: -1,
        id: 0,
    }]; // must be cleared
    index.candidates_into(candidates, &mut scratch, &mut got);
    assert_eq!(got, want, "entry point");
    assert_eq!(index.candidates_for(candidates), want, "allocating form");
    index.gather_candidates(candidates, &mut got);
    assert_eq!(got, want, "gather kernel");
    index.dense_scan_candidates(candidates, &mut CandidateScratch::default(), &mut got);
    assert_eq!(got, want, "dense scan kernel");
    scratch
}

/// Random single/multi-region annotations with controlled geometry.
fn annotations_strategy() -> impl Strategy<Value = Vec<Vec<(i64, i64)>>> {
    prop::collection::vec(
        prop::collection::vec((0i64..500, 0i64..40), 1..3).prop_map(|raw| {
            let mut rs: Vec<(i64, i64)> = raw.into_iter().map(|(s, l)| (s, s + l)).collect();
            rs.sort_unstable();
            let mut out: Vec<(i64, i64)> = Vec::new();
            for (s, e) in rs {
                match out.last() {
                    Some(&(_, pe)) if s <= pe + 1 => {}
                    _ => out.push((s, e)),
                }
            }
            out
        }),
        0..40,
    )
}

fn build_index(annotations: &[Vec<(i64, i64)>]) -> (Vec<u32>, RegionIndex) {
    let pairs: Vec<(u32, Area)> = annotations
        .iter()
        .enumerate()
        .map(|(k, rs)| {
            let area = Area::try_new(
                rs.iter()
                    .map(|&(s, e)| Region::new(s, e).unwrap())
                    .collect(),
            )
            .unwrap();
            // Synthetic pre ranks: 2, 4, 6, ... (gaps on purpose).
            ((k as u32 + 1) * 2, area)
        })
        .collect();
    let pres = pairs.iter().map(|p| p.0).collect();
    (pres, RegionIndex::from_areas(&pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The entry point and both kernels equal the oracle for every
    /// table size (empty and one-entry tables included) and every
    /// candidate set drawn from annotated *and* unannotated pre ranks —
    /// so cases land on both sides of the `node_view_preferred`
    /// boundary and reach `C > E`.
    #[test]
    fn entry_point_and_kernels_match_the_oracle(
        annotations in annotations_strategy(),
        picks in prop::collection::vec(any::<u16>(), 0..160),
    ) {
        let (pres, index) = build_index(&annotations);
        // Even ranks up to 2·n are annotated; odd ones and the tail
        // beyond are not.
        let universe = pres.len() as u32 * 2 + 40;
        let mut candidates: Vec<u32> = picks.iter().map(|&p| p as u32 % universe).collect();
        candidates.sort_unstable();
        candidates.dedup();
        assert_all_agree(&index, &candidates);
    }

    /// Index round-trip: every annotation's regions come back through
    /// both views, and the entry table is exactly the multiset of all
    /// regions clustered on start.
    #[test]
    fn index_round_trips_annotations(annotations in annotations_strategy()) {
        let (pres, index) = build_index(&annotations);
        // Node view.
        for (pre, rs) in pres.iter().zip(&annotations) {
            let got: Vec<(i64, i64)> = index
                .regions_of(*pre)
                .iter()
                .map(|r| (r.start, r.end))
                .collect();
            prop_assert_eq!(&got, rs);
        }
        // Entry view: clustered on (start, end, id) and complete.
        let entries = index.entries();
        prop_assert!(entries
            .windows(2)
            .all(|w| (w[0].start, w[0].end, w[0].id) <= (w[1].start, w[1].end, w[1].id)));
        let total: usize = annotations.iter().map(|rs| rs.len()).sum();
        prop_assert_eq!(entries.len(), total);
        // max_regions is the true maximum.
        let max = annotations.iter().map(|rs| rs.len()).max().unwrap_or(0);
        prop_assert_eq!(index.max_regions() as usize, max);
    }

    /// Unknown nodes have no regions; annotated nodes are reported in
    /// document order.
    #[test]
    fn node_view_consistency(annotations in annotations_strategy()) {
        let (pres, index) = build_index(&annotations);
        prop_assert!(index.annotated_nodes().windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(index.annotated_nodes(), &pres[..]);
        // Odd pre ranks were never annotated.
        for odd in [1u32, 3, 5, 99] {
            prop_assert!(index.regions_of(odd).is_empty());
            prop_assert_eq!(index.region_count(odd), 0);
        }
    }
}

/// `n` single-region annotations `<a start end/>` under one root.
fn uniform_index(n: i64) -> (Vec<u32>, RegionIndex) {
    let mut b = DocumentBuilder::new();
    b.start_element("d");
    for k in 0..n {
        b.start_element("a");
        b.attribute("start", &(k * 3).to_string());
        b.attribute("end", &(k * 3 + 1).to_string());
        b.end_element();
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    (doc.elements_named("a").to_vec(), index)
}

/// Deterministic check that the one decision really dispatches to both
/// kernels, and that the candidate counts adjacent to the crossover land
/// on opposite sides of it with identical answers.
#[test]
fn both_kernels_execute_around_the_crossover() {
    let (all, index) = uniform_index(2000);

    // Selective: 3 nodes → gather kernel, no scan counters.
    let few = [all[10], all[500], all[1999]];
    assert!(index.prefers_node_view(few.len()));
    let scratch = assert_all_agree(&index, &few);
    assert_eq!(scratch.stats.candidate_repr_dense, 0);
    assert_eq!(scratch.stats.candidate_dense_blocks, 0);

    // Broad: everything → dense scan kernel; equals the full index.
    assert!(!index.prefers_node_view(all.len()));
    let scratch = assert_all_agree(&index, &all);
    assert_eq!(index.candidates_for(&all), index.entries());
    assert_eq!(scratch.stats.candidate_repr_dense, 1);
    assert_eq!(scratch.stats.candidate_dense_blocks, 2000u64.div_ceil(64));

    // The last gather-side count and the first scan-side count.
    let last_gather = (1..all.len())
        .rev()
        .find(|&c| index.prefers_node_view(c))
        .unwrap();
    assert!(!index.prefers_node_view(last_gather + 1));
    let spread: Vec<u32> = all.iter().step_by(7).copied().collect();
    assert!(spread.len() > last_gather);
    assert_eq!(
        assert_all_agree(&index, &spread[..last_gather])
            .stats
            .candidate_repr_dense,
        0
    );
    assert_eq!(
        assert_all_agree(&index, &spread[..last_gather + 1])
            .stats
            .candidate_repr_dense,
        1
    );
}

/// The degenerate tables: no entries, one entry, and far more candidate
/// elements than entries (`C ≫ E`, where the scan pays an `O(C)` bitset
/// fill for a one-block pass).
#[test]
fn empty_single_entry_and_oversubscribed_tables() {
    let many: Vec<u32> = (0..50_000).collect();

    let (_, empty) = uniform_index(0);
    assert!(empty.is_empty());
    for cands in [&[][..], &[7][..], &many[..]] {
        let scratch = assert_all_agree(&empty, cands);
        assert_eq!(scratch.stats.candidate_repr_dense, 0, "nothing to scan");
    }

    let (one, single) = uniform_index(1);
    assert_eq!(single.len(), 1);
    assert_all_agree(&single, &[]);
    assert_eq!(single.candidates_for(&one), single.entries());
    assert_all_agree(&single, &one);
    assert_all_agree(&single, &[one[0] + 1]);
    let scratch = assert_all_agree(&single, &many);
    assert_eq!(scratch.stats.candidate_repr_dense, 1);
    assert_eq!(scratch.stats.candidate_dense_blocks, 1);

    let (_, small) = uniform_index(64);
    assert!(!small.prefers_node_view(many.len()));
    assert_eq!(small.candidates_for(&many), small.entries());
    assert_all_agree(&small, &many);
}
