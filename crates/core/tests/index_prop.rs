//! Property tests for the region index: the candidate intersection —
//! the node-view gather an explicit candidate sequence takes, and a
//! pushed name's posting — must agree with the §4.3 definition
//! restricted to the reach, and the index must faithfully represent the
//! annotations it was built from.

use std::ops::Range;

use proptest::prelude::*;

use standoff_core::{
    Area, JoinStats, JoinTarget, Region, RegionEntry, RegionIndex, StandoffConfig,
};
use standoff_xml::{DocumentBuilder, NewElement, NodeKind};

/// The oracle, by definition: the start-clustered table filtered by
/// candidate membership, then cut to the reach by position. Shares no
/// code with any derivation.
fn oracle(index: &RegionIndex, candidates: &[u32], reach: Range<usize>) -> Vec<RegionEntry> {
    index
        .entries()
        .iter()
        .enumerate()
        .filter(|(k, e)| reach.contains(k) && candidates.binary_search(&e.id).is_ok())
        .map(|(_, e)| *e)
        .collect()
}

/// The gather, and the derivation a join over `candidates` reads
/// through, against the oracle.
fn assert_all_agree(index: &RegionIndex, candidates: &[u32], reach: Range<usize>) {
    let want = oracle(index, candidates, reach.clone());
    let mut got = vec![RegionEntry {
        start: -1,
        end: -1,
        id: 0,
    }]; // must be cleared
    if candidates == index.annotated_nodes() {
        assert_eq!(&index.entries()[reach.clone()], want, "borrowed reach");
    }
    // The candidate side never reads its document here.
    let doc = standoff_xml::parse_document("<d/>").unwrap();
    let target = JoinTarget {
        doc: &doc,
        index,
        candidates: Some(candidates),
        posting: None,
        iter_domain: &[],
    };
    let mut buf = Vec::new();
    let derived = target.candidate_entries_in(reach.clone(), &mut JoinStats::default(), &mut buf);
    assert_eq!(derived, want, "the join's derivation");
    index.gather_candidates(candidates, reach, &mut got);
    assert_eq!(got, want, "gather");
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

/// Single-region layouts with same-start nesting: each group opens
/// `depth` annotations at one start, outermost (longest) first, so the
/// start-clustered table lists them innermost first — against id order.
fn nested_single_strategy() -> impl Strategy<Value = Vec<Vec<(i64, i64)>>> {
    prop::collection::vec((0i64..300, 0i64..30, 1i64..4), 0..30).prop_map(|groups| {
        groups
            .into_iter()
            .flat_map(|(start, len, depth)| {
                (0..depth).map(move |j| vec![(start, start + len + depth - 1 - j)])
            })
            .collect()
    })
}

fn build_index(annotations: &[Vec<(i64, i64)>]) -> (Vec<u32>, RegionIndex) {
    build_index_strided(annotations, 2)
}

/// Annotation `k` at pre rank `(k + 1) · stride`: gaps when `stride > 1`,
/// every id in a run annotated when it is 1.
fn build_index_strided(annotations: &[Vec<(i64, i64)>], stride: u32) -> (Vec<u32>, RegionIndex) {
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
            ((k as u32 + 1) * stride, area)
        })
        .collect();
    let pres = pairs.iter().map(|p| p.0).collect();
    (pres, RegionIndex::from_areas(&pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The gather equals the oracle for every table size (empty and
    /// one-entry tables included), every reach — the whole table or the
    /// entries starting inside an extent — and every candidate set
    /// drawn from annotated *and* unannotated pre ranks, or all
    /// annotated ones, reaching `C > E`.
    #[test]
    fn gather_matches_the_oracle(
        annotations in annotations_strategy(),
        picks in prop::collection::vec(any::<u16>(), 0..160),
        covering in any::<bool>(),
        extent in prop::option::of((0i64..560, 0i64..200)),
    ) {
        let (pres, index) = build_index(&annotations);
        // Even ranks up to 2·n are annotated; odd ones and the tail
        // beyond are not.
        let universe = pres.len() as u32 * 2 + 40;
        let mut candidates: Vec<u32> = picks.iter().map(|&p| p as u32 % universe).collect();
        candidates.sort_unstable();
        candidates.dedup();
        if covering {
            candidates = pres;
        }
        let reach = match extent {
            Some((from, len)) => index.table().reach(from, from + len),
            None => 0..index.len(),
        };
        assert_all_agree(&index, &candidates, reach);
    }

    /// A name's posting, cut to the reach of an extent, equals the
    /// node-view derivation of the name's elements over the index's
    /// reach of the same extent, byte for byte; its extent bound holds
    /// for every entry; and the wide reach over the posting keeps every
    /// entry the index's wide reach would. Over generated documents of
    /// three names, some elements unannotated, in both region
    /// representations (multi-region areas in the element one).
    #[test]
    fn postings_equal_the_node_view_over_every_reach(
        elements in prop::collection::vec(
            (0usize..3, prop::option::of(prop::collection::vec((0i64..400, 0i64..30), 1..3))),
            0..60,
        ),
        multi in any::<bool>(),
        extents in prop::collection::vec((0i64..440, 0i64..120), 1..6),
    ) {
        let (doc, index) = named_document(&elements, multi);
        for name in ["a", "b", "c"] {
            let Some(id) = doc.names().get(name) else { continue };
            let nodes = doc.element_postings(id);
            let posting = index.posting(&doc, id, None).unwrap().unwrap();
            let table = posting.table;
            prop_assert_eq!(posting.covering, nodes == index.annotated_nodes());
            prop_assert!(table.entries.iter().all(|e| e.end - e.start <= table.max_extent));
            let annotated = nodes.iter().filter(|&&n| index.region_count(n) > 0).count();
            prop_assert_eq!(posting.annotated, annotated);
            let mut gathered = Vec::new();
            for &(from, len) in &extents {
                let to = from + len;
                index.gather_candidates(nodes, index.table().reach(from, to), &mut gathered);
                prop_assert_eq!(&table.entries[table.reach(from, to)], &gathered[..]);
                index.gather_candidates(nodes, index.table().wide_reach(from, to), &mut gathered);
                let wide = &table.entries[table.wide_reach(from, to)];
                // Its own bound is tighter: it may start later, never
                // drop an entry that can overlap.
                prop_assert!(gathered
                    .iter()
                    .filter(|e| e.end >= from)
                    .all(|e| wide.contains(e)));
            }
            let again = index.posting(&doc, id, None).unwrap().unwrap();
            prop_assert!(std::ptr::eq(again.table.entries, table.entries));
        }
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
        // So is max_extent, and a mount derives the same one.
        let widest = entries.iter().map(|e| e.end - e.start).max().unwrap_or(0);
        prop_assert_eq!(index.max_extent(), widest);
        let kinds = elements(pres.last().map_or(0, |&p| p as usize + 1));
        prop_assert_eq!(mount(&index, &kinds).unwrap().max_extent(), widest);
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

/// One generated element: its name's index into `["a", "b", "c"]` and
/// its `(start, length)` regions, if it is annotated.
type GenElement = (usize, Option<Vec<(i64, i64)>>);

/// A document of elements named `a`, `b` or `c` (by the index in each
/// pair) under one root, each with the given regions or none — as
/// attributes (the first region only) or, with `multi`, as `region`
/// children — and its region index.
fn named_document(elements: &[GenElement], multi: bool) -> (standoff_xml::Document, RegionIndex) {
    let mut b = DocumentBuilder::new();
    b.start_element("d");
    for (name, regions) in elements {
        b.start_element(["a", "b", "c"][*name]);
        let mut regions: Vec<(i64, i64)> =
            regions.iter().flatten().map(|&(s, l)| (s, s + l)).collect();
        if !multi {
            regions.truncate(1);
        }
        regions.sort_unstable();
        regions.dedup_by(|next, kept| next.0 <= kept.1 + 1);
        for &(s, e) in &regions {
            if multi {
                b.start_element("region");
                b.start_element("start");
                b.text(&s.to_string());
                b.end_element();
                b.start_element("end");
                b.text(&e.to_string());
                b.end_element();
                b.end_element();
            } else {
                b.attribute("start", &s.to_string());
                b.attribute("end", &e.to_string());
            }
        }
        b.end_element();
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let config = if multi {
        StandoffConfig::element_repr()
    } else {
        StandoffConfig::default()
    };
    let index = RegionIndex::build(&doc, &config).unwrap();
    (doc, index)
}

/// The degenerate tables: no entries, one entry, and far more candidate
/// elements than entries.
#[test]
fn empty_single_entry_and_oversubscribed_tables() {
    let many: Vec<u32> = (0..50_000).collect();
    let single = |n: i64| {
        let areas: Vec<(u32, Area)> = (0..n)
            .map(|k| (k as u32 + 1, Area::single(k * 3, k * 3 + 1).unwrap()))
            .collect();
        RegionIndex::from_areas(&areas)
    };

    let empty = single(0);
    assert!(empty.is_empty());
    for cands in [&[][..], &[7][..], &many[..]] {
        assert_all_agree(&empty, cands, 0..0);
    }

    let one = single(1);
    assert_eq!(one.len(), 1);
    assert_all_agree(&one, &[], 0..1);
    assert_all_agree(&one, &[1], 0..1);
    assert_all_agree(&one, &[2], 0..1);
    assert_all_agree(&one, &many, 0..1);

    let small = single(64);
    assert_all_agree(&small, &many, 0..64);
}

/// A name's posting is its definitional intersection with its own
/// extent bound, cached after the first call; a covering name borrows
/// the table; a tripped derivation publishes nothing.
#[test]
fn postings_are_derived_once_and_cover_by_borrowing() {
    use standoff_core::{Budget, BudgetExceeded};
    use standoff_xml::{parse_document, NameId};
    let doc = parse_document(
        r#"<sample><video><shot start="0" end="8"/><shot start="8" end="64"/>
           <shot start="64" end="94"/></video><audio><music start="0" end="31"/>
           <music start="52" end="94"/></audio></sample>"#,
    )
    .unwrap();
    let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    let shot = doc.names().get("shot").unwrap();
    let p = idx.posting(&doc, shot, None).unwrap().unwrap();
    let shots = doc.elements_named("shot");
    assert_eq!(p.table.entries, oracle(&idx, shots, 0..idx.len()));
    assert_eq!(
        (p.covering, p.annotated, p.table.max_extent),
        (false, 3, 56)
    );
    let again = idx.posting(&doc, shot, None).unwrap().unwrap();
    assert!(std::ptr::eq(p.table.entries, again.table.entries), "cached");
    // `video` has no regions: an empty posting.
    let video = doc.names().get("video").unwrap();
    let empty = idx.posting(&doc, video, None).unwrap().unwrap();
    assert_eq!((empty.table.entries.len(), empty.annotated), (0, 0));
    // A name outside the document's table is not cached.
    assert!(idx.posting(&doc, NameId(999), None).unwrap().is_none());

    let doc = parse_document(r#"<d><w start="0" end="4"/><x start="6" end="9"/></d>"#).unwrap();
    let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    let (w, x) = (doc.names().get("w").unwrap(), doc.names().get("x").unwrap());
    let tripped = Budget::cancel_token();
    tripped.cancel();
    let err = idx.posting(&doc, w, Some(&tripped)).unwrap_err();
    assert_eq!(err, BudgetExceeded::Cancelled);
    let w = idx.posting(&doc, w, None).unwrap().unwrap();
    assert_eq!(w.table.entries, &idx.entries()[..1], "nothing partial kept");
    // `x` alone is not every annotation either.
    assert!(!idx.posting(&doc, x, None).unwrap().unwrap().covering);
    let whole = parse_document(r#"<d><w start="0" end="4"/><w start="6" end="9"/></d>"#).unwrap();
    let idx = RegionIndex::build(&whole, &StandoffConfig::default()).unwrap();
    let w = whole.names().get("w").unwrap();
    let covering = idx.posting(&whole, w, None).unwrap().unwrap();
    assert!(covering.covering);
    assert!(
        std::ptr::eq(covering.table.entries, idx.entries()),
        "borrowed"
    );
}

/// `index.regions_of` — the one-probe node-view lookup — against the
/// entries carrying each pre rank of `order`, in that order.
fn assert_lookups_match(index: &RegionIndex, order: &[u32]) -> Result<(), TestCaseError> {
    for &pre in order {
        let want: Vec<Region> = (index.entries().iter())
            .filter(|e| e.id == pre)
            .map(|e| *e.region())
            .collect();
        prop_assert_eq!(index.regions_of(pre), &want[..], "pre {}", pre);
        prop_assert_eq!(index.region_count(pre), want.len());
    }
    Ok(())
}

/// Groups of a nested hierarchy: `(start, length, depth)`.
fn nested_groups() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0i64..300, 0i64..30, 1i64..4), 0..20)
}

/// A nested hierarchy of single-region elements under an unannotated
/// root: each group opens `depth` `a` elements at one start, each inside
/// the last, the outermost longest. A parent and its first child share
/// a start, so the start-clustered ids do not ascend, while every `a` is
/// annotated and their ids fill their span — what an XMark base layer
/// is.
fn nested_document(groups: &[(i64, i64, i64)]) -> (standoff_xml::Document, RegionIndex) {
    let mut b = DocumentBuilder::new();
    b.start_element("d");
    for &(start, len, depth) in groups {
        for j in 0..depth {
            b.start_element("a");
            b.attribute("start", &start.to_string());
            b.attribute("end", &(start + len + depth - 1 - j).to_string());
        }
        for _ in 0..depth {
            b.end_element();
        }
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    (doc, index)
}

/// The node-view shape an index must take, by definition over its
/// entries' ids: the entries themselves when the ids ascend; else, for
/// distinct ids, one row per node of their span when they fill it and
/// an id list otherwise; else (an id repeats) the area runs.
fn shape_by_definition(index: &RegionIndex) -> &'static str {
    let ids: Vec<u32> = index.entries().iter().map(|e| e.id).collect();
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return "entries";
    }
    let mut distinct = ids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    match distinct.len() == ids.len() {
        false => "areas",
        true if distinct[distinct.len() - 1] - distinct[0] + 1 == ids.len() as u32 => "span",
        true => "one",
    }
}

/// Whether every annotated node's region is read in place from its own
/// entry — as a view of the entries themselves or of one entry row per
/// node reads it — rather than from a copied region column.
fn reads_regions_in_place(index: &RegionIndex) -> bool {
    (index.entries().iter()).all(|e| match index.regions_of(e.id) {
        [region] => std::ptr::eq(region, e.region()),
        _ => false,
    })
}

/// [`reads_regions_in_place`] holds exactly for the shapes that copy no
/// region: the entries themselves and one entry row per node.
fn assert_shape(index: &RegionIndex) -> Result<(), TestCaseError> {
    let in_place = matches!(shape_by_definition(index), "entries" | "span");
    prop_assert_eq!(reads_regions_in_place(index), in_place);
    Ok(())
}

/// The covering test by definition: the candidates are exactly the
/// distinct annotated ids.
fn covers_by_definition(index: &RegionIndex, candidates: &[u32]) -> bool {
    let mut ids: Vec<u32> = index.entries().iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids == candidates
}

/// `covers` against [`covers_by_definition`] for the annotated ranks
/// themselves and their near misses — the same length with either
/// endpoint moved, or an interior rank swapped for an unannotated one —
/// plus `extra` candidates drawn from every rank up to `bound`.
fn assert_covers_match(
    index: &RegionIndex,
    bound: u32,
    extra: &[Vec<u16>],
) -> Result<(), TestCaseError> {
    let annotated = index.annotated_nodes().to_vec();
    let mut lists = vec![annotated.clone(), Vec::new()];
    if let (Some(&first), Some(&last)) = (annotated.first(), annotated.last()) {
        let n = annotated.len();
        if first > 0 {
            let mut moved = annotated.clone();
            moved[0] = first - 1;
            lists.push(moved);
        }
        let mut moved = annotated.clone();
        moved[n - 1] = last + 1;
        lists.push(moved);
        for k in 1..n.saturating_sub(1) {
            let gap = (annotated[k - 1] + 1..annotated[k + 1]).find(|r| *r != annotated[k]);
            if let Some(gap) = gap.filter(|g| annotated.binary_search(g).is_err()) {
                let mut swapped = annotated.clone();
                swapped[k] = gap;
                lists.push(swapped);
            }
        }
    }
    for raw in extra {
        let mut list: Vec<u32> = raw.iter().map(|&r| r as u32 % (bound + 2)).collect();
        list.sort_unstable();
        list.dedup();
        lists.push(list);
    }
    for list in &lists {
        prop_assert_eq!(
            index.covers(list),
            covers_by_definition(index, list),
            "{:?}",
            list
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-probe lookup finds what the binary search finds on a
    /// dense index (every element annotated) and a sparse one (every
    /// `stride`-th), on its mount, and on its renumbering after retracts
    /// and appends — for every pre rank in ascending and descending
    /// order, then drawn in any order: before the first annotated rank,
    /// past the last, between them, and not annotated.
    #[test]
    fn one_probe_lookup_matches_the_binary_search(
        annotations in annotations_strategy(),
        stride in 1usize..4,
        retract in prop::collection::vec(any::<bool>(), 0..120),
        appended in 0usize..4,
        probes in prop::collection::vec(any::<u16>(), 0..64),
        groups in nested_groups(),
    ) {
        let n = annotations.len() * stride;
        let mut b = DocumentBuilder::new();
        b.start_element("d");
        for _ in 0..n {
            b.start_element("a");
            b.end_element();
        }
        b.end_element();
        let doc = b.finish().unwrap();
        let elements_a = doc.elements_named("a");
        let pairs: Vec<(u32, Area)> = (annotations.iter().enumerate())
            .map(|(k, rs)| {
                let regions = rs.iter().map(|&(s, e)| Region::new(s, e).unwrap());
                (elements_a[k * stride], Area::try_new(regions.collect()).unwrap())
            })
            .collect();
        let index = RegionIndex::from_areas(&pairs);
        let mounted = mount(&index, &elements(doc.node_count())).unwrap();
        let dropped: Vec<u32> = (elements_a.iter().zip(&retract))
            .filter(|(_, &r)| r)
            .map(|(&pre, _)| pre)
            .collect();
        let new = NewElement {
            name: "a".into(),
            attrs: Vec::new(),
        };
        let (spliced, moved) = doc.splice(&dropped, &vec![new.clone(); appended]).unwrap();
        let added: Vec<(u32, Region)> = (moved.added())
            .map(|pre| (pre, Region::new(pre as i64, pre as i64 + 3).unwrap()))
            .collect();
        let renumbered = index.renumbered(&moved, &added);
        let last = spliced.node_count().max(doc.node_count()) as u32 + 3;
        let mut order: Vec<u32> = (0..last).chain((0..last).rev()).collect();
        order.extend(probes.iter().map(|&p| p as u32 % (last + 5)));
        order.push(u32::MAX);
        for index in [&index, &mounted, &renumbered] {
            assert_lookups_match(index, &order)?;
            assert_shape(index)?;
        }

        // A nested hierarchy, whose ids fill their span without
        // ascending: built, mounted, and renumbered after retracts
        // (taking nested elements with them) and appends.
        let (doc, index) = nested_document(&groups);
        let mounted = mount(&index, doc.kinds()).unwrap();
        let elements_a = doc.elements_named("a");
        let dropped: Vec<u32> = (elements_a.iter().zip(&retract))
            .filter(|(_, &r)| r)
            .map(|(&pre, _)| pre)
            .collect();
        let (spliced, moved) = doc.splice(&dropped, &vec![new; appended]).unwrap();
        let added: Vec<(u32, Region)> = (moved.added())
            .map(|pre| (pre, Region::new(pre as i64 + 400, pre as i64 + 403).unwrap()))
            .collect();
        let renumbered = index.renumbered(&moved, &added);
        let last = spliced.node_count().max(doc.node_count()) as u32 + 3;
        let mut order: Vec<u32> = (0..last).chain((0..last).rev()).collect();
        order.extend(probes.iter().map(|&p| p as u32 % (last + 5)));
        for index in [&index, &mounted, &renumbered] {
            assert_lookups_match(index, &order)?;
            assert_shape(index)?;
        }
        if groups.iter().any(|g| g.2 > 1) {
            prop_assert_eq!(shape_by_definition(&mounted), "span");
            prop_assert!(reads_regions_in_place(&mounted));
        }
    }
}

// ---- mount-time derivation of the node view ----

/// What a snapshot mount makes of `index`'s stored columns over a
/// document of the node kinds `kinds`.
fn mount(index: &RegionIndex, kinds: &[u8]) -> std::io::Result<RegionIndex> {
    let s = index.storage();
    RegionIndex::from_storage(s.entries.to_vec().into(), s.max_regions, kinds)
}

/// A document of `node_count` elements (every annotated id an element).
fn elements(node_count: usize) -> Vec<u8> {
    vec![NodeKind::Element as u8; node_count]
}

/// A generated layer: `(start, length)` regions per element, each
/// annotated when its rank is a multiple of `stride`, in start order
/// when `sorted` (id order is then start order) and as drawn otherwise,
/// with all of an element's regions (the element representation) when
/// `multi` and its first alone otherwise.
fn layer_strategy() -> impl Strategy<Value = (Vec<GenElement>, bool)> {
    (
        prop::collection::vec(prop::collection::vec((0i64..400, 0i64..30), 1..4), 0..50),
        1usize..4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(mut areas, stride, sorted, multi)| {
            if sorted {
                areas.sort_unstable();
            }
            let elements = (areas.into_iter().enumerate())
                .map(|(k, regions)| (k % 3, (k % stride == 0).then_some(regions)))
                .collect();
            (elements, multi)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The node view a mount derives from the stored entries is the
    /// document's own: every element's regions are the area its
    /// attributes or `region` children give it, the annotated ranks are
    /// exactly those elements', and `max_regions` and `max_extent` are
    /// the largest area and region of the document — over single- and
    /// multi-region layers, ids in start order and shuffled, and sparse
    /// annotation. The mount equals the build, lookup for lookup.
    #[test]
    fn mount_derives_the_documents_node_view(
        layer in layer_strategy(),
        groups in nested_groups(),
        candidates in prop::collection::vec(prop::collection::vec(any::<u16>(), 0..40), 0..4),
        reach in (0i64..450, 0i64..200),
    ) {
        let (elements_of, multi) = layer;
        let (doc, built) = named_document(&elements_of, multi);
        let config = if multi {
            StandoffConfig::element_repr()
        } else {
            StandoffConfig::default()
        };
        assert_mount_derives(&doc, &built, &config)?;
        // A nested hierarchy: the view a mount derives is one entry row
        // per node of the span, and it answers the covering test and the
        // candidate gather as the definitions do.
        let (doc, built) = nested_document(&groups);
        assert_mount_derives(&doc, &built, &StandoffConfig::default())?;
        let mounted = mount(&built, doc.kinds()).unwrap();
        if groups.iter().any(|g| g.2 > 1) {
            prop_assert_eq!(shape_by_definition(&mounted), "span");
            prop_assert!(reads_regions_in_place(&mounted));
        }
        let bound = doc.node_count() as u32;
        assert_covers_match(&mounted, bound, &candidates)?;
        let reach = mounted.table().reach(reach.0, reach.0 + reach.1);
        for raw in &candidates {
            let mut list: Vec<u32> = raw.iter().map(|&r| r as u32 % (bound + 2)).collect();
            list.sort_unstable();
            list.dedup();
            assert_all_agree(&mounted, &list, 0..mounted.len());
            assert_all_agree(&mounted, &list, reach.clone());
        }
        assert_all_agree(&mounted, mounted.annotated_nodes(), reach);
    }
}

/// The node view a mount of `built`, the index of `doc` under `config`,
/// derives is the document's own, and so is the build's — lookup for
/// lookup, with the shape the definition gives.
fn assert_mount_derives(
    doc: &standoff_xml::Document,
    built: &RegionIndex,
    config: &StandoffConfig,
) -> Result<(), TestCaseError> {
    let mounted = mount(built, doc.kinds()).unwrap();
    let mut annotated = Vec::new();
    let (mut max_regions, mut max_extent) = (0, 0);
    for pre in 0..doc.node_count() as u32 + 2 {
        let area = (pre < doc.node_count() as u32 && doc.kind(pre) == NodeKind::Element)
            .then(|| config.area_of(doc, pre).unwrap())
            .flatten();
        let want: Vec<Region> = area.iter().flat_map(|a| a.regions().to_vec()).collect();
        if !want.is_empty() {
            annotated.push(pre);
            max_regions = max_regions.max(want.len() as u32);
        }
        max_extent = want.iter().fold(max_extent, |m, r| m.max(r.end - r.start));
        for index in [built, &mounted] {
            prop_assert_eq!(index.regions_of(pre), &want[..], "pre {}", pre);
        }
    }
    for index in [built, &mounted] {
        prop_assert_eq!(index.annotated_nodes(), &annotated[..]);
        prop_assert_eq!(index.max_regions(), max_regions);
        prop_assert_eq!(index.max_extent(), max_extent);
        prop_assert_eq!(index.entries(), built.entries());
        assert_shape(index)?;
    }
    Ok(())
}

/// The rules a mount checks, each over the whole column in the order
/// `from_storage` names them, by definition: what it must accept, and
/// for what it refuses, the message of the first rule broken.
fn definitional_refusal(entries: &[RegionEntry], max_regions: u32, kinds: &[u8]) -> Option<String> {
    let key = |e: &RegionEntry| (e.start, e.end, e.id);
    let first = [
        (
            !entries.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "region index: entries not clustered on (start, end, id)",
        ),
        (
            entries.iter().any(|e| e.start > e.end),
            "region index: bad region: start > end",
        ),
        (
            entries.iter().any(|e| e.id as usize >= kinds.len()),
            "region index: references nodes beyond the document",
        ),
        (
            (entries.iter()).any(|e| kinds.get(e.id as usize) != Some(&(NodeKind::Element as u8))),
            "region index annotates a non-element node",
        ),
    ];
    if let Some((_, message)) = first.iter().find(|(broken, _)| *broken) {
        return Some(message.to_string());
    }
    let mut ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut found = 0;
    for id in ids {
        let mut area: Vec<Region> = (entries.iter())
            .filter(|e| e.id == id)
            .map(|e| *e.region())
            .collect();
        area.sort_unstable();
        if area.len() > 1 && Area::try_new(area.clone()).is_err() {
            return Some(format!(
                "region index: node {id} regions invalid: regions overlap or touch"
            ));
        }
        found = found.max(area.len() as u32);
    }
    (found != max_regions).then(|| "region index: stored max-regions is inconsistent".into())
}

/// One way to damage (or not) a valid entry column. Picks are reduced
/// modulo the column length.
#[derive(Clone, Debug)]
enum Damage {
    /// Nothing: must be accepted.
    None,
    /// Give entry `at` the id `id` — annotated or not, an element or
    /// not, inside the document or beyond it — and recluster.
    Reassign { at: usize, id: u32 },
    /// Give entry `at` entry `from`'s region and recluster: a duplicate
    /// region, maybe a duplicate entry.
    CopyRegion { at: usize, from: usize },
    /// Repeat entry `at` in place of its successor, unclustered.
    Repeat { at: usize },
    /// Swap two entries without reclustering.
    Swap { a: usize, b: usize },
    /// Move entry `at`'s start past its end.
    Invert { at: usize },
    /// Move entry `at` to touch the end of another region of its node's
    /// neighbour id, then give it that id: a touching area.
    Touch { at: usize },
    /// Raise the stored max-regions statistic by one.
    MaxRegionsLie,
    /// One damage, then another: which rule names the pair pins the
    /// order the rules are checked in.
    Both(Box<Damage>, Box<Damage>),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let one = one_damage_strategy();
    prop_oneof![
        one.clone(),
        (one.clone(), one).prop_map(|(a, b)| Damage::Both(Box::new(a), Box::new(b))),
    ]
}

fn one_damage_strategy() -> prop::strategy::BoxedStrategy<Damage> {
    let at = || 0usize..10_000;
    prop_oneof![
        Just(Damage::None),
        (at(), 0u32..140).prop_map(|(at, id)| Damage::Reassign { at, id }),
        (at(), at()).prop_map(|(at, from)| Damage::CopyRegion { at, from }),
        at().prop_map(|at| Damage::Repeat { at }),
        (at(), at()).prop_map(|(a, b)| Damage::Swap { a, b }),
        at().prop_map(|at| Damage::Invert { at }),
        at().prop_map(|at| Damage::Touch { at }),
        Just(Damage::MaxRegionsLie),
    ]
    .boxed()
}

fn recluster(entries: &mut [RegionEntry]) {
    entries.sort_by_key(|e| (e.start, e.end, e.id));
}

fn apply_damage(entries: &mut [RegionEntry], max_regions: &mut u32, damage: &Damage) {
    let n = entries.len();
    if n == 0 {
        return;
    }
    match *damage {
        Damage::None => {}
        Damage::Both(ref first, ref then) => {
            apply_damage(entries, max_regions, first);
            apply_damage(entries, max_regions, then);
        }
        Damage::Reassign { at, id } => {
            entries[at % n].id = id;
            recluster(entries);
        }
        Damage::CopyRegion { at, from } => {
            let src = entries[from % n];
            let e = &mut entries[at % n];
            (e.start, e.end) = (src.start, src.end);
            recluster(entries);
        }
        Damage::Repeat { at } => {
            let k = at % n;
            entries[(k + 1) % n] = entries[k];
        }
        Damage::Swap { a, b } => entries.swap(a % n, b % n),
        Damage::Invert { at } => {
            let e = &mut entries[at % n];
            e.start = e.end + 1;
        }
        Damage::Touch { at } => {
            let (k, other) = (at % n, (at + 1) % n);
            let (touching, id) = (entries[other].end + 1, entries[other].id);
            let e = &mut entries[k];
            (e.start, e.end, e.id) = (touching, touching, id);
            recluster(entries);
        }
        Damage::MaxRegionsLie => *max_regions += 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mount accepts exactly the entry columns the definitions accept,
    /// naming the first rule broken otherwise — never a panic — over
    /// multi-region areas, same-start nesting (ids against start order),
    /// sparse ids, and every damage above: duplicate ids and entries,
    /// ids past the document and on non-elements, unclustered columns,
    /// inverted regions and touching areas, alone and in pairs. What it accepts, it derives
    /// the view of that the definitions give.
    #[test]
    fn hostile_entries_are_refused_by_the_first_rule_they_break(
        annotations in prop_oneof![annotations_strategy(), nested_single_strategy()],
        stride in 1u32..3,
        damage in damage_strategy(),
        short_by in 0usize..4,
        text_at in prop::option::of(0usize..160),
    ) {
        let (pres, index) = build_index_strided(&annotations, stride);
        let s = index.storage();
        let (mut entries, mut max_regions) = (s.entries.to_vec(), s.max_regions);
        apply_damage(&mut entries, &mut max_regions, &damage);
        // Usually a document that holds every id (with slack for a
        // reassigned one); sometimes one that ends before the last.
        let full = pres.last().map_or(0, |&p| p as usize) + 3;
        let node_count = if short_by == 3 { full.saturating_sub(4) } else { full };
        let mut kinds = elements(node_count);
        if let Some(k) = text_at.filter(|&k| k < node_count) {
            kinds[k] = NodeKind::Text as u8;
        }
        let refusal = definitional_refusal(&entries, max_regions, &kinds);
        if matches!(damage, Damage::None) && short_by != 3 && text_at.is_none() {
            prop_assert!(refusal.is_none(), "an undamaged index must mount");
        }
        match RegionIndex::from_storage(entries.clone().into(), max_regions, &kinds) {
            Ok(mounted) => {
                prop_assert_eq!(refusal, None, "{:?}", damage);
                prop_assert_eq!(mounted.entries(), &entries[..]);
                for pre in 0..node_count as u32 {
                    let want: Vec<Region> = (entries.iter())
                        .filter(|e| e.id == pre)
                        .map(|e| *e.region())
                        .collect();
                    prop_assert_eq!(mounted.regions_of(pre), &want[..]);
                }
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                prop_assert_eq!(Some(e.to_string()), refusal, "{:?}", damage);
            }
        }
    }
}

/// Each hostile shape by name, refused as invalid data with its rule's
/// message: duplicate ids within one region, non-element ids, ids at or
/// past the node count (up to `u32::MAX`, promptly — no allocation is
/// sized by an id), unsorted entries and touching regions in one area.
#[test]
fn hostile_entry_columns_are_refused_by_name() {
    let entry = |start, end, id| RegionEntry { start, end, id };
    let cases: [(&str, Vec<RegionEntry>, u32, &str); 7] = [
        (
            "a duplicate entry",
            vec![entry(0, 4, 2), entry(0, 4, 2)],
            1,
            "entries not clustered",
        ),
        (
            "one id on two regions under max-regions 1",
            vec![entry(0, 4, 2), entry(9, 12, 2)],
            1,
            "stored max-regions is inconsistent",
        ),
        (
            "an id on a text node",
            vec![entry(0, 4, 2), entry(5, 8, 3)],
            1,
            "non-element",
        ),
        (
            "an id at the node count",
            vec![entry(0, 4, 2), entry(5, 8, 10)],
            1,
            "beyond the document",
        ),
        (
            "an id at u32::MAX",
            vec![entry(0, 4, 2), entry(5, 8, u32::MAX)],
            1,
            "beyond the document",
        ),
        (
            "unsorted entries",
            vec![entry(5, 8, 4), entry(0, 4, 2)],
            1,
            "entries not clustered",
        ),
        (
            "touching regions in one area",
            vec![entry(0, 4, 4), entry(5, 8, 4), entry(6, 7, 2)],
            2,
            "node 4 regions invalid: regions overlap or touch",
        ),
    ];
    let mut kinds = elements(10);
    kinds[3] = NodeKind::Text as u8;
    for (what, entries, max_regions, message) in cases {
        let err = RegionIndex::from_storage(entries.into(), max_regions, &kinds).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains(message), "{what}: {err}");
    }
}
