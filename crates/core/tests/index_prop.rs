//! Property tests for the region index: the candidate intersection —
//! the node-view gather an explicit candidate sequence takes, and a
//! pushed name's posting — must agree with the §4.3 definition
//! restricted to the reach, and the index must faithfully represent the
//! annotations it was built from.

use std::ops::Range;

use proptest::prelude::*;

use standoff_core::{Area, Region, RegionEntry, RegionIndex, StandoffConfig};
use standoff_xml::{DocumentBuilder, NodeKind};

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

/// The gather and the allocating form against the oracle.
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
    if reach == (0..index.len()) {
        assert_eq!(index.candidates_for(candidates), want, "allocating form");
    }
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
            Some((from, len)) => index.reach(from, from + len),
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
                index.gather_candidates(nodes, index.reach(from, to), &mut gathered);
                prop_assert_eq!(&table.entries[table.reach(from, to)], &gathered[..]);
                index.gather_candidates(nodes, index.wide_reach(from, to), &mut gathered);
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
        prop_assert_eq!(RawIndex::of(&index).mount(&kinds).unwrap().max_extent(), widest);
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
    assert_eq!(one.candidates_for(&[1]), one.entries());
    assert_all_agree(&one, &[1], 0..1);
    assert_all_agree(&one, &[2], 0..1);
    assert_all_agree(&one, &many, 0..1);

    let small = single(64);
    assert_eq!(small.candidates_for(&many), small.entries());
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

// ---- mount-time revalidation: the entry ↔ node-view bijection ----

/// The raw columns `RegionIndex::from_storage` takes, owned so a test
/// can damage them.
#[derive(Clone, Debug)]
struct RawIndex {
    entries: Vec<RegionEntry>,
    node_ids: Vec<u32>,
    node_offsets: Vec<u32>,
    node_regions: Vec<Region>,
    max_regions: u32,
}

impl RawIndex {
    fn of(index: &RegionIndex) -> RawIndex {
        let s = index.storage();
        RawIndex {
            entries: s.entries.to_vec(),
            node_ids: s.node_ids.to_vec(),
            node_offsets: s.node_offsets.to_vec(),
            node_regions: s.node_regions.to_vec(),
            max_regions: s.max_regions,
        }
    }

    fn mount(&self, kinds: &[u8]) -> std::io::Result<RegionIndex> {
        RegionIndex::from_storage(
            self.entries.clone().into(),
            self.node_ids.clone().into(),
            self.node_offsets.clone().into(),
            self.node_regions.clone().into(),
            self.max_regions,
            kinds,
        )
    }

    fn recluster(&mut self) {
        self.entries.sort_by_key(|e| (e.start, e.end, e.id));
    }
}

/// A document of `node_count` elements (every annotated id an element).
fn elements(node_count: usize) -> Vec<u8> {
    vec![NodeKind::Element as u8; node_count]
}

/// The oracle: the validation `from_storage` ran before its bijection
/// check became one linear pass — every structural check in turn, then
/// one binary search of the node view *per entry*, then the kind of
/// every annotated node. Kept here, and only here, to pin the accept
/// set and, for what it refuses, the message of the first check broken.
fn accepted_by_per_entry_search(raw: &RawIndex, kinds: &[u8]) -> Result<(), String> {
    let node_count = kinds.len();
    let RawIndex {
        entries,
        node_ids,
        node_offsets,
        node_regions,
        max_regions,
    } = raw;
    let refuse = |msg: &str| Err(format!("region index: {msg}"));
    if !entries
        .windows(2)
        .all(|w| (w[0].start, w[0].end, w[0].id) < (w[1].start, w[1].end, w[1].id))
    {
        return refuse("entries not clustered on (start, end, id)");
    }
    if !node_ids.windows(2).all(|w| w[0] < w[1]) {
        return refuse("node ids not strictly ascending");
    }
    if node_ids.last().is_some_and(|&id| id as usize >= node_count) {
        return refuse("references nodes beyond the document");
    }
    if node_offsets.len() != node_ids.len() + 1 {
        return refuse("region CSR length mismatch");
    }
    if node_offsets[0] != 0 || !node_offsets.windows(2).all(|w| w[0] < w[1]) {
        return refuse("region CSR offsets not increasing from 0");
    }
    if *node_offsets.last().unwrap() as usize != entries.len()
        || node_regions.len() != entries.len()
    {
        return refuse("entry count disagrees with region CSR");
    }
    if node_regions.iter().any(|r| r.start > r.end) {
        return refuse("bad region: start > end");
    }
    let slice_of = |k: usize| &node_regions[node_offsets[k] as usize..node_offsets[k + 1] as usize];
    let mut found_max = 0;
    for (k, &id) in node_ids.iter().enumerate() {
        let slice = slice_of(k);
        if !slice.windows(2).all(|w| w[0].start < w[1].start) {
            return refuse("node regions not sorted by start");
        }
        if !slice
            .windows(2)
            .all(|w| w[1].start > w[0].end.saturating_add(1))
        {
            return refuse(&format!(
                "node {id} regions invalid: regions overlap or touch"
            ));
        }
        found_max = found_max.max(slice.len() as u32);
    }
    if *max_regions != found_max {
        return refuse("stored max-regions is inconsistent");
    }
    if !entries.iter().all(|e| {
        node_ids.binary_search(&e.id).is_ok_and(|k| {
            slice_of(k)
                .binary_search_by_key(&(e.start, e.end), |r| (r.start, r.end))
                .is_ok()
        })
    }) {
        return refuse("entry has no matching node-view region");
    }
    if !node_ids
        .iter()
        .all(|&id| kinds[id as usize] == NodeKind::Element as u8)
    {
        return Err("region index annotates a non-element node".into());
    }
    Ok(())
}

/// One way to damage (or not) a valid index. Picks are reduced modulo
/// the column lengths.
#[derive(Clone, Debug)]
enum Damage {
    /// Nothing: must be accepted.
    None,
    /// Give entry `at` the id `id` (annotated, unannotated or beyond the
    /// document), keeping the table clustered: its old node misses an
    /// entry, another node may hold one too many.
    Reassign { at: usize, id: u32 },
    /// Overwrite entry `at` with entry `from`'s region: a duplicated
    /// region for one node, a missing one for another.
    CopyRegion { at: usize, from: usize },
    /// Drop entry `at` outright.
    Drop { at: usize },
    /// Repeat entry `at` in place of its successor.
    Repeat { at: usize },
    /// Overwrite node-view region `at` with region `from`.
    CopyNodeRegion { at: usize, from: usize },
    /// Move annotated id `at` by one (the ids are sparse, so the column
    /// stays ascending), with or without renaming its entries to match.
    ShiftId { at: usize, rename: bool },
    /// Swap the regions of two entries (ids stay): accepted exactly
    /// when both belong to the same node.
    SwapRegions { a: usize, b: usize },
    /// Move node-view region `at`'s start `by` past its end, and every
    /// entry with the same region too when `entry` holds.
    Invert { at: usize, by: i64, entry: bool },
    /// Raise the stored max-regions statistic by one.
    MaxRegionsLie,
    /// One damage, then another: which check names the pair pins the
    /// order the checks run in.
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
        (at(), 0u32..120).prop_map(|(at, id)| Damage::Reassign { at, id }),
        (at(), at()).prop_map(|(at, from)| Damage::CopyRegion { at, from }),
        at().prop_map(|at| Damage::Drop { at }),
        at().prop_map(|at| Damage::Repeat { at }),
        (at(), at()).prop_map(|(at, from)| Damage::CopyNodeRegion { at, from }),
        (at(), any::<bool>()).prop_map(|(at, rename)| Damage::ShiftId { at, rename }),
        (at(), at()).prop_map(|(a, b)| Damage::SwapRegions { a, b }),
        (at(), prop_oneof![Just(1i64), Just(500)], any::<bool>())
            .prop_map(|(at, by, entry)| Damage::Invert { at, by, entry }),
        Just(Damage::MaxRegionsLie),
    ]
    .boxed()
}

fn apply_damage(raw: &mut RawIndex, damage: &Damage) {
    let n = raw.entries.len();
    if n == 0 {
        return;
    }
    match *damage {
        Damage::None => {}
        Damage::Both(ref first, ref then) => {
            apply_damage(raw, first);
            apply_damage(raw, then);
        }
        Damage::Reassign { at, id } => {
            raw.entries[at % n].id = id;
            raw.recluster();
        }
        Damage::CopyRegion { at, from } => {
            let src = raw.entries[from % n];
            let e = &mut raw.entries[at % n];
            (e.start, e.end) = (src.start, src.end);
            raw.recluster();
        }
        Damage::Drop { at } => {
            raw.entries.remove(at % n);
        }
        Damage::Repeat { at } => {
            let k = at % n;
            raw.entries[(k + 1) % n] = raw.entries[k];
            raw.recluster();
        }
        Damage::CopyNodeRegion { at, from } => {
            raw.node_regions[at % n] = raw.node_regions[from % n];
        }
        Damage::ShiftId { at, rename } => {
            let k = at % raw.node_ids.len();
            let old = raw.node_ids[k];
            raw.node_ids[k] = old + 1;
            if rename {
                for e in raw.entries.iter_mut().filter(|e| e.id == old) {
                    e.id = old + 1;
                }
                raw.recluster();
            }
        }
        Damage::SwapRegions { a, b } => {
            let (a, b) = (a % n, b % n);
            let (ra, rb) = (raw.entries[a], raw.entries[b]);
            (raw.entries[a].start, raw.entries[a].end) = (rb.start, rb.end);
            (raw.entries[b].start, raw.entries[b].end) = (ra.start, ra.end);
            raw.recluster();
        }
        Damage::Invert { at, by, entry } => {
            let r = raw.node_regions[at % n];
            let inverted = Region {
                start: r.end + by,
                end: r.end,
            };
            raw.node_regions[at % n] = inverted;
            if entry {
                for e in raw
                    .entries
                    .iter_mut()
                    .filter(|e| (e.start, e.end) == (r.start, r.end))
                {
                    e.start = inverted.start;
                }
                raw.recluster();
            }
        }
        Damage::MaxRegionsLie => raw.max_regions += 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The linear bijection check accepts and rejects exactly what the
    /// per-entry binary search did, naming the same first broken check,
    /// over multi-region areas, single-region layouts with same-start
    /// nesting (the node cursor steps back), ids with gaps and without,
    /// and every kind of damage above — including documents too short for
    /// the ids the index names and annotated nodes that are not elements.
    #[test]
    fn linear_bijection_check_has_the_old_accept_set(
        annotations in prop_oneof![annotations_strategy(), nested_single_strategy()],
        stride in 1u32..3,
        damage in damage_strategy(),
        short_by in 0usize..4,
        text_at in prop::option::of(0usize..160),
    ) {
        let (pres, index) = build_index_strided(&annotations, stride);
        let mut raw = RawIndex::of(&index);
        apply_damage(&mut raw, &damage);
        // Usually a document that holds every id (with slack for a
        // shifted one); sometimes one that ends before the last.
        let full = pres.last().map_or(0, |&p| p as usize) + 3;
        let node_count = if short_by == 3 { full.saturating_sub(4) } else { full };
        let mut kinds = elements(node_count);
        if let Some(k) = text_at.filter(|&k| k < node_count) {
            kinds[k] = NodeKind::Text as u8;
        }
        let oracle = accepted_by_per_entry_search(&raw, &kinds);
        if matches!(damage, Damage::None) && short_by != 3 && text_at.is_none() {
            prop_assert!(oracle.is_ok(), "an undamaged index must mount");
        }
        match raw.mount(&kinds) {
            Ok(mounted) => {
                prop_assert!(oracle.is_ok(), "accepted what the oracle rejects: {damage:?}");
                prop_assert_eq!(mounted.entries(), &raw.entries[..]);
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                prop_assert_eq!(Err(e.to_string()), oracle, "{:?}", damage);
            }
        }
    }
}

/// A hostile node-id column — ascending, ending just below `u32::MAX` —
/// is refused as invalid data before any id is used as an index: ids
/// are bounded by the document's node count, and the bijection check
/// allocates nothing, so this returns promptly.
#[test]
fn hostile_node_ids_are_rejected_without_a_large_allocation() {
    let id = u32::MAX - 1;
    let raw = RawIndex {
        entries: vec![
            RegionEntry {
                start: 0,
                end: 1,
                id: 2,
            },
            RegionEntry {
                start: 5,
                end: 9,
                id,
            },
        ],
        node_ids: vec![2, id],
        node_offsets: vec![0, 1, 2],
        node_regions: vec![Region::new(0, 1).unwrap(), Region::new(5, 9).unwrap()],
        max_regions: 1,
    };
    for node_count in [0, 3, 1000] {
        let err = raw.mount(&elements(node_count)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("beyond the document"), "{err}");
        assert!(accepted_by_per_entry_search(&raw, &elements(node_count)).is_err());
    }
    // An entry naming a node beyond the document (while the node view
    // stays in range) is a bijection failure, not an out-of-bounds probe.
    let mut stray = raw.clone();
    stray.node_ids[1] = 4;
    let err = stray.mount(&elements(10)).unwrap_err();
    assert!(
        err.to_string().contains("no matching node-view region"),
        "{err}"
    );
    // The same shape over a document that really holds its ids is fine
    // — which is exactly why the bound must come from outside — as long
    // as every annotated node is an element.
    let mut near = raw.clone();
    near.node_ids[1] = 9;
    near.entries[1].id = 9;
    assert!(near.mount(&elements(10)).is_ok());
    assert!(accepted_by_per_entry_search(&near, &elements(10)).is_ok());
    let mut kinds = elements(10);
    kinds[9] = NodeKind::Text as u8;
    let err = near.mount(&kinds).unwrap_err();
    assert!(err.to_string().contains("non-element"), "{err}");
    assert!(accepted_by_per_entry_search(&near, &kinds).is_err());
}
