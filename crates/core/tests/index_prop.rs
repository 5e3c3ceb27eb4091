//! Property tests for the region index: the candidate intersection's
//! single entry point and every kernel its rule can choose (borrowed
//! reach, node-view gather, dense bitset scan, probe) must agree with
//! the §4.3 definition restricted to the reach, and the index must
//! faithfully represent the annotations it was built from.

use std::ops::Range;

use proptest::prelude::*;

use standoff_core::index::candidate_kernel;
use standoff_core::{
    Area, CandidateKernel, CandidateScratch, Region, RegionEntry, RegionIndex, StandoffConfig,
};
use standoff_xml::DocumentBuilder;

/// The oracle, by definition: the start-clustered table filtered by
/// candidate membership, then cut to the reach by position. Shares no
/// code with any kernel.
fn oracle(index: &RegionIndex, candidates: &[u32], reach: Range<usize>) -> Vec<RegionEntry> {
    index
        .entries()
        .iter()
        .enumerate()
        .filter(|(k, e)| reach.contains(k) && candidates.binary_search(&e.id).is_ok())
        .map(|(_, e)| *e)
        .collect()
}

/// The entry point and every kernel against the oracle; returns the
/// kernel the entry point chose and the counters it accumulated.
fn assert_all_agree(
    index: &RegionIndex,
    candidates: &[u32],
    reach: Range<usize>,
) -> (CandidateKernel, CandidateScratch) {
    let want = oracle(index, candidates, reach.clone());
    let mut scratch = CandidateScratch::default();
    let mut got = vec![RegionEntry {
        start: -1,
        end: -1,
        id: 0,
    }]; // must be cleared
    let kernel = index.candidates_in(Some(candidates), reach.clone(), &mut scratch, &mut got);
    let chosen = match kernel {
        CandidateKernel::Borrowed => &index.entries()[reach.clone()],
        _ => &got[..],
    };
    assert_eq!(chosen, want, "entry point ({kernel:?})");
    if candidates == index.annotated_nodes() {
        assert_eq!(&index.entries()[reach.clone()], want, "borrowed reach");
    }
    if reach == (0..index.len()) {
        assert_eq!(index.candidates_for(candidates), want, "allocating form");
    }
    index.gather_candidates(candidates, reach.clone(), &mut got);
    assert_eq!(got, want, "gather kernel");
    let mut fresh = CandidateScratch::default();
    index.dense_scan_candidates(candidates, reach.clone(), &mut fresh, &mut got);
    assert_eq!(got, want, "dense scan kernel");
    index.probe_candidates(candidates, reach, &fresh, &mut got);
    assert_eq!(got, want, "probe kernel");
    (kernel, scratch)
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

    /// The entry point and every kernel equal the oracle for every
    /// table size (empty and one-entry tables included), every reach —
    /// the whole table or the entries starting inside an extent — and
    /// every candidate set drawn from annotated *and* unannotated pre
    /// ranks, or all annotated ones: so cases land on every side of the
    /// rule's boundaries and reach `C > E`.
    #[test]
    fn entry_point_and_kernels_match_the_oracle(
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

/// Deterministic check that the one decision really dispatches to every
/// kernel, counts each choice, and that the inputs adjacent to a
/// crossover land on opposite sides of it with identical answers.
#[test]
fn every_kernel_is_chosen_and_agrees() {
    let (all, index) = uniform_index(2000);
    let whole = 0..index.len();
    let e = index.len() as u64;
    let but_one = &all[1..];

    // Every annotated node: the reach itself, borrowed.
    let (kernel, scratch) = assert_all_agree(&index, &all, whole.clone());
    assert_eq!(kernel, CandidateKernel::Borrowed);
    assert_eq!(scratch.stats.candidate_borrowed, 1);
    assert_eq!(scratch.stats.candidate_repr_dense, 0);
    assert_eq!(scratch.stats.candidate_reach_entries, e);

    // Selective: 3 nodes → gather kernel, no scan counters.
    let few = [all[10], all[500], all[1999]];
    let (kernel, scratch) = assert_all_agree(&index, &few, whole.clone());
    assert_eq!(kernel, CandidateKernel::NodeView);
    assert_eq!(scratch.stats.candidate_node_view, 1);
    assert_eq!(scratch.stats.candidate_repr_dense, 0);
    assert_eq!(scratch.stats.candidate_dense_blocks, 0);

    // Broad but not covering → dense scan of the whole table.
    let (kernel, scratch) = assert_all_agree(&index, but_one, whole.clone());
    assert_eq!(kernel, CandidateKernel::Scan);
    assert_eq!(scratch.stats.candidate_scans, 1);
    assert_eq!(scratch.stats.candidate_repr_dense, 1);
    assert_eq!(scratch.stats.candidate_dense_blocks, 2000u64.div_ceil(64));

    // The same candidates over a point's reach → probe, no bitset.
    let point = index.reach(300, 312); // starts 300, 303, …, 312
    assert_eq!(point.len(), 5);
    let (kernel, scratch) = assert_all_agree(&index, but_one, point);
    assert_eq!(kernel, CandidateKernel::Probe);
    assert_eq!(scratch.stats.candidate_probes, 1);
    assert_eq!(scratch.stats.candidate_repr_dense, 0);
    assert_eq!(scratch.stats.candidate_reach_entries, 5);

    // Node view → scan at full reach: the last gather-side count and
    // the first scan-side count.
    let rule = |c: usize, r: usize| candidate_kernel(Some(c), e, r as u64, || false);
    let last_gather = (1..all.len())
        .rev()
        .find(|&c| rule(c, all.len()) == CandidateKernel::NodeView)
        .unwrap();
    assert_eq!(rule(last_gather + 1, all.len()), CandidateKernel::Scan);
    let spread: Vec<u32> = all.iter().step_by(7).copied().collect();
    assert!(spread.len() > last_gather);
    let (kernel, _) = assert_all_agree(&index, &spread[..last_gather], whole.clone());
    assert_eq!(kernel, CandidateKernel::NodeView);
    let (kernel, _) = assert_all_agree(&index, &spread[..last_gather + 1], whole);
    assert_eq!(kernel, CandidateKernel::Scan);

    // Probe → scan as the reach widens around the same candidates.
    let last_probe = (1..all.len())
        .rev()
        .find(|&r| rule(but_one.len(), r) == CandidateKernel::Probe)
        .unwrap();
    assert_eq!(rule(but_one.len(), last_probe + 1), CandidateKernel::Scan);
    let reach_of = |r: usize| 100..100 + r;
    let (kernel, _) = assert_all_agree(&index, but_one, reach_of(last_probe));
    assert_eq!(kernel, CandidateKernel::Probe);
    let (kernel, _) = assert_all_agree(&index, but_one, reach_of(last_probe + 1));
    assert_eq!(kernel, CandidateKernel::Scan);
}

/// The degenerate tables: no entries, one entry, and far more candidate
/// elements than entries (`C ≫ E`, where a probe per entry beats the
/// scan's `O(C)` bitset fill for a one-block pass).
#[test]
fn empty_single_entry_and_oversubscribed_tables() {
    let many: Vec<u32> = (0..50_000).collect();

    let (_, empty) = uniform_index(0);
    assert!(empty.is_empty());
    for cands in [&[][..], &[7][..], &many[..]] {
        let (_, scratch) = assert_all_agree(&empty, cands, 0..0);
        assert_eq!(scratch.stats.candidate_repr_dense, 0, "nothing to scan");
    }

    let (one, single) = uniform_index(1);
    assert_eq!(single.len(), 1);
    assert_all_agree(&single, &[], 0..1);
    assert_eq!(single.candidates_for(&one), single.entries());
    assert_all_agree(&single, &one, 0..1);
    assert_all_agree(&single, &[one[0] + 1], 0..1);
    let (kernel, scratch) = assert_all_agree(&single, &many, 0..1);
    assert_eq!(kernel, CandidateKernel::Probe);
    assert_eq!(scratch.stats.candidate_repr_dense, 0);

    let (_, small) = uniform_index(64);
    assert_eq!(small.candidates_for(&many), small.entries());
    let (kernel, _) = assert_all_agree(&small, &many, 0..64);
    assert_eq!(kernel, CandidateKernel::Probe);
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

    fn mount(&self, node_count: usize) -> std::io::Result<RegionIndex> {
        RegionIndex::from_storage(
            self.entries.clone().into(),
            self.node_ids.clone().into(),
            self.node_offsets.clone().into(),
            self.node_regions.clone().into(),
            self.max_regions,
            node_count,
        )
    }

    fn recluster(&mut self) {
        self.entries.sort_by_key(|e| (e.start, e.end, e.id));
    }
}

/// The oracle: the validation `from_storage` ran before its bijection
/// check became one linear pass — every structural check, then one
/// binary search of the node view *per entry*. Kept here, and only
/// here, to pin the accept set.
fn accepted_by_per_entry_search(raw: &RawIndex, node_count: usize) -> bool {
    let RawIndex {
        entries,
        node_ids,
        node_offsets,
        node_regions,
        max_regions,
    } = raw;
    let clustered = entries
        .windows(2)
        .all(|w| (w[0].start, w[0].end, w[0].id) < (w[1].start, w[1].end, w[1].id));
    if !clustered
        || !node_ids.windows(2).all(|w| w[0] < w[1])
        || node_ids.last().is_some_and(|&id| id as usize >= node_count)
        || node_offsets.len() != node_ids.len() + 1
        || node_offsets[0] != 0
        || !node_offsets.windows(2).all(|w| w[0] < w[1])
        || *node_offsets.last().unwrap() as usize != entries.len()
        || node_regions.len() != entries.len()
        || node_regions.iter().any(|r| r.start > r.end)
    {
        return false;
    }
    let slice_of = |k: usize| &node_regions[node_offsets[k] as usize..node_offsets[k + 1] as usize];
    let mut found_max = 0;
    for k in 0..node_ids.len() {
        let slice = slice_of(k);
        if !slice
            .windows(2)
            .all(|w| w[0].start < w[1].start && w[1].start > w[0].end.saturating_add(1))
        {
            return false;
        }
        found_max = found_max.max(slice.len() as u32);
    }
    if *max_regions != found_max {
        return false;
    }
    entries.iter().all(|e| {
        node_ids.binary_search(&e.id).is_ok_and(|k| {
            slice_of(k)
                .binary_search_by_key(&(e.start, e.end), |r| (r.start, r.end))
                .is_ok()
        })
    })
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
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
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
    ]
}

fn apply_damage(raw: &mut RawIndex, damage: &Damage) {
    let n = raw.entries.len();
    if n == 0 {
        return;
    }
    match *damage {
        Damage::None => {}
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The linear bijection check accepts and rejects exactly what the
    /// per-entry binary search did, over multi-region areas, sparse ids
    /// and every kind of damage above — including documents too short
    /// for the ids the index names.
    #[test]
    fn linear_bijection_check_has_the_old_accept_set(
        annotations in annotations_strategy(),
        damage in damage_strategy(),
        short_by in 0usize..4,
    ) {
        let (pres, index) = build_index(&annotations);
        let mut raw = RawIndex::of(&index);
        apply_damage(&mut raw, &damage);
        // Usually a document that holds every id (with slack for a
        // shifted one); sometimes one that ends before the last.
        let full = pres.last().map_or(0, |&p| p as usize) + 3;
        let node_count = if short_by == 3 { full.saturating_sub(4) } else { full };
        let accepted = accepted_by_per_entry_search(&raw, node_count);
        if matches!(damage, Damage::None) && short_by != 3 {
            prop_assert!(accepted, "an undamaged index must mount");
        }
        match raw.mount(node_count) {
            Ok(mounted) => {
                prop_assert!(accepted, "accepted what the oracle rejects: {damage:?}");
                prop_assert_eq!(mounted.entries(), &raw.entries[..]);
            }
            Err(e) => {
                prop_assert!(!accepted, "rejected what the oracle accepts: {damage:?}: {e}");
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
        }
    }
}

/// A hostile node-id column — ascending, ending just below `u32::MAX` —
/// is refused as invalid data before anything is sized by an id: the
/// scratch of the bijection check is bounded by the document's node
/// count, so this returns promptly instead of asking for 16 GiB.
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
        let err = raw.mount(node_count).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("beyond the document"), "{err}");
        assert!(!accepted_by_per_entry_search(&raw, node_count));
    }
    // An entry naming a node beyond the document (while the node view
    // stays in range) is a bijection failure, not an out-of-bounds probe.
    let mut stray = raw.clone();
    stray.node_ids[1] = 4;
    let err = stray.mount(10).unwrap_err();
    assert!(
        err.to_string().contains("no matching node-view region"),
        "{err}"
    );
    // The same columns over a document that really is that large would
    // be fine — which is exactly why the bound must come from outside.
    assert!(accepted_by_per_entry_search(&raw, u32::MAX as usize));
}
