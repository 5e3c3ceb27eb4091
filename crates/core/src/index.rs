//! The region index (paper §4.3).
//!
//! A per-document index of all area-annotations: a `start|end|id` table
//! *clustered on start*, where `id` is the annotation node's pre-order
//! rank (MonetDB/XQuery's node identifier). Non-contiguous areas repeat
//! the same id in several entries. A second, node-ordered view supports
//! context-region fetch and the candidate-sequence intersection that the
//! element-name index feeds into StandOff steps with name tests. The
//! view is a function of the entries: it is derived from them in one
//! pass wherever an index is built, renumbered or mounted, and never
//! stored (`NodeView`). A node finds its regions in one probe of
//! that view: annotated pre ranks ascend strictly, so a node's slot is
//! at most its distance from the first annotated rank — exactly that
//! when the ranks are contiguous ([`RegionIndex::regions_of`]).
//!
//! A join reads a *reach* of a start-clustered [`Table`] — the slice its
//! context can contain ([`Table::reach`], [`Table::wide_reach`]). For a
//! pushed element name that table is the name's *posting*
//! ([`RegionIndex::posting`]): the candidate intersection, derived once
//! per name through the node view and kept in the index, or the whole
//! table when the name's elements are every annotated node. An explicit
//! candidate sequence is intersected per join, through the node view
//! ([`RegionIndex::gather_candidates`]) or by borrowing when it covers.
//!
//! The loop-lifted count sweeps read a table through its *keys*: a
//! directory of the entries' starts, one row number per bucket of the
//! starts' span, and the largest end of each 64-row block. They are
//! derived, never stored: a posting's with the posting, the index's own
//! on the first sweep that reads it.

use std::io;
use std::ops::Range;
use std::sync::OnceLock;

use standoff_xml::column::{Pod, PodCol};
use standoff_xml::{Document, NameId, NodeKind, Renumbering};

use crate::budget::{Budget, BudgetExceeded};
use crate::config::StandoffConfig;
use crate::error::StandoffError;
use crate::join::merge::POLL_BLOCK;
use crate::region::{Area, Region};

/// One row of the region index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct RegionEntry {
    pub start: i64,
    pub end: i64,
    /// Pre-order rank of the annotation element.
    pub id: u32,
}

const _: () = assert!(std::mem::size_of::<RegionEntry>() == 24);

impl RegionEntry {
    /// The entry's region, in place: `RegionEntry` and [`Region`] are
    /// both `repr(C)`, and an entry begins with a region's two `i64`s.
    #[inline]
    pub fn region(&self) -> &Region {
        // Safety: `repr(C)` lays `start` and `end` out first in both
        // types, at the same offsets and with the same alignment, so the
        // first 16 bytes of an entry are a valid `Region` for as long as
        // the entry is borrowed.
        unsafe { &*(self as *const RegionEntry as *const Region) }
    }
}

// `repr(C)` gives `RegionEntry` a fixed 24-byte layout (4 trailing
// padding bytes, written as zeros and never read back), so entry columns
// in SOSN snapshots mount zero-copy on little-endian targets.
unsafe impl Pod for RegionEntry {
    const WIDTH: usize = 24;

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        RegionEntry {
            start: i64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            end: i64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            id: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
        }
    }

    #[inline]
    fn write_le<W: io::Write>(self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.start.to_le_bytes())?;
        w.write_all(&self.end.to_le_bytes())?;
        w.write_all(&self.id.to_le_bytes())?;
        w.write_all(&[0u8; 4]) // padding, for the in-place view
    }
}

/// Summary statistics of one or more region indexes: what `explain`
/// prints for the indexes a StandOff join reaches, and what a mount
/// checks a layer header against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IndexStats {
    /// Number of indexes aggregated into this summary.
    pub indexes: u32,
    /// Total region entries (rows of the start-clustered table).
    pub entries: u64,
    /// Total annotated nodes.
    pub annotated: u64,
    /// Largest per-annotation region count across all indexes (1 ⇒ every
    /// area is contiguous and the fast single-region paths apply).
    pub max_regions: u32,
}

impl IndexStats {
    /// Fold another summary into this one.
    pub fn merge(&mut self, other: IndexStats) {
        self.indexes += other.indexes;
        self.entries += other.entries;
        self.annotated += other.annotated;
        self.max_regions = self.max_regions.max(other.max_regions);
    }
}

/// Per-document region index.
///
/// ```
/// use standoff_core::{RegionIndex, StandoffConfig};
/// let doc = standoff_xml::parse_document(
///     r#"<d><a start="0" end="9"/><b start="3" end="5"/></d>"#)?;
/// let index = RegionIndex::build(&doc, &StandoffConfig::default())?;
/// assert_eq!(index.len(), 2);
/// assert_eq!(index.entries()[0].start, 0);     // clustered on start
/// assert_eq!(index.regions_of(2)[0].end, 9);   // node view: <a> is pre 2
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RegionIndex {
    /// All region entries, sorted by `(start, end, id)` — the clustering
    /// the merge joins scan.
    entries: PodCol<RegionEntry>,
    /// Do the entries' ids ascend? Then entry `k` is the `k`-th
    /// annotated node's one region.
    ascending: bool,
    /// Annotated nodes.
    annotated: usize,
    /// The smallest annotated rank, and one past the largest.
    node_span: (u32, usize),
    /// The node view, derived from the entries the first time it is
    /// read — at once for a multi-region index, whose area rules only it
    /// can check. Never stored.
    view: OnceLock<NodeView>,
    /// The annotated ranks as one column, for a view that does not hold
    /// them ([`NodeView::Entries`]): built by the first
    /// [`RegionIndex::annotated_nodes`].
    ids: OnceLock<Vec<u32>>,
    /// Largest region count of any single annotation (1 ⇒ the fast
    /// single-region post-processing path applies).
    max_regions: u32,
    /// The largest `end − start` over the entries, derived with the node
    /// view: the loop-lifted wide join's reach ([`Table::wide_reach`]).
    max_extent: i64,
    /// One slot per element name of the indexed document, holding the
    /// name's posting once a join has derived it
    /// ([`RegionIndex::posting`]). Never stored: a built, renumbered or
    /// mounted index starts with none.
    postings: OnceLock<Box<[OnceLock<NamePosting>]>>,
    /// The entries' sweep keys, derived by the first count sweep that
    /// reads the whole table (`Table::keys`). Never stored.
    keys: OnceLock<Keys>,
}

/// The node-ordered view of an index: the annotated pre ranks,
/// ascending, and where each one's regions are — as little as the
/// entries leave to store. A single-region index whose ranks fill their
/// span (any nested hierarchy: a parent and its first child share a
/// start, so its ids do not ascend) keeps one entry row per node, not a
/// copy of the node's id and region.
#[derive(Clone, Debug)]
enum NodeView {
    /// The entries' ids ascend, so start order is node order: node `k`
    /// is entry `k`'s id, and that entry is its one region.
    Entries,
    /// The annotated ranks fill `[first, first + at.len())`: node
    /// `first + k`'s one region is `entries[at[k]]` — four bytes a node.
    Span { first: u32, at: Vec<u32> },
    /// Node `k` is `ids[k]`, its one region `regions[k]`.
    One { ids: Vec<u32>, regions: Vec<Region> },
    /// Node `k` is `ids[k]`, its regions `regions[offsets[k]..offsets[k +
    /// 1]]`, sorted by start.
    Areas {
        ids: Vec<u32>,
        offsets: Vec<u32>,
        regions: Vec<Region>,
    },
}

/// Borrowed raw columns of a [`RegionIndex`] — the snapshot writer's
/// view of the index: the entries (dumped as one aligned section) and
/// the max-regions statistic. The node view is derived, never stored.
pub struct RegionIndexStorage<'a> {
    pub entries: &'a [RegionEntry],
    pub max_regions: u32,
}

/// Accumulates `(pre, area)` pushes, then finalizes into the clustered
/// column form (the build-time backend).
#[derive(Default)]
struct IndexAccum {
    entries: Vec<RegionEntry>,
}

impl IndexAccum {
    fn push_area(&mut self, pre: u32, area: &Area) {
        for r in area.regions() {
            self.entries.push(RegionEntry {
                start: r.start,
                end: r.end,
                id: pre,
            });
        }
    }

    /// Cluster the entries and derive the node view from them, the way
    /// a mount does.
    fn finish(mut self, kinds: Option<&[u8]>) -> RegionIndex {
        self.entries
            .sort_unstable_by_key(|e| (e.start, e.end, e.id));
        RegionIndex::derive(self.entries.into(), None, kinds)
            .expect("pushed areas are valid annotations of elements")
    }
}

impl RegionIndex {
    /// Build the index for one document under a configuration.
    pub fn build(doc: &Document, config: &StandoffConfig) -> Result<RegionIndex, StandoffError> {
        config.validate()?;
        let mut accum = IndexAccum::default();
        for pre in 0..doc.node_count() as u32 {
            if doc.kind(pre) != NodeKind::Element {
                continue;
            }
            if let Some(area) = config.area_of(doc, pre)? {
                accum.push_area(pre, &area);
            }
        }
        Ok(accum.finish(Some(doc.kinds())))
    }

    /// The index of [`Document::splice`]'s copy of this index's document,
    /// without re-reading it: the annotations `moved` dropped are gone,
    /// the kept ones move with their nodes, and `added` — single-region
    /// annotations on the appended elements, ascending — join them. It
    /// is what [`RegionIndex::build`] makes of the copy, since a splice
    /// appends after every element of the document: the clustered column
    /// is renumbered in one pass with the added entries merged in, and
    /// the node view is derived from it as a mount derives it.
    pub fn renumbered(&self, moved: &Renumbering, added: &[(u32, Region)]) -> RegionIndex {
        let mut fresh: Vec<RegionEntry> = (added.iter())
            .map(|&(id, r)| RegionEntry {
                start: r.start,
                end: r.end,
                id,
            })
            .collect();
        debug_assert!(fresh.windows(2).all(|w| w[0].id < w[1].id));
        fresh.sort_unstable_by_key(|e| (e.start, e.end, e.id));
        // Each added entry follows every kept one with its region or a
        // smaller one; the kept stretches in between are renumbered.
        let mut entries = Vec::with_capacity(self.entries.len() + added.len());
        let keep = |entries: &mut Vec<RegionEntry>, kept: &[RegionEntry]| {
            entries.extend(kept.iter().filter_map(|e| {
                let id = moved.get(e.id)?;
                Some(RegionEntry { id, ..*e })
            }))
        };
        let mut from = 0;
        for f in fresh {
            let upto = from
                + self.entries[from..].partition_point(|e| (e.start, e.end) <= (f.start, f.end));
            keep(&mut entries, &self.entries[from..upto]);
            entries.push(f);
            from = upto;
        }
        keep(&mut entries, &self.entries[from..]);
        RegionIndex::derive(entries.into(), None, None)
            .expect("a renumbering keeps the index well-formed")
    }

    /// Build directly from `(pre, area)` pairs (synthetic workloads and
    /// tests). Pairs must be in ascending pre order.
    pub fn from_areas(pairs: &[(u32, Area)]) -> RegionIndex {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut accum = IndexAccum::default();
        for (pre, area) in pairs {
            accum.push_area(*pre, area);
        }
        accum.finish(None)
    }

    /// All entries, clustered on start.
    #[inline]
    pub fn entries(&self) -> &[RegionEntry] {
        &self.entries
    }

    /// Number of region entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Annotated node pre ranks in document order.
    pub fn annotated_nodes(&self) -> &[u32] {
        match self.view() {
            NodeView::One { ids, .. } | NodeView::Areas { ids, .. } => ids,
            NodeView::Span { first, at } => {
                (self.ids).get_or_init(|| (*first..*first + at.len() as u32).collect())
            }
            NodeView::Entries => self
                .ids
                .get_or_init(|| self.entries.iter().map(|e| e.id).collect()),
        }
    }

    /// Are `sorted_node_pres` — strictly ascending — exactly the
    /// annotated nodes? Asked of the entries themselves when their ids
    /// ascend, and of the length and the two endpoints when the
    /// annotated ranks fill their span, so no view is derived for it.
    pub fn covers(&self, sorted_node_pres: &[u32]) -> bool {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        if sorted_node_pres.len() != self.annotated {
            return false;
        }
        if self.ascending {
            return (self.entries.iter().zip(sorted_node_pres)).all(|(e, &pre)| e.id == pre);
        }
        let (first, bound) = self.node_span;
        if bound - first as usize == self.annotated {
            // A strictly ascending list as long as the span, starting and
            // ending where it does, is the span.
            return sorted_node_pres.first() == Some(&first)
                && sorted_node_pres.last() == Some(&(bound as u32 - 1));
        }
        sorted_node_pres == self.annotated_nodes()
    }

    /// The node view, derived on first use.
    #[inline]
    fn view(&self) -> &NodeView {
        self.view.get_or_init(|| {
            if self.ascending {
                return NodeView::Entries;
            }
            let (first, bound) = self.node_span;
            if self.max_regions == 1 && bound - first as usize == self.entries.len() {
                // Distinct ids filling their span: each entry's slot is
                // its id's distance from the first, so no count per rank,
                // and the slot holds the entry's row, not a copy.
                let mut at = vec![0u32; self.entries.len()];
                for (row, e) in self.entries.iter().enumerate() {
                    at[(e.id - first) as usize] = row as u32;
                }
                return NodeView::Span { first, at };
            }
            let derived = node_view(&self.entries, bound);
            derived.expect("the entries were checked").view
        })
    }

    /// The slot of `pre` in `view`, this index's, searched from `from`: a
    /// previous answer, or 0.
    #[inline]
    fn slot_of(&self, view: &NodeView, from: usize, pre: u32) -> Option<usize> {
        match view {
            NodeView::Entries => seek(&self.entries, |e| e.id, from, pre),
            NodeView::Span { first, at } => {
                let k = pre.checked_sub(*first)? as usize;
                (k < at.len()).then_some(k)
            }
            NodeView::One { ids, .. } | NodeView::Areas { ids, .. } => {
                seek(ids, |&id| id, from, pre)
            }
        }
    }

    /// Largest per-annotation region count.
    #[inline]
    pub fn max_regions(&self) -> u32 {
        self.max_regions
    }

    /// The largest `end − start` of any entry (0 for an empty index).
    #[inline]
    pub fn max_extent(&self) -> i64 {
        self.max_extent
    }

    /// This index's summary statistics (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            indexes: 1,
            entries: self.entries.len() as u64,
            annotated: self.annotated as u64,
            max_regions: self.max_regions,
        }
    }

    /// The regions of the annotation at `pre` (empty slice if `pre` is not
    /// annotated), found in one probe of the node view where the
    /// annotated pre ranks are contiguous: `pre`'s slot is at most
    /// `pre − node_ids[0]`, and is that when every rank in between is
    /// annotated.
    #[inline]
    pub fn regions_of(&self, pre: u32) -> &[Region] {
        let view = self.view();
        match self.slot_of(view, 0, pre) {
            Some(k) => self.regions_at(view, k),
            None => &[],
        }
    }

    /// The regions of the `k`-th annotated node of `view`, this index's.
    #[inline]
    fn regions_at<'a>(&'a self, view: &'a NodeView, k: usize) -> &'a [Region] {
        match view {
            NodeView::Entries => std::slice::from_ref(self.entries[k].region()),
            NodeView::Span { at, .. } => {
                std::slice::from_ref(self.entries[at[k] as usize].region())
            }
            NodeView::One { regions, .. } => std::slice::from_ref(&regions[k]),
            NodeView::Areas {
                offsets, regions, ..
            } => &regions[offsets[k] as usize..offsets[k + 1] as usize],
        }
    }

    /// The entries carrying exactly the region `[start, end]`: the equal
    /// range of that key in the clustered column, so ids come out
    /// ascending. Two binary searches — this is the lookup that answers
    /// "which annotations sit at this region?" without touching the
    /// other rows. Returned with the number of entries it examined:
    /// every comparison of the two binary searches and every row of the
    /// answer. Callers that publish a probe counter feed it from here,
    /// so the count is measured, not derived.
    pub fn entries_at_probed(&self, start: i64, end: i64) -> (&[RegionEntry], u64) {
        let mut probes = 0u64;
        let lo = self.entries.partition_point(|e| {
            probes += 1;
            (e.start, e.end) < (start, end)
        });
        let len = self.entries[lo..].partition_point(|e| {
            probes += 1;
            (e.start, e.end) == (start, end)
        });
        (&self.entries[lo..lo + len], probes + len as u64)
    }

    /// Region count of the annotation at `pre` (0 if not annotated).
    pub fn region_count(&self, pre: u32) -> usize {
        self.regions_of(pre).len()
    }

    /// The area of the annotation at `pre`, if annotated.
    pub fn area_of(&self, pre: u32) -> Option<Area> {
        let rs = self.regions_of(pre);
        if rs.is_empty() {
            None
        } else {
            Some(Area::try_new(rs.to_vec()).expect("index stores valid areas"))
        }
    }

    /// Candidate-sequence intersection (§4.3): restrict the index to the
    /// given candidate node ids (sorted ascending), *preserving the start
    /// ordering* of the region index. This is how an explicit candidate
    /// sequence is pushed into a StandOff step.
    ///
    /// The node-view derivation: fetch each candidate's regions through
    /// the CSR node view — one galloping cursor over the node ids, both
    /// lists ascending — into `out` (cleared first), keeping those inside
    /// `reach` (a range [`Table::reach`] returned, or the whole table —
    /// never one that splits a run of equal starts) and restoring the
    /// `(start, end, id)` clustering only when the gathered runs actually
    /// violate it.
    pub fn gather_candidates(
        &self,
        sorted_node_pres: &[u32],
        reach: Range<usize>,
        out: &mut Vec<RegionEntry>,
    ) {
        let gathered = self.gather(sorted_node_pres, reach, None, out);
        debug_assert!(gathered.is_ok(), "no budget, no trip");
    }

    /// [`RegionIndex::gather_candidates`], polling `budget` once per
    /// [`POLL_BLOCK`] candidates. Returns how many candidates are
    /// annotated.
    fn gather(
        &self,
        sorted_node_pres: &[u32],
        reach: Range<usize>,
        budget: Option<&Budget>,
        out: &mut Vec<RegionEntry>,
    ) -> Result<usize, BudgetExceeded> {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        if reach.is_empty() {
            return Ok(0);
        }
        // The reach as a start interval: it never splits a run of equal
        // starts, so the interval holds exactly its entries.
        let e = &self.entries;
        debug_assert!(reach.start == 0 || e[reach.start - 1].start < e[reach.start].start);
        debug_assert!(reach.end == e.len() || e[reach.end - 1].start < e[reach.end].start);
        let (from, to) = (e[reach.start].start, e[reach.end - 1].start);
        out.reserve(sorted_node_pres.len());
        let mut sorted = true;
        let mut prev = (i64::MIN, i64::MIN, 0u32);
        let (mut slot, mut annotated) = (0, 0);
        let view = self.view();
        for (k, &pre) in sorted_node_pres.iter().enumerate() {
            if k % POLL_BLOCK == 0 {
                if let Some(why) = budget.and_then(Budget::poll) {
                    return Err(why);
                }
            }
            let Some(found) = self.slot_of(view, slot, pre) else {
                continue;
            };
            slot = found;
            annotated += 1;
            for r in self.regions_at(view, slot) {
                if r.start < from || r.start > to {
                    continue;
                }
                let key = (r.start, r.end, pre);
                sorted &= prev < key;
                prev = key;
                out.push(RegionEntry {
                    start: r.start,
                    end: r.end,
                    id: pre,
                });
            }
        }
        // Sortedness fast path: the per-node runs arrive in pre order,
        // which usually coincides with start order (always in the
        // nesting-free single-region layouts) — detected on the fly,
        // never assumed, so the merge-back sort runs only when the
        // clustering was actually violated.
        if !sorted {
            out.sort_unstable_by_key(|e| (e.start, e.end, e.id));
        }
        Ok(annotated)
    }

    /// The posting of element name `name` of `doc`, the document this
    /// index describes: the entries of its elements
    /// ([`Document::element_postings`]) in the table's `(start, end,
    /// id)` order, with their own extent bound — or, for a name whose
    /// elements are exactly the annotated nodes, the whole table,
    /// borrowed. Derived by the node-view gather on the first call for
    /// the name and kept in the index, so every later join over the
    /// name reads two partition points and its own entries. The
    /// posting's sweep keys are derived with it. A derivation polls
    /// `budget` once per block of candidates; a trip publishes nothing,
    /// and the next call derives again.
    ///
    /// `doc` must be the document the index was built from: its name
    /// table sizes the slots on the first call, and a name outside them
    /// is `None`, which leaves the derivation to the caller. Every published
    /// posting adds its bytes to the `index.posting_bytes` counter of
    /// the process-wide registry, and its keys' to `index.key_bytes`:
    /// engine memory, bounded by 24 and about 4⅛ bytes per entry of the
    /// index (the keys are a start directory and block ends), shared by
    /// every request that reads it.
    pub fn posting(
        &self,
        doc: &Document,
        name: NameId,
        budget: Option<&Budget>,
    ) -> Result<Option<Posting<'_>>, BudgetExceeded> {
        let slots = self
            .postings
            .get_or_init(|| (0..doc.names().len()).map(|_| OnceLock::new()).collect());
        let Some(slot) = slots.get(name.0 as usize) else {
            return Ok(None);
        };
        let built = match slot.get() {
            Some(built) => built,
            None => {
                let built = self.derive_posting(doc.element_postings(name), budget)?;
                let (bytes, key_bytes) = built.bytes();
                if slot.set(built).is_ok() {
                    let metrics = crate::obs::MetricsRegistry::global();
                    metrics.add("index.posting_bytes", bytes);
                    metrics.add("index.key_bytes", key_bytes);
                }
                slot.get().expect("published above or by a racing thread")
            }
        };
        Ok(Some(match built {
            NamePosting::Covering => Posting {
                table: self.table(),
                covering: true,
                annotated: self.annotated,
            },
            NamePosting::Entries {
                entries,
                max_extent,
                annotated,
                keys,
            } => Posting {
                table: Table {
                    entries,
                    max_extent: *max_extent,
                    keys,
                },
                covering: false,
                annotated: *annotated,
            },
        }))
    }

    /// The posting of the elements `nodes`, before it is published.
    fn derive_posting(
        &self,
        nodes: &[u32],
        budget: Option<&Budget>,
    ) -> Result<NamePosting, BudgetExceeded> {
        if self.covers(nodes) {
            return Ok(NamePosting::Covering);
        }
        let mut entries = Vec::new();
        let annotated = self.gather(nodes, 0..self.len(), budget, &mut entries)?;
        Ok(NamePosting::Entries {
            max_extent: max_extent(&entries),
            keys: OnceLock::from(Keys::of(&entries)),
            entries: entries.into_boxed_slice(),
            annotated,
        })
    }

    /// The whole table with the index's extent bound.
    #[inline]
    pub fn table(&self) -> Table<'_> {
        Table {
            entries: &self.entries,
            max_extent: self.max_extent,
            keys: &self.keys,
        }
    }

    /// Assemble an index from its (possibly buffer-backed) entry column
    /// and stored max-regions statistic, deriving the node view in one
    /// pass and re-validating **every** structural invariant as it goes:
    /// clustering order, `start ≤ end`, annotated ids inside the document
    /// and naming elements, the §3.1 area rules of every multi-region
    /// annotation, and the statistic itself. This is the single trust
    /// boundary of the snapshot mount — mounted indexes are used as-is by
    /// the join executor (whose post-filter elision relies on join
    /// outputs being elements), never re-checked downstream. Strictly
    /// clustered entries are unique, so no annotation names one region
    /// twice.
    ///
    /// `kinds` is the already validated node-kind column of the document
    /// the index describes (one [`NodeKind`] byte per node): an annotated
    /// id at or beyond its length is rejected before any is used as an
    /// index.
    pub fn from_storage(
        entries: PodCol<RegionEntry>,
        max_regions: u32,
        kinds: &[u8],
    ) -> io::Result<RegionIndex> {
        RegionIndex::derive(entries, Some(max_regions), Some(kinds))
    }

    /// The one derivation of the node view from clustered entries, for
    /// build, renumbering and mount alike: one walk over the entries
    /// checks them and finds whether their ids ascend — then the view is
    /// the entries themselves. Otherwise a bit per rank shows whether an
    /// id repeats; only then — or when `stored` claims more than one
    /// region per node — is the view derived at once (by a count per
    /// rank that places every region in its node's slot), to check the
    /// areas and count the regions, and else on first use. A failure is
    /// named by the first broken rule in the order
    /// [`RegionIndex::from_storage`] lists them; `stored`, when given, is
    /// the max-regions statistic the result must reproduce, and `kinds`,
    /// when given, the node kinds every id must name an element in.
    fn derive(
        entries: PodCol<RegionEntry>,
        stored: Option<u32>,
        kinds: Option<&[u8]>,
    ) -> io::Result<RegionIndex> {
        let node_count = kinds.map_or(usize::MAX, <[u8]>::len);
        // One branch-free pass: each entry against its predecessor, its
        // own region and id, and the kind of the node it names.
        let e: &[RegionEntry] = &entries;
        let element = NodeKind::Element as u8;
        let mut walk = Walk::default();
        let mut prev: Option<RegionEntry> = None;
        for e in e {
            if let Some(a) = prev {
                walk.sorted &= (a.start < e.start)
                    | ((a.start == e.start)
                        & ((a.end < e.end) | ((a.end == e.end) & (a.id < e.id))));
                walk.ascending &= a.id < e.id;
            }
            walk.ordered &= e.start <= e.end;
            walk.max_extent = walk.max_extent.max(e.end.saturating_sub(e.start));
            (walk.min_id, walk.max_id) = (walk.min_id.min(e.id), walk.max_id.max(e.id));
            if let Some(kinds) = kinds {
                walk.elements &= kinds.get(e.id as usize) == Some(&element);
            }
            prev = Some(*e);
        }
        let Walk {
            sorted,
            ascending,
            ordered,
            elements,
            max_extent,
            min_id,
            max_id,
        } = walk;
        let inside = e.is_empty() || (max_id as usize) < node_count;
        let elements = elements || !inside;
        if !sorted {
            return Err(index_data_err("entries not clustered on (start, end, id)"));
        }
        if !ordered {
            return Err(index_data_err("bad region: start > end"));
        }
        if !inside {
            return Err(index_data_err("references nodes beyond the document"));
        }
        if !elements {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "region index annotates a non-element node",
            ));
        }
        let node_span = match e.is_empty() {
            true => (0, 0),
            false => (min_id, max_id as usize + 1),
        };
        let node_bound = node_span.1;
        let view = OnceLock::new();
        let single = ascending || (stored.is_none_or(|m| m <= 1) && distinct_ids(e, node_bound));
        let (annotated, max_regions) = if single {
            (e.len(), u32::from(!e.is_empty()))
        } else {
            let derived = node_view(e, node_bound)?;
            let _ = view.set(derived.view);
            (derived.annotated, derived.max_regions)
        };
        if stored.is_some_and(|stored| stored != max_regions) {
            return Err(index_data_err("stored max-regions is inconsistent"));
        }
        Ok(RegionIndex {
            entries,
            ascending,
            annotated,
            node_span,
            view,
            ids: OnceLock::new(),
            max_regions,
            max_extent,
            postings: OnceLock::new(),
            keys: OnceLock::new(),
        })
    }

    /// Borrow the raw columns (the snapshot writer's hook).
    pub fn storage(&self) -> RegionIndexStorage<'_> {
        RegionIndexStorage {
            entries: &self.entries,
            max_regions: self.max_regions,
        }
    }

    /// Is the entry column a zero-copy view over a mounted snapshot
    /// buffer? Benches and tests use this to assert the mount path
    /// actually mounted.
    pub fn is_mounted(&self) -> bool {
        self.entries.is_view()
    }
}

/// A single-region layer's region attributes are its entries: a mounted
/// layer's attribute table reads them through the node view.
impl standoff_xml::RegionSource for RegionIndex {
    #[inline]
    fn region(&self, pre: u32) -> Option<(i64, i64)> {
        match self.regions_of(pre) {
            [r] => Some((r.start, r.end)),
            _ => None,
        }
    }
}

/// A start-clustered run of region entries with an upper bound on
/// their `end − start`: what a join reads its reach of — a whole index
/// ([`RegionIndex::table`]) or one name's posting.
#[derive(Clone, Copy, Debug)]
pub struct Table<'a> {
    pub entries: &'a [RegionEntry],
    pub max_extent: i64,
    /// The entries' keys: derived with a posting, on first use for the
    /// index's own table.
    keys: &'a OnceLock<Keys>,
}

impl<'a> Table<'a> {
    /// The *reach* of a context extent `[from, to]` — first context
    /// start, largest context end: the entries whose start lies inside
    /// it, found by two partition points on the start-clustered table.
    /// Every region a `select-narrow` over that context can contain is
    /// one of them; the rest of the table need not be read.
    pub fn reach(&self, from: i64, to: i64) -> Range<usize> {
        let lo = self.entries.partition_point(|e| e.start < from);
        let hi = lo + self.entries[lo..].partition_point(|e| e.start <= to);
        lo..hi
    }

    /// The reach of a context extent `[from, to]` for the overlap axes:
    /// an entry overlapping a context region starts at or before the
    /// context's end and at most [`Table::max_extent`] before its start,
    /// so every region a `select-wide` over that context can overlap
    /// starts inside `[from − max_extent, to]`. A layer of short
    /// annotations (tokens, entities) shrinks to its context's stretch;
    /// one whose root spans the text stays whole. The bound is the
    /// table's own: a posting's is its name's largest extent.
    pub fn wide_reach(&self, from: i64, to: i64) -> Range<usize> {
        self.reach(from.saturating_sub(self.max_extent), to)
    }

    /// The table's [`Keys`], row for row. A posting's exist with it; the
    /// index's own are derived by the first call and kept with the
    /// index, their bytes added to the `index.key_bytes` counter of the
    /// process-wide registry.
    pub(crate) fn keys(&self) -> &'a Keys {
        if let Some(keys) = self.keys.get() {
            return keys;
        }
        let built = Keys::of(self.entries);
        let bytes = built.bytes();
        if self.keys.set(built).is_ok() {
            crate::obs::MetricsRegistry::global().add("index.key_bytes", bytes);
        }
        self.keys
            .get()
            .expect("published above or by a racing thread")
    }
}

/// Rows per block of [`Keys::block_ends`].
pub(crate) const KEY_BLOCK: usize = 64;

/// Rows a [`Keys::seek`] steps through from its directory bucket before
/// it binary-searches the rest of its range.
const DIR_SCAN: usize = 16;

/// What a count sweep reads of a start-clustered run of entries besides
/// the rows themselves: a directory of starts, to seek through, and the
/// largest end of each [`KEY_BLOCK`]-row block, so a run of rows that
/// all end before a point is counted without being read.
///
/// The directory cuts the starts' span, from the first row's start
/// `base`, into buckets of `2^shift` positions, `2^shift` the smallest
/// power of two of at least span ÷ rows: it has at most one bucket more
/// than the run has rows, whatever their distribution, so the keys hold
/// about 4⅛ bytes per row — 4 per row and 4 more, and 8 per block.
#[derive(Clone, Debug, Default)]
pub(crate) struct Keys {
    base: i64,
    shift: u32,
    /// `dir[b]` is the first row whose start is at least
    /// `base + (b << shift)`.
    dir: Vec<u32>,
    /// `block_ends[b]` is the largest end of rows `[64·b, 64·b + 64)`.
    pub(crate) block_ends: Vec<i64>,
}

impl Keys {
    /// The keys of `entries`.
    pub(crate) fn of(entries: &[RegionEntry]) -> Keys {
        let mut keys = Keys::default();
        keys.fill(entries);
        keys
    }

    /// Replace the keys with those of `entries` (start-sorted, fewer
    /// than 2³² rows), reusing the columns: the directory and the block
    /// ends in one pass.
    pub(crate) fn fill(&mut self, entries: &[RegionEntry]) {
        debug_assert!(entries.is_sorted_by_key(|e| e.start));
        debug_assert!(entries.len() <= u32::MAX as usize);
        self.dir.clear();
        self.block_ends.clear();
        let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
            return;
        };
        // The span is below 2⁶⁴ and, with two rows or more, a bucket
        // below 2⁶³ positions.
        let span = last.start.wrapping_sub(first.start) as u64;
        let per_row = span.div_ceil(entries.len() as u64);
        (self.base, self.shift) = (first.start, per_row.next_power_of_two().trailing_zeros());
        // Each bucket's rows counted one slot up, then summed: slot `b`
        // becomes the rows before bucket `b`, its first row. No branch
        // per row.
        self.dir.resize((span >> self.shift) as usize + 2, 0);
        for block in entries.chunks(KEY_BLOCK) {
            let mut end = i64::MIN;
            for e in block {
                let bucket = (e.start.wrapping_sub(self.base) as u64 >> self.shift) as usize;
                self.dir[bucket + 1] += 1;
                end = end.max(e.end);
            }
            self.block_ends.push(end);
        }
        let mut rows = 0;
        for slot in &mut self.dir {
            rows += *slot;
            *slot = rows;
        }
        // The last slot is every row: a seek past the last bucket.
        self.dir.pop();
    }

    /// The first position of `from..to` whose row of `rows` (the rows
    /// these keys are of) starts at or after `target`, or `to`. The
    /// directory bucket of `target` bounds it from below; the rows'
    /// own starts are stepped through from there for [`DIR_SCAN`] rows,
    /// then binary-searched up to `to`, so a run of equal starts or a
    /// cluster in one bucket stays logarithmic.
    #[inline]
    pub(crate) fn seek(&self, rows: &[RegionEntry], from: usize, to: usize, target: i64) -> usize {
        let floor = if target <= self.base {
            0
        } else {
            let bucket = (target.wrapping_sub(self.base) as u64 >> self.shift) as usize;
            self.dir.get(bucket).map_or(usize::MAX, |&row| row as usize)
        };
        let mut at = from.max(floor).min(to);
        let scan = (at + DIR_SCAN).min(to);
        while at < scan {
            if rows[at].start >= target {
                return at;
            }
            at += 1;
        }
        at + rows[at..to].partition_point(|e| e.start < target)
    }

    /// Bytes the two columns hold.
    fn bytes(&self) -> u64 {
        std::mem::size_of_val(&self.dir[..]) as u64
            + std::mem::size_of_val(&self.block_ends[..]) as u64
    }

    /// Bytes the two columns' allocations pin.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        (self.dir.capacity() * std::mem::size_of::<u32>()
            + self.block_ends.capacity() * std::mem::size_of::<i64>()) as u64
    }
}

/// A pushed name's candidate entries ([`RegionIndex::posting`]).
#[derive(Clone, Copy, Debug)]
pub struct Posting<'a> {
    /// The name's entries with their own extent bound; the index's own
    /// table when `covering`.
    pub table: Table<'a>,
    /// The name's elements are exactly the index's annotated nodes.
    pub covering: bool,
    /// How many of the name's elements are annotated.
    pub annotated: usize,
}

/// One cached posting slot's content.
#[derive(Clone, Debug)]
enum NamePosting {
    /// The name covers the index: its posting is the table.
    Covering,
    Entries {
        entries: Box<[RegionEntry]>,
        max_extent: i64,
        annotated: usize,
        /// Derived with the entries, so always set.
        keys: OnceLock<Keys>,
    },
}

impl NamePosting {
    /// The bytes of its entries and of their keys.
    fn bytes(&self) -> (u64, u64) {
        match self {
            NamePosting::Covering => (0, 0),
            NamePosting::Entries { entries, keys, .. } => (
                std::mem::size_of_val(&**entries) as u64,
                keys.get().map_or(0, Keys::bytes),
            ),
        }
    }
}

/// The node view of checked, clustered entries whose ids, all below
/// `node_bound`, do not ascend: a count per rank, turned into each
/// annotated node's slot, then every entry's region placed into its
/// node's run — in start order, since the entries are. Each run of two
/// or more regions must be a §3.1 area: sorted by start, neither
/// overlapping nor touching.
fn node_view(entries: &[RegionEntry], node_bound: usize) -> io::Result<Derived> {
    let mut slot = vec![0u32; node_bound];
    for e in entries {
        slot[e.id as usize] += 1;
    }
    let max_regions = slot.iter().fold(0, |m, &c| m.max(c));
    let mut ids = Vec::with_capacity(entries.len());
    let mut regions = vec![Region { start: 0, end: 0 }; entries.len()];
    if max_regions == 1 {
        // One region per node: slot `k` of the `k`-th annotated rank.
        for (pre, at) in slot.iter_mut().enumerate() {
            if *at > 0 {
                *at = ids.len() as u32;
                ids.push(pre as u32);
            }
        }
        for e in entries {
            regions[slot[e.id as usize] as usize] = *e.region();
        }
        return Ok(Derived {
            annotated: ids.len(),
            view: NodeView::One { ids, regions },
            max_regions,
        });
    }
    let mut offsets = Vec::with_capacity(entries.len() + 1);
    offsets.push(0u32);
    for (pre, count) in slot.iter_mut().enumerate() {
        if *count > 0 {
            ids.push(pre as u32);
            let at = *offsets.last().expect("starts at 0");
            offsets.push(at + *count);
            *count = at;
        }
    }
    // `slot[id]` is now the next free position of node `id`'s run.
    for e in entries {
        let at = &mut slot[e.id as usize];
        regions[*at as usize] = *e.region();
        *at += 1;
    }
    for (k, run) in offsets.windows(2).enumerate() {
        let area = &regions[run[0] as usize..run[1] as usize];
        if !area
            .windows(2)
            .all(|w| w[1].start > w[0].end.saturating_add(1))
        {
            return Err(index_data_err(&format!(
                "node {} regions invalid: regions overlap or touch",
                ids[k]
            )));
        }
    }
    Ok(Derived {
        annotated: ids.len(),
        view: NodeView::Areas {
            ids,
            offsets,
            regions,
        },
        max_regions,
    })
}

/// What one walk over the entries found ([`RegionIndex::derive`]).
struct Walk {
    sorted: bool,
    ascending: bool,
    ordered: bool,
    elements: bool,
    max_extent: i64,
    min_id: u32,
    max_id: u32,
}

impl Default for Walk {
    fn default() -> Walk {
        Walk {
            sorted: true,
            ascending: true,
            ordered: true,
            elements: true,
            max_extent: 0,
            min_id: u32::MAX,
            max_id: 0,
        }
    }
}

/// A derived node view, its node count and the largest region count
/// it found.
struct Derived {
    view: NodeView,
    annotated: usize,
    max_regions: u32,
}

/// Do the ids of `entries`, all below `node_bound`, differ pairwise? One
/// bit per rank, so a mount checks it in an eighth of a byte per node.
fn distinct_ids(entries: &[RegionEntry], node_bound: usize) -> bool {
    let mut seen = vec![0u64; node_bound.div_ceil(64)];
    entries.iter().fold(true, |fresh, e| {
        let (word, bit) = (e.id as usize / 64, 1u64 << (e.id % 64));
        let first = seen[word] & bit == 0;
        seen[word] |= bit;
        fresh & first
    })
}

/// The slot of `id` among the ascending `key`s of `ids`, if there is one, searched
/// from `from`: a previous answer, or 0. Ids ascend strictly, so the
/// slot lies at most `|id − ids[from]|` slots away — exactly that far
/// when every id in between is annotated, the common case, which costs
/// one probe and no unpredictable branch. Otherwise a binary search of
/// that bracket.
fn seek<T>(ids: &[T], key: impl Fn(&T) -> u32, from: usize, id: u32) -> Option<usize> {
    let at = key(ids.get(from)?);
    let dense = (from as i64 + id as i64 - at as i64).clamp(0, ids.len() as i64 - 1) as usize;
    if key(&ids[dense]) == id {
        return Some(dense);
    }
    let bracket = if id > at { from..dense } else { dense..from };
    let k = bracket.start + ids[bracket].partition_point(|x| key(x) < id);
    (key(&ids[k]) == id).then_some(k)
}

/// The largest `end − start` among `entries` (0 when there are none),
/// saturating: regions may span any `i64`s.
fn max_extent(entries: &[RegionEntry]) -> i64 {
    (entries.iter()).fold(0, |m, e| m.max(e.end.saturating_sub(e.start)))
}

fn index_data_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("region index: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::parse_document;

    fn figure1_index() -> (standoff_xml::Document, RegionIndex) {
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

    /// The node-view gather over the whole table.
    fn gathered(idx: &RegionIndex, cands: &[u32]) -> Vec<RegionEntry> {
        let mut out = Vec::new();
        idx.gather_candidates(cands, 0..idx.len(), &mut out);
        out
    }

    /// §4.3 by definition: the start-clustered table filtered by
    /// candidate membership.
    fn definitional(idx: &RegionIndex, cands: &[u32]) -> Vec<RegionEntry> {
        idx.entries()
            .iter()
            .filter(|e| cands.binary_search(&e.id).is_ok())
            .copied()
            .collect()
    }

    #[test]
    fn entries_clustered_on_start() {
        let (_, idx) = figure1_index();
        assert_eq!(idx.len(), 5);
        let starts: Vec<i64> = idx.entries().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 0, 8, 52, 64]);
        // Ties on start break on (end, id): Intro [0,8] before U2 [0,31].
        assert_eq!(idx.entries()[0].end, 8);
        assert_eq!(idx.entries()[1].end, 31);
    }

    /// The start directory has at most one bucket more than its run has
    /// rows, and a seek from any position finds, inside any range, what
    /// a binary search of the rows finds: over one row, equal-start runs
    /// longer than the scan, a far cluster, negative starts and the
    /// extremes of `i64`.
    #[test]
    fn the_start_directory_is_bounded_and_seeks_like_a_search() {
        let far = 1i64 << 40;
        let mut cases: Vec<Vec<i64>> = vec![
            vec![5],
            vec![0, far, far, far + 3, far + 64, far + 65],
            (-300..-200).chain(-5..40).collect(),
            [3; 40].into_iter().chain([4; 3]).chain([90; 25]).collect(),
            (0..500).map(|k| k * 7 % 3001).collect(),
            vec![i64::MIN, -1, 0, i64::MAX],
        ];
        for starts in &mut cases {
            starts.sort_unstable();
            let rows: Vec<RegionEntry> = (starts.iter().enumerate())
                .map(|(k, &start)| RegionEntry {
                    start,
                    end: start,
                    id: k as u32,
                })
                .collect();
            let keys = Keys::of(&rows);
            let n = rows.len();
            assert!(keys.dir.len() <= n + 1, "{starts:?}");
            assert!(keys.bytes() as usize <= 4 * (n + 1) + 8 * n.div_ceil(KEY_BLOCK));
            let mut targets = vec![i64::MIN, i64::MAX];
            for &s in starts.iter() {
                targets.extend([s.saturating_sub(1), s, s.saturating_add(1)]);
            }
            for from in [0, n / 3, n / 2, n] {
                for to in [n / 2, (2 * n).div_ceil(3), n] {
                    for &target in targets.iter().filter(|_| from <= to) {
                        let expected = from + rows[from..to].partition_point(|e| e.start < target);
                        let got = keys.seek(&rows, from, to, target);
                        assert_eq!(got, expected, "{target} in {from}..{to} of {starts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn node_view_round_trips() {
        let (doc, idx) = figure1_index();
        let intro = doc.elements_named("shot")[0];
        assert_eq!(idx.regions_of(intro), &[Region::new(0, 8).unwrap()]);
        assert_eq!(idx.region_count(intro), 1);
        assert_eq!(
            idx.area_of(intro).unwrap().bounding(),
            Region::new(0, 8).unwrap()
        );
        // The <video> container itself has no regions.
        let video = doc.elements_named("video")[0];
        assert_eq!(idx.regions_of(video), &[]);
        assert_eq!(idx.area_of(video), None);
    }

    /// The one-probe lookup answers like a binary search of the node
    /// ids for every pre rank: annotated, between them, before the first
    /// and past the last.
    #[test]
    fn one_probe_lookups_match_the_binary_search() {
        let (doc, idx) = figure1_index();
        for pre in 0..doc.node_count() as u32 + 3 {
            let want: Vec<Region> = (idx.entries().iter())
                .filter(|e| e.id == pre)
                .map(|e| *e.region())
                .collect();
            assert_eq!(idx.regions_of(pre), want, "{pre}");
        }
        assert!(RegionIndex::default().regions_of(0).is_empty());
    }

    #[test]
    fn entries_at_is_the_equal_range_of_the_region_key() {
        let doc = parse_document(
            r#"<d><a start="3" end="5"/><b start="3" end="5"/><c start="3" end="6"/>
               <e start="2" end="5"/><z start="4" end="4"/><a start="3" end="5"/></d>"#,
        )
        .unwrap();
        let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
        let ids =
            |s, e| -> Vec<u32> { idx.entries_at_probed(s, e).0.iter().map(|x| x.id).collect() };
        let a = doc.elements_named("a");
        let b = doc.elements_named("b");
        assert_eq!(ids(3, 5), vec![a[0], b[0], a[1]], "ascending ids");
        assert_eq!(ids(4, 4), doc.elements_named("z"), "zero-width region");
        assert_eq!(ids(3, 4), Vec::<u32>::new(), "same start, other end");
        assert_eq!(ids(0, 1), Vec::<u32>::new(), "before the first entry");
        assert_eq!(ids(9, 9), Vec::<u32>::new(), "past the last entry");
        // Every key present in the column finds exactly its own rows.
        for e in idx.entries() {
            let (hit, probes) = idx.entries_at_probed(e.start, e.end);
            assert!(hit.contains(e));
            assert!(hit.iter().all(|x| (x.start, x.end) == (e.start, e.end)));
            assert!(probes as usize <= 2 * (idx.len().ilog2() as usize + 2) + hit.len());
        }
        assert!(RegionIndex::default().entries_at_probed(0, 0).0.is_empty());
    }

    #[test]
    fn annotated_nodes_in_document_order() {
        let (_, idx) = figure1_index();
        let nodes = idx.annotated_nodes();
        assert_eq!(nodes.len(), 5);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn candidate_intersection_preserves_start_order() {
        let (doc, idx) = figure1_index();
        let shots = doc.elements_named("shot");
        let cands = gathered(&idx, shots);
        assert_eq!(cands.len(), 3);
        assert!(cands.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(cands.iter().all(|e| shots.contains(&e.id)));
    }

    /// Regression: the gather silently assumed its input was
    /// strictly ascending — unsorted input made the scan path's binary
    /// search skip candidates *without any diagnostic*. The invariant is
    /// debug-asserted (this test, which runs in CI's debug-assertions
    /// job); for the one caller whose input is externally produced (the
    /// element-name pushdown over snapshot-loaded indexes) the ordering
    /// is enforced when the snapshot is mounted (`Document::from_storage`
    /// rejects an out-of-order element index), so the slice is borrowed
    /// as-is.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "assertion failed")]
    fn unsorted_candidates_trip_the_debug_assert() {
        let (doc, idx) = figure1_index();
        let shots = doc.elements_named("shot");
        let unsorted: Vec<u32> = shots.iter().rev().copied().collect();
        let _ = gathered(&idx, &unsorted);
    }

    /// Companion regression: input that arrives unsorted and is sorted
    /// by the caller first produces exactly the definitional result.
    #[test]
    fn caller_sorted_candidates_match_definitional_scan() {
        let (doc, idx) = figure1_index();
        let mut cands: Vec<u32> = doc
            .elements_named("shot")
            .iter()
            .rev() // arrives in reverse document order…
            .chain(doc.elements_named("music")) // …with a duplicate-prone mix
            .copied()
            .collect();
        cands.sort_unstable(); // …the caller-side fix
        cands.dedup();
        let got = gathered(&idx, &cands);
        assert_eq!(got, definitional(&idx, &cands));
        assert_eq!(got.len(), 5); // 3 shots + 2 music annotations
    }

    /// The node-view gather must return `(start, end, id)`-clustered
    /// entries — including
    /// for multi-region annotations, whose runs arrive per node and only
    /// coincidentally in start order.
    #[test]
    fn node_view_path_sorted_for_multi_region_annotations() {
        // Node 5's area starts before node 3's, so a per-node gather
        // emits runs out of start order and must re-sort.
        let pairs = vec![
            (
                3,
                Area::try_new(vec![
                    Region::new(50, 60).unwrap(),
                    Region::new(200, 210).unwrap(),
                ])
                .unwrap(),
            ),
            (
                5,
                Area::try_new(vec![
                    Region::new(0, 10).unwrap(),
                    Region::new(100, 110).unwrap(),
                ])
                .unwrap(),
            ),
            (7, Area::single(40, 45).unwrap()),
            (9, Area::single(300, 310).unwrap()),
            (11, Area::single(400, 410).unwrap()),
        ];
        // Filler rows: the candidates are a minority of the table.
        let filler = (0..50).map(|k| {
            (
                13 + k,
                Area::single(1000 + 10 * k as i64, 1005 + 10 * k as i64).unwrap(),
            )
        });
        let idx = RegionIndex::from_areas(&pairs.into_iter().chain(filler).collect::<Vec<_>>());
        let cands = vec![3, 5, 7];
        let got = gathered(&idx, &cands);
        assert_eq!(got.len(), 5);
        assert!(
            got.windows(2)
                .all(|w| (w[0].start, w[0].end, w[0].id) < (w[1].start, w[1].end, w[1].id)),
            "node-view gather must restore the start clustering: {got:?}"
        );
        assert_eq!(got, definitional(&idx, &cands), "paths must agree");
    }

    /// The node-view gather equals the definition restricted to the
    /// extent, on every candidate subset of a mixed index and extents
    /// around its starts.
    #[test]
    fn gather_agrees_with_the_definition_for_all_subsets_and_extents() {
        let (doc, idx) = figure1_index();
        let all: Vec<u32> = idx.annotated_nodes().to_vec();
        let mut buf = Vec::new();
        for mask in 0u32..(1 << all.len()) {
            let subset: Vec<u32> = all
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &p)| p)
                .collect();
            // Extents on, between and past the starts 0, 0, 8, 52, 64.
            let edges = [0, 1, 8, 9, 52, 64, 65];
            for (k, &from) in edges.iter().enumerate() {
                for &to in &edges[k..] {
                    idx.gather_candidates(&subset, idx.table().reach(from, to), &mut buf);
                    let want: Vec<RegionEntry> = definitional(&idx, &subset)
                        .into_iter()
                        .filter(|e| (from..=to).contains(&e.start))
                        .collect();
                    assert_eq!(buf, want, "mask {mask:#b}, extent [{from}, {to}]");
                }
            }
            assert_eq!(gathered(&idx, &subset), definitional(&idx, &subset));
        }
        // Unannotated candidates simply contribute nothing.
        let video = doc.elements_named("video")[0];
        assert!(gathered(&idx, &[video]).is_empty());
    }

    /// The reach of an extent: exactly the entries starting inside it.
    #[test]
    fn reach_is_the_entries_starting_inside_the_extent() {
        let (_, idx) = figure1_index(); // starts 0, 0, 8, 52, 64
        let table = idx.table();
        assert_eq!(table.reach(0, 94), 0..5);
        assert_eq!(table.reach(0, 0), 0..2);
        assert_eq!(table.reach(1, 8), 2..3);
        assert_eq!(table.reach(9, 51), 3..3);
        assert_eq!(table.reach(52, 64), 3..5);
        assert_eq!(table.reach(95, 200), 5..5);
        assert!(RegionIndex::default().table().reach(0, 9).is_empty());
    }

    /// The wide reach widens the extent left by the largest entry
    /// extent — exact after a build, a mount and a splice, which drops
    /// it with the widest entry and raises it with a wider one.
    #[test]
    fn wide_reach_widens_by_the_largest_extent() {
        let (doc, idx) = figure1_index(); // starts 0, 0, 8, 52, 64; widest 8..64
        assert_eq!(idx.max_extent(), 56);
        let table = idx.table();
        assert_eq!(table.wide_reach(64, 64), 2..5, "starting exactly 56 before");
        assert_eq!(table.wide_reach(65, 65), 3..5, "one further out");
        assert_eq!(table.wide_reach(70, 80), 3..5);
        assert_eq!(table.wide_reach(0, 94), 0..5);
        assert_eq!(RegionIndex::default().max_extent(), 0);
        let empty = RegionIndex::default();
        assert!(empty.table().wide_reach(i64::MIN, 9).is_empty());

        let s = idx.storage();
        let kinds = vec![NodeKind::Element as u8; doc.node_count()];
        let mounted =
            RegionIndex::from_storage(s.entries.to_vec().into(), s.max_regions, &kinds).unwrap();
        assert_eq!(mounted.max_extent(), 56);

        let interview = doc.elements_named("shot")[1];
        let (_, moved) = doc.splice(&[interview], &[]).unwrap();
        let dropped = idx.renumbered(&moved, &[]);
        assert_eq!((dropped.len(), dropped.max_extent()), (4, 42));
        let shot = standoff_xml::NewElement {
            name: "shot".into(),
            attrs: Vec::new(),
        };
        let (_, moved) = doc.splice(&[], &[shot]).unwrap();
        let added = [(moved.added().start, Region::new(1, 100).unwrap())];
        assert_eq!(idx.renumbered(&moved, &added).max_extent(), 99);
    }

    #[test]
    fn non_contiguous_areas_repeat_id() {
        let doc = parse_document(
            "<fs><file>\
               <region><start>0</start><end>9</end></region>\
               <region><start>100</start><end>199</end></region>\
             </file></fs>",
        )
        .unwrap();
        let idx = RegionIndex::build(&doc, &StandoffConfig::element_repr()).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.entries()[0].id, idx.entries()[1].id);
        assert_eq!(idx.max_regions(), 2);
        assert_eq!(idx.region_count(idx.entries()[0].id), 2);
    }

    #[test]
    fn empty_document_empty_index() {
        let doc = parse_document("<a><b/><c>x</c></a>").unwrap();
        let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
        assert!(idx.is_empty());
        assert_eq!(idx.max_regions(), 0);
    }

    /// `write_slice_le` stages elements through a block; its bytes must
    /// equal the element-at-a-time encoding at every block boundary.
    fn assert_block_writes_match<T: Pod + std::fmt::Debug + PartialEq>(make: impl Fn(u32) -> T) {
        use standoff_xml::column::{write_slice_le, WRITE_BLOCK_BYTES};
        let block = WRITE_BLOCK_BYTES / T::WIDTH;
        for len in [0, 1, block - 1, block, block + 1, 3 * block] {
            let values: Vec<T> = (0..len as u32).map(&make).collect();
            let mut expect = Vec::new();
            for &v in &values {
                v.write_le(&mut expect).unwrap();
            }
            let mut got = Vec::new();
            write_slice_le(&values, &mut got).unwrap();
            assert_eq!(got.len(), len * T::WIDTH);
            assert!(got == expect, "len {len} of {}", std::any::type_name::<T>());
            let back: Vec<T> = got.chunks_exact(T::WIDTH).map(T::read_le).collect();
            assert_eq!(back, values);
        }
    }

    #[test]
    fn block_writes_equal_per_element_encoding() {
        assert_block_writes_match(|i| (i.wrapping_mul(40503) >> 3) as u16);
        assert_block_writes_match(|i| i.wrapping_mul(2654435761));
        assert_block_writes_match(|i| Region {
            start: -(i as i64) * 7,
            end: i as i64 * 1_000_003,
        });
        assert_block_writes_match(|i| RegionEntry {
            start: i as i64 - 5,
            end: i64::MAX - i as i64,
            id: !i,
        });
        // Entry padding is written as zeros, whatever the block held
        // before.
        let entries = vec![
            RegionEntry {
                start: -1,
                end: -1,
                id: u32::MAX
            };
            700
        ];
        let mut bytes = Vec::new();
        standoff_xml::column::write_slice_le(&entries, &mut bytes).unwrap();
        assert!(bytes
            .chunks_exact(24)
            .all(|c| c[..20].iter().all(|&b| b == 0xff) && c[20..] == [0; 4]));
    }

    #[test]
    fn from_areas_matches_build() {
        let (doc, built) = figure1_index();
        let cfg = StandoffConfig::default();
        let pairs: Vec<(u32, Area)> = (0..doc.node_count() as u32)
            .filter(|&p| doc.kind(p) == NodeKind::Element)
            .filter_map(|p| cfg.area_of(&doc, p).unwrap().map(|a| (p, a)))
            .collect();
        let idx = RegionIndex::from_areas(&pairs);
        assert_eq!(idx.entries(), built.entries());
        assert_eq!(idx.annotated_nodes(), built.annotated_nodes());
    }
}
