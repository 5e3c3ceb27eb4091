//! The region index (paper §4.3).
//!
//! A per-document index of all area-annotations: a `start|end|id` table
//! *clustered on start*, where `id` is the annotation node's pre-order
//! rank (MonetDB/XQuery's node identifier). Non-contiguous areas repeat
//! the same id in several rows. The table is three `u32` columns, as
//! MonetDB keeps it ([`Rows`]): `starts` and `ends` count from the
//! index's own origin, its smallest start, so a row is 12 bytes and a
//! layer's regions lie within 2³² − 1 positions of its first start
//! ([`StandoffError::SpanTooWide`]). A second, node-ordered view supports
//! context-region fetch and the candidate-sequence intersection that the
//! element-name index feeds into StandOff steps with name tests. The
//! view is a function of the rows: it is derived from them in one
//! pass wherever an index is built, renumbered or mounted, and never
//! stored (`NodeView`). A node finds its regions in one probe of
//! that view: annotated pre ranks ascend strictly, so a node's slot is
//! at most its distance from the first annotated rank — exactly that
//! when the ranks are contiguous ([`RegionIndex::regions_of`]).
//!
//! A join reads a *reach* of a start-clustered [`Table`] — the rows its
//! context can contain ([`Table::reach`], [`Table::wide_reach`]). For a
//! pushed element name that table is the name's *posting*
//! ([`RegionIndex::posting`]): the candidate intersection, derived once
//! per name through the node view and kept in the index, or the whole
//! table when the name's elements are every annotated node. An explicit
//! candidate sequence is intersected per join, through the node view
//! ([`RegionIndex::gather_candidates`]) or by borrowing when it covers.
//!
//! The loop-lifted count sweeps seek on a table's stored `starts` — no
//! directory is derived — and skip a 64-row block whole by
//! its largest end: the index's block ends are found by the walk that
//! checks its columns, a posting's as it is gathered.

use std::ops::{Deref, Range};
use std::sync::OnceLock;

use standoff_xml::column::PodCol;
use standoff_xml::{Corrupt, Document, NameId, NodeKind, Renumbering};

use crate::budget::{Budget, BudgetExceeded};
use crate::config::StandoffConfig;
use crate::error::StandoffError;
use crate::join::merge::{gallop, POLL_BLOCK};
use crate::region::{Area, Region};

/// One row of the region index as a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionEntry {
    pub start: i64,
    pub end: i64,
    /// Pre-order rank of the annotation element.
    pub id: u32,
}

/// Rows per block of a table's block ends.
pub(crate) const KEY_BLOCK: usize = 64;

/// A start-clustered run of region rows as three columns: row `k` is
/// the region `[origin + starts[k], origin + ends[k]]` of node `ids[k]`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rows<'a> {
    /// The position the offsets count from.
    pub origin: i64,
    pub starts: &'a [u32],
    pub ends: &'a [u32],
    pub ids: &'a [u32],
}

impl<'a> Rows<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Row `k`'s start.
    #[inline]
    pub fn start(&self, k: usize) -> i64 {
        self.origin + self.starts[k] as i64
    }

    /// Row `k`'s end.
    #[inline]
    pub fn end(&self, k: usize) -> i64 {
        self.origin + self.ends[k] as i64
    }

    /// Row `k` as a value.
    pub fn entry(&self, k: usize) -> RegionEntry {
        RegionEntry {
            start: self.start(k),
            end: self.end(k),
            id: self.ids[k],
        }
    }

    /// Every row as a value.
    pub fn entries(&self) -> Vec<RegionEntry> {
        (0..self.len()).map(|k| self.entry(k)).collect()
    }

    /// The rows `range`.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Rows<'a> {
        Rows {
            origin: self.origin,
            starts: &self.starts[range.clone()],
            ends: &self.ends[range.clone()],
            ids: &self.ids[range],
        }
    }

    /// `pos` against the origin, saturating: compared with an offset
    /// column value, it orders exactly as `pos` does with the position
    /// the value stands for.
    #[inline]
    pub(crate) fn offset(&self, pos: i64) -> i64 {
        pos.saturating_sub(self.origin)
    }

    /// The first row of `from..to` whose start is at least `pos`, or
    /// `to`: a gallop on `starts` from `from`.
    #[inline]
    pub(crate) fn seek(&self, from: usize, to: usize, pos: i64) -> usize {
        let pos = self.offset(pos);
        gallop(&self.starts[..to], from, |&s| (s as i64) < pos)
    }

    /// The largest `end − start` of the rows (0 when there are none).
    fn max_extent(&self) -> i64 {
        let extents = self.starts.iter().zip(self.ends).map(|(s, e)| e - s);
        extents.max().unwrap_or(0) as i64
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
/// assert_eq!(index.table().rows.start(0), 0);  // clustered on start
/// assert_eq!(index.regions_of(2)[0].end, 9);   // node view: <a> is pre 2
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RegionIndex {
    /// The position `starts` and `ends` count from: the smallest start
    /// (0 for an empty index).
    origin: i64,
    /// The rows, sorted by `(start, end, id)` — the clustering the merge
    /// joins scan.
    starts: PodCol<u32>,
    ends: PodCol<u32>,
    ids: PodCol<u32>,
    /// The largest end of each [`KEY_BLOCK`]-row block, found by the
    /// walk that checks the columns.
    block_ends: Vec<u32>,
    /// Do the ids ascend? Then row `k` is the `k`-th annotated node's
    /// one region.
    ascending: bool,
    /// Annotated nodes.
    annotated: usize,
    /// The smallest annotated rank, and one past the largest.
    node_span: (u32, usize),
    /// The node view, derived from the rows the first time it is read —
    /// at once for a multi-region index, whose area rules only it can
    /// check. Never stored.
    view: OnceLock<NodeView>,
    /// The annotated ranks as one column, for a [`NodeView::Span`]:
    /// built by the first [`RegionIndex::annotated_nodes`].
    nodes: OnceLock<Vec<u32>>,
    /// Largest region count of any single annotation (1 ⇒ the fast
    /// single-region post-processing path applies).
    max_regions: u32,
    /// The largest `end − start` over the rows: the loop-lifted wide
    /// join's reach ([`Table::wide_reach`]).
    max_extent: i64,
    /// One slot per element name of the indexed document, holding the
    /// name's posting once a join has derived it
    /// ([`RegionIndex::posting`]). Never stored: a built, renumbered or
    /// mounted index starts with none.
    postings: OnceLock<Box<[OnceLock<NamePosting>]>>,
}

/// The node-ordered view of an index: the annotated pre ranks,
/// ascending, and where each one's regions are — as little as the rows
/// leave to store. A single-region index keeps one row number per node,
/// not a copy of its region.
#[derive(Clone, Debug)]
enum NodeView {
    /// The ids ascend, so start order is node order: node `k` is row
    /// `k`'s id, and that row is its one region.
    Rows,
    /// The annotated ranks fill `[first, first + at.len())`: node
    /// `first + k`'s one region is row `at[k]` — four bytes a node.
    Span { first: u32, at: Vec<u32> },
    /// Node `k` is `ids[k]`, its one region row `at[k]`.
    One { ids: Vec<u32>, at: Vec<u32> },
    /// Node `k` is `ids[k]`, its regions `regions[offsets[k]..offsets[k +
    /// 1]]`, sorted by start.
    Areas {
        ids: Vec<u32>,
        offsets: Vec<u32>,
        regions: Vec<Region>,
    },
}

/// The regions of one node ([`RegionIndex::regions_of`]): its one
/// region, or its area's regions in start order. Derefs to a slice.
#[derive(Clone, Copy, Debug)]
pub enum NodeRegions<'a> {
    One(Region),
    Area(&'a [Region]),
}

impl Deref for NodeRegions<'_> {
    type Target = [Region];

    #[inline]
    fn deref(&self) -> &[Region] {
        match self {
            NodeRegions::One(r) => std::slice::from_ref(r),
            NodeRegions::Area(rs) => rs,
        }
    }
}

/// Append `area`'s regions as rows of node `pre`.
fn push_area(entries: &mut Vec<RegionEntry>, pre: u32, area: &Area) {
    entries.extend(area.regions().iter().map(|r| RegionEntry {
        start: r.start,
        end: r.end,
        id: pre,
    }));
}

impl RegionIndex {
    /// Build the index for one document under a configuration. A
    /// document whose regions span 2³² positions or more is refused
    /// ([`StandoffError::SpanTooWide`]).
    pub fn build(doc: &Document, config: &StandoffConfig) -> Result<RegionIndex, StandoffError> {
        config.validate()?;
        let mut entries = Vec::new();
        for pre in 0..doc.node_count() as u32 {
            if doc.kind(pre) != NodeKind::Element {
                continue;
            }
            if let Some(area) = config.area_of(doc, pre)? {
                push_area(&mut entries, pre, &area);
            }
        }
        RegionIndex::from_entries(entries, Some(doc.kinds()))
    }

    /// The index of [`Document::splice`]'s copy of this index's document,
    /// without re-reading it: the annotations `moved` dropped are gone,
    /// the kept ones move with their nodes, and `added` — single-region
    /// annotations on the appended elements, ascending — join them. It
    /// is what [`RegionIndex::build`] makes of the copy, since a splice
    /// appends after every element of the document: the clustered rows
    /// are renumbered in one pass — a renumbering keeps their order —
    /// and the added rows merged in, then the columns are checked and
    /// viewed as a mount checks and views them. Refused like a build
    /// when the regions would span 2³² positions.
    pub fn renumbered(
        &self,
        moved: &Renumbering,
        added: &[(u32, Region)],
    ) -> Result<RegionIndex, StandoffError> {
        let rows = self.table().rows;
        let kept = (0..rows.len()).filter_map(|k| {
            let id = moved.get(rows.ids[k])?;
            Some(RegionEntry {
                id,
                ..rows.entry(k)
            })
        });
        let mut entries: Vec<RegionEntry> = kept.collect();
        for &(pre, r) in added {
            push_area(&mut entries, pre, &Area::single(r.start, r.end)?);
        }
        RegionIndex::from_entries(entries, None)
    }

    /// Build directly from `(pre, area)` pairs (synthetic workloads and
    /// tests). Pairs must be in ascending pre order.
    ///
    /// # Panics
    ///
    /// When the areas span 2³² positions or more.
    pub fn from_areas(pairs: &[(u32, Area)]) -> RegionIndex {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut entries = Vec::new();
        for (pre, area) in pairs {
            push_area(&mut entries, *pre, area);
        }
        RegionIndex::from_entries(entries, None).expect("areas within 2^32 positions")
    }

    /// Cluster `entries` — a merge of their sorted runs — and store them
    /// as columns from their smallest start, checked and viewed as a
    /// mount checks and views them.
    fn from_entries(
        mut entries: Vec<RegionEntry>,
        kinds: Option<&[u8]>,
    ) -> Result<RegionIndex, StandoffError> {
        entries.sort_by_key(|e| (e.start, e.end, e.id));
        let origin = entries.first().map_or(0, |e| e.start);
        let last = entries.iter().map(|e| e.end).max().unwrap_or(origin);
        if last as i128 - origin as i128 > u32::MAX as i128 {
            return Err(StandoffError::SpanTooWide {
                first: origin,
                last,
            });
        }
        let offsets = |pos: fn(&RegionEntry) -> i64| -> PodCol<u32> {
            let col: Vec<u32> = entries.iter().map(|e| (pos(e) - origin) as u32).collect();
            col.into()
        };
        let (starts, ends) = (offsets(|e| e.start), offsets(|e| e.end));
        let ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
        let index = RegionIndex::derive(origin, starts, ends, ids.into(), None, kinds);
        Ok(index.expect("built rows are valid annotations of elements"))
    }

    /// Every row as a value, clustered on start.
    pub fn entries(&self) -> Vec<RegionEntry> {
        self.table().rows.entries()
    }

    /// Number of region rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Annotated node pre ranks in document order.
    pub fn annotated_nodes(&self) -> &[u32] {
        match self.view() {
            NodeView::One { ids, .. } | NodeView::Areas { ids, .. } => ids,
            NodeView::Span { first, at } => {
                (self.nodes).get_or_init(|| (*first..*first + at.len() as u32).collect())
            }
            NodeView::Rows => &self.ids,
        }
    }

    /// Are `sorted_node_pres` — strictly ascending — exactly the
    /// annotated nodes? Asked of the ids themselves when they ascend,
    /// and of the length and the two endpoints when the annotated ranks
    /// fill their span, so no view is derived for it.
    pub fn covers(&self, sorted_node_pres: &[u32]) -> bool {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        if sorted_node_pres.len() != self.annotated {
            return false;
        }
        if self.ascending {
            return *self.ids == *sorted_node_pres;
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
                return NodeView::Rows;
            }
            let (first, bound) = self.node_span;
            if self.max_regions == 1 && bound - first as usize == self.len() {
                // Distinct ids filling their span: each row's slot is its
                // id's distance from the first, so no count per rank.
                let mut at = vec![0u32; self.len()];
                for (row, &id) in self.ids.iter().enumerate() {
                    at[(id - first) as usize] = row as u32;
                }
                return NodeView::Span { first, at };
            }
            node_view(self.table().rows, bound)
                .expect("the rows were checked")
                .0
        })
    }

    /// The slot of `pre` in `view`, this index's, searched from `from`: a
    /// previous answer, or 0.
    #[inline]
    fn slot_of(&self, view: &NodeView, from: usize, pre: u32) -> Option<usize> {
        match view {
            NodeView::Rows => seek(&self.ids, from, pre),
            NodeView::Span { first, at } => {
                let k = pre.checked_sub(*first)? as usize;
                (k < at.len()).then_some(k)
            }
            NodeView::One { ids, .. } | NodeView::Areas { ids, .. } => seek(ids, from, pre),
        }
    }

    /// Largest per-annotation region count.
    #[inline]
    pub fn max_regions(&self) -> u32 {
        self.max_regions
    }

    /// The largest `end − start` of any row (0 for an empty index).
    #[inline]
    pub fn max_extent(&self) -> i64 {
        self.max_extent
    }

    /// This index's summary statistics (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            indexes: 1,
            entries: self.len() as u64,
            annotated: self.annotated as u64,
            max_regions: self.max_regions,
        }
    }

    /// The regions of the annotation at `pre` (none if `pre` is not
    /// annotated), found in one probe of the node view where the
    /// annotated pre ranks are contiguous: `pre`'s slot is at most
    /// `pre − node_ids[0]`, and is that when every rank in between is
    /// annotated.
    #[inline]
    pub fn regions_of(&self, pre: u32) -> NodeRegions<'_> {
        let view = self.view();
        match self.slot_of(view, 0, pre) {
            Some(k) => self.regions_at(view, k),
            None => NodeRegions::Area(&[]),
        }
    }

    /// The regions of the `k`-th annotated node of `view`, this index's.
    #[inline]
    fn regions_at<'a>(&'a self, view: &'a NodeView, k: usize) -> NodeRegions<'a> {
        let row = |r: usize| {
            let rows = self.table().rows;
            NodeRegions::One(Region {
                start: rows.start(r),
                end: rows.end(r),
            })
        };
        match view {
            NodeView::Rows => row(k),
            NodeView::Span { at, .. } | NodeView::One { at, .. } => row(at[k] as usize),
            NodeView::Areas {
                offsets, regions, ..
            } => NodeRegions::Area(&regions[offsets[k] as usize..offsets[k + 1] as usize]),
        }
    }

    /// The rows carrying exactly the region `[start, end]`: the equal
    /// range of that key in the clustered columns, so ids come out
    /// ascending. Two binary searches — this is the lookup that answers
    /// "which annotations sit at this region?" without touching the
    /// other rows. Returned with the number of rows it examined: every
    /// comparison of the two binary searches and every row of the
    /// answer. Callers that publish a probe counter feed it from here,
    /// so the count is measured, not derived.
    pub fn entries_at_probed(&self, start: i64, end: i64) -> (Range<usize>, u64) {
        let rows = self.table().rows;
        let mut probes = 0u64;
        let mut key_of = |k: usize| {
            probes += 1;
            (rows.start(k), rows.end(k))
        };
        let lo = partition(rows.len(), |k| key_of(k) < (start, end));
        let len = partition(rows.len() - lo, |k| key_of(lo + k) == (start, end));
        (lo..lo + len, probes + len as u64)
    }

    /// Region count of the annotation at `pre` (0 if not annotated).
    pub fn region_count(&self, pre: u32) -> usize {
        self.regions_of(pre).len()
    }

    /// Candidate-sequence intersection (§4.3): restrict the index to the
    /// given candidate node ids (sorted ascending), *preserving the start
    /// ordering* of the region index. This is how an explicit candidate
    /// sequence is pushed into a StandOff step.
    ///
    /// The node-view derivation: fetch each candidate's regions through
    /// the node view — one galloping cursor over the node ids, both
    /// lists ascending — into `out` (cleared first), keeping those inside
    /// `reach` (a range [`Table::reach`] returned, or the whole table —
    /// never one that splits a run of equal starts) and restoring the
    /// `(start, end, id)` clustering only when the gathered runs actually
    /// violate it.
    pub fn gather_candidates(
        &self,
        sorted_node_pres: &[u32],
        reach: Range<usize>,
        out: &mut RowBuf,
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
        out: &mut RowBuf,
    ) -> Result<usize, BudgetExceeded> {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        out.clear(self.origin);
        if reach.is_empty() {
            return Ok(0);
        }
        // The reach as a start interval: it never splits a run of equal
        // starts, so the interval holds exactly its rows.
        let s = &self.starts;
        debug_assert!(reach.start == 0 || s[reach.start - 1] < s[reach.start]);
        debug_assert!(reach.end == s.len() || s[reach.end - 1] < s[reach.end]);
        let (from, to) = (s[reach.start], s[reach.end - 1]);
        let mut sorted = true;
        let mut prev = None;
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
            for r in self.regions_at(view, slot).iter() {
                let (start, end) = ((r.start - self.origin) as u32, (r.end - self.origin) as u32);
                if start < from || start > to {
                    continue;
                }
                let key = Some((start, end, pre));
                sorted &= prev < key;
                prev = key;
                out.push(start, end, pre);
            }
        }
        // Sortedness fast path: the per-node runs arrive in pre order,
        // which usually coincides with start order (always in the
        // nesting-free single-region layouts) — detected on the fly,
        // never assumed, so the merge-back sort runs only when the
        // clustering was actually violated.
        out.finish(sorted);
        Ok(annotated)
    }

    /// The posting of element name `name` of `doc`, the document this
    /// index describes: the rows of its elements
    /// ([`Document::element_postings`]) in the table's `(start, end,
    /// id)` order, with their own extent bound — or, for a name whose
    /// elements are exactly the annotated nodes, the whole table,
    /// borrowed. Derived by the node-view gather on the first call for
    /// the name and kept in the index, so every later join over the
    /// name reads two partition points and its own rows. The posting's
    /// block ends are derived with it. A derivation polls `budget` once
    /// per block of candidates; a trip publishes nothing, and the next
    /// call derives again.
    ///
    /// `doc` must be the document the index was built from: its name
    /// table sizes the slots on the first call, and a name outside them
    /// is `None`, which leaves the derivation to the caller. Every published
    /// posting adds its bytes to the `index.posting_bytes` counter of
    /// the process-wide registry, and its block ends' to
    /// `index.key_bytes`: engine memory, bounded by 12 bytes and 4 bytes
    /// per block of 64 per row of the index, shared by every request
    /// that reads it.
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
            NamePosting::Rows {
                rows,
                max_extent,
                annotated,
            } => Posting {
                table: rows.table(*max_extent),
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
        let mut rows = RowBuf::default();
        let annotated = self.gather(nodes, 0..self.len(), budget, &mut rows)?;
        Ok(NamePosting::Rows {
            max_extent: rows.rows().max_extent(),
            rows,
            annotated,
        })
    }

    /// The whole table with the index's extent bound.
    #[inline]
    pub fn table(&self) -> Table<'_> {
        Table {
            rows: Rows {
                origin: self.origin,
                starts: &self.starts,
                ends: &self.ends,
                ids: &self.ids,
            },
            max_extent: self.max_extent,
            block_ends: &self.block_ends,
        }
    }

    /// Assemble an index from its (possibly buffer-backed) columns, their
    /// origin and the stored max-regions statistic, deriving the node
    /// view in one pass and re-validating **every** structural invariant
    /// as it goes: clustering order, `start ≤ end`, annotated ids inside
    /// the document and naming elements, every position inside `i64`,
    /// the §3.1 area rules of every multi-region annotation, and the
    /// statistic itself. This is the single trust boundary of the
    /// snapshot mount — mounted indexes are used as-is by the join
    /// executor (whose post-filter elision relies on join outputs being
    /// elements), never re-checked downstream. Strictly clustered rows
    /// are unique, so no annotation names one region twice.
    ///
    /// `kinds` is the already validated node-kind column of the document
    /// the index describes (one [`NodeKind`] byte per node): an annotated
    /// id at or beyond its length is rejected before any is used as an
    /// index. A refusal is [`Corrupt`], its section the column at fault:
    /// `starts`, `ends`, `ids` or `meta` (the origin and the statistic).
    pub fn from_storage(
        origin: i64,
        starts: PodCol<u32>,
        ends: PodCol<u32>,
        ids: PodCol<u32>,
        max_regions: u32,
        kinds: &[u8],
    ) -> Result<RegionIndex, Corrupt> {
        RegionIndex::derive(origin, starts, ends, ids, Some(max_regions), Some(kinds))
    }

    /// The one derivation of the node view from clustered columns, for
    /// build, renumbering and mount alike: one walk over the rows checks
    /// them, finds their block ends and whether their ids ascend — then
    /// the view is the rows themselves. Otherwise a bit per rank shows
    /// whether an id repeats; only then — or when `stored` claims more
    /// than one region per node — is the view derived at once (by a
    /// count per rank that places every region in its node's slot), to
    /// check the areas and count the regions, and else on first use. A
    /// failure is named by the first broken rule in the order
    /// [`RegionIndex::from_storage`] lists them; `stored`, when given, is
    /// the max-regions statistic the result must reproduce, and `kinds`,
    /// when given, the node kinds every id must name an element in.
    fn derive(
        origin: i64,
        starts: PodCol<u32>,
        ends: PodCol<u32>,
        ids: PodCol<u32>,
        stored: Option<u32>,
        kinds: Option<&[u8]>,
    ) -> Result<RegionIndex, Corrupt> {
        let n = starts.len();
        for (column, len) in [("ends", ends.len()), ("ids", ids.len())] {
            if len != n {
                return Err(index_err(column, &format!("{len} {column} for {n} starts")));
            }
        }
        let node_count = kinds.map_or(usize::MAX, <[u8]>::len);
        // One branch-free pass: each row against its predecessor, its
        // own region and id, and the kind of the node it names.
        let element = NodeKind::Element as u8;
        let [mut sorted, mut ascending, mut ordered, mut elements] = [true; 4];
        let (mut max_extent, mut min_id, mut max_id) = (0, u32::MAX, 0);
        let mut block_ends = Vec::with_capacity(n.div_ceil(KEY_BLOCK));
        let mut prev: Option<(u32, u32, u32)> = None;
        let blocks =
            (starts.chunks(KEY_BLOCK).zip(ends.chunks(KEY_BLOCK))).zip(ids.chunks(KEY_BLOCK));
        for ((s, e), i) in blocks {
            let mut block_end = 0;
            for k in 0..s.len() {
                let b = (s[k], e[k], i[k]);
                if let Some(a) = prev {
                    sorted &=
                        (a.0 < b.0) | ((a.0 == b.0) & ((a.1 < b.1) | ((a.1 == b.1) & (a.2 < b.2))));
                    ascending &= a.2 < b.2;
                }
                ordered &= b.0 <= b.1;
                max_extent = max_extent.max(b.1.saturating_sub(b.0));
                (min_id, max_id) = (min_id.min(b.2), max_id.max(b.2));
                if let Some(kinds) = kinds {
                    elements &= kinds.get(b.2 as usize) == Some(&element);
                }
                block_end = block_end.max(b.1);
                prev = Some(b);
            }
            block_ends.push(block_end);
        }
        let inside = n == 0 || (max_id as usize) < node_count;
        let elements = elements || !inside;
        if !sorted {
            return Err(index_err(
                "starts",
                "entries not clustered on (start, end, id)",
            ));
        }
        if !ordered {
            return Err(index_err("ends", "bad region: start > end"));
        }
        if !inside {
            return Err(index_err("ids", "references nodes beyond the document"));
        }
        if !elements {
            let msg = "region index annotates a non-element node";
            return Err(Corrupt::new("ids", msg));
        }
        let last = block_ends.iter().max().map_or(0, |&e| e as i64);
        if origin.checked_add(last).is_none() {
            return Err(index_err(
                "meta",
                &format!("origin {origin} + {last} overflows i64"),
            ));
        }
        let node_span = match n {
            0 => (0, 0),
            _ => (min_id, max_id as usize + 1),
        };
        let node_bound = node_span.1;
        let view = OnceLock::new();
        let single = ascending || (stored.is_none_or(|m| m <= 1) && distinct_ids(&ids, node_bound));
        let mut index = RegionIndex {
            origin,
            starts,
            ends,
            ids,
            block_ends,
            ascending,
            annotated: n,
            node_span,
            view,
            nodes: OnceLock::new(),
            max_regions: u32::from(n > 0),
            max_extent: max_extent as i64,
            postings: OnceLock::new(),
        };
        if !single {
            let (view, max_regions) = node_view(index.table().rows, node_bound)?;
            index.max_regions = max_regions;
            let _ = index.view.set(view);
            index.annotated = index.annotated_nodes().len();
        }
        if stored.is_some_and(|stored| stored != index.max_regions) {
            return Err(index_err("meta", "stored max-regions is inconsistent"));
        }
        Ok(index)
    }

    /// Are the columns zero-copy views over a mounted snapshot buffer?
    /// Benches and tests use this to assert the mount path actually
    /// mounted.
    pub fn is_mounted(&self) -> bool {
        self.starts.is_view()
    }
}

/// A single-region layer's region attributes are its rows: a mounted
/// layer's attribute table reads them through the node view.
impl standoff_xml::RegionSource for RegionIndex {
    #[inline]
    fn region(&self, pre: u32) -> Option<(i64, i64)> {
        match *self.regions_of(pre) {
            [r] => Some((r.start, r.end)),
            _ => None,
        }
    }
}

/// A start-clustered run of region rows with an upper bound on their
/// `end − start`: what a join reads its reach of — a whole index
/// ([`RegionIndex::table`]) or one name's posting.
#[derive(Clone, Copy, Debug)]
pub struct Table<'a> {
    pub rows: Rows<'a>,
    pub max_extent: i64,
    /// The largest end of each [`KEY_BLOCK`]-row block of `rows`.
    pub(crate) block_ends: &'a [u32],
}

impl<'a> Table<'a> {
    /// The *reach* of a context extent `[from, to]` — first context
    /// start, largest context end: the rows whose start lies inside it,
    /// found by two partition points on the start column. Every region
    /// a `select-narrow` over that context can contain is one of them;
    /// the rest of the table need not be read.
    pub fn reach(&self, from: i64, to: i64) -> Range<usize> {
        let (from, to) = (self.rows.offset(from), self.rows.offset(to));
        let starts = self.rows.starts;
        let lo = starts.partition_point(|&s| (s as i64) < from);
        let hi = lo + starts[lo..].partition_point(|&s| (s as i64) <= to);
        lo..hi
    }

    /// The reach of a context extent `[from, to]` for the overlap axes:
    /// a row overlapping a context region starts at or before the
    /// context's end and at most [`Table::max_extent`] before its start,
    /// so every region a `select-wide` over that context can overlap
    /// starts inside `[from − max_extent, to]`. A layer of short
    /// annotations (tokens, entities) shrinks to its context's stretch;
    /// one whose root spans the text stays whole. The bound is the
    /// table's own: a posting's is its name's largest extent.
    pub fn wide_reach(&self, from: i64, to: i64) -> Range<usize> {
        self.reach(from.saturating_sub(self.max_extent), to)
    }
}

/// Owned start-clustered columns with their block ends: a name's
/// posting, or the candidates one join gathers
/// ([`RegionIndex::gather_candidates`]), counted from their index's
/// origin.
#[derive(Clone, Debug, Default)]
pub struct RowBuf {
    origin: i64,
    starts: Vec<u32>,
    ends: Vec<u32>,
    ids: Vec<u32>,
    block_ends: Vec<u32>,
}

impl RowBuf {
    /// The rows.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            origin: self.origin,
            starts: &self.starts,
            ends: &self.ends,
            ids: &self.ids,
        }
    }

    /// The rows as a table with the extent bound `max_extent`.
    pub(crate) fn table(&self, max_extent: i64) -> Table<'_> {
        Table {
            rows: self.rows(),
            max_extent,
            block_ends: &self.block_ends,
        }
    }

    fn clear(&mut self, origin: i64) {
        self.origin = origin;
        for col in [
            &mut self.starts,
            &mut self.ends,
            &mut self.ids,
            &mut self.block_ends,
        ] {
            col.clear();
        }
    }

    #[inline]
    fn push(&mut self, start: u32, end: u32, id: u32) {
        self.starts.push(start);
        self.ends.push(end);
        self.ids.push(id);
    }

    /// Cluster the rows pushed, unless they are `sorted` already, and
    /// find their block ends.
    fn finish(&mut self, sorted: bool) {
        if !sorted {
            let mut rows: Vec<(u32, u32, u32)> = (self.starts.iter().zip(&self.ends))
                .zip(&self.ids)
                .map(|((&s, &e), &i)| (s, e, i))
                .collect();
            rows.sort_unstable();
            for (k, (s, e, i)) in rows.into_iter().enumerate() {
                (self.starts[k], self.ends[k], self.ids[k]) = (s, e, i);
            }
        }
        let block_ends = self.ends.chunks(KEY_BLOCK).map(|b| b.iter().max().copied());
        self.block_ends
            .extend(block_ends.map(Option::unwrap_or_default));
    }

    /// Bytes the columns' allocations pin.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        let cols = [&self.starts, &self.ends, &self.ids, &self.block_ends];
        cols.iter().map(|c| c.capacity() as u64 * 4).sum()
    }
}

/// A pushed name's candidate rows ([`RegionIndex::posting`]).
#[derive(Clone, Copy, Debug)]
pub struct Posting<'a> {
    /// The name's rows with their own extent bound; the index's own
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
    Rows {
        rows: RowBuf,
        max_extent: i64,
        annotated: usize,
    },
}

impl NamePosting {
    /// The bytes of its rows and of their block ends.
    fn bytes(&self) -> (u64, u64) {
        match self {
            NamePosting::Covering => (0, 0),
            NamePosting::Rows { rows, .. } => (
                12 * rows.starts.len() as u64,
                4 * rows.block_ends.len() as u64,
            ),
        }
    }
}

/// The node view of checked, clustered rows whose ids, all below
/// `node_bound`, do not ascend: a count per rank, turned into each
/// annotated node's slot, then every row placed into its node's run —
/// in start order, since the rows are. Each run of two or more regions
/// must be a §3.1 area: sorted by start, neither overlapping nor
/// touching. Returned with the largest region count it found.
fn node_view(rows: Rows<'_>, node_bound: usize) -> Result<(NodeView, u32), Corrupt> {
    let mut slot = vec![0u32; node_bound];
    for &id in rows.ids {
        slot[id as usize] += 1;
    }
    let max_regions = slot.iter().fold(0, |m, &c| m.max(c));
    let mut ids = Vec::with_capacity(rows.len());
    if max_regions == 1 {
        // One region per node: slot `k` of the `k`-th annotated rank.
        for (pre, at) in slot.iter_mut().enumerate() {
            if *at > 0 {
                *at = ids.len() as u32;
                ids.push(pre as u32);
            }
        }
        let mut at = vec![0u32; rows.len()];
        for (row, &id) in rows.ids.iter().enumerate() {
            at[slot[id as usize] as usize] = row as u32;
        }
        return Ok((NodeView::One { ids, at }, max_regions));
    }
    let mut offsets = Vec::with_capacity(rows.len() + 1);
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
    let mut regions = vec![Region { start: 0, end: 0 }; rows.len()];
    for (row, &id) in rows.ids.iter().enumerate() {
        let at = &mut slot[id as usize];
        regions[*at as usize] = Region {
            start: rows.start(row),
            end: rows.end(row),
        };
        *at += 1;
    }
    for (k, run) in offsets.windows(2).enumerate() {
        let area = &regions[run[0] as usize..run[1] as usize];
        if !area
            .windows(2)
            .all(|w| w[1].start > w[0].end.saturating_add(1))
        {
            return Err(index_err(
                "ids",
                &format!("node {} regions invalid: regions overlap or touch", ids[k]),
            ));
        }
    }
    Ok((
        NodeView::Areas {
            ids,
            offsets,
            regions,
        },
        max_regions,
    ))
}

/// Do `ids`, all below `node_bound`, differ pairwise? One bit per rank,
/// so a mount checks it in an eighth of a byte per node.
fn distinct_ids(ids: &[u32], node_bound: usize) -> bool {
    let mut seen = vec![0u64; node_bound.div_ceil(64)];
    ids.iter().fold(true, |fresh, &id| {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        let first = seen[word] & bit == 0;
        seen[word] |= bit;
        fresh & first
    })
}

/// The slot of `id` among the ascending `ids`, if there is one, searched
/// from `from`: a previous answer, or 0. Ids ascend strictly, so the
/// slot lies at most `|id − ids[from]|` slots away — exactly that far
/// when every id in between is annotated, the common case, which costs
/// one probe and no unpredictable branch. Otherwise a binary search of
/// that bracket.
fn seek(ids: &[u32], from: usize, id: u32) -> Option<usize> {
    let at = *ids.get(from)?;
    let dense = (from as i64 + id as i64 - at as i64).clamp(0, ids.len() as i64 - 1) as usize;
    if ids[dense] == id {
        return Some(dense);
    }
    let bracket = if id > at { from..dense } else { dense..from };
    let k = bracket.start + ids[bracket].partition_point(|&x| x < id);
    (ids[k] == id).then_some(k)
}

/// The first of `0..n` for which `before` is false, `before` holding
/// on a prefix: a binary search over row numbers.
fn partition(n: usize, mut before: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn index_err(column: &str, msg: &str) -> Corrupt {
    Corrupt::new(column, format!("region index: {msg}"))
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
        let mut out = RowBuf::default();
        idx.gather_candidates(cands, 0..idx.len(), &mut out);
        out.rows().entries()
    }

    /// §4.3 by definition: the start-clustered table filtered by
    /// candidate membership.
    fn definitional(idx: &RegionIndex, cands: &[u32]) -> Vec<RegionEntry> {
        (idx.entries().into_iter())
            .filter(|e| cands.binary_search(&e.id).is_ok())
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

    /// A seek on the stored starts from any position finds, inside any
    /// range, what a binary search of the rows finds: over one row,
    /// equal-start runs longer than a gallop's first steps, a far
    /// cluster, negative starts, offsets at both ends of a `u32`, and
    /// the extremes of `i64` as targets. The block ends are each block's
    /// largest end.
    #[test]
    fn seeks_on_the_stored_starts_find_what_a_search_finds() {
        let far = 1i64 << 31;
        let mut cases: Vec<Vec<i64>> = vec![
            vec![5],
            vec![0, far, far, far + 3, far + 64, far + 65],
            (-300..-200).chain(-5..40).collect(),
            [3; 40].into_iter().chain([4; 3]).chain([90; 25]).collect(),
            (0..500).map(|k| k * 7 % 3001).collect(),
            vec![-7, -1, 0, u32::MAX as i64 - 7],
        ];
        for starts in &mut cases {
            starts.sort_unstable();
            let areas: Vec<(u32, Area)> = (starts.iter().enumerate())
                .map(|(k, &start)| (k as u32, Area::single(start, start).unwrap()))
                .collect();
            let index = RegionIndex::from_areas(&areas);
            let (table, n) = (index.table(), starts.len());
            let block_ends: Vec<u32> = table
                .rows
                .ends
                .chunks(KEY_BLOCK)
                .map(|b| b[b.len() - 1])
                .collect();
            assert_eq!(table.block_ends, block_ends);
            let mut targets = vec![i64::MIN, i64::MAX];
            for &s in starts.iter() {
                targets.extend([s.saturating_sub(1), s, s.saturating_add(1)]);
            }
            for from in [0, n / 3, n / 2, n] {
                for to in [n / 2, (2 * n).div_ceil(3), n] {
                    for &target in targets.iter().filter(|_| from <= to) {
                        let expected = from + starts[from..to].partition_point(|&s| s < target);
                        let got = table.rows.seek(from, to, target);
                        assert_eq!(got, expected, "{target} in {from}..{to} of {starts:?}");
                    }
                }
            }
        }
    }

    /// Regions spanning 2³² − 1 positions index, whatever their origin;
    /// one position more is refused, at a build and at a renumbering
    /// that would widen the span.
    #[test]
    fn a_span_of_two_to_the_32_is_refused() {
        let widest = u32::MAX as i64;
        for first in [0, -300, i64::MIN, i64::MAX - widest] {
            let xml = format!(
                r#"<d><a start="{first}" end="{}"/><b start="{}" end="{}"/></d>"#,
                first + 1,
                first + widest - 1,
                first + widest
            );
            let doc = parse_document(&xml).unwrap();
            let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
            assert_eq!(
                index.regions_of(3)[0],
                Region::new(first + widest - 1, first + widest).unwrap()
            );
            assert_eq!(index.table().reach(first + 2, i64::MAX), 1..2);
            let wider = xml.replace(
                &format!(r#"end="{}""#, first + widest),
                &format!(r#"end="{}""#, first as i128 + widest as i128 + 1),
            );
            if first != i64::MAX - widest {
                let doc = parse_document(&wider).unwrap();
                let err = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap_err();
                assert!(matches!(err, StandoffError::SpanTooWide { .. }), "{err}");
                assert!(err.to_string().contains("2^32 positions or more"), "{err}");
            }
        }
        let doc = parse_document(r#"<d><a start="0" end="9"/></d>"#).unwrap();
        let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
        let element = standoff_xml::NewElement {
            name: "a".into(),
            attrs: Vec::new(),
        };
        let (_, moved) = doc.splice(&[], &[element]).unwrap();
        let at = |start, end| [(moved.added().start, Region::new(start, end).unwrap())];
        assert_eq!(
            index.renumbered(&moved, &at(-1, widest - 1)).unwrap().len(),
            2
        );
        let err = index.renumbered(&moved, &at(-1, widest)).unwrap_err();
        assert!(matches!(err, StandoffError::SpanTooWide { first: -1, last } if last == widest));
    }

    #[test]
    fn node_view_round_trips() {
        let (doc, idx) = figure1_index();
        let intro = doc.elements_named("shot")[0];
        assert_eq!(*idx.regions_of(intro), [Region::new(0, 8).unwrap()]);
        assert_eq!(idx.region_count(intro), 1);
        // The <video> container itself has no regions.
        let video = doc.elements_named("video")[0];
        assert!(idx.regions_of(video).is_empty());
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
                .map(|e| Region::new(e.start, e.end).unwrap())
                .collect();
            assert_eq!(*idx.regions_of(pre), want, "{pre}");
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
        let rows = idx.table().rows;
        let ids = |s, e| -> Vec<u32> { rows.ids[idx.entries_at_probed(s, e).0].to_vec() };
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
            let hit: Vec<RegionEntry> = hit.map(|k| rows.entry(k)).collect();
            assert!(hit.contains(&e));
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
        let mut buf = RowBuf::default();
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
                    assert_eq!(
                        buf.rows().entries(),
                        want,
                        "mask {mask:#b}, extent [{from}, {to}]"
                    );
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

        let s = idx.table().rows;
        let kinds = vec![NodeKind::Element as u8; doc.node_count()];
        let col = |c: &[u32]| c.to_vec().into();
        let (starts, ends, ids) = (col(s.starts), col(s.ends), col(s.ids));
        let max_regions = idx.max_regions();
        let mounted =
            RegionIndex::from_storage(s.origin, starts, ends, ids, max_regions, &kinds).unwrap();
        assert_eq!(mounted.max_extent(), 56);

        let interview = doc.elements_named("shot")[1];
        let (_, moved) = doc.splice(&[interview], &[]).unwrap();
        let dropped = idx.renumbered(&moved, &[]).unwrap();
        assert_eq!((dropped.len(), dropped.max_extent()), (4, 42));
        let shot = standoff_xml::NewElement {
            name: "shot".into(),
            attrs: Vec::new(),
        };
        let (_, moved) = doc.splice(&[], &[shot]).unwrap();
        let added = [(moved.added().start, Region::new(1, 100).unwrap())];
        assert_eq!(idx.renumbered(&moved, &added).unwrap().max_extent(), 99);
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
    fn assert_block_writes_match<T: standoff_xml::column::Pod + std::fmt::Debug + PartialEq>(
        make: impl Fn(u32) -> T,
    ) {
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
