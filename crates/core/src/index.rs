//! The region index (paper §4.3).
//!
//! A per-document index of all area-annotations: a `start|end|id` table
//! *clustered on start*, where `id` is the annotation node's pre-order
//! rank (MonetDB/XQuery's node identifier). Non-contiguous areas repeat
//! the same id in several entries. A second, node-ordered view supports
//! context-region fetch and the candidate-sequence intersection that the
//! element-name index feeds into StandOff steps with name tests.
//!
//! That intersection is one operation with one entry point,
//! [`RegionIndex::candidates_into`], which makes one decision
//! ([`node_view_preferred`]) between two sequential kernels: a gather
//! through the node view for selective candidate sets and a branch-free
//! bitset scan of the clustered table for broad ones.

use std::io;

use standoff_xml::column::{Pod, PodCol};
use standoff_xml::{Document, NodeKind};

use crate::config::StandoffConfig;
use crate::error::StandoffError;
use crate::join::JoinStats;
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

/// Summary statistics of one or more region indexes — the cost-model
/// inputs the query optimizer consults at plan time (per-step strategy
/// selection, explain-time cardinality estimates).
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
    /// Annotated node pre ranks, sorted (document order).
    node_ids: PodCol<u32>,
    /// CSR offsets into `node_regions`, parallel to `node_ids` (+1).
    node_offsets: PodCol<u32>,
    /// Regions per node, each node's slice sorted by start.
    node_regions: PodCol<Region>,
    /// Largest region count of any single annotation (1 ⇒ the fast
    /// single-region post-processing path applies).
    max_regions: u32,
}

/// Borrowed raw columns of a [`RegionIndex`] — the snapshot writer's
/// view of the index (each slice is dumped as one aligned section).
pub struct RegionIndexStorage<'a> {
    pub entries: &'a [RegionEntry],
    pub node_ids: &'a [u32],
    pub node_offsets: &'a [u32],
    pub node_regions: &'a [Region],
    pub max_regions: u32,
}

/// Accumulates `(pre, area)` pushes, then finalizes into the clustered
/// column form (the build-time backend; mounts skip this entirely).
#[derive(Default)]
struct IndexAccum {
    entries: Vec<RegionEntry>,
    node_ids: Vec<u32>,
    node_offsets: Vec<u32>,
    node_regions: Vec<Region>,
    max_regions: u32,
}

impl IndexAccum {
    fn new() -> IndexAccum {
        IndexAccum {
            node_offsets: vec![0],
            ..Default::default()
        }
    }

    fn push_area(&mut self, pre: u32, area: &Area) {
        for r in area.regions() {
            self.entries.push(RegionEntry {
                start: r.start,
                end: r.end,
                id: pre,
            });
            self.node_regions.push(*r);
        }
        self.node_ids.push(pre);
        self.node_offsets.push(self.node_regions.len() as u32);
        self.max_regions = self.max_regions.max(area.region_count() as u32);
    }

    fn finish(mut self) -> RegionIndex {
        self.entries.sort_by_key(|e| (e.start, e.end, e.id));
        RegionIndex {
            entries: self.entries.into(),
            node_ids: self.node_ids.into(),
            node_offsets: self.node_offsets.into(),
            node_regions: self.node_regions.into(),
            max_regions: self.max_regions,
        }
    }
}

impl RegionIndex {
    /// Build the index for one document under a configuration.
    pub fn build(doc: &Document, config: &StandoffConfig) -> Result<RegionIndex, StandoffError> {
        config.validate()?;
        let mut accum = IndexAccum::new();
        for pre in 0..doc.node_count() as u32 {
            if doc.kind(pre) != NodeKind::Element {
                continue;
            }
            if let Some(area) = config.area_of(doc, pre)? {
                accum.push_area(pre, &area);
            }
        }
        Ok(accum.finish())
    }

    /// Build directly from `(pre, area)` pairs (synthetic workloads and
    /// tests). Pairs must be in ascending pre order.
    pub fn from_areas(pairs: &[(u32, Area)]) -> RegionIndex {
        let mut accum = IndexAccum::new();
        for (pre, area) in pairs {
            debug_assert!(accum.node_ids.last().is_none_or(|&last| last < *pre));
            accum.push_area(*pre, area);
        }
        accum.finish()
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
    #[inline]
    pub fn annotated_nodes(&self) -> &[u32] {
        &self.node_ids
    }

    /// Largest per-annotation region count.
    #[inline]
    pub fn max_regions(&self) -> u32 {
        self.max_regions
    }

    /// This index's summary statistics (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            indexes: 1,
            entries: self.entries.len() as u64,
            annotated: self.node_ids.len() as u64,
            max_regions: self.max_regions,
        }
    }

    /// The regions of the annotation at `pre` (empty slice if `pre` is not
    /// annotated).
    pub fn regions_of(&self, pre: u32) -> &[Region] {
        match self.node_ids.binary_search(&pre) {
            Ok(k) => {
                &self.node_regions[self.node_offsets[k] as usize..self.node_offsets[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// The entries carrying exactly the region `[start, end]`: the equal
    /// range of that key in the clustered column, so ids come out
    /// ascending. Two binary searches — this is the lookup that answers
    /// "which annotations sit at this region?" without touching the
    /// other rows.
    pub fn entries_at(&self, start: i64, end: i64) -> &[RegionEntry] {
        self.entries_at_probed(start, end).0
    }

    /// [`RegionIndex::entries_at`] plus the number of entries it
    /// examined: every comparison of the two binary searches and every
    /// row of the answer. Callers that publish a probe counter feed it
    /// from here, so the count is measured, not derived.
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
    /// ordering* of the region index. This is how an element-name test is
    /// pushed down into a StandOff step.
    ///
    /// The allocating convenience over [`RegionIndex::candidates_into`].
    pub fn candidates_for(&self, sorted_node_pres: &[u32]) -> Vec<RegionEntry> {
        let mut out = Vec::new();
        self.candidates_into(sorted_node_pres, &mut CandidateScratch::default(), &mut out);
        out
    }

    /// The candidate intersection into a reusable buffer: one decision
    /// ([`node_view_preferred`]) between two kernels. Selective candidate
    /// sets walk the CSR node view ([`RegionIndex::gather_candidates`]),
    /// never touching the full entries table; broad ones take one
    /// branch-free pass over the start-clustered table
    /// ([`RegionIndex::dense_scan_candidates`]). The crossover mirrors
    /// MonetDB's choice between positional gather and scan. `scratch`
    /// carries the reusable bitset, the governance budget and the kernel
    /// counters, so the join hot path allocates nothing per call.
    pub fn candidates_into(
        &self,
        sorted_node_pres: &[u32],
        scratch: &mut CandidateScratch,
        out: &mut Vec<RegionEntry>,
    ) {
        if self.prefers_node_view(sorted_node_pres.len()) {
            self.gather_candidates(sorted_node_pres, out);
        } else {
            self.dense_scan_candidates(sorted_node_pres, scratch, out);
        }
    }

    /// Would [`RegionIndex::candidates_into`] take the node-view gather
    /// kernel for a candidate set of this size? Exposed so the query
    /// planner's explain output and runtime statistics can report the
    /// same decision the index makes.
    #[inline]
    pub fn prefers_node_view(&self, candidate_count: usize) -> bool {
        node_view_preferred(candidate_count, self.entries.len() as u64)
    }

    /// The gather kernel: fetch each candidate's regions through the CSR
    /// node view into `out` (cleared first), restoring the
    /// `(start, end, id)` clustering only when the gathered runs
    /// actually violate it. Public so benches and the property suite
    /// can run it on inputs the cost rule would send to the scan.
    pub fn gather_candidates(&self, sorted_node_pres: &[u32], out: &mut Vec<RegionEntry>) {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        out.reserve(sorted_node_pres.len());
        let mut sorted = true;
        let mut last = (i64::MIN, i64::MIN, 0u32);
        for &pre in sorted_node_pres {
            for r in self.regions_of(pre) {
                let key = (r.start, r.end, pre);
                sorted &= last < key;
                last = key;
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
    }

    /// The scan kernel: build the candidate bitset in `scratch`, then one
    /// chunked branch-free pass over the start-clustered table into
    /// `out` (cleared first), which therefore needs no re-sort. Polls
    /// `scratch.budget` once per 64-entry block. Public for the same
    /// reason as [`RegionIndex::gather_candidates`].
    pub fn dense_scan_candidates(
        &self,
        sorted_node_pres: &[u32],
        scratch: &mut CandidateScratch,
        out: &mut Vec<RegionEntry>,
    ) {
        debug_assert!(sorted_node_pres.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        if sorted_node_pres.is_empty() || self.entries.is_empty() {
            return;
        }
        scratch.dense.fill(sorted_node_pres);
        scratch.stats.candidate_repr_dense += 1;
        // The kernel visits every 64-entry block exactly once.
        scratch.stats.candidate_dense_blocks += self.entries.len().div_ceil(SCAN_CHUNK) as u64;
        dense_scan_chunks(&self.entries, &scratch.dense, scratch.budget.as_ref(), out);
    }

    /// Memory footprint estimate in bytes (used by the bench harness to
    /// report index sizes alongside document sizes).
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<RegionEntry>()
            + self.node_ids.len() * 4
            + self.node_offsets.len() * 4
            + self.node_regions.len() * std::mem::size_of::<Region>()
    }

    /// Assemble an index from raw (possibly buffer-backed) columns,
    /// re-validating **every** structural invariant: clustering order,
    /// node/CSR consistency, per-annotation region validity (the §3.1
    /// area constraints, checked without allocating), the stored
    /// max-regions statistic, and the entry ↔ node-view bijection. This
    /// is the single trust boundary of the snapshot mount — mounted
    /// indexes are used as-is by the join executor, never re-checked
    /// downstream.
    ///
    /// `node_count` is the node count of the document the index
    /// describes, taken from its already validated columns: annotated
    /// ids at or beyond it are rejected before anything is sized by an
    /// id, so the bijection check's scratch is bounded by memory the
    /// document already occupies, never by a number read from the file.
    pub fn from_storage(
        entries: PodCol<RegionEntry>,
        node_ids: PodCol<u32>,
        node_offsets: PodCol<u32>,
        node_regions: PodCol<Region>,
        max_regions: u32,
        node_count: usize,
    ) -> io::Result<RegionIndex> {
        if !entries
            .windows(2)
            .all(|w| (w[0].start, w[0].end, w[0].id) < (w[1].start, w[1].end, w[1].id))
        {
            return Err(index_data_err("entries not clustered on (start, end, id)"));
        }
        if !node_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(index_data_err("node ids not strictly ascending"));
        }
        if node_ids
            .last()
            .is_some_and(|&last| last as usize >= node_count)
        {
            return Err(index_data_err("references nodes beyond the document"));
        }
        if node_offsets.len() != node_ids.len() + 1 {
            return Err(index_data_err("region CSR length mismatch"));
        }
        if node_offsets[0] != 0 || !node_offsets.windows(2).all(|w| w[0] < w[1]) {
            // Strictly increasing: every annotated node has ≥ 1 region.
            return Err(index_data_err("region CSR offsets not increasing from 0"));
        }
        if *node_offsets.last().unwrap() as usize != entries.len()
            || node_regions.len() != entries.len()
        {
            return Err(index_data_err("entry count disagrees with region CSR"));
        }
        if node_regions.iter().any(|r| r.start > r.end) {
            return Err(index_data_err("bad region: start > end"));
        }
        let mut found_max = 0u32;
        for k in 0..node_ids.len() {
            let slice = &node_regions[node_offsets[k] as usize..node_offsets[k + 1] as usize];
            // The §3.1 area constraints, allocation-free: sorted by
            // start, pairwise non-overlapping and non-touching.
            if !slice.windows(2).all(|w| w[0].start < w[1].start) {
                return Err(index_data_err("node regions not sorted by start"));
            }
            if !slice
                .windows(2)
                .all(|w| w[1].start > w[0].end.saturating_add(1))
            {
                return Err(index_data_err(&format!(
                    "node {} regions invalid: regions overlap or touch",
                    node_ids[k]
                )));
            }
            found_max = found_max.max(slice.len() as u32);
        }
        if max_regions != found_max {
            return Err(index_data_err("stored max-regions is inconsistent"));
        }
        // Entries are unique (strict clustering) and equinumerous with the
        // node view; membership of each entry closes the bijection. One
        // pass ranks the annotated ids, then each entry probes its node
        // once: a node's entries arrive in `(start, end)` order — the
        // order of its region slice, whose starts strictly increase — so
        // an entry is a member exactly when it equals the next region its
        // node has not yet matched.
        let mut slot_of = vec![u32::MAX; node_count];
        for (k, &id) in node_ids.iter().enumerate() {
            slot_of[id as usize] = k as u32;
        }
        let mut next: Vec<u32> = node_offsets[..node_ids.len()].to_vec();
        for e in entries.iter() {
            let slot = slot_of.get(e.id as usize).copied().unwrap_or(u32::MAX) as usize;
            let member = next.get(slot).is_some_and(|&at| {
                at < node_offsets[slot + 1]
                    && node_regions[at as usize]
                        == (Region {
                            start: e.start,
                            end: e.end,
                        })
            });
            if !member {
                return Err(index_data_err("entry has no matching node-view region"));
            }
            next[slot] += 1;
        }
        Ok(RegionIndex {
            entries,
            node_ids,
            node_offsets,
            node_regions,
            max_regions,
        })
    }

    /// Borrow the raw columns (the snapshot writer's hook).
    pub fn storage(&self) -> RegionIndexStorage<'_> {
        RegionIndexStorage {
            entries: &self.entries,
            node_ids: &self.node_ids,
            node_offsets: &self.node_offsets,
            node_regions: &self.node_regions,
            max_regions: self.max_regions,
        }
    }

    /// Are the bulk columns zero-copy views over a mounted snapshot
    /// buffer? Benches and tests use this to assert the mount path
    /// actually mounted.
    pub fn is_mounted(&self) -> bool {
        self.entries.is_view() && self.node_regions.is_view()
    }
}

/// The one cost rule of the candidate intersection: walking the node
/// view costs ~`C log C` (gather plus the worst-case re-sort), the dense
/// scan costs one pass over all `E` entries plus building the bitset —
/// gather wins while `C log C < E`. A free function so the planner can
/// evaluate the rule from statistics alone, without an index at hand.
///
/// Calibration (bench-report `dense_scaling` group, 50k-entry table):
/// the measured gather/scan break-even sits between C = 4 000 and
/// C = 5 000 candidates — gather wins 2.3× at C = 1 000, ties at
/// C = 4 000, loses 1.4–1.7× from C = 5 000 — and the rule flips at
/// C ≈ 4 100, inside the measured bracket. No fudge factor needed.
#[inline]
pub fn node_view_preferred(candidate_count: usize, index_entries: u64) -> bool {
    let c = candidate_count;
    let gather_cost = (c as u64) * (usize::BITS - (c | 1).leading_zeros()) as u64;
    gather_cost < index_entries
}

/// A u64-block bitset over the candidate pre range `[base, base + span)`.
/// Offsets outside the span test negative without branching: the word
/// index is clamped and the in-range flag is folded into the bit.
#[derive(Clone, Debug, Default)]
struct DenseCandidates {
    base: u32,
    span: u64,
    words: Vec<u64>,
}

impl DenseCandidates {
    /// (Re)build the bitset from a strictly ascending id list, reusing
    /// the word buffer. `sorted` must be non-empty.
    fn fill(&mut self, sorted: &[u32]) {
        debug_assert!(!sorted.is_empty());
        let base = sorted[0];
        let span = (*sorted.last().unwrap() - base) as u64 + 1;
        let words = span.div_ceil(64) as usize;
        self.words.clear();
        self.words.resize(words, 0);
        self.base = base;
        self.span = span;
        for &id in sorted {
            let off = id - base;
            self.words[(off >> 6) as usize] |= 1u64 << (off & 63);
        }
    }

    /// Branch-free membership test: clamped word load, bit shift, and an
    /// in-range mask — no data-dependent branches, so the chunked scan
    /// loop autovectorizes.
    #[inline(always)]
    fn contains(&self, id: u32) -> bool {
        let off = id.wrapping_sub(self.base) as u64;
        let w = ((off >> 6) as usize).min(self.words.len().saturating_sub(1));
        let bit = (self.words[w] >> (off & 63)) & 1;
        (bit & (off < self.span) as u64) != 0
    }
}

/// Caller-owned scratch for [`RegionIndex::candidates_into`]: the
/// reusable candidate bitset, the governance budget, and the kernel
/// counters. Lives inside the executor's `JoinScratch` so the join hot
/// path allocates nothing per iteration.
#[derive(Clone, Debug, Default)]
pub struct CandidateScratch {
    /// `candidate_repr_dense` and `candidate_dense_blocks` accumulate
    /// here until the executor takes them.
    pub stats: JoinStats,
    /// Cooperative evaluation budget, polled once per 64-entry kernel
    /// chunk. `None` (the default) keeps the kernel budget-free apart
    /// from one hoisted `Option` test.
    pub budget: Option<crate::budget::Budget>,
    dense: DenseCandidates,
}

impl CandidateScratch {
    /// Bytes pinned by the bitset's word buffer (capacity, not length).
    pub fn approx_bytes(&self) -> usize {
        self.dense.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Kernel block width: one u64 of match bits per block.
const SCAN_CHUNK: usize = 64;

/// The chunked, branch-free scan loop. For each 64-entry block it
/// computes a match bitmask with a data-independent inner loop (the
/// bitset's membership test is a clamped load + bit test, so the block
/// compiles to straight-line autovectorizable code), then materializes:
/// an all-ones mask copies the whole block with `extend_from_slice`,
/// otherwise set bits are popped in order.
fn dense_scan_chunks(
    entries: &[RegionEntry],
    bits: &DenseCandidates,
    budget: Option<&crate::budget::Budget>,
    out: &mut Vec<RegionEntry>,
) {
    for chunk in entries.chunks(SCAN_CHUNK) {
        // One predictable branch per 64-entry block; the block body
        // below stays branch-free. A tripped budget abandons the scan —
        // partial output is discarded with the query.
        if budget.is_some_and(|b| b.poll().is_some()) {
            return;
        }
        let mut mask = 0u64;
        for (k, e) in chunk.iter().enumerate() {
            mask |= (bits.contains(e.id) as u64) << k;
        }
        if chunk.len() == SCAN_CHUNK && mask == u64::MAX {
            out.extend_from_slice(chunk);
        } else {
            while mask != 0 {
                out.push(chunk[mask.trailing_zeros() as usize]);
                mask &= mask - 1;
            }
        }
    }
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

    #[test]
    fn entries_at_is_the_equal_range_of_the_region_key() {
        let doc = parse_document(
            r#"<d><a start="3" end="5"/><b start="3" end="5"/><c start="3" end="6"/>
               <e start="2" end="5"/><z start="4" end="4"/><a start="3" end="5"/></d>"#,
        )
        .unwrap();
        let idx = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
        let ids = |s, e| -> Vec<u32> { idx.entries_at(s, e).iter().map(|x| x.id).collect() };
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
        assert!(RegionIndex::default().entries_at(0, 0).is_empty());
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
        let cands = idx.candidates_for(shots);
        assert_eq!(cands.len(), 3);
        assert!(cands.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(cands.iter().all(|e| shots.contains(&e.id)));
    }

    /// Regression: `candidates_for` silently assumed its input was
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
        let _ = idx.candidates_for(&unsorted);
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
        let got = idx.candidates_for(&cands);
        assert_eq!(got, definitional(&idx, &cands));
        assert_eq!(got.len(), 5); // 3 shots + 2 music annotations
    }

    /// The inverted (node-view) path must fire for sparse candidate sets
    /// and still return `(start, end, id)`-clustered entries — including
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
        let idx = RegionIndex::from_areas(&pairs);
        let cands = vec![3, 5, 7];
        assert!(
            idx.prefers_node_view(cands.len()),
            "3 candidates over a 7-entry table must take the node view"
        );
        let got = idx.candidates_for(&cands);
        assert_eq!(got.len(), 5);
        assert!(
            got.windows(2)
                .all(|w| (w[0].start, w[0].end, w[0].id) < (w[1].start, w[1].end, w[1].id)),
            "node-view gather must restore the start clustering: {got:?}"
        );
        assert_eq!(got, definitional(&idx, &cands), "paths must agree");
    }

    /// Both access paths agree on every candidate subset of a mixed
    /// index, through the reusable-buffer entry point.
    #[test]
    fn candidates_into_agrees_with_scan_for_all_subsets() {
        let (doc, idx) = figure1_index();
        let all: Vec<u32> = idx.annotated_nodes().to_vec();
        let mut buf = Vec::new();
        let mut scratch = CandidateScratch::default();
        for mask in 0u32..(1 << all.len()) {
            let subset: Vec<u32> = all
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &p)| p)
                .collect();
            idx.candidates_into(&subset, &mut scratch, &mut buf);
            assert_eq!(buf, definitional(&idx, &subset), "mask {mask:#b}");
        }
        // Unannotated candidates simply contribute nothing.
        let video = doc.elements_named("video")[0];
        idx.candidates_into(&[video], &mut scratch, &mut buf);
        assert!(buf.is_empty());
    }

    /// The cost rule: tiny candidate sets gather, huge ones scan.
    #[test]
    fn cost_rule_crossover() {
        assert!(node_view_preferred(1, 2));
        assert!(node_view_preferred(64, 100_000));
        assert!(!node_view_preferred(50_000, 100_000));
        assert!(!node_view_preferred(0, 0), "empty index: scan is free");
        let pairs: Vec<(u32, Area)> = (0..1000)
            .map(|k| (k, Area::single(k as i64 * 10, k as i64 * 10 + 5).unwrap()))
            .collect();
        let idx = RegionIndex::from_areas(&pairs);
        assert!(idx.prefers_node_view(8));
        assert!(!idx.prefers_node_view(900));
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
