//! [`RegionSource`]: the logically-merged region view the join kernels
//! consume.
//!
//! A pure snapshot layer is a [`RegionIndex`] and nothing else; a
//! writable overlay adds *retractions* (annotations hidden by a delta
//! layer until the next compaction). The joins must see one doc-order
//! region stream either way, without the pure path paying for the
//! possibility of a delta. `RegionSource` is that seam:
//!
//! * with no retractions (`is_pure()`), every accessor delegates to the
//!   index and the borrowing accessors return the index's own columns —
//!   the zero-copy `PodCol` fast path is byte-for-byte the read-only
//!   code path;
//! * with retractions, entry streams are filtered into caller scratch
//!   and per-node lookups of retracted annotations come back empty —
//!   exactly what a compacted snapshot (which drops the retracted
//!   subtrees) would produce.
//!
//! Inserted annotations never appear here: an overlay mounts its
//! pending inserts as a sibling *delta document* with its own pure
//! `RegionSource`, and the engine's existing multi-document join
//! machinery merges the streams in document order.

use crate::index::{CandidateScratch, IndexStats, RegionEntry, RegionIndex};
use crate::region::Region;

/// A region index plus an optional retraction set, presented as one
/// logically-merged region stream. Cheap to copy (two fat pointers).
#[derive(Clone, Copy, Debug)]
pub struct RegionSource<'a> {
    index: &'a RegionIndex,
    /// Strictly ascending pre ranks whose annotations are retracted.
    /// Empty on the pure path.
    retracted: &'a [u32],
}

impl<'a> RegionSource<'a> {
    /// A pure view: the index as-is, nothing retracted.
    #[inline]
    pub fn from_index(index: &'a RegionIndex) -> RegionSource<'a> {
        RegionSource {
            index,
            retracted: &[],
        }
    }

    /// A merged view hiding the annotations at `retracted` pre ranks
    /// (strictly ascending; typically subtree-expanded by the caller so
    /// a retracted annotation's nested annotations vanish with it).
    pub fn with_retractions(index: &'a RegionIndex, retracted: &'a [u32]) -> RegionSource<'a> {
        debug_assert!(
            retracted.windows(2).all(|w| w[0] < w[1]),
            "retractions must be strictly ascending"
        );
        RegionSource { index, retracted }
    }

    /// Is this the zero-copy pure-snapshot path?
    #[inline]
    pub fn is_pure(&self) -> bool {
        self.retracted.is_empty()
    }

    /// The underlying index.
    #[inline]
    pub fn index(&self) -> &'a RegionIndex {
        self.index
    }

    /// The retraction set (strictly ascending pre ranks).
    #[inline]
    pub fn retractions(&self) -> &'a [u32] {
        self.retracted
    }

    /// Is the annotation at `pre` retracted?
    #[inline]
    pub fn is_retracted(&self, pre: u32) -> bool {
        !self.retracted.is_empty() && self.retracted.binary_search(&pre).is_ok()
    }

    /// The regions of the annotation at `pre`, ascending; empty when
    /// unannotated *or retracted*.
    #[inline]
    pub fn regions_of(&self, pre: u32) -> &'a [Region] {
        if self.is_retracted(pre) {
            &[]
        } else {
            self.index.regions_of(pre)
        }
    }

    /// Number of visible regions of the annotation at `pre`.
    #[inline]
    pub fn region_count(&self, pre: u32) -> usize {
        if self.is_retracted(pre) {
            0
        } else {
            self.index.region_count(pre)
        }
    }

    /// Upper bound on regions per annotation. Retraction can only lower
    /// the true maximum; the index's bound stays sound for the ∀∃
    /// post-processing dispatch.
    #[inline]
    pub fn max_regions(&self) -> u32 {
        self.index.max_regions()
    }

    /// The visible `start|end|id` entry stream in `(start, end, id)`
    /// order. Pure sources return the index's own column — no copy;
    /// otherwise the filtered stream is materialized into `scratch`.
    pub fn entries_in<'s>(&self, scratch: &'s mut Vec<RegionEntry>) -> &'s [RegionEntry]
    where
        'a: 's,
    {
        if self.is_pure() {
            return self.index.entries();
        }
        scratch.clear();
        scratch.extend(
            self.index
                .entries()
                .iter()
                .filter(|e| !self.is_retracted(e.id))
                .copied(),
        );
        scratch
    }

    /// Entries of the candidate nodes (strictly ascending pre ranks),
    /// in entry order, into `out` (cleared first) — the candidate-driven
    /// access path of §4.3, minus anything retracted. The retraction
    /// filter is a single post-pass gated on `is_pure()`, never a
    /// per-entry check inside the scan kernel, so the pure-snapshot path
    /// runs the exact index kernel ([`RegionIndex::candidates_into`]).
    pub fn candidates_into(
        &self,
        candidates: &[u32],
        scratch: &mut CandidateScratch,
        out: &mut Vec<RegionEntry>,
    ) {
        self.index.candidates_into(candidates, scratch, out);
        if !self.is_pure() {
            out.retain(|e| !self.is_retracted(e.id));
        }
    }

    /// The visible annotated nodes, strictly ascending. Pure sources
    /// return the index's CSR node column directly.
    pub fn annotated_nodes_in<'s>(&self, scratch: &'s mut Vec<u32>) -> &'s [u32]
    where
        'a: 's,
    {
        if self.is_pure() {
            return self.index.annotated_nodes();
        }
        scratch.clear();
        scratch.extend(
            self.index
                .annotated_nodes()
                .iter()
                .filter(|&&n| !self.is_retracted(n))
                .copied(),
        );
        scratch
    }

    /// Index statistics with retracted annotations (and their entries)
    /// subtracted — what cost-based strategy selection should see.
    pub fn stats(&self) -> IndexStats {
        let mut stats = self.index.stats();
        if !self.is_pure() {
            let mut annotated = 0u64;
            let mut entries = 0u64;
            for &pre in self.retracted {
                let n = self.index.region_count(pre) as u64;
                if n > 0 {
                    annotated += 1;
                    entries += n;
                }
            }
            stats.annotated = stats.annotated.saturating_sub(annotated);
            stats.entries = stats.entries.saturating_sub(entries);
        }
        stats
    }
}

impl<'a> From<&'a RegionIndex> for RegionSource<'a> {
    fn from(index: &'a RegionIndex) -> RegionSource<'a> {
        RegionSource::from_index(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Area;

    fn index() -> RegionIndex {
        RegionIndex::from_areas(&[
            (2, Area::single(0, 9).unwrap()),
            (4, Area::single(10, 19).unwrap()),
            (6, Area::single(5, 14).unwrap()),
        ])
    }

    #[test]
    fn pure_source_borrows_index_columns() {
        let idx = index();
        let src = RegionSource::from_index(&idx);
        assert!(src.is_pure());
        let mut scratch = Vec::new();
        let entries = src.entries_in(&mut scratch);
        assert!(std::ptr::eq(entries.as_ptr(), idx.entries().as_ptr()));
        assert!(scratch.is_empty(), "pure path must not materialize");
        let mut nodes = Vec::new();
        let annotated = src.annotated_nodes_in(&mut nodes);
        assert!(std::ptr::eq(
            annotated.as_ptr(),
            idx.annotated_nodes().as_ptr()
        ));
    }

    #[test]
    fn retraction_hides_annotation_everywhere() {
        let idx = index();
        let retracted = [4u32];
        let src = RegionSource::with_retractions(&idx, &retracted);
        assert!(!src.is_pure());
        assert!(src.is_retracted(4) && !src.is_retracted(2));
        assert!(src.regions_of(4).is_empty());
        assert_eq!(src.region_count(4), 0);
        assert_eq!(src.regions_of(2), idx.regions_of(2));

        let mut scratch = Vec::new();
        let entries = src.entries_in(&mut scratch);
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.id != 4));

        let mut nodes = Vec::new();
        assert_eq!(src.annotated_nodes_in(&mut nodes), &[2, 6]);

        let mut cands = Vec::new();
        src.candidates_into(&[2, 4, 6], &mut CandidateScratch::default(), &mut cands);
        assert!(cands.iter().all(|e| e.id != 4));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn stats_subtract_retracted() {
        let idx = index();
        let retracted = [4u32, 100];
        let src = RegionSource::with_retractions(&idx, &retracted);
        let stats = src.stats();
        assert_eq!(stats.annotated, 2);
        assert_eq!(stats.entries, 2);
        // A retraction of an unannotated node subtracts nothing.
        assert_eq!(RegionSource::from_index(&idx).stats().annotated, 3);
    }
}
