//! Regions and areas — the paper's annotation model (§2, §3.1).
//!
//! A *region* is an inclusive `[start, end]` range of 64-bit positions
//! into the annotated BLOB (`start ≤ end`; the datatype only needs a full
//! ordering — file offsets, time codes and word positions all map onto
//! `i64`). An *area* is a set of one or more regions that neither overlap
//! nor touch each other; area-annotations with multiple regions describe
//! non-contiguous objects (files reconstructed from scattered disk blocks,
//! discontinuous grammatical constructs).

use std::fmt;

use crate::error::StandoffError;

/// An inclusive `[start, end]` region over the BLOB position space.
///
/// ```
/// use standoff_core::Region;
/// let shot = Region::new(0, 8)?;      // video shot, seconds 0–8
/// let track = Region::new(0, 31)?;    // music track, seconds 0–31
/// assert!(track.contains(&shot));
/// assert!(shot.overlaps(&track));
/// # Ok::<(), standoff_core::StandoffError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Region {
    pub start: i64,
    pub end: i64,
}

impl Region {
    /// Create a region; fails unless `start ≤ end`.
    pub fn new(start: i64, end: i64) -> Result<Region, StandoffError> {
        if start <= end {
            Ok(Region { start, end })
        } else {
            Err(StandoffError::InvalidRegion { start, end })
        }
    }

    /// Region containment per §3.1:
    /// `r1.start ≤ r2.start ≤ r2.end ≤ r1.end` (self is `r1`).
    #[inline]
    pub fn contains(&self, other: &Region) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Region overlap per §3.1:
    /// `r1.start ≤ r2.end ∧ r1.end ≥ r2.start` (both inclusive).
    #[inline]
    pub fn overlaps(&self, other: &Region) -> bool {
        self.start <= other.end && self.end >= other.start
    }

    /// Do the regions touch (adjacent without sharing a position)? Used by
    /// area validation: an area's regions may neither overlap nor touch.
    #[inline]
    pub fn touches(&self, other: &Region) -> bool {
        // Saturating: positions may sit at the i64 boundary.
        other.start == self.end.saturating_add(1) || self.start == other.end.saturating_add(1)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.start, self.end)
    }
}

/// An area-annotation's geometry: one or more regions, sorted by start,
/// pairwise non-overlapping and non-touching.
///
/// Multi-region areas describe non-contiguous objects; containment is
/// ∀∃ and overlap ∃∃ over the region sets (paper §3.1):
///
/// ```
/// use standoff_core::{Area, Region};
/// // A gene's exonic area and a spliced read.
/// let gene = Area::try_new(vec![Region::new(100, 199)?, Region::new(300, 449)?])?;
/// let read = Area::try_new(vec![Region::new(180, 199)?, Region::new(300, 329)?])?;
/// assert!(gene.contains(&read));
/// // A read dangling into the intron overlaps but is not contained.
/// let dangling = Area::single(190, 230)?;
/// assert!(gene.overlaps(&dangling) && !gene.contains(&dangling));
/// # Ok::<(), standoff_core::StandoffError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Area {
    regions: Vec<Region>,
}

impl Area {
    /// Single-region area (the attribute representation always yields
    /// these).
    pub fn single(start: i64, end: i64) -> Result<Area, StandoffError> {
        Ok(Area {
            regions: vec![Region::new(start, end)?],
        })
    }

    /// Build an area from regions, validating the §3.1 constraints:
    /// non-empty, and after sorting, pairwise non-overlapping and
    /// non-touching.
    pub fn try_new(mut regions: Vec<Region>) -> Result<Area, StandoffError> {
        if regions.is_empty() {
            return Err(StandoffError::EmptyArea);
        }
        regions.sort();
        for w in regions.windows(2) {
            if w[0].overlaps(&w[1]) || w[0].touches(&w[1]) {
                return Err(StandoffError::AreaRegionsConflict { a: w[0], b: w[1] });
            }
        }
        Ok(Area { regions })
    }

    /// The regions, sorted by start.
    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions (≥ 1).
    #[inline]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Is this a contiguous (single-region) area?
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.regions.len() == 1
    }

    /// Smallest region covering the whole area.
    pub fn bounding(&self) -> Region {
        Region {
            start: self.regions.first().unwrap().start,
            end: self.regions.last().unwrap().end,
        }
    }

    /// Area containment per §3.1 (self is `a1`):
    /// `∀ r2 ∈ a2 ∃ r1 ∈ a1 : r1.start ≤ r2.start ≤ r2.end ≤ r1.end`.
    ///
    /// Both region lists are sorted and internally disjoint, so a single
    /// merge pass decides the ∀∃ in `O(|a1| + |a2|)`.
    pub fn contains(&self, other: &Area) -> bool {
        let mut i = 0;
        'outer: for r2 in &other.regions {
            while i < self.regions.len() {
                let r1 = &self.regions[i];
                if r1.end < r2.start {
                    // r1 entirely before r2: no later r2' can be inside it
                    // either (r2' start only grows). Advance r1.
                    i += 1;
                } else if r1.contains(r2) {
                    // r2 placed; keep r1 — the next r2' may also fit in it.
                    continue 'outer;
                } else {
                    // r1 starts after r2, or only partially covers it: no
                    // region of a1 can contain r2 (they are disjoint and
                    // sorted), so the ∀ fails.
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Area overlap per §3.1:
    /// `∃ r2 ∈ a2, r1 ∈ a1 : r1.start ≤ r2.end ∧ r1.end ≥ r2.start`.
    pub fn overlaps(&self, other: &Area) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.regions.len() && j < other.regions.len() {
            let (r1, r2) = (&self.regions[i], &other.regions[j]);
            if r1.overlaps(r2) {
                return true;
            }
            if r1.end < r2.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for r in &self.regions {
            if !first {
                f.write_str("+")?;
            }
            first = false;
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(rs: &[(i64, i64)]) -> Area {
        Area::try_new(
            rs.iter()
                .map(|&(s, e)| Region::new(s, e).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn region_validation() {
        assert!(Region::new(5, 5).is_ok());
        assert!(Region::new(5, 4).is_err());
    }

    #[test]
    fn region_contains_is_inclusive() {
        let outer = Region::new(0, 10).unwrap();
        assert!(outer.contains(&Region::new(0, 10).unwrap()));
        assert!(outer.contains(&Region::new(3, 7).unwrap()));
        assert!(!outer.contains(&Region::new(3, 11).unwrap()));
    }

    #[test]
    fn region_overlap_is_inclusive_at_endpoints() {
        let a = Region::new(0, 10).unwrap();
        assert!(
            a.overlaps(&Region::new(10, 20).unwrap()),
            "shared endpoint overlaps"
        );
        assert!(!a.overlaps(&Region::new(11, 20).unwrap()));
        assert!(a.overlaps(&Region::new(-5, 0).unwrap()));
    }

    #[test]
    fn figure1_example_relationships() {
        // U2 music [0,31]; shots: Intro [0,8], Interview [8,64], Outro [64,94].
        let u2 = area(&[(0, 31)]);
        let intro = area(&[(0, 8)]);
        let interview = area(&[(8, 64)]);
        let outro = area(&[(64, 94)]);
        assert!(u2.contains(&intro));
        assert!(!u2.contains(&interview));
        assert!(!u2.contains(&outro));
        assert!(u2.overlaps(&intro));
        assert!(u2.overlaps(&interview));
        assert!(!u2.overlaps(&outro));
    }

    #[test]
    fn area_rejects_overlapping_or_touching_regions() {
        let r = |s, e| Region::new(s, e).unwrap();
        assert!(Area::try_new(vec![r(0, 5), r(5, 9)]).is_err(), "overlap");
        assert!(Area::try_new(vec![r(0, 5), r(6, 9)]).is_err(), "touching");
        assert!(Area::try_new(vec![r(0, 5), r(7, 9)]).is_ok());
        assert!(Area::try_new(vec![]).is_err(), "empty");
    }

    #[test]
    fn multi_region_containment_is_forall_exists() {
        // a1 = [0,10] + [20,30]
        let a1 = area(&[(0, 10), (20, 30)]);
        // both pieces inside pieces of a1 → contained
        assert!(a1.contains(&area(&[(2, 4), (25, 28)])));
        // second piece sticks out → not contained
        assert!(!a1.contains(&area(&[(2, 4), (25, 35)])));
        // piece in the gap → not contained
        assert!(!a1.contains(&area(&[(12, 14)])));
        // two candidate pieces inside the SAME a1 region → contained
        assert!(a1.contains(&area(&[(1, 3), (5, 7)])));
    }

    #[test]
    fn multi_region_overlap_is_exists_exists() {
        let a1 = area(&[(0, 10), (20, 30)]);
        assert!(a1.overlaps(&area(&[(15, 22)])), "overlaps second piece");
        assert!(!a1.overlaps(&area(&[(12, 18)])), "falls in the gap");
        assert!(a1.overlaps(&area(&[(12, 18), (29, 40)])));
    }

    #[test]
    fn containment_implies_overlap() {
        let a1 = area(&[(0, 10), (20, 30)]);
        let a2 = area(&[(3, 5), (22, 24)]);
        assert!(a1.contains(&a2));
        assert!(a1.overlaps(&a2));
    }

    #[test]
    fn contains_is_not_symmetric() {
        let big = area(&[(0, 100)]);
        let small = area(&[(10, 20)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        // overlap is symmetric:
        assert!(big.overlaps(&small) && small.overlaps(&big));
    }

    #[test]
    fn bounding_region() {
        let a = area(&[(5, 10), (20, 30)]);
        assert_eq!(a.bounding(), Region::new(5, 30).unwrap());
    }

    #[test]
    fn display_formats() {
        assert_eq!(area(&[(1, 2), (4, 9)]).to_string(), "[1,2]+[4,9]");
    }
}
