//! Loop-lifted item sequences (`iter|pos|item` tables).
//!
//! An [`LlSeq`] represents the result of an expression for *every*
//! iteration of its scope at once: row `k` belongs to iteration
//! `iters[k]` and carries `items[k]`; the `pos` column of the paper is
//! implicit in row order. Rows are grouped by ascending `iter`.
//!
//! Example from paper §4.1 — in the scope of
//! `for $x in ("twenty","thirty") for $y in ("one","two")`, the variable
//! `$z := ($x,$y)` is the single table
//! `iter|pos|item = 1|1|twenty, 1|2|one, 2|1|twenty, 2|2|two, ...`.

use crate::item::Item;

/// A loop-lifted sequence: for each iteration, an ordered item sequence.
#[derive(Clone, Debug, Default)]
pub struct LlSeq {
    iters: Vec<u32>,
    items: Vec<Item>,
}

impl LlSeq {
    /// The empty table (empty sequence in every iteration).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A sequence holding `items` in the single iteration `iter`.
    pub fn for_iter(iter: u32, items: Vec<Item>) -> Self {
        LlSeq {
            iters: vec![iter; items.len()],
            items,
        }
    }

    /// Loop-lift a constant: one copy of `item` in each of `n_iters`
    /// iterations (Pathfinder's `loop × literal` product).
    pub fn lifted_const(n_iters: u32, item: Item) -> Self {
        LlSeq {
            iters: (0..n_iters).collect(),
            items: vec![item; n_iters as usize],
        }
    }

    /// Build from raw parallel columns. Debug-asserts grouping.
    pub fn from_columns(iters: Vec<u32>, items: Vec<Item>) -> Self {
        assert_eq!(iters.len(), items.len());
        debug_assert!(iters.windows(2).all(|w| w[0] <= w[1]), "iters not grouped");
        LlSeq { iters, items }
    }

    /// Number of rows (sum of sequence lengths over all iterations).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Raw columns.
    #[inline]
    pub fn iters(&self) -> &[u32] {
        &self.iters
    }

    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Push one row. Caller must keep `iter` non-decreasing.
    pub fn push(&mut self, iter: u32, item: Item) {
        debug_assert!(self.iters.last().is_none_or(|&last| last <= iter));
        self.iters.push(iter);
        self.items.push(item);
    }

    /// Iterate `(iter, &[Item])` groups in ascending iteration order.
    /// Iterations with empty sequences do not appear.
    pub fn groups(&self) -> Groups<'_> {
        Groups { seq: self, pos: 0 }
    }

    /// The item slice of one iteration (empty if absent).
    pub fn group(&self, iter: u32) -> &[Item] {
        let start = self.iters.partition_point(|&i| i < iter);
        let end = self.iters.partition_point(|&i| i <= iter);
        &self.items[start..end]
    }

    /// Concatenate two loop-lifted sequences per iteration: the XQuery
    /// comma operator under loop-lifting. Merges group-wise, `self` first.
    pub fn concat(&self, other: &LlSeq) -> LlSeq {
        let mut out = LlSeq::empty();
        out.iters.reserve(self.len() + other.len());
        out.items.reserve(self.len() + other.len());
        let mut a = self.groups().peekable();
        let mut b = other.groups().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(&(ia, _)), Some(&(ib, _))) if ia == ib => {
                    let (_, xs) = a.next().unwrap();
                    let (_, ys) = b.next().unwrap();
                    for x in xs {
                        out.push(ia, x.clone());
                    }
                    for y in ys {
                        out.push(ia, y.clone());
                    }
                }
                (Some(&(ia, _)), Some(&(ib, _))) if ia < ib => {
                    let (_, xs) = a.next().unwrap();
                    for x in xs {
                        out.push(ia, x.clone());
                    }
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    let (ib, ys) = b.next().unwrap();
                    for y in ys {
                        out.push(ib, y.clone());
                    }
                }
                (Some(_), None) => {
                    let (ia, xs) = a.next().unwrap();
                    for x in xs {
                        out.push(ia, x.clone());
                    }
                }
            }
        }
        out
    }

    /// Effective boolean value per iteration, for all `n_iters` iterations
    /// of the scope (absent groups are the empty sequence → `false`).
    ///
    /// Returns a plain vector rather than an `LlSeq` because consumers
    /// (where-clauses, if-conditions) branch on it immediately.
    pub fn effective_boolean(&self, n_iters: u32) -> Vec<bool> {
        let mut out = vec![false; n_iters as usize];
        for (iter, items) in self.groups() {
            // XPath EBV: singleton atomic → its value; first item node →
            // true; longer atomic-only sequences are a type error that we
            // relax to "true" (annotation queries never hit it).
            out[iter as usize] = match items {
                [] => false,
                [single] => single.effective_boolean(),
                // Multi-item: true when it starts with a node; a longer
                // atomic-only sequence is formally a type error, relaxed
                // to true here (annotation queries never hit it).
                [_, ..] => true,
            };
        }
        out
    }

    /// `fn:count` per iteration over the whole scope.
    pub fn count_per_iter(&self, n_iters: u32) -> LlSeq {
        LlSeq {
            iters: (0..n_iters).collect(),
            items: rows_per_iter(&self.iters, n_iters)
                .into_iter()
                .map(Item::Integer)
                .collect(),
        }
    }

    /// Keep only rows of iterations flagged `true`, renumbering iterations
    /// densely (Pathfinder's loop-relation restriction under `where`).
    /// Returns the filtered sequence and the mapping new→old iteration.
    pub fn restrict(&self, keep: &[bool]) -> (LlSeq, Vec<u32>) {
        let mut renumber = vec![u32::MAX; keep.len()];
        let mut mapping = Vec::new();
        for (old, &k) in keep.iter().enumerate() {
            if k {
                renumber[old] = mapping.len() as u32;
                mapping.push(old as u32);
            }
        }
        let mut out = LlSeq::empty();
        for (&iter, item) in self.iters.iter().zip(&self.items) {
            let new = renumber[iter as usize];
            if new != u32::MAX {
                out.push(new, item.clone());
            }
        }
        (out, mapping)
    }

    /// Re-label iterations through `mapping[new] = old` (monotone),
    /// producing a table back in the outer numbering (inverse of
    /// [`LlSeq::restrict`]). The items stay where they are.
    pub fn unrestrict(mut self, mapping: &[u32]) -> LlSeq {
        for iter in &mut self.iters {
            *iter = mapping[*iter as usize];
        }
        debug_assert!(self.iters.is_sorted(), "mapping not monotone");
        self
    }

    /// Expand into a new scope: `map[new_iter] = old_iter` (monotone).
    /// Each new iteration receives a copy of its mapped old iteration's
    /// group — Pathfinder's variable lifting when entering a for-loop.
    pub fn expand(&self, map: &[u32]) -> LlSeq {
        debug_assert!(map.windows(2).all(|w| w[0] <= w[1]), "map not monotone");
        let mut out = LlSeq::empty();
        for (new_iter, &old_iter) in map.iter().enumerate() {
            for item in self.group(old_iter) {
                out.push(new_iter as u32, item.clone());
            }
        }
        out
    }

    /// Flatten to a plain item vector (callers that need the sequence of a
    /// single-iteration scope).
    pub fn into_items(self) -> Vec<Item> {
        self.items
    }
}

/// Rows per iteration of an `iter` column, for all `n_iters` iterations
/// of the scope (absent iterations count zero).
pub fn rows_per_iter(iters: &[u32], n_iters: u32) -> Vec<i64> {
    let mut counts = vec![0i64; n_iters as usize];
    for &iter in iters {
        counts[iter as usize] += 1;
    }
    counts
}

/// Iterator over `(iter, items)` groups.
pub struct Groups<'a> {
    seq: &'a LlSeq,
    pos: usize,
}

impl<'a> Iterator for Groups<'a> {
    type Item = (u32, &'a [Item]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.seq.iters.len() {
            return None;
        }
        let iter = self.seq.iters[self.pos];
        let start = self.pos;
        while self.pos < self.seq.iters.len() && self.seq.iters[self.pos] == iter {
            self.pos += 1;
        }
        Some((iter, &self.seq.items[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: &[(u32, i64)]) -> LlSeq {
        LlSeq::from_columns(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| Item::Integer(r.1)).collect(),
        )
    }

    #[test]
    fn groups_iterate_in_order() {
        let s = seq(&[(0, 1), (0, 2), (2, 3)]);
        let gs: Vec<(u32, usize)> = s.groups().map(|(i, xs)| (i, xs.len())).collect();
        assert_eq!(gs, vec![(0, 2), (2, 1)]);
        assert_eq!(s.group(0).len(), 2);
        assert_eq!(s.group(1).len(), 0);
        assert_eq!(s.group(2).len(), 1);
    }

    #[test]
    fn lifted_const_repeats_per_iteration() {
        let s = LlSeq::lifted_const(3, Item::Integer(7));
        assert_eq!(s.len(), 3);
        assert_eq!(s.group(2), &[Item::Integer(7)]);
    }

    #[test]
    fn concat_is_per_iteration() {
        // Paper §4.1: $z := ($x, $y) interleaves per iteration.
        let x = seq(&[(0, 20), (1, 30)]);
        let y = seq(&[(0, 1), (1, 2)]);
        let z = x.concat(&y);
        assert_eq!(z.group(0), &[Item::Integer(20), Item::Integer(1)]);
        assert_eq!(z.group(1), &[Item::Integer(30), Item::Integer(2)]);
    }

    #[test]
    fn concat_with_missing_groups() {
        let x = seq(&[(1, 10)]);
        let y = seq(&[(0, 5), (2, 6)]);
        let z = x.concat(&y);
        assert_eq!(z.group(0), &[Item::Integer(5)]);
        assert_eq!(z.group(1), &[Item::Integer(10)]);
        assert_eq!(z.group(2), &[Item::Integer(6)]);
    }

    #[test]
    fn effective_boolean_handles_absent_iterations() {
        let s = seq(&[(1, 1)]);
        assert_eq!(s.effective_boolean(3), vec![false, true, false]);
    }

    #[test]
    fn count_per_iter_includes_zero_groups() {
        let s = seq(&[(0, 1), (0, 2), (2, 3)]);
        let c = s.count_per_iter(3);
        assert_eq!(
            c.items(),
            &[Item::Integer(2), Item::Integer(0), Item::Integer(1)]
        );
    }

    #[test]
    fn restrict_renumbers_densely() {
        let s = seq(&[(0, 1), (1, 2), (2, 3)]);
        let (r, mapping) = s.restrict(&[true, false, true]);
        assert_eq!(mapping, vec![0, 2]);
        assert_eq!(r.group(0), &[Item::Integer(1)]);
        assert_eq!(r.group(1), &[Item::Integer(3)]);
        // And back:
        let u = r.unrestrict(&mapping);
        assert_eq!(u.group(0), &[Item::Integer(1)]);
        assert_eq!(u.group(2), &[Item::Integer(3)]);
    }
}
