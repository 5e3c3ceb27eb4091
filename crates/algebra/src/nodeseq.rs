//! Loop-lifted node sequences.
//!
//! Path steps consume and produce *node* sequences that are duplicate-free
//! and in document order per iteration (XPath step semantics, which the
//! paper requires the StandOff steps to share — §3.2 Alternative 4). The
//! [`NodeTable`] specializes [`crate::LlSeq`] for that case: two parallel
//! columns `iter|node`, grouped by `iter`, with a normalization pass that
//! sorts by document order and deduplicates within each group.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use standoff_xml::{Corrupt, DocId, NodeRef, Store};

use crate::item::Item;
use crate::sequence::LlSeq;

/// A loop-lifted node sequence (`iter|node` columns, `pos` implicit).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeTable {
    iters: Vec<u32>,
    nodes: Vec<NodeRef>,
}

impl NodeTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        NodeTable {
            iters: Vec::with_capacity(n),
            nodes: Vec::with_capacity(n),
        }
    }

    /// Single iteration 0 holding `nodes` (entry point of a query).
    pub fn for_single_iter(nodes: Vec<NodeRef>) -> Self {
        NodeTable {
            iters: vec![0; nodes.len()],
            nodes,
        }
    }

    pub fn from_columns(iters: Vec<u32>, nodes: Vec<NodeRef>) -> Self {
        assert_eq!(iters.len(), nodes.len());
        debug_assert!(iters.windows(2).all(|w| w[0] <= w[1]), "iters not grouped");
        NodeTable { iters, nodes }
    }

    /// Build the table from per-document *runs* of tree nodes: `runs`
    /// ascends by document — a container document's fragments give one
    /// run each, in pre order — and `row` reads a run element's
    /// `(iter, pre)`, by which every run is sorted and duplicate-free.
    /// The runs are k-way merged on `(iter, document)` — the whole
    /// `(iter, document-order)` key, because an iteration's rows of one
    /// document precede its rows of the next — a group of rows at a
    /// time, so a single run is copied through as it is and nothing is
    /// ever sorted.
    pub fn from_runs<T>(runs: &[(DocId, Vec<T>)], row: impl Fn(&T) -> (u32, u32)) -> Self {
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 <= w[1].0),
            "runs not ordered"
        );
        let mut out = NodeTable::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
        // The heap holds every unfinished run's next `(iter, run)`; the
        // least one contributes its whole group for that iteration.
        let mut cursors = vec![0usize; runs.len()];
        let mut heads: BinaryHeap<Reverse<(u32, usize)>> = runs
            .iter()
            .enumerate()
            .filter_map(|(r, (_, run))| run.first().map(|t| Reverse((row(t).0, r))))
            .collect();
        while let Some(Reverse((iter, r))) = heads.pop() {
            let (doc, run) = &runs[r];
            let from = cursors[r];
            let group = run[from..].iter().map(&row).take_while(|&(i, _)| i == iter);
            for (_, pre) in group {
                out.push(iter, NodeRef::tree(*doc, pre));
                cursors[r] += 1;
            }
            if let Some(next) = run.get(cursors[r]) {
                heads.push(Reverse((row(next).0, r)));
            }
        }
        out
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    pub fn iters(&self) -> &[u32] {
        &self.iters
    }

    #[inline]
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// The `iter` column alone — all an aggregate like `count` reads.
    pub fn into_iters(self) -> Vec<u32> {
        self.iters
    }

    /// Push one row; `iter` must be non-decreasing.
    #[inline]
    pub fn push(&mut self, iter: u32, node: NodeRef) {
        debug_assert!(self.iters.last().is_none_or(|&last| last <= iter));
        self.iters.push(iter);
        self.nodes.push(node);
    }

    /// Iterate `(iter, nodes)` groups.
    pub fn groups(&self) -> NodeGroups<'_> {
        NodeGroups { t: self, pos: 0 }
    }

    /// Node slice of one iteration.
    pub fn group(&self, iter: u32) -> &[NodeRef] {
        let start = self.iters.partition_point(|&i| i < iter);
        let end = self.iters.partition_point(|&i| i <= iter);
        &self.nodes[start..end]
    }

    /// Sort each iteration group into document order and remove duplicate
    /// nodes within the group. This is the `/.`-style normalization the
    /// paper's Figure 2 applies ("a final self-axis step `/.` ensures
    /// unique results in document order"). An attribute's order key is
    /// read from its document's attribute table, which can fail its
    /// verification.
    pub fn normalize(&mut self, store: &Store) -> Result<(), Corrupt> {
        if self.is_normalized(store)? {
            return Ok(());
        }
        let n = self.len();
        // Sort an index permutation per (iter, order-key), then rebuild.
        let mut keys = Vec::with_capacity(n);
        for k in 0..n {
            keys.push((self.iters[k], store.order_key(self.nodes[k])?));
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by_key(|&k| keys[k as usize]);
        let mut iters = Vec::with_capacity(n);
        let mut nodes = Vec::with_capacity(n);
        for &k in &idx {
            let ku = k as usize;
            let (it, nd) = (self.iters[ku], self.nodes[ku]);
            if iters.last() == Some(&it) && nodes.last() == Some(&nd) {
                continue; // duplicate within iteration
            }
            iters.push(it);
            nodes.push(nd);
        }
        self.iters = iters;
        self.nodes = nodes;
        Ok(())
    }

    /// Is every iteration group already in document order and
    /// duplicate-free? One ordered scan.
    pub fn is_normalized(&self, store: &Store) -> Result<bool, Corrupt> {
        for k in 1..self.len() {
            if self.iters[k] == self.iters[k - 1]
                && store.order_key(self.nodes[k - 1])? >= store.order_key(self.nodes[k])?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Convert into the generic item table.
    pub fn into_llseq(self) -> LlSeq {
        LlSeq::from_columns(self.iters, self.nodes.into_iter().map(Item::Node).collect())
    }

    /// Extract a node table from a generic table; returns `Err` with the
    /// offending item description if a non-node item is present.
    pub fn from_llseq(seq: &LlSeq) -> Result<NodeTable, String> {
        let mut out = NodeTable::with_capacity(seq.len());
        for (&iter, item) in seq.iters().iter().zip(seq.items()) {
            match item {
                Item::Node(n) => out.push(iter, *n),
                other => return Err(format!("expected node sequence, found {other}")),
            }
        }
        Ok(out)
    }

    /// Keep rows whose predicate holds.
    pub fn filter(&self, mut pred: impl FnMut(u32, NodeRef) -> bool) -> NodeTable {
        let mut out = NodeTable::with_capacity(self.len());
        for (&iter, &node) in self.iters.iter().zip(&self.nodes) {
            if pred(iter, node) {
                out.push(iter, node);
            }
        }
        out
    }
}

/// Iterator over `(iter, node-slice)` groups of a [`NodeTable`].
pub struct NodeGroups<'a> {
    t: &'a NodeTable,
    pos: usize,
}

impl<'a> Iterator for NodeGroups<'a> {
    type Item = (u32, &'a [NodeRef]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.t.iters.len() {
            return None;
        }
        let iter = self.t.iters[self.pos];
        let start = self.pos;
        while self.pos < self.t.iters.len() && self.t.iters[self.pos] == iter {
            self.pos += 1;
        }
        Some((iter, &self.t.nodes[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::Store;

    fn store() -> (Store, standoff_xml::DocId) {
        let mut s = Store::new();
        let d = s.load("d", "<a><b/><c/><d/></a>").unwrap();
        (s, d)
    }

    #[test]
    fn normalize_sorts_and_dedups_within_iterations() {
        let (s, d) = store();
        let n = |pre| NodeRef::tree(d, pre);
        let mut t =
            NodeTable::from_columns(vec![0, 0, 0, 1, 1], vec![n(3), n(2), n(3), n(4), n(4)]);
        t.normalize(&s).unwrap();
        assert_eq!(t.group(0), &[n(2), n(3)]);
        assert_eq!(t.group(1), &[n(4)]);
    }

    #[test]
    fn normalize_keeps_duplicates_across_iterations() {
        let (s, d) = store();
        let n = |pre| NodeRef::tree(d, pre);
        let mut t = NodeTable::from_columns(vec![0, 1], vec![n(2), n(2)]);
        t.normalize(&s).unwrap();
        assert_eq!(t.len(), 2, "same node may appear in different iterations");
    }

    #[test]
    fn normalize_fast_path_for_sorted_input() {
        let (s, d) = store();
        let n = |pre| NodeRef::tree(d, pre);
        let mut t = NodeTable::from_columns(vec![0, 0], vec![n(2), n(3)]);
        let before = t.clone();
        t.normalize(&s).unwrap();
        assert_eq!(t, before);
    }

    #[test]
    fn runs_merge_into_iter_then_document_order() {
        let mut s = Store::new();
        let a = s.load("a", "<a><b/><c/><d/></a>").unwrap();
        let b = s.load("b", "<a><b/><c/></a>").unwrap();
        let c = s.load("c", "<a/>").unwrap();
        let runs = vec![
            (a, vec![(0u32, 2u32), (2, 1), (2, 3)]),
            (b, vec![(0, 1), (1, 2), (2, 2)]),
            (c, vec![]),
        ];
        let merged = NodeTable::from_runs(&runs, |&t| t);
        // What sorting the concatenation would have produced.
        let mut sorted = NodeTable::new();
        let mut rows: Vec<(u32, NodeRef)> = runs
            .iter()
            .flat_map(|(doc, run)| run.iter().map(|&(i, pre)| (i, NodeRef::tree(*doc, pre))))
            .collect();
        rows.sort_by_key(|&(i, n)| (i, s.order_key(n).unwrap()));
        for (i, n) in rows {
            sorted.push(i, n);
        }
        assert_eq!(merged, sorted);
        assert_eq!(merged.iters(), &[0, 0, 1, 2, 2, 2]);
        // One run is the table as-is; none is the empty table.
        let single = NodeTable::from_runs(&runs[..1], |&t| t);
        assert_eq!(single.iters(), &[0, 2, 2]);
        assert_eq!(single.nodes()[1], NodeRef::tree(a, 1));
        assert!(NodeTable::from_runs(&runs[2..], |&t| t).is_empty());
    }

    #[test]
    fn llseq_round_trip() {
        let (_, d) = store();
        let n = |pre| NodeRef::tree(d, pre);
        let t = NodeTable::from_columns(vec![0, 2], vec![n(1), n(2)]);
        let seq = t.clone().into_llseq();
        let back = NodeTable::from_llseq(&seq).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_llseq_rejects_atoms() {
        let seq = LlSeq::for_iter(0, vec![Item::Integer(1)]);
        assert!(NodeTable::from_llseq(&seq).is_err());
    }
}
