//! Containers: the fragments of one constructor evaluation as rows of
//! one document.
//!
//! An element constructor evaluated over `n` iterations makes `n` new
//! fragments (paper §4.1). Pathfinder keeps them the way it keeps any
//! document: one transient container per constructor, with a fragment
//! column. A container is one [`Document`] whose level-0 rows are the
//! fragments' document nodes — each its own parent, its `size` covering
//! exactly its fragment — laid out back to back in pre order, over one
//! set of owned columns, one [`crate::NameTable`] and one element-name
//! index built once. Its *fragment-start column* lists those rows, so
//! the fragment a row belongs to is one binary search away
//! ([`Document::fragment_root`]); a parsed or mounted document is the
//! one-fragment case and keeps the column empty.
//!
//! Pre ranks are container-wide, so document order inside one
//! evaluation is pre order. Every axis a fragment answers stops at its
//! bounds `[f, f + size(f)]`: the sibling and ancestor axes do so on
//! their own (a document node has neither parent nor siblings), and the
//! whole-range ones — `following`, `preceding`, `root()` — clip to the
//! range [`Document::fragment_root`] names.

use super::{Columns, Document};

impl Document {
    /// The pre ranks of the level-0 document-node rows, ascending: the
    /// fragment starts of a container, `[0]` for a one-tree document.
    pub fn fragment_starts(&self) -> &[u32] {
        if self.fragment_starts.is_empty() {
            &[0]
        } else {
            &self.fragment_starts
        }
    }

    /// Is this the container of several fragments?
    #[inline]
    pub fn is_container(&self) -> bool {
        !self.fragment_starts.is_empty()
    }

    /// The document node of the fragment row `pre` belongs to — its
    /// level-0 ancestor-or-self.
    #[inline]
    pub fn fragment_root(&self, pre: u32) -> u32 {
        if self.fragment_starts.is_empty() {
            return 0;
        }
        let k = self.fragment_starts.partition_point(|&f| f <= pre);
        self.fragment_starts[k - 1]
    }

    /// The last row of the fragment whose document node is `root`: the
    /// row before the next fragment's start, or the document's last. A
    /// fragment's document node spans exactly its fragment — the rule
    /// the tree check enforces — so this is `root + size(root)`, read
    /// without the tree columns.
    #[inline]
    pub fn fragment_end(&self, root: u32) -> u32 {
        let k = self.fragment_starts.partition_point(|&f| f <= root);
        match self.fragment_starts.get(k) {
            Some(&next) => next - 1,
            None => self.node_count() as u32 - 1,
        }
    }
}

impl Columns {
    /// Drop the last row, an empty document node that opened a fragment
    /// no content followed.
    pub(crate) fn pop_document_node(&mut self) {
        debug_assert_eq!(
            self.kind.last(),
            Some(&0),
            "the last row is a document node"
        );
        self.kind.pop();
        self.size.pop();
        self.level.pop();
        self.parent.pop();
        self.name.pop();
        self.values.pop_empty();
        self.attr_first.pop();
    }

    /// Approximate bytes of the columns, for the scratch accounting of
    /// the documents they become.
    pub(crate) fn bytes(&self) -> usize {
        let rows = self.kind.len();
        let attrs = self.attr_owner.len();
        // kind 1 + size 4 + level 2 + parent 4 + name 4 + value offset 4
        // + attr_first 4 + element-index pre 4, per row; owner, name and
        // value offset, per attribute.
        27 * rows + 12 * attrs + self.values.heap.len() + self.attr_values.heap.len()
    }
}
