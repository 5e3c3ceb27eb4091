//! Column-wise editing of a [`Document`]: drop whole subtrees, append
//! empty elements to the root element. The copy is made run by run —
//! each stretch of kept nodes is copied whole and shifted by a constant
//! — so it costs what moving the columns costs, with no per-node
//! re-interning or builder bookkeeping. The one exception is the
//! attribute table of a mounted layer, which presents region attributes
//! it does not store ([`super::RegionAttrs`]): its runs are copied
//! element by element, the presented attributes written as rows, so
//! the copy — an owned document — holds every attribute.

use std::ops::Range;
use std::sync::Arc;

use super::{AttrTable, Columns, Document, Tree};
use crate::column::StrArenaBuilder;
use crate::node::NodeKind;

/// An empty element [`Document::splice`] appends to the root element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NewElement {
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
}

/// Where [`Document::splice`] moved the nodes it kept.
#[derive(Clone, Debug)]
pub struct Renumbering {
    /// Runs of kept old pre ranks, ascending: `(first, end, new rank of
    /// first)`, `end` exclusive.
    runs: Vec<(u32, u32, u32)>,
    /// New pre ranks of the appended elements.
    added: Range<u32>,
}

impl Renumbering {
    /// The new pre rank of old node `pre`; `None` if it was dropped.
    #[inline]
    pub fn get(&self, pre: u32) -> Option<u32> {
        let k = self.runs.partition_point(|&(_, end, _)| end <= pre);
        let &(first, _, to) = self.runs.get(k)?;
        (first <= pre).then(|| to + (pre - first))
    }

    /// The kept runs, ascending: `(old ranks, new rank of the first)`.
    pub fn runs(&self) -> impl Iterator<Item = (Range<u32>, u32)> + '_ {
        self.runs.iter().map(|&(first, end, to)| (first..end, to))
    }

    /// New pre ranks of the appended elements, in append order.
    pub fn added(&self) -> Range<u32> {
        self.added.clone()
    }
}

impl Document {
    /// A copy of this document without the subtrees rooted at `dropped`
    /// (ascending element pre ranks inside the root element; one nested
    /// in another dropped subtree goes with it), and with `appended` as
    /// new last children of the root element. Returns the copy and where
    /// each kept node went.
    pub fn splice(
        &self,
        dropped: &[u32],
        appended: &[NewElement],
    ) -> Result<(Document, Renumbering), String> {
        let n = self.node_count() as u32;
        let tree = self.tree().map_err(|e| e.to_string())?;
        let attrs = self.attrs().map_err(|e| e.to_string())?;
        let root = (tree.children(0))
            .find(|&c| self.kind(c) == NodeKind::Element)
            .ok_or("document has no root element")?;
        // The appended elements go in just before the root closes, after
        // every element of the document.
        let at = root + tree.size(root) + 1;
        if (at..n).any(|pre| self.kind(pre) == NodeKind::Element) {
            return Err("document has more than one root element".into());
        }
        let mut cuts: Vec<Range<u32>> = Vec::new();
        for &d in dropped {
            if cuts.last().is_some_and(|cut| d < cut.end) {
                continue;
            }
            if d <= root || d >= at || self.kind(d) != NodeKind::Element {
                return Err(format!("node {d} is not an element inside the root"));
            }
            cuts.push(d..d + tree.size(d) + 1);
        }
        let k = u32::try_from(appended.len()).map_err(|_| "too many appended elements")?;
        let mut runs = Vec::with_capacity(cuts.len() + 2);
        let mut to = 0u32;
        let mut run = |first: u32, end: u32, to: &mut u32| {
            if first < end {
                runs.push((first, end, *to));
                *to += end - first;
            }
        };
        let mut pos = 0;
        for cut in &cuts {
            run(pos, cut.start, &mut to);
            pos = cut.end;
        }
        run(pos, at, &mut to);
        let added = to..to + k;
        to += k;
        run(at, n, &mut to);
        let moved = Renumbering { runs, added };

        let mut out = Columns::with_capacity(tree, attrs, to as usize);
        let mut names = (*self.names).clone();
        let mut runs = moved.runs.iter().peekable();
        while let Some(&(first, end, to)) = runs.next_if(|r| r.0 < at) {
            out.copy((self, tree, attrs), &moved, first..end, to);
        }
        let owner = moved.get(root).expect("the root is kept");
        for el in appended {
            let pre = out.kind.len() as u32;
            out.kind.push(NodeKind::Element as u8);
            out.size.push(0);
            out.level.push(tree.level(root) + 1);
            out.parent.push(owner);
            out.name.push(names.intern(&el.name).0);
            out.values.push("");
            out.attr_first.push(out.attr_owner.len() as u32);
            for (key, value) in &el.attrs {
                out.attr_owner.push(pre);
                out.attr_name.push(names.intern(key).0);
                out.attr_values.push(value);
            }
        }
        for &(first, end, to) in runs {
            out.copy((self, tree, attrs), &moved, first..end, to);
        }
        out.attr_first.push(out.attr_owner.len() as u32);
        // Every ancestor of a cut loses it; the root and its ancestors
        // gain the appended elements.
        let mut resize = |from: u32, by: i64| {
            let mut a = from;
            loop {
                let slot = &mut out.size[moved.get(a).expect("ancestors are kept") as usize];
                *slot = (*slot as i64 + by) as u32;
                if a == 0 {
                    break;
                }
                a = tree.parent(a);
            }
        };
        for cut in &cuts {
            resize(tree.parent(cut.start), -((cut.end - cut.start) as i64));
        }
        resize(root, k as i64);

        let doc = out.into_document(self.uri.clone(), Arc::new(names), Vec::new());
        Ok((doc, moved))
    }
}

impl Columns {
    /// Columns for a copy of `doc` with about `nodes` nodes.
    fn with_capacity(tree: Tree, table: &AttrTable, nodes: usize) -> Columns {
        let attrs = table.len();
        let mut values = StrArenaBuilder::new();
        values.reserve(nodes);
        values.reserve_bytes(tree.cols.values.heap_bytes().len());
        let mut attr_values = StrArenaBuilder::new();
        attr_values.reserve(attrs);
        attr_values.reserve_bytes(table.values.heap_bytes().len());
        Columns {
            kind: Vec::with_capacity(nodes),
            size: Vec::with_capacity(nodes),
            level: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            name: Vec::with_capacity(nodes),
            values,
            attr_first: Vec::with_capacity(nodes + 1),
            attr_owner: Vec::with_capacity(attrs),
            attr_name: Vec::with_capacity(attrs),
            attr_values,
        }
    }

    /// Copy the run `old` of `doc`, its first node landing at `to`.
    fn copy(
        &mut self,
        (doc, tree, table): (&Document, Tree, &AttrTable),
        moved: &Renumbering,
        old: Range<u32>,
        to: u32,
    ) {
        let cols = tree.cols;
        let first = old.start;
        let (f, e) = (old.start as usize, old.end as usize);
        self.kind.extend_from_slice(&doc.kind.raw_bytes()[f..e]);
        self.size.extend_from_slice(&cols.size[f..e]);
        self.level.extend_from_slice(&cols.level[f..e]);
        self.name.extend_from_slice(&doc.name[f..e]);
        // A parent inside the run moves with it; one before it is a kept
        // ancestor of the run, looked up.
        self.parent
            .extend(cols.parent[f..e].iter().map(|&p| match p >= first {
                true => p - first + to,
                false => moved.get(p).expect("a kept node's parent is kept"),
            }));
        self.values.extend_from(&cols.values, f..e);
        if table.presents_regions() {
            // Every row is written, the presented ones too: an owned
            // document holds all of its attributes.
            for pre in old {
                self.attr_first.push(self.attr_owner.len() as u32);
                let ids = match doc.kind(pre) {
                    NodeKind::Element => table.ids(pre),
                    _ => table.range(pre).chain(0..0),
                };
                for a in ids {
                    self.attr_owner.push(pre - first + to);
                    self.attr_name.push(table.name_id(a).0);
                    self.attr_values.push(&table.value(a));
                }
            }
            return;
        }
        let (af, ae) = (table.first[f], table.first[e]);
        let base = self.attr_owner.len() as u32;
        (self.attr_first).extend(table.first[f..e].iter().map(|&a| a - af + base));
        let attrs = af as usize..ae as usize;
        (self.attr_owner).extend(table.owner[attrs.clone()].iter().map(|&o| o - first + to));
        self.attr_name.extend_from_slice(&table.name[attrs.clone()]);
        self.attr_values.extend_from(&table.values, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, serialize_document, SerializeOptions};

    fn element(name: &str, attrs: &[(&str, &str)]) -> NewElement {
        NewElement {
            name: name.into(),
            attrs: (attrs.iter()).map(|&(k, v)| (k.into(), v.into())).collect(),
        }
    }

    fn xml(doc: &Document) -> String {
        serialize_document(doc, SerializeOptions::default())
    }

    #[test]
    fn splice_drops_subtrees_and_appends_to_the_root() {
        let doc =
            parse_document("<!--c--><r><a x=\"1\"><b>t</b></a><c y=\"2\"/><d><e/></d></r><?pi v?>")
                .unwrap();
        let a = doc.elements_named("a")[0];
        let b = doc.elements_named("b")[0];
        let d = doc.elements_named("d")[0];
        let added = [element("n", &[("k", "v"), ("y", "3")]), element("c", &[])];
        let (out, moved) = doc.splice(&[a, b, d], &added).unwrap();
        assert_eq!(
            xml(&out),
            xml(
                &parse_document("<!--c--><r><c y=\"2\"/><n k=\"v\" y=\"3\"/><c/></r><?pi v?>")
                    .unwrap()
            )
        );
        assert_eq!(out.check_invariants(), Ok(()));
        let c = doc.elements_named("c")[0];
        assert_eq!(moved.get(c), Some(out.elements_named("c")[0]));
        assert_eq!(moved.get(a), None);
        assert_eq!(moved.get(b), None);
        assert_eq!(
            moved.added(),
            out.elements_named("n")[0]..out.elements_named("n")[0] + 2
        );
        assert_eq!(
            out.elements_named("c"),
            &[moved.get(c).unwrap(), moved.added().end - 1]
        );
        assert_eq!(
            out.attribute(moved.added().start, "y").unwrap().as_deref(),
            Some("3")
        );
    }

    #[test]
    fn splice_refuses_the_root_and_non_elements() {
        let doc = parse_document("<r>text<a/></r>").unwrap();
        assert!(doc.splice(&[1], &[]).is_err());
        assert!(doc.splice(&[2], &[]).is_err());
        let (same, _) = doc.splice(&[], &[]).unwrap();
        assert_eq!(xml(&same), xml(&doc));
    }
}
