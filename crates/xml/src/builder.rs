//! Programmatic document construction.
//!
//! The builder appends nodes in document order and computes the pre/size/
//! level encoding incrementally: `size` is back-patched when an element is
//! closed. Attribute insertion is only legal directly after
//! `start_element`, mirroring the shredding order of a streaming parser.
//!
//! One builder makes one document ([`DocumentBuilder::finish`]) or, for
//! an element constructor's iterations, the container of many fragments
//! ([`DocumentBuilder::end_fragment`],
//! [`DocumentBuilder::finish_container`]).

use std::sync::Arc;

use crate::doc::{Columns, Document};
use crate::error::XmlError;
use crate::name::{NameId, NameTable};
use crate::node::NodeKind;

/// Incremental builder producing a shredded [`Document`].
///
/// ```
/// use standoff_xml::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.start_element("shot");
/// b.attribute("id", "Intro");
/// b.text("opening scene");
/// b.end_element();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.elements_named("shot").len(), 1);
/// ```
pub struct DocumentBuilder {
    names: NameTable,
    cols: Columns,
    /// Stack of open element rows (the fragment's document node at
    /// bottom).
    open: Vec<u32>,
    /// True while attributes may still be appended to the last element.
    attrs_open: bool,
    /// The last element's first attribute.
    attrs_start: usize,
    uri: Option<String>,
    /// The document-node row of the fragment under construction.
    first_node: u32,
    /// The document-node rows of the fragments closed by
    /// [`DocumentBuilder::end_fragment`].
    fragment_starts: Vec<u32>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    pub fn new() -> Self {
        let mut b = DocumentBuilder {
            names: NameTable::new(),
            cols: Columns::default(),
            open: Vec::new(),
            attrs_open: false,
            attrs_start: 0,
            uri: None,
            first_node: 0,
            fragment_starts: Vec::new(),
        };
        b.open_document_node();
        b
    }

    /// Pre-size the columns for an expected node count (bulk loads).
    pub fn with_capacity(nodes: usize) -> Self {
        let mut b = Self::new();
        let cols = &mut b.cols;
        cols.kind.reserve(nodes);
        cols.size.reserve(nodes);
        cols.level.reserve(nodes);
        cols.parent.reserve(nodes);
        cols.name.reserve(nodes);
        cols.values.reserve(nodes);
        cols.attr_first.reserve(nodes + 1);
        b
    }

    /// Set the URI the finished document will report.
    pub fn uri(&mut self, uri: impl Into<String>) -> &mut Self {
        self.uri = Some(uri.into());
        self
    }

    /// The document node of a new fragment, at the current row.
    fn open_document_node(&mut self) {
        self.first_node = self.cols.kind.len() as u32;
        let pre = self.push_node(NodeKind::Document, NameId::NONE, "");
        self.open.push(pre);
    }

    fn push_node(&mut self, kind: NodeKind, name: NameId, value: &str) -> u32 {
        let cols = &mut self.cols;
        let row = cols.kind.len() as u32;
        // A document node is its own parent.
        let (parent, level) = match self.open.last() {
            Some(&p) => (p, cols.level[p as usize] + 1),
            None => (row, 0),
        };
        cols.kind.push(kind as u8);
        cols.size.push(0);
        cols.level.push(level);
        cols.parent.push(parent);
        cols.name.push(name.0);
        cols.values.push(value);
        (cols.attr_first).push(cols.attr_owner.len() as u32);
        row
    }

    /// Intern a lexical QName in the builder's name table, for the
    /// `*_named` methods.
    pub fn intern(&mut self, lexical: &str) -> NameId {
        self.names.intern(lexical)
    }

    /// Open a new element. Returns its pre rank (container-wide once
    /// fragments were ended).
    pub fn start_element(&mut self, name: &str) -> u32 {
        let name = self.names.intern(name);
        self.start_element_named(name)
    }

    /// [`DocumentBuilder::start_element`] with an interned name.
    pub fn start_element_named(&mut self, name: NameId) -> u32 {
        let row = self.push_node(NodeKind::Element, name, "");
        self.open.push(row);
        self.attrs_open = true;
        self.attrs_start = self.cols.attr_owner.len();
        row
    }

    /// Add an attribute to the most recently opened element. Must be called
    /// before any child content is appended.
    pub fn attribute(&mut self, name: &str, value: &str) -> &mut Self {
        let name = self.names.intern(name);
        self.attribute_named(name, value)
    }

    /// [`DocumentBuilder::attribute`] with an interned name.
    pub fn attribute_named(&mut self, name: NameId, value: &str) -> &mut Self {
        assert!(
            self.attrs_open,
            "attribute() must directly follow start_element()"
        );
        let owner = *self.open.last().expect("an element is open");
        self.cols.attr_owner.push(owner);
        self.cols.attr_name.push(name.0);
        self.cols.attr_values.push(value);
        self
    }

    /// May an attribute still be added — is the most recently opened
    /// element still without content?
    pub fn accepts_attributes(&self) -> bool {
        self.attrs_open
    }

    /// Does the most recently opened element, while it still accepts
    /// attributes, already carry one named `name`?
    pub fn has_attribute(&self, name: NameId) -> bool {
        self.attrs_open && self.cols.attr_name[self.attrs_start..].contains(&name.0)
    }

    /// Append a text node (empty strings are skipped; adjacent text nodes
    /// are merged, as the XPath data model requires).
    pub fn text(&mut self, content: &str) -> &mut Self {
        if content.is_empty() {
            return self;
        }
        self.attrs_open = false;
        // Merge with a directly preceding text sibling.
        let open = *self.open.last().unwrap();
        let cols = &mut self.cols;
        if cols.kind.last() == Some(&(NodeKind::Text as u8)) && *cols.parent.last().unwrap() == open
        {
            // The text node being merged into is the last slot of the
            // value arena: append in place.
            cols.values.append_to_last(content);
            return self;
        }
        self.push_node(NodeKind::Text, NameId::NONE, content);
        self
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: &str) -> &mut Self {
        self.attrs_open = false;
        self.push_node(NodeKind::Comment, NameId::NONE, content);
        self
    }

    /// Append a processing-instruction node.
    pub fn pi(&mut self, target: &str, content: &str) -> &mut Self {
        let target = self.names.intern(target);
        self.pi_named(target, content)
    }

    /// [`DocumentBuilder::pi`] with an interned target.
    pub fn pi_named(&mut self, target: NameId, content: &str) -> &mut Self {
        self.attrs_open = false;
        self.push_node(NodeKind::Pi, target, content);
        self
    }

    /// Close the most recently opened element, back-patching its size.
    pub fn end_element(&mut self) -> &mut Self {
        assert!(self.open.len() > 1, "no element is open");
        let row = self.open.pop().unwrap();
        self.cols.size[row as usize] = self.cols.kind.len() as u32 - 1 - row;
        self.attrs_open = false;
        self
    }

    /// Convenience: empty element with attributes.
    pub fn empty_element(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.start_element(name);
        for (k, v) in attrs {
            self.attribute(k, v);
        }
        self.end_element()
    }

    /// Number of tree nodes of the document (or fragment) under
    /// construction so far, its document node included.
    pub fn node_count(&self) -> usize {
        self.cols.kind.len() - self.first_node as usize
    }

    /// Close the document node of the fragment under construction. Fails
    /// if elements are still open or the fragment is empty.
    fn close_document_node(&mut self) -> Result<(), XmlError> {
        if self.open.len() != 1 {
            return Err(XmlError::Builder(format!(
                "{} element(s) still open",
                self.open.len() - 1
            )));
        }
        if self.node_count() == 1 {
            return Err(XmlError::Builder("document has no content".into()));
        }
        let cols = &mut self.cols;
        cols.size[self.first_node as usize] = cols.kind.len() as u32 - 1 - self.first_node;
        self.open.clear();
        Ok(())
    }

    /// Close the fragment under construction — it becomes one fragment
    /// of [`DocumentBuilder::finish_container`] — and start the next,
    /// whose document node is the next row of the same columns. Fails
    /// like [`DocumentBuilder::finish`] on an unfinished or empty
    /// fragment.
    pub fn end_fragment(&mut self) -> Result<(), XmlError> {
        self.close_document_node()?;
        self.fragment_starts.push(self.first_node);
        self.open_document_node();
        Ok(())
    }

    /// Finish the fragments closed by [`DocumentBuilder::end_fragment`]
    /// as one container document (`doc/arena.rs`), their document nodes
    /// its level-0 rows, in order. Returns it with the approximate bytes
    /// of its columns. Fails if the fragment opened after the last
    /// `end_fragment` has content, or if no fragment was ended.
    pub fn finish_container(mut self) -> Result<(Document, usize), XmlError> {
        if self.node_count() != 1 || self.open.len() != 1 {
            return Err(XmlError::Builder("last fragment not ended".into()));
        }
        if self.fragment_starts.is_empty() {
            return Err(XmlError::Builder("no fragment was ended".into()));
        }
        self.cols.pop_document_node();
        // CSR terminator.
        (self.cols.attr_first).push(self.cols.attr_owner.len() as u32);
        let bytes = self.cols.bytes();
        let mut starts = self.fragment_starts;
        if starts.len() == 1 {
            starts.clear(); // one fragment is a plain document
        }
        let doc = self.cols.into_document(None, Arc::new(self.names), starts);
        Ok((doc, bytes))
    }

    /// Finish the document: the one-fragment case, its columns owned.
    /// Fails if elements are still open, the document is empty, or
    /// fragments were ended (those finish with
    /// [`DocumentBuilder::finish_container`]).
    pub fn finish(mut self) -> Result<Document, XmlError> {
        if !self.fragment_starts.is_empty() {
            return Err(XmlError::Builder(
                "fragments were ended: use finish_container()".into(),
            ));
        }
        self.close_document_node()?;
        // CSR terminator.
        (self.cols.attr_first).push(self.cols.attr_owner.len() as u32);
        Ok(self
            .cols
            .into_document(self.uri, Arc::new(self.names), Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_is_rejected() {
        let b = DocumentBuilder::new();
        assert!(b.finish().is_err());
    }

    #[test]
    fn unclosed_element_is_rejected() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        assert!(b.finish().is_err());
    }

    #[test]
    fn adjacent_text_nodes_merge() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.text("foo");
        b.text("bar");
        b.end_element();
        let d = b.finish().unwrap();
        assert_eq!(d.node_count(), 3); // doc, a, text
        assert_eq!(d.tree().unwrap().value(2), "foobar");
    }

    #[test]
    fn empty_text_is_skipped() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.text("");
        b.end_element();
        let d = b.finish().unwrap();
        assert_eq!(d.node_count(), 2);
    }

    #[test]
    fn text_does_not_merge_across_elements() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.text("x");
        b.start_element("b");
        b.end_element();
        b.text("y");
        b.end_element();
        let d = b.finish().unwrap();
        // doc, a, "x", b, "y"
        assert_eq!(d.node_count(), 5);
        assert_eq!(d.tree().unwrap().value(2), "x");
        assert_eq!(d.tree().unwrap().value(4), "y");
    }

    #[test]
    #[should_panic(expected = "attribute() must directly follow")]
    fn attribute_after_text_panics() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.text("x");
        b.attribute("k", "v");
    }

    #[test]
    fn deep_nesting() {
        let mut b = DocumentBuilder::new();
        for i in 0..100 {
            b.start_element(&format!("n{i}"));
        }
        for _ in 0..100 {
            b.end_element();
        }
        let d = b.finish().unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.tree().unwrap().level(100), 100);
        assert_eq!(d.tree().unwrap().size(1), 99);
    }

    #[test]
    fn pi_and_comment_nodes() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.comment("note");
        b.pi("target", "data");
        b.end_element();
        let d = b.finish().unwrap();
        assert_eq!(d.kind(2), crate::NodeKind::Comment);
        assert_eq!(d.kind(3), crate::NodeKind::Pi);
        assert_eq!(d.node_name(crate::NodeId::tree(3)).unwrap(), "target");
        assert_eq!(d.tree().unwrap().value(3), "data");
    }

    #[test]
    fn fragments_are_rows_of_one_container() {
        let mut b = DocumentBuilder::new();
        for k in 0..3 {
            b.start_element("a");
            b.attribute("k", &k.to_string());
            b.text("t");
            b.text(if k == 1 { "&" } else { "" });
            b.start_element("x:b");
            b.end_element();
            b.end_element();
            b.end_fragment().unwrap();
        }
        let (d, bytes) = b.finish_container().unwrap();
        d.check_invariants().unwrap();
        assert!(bytes > 0);
        assert_eq!(d.node_count(), 12);
        assert_eq!(d.fragment_starts(), &[0, 4, 8]);
        assert_eq!(d.elements_named("x:b"), &[3, 7, 11]);
        assert_eq!(d.elements_named("a"), &[1, 5, 9]);
        for (k, &f) in d.fragment_starts().iter().enumerate() {
            assert_eq!(
                (
                    d.tree().unwrap().level(f),
                    d.tree().unwrap().parent(f),
                    d.tree().unwrap().size(f)
                ),
                (0, f, 3)
            );
            assert_eq!(d.fragment_root(f + 3), f);
            assert_eq!(d.tree().unwrap().next_sibling(f), None);
            assert_eq!(
                d.attribute(f + 1, "k").unwrap().as_deref(),
                Some(k.to_string().as_str())
            );
            let text = if k == 1 { "t&amp;" } else { "t" };
            assert_eq!(
                crate::serialize_node(&d, crate::NodeId::tree(f), Default::default()).unwrap(),
                format!("<a k=\"{k}\">{text}<x:b/></a>")
            );
        }
    }

    #[test]
    fn fragment_protocol_errors() {
        let mut b = DocumentBuilder::new();
        assert!(b.end_fragment().is_err(), "an empty fragment");
        b.start_element("a");
        assert!(b.end_fragment().is_err(), "an open element");
        b.end_element();
        b.end_fragment().unwrap();
        b.start_element("b");
        b.end_element();
        assert!(b.finish_container().is_err(), "a fragment not ended");

        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.end_element();
        b.end_fragment().unwrap();
        assert!(b.finish().is_err(), "finish() after end_fragment()");
        assert!(
            DocumentBuilder::new().finish_container().is_err(),
            "no fragment"
        );

        let mut b = DocumentBuilder::new();
        b.start_element("a");
        b.end_element();
        b.end_fragment().unwrap();
        let (one, _) = b.finish_container().unwrap();
        assert!(!one.is_container(), "one fragment is a plain document");
    }

    #[test]
    fn attribute_checks_see_the_open_element_only() {
        let mut b = DocumentBuilder::new();
        b.start_element("a");
        let k = b.intern("k");
        b.attribute_named(k, "1");
        assert!(b.accepts_attributes() && b.has_attribute(k));
        b.start_element("b");
        assert!(!b.has_attribute(k), "the parent's attribute");
        b.text("x");
        assert!(!b.accepts_attributes());
    }
}
