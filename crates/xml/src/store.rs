//! Document collections.
//!
//! A [`Store`] owns a set of shredded documents, addressed by URI for
//! `fn:doc(...)` and by [`DocId`] for node references. The paper's XPath-
//! step semantics ("match only nodes from the same XML fragment", §3.3)
//! make per-document indices sufficient — the store never builds a global
//! region index.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::checked::Corrupt;
use crate::doc::Document;
use crate::error::ParseError;
use crate::node::{DocId, NodeId, NodeRef};
use crate::parser::{parse_with_options, ParseOptions};

/// A document registered before its columns are read: a snapshot layer
/// that is checksummed and revalidated the first time a query
/// dereferences it. Until then the store answers what it can from the
/// source's catalog — the document's URI and how many elements carry a
/// name — without materializing anything.
pub trait DocSource: Send + Sync {
    /// The document, materialized on the first call and shared by every
    /// later one (and by every other holder of the source).
    fn load(&self) -> Result<Arc<Document>, String>;
    /// The document's own URI, as [`Document::uri`] will report it.
    fn uri(&self) -> Option<&str>;
    /// Elements named `name`: `elements_named(name).len()` of the
    /// document once loaded.
    fn name_count(&self, name: &str) -> usize;
}

/// One registered document: the document itself once known, and for a
/// lazily registered one the source that materializes it.
#[derive(Clone)]
struct Slot {
    doc: OnceLock<Arc<Document>>,
    source: Option<Arc<dyn DocSource>>,
}

/// A collection of documents.
///
/// Documents are held behind [`Arc`], so cloning a store is cheap (one
/// pointer copy per document plus the URI map) and the clones share the
/// shredded column data. This is what lets a query engine hand each
/// worker thread its own store view of one immutable corpus: per-thread
/// clones append session-constructed documents locally without touching
/// the shared base documents.
///
/// A document registered through [`Store::add_source`] is materialized
/// on first dereference. [`Store::try_doc`] is that dereference with an
/// error path; [`Store::doc`] assumes the caller reached the document
/// through one (every node reference into it did).
#[derive(Default, Clone)]
pub struct Store {
    docs: Vec<Slot>,
    by_uri: HashMap<String, DocId>,
}

impl Store {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an already-built document under an optional URI.
    pub fn add(&mut self, mut doc: Document, uri: Option<&str>) -> DocId {
        if let Some(uri) = uri {
            doc.set_uri(uri.to_string());
        }
        self.add_shared(Arc::new(doc), uri)
    }

    /// Add a document that is already shared (its URI registration, if
    /// any, must match the document's own `uri()`).
    pub fn add_shared(&mut self, doc: Arc<Document>, uri: Option<&str>) -> DocId {
        self.push(
            Slot {
                doc: OnceLock::from(doc),
                source: None,
            },
            uri,
        )
    }

    /// Register a document that materializes on first dereference.
    pub fn add_source(&mut self, source: Arc<dyn DocSource>, uri: Option<&str>) -> DocId {
        self.push(
            Slot {
                doc: OnceLock::new(),
                source: Some(source),
            },
            uri,
        )
    }

    fn push(&mut self, slot: Slot, uri: Option<&str>) -> DocId {
        let id = DocId(self.docs.len() as u32);
        if let Some(uri) = uri {
            self.by_uri.insert(uri.to_string(), id);
        }
        self.docs.push(slot);
        id
    }

    /// Parse and register a document in one step.
    pub fn load(&mut self, uri: &str, xml: &str) -> Result<DocId, ParseError> {
        self.load_with_options(uri, xml, ParseOptions::default())
    }

    /// Parse (with options) and register a document.
    pub fn load_with_options(
        &mut self,
        uri: &str,
        xml: &str,
        options: ParseOptions,
    ) -> Result<DocId, ParseError> {
        let doc = parse_with_options(xml, options)?;
        Ok(self.add(doc, Some(uri)))
    }

    /// Look up a document by URI.
    pub fn by_uri(&self, uri: &str) -> Option<DocId> {
        self.by_uri.get(uri).copied()
    }

    /// Access a document by id. Panics on stale ids (ids are never
    /// invalidated; a panic indicates a cross-store mixup), and on a
    /// lazily registered document that fails to materialize — callers
    /// that can be first to reach one go through [`Store::try_doc`].
    #[inline]
    pub fn doc(&self, id: DocId) -> &Document {
        match self.docs[id.0 as usize].doc.get() {
            Some(doc) => doc,
            None => self.doc_cold(id),
        }
    }

    #[cold]
    fn doc_cold(&self, id: DocId) -> &Document {
        self.try_doc(id)
            .unwrap_or_else(|e| panic!("document {} failed to materialize: {e}", id.0))
    }

    /// Access a document by id, materializing a lazily registered one
    /// on first use — the dereference with an error path.
    pub fn try_doc(&self, id: DocId) -> Result<&Document, String> {
        let slot = &self.docs[id.0 as usize];
        if let Some(doc) = slot.doc.get() {
            return Ok(doc);
        }
        let source = slot.source.as_ref().expect("an empty slot has a source");
        let doc = source.load()?;
        Ok(slot.doc.get_or_init(|| doc))
    }

    /// `doc(id).elements_named(name).len()`, answered by a lazily
    /// registered document's source without materializing it.
    pub fn name_count(&self, id: DocId, name: &str) -> usize {
        match &self.docs[id.0 as usize].source {
            Some(source) => source.name_count(name),
            None => self.doc(id).elements_named(name).len(),
        }
    }

    /// `doc(id).uri()`, without materializing the document.
    pub fn doc_uri(&self, id: DocId) -> Option<&str> {
        let slot = &self.docs[id.0 as usize];
        match slot.doc.get() {
            Some(doc) => doc.uri(),
            None => slot.source.as_ref().and_then(|s| s.uri()),
        }
    }

    /// Number of documents in the store.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Drop all documents with id ≥ `len` (used to discard documents a
    /// query constructed). URI registrations pointing at dropped ids are
    /// removed.
    pub fn truncate(&mut self, len: usize) {
        self.docs.truncate(len);
        self.by_uri.retain(|_, id| (id.0 as usize) < len);
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// Root node reference of a document.
    pub fn root(&self, id: DocId) -> NodeRef {
        NodeRef::new(id, NodeId::tree(0))
    }

    /// The document node of the fragment `node` lies in (`fn:root`, and
    /// what `/` starts from): its document's root, or — in a
    /// constructor's container — its own fragment's.
    pub fn fragment_root(&self, node: NodeRef) -> Result<NodeRef, Corrupt> {
        let doc = self.doc(node.doc);
        let pre = doc.owner_pre(node.id)?;
        Ok(NodeRef::tree(node.doc, doc.fragment_root(pre)))
    }

    /// String value of a node reference.
    pub fn string_value(&self, node: NodeRef) -> Result<String, Corrupt> {
        self.doc(node.doc).string_value(node.id)
    }

    /// Lexical name of a node reference.
    pub fn node_name(&self, node: NodeRef) -> Result<String, Corrupt> {
        self.doc(node.doc).node_name(node.id)
    }

    /// Total document-order key: (doc, in-document order key). Node
    /// sequences produced by path steps are sorted by this.
    #[inline]
    pub fn order_key(&self, node: NodeRef) -> Result<(u32, u32, u32), Corrupt> {
        let (a, b) = self.doc(node.doc).order_key(node.id)?;
        Ok((node.doc.0, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_lookup() {
        let mut s = Store::new();
        let id = s.load("file:a.xml", "<a/>").unwrap();
        assert_eq!(s.by_uri("file:a.xml"), Some(id));
        assert_eq!(s.by_uri("file:missing.xml"), None);
        assert_eq!(s.doc(id).uri(), Some("file:a.xml"));
    }

    #[test]
    fn multiple_documents_are_independent() {
        let mut s = Store::new();
        let a = s.load("a", "<x><y/></x>").unwrap();
        let b = s.load("b", "<x><y/><y/></x>").unwrap();
        assert_ne!(a, b);
        assert_eq!(s.doc(a).elements_named("y").len(), 1);
        assert_eq!(s.doc(b).elements_named("y").len(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn order_keys_are_totally_ordered_across_docs() {
        let mut s = Store::new();
        let a = s.load("a", "<x/>").unwrap();
        let b = s.load("b", "<x/>").unwrap();
        let na = NodeRef::tree(a, 1);
        let nb = NodeRef::tree(b, 1);
        assert!(s.order_key(na).unwrap() < s.order_key(nb).unwrap());
    }
}
