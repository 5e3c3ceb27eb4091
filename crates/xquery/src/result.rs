//! Materialized query results.

use std::ops::Range;

use standoff_algebra::Item;
use standoff_xml::{NodeWriter, SerializeOptions, Store};

use crate::error::QueryError;

/// The result sequence of a query, with its serialized forms materialized
/// at construction (results no longer reference the engine).
#[derive(Clone, Debug)]
pub struct QueryResult {
    items: Vec<Item>,
    /// String value of each item.
    strings: Vec<String>,
    /// The whole sequence serialized, as [`QueryResult::as_xml`] returns it.
    xml: String,
    /// Each item's serialized form within `xml` (separators excluded).
    spans: Vec<Range<usize>>,
}

impl QueryResult {
    /// Serialize `items`: a node's markup and string value read its
    /// document's column groups, whose failure fails the result. One
    /// [`NodeWriter`] serializes every node, so its end-tag stack is
    /// allocated once per result.
    pub(crate) fn new(items: Vec<Item>, store: &Store) -> Result<QueryResult, QueryError> {
        let mut strings = Vec::with_capacity(items.len());
        let mut spans = Vec::with_capacity(items.len());
        let mut xml = String::new();
        let mut writer = NodeWriter::default();
        let mut prev_needs_sep = false;
        for item in &items {
            let string = item.string_value(store)?;
            let needs_sep = match item {
                Item::Node(node) => node.id.is_attr(),
                _ => true,
            };
            if prev_needs_sep && needs_sep {
                xml.push(' ');
            }
            let start = xml.len();
            match item {
                Item::Node(node) => writer.write(
                    store.doc(node.doc),
                    node.id,
                    SerializeOptions::default(),
                    &mut xml,
                )?,
                _ => xml.push_str(&string),
            }
            spans.push(start..xml.len());
            strings.push(string);
            prev_needs_sep = needs_sep;
        }
        Ok(QueryResult {
            items,
            strings,
            xml,
            spans,
        })
    }

    /// The raw items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items in the result sequence.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// String value of each item (`fn:string` semantics).
    pub fn as_strings(&self) -> &[String] {
        &self.strings
    }

    /// Serialized form of each item (markup for nodes, lexical form for
    /// atoms): copies of the item's slice of [`QueryResult::as_xml`]'s
    /// buffer.
    pub fn as_serialized(&self) -> Vec<String> {
        (self.spans.iter())
            .map(|span| self.xml[span.clone()].to_string())
            .collect()
    }

    /// The whole sequence serialized: element markup concatenated,
    /// adjacent atoms — and adjacent attribute nodes, which have no
    /// self-delimiting markup — separated by a single space. Serialized
    /// once, when the result was made; this is a copy of that buffer.
    pub fn as_xml(&self) -> String {
        self.xml.clone()
    }

    /// [`QueryResult::as_xml`], taking the buffer instead of copying it.
    pub fn into_xml(self) -> String {
        self.xml
    }

    /// Convenience for tests: single-item result as string.
    pub fn single(&self) -> Option<&str> {
        if self.items.len() == 1 {
            Some(&self.strings[0])
        } else {
            None
        }
    }
}
