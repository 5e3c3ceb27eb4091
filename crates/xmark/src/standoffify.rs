//! The paper's StandOff-ification of XMark (§4.6).
//!
//! "We modified the XMark document to a StandOff document, by putting the
//! textual contents of the auctions document in a separate file (the
//! BLOB), whereas the auctions document contains for each element node
//! instead of the text node a region (in attribute format) that refers to
//! the BLOB. The order in which the element nodes appear has also been
//! permuted on a coarse level, thereby removing some of the original
//! parent-child relationships."
//!
//! Concretely:
//!
//! 1. Character data is concatenated into the BLOB in document order.
//!    Every element additionally contributes one terminator byte at its
//!    close, so even empty elements get a non-empty region and nested
//!    elements get *strictly* nested regions — the original tree is then
//!    exactly recoverable through region containment, which is what lets
//!    `select-narrow` replace `child`/`descendant` in the queries.
//! 2. The element nodes (with their original attributes plus
//!    `start`/`end`) are re-emitted *flat* under the root in seeded-
//!    shuffled order: apart from the root, no original parent-child edge
//!    survives in the tree — only the regions relate annotations.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use standoff_xml::{Document, DocumentBuilder, NodeKind};

/// A StandOff-ified document plus its BLOB.
pub struct StandoffDoc {
    /// The annotation document: flat elements with `start`/`end`
    /// attributes.
    pub doc: Document,
    /// The annotated BLOB (text content + element terminators).
    pub blob: String,
}

impl StandoffDoc {
    /// The BLOB substring covered by an inclusive region, with element
    /// terminator bytes removed — the "content" of an annotation.
    pub fn region_text(&self, start: i64, end: i64) -> String {
        let bytes = &self.blob.as_bytes()[start as usize..=end as usize];
        bytes
            .iter()
            .filter(|&&b| b != b'\n')
            .map(|&b| b as char)
            .collect()
    }
}

/// Transform a document into its StandOff form. `src` is a document
/// built or parsed in memory, whose column groups are verified.
pub fn standoffify(src: &Document, seed: u64) -> StandoffDoc {
    let n = src.node_count();
    let tree = src.tree().expect("a built document's tree is verified");
    // Pass 1: compute the BLOB and each element's [start,end] span.
    let mut spans: Vec<(i64, i64)> = vec![(0, 0); n];
    let mut blob = String::new();
    let mut open: Vec<u32> = Vec::new();
    for pre in 1..n as u32 {
        // Close elements whose subtree ended before `pre`.
        while let Some(&top) = open.last() {
            if pre > top + tree.size(top) {
                blob.push('\n');
                spans[top as usize].1 = blob.len() as i64 - 1;
                open.pop();
            } else {
                break;
            }
        }
        match src.kind(pre) {
            NodeKind::Element => {
                spans[pre as usize].0 = blob.len() as i64;
                if tree.size(pre) == 0 {
                    blob.push('\n');
                    spans[pre as usize].1 = blob.len() as i64 - 1;
                } else {
                    open.push(pre);
                }
            }
            NodeKind::Text => blob.push_str(tree.value(pre)),
            NodeKind::Comment | NodeKind::Pi | NodeKind::Document => {}
        }
    }
    while let Some(top) = open.pop() {
        blob.push('\n');
        spans[top as usize].1 = blob.len() as i64 - 1;
    }

    // Pass 2: emit the flat, coarsely-permuted annotation document.
    let root_elem = 1u32; // the document element
    debug_assert_eq!(src.kind(root_elem), NodeKind::Element);
    let mut elements: Vec<u32> = (2..n as u32)
        .filter(|&p| src.kind(p) == NodeKind::Element)
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    elements.shuffle(&mut rng);

    let mut b = DocumentBuilder::with_capacity(elements.len() + 2);
    emit_element(src, root_elem, &spans, &mut b);
    for &pre in &elements {
        emit_element(src, pre, &spans, &mut b);
        b.end_element();
    }
    b.end_element(); // root
    StandoffDoc {
        doc: b.finish().expect("balanced"),
        blob,
    }
}

/// Open an element in the builder with its original attributes plus the
/// region attributes. The caller closes it.
fn emit_element(src: &Document, pre: u32, spans: &[(i64, i64)], b: &mut DocumentBuilder) {
    let name = src.names().lexical(src.name_id(pre));
    b.start_element(&name);
    let attrs = src
        .attrs()
        .expect("a built document's attributes are verified");
    for a in attrs.ids(pre) {
        let an = src.names().lexical(attrs.name_id(a));
        b.attribute(&an, &attrs.value(a));
    }
    let (start, end) = spans[pre as usize];
    b.attribute("start", &start.to_string());
    b.attribute("end", &end.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, XmarkConfig};
    use standoff_core::{RegionIndex, StandoffConfig};
    use standoff_xml::parse_document;

    fn small() -> (Document, StandoffDoc) {
        let src = generate(&XmarkConfig::with_scale(0.001));
        let so = standoffify(&src, 42);
        (src, so)
    }

    #[test]
    fn element_counts_preserved() {
        let (src, so) = small();
        let src_elems = src.all_elements().len();
        let so_elems = so.doc.all_elements().len();
        assert_eq!(src_elems, so_elems);
        assert_eq!(
            src.elements_named("bidder").len(),
            so.doc.elements_named("bidder").len()
        );
    }

    #[test]
    fn standoff_doc_is_flat() {
        let (_, so) = small();
        // Every element except the root is a child of the root.
        let root = 1u32;
        for pre in 2..so.doc.node_count() as u32 {
            assert_eq!(so.doc.tree().unwrap().parent(pre), root);
        }
    }

    #[test]
    fn all_elements_annotated_and_index_builds() {
        let (_, so) = small();
        let index = RegionIndex::build(&so.doc, &StandoffConfig::default()).unwrap();
        assert_eq!(index.annotated_nodes().len(), so.doc.all_elements().len());
        assert_eq!(index.max_regions(), 1, "attribute format: single regions");
    }

    #[test]
    fn regions_encode_original_containment() {
        let (src, so) = small();
        // Original: every <increase> is a descendant of a <bidder>. In
        // the StandOff doc that containment must hold between regions.
        let index = RegionIndex::build(&so.doc, &StandoffConfig::default()).unwrap();
        let bidders = so.doc.elements_named("bidder");
        let increases = so.doc.elements_named("increase");
        assert_eq!(increases.len(), src.elements_named("increase").len());
        for &inc in increases {
            let ri = index.regions_of(inc)[0];
            let contained = bidders.iter().any(|&b| {
                let rb = index.regions_of(b)[0];
                rb.start <= ri.start && ri.end <= rb.end
            });
            assert!(contained, "increase region not inside any bidder region");
        }
    }

    #[test]
    fn nested_regions_are_strict() {
        let src = parse_document("<a><b><c/></b><d>text</d></a>").unwrap();
        let so = standoffify(&src, 1);
        let index = RegionIndex::build(&so.doc, &StandoffConfig::default()).unwrap();
        let a = index.regions_of(so.doc.elements_named("a")[0])[0];
        let b = index.regions_of(so.doc.elements_named("b")[0])[0];
        let c = index.regions_of(so.doc.elements_named("c")[0])[0];
        let d = index.regions_of(so.doc.elements_named("d")[0])[0];
        assert!(a.start <= b.start && b.end < a.end, "b strictly in a");
        assert!(b.start <= c.start && c.end < b.end, "c strictly in b");
        assert!(d.start > b.end, "siblings disjoint");
        assert!(d.end < a.end);
    }

    #[test]
    fn blob_preserves_text() {
        let src = parse_document("<a><name>hello world</name><x/></a>").unwrap();
        let so = standoffify(&src, 1);
        let index = RegionIndex::build(&so.doc, &StandoffConfig::default()).unwrap();
        let name = so.doc.elements_named("name")[0];
        let r = index.regions_of(name)[0];
        assert_eq!(so.region_text(r.start, r.end), "hello world");
    }

    #[test]
    fn permutation_is_seeded() {
        let src = generate(&XmarkConfig::with_scale(0.001));
        let a = standoffify(&src, 1);
        let b = standoffify(&src, 1);
        let c = standoffify(&src, 2);
        let ser = |d: &Document| standoff_xml::serialize_document(d, Default::default());
        assert_eq!(ser(&a.doc), ser(&b.doc));
        assert_ne!(ser(&a.doc), ser(&c.doc));
        assert_eq!(
            a.blob, c.blob,
            "the BLOB does not depend on the permutation"
        );
    }

    #[test]
    fn original_attributes_survive() {
        let (src, so) = small();
        let src_p0 = src
            .elements_named("person")
            .iter()
            .find(|&&p| src.attribute(p, "id").unwrap().as_deref() == Some("person0"))
            .copied()
            .unwrap();
        let so_p0 = so
            .doc
            .elements_named("person")
            .iter()
            .find(|&&p| so.doc.attribute(p, "id").unwrap().as_deref() == Some("person0"))
            .copied();
        assert!(so_p0.is_some());
        let _ = src_p0;
    }
}
