//! Document and subtree serialization.
//!
//! Serialization walks the pre/size encoding linearly with an explicit
//! end-tag stack — no recursion, so arbitrarily deep documents serialize in
//! `O(n)` without stack growth. Everything is written into one caller's
//! buffer: names are pushed as their prefix and local part straight from
//! the name table, an element's attributes come with their values from
//! one region lookup ([`AttrTable::pairs`]), and character data is
//! copied whole unless a byte scan finds something to escape. A
//! [`NodeWriter`] keeps its end-tag stack across the nodes it writes, so
//! a sequence of nodes costs no allocation of its own
//! ([`serialize_node_into`] is one node through a fresh one).

use crate::checked::Corrupt;
use crate::doc::{AttrTable, Document, Tree};
use crate::name::NameId;
use crate::node::{NodeId, NodeKind};

/// Serialization configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerializeOptions {
    /// Indent output with two spaces per level and newlines between
    /// element children. Text content is emitted verbatim either way.
    pub indent: bool,
}

/// Serialize a whole document (children of the document node) that was
/// built or parsed in memory, whose column groups are verified by
/// construction. A mounted document's groups are verified on their first
/// read, which can fail: serialize it with [`try_serialize_document`],
/// which reports the failure — here it panics.
pub fn serialize_document(doc: &Document, options: SerializeOptions) -> String {
    try_serialize_document(doc, options)
        .unwrap_or_else(|e| panic!("serialize_document over failed columns: {e}"))
}

/// Serialize a whole document (children of the document node); fails
/// when a column group the markup reads fails its verification.
pub fn try_serialize_document(
    doc: &Document,
    options: SerializeOptions,
) -> Result<String, Corrupt> {
    serialize_node(doc, doc.root(), options)
}

/// Serialize the subtree rooted at `node`. For the document node this
/// serializes all its children; for attributes, the `name="value"` form.
/// Fails when a column group the markup reads fails its verification.
pub fn serialize_node(
    doc: &Document,
    node: NodeId,
    options: SerializeOptions,
) -> Result<String, Corrupt> {
    let mut out = String::new();
    serialize_node_into(doc, node, options, &mut out)?;
    Ok(out)
}

/// [`serialize_node`], appended to `out`. Indentation is laid out as if
/// the node's markup started a buffer of its own. An attribute reads the
/// attribute table; a tree node reads the tree columns as well.
pub fn serialize_node_into(
    doc: &Document,
    node: NodeId,
    options: SerializeOptions,
    out: &mut String,
) -> Result<(), Corrupt> {
    NodeWriter::default().write(doc, node, options, out)
}

/// Serializes node after node into callers' buffers, reusing one
/// end-tag stack: every node's markup closes all it opened, so the
/// stack is empty again between nodes.
#[derive(Debug, Default)]
pub struct NodeWriter {
    /// Elements whose end tag is still pending.
    open: Vec<u32>,
}

impl NodeWriter {
    /// [`serialize_node_into`] with this writer's stack.
    pub fn write(
        &mut self,
        doc: &Document,
        node: NodeId,
        options: SerializeOptions,
        out: &mut String,
    ) -> Result<(), Corrupt> {
        let start = out.len();
        let mut w = Writer {
            doc,
            attrs: doc.attrs()?,
            options,
            out,
            start,
            open: &mut self.open,
        };
        if let Some(a) = node.attr_index() {
            w.attribute(a);
            return Ok(());
        }
        let tree = doc.tree()?;
        let root_pre = node.pre().expect("tree node");
        match doc.kind(root_pre) {
            NodeKind::Document => {
                for child in tree.children(root_pre) {
                    w.subtree(tree, child);
                    if options.indent {
                        w.out.push('\n');
                    }
                }
            }
            _ => w.subtree(tree, root_pre),
        }
        Ok(())
    }
}

/// One serialization into a caller's buffer, whose markup for this call
/// starts at `start`.
struct Writer<'a> {
    doc: &'a Document,
    attrs: &'a AttrTable,
    options: SerializeOptions,
    out: &'a mut String,
    start: usize,
    open: &'a mut Vec<u32>,
}

impl Writer<'_> {
    fn name(&mut self, id: NameId) {
        if let Some(q) = self.doc.names().resolve(id) {
            if let Some(prefix) = &q.prefix {
                self.out.push_str(prefix);
                self.out.push(':');
            }
            self.out.push_str(&q.local);
        }
    }

    /// `name="value"`.
    fn pair(&mut self, name: NameId, value: &str) {
        self.name(name);
        self.out.push_str("=\"");
        push_escaped(self.out, value, true);
        self.out.push('"');
    }

    /// The attribute node with id `a`.
    fn attribute(&mut self, a: u32) {
        self.pair(self.attrs.name_id(a), &self.attrs.value(a));
    }

    /// Non-recursive subtree serializer.
    fn subtree(&mut self, tree: Tree, root: u32) {
        let (doc, attrs) = (self.doc, self.attrs);
        self.open.clear();
        let end = root + tree.size(root);
        let base_level = tree.level(root);
        let mut pre = root;
        while pre <= end {
            // Close elements whose subtree we have left.
            while let Some(&open_pre) = self.open.last() {
                if pre > open_pre + tree.size(open_pre) {
                    self.open.pop();
                    self.close_tag(tree, open_pre, base_level);
                } else {
                    break;
                }
            }
            match doc.kind(pre) {
                NodeKind::Element => {
                    if self.options.indent {
                        self.indent(tree, pre, base_level);
                    }
                    self.out.push('<');
                    self.name(doc.name_id(pre));
                    attrs.pairs(pre, |name, value| {
                        self.out.push(' ');
                        self.pair(name, value);
                    });
                    if tree.size(pre) == 0 {
                        self.out.push_str("/>");
                    } else {
                        self.out.push('>');
                        self.open.push(pre);
                    }
                }
                NodeKind::Text => push_escaped(self.out, tree.value(pre), false),
                NodeKind::Comment => {
                    if self.options.indent {
                        self.indent(tree, pre, base_level);
                    }
                    self.out.push_str("<!--");
                    self.out.push_str(tree.value(pre));
                    self.out.push_str("-->");
                }
                NodeKind::Pi => {
                    if self.options.indent {
                        self.indent(tree, pre, base_level);
                    }
                    self.out.push_str("<?");
                    self.name(doc.name_id(pre));
                    if !tree.value(pre).is_empty() {
                        self.out.push(' ');
                        self.out.push_str(tree.value(pre));
                    }
                    self.out.push_str("?>");
                }
                NodeKind::Document => {}
            }
            pre += 1;
        }
        while let Some(open_pre) = self.open.pop() {
            self.close_tag(tree, open_pre, base_level);
        }
    }

    fn close_tag(&mut self, tree: Tree, open_pre: u32, base_level: u16) {
        let doc = self.doc;
        // Indent the close tag only if the element has element/comment/PI
        // children (mixed text content stays inline).
        if self.options.indent
            && tree
                .children(open_pre)
                .any(|c| doc.kind(c) != NodeKind::Text)
        {
            self.out.push('\n');
            self.spaces(tree.level(open_pre) - base_level);
        }
        self.out.push_str("</");
        self.name(doc.name_id(open_pre));
        self.out.push('>');
    }

    fn indent(&mut self, tree: Tree, pre: u32, base_level: u16) {
        let doc = self.doc;
        let fresh = |out: &String, start: usize| out.len() == start || out.ends_with('\n');
        // Only break before a node whose parent has non-text children
        // (i.e. we're in "element content").
        if !fresh(self.out, self.start) {
            let parent = tree.parent(pre);
            if doc.kind(parent) != NodeKind::Document
                && tree.children(parent).any(|c| doc.kind(c) == NodeKind::Text)
            {
                return; // mixed content: stay inline
            }
            self.out.push('\n');
        }
        if fresh(self.out, self.start) {
            self.spaces(tree.level(pre).saturating_sub(base_level));
        }
    }

    /// Two spaces per level.
    fn spaces(&mut self, levels: u16) {
        self.out
            .extend(std::iter::repeat_n(' ', levels as usize * 2));
    }
}

/// Append `s` to `out`, escaping `<`, `>` and `&` — and `"` when it is
/// an attribute value: unescaped runs are copied whole, found by a scan
/// of bytes (every byte escaped is ASCII, so never inside a character).
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let escaped = |b: &u8| matches!(b, b'<' | b'>' | b'&') || (attr && *b == b'"');
    let mut rest = s;
    while let Some(at) = rest.as_bytes().iter().position(escaped) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            _ => "&quot;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Escape character data for text content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s, false);
    out
}

/// Escape character data for attribute values (double-quoted).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn round_trip(xml: &str) -> String {
        let doc = parse_document(xml).unwrap();
        serialize_document(&doc, SerializeOptions::default())
    }

    #[test]
    fn simple_round_trip() {
        assert_eq!(
            round_trip("<a><b x=\"1\"/>text</a>"),
            "<a><b x=\"1\"/>text</a>"
        );
    }

    #[test]
    fn escaping_round_trips() {
        let xml = "<a x=\"&lt;&quot;&amp;\">&lt;body&gt; &amp; soul</a>";
        let once = round_trip(xml);
        assert_eq!(round_trip(&once), once, "serialization is stable");
        let doc = parse_document(&once).unwrap();
        assert_eq!(doc.attribute(1, "x").unwrap().as_deref(), Some("<\"&"));
        assert_eq!(
            doc.string_value(crate::NodeId::tree(1)).unwrap(),
            "<body> & soul"
        );
    }

    #[test]
    fn subtree_serialization() {
        let doc = parse_document("<a><b><c/></b><d/></a>").unwrap();
        let b_pre = doc.elements_named("b")[0];
        let s = serialize_node(
            &doc,
            crate::NodeId::tree(b_pre),
            SerializeOptions::default(),
        )
        .unwrap();
        assert_eq!(s, "<b><c/></b>");
    }

    #[test]
    fn attribute_serialization() {
        let doc = parse_document("<a k=\"v\"/>").unwrap();
        let attr = doc.attrs().unwrap().of(1).next().unwrap();
        assert_eq!(
            serialize_node(&doc, attr, SerializeOptions::default()).unwrap(),
            "k=\"v\""
        );
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let s = round_trip("<a><!--hi--><?t d?></a>");
        assert_eq!(s, "<a><!--hi--><?t d?></a>");
    }

    #[test]
    fn indent_mode_produces_parseable_output() {
        let doc = parse_document("<a><b><c/></b><d>txt</d></a>").unwrap();
        let pretty = serialize_document(&doc, SerializeOptions { indent: true });
        let re = parse_document(&pretty).unwrap();
        assert_eq!(re.elements_named("c").len(), 1);
        assert_eq!(
            re.string_value(crate::NodeId::tree(re.elements_named("d")[0]))
                .unwrap(),
            "txt"
        );
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn deep_document_serializes_without_stack_overflow() {
        let mut xml = String::new();
        let depth = 50_000;
        for _ in 0..depth {
            xml.push_str("<n>");
        }
        for _ in 0..depth {
            xml.push_str("</n>");
        }
        let doc = parse_document(&xml).unwrap();
        let out = serialize_document(&doc, SerializeOptions::default());
        // The innermost empty element self-closes: 3 bytes shorter.
        assert_eq!(out.len(), xml.len() - 3);
        let re = parse_document(&out).unwrap();
        assert_eq!(re.node_count(), doc.node_count());
    }

    #[test]
    fn serialize_into_appends_and_indents_from_its_start() {
        let doc = parse_document("<a><b><c/></b></a>").unwrap();
        let pretty = SerializeOptions { indent: true };
        let mut out = String::from("prefix>");
        serialize_node_into(&doc, doc.root(), pretty, &mut out).unwrap();
        assert_eq!(out, format!("prefix>{}", serialize_document(&doc, pretty)));
        let b = crate::NodeId::tree(doc.elements_named("b")[0]);
        let mut out = String::from("<x/>");
        serialize_node_into(&doc, b, SerializeOptions::default(), &mut out).unwrap();
        assert_eq!(out, "<x/><b><c/></b>");
    }

    #[test]
    fn escaping_in_place_matches_the_entities() {
        assert_eq!(escape_text("a<b>&\"c"), "a&lt;b&gt;&amp;\"c");
        assert_eq!(escape_attr("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
        assert_eq!(escape_attr("héllo"), "héllo");
    }
}
