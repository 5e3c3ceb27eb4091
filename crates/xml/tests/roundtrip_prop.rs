//! Property tests: parse/serialize round-trips and structural invariants
//! of the shredded storage.

use proptest::prelude::*;

use standoff_xml::{parse_document, serialize_document, DocumentBuilder, SerializeOptions};

/// A generated element tree.
#[derive(Clone, Debug)]
enum Node {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Node>,
    },
    Text(String),
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_-]{0,6}".prop_map(|s| s)
}

/// Attribute values and text with characters that need escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~åß€]{0,20}").unwrap()
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        text_strategy().prop_map(Node::Text),
        (name_strategy(), attr_strategy()).prop_map(|(name, attrs)| Node::Element {
            name,
            attrs,
            children: Vec::new(),
        }),
    ];
    leaf.prop_recursive(4, 32, 5, |inner| {
        (
            name_strategy(),
            attr_strategy(),
            prop::collection::vec(inner, 0..5),
        )
            .prop_map(|(name, attrs, children)| Node::Element {
                name,
                attrs,
                children,
            })
    })
}

fn attr_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((name_strategy(), text_strategy()), 0..3).prop_map(|attrs| {
        // Attribute names must be unique per element.
        let mut seen = std::collections::HashSet::new();
        attrs
            .into_iter()
            .filter(|(n, _)| seen.insert(n.clone()))
            .collect()
    })
}

fn build(node: &Node, b: &mut DocumentBuilder) {
    match node {
        Node::Text(t) => {
            b.text(t);
        }
        Node::Element {
            name,
            attrs,
            children,
        } => {
            b.start_element(name);
            for (k, v) in attrs {
                b.attribute(k, v);
            }
            for c in children {
                build(c, b);
            }
            b.end_element();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// build → serialize → parse preserves structure and content.
    #[test]
    fn serialize_parse_round_trip(root in node_strategy()) {
        // Force an element root.
        let root = match root {
            e @ Node::Element { .. } => e,
            Node::Text(t) => Node::Element {
                name: "wrap".into(),
                attrs: vec![],
                children: vec![Node::Text(t)],
            },
        };
        let mut b = DocumentBuilder::new();
        build(&root, &mut b);
        let doc = b.finish().unwrap();
        doc.check_invariants().unwrap();

        let xml = serialize_document(&doc, SerializeOptions::default());
        let reparsed = parse_document(&xml).unwrap();
        reparsed.check_invariants().unwrap();

        // Serialization reaches a fixpoint after one parse (the first
        // parse may strip whitespace-only text nodes under the default
        // options, so compare from the reparsed form onward).
        let xml2 = serialize_document(&reparsed, SerializeOptions::default());
        let reparsed2 = parse_document(&xml2).unwrap();
        let xml3 = serialize_document(&reparsed2, SerializeOptions::default());
        prop_assert_eq!(&xml2, &xml3);

        // Whitespace-only text nodes are stripped by the default parse
        // options, so compare structure modulo those.
        let strip_ws = |d: &standoff_xml::Document| -> Vec<(u8, String, String)> {
            (0..d.node_count() as u32)
                .filter(|&p| {
                    d.kind(p) != standoff_xml::NodeKind::Text
                        || !d.tree().unwrap().value(p).chars().all(char::is_whitespace)
                })
                .map(|p| {
                    (
                        d.kind(p) as u8,
                        d.names().lexical(d.name_id(p)),
                        d.tree().unwrap().value(p).to_string(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(strip_ws(&doc), strip_ws(&reparsed));
    }

    /// The pretty-printer produces re-parseable XML with identical
    /// element structure.
    #[test]
    fn indented_output_reparses(root in node_strategy()) {
        let root = match root {
            e @ Node::Element { .. } => e,
            Node::Text(t) => Node::Element {
                name: "wrap".into(),
                attrs: vec![],
                children: vec![Node::Text(t)],
            },
        };
        let mut b = DocumentBuilder::new();
        build(&root, &mut b);
        let doc = b.finish().unwrap();
        let pretty = serialize_document(&doc, SerializeOptions { indent: true });
        let reparsed = parse_document(&pretty).unwrap();
        let elems = |d: &standoff_xml::Document| {
            (0..d.node_count() as u32)
                .filter(|&p| d.kind(p) == standoff_xml::NodeKind::Element)
                .map(|p| d.names().lexical(d.name_id(p)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(elems(&doc), elems(&reparsed));
    }

    /// Structural invariants hold for arbitrary built documents, and the
    /// element-name index is complete.
    #[test]
    fn shredded_invariants(root in node_strategy()) {
        let root = match root {
            e @ Node::Element { .. } => e,
            Node::Text(t) => Node::Element {
                name: "wrap".into(),
                attrs: vec![],
                children: vec![Node::Text(t)],
            },
        };
        let mut b = DocumentBuilder::new();
        build(&root, &mut b);
        let doc = b.finish().unwrap();
        doc.check_invariants().unwrap();

        // The name index finds exactly the elements of each name.
        let mut by_name: std::collections::HashMap<String, Vec<u32>> = Default::default();
        for p in 0..doc.node_count() as u32 {
            if doc.kind(p) == standoff_xml::NodeKind::Element {
                by_name
                    .entry(doc.names().lexical(doc.name_id(p)))
                    .or_default()
                    .push(p);
            }
        }
        for (name, pres) in by_name {
            prop_assert_eq!(doc.elements_named(&name), &pres[..]);
        }

        // children() and parent() agree.
        for p in 0..doc.node_count() as u32 {
            for c in doc.tree().unwrap().children(p) {
                prop_assert_eq!(doc.tree().unwrap().parent(c), p);
            }
        }
    }
}
