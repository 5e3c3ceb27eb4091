//! Property tests: Staircase Join against a brute-force axis oracle.
//!
//! Random trees, random context sets, every axis — the optimized
//! (pruning/collapsing) implementation must equal the from-definition
//! evaluation.

use proptest::prelude::*;

use standoff_algebra::staircase::{ll_step, TreeAxis};
use standoff_algebra::{NodeTable, NodeTest};
use standoff_xml::{DocId, Document, DocumentBuilder, NodeId, NodeKind, NodeRef, Store};

/// Build a random tree from a parenthesis-walk: each step either opens a
/// child (with a name from a tiny alphabet) or closes the current one.
fn build_tree(walk: &[u8]) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("root");
    let mut depth = 1;
    for &op in walk {
        match op % 4 {
            0 | 1 => {
                let name = ["a", "b", "c"][(op as usize / 4) % 3];
                b.start_element(name);
                depth += 1;
            }
            2 if depth > 1 => {
                b.end_element();
                depth -= 1;
            }
            _ => {
                b.text("t");
            }
        }
    }
    while depth > 0 {
        b.end_element();
        depth -= 1;
    }
    b.finish().unwrap()
}

/// [`build_tree`] plus what a name-index lookup could trip over: every
/// element carries an attribute (attribute contexts), and processing
/// instructions share the element alphabet (`<?a?>` is not an `a`).
fn build_named_tree(walk: &[u8]) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("root");
    b.attribute("k", "v");
    let mut depth = 1;
    for &op in walk {
        let name = ["a", "b", "c"][(op as usize / 4) % 3];
        match op % 4 {
            0 | 1 => {
                b.start_element(name);
                b.attribute("k", "v");
                depth += 1;
            }
            2 if depth > 1 => {
                b.end_element();
                depth -= 1;
            }
            _ => {
                b.pi(name, "");
            }
        }
    }
    while depth > 0 {
        b.end_element();
        depth -= 1;
    }
    b.finish().unwrap()
}

/// Brute-force evaluation of an axis from its definition.
fn brute_force(doc: &Document, ctx: &[u32], axis: TreeAxis, name: Option<&str>) -> Vec<u32> {
    let n = doc.node_count() as u32;
    let tree = doc.tree().unwrap();
    let mut out: Vec<u32> = Vec::new();
    for v in 0..n {
        // Name test (principal kind element) or node().
        if let Some(name) = name {
            if doc.kind(v) != NodeKind::Element || doc.names().lexical(doc.name_id(v)) != name {
                continue;
            }
        }
        let selected = ctx.iter().any(|&c| match axis {
            TreeAxis::SelfAxis => v == c,
            TreeAxis::Child => v != 0 && tree.parent(v) == c,
            TreeAxis::Parent => c != 0 && tree.parent(c) == v,
            TreeAxis::Descendant => tree.is_ancestor(c, v),
            TreeAxis::DescendantOrSelf => v == c || tree.is_ancestor(c, v),
            TreeAxis::Ancestor => tree.is_ancestor(v, c),
            TreeAxis::AncestorOrSelf => v == c || tree.is_ancestor(v, c),
            TreeAxis::FollowingSibling => {
                v != 0 && c != 0 && tree.parent(v) == tree.parent(c) && v > c
            }
            TreeAxis::PrecedingSibling => {
                v != 0 && c != 0 && tree.parent(v) == tree.parent(c) && v < c
            }
            TreeAxis::Following => v > c + tree.size(c),
            TreeAxis::Preceding => v + tree.size(v) < c,
            TreeAxis::Attribute => false,
        });
        if selected {
            out.push(v);
        }
    }
    out
}

const AXES: [TreeAxis; 11] = [
    TreeAxis::SelfAxis,
    TreeAxis::Child,
    TreeAxis::Parent,
    TreeAxis::Descendant,
    TreeAxis::DescendantOrSelf,
    TreeAxis::Ancestor,
    TreeAxis::AncestorOrSelf,
    TreeAxis::FollowingSibling,
    TreeAxis::PrecedingSibling,
    TreeAxis::Following,
    TreeAxis::Preceding,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn staircase_equals_brute_force(
        walk in prop::collection::vec(any::<u8>(), 0..120),
        ctx_picks in prop::collection::vec(any::<u16>(), 1..8),
        name_pick in 0usize..4,
    ) {
        let doc = build_tree(&walk);
        let n = doc.node_count() as u32;
        let mut store = Store::new();
        let doc_id = DocId(0);
        let ctx: Vec<u32> = {
            let mut c: Vec<u32> = ctx_picks.iter().map(|&p| p as u32 % n).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        let name = [None, Some("a"), Some("b"), Some("zzz")][name_pick];
        store.add(doc, None);
        let doc = store.doc(doc_id);

        for axis in AXES {
            let expected = brute_force(doc, &ctx, axis, name);
            let table = NodeTable::for_single_iter(
                ctx.iter().map(|&p| NodeRef::tree(doc_id, p)).collect(),
            );
            let test = match name {
                None => NodeTest::any_node(),
                Some(n) => NodeTest::named(n),
            };
            let got: Vec<u32> = ll_step(&store, &table, axis, &test).unwrap()
                .nodes()
                .iter()
                .map(|r| r.id.pre().unwrap())
                .collect();
            prop_assert_eq!(
                &got, &expected,
                "axis {} with test {:?} on ctx {:?}", axis.as_str(), name, ctx
            );
        }
    }

    /// Loop-lifted evaluation must equal per-iteration evaluation glued
    /// together (the defining property of loop-lifting).
    #[test]
    fn loop_lifted_equals_per_iteration(
        walk in prop::collection::vec(any::<u8>(), 0..80),
        picks in prop::collection::vec((0u32..4, any::<u16>()), 1..12),
    ) {
        let doc = build_tree(&walk);
        let n = doc.node_count() as u32;
        let mut store = Store::new();
        let doc_id = DocId(0);
        store.add(doc, None);

        let mut rows: Vec<(u32, u32)> = picks
            .iter()
            .map(|&(iter, p)| (iter, p as u32 % n))
            .collect();
        rows.sort_unstable();
        rows.dedup();

        for axis in [TreeAxis::Descendant, TreeAxis::Ancestor, TreeAxis::Following] {
            // All iterations at once.
            let table = NodeTable::from_columns(
                rows.iter().map(|r| r.0).collect(),
                rows.iter().map(|r| NodeRef::tree(doc_id, r.1)).collect(),
            );
            let bulk = ll_step(&store, &table, axis, &NodeTest::any_node()).unwrap();

            // One iteration at a time.
            for iter in 0..4u32 {
                let group: Vec<NodeRef> = rows
                    .iter()
                    .filter(|r| r.0 == iter)
                    .map(|r| NodeRef::tree(doc_id, r.1))
                    .collect();
                let single = ll_step(
                    &store,
                    &NodeTable::for_single_iter(group),
                    axis,
                    &NodeTest::any_node(),
                ).unwrap();
                prop_assert_eq!(
                    bulk.group(iter),
                    single.group(0),
                    "axis {} iteration {}",
                    axis.as_str(),
                    iter
                );
            }
        }
    }

    /// Axis-step results are always duplicate-free and document-ordered
    /// per iteration.
    #[test]
    fn results_sorted_and_unique(
        walk in prop::collection::vec(any::<u8>(), 0..100),
        picks in prop::collection::vec((0u32..3, any::<u16>()), 1..10),
    ) {
        let doc = build_tree(&walk);
        let n = doc.node_count() as u32;
        let mut store = Store::new();
        let doc_id = DocId(0);
        store.add(doc, None);
        let mut rows: Vec<(u32, u32)> = picks
            .iter()
            .map(|&(iter, p)| (iter, p as u32 % n))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let table = NodeTable::from_columns(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| NodeRef::tree(doc_id, r.1)).collect(),
        );
        for axis in AXES {
            let out = ll_step(&store, &table, axis, &NodeTest::any_node()).unwrap();
            for (_, nodes) in out.groups() {
                for w in nodes.windows(2) {
                    prop_assert!(
                        store.order_key(w[0]).unwrap() < store.order_key(w[1]).unwrap(),
                        "axis {} output not strictly document-ordered",
                        axis.as_str()
                    );
                }
            }
        }
    }

    /// A named element test on `descendant`/`descendant-or-self` is
    /// answered from the element-name index. Whatever the context looks
    /// like — several iterations, nested and repeated nodes in any order,
    /// attribute nodes — the result is the `is_ancestor` definition, and
    /// a same-named processing instruction or an absent name adds nothing.
    #[test]
    fn named_descendant_steps_equal_the_ancestor_oracle(
        walk in prop::collection::vec(any::<u8>(), 0..160),
        picks in prop::collection::vec((0u32..4, any::<u16>(), any::<bool>()), 1..16),
        name_pick in 0usize..4,
    ) {
        let doc = build_named_tree(&walk);
        let n = doc.node_count() as u32;
        let attrs = doc.attr_count() as u32;
        let mut store = Store::new();
        let doc_id = DocId(0);
        store.add(doc, None);
        let doc = store.doc(doc_id);

        // Grouped by iteration only: order and duplicates within a group
        // are the step's problem.
        let mut rows: Vec<(u32, NodeRef)> = picks
            .iter()
            .map(|&(iter, pick, as_attr)| {
                let node = if as_attr {
                    NodeRef::new(doc_id, NodeId::attr(pick as u32 % attrs))
                } else {
                    NodeRef::tree(doc_id, pick as u32 % n)
                };
                (iter, node)
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        let table = NodeTable::from_columns(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
        );

        let name = ["a", "b", "c", "zzz"][name_pick];
        for axis in [TreeAxis::Descendant, TreeAxis::DescendantOrSelf] {
            let out = ll_step(&store, &table, axis, &NodeTest::named(name)).unwrap();
            for iter in 0..4u32 {
                let ctx: Vec<u32> = rows
                    .iter()
                    .filter(|r| r.0 == iter)
                    .filter_map(|r| r.1.id.pre())
                    .collect();
                let expected: Vec<u32> = (0..n)
                    .filter(|&v| {
                        doc.kind(v) == NodeKind::Element
                            && doc.names().lexical(doc.name_id(v)) == name
                            && ctx.iter().any(|&c| {
                                doc.tree().unwrap().is_ancestor(c, v)
                                    || (axis == TreeAxis::DescendantOrSelf && c == v)
                            })
                    })
                    .collect();
                let got: Vec<u32> = out
                    .group(iter)
                    .iter()
                    .map(|r| r.id.pre().unwrap())
                    .collect();
                prop_assert_eq!(
                    &got, &expected,
                    "{}::{} iteration {} of {:?}", axis.as_str(), name, iter, rows
                );
            }
        }
    }
}
