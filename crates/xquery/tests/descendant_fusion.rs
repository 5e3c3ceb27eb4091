//! `//T[p…]` fusion: the optimizer may turn
//! `descendant-or-self::node()/child::T[p…]` into `descendant::T[p…]`
//! only when no predicate can be positional. Every case here is checked
//! twice: the plan keeps (or drops) the literal two-step form as stated,
//! and the answer equals a hand-written oracle that walks the parsed
//! document parent by parent — it shares nothing with the engine's path
//! evaluation, so a wrong rewrite *and* a wrong positional evaluation
//! both show.

use standoff_algebra::Item;
use standoff_xml::{parse_document, Document, NodeId, NodeKind};
use standoff_xquery::{Engine, QueryResult};

/// `x` elements under three different parents, one of them nested, so
/// "first `x` of its parent" and "first `x` in the document" differ.
/// `n` numbers them in document order; `k` and the `y` children feed the
/// value predicates.
const FIXTURE: &str = concat!(
    r#"<r>"#,
    r#"<p><x n="1" k="a"><y/></x><x n="2" k="b"><y/></x><x n="3" k="a"/></p>"#,
    r#"<p><x n="4" k="b"/>"#,
    r#"<q><x n="5" k="a"><y/><y/></x><x n="6" k="b"><y/><y/></x><x n="7" k="ab"/></q>"#,
    r#"</p>"#,
    r#"<x n="8" k="a"/>"#,
    r#"</r>"#
);

fn engine() -> Engine {
    let mut e = Engine::new();
    e.load_document("f", FIXTURE).unwrap();
    e
}

/// The `n` attributes of the element nodes a query returned, in order.
fn ns(e: &Engine, result: &QueryResult) -> Vec<String> {
    let doc = e.store().doc(e.store().by_uri("f").unwrap());
    result
        .items()
        .iter()
        .map(|item| match item {
            Item::Node(n) => doc.attribute(n.id.pre().unwrap(), "n").unwrap().to_string(),
            other => panic!("expected nodes, got {other}"),
        })
        .collect()
}

fn answer(e: &mut Engine, q: &str) -> Vec<String> {
    let result = e
        .run(q)
        .unwrap_or_else(|err| panic!("query failed: {err}\n{q}"));
    ns(e, &result)
}

// ---- the oracle ----

/// One predicate of a chain: `(position, last, document, x pre) → keep`.
type Pred = Box<dyn Fn(usize, usize, &Document, u32) -> bool>;

fn k(doc: &Document, x: u32) -> &str {
    doc.attribute(x, "k").unwrap()
}

fn ys(doc: &Document, x: u32) -> usize {
    doc.children(x)
        .filter(|&c| doc.node_name(NodeId::tree(c)) == "y")
        .count()
}

/// `//x[p1][p2]…` from its definition: for every node of the document,
/// its `x` children in order, filtered predicate by predicate with
/// positions renumbered after each; the union in document order.
fn per_parent(chain: &[Pred]) -> Vec<String> {
    let doc = parse_document(FIXTURE).unwrap();
    let mut picked: Vec<u32> = Vec::new();
    for parent in 0..doc.node_count() as u32 {
        let mut kids: Vec<u32> = doc
            .children(parent)
            .filter(|&c| doc.kind(c) == NodeKind::Element && doc.node_name(NodeId::tree(c)) == "x")
            .collect();
        for pred in chain {
            let last = kids.len();
            kids = kids
                .iter()
                .enumerate()
                .filter(|&(i, &c)| pred(i + 1, last, &doc, c))
                .map(|(_, &c)| c)
                .collect();
        }
        picked.extend(kids);
    }
    picked.sort_unstable();
    picked.dedup();
    picked
        .iter()
        .map(|&c| doc.attribute(c, "n").unwrap().to_string())
        .collect()
}

fn pred(f: impl Fn(usize, usize, &Document, u32) -> bool + 'static) -> Pred {
    Box::new(f)
}

fn is_literal(plan: &str) -> bool {
    plan.contains("step child::x") && plan.contains("step descendant-or-self::anykind()")
}

fn is_fused(plan: &str) -> bool {
    plan.contains("step descendant::x") && !plan.contains("descendant-or-self")
}

// ---- positional: literal form, per-parent answer ----

#[test]
fn positional_predicates_keep_the_literal_form() {
    let cases: Vec<(&str, Vec<Pred>)> = vec![
        (r#"doc("f")//x[1]"#, vec![pred(|pos, _, _, _| pos == 1)]),
        (
            r#"doc("f")//x[last()]"#,
            vec![pred(|pos, last, _, _| pos == last)],
        ),
        (
            r#"doc("f")//x[position() < 3]"#,
            vec![pred(|pos, _, _, _| pos < 3)],
        ),
        (
            r#"let $n := 2 return doc("f")//x[$n]"#,
            vec![pred(|pos, _, _, _| pos == 2)],
        ),
        // Folded to the constant 2 before the fusion pass looks.
        (r#"doc("f")//x[1 + 1]"#, vec![pred(|pos, _, _, _| pos == 2)]),
        // Not provably boolean or node-valued: a number selects by
        // position, so these keep the literal form as well.
        (
            r#"doc("f")//x[count(y)]"#,
            vec![pred(|pos, _, d, x| pos == ys(d, x))],
        ),
        (
            r#"doc("f")//x[string-length(@k)]"#,
            vec![pred(|pos, _, d, x| pos == k(d, x).len())],
        ),
        // One positional predicate anywhere in the chain is enough.
        (
            r#"doc("f")//x[@k = "a"][1]"#,
            vec![
                pred(|_, _, d, x| k(d, x) == "a"),
                pred(|pos, _, _, _| pos == 1),
            ],
        ),
        (
            r#"doc("f")//x[position() > 1][@k = "b"]"#,
            vec![
                pred(|pos, _, _, _| pos > 1),
                pred(|_, _, d, x| k(d, x) == "b"),
            ],
        ),
        // `position()` mentioned anywhere — even scoped to an inner step,
        // where it is harmless — conservatively blocks the rewrite.
        (
            r#"doc("f")//x[y[position() = 2]]"#,
            vec![pred(|_, _, d, x| ys(d, x) >= 2)],
        ),
    ];
    let mut e = engine();
    for (query, chain) in cases {
        let plan = e.explain(query).unwrap();
        assert!(
            is_literal(&plan),
            "{query} must keep the two-step form:\n{plan}"
        );
        assert_eq!(answer(&mut e, query), per_parent(&chain), "{query}");
    }
}

#[test]
fn numeric_external_variable_is_positional() {
    let mut e = engine();
    e.bind_external_integer("n", 3);
    let query = r#"declare variable $n external; doc("f")//x[$n]"#;
    assert!(is_literal(&e.explain(query).unwrap()));
    assert_eq!(
        answer(&mut e, query),
        per_parent(&[pred(|pos, _, _, _| pos == 3)])
    );
}

#[test]
fn double_slash_first_is_not_descendant_first() {
    let mut e = engine();
    let per_parent_first = answer(&mut e, r#"doc("f")//x[1]"#);
    let subtree_first = answer(&mut e, r#"doc("f")/descendant::x[1]"#);
    assert_eq!(
        per_parent_first,
        ["1", "4", "5", "8"],
        "first x of each parent"
    );
    assert_eq!(subtree_first, ["1"], "first x below the document node");
    assert_ne!(per_parent_first, subtree_first);
    // The explicit descendant step with a position stays what was written.
    let plan = e.explain(r#"doc("f")/descendant::x[1]"#).unwrap();
    assert!(is_fused(&plan), "{plan}");
}

/// The per-context numbering must also hold inside a loop, where each
/// iteration's `//` prefix fans one context node out to many, and a
/// predicate may read the loop variable through the intermediate scope.
#[test]
fn positions_count_per_parent_inside_loops() {
    let mut e = engine();
    assert_eq!(
        answer(&mut e, r#"for $p in doc("f")//p return $p//x[1]"#),
        ["1", "4", "5"]
    );
    for key in ["a", "b"] {
        let query = format!(r#"for $k in ("{key}") return doc("f")//x[@k = $k][1]"#);
        let want = per_parent(&[
            pred(move |_, _, d, x| k(d, x) == key),
            pred(|pos, _, _, _| pos == 1),
        ]);
        assert_eq!(answer(&mut e, &query), want, "{query}");
    }
}

// ---- provably non-positional: fused, same answer ----

#[test]
fn value_predicates_fuse_and_agree_with_the_oracle() {
    let cases: Vec<(&str, Vec<Pred>)> = vec![
        (r#"doc("f")//x"#, vec![]),
        (r#"doc("f")//x[true()]"#, vec![]),
        (
            r#"doc("f")//x[@k = "a"]"#,
            vec![pred(|_, _, d, x| k(d, x) == "a")],
        ),
        (
            r#"doc("f")//x[@k = "a" and y]"#,
            vec![pred(|_, _, d, x| k(d, x) == "a" && ys(d, x) > 0)],
        ),
        (
            r#"doc("f")//x[@k = "b" or y]"#,
            vec![pred(|_, _, d, x| k(d, x) == "b" || ys(d, x) > 0)],
        ),
        (r#"doc("f")//x[y]"#, vec![pred(|_, _, d, x| ys(d, x) > 0)]),
        (
            r#"doc("f")//x[not(y)]"#,
            vec![pred(|_, _, d, x| ys(d, x) == 0)],
        ),
        (
            r#"doc("f")//x[exists(y)]"#,
            vec![pred(|_, _, d, x| ys(d, x) > 0)],
        ),
        (
            r#"doc("f")//x[empty(y)]"#,
            vec![pred(|_, _, d, x| ys(d, x) == 0)],
        ),
        (
            r#"doc("f")//x[boolean(y)]"#,
            vec![pred(|_, _, d, x| ys(d, x) > 0)],
        ),
        (
            r#"doc("f")//x[contains(@k, "b")]"#,
            vec![pred(|_, _, d, x| k(d, x).contains('b'))],
        ),
        (
            r#"doc("f")//x[starts-with(@k, "a")]"#,
            vec![pred(|_, _, d, x| k(d, x).starts_with('a'))],
        ),
        (
            r#"doc("f")//x[@k = "a"][y]"#,
            vec![
                pred(|_, _, d, x| k(d, x) == "a"),
                pred(|_, _, d, x| ys(d, x) > 0),
            ],
        ),
        // A nested step's own position is that step's business.
        (
            r#"doc("f")//x[y[2]]"#,
            vec![pred(|_, _, d, x| ys(d, x) >= 2)],
        ),
    ];
    let mut e = engine();
    for (query, chain) in cases {
        let plan = e.explain(query).unwrap();
        assert!(is_fused(&plan), "{query} must fuse:\n{plan}");
        let want = per_parent(&chain);
        assert_eq!(answer(&mut e, query), want, "{query}");
        // The unoptimized plan, literal two steps, is the same query.
        let literal = e.run_unoptimized(query).unwrap();
        assert_eq!(ns(&e, &literal), want, "unoptimized {query}");
    }
}

/// The rewrite fires for any node test on the child step; only a named
/// element test is then answered from the name index.
#[test]
fn kind_tests_fuse_without_the_index_tag() {
    let mut e = engine();
    for (query, step, want) in [
        (r#"count(doc("f")//*)"#, "descendant::*", 18),
        (r#"count(doc("f")//node())"#, "descendant::anykind()", 18),
        (r#"count(doc("f")//text())"#, "descendant::text()", 0),
    ] {
        let plan = e.explain(query).unwrap();
        assert!(plan.contains(&format!("step {step}  [")), "{plan}");
        assert!(!plan.contains("descendant-or-self"), "{plan}");
        assert!(!plan.contains("element-name index"), "{plan}");
        assert_eq!(e.run(query).unwrap().as_strings(), [want.to_string()]);
    }
    // `//@k` is an attribute step below the prefix: nothing to fuse.
    let plan = e.explain(r#"doc("f")//@k"#).unwrap();
    assert!(plan.contains("descendant-or-self"), "{plan}");
}
