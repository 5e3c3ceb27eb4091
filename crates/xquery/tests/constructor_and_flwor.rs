//! Deeper evaluator coverage: constructors with attribute-node content
//! (and the errors that content can raise), multi-key ordering,
//! positional variables under restriction, positional predicates picked
//! by rank, and path expressions with non-step right-hand sides.

use proptest::prelude::*;
use standoff_xquery::{Engine, QueryError};

fn run(e: &mut Engine, q: &str) -> Vec<String> {
    e.run(q)
        .unwrap_or_else(|err| panic!("query failed: {err}\n{q}"))
        .as_strings()
        .to_vec()
}

#[test]
fn attribute_nodes_in_constructor_become_attributes() {
    let mut e = Engine::new();
    e.load_document("d.xml", r#"<d><p id="p1" role="admin"/></d>"#)
        .unwrap();
    let r = e.run(r#"<copy>{ doc("d.xml")//p/@id }</copy>"#).unwrap();
    assert_eq!(r.as_xml(), r#"<copy id="p1"/>"#);
    // Multiple attributes, then element content.
    let r = e
        .run(r#"<copy>{ doc("d.xml")//p/@id }{ doc("d.xml")//p/@role }<inner/></copy>"#)
        .unwrap();
    assert_eq!(r.as_xml(), r#"<copy id="p1" role="admin"><inner/></copy>"#);
}

#[test]
fn deep_node_copy_into_constructor() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><tree a="1">text<leaf b="2"/><!--c--><?p i?></tree></d>"#,
    )
    .unwrap();
    let r = e.run(r#"<wrap>{ doc("d.xml")//tree }</wrap>"#).unwrap();
    assert_eq!(
        r.as_xml(),
        r#"<wrap><tree a="1">text<leaf b="2"/><!--c--><?p i?></tree></wrap>"#
    );
}

#[test]
fn document_node_content_copies_children() {
    let mut e = Engine::new();
    e.load_document("d.xml", "<root><x/></root>").unwrap();
    let r = e.run(r#"<wrap>{ doc("d.xml") }</wrap>"#).unwrap();
    assert_eq!(r.as_xml(), "<wrap><root><x/></root></wrap>");
}

#[test]
fn multi_key_order_by() {
    let mut e = Engine::new();
    let q = r#"
        for $p in (
            <p a="2" b="x"/>, <p a="1" b="y"/>, <p a="2" b="a"/>, <p a="1" b="b"/>
        )
        order by $p/@a, $p/@b descending
        return concat($p/@a, $p/@b)"#;
    assert_eq!(run(&mut e, q), ["1y", "1b", "2x", "2a"]);
}

#[test]
fn order_by_with_empty_keys() {
    let mut e = Engine::new();
    let q = r#"
        for $p in (<p/>, <p k="1"/>, <p k="0"/>)
        order by $p/@k
        return count($p/@k)"#;
    // Empty key sorts least: the key-less element first.
    assert_eq!(run(&mut e, q), ["0", "1", "1"]);
}

#[test]
fn positional_variable_with_where() {
    let mut e = Engine::new();
    let q = r#"
        for $x at $i in ("a", "b", "c", "d")
        where $i mod 2 = 0
        return concat($i, $x)"#;
    assert_eq!(run(&mut e, q), ["2b", "4d"]);
}

#[test]
fn nested_flwor_with_let_of_sequences() {
    let mut e = Engine::new();
    let q = r#"
        for $x in (1, 2)
        let $ys := for $y in (10, 20) return $x * $y
        return sum($ys)"#;
    assert_eq!(run(&mut e, q), ["30", "60"]);
}

/// A FLWOR without `order by` relabels its body's rows into the host
/// numbering: every case here must read the same optimized, where
/// loop-invariant bindings are hoisted, and unoptimized.
fn run_both(e: &mut Engine, q: &str) -> Vec<String> {
    let optimized = run(e, q);
    let plain = e.run_unoptimized(q).unwrap().as_strings().to_vec();
    assert_eq!(optimized, plain, "{q}");
    optimized
}

#[test]
fn nested_flwors_with_where_restrict_their_scopes() {
    let mut e = Engine::new();
    let q = r#"
        for $x in (1, 2, 3, 4)
        where $x mod 2 = 0
        return for $y in (10, 20, 30) where $y > $x * 5 return $x + $y"#;
    assert_eq!(run_both(&mut e, q), ["22", "32", "34"]);
    let q = r#"
        for $x in (1, 2, 3)
        return (for $y in (1, 2, 3) where $y >= $x return $y, "|")"#;
    assert_eq!(
        run_both(&mut e, q),
        ["1", "2", "3", "|", "2", "3", "|", "3", "|"]
    );
    // Three levels, the middle one restricted, inside an outer `where`.
    let q = r#"
        for $a in (1, 2, 3)
        where $a != 2
        return for $b in (1, 2, 3)
               where $b != $a
               return for $c in ("x", "y") return concat($a, $b, $c)"#;
    assert_eq!(
        run_both(&mut e, q),
        ["12x", "12y", "13x", "13y", "31x", "31y", "32x", "32y"]
    );
}

#[test]
fn hoisted_bindings_relabel_with_the_body() {
    let mut e = Engine::new();
    e.load_document("d.xml", r#"<d><p n="1"/><p n="2"/><p n="3"/></d>"#)
        .unwrap();
    let q = r#"for $x in (1, 2, 3) where $x > 1 return count(doc("d.xml")//p) + $x"#;
    assert!(e.explain(q).unwrap().contains("hoisted"), "{q}");
    assert_eq!(run_both(&mut e, q), ["5", "6"]);
    let q = r#"
        for $x in (1, 2)
        return for $y in (1, 2, 3)
               where $y != $x
               return (doc("d.xml")//p[@n = $y]/@n, count(doc("d.xml")//p))"#;
    assert_eq!(
        run_both(&mut e, q),
        ["2", "3", "3", "3", "1", "3", "3", "3"]
    );
}

#[test]
fn empty_iterations_return_nothing_in_place() {
    let mut e = Engine::new();
    let q = r#"for $x in (1, 2, 3, 4) return if ($x mod 2 = 0) then () else ($x, $x * 10)"#;
    assert_eq!(run_both(&mut e, q), ["1", "10", "3", "30"]);
    let q = r#"for $x in (1, 2, 3) return for $y in () return $y"#;
    assert!(run_both(&mut e, q).is_empty());
    let q = r#"for $x in (1, 2) where $x > 5 return $x"#;
    assert!(run_both(&mut e, q).is_empty());
    let q = r#"count(for $x in (1, 2, 3) return ())"#;
    assert_eq!(run_both(&mut e, q), ["0"]);
    let q = r#"for $x in (1, 2, 3) return (for $y in (1 to $x) where $y > 1 return $y, "/")"#;
    assert_eq!(run_both(&mut e, q), ["/", "2", "/", "2", "3", "/"]);
}

#[test]
fn order_by_still_reorders_within_each_host_iteration() {
    let mut e = Engine::new();
    let q = r#"for $x in (3, 1, 2) order by $x return $x"#;
    assert_eq!(run_both(&mut e, q), ["1", "2", "3"]);
    let q = r#"
        for $g in (1, 2)
        return for $x in (3, 1, 2) where $x != $g order by $x descending return $g * 10 + $x"#;
    assert_eq!(run_both(&mut e, q), ["13", "12", "23", "21"]);
}

#[test]
fn path_expr_with_function_rhs() {
    let mut e = Engine::new();
    e.load_document("d.xml", "<d><x>alpha</x><x>be</x></d>")
        .unwrap();
    // rhs is a general expression evaluated with `.` bound per node.
    let q = r#"doc("d.xml")//x/string-length(.)"#;
    assert_eq!(run(&mut e, q), ["5", "2"]);
}

#[test]
fn predicates_with_last_and_arithmetic() {
    let mut e = Engine::new();
    e.load_document("d.xml", "<d><x/><x/><x/><x/></d>").unwrap();
    assert_eq!(run(&mut e, r#"count(doc("d.xml")//x[last()])"#), ["1"]);
    assert_eq!(
        run(&mut e, r#"count(doc("d.xml")//x[position() = last() - 1])"#),
        ["1"]
    );
    assert_eq!(
        run(
            &mut e,
            r#"count(doc("d.xml")//x[position() > 1][position() < 3])"#
        ),
        ["2"],
        "stacked predicates renumber positions: x2..x4 then first two"
    );
}

#[test]
fn filter_on_sequence_with_predicate_chain() {
    let mut e = Engine::new();
    assert_eq!(run(&mut e, "(11 to 20)[. mod 3 = 0]"), ["12", "15", "18"]);
    assert_eq!(run(&mut e, "(11 to 20)[3]"), ["13"]);
    assert_eq!(run(&mut e, "((11 to 20)[. mod 3 = 0])[last()]"), ["18"]);
}

#[test]
fn constructor_attribute_value_joins_sequence() {
    let mut e = Engine::new();
    let r = e.run(r#"<r v="{ (1, 2, 3) }"/>"#).unwrap();
    assert_eq!(r.as_xml(), r#"<r v="1 2 3"/>"#);
    let r = e.run(r#"<r v="a{ 1 + 1 }b"/>"#).unwrap();
    assert_eq!(r.as_xml(), r#"<r v="a2b"/>"#);
}

#[test]
fn serialize_builtin() {
    let mut e = Engine::new();
    e.load_document("d.xml", "<d><x a='1'/></d>").unwrap();
    assert_eq!(
        run(&mut e, r#"serialize(doc("d.xml")//x)"#),
        [r#"<x a="1"/>"#]
    );
}

#[test]
fn distinct_values_numeric_coercion() {
    let mut e = Engine::new();
    // 1 and 1.0 compare equal under general comparison.
    assert_eq!(run(&mut e, "count(distinct-values((1, 1.0, 2)))"), ["2"]);
}

#[test]
fn constructed_nodes_are_queryable() {
    let mut e = Engine::new();
    // Navigate into freshly constructed elements.
    let q = r#"
        let $doc := <shots><shot len="8"/><shot len="56"/></shots>
        return sum($doc/shot/@len)"#;
    assert_eq!(run(&mut e, q), ["64"]);
}

#[test]
fn standoff_join_on_constructed_document() {
    let mut e = Engine::new();
    // Constructed elements carry start/end attributes: the joins work on
    // them too (a fresh region index is built for the constructed doc).
    let q = r#"
        let $d := <track>
                    <span id="host" start="0" end="9"/>
                    <span id="in" start="2" end="5"/>
                  </track>
        return $d/span[@id = "host"]/select-narrow::span/@id"#;
    assert_eq!(run(&mut e, q), ["host", "in"]);
}

/// An attribute node after other content of a constructed element is a
/// type error (XQTY0024), not a builder panic.
#[test]
fn attribute_after_content_is_xqty0024() {
    let mut e = Engine::new();
    e.load_document("x", r#"<entities><entity kind="seed"/></entities>"#)
        .unwrap();
    for q in [
        r#"<a>{"x"}{doc("x")/entities/entity[1]/@kind}</a>"#,
        r#"<a><b/>{doc("x")//entity/@kind}</a>"#,
        r#"<a>text{doc("x")//entity/@kind}</a>"#,
    ] {
        match e.run(q) {
            Err(QueryError::Dynamic(m)) => {
                assert!(
                    m.contains("type error") && m.contains("XQTY0024"),
                    "{q}: {m}"
                )
            }
            other => panic!("{q}: expected a type error, got {other:?}"),
        }
    }
    // Before any other content the attribute still joins the element.
    assert_eq!(
        e.run(r#"<a>{doc("x")//entity/@kind}{"x"}</a>"#)
            .unwrap()
            .as_xml(),
        r#"<a kind="seed">x</a>"#
    );
}

/// Two attributes of one name on a constructed element are a dynamic
/// error (XQDY0025) — copied twice, or a literal one copied again —
/// never markup with a repeated attribute.
#[test]
fn duplicate_attribute_is_xqdy0025() {
    let mut e = Engine::new();
    e.load_document("x", r#"<entities><entity kind="seed" id="e1"/></entities>"#)
        .unwrap();
    for q in [
        r#"let $e := doc("x")//entity return <a>{$e/@kind, $e/@kind}</a>"#,
        r#"<a kind="lit">{doc("x")//entity/@kind}</a>"#,
        r#"for $i in (1, 2) return <a>{doc("x")//entity/@*}{doc("x")//entity/@id}</a>"#,
    ] {
        match e.run(q) {
            Err(QueryError::Dynamic(m)) => assert!(m.contains("XQDY0025"), "{q}: {m}"),
            other => panic!("{q}: expected XQDY0025, got {other:?}"),
        }
    }
    assert_eq!(
        e.run(r#"<a id="x">{doc("x")//entity/@kind}</a>"#)
            .unwrap()
            .as_xml(),
        r#"<a id="x" kind="seed"/>"#
    );
}

/// `<d>` with a `<p>` per group holding its `<x>` children, each
/// element carrying a region; plus top-level `<x>`s.
fn rank_doc(groups: &[Vec<(i64, i64)>], loose: &[(i64, i64)]) -> String {
    let mut xml = String::from("<d>");
    for (k, group) in groups.iter().enumerate() {
        let lo = group.iter().map(|r| r.0).min().unwrap_or(0);
        let hi = group.iter().map(|r| r.0 + r.1).max().unwrap_or(0);
        xml.push_str(&format!(r#"<p n="{k}" start="{lo}" end="{hi}">"#));
        for (j, &(start, len)) in group.iter().enumerate() {
            let end = start + len;
            xml.push_str(&format!(r#"<x n="{k}.{j}" start="{start}" end="{end}"/>"#));
        }
        xml.push_str("</p>");
    }
    for (j, &(start, len)) in loose.iter().enumerate() {
        let end = start + len;
        xml.push_str(&format!(r#"<x n="l{j}" start="{start}" end="{end}"/>"#));
    }
    xml.push_str("</d>");
    xml
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A pick by rank (`[k]`, `[last()]`) answers what the generic
    /// predicate scope answers for `[position() = k]` and
    /// `[position() = last()]`, over tree steps, StandOff steps,
    /// filtered sequences and per-iteration tables.
    #[test]
    fn rank_predicates_match_the_generic_scope(
        groups in prop::collection::vec(prop::collection::vec((0i64..60, 0i64..20), 0..5), 0..5),
        loose in prop::collection::vec((0i64..60, 0i64..20), 0..6),
        k in 0i64..5,
    ) {
        let mut e = Engine::new();
        e.load_document("d.xml", &rank_doc(&groups, &loose)).unwrap();
        let paths = [
            r#"doc("d.xml")//p/x{}"#,
            r#"doc("d.xml")//x{}"#,
            r#"(doc("d.xml")//x){}"#,
            r#"doc("d.xml")//p/select-narrow::x{}"#,
            r#"doc("d.xml")//p/select-wide::x{}"#,
            r#"doc("d.xml")//p/reject-narrow::x{}"#,
            r#"for $p in doc("d.xml")//p return $p/select-wide::x{}"#,
            r#"for $p in doc("d.xml")//p return ($p/x){}"#,
            r#"for $p in doc("d.xml")//p return (1 to count($p/x)){}"#,
        ];
        let pairs = [
            (format!("[{k}]"), format!("[position() = {k}]")),
            ("[last()]".to_string(), "[position() = last()]".to_string()),
        ];
        for path in paths {
            for (rank, generic) in &pairs {
                let fast = path.replace("{}", rank);
                let slow = path.replace("{}", generic);
                let a = e.run(&fast).unwrap();
                let b = e.run(&slow).unwrap();
                prop_assert_eq!(a.as_xml(), b.as_xml(), "{} vs {}", fast, slow);
            }
        }
    }
}
