//! StandOff-specific engine semantics: fragment partitioning, the
//! configurable representation through the full query path, strategy
//! equivalence on adversarial region layouts, and the built-in function
//! forms.

use standoff_core::StandoffStrategy;
use standoff_xquery::{Engine, EngineOptions};

/// Two documents with identical structure: joins must never match across
/// fragments (§3.2: "only return matches from the same XML fragment").
#[test]
fn joins_respect_fragment_boundaries() {
    let mut e = Engine::new();
    e.load_document(
        "a.xml",
        r#"<d><big start="0" end="100"/><x id="ax" start="10" end="20"/></d>"#,
    )
    .unwrap();
    e.load_document(
        "b.xml",
        r#"<d><big start="0" end="100"/><x id="bx" start="10" end="20"/></d>"#,
    )
    .unwrap();
    // Context from document a only: must select only a's x.
    let r = e.run(r#"doc("a.xml")//big/select-narrow::x/@id"#).unwrap();
    assert_eq!(r.as_strings(), ["ax"]);
    // Context from both: each fragment contributes its own matches.
    let r = e
        .run(r#"(doc("a.xml")//big | doc("b.xml")//big)/select-narrow::x/@id"#)
        .unwrap();
    assert_eq!(r.as_strings(), ["ax", "bx"]);
    // Function form with candidates from the *other* document: no
    // matches — root($p) differs from root($q).
    let r = e
        .run(r#"select-narrow(doc("a.xml")//big, doc("b.xml")//x)"#)
        .unwrap();
    assert!(r.is_empty());
}

/// Rejects complement per fragment: an empty-selection context still
/// rejects all candidates *of its own fragment* only.
#[test]
fn reject_domain_is_per_fragment() {
    let mut e = Engine::new();
    e.load_document(
        "a.xml",
        r#"<d><big start="0" end="5"/><x id="ax" start="50" end="60"/></d>"#,
    )
    .unwrap();
    e.load_document(
        "b.xml",
        r#"<d><big start="0" end="5"/><x id="bx" start="50" end="60"/></d>"#,
    )
    .unwrap();
    let r = e.run(r#"doc("a.xml")//big/reject-narrow::x/@id"#).unwrap();
    assert_eq!(r.as_strings(), ["ax"], "only fragment a's candidates");
}

/// The same query under all strategies on a layout full of edge cases:
/// identical regions, shared endpoints, fully nested chains, zero-width
/// regions.
#[test]
fn adversarial_layout_strategy_equivalence() {
    let doc = r#"<d>
        <c id="c1" start="0" end="100"/>
        <c id="c2" start="0" end="100"/>
        <c id="c3" start="10" end="10"/>
        <t id="t1" start="0" end="100"/>
        <t id="t2" start="100" end="100"/>
        <t id="t3" start="0" end="0"/>
        <t id="t4" start="10" end="10"/>
        <t id="t5" start="99" end="101"/>
    </d>"#;
    let mut reference: Option<Vec<Vec<String>>> = None;
    for strategy in StandoffStrategy::ALL {
        let mut e = Engine::with_options(EngineOptions {
            strategy,
            ..Default::default()
        });
        e.load_document("d.xml", doc).unwrap();
        let mut results = Vec::new();
        for axis in [
            "select-narrow",
            "select-wide",
            "reject-narrow",
            "reject-wide",
        ] {
            let r = e.run(&format!(r#"doc("d.xml")//c/{axis}::t/@id"#)).unwrap();
            results.push(r.as_strings().to_vec());
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(&results, r, "strategy {strategy} diverges"),
        }
    }
    let r = reference.unwrap();
    // Sanity anchors: t1 equals c1/c2 exactly → contained; t5 straddles
    // the end → overlap only; t3 at position 0 is inside [0,100].
    assert!(r[0].contains(&"t1".to_string()), "narrow: {:?}", r[0]);
    assert!(r[0].contains(&"t3".to_string()));
    assert!(!r[0].contains(&"t5".to_string()));
    assert!(r[1].contains(&"t5".to_string()), "wide: {:?}", r[1]);
    assert!(r[3].is_empty(), "everything overlaps some c: {:?}", r[3]);
}

/// A context annotation that satisfies its own name test selects itself
/// under select-narrow (contains is reflexive) — the subtle difference
/// from the descendant axis.
#[test]
fn select_narrow_is_reflexive_unlike_descendant() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><w id="outer" start="0" end="10"/><w id="inner" start="2" end="8"/></d>"#,
    )
    .unwrap();
    let r = e
        .run(r#"doc("d.xml")//w[@id = "outer"]/select-narrow::w/@id"#)
        .unwrap();
    assert_eq!(
        r.as_strings(),
        ["outer", "inner"],
        "self is contained in self"
    );
}

/// Custom names and the element representation, end to end with rejects.
#[test]
fn element_representation_with_custom_names() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        "<d>\
           <span id=\"host\"><piece><from>0</from><upto>9</upto></piece>\
                             <piece><from>20</from><upto>29</upto></piece></span>\
           <span id=\"in1\"><piece><from>2</from><upto>4</upto></piece></span>\
           <span id=\"split\"><piece><from>5</from><upto>7</upto></piece>\
                              <piece><from>22</from><upto>24</upto></piece></span>\
           <span id=\"gap\"><piece><from>12</from><upto>15</upto></piece></span>\
           <span id=\"partial\"><piece><from>8</from><upto>21</upto></piece></span>\
         </d>",
    )
    .unwrap();
    let prolog = r#"
        declare option standoff-region "piece";
        declare option standoff-start "from";
        declare option standoff-end "upto";
    "#;
    let narrow = e
        .run(&format!(
            r#"{prolog} doc("d.xml")//span[@id = "host"]/select-narrow::span/@id"#
        ))
        .unwrap();
    assert_eq!(narrow.as_strings(), ["host", "in1", "split"]);
    let wide = e
        .run(&format!(
            r#"{prolog} doc("d.xml")//span[@id = "host"]/select-wide::span/@id"#
        ))
        .unwrap();
    assert_eq!(wide.as_strings(), ["host", "in1", "split", "partial"]);
    let reject_wide = e
        .run(&format!(
            r#"{prolog} doc("d.xml")//span[@id = "host"]/reject-wide::span/@id"#
        ))
        .unwrap();
    assert_eq!(reject_wide.as_strings(), ["gap"]);
}

/// Malformed annotations: strict mode fails the query, lenient mode
/// skips them.
#[test]
fn strict_vs_lenient_annotation_errors() {
    let xml = r#"<d><ok start="0" end="9"/><bad start="5"/></d>"#;
    let mut e = Engine::new();
    e.load_document("d.xml", xml).unwrap();
    let err = e.run(r#"doc("d.xml")//ok/select-wide::*"#).unwrap_err();
    assert!(err.to_string().contains("only one of"), "{err}");
    let ok = e
        .run(r#"declare option standoff-lenient "true"; doc("d.xml")//ok/select-wide::*"#)
        .unwrap();
    assert_eq!(ok.len(), 1, "the ok annotation overlaps itself");
}

/// The region index is cached per (document, configuration): two
/// configurations on the same document see different annotations.
#[test]
fn per_configuration_indices() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><a start="0" end="10" from="90" to="95"/>
              <b start="2" end="8"/><b from="91" to="93"/></d>"#,
    )
    .unwrap();
    // Default names: a [0,10] contains the first b [2,8].
    let r = e.run(r#"count(doc("d.xml")//a/select-narrow::b)"#).unwrap();
    assert_eq!(r.as_strings(), ["1"]);
    // Alternate names: a [90,95] contains the second b [91,93].
    let r = e
        .run(
            r#"declare option standoff-start "from";
               declare option standoff-end "to";
               count(doc("d.xml")//a/select-narrow::b)"#,
        )
        .unwrap();
    assert_eq!(r.as_strings(), ["1"]);
}

/// Wildcard standoff steps (no name test → no candidate pushdown) work
/// and match the restricted form unioned over names.
#[test]
fn wildcard_standoff_step() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><big start="0" end="50"/><p start="5" end="9"/><q start="20" end="30"/></d>"#,
    )
    .unwrap();
    let all = e
        .run(r#"for $n in doc("d.xml")//big/select-narrow::* return name($n)"#)
        .unwrap();
    assert_eq!(all.as_strings(), ["big", "p", "q"]);
}

/// Standoff steps from an attribute-node context use the owner element's
/// annotation (attributes pin the fragment but have no regions).
#[test]
fn attribute_context_contributes_owner() {
    let mut e = Engine::new();
    e.load_document(
        "d.xml",
        r#"<d><big id="B" start="0" end="50"/><p start="5" end="9"/></d>"#,
    )
    .unwrap();
    let r = e
        .run(r#"count(doc("d.xml")//big/@id/select-narrow::p)"#)
        .unwrap();
    assert_eq!(r.as_strings(), ["1"]);
}

/// A StandOff step is a join over each iteration's whole context
/// *sequence* (§3.1; `reject-*` is the anti-join of that sequence), so a
/// positional predicate on it counts within the iteration's join result
/// — not per context node, as on a tree step. Per context node takes a
/// `for` around the step.
#[test]
fn positional_predicates_count_within_the_iterations_join_result() {
    let mut e = Engine::new();
    e.load_document(
        "d",
        r#"<d><p start="0" end="9"/><p start="20" end="29"/>
             <w start="1" end="2"/><w start="3" end="4"/>
             <w start="21" end="22"/><w start="23" end="24"/>
             <w start="40" end="41"/><w start="50" end="51"/></d>"#,
    )
    .unwrap();
    let starts = |e: &mut Engine, steps: &str| {
        let query = format!(r#"for $w in {steps} return string($w/@start)"#);
        e.run(&query).unwrap().as_strings().to_vec()
    };
    for strategy in StandoffStrategy::ALL {
        e.set_strategy(strategy);
        let narrow = r#"doc("d")//p/select-narrow::w"#;
        assert_eq!(starts(&mut e, &format!("{narrow}[1]")), ["1"], "{strategy}");
        let last = format!("{narrow}[last()]");
        assert_eq!(starts(&mut e, &last), ["23"], "{strategy}");
        let reject = r#"doc("d")//p/reject-narrow::w[1]"#;
        assert_eq!(starts(&mut e, reject), ["40"], "{strategy}");
        let per_p = r#"(for $p in doc("d")//p return $p/select-narrow::w[1])"#;
        assert_eq!(starts(&mut e, per_p), ["1", "21"], "{strategy}");
    }
}
