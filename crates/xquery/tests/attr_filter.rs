//! The fused `[@name = "literal"]` predicate against the generic
//! predicate machinery. Every query runs twice over the same corpus:
//! through the production pipeline, and through a pipeline assembled
//! here from the optimizer's own pass table with `fuse-attr-filter`
//! left out — so the only difference between the two plans is the
//! operator under test. Answers (or errors, category and text) must be
//! identical, and `explain` must show the operator exactly where the
//! shape matches.

use standoff_xquery::compile::{resolve, PlanContext};
use standoff_xquery::explain::explain_plan;
use standoff_xquery::optimize::PASSES;
use standoff_xquery::parser::parse_query;
use standoff_xquery::{Engine, SharedEngine};

const PASS: &str = "fuse-attr-filter";

/// `p` groups of `x`/`y` annotations: attributes absent, empty, several
/// per element, values that need escaping, numbers as text, text and
/// comment children, and regions so the StandOff axes have work.
const FIXTURE: &str = concat!(
    r#"<r id="root" k="a">"#,
    r#"<p n="1"><x n="1" k="a" start="0" end="9">one<!--c--></x><x n="2" k="b" start="2" end="4"/>"#,
    r#"<x n="3" start="5" end="6"/><y n="4" k="a" start="0" end="20"/></p>"#,
    r#"<p n="2"><x n="5" k="" start="10" end="19">five</x><x n="6" k="a&amp;b" start="12" end="13"/>"#,
    r#"<x n="7" k="say &quot;hi&quot;" j="a" start="14" end="15"/><y n="17" k="17" start="10" end="30"/></p>"#,
    r#"<x n="8" k="a" j="a" start="40" end="41"/>"#,
    r#"</r>"#
);

fn corpus() -> SharedEngine {
    let mut engine = Engine::new();
    engine.load_document("f", FIXTURE).unwrap();
    engine.into_shared()
}

type Answer = Result<String, String>;

fn fused(shared: &SharedEngine, q: &str) -> Answer {
    let plan = shared.compile(q).map_err(|e| e.to_string())?;
    assert!(plan.passes.contains(&PASS), "the pass is unconditional");
    shared
        .session()
        .execute_plan(&plan)
        .map(|r| r.as_xml())
        .map_err(|e| e.to_string())
}

fn generic(shared: &SharedEngine, q: &str) -> Answer {
    let mut plan = parse_query(q).map_err(|e| e.to_string())?;
    let ctx = PlanContext::bare(shared.options());
    resolve(&mut plan, &ctx).map_err(|e| e.to_string())?;
    for pass in PASSES.iter().filter(|p| p.name != PASS) {
        (pass.run)(&mut plan, &ctx);
    }
    assert!(!explain_plan(&plan).contains("attr-filter"));
    shared
        .session()
        .execute_plan(&plan)
        .map(|r| r.as_xml())
        .map_err(|e| e.to_string())
}

fn plan_text(shared: &SharedEngine, q: &str) -> String {
    explain_plan(&shared.compile(q).unwrap())
}

/// Both pipelines agree on `q`; returns the shared answer.
fn same(shared: &SharedEngine, q: &str) -> Answer {
    let (a, b) = (fused(shared, q), generic(shared, q));
    assert_eq!(a, b, "fused vs generic: {q}");
    a
}

#[test]
fn the_exact_shape_is_fused_and_nothing_else() {
    let shared = corpus();
    for q in [
        r#"doc("f")//x[@k = "a"]"#,
        r#"doc("f")//x["a" = @k]"#,
        r#"doc("f")//x[attribute::k = "a"]"#,
        r#"(doc("f")//x)[@k = "a"]"#,
        r#"doc("f")//y/select-narrow::x[@k = "a"]"#,
        r#"doc("f")//x[@k = "a"][@j = "a"]"#,
        r#"doc("f")//x[@k = ""]"#,
    ] {
        let plan = plan_text(&shared, q);
        assert!(plan.contains("attr-filter @"), "not fused: {q}\n{plan}");
        assert!(
            !plan.contains("compare Eq"),
            "comparison left behind: {q}\n{plan}"
        );
    }
    for q in [
        r#"doc("f")//x[@n = 17]"#,           // numeric literal: numeric comparison
        r#"doc("f")//x[@k != "a"]"#,         // another operator
        r#"doc("f")//x[@k eq "a"]"#,         // value comparison: errors on many
        r#"doc("f")//x[@* = "a"]"#,          // no name to resolve
        r#"doc("f")//x[@k = @j]"#,           // no literal
        r#"doc("f")//x[y/@k = "a"]"#,        // attribute of something else
        r#"doc("f")//x[@k[. = "a"] = "a"]"#, // the step has predicates
        r#"doc("f")//x[@k = "a" or @j]"#,    // part of a larger predicate
        r#"doc("f")//x[string(@k) = "a"]"#,
    ] {
        let plan = plan_text(&shared, q);
        assert!(!plan.contains("attr-filter @"), "fused: {q}\n{plan}");
        same(&shared, q).unwrap();
    }
    // `@n = 17` keeps its numeric meaning: "17" matches, and so would
    // "17.0"; the string form matches the text only.
    assert_eq!(
        same(&shared, r#"doc("f")//*[@n = 17]/@k"#).unwrap(),
        r#"k="17""#
    );
    assert_eq!(
        same(&shared, r#"doc("f")//*[@n = "17"]/@k"#).unwrap(),
        r#"k="17""#
    );
    assert_eq!(
        same(&shared, r#"count(doc("f")//*[@n = "17.0"])"#).unwrap(),
        "0"
    );
}

#[test]
fn answers_match_the_generic_predicate() {
    let shared = corpus();
    let ns = |q: &str| {
        same(
            &shared,
            &format!(r#"string-join(for $e in {q} return string($e/@n), " ")"#),
        )
        .unwrap()
    };
    // Present, absent, several attributes, either operand order.
    assert_eq!(ns(r#"doc("f")//x[@k = "a"]"#), "1 8");
    assert_eq!(ns(r#"doc("f")//x["a" = @k]"#), "1 8");
    assert_eq!(ns(r#"doc("f")//x[@j = "a"]"#), "7 8");
    assert_eq!(ns(r#"doc("f")//x[@k = "a"][@j = "a"]"#), "8");
    assert_eq!(ns(r#"doc("f")//p/*[@k = "a"]"#), "1 4");
    // An attribute that is absent is not an empty attribute.
    assert_eq!(ns(r#"doc("f")//x[@k = ""]"#), "5");
    assert_eq!(ns(r#"doc("f")//x[@missing = ""]"#), "");
    // A name the document never mentions.
    assert_eq!(ns(r#"doc("f")//x[@nowhere = "a"]"#), "");
    // Entity references and doubled quotes in the literal.
    assert_eq!(ns(r#"doc("f")//x[@k = "a&amp;b"]"#), "6");
    assert_eq!(ns(r#"doc("f")//x[@k = "say ""hi"""]"#), "7");
    assert_eq!(ns(r#"doc("f")//x[@k = 'say "hi"']"#), "7");
    // No trimming, no case folding, no numeric coercion.
    assert_eq!(ns(r#"doc("f")//x[@k = " a"]"#), "");
    assert_eq!(ns(r#"doc("f")//x[@k = "A"]"#), "");
    assert_eq!(ns(r#"doc("f")//y[@k = "17"]"#), "17");
    // Filter form, over one and over several sources.
    assert_eq!(ns(r#"(doc("f")//x)[@k = "a"]"#), "1 8");
    assert_eq!(ns(r#"(doc("f")//y, doc("f")//x)[@k = "a"]"#), "4 1 8");
    // The document's root element and the document node itself.
    assert_eq!(
        same(&shared, r#"doc("f")/r[@k = "a"]/@id"#).unwrap(),
        r#"id="root""#
    );
    assert_eq!(same(&shared, r#"count(doc("f")[@k = "a"])"#).unwrap(), "0");
    // After a StandOff step, and feeding one.
    assert_eq!(ns(r#"doc("f")//y/select-narrow::x[@k = "a"]"#), "1");
    assert_eq!(ns(r#"doc("f")//y[@k = "17"]/select-narrow::x"#), "5 6 7");
    assert_eq!(ns(r#"doc("f")//x[@k = "a"]/select-wide::y"#), "4");
    // One row per iteration of an enclosing loop.
    assert_eq!(
        same(
            &shared,
            r#"for $p in doc("f")//p return <g n="{$p/@n}">{count($p/x[@k = "a"])}</g>"#
        )
        .unwrap(),
        r#"<g n="1">1</g><g n="2">0</g>"#
    );
    // Followed by a positional predicate: per parent, after the filter.
    assert_eq!(ns(r#"doc("f")//x[@j = "a"][1]"#), "7 8");
    assert_eq!(ns(r#"doc("f")//p/x[@k = "b"][last()]"#), "2");
}

#[test]
fn rows_that_are_not_elements_simply_do_not_match() {
    let shared = corpus();
    for (q, expect) in [
        // Attribute rows: an attribute has no attributes.
        (r#"count(doc("f")//x/@k[@k = "a"])"#, "0"),
        (r#"count((doc("f")//x/@k)[@k = "a"])"#, "0"),
        // Text and comment rows.
        (r#"count(doc("f")//x/text()[@k = "a"])"#, "0"),
        (r#"count(doc("f")//x/comment()[@k = "a"])"#, "0"),
        // Mixed kinds: only the elements can match.
        (r#"count(doc("f")//node()[@k = "a"])"#, "4"),
        (
            r#"count((doc("f")//x/text(), doc("f")//x, doc("f")//x/@n)[@k = "a"])"#,
            "2",
        ),
        // Nothing at all to filter.
        (r#"count(doc("f")//nothing[@k = "a"])"#, "0"),
        (r#"count(()[@k = "a"])"#, "0"),
    ] {
        assert_eq!(same(&shared, q).as_deref(), Ok(expect), "{q}");
    }
}

#[test]
fn an_atomic_context_item_is_the_same_dynamic_error() {
    let shared = corpus();
    for q in [
        r#"(1, 2)[@k = "a"]"#,
        r#"("a")[@k = "a"]"#,
        r#"(doc("f")//x, 1)[@k = "a"]"#,
        r#"(doc("f")//x/string(@k))[@k = "a"]"#,
        r#"for $i in 1 to 3 return ($i)[@k = "a"]"#,
    ] {
        let err = same(&shared, q).unwrap_err();
        assert!(err.contains("dynamic"), "{q}: {err}");
        assert!(err.contains("expected node sequence"), "{q}: {err}");
    }
}

/// `[@k = "a"]` leading the predicates of every kind of step. Downward
/// and sideways tree steps test it as they emit rows, upward ones and
/// StandOff steps on their node table before any row becomes an item;
/// all of it must be the generic predicate's answer.
#[test]
fn a_leading_filter_drops_node_rows_on_every_step_shape() {
    let shared = corpus();
    for q in [
        r#"doc("f")/r/p/x[@k = "a"]"#,
        r#"doc("f")//x[@k = "a"]"#,
        r#"doc("f")//p/descendant-or-self::*[@k = "a"]"#,
        r#"doc("f")//x/self::x[@k = "a"]"#,
        r#"doc("f")//x/following-sibling::*[@k = "a"]"#,
        r#"doc("f")//x/following::*[@k = "a"]"#,
        r#"doc("f")//x/preceding::*[@k = "a"]"#,
        r#"doc("f")//x/preceding-sibling::*[@k = "a"]"#,
        r#"doc("f")//x/@k[@k = "a"]"#,
        r#"doc("f")//x/parent::*[@k = "a"]"#,
        r#"doc("f")//x/ancestor::*[@k = "a"]"#,
        r#"doc("f")//x/ancestor-or-self::*[@k = "a"]"#,
        r#"doc("f")//y/select-narrow::*[@k = "a"]"#,
        r#"doc("f")//x/select-wide::y[@k = "a"]"#,
        r#"doc("f")//y/reject-narrow::x[@k = "a"]"#,
        r#"doc("f")//y/reject-wide::x[@k = "a"]"#,
        r#"doc("f")//x[@k = "a"][1]"#,
        r#"doc("f")//x[@k = "a"][@j = "a"]"#,
        r#"doc("f")//y/select-narrow::x[@k = "a"][last()]"#,
    ] {
        let plan = plan_text(&shared, q);
        assert!(plan.contains("attr-filter @"), "not fused: {q}\n{plan}");
        same(&shared, &format!("{q}/@n")).unwrap();
        same(&shared, &format!("count({q})")).unwrap();
    }
    let ns = |q: &str| {
        same(
            &shared,
            &format!(r#"string-join(for $e in {q} return string($e/@n), " ")"#),
        )
        .unwrap()
    };
    assert_eq!(ns(r#"doc("f")//x/following::*[@k = "a"]"#), "4 8");
    assert_eq!(ns(r#"doc("f")//x/ancestor::*[@k = "a"]"#), "");
    assert_eq!(ns(r#"doc("f")//y/reject-wide::x[@k = "a"]"#), "8");
}

/// A filter that is not the first predicate filters items, as before.
#[test]
fn a_later_filter_keeps_the_generic_path() {
    let shared = corpus();
    for (q, expect) in [
        (r#"doc("f")//x[1][@k = "a"]/@n"#, r#"n="1" n="8""#),
        (r#"doc("f")//x[@j][@k = "a"]/@n"#, r#"n="8""#),
        (
            r#"doc("f")//y/select-narrow::x[2][@k = "b"]/@n"#,
            r#"n="2""#,
        ),
        (r#"count(doc("f")//x[position() < 3][@k = "b"])"#, "1"),
    ] {
        assert!(plan_text(&shared, q).contains("attr-filter @"), "{q}");
        assert_eq!(same(&shared, q).as_deref(), Ok(expect), "{q}");
    }
}

/// One table holding rows of several documents: the name is resolved
/// per document, and each document's own attribute columns decide.
#[test]
fn rows_from_several_documents_are_filtered_by_their_own_columns() {
    let mut engine = Engine::new();
    engine.load_document("f", FIXTURE).unwrap();
    // `k` is interned at a different id here than in `f`.
    engine
        .load_document(
            "g",
            r#"<r j="z" k="a"><x n="21" k="a" start="0" end="3"/><x n="22" k="b" start="1" end="2"/><y n="23" j="a" k="a" start="0" end="9"/></r>"#,
        )
        .unwrap();
    let shared = engine.into_shared();
    let ns = |q: &str| {
        same(
            &shared,
            &format!(r#"string-join(for $e in {q} return string($e/@n), " ")"#),
        )
        .unwrap()
    };
    assert_eq!(ns(r#"(doc("f"), doc("g"))//x[@k = "a"]"#), "1 8 21");
    assert_eq!(ns(r#"(doc("g")//x, doc("f")//x)[@k = "a"]"#), "21 1 8");
    assert_eq!(ns(r#"(doc("f"), doc("g"))//*[@j = "a"]"#), "7 8 23");
    assert_eq!(
        ns(r#"(doc("f"), doc("g"))//y/select-narrow::x[@k = "a"]"#),
        "1 21"
    );
    assert_eq!(
        same(
            &shared,
            r#"for $d in (doc("f"), doc("g")) return count($d//x[@k = "a"])"#
        )
        .unwrap(),
        "2 1"
    );
}

/// Through a writer: pending inserts are rows of the layer, retracted
/// rows are gone, and the layer root is tested once.
#[test]
fn a_writer_filters_like_the_generic_predicate() {
    use standoff_core::StandoffConfig;
    use standoff_store::{parse_ops, LayerSet};

    let base =
        standoff_xml::parse_document(r#"<text start="0" end="12">Alice met Bob</text>"#).unwrap();
    let mut set = LayerSet::build("c", base, StandoffConfig::default()).unwrap();
    let tokens = standoff_xml::parse_document(
        r#"<tokens k="root"><w k="a" start="0" end="4"/><w k="b" start="6" end="8"/><w k="a" start="6" end="12"/></tokens>"#,
    )
    .unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    let mut writer = standoff_xquery::WritableEngine::mount(set, Default::default()).unwrap();
    for ops in ["insert tokens w 10 12 k=a\n", "retract tokens w 6 12\n"] {
        writer.apply(parse_ops(ops).unwrap()).unwrap();
    }
    let shared = writer.shared();
    for (q, expect) in [
        (r#"count(layer("c", "tokens")//w[@k = "a"])"#, "2"),
        (
            r#"layer("c", "tokens")//w[@k = "a"]/@start"#,
            r#"start="0" start="10""#,
        ),
        (r#"count(doc("c")/text/select-narrow::w[@k = "a"])"#, "2"),
        (r#"count(layer("c", "tokens")/tokens[@k = "root"])"#, "1"),
        (r#"count(layer("c", "tokens")/*[@k = "root"])"#, "1"),
        (r#"count(layer("c", "tokens")//*[@k = "root"])"#, "1"),
        (
            r#"count(layer("c", "tokens")//w/parent::*[@k = "root"])"#,
            "1",
        ),
        (r#"count((layer("c", "tokens")//*)[@k = "root"])"#, "1"),
    ] {
        assert!(plan_text(&shared, q).contains("attr-filter @"), "{q}");
        assert_eq!(same(&shared, q).as_deref(), Ok(expect), "{q}");
    }
}
