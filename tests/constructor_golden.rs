//! Golden snapshot of constructed-fragment semantics.
//!
//! Every direct element constructor makes one new fragment per
//! iteration: the constructed element sits under its own document node,
//! so parent, root, sibling and following/preceding axes stop at the
//! fragment, document order across constructors follows creation order,
//! and a StandOff join over constructed content joins within its own
//! fragment (§3.3). The cases below pin those answers — items, string
//! values and serialized markup — in `tests/golden/constructors.txt`,
//! so a change to how fragments are stored must reproduce them byte for
//! byte.
//!
//! To regenerate after an *intentional* semantic change:
//! `BLESS=1 cargo test --test constructor_golden`, then review the diff.

use std::fmt::Write as _;

use standoff::core::StandoffStrategy;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, EngineOptions};

/// Content with attributes, text needing escapes, a comment, a PI and
/// prefixed names, plus a few regions for StandOff joins.
const DOC: &str = r#"<doc><x:item kind="seed" x:id="1">alpha<!--note--><?proc some data?><sub a="1">beta &amp; &lt;gamma&gt;</sub></x:item><item kind="plain">delta</item><w start="0" end="4"/><w start="5" end="9"/><e start="0" end="9"/></doc>"#;

const CASES: &[(&str, &str)] = &[
    // Parent and root of constructed elements.
    ("parent_of_one", "count(<a/>/..)"),
    ("parent_of_two", "count((<a/>, <b/>)/..)"),
    ("parent_is_document_node", "<a/>/../*"),
    ("root_fn", "let $f := <a><b/></a> return root($f/b)"),
    ("root_path_inside", "let $f := <a><b/></a> return $f/b/(/)"),
    (
        "root_path_count",
        "count(for $i in (1, 2, 3) return <a/>/(/))",
    ),
    // Sibling, following and preceding axes stop at the fragment.
    (
        "following_sibling",
        "<a><b/><c/><d/></a>/b/following-sibling::*",
    ),
    (
        "preceding_sibling",
        "<a><b/><c/><d/></a>/d/preceding-sibling::*",
    ),
    (
        "following_stops_at_fragment",
        "let $x := <x><b/></x> let $y := <y><c/></y> return ($x/b/following::*, $y/c/preceding::*)",
    ),
    (
        "siblings_of_fragment_root",
        "count((<a/>, <b/>)/following-sibling::*)",
    ),
    // Document order across constructors.
    (
        "flwor_two_constructors",
        r#"for $i in (1, 2) return (<p n="{$i}"/>, <q n="{$i}"/>)"#,
    ),
    (
        "order_by_slash_dot",
        "let $a := <a/> let $b := <b/> return ($b, $a)/.",
    ),
    (
        "order_by_union",
        "let $a := <a/> let $b := <b/> return ($b | $a)",
    ),
    (
        "order_across_iterations_union",
        r#"let $s := for $i in (1, 2, 3) return <s n="{$i}"/> return ($s[3] | $s[1] | $s[2])/@n/string(.)"#,
    ),
    // Nested constructors.
    ("nested_direct", "<a><b><c/></b><d>t</d></a>"),
    ("nested_enclosed", "<a>{<b>{<c/>}</b>}</a>"),
    (
        "nested_enclosed_parent",
        "let $a := <a>{<b/>}</a> return count($a/b/..)",
    ),
    (
        "nested_in_flwor",
        r#"for $i in (1, 2) return <o n="{$i}">{for $j in (1, 2) return <i n="{$i * 10 + $j}"/>}</o>"#,
    ),
    // Copied subtrees: attributes, text, comments, PIs, prefixed names.
    ("copy_subtree", r#"<a>{doc("d")/doc/*[1]}</a>"#),
    ("copy_document", r#"<a>{doc("d")}</a>"#),
    ("copy_attributes", r#"<a>{doc("d")/doc/*[1]/@*}<b/></a>"#),
    (
        "copy_text_comment_pi",
        r#"<a>{doc("d")/doc/*[1]/node()}</a>"#,
    ),
    (
        "copied_is_new_node",
        r#"let $c := <a>{doc("d")/doc/item}</a> return (count($c/item/..), $c/item/@kind/string(.))"#,
    ),
    (
        "copied_string_value",
        r#"string(<a>{doc("d")/doc/*[1]}</a>)"#,
    ),
    // Adjacent-atom spacing and attribute-value joining.
    ("atom_spacing", r#"<a>{1, 2}{"x"}{3, "y"}</a>"#),
    ("atoms_around_nodes", "<a>{1, <b/>, 2, 3}</a>"),
    ("attr_join", r#"<a b="{1, 2} x {3}" c="{()}" d="lit"/>"#),
    (
        "attr_from_nodes",
        r#"<a k="{doc("d")/doc/item/@kind}{doc("d")//w/@start}"/>"#,
    ),
    // StandOff joins over constructed fragments stay inside each one.
    (
        "standoff_join_in_fragment",
        r#"let $f := <r><w start="0" end="4"/><w start="5" end="9"/><e start="0" end="5"/></r> return $f/e/select-narrow::w"#,
    ),
    (
        "standoff_join_per_fragment",
        r#"for $i in (1, 2) return count(<r><e start="0" end="9"/><w start="{$i}" end="3"/><w start="{$i + 4}" end="8"/></r>/e/select-narrow::w)"#,
    ),
    (
        "standoff_join_over_copies",
        r#"let $f := <r>{doc("d")/doc/w, doc("d")/doc/e}</r> return $f/e/select-wide::w/@start/string(.)"#,
    ),
];

/// Several fragments from one constructor evaluation: three `<x>`s (or
/// `<r>`s) built by one `for`, whose axes, roots, document order and
/// StandOff joins must each stay inside their own fragment.
const MULTI_FRAGMENT_CASES: &[(&str, &str)] = &[
    (
        "multi_following_preceding",
        r#"let $s := for $i in (1, 2, 3) return <x n="{$i}"><b n="{$i}"/></x> return (count($s[1]/b/following::*), count($s[2]/b/preceding::*), count($s/b/following::*), count($s/preceding::node()), $s[2]/following::*)"#,
    ),
    (
        "multi_descendants_of_second_root",
        r#"let $s := for $i in (1, 2, 3) return <x n="{$i}"><b n="{$i}"/>t{$i}</x> return (root($s[2])//b/@n/string(.), root($s[2])/descendant::node())"#,
    ),
    (
        "multi_root_of_third",
        r#"let $s := for $i in (1, 2, 3) return <x n="{$i}"><b n="{$i}"/></x> return (root($s[3]/b), $s[3]/b/(/)/*/@n/string(.), count($s/b/(/)))"#,
    ),
    (
        "multi_parent_count",
        "count((for $i in (1, 2, 3) return <a/>)/..)",
    ),
    (
        "multi_ancestors_stop",
        r#"let $s := for $i in (1, 2, 3) return <x n="{$i}"><b/></x> return (count($s[2]/b/ancestor::node()), $s/b/ancestor::*/@n/string(.))"#,
    ),
    (
        "multi_is_and_order",
        r#"let $s := for $i in (1, 2, 3) return <x n="{$i}"><b n="{$i * 10}"/></x> return ($s[1] is $s[1], $s[1] is $s[2], root($s[1]) is root($s[2]), root($s[2]) is root($s[2]/b), ($s[3] | $s[1]/b | $s[2] | $s[2]/b | $s[1])/@n/string(.), ($s[3], $s[1]/b, $s[2])/./@n/string(.))"#,
    ),
    (
        "multi_siblings_stop",
        "let $s := for $i in (1, 2, 3) return <x/> return (count($s/following-sibling::node()), count($s/preceding-sibling::node()))",
    ),
];

/// A StandOff join whose regions overlap across the fragments of one
/// evaluation: each `<e>` contains only the *other* fragment's `<w>`, so
/// a join that leaked across fragments would select both.
const MULTI_FRAGMENT_JOIN: &str = r#"let $s := for $i in (1, 2) return <r n="{$i}"><e start="{($i - 1) * 5}" end="{$i * 5 - 1}"/><w start="{(2 - $i) * 5}" end="{(2 - $i) * 5 + 3}"/><v start="{($i - 1) * 5 + 1}" end="{($i - 1) * 5 + 2}"/></r> return (count($s/e/select-narrow::w), count($s/e/select-wide::*), $s/e/reject-narrow::w/../@n/string(.), $s/e/reject-wide::*/name(.), for $r in $s return count($r/e/select-narrow::*), select-narrow($s/e, $s/v)/../@n/string(.), $s/e/select-narrow::v/../@n/string(.))"#;

fn engine(options: EngineOptions) -> Engine {
    let mut engine = Engine::with_options(options);
    engine.load_document("d", DOC).unwrap();
    engine
}

/// One case as text: the query, then the item count, the string values
/// and the serialized sequence.
fn render(out: &mut String, name: &str, engine: &mut Engine, query: &str) {
    let _ = writeln!(out, "## {name}\n{query}");
    match engine.run(query) {
        Ok(r) => {
            let _ = writeln!(out, "items: {}", r.len());
            let _ = writeln!(out, "strings: {:?}", r.as_strings());
            let _ = writeln!(out, "xml: {}", r.as_xml());
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
    out.push('\n');
}

#[test]
fn constructed_fragments_match_golden() {
    let mut out = String::new();
    let mut e = engine(EngineOptions::default());
    for (name, query) in CASES {
        render(&mut out, name, &mut e, query);
    }
    // XMark Q2 at scale 0.002: 600-odd `<increase>` fragments per run
    // at benchmark scale, a few dozen here, under every strategy.
    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    for strategy in StandoffStrategy::ALL {
        let mut e = Engine::with_options(EngineOptions {
            strategy,
            ..Default::default()
        });
        e.load_document("xmark-standoff.xml", &so_xml).unwrap();
        let q = XmarkQuery::Q2.standoff("xmark-standoff.xml");
        render(&mut out, &format!("xmark_q2_{strategy}"), &mut e, &q);
    }
    for (name, query) in MULTI_FRAGMENT_CASES {
        render(&mut out, name, &mut e, query);
    }
    for strategy in StandoffStrategy::ALL {
        let mut e = engine(EngineOptions {
            strategy,
            ..Default::default()
        });
        let name = format!("multi_standoff_join_{strategy}");
        render(&mut out, &name, &mut e, MULTI_FRAGMENT_JOIN);
    }

    let path = format!(
        "{}/tests/golden/constructors.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run with BLESS=1 to create)"));
    if out != expected {
        let line = out
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map_or(out.lines().count().min(expected.lines().count()), |k| k);
        panic!(
            "constructed-fragment answers changed at line {}:\n  got:      {:?}\n  expected: {:?}",
            line + 1,
            out.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}
