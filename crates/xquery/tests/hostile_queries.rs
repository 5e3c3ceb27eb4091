//! Hostile query corpus: no input string may panic (or abort) the
//! lexer, parser, or evaluator.
//!
//! A long-lived query service evaluates untrusted query text; a panic in
//! one worker must never take down the pool. Every string below is fed
//! through parse + eval twice — sequentially on a plain [`Engine`] and
//! concurrently through the batch [`Executor`] — and must come back as a
//! proper `Err(QueryError)`.

use standoff_xquery::{Engine, Executor, Governance};

/// ~50 malformed, truncated, and adversarially nested query strings.
/// Every single one must fail: a parse error, a static error, or a
/// dynamic error — never a panic.
fn hostile_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        // Empty / whitespace / lone punctuation.
        "",
        "   \t\n  ",
        "(",
        ")",
        "]",
        "}",
        ";",
        ":",
        "::",
        ":=",
        "@",
        "@@",
        "..::x",
        // Truncated operators and clauses.
        "1 +",
        "1 *",
        "-",
        "+",
        "x union",
        "x intersect",
        "1 to",
        "1 = ",
        "1 2",
        "x/",
        "x//",
        "x/child::",
        "child::",
        "sideways::x",
        "x/::y",
        // Unterminated literals, comments, entities.
        "\"unterminated",
        "'still open",
        "\"a&unterminated",
        "\"&bogus;\"",
        "(: unclosed comment",
        "(: nested (: deeper :) still open",
        // Broken variables and declarations.
        "$",
        "$undeclared",
        "declare",
        "declare option",
        "declare option foo",
        "declare variable $x",
        "declare variable $x :=",
        "declare function f() {",
        "declare gizmo whirr; 1",
        "declare variable $q external; $q",
        // Broken constructors.
        "<",
        "<a",
        "<a/",
        "<a>",
        "<a attr>",
        "<a b=>",
        "<a b='x>",
        "<a>{</a>",
        "<a>}</a>",
        "<a>&bogus;</a>",
        "<a>&lt</a>",
        "<a></b>",
        "<1/>",
        // Control flow with missing limbs.
        "if (1) then 1",
        "for $x in",
        "for $x in 1",
        "let $x := 1",
        "some $x in",
        "every $x in 1 satisfies",
        // Dynamic failures.
        r#"doc("no-such-uri")//x"#,
        "unknown-function(1, 2)",
        "9999999999999999999999999999",
        "1 idiv 0",
        // Eval-side recursion bomb (recursion limit, not stack death).
        "declare function f($x) { f($x) }; f(1)",
        // Multibyte content in hostile positions.
        "\"🦀🦀🦀",
        "<ü>öäß",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    // Parser-side nesting bombs: without a depth limit these would
    // exhaust the stack and abort the process (uncatchable).
    corpus.push(format!("{}1", "(".repeat(50_000)));
    corpus.push(format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000)));
    corpus.push(format!("{}1", "-".repeat(50_000)));
    corpus.push("<a>".repeat(20_000));
    corpus.push(format!("a{}", "[a[".repeat(20_000)));
    corpus.push("f(".repeat(20_000) + "1");
    corpus.push("for $x in ".repeat(10_000) + "1 return 1");
    corpus
}

fn engine_with_fixture() -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document(
            "d.xml",
            r#"<a><w start="0" end="9"/><w start="3" end="5"/></a>"#,
        )
        .unwrap();
    engine
}

#[test]
fn every_hostile_query_errs_sequentially() {
    let mut engine = engine_with_fixture();
    for query in hostile_corpus() {
        let result = engine.run(&query);
        assert!(
            result.is_err(),
            "hostile query unexpectedly succeeded: {:?}",
            &query[..query.len().min(80)]
        );
    }
    // The engine survives the whole corpus and still answers real
    // queries.
    let ok = engine.run(r#"count(doc("d.xml")//w)"#).unwrap();
    assert_eq!(ok.as_strings(), ["2"]);
}

#[test]
fn every_hostile_query_errs_through_the_batch_executor() {
    let corpus = hostile_corpus();
    for threads in [1, 4] {
        let exec = Executor::governed(
            engine_with_fixture().into_shared(),
            threads,
            Governance::default(),
        );
        let results = exec.run_batch(&corpus);
        assert_eq!(results.len(), corpus.len());
        for (query, result) in corpus.iter().zip(&results) {
            assert!(
                result.is_err(),
                "hostile query unexpectedly succeeded under {threads} thread(s): {:?}",
                &query[..query.len().min(80)]
            );
        }
        // The pool survives: a well-formed query still runs afterwards.
        let ok = exec.run_batch(&[r#"count(doc("d.xml")//w)"#]);
        assert_eq!(ok[0].as_ref().unwrap().as_strings(), ["2"]);
    }
}

#[test]
fn truncation_sweep_never_panics() {
    // Every char-boundary prefix of a query that exercises strings,
    // entities, constructors, FLWOR, and multibyte text must lex, parse
    // and evaluate to *something* — Ok or Err, never a panic.
    let query = r#"declare option standoff-start "begin";
        for $w at $k in doc("d.xml")//w[@start < 5]
        order by $w/@end descending
        return <hit nr="{$k}">{"ünïcödé &amp; more", $w/select-wide::w}</hit>"#;
    let mut engine = engine_with_fixture();
    for (end, _) in query.char_indices() {
        let _ = engine.run(&query[..end]);
    }
    let _ = engine.run(query);
}
