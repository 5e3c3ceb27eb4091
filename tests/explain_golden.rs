//! Golden snapshot tests of `explain` output.
//!
//! Each case compiles a query against a small, fully deterministic
//! corpus and compares the rendered optimized plan against a checked-in
//! snapshot under `tests/golden/`. Optimizer regressions — a pass
//! reordered, a pushdown decision flipped, an estimate miscounted —
//! show up as a readable text diff instead of a silent plan change.
//!
//! To regenerate after an *intentional* plan-format change:
//! `BLESS=1 cargo test --test explain_golden` rewrites the snapshots;
//! review the diff before committing.

use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::xquery::Engine;

/// A tiny annotation corpus: one BLOB with a token layer and an entity
/// layer as plain StandOff documents, region indexes pre-built so
/// explain shows estimates.
fn corpus() -> Engine {
    let mut engine = Engine::new();
    let tokens = engine
        .load_document(
            "tokens.xml",
            r#"<tokens><w start="0" end="5"/><w start="6" end="11"/><w start="12" end="22"/><w start="23" end="29"/></tokens>"#,
        )
        .unwrap();
    let entities = engine
        .load_document(
            "entities.xml",
            r#"<entities><place start="6" end="11"/><thing start="12" end="29"/></entities>"#,
        )
        .unwrap();
    engine
        .prebuild_region_index(tokens, &StandoffConfig::default())
        .unwrap();
    engine
        .prebuild_region_index(entities, &StandoffConfig::default())
        .unwrap();
    engine
}

fn check(name: &str, engine: &Engine, query: &str) {
    let actual = engine
        .explain(query)
        .unwrap_or_else(|e| panic!("{name}: explain failed: {e}"));
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        actual, expected,
        "\n{name}: plan text changed. If intentional, regenerate with \
         `BLESS=1 cargo test --test explain_golden` and review the diff.\n"
    );
}

#[test]
fn standoff_step_with_pushdown_and_estimates() {
    let engine = corpus();
    check(
        "standoff_step_pushdown",
        &engine,
        r#"doc("entities.xml")//place/select-narrow::w"#,
    );
}

/// A rare pushed-down name (1 `place` across the corpus): the estimate
/// names the sparse-candidate kernel the rule picks — over this 6-entry
/// corpus one probe per entry undercuts the node-view gather, the sparse
/// path of larger tables — and the pushed name test is plan-guaranteed
/// so the post-filter annotation reads `elided`.
#[test]
fn sparse_pushdown_node_view_access() {
    let engine = corpus();
    check(
        "standoff_step_node_view",
        &engine,
        r#"doc("entities.xml")//thing/select-narrow::place"#,
    );
}

#[test]
fn naive_strategy_without_pushdown() {
    let mut engine = corpus();
    engine.set_strategy(StandoffStrategy::NaiveNoCandidates);
    engine.set_candidate_pushdown(false);
    check(
        "naive_no_pushdown",
        &engine,
        r#"doc("entities.xml")//place/select-narrow::w"#,
    );
}

#[test]
fn flwor_with_hoisted_invariant() {
    let engine = corpus();
    check(
        "flwor_hoisted",
        &engine,
        r#"for $p in doc("entities.xml")//place
           where count(doc("tokens.xml")//w) > 2
           order by $p/@start
           return ($p/select-wide::w, count(doc("tokens.xml")//w))"#,
    );
}

#[test]
fn standoff_function_form_and_udf() {
    let engine = corpus();
    check(
        "standoff_fn_and_udf",
        &engine,
        r#"declare function hits($ctx) { count(select-narrow($ctx, doc("tokens.xml")//w)) };
           hits(doc("entities.xml")//thing)"#,
    );
}

#[test]
fn xmark_q2_shape() {
    // No corpus statistics here: the paper's Q2 rewrite explained
    // against an empty engine (estimates show zero entries).
    let engine = Engine::new();
    check(
        "xmark_q2",
        &engine,
        &standoff::xmark::queries::XmarkQuery::Q2.standoff("xmark-standoff.xml"),
    );
}
