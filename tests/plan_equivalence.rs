//! Plan/AST equivalence: the optimized compilation pipeline must be
//! observably identical to the direct-AST reference path.
//!
//! Every query runs twice — through `Engine::run` (parse → lower →
//! **optimize** → execute) and through the `#[doc(hidden)]`
//! `Engine::run_unoptimized` reference (parse → lower → execute, a 1:1
//! transliteration of the AST with no constant folding, no hoisting, no
//! pushdown annotation) — and the serialized results must be
//! byte-identical. The sweep covers the full XMark workload (standard
//! *and* StandOff rewrites, plus the Figure 2/3 UDF baselines) under
//! **all four StandOff strategies × candidate pushdown on/off**, so an
//! optimizer pass that changes results anywhere in that matrix fails
//! here with a readable query/option label.

use standoff::core::StandoffStrategy;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::Engine;

const STD_URI: &str = "xmark.xml";
const SO_URI: &str = "xmark-standoff.xml";

fn engine_with(strategy: StandoffStrategy, pushdown: bool) -> Engine {
    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    let mut engine = Engine::new();
    engine.add_document(src, Some(STD_URI));
    engine.load_document(SO_URI, &so_xml).unwrap();
    engine.set_strategy(strategy);
    engine.set_candidate_pushdown(pushdown);
    engine
}

/// Queries exercising the operator classes the optimizer rewrites:
/// foldable constants, hoistable invariants, StandOff joins in axis and
/// function form, quantifiers, set operations, predicates.
fn feature_queries() -> Vec<String> {
    vec![
        // Constant folding must not change arithmetic/comparison results.
        "1 + 2 * 3 - (10 idiv 3)".to_string(),
        "if (2 < 1) then \"a\" else concat(\"b\", \"c\")".to_string(),
        // Hoisting: invariant StandOff join and aggregate in a loop.
        format!(r#"for $i in 1 to 5 return count(doc("{SO_URI}")//person)"#),
        format!(
            r#"for $i in 1 to 3, $p in doc("{SO_URI}")//person
               order by $p/@id return ($i, $p/@id)"#
        ),
        // Hoisting must respect where-filtered scopes.
        format!(
            r#"for $i in 1 to 4 where $i > 2
               return count(doc("{SO_URI}")//item/select-wide::description)"#
        ),
        // StandOff joins in function form with and without candidates.
        format!(r#"count(select-narrow(doc("{SO_URI}")//open_auction, doc("{SO_URI}")//bidder))"#),
        format!(r#"count(reject-narrow(doc("{SO_URI}")//open_auction))"#),
        // Quantified + set operations + predicates.
        format!(r#"some $p in doc("{SO_URI}")//person satisfies $p/@id = "person0""#),
        format!(r#"count((doc("{SO_URI}")//person | doc("{SO_URI}")//item)[position() <= 7])"#),
        format!(r#"count(doc("{SO_URI}")//person except doc("{SO_URI}")//person[1])"#),
        // Constructors stay per-iteration (never hoisted).
        format!(r#"for $i in 1 to 3 return <n c="{{count(doc("{SO_URI}")//person)}}"/>"#),
    ]
}

#[test]
fn xmark_suite_matches_reference_across_all_strategies_and_pushdown() {
    for strategy in StandoffStrategy::ALL {
        for pushdown in [true, false] {
            let mut engine = engine_with(strategy, pushdown);
            let mut texts: Vec<String> = Vec::new();
            for q in XmarkQuery::ALL {
                texts.push(q.standard(STD_URI));
                texts.push(q.standoff(SO_URI));
                texts.push(q.standoff_udf_candidates(SO_URI));
                texts.push(q.standoff_udf_no_candidates(SO_URI));
            }
            for text in texts {
                let optimized = engine
                    .run(&text)
                    .unwrap_or_else(|e| panic!("[{strategy}/pushdown={pushdown}] {text}: {e}"));
                let reference = engine
                    .run_unoptimized(&text)
                    .unwrap_or_else(|e| panic!("[{strategy}/pushdown={pushdown}] ref {text}: {e}"));
                assert_eq!(
                    optimized.as_serialized(),
                    reference.as_serialized(),
                    "serialized results diverge [{strategy}/pushdown={pushdown}]: {text}"
                );
                assert_eq!(
                    optimized.as_strings(),
                    reference.as_strings(),
                    "string values diverge [{strategy}/pushdown={pushdown}]: {text}"
                );
            }
        }
    }
}

#[test]
fn feature_queries_match_reference_across_all_strategies_and_pushdown() {
    for strategy in StandoffStrategy::ALL {
        for pushdown in [true, false] {
            let mut engine = engine_with(strategy, pushdown);
            for text in feature_queries() {
                let optimized = engine
                    .run(&text)
                    .unwrap_or_else(|e| panic!("[{strategy}/pushdown={pushdown}] {text}: {e}"));
                let reference = engine
                    .run_unoptimized(&text)
                    .unwrap_or_else(|e| panic!("[{strategy}/pushdown={pushdown}] ref {text}: {e}"));
                assert_eq!(
                    optimized.as_serialized(),
                    reference.as_serialized(),
                    "serialized results diverge [{strategy}/pushdown={pushdown}]: {text}"
                );
            }
        }
    }
}
