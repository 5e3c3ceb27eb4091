//! Cross-crate integration: the paper's §4.6 workload.
//!
//! The StandOff rewrites of XMark Q1/Q2/Q6/Q7 must return the same
//! answers on the StandOff-ified document as the original queries do on
//! the original document — the permutation destroyed the tree edges, so
//! any agreement comes purely from region containment. All strategies
//! must agree with each other.

use standoff::core::StandoffStrategy;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, EngineOptions};

const STD_URI: &str = "xmark.xml";
const SO_URI: &str = "xmark-standoff.xml";

fn setup(scale: f64) -> (Engine, standoff::xmark::StandoffDoc) {
    let src = generate(&XmarkConfig::with_scale(scale));
    let so = standoffify(&src, 7);
    let mut engine = Engine::new();
    engine.add_document(src, Some(STD_URI));
    // The engine stores a clone of the standoff document; the blob stays
    // with the caller for content checks.
    let so_doc_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    engine.load_document(SO_URI, &so_doc_xml).unwrap();
    (engine, so)
}

#[test]
fn q1_standoff_matches_standard() {
    let (mut engine, so) = setup(0.002);
    let std = engine.run(&XmarkQuery::Q1.standard(STD_URI)).unwrap();
    let sof = engine.run(&XmarkQuery::Q1.standoff(SO_URI)).unwrap();
    assert_eq!(std.len(), 1, "person0 exists exactly once");
    assert_eq!(sof.len(), 1);
    // The standoff result is the <name> annotation element; its region
    // must cover exactly the original name text in the BLOB.
    let serialized = &sof.as_serialized()[0];
    let start: i64 = attr_value(serialized, "start").parse().unwrap();
    let end: i64 = attr_value(serialized, "end").parse().unwrap();
    assert_eq!(so.region_text(start, end), std.as_strings()[0]);
}

#[test]
fn q2_standoff_matches_standard_counts() {
    let (mut engine, _) = setup(0.002);
    let std = engine.run(&XmarkQuery::Q2.standard(STD_URI)).unwrap();
    let sof = engine.run(&XmarkQuery::Q2.standoff(SO_URI)).unwrap();
    // One <increase> element per open auction in both versions.
    assert_eq!(std.len(), sof.len());
    // Auctions WITH bidders yield non-empty constructor content in both.
    let std_nonempty = std
        .as_serialized()
        .iter()
        .filter(|s| !s.contains("<increase/>") && !s.ends_with("<increase> </increase>"))
        .count();
    let so_nonempty = sof
        .as_serialized()
        .iter()
        .filter(|s| s.contains("<increase start"))
        .count();
    assert_eq!(std_nonempty, so_nonempty);
    assert!(std_nonempty > 0, "workload contains auctions with bids");
}

#[test]
fn q6_and_q7_standoff_match_standard() {
    let (mut engine, _) = setup(0.002);
    for q in [XmarkQuery::Q6, XmarkQuery::Q7] {
        let std = engine.run(&q.standard(STD_URI)).unwrap();
        let sof = engine.run(&q.standoff(SO_URI)).unwrap();
        assert_eq!(std.as_strings(), sof.as_strings(), "{q}");
        assert!(!std.is_empty());
    }
}

#[test]
fn all_strategies_agree_on_every_query() {
    let src = generate(&XmarkConfig::with_scale(0.001));
    let so = standoffify(&src, 7);
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());

    for q in XmarkQuery::ALL {
        let mut reference: Option<Vec<String>> = None;
        for strategy in StandoffStrategy::ALL {
            let mut engine = Engine::with_options(EngineOptions {
                strategy,
                ..Default::default()
            });
            engine.load_document(SO_URI, &so_xml).unwrap();
            let got: Vec<String> = engine
                .run(&q.standoff(SO_URI))
                .unwrap()
                .as_serialized()
                .to_vec();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "{q} under {strategy}"),
            }
        }
    }
}

#[test]
fn candidate_pushdown_does_not_change_results() {
    let src = generate(&XmarkConfig::with_scale(0.001));
    let so = standoffify(&src, 7);
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    for q in XmarkQuery::ALL {
        let mut with = Engine::new();
        with.load_document(SO_URI, &so_xml).unwrap();
        let mut without = Engine::new();
        without.set_candidate_pushdown(false);
        without.load_document(SO_URI, &so_xml).unwrap();
        assert_eq!(
            with.run(&q.standoff(SO_URI)).unwrap().as_serialized(),
            without.run(&q.standoff(SO_URI)).unwrap().as_serialized(),
            "{q}"
        );
    }
}

#[test]
fn q6_counts_equal_item_totals() {
    let (mut engine, _) = setup(0.002);
    // Q6 returns one count (for the single <regions>); it must equal the
    // total number of items.
    let std = engine.run(&XmarkQuery::Q6.standard(STD_URI)).unwrap();
    let expected = XmarkConfig::with_scale(0.002).n_items();
    assert_eq!(std.as_strings(), [expected.to_string()]);
}

/// Minimal attribute scraping for serialized test output.
fn attr_value<'a>(xml: &'a str, name: &str) -> &'a str {
    let pat = format!("{name}=\"");
    let s = xml.find(&pat).map(|i| i + pat.len()).unwrap();
    let e = xml[s..].find('"').unwrap();
    &xml[s..s + e]
}
