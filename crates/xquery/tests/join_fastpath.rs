//! The join hot path's fast-path *mechanisms*, asserted directly.
//!
//! Timing can lie on a loaded CI box; the `join.*` counters of the
//! engine's metrics registry (what `stats` prints) cannot.
//! These tests pin that a pushdown-guaranteed StandOff step really skips
//! the trailing self-axis pass and never sorts its result (one target
//! is emitted directly, several merge), that the literal paths still
//! run where required (no pushdown, naive strategies, the unoptimized
//! reference plan), and
//! that the elided paths stay observably equivalent to the reference on
//! randomized region workloads across all four axes.

use std::collections::BTreeMap;

use proptest::prelude::*;

use standoff_core::StandoffStrategy;
use standoff_xquery::{Engine, EngineOptions, JoinStats};

fn region_engine(xml: &str, options: EngineOptions) -> Engine {
    let mut engine = Engine::with_options(options);
    engine.load_document("d.xml", xml).unwrap();
    engine
}

/// The `join.*` counters `run` adds to the engine's metrics registry,
/// keyed by counter name.
fn join_delta(engine: &mut Engine, run: impl FnOnce(&mut Engine)) -> BTreeMap<String, u64> {
    let before = engine.metrics().snapshot();
    run(engine);
    let delta = engine.metrics().snapshot().delta(&before);
    (delta.counters.into_iter())
        .filter_map(|(name, n)| Some((name.strip_prefix("join.")?.to_string(), n)))
        .collect()
}

const FIXTURE: &str = r#"<doc>
  <w start="0" end="5"/><w start="6" end="11"/><w start="12" end="22"/>
  <place start="0" end="11"/><place start="12" end="29"/>
  <w start="23" end="29"/>
</doc>"#;

/// A pushdown-guaranteed step: no trailing self-axis pass, no result
/// sort — asserted via the runtime counters, not timing.
#[test]
fn pushdown_guaranteed_step_elides_post_filter_and_sort() {
    let mut engine = region_engine(FIXTURE, EngineOptions::default());
    let stats = join_delta(&mut engine, |engine| {
        let result = engine
            .run(r#"count(doc("d.xml")//place/select-narrow::w)"#)
            .unwrap();
        assert_eq!(result.as_strings(), ["4"]);
    });
    assert!(stats["post_filters_elided"] > 0, "{stats:?}");
    assert_eq!(stats["post_filters"], 0, "{stats:?}");
    assert!(stats["result_sorts_elided"] > 0, "{stats:?}");
    assert_eq!(stats["result_sorts"], 0, "{stats:?}");
}

/// A kind-only test (`node()`, `*`) is guaranteed too — join output is
/// always elements.
#[test]
fn kind_only_tests_elide_post_filter() {
    for test in ["node()", "*"] {
        let mut engine = region_engine(FIXTURE, EngineOptions::default());
        let stats = join_delta(&mut engine, |engine| {
            engine
                .run(&format!(r#"doc("d.xml")//place/select-wide::{test}"#))
                .unwrap();
        });
        assert!(stats["post_filters_elided"] > 0, "{test}: {stats:?}");
        assert_eq!(stats["post_filters"], 0, "{test}: {stats:?}");
    }
}

/// Without pushdown the name test is *not* guaranteed: the trailing
/// self-step must run (it is what enforces the name).
#[test]
fn no_pushdown_keeps_post_filter() {
    let mut engine = region_engine(
        FIXTURE,
        EngineOptions {
            candidate_pushdown: false,
            ..EngineOptions::default()
        },
    );
    let stats = join_delta(&mut engine, |engine| {
        let with_filter = engine
            .run(r#"count(doc("d.xml")//place/select-narrow::w)"#)
            .unwrap();
        assert_eq!(with_filter.as_strings(), ["4"]);
    });
    assert!(stats["post_filters"] > 0, "{stats:?}");
    assert_eq!(stats["post_filters_elided"], 0, "{stats:?}");
}

/// The unoptimized reference plan never sets the elision flag: it
/// keeps the literal trailing self-step, and still agrees byte-for-byte.
#[test]
fn reference_path_keeps_literal_post_filter() {
    let mut engine = region_engine(FIXTURE, EngineOptions::default());
    let query = r#"doc("d.xml")//place/select-narrow::w"#;
    let mut optimized = None;
    let stats_opt = join_delta(&mut engine, |e| optimized = Some(e.run(query).unwrap()));
    let mut reference = None;
    let stats_ref = join_delta(&mut engine, |e| {
        reference = Some(e.run_unoptimized(query).unwrap())
    });
    assert_eq!(
        optimized.unwrap().as_serialized(),
        reference.unwrap().as_serialized()
    );
    assert_eq!(stats_opt["post_filters"], 0);
    assert!(stats_ref["post_filters"] > 0, "{stats_ref:?}");
    assert_eq!(stats_ref["post_filters_elided"], 0, "{stats_ref:?}");
}

/// The candidate-intersection path counters reflect the cost model:
/// sparse pushdown takes the node view, no pushdown takes no
/// intersection at all.
#[test]
fn candidate_access_path_counters() {
    // 1 `place` candidate over a 301-entry index: node view. The
    // `place` spans every `w`, so the wide reach of a context at the
    // table's right end — widened left by that extent — is the whole
    // table.
    let mut xml = String::from("<doc>");
    for k in 0..300 {
        xml.push_str(&format!(r#"<w start="{}" end="{}"/>"#, k * 10, k * 10 + 5));
    }
    xml.push_str(r#"<place start="0" end="2995"/></doc>"#);
    let mut engine = region_engine(&xml, EngineOptions::default());
    let stats = join_delta(&mut engine, |engine| {
        engine
            .run(r#"count(doc("d.xml")//w[300]/select-wide::place)"#)
            .unwrap();
    });
    assert_eq!(stats["candidate_reach_entries"], 301, "{stats:?}");
    assert!(stats["candidate_node_view"] > 0, "{stats:?}");

    // 300 `w` candidates over the same index: scan.
    let stats = join_delta(&mut engine, |engine| {
        engine
            .run(r#"count(doc("d.xml")//place/select-wide::w)"#)
            .unwrap();
    });
    assert!(stats["candidate_scans"] > 0, "{stats:?}");
}

/// A context over several documents yields one sorted run per document:
/// the result is their merge, still never a sort.
#[test]
fn cross_document_context_merges_its_runs() {
    let mut engine = Engine::new();
    engine
        .load_document(
            "tokens.xml",
            r#"<tokens><w start="0" end="5"/><w start="6" end="11"/></tokens>"#,
        )
        .unwrap();
    engine
        .load_document(
            "entities.xml",
            r#"<entities><place start="0" end="11"/></entities>"#,
        )
        .unwrap();
    // Two documents in one context sequence → two join units.
    let stats = join_delta(&mut engine, |engine| {
        engine
            .run(
                r#"count((doc("tokens.xml")//w, doc("entities.xml")//place)
                     /select-wide::node())"#,
            )
            .unwrap();
    });
    assert_eq!(
        (
            stats["result_merges"],
            stats["result_sorts"],
            stats["result_sorts_elided"]
        ),
        (1, 0, 0),
        "{stats:?}"
    );
}

/// Generated region workloads × all four axes × pushdown on/off: the
/// optimized pipeline (sort elision, post-filter elision, node-view
/// candidates, shared scratch) agrees byte-for-byte with both the
/// unoptimized reference plan and the naive-with-candidates oracle
/// strategy.
fn doc_xml(regions: &[(u8, i64, i64)]) -> String {
    let mut xml = String::from("<doc>");
    for &(name_pick, start, len) in regions {
        let name = ["w", "place", "thing"][name_pick as usize % 3];
        xml.push_str(&format!(
            r#"<{name} start="{start}" end="{}"/>"#,
            start + len
        ));
    }
    xml.push_str("</doc>");
    xml
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_workloads_agree_through_all_fast_paths(
        regions in prop::collection::vec((0u8..3, 0i64..120, 0i64..40), 1..24),
        pushdown in any::<bool>(),
    ) {
        let xml = doc_xml(&regions);
        let mk = |strategy| {
            region_engine(&xml, EngineOptions {
                strategy,
                candidate_pushdown: pushdown,
                ..EngineOptions::default()
            })
        };
        let mut fast = mk(StandoffStrategy::LoopLiftedMergeJoin);
        let mut oracle = mk(StandoffStrategy::NaiveWithCandidates);
        for axis in ["select-narrow", "select-wide", "reject-narrow", "reject-wide"] {
            for test in ["w", "*", "node()"] {
                let query =
                    format!(r#"doc("d.xml")//place/{axis}::{test}"#);
                let a = fast.run(&query).unwrap();
                let b = fast.run_unoptimized(&query).unwrap();
                let c = oracle.run(&query).unwrap();
                prop_assert_eq!(
                    a.as_serialized(), b.as_serialized(),
                    "optimized vs reference: {}", query);
                prop_assert_eq!(
                    a.as_serialized(), c.as_serialized(),
                    "loop-lifted vs naive oracle: {}", query);
            }
        }
        // The fast engine really exercised the elision branches.
        let stats = fast.metrics().snapshot().counters;
        prop_assert!(stats["join.post_filters_elided"] > 0, "{:?}", stats);
        prop_assert!(stats["join.result_sorts_elided"] > 0, "{:?}", stats);
    }
}

/// `JoinStats` is exported and mergeable — the shape the bench harness
/// and doc examples rely on.
#[test]
fn join_stats_merge() {
    let mut a = JoinStats {
        post_filters_elided: 1,
        result_sorts: 2,
        ..JoinStats::default()
    };
    a.merge(JoinStats {
        post_filters_elided: 2,
        candidate_node_view: 5,
        ..JoinStats::default()
    });
    assert_eq!(a.post_filters_elided, 3);
    assert_eq!(a.result_sorts, 2);
    assert_eq!(a.candidate_node_view, 5);
}
