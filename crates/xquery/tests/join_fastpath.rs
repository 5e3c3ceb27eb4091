//! The join hot path's fast-path *mechanisms*, asserted directly.
//!
//! Timing can lie on a loaded CI box; the `join.*` counters of the
//! engine's metrics registry (what `stats` prints) cannot.
//! These tests pin that a pushdown-guaranteed StandOff step really skips
//! the trailing self-axis pass, that its result is counted as sorted
//! exactly when it had to be put in document order (one target is
//! emitted directly, several merge), that the literal paths still
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
/// sort — asserted via the runtime counters, not timing. The step is
/// bare: under `count(…)` its rows would be counted from the index, not
/// assembled.
#[test]
fn pushdown_guaranteed_step_elides_post_filter_and_sort() {
    let mut engine = region_engine(FIXTURE, EngineOptions::default());
    let stats = join_delta(&mut engine, |engine| {
        let result = engine
            .run(r#"doc("d.xml")//place/select-narrow::w"#)
            .unwrap();
        assert_eq!(result.len(), 4);
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

/// The candidate counters name the source each join read: a pushed
/// name its posting — whose reach holds only that name's entries —, an
/// explicit candidate sequence the node view over the index's reach.
#[test]
fn candidate_access_path_counters() {
    // 1 `place` over a 301-entry index. The `place` spans every `w`, so
    // the index's wide reach of a context at the table's right end is
    // the whole table, while the posting's is its one entry.
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
    assert_eq!(stats["candidate_reach_entries"], 1, "{stats:?}");
    assert_eq!(stats["candidate_posting"], 1, "{stats:?}");
    assert_eq!(stats["candidate_node_view"], 0, "{stats:?}");

    // 300 `w` over the same index: their posting too, read in full.
    let stats = join_delta(&mut engine, |engine| {
        engine
            .run(r#"count(doc("d.xml")//place/select-wide::w)"#)
            .unwrap();
    });
    assert_eq!(
        (stats["candidate_posting"], stats["candidate_reach_entries"]),
        (1, 300),
        "{stats:?}"
    );

    // The function form's explicit candidates: the node view, over the
    // index's own (whole) wide reach.
    let stats = join_delta(&mut engine, |engine| {
        engine
            .run(r#"count(select-wide(doc("d.xml")//w[300], doc("d.xml")//place))"#)
            .unwrap();
    });
    assert_eq!(
        (
            stats["candidate_node_view"],
            stats["candidate_reach_entries"]
        ),
        (1, 301),
        "{stats:?}"
    );
}

/// StandOff XMark's start order is not its document order: Q2's
/// `bidder` step, whose rows span many iterations, must put them in
/// document order, and says so. With Q2's `[1]` the pick is made in the
/// join: it keeps a row per iteration from slots, sorts nothing, and
/// says how many rows it selected and kept.
#[test]
fn xmark_q2_bidder_step_counts_its_sort() {
    use standoff_xmark::queries::XmarkQuery;
    use standoff_xmark::{generate, standoffify, XmarkConfig};
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.002)), 7);
    let mut engine = Engine::new();
    engine.add_document(so.doc, Some("xmark.xml"));
    let bidder_line = |engine: &mut Engine, query: &str| {
        let text = engine.explain_analyze(query).unwrap();
        (text.lines())
            .find(|l| l.contains("select-narrow::bidder"))
            .unwrap_or_else(|| panic!("no bidder step: {text}"))
            .to_string()
    };
    let sorts = |line: &str| -> u64 {
        line.split_once(" sorts=")
            .and_then(|(_, rest)| rest.split(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no sorts count: {line}"))
    };
    let every_bidder =
        r#"for $b in doc("xmark.xml")//open_auction return $b/select-narrow::bidder"#;
    let line = bidder_line(&mut engine, every_bidder);
    assert!(sorts(&line) >= 1, "{line}");
    assert!(line.contains("(elided 0)"), "{line}");
    assert!(!line.contains("pick:"), "{line}");

    let line = bidder_line(&mut engine, &XmarkQuery::Q2.standoff("xmark.xml"));
    assert_eq!(sorts(&line), 0, "{line}");
    assert!(line.contains("(elided 1)"), "{line}");
    assert!(line.contains("pick: [1] in join"), "{line}");
    let count = |engine: &mut Engine, q: &str| -> String {
        engine.run(&format!("count({q})")).unwrap().as_strings()[0].clone()
    };
    let selected = count(&mut engine, every_bidder);
    let kept = count(&mut engine, &every_bidder.replace("bidder", "bidder[1]"));
    assert!(
        line.contains(&format!(" selected={selected} kept={kept}")),
        "{line}"
    );
}

/// A context over several documents yields one sorted run per document:
/// the result is their merge; each run left its kernel in document
/// order, so nothing was sorted. Counted, the same two
/// units assemble no rows: nothing is merged, each target is counted
/// from the index.
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
    let step = r#"(doc("tokens.xml")//w, doc("entities.xml")//place)/select-wide::node()"#;
    let stats = join_delta(&mut engine, |engine| {
        assert_eq!(engine.run(step).unwrap().len(), 3);
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
    let stats = join_delta(&mut engine, |engine| {
        let counted = engine.run(&format!("count({step})")).unwrap();
        assert_eq!(counted.as_strings(), ["3"]);
    });
    assert_eq!(
        (
            stats["result_merges"],
            stats["result_sorts_elided"],
            stats["counts_from_index"]
        ),
        (0, 0, 2),
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
        // The fast engine really exercised the post-filter elision, and
        // accounted for every join's result: one target each, so it was
        // either put in document order or emitted as it left the kernel.
        let stats = fast.metrics().snapshot().counters;
        prop_assert!(stats["join.post_filters_elided"] > 0, "{:?}", stats);
        prop_assert_eq!(
            stats["join.result_sorts"] + stats["join.result_sorts_elided"],
            stats["query.executions"],
            "{:?}", stats
        );
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
