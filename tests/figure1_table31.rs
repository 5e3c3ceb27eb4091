//! Reproduces the paper's §3.1 example table ("StandOff Joins between U2
//! and Shots") on the Figure 1 multimedia document, both through the
//! XQuery engine (axis steps, all strategies) and directly through the
//! core join API.

use standoff::core::join::join_resolved;
use standoff::core::{
    IterNode, JoinScratch, JoinTarget, RegionIndex, StandoffAxis, StandoffConfig, StandoffStrategy,
};
use standoff::fixtures::{engine_with_figure1, FIGURE1_URI, FIGURE1_XML};

/// The expected table from §3.1.
const EXPECTED: [(StandoffAxis, &[&str]); 4] = [
    (StandoffAxis::SelectNarrow, &["Intro"]),
    (StandoffAxis::SelectWide, &["Intro", "Interview"]),
    (StandoffAxis::RejectNarrow, &["Interview", "Outro"]),
    (StandoffAxis::RejectWide, &["Outro"]),
];

#[test]
fn table31_via_axis_steps() {
    let mut engine = engine_with_figure1();
    for (axis, expected) in EXPECTED {
        let q = format!(
            r#"doc("{FIGURE1_URI}")//music[@artist = "U2"]/{}::shot/@id"#,
            axis.as_str()
        );
        let got = engine.run(&q).unwrap();
        assert_eq!(got.as_strings(), expected, "{axis}");
    }
}

#[test]
fn table31_via_builtin_functions() {
    let mut engine = engine_with_figure1();
    for (axis, expected) in EXPECTED {
        let q = format!(
            r#"{}(doc("{FIGURE1_URI}")//music[@artist = "U2"],
                  doc("{FIGURE1_URI}")//shot)/@id"#,
            axis.as_str()
        );
        let got = engine.run(&q).unwrap();
        assert_eq!(got.as_strings(), expected, "{axis} as function");
    }
}

#[test]
fn table31_identical_across_all_strategies() {
    for strategy in StandoffStrategy::ALL {
        let mut engine = standoff::xquery::Engine::with_options(standoff::xquery::EngineOptions {
            strategy,
            ..Default::default()
        });
        engine.load_document(FIGURE1_URI, FIGURE1_XML).unwrap();
        for (axis, expected) in EXPECTED {
            let q = format!(
                r#"doc("{FIGURE1_URI}")//music[@artist = "U2"]/{}::shot/@id"#,
                axis.as_str()
            );
            let got = engine.run(&q).unwrap();
            assert_eq!(got.as_strings(), expected, "{axis} under {strategy}");
        }
    }
}

#[test]
fn table31_via_core_join_api() {
    let doc = standoff::xml::parse_document(FIGURE1_XML).unwrap();
    let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    let u2 = doc
        .elements_named("music")
        .iter()
        .copied()
        .find(|&m| doc.attribute(m, "artist").unwrap().as_deref() == Some("U2"))
        .unwrap();
    let shots = doc.elements_named("shot");
    let context = [IterNode { iter: 0, node: u2 }];
    let target = JoinTarget {
        doc: &doc,
        index: &index,
        candidates: Some(shots),
        posting: None,
        iter_domain: &[0],
    };
    let mut scratch = JoinScratch::default();
    scratch.resolve_context([(&index, &context[..])]);
    for (axis, expected) in EXPECTED {
        let strategy = StandoffStrategy::LoopLiftedMergeJoin;
        let result = join_resolved(axis, strategy, &target, None, None, &mut scratch);
        let ids: Vec<String> = result
            .iter()
            .map(|e| doc.attribute(e.node, "id").unwrap().unwrap().to_string())
            .collect();
        assert_eq!(ids, expected, "{axis} via core API");
    }
}

#[test]
fn bach_row_for_completeness() {
    // Not printed in the paper but fully determined by Figure 1:
    // Bach [52,94] contains Outro [64,94], overlaps Interview and Outro.
    let mut engine = engine_with_figure1();
    let bach = format!(r#"doc("{FIGURE1_URI}")//music[@artist = "Bach"]"#);
    assert_eq!(
        engine
            .run(&format!("{bach}/select-narrow::shot/@id"))
            .unwrap()
            .as_strings(),
        ["Outro"]
    );
    assert_eq!(
        engine
            .run(&format!("{bach}/select-wide::shot/@id"))
            .unwrap()
            .as_strings(),
        ["Interview", "Outro"]
    );
    assert_eq!(
        engine
            .run(&format!("{bach}/reject-wide::shot/@id"))
            .unwrap()
            .as_strings(),
        ["Intro"]
    );
}

#[test]
fn whole_music_sequence_as_context() {
    // Context = both music annotations: select-wide covers every shot,
    // reject-wide nothing.
    let mut engine = engine_with_figure1();
    assert_eq!(
        engine
            .run(&format!(
                r#"doc("{FIGURE1_URI}")//music/select-wide::shot/@id"#
            ))
            .unwrap()
            .as_strings(),
        ["Intro", "Interview", "Outro"]
    );
    assert!(engine
        .run(&format!(r#"doc("{FIGURE1_URI}")//music/reject-wide::shot"#))
        .unwrap()
        .is_empty());
}
