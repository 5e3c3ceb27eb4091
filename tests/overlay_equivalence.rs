//! Merge-on-read equivalence: a corpus mounted as *base + delta
//! overlay* must answer every query **byte-identically** to the same
//! corpus after [`standoff::store::compact`] folded the delta into a
//! fresh snapshot. This is the contract that makes compaction a pure
//! space/speed optimization — callers can compact (or not) without any
//! observable change.
//!
//! Coverage: randomized cross-layer corpora and delta batches
//! (proptest), the XMark §4.6 workload with a hand-built delta, and all
//! four join strategies on both sides of every comparison.

use proptest::prelude::*;

use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::store::{DeltaOp, DeltaSet, LayerSet};
use standoff::xml::parse_document;
use standoff::xquery::{Engine, EngineOptions};

const STRATEGIES: [StandoffStrategy; 4] = [
    StandoffStrategy::NaiveNoCandidates,
    StandoffStrategy::NaiveWithCandidates,
    StandoffStrategy::BasicMergeJoin,
    StandoffStrategy::LoopLiftedMergeJoin,
];

fn engine_with(strategy: StandoffStrategy) -> Engine {
    Engine::with_options(EngineOptions {
        strategy,
        ..EngineOptions::default()
    })
}

/// Run `queries` against (set + delta, merge-on-read) and against
/// compact(set, delta), under every strategy, and demand byte-identical
/// serialized answers.
fn assert_overlay_equals_compacted(set: &LayerSet, delta: &DeltaSet, queries: &[String]) {
    let folded = standoff::store::compact(set, delta).expect("compaction succeeds");
    for strategy in STRATEGIES {
        let mut overlay = engine_with(strategy);
        overlay
            .mount_overlay(set.clone(), delta)
            .expect("overlay mounts");
        let mut compacted = engine_with(strategy);
        compacted
            .mount_store(folded.clone())
            .expect("compacted snapshot mounts");
        for query in queries {
            let a = overlay.run(query).expect("overlay query runs").as_xml();
            let b = compacted.run(query).expect("compacted query runs").as_xml();
            assert_eq!(a, b, "overlay != compacted for {strategy:?}: {query}");
        }
    }
}

/// The fused `[@a = "lit"]` filter reads attribute columns directly;
/// over the overlay it must equal both the compacted snapshot and the
/// generic predicate frame (the unoptimized reference lowering), which
/// reaches attributes through the merge-on-read tree steps.
fn assert_attr_filter_three_ways(set: &LayerSet, delta: &DeltaSet) {
    let folded = standoff::store::compact(set, delta).expect("compaction succeeds");
    for strategy in STRATEGIES {
        let mut overlay = engine_with(strategy);
        overlay
            .mount_overlay(set.clone(), delta)
            .expect("overlay mounts");
        let mut compacted = engine_with(strategy);
        compacted
            .mount_store(folded.clone())
            .expect("compacted snapshot mounts");
        for query in attr_filter_queries() {
            assert!(
                overlay.explain(&query).unwrap().contains("attr-filter @"),
                "not fused: {query}"
            );
            let a = overlay.run(&query).expect("overlay query runs").as_xml();
            let b = compacted
                .run(&query)
                .expect("compacted query runs")
                .as_xml();
            assert_eq!(a, b, "overlay != compacted for {strategy:?}: {query}");
            let c = overlay
                .run_unoptimized(&query)
                .expect("reference lowering runs")
                .as_xml();
            assert_eq!(
                a, c,
                "fused != generic on the overlay, {strategy:?}: {query}"
            );
        }
    }
}

/// `[@attr = "literal"]` over rows the overlay touches every way it
/// can: base rows (some retracted), pending inserts (the only carriers
/// of `k`), join output, and the layer root itself — whose row gains a
/// delta-root companion under merge-on-read.
fn attr_filter_queries() -> Vec<String> {
    let mut q = Vec::new();
    for (layer, name) in [("tokens", "w"), ("entities", "person")] {
        let l = format!(r#"layer("{URI}", "{layer}")"#);
        q.push(format!(r#"{l}//{name}[@k = "0"]"#));
        q.push(format!(r#"{l}//{name}["1" = @k]"#));
        q.push(format!(r#"count({l}//{name}[@n = "1"])"#));
        q.push(format!(r#"count({l}//{name}[@start = "3"])"#));
        q.push(format!(r#"({l}//{name})[@n = "0"]"#));
        q.push(format!(
            r#"count({l}/{layer}[@id = "{layer}-root"]//{name})"#
        ));
        q.push(format!(r#"count({l}/*[@id = "{layer}-root"])"#));
        q.push(format!(r#"count({l}//*[@id = "{layer}-root"])"#));
        q.push(format!(r#"count({l}/{layer}[@k = "0"])"#));
    }
    q.push(format!(
        r#"for $p in layer("{URI}", "entities")//person return count($p/select-wide::w[@k = "0"])"#
    ));
    q.push(format!(
        r#"count(layer("{URI}", "tokens")//w[@k = "1"]/select-wide::person)"#
    ));
    q
}

// ---- randomized cross-layer corpora ----

/// Random annotation spans (start, end), sorted by start.
fn spans_strategy(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..120, 1i64..25), 1..max).prop_map(|raw| {
        let mut spans: Vec<(i64, i64)> = raw.into_iter().map(|(s, l)| (s, s + l)).collect();
        spans.sort_unstable();
        spans
    })
}

fn layer_doc(root: &str, elem: &str, spans: &[(i64, i64)]) -> standoff::xml::Document {
    let mut xml = format!(r#"<{root} id="{root}-root">"#);
    for (k, (s, e)) in spans.iter().enumerate() {
        xml.push_str(&format!(r#"<{elem} n="{k}" start="{s}" end="{e}"/>"#));
    }
    xml.push_str(&format!("</{root}>"));
    parse_document(&xml).unwrap()
}

const URI: &str = "mem://prop";

/// Tree navigation and attribute reads over the two annotation layers.
/// (The join axes across layers, overlay against compacted, are
/// generated by `tests/layer_differential.rs`.)
fn cross_layer_queries() -> Vec<String> {
    vec![
        format!(r#"layer("{URI}", "tokens")//w"#),
        format!(r#"count(layer("{URI}", "entities")//person)"#),
        format!(r#"for $w in layer("{URI}", "tokens")//w return string($w/@start)"#),
        // `//name` is one index-driven `descendant::name` step: pending
        // inserts are reached through the mirrored delta root, and when
        // the name is the layer root's own the delta root must still
        // fold away as scaffolding — one root, before and after.
        format!(r#"count(layer("{URI}", "entities")//entities)"#),
        format!(r#"count(layer("{URI}", "tokens")//tokens)"#),
        // A rooted-element context instead of the document node.
        format!(r#"layer("{URI}", "entities")/entities//person"#),
        format!(r#"count(layer("{URI}", "tokens")/tokens//w)"#),
        // Fused with a value predicate: only pending inserts carry `k`.
        format!(r#"layer("{URI}", "tokens")//w[@k]"#),
        format!(r#"count(layer("{URI}", "entities")//person[not(@k)])"#),
        // Positional predicates keep the literal two-step form, numbered
        // per parent over base children then pending inserts.
        format!(r#"string(layer("{URI}", "tokens")//w[last()]/@start)"#),
        format!(r#"layer("{URI}", "entities")//person[1]"#),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary two-layer corpora with arbitrary (valid) insert and
    /// retract batches: querying through the overlay is byte-identical
    /// to querying the compacted snapshot.
    #[test]
    fn overlay_matches_compaction(
        token_spans in spans_strategy(14),
        entity_spans in spans_strategy(8),
        inserts in prop::collection::vec((0i64..120, 1i64..25, 0usize..2), 0..6),
        retract_picks in prop::collection::vec(0usize..64, 0..6),
    ) {
        let base = parse_document(
            "<text>the quick brown fox jumps over the lazy dog again and again</text>",
        )
        .unwrap();
        let mut set = LayerSet::build(URI, base, StandoffConfig::default()).unwrap();
        set.add_layer("tokens", layer_doc("tokens", "w", &token_spans), StandoffConfig::default())
            .unwrap();
        set.add_layer(
            "entities",
            layer_doc("entities", "person", &entity_spans),
            StandoffConfig::default(),
        )
        .unwrap();

        // Valid-by-construction delta: inserts go to alternating layers;
        // retracts pick from the spans we just indexed. Duplicate picks
        // double-retract, which `apply` rejects — skip those.
        let mut delta = DeltaSet::new();
        for (k, (s, l, layer_pick)) in inserts.iter().enumerate() {
            let (layer, name) = if *layer_pick == 0 { ("tokens", "w") } else { ("entities", "person") };
            delta.apply(
                DeltaOp::Insert {
                    layer: layer.into(),
                    name: name.into(),
                    start: *s,
                    end: s + l,
                    attrs: vec![("k".into(), k.to_string())],
                },
                &set,
            )
            .unwrap();
        }
        for pick in &retract_picks {
            let (layer, name, spans): (&str, &str, &[(i64, i64)]) = if pick % 2 == 0 {
                ("tokens", "w", &token_spans)
            } else {
                ("entities", "person", &entity_spans)
            };
            let (s, e) = spans[(pick / 2) % spans.len()];
            let _ = delta.apply(
                DeltaOp::Retract { layer: layer.into(), name: name.into(), start: s, end: e },
                &set,
            );
        }

        assert_overlay_equals_compacted(&set, &delta, &cross_layer_queries());
        assert_attr_filter_three_ways(&set, &delta);
    }
}

// ---- the XMark workload ----

/// XMark Q1/Q2/Q6/Q7 (the paper's §4.6 rewrites) over a standoffified
/// XMark corpus mounted as an annotation layer, with a delta that
/// retracts real annotations and inserts new ones: overlay and
/// compacted snapshot agree byte-for-byte under all four strategies.
#[test]
fn xmark_overlay_matches_compaction() {
    use standoff::xmark::queries::XmarkQuery;
    use standoff::xmark::{generate, standoffify, XmarkConfig};

    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let mut set = LayerSet::build("xmark", src, StandoffConfig::default()).unwrap();
    set.add_layer("anno", so.doc.clone(), StandoffConfig::default())
        .unwrap();

    // Retract some real annotations (regions read straight off the
    // layer document) and insert fresh ones next to them.
    let doc = set.layer("anno").unwrap().doc().clone();
    let region_of = |pre: u32| -> (i64, i64) {
        let mut start = None;
        let mut end = None;
        for attr in doc.attributes(pre) {
            let a = attr.attr_index().unwrap();
            match doc.names().lexical(doc.attr_name_id(a)).as_str() {
                "start" => start = doc.attr_value(a).parse().ok(),
                "end" => end = doc.attr_value(a).parse().ok(),
                _ => {}
            }
        }
        (start.unwrap(), end.unwrap())
    };
    let mut delta = DeltaSet::new();
    for (name, take) in [("bold", 2usize), ("emph", 2), ("increase", 1)] {
        for &pre in doc.elements_named(name).iter().take(take) {
            let (s, e) = region_of(pre);
            delta
                .apply(
                    DeltaOp::Retract {
                        layer: "anno".into(),
                        name: name.into(),
                        start: s,
                        end: e,
                    },
                    &set,
                )
                .unwrap();
        }
    }
    for (k, &pre) in doc.elements_named("name").iter().take(3).enumerate() {
        let (s, e) = region_of(pre);
        delta
            .apply(
                DeltaOp::Insert {
                    layer: "anno".into(),
                    name: "highlight".into(),
                    start: s,
                    end: e,
                    attrs: vec![("n".into(), k.to_string())],
                },
                &set,
            )
            .unwrap();
    }
    assert!(delta.insert_count() > 0 && delta.retract_count() > 0);

    // The standoff rewrites address the annotation layer by its mounted
    // URI (`base-uri#layer`); add overlay-sensitive probes on top.
    let mut queries: Vec<String> = [
        XmarkQuery::Q1,
        XmarkQuery::Q2,
        XmarkQuery::Q6,
        XmarkQuery::Q7,
    ]
    .iter()
    .map(|q| q.standoff("xmark#anno"))
    .collect();
    queries.push(r#"count(doc("xmark#anno")//bold)"#.into());
    queries.push(r#"doc("xmark#anno")//highlight"#.into());
    queries.push(r#"count(doc("xmark#anno")//site)"#.into());
    queries.push(r#"doc("xmark#anno")/site//highlight"#.into());
    queries.push(r#"count(doc("xmark#anno")/site//bold)"#.into());
    queries.push(r#"doc("xmark#anno")//highlight[@n = "1"]"#.into());
    queries.push(r#"for $h in doc("xmark#anno")//highlight return $h/select-wide::item"#.into());

    assert_overlay_equals_compacted(&set, &delta, &queries);
}

/// The dense candidate kernel through the overlay seam: a corpus big
/// and dense enough that the intersection takes the bitset scan, with
/// retractions that force the impure post-filter. Overlay and compacted
/// answers must agree byte-for-byte under every strategy, and the dense
/// counters must actually have fired.
#[test]
fn dense_kernel_matches_through_overlay() {
    let base_text: String = "x".repeat(20_000);
    let base = parse_document(&format!("<text>{base_text}</text>")).unwrap();
    let mut set = LayerSet::build(URI, base, StandoffConfig::default()).unwrap();
    let token_spans: Vec<(i64, i64)> = (0..9_000).map(|k| (k * 2, k * 2 + 1)).collect();
    // A `<p>` beside every 10th token: `w` is not every annotation of
    // the layer, so its candidates are intersected, not borrowed.
    let mut tokens = String::from("<tokens>");
    for (k, (s, e)) in token_spans.iter().enumerate() {
        tokens.push_str(&format!(r#"<w n="{k}" start="{s}" end="{e}"/>"#));
        if k % 10 == 0 {
            tokens.push_str(&format!(r#"<p start="{s}" end="{e}"/>"#));
        }
    }
    tokens.push_str("</tokens>");
    set.add_layer(
        "tokens",
        parse_document(&tokens).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    let big_spans: Vec<(i64, i64)> = (0..4).map(|k| (k * 4_500, (k + 1) * 4_500 - 1)).collect();
    set.add_layer(
        "spans",
        layer_doc("spans", "big", &big_spans),
        StandoffConfig::default(),
    )
    .unwrap();

    // Retract every 100th token: the overlay read path must subtract
    // them *after* the dense scan, never per entry.
    let mut delta = DeltaSet::new();
    for &(s, e) in token_spans.iter().step_by(100) {
        delta
            .apply(
                DeltaOp::Retract {
                    layer: "tokens".into(),
                    name: "w".into(),
                    start: s,
                    end: e,
                },
                &set,
            )
            .unwrap();
    }

    let queries = [
        format!(r#"count(layer("{URI}", "spans")//big/select-narrow::w)"#),
        format!(r#"layer("{URI}", "spans")//big[@n = "2"]/select-narrow::w"#),
    ];
    let folded = standoff::store::compact(&set, &delta).unwrap();
    let mut reference: Option<Vec<String>> = None;
    for strategy in STRATEGIES {
        let mut overlay = engine_with(strategy);
        overlay.mount_overlay(set.clone(), &delta).unwrap();
        let mut compacted = engine_with(strategy);
        compacted.mount_store(folded.clone()).unwrap();
        let mut answers = Vec::new();
        for query in &queries {
            let a = overlay.run(query).unwrap().as_xml();
            let b = compacted.run(query).unwrap().as_xml();
            assert_eq!(a, b, "overlay != compacted: {strategy:?} {query}");
            answers.push(a);
        }
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(&answers, r, "{strategy:?} diverged"),
        }
        // The dense kernel really ran on the strategies that
        // materialize candidate entries (the naive nested loops
        // probe per node and never touch the scan kernel).
        if matches!(
            strategy,
            StandoffStrategy::BasicMergeJoin | StandoffStrategy::LoopLiftedMergeJoin
        ) {
            let stats = overlay.join_stats();
            assert!(
                stats.candidate_repr_dense > 0,
                "{strategy:?}: dense scan never ran: {stats:?}"
            );
        }
    }
    // 9000 tokens minus 90 retractions, each token inside exactly one big.
    assert_eq!(
        reference.unwrap()[0],
        (9_000 - 90).to_string(),
        "retractions visible through the dense path"
    );
}

// ---- documented divergence pin ----

/// Pins the divergence documented since the overlay work landed (see
/// README "Writable layers" and "Durability"): pending inserts are
/// *query-visible* through the merge-on-read overlay, but serializing
/// a whole overlaid document **root** omits them — the inserts live in
/// sibling delta documents, and root serialization walks only the base
/// tree. Compaction folds them in, so `compact` first for
/// full-document output.
///
/// If this test fails because the overlay serialization started
/// *including* the insert, the divergence has been fixed: delete this
/// pin and the README caveat together.
#[test]
fn overlaid_root_serialization_omits_pending_inserts_divergence_pin() {
    let base = parse_document("<text>Alice met Bob</text>").unwrap();
    let mut set = LayerSet::build("mem://pin", base, StandoffConfig::default()).unwrap();
    let tokens = parse_document(
        r#"<tokens><w start="0" end="4"/><w start="6" end="8"/><w start="10" end="12"/></tokens>"#,
    )
    .unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    let mut delta = DeltaSet::new();
    delta
        .apply(
            DeltaOp::Insert {
                layer: "tokens".into(),
                name: "ner".into(),
                start: 0,
                end: 4,
                attrs: vec![("class".into(), "PER".into())],
            },
            &set,
        )
        .unwrap();

    let mut overlay = Engine::new();
    overlay.mount_overlay(set.clone(), &delta).unwrap();
    // The insert is fully query-visible through the overlay...
    assert_eq!(
        overlay
            .run(r#"count(layer("mem://pin", "tokens")//ner)"#)
            .unwrap()
            .as_xml(),
        "1"
    );
    // ...but the serialized document root omits it (the divergence).
    let overlaid_root = overlay
        .run(r#"layer("mem://pin", "tokens")"#)
        .unwrap()
        .as_xml();
    assert!(
        !overlaid_root.contains("<ner"),
        "divergence fixed? overlaid root now serializes pending inserts: {overlaid_root}"
    );
    // Compaction is the documented way to get full-document output.
    let folded = standoff::store::compact(&set, &delta).unwrap();
    let mut compacted = Engine::new();
    compacted.mount_store(folded).unwrap();
    let compacted_root = compacted
        .run(r#"layer("mem://pin", "tokens")"#)
        .unwrap()
        .as_xml();
    assert!(
        compacted_root.contains("<ner"),
        "compacted root must include the folded insert: {compacted_root}"
    );
}
