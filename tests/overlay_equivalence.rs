//! Fold equivalence: a `WritableEngine` that received a delta batch by
//! batch — each batch folded into the view its readers mount — must
//! answer every query **byte-identically** to the same corpus after
//! [`standoff::store::compact`] folded the whole delta in one go, and
//! its view must *be* that compaction, document for document. This is
//! the contract that makes the pending delta invisible to readers: they
//! always query a compacted layer set.
//!
//! Coverage: randomized cross-layer corpora with interleaved insert,
//! retract, cancel and replace batches (proptest), the XMark §4.6
//! workload with a hand-built delta, a name's posting, and all
//! four join strategies on both sides of every comparison.

use proptest::prelude::*;

use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::store::{DeltaOp, DeltaSet, LayerSet};
use standoff::xml::{parse_document, try_serialize_document, SerializeOptions};
use standoff::xquery::{Engine, EngineOptions, WritableEngine};

const STRATEGIES: [StandoffStrategy; 4] = [
    StandoffStrategy::NaiveNoCandidates,
    StandoffStrategy::NaiveWithCandidates,
    StandoffStrategy::BasicMergeJoin,
    StandoffStrategy::LoopLiftedMergeJoin,
];

fn options(strategy: StandoffStrategy) -> EngineOptions {
    EngineOptions {
        strategy,
        ..EngineOptions::default()
    }
}

/// Every layer of `set`, serialized.
fn serialized(set: &LayerSet) -> Vec<String> {
    (set.layers().iter())
        .map(|layer| try_serialize_document(layer.doc(), SerializeOptions::default()).unwrap())
        .collect()
}

/// The two sides of every comparison under `strategy`: a writer that
/// received `batches` one `apply` each, and an engine over `folded`,
/// `compact(set, all of them)`.
fn both_sides(
    set: &LayerSet,
    batches: &[Vec<DeltaOp>],
    strategy: StandoffStrategy,
) -> (WritableEngine, Engine, LayerSet) {
    let mut writer = WritableEngine::mount(set.clone(), options(strategy)).unwrap();
    let mut delta = DeltaSet::new();
    for batch in batches {
        writer
            .apply(batch.clone())
            .expect("an accepted batch applies");
        delta.apply_all(batch.iter().cloned(), set).unwrap();
    }
    let folded = standoff::store::compact(set, &delta).expect("compaction succeeds");
    let mut compacted = Engine::with_options(options(strategy));
    compacted
        .mount_store(folded.clone())
        .expect("compacted snapshot mounts");
    (writer, compacted, folded)
}

/// Run `queries` through the writer and against the compaction, under
/// every strategy, and demand byte-identical serialized answers — and
/// a view that serializes as the compaction does.
fn assert_writer_equals_compacted(set: &LayerSet, batches: &[Vec<DeltaOp>], queries: &[String]) {
    for strategy in STRATEGIES {
        let (mut writer, mut compacted, folded) = both_sides(set, batches, strategy);
        let mut session = writer.session();
        for query in queries {
            let a = session.run(query).expect("writer query runs").as_xml();
            let b = compacted.run(query).expect("compacted query runs").as_xml();
            assert_eq!(a, b, "writer != compacted for {strategy:?}: {query}");
        }
        let view = writer.compact().unwrap();
        assert_eq!(serialized(&view), serialized(&folded), "{strategy:?}");
    }
}

/// The fused `[@a = "lit"]` filter reads attribute columns directly;
/// through the writer it must equal both the compacted snapshot and
/// the generic predicate frame (the unoptimized reference plan).
fn assert_attr_filter_three_ways(set: &LayerSet, batches: &[Vec<DeltaOp>]) {
    for strategy in STRATEGIES {
        let (writer, mut compacted, _) = both_sides(set, batches, strategy);
        let mut session = writer.session();
        for query in attr_filter_queries() {
            assert!(
                compacted.explain(&query).unwrap().contains("attr-filter @"),
                "not fused: {query}"
            );
            let a = session.run(&query).expect("writer query runs").as_xml();
            let b = compacted
                .run(&query)
                .expect("compacted query runs")
                .as_xml();
            assert_eq!(a, b, "writer != compacted for {strategy:?}: {query}");
            let c = compacted
                .run_unoptimized(&query)
                .expect("reference plan runs")
                .as_xml();
            assert_eq!(a, c, "fused != generic, {strategy:?}: {query}");
        }
    }
}

/// `[@attr = "literal"]` over rows a delta touches every way it can:
/// base rows (some retracted), pending inserts (the only carriers of
/// `k`), join output, and the layer root itself.
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

/// Tree navigation, serialization and attribute reads over the two
/// annotation layers. (The join axes across layers, writer against
/// compacted, are generated by `tests/layer_differential.rs`.)
fn cross_layer_queries() -> Vec<String> {
    vec![
        format!(r#"layer("{URI}", "tokens")//w"#),
        format!(r#"count(layer("{URI}", "entities")//person)"#),
        format!(r#"for $w in layer("{URI}", "tokens")//w return string($w/@start)"#),
        // Whole layers, pending inserts included.
        format!(r#"layer("{URI}", "tokens")"#),
        format!(r#"layer("{URI}", "entities")"#),
        // Horizontal axes from and to pending inserts.
        format!(r#"layer("{URI}", "tokens")//w[@k]/preceding-sibling::w[1]"#),
        format!(r#"for $w in layer("{URI}", "tokens")//w return count($w/following::*)"#),
        format!(r#"layer("{URI}", "entities")//person[@k]/../@id"#),
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

/// Cut `ops` into consecutive batches of the sizes in `cuts`, cycled.
fn batches_of(ops: Vec<DeltaOp>, cuts: &[usize]) -> Vec<Vec<DeltaOp>> {
    let mut out = Vec::new();
    let mut ops = ops.into_iter().peekable();
    for &cut in cuts.iter().cycle() {
        if ops.peek().is_none() {
            break;
        }
        out.push(ops.by_ref().take(cut.max(1)).collect());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary two-layer corpora with an arbitrary (valid) sequence of
    /// inserts, base retracts, retracts of pending inserts and inserts
    /// that replace a retracted annotation in place, cut into batches:
    /// the writer's reads and view equal the compacted snapshot's.
    #[test]
    fn overlay_matches_compaction(
        token_spans in spans_strategy(14),
        entity_spans in spans_strategy(8),
        picks in prop::collection::vec((0u8..4, 0i64..120, 1i64..25, 0usize..64), 0..12),
        cuts in prop::collection::vec(1usize..4, 1..4),
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

        // Valid by construction: every op the delta refuses (a double
        // retract, say) is left out of the batches.
        let (mut delta, mut ops) = (DeltaSet::new(), Vec::new());
        let mut inserted: Vec<(&str, &str, i64, i64)> = Vec::new();
        for (k, &(kind, s, l, pick)) in picks.iter().enumerate() {
            let (layer, name, spans): (&str, &str, &[(i64, i64)]) = if pick % 2 == 0 {
                ("tokens", "w", &token_spans)
            } else {
                ("entities", "person", &entity_spans)
            };
            let (bs, be) = spans[(pick / 2) % spans.len()];
            let insert = |start, end| DeltaOp::Insert {
                layer: layer.into(),
                name: name.into(),
                start,
                end,
                attrs: vec![("k".into(), k.to_string())],
            };
            let retract = |(layer, name, start, end): (&str, &str, i64, i64)| DeltaOp::Retract {
                layer: layer.into(),
                name: name.into(),
                start,
                end,
            };
            let op = match kind {
                0 => insert(s, s + l),
                1 => retract((layer, name, bs, be)),
                2 if !inserted.is_empty() => retract(inserted[pick % inserted.len()]),
                _ => insert(bs, be),
            };
            if delta.apply(op.clone(), &set).is_ok() {
                if let DeltaOp::Insert { start, end, .. } = &op {
                    inserted.push((layer, name, *start, *end));
                }
                ops.push(op);
            }
        }
        let batches = batches_of(ops, &cuts);

        assert_writer_equals_compacted(&set, &batches, &cross_layer_queries());
        assert_attr_filter_three_ways(&set, &batches);
    }
}

// ---- the XMark workload ----

/// XMark Q1/Q2/Q6/Q7 (the paper's §4.6 rewrites) over a standoffified
/// XMark corpus mounted as an annotation layer, with batches that
/// retract real annotations and insert new ones: the writer and the
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
        for attr in doc.attrs().unwrap().of(pre) {
            let a = attr.attr_index().unwrap();
            match doc
                .names()
                .lexical(doc.attrs().unwrap().name_id(a))
                .as_str()
            {
                "start" => start = doc.attrs().unwrap().value(a).parse().ok(),
                "end" => end = doc.attrs().unwrap().value(a).parse().ok(),
                _ => {}
            }
        }
        (start.unwrap(), end.unwrap())
    };
    let mut retracts = Vec::new();
    for (name, take) in [("bold", 2usize), ("emph", 2), ("increase", 1)] {
        for &pre in doc.elements_named(name).iter().take(take) {
            let (s, e) = region_of(pre);
            retracts.push(DeltaOp::Retract {
                layer: "anno".into(),
                name: name.into(),
                start: s,
                end: e,
            });
        }
    }
    let mut inserts = Vec::new();
    for (k, &pre) in doc.elements_named("name").iter().take(3).enumerate() {
        let (s, e) = region_of(pre);
        inserts.push(DeltaOp::Insert {
            layer: "anno".into(),
            name: "highlight".into(),
            start: s,
            end: e,
            attrs: vec![("n".into(), k.to_string())],
        });
    }
    assert!(!inserts.is_empty() && !retracts.is_empty());
    let batches = [inserts[..1].to_vec(), retracts, inserts[1..].to_vec()];

    // The standoff rewrites address the annotation layer by its mounted
    // URI (`base-uri#layer`); add delta-sensitive probes on top.
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

    assert_writer_equals_compacted(&set, &batches, &queries);
}

/// A pushed name's posting through a writer: a corpus big and dense
/// enough that most of a layer is one name, with retractions folded into
/// that layer. Writer and compacted answers must agree byte-for-byte
/// under every strategy, and the merge joins must actually have read
/// the name's posting.
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

    // Retract every 100th token, in two batches.
    let retracts: Vec<DeltaOp> = (token_spans.iter().step_by(100))
        .map(|&(s, e)| DeltaOp::Retract {
            layer: "tokens".into(),
            name: "w".into(),
            start: s,
            end: e,
        })
        .collect();
    let batches = [retracts[..45].to_vec(), retracts[45..].to_vec()];

    let queries = [
        format!(r#"count(layer("{URI}", "spans")//big/select-narrow::w)"#),
        format!(r#"layer("{URI}", "spans")//big[@n = "2"]/select-narrow::w"#),
    ];
    let mut reference: Option<Vec<String>> = None;
    for strategy in STRATEGIES {
        let (writer, mut compacted, _) = both_sides(&set, &batches, strategy);
        let mut session = writer.session();
        let before = session.metrics().snapshot();
        let mut answers = Vec::new();
        for query in &queries {
            let a = session.run(query).unwrap().as_xml();
            let b = compacted.run(query).unwrap().as_xml();
            assert_eq!(a, b, "writer != compacted: {strategy:?} {query}");
            answers.push(a);
        }
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(&answers, r, "{strategy:?} diverged"),
        }
        // The posting was read on the strategies that materialize
        // candidate entries (the naive nested loops walk the candidate
        // nodes and never read it).
        if matches!(
            strategy,
            StandoffStrategy::BasicMergeJoin | StandoffStrategy::LoopLiftedMergeJoin
        ) {
            let stats = session.metrics().snapshot().delta(&before).counters;
            assert!(
                stats["join.candidate_posting"] > 0,
                "{strategy:?}: no posting was read: {stats:?}"
            );
        }
    }
    // 9000 tokens minus 90 retractions, each token inside exactly one big.
    assert_eq!(
        reference.unwrap()[0],
        (9_000 - 90).to_string(),
        "retractions visible through the posting"
    );
}

/// A posting is kept by the index of the layer it was derived from, so
/// one built before an `apply` never answers after it: a `w` inserted
/// inside the context is seen by the next query, and a retracted one is
/// gone, under both merge joins.
#[test]
fn a_posting_built_before_an_apply_never_answers_after_it() {
    let base = parse_document(&format!("<text>{}</text>", "x".repeat(400))).unwrap();
    let mut set = LayerSet::build("mem://posting", base, StandoffConfig::default()).unwrap();
    let mut tokens = String::from("<tokens>");
    for k in 0..100 {
        let (s, e) = (4 * k, 4 * k + 2);
        tokens.push_str(&format!(
            r#"<w n="{k}" start="{s}" end="{e}"/><p start="{s}" end="{e}"/>"#
        ));
    }
    tokens.push_str("</tokens>");
    let tokens = parse_document(&tokens).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set.add_layer(
        "spans",
        layer_doc("spans", "big", &[(0, 99), (200, 299)]),
        StandoffConfig::default(),
    )
    .unwrap();
    let count = r#"count(layer("mem://posting", "spans")//big/select-narrow::w)"#;
    let last = r#"layer("mem://posting", "spans")//big/select-narrow::w[last()]/@n"#;
    let insert = DeltaOp::Insert {
        layer: "tokens".into(),
        name: "w".into(),
        start: 297,
        end: 298,
        attrs: vec![("n".into(), "new".into())],
    };
    let retract = DeltaOp::Retract {
        layer: "tokens".into(),
        name: "w".into(),
        start: 296,
        end: 298,
    };
    for strategy in [
        StandoffStrategy::BasicMergeJoin,
        StandoffStrategy::LoopLiftedMergeJoin,
    ] {
        let mut writer = WritableEngine::mount(set.clone(), options(strategy)).unwrap();
        let mut session = writer.session();
        assert_eq!(session.run(count).unwrap().as_strings(), ["50"]);
        assert_eq!(session.run(last).unwrap().as_xml(), r#"n="74""#);
        let stats = session.metrics().snapshot().counters;
        assert!(
            stats["join.candidate_posting"] > 0,
            "{strategy:?}: {stats:?}"
        );
        writer.apply([insert.clone()]).unwrap();
        let mut session = writer.session();
        assert_eq!(
            session.run(count).unwrap().as_strings(),
            ["51"],
            "{strategy:?}"
        );
        assert_eq!(session.run(last).unwrap().as_xml(), r#"n="new""#);
        writer.apply([retract.clone()]).unwrap();
        let mut session = writer.session();
        assert_eq!(
            session.run(count).unwrap().as_strings(),
            ["50"],
            "{strategy:?}"
        );
        assert_eq!(session.run(last).unwrap().as_xml(), r#"n="new""#);
    }
}

// ---- whole documents ----

/// Serializing an overlaid layer's root includes its pending inserts,
/// exactly as the compacted snapshot's does. (This used to be a pinned
/// divergence: merge-on-read kept the inserts in a sibling document
/// that root serialization never walked.)
#[test]
fn overlaid_root_serialization_includes_pending_inserts() {
    let base = parse_document("<text>Alice met Bob</text>").unwrap();
    let mut set = LayerSet::build("mem://pin", base, StandoffConfig::default()).unwrap();
    let tokens = parse_document(
        r#"<tokens><w start="0" end="4"/><w start="6" end="8"/><w start="10" end="12"/></tokens>"#,
    )
    .unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    let ner = DeltaOp::Insert {
        layer: "tokens".into(),
        name: "ner".into(),
        start: 0,
        end: 4,
        attrs: vec![("class".into(), "PER".into())],
    };
    let (writer, mut compacted, _) =
        both_sides(&set, &[vec![ner]], StandoffStrategy::LoopLiftedMergeJoin);
    let root = r#"layer("mem://pin", "tokens")"#;
    let overlaid_root = writer.session().run(root).unwrap().as_xml();
    assert_eq!(
        overlaid_root,
        r#"<tokens><w start="0" end="4"/><w start="6" end="8"/><w start="10" end="12"/><ner start="0" end="4" class="PER"/></tokens>"#
    );
    assert_eq!(overlaid_root, compacted.run(root).unwrap().as_xml());
}

// ---- the wide reach over a folded layer ----

/// An inserted entity longer than any seed widens the layer's extent
/// bound, so a `select-wide` from a context that starts past the
/// entity's start — outside every seed's reach — still finds it: through
/// the writer, after `compact`, and from the compacted snapshot mounted
/// from disk, under every strategy. Retracting it again leaves the
/// bound high (never low) and the answer exact.
#[test]
fn long_insert_widens_the_wide_reach() {
    let base = parse_document(&format!("<text>{}</text>", "x".repeat(200))).unwrap();
    let mut set = LayerSet::build("mem://wide", base, StandoffConfig::default()).unwrap();
    let token_spans: Vec<(i64, i64)> = (0..50).map(|k| (4 * k, 4 * k + 2)).collect();
    set.add_layer(
        "tokens",
        layer_doc("tokens", "w", &token_spans),
        StandoffConfig::default(),
    )
    .unwrap();
    set.add_layer(
        "entities",
        layer_doc("entities", "person", &[(0, 3), (20, 24), (180, 183)]),
        StandoffConfig::default(),
    )
    .unwrap();
    let long = (10, 150);
    let insert = DeltaOp::Insert {
        layer: "entities".into(),
        name: "person".into(),
        start: long.0,
        end: long.1,
        attrs: vec![("n".into(), "long".into())],
    };
    let retract = DeltaOp::Retract {
        layer: "entities".into(),
        name: "person".into(),
        start: long.0,
        end: long.1,
    };
    // Token [100, 102] starts 90 past the entity, far beyond the seeds'
    // widest extent of 4.
    let query = r#"layer("mem://wide", "tokens")//w[@start = "100"]/select-wide::person/@n"#;
    let dir = std::env::temp_dir().join(format!("standoff-wide-reach-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for strategy in STRATEGIES {
        let mut writer = WritableEngine::mount(set.clone(), options(strategy)).unwrap();
        assert_eq!(
            writer.session().run(query).unwrap().as_xml(),
            "",
            "{strategy:?}"
        );
        writer.apply([insert.clone()]).unwrap();
        let found = r#"n="long""#;
        assert_eq!(writer.session().run(query).unwrap().as_xml(), found);
        let compacted = writer.compact().unwrap();
        assert_eq!(writer.session().run(query).unwrap().as_xml(), found);
        let path = dir.join(format!("{strategy:?}.snap"));
        standoff::store::save_snapshot(&compacted, &path).unwrap();
        let mut mounted = Engine::with_options(options(strategy));
        mounted
            .mount_snapshot(&standoff::store::Snapshot::open(&path).unwrap())
            .unwrap();
        assert_eq!(mounted.run(query).unwrap().as_xml(), found);
        writer.apply([retract.clone()]).unwrap();
        assert_eq!(writer.session().run(query).unwrap().as_xml(), "");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
