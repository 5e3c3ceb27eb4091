//! What the plan of a StandOff join says about layers, and what then
//! happens: on a three-layer store of the benchmark's shape (XMark base,
//! `tokens`, `entities`) the plan line names the layers that can answer
//! the step and says whether their outputs are emitted directly or
//! merged; execution joins into exactly those layers, once per unit,
//! and never sorts.

use standoff::core::StandoffConfig;
use standoff::store::{compact, DeltaOp, LayerSet};
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xml::parse_document;
use standoff::xquery::{Engine, EngineOptions, WritableEngine};

const MISMATCHES: &str = "plan.claim_mismatch.result_merge";
const COUNT_MISMATCHES: &str = "plan.claim_mismatch.count";

/// XMark as the base layer, one `w` per BLOB word, one `entity` over
/// three words out of every twenty. Returns the entity regions too.
fn three_layers() -> (LayerSet, Vec<(i64, i64)>) {
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.005)), 7);
    let mut words: Vec<(i64, i64)> = Vec::new();
    let mut start = None;
    for (i, b) in so.blob.bytes().chain([b' ']).enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i as i64),
            (true, Some(s)) => {
                words.push((s, i as i64 - 1));
                start = None;
            }
            _ => {}
        }
    }
    let mut tokens = String::from("<tokens>");
    for (k, (s, e)) in words.iter().enumerate() {
        tokens.push_str(&format!(r#"<w n="{}" start="{s}" end="{e}"/>"#, k % 100));
    }
    tokens.push_str("</tokens>");
    let spans: Vec<(i64, i64)> = (words.windows(3).step_by(20))
        .map(|w| (w[0].0, w[2].1))
        .collect();
    let mut entities = String::from("<entities>");
    for (s, e) in &spans {
        entities.push_str(&format!(r#"<entity kind="seed" start="{s}" end="{e}"/>"#));
    }
    entities.push_str("</entities>");
    let config = StandoffConfig::default;
    let mut set = LayerSet::build("xmark", so.doc, config()).unwrap();
    set.add_layer("tokens", parse_document(&tokens).unwrap(), config())
        .unwrap();
    set.add_layer("entities", parse_document(&entities).unwrap(), config())
        .unwrap();
    (set, spans)
}

/// A writer over `set` after `batches` write batches of the
/// `annotate_rw` shape: each retracts sixteen seed entities and inserts
/// sixteen `kind="new"` ones.
fn pending(set: &LayerSet, spans: &[(i64, i64)], batches: usize) -> WritableEngine {
    let mut writer = WritableEngine::mount(set.clone(), EngineOptions::default()).unwrap();
    let spans: Vec<(i64, i64)> = spans.iter().copied().take(16 * batches).collect();
    for (b, batch) in spans.chunks(16).enumerate() {
        let ops = batch.iter().enumerate().flat_map(|(j, &(start, end))| {
            let retract = DeltaOp::Retract {
                layer: "entities".into(),
                name: "entity".into(),
                start,
                end,
            };
            let k = (16 * b + j).to_string();
            let insert = DeltaOp::Insert {
                layer: "entities".into(),
                name: "entity".into(),
                start: start + 1,
                end: end + 1,
                attrs: vec![("kind".into(), "new".into()), ("k".into(), k)],
            };
            [retract, insert]
        });
        writer.apply(ops).unwrap();
    }
    writer
}

/// What readers of the writer mount: its pending delta, folded in.
fn view(mut writer: WritableEngine) -> LayerSet {
    writer.compact().unwrap()
}

/// The benchmark's nineteen request classes (`benchmark/src/classes.rs`).
fn class_texts() -> Vec<String> {
    let mut texts: Vec<String> = [
        XmarkQuery::Q1,
        XmarkQuery::Q2,
        XmarkQuery::Q6,
        XmarkQuery::Q7,
    ]
    .iter()
    .map(|q| q.standoff("xmark"))
    .collect();
    texts.extend(
        [
            r#"count(doc("xmark")//open_auction/select-narrow::reserve)"#,
            r#"doc("xmark")//person[@id = "person7"]/select-narrow::emailaddress"#,
            r#"count(doc("xmark")//category/select-wide::name)"#,
            r#"count(doc("xmark")//person[@id = "person3"]/select-narrow::name/select-narrow::w)"#,
            r#"count(doc("xmark")//open_auction/reject-narrow::price)"#,
            r#"count(doc("xmark")//description/select-narrow::w)"#,
            r#"count(doc("xmark")//open_auction/select-wide::node())"#,
            r#"count(doc("xmark#entities")//entity/select-narrow::w)"#,
            r#"count(doc("xmark")//description/select-wide::entity)"#,
            r#"count(doc("xmark#entities")//entity[@kind = "new"])"#,
            r#"count(doc("xmark#tokens")//w[@n = "17"]/select-wide::description)"#,
        ]
        .map(String::from),
    );
    texts
}

/// The queries of the explain goldens (`tests/explain_golden.rs`,
/// `tests/observability.rs`) over plain documents loaded beside the
/// store, so one engine holds a layer group *and* lone documents.
fn golden_texts(engine: &mut Engine) -> Vec<String> {
    for (uri, xml) in [
        (
            "tokens.xml",
            r#"<tokens><w start="0" end="5"/><w start="6" end="11"/><w start="12" end="22"/><w start="23" end="29"/></tokens>"#,
        ),
        (
            "entities.xml",
            r#"<entities><place start="6" end="11"/><thing start="12" end="29"/></entities>"#,
        ),
        (
            "sample.xml",
            r#"<sample><shot id="Intro" start="0" end="8"/><shot id="Interview" start="8" end="64"/>
               <shot id="Outro" start="64" end="94"/><music artist="U2" start="0" end="31"/>
               <music artist="Bach" start="52" end="94"/></sample>"#,
        ),
    ] {
        engine.load_document(uri, xml).unwrap();
    }
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.001)), 3);
    engine.add_document(so.doc, Some("xmark-standoff.xml"));
    [
        r#"doc("entities.xml")//place/select-narrow::w"#,
        r#"doc("entities.xml")//thing/select-narrow::place"#,
        r#"for $p in doc("entities.xml")//place
           where count(doc("tokens.xml")//w) > 2
           order by $p/@start
           return ($p/select-wide::w, count(doc("tokens.xml")//w))"#,
        r#"declare function hits($ctx) { count(select-narrow($ctx, doc("tokens.xml")//w)) };
           hits(doc("entities.xml")//thing)"#,
        r#"doc("sample.xml")//music[@artist = "U2"]/select-wide::shot"#,
        r#"for $m in doc("sample.xml")//music
           where count(doc("sample.xml")//shot) > 2
           order by $m/@start
           return ($m/select-wide::shot, count(doc("sample.xml")//shot))"#,
    ]
    .map(String::from)
    .into_iter()
    .chain([XmarkQuery::Q2.standoff("xmark-standoff.xml")])
    .collect()
}

/// Every `result:` and `count:` claim an explain line makes holds when
/// the query runs: the explain goldens' queries and the benchmark's
/// class texts — each `count(…)` class also as its bare step, whose
/// rows are assembled — on a pure mount and on the view of sixteen
/// pending batches. A broken `result:` claim also fails the evaluator's
/// `debug_assert!` on the spot.
#[test]
fn result_claims_hold_for_the_goldens_and_the_benchmark_classes() {
    let (set, spans) = three_layers();
    for mounted in [set.clone(), view(pending(&set, &spans, 16))] {
        let mut engine = Engine::new();
        engine.mount_store(mounted).unwrap();
        let mut queries = golden_texts(&mut engine);
        for class in class_texts() {
            let bare = class
                .strip_prefix("count(")
                .and_then(|q| q.strip_suffix(')'));
            queries.extend(bare.map(String::from));
            queries.push(class);
        }
        for query in &queries {
            let text = engine.explain_analyze(query).unwrap();
            let joins = text.matches("StandOff MergeJoin").count();
            let claims = text.matches("; result: ").count() + text.matches("; count: ").count();
            assert_eq!(claims, joins, "{text}");
            assert!(!text.contains("sorts=1"), "{text}");
        }
        let counters = engine.metrics().snapshot().counters;
        assert_eq!(counters[MISMATCHES], 0);
        assert_eq!(counters[COUNT_MISMATCHES], 0);
        assert_eq!(counters["join.result_sorts"], 0);
        assert!(counters["join.counts_from_index"] > 0);
    }
}

/// The plan line names the layers and counts their entries, not the
/// group's; the analyze actuals beside it agree. Under `count(…)` the
/// same line says the rows are counted from the index, and none are
/// assembled.
#[test]
fn plan_line_names_the_answering_layers() {
    let (set, spans) = three_layers();
    let token_entries = set.layer("tokens").unwrap().index().stats().entries;
    let mut engine = Engine::new();
    engine.mount_store(set.clone()).unwrap();

    let one = engine
        .explain_analyze(r#"doc("xmark")//description/select-narrow::w"#)
        .unwrap();
    let claim = format!(
        "layers: tokens (1 of 3); result: direct; post-filter: elided; est: {token_entries} region entries"
    );
    assert!(one.contains(&claim), "{one}");
    assert!(
        one.contains("targets=1 ") && one.contains("sorts=0 (elided 1)"),
        "{one}"
    );
    let counted = engine
        .explain_analyze(r#"count(doc("xmark")//description/select-narrow::w)"#)
        .unwrap();
    let claim = "layers: tokens (1 of 3); count: from index; post-filter: elided";
    assert!(counted.contains(claim), "{counted}");
    assert!(
        counted.contains("targets=1 ")
            && counted.contains("sorts=0 (elided 0)")
            && counted.contains(" from-index=1"),
        "{counted}"
    );

    let all = engine
        .explain_analyze(r#"doc("xmark")//open_auction/select-wide::node()"#)
        .unwrap();
    let claim = "layers: base, tokens, entities (3 of 3); result: k-way merge (3)";
    assert!(all.contains(claim), "{all}");
    assert!(
        all.contains("targets=3 ") && all.contains("sorts=0 (elided 0)"),
        "{all}"
    );
    assert!(all.contains(" merges=1"), "{all}");

    // A layer's pending inserts are part of the layer: one run, as
    // after any compaction.
    let mut overlay = Engine::new();
    overlay.mount_store(view(pending(&set, &spans, 1))).unwrap();
    let one = overlay
        .explain_analyze(r#"doc("xmark")//description/select-wide::entity"#)
        .unwrap();
    let claim = "layers: entities (1 of 3); result: direct";
    assert!(one.contains(claim), "{one}");
    assert!(
        one.contains("targets=1 ") && one.contains("sorts=0 (elided 1)"),
        "{one}"
    );
}

/// `entity_tokens` over sixteen pending batches: the context is the
/// entity layer alone, and one layer of the group holds `w` — one
/// kernel call, exactly as on the compacted snapshot.
#[test]
fn entity_tokens_over_sixteen_pending_batches_is_one_kernel_call() {
    let (set, spans) = three_layers();
    let writer = pending(&set, &spans, 16);
    let folded = compact(&set, writer.delta()).unwrap();
    let query = r#"count(doc("xmark#entities")//entity/select-narrow::w)"#;
    let mut overlay = Engine::new();
    overlay.mount_store(view(writer)).unwrap();
    let (answer, profile) = overlay.run_profiled(query).unwrap();
    let json = profile.to_json();
    assert!(json.contains(r#""target_joins": 1,"#), "{json}");
    let stats = overlay.metrics().snapshot().counters;
    let derivations = stats["join.candidate_borrowed"]
        + stats["join.candidate_node_view"]
        + stats["join.candidate_scans"]
        + stats["join.candidate_probes"];
    assert_eq!(
        (
            derivations,
            stats["join.result_sorts"],
            stats["join.result_merges"]
        ),
        (1, 0, 0),
        "{stats:?}"
    );
    let mut compacted = Engine::new();
    compacted.mount_store(folded).unwrap();
    assert_eq!(answer.as_xml(), compacted.run(query).unwrap().as_xml());
}
