//! What the plan of a StandOff join says about layers, and what then
//! happens: on a three-layer store of the benchmark's shape (XMark base,
//! `tokens`, `entities`) the plan line names the layers that can answer
//! the step and says whether their outputs are emitted directly or
//! merged; execution joins into exactly those layers, once per unit.
//! Only the XMark base layer, whose start order is not its document
//! order, ever has its rows put in document order.

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
/// `debug_assert!` on the spot. The `sorts=` counts add up to the
/// registry's, and on the pure mount only the base layer's rows are
/// ever put in document order (the view's inserted entities follow the
/// layer's other elements in document order, wherever they start).
#[test]
fn result_claims_hold_for_the_goldens_and_the_benchmark_classes() {
    let (set, spans) = three_layers();
    for (pure, mounted) in [
        (true, set.clone()),
        (false, view(pending(&set, &spans, 16))),
    ] {
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
        let mut sorts = 0;
        for query in &queries {
            let text = engine.explain_analyze(query).unwrap();
            let joins = text.matches("StandOff MergeJoin").count();
            let claims = text.matches("; result: ").count() + text.matches("; count: ").count();
            assert_eq!(claims, joins, "{text}");
            for line in text.lines().filter(|l| l.contains(" sorts=")) {
                let n: u64 = (line.split_once(" sorts=").unwrap().1)
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap();
                // A flat layer's start order is its document order.
                assert!(!pure || n == 0 || line.contains("layers: base"), "{line}");
                sorts += n;
            }
        }
        let counters = engine.metrics().snapshot().counters;
        assert_eq!(counters[MISMATCHES], 0);
        assert_eq!(counters[COUNT_MISMATCHES], 0);
        assert_eq!(counters["join.result_sorts"], sorts);
        assert!(sorts > 0, "Q2's steps over the base layer reorder");
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
    // The base layer's rows are put in document order before the merge.
    assert!(
        all.contains("targets=3 ") && all.contains("sorts=1 (elided 0)"),
        "{all}"
    );
    assert!(all.contains(" merges=1"), "{all}");

    // A layer's pending inserts are part of the layer: one run, as
    // after any compaction. They follow every other element in
    // document order, so the run is put in document order.
    let mut overlay = Engine::new();
    overlay.mount_store(view(pending(&set, &spans, 1))).unwrap();
    let one = overlay
        .explain_analyze(r#"doc("xmark")//description/select-wide::entity"#)
        .unwrap();
    let claim = "layers: entities (1 of 3); result: direct";
    assert!(one.contains(claim), "{one}");
    assert!(
        one.contains("targets=1 ") && one.contains("sorts=1 (elided 0)"),
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
        + stats["join.candidate_posting"];
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

/// `explain` reads the index a join reads: under `--load` the document
/// is indexed under the query's prolog, as under `--store` it is the
/// mounted layer's. So one document prints the same access bracket and
/// the same entry count either way, and a `--load` document of
/// two-region annotations explains `count(…)` as counted from the
/// join's rows, which is what execution does.
#[test]
fn explain_under_load_reads_the_index_execution_reads() {
    let xq = || std::process::Command::new(env!("CARGO_BIN_EXE_standoff-xq"));
    let dir = std::env::temp_dir().join(format!("standoff-explain-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.002)), 7);
    let xml = dir.join("xmark.xml");
    std::fs::write(
        &xml,
        standoff::xml::serialize_document(&so.doc, Default::default()),
    )
    .unwrap();
    let snap = dir.join("xmark.snap");
    let run = |cmd: &mut std::process::Command| {
        let out = cmd.output().unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stdout}{stderr}");
        stdout
    };
    run(xq()
        .arg("index")
        .arg(&xml)
        .arg("-o")
        .arg(&snap)
        .args(["--uri", "xmark"]));
    let query = r#"doc("xmark")//open_auction/select-narrow::bidder"#;
    let bracket = |plan: &str| {
        let line = plan
            .lines()
            .find(|l| l.contains("select-narrow::bidder"))
            .unwrap();
        let from = line.find("region index [").unwrap();
        let to = from + line[from..].find(']').unwrap();
        let est = line.split_once("est: ").unwrap().1;
        (line[from..=to].to_string(), est.to_string())
    };
    let load = format!("xmark={}", xml.display());
    let loaded = run(xq().args(["explain", "--load", &load, "-q", query]));
    let stored = run(xq()
        .arg("explain")
        .arg("--store")
        .arg(&snap)
        .args(["-q", query]));
    assert_eq!(bracket(&loaded), bracket(&stored), "{loaded}{stored}");
    assert_eq!(bracket(&loaded).0, "region index [posting ≤ context reach]");
    assert!(!bracket(&loaded).1.starts_with("0 "), "{loaded}");

    let r = |s: i64, e: i64| format!("<region><start>{s}</start><end>{e}</end></region>");
    let tr = format!(
        "<site><description>{}</description><description>{}</description>\
         <w>{}{}</w><w>{}{}</w><w>{}</w></site>",
        r(0, 12),
        r(14, 20),
        r(0, 4),
        r(6, 8),
        r(10, 12),
        r(14, 16),
        r(14, 20)
    );
    let tr_path = dir.join("tr.xml");
    std::fs::write(&tr_path, tr).unwrap();
    let load = format!("tr={}", tr_path.display());
    let query = r#"declare option standoff-region "region";
        count(doc("tr")//description/select-narrow::w)"#;
    let plan = run(xq().args(["explain", "--load", &load, "--analyze", "-q", query]));
    assert!(plan.contains("; count: from join rows;"), "{plan}");
    assert!(!plan.contains("from-index="), "{plan}");
    assert_eq!(
        run(xq().args(["query", "--load", &load, "-q", query])).trim(),
        "2"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
