//! The observability subsystem, end to end: per-operator profiling and
//! `explain analyze`, the metrics registry counters the engine/executor/
//! store feed, metering join counters by snapshot delta, plan-cache
//! statistics, and
//! snapshot section introspection.
//!
//! The golden cases use `QueryProfile::render_redacted()` (times print
//! as `~`) so the snapshots are deterministic; regenerate intentional
//! changes with `BLESS=1 cargo test --test observability`.

use std::collections::BTreeMap;

use standoff::core::obs::{MetricsRegistry, MetricsSnapshot};
use standoff::core::StandoffConfig;
use standoff::store::LayerSet;
use standoff::xmark::queries::XmarkQuery;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xquery::{Engine, Executor, Governance, JoinStats, QueryCache};

/// The deterministic corpus of the `explain` goldens, plus the crate's
/// video sample so joins have same-document annotations to hit (the
/// token/entity pair live in *separate* documents, so StandOff steps
/// across them are legal but empty).
fn corpus() -> Engine {
    let mut engine = Engine::new();
    let sample = engine
        .load_document(
            "sample.xml",
            r#"<sample>
                 <shot id="Intro" start="0" end="8"/>
                 <shot id="Interview" start="8" end="64"/>
                 <shot id="Outro" start="64" end="94"/>
                 <music artist="U2" start="0" end="31"/>
                 <music artist="Bach" start="52" end="94"/>
               </sample>"#,
        )
        .unwrap();
    engine
        .prebuild_region_index(sample, &StandoffConfig::default())
        .unwrap();
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

fn check_analyze(name: &str, engine: &mut Engine, query: &str) {
    let (_, profile) = engine
        .run_profiled(query)
        .unwrap_or_else(|e| panic!("{name}: profiled run failed: {e}"));
    let actual = profile.render_redacted(engine.state());
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        actual, expected,
        "\n{name}: explain-analyze text changed. If intentional, regenerate \
         with `BLESS=1 cargo test --test observability` and review the diff.\n"
    );
}

// ---- explain analyze goldens -------------------------------------------

#[test]
fn analyze_standoff_step_with_pushdown() {
    let mut engine = corpus();
    check_analyze(
        "analyze_step_pushdown",
        &mut engine,
        r#"doc("sample.xml")//music[@artist = "U2"]/select-wide::shot"#,
    );
}

#[test]
fn analyze_flwor_with_hoisted_invariant() {
    let mut engine = corpus();
    check_analyze(
        "analyze_flwor_hoisted",
        &mut engine,
        r#"for $m in doc("sample.xml")//music
           where count(doc("sample.xml")//shot) > 2
           order by $m/@start
           return ($m/select-wide::shot, count(doc("sample.xml")//shot))"#,
    );
}

/// A branch the evaluator never takes renders `not executed` instead of
/// fabricated measurements.
#[test]
fn analyze_marks_unexecuted_operators() {
    let mut engine = corpus();
    // Non-constant condition, so const-folding can't drop the dead arm.
    let (_, profile) = engine
        .run_profiled(
            r#"if (count(doc("tokens.xml")//w) = 0) then doc("entities.xml")//place else 42"#,
        )
        .unwrap();
    let text = profile.render_redacted(engine.state());
    assert!(
        text.contains("not executed"),
        "dead branch not marked:\n{text}"
    );
}

// ---- profiled execution is observation-only ----------------------------

/// Profiling must not change a single output byte: the XMark workload
/// (standard + StandOff forms) serialized under `--profile` semantics is
/// identical to the unprofiled run.
#[test]
fn profiled_run_is_byte_identical_across_xmark() {
    let src = generate(&XmarkConfig::with_scale(0.002));
    let so = standoffify(&src, 7);
    let mut engine = Engine::new();
    engine.add_document(src, Some("xmark.xml"));
    let so_xml = standoff::xml::serialize_document(&so.doc, Default::default());
    engine.load_document("xmark-standoff.xml", &so_xml).unwrap();

    for q in [
        XmarkQuery::Q1,
        XmarkQuery::Q2,
        XmarkQuery::Q6,
        XmarkQuery::Q7,
    ] {
        for query in [q.standard("xmark.xml"), q.standoff("xmark-standoff.xml")] {
            let plain = engine.run(&query).unwrap();
            let (profiled, profile) = engine.run_profiled(&query).unwrap();
            assert_eq!(
                plain.as_serialized(),
                profiled.as_serialized(),
                "{q}: profiling changed the result of {query}"
            );
            assert!(!profile.ops.is_empty(), "{q}: empty profile");
        }
    }
}

/// The profile actually measured the join: context/candidate
/// cardinalities and the per-operator `JoinStats` are populated.
#[test]
fn profile_captures_join_cardinalities() {
    let mut engine = corpus();
    let (result, profile) = engine
        .run_profiled(r#"doc("sample.xml")//music[@artist = "U2"]/select-wide::shot"#)
        .unwrap();
    assert_eq!(result.len(), 2, "U2 overlaps Intro and Interview");
    let mut join = None;
    profile.plan.visit_exprs(&mut |expr| {
        if join.is_none() {
            join = profile.ops.get(expr).and_then(|m| m.join.clone());
        }
    });
    let join = join.expect("a join operator was profiled");
    assert_eq!(join.ctx_rows, 1, "one U2 context row");
    assert!(join.cand_rows > 0, "candidates were gathered");
    assert!(
        join.stats.result_sorts + join.stats.result_sorts_elided > 0,
        "join stats recorded"
    );
}

// ---- join counters: cumulative, metered by delta ----------------------

/// The registry's `join.*` counters (what `stats` prints) accumulate
/// across runs; a snapshot delta is the per-query window — zero over a
/// window that ran nothing, one run's counts over a window of one.
#[test]
fn join_stats_accumulate_and_reset() {
    let mut engine = corpus();
    let query = r#"doc("entities.xml")//place/select-narrow::w"#;
    let snapshot = |engine: &Engine| engine.metrics().snapshot();
    let joins = |window: MetricsSnapshot| -> BTreeMap<String, u64> {
        (window.counters.into_iter())
            .filter(|(name, _)| name.starts_with("join."))
            .collect()
    };
    let start = snapshot(&engine);

    engine.run(query).unwrap();
    let after_one = snapshot(&engine);
    let one = joins(after_one.delta(&start));
    assert!(one["join.post_filters_elided"] > 0, "join ran: {one:?}");

    // Cumulative: a second run doubles every counter.
    engine.run(query).unwrap();
    let after_two = snapshot(&engine);
    let two = joins(after_two.delta(&start));
    assert!(one.iter().all(|(name, &n)| two[name] == 2 * n), "{two:?}");
    // A window of one run reads that run's counts...
    assert_eq!(joins(after_two.delta(&after_one)), one);
    // ...and a window that ran nothing reads zero.
    let idle = joins(snapshot(&engine).delta(&after_two));
    assert!(idle.values().all(|&n| n == 0), "{idle:?}");
}

// ---- registry counters -------------------------------------------------

#[test]
fn engine_metrics_count_query_executions() {
    let mut engine = corpus();
    engine.run("1 + 1").unwrap();
    engine.run("2 + 2").unwrap();
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counters["query.executions"], 2);
    let exec_ns = &snap.histograms["query.exec_ns"];
    assert_eq!(exec_ns.count, 2);
    assert!(exec_ns.sum > 0, "wall time was recorded");
}

/// One document holding a few wide `big` spans over 10k adjacent `w`
/// tokens: a pushed `w` reads most of the table through its posting.
fn dense_corpus() -> Engine {
    let mut xml = String::from("<d>");
    for k in 0..4 {
        let lo = k * 5_000;
        xml.push_str(&format!("<big start=\"{}\" end=\"{}\"/>", lo, lo + 4_999));
    }
    for k in 0..10_000 {
        let lo = k * 2;
        xml.push_str(&format!("<w start=\"{}\" end=\"{}\"/>", lo, lo + 1));
    }
    xml.push_str("</d>");
    let mut engine = Engine::new();
    let doc = engine.load_document("dense.xml", &xml).unwrap();
    engine
        .prebuild_region_index(doc, &StandoffConfig::default())
        .unwrap();
    engine
}

/// The posting counters fire on a dense pushdown, and the two sinks of
/// every declared join counter agree: the profile's per-operator detail
/// sums to the registry's `join.<name>`.
#[test]
fn posting_counters_fire_and_mirror() {
    let query = r#"count(doc("dense.xml")//big/select-narrow::w)"#;

    let mut engine = dense_corpus();
    let (result, profile) = engine.run_profiled(query).unwrap();
    assert_eq!(result.as_strings(), ["10000"]);
    // The profile's per-operator join detail, summed over the plan.
    let mut stats = JoinStats::default();
    profile.plan.visit_exprs(&mut |expr| {
        if let Some(join) = profile.ops.get(expr).and_then(|m| m.join.as_ref()) {
            stats.merge(join.stats);
        }
    });
    assert!(stats.candidate_posting > 0, "posting read: {stats:?}");
    assert_eq!(stats.candidate_reach_entries, 10_000, "{stats:?}");
    assert_eq!(stats.candidate_repr_dense, 0, "{stats:?}");
    let snap = engine.metrics().snapshot();
    for (counter, value) in stats.counters() {
        assert_eq!(
            snap.counters[&format!("join.{}", counter.name)],
            value,
            "{}",
            counter.name
        );
    }
}

/// The `join.*` names of the `stats` dump are *exactly* the declared
/// counter set, spelled out here so a removed, renamed or forgotten
/// counter fails by name — and the names the benchmark ledger reads
/// from the `stats` verb are all there.
#[test]
fn stats_dump_join_keys_are_exactly_the_declared_set() {
    const JOIN_KEYS: [&str; 14] = [
        "join.candidate_borrowed",
        "join.candidate_dense_blocks",
        "join.candidate_node_view",
        "join.candidate_posting",
        "join.candidate_reach_entries",
        "join.candidate_repr_dense",
        "join.context_posting",
        "join.counts_from_index",
        "join.naive_pairs",
        "join.post_filters",
        "join.post_filters_elided",
        "join.result_merges",
        "join.result_sorts",
        "join.result_sorts_elided",
    ];
    let executor = Executor::governed(dense_corpus().into_shared(), 1, Governance::default());
    executor.run_batch(&[r#"count(doc("dense.xml")//big/select-narrow::w)"#]);
    let snap = executor.metrics_snapshot();
    // BTreeMap keys: already sorted, like JOIN_KEYS.
    let dumped: Vec<&str> = snap
        .counters
        .keys()
        .map(String::as_str)
        .filter(|k| k.starts_with("join."))
        .collect();
    assert_eq!(dumped, JOIN_KEYS);
    let mut declared: Vec<String> = JoinStats::COUNTERS
        .iter()
        .map(|c| format!("join.{}", c.name))
        .collect();
    declared.sort();
    assert_eq!(declared, JOIN_KEYS);
    for name in [
        "join.candidate_node_view",
        "join.candidate_repr_dense",
        "join.result_sorts",
        "plan_cache.hits",
        "plan_cache.misses",
    ] {
        assert!(snap.counters.contains_key(name), "stats dump lacks {name}");
    }
}

/// A point context reads only its reach: one `<small>` span over a
/// mounted 20 000-token layer derives its `w` candidates from the few
/// token entries starting inside `[4, 9]`. Every annotation of the
/// layer is a `w`, so the loop-lifted narrow join borrows that reach of
/// the table — no posting is built for a covering name.
#[test]
fn point_context_reads_only_its_reach() {
    let uri = "mem://reach";
    let base = standoff::xml::parse_document(&format!("<text>{}</text>", "ab".repeat(20_000)));
    let mut set = LayerSet::build(uri, base.unwrap(), StandoffConfig::default()).unwrap();
    let mut tokens = String::from("<tokens>");
    for k in 0..20_000 {
        tokens.push_str(&format!(r#"<w start="{}" end="{}"/>"#, 2 * k, 2 * k + 1));
    }
    tokens.push_str("</tokens>");
    for (name, xml) in [
        ("tokens", tokens),
        (
            "spans",
            r#"<spans><small start="4" end="9"/></spans>"#.into(),
        ),
    ] {
        let doc = standoff::xml::parse_document(&xml).unwrap();
        set.add_layer(name, doc, StandoffConfig::default()).unwrap();
    }
    let mut engine = Engine::new();
    engine.mount_store(set).unwrap();
    let query = format!(r#"count(layer("{uri}", "spans")//small/select-narrow::w)"#);
    assert_eq!(engine.run(&query).unwrap().as_strings(), ["3"]);
    let counters = engine.metrics().snapshot().counters;
    let reach = counters.get("join.candidate_reach_entries").copied();
    assert!(
        reach.is_some_and(|r| (1..=64).contains(&r)),
        "reach entries {reach:?}"
    );
    assert_eq!(counters["join.candidate_repr_dense"], 0);
    assert_eq!(counters["join.candidate_borrowed"], 1);
    assert_eq!(counters["join.candidate_posting"], 0);
}

/// A selective pushdown over a wide reach reads its name's posting, by
/// the posting's own extent bound: the dense counters stay at zero.
/// (The context sits mid-table: widened left by the `big` extent, the
/// table's reach would hold 2 501 entries; the four-entry `big` posting
/// holds one that can overlap it.)
#[test]
fn sparse_pushdown_leaves_dense_counters_at_zero() {
    let mut engine = dense_corpus();
    engine
        .run(r#"doc("dense.xml")//w[@start = 10000]/select-wide::big"#)
        .unwrap();
    let stats = engine.metrics().snapshot().counters;
    assert_eq!(stats["join.candidate_reach_entries"], 1, "{stats:?}");
    assert_eq!(stats["join.candidate_posting"], 1, "{stats:?}");
    assert_eq!(stats["join.candidate_node_view"], 0, "{stats:?}");
    assert_eq!(stats["join.candidate_repr_dense"], 0, "{stats:?}");
    assert_eq!(stats["join.candidate_dense_blocks"], 0, "{stats:?}");
}

#[test]
fn executor_metrics_and_plan_cache_counters() {
    // Single worker: the hit/miss counts below stay deterministic (two
    // racing workers could both miss on the repeated query).
    let engine = corpus().into_shared();
    let executor = Executor::governed(engine, 1, Governance::default());
    let queries = [
        r#"count(doc("tokens.xml")//w)"#,
        r#"count(doc("entities.xml")//place)"#,
        r#"count(doc("tokens.xml")//w)"#, // repeat: a cache hit
    ];
    let results = executor.run_batch(&queries);
    assert!(results.iter().all(|r| r.is_ok()));

    let snap = executor.metrics_snapshot();
    assert_eq!(snap.counters["executor.batches"], 1);
    assert_eq!(snap.counters["executor.queries"], 3);
    assert_eq!(snap.histograms["executor.queue_depth"].count, 3);
    assert_eq!(snap.histograms["executor.queue_wait_ns"].count, 3);
    // Plan-cache counters are folded into the same snapshot.
    assert_eq!(snap.counters["plan_cache.misses"], 2);
    assert_eq!(snap.counters["plan_cache.hits"], 1);
    assert_eq!(snap.counters["plan_cache.evictions"], 0);
}

#[test]
fn plan_cache_eviction_counter() {
    let engine = corpus().into_shared();
    let cache = std::sync::Arc::new(QueryCache::new(2));
    let executor = Executor::governed_with_cache(engine, 1, Governance::default(), cache);
    // Three distinct queries through a two-entry cache: one eviction.
    let queries = ["1", "2", "3"];
    executor.run_batch(&queries);
    let stats = executor.cache().stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
    // The LRU survivor is still a hit.
    executor.run_batch(&["3"]);
    assert_eq!(executor.cache().stats().hits, 1);
}

// ---- store instrumentation and snapshot sections -----------------------

#[test]
fn snapshot_info_reports_v3_sections() {
    use standoff::store::{write_snapshot, LayerSet, Snapshot};
    let cfg = StandoffConfig::default();
    let base = standoff::xml::parse_document("<text>Alice met Bob</text>").unwrap();
    let tokens = standoff::xml::parse_document(
        r#"<tokens><w start="0" end="4"/><w start="10" end="12"/></tokens>"#,
    )
    .unwrap();
    let mut set = LayerSet::build("corpus", base, cfg.clone()).unwrap();
    set.add_layer("tokens", tokens, cfg).unwrap();

    let dir = std::env::temp_dir().join(format!("obs-sections-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.snap");
    let mut buf = Vec::new();
    write_snapshot(&set, &mut buf).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let before = MetricsRegistry::global().snapshot();
    let snapshot = Snapshot::open(&path).unwrap();
    let info = snapshot.info();
    assert_eq!(info.layers.len(), 2);
    for layer in &info.layers {
        assert!(
            !layer.sections.is_empty(),
            "v3 layer {} has no section info",
            layer.name
        );
        // Per-section bytes add up to the layer total, and the catalog
        // resolved every tag to a name.
        let sum: u64 = layer.sections.iter().map(|s| s.bytes).sum();
        assert_eq!(sum, layer.bytes, "{}: section sizes disagree", layer.name);
        for section in &layer.sections {
            assert_ne!(section.name, "unknown", "tag {} unnamed", section.tag);
        }
        let names: Vec<_> = layer.sections.iter().map(|s| s.name).collect();
        assert!(names.contains(&"doc.kind"), "{names:?}");
    }

    // Opening + materializing fed the process-global registry. Other
    // tests share it, so check the delta, not absolute values.
    let _ = snapshot.layer("tokens").unwrap();
    let after = MetricsRegistry::global().snapshot();
    let delta = after.delta(&before);
    assert!(delta.counters["store.snapshots_opened"] >= 1);
    assert!(delta.counters["store.layers_materialized"] >= 1);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- snapshot JSON -----------------------------------------------------

#[test]
fn metrics_snapshot_json_is_parseable_shape() {
    let mut engine = corpus();
    engine
        .run(r#"doc("entities.xml")//place/select-narrow::w"#)
        .unwrap();
    let json = engine.metrics().snapshot().to_json();
    // Hand-rolled writer, so sanity-check the envelope and a couple of
    // required keys rather than fully parsing.
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    for key in [
        "\"counters\"",
        "\"histograms\"",
        "\"query.executions\"",
        "\"query.exec_ns\"",
    ] {
        assert!(json.contains(key), "snapshot JSON missing {key}:\n{json}");
    }
    assert_eq!(json.matches("\"counters\"").count(), 1);
}
