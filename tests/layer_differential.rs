//! Differential test of StandOff joins over mounted layer sets: join
//! units, answering-layer resolution and the run merge, against one
//! oracle on generated corpora.
//!
//! **Corpora** are layered like an annotation stack — a base document,
//! `tokens`, multi-region `units` (element representation) and, in half
//! the cases, `words` — and drawn from a small pool of extents so the
//! paper's edge geometry is the rule, not the exception: zero-width
//! regions, identical extents in *different* layers, touching but not
//! overlapping extents, deep same-extent nesting, and areas of one to
//! three regions carried through joins on a mounted layer set. The name
//! `w` lives in two layers, so a name test can have several answering
//! layers.
//!
//! **Queries** are a context × the four axes × {name test, `*`,
//! `node()`} in step form, flat and per iteration of a `for`, and the
//! function form with an explicit candidate sequence, each also under
//! `count`, `exists` and `empty`; then tree
//! navigation from the same context along the horizontal and upward
//! axes, and whole layers serialized. A second property puts point
//! contexts over a dense token layer, where the narrow joins read only
//! the few entries inside the contexts' reach.
//!
//! **Oracle**: `NaiveNoCandidates`, unoptimized resolved plan, on freshly
//! parsed documents. **Subject**, byte-identical to it: the default
//! engine on the pure mount; a `WritableEngine` that received the
//! pending inserts and retracts one batch per op — retracts of pending
//! inserts among them — under every strategy that takes candidates; and
//! the set compacted in one go. The pure mount and the loop-lifted
//! writer answer twice: through the production pass list, which counts
//! an aggregated step from the index, and through that list without
//! `fuse-count`, which joins and counts the rows.

use proptest::prelude::*;

use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::store::{compact, DeltaOp, DeltaSet, LayerSet};
use standoff::xml::{parse_document, serialize_document, SerializeOptions};
use standoff::xquery::compile::resolve;
use standoff::xquery::optimize::PASSES;
use standoff::xquery::parser::parse_query;
use standoff::xquery::{Engine, EngineOptions, QueryError, QueryResult, Session, WritableEngine};

const URI: &str = "mem://layers";
const AXES: [&str; 4] = [
    "select-narrow",
    "select-wide",
    "reject-narrow",
    "reject-wide",
];

type Extent = (i64, i64);

/// An extent derived from the shared pool: the pooled one itself (so
/// layers repeat each other's extents), the one touching it on the
/// right, its zero-width start, or a wider or narrower neighbour.
fn extent(pool: &[Extent], pick: usize, tweak: u8) -> Extent {
    let (s, e) = pool[pick % pool.len()];
    match tweak % 5 {
        0 => (s, e),
        1 => (e + 1, e + 1 + (e - s)),
        2 => (s, s),
        3 => ((s - 1).max(0), e + 1),
        _ => ((s + 1).min(e), e),
    }
}

/// `<root>` of attribute-representation annotations, then one chain of
/// `depth` same-extent `<name>` elements nested in each other.
fn attribute_layer(root: &str, name: &str, extents: &[Extent], chain: (Extent, usize)) -> String {
    let mut xml = format!("<{root}>");
    for (k, (s, e)) in extents.iter().enumerate() {
        xml.push_str(&format!(r#"<{name} n="{k}" start="{s}" end="{e}"/>"#));
    }
    let ((s, e), depth) = chain;
    for d in 0..depth {
        xml.push_str(&format!(r#"<{name} n="c{d}" start="{s}" end="{e}">"#));
    }
    xml.push_str(&format!("</{name}>").repeat(depth));
    xml.push_str(&format!("</{root}>"));
    xml
}

/// `<units>` of element-representation annotations: one to three
/// `<region>`s each, kept apart as an area requires.
fn units_layer(units: &[(&str, Vec<Extent>)]) -> String {
    let mut xml = String::from("<units>");
    for (k, (name, regions)) in units.iter().enumerate() {
        let mut regions = regions.clone();
        regions.sort_unstable();
        let mut last_end = i64::MIN;
        xml.push_str(&format!(r#"<{name} n="{k}">"#));
        for (s, e) in regions {
            if s > last_end.saturating_add(1) {
                xml.push_str(&format!(
                    "<region><start>{s}</start><end>{e}</end></region>"
                ));
                last_end = e;
            }
        }
        xml.push_str(&format!("</{name}>"));
    }
    xml.push_str("</units>");
    xml
}

fn layer_set(layers: &[(&str, String, StandoffConfig)]) -> LayerSet {
    let (_, base, config) = &layers[0];
    let mut set = LayerSet::build(URI, parse_document(base).unwrap(), config.clone()).unwrap();
    for (name, xml, config) in &layers[1..] {
        set.add_layer(name, parse_document(xml).unwrap(), config.clone())
            .unwrap();
    }
    set
}

/// The same layers, every document parsed afresh from its serialization.
fn reparsed(set: &LayerSet) -> LayerSet {
    let layers: Vec<(&str, String, StandoffConfig)> = (set.layers().iter())
        .map(|layer| {
            let xml = serialize_document(layer.doc(), SerializeOptions::default());
            (layer.name(), xml, layer.config().clone())
        })
        .collect();
    layer_set(&layers)
}

fn options(strategy: StandoffStrategy) -> EngineOptions {
    EngineOptions {
        strategy,
        ..EngineOptions::default()
    }
}

fn engine(strategy: StandoffStrategy) -> Engine {
    Engine::with_options(options(strategy))
}

/// The oracle's answers over `set`.
fn oracle(set: &LayerSet, queries: &[String]) -> Vec<String> {
    let mut naive = engine(StandoffStrategy::NaiveNoCandidates);
    naive.mount_store(reparsed(set)).unwrap();
    let run = |q: &String| naive.run_unoptimized(q).unwrap().as_xml();
    queries.iter().map(run).collect()
}

fn agree(
    what: &str,
    mut run: impl FnMut(&str) -> Result<QueryResult, QueryError>,
    queries: &[String],
    expected: &[String],
) {
    for (query, expected) in queries.iter().zip(expected) {
        let got = run(query).unwrap().as_xml();
        assert_eq!(&got, expected, "{what}: {query}");
    }
}

/// `query` through every optimizer pass but `fuse-count`: an aggregated
/// StandOff step joins and its rows are counted.
fn without_fuse_count(session: &mut Session, query: &str) -> Result<QueryResult, QueryError> {
    let mut plan = parse_query(query)?;
    let options = options(StandoffStrategy::LoopLiftedMergeJoin);
    resolve(&mut plan, &options)?;
    for pass in PASSES.iter().filter(|p| p.name != "fuse-count") {
        (pass.run)(&mut plan, &options);
    }
    session.execute_plan(&plan)
}

/// A writer over `set` that received `ops` one batch per op.
fn writer(set: &LayerSet, ops: &[DeltaOp], strategy: StandoffStrategy) -> WritableEngine {
    let mut writer = WritableEngine::mount(set.clone(), options(strategy)).unwrap();
    for op in ops {
        assert_eq!(writer.apply([op.clone()]).unwrap(), 1, "{op:?}");
    }
    writer
}

/// `op` against `set`, recorded in `delta` and kept in `ops` when the
/// delta accepts it (a double retract, say, is refused).
fn accept(set: &LayerSet, delta: &mut DeltaSet, ops: &mut Vec<DeltaOp>, op: DeltaOp) {
    if delta.apply(op.clone(), set).is_ok() {
        ops.push(op);
    }
}

/// The property: every subject configuration answers `queries` as the
/// oracle does — over `set` as it is, and over `set` with `ops`
/// pending or folded in.
fn check(set: &LayerSet, ops: &[DeltaOp], queries: &[String]) {
    let default = StandoffStrategy::LoopLiftedMergeJoin;
    let mut pure = engine(default);
    pure.mount_store(set.clone()).unwrap();
    let pure = pure.into_shared();
    let expected = oracle(set, queries);
    let mut session = pure.session();
    agree("pure mount", |q| session.run(q), queries, &expected);
    let what = "pure mount, without fuse-count";
    agree(
        what,
        |q| without_fuse_count(&mut session, q),
        queries,
        &expected,
    );

    let mut delta = DeltaSet::new();
    delta.apply_all(ops.iter().cloned(), set).unwrap();
    let folded = compact(set, &delta).unwrap();
    let expected = oracle(&folded, queries);
    for strategy in [
        default,
        StandoffStrategy::BasicMergeJoin,
        StandoffStrategy::NaiveWithCandidates,
    ] {
        let mut session = writer(set, ops, strategy).session();
        let what = format!("writer, {strategy}");
        agree(&what, |q| session.run(q), queries, &expected);
        if strategy == default {
            let what = "writer, without fuse-count";
            agree(
                what,
                |q| without_fuse_count(&mut session, q),
                queries,
                &expected,
            );
        }
    }
    let mut compacted = engine(default);
    compacted.mount_store(folded).unwrap();
    agree("compacted", |q| compacted.run(q), queries, &expected);
}

/// `context` × four axes × `tests` in step form (flat, and per
/// iteration of a `for`), plus the function form over `candidates` —
/// each also under `count`, `exists` and `empty`, flat and per
/// iteration.
fn join_queries(context: &str, tests: &[&str], candidates: &str) -> Vec<String> {
    let aggregates = |step: &str, per_iteration: &str| {
        format!(
            "(count({step}), exists({step}), empty({step}), \
             for $c in {context} return (count({per_iteration}), empty({per_iteration})))"
        )
    };
    let mut queries = Vec::new();
    for axis in AXES {
        for test in tests {
            queries.push(format!("{context}/{axis}::{test}"));
            queries.push(format!("for $c in {context} return $c/{axis}::{test}"));
            let (flat, each) = (
                format!("{context}/{axis}::{test}"),
                format!("$c/{axis}::{test}"),
            );
            queries.push(aggregates(&flat, &each));
        }
        queries.push(format!("{axis}({context}, {candidates})"));
        let (flat, each) = (
            format!("{axis}({context}, {candidates})"),
            format!("{axis}($c, {candidates})"),
        );
        queries.push(aggregates(&flat, &each));
    }
    queries
}

/// Tree navigation from `context` along the axes that leave its
/// subtree, and the given layers serialized whole.
fn tree_queries(context: &str, layers: &[&str]) -> Vec<String> {
    let mut queries: Vec<String> = [
        "following-sibling::*",
        "preceding-sibling::node()",
        "following::*",
        "preceding::*",
        "..",
        "ancestor-or-self::*",
    ]
    .iter()
    .map(|axis| format!("{context}/{axis}"))
    .collect();
    queries.push(format!(
        "for $c in {context} return count($c/following-sibling::*)"
    ));
    queries.extend(layers.iter().map(|name| layer(name)));
    queries
}

fn layer(name: &str) -> String {
    format!(r#"layer("{URI}", "{name}")"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn layered_joins_match_the_naive_oracle(
        pool in prop::collection::vec((0i64..30, 0i64..6), 3..7),
        sections in prop::collection::vec((0usize..8, 0u8..5), 0..4),
        tokens in prop::collection::vec((0usize..8, 0u8..5), 1..8),
        words in prop::option::of(prop::collection::vec((0usize..8, 0u8..5), 1..6)),
        chain in (0usize..8, 0usize..4),
        units in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0usize..8, 0u8..5), 1..4)),
            1..5,
        ),
        inserts in prop::collection::vec((any::<bool>(), 0usize..8, 0u8..5), 0..5),
        retracts in prop::collection::vec((0usize..4, 0usize..8), 0..5),
        picks in (0usize..4, 0usize..3),
    ) {
        let pool: Vec<Extent> = pool.iter().map(|&(s, len)| (s, s + len)).collect();
        let at = |picks: &[(usize, u8)]| -> Vec<Extent> {
            picks.iter().map(|&(p, t)| extent(&pool, p, t)).collect()
        };
        let (tokens, sections) = (at(&tokens), at(&sections));
        let words = words.map(|w| at(&w));
        let units: Vec<(&str, Vec<Extent>)> = (units.iter())
            .map(|(as_w, regions)| (if *as_w { "w" } else { "unit" }, at(regions)))
            .collect();
        let attrs = StandoffConfig::default();
        let mut layers = vec![
            ("base", attribute_layer("doc", "sec", &sections, ((0, 0), 0)), attrs.clone()),
            ("tokens", attribute_layer("tokens", "w", &tokens, ((0, 0), 0)), attrs.clone()),
            ("units", units_layer(&units), StandoffConfig::element_repr()),
        ];
        if let Some(words) = &words {
            let chain = (extent(&pool, chain.0, 0), chain.1);
            layers.push(("words", attribute_layer("words", "word", words, chain), attrs));
        }
        let set = layer_set(&layers);

        // Inserts go to the attribute layers; retracts name an existing
        // annotation by one of its regions, or a pending insert. Double
        // retracts are refused at apply time — skipped.
        let (mut delta, mut ops) = (DeltaSet::new(), Vec::new());
        let mut inserted = Vec::new();
        for (k, &(into_words, p, t)) in inserts.iter().enumerate() {
            let (layer, name) = match (&words, into_words) {
                (Some(_), true) => ("words", "word"),
                _ => ("tokens", "w"),
            };
            let (start, end) = extent(&pool, p, t);
            inserted.push((layer, name, (start, end)));
            let attrs = vec![("k".into(), k.to_string())];
            let op = DeltaOp::Insert { layer: layer.into(), name: name.into(), start, end, attrs };
            accept(&set, &mut delta, &mut ops, op);
        }
        for &(which, p) in &retracts {
            let (layer, name, (start, end)) = match (which, &words) {
                (0, Some(words)) => ("words", "word", words[p % words.len()]),
                (1, _) => {
                    let (name, regions) = &units[p % units.len()];
                    ("units", *name, regions[0])
                }
                (3, _) if !inserted.is_empty() => inserted[p % inserted.len()],
                _ => ("tokens", "w", tokens[p % tokens.len()]),
            };
            let op = DeltaOp::Retract { layer: layer.into(), name: name.into(), start, end };
            accept(&set, &mut delta, &mut ops, op);
        }

        let mut contexts = vec![
            format!("{}//unit", layer("units")),
            format!("({}//w | {}//*)", layer("tokens"), layer("units")),
            format!(r#"doc("{URI}")//sec"#),
        ];
        // Part of a layer, so the candidate sequence is a restriction
        // within the layers it reaches, not just a choice of layers.
        let mut candidates = format!("{}//w | {}//unit", layer("tokens"), layer("units"));
        if words.is_some() {
            contexts.push(format!("{}//word", layer("words")));
            candidates.push_str(&format!(" | {}//word", layer("words")));
        }
        let context = &contexts[picks.0 % contexts.len()];
        let name = ["w", "unit", "word"][picks.1];
        let mut queries = join_queries(context, &[name, "*", "node()"], &format!("({candidates})"));
        queries.extend(tree_queries(context, &["tokens", "units"]));
        check(&set, &ops, &queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One to three point spans of width ≤ 5 over a dense token layer —
    /// 400 to 800 adjacent `w`, every annotation of the layer — so the
    /// loop-lifted narrow joins derive `w` from the handful of token
    /// entries inside the spans' reach, with pending inserts and
    /// retracts inside and outside it.
    #[test]
    fn point_contexts_over_a_dense_layer(
        n in 400i64..800,
        points in prop::collection::vec((0i64..30, 0i64..6), 1..=3),
        inserts in prop::collection::vec((0i64..70, 0i64..4), 0..4),
        retracts in prop::collection::vec(0i64..40, 0..4),
    ) {
        // Tokens `[2k, 2k + 1]`; the spans sit from the middle, `n`, on.
        let tokens: Vec<Extent> = (0..n).map(|k| (2 * k, 2 * k + 1)).collect();
        let spans: Vec<Extent> = points.iter().map(|&(at, len)| (n + at, n + at + len)).collect();
        let attrs = StandoffConfig::default();
        let set = layer_set(&[
            ("base", "<text/>".into(), attrs.clone()),
            ("tokens", attribute_layer("tokens", "w", &tokens, ((0, 0), 0)), attrs.clone()),
            ("spans", attribute_layer("spans", "pt", &spans, ((0, 0), 0)), attrs),
        ]);
        let (mut delta, mut ops) = (DeltaSet::new(), Vec::new());
        for (k, &(at, len)) in inserts.iter().enumerate() {
            let start = n - 20 + at;
            let attrs = vec![("k".into(), k.to_string())];
            let op = DeltaOp::Insert { layer: "tokens".into(), name: "w".into(), start, end: start + len, attrs };
            accept(&set, &mut delta, &mut ops, op);
        }
        for &r in &retracts {
            let (start, end) = tokens[(n / 2 - 10 + r) as usize];
            let op = DeltaOp::Retract { layer: "tokens".into(), name: "w".into(), start, end };
            accept(&set, &mut delta, &mut ops, op);
        }
        let context = format!("{}//pt", layer("spans"));
        let candidates = format!("({}//w)", layer("tokens"));
        check(&set, &ops, &join_queries(&context, &["w", "*", "node()"], &candidates));
    }
}

// ---- regression seeds: fixed inputs of the property above ----

/// BLOB: "Alice met Bob in Paris yesterday" (coordinates are character
/// offsets into an external text the layers never materialize).
fn alice_corpus() -> LayerSet {
    let attrs = StandoffConfig::default;
    layer_set(&[
        (
            "base",
            r#"<text lang="en">Alice met Bob in Paris yesterday</text>"#.into(),
            attrs(),
        ),
        (
            "tokens",
            r#"<tokens><w word="Alice" start="0" end="4"/><w word="met" start="6" end="8"/>
               <w word="Bob" start="10" end="12"/><w word="in" start="14" end="15"/>
               <w word="Paris" start="17" end="21"/><w word="yesterday" start="23" end="31"/>
               </tokens>"#
                .into(),
            attrs(),
        ),
        (
            "entities",
            r#"<entities><person id="alice" start="0" end="4"/>
               <person id="bob" start="10" end="12"/><place id="paris" start="17" end="21"/>
               </entities>"#
                .into(),
            attrs(),
        ),
        (
            "syntax",
            r#"<syntax><np start="0" end="4"/><vp start="6" end="12"/>
               <pp start="14" end="21"/><s start="0" end="31"/></syntax>"#
                .into(),
            attrs(),
        ),
    ])
}

/// The hand-checked multi-layer answers: entities narrowed by tokens,
/// wide and reject across layers, a wildcard step reaching every layer,
/// the function form with cross-layer candidates, a reject whose
/// context spans two layers (it complements the *union* of their
/// selections), and a loop-lifted FLWOR — under every strategy, and
/// through the differential property.
#[test]
fn seed_cross_layer_answers() {
    let (entities, tokens, syntax) = (layer("entities"), layer("tokens"), layer("syntax"));
    let cases: [(String, &[&str]); 7] = [
        (
            format!("{entities}//person/select-narrow::w/@word"),
            &["Alice", "Bob"],
        ),
        (
            format!("{syntax}//pp/select-wide::w/@word"),
            &["in", "Paris"],
        ),
        (
            format!(r#"{entities}//person[@id = "alice"]/reject-narrow::w/@word"#),
            &["met", "Bob", "in", "Paris", "yesterday"],
        ),
        // np[0,4] itself, w "Alice" and person "alice".
        (format!("count({syntax}//np/select-narrow::*)"), &["3"]),
        (
            format!("select-narrow({entities}//person, {tokens}//w)/@word"),
            &["Alice", "Bob"],
        ),
        (
            format!(r#"({entities}//person | {tokens}//w[@word = "met"])/reject-wide::w/@word"#),
            &["in", "Paris", "yesterday"],
        ),
        // np:1 (Alice), vp:2 (met, Bob), pp:2 (in, Paris), s:6 (all).
        (
            format!("for $c in {syntax}//*[@start] return count($c/select-narrow::w)"),
            &["1", "2", "2", "6"],
        ),
    ];
    for strategy in StandoffStrategy::ALL {
        let mut engine = engine(strategy);
        engine.mount_store(alice_corpus()).unwrap();
        for (query, expected) in &cases {
            let result = engine.run(query).unwrap();
            assert_eq!(&result.as_strings(), expected, "{strategy}: {query}");
        }
    }
    let queries: Vec<String> = cases.into_iter().map(|(query, _)| query).collect();
    check(&alice_corpus(), &[], &queries);
}

/// Identical extents inside one layer: `w[5,9]` exists and is inserted
/// again, so both context annotations select `word[6,8]` and the
/// two-region `unit` inside them — once each.
#[test]
fn seed_identical_extents_across_context_documents() {
    let attrs = StandoffConfig::default;
    let set = layer_set(&[
        ("base", "<text/>".into(), attrs()),
        (
            "tokens",
            attribute_layer("tokens", "w", &[(5, 9), (20, 21)], ((0, 0), 0)),
            attrs(),
        ),
        (
            "words",
            attribute_layer("words", "word", &[(6, 8), (5, 9)], ((5, 9), 2)),
            attrs(),
        ),
        (
            "units",
            units_layer(&[("unit", vec![(6, 6), (8, 8)])]),
            StandoffConfig::element_repr(),
        ),
    ]);
    let again = [DeltaOp::Insert {
        layer: "tokens".into(),
        name: "w".into(),
        start: 5,
        end: 9,
        attrs: vec![("k".into(), "0".into())],
    }];
    let context = format!("{}//w", layer("tokens"));
    let mut session = writer(&set, &again, StandoffStrategy::LoopLiftedMergeJoin).session();
    for (test, count) in [("word", "4"), ("unit", "1")] {
        let narrowed = format!("count({context}/select-narrow::{test})");
        assert_eq!(session.run(&narrowed).unwrap().as_strings(), [count]);
    }
    let candidates = format!("({}//word | {}//unit)", layer("words"), layer("units"));
    check(
        &set,
        &again,
        &join_queries(&context, &["word", "unit", "*"], &candidates),
    );
}

/// A two-region area joined on a mounted layer set. Its regions are
/// each contained in a *different* context annotation — `w[0,4]` of one
/// layer, `word[10,14]` of another, both at the same pre rank — so
/// `select-narrow` must not select it: no single annotation contains
/// all of it (∀∃), and annotations of different layers stay distinct.
#[test]
fn seed_multi_region_area_across_context_layers() {
    let attrs = StandoffConfig::default;
    let set = layer_set(&[
        ("base", "<text/>".into(), attrs()),
        (
            "tokens",
            attribute_layer("tokens", "w", &[(0, 4)], ((0, 0), 0)),
            attrs(),
        ),
        (
            "words",
            attribute_layer("words", "word", &[(10, 14)], ((0, 0), 0)),
            attrs(),
        ),
        (
            "units",
            units_layer(&[("unit", vec![(0, 4), (10, 14)]), ("unit", vec![(1, 3)])]),
            StandoffConfig::element_repr(),
        ),
    ]);
    let context = format!("({}//w | {}//word)", layer("tokens"), layer("words"));
    let mut mounted = engine(StandoffStrategy::LoopLiftedMergeJoin);
    mounted.mount_store(set.clone()).unwrap();
    let n = |axis: &str| format!("{context}/{axis}::unit/@n");
    assert_eq!(
        mounted.run(&n("select-narrow")).unwrap().as_strings(),
        ["1"]
    );
    assert_eq!(
        mounted.run(&n("select-wide")).unwrap().as_strings(),
        ["0", "1"]
    );
    let candidates = format!("({}//*)", layer("units"));
    check(
        &set,
        &[],
        &join_queries(&context, &["unit", "node()"], &candidates),
    );
}

/// The geometry the counted joins do arithmetic on. `tokens` has
/// `max_extent` 4; the contexts are `[10, 20]`, then `[40, 50]` and
/// `[44, 56]` — overlapping, not nested — and `[60, 61]` after a gap
/// shorter than the extent. Around `[10, 20]` (`M = 20`) tokens start at
/// `M − 4 − 1`, `M − 4` (ending exactly at `M`) and `M − 4 + 1` (one
/// ending past `M`, one at it). The tokens layer also holds an
/// unannotated `w` and an annotated `x`, so a name test and `node()`
/// have different candidates; `units` holds two-region `w`s, whose
/// counts fall back to the join. Counted from the index or joined, per
/// iteration or flat, pure or written, every answer is the oracle's.
#[test]
fn seed_counted_edges_at_the_max_extent() {
    let attrs = StandoffConfig::default;
    let tokens = [
        (15, 19),
        (16, 20),
        (17, 21),
        (17, 20),
        (20, 20),
        (21, 24),
        (30, 34),
        (36, 40),
        (45, 49),
        (48, 52),
        (53, 57),
        (57, 60),
        (58, 59),
    ];
    let mut xml = String::from("<tokens><w/>");
    for (s, e) in tokens {
        xml.push_str(&format!(r#"<w start="{s}" end="{e}"/>"#));
    }
    xml.push_str(r#"<x start="12" end="13"/><w/></tokens>"#);
    let set = layer_set(&[
        ("base", "<text/>".into(), attrs()),
        ("tokens", xml, attrs()),
        (
            "spans",
            attribute_layer(
                "spans",
                "pt",
                &[(10, 20), (40, 50), (44, 56), (60, 61)],
                ((0, 0), 0),
            ),
            attrs(),
        ),
        (
            "units",
            units_layer(&[
                ("w", vec![(11, 12), (45, 46)]),
                ("w", vec![(11, 12), (14, 15)]),
            ]),
            StandoffConfig::element_repr(),
        ),
    ]);
    let context = format!("{}//pt", layer("spans"));
    let mut mounted = engine(StandoffStrategy::LoopLiftedMergeJoin);
    mounted.mount_store(set.clone()).unwrap();
    for (axis, expected) in [("select-narrow", "7"), ("select-wide", "12")] {
        let query = format!("count({context}/{axis}::w)");
        assert_eq!(mounted.run(&query).unwrap().as_strings(), [expected]);
    }
    let stats = mounted.metrics().snapshot().counters;
    assert_eq!(stats["join.counts_from_index"], 2, "{stats:?}");
    // A wider token widens the extent; a retract drops one at the edge.
    let ops = [
        DeltaOp::Insert {
            layer: "tokens".into(),
            name: "w".into(),
            start: 2,
            end: 12,
            attrs: vec![("k".into(), "0".into())],
        },
        DeltaOp::Retract {
            layer: "tokens".into(),
            name: "w".into(),
            start: 16,
            end: 20,
        },
    ];
    let candidates = format!("({}//w | {}//x)", layer("tokens"), layer("units"));
    check(
        &set,
        &ops,
        &join_queries(&context, &["w", "x", "node()"], &candidates),
    );
}
