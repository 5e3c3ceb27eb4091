//! A region index holds a layer's regions as `u32` offsets from its
//! first start. A layer spanning 2³² − 1 positions indexes, answers
//! queries and round-trips through `save_snapshot`, `Snapshot::open` and
//! `mount_bytes`; one spanning 2³² is refused with a categorized error
//! naming the layer — by the index build, by `standoff-xq index` (exit
//! code 2) and by a writer's `apply`, before its batch is journaled.
//! Negative positions join like positive ones under every strategy.

use std::path::PathBuf;
use std::process::Command;

use standoff::core::{RegionIndex, StandoffConfig, StandoffError, StandoffStrategy};
use standoff::store::{save_snapshot, DeltaOp, DeltaWal, LayerSet, Snapshot, StoreError};
use standoff::xml::{parse_document, try_serialize_document};
use standoff::xquery::{Engine, EngineOptions, QueryError, WritableEngine};

/// The widest span an index holds: `last end − first start`.
const WIDEST: i64 = u32::MAX as i64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-span-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `tokens` layer of `w` elements numbered `n` in document order.
fn tokens(regions: &[(i64, i64)]) -> String {
    let rows: String = (regions.iter().enumerate())
        .map(|(k, (start, end))| format!(r#"<w n="{k}" start="{start}" end="{end}"/>"#))
        .collect();
    format!("<tokens>{rows}</tokens>")
}

fn corpus(uri: &str, layers: &[(&str, String)]) -> Result<LayerSet, StoreError> {
    let config = StandoffConfig::default;
    let base = parse_document("<text>x</text>").unwrap();
    let mut set = LayerSet::build(uri, base, config())?;
    for (name, xml) in layers {
        set.add_layer(name, parse_document(xml).unwrap(), config())?;
    }
    Ok(set)
}

fn answers(engine: &mut Engine, queries: &[String]) -> Vec<String> {
    (queries.iter())
        .map(|q| {
            engine
                .run(q)
                .map(|r| r.as_xml())
                .unwrap_or_else(|e| e.to_string())
        })
        .collect()
}

#[test]
fn a_span_of_two_to_the_32_minus_one_indexes_queries_and_round_trips() {
    let dir = temp_dir("widest");
    let queries: Vec<String> = [
        r#"doc("span#tokens")//w"#,
        r#"for $w in doc("span#tokens")//w return count($w/select-wide::w)"#,
        r#"doc("span#tokens")//w[@n = "1"]/select-narrow::w/@n"#,
        r#"doc("span#tokens")//w[@n = "2"]/reject-wide::w/@n"#,
    ]
    .map(String::from)
    .to_vec();
    for first in [0, -300, i64::MIN, i64::MAX - WIDEST] {
        let regions = [
            (first, first + 1),
            (first + 10, first + WIDEST - 5),
            (first + WIDEST - 1, first + WIDEST),
        ];
        let set = corpus("span", &[("tokens", tokens(&regions))]).unwrap();
        let index = set.layer("tokens").unwrap().index();
        assert_eq!(index.table().rows.origin, first);
        let mut engine = Engine::new();
        engine.mount_store(set.clone()).unwrap();
        let parsed = answers(&mut engine, &queries);
        let last = format!(r#"start="{}" end="{}""#, first + WIDEST - 1, first + WIDEST);
        assert!(parsed[0].contains(&last), "{}", parsed[0]);
        assert_eq!(
            parsed[1..],
            ["1 1 1", r#"n="1""#, r#"n="0" n="1""#],
            "{first}"
        );

        let path = dir.join("widest.snap");
        save_snapshot(&set, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for snapshot in [
            Snapshot::open(&path).unwrap(),
            Snapshot::mount_bytes(bytes).unwrap(),
        ] {
            snapshot.verify().unwrap();
            let mut engine = Engine::new();
            engine.mount_snapshot(&snapshot).unwrap();
            assert_eq!(answers(&mut engine, &queries), parsed, "{first}");
            let reloaded = snapshot.to_layer_set().unwrap();
            let serialized = |set: &LayerSet| {
                let doc = set.layer("tokens").unwrap().doc();
                try_serialize_document(doc, Default::default()).unwrap()
            };
            assert_eq!(serialized(&reloaded), serialized(&set), "{first}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_span_of_two_to_the_32_is_refused_at_every_entry() {
    let wide = tokens(&[(0, 1), (WIDEST, WIDEST + 1)]);

    // The index build.
    let err = RegionIndex::build(&parse_document(&wide).unwrap(), &StandoffConfig::default());
    let last = WIDEST + 1;
    assert!(matches!(err, Err(StandoffError::SpanTooWide { first: 0, last: l }) if l == last));
    match corpus("span", &[("tokens", wide.clone())]) {
        Err(e @ StoreError::Index { .. }) => assert!(
            e.to_string()
                .starts_with(r#"layer "tokens" index: regions span 0 to 4294967296"#),
            "{e}"
        ),
        other => panic!("wrong outcome: {other:?}"),
    }

    // `standoff-xq index`: exit code 2, the layer named, no file.
    let dir = temp_dir("refused");
    let (base, layer, out) = (
        dir.join("base.xml"),
        dir.join("tokens.xml"),
        dir.join("c.snap"),
    );
    std::fs::write(&base, "<text>x</text>").unwrap();
    std::fs::write(&layer, &wide).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_standoff-xq"))
        .arg("index")
        .arg(&base)
        .arg("-o")
        .arg(&out)
        .arg("--layer")
        .arg(format!("tokens={}", layer.display()))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(r#"layer "tokens" index: regions span 0 to 4294967296"#),
        "{stderr}"
    );
    assert!(!out.exists());

    // A writer's `apply`: the insert that would widen the span is
    // refused before its batch is journaled.
    let set = corpus("span", &[("tokens", tokens(&[(0, 1), (5, 9)]))]).unwrap();
    let mut writer = WritableEngine::mount(set, EngineOptions::default()).unwrap();
    let wal_file = dir.join("delta.wal");
    let (wal, _) = DeltaWal::open(&wal_file).unwrap();
    writer.set_wal(Some(wal));
    let insert = |start, end| DeltaOp::Insert {
        layer: "tokens".into(),
        name: "w".into(),
        start,
        end,
        attrs: Vec::new(),
    };
    let count = |writer: &WritableEngine| {
        let q = r#"count(doc("span#tokens")//w)"#;
        writer.session().run(q).unwrap().as_xml()
    };
    let (generation, journaled) = (
        writer.generation(),
        std::fs::metadata(&wal_file).unwrap().len(),
    );
    match writer.apply([insert(WIDEST, WIDEST + 1)]) {
        Err(e @ QueryError::Static(_)) => assert!(
            e.to_string()
                .contains(r#"layer "tokens" index: regions span 0 to 4294967296"#),
            "{e}"
        ),
        other => panic!("wrong outcome: {other:?}"),
    }
    assert_eq!(writer.generation(), generation);
    assert_eq!(std::fs::metadata(&wal_file).unwrap().len(), journaled);
    assert_eq!(
        (count(&writer), writer.delta().insert_count()),
        ("2".into(), 0)
    );
    // One position less is the widest span an index holds.
    assert_eq!(writer.apply([insert(WIDEST - 1, WIDEST)]).unwrap(), 1);
    assert_eq!(count(&writer), "3");
    assert!(std::fs::metadata(&wal_file).unwrap().len() > journaled);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same layers at −300…−200 and 1 000 positions to the right: every
/// axis, as rows and counted, per context and per iteration, under
/// every strategy, answers alike — and like the loop-lifted join.
#[test]
fn negative_starts_join_like_positive_ones_under_every_strategy() {
    let shifted = |shift: i64| {
        let words: Vec<(i64, i64)> = (0..25)
            .map(|k| (-300 + 4 * k + shift, -300 + 4 * k + 2 + k % 3 + shift))
            .collect();
        let spans: Vec<(i64, i64)> = [(-300, -280), (-290, -250), (-240, -200), (-205, -180)]
            .map(|(s, e)| (s + shift, e + shift))
            .to_vec();
        let entities = tokens(&spans)
            .replace("tokens>", "entities>")
            .replace("<w ", "<e ");
        corpus("neg", &[("tokens", tokens(&words)), ("entities", entities)]).unwrap()
    };
    let mut queries = Vec::new();
    for axis in [
        "select-narrow",
        "select-wide",
        "reject-narrow",
        "reject-wide",
    ] {
        queries.push(format!(r#"doc("neg#entities")//e/{axis}::w/@n"#));
        queries.push(format!(r#"count(doc("neg#entities")//e/{axis}::w)"#));
        queries.push(format!(
            r#"for $e in doc("neg#entities")//e return count($e/{axis}::w)"#
        ));
        queries.push(format!(
            r#"for $e in doc("neg#entities")//e return string-join($e/{axis}::w/@n, ",")"#
        ));
    }
    let mut expected = None;
    for set in [shifted(0), shifted(1000)] {
        for strategy in StandoffStrategy::ALL {
            let mut engine = Engine::new();
            engine.mount_store(set.clone()).unwrap();
            engine.set_strategy(strategy);
            let got = answers(&mut engine, &queries);
            assert!(got.iter().all(|a| !a.contains("error")), "{got:?}");
            match &expected {
                None => expected = Some(got),
                Some(want) => assert_eq!(&got, want, "{strategy}"),
            }
        }
    }
    let expected = expected.unwrap();
    assert_ne!(expected[0], "", "the contexts select tokens");
}
