//! A mounted layer's tree columns — `size`, `level`, `parent` and the
//! value arena — are verified the first time a request reads them, as
//! its attribute table is: a cold count that joins into a layer without
//! navigating it never hashes them, the first navigation hashes exactly
//! those five sections, and a damaged tree column fails exactly the
//! operators that navigate, through the mapped open and the in-memory
//! one alike, while `verify` still checks every byte. The tests share
//! the process-global hashing counters, so each holds one lock while it
//! mounts anything.

use std::sync::Mutex;

use standoff::core::{MetricsRegistry, StandoffConfig};
use standoff::store::{write_snapshot, LayerSet, Snapshot, StoreError};
use standoff::xml::{try_serialize_document, SerializeOptions};
use standoff::xquery::{Engine, QueryError};

/// A base of two people with a name each, a token layer with text and
/// an entity layer: three layers, as a served corpus stacks them.
const BASE: &str = r#"<site><person id="p1" start="0" end="9"><name start="0" end="4"/></person><person id="p2" start="10" end="19"><name start="10" end="14"/></person></site>"#;
const TOKENS: &str = r#"<tokens><w n="1" start="0" end="4">Alice</w><w n="2" start="6" end="8">met</w><w n="3" start="10" end="14">Bobby</w></tokens>"#;
const ENTITIES: &str = r#"<ents><e kind="person" start="0" end="4"/></ents>"#;

/// The shape of the benchmark's `name_tokens` class: an attribute
/// filter on base, a join into base, a counted join into `tokens`.
const NAME_TOKENS: &str =
    r#"count(doc("corpus")//person[@id = "p1"]/select-narrow::name/select-narrow::w)"#;

/// Section tags and names of the tree columns, and of the attribute
/// table.
const TREE_SECTIONS: [(u32, &str); 5] = [
    (12, "doc.size"),
    (13, "doc.level"),
    (14, "doc.parent"),
    (16, "doc.value-heap"),
    (17, "doc.value-offsets"),
];
/// What a mount reads of every layer: its catalog.
const CATALOG: [&str; 3] = ["doc.meta", "doc.elem-names", "doc.elem-offsets"];
const ATTR_SECTIONS: [&str; 5] = [
    "doc.attr-first",
    "doc.attr-owner",
    "doc.attr-name",
    "doc.attr-value-heap",
    "doc.attr-value-offsets",
];

static COUNTERS: Mutex<()> = Mutex::new(());

fn corpus_bytes() -> Vec<u8> {
    let parse = |xml| standoff::xml::parse_document(xml).unwrap();
    let mut set = LayerSet::build("corpus", parse(BASE), StandoffConfig::default()).unwrap();
    set.add_layer("tokens", parse(TOKENS), StandoffConfig::default())
        .unwrap();
    set.add_layer("entities", parse(ENTITIES), StandoffConfig::default())
        .unwrap();
    let mut bytes = Vec::new();
    write_snapshot(&set, &mut bytes).unwrap();
    bytes
}

/// The payload range of section `tag` of layer `layer`, from the
/// section table: `(u32 tag | u32 layer | u64 offset | u64 length)`
/// entries after the 16-byte header.
fn section(bytes: &[u8], tag: u32, layer: u32) -> std::ops::Range<usize> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let long = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (0..word(8) as usize)
        .map(|k| 16 + 24 * k)
        .find(|&e| word(e) == tag && word(e + 4) == layer)
        .map(|e| long(e + 8)..long(e + 8) + long(e + 16))
        .expect("section present")
}

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().counter(name).get()
}

fn engine(snapshot: &Snapshot) -> Engine {
    let mut engine = Engine::new();
    engine.mount_snapshot(snapshot).unwrap();
    engine
}

/// Bytes of layer `k`'s sections that `keep` accepts by name.
fn bytes_of(snapshot: &Snapshot, k: usize, keep: impl Fn(&str) -> bool) -> u64 {
    (snapshot.info().layers[k].sections.iter())
        .filter(|s| keep(s.name))
        .map(|s| s.bytes)
        .sum()
}

fn is_tree(name: &str) -> bool {
    TREE_SECTIONS.iter().any(|&(_, n)| n == name)
}

/// A `name_tokens`-shaped count hashes base's attribute table and the
/// columns both layers are read through directly — kinds, names, the
/// element index, the region index — but no tree section of either
/// layer and no attribute section of `tokens`. The first navigation of
/// `tokens` hashes exactly its five tree sections; `verify` afterwards
/// hashes the rest, so every section is hashed once per mount.
#[test]
fn a_cold_join_hashes_no_tree_section_and_a_first_navigation_does() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = counter("store.verify.bytes_hashed");
    let snapshot = Snapshot::mount_bytes(corpus_bytes()).unwrap();
    let opened = counter("store.verify.bytes_hashed") - before;
    let mut engine = engine(&snapshot);
    let hashed = counter("store.verify.bytes_hashed");
    let deferred = counter("store.verify.sections_deferred");
    let count = engine.run(NAME_TOKENS).unwrap();
    assert_eq!(count.as_xml(), "1");
    assert!(snapshot.is_materialized(0) && snapshot.is_materialized(1));
    assert!(!snapshot.is_materialized(2));
    // Base: all but its header (hashed at open), catalog (at mount)
    // and tree; tokens: all but those and its attribute table.
    let direct = |n: &str| !(n == "layer.header" || CATALOG.contains(&n) || is_tree(n));
    let base = bytes_of(&snapshot, 0, direct);
    let tokens = bytes_of(&snapshot, 1, |n| direct(n) && !ATTR_SECTIONS.contains(&n));
    assert_eq!(
        counter("store.verify.bytes_hashed") - hashed,
        base + tokens,
        "the count hashed a tree or a `tokens` attribute section"
    );
    assert_eq!(counter("store.verify.sections_deferred") - deferred, 20);

    // The first navigation of `tokens`: a child step.
    let hashed = counter("store.verify.bytes_hashed");
    let texts = engine
        .run(r#"count(doc("corpus#tokens")//w/text())"#)
        .unwrap();
    assert_eq!(texts.as_xml(), "3");
    let tree = bytes_of(&snapshot, 1, is_tree);
    assert!(tree > 0);
    assert_eq!(counter("store.verify.bytes_hashed") - hashed, tree);

    // `verify` checks every section and hashes what is left, so the
    // mount hashed every payload byte once.
    let report = snapshot.verify().unwrap();
    let sections = 1
        + (snapshot.info().layers.iter())
            .map(|l| l.sections.len())
            .sum::<usize>();
    assert_eq!(report.sections_checked, sections);
    let layers: u64 = (0..3).map(|k| bytes_of(&snapshot, k, |_| true)).sum();
    let headers: u64 = (0..3)
        .map(|k| bytes_of(&snapshot, k, |n| n == "layer.header"))
        .sum();
    assert_eq!(
        counter("store.verify.bytes_hashed") - before,
        opened + layers - headers
    );
}

/// One flipped byte in each tree section of the token layer, mapped and
/// in memory: the layer materializes and a join counted into it
/// answers; every operator that navigates it — a child step, the
/// serialization of a result, a string value, `fn:serialize` — fails
/// with the checksum error of that section, and so do `verify` and
/// `try_serialize_document`.
#[test]
fn a_flipped_tree_byte_fails_exactly_the_requests_that_navigate() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let clean = corpus_bytes();
    let dir = std::env::temp_dir().join(format!("standoff-deferred-tree-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let navigators = [
        r#"count(doc("corpus#tokens")//w/text())"#,
        r#"doc("corpus#tokens")//w"#,
        r#"string(doc("corpus#tokens")//w[1])"#,
        r#"serialize(doc("corpus#tokens")//w)"#,
    ];
    for (tag, name) in TREE_SECTIONS {
        let range = section(&clean, tag, 1);
        assert!(!range.is_empty(), "{name}");
        let mut bytes = clean.clone();
        bytes[range.start + range.len() / 2] ^= 0x10;
        let path = dir.join("flipped.snap");
        std::fs::write(&path, &bytes).unwrap();
        let want = format!("corrupt section {name} (layer tokens): checksum mismatch");
        let mounts = || {
            [
                Snapshot::open(&path).unwrap(),
                Snapshot::mount_bytes(bytes.clone()).unwrap(),
            ]
        };
        for snapshot in mounts() {
            let layer = snapshot.layer("tokens").expect("the layer materializes");
            match layer.doc().tree().map(drop).map_err(StoreError::from) {
                Err(StoreError::Corrupt { section, .. }) => {
                    assert_eq!(section, format!("section {name} (layer tokens)"))
                }
                other => panic!("{name}: {other:?}"),
            }
            // The library's whole-document serializer reports it too.
            let serialized = try_serialize_document(layer.doc(), SerializeOptions::default());
            let failure = serialized.unwrap_err().to_string();
            assert!(failure.starts_with(&want), "{name}: {failure}");
            match snapshot.verify() {
                Err(StoreError::Corrupt { section, detail }) => {
                    assert_eq!(section, format!("section {name} (layer tokens)"));
                    assert!(detail.contains("checksum mismatch"), "{detail}");
                }
                other => panic!("{name}: verify said {other:?}"),
            }
        }
        // Each navigator on fresh mounts, after the counts, so the
        // operator itself is what first reads the tree.
        for q in navigators {
            for snapshot in mounts() {
                let mut engine = engine(&snapshot);
                assert_eq!(engine.run(NAME_TOKENS).unwrap().as_xml(), "1", "{name}");
                let count = engine.run(r#"count(doc("corpus#tokens")//w)"#).unwrap();
                assert_eq!(count.as_xml(), "3", "{name}");
                match engine.run(q) {
                    Err(QueryError::Dynamic(text)) => {
                        assert!(text.contains(&want), "{name}, {q}: {text}")
                    }
                    other => panic!("{name}, {q}: {other:?}"),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
