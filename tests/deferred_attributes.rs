//! A mounted layer's attribute table is verified the first time a
//! request reads it, not when the layer materializes: a request that
//! reads no attribute never hashes the table, and one that does finds a
//! damaged table as the same categorized corruption — through the mapped
//! open and the in-memory one alike — while `verify` still checks every
//! byte. The tests share the process-global hashing counters, so each
//! holds one lock while it mounts anything.

use std::sync::Mutex;

use standoff::core::{MetricsRegistry, StandoffConfig};
use standoff::store::{write_snapshot, LayerSet, Snapshot, StoreError};
use standoff::xquery::{Engine, QueryError};

const TOKENS: &str = r#"<tokens><w word="Alice" start="0" end="4"/><w word="met" start="6" end="8"/><w word="Bob" start="10" end="12"/></tokens>"#;

/// The tree columns' sections, also verified on their first read.
const TREE_SECTIONS: [&str; 5] = [
    "doc.size",
    "doc.level",
    "doc.parent",
    "doc.value-heap",
    "doc.value-offsets",
];

/// The attribute table's sections: tag and name.
const ATTR_SECTIONS: [(u32, &str); 5] = [
    (18, "doc.attr-first"),
    (19, "doc.attr-owner"),
    (20, "doc.attr-name"),
    (21, "doc.attr-value-heap"),
    (22, "doc.attr-value-offsets"),
];

static COUNTERS: Mutex<()> = Mutex::new(());

fn corpus_bytes() -> Vec<u8> {
    let base = standoff::xml::parse_document("<text>Alice met Bob</text>").unwrap();
    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    let tokens = standoff::xml::parse_document(TOKENS).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
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

/// A count over the token layer materializes it and hashes everything
/// it reads — but not one byte of its attribute table or its tree
/// columns, whose ten sections are counted as deferred. The first query
/// that reads an attribute hashes exactly the table's five sections,
/// once, and the first serialization exactly the tree's five.
#[test]
fn a_count_hashes_no_attribute_section_and_a_first_attribute_read_does() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let snapshot = Snapshot::mount_bytes(corpus_bytes()).unwrap();
    let info = snapshot.info();
    let attr_bytes: u64 = (info.layers[1].sections.iter())
        .filter(|s| ATTR_SECTIONS.iter().any(|&(_, name)| name == s.name))
        .map(|s| s.bytes)
        .sum();
    assert!(attr_bytes > 0);
    let tree_bytes: u64 = (info.layers[1].sections.iter())
        .filter(|s| TREE_SECTIONS.contains(&s.name))
        .map(|s| s.bytes)
        .sum();
    assert!(tree_bytes > 0);
    let mut engine = engine(&snapshot);

    let (hashed, checked) = (
        counter("store.verify.bytes_hashed"),
        counter("store.verify.sections_checked"),
    );
    let deferred = counter("store.verify.sections_deferred");
    let count = engine.run(r#"count(doc("corpus#tokens")//w)"#).unwrap();
    assert_eq!(count.as_xml(), "3");
    assert!(snapshot.is_materialized(1));
    // Every tokens section but the header (hashed at open), the three
    // catalog sections (hashed at mount), the tree columns and the
    // attribute table.
    let read_now: u64 = (info.layers[1].sections.iter())
        .filter(|s| !ATTR_SECTIONS.iter().any(|&(_, name)| name == s.name))
        .filter(|s| !TREE_SECTIONS.contains(&s.name))
        .filter(|s| {
            ![
                "layer.header",
                "doc.meta",
                "doc.elem-names",
                "doc.elem-offsets",
            ]
            .contains(&s.name)
        })
        .map(|s| s.bytes)
        .sum();
    assert_eq!(counter("store.verify.bytes_hashed") - hashed, read_now);
    assert_eq!(counter("store.verify.sections_deferred") - deferred, 10);
    let checked_by_count = counter("store.verify.sections_checked") - checked;

    let (hashed, checked) = (
        counter("store.verify.bytes_hashed"),
        counter("store.verify.sections_checked"),
    );
    let words = engine.run(r#"doc("corpus#tokens")//w/@word"#).unwrap();
    assert_eq!(words.as_xml(), r#"word="Alice" word="met" word="Bob""#);
    assert_eq!(counter("store.verify.bytes_hashed") - hashed, attr_bytes);
    assert_eq!(counter("store.verify.sections_checked") - checked, 5);
    assert!(checked_by_count > 0);

    // Serializing the filtered rows reads the tree for the first time:
    // it hashes the five tree sections and no attribute section again.
    let query = r#"doc("corpus#tokens")//w[@word = "met"]"#;
    let hashed = counter("store.verify.bytes_hashed");
    let met = engine.run(query).unwrap();
    assert_eq!(met.as_xml(), r#"<w word="met" start="6" end="8"/>"#);
    assert_eq!(counter("store.verify.bytes_hashed") - hashed, tree_bytes);

    // Read again: nothing is hashed twice.
    let hashed = counter("store.verify.bytes_hashed");
    engine.run(query).unwrap();
    assert_eq!(counter("store.verify.bytes_hashed"), hashed);
}

/// `serialize` writes each element's attributes, so on a fresh mount it
/// is the first read of the table and verifies it before writing.
#[test]
fn serialize_verifies_the_attribute_table_it_writes() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let snapshot = Snapshot::mount_bytes(corpus_bytes()).unwrap();
    let mut engine = engine(&snapshot);
    let checked = counter("store.verify.sections_checked");
    let text = engine
        .run(r#"serialize(doc("corpus#tokens")//w[2])"#)
        .unwrap();
    assert_eq!(text.as_xml(), r#"<w word="met" start="6" end="8"/>"#);
    assert!(counter("store.verify.sections_checked") - checked >= 5);
}

/// One flipped byte in each attribute section of the token layer, mapped
/// and in memory: the layer materializes and a count over it answers;
/// every operator that reads attributes — the attribute step, the fused
/// `[@a = "v"]` filter, the atomization of attribute nodes, a
/// constructor copying the elements, the serialization of a result,
/// `serialize` and a join from attribute contexts — fails with the checksum error of
/// that section; and `verify` reports the flip without a query.
#[test]
fn a_flipped_attribute_byte_fails_exactly_the_requests_that_read_attributes() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let clean = corpus_bytes();
    let dir = std::env::temp_dir().join(format!("standoff-deferred-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let readers = [
        r#"doc("corpus#tokens")//w/@word"#,
        r#"doc("corpus#tokens")//w[@word = "met"]"#,
        r#"string(doc("corpus#tokens")//w[1]/@word)"#,
        r#"count(<x>{doc("corpus#tokens")//w}</x>/w)"#,
        r#"doc("corpus#tokens")//w"#,
        r#"serialize(doc("corpus#tokens")//w)"#,
        r#"count(doc("corpus#tokens")//w/@word/select-narrow::w)"#,
    ];
    for (tag, name) in ATTR_SECTIONS {
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
            match layer.doc().attrs().map(drop).map_err(StoreError::from) {
                Err(StoreError::Corrupt { section, .. }) => {
                    assert_eq!(section, format!("section {name} (layer tokens)"))
                }
                other => panic!("{name}: {other:?}"),
            }
            match snapshot.verify() {
                Err(StoreError::Corrupt { section, detail }) => {
                    assert_eq!(section, format!("section {name} (layer tokens)"));
                    assert!(detail.contains("checksum mismatch"), "{detail}");
                }
                other => panic!("{name}: verify said {other:?}"),
            }
        }
        // Each reader on fresh mounts, after a count, so the operator
        // itself is what first reads the table.
        for q in readers {
            for snapshot in mounts() {
                let mut engine = engine(&snapshot);
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

/// A write path never checksums an unverified attribute table into a
/// new file: with one flipped byte in the token layer's attribute
/// arena, assembling the layer set refuses, and so does writing layers
/// taken from the mount one by one, each with the section's error.
#[test]
fn writers_verify_the_attribute_table_before_copying_it() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut bytes = corpus_bytes();
    let range = section(&bytes, 21, 1);
    bytes[range.start] ^= 0x10;
    let want = "corrupt section doc.attr-value-heap (layer tokens): checksum mismatch";
    let snapshot = Snapshot::mount_bytes(bytes).unwrap();
    match snapshot.to_layer_set() {
        Err(e @ StoreError::Corrupt { .. }) => assert!(e.to_string().starts_with(want), "{e}"),
        other => panic!("to_layer_set: {other:?}"),
    }
    let layers = (0..snapshot.len())
        .map(|k| (*snapshot.layer_at(k).unwrap()).clone())
        .collect();
    let set = LayerSet::from_layers(snapshot.uri(), layers).unwrap();
    let mut out = Vec::new();
    let err = write_snapshot(&set, &mut out).unwrap_err();
    assert!(err.to_string().contains(want), "{err}");
}
