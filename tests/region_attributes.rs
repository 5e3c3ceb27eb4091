//! A region is stored once: a snapshot stores no `start`/`end`
//! attribute row that repeats its layer's region table, and a mounted
//! layer presents those attributes again from its entries.
//!
//! **Same bytes everywhere.** Every attribute reader — the attribute
//! axis, `string`/`data`, the fused `[@start = "…"]` filter, `name`,
//! `node-name`, `serialize`, result serialization, constructor copies,
//! document
//! order across `@*` of several elements — answers byte-identically
//! whether the layers were parsed, mounted from a snapshot, folded by
//! `WritableEngine::apply` from a mounted set, or compacted and mounted
//! again; `to_layer_set` followed by `try_serialize_document` gives the
//! parsed layer's markup. Run over generated attribute and element
//! layers and over an XMark 0.005 corpus.
//!
//! **Cases that stay stored**: non-canonical text (`"007"`, `" 7"`,
//! `"+7"`), `(end, start)` order, a region pair followed by another
//! attribute, an element skipped under `lenient`, and an
//! element-representation layer — each keeps its rows, as the mounted
//! layer's region-attribute counts and the attribute sections' sizes
//! show.
//!
//! **Serializer and copies**: a result mixing a deep element, an
//! attribute, a text node and a presenting `w` serializes as its items
//! do one by one, stored and presented region attributes copy alike,
//! and values that need escaping are escaped.
//!
//! **Robustness**: a damaged `ridx.entries` is refused as before, and a
//! resealed one whose regions moved reads the moved regions without
//! panicking.

use proptest::prelude::*;

use standoff::core::crc::crc32;
use standoff::core::StandoffConfig;
use standoff::store::{compact, write_snapshot, DeltaOp, DeltaSet, LayerSet, Snapshot};
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xml::{parse_document, try_serialize_document, SerializeOptions};
use standoff::xquery::{Engine, EngineOptions, WritableEngine};

const URI: &str = "mem://regions";

fn layer_set(uri: &str, layers: &[(&str, String, StandoffConfig)]) -> LayerSet {
    let (_, base, config) = &layers[0];
    let mut set = LayerSet::build(uri, parse_document(base).unwrap(), config.clone()).unwrap();
    for (name, xml, config) in &layers[1..] {
        set.add_layer(name, parse_document(xml).unwrap(), config.clone())
            .unwrap();
    }
    set
}

fn snapshot_bytes(set: &LayerSet) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot(set, &mut bytes).unwrap();
    bytes
}

fn mount(set: &LayerSet) -> Snapshot {
    Snapshot::mount_bytes(snapshot_bytes(set)).unwrap()
}

fn run_all(engine: &mut Engine, queries: &[String]) -> Vec<String> {
    let run = |q: &String| match engine.run(q) {
        Ok(result) => result.as_xml(),
        Err(e) => panic!("{q}: {e}"),
    };
    queries.iter().map(run).collect()
}

fn parsed(set: &LayerSet, queries: &[String]) -> Vec<String> {
    let mut engine = Engine::new();
    engine.mount_store(set.clone()).unwrap();
    run_all(&mut engine, queries)
}

fn mounted(snapshot: &Snapshot, queries: &[String]) -> Vec<String> {
    let mut engine = Engine::new();
    engine.mount_snapshot(snapshot).unwrap();
    run_all(&mut engine, queries)
}

fn folded(set: LayerSet, ops: &[DeltaOp], queries: &[String]) -> Vec<String> {
    let mut writer = WritableEngine::mount(set, EngineOptions::default()).unwrap();
    writer.apply(ops.iter().cloned()).unwrap();
    let mut session = writer.session();
    let run = |q: &String| session.run(q).unwrap().as_xml();
    queries.iter().map(run).collect()
}

fn markup(set: &LayerSet) -> Vec<String> {
    let serialize = |l: &standoff::store::Layer| {
        try_serialize_document(l.doc(), SerializeOptions::default()).unwrap()
    };
    set.layers().iter().map(serialize).collect()
}

/// `doc(…)` of a layer: the bare URI is the base.
fn doc(uri: &str, layer: &str) -> String {
    match layer {
        "base" => format!(r#"doc("{uri}")"#),
        _ => format!(r#"doc("{uri}#{layer}")"#),
    }
}

/// Every attribute reader over the `name` elements of `layer`; `probe`
/// is a start some of them carry.
fn queries(uri: &str, layer: &str, name: &str, probe: i64) -> Vec<String> {
    let d = doc(uri, layer);
    let e = format!("{d}//{name}");
    vec![
        format!("{e}/@*"),
        format!("{e}/@start"),
        format!("for $e in {e} return string($e/@end)"),
        format!("for $e in {e} return data($e/@start) + 1"),
        format!(r#"{e}[@start = "{probe}"]"#),
        format!(r#"{e}[@n = "1"]"#),
        format!("for $w in {e} return node-name($w/@end)"),
        format!("for $e in {e} return serialize($e)"),
        d.clone(),
        format!("for $e in {e} return <x>{{$e}}</x>"),
        format!("for $e in {e} return <y>{{$e/@*}}</y>"),
        format!("for $a in ({e}/@end | {e}/@*) return name($a)"),
        format!("for $a in (reverse({e}/@*))/. return string($a)"),
        format!("{e}/@*/.."),
        format!("count({e}/@*)"),
    ]
}

/// The property: parsed, mounted, folded from the mount and compacted
/// from the mount then mounted again all answer `queries` alike, and
/// the mounted layers serialize as the parsed ones do.
fn check(set: &LayerSet, ops: &[DeltaOp], queries: &[String]) {
    let expected = parsed(set, queries);
    let snapshot = mount(set);
    assert_eq!(mounted(&snapshot, queries), expected, "mounted");
    let from_mount = snapshot.to_layer_set().unwrap();
    assert_eq!(markup(&from_mount), markup(set), "to_layer_set");

    let expected = folded(set.clone(), ops, queries);
    assert_eq!(
        folded(from_mount.clone(), ops, queries),
        expected,
        "folded from the mount"
    );
    let mut delta = DeltaSet::new();
    delta.apply_all(ops.iter().cloned(), set).unwrap();
    let compacted = compact(&from_mount, &delta).unwrap();
    assert_eq!(
        markup(&compacted),
        markup(&compact(set, &delta).unwrap()),
        "compacted"
    );
    for layer in compacted.layers() {
        let touched = ops.iter().any(|op| match op {
            DeltaOp::Insert { layer: l, .. } | DeltaOp::Retract { layer: l, .. } => {
                l == layer.name()
            }
        });
        let table = layer.doc().attrs().unwrap();
        assert!(
            !touched || !table.presents_regions(),
            "a folded layer holds every row"
        );
    }
    assert_eq!(
        mounted(&mount(&compacted), queries),
        expected,
        "compacted and mounted again"
    );
}

/// `<root>` of `<name n start end/>` annotations, one per extent.
fn attribute_layer(root: &str, name: &str, extents: &[(i64, i64)]) -> String {
    let mut xml = format!("<{root}>");
    for (k, (s, e)) in extents.iter().enumerate() {
        xml.push_str(&format!(r#"<{name} n="{k}" start="{s}" end="{e}"/>"#));
    }
    xml.push_str(&format!("</{root}>"));
    xml
}

/// `<units>` of element-representation annotations.
fn units_layer(units: &[Vec<(i64, i64)>]) -> String {
    let mut xml = String::from("<units>");
    for (k, regions) in units.iter().enumerate() {
        xml.push_str(&format!(r#"<unit n="{k}" start="{k}">"#));
        let mut last_end = i64::MIN;
        let mut regions = regions.clone();
        regions.sort_unstable();
        for (s, e) in regions {
            if s > last_end.saturating_add(1) {
                xml.push_str(&format!(
                    "<region><start>{s}</start><end>{e}</end></region>"
                ));
                last_end = e;
            }
        }
        xml.push_str("</unit>");
    }
    xml.push_str("</units>");
    xml
}

fn insert(layer: &str, name: &str, (start, end): (i64, i64)) -> DeltaOp {
    DeltaOp::Insert {
        layer: layer.into(),
        name: name.into(),
        start,
        end,
        attrs: vec![("n".into(), "new".into())],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn region_attributes_read_alike_however_the_layer_was_reached(
        tokens in prop::collection::vec((-5i64..40, 0i64..6), 1..12),
        sections in prop::collection::vec((0i64..40, 0i64..20), 0..4),
        units in prop::collection::vec(prop::collection::vec((0i64..40, 0i64..4), 1..3), 1..4),
        new in (0i64..40, 0i64..6),
        retract in prop::option::of(0usize..12),
    ) {
        let span = |v: &[(i64, i64)]| -> Vec<(i64, i64)> {
            v.iter().map(|&(s, len)| (s, s + len)).collect()
        };
        let (tokens, sections) = (span(&tokens), span(&sections));
        let units: Vec<Vec<(i64, i64)>> = units.iter().map(|u| span(u)).collect();
        let attrs = StandoffConfig::default;
        let set = layer_set(URI, &[
            ("base", attribute_layer("doc", "sec", &sections), attrs()),
            ("tokens", attribute_layer("tokens", "w", &tokens), attrs()),
            ("units", units_layer(&units), StandoffConfig::element_repr()),
        ]);
        let mut candidates = vec![insert("tokens", "w", (new.0, new.0 + new.1))];
        if let Some(k) = retract {
            let (start, end) = tokens[k % tokens.len()];
            candidates.push(DeltaOp::Retract { layer: "tokens".into(), name: "w".into(), start, end });
        }
        // What the delta refuses (a retract of an ambiguous region) is
        // not sent.
        let mut delta = DeltaSet::new();
        let ops: Vec<DeltaOp> = (candidates.into_iter())
            .filter(|op| delta.apply(op.clone(), &set).is_ok())
            .collect();
        let mut all = queries(URI, "tokens", "w", tokens[0].0);
        all.extend(queries(URI, "base", "sec", sections.first().map_or(0, |s| s.0)));
        all.extend(queries(URI, "units", "unit", 0));
        check(&set, &ops, &all);
    }
}

#[test]
fn an_xmark_corpus_reads_alike_however_it_was_reached() {
    let so = standoffify(&generate(&XmarkConfig::with_scale(0.005)), 7);
    let mut tokens = String::from("<tokens>");
    let mut start = None;
    for (i, b) in so.blob.bytes().chain([b' ']).enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                let n = i % 7;
                tokens.push_str(&format!(r#"<w n="{n}" start="{s}" end="{}"/>"#, i - 1));
                start = None;
            }
            _ => {}
        }
    }
    tokens.push_str("</tokens>");
    let config = StandoffConfig::default;
    let mut set = LayerSet::build("xmark", so.doc, config()).unwrap();
    set.add_layer("tokens", parse_document(&tokens).unwrap(), config())
        .unwrap();
    let tokens = mount(&set).layer("tokens").unwrap();
    let [presented, stored] = tokens.region_attribute_counts().unwrap();
    assert_eq!(presented, 2 * set.layers()[1].annotation_count() as u64);
    assert_eq!(stored, 0);
    let mut all = queries("xmark", "tokens", "w", 0);
    all.extend(queries("xmark", "base", "person", 0));
    all.extend(queries("xmark", "base", "item", 0));
    all.push(r#"doc("xmark")//person[@id = "person0"]"#.into());
    check(&set, &[insert("tokens", "w", (3, 9))], &all);
}

/// The one `<w>` of a layer built from `w`'s markup: the mounted layer's
/// `(presented, stored)` region attributes and the `doc.attr-owner`
/// section's size once written.
fn stored(w: &str, config: StandoffConfig) -> ([u64; 2], u64) {
    let set = layer_set(
        URI,
        &[
            ("base", "<text/>".into(), StandoffConfig::default()),
            ("tokens", format!("<tokens>{w}</tokens>"), config),
        ],
    );
    let snapshot = mount(&set);
    let info = snapshot.info();
    let layer = &info.layers[1];
    let owner = layer.sections.iter().find(|s| s.name == "doc.attr-owner");
    let queries = [format!("{}/*", doc(URI, "tokens"))];
    assert_eq!(mounted(&snapshot, &queries), parsed(&set, &queries), "{w}");
    let counts = snapshot.layer("tokens").unwrap().region_attribute_counts();
    (counts.unwrap(), owner.unwrap().bytes)
}

#[test]
fn only_a_canonical_trailing_pair_is_dropped() {
    let attrs = StandoffConfig::default;
    // Dropped: the pair is the element's last two rows, canonical.
    assert_eq!(stored(r#"<w start="7" end="9"/>"#, attrs()), ([2, 0], 0));
    assert_eq!(
        stored(r#"<w n="a" start="-7" end="9"/>"#, attrs()),
        ([2, 0], 4)
    );
    // Kept: text that is not the canonical decimal.
    for text in ["007", " 7", "+7", "7 "] {
        let w = format!(r#"<w start="{text}" end="9"/>"#);
        assert_eq!(stored(&w, attrs()), ([0, 2], 8), "{w}");
    }
    // Kept: `(end, start)` order, and a pair followed by another row.
    assert_eq!(stored(r#"<w end="9" start="7"/>"#, attrs()), ([0, 2], 8));
    assert_eq!(
        stored(r#"<w start="7" end="9" n="a"/>"#, attrs()),
        ([0, 2], 12)
    );
    // Kept: an element `lenient` skips, and an element-representation
    // layer's attributes of the same names.
    let lenient = StandoffConfig {
        lenient: true,
        ..attrs()
    };
    assert_eq!(stored(r#"<w start="x" end="9"/>"#, lenient), ([0, 2], 8));
    let w = r#"<w start="7" end="9"><region><start>7</start><end>9</end></region></w>"#;
    assert_eq!(stored(w, StandoffConfig::element_repr()), ([0, 0], 8));
    // Custom names are what the configuration says.
    let custom = StandoffConfig {
        start_name: "from".into(),
        end_name: "to".into(),
        ..attrs()
    };
    assert_eq!(
        stored(r#"<w start="7" from="1" to="2"/>"#, custom),
        ([2, 0], 4)
    );
}

/// The byte range of the section `(tag, layer)` of a snapshot, read off
/// its section table: `(u32 tag | u32 layer | u64 offset | u64 length)`
/// entries after a 16-byte header.
fn section(bytes: &[u8], tag: u32, layer: u32) -> std::ops::Range<usize> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let word = |e: &[u8]| u64::from_le_bytes(e.try_into().unwrap()) as usize;
    (0..count)
        .map(|k| &bytes[16 + 24 * k..16 + 24 * (k + 1)])
        .find(|e| e[0..4] == tag.to_le_bytes() && e[4..8] == layer.to_le_bytes())
        .map(|e| word(&e[8..16])..word(&e[8..16]) + word(&e[16..24]))
        .unwrap()
}

/// The tag of `layer`'s section `name`.
fn tag(bytes: &[u8], layer: u32, name: &str) -> u32 {
    let info = Snapshot::mount_bytes(bytes.to_vec()).unwrap().info();
    let sections = &info.layers[layer as usize].sections;
    sections.iter().find(|s| s.name == name).unwrap().tag
}

/// The checksum table's tag.
const CHECKSUMS: u32 = 40;

/// Rewrite the recorded checksum of `(tag, layer)` to match its bytes:
/// a hostile file that passes every checksum.
fn reseal(bytes: &mut [u8], tag: u32, layer: u32) {
    let crc = crc32(&bytes[section(bytes, tag, layer)]);
    let table = section(bytes, CHECKSUMS, 0);
    let k = (bytes[table.clone()].chunks_exact(12))
        .position(|e| e[0..4] == tag.to_le_bytes() && e[4..8] == layer.to_le_bytes())
        .unwrap();
    let at = table.start + 12 * k + 8;
    bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

fn tokens_set() -> LayerSet {
    layer_set(
        URI,
        &[
            (
                "base",
                "<text>Alice met Bob</text>".into(),
                StandoffConfig::default(),
            ),
            (
                "tokens",
                attribute_layer("tokens", "w", &[(0, 4), (6, 8), (10, 12)]),
                StandoffConfig::default(),
            ),
        ],
    )
}

#[test]
fn a_damaged_region_table_is_refused_and_a_resealed_one_reads_what_it_says() {
    let good = snapshot_bytes(&tokens_set());
    let entries_tag = tag(&good, 1, "ridx.entries");
    let entries = section(&good, entries_tag, 1);
    let query = [format!("{}//w/@*", doc(URI, "tokens"))];

    // A flipped byte: refused with the section's checksum error, on the
    // first read of the layer, as before.
    let mut flipped = good.clone();
    flipped[entries.start + 8] ^= 0x01;
    let snapshot = Snapshot::mount_bytes(flipped).unwrap();
    let mut engine = Engine::new();
    engine.mount_snapshot(&snapshot).unwrap();
    let err = engine.run(&query[0]).unwrap_err().to_string();
    assert!(
        err.contains("section ridx.entries (layer tokens)") && err.contains("checksum mismatch"),
        "{err}"
    );

    // Resealed: the last entry's end moved from 12 to 13, still sorted.
    // The presented `end` is the entry's; nothing panics, and `verify`
    // still accepts a file whose one copy of the region is consistent.
    let mut moved = good.clone();
    let last = entries.end - 24;
    moved[last + 8..last + 16].copy_from_slice(&13i64.to_le_bytes());
    reseal(&mut moved, entries_tag, 1);
    let snapshot = Snapshot::mount_bytes(moved).unwrap();
    assert_eq!(
        mounted(&snapshot, &query),
        [r#"n="0" start="0" end="4" n="1" start="6" end="8" n="2" start="10" end="13""#]
    );
    snapshot.verify().unwrap();

    // Resealed so that an entry names a text node: refused as before.
    let mut text = good;
    text[entries.start + 16..entries.start + 20].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut text, entries_tag, 1);
    let snapshot = Snapshot::mount_bytes(text).unwrap();
    let err = snapshot.layer("tokens").unwrap_err().to_string();
    assert!(
        err.contains("non-element") || err.contains("clustered"),
        "{err}"
    );
}

/// One writer serializes a whole result, reusing its end-tag stack: a
/// deep element, an attribute node, a text node and an element that
/// presents its region, in that order, read as the concatenation of
/// each item serialized alone. A copy `<x>{$w}</x>` keeps a stored
/// non-canonical `start="007"` beside a presented region, and values
/// holding `<`, `&` and `"` come out escaped — parsed or mounted.
#[test]
fn a_result_serializes_as_its_items_do_and_copies_keep_every_attribute() {
    let set = layer_set(
        URI,
        &[
            (
                "base",
                "<doc><sec><p><q>deep<r/></q></p>tail</sec><sec/></doc>".into(),
                StandoffConfig::default(),
            ),
            (
                "tokens",
                concat!(
                    r#"<tokens><w n="a" start="007" end="9"/>"#,
                    r#"<w n="&lt;&amp;&quot;" start="10" end="12"/></tokens>"#
                )
                .into(),
                StandoffConfig::default(),
            ),
        ],
    );
    let (base, tokens) = (doc(URI, "base"), doc(URI, "tokens"));
    let items = format!(
        "({base}//q, ({tokens}//w)[1]/@n, ({base}//sec)[1]/text(), ({tokens}//w)[2], {base}//r)"
    );
    let queries = [
        items.clone(),
        format!("for $i in {items} return serialize($i)"),
        format!("for $w in {tokens}//w return <x>{{$w}}</x>"),
        format!("for $w in {tokens}//w return <x>{{$w/@*}}</x>"),
    ];
    let snapshot = mount(&set);
    for answers in [parsed(&set, &queries), mounted(&snapshot, &queries)] {
        let mut engine = Engine::new();
        engine.mount_snapshot(&snapshot).unwrap();
        let one_by_one = engine.run(&queries[1]).unwrap().as_strings().concat();
        assert_eq!(answers[0], one_by_one);
        assert_eq!(
            answers[0],
            concat!(
                "<q>deep<r/></q>",
                r#"n="a""#,
                "tail",
                r#"<w n="&lt;&amp;&quot;" start="10" end="12"/>"#,
                "<r/>"
            )
        );
        assert_eq!(
            answers[2],
            concat!(
                r#"<x><w n="a" start="007" end="9"/></x>"#,
                r#"<x><w n="&lt;&amp;&quot;" start="10" end="12"/></x>"#
            )
        );
        assert_eq!(
            answers[3],
            concat!(
                r#"<x n="a" start="007" end="9"/>"#,
                r#"<x n="&lt;&amp;&quot;" start="10" end="12"/>"#
            )
        );
    }
    let tokens = snapshot.layer("tokens").unwrap();
    assert_eq!(tokens.region_attribute_counts().unwrap(), [2, 2]);
}
