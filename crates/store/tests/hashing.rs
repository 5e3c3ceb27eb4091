//! A mounted snapshot hashes each section once: whichever of open, a
//! layer's catalog, materialization, a first read of a layer's tree
//! columns or attribute table, or `verify`
//! reaches a section first checks its CRC32, and nothing hashes it
//! again. Counted through the
//! process-global `store.verify.bytes_hashed`, which is why this file
//! holds a single test: no other test in the binary mounts anything.

use standoff_core::{MetricsRegistry, StandoffConfig};
use standoff_store::{write_snapshot, LayerSet, Snapshot};
use standoff_xml::parse_document;

/// Bytes per checksum-table entry in the snapshot format: a section's
/// tag, its layer and its CRC32, one `u32` each.
const CHECKSUM_ENTRY_BYTES: u64 = 12;

fn hashed() -> u64 {
    MetricsRegistry::global()
        .counter("store.verify.bytes_hashed")
        .get()
}

fn bytes() -> Vec<u8> {
    let base = parse_document(r#"<doc><seg start="0" end="19"/>état et cætera</doc>"#).unwrap();
    let mut set = LayerSet::build("corpus", base, StandoffConfig::default()).unwrap();
    let tokens = r#"<toks><w n="1" start="0" end="4"/><w n="2" start="5" end="9"/></toks>"#;
    set.add_layer(
        "tokens",
        parse_document(tokens).unwrap(),
        Default::default(),
    )
    .unwrap();
    let entities = r#"<ents><person start="0" end="9"/></ents>"#;
    set.add_layer(
        "entities",
        parse_document(entities).unwrap(),
        Default::default(),
    )
    .unwrap();
    let mut buf = Vec::new();
    write_snapshot(&set, &mut buf).unwrap();
    buf
}

/// Bytes of layer `k`'s sections named in `names` (all when `None`).
fn section_bytes(snapshot: &Snapshot, k: usize, names: Option<&[&str]>) -> u64 {
    snapshot.info().layers[k]
        .sections
        .iter()
        .filter(|s| names.is_none_or(|names| names.contains(&s.name)))
        .map(|s| s.bytes)
        .sum()
}

#[test]
fn each_section_is_hashed_once_per_mount() {
    let buf = bytes();
    let header = Some(&["layer.header"][..]);
    let catalog = Some(&["doc.meta", "doc.elem-names", "doc.elem-offsets"][..]);
    let tree = Some(
        &[
            "doc.size",
            "doc.level",
            "doc.parent",
            "doc.value-heap",
            "doc.value-offsets",
        ][..],
    );
    let attrs = Some(
        &[
            "doc.attr-first",
            "doc.attr-owner",
            "doc.attr-name",
            "doc.attr-value-heap",
            "doc.attr-value-offsets",
        ][..],
    );

    // `verify` on a fresh mount: every payload byte once — all of it but
    // the checksum table itself and what open already hashed (the
    // META section and the layer headers).
    let before = hashed();
    let snapshot = Snapshot::mount_bytes(buf.clone()).unwrap();
    let opened = hashed() - before;
    let info = snapshot.info();
    // The META section, then every section of every layer.
    let sections = 1 + info.layers.iter().map(|l| l.sections.len()).sum::<usize>();
    let headers: u64 = (0..3).map(|k| section_bytes(&snapshot, k, header)).sum();
    let layers: u64 = (0..3).map(|k| section_bytes(&snapshot, k, None)).sum();
    let checksums = CHECKSUM_ENTRY_BYTES * sections as u64;
    let meta = info.payload_bytes - checksums - layers;
    assert_eq!(opened, meta + headers);
    let before = hashed();
    let report = snapshot.verify().unwrap();
    assert_eq!(hashed() - before, layers - headers);
    assert_eq!(report.sections_checked, sections);
    // A second verify checks the same sections and hashes nothing.
    let before = hashed();
    assert_eq!(
        snapshot.verify().unwrap().sections_checked,
        report.sections_checked
    );
    assert_eq!(hashed(), before);

    // A query's path through a fresh mount: every layer's catalog, then
    // two layers materialized — their sections hashed exactly once, the
    // catalog sections included and the tree columns' and attribute
    // table's left for their first read; the third layer only for its
    // catalog.
    let snapshot = Snapshot::mount_bytes(buf).unwrap();
    let before = hashed();
    for k in 0..3 {
        snapshot.catalog(k).unwrap();
    }
    let catalogs: u64 = (0..3).map(|k| section_bytes(&snapshot, k, catalog)).sum();
    assert_eq!(hashed() - before, catalogs);
    snapshot.layer_at(0).unwrap();
    snapshot.layer("tokens").unwrap();
    let reached: u64 = (0..2)
        .map(|k| {
            section_bytes(&snapshot, k, None)
                - section_bytes(&snapshot, k, header)
                - section_bytes(&snapshot, k, tree)
                - section_bytes(&snapshot, k, attrs)
        })
        .sum();
    let reached_catalogs: u64 = (0..2).map(|k| section_bytes(&snapshot, k, catalog)).sum();
    assert_eq!(hashed() - before, catalogs + reached - reached_catalogs);
    // The first read of the tokens layer's attributes hashes its
    // attribute table; a second hashes nothing.
    let before = hashed();
    let tokens = snapshot.layer("tokens").unwrap();
    tokens.doc().attrs().map(drop).unwrap();
    tokens.doc().attrs().map(drop).unwrap();
    assert_eq!(hashed() - before, section_bytes(&snapshot, 1, attrs));
    // Likewise its tree columns.
    let before = hashed();
    tokens.doc().tree().map(drop).unwrap();
    tokens.doc().tree().map(drop).unwrap();
    assert_eq!(hashed() - before, section_bytes(&snapshot, 1, tree));
    // Verifying afterwards hashes only what is left: the third layer
    // and the base layer's tree columns and attribute table.
    let before = hashed();
    snapshot.verify().unwrap();
    let third = section_bytes(&snapshot, 2, None)
        - section_bytes(&snapshot, 2, header)
        - section_bytes(&snapshot, 2, catalog);
    assert_eq!(
        hashed() - before,
        third + section_bytes(&snapshot, 0, tree) + section_bytes(&snapshot, 0, attrs)
    );
}
