//! SOSN columnar mount semantics: lazy layer materialization, zero-copy
//! column views, and a corrupted-snapshot sweep (hard errors, no
//! panics, no silent misreads). Every section carries a CRC32, so the
//! sweep here also proves the detection guarantee: a flipped payload
//! byte cannot survive materialization.

use std::path::PathBuf;

use standoff_core::StandoffConfig;
use standoff_store::{save_snapshot, write_snapshot, LayerSet, Snapshot, StoreError};
use standoff_xml::{parse_document, RegionAttrs};

/// A scratch file path unique to this test process and `tag`.
fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("standoff-v3-mount-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(tag)
}

/// What opening (and then deep-verifying) a snapshot comes to, as text:
/// the error in full, or `"ok"`. Two open paths over the same bytes must
/// produce the same string.
fn outcome(opened: Result<Snapshot, StoreError>) -> String {
    match opened.and_then(|snapshot| snapshot.verify().map(|_| snapshot)) {
        Ok(snapshot) => {
            let _ = snapshot.info();
            "ok".to_string()
        }
        Err(e) => format!("{e:?}"),
    }
}

fn sample_set() -> LayerSet {
    let base =
        parse_document(r#"<doc><seg start="0" end="19"/><seg start="20" end="39"/>état</doc>"#)
            .unwrap();
    let tokens = parse_document(
        r#"<toks><w start="0" end="4"/><w start="5" end="9"/><w start="21" end="27"/></toks>"#,
    )
    .unwrap();
    let entities = parse_document(r#"<ents><person start="0" end="9"/></ents>"#).unwrap();
    let mut set = LayerSet::build("corpus.xml", base, StandoffConfig::default()).unwrap();
    set.add_layer("tokens", tokens, StandoffConfig::default())
        .unwrap();
    set.add_layer("entities", entities, StandoffConfig::default())
        .unwrap();
    set
}

fn v3_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(&sample_set(), &mut buf).unwrap();
    buf
}

/// Parse the v3 section table: `(tag, layer, table_entry_offset, off, len)`.
fn table_of(buf: &[u8]) -> Vec<(u32, u32, usize, u64, u64)> {
    let count = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|k| {
            let at = 16 + 24 * k;
            (
                u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()),
                u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap()),
                at,
                u64::from_le_bytes(buf[at + 8..at + 16].try_into().unwrap()),
                u64::from_le_bytes(buf[at + 16..at + 24].try_into().unwrap()),
            )
        })
        .collect()
}

/// What opening a snapshot and then materializing each of its layers
/// through [`Snapshot::layer_at`] and reading its tree columns and its
/// attributes — the lazy path a query that reads them takes — comes to,
/// as text: the first error in full, or `"ok"`.
fn lazy_outcome(opened: Result<Snapshot, StoreError>) -> String {
    let read = |layer: std::sync::Arc<standoff_store::Layer>| {
        layer.doc().verify().map_err(StoreError::from)
    };
    let layers = |snapshot: Snapshot| {
        (0..snapshot.len()).try_for_each(|k| snapshot.layer_at(k).and_then(read))
    };
    match opened.and_then(layers) {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// Opening, materializing or first reading the tampered bytes must fail
/// — never panic, never silently succeed.
fn assert_rejected(bytes: Vec<u8>, what: &str) {
    match Snapshot::mount_bytes(bytes) {
        Err(_) => {}
        Ok(snapshot) => {
            let all: Result<Vec<_>, _> = (0..snapshot.len())
                .map(|k| {
                    let layer = snapshot.layer_at(k)?;
                    layer.doc().verify().map_err(StoreError::from)
                })
                .collect();
            assert!(all.is_err(), "{what}: tampering must be rejected");
        }
    }
}

#[test]
fn open_is_lazy_and_layer_access_materializes_one() {
    let snapshot = Snapshot::mount_bytes(v3_bytes()).unwrap();
    assert_eq!(snapshot.version(), 6);
    assert_eq!(snapshot.uri(), "corpus.xml");
    assert_eq!(
        snapshot.layer_names().collect::<Vec<_>>(),
        ["base", "tokens", "entities"]
    );
    // Opening walked only the header: nothing is materialized.
    for k in 0..3 {
        assert!(!snapshot.is_materialized(k), "open must not decode layers");
    }
    // `info` (what `standoff-xq inspect` prints) still reports counts —
    // they live in the layer headers, not the payloads.
    let info = snapshot.info();
    assert_eq!(info.layers[1].annotations, 3);
    assert_eq!(info.layers[2].annotations, 1);
    for k in 0..3 {
        assert!(!snapshot.is_materialized(k), "info must not materialize");
    }
    // First access realizes exactly the touched layer.
    let tokens = snapshot.layer("tokens").unwrap();
    assert_eq!(tokens.annotation_count(), 3);
    assert!(snapshot.is_materialized(1));
    assert!(!snapshot.is_materialized(0) && !snapshot.is_materialized(2));
    // Repeated access shares the cached layer.
    let again = snapshot.layer("tokens").unwrap();
    assert!(std::sync::Arc::ptr_eq(&tokens, &again));
}

#[test]
#[cfg(target_endian = "little")]
fn materialized_layers_are_zero_copy_views() {
    let snapshot = Snapshot::mount_bytes(v3_bytes()).unwrap();
    let base = snapshot.layer("base").unwrap();
    assert!(
        base.doc().is_mounted(),
        "v3 mount must back document columns with buffer views"
    );
    assert!(
        base.index().is_mounted(),
        "v3 mount must back index columns with buffer views"
    );
    // And the mounted data reads back correctly — the attribute table
    // once it is verified.
    // pre: 0=document 1=<doc> 2=<seg> 3=<seg> 4=text "état"
    assert_eq!(base.doc().elements_named("seg").len(), 2);
    base.doc().verify().unwrap();
    assert_eq!(
        base.doc().attribute(2, "end").unwrap().as_deref(),
        Some("19")
    );
    assert_eq!(
        base.doc()
            .string_value(standoff_xml::NodeId::tree(4))
            .unwrap(),
        "état"
    );
    assert_eq!(base.index().annotated_nodes(), &[2, 3]);
}

// ---- corruption sweep ----

#[test]
fn truncated_section_table_rejected() {
    let buf = v3_bytes();
    // Cut mid-table.
    assert_rejected(buf[..20].to_vec(), "mid-table cut");
    // Section count claiming more entries than the file holds.
    let mut huge = buf.clone();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected(huge, "hostile section count");
}

#[test]
fn section_outside_file_rejected() {
    let buf = v3_bytes();
    let table = table_of(&buf);
    // Push one section's offset past EOF.
    let (_, _, at, _, _) = table[3];
    let mut bad = buf.clone();
    bad[at + 8..at + 16].copy_from_slice(&(buf.len() as u64).to_le_bytes());
    assert_rejected(bad, "offset past EOF");
    // Length overflowing u64.
    let mut bad = buf.clone();
    bad[at + 16..at + 24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_rejected(bad, "overflowing length");
}

#[test]
fn overlapping_sections_rejected() {
    let buf = v3_bytes();
    let table = table_of(&buf);
    // Alias section 3 onto section 2's byte range.
    let (_, _, _, off2, len2) = table[2];
    assert!(len2 > 0);
    let (_, _, at3, _, _) = table[3];
    let mut bad = buf.clone();
    bad[at3 + 8..at3 + 16].copy_from_slice(&off2.to_le_bytes());
    bad[at3 + 16..at3 + 24].copy_from_slice(&len2.to_le_bytes());
    assert_rejected(bad, "aliased sections");
}

#[test]
fn misaligned_column_offsets_rejected() {
    let buf = v3_bytes();
    const SEC_DOC_SIZE: u32 = 12;
    let (_, _, at, off, len) = *table_of(&buf)
        .iter()
        .find(|&&(tag, layer, ..)| tag == SEC_DOC_SIZE && layer == 0)
        .unwrap();
    // Shift the size column one byte into neighboring padding: the view
    // either collides with a sibling section or decodes values that
    // violate the structural invariants.
    let mut shifted = buf.clone();
    shifted[at + 8..at + 16].copy_from_slice(&(off + 1).to_le_bytes());
    assert_rejected(shifted, "shifted column");
    // A ragged byte length (not a whole number of u32s) is a hard error.
    let mut ragged = buf.clone();
    ragged[at + 16..at + 24].copy_from_slice(&(len - 1).to_le_bytes());
    assert_rejected(ragged, "ragged column length");
}

#[test]
fn out_of_range_string_slots_rejected() {
    let buf = v3_bytes();
    const SEC_DOC_VAL_OFF: u32 = 17;
    let (_, _, _, off, len) = *table_of(&buf)
        .iter()
        .find(|&&(tag, layer, ..)| tag == SEC_DOC_VAL_OFF && layer == 0)
        .unwrap();
    // Point the final slot boundary far past the heap.
    let last = (off + len) as usize - 4;
    let mut bad = buf.clone();
    bad[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected(bad, "slot past heap");
    // Non-monotone offsets.
    let first = off as usize;
    let mut bad = buf.clone();
    bad[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected(bad, "non-monotone slots");
}

#[test]
fn single_byte_corruption_never_panics_and_is_always_detected() {
    let buf = v3_bytes();
    // Classify every byte: semantic (header fields, table entries,
    // section payloads — a flip there MUST be detected) vs inert (the
    // reserved header word and alignment padding — a flip there must at
    // worst be harmless; the checksums do not cover gap bytes).
    let mut semantic = vec![false; buf.len()];
    for b in semantic.iter_mut().take(12) {
        *b = true; // magic, version, section count
    }
    let table = table_of(&buf);
    for &(_, _, at, off, len) in &table {
        for b in semantic.iter_mut().skip(at).take(24) {
            *b = true; // the table entry itself
        }
        if len == 0 {
            // The offset of an empty section is meaningless (its CRC is
            // the empty CRC wherever it points): a flip there that
            // stays in-bounds is undetectable and harmless.
            for b in semantic.iter_mut().skip(at + 8).take(8) {
                *b = false;
            }
        }
        for b in semantic.iter_mut().skip(off as usize).take(len as usize) {
            *b = true; // the section payload
        }
    }
    // The checksummed payload bytes, by the name of their section: a
    // flip there is that section's checksum mismatch before anything
    // else is checked.
    let info = Snapshot::mount_bytes(buf.clone()).unwrap().info();
    let mut payload: Vec<Option<&str>> = vec![None; buf.len()];
    for &(tag, layer, _, off, len) in &table {
        let name = match tag {
            1 => Some("meta"),
            40 => None,
            _ => info.layers[layer as usize]
                .sections
                .iter()
                .find(|s| s.tag == tag)
                .map(|s| s.name),
        };
        payload[off as usize..(off + len) as usize].fill(name);
    }
    let path = temp_file("flip-sweep.snap");
    for k in 0..buf.len() {
        let mut mutated = buf.clone();
        mutated[k] ^= 0xff;
        // Detection: open fails, or the deep verify (checksums + full
        // materialization) fails, or materializing every layer the way
        // a query does fails. Never a panic either way — and the
        // file-backed open categorizes every flip exactly as the
        // in-memory one does.
        std::fs::write(&path, &mutated).unwrap();
        let from_file = outcome(Snapshot::open(&path));
        let lazy_from_file = lazy_outcome(Snapshot::open(&path));
        let lazy_from_bytes = lazy_outcome(Snapshot::mount_bytes(mutated.clone()));
        let from_bytes = outcome(Snapshot::mount_bytes(mutated));
        assert_eq!(from_file, from_bytes, "flip of byte {k}");
        assert_eq!(lazy_from_file, lazy_from_bytes, "flip of byte {k}, lazily");
        if semantic[k] {
            assert_ne!(
                from_bytes, "ok",
                "flip of semantic byte {k} must be detected"
            );
        }
        if let Some(name) = payload[k] {
            for seen in [&from_bytes, &lazy_from_bytes] {
                assert!(
                    seen.starts_with(&format!("Corrupt {{ section: \"section {name}"))
                        && seen.contains("checksum mismatch"),
                    "flip of byte {k} in section {name}: {seen}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Files too short to hold a header or their own section table fail the
/// same way whether they are opened by path or handed over as bytes —
/// in particular the empty file, which cannot be mapped at all.
#[test]
fn truncated_files_fail_like_truncated_bytes() {
    let buf = v3_bytes();
    let table_end = 16 + 24 * table_of(&buf).len();
    let path = temp_file("truncated.snap");
    for cut in [0, 7, 8, 15, 16, table_end - 1, table_end, buf.len() - 1] {
        std::fs::write(&path, &buf[..cut]).unwrap();
        let from_file = outcome(Snapshot::open(&path));
        assert_ne!(from_file, "ok", "cut at {cut}");
        assert_eq!(
            from_file,
            outcome(Snapshot::mount_bytes(buf[..cut].to_vec())),
            "cut at {cut}"
        );
    }
    for (cut, needle) in [(0, "truncated header"), (7, "truncated header")] {
        std::fs::write(&path, &buf[..cut]).unwrap();
        let err = Snapshot::open(&path).unwrap_err().to_string();
        assert!(err.contains(needle), "cut at {cut}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Readers map, writers rename: a snapshot opened from a path keeps
/// answering from the file it opened — layers it had not even
/// materialized yet included — after `save_snapshot` replaces that
/// path, and the next `open` sees the replacement.
#[test]
fn opened_snapshot_outlives_the_replacement_of_its_path() {
    let path = temp_file("replaced.snap");
    let before = sample_set();
    save_snapshot(&before, &path).unwrap();
    let old = Snapshot::open(&path).unwrap();
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert_eq!(old.backing(), "mmap");
    let old_base = old.layer("base").unwrap();

    let mut after = LayerSet::build(
        "corpus.xml",
        parse_document(r#"<doc><seg start="0" end="3"/>new</doc>"#).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    after
        .add_layer(
            "tokens",
            parse_document(r#"<toks><w start="1" end="2"/></toks>"#).unwrap(),
            StandoffConfig::default(),
        )
        .unwrap();
    save_snapshot(&after, &path).unwrap();

    // Already materialized, materialized only now, and deep-verified:
    // all still the old file.
    assert_eq!(old_base.doc().elements_named("seg").len(), 2);
    let old_tokens = old.layer("tokens").unwrap();
    assert_eq!(old_tokens.doc().elements_named("w").len(), 3);
    assert_eq!(old_tokens.index().annotated_nodes().len(), 3);
    assert_eq!(old.verify().unwrap().layers, 3);

    let new = Snapshot::open(&path).unwrap();
    assert_eq!(new.len(), 2);
    assert_eq!(
        new.layer("tokens").unwrap().doc().elements_named("w").len(),
        1
    );
    assert_eq!(Snapshot::mount_bytes(v3_bytes()).unwrap().backing(), "heap");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn payload_flip_is_corrupt_at_materialization_open_stays_lazy() {
    let buf = v3_bytes();
    // Flip one byte inside the tokens layer's kind column: a bulk
    // payload the open path must not hash.
    const SEC_DOC_KIND: u32 = 11;
    let (_, _, _, off, len) = *table_of(&buf)
        .iter()
        .find(|&&(tag, layer, ..)| tag == SEC_DOC_KIND && layer == 1)
        .unwrap();
    assert!(len > 0);
    let mut mutated = buf.clone();
    mutated[off as usize] ^= 0xff;
    // Opening succeeds — checksums of untouched-at-open sections are
    // deferred — and nothing is materialized.
    let snapshot = Snapshot::mount_bytes(mutated).expect("lazy open must not hash bulk columns");
    assert!(!snapshot.is_materialized(1));
    // Sibling layers are unaffected.
    snapshot.layer("base").expect("clean sibling materializes");
    // The damaged layer is a categorized corruption error, not a panic.
    match snapshot.layer("tokens") {
        Err(StoreError::Corrupt { section, detail }) => {
            assert!(section.contains("doc.kind"), "section: {section}");
            assert!(detail.contains("checksum mismatch"), "detail: {detail}");
        }
        Err(other) => panic!("expected StoreError::Corrupt, got {other}"),
        Ok(_) => panic!("corrupted layer must not materialize"),
    }
}

/// The snapshot writer's column dump before it staged elements through a
/// block: one `write_le` per element, straight into the sink.
fn old_loop<T: standoff_xml::column::Pod>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        v.write_le(&mut out).unwrap();
    }
    out
}

#[test]
fn block_written_snapshot_is_byte_identical_to_the_per_element_writer() {
    // The sample set plus a layer whose columns span several staging
    // blocks (1 000 entries × 24 B ≈ 3 blocks).
    let mut set = sample_set();
    let mut xml = String::from("<toks>");
    for i in 0..1000 {
        xml.push_str(&format!(
            r#"<w n="{i}" start="{}" end="{}"/>"#,
            3 * i,
            3 * i + 2
        ));
    }
    xml.push_str("</toks>");
    set.add_layer(
        "many",
        parse_document(&xml).unwrap(),
        StandoffConfig::default(),
    )
    .unwrap();
    let mut buf = Vec::new();
    write_snapshot(&set, &mut buf).unwrap();

    // Re-encode every pod column with the old loop into a copy of the
    // file, and every column's checksum-table entry from those bytes.
    let mut copy = buf.clone();
    let table = table_of(&buf);
    let (_, _, _, sums_off, sums_len) = *table.iter().find(|s| s.0 == 40).expect("checksums");
    let mut columns = 0;
    for (k, layer) in set.layers().iter().enumerate() {
        let mut doc = layer.doc().storage().unwrap();
        let idx = layer.index().storage();
        // The writer stores no region attribute row the region table
        // holds: every element here carries a canonical trailing
        // `start`/`end` pair, so the expected table keeps no row of
        // either name.
        let names = layer.doc().names();
        let regions = RegionAttrs {
            source: layer.index_arc(),
            start: names.get("start").unwrap(),
            end: names.get("end").unwrap(),
        };
        let dropped = layer
            .doc()
            .attrs()
            .unwrap()
            .without_region_rows(&regions)
            .expect("region rows to drop");
        (
            doc.attr_first,
            doc.attr_owner,
            doc.attr_name,
            doc.attr_values,
        ) = dropped.columns();
        assert!(
            !(doc.attr_name.iter()).any(|&n| n == regions.start.0 || n == regions.end.0),
            "layer {k} keeps a region row"
        );
        for &(tag, _, _, off, len) in table.iter().filter(|s| s.1 == k as u32) {
            let bytes = match tag {
                12 => old_loop(doc.size),
                13 => old_loop(doc.level),
                14 => old_loop(doc.parent),
                15 => old_loop(doc.name),
                17 => old_loop(doc.values.offsets()),
                18 => old_loop(doc.attr_first),
                19 => old_loop(doc.attr_owner),
                20 => old_loop(doc.attr_name),
                22 => old_loop(doc.attr_values.offsets()),
                23 => old_loop(&doc.elem.names),
                24 => old_loop(&doc.elem.offsets),
                25 => old_loop(&doc.elem.pres),
                31 => old_loop(idx.entries),
                _ => continue, // rendered metadata and raw byte heaps
            };
            assert_eq!(bytes.len() as u64, len, "section {tag} of layer {k}");
            copy[off as usize..(off + len) as usize].copy_from_slice(&bytes);
            let entry = (0..sums_len as usize / 12)
                .map(|e| sums_off as usize + 12 * e)
                .find(|&at| {
                    copy[at..at + 4] == tag.to_le_bytes()
                        && copy[at + 4..at + 8] == (k as u32).to_le_bytes()
                })
                .expect("checksum entry");
            copy[entry + 8..entry + 12]
                .copy_from_slice(&standoff_core::crc32(&bytes).to_le_bytes());
            columns += 1;
        }
    }
    assert_eq!(columns, 13 * set.len());
    assert!(
        copy == buf,
        "block-staged bytes differ from the per-element writer"
    );

    let report = Snapshot::mount_bytes(buf).unwrap().verify().unwrap();
    assert_eq!(report.layers, set.len());
}
