//! The versioned binary snapshot format.
//!
//! A snapshot persists a whole [`LayerSet`] — every layer's shredded
//! document, element-name table and prebuilt region index. Three
//! on-disk versions exist:
//!
//! * **Version 4** (current, written by [`write_snapshot`]): the
//!   columnar layout of version 3 plus a trailing checksum section — a
//!   CRC32 per section payload, verified lazily at layer
//!   materialization (see [`crate::mount`]).
//! * **Version 3** (written by [`write_snapshot_unchecksummed`]): the
//!   columnar, offset-indexed format of [`crate::mount`]. Files are
//!   *mounted* — one shared buffer, zero-copy column views, lazily
//!   materialized layers — rather than decoded.
//! * **Version 1** (legacy, written by [`write_snapshot_legacy`]):
//!   streaming length-prefixed sections, decoded eagerly. Still fully
//!   readable; kept so existing snapshot files never rot. Layout:
//!
//! ```text
//! magic "SOSN" | u32 version | u32 section-count
//! section-count × section:  u32 tag | u64 byte-length | payload
//!
//! tag 1 META:   string store-uri | u32 layer-count
//! tag 2 LAYER:  string layer-name
//!               | config: string position-type, string start-name,
//!                 string end-name, u8 has-region (+ string region-name),
//!                 u8 lenient
//!               | document     ("SOXD", standoff_xml::write_document)
//!               | region index ("SORX", RegionIndex::write_into)
//! ```
//!
//! Strings are u32-length-prefixed UTF-8. Sections are length-prefixed so
//! readers skip tags they do not know. The first LAYER section is the
//! base layer. No external serde dependencies.
//!
//! Reading dispatches on the version field, so [`read_snapshot`] /
//! [`load_snapshot`] accept both formats transparently. [`inspect_snapshot`]
//! summarizes either format without decoding payloads: v3 is a pure
//! header walk, legacy skims each section's name prefix and *seeks* over
//! the rest (no draining reads).

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use standoff_core::{RegionIndex, StandoffConfig};
use standoff_xml::wire::{
    read_string, read_u32, read_u64, read_u8, write_string, write_u32, write_u64,
};

use crate::error::StoreError;
use crate::layer::{Layer, LayerSet};
use crate::mount::{
    Snapshot, HEADER_BYTES, SEC_CHECKSUMS, SEC_LAYER_HDR, SEC_META, TABLE_ENTRY_BYTES,
};

pub(crate) const MAGIC: &[u8; 4] = b"SOSN";
/// The legacy streaming format.
pub(crate) const VERSION_LEGACY: u32 = 1;
/// The columnar mounted format. (2 is skipped: snapshot generations
/// align with the embedded document codec's, whose current version is 2.)
pub(crate) const VERSION_V3: u32 = 3;
/// The columnar format plus per-section CRC32 checksums.
pub(crate) const VERSION_V4: u32 = 4;

const SECTION_META: u32 = 1;
const SECTION_LAYER: u32 = 2;

// ---- primitives ----

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {msg}"))
}

fn io_from_store(e: StoreError) -> io::Error {
    match e {
        StoreError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

pub(crate) fn write_config<W: Write>(w: &mut W, config: &StandoffConfig) -> io::Result<()> {
    write_string(w, &config.position_type)?;
    write_string(w, &config.start_name)?;
    write_string(w, &config.end_name)?;
    match &config.region_name {
        Some(name) => {
            w.write_all(&[1])?;
            write_string(w, name)?;
        }
        None => w.write_all(&[0])?,
    }
    w.write_all(&[config.lenient as u8])
}

pub(crate) fn read_config<R: Read>(r: &mut R) -> io::Result<StandoffConfig> {
    let position_type = read_string(r)?;
    let start_name = read_string(r)?;
    let end_name = read_string(r)?;
    let region_name = match read_u8(r)? {
        0 => None,
        1 => Some(read_string(r)?),
        _ => return Err(bad("bad region-name flag")),
    };
    let lenient = match read_u8(r)? {
        0 => false,
        1 => true,
        _ => return Err(bad("bad lenient flag")),
    };
    let config = StandoffConfig {
        position_type,
        start_name,
        end_name,
        region_name,
        lenient,
    };
    config
        .validate()
        .map_err(|e| bad(&format!("bad layer config: {e}")))?;
    Ok(config)
}

// ---- write ----

/// Serialize a layer set into `w` in the current (v4, columnar +
/// checksummed) format.
pub fn write_snapshot<W: Write>(set: &LayerSet, w: &mut W) -> io::Result<()> {
    crate::mount::write_snapshot_v4(set, w)
}

/// Serialize a layer set into `w` in the v3 columnar format, without
/// section checksums — for compatibility fixtures and for benchmarking
/// checksummed mounts against their baseline.
pub fn write_snapshot_unchecksummed<W: Write>(set: &LayerSet, w: &mut W) -> io::Result<()> {
    crate::mount::write_snapshot_v3(set, w)
}

/// Serialize a layer set in the legacy (version 1) streaming format —
/// kept for compatibility tests and for producing fixtures old readers
/// can consume.
pub fn write_snapshot_legacy<W: Write>(set: &LayerSet, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION_LEGACY)?;
    write_u32(w, 1 + set.len() as u32)?;

    let mut meta = Vec::new();
    write_string(&mut meta, set.uri())?;
    write_u32(&mut meta, set.len() as u32)?;
    write_section(w, SECTION_META, &meta)?;

    for layer in set.layers() {
        let mut body = Vec::new();
        write_string(&mut body, layer.name())?;
        write_config(&mut body, layer.config())?;
        standoff_xml::write_document(layer.doc(), &mut body)?;
        layer.index().write_into(&mut body)?;
        write_section(w, SECTION_LAYER, &body)?;
    }
    Ok(())
}

fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> io::Result<()> {
    write_u32(w, tag)?;
    write_u64(w, payload.len() as u64)?;
    w.write_all(payload)
}

/// Serialize a layer set to a file (current format), atomically: the
/// bytes are written to a temp file in the same directory, fsynced,
/// renamed over `path`, and the directory is fsynced. A crash at any
/// point leaves either the previous file or the complete new one.
pub fn save_snapshot(set: &LayerSet, path: impl AsRef<Path>) -> Result<(), StoreError> {
    crate::atomic::atomic_replace(path.as_ref(), |w| write_snapshot(set, w))?;
    Ok(())
}

// ---- read (version dispatch) ----

/// Deserialize a snapshot written by [`write_snapshot`] (either
/// version). Documents, element-name tables and region indices are
/// loaded column-wise and validated; `RegionIndex::build` is never
/// called. For the lazy entry point that materializes layers on demand,
/// use [`crate::Snapshot`] directly.
pub fn read_snapshot<R: Read>(r: &mut R) -> io::Result<LayerSet> {
    Ok(read_snapshot_with_info(r)?.0)
}

/// [`read_snapshot`] plus the on-disk statistics of [`inspect_snapshot`].
pub fn read_snapshot_with_info<R: Read>(r: &mut R) -> io::Result<(LayerSet, SnapshotInfo)> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let snapshot = Snapshot::from_bytes(bytes)?;
    let info = snapshot.info();
    let set = snapshot.to_layer_set().map_err(io_from_store)?;
    Ok((set, info))
}

/// Deserialize a snapshot from a file (either version, eagerly).
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<LayerSet, StoreError> {
    Snapshot::open(path)?.to_layer_set()
}

/// [`load_snapshot`] plus on-disk statistics.
pub fn load_snapshot_with_info(
    path: impl AsRef<Path>,
) -> Result<(LayerSet, SnapshotInfo), StoreError> {
    let snapshot = Snapshot::open(path)?;
    let info = snapshot.info();
    Ok((snapshot.to_layer_set()?, info))
}

// ---- legacy streaming decode ----

/// Validate the legacy header and return the declared section count.
fn open_sections<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a standoff snapshot (bad magic)"));
    }
    if read_u32(r)? != VERSION_LEGACY {
        return Err(bad("unsupported snapshot version"));
    }
    read_u32(r)
}

/// Stream the sections of a legacy snapshot. `visit` receives each
/// section's tag, declared payload length, and a reader limited to that
/// payload — it may consume any prefix (trailing payload bytes are
/// drained, which is what skips unknown tags and future in-section
/// extensions). Nothing is buffered: a hostile section length costs I/O,
/// not memory.
fn for_each_section<R: Read>(
    r: &mut R,
    mut visit: impl FnMut(u32, u64, &mut dyn Read) -> io::Result<()>,
) -> io::Result<()> {
    let count = open_sections(r)?;
    for _ in 0..count {
        let tag = read_u32(r)?;
        let len = read_u64(r)?;
        let mut section = r.take(len);
        visit(tag, len, &mut section)?;
        io::copy(&mut section, &mut io::sink())?;
        if section.limit() > 0 {
            return Err(bad("truncated section"));
        }
    }
    Ok(())
}

/// Decode a legacy (version 1) snapshot eagerly, gathering the on-disk
/// statistics in the same pass. The v3 path never comes through here.
pub(crate) fn read_snapshot_legacy_with_info<R: Read>(
    r: &mut R,
) -> io::Result<(LayerSet, SnapshotInfo)> {
    let mut meta: Option<(String, u32)> = None;
    let mut layers: Vec<Layer> = Vec::new();
    let mut infos: Vec<LayerInfo> = Vec::new();
    let mut payload_bytes = 0u64;
    for_each_section(r, |tag, len, mut p| {
        payload_bytes += len;
        match tag {
            SECTION_META => {
                if meta.is_some() {
                    return Err(bad("duplicate META section"));
                }
                let uri = read_string(&mut p)?;
                let count = read_u32(&mut p)?;
                meta = Some((uri, count));
            }
            SECTION_LAYER => {
                let name = read_string(&mut p)?;
                let config = read_config(&mut p)?;
                let doc = standoff_xml::read_document(&mut p)?;
                let index = RegionIndex::read_from(&mut p, doc.node_count())?;
                // The index must describe this document: every annotated
                // node is an element of it. The query optimizer's
                // post-filter elision *relies* on join outputs being
                // elements, so a snapshot index annotating any other
                // node kind must fail here — mounted indexes are used
                // as-is, never rebuilt, and nothing downstream re-checks.
                // (Region validity and the id range were checked by
                // `read_from`; config/area agreement is the writer's
                // contract.)
                if index
                    .annotated_nodes()
                    .iter()
                    .any(|&pre| doc.kind(pre) != standoff_xml::NodeKind::Element)
                {
                    return Err(bad("region index annotates a non-element node"));
                }
                let layer = Layer::from_parts(name, config, doc, index)
                    .map_err(|e| bad(&format!("bad layer: {e}")))?;
                infos.push(LayerInfo {
                    name: layer.name().to_string(),
                    bytes: len,
                    nodes: Some(layer.doc().node_count() as u64),
                    annotations: Some(layer.annotation_count() as u64),
                    sections: Vec::new(),
                });
                layers.push(layer);
            }
            _ => {} // unknown section: skip (forward compatibility)
        }
        Ok(())
    })?;
    let (uri, declared) = meta.ok_or_else(|| bad("missing META section"))?;
    if declared as usize != layers.len() {
        return Err(bad("layer count disagrees with META"));
    }
    if layers
        .first()
        .is_some_and(|l| l.name() != crate::layer::BASE_LAYER)
    {
        // LayerSet semantics hinge on layers[0] being the base; a
        // reordered (hand-edited) snapshot must not silently swap what
        // the bare store URI resolves to.
        return Err(bad("first layer section is not the base layer"));
    }
    let info = SnapshotInfo {
        version: VERSION_LEGACY,
        uri: uri.clone(),
        layers: infos,
        payload_bytes,
    };
    let set =
        LayerSet::from_layers(&uri, layers).map_err(|e| bad(&format!("bad layer set: {e}")))?;
    Ok((set, info))
}

// ---- inspect ----

/// One on-disk section of a layer: tag, human name, payload size.
/// Available for v3 snapshots only (legacy files store one opaque
/// section per layer); listed in ascending tag order.
#[derive(Clone, Debug)]
pub struct SectionInfo {
    /// The section-table tag (see the `SEC_*` constants in `mount`).
    pub tag: u32,
    /// Stable human-readable name of the tag (`"doc.kind"`, …).
    pub name: &'static str,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Summary of one layer inside a snapshot.
#[derive(Clone, Debug)]
pub struct LayerInfo {
    pub name: String,
    /// On-disk payload size of the layer's section(s) in bytes.
    pub bytes: u64,
    /// Declared node count — known without decoding for v3 (layer
    /// headers carry it) and for fully decoded loads; `None` when a
    /// legacy file is only skimmed.
    pub nodes: Option<u64>,
    /// Declared annotation count (same availability as `nodes`).
    pub annotations: Option<u64>,
    /// Per-section byte breakdown (v3 only; empty for legacy files).
    pub sections: Vec<SectionInfo>,
}

/// Summary of a snapshot file, cheaply skimmed: v3 is a pure header +
/// section-table walk (payloads untouched); legacy reads each section's
/// name prefix and seeks over the rest.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// On-disk format version (1 = legacy, 3 = columnar,
    /// 4 = columnar + checksums).
    pub version: u32,
    pub uri: String,
    pub layers: Vec<LayerInfo>,
    /// Total payload bytes across all sections.
    pub payload_bytes: u64,
}

/// Skim a snapshot's header and section table without decoding documents
/// or indices. For v3 files only the section table and the tiny
/// META/LAYER_HDR payloads are read; for legacy files each section's
/// name prefix is read and the remainder is *seeked* over, so inspection
/// cost is independent of payload size either way.
pub fn inspect_snapshot<R: Read + Seek>(r: &mut R) -> io::Result<SnapshotInfo> {
    let end = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a standoff snapshot (bad magic)"));
    }
    match read_u32(r)? {
        VERSION_LEGACY => inspect_legacy(r, end),
        v @ (VERSION_V3 | VERSION_V4) => inspect_columnar(r, end, v),
        _ => Err(bad("unsupported snapshot version")),
    }
}

fn inspect_legacy<R: Read + Seek>(r: &mut R, end: u64) -> io::Result<SnapshotInfo> {
    let count = read_u32(r)?;
    let mut pos = 12u64;
    let mut uri = None;
    let mut layers = Vec::new();
    let mut payload_bytes = 0u64;
    for _ in 0..count {
        let tag = read_u32(r)?;
        let len = read_u64(r)?;
        pos += 12;
        let section_end = pos
            .checked_add(len)
            .filter(|&e| e <= end)
            .ok_or_else(|| bad("truncated section"))?;
        payload_bytes += len;
        match tag {
            SECTION_META => {
                let mut p = r.take(len);
                uri = Some(read_string(&mut p)?);
            }
            SECTION_LAYER => {
                let mut p = r.take(len);
                layers.push(LayerInfo {
                    name: read_string(&mut p)?,
                    bytes: len,
                    nodes: None,
                    annotations: None,
                    sections: Vec::new(),
                });
            }
            _ => {}
        }
        // Seek (not drain) past the remainder of the payload.
        r.seek(SeekFrom::Start(section_end))?;
        pos = section_end;
    }
    Ok(SnapshotInfo {
        version: VERSION_LEGACY,
        uri: uri.ok_or_else(|| bad("missing META section"))?,
        layers,
        payload_bytes,
    })
}

fn inspect_columnar<R: Read + Seek>(r: &mut R, end: u64, version: u32) -> io::Result<SnapshotInfo> {
    let count = read_u32(r)? as usize;
    let _reserved = read_u32(r)?;
    let table_end = (HEADER_BYTES + TABLE_ENTRY_BYTES * count) as u64;
    if table_end > end {
        return Err(bad("truncated section table"));
    }
    let mut table = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let tag = read_u32(r)?;
        let layer = read_u32(r)?;
        let off = read_u64(r)?;
        let len = read_u64(r)?;
        let section_end = off
            .checked_add(len)
            .filter(|&e| e <= end)
            .ok_or_else(|| bad("section outside the file"))?;
        if off < table_end {
            return Err(bad("section outside the file"));
        }
        let _ = section_end;
        table.push((tag, layer, off, len));
    }
    let payload_bytes = table.iter().map(|&(_, _, _, l)| l).sum();
    let read_payload = |r: &mut R, off: u64, len: u64| -> io::Result<Vec<u8>> {
        r.seek(SeekFrom::Start(off))?;
        standoff_xml::wire::read_exact_vec(r, len)
    };
    let &(_, _, m_off, m_len) = table
        .iter()
        .find(|&&(t, _, _, _)| t == SEC_META)
        .ok_or_else(|| bad("missing META section"))?;
    let meta = read_payload(r, m_off, m_len)?;
    let mut p = meta.as_slice();
    let uri = read_string(&mut p)?;
    let layer_count = read_u32(&mut p)?;
    let mut layers = Vec::new();
    for k in 0..layer_count {
        let &(_, _, off, len) = table
            .iter()
            .find(|&&(t, l, _, _)| t == SEC_LAYER_HDR && l == k)
            .ok_or_else(|| bad(&format!("missing header for layer {k}")))?;
        let hdr = read_payload(r, off, len)?;
        let mut p = hdr.as_slice();
        let name = read_string(&mut p)?;
        let _config = read_config(&mut p)?;
        let nodes = read_u64(&mut p)?;
        let _attrs = read_u64(&mut p)?;
        let annotations = read_u64(&mut p)?;
        let mut sections: Vec<SectionInfo> = table
            .iter()
            .filter(|&&(t, l, _, _)| l == k && t != SEC_META && t != SEC_CHECKSUMS)
            .map(|&(tag, _, _, len)| SectionInfo {
                tag,
                name: crate::mount::section_name(tag),
                bytes: len,
            })
            .collect();
        sections.sort_by_key(|s| s.tag);
        let bytes = sections.iter().map(|s| s.bytes).sum();
        layers.push(LayerInfo {
            name,
            bytes,
            nodes: Some(nodes),
            annotations: Some(annotations),
            sections,
        });
    }
    Ok(SnapshotInfo {
        version,
        uri,
        layers,
        payload_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_core::Area;
    use standoff_xml::parse_document;

    fn sample_set() -> LayerSet {
        let base =
            parse_document(r#"<doc><seg start="0" end="19"/><seg start="20" end="39"/></doc>"#)
                .unwrap();
        let tokens = parse_document(
            r#"<toks><w start="0" end="4"/><w start="5" end="9"/><w start="21" end="27"/></toks>"#,
        )
        .unwrap();
        let mut set = LayerSet::build("corpus.xml", base, StandoffConfig::default()).unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        set
    }

    #[test]
    fn legacy_round_trip_preserves_everything() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot_legacy(&set, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.uri(), "corpus.xml");
        assert_eq!(loaded.len(), 2);
        let tokens = loaded.layer("tokens").unwrap();
        assert_eq!(tokens.annotation_count(), 3);
        assert_eq!(
            tokens.index().entries(),
            set.layer("tokens").unwrap().index().entries()
        );
        // Idempotent re-serialization: the reload carries every bit.
        let mut buf2 = Vec::new();
        write_snapshot_legacy(&loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn v3_round_trip_preserves_everything() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let loaded = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.uri(), "corpus.xml");
        assert_eq!(loaded.len(), 2);
        let tokens = loaded.layer("tokens").unwrap();
        assert_eq!(tokens.annotation_count(), 3);
        assert_eq!(
            tokens.index().entries(),
            set.layer("tokens").unwrap().index().entries()
        );
        for (orig, re) in set.layers().iter().zip(loaded.layers()) {
            assert_eq!(orig.name(), re.name());
            assert_eq!(orig.doc().node_count(), re.doc().node_count());
            assert_eq!(
                standoff_xml::serialize_document(orig.doc(), Default::default()),
                standoff_xml::serialize_document(re.doc(), Default::default())
            );
        }
        // v3 re-serialization is byte-idempotent too.
        let mut buf2 = Vec::new();
        write_snapshot(&loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    /// Unchecksummed v3 files remain first-class: the v4 reader must
    /// keep mounting them (no verification, same contents).
    #[test]
    fn unchecksummed_v3_round_trip_still_reads() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot_unchecksummed(&set, &mut buf).unwrap();
        let snapshot = Snapshot::from_bytes(buf.clone()).unwrap();
        assert_eq!(snapshot.version(), VERSION_V3);
        assert!(!snapshot.checksummed());
        let loaded = snapshot.to_layer_set().unwrap();
        assert_eq!(loaded.uri(), "corpus.xml");
        assert_eq!(loaded.layer("tokens").unwrap().annotation_count(), 3);
        // And the current writer really is a superset: same bytes up
        // to the version field, table and checksum section aside.
        let mut v4 = Vec::new();
        write_snapshot(&set, &mut v4).unwrap();
        let mounted = Snapshot::from_bytes(v4).unwrap();
        assert_eq!(mounted.version(), VERSION_V4);
        assert!(mounted.checksummed());
        assert!(mounted.verify().is_ok());
    }

    /// The post-filter elision in the query optimizer assumes every
    /// node a mounted region index annotates is an element; a snapshot
    /// whose index points at any other node kind must be rejected at
    /// load time (mounted indexes are never rebuilt or re-filtered) —
    /// in both formats.
    #[test]
    fn snapshot_index_annotating_non_element_rejected() {
        let doc = parse_document(r#"<doc><w start="0" end="4"/>hello</doc>"#).unwrap();
        // pre 3 is the text node "hello" — a forged annotation target.
        assert_eq!(doc.kind(3), standoff_xml::NodeKind::Text);
        let forged = RegionIndex::from_areas(&[(3, Area::single(0, 4).unwrap())]);
        let layer = Layer::from_parts(
            crate::layer::BASE_LAYER.to_string(),
            StandoffConfig::default(),
            doc,
            forged,
        )
        .unwrap();
        let set = LayerSet::from_layers("u", vec![layer]).unwrap();
        for write in [write_snapshot_legacy, write_snapshot] {
            let mut buf = Vec::new();
            write(&set, &mut buf).unwrap();
            let err = read_snapshot(&mut buf.as_slice()).unwrap_err();
            assert!(
                err.to_string().contains("non-element"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn inspect_reports_without_decoding() {
        let set = sample_set();
        for (write, version) in [
            (
                write_snapshot_legacy as fn(&LayerSet, &mut Vec<u8>) -> io::Result<()>,
                VERSION_LEGACY,
            ),
            (write_snapshot_unchecksummed, VERSION_V3),
            (write_snapshot, VERSION_V4),
        ] {
            let mut buf = Vec::new();
            write(&set, &mut buf).unwrap();
            let info = inspect_snapshot(&mut io::Cursor::new(&buf)).unwrap();
            assert_eq!(info.version, version);
            assert_eq!(info.uri, "corpus.xml");
            assert_eq!(
                info.layers
                    .iter()
                    .map(|l| l.name.as_str())
                    .collect::<Vec<_>>(),
                ["base", "tokens"]
            );
            assert!(info.payload_bytes > 0);
            if version >= VERSION_V3 {
                // v3 headers carry counts — no payload decode needed.
                assert_eq!(info.layers[1].annotations, Some(3));
                assert_eq!(
                    info.layers[0].nodes,
                    Some(set.base().doc().node_count() as u64)
                );
            }
        }
    }

    #[test]
    fn legacy_unknown_sections_are_skipped() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot_legacy(&set, &mut buf).unwrap();
        // Append an unknown section and bump the section count.
        let mut extended = buf.clone();
        write_u32(&mut extended, 0xBEEF).unwrap();
        write_u64(&mut extended, 3).unwrap();
        extended.extend_from_slice(b"xyz");
        let count = u32::from_le_bytes(extended[8..12].try_into().unwrap());
        extended[8..12].copy_from_slice(&(count + 1).to_le_bytes());
        let loaded = read_snapshot(&mut extended.as_slice()).unwrap();
        assert_eq!(loaded.len(), 2);
    }

    #[test]
    fn legacy_reordered_layers_rejected() {
        // Hand-reorder the two LAYER sections so the base is no longer
        // first: the load must fail rather than silently swap what the
        // bare store URI resolves to.
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot_legacy(&set, &mut buf).unwrap();
        // Parse section boundaries: header is 12 bytes, then
        // (tag u32 | len u64 | payload) triples.
        let mut sections: Vec<(usize, usize)> = Vec::new(); // (offset, total size)
        let mut k = 12;
        while k < buf.len() {
            let len = u64::from_le_bytes(buf[k + 4..k + 12].try_into().unwrap()) as usize;
            sections.push((k, 12 + len));
            k += 12 + len;
        }
        assert_eq!(sections.len(), 3, "META + 2 layers");
        let (m_off, m_len) = sections[0];
        let (a_off, a_len) = sections[1];
        let (b_off, b_len) = sections[2];
        let mut swapped = buf[..12].to_vec();
        swapped.extend_from_slice(&buf[m_off..m_off + m_len]);
        swapped.extend_from_slice(&buf[b_off..b_off + b_len]);
        swapped.extend_from_slice(&buf[a_off..a_off + a_len]);
        let err = read_snapshot(&mut swapped.as_slice()).unwrap_err();
        assert!(err.to_string().contains("base layer"), "{err}");
    }

    #[test]
    fn hostile_section_length_fails_without_allocating() {
        // A section header claiming an absurd payload must fail with a
        // clean truncation error, not a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION_LEGACY.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one section
        buf.extend_from_slice(&SECTION_META.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // hostile length
        buf.extend_from_slice(b"tiny");
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
        assert!(inspect_snapshot(&mut io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let set = sample_set();
        for write in [
            write_snapshot_legacy as fn(&LayerSet, &mut Vec<u8>) -> io::Result<()>,
            write_snapshot,
        ] {
            let mut buf = Vec::new();
            write(&set, &mut buf).unwrap();
            // Bad magic.
            let mut bad_magic = buf.clone();
            bad_magic[0] = b'X';
            assert!(read_snapshot(&mut bad_magic.as_slice()).is_err());
            // Bad version.
            let mut bad_version = buf.clone();
            bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
            assert!(read_snapshot(&mut bad_version.as_slice()).is_err());
            // Every truncation fails, never panics.
            for cut in 0..buf.len() {
                assert!(
                    read_snapshot(&mut buf[..cut].to_vec().as_slice()).is_err(),
                    "truncation at {cut} must fail"
                );
            }
        }
    }
}
