//! The snapshot file's public surface: save, and the on-disk
//! statistics `standoff-xq inspect` prints. Files are opened with
//! [`crate::Snapshot::open`] (or mounted from memory with
//! [`crate::Snapshot::mount_bytes`]).
//!
//! A snapshot persists a whole [`LayerSet`] — every layer's shredded
//! document, element-name table and prebuilt region index — in **one**
//! format, SOSN version 7: columnar, offset-indexed, a CRC32 per
//! section. The layout, its writer and its reader live in
//! [`crate::mount`]; files are *mounted* (one shared buffer, zero-copy
//! column views, lazily materialized layers), never decoded.
//!
//! A snapshot is a cache derived from the layer XML, not an archive: a
//! file whose header declares any other version is refused before
//! anything else is parsed, with an error naming the version found, the
//! version supported and the remedy — rebuild it with
//! `standoff-xq index`. Strings inside the tiny metadata sections are
//! u32-length-prefixed UTF-8. No external serde dependencies.

use std::path::Path;

use crate::error::StoreError;
use crate::layer::LayerSet;
use crate::mount::write_snapshot;

// ---- save ----

/// Serialize a layer set to a file, atomically: the bytes are written
/// to a temp file in the same directory, fsynced, renamed over `path`,
/// and the directory is fsynced. A crash at any point leaves either the
/// previous file or the complete new one.
pub fn save_snapshot(set: &LayerSet, path: impl AsRef<Path>) -> Result<(), StoreError> {
    crate::atomic::atomic_replace(path.as_ref(), |w| write_snapshot(set, w))?;
    Ok(())
}

// ---- inspect ----

/// One on-disk section of a layer: tag, human name, payload size;
/// listed in ascending tag order.
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
    /// On-disk payload size of the layer's sections in bytes.
    pub bytes: u64,
    /// Node count declared by the layer header.
    pub nodes: u64,
    /// Annotation count declared by the layer header.
    pub annotations: u64,
    /// Per-section byte breakdown.
    pub sections: Vec<SectionInfo>,
}

/// Summary of a snapshot file ([`crate::Snapshot::info`]): a pure header +
/// section-table walk, payloads untouched.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// On-disk format version.
    pub version: u32,
    pub uri: String,
    pub layers: Vec<LayerInfo>,
    /// Total payload bytes across all sections.
    pub payload_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::mount::{Snapshot, VERSION};
    use standoff_core::{Area, RegionIndex, StandoffConfig};
    use standoff_xml::parse_document;

    /// Mount `bytes` and materialize every layer.
    fn reload(bytes: &[u8]) -> Result<LayerSet, StoreError> {
        Snapshot::mount_bytes(bytes.to_vec())?.to_layer_set()
    }

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
    fn round_trip_preserves_everything() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let loaded = reload(&buf).unwrap();
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
                standoff_xml::try_serialize_document(orig.doc(), Default::default()),
                standoff_xml::try_serialize_document(re.doc(), Default::default())
            );
        }
        // Re-serialization is byte-idempotent.
        let mut buf2 = Vec::new();
        write_snapshot(&loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    /// The post-filter elision in the query optimizer assumes every
    /// node a mounted region index annotates is an element; a snapshot
    /// whose index points at any other node kind must be rejected at
    /// load time (mounted indexes are never rebuilt or re-filtered).
    #[test]
    fn snapshot_index_annotating_non_element_rejected() {
        let doc = parse_document(r#"<doc><w start="0" end="4"/>hello</doc>"#).unwrap();
        // pre 3 is the text node "hello" — a forged annotation target.
        assert_eq!(doc.kind(3), standoff_xml::NodeKind::Text);
        let forged = RegionIndex::from_areas(&[(3, Area::single(0, 4).unwrap())]);
        let layer = Layer::from_shared(
            crate::layer::BASE_LAYER.to_string(),
            StandoffConfig::default(),
            doc.into(),
            forged.into(),
        )
        .unwrap();
        let set = LayerSet::from_layers("u", vec![layer]).unwrap();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let err = reload(&buf).unwrap_err();
        assert!(
            err.to_string().contains("non-element"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn info_reports_without_materializing() {
        let set = sample_set();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let snapshot = Snapshot::mount_bytes(buf).unwrap();
        let info = snapshot.info();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.uri, "corpus.xml");
        assert_eq!(
            info.layers
                .iter()
                .map(|l| l.name.as_str())
                .collect::<Vec<_>>(),
            ["base", "tokens"]
        );
        assert!(info.payload_bytes > 0);
        // Layer headers carry counts — no payload decode needed.
        assert_eq!(info.layers[1].annotations, 3);
        assert_eq!(info.layers[0].nodes, set.base().doc().node_count() as u64);
        assert!(!snapshot.is_materialized(0) && !snapshot.is_materialized(1));
    }

    /// The version field gates everything: any value but the supported
    /// one is refused by name, whatever follows it in the file.
    #[test]
    fn every_other_version_is_refused_before_parsing() {
        let mut buf = Vec::new();
        write_snapshot(&sample_set(), &mut buf).unwrap();
        for version in [0u32, 1, 2, 3, 4, 5, 6, 8, 99, u32::MAX] {
            let mut other = buf.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            // Nothing after the version needs to be there, let alone parse.
            for bytes in [other.clone(), other[..8].to_vec()] {
                let err = reload(&bytes).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("unsupported format version {version} "))
                        && err.contains(&format!("reads version {VERSION} only"))
                        && err.contains("standoff-xq index"),
                    "version {version}: {err}"
                );
            }
        }
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let mut buf = Vec::new();
        write_snapshot(&sample_set(), &mut buf).unwrap();
        // Bad magic.
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(reload(&bad_magic).is_err());
        // Every truncation fails, never panics.
        for cut in 0..buf.len() {
            assert!(
                reload(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
