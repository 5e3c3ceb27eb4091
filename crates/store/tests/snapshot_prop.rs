//! Property tests for the snapshot format (mirroring
//! `crates/xml/tests/roundtrip_prop.rs`): `save(load(x)) == x` for the
//! documents, region indices and layer metadata of arbitrary layer sets,
//! and corrupted/truncated snapshots are rejected, never mis-loaded.

use proptest::prelude::*;

use standoff_core::StandoffConfig;
use standoff_store::{write_snapshot, LayerSet, Snapshot, StoreError};
use standoff_xml::{parse_document, try_serialize_document, Document};

/// Mount `bytes` and materialize every layer.
fn reload(bytes: &[u8]) -> Result<LayerSet, StoreError> {
    Snapshot::mount_bytes(bytes.to_vec())?.to_layer_set()
}

/// Random non-touching annotation spans: (start, end) pairs.
fn spans_strategy(max_annotations: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..400, 1i64..30), 0..max_annotations).prop_map(|raw| {
        let mut spans: Vec<(i64, i64)> = raw.into_iter().map(|(s, l)| (s, s + l)).collect();
        spans.sort_unstable();
        spans
    })
}

/// An annotation-layer document: one element per span. Nested/overlapping
/// spans are fine — they are independent area-annotations.
fn layer_doc(elem: &str, spans: &[(i64, i64)]) -> Document {
    let mut xml = String::from("<layer>");
    for (k, (s, e)) in spans.iter().enumerate() {
        xml.push_str(&format!(r#"<{elem} n="{k}" start="{s}" end="{e}"/>"#));
    }
    xml.push_str("</layer>");
    parse_document(&xml).unwrap()
}

fn layer_names(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("layer{k}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → read → write is byte-identical, and the reload preserves
    /// every document, index and piece of layer metadata.
    #[test]
    fn snapshot_round_trip(
        base_spans in spans_strategy(24),
        layer_spans in prop::collection::vec(spans_strategy(16), 0..4),
    ) {
        let mut set = LayerSet::build(
            "prop-corpus",
            layer_doc("seg", &base_spans),
            StandoffConfig::default(),
        )
        .unwrap();
        for (name, spans) in layer_names(layer_spans.len()).iter().zip(&layer_spans) {
            set.add_layer(name, layer_doc("ann", spans), StandoffConfig::default())
                .unwrap();
        }

        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let loaded = reload(&buf).unwrap();

        // Metadata.
        prop_assert_eq!(loaded.uri(), set.uri());
        prop_assert_eq!(loaded.len(), set.len());
        for (a, b) in set.layers().iter().zip(loaded.layers()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.config(), b.config());
            // Documents: identical serialization.
            prop_assert_eq!(
                try_serialize_document(a.doc(), Default::default()),
                try_serialize_document(b.doc(), Default::default())
            );
            // Region indices: identical entries and node views.
            prop_assert_eq!(a.index().entries(), b.index().entries());
            prop_assert_eq!(a.index().annotated_nodes(), b.index().annotated_nodes());
            prop_assert_eq!(a.index().max_regions(), b.index().max_regions());
            for &pre in a.index().annotated_nodes() {
                prop_assert_eq!(&*a.index().regions_of(pre), &*b.index().regions_of(pre));
            }
        }

        // save(load(x)) == x, byte for byte.
        let mut buf2 = Vec::new();
        write_snapshot(&loaded, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }

    /// Truncation at every prefix length fails cleanly.
    #[test]
    fn truncation_rejected(base_spans in spans_strategy(10), cut_frac in 0u32..1000) {
        let set = LayerSet::build(
            "t",
            layer_doc("seg", &base_spans),
            StandoffConfig::default(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let cut = (cut_frac as usize * buf.len()) / 1000;
        prop_assert!(cut < buf.len());
        prop_assert!(reload(&buf[..cut]).is_err());
    }

    /// Arbitrary single-byte corruption either fails cleanly or yields a
    /// structurally valid layer set — never a panic, never a broken index.
    #[test]
    fn corruption_never_panics(
        base_spans in spans_strategy(8),
        byte in any::<u8>(),
        pos_frac in 0u32..1000,
    ) {
        let set = LayerSet::build(
            "c",
            layer_doc("seg", &base_spans),
            StandoffConfig::default(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_snapshot(&set, &mut buf).unwrap();
        let pos = (pos_frac as usize * buf.len()) / 1000;
        buf[pos] ^= byte;
        if let Ok(loaded) = reload(&buf) {
            // Whatever decoded must uphold the structural invariants.
            for layer in loaded.layers() {
                layer.doc().check_invariants().unwrap();
                for &pre in layer.index().annotated_nodes() {
                    prop_assert!(!layer.index().regions_of(pre).is_empty());
                }
            }
        }
    }
}
