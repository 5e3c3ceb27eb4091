//! Annotation layers and layer sets.
//!
//! A [`Layer`] is one stand-off annotation document over a shared BLOB,
//! bundled with the [`RegionIndex`] the StandOff joins need and the
//! [`StandoffConfig`] it was built under. A [`LayerSet`] collects the
//! layers of one corpus — a *base* layer plus any number of named
//! sibling layers (`tokens`, `entities`, `syntax`, …). All layers share
//! the BLOB's coordinate space, which is exactly what lets the StandOff
//! axes join *across* layers: a region is a region, whichever document
//! it came from (Annotation-Graph-style multi-hierarchy annotation).
//!
//! Layers hold their document and index behind [`Arc`]: a layer cloned
//! out of a mounted [`crate::Snapshot`] and into a query engine shares
//! one copy of the (possibly buffer-backed) column data — mounting is
//! pointer plumbing, not duplication.

use std::sync::{Arc, OnceLock};

use standoff_core::obs::{Counter, MetricsRegistry};
use standoff_core::{RegionIndex, RegionRepr, StandoffConfig};
use standoff_xml::{Document, NameTable, NodeKind, RegionAttrs};

use crate::error::StoreError;

/// Name of the distinguished base layer of every [`LayerSet`].
pub const BASE_LAYER: &str = "base";

/// One annotation layer: document + prebuilt region index + the
/// configuration the index was built under.
#[derive(Clone)]
pub struct Layer {
    name: String,
    config: StandoffConfig,
    doc: Arc<Document>,
    index: Arc<RegionIndex>,
}

impl Layer {
    /// Build a layer, constructing its region index.
    pub fn build(name: &str, doc: Document, config: StandoffConfig) -> Result<Layer, StoreError> {
        let index = RegionIndex::build(&doc, &config)?;
        Layer::from_shared(name.to_string(), config, Arc::new(doc), Arc::new(index))
    }

    /// Assemble a layer around already-shared parts (the zero-copy mount
    /// path — no index construction happens here, that is the point).
    pub fn from_shared(
        name: String,
        config: StandoffConfig,
        doc: Arc<Document>,
        index: Arc<RegionIndex>,
    ) -> Result<Layer, StoreError> {
        validate_name(&name)?;
        Ok(Layer {
            name,
            config,
            doc,
            index,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn config(&self) -> &StandoffConfig {
        &self.config
    }

    pub fn doc(&self) -> &Document {
        &self.doc
    }

    pub fn index(&self) -> &RegionIndex {
        &self.index
    }

    /// The shared document handle (cheap clone).
    pub fn doc_arc(&self) -> Arc<Document> {
        Arc::clone(&self.doc)
    }

    /// The shared index handle (cheap clone).
    pub fn index_arc(&self) -> Arc<RegionIndex> {
        Arc::clone(&self.index)
    }

    /// Number of area-annotations in this layer.
    pub fn annotation_count(&self) -> usize {
        self.index.stats().annotated as usize
    }

    /// The region attributes a snapshot of this layer need not store
    /// ([`region_attrs`]).
    pub(crate) fn region_attrs(&self) -> Option<RegionAttrs> {
        region_attrs(&self.config, self.doc.names(), self.index_arc())
    }

    /// How this layer holds its region attributes: how many its
    /// attribute table presents from the region table, and how many rows
    /// it stores with their names ([`standoff_xml::AttrTable::region_rows`]).
    /// What `inspect` prints; reads the attribute table.
    pub fn region_attribute_counts(&self) -> Result<[u64; 2], StoreError> {
        let Some(regions) = self.region_attrs() else {
            return Ok([0, 0]);
        };
        let table = self.doc.attrs()?;
        let (presented, stored) = table.region_rows(&regions, self.annotation_count() as u64);
        Ok([presented, stored])
    }

    /// Pre ranks of the `<name>` annotation elements carrying exactly the
    /// region `[start, end]`, ascending — the one place the
    /// region → annotation question is answered, through the region
    /// index's clustered column ([`RegionIndex::entries_at_probed`]) rather than
    /// by walking the name's postings. An element whose area has several
    /// regions matches on any one of them. The entries examined are added
    /// to the global `store.delta.retract_probes` counter.
    pub fn annotations_at<'a>(
        &'a self,
        name: &str,
        start: i64,
        end: i64,
    ) -> impl Iterator<Item = u32> + 'a {
        let name_id = self.doc.names().get(name);
        let (entries, probes) = match name_id {
            Some(_) => self.index.entries_at_probed(start, end),
            None => (&[][..], 0),
        };
        retract_probes().add(probes);
        let doc = &self.doc;
        entries.iter().map(|e| e.id).filter(move |&pre| {
            doc.kind(pre) == NodeKind::Element && Some(doc.name_id(pre)) == name_id
        })
    }

    /// Re-derive what the layer holds from its document alone: the
    /// document's structural invariants hold, and the region index built
    /// from scratch equals the one the layer carries. The deep check of
    /// a layer a fold assembled without re-reading its document.
    pub fn check(&self) -> Result<(), StoreError> {
        let failed = |detail: String| StoreError::Delta(format!("layer {:?}: {detail}", self.name));
        self.doc.check_invariants().map_err(failed)?;
        let built = RegionIndex::build(&self.doc, &self.config)?;
        // The node view is derived from the entries, so they decide.
        let (a, b) = (self.index.storage(), built.storage());
        if (a.entries, a.max_regions) != (b.entries, b.max_regions) {
            return Err(failed("region index disagrees with the document".into()));
        }
        Ok(())
    }

    /// Decompose into `(name, config, document, index)`. The document
    /// and index stay shared — an engine mounting them takes references,
    /// not copies.
    pub fn into_parts(self) -> (String, StandoffConfig, Arc<Document>, Arc<RegionIndex>) {
        (self.name, self.config, self.doc, self.index)
    }
}

impl std::fmt::Debug for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Layer")
            .field("name", &self.name)
            .field("nodes", &self.doc.node_count())
            .field("annotations", &self.annotation_count())
            .finish()
    }
}

/// Handle on the global `store.delta.retract_probes` counter (resolved
/// once: the lookup sits on every retract key of every remount).
fn retract_probes() -> &'static Counter {
    static PROBES: OnceLock<Counter> = OnceLock::new();
    PROBES.get_or_init(|| MetricsRegistry::global().counter("store.delta.retract_probes"))
}

/// The region attributes a layer's attribute table presents once
/// mounted ([`RegionAttrs`]): in the attribute representation, when the
/// layer's names hold both, read from its region index.
pub(crate) fn region_attrs(
    config: &StandoffConfig,
    names: &NameTable,
    index: Arc<RegionIndex>,
) -> Option<RegionAttrs> {
    if config.repr() != RegionRepr::Attributes {
        return None;
    }
    Some(RegionAttrs {
        source: index,
        start: names.get(&config.start_name)?,
        end: names.get(&config.end_name)?,
    })
}

fn validate_name(name: &str) -> Result<(), StoreError> {
    // `#` is reserved: the engine addresses mounted layers as
    // `uri#layer` (see `standoff_xquery::Engine::mount_store`).
    if name.is_empty() || name.contains('#') {
        Err(StoreError::BadLayerName(name.to_string()))
    } else {
        Ok(())
    }
}

/// A base layer plus named sibling annotation layers over one BLOB,
/// addressed by a store URI. Cloning is cheap: layers share their
/// documents and indexes through `Arc`.
#[derive(Clone)]
pub struct LayerSet {
    uri: String,
    /// `layers[0]` is always the base layer.
    layers: Vec<Layer>,
}

impl LayerSet {
    /// Start a layer set from its base document (becomes the
    /// [`BASE_LAYER`] layer, indexed under `config`).
    pub fn build(
        uri: &str,
        base: Document,
        config: StandoffConfig,
    ) -> Result<LayerSet, StoreError> {
        let base = Layer::build(BASE_LAYER, base, config)?;
        Ok(LayerSet {
            uri: uri.to_string(),
            layers: vec![base],
        })
    }

    /// Reassemble from prebuilt layers (snapshot load). `layers[0]` is
    /// taken as the base; names must be unique.
    pub fn from_layers(uri: &str, layers: Vec<Layer>) -> Result<LayerSet, StoreError> {
        if layers.is_empty() {
            return Err(StoreError::BadLayerName("<no layers>".to_string()));
        }
        let mut set = LayerSet {
            uri: uri.to_string(),
            layers: Vec::with_capacity(layers.len()),
        };
        for layer in layers {
            set.push_layer(layer)?;
        }
        Ok(set)
    }

    /// Add a layer, building its index.
    pub fn add_layer(
        &mut self,
        name: &str,
        doc: Document,
        config: StandoffConfig,
    ) -> Result<&Layer, StoreError> {
        let layer = Layer::build(name, doc, config)?;
        self.push_layer(layer)?;
        Ok(self.layers.last().expect("just pushed"))
    }

    /// Add a prebuilt layer.
    pub fn push_layer(&mut self, layer: Layer) -> Result<(), StoreError> {
        if self.layers.iter().any(|l| l.name == layer.name) {
            return Err(StoreError::DuplicateLayer(layer.name));
        }
        self.layers.push(layer);
        Ok(())
    }

    /// The store URI this set mounts under.
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The base layer.
    pub fn base(&self) -> &Layer {
        &self.layers[0]
    }

    /// All layers, base first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer by name ([`BASE_LAYER`] finds the base).
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Number of layers (including the base).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a LayerSet always has its base layer
    }

    /// Decompose into `(uri, layers)`, base first.
    pub fn into_layers(self) -> (String, Vec<Layer>) {
        (self.uri, self.layers)
    }
}

impl std::fmt::Debug for LayerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerSet")
            .field("uri", &self.uri)
            .field("layers", &self.layers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::parse_document;

    fn doc(xml: &str) -> Document {
        parse_document(xml).unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let mut set = LayerSet::build(
            "corpus",
            doc(r#"<d><w start="0" end="4"/></d>"#),
            StandoffConfig::default(),
        )
        .unwrap();
        set.add_layer(
            "entities",
            doc(r#"<e><person start="0" end="4"/></e>"#),
            StandoffConfig::default(),
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.base().name(), BASE_LAYER);
        assert_eq!(set.layer("entities").unwrap().annotation_count(), 1);
        assert!(set.layer("missing").is_none());
    }

    #[test]
    fn duplicate_and_reserved_names_rejected() {
        let mut set = LayerSet::build("c", doc("<d/>"), StandoffConfig::default()).unwrap();
        assert!(set
            .add_layer("base", doc("<d/>"), StandoffConfig::default())
            .is_err());
        assert!(set
            .add_layer("a#b", doc("<d/>"), StandoffConfig::default())
            .is_err());
        assert!(set
            .add_layer("", doc("<d/>"), StandoffConfig::default())
            .is_err());
    }

    #[test]
    fn cloned_layers_share_storage() {
        let set = LayerSet::build(
            "c",
            doc(r#"<d><w start="0" end="4"/></d>"#),
            StandoffConfig::default(),
        )
        .unwrap();
        let clone = set.base().clone();
        assert!(std::ptr::eq(clone.doc(), set.base().doc()));
        assert!(std::ptr::eq(clone.index(), set.base().index()));
    }

    #[test]
    fn malformed_layer_annotations_fail_index_build() {
        let r = Layer::build(
            "broken",
            doc(r#"<d><w start="7"/></d>"#),
            StandoffConfig::default(),
        );
        assert!(matches!(r, Err(StoreError::Index(_))));
    }

    #[test]
    fn check_rederives_the_index_from_the_document() {
        let config = StandoffConfig::default;
        let built = Layer::build("w", doc(r#"<d><w start="0" end="4"/></d>"#), config()).unwrap();
        assert!(built.check().is_ok());
        let other =
            RegionIndex::build(&doc(r#"<d><w start="0" end="5"/></d>"#), &config()).unwrap();
        let (name, config, doc, _) = built.into_parts();
        let mismatched = Layer::from_shared(name, config, doc, Arc::new(other)).unwrap();
        let err = mismatched.check().unwrap_err().to_string();
        assert!(err.contains("region index disagrees"), "{err}");
    }
}
