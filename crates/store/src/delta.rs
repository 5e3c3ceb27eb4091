//! Writable overlay deltas over immutable layer sets.
//!
//! A [`LayerSet`] (and a fortiori a mounted SOSN snapshot) is immutable:
//! its documents are shredded, its region indexes are clustered columns.
//! Mutation is layered *on top* as a [`DeltaSet`] — per annotation layer,
//! a list of **inserted** annotations (new stand-off elements over the
//! same BLOB) and a list of **retracted** ones (existing annotations
//! hidden from every read). Readers merge base and delta on the fly
//! (merge-on-read); [`compact`] folds the delta down into a fresh,
//! delta-free `LayerSet` that can be written out as a new snapshot.
//!
//! Two invariants make merge-on-read and compaction observably
//! equivalent:
//!
//! * inserted annotations materialize as a small sibling document per
//!   layer ([`LayerDelta::insert_doc`]) whose elements carry the same
//!   `start`/`end` attributes the layer's [`StandoffConfig`] prescribes —
//!   compaction appends exactly those elements to the layer root, in
//!   insertion order;
//! * a retraction hides the **whole subtree** of every matching
//!   annotation element ([`LayerDelta::retracted_pres`]) — compaction
//!   drops the same subtrees from the rebuilt document.
//!
//! Deltas target annotation layers only: the base layer is the document
//! under annotation, not an annotation set, and rewriting it would
//! invalidate every region of every layer above it.

use std::collections::BTreeMap;
use std::time::Instant;

use standoff_core::{MetricsRegistry, Region, StandoffConfig};
use standoff_xml::{Document, DocumentBuilder, NodeKind};

use crate::error::StoreError;
use crate::layer::{Layer, LayerSet};

/// One inserted annotation: an empty element `name` with the layer's
/// configured start/end attributes plus any extra attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaAnnotation {
    pub name: String,
    pub start: i64,
    pub end: i64,
    /// Extra attributes beyond the region markup, in document order.
    pub attrs: Vec<(String, String)>,
}

/// A single overlay mutation, addressed to a named annotation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add an annotation `<name start end attrs…/>` to `layer`.
    Insert {
        layer: String,
        name: String,
        start: i64,
        end: i64,
        attrs: Vec<(String, String)>,
    },
    /// Hide every annotation element of `layer` named `name` that
    /// carries the region `[start, end]` (or drop a still-pending insert
    /// with the same key).
    Retract {
        layer: String,
        name: String,
        start: i64,
        end: i64,
    },
}

/// The pending mutations of one layer.
#[derive(Clone, Debug, Default)]
pub struct LayerDelta {
    inserts: Vec<DeltaAnnotation>,
    /// Retract keys `(name, start, end)` matched against the base layer.
    retracts: Vec<(String, i64, i64)>,
}

impl LayerDelta {
    /// Pending inserted annotations, in application order.
    pub fn inserts(&self) -> &[DeltaAnnotation] {
        &self.inserts
    }

    /// Retract keys applied against the base layer, in application order.
    pub fn retracts(&self) -> &[(String, i64, i64)] {
        &self.retracts
    }

    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }

    /// All pres of `layer`'s document hidden by this delta: every node of
    /// every matching annotation element's subtree. Sorted ascending,
    /// duplicate-free — the exact shape [`standoff_core::RegionSource`]
    /// expects.
    pub fn retracted_pres(&self, layer: &Layer) -> Vec<u32> {
        let doc = layer.doc();
        let mut out: Vec<u32> = Vec::new();
        for (name, start, end) in &self.retracts {
            for pre in layer.annotations_at(name, *start, *end) {
                out.push(pre);
                out.extend(doc.descendants(pre));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Materialize the pending inserts as a standalone document: the
    /// layer root's element name wrapping one empty element per insert,
    /// region markup first, in insertion order. `None` when there is
    /// nothing to insert (retract-only deltas need no sibling document).
    pub fn insert_doc(&self, layer: &Layer) -> Result<Option<Document>, StoreError> {
        if self.inserts.is_empty() {
            return Ok(None);
        }
        let config = layer.config();
        let root_name = root_element_name(layer.doc())
            .ok_or_else(|| StoreError::Delta("layer document has no root element".into()))?;
        let mut b = DocumentBuilder::new();
        b.start_element(&root_name);
        for a in &self.inserts {
            append_insert(&mut b, a, config);
        }
        b.end_element();
        let doc = b
            .finish()
            .map_err(|e| StoreError::Delta(format!("insert document: {e}")))?;
        Ok(Some(doc))
    }
}

/// Pending mutations for a whole layer set, keyed by layer name.
///
/// All mutation goes through [`DeltaSet::apply`], which validates each
/// op against the layer set it overlays — unknown layers, base-layer
/// writes, inverted regions, retracts that match nothing and retracts
/// that would hide a layer's root element are rejected *at apply time*,
/// so a `DeltaSet` held by an engine is always consistent with its mount
/// and can always be compacted.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    layers: BTreeMap<String, LayerDelta>,
}

impl DeltaSet {
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.values().all(LayerDelta::is_empty)
    }

    /// The pending delta of `layer`, if any mutation targets it.
    pub fn layer_delta(&self, layer: &str) -> Option<&LayerDelta> {
        self.layers.get(layer).filter(|d| !d.is_empty())
    }

    /// Layer names with pending mutations, sorted.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Total pending inserts across all layers.
    pub fn insert_count(&self) -> usize {
        self.layers.values().map(|d| d.inserts.len()).sum()
    }

    /// Total applied retract keys across all layers.
    pub fn retract_count(&self) -> usize {
        self.layers.values().map(|d| d.retracts.len()).sum()
    }

    /// Validate and record one mutation against `set`.
    pub fn apply(&mut self, op: DeltaOp, set: &LayerSet) -> Result<(), StoreError> {
        match op {
            DeltaOp::Insert {
                layer,
                name,
                start,
                end,
                attrs,
            } => {
                let target = self.check_layer(&layer, set)?;
                Region::new(start, end)
                    .map_err(|e| StoreError::Delta(format!("insert into {layer:?}: {e}")))?;
                let config = target.config();
                if config.region_name.is_some() {
                    return Err(StoreError::Delta(format!(
                        "layer {layer:?} uses the element region representation; \
                         delta inserts support the attribute representation only"
                    )));
                }
                check_token(&name, "element name")?;
                for (k, v) in &attrs {
                    check_token(k, "attribute name")?;
                    check_token(v, "attribute value")?;
                    if *k == config.start_name || *k == config.end_name {
                        return Err(StoreError::Delta(format!(
                            "attribute {k:?} collides with the layer's region markup"
                        )));
                    }
                }
                self.layers
                    .entry(layer)
                    .or_default()
                    .inserts
                    .push(DeltaAnnotation {
                        name,
                        start,
                        end,
                        attrs,
                    });
                MetricsRegistry::global().add("store.delta.inserts", 1);
                Ok(())
            }
            DeltaOp::Retract {
                layer,
                name,
                start,
                end,
            } => {
                let target = self.check_layer(&layer, set)?;
                let delta = self.layers.entry(layer.clone()).or_default();
                // A retract first cancels still-pending inserts with the
                // same key — those never existed as far as readers are
                // concerned, so no retract key is recorded for them.
                let before = delta.inserts.len();
                delta
                    .inserts
                    .retain(|a| !(a.name == name && a.start == start && a.end == end));
                if delta.inserts.len() != before {
                    MetricsRegistry::global().add("store.delta.retracts", 1);
                    return Ok(());
                }
                let key = (name, start, end);
                if delta.retracts.contains(&key) {
                    return Err(StoreError::Delta(format!(
                        "annotation <{} {}..{}> of layer {layer:?} is already retracted",
                        key.0, start, end
                    )));
                }
                let (name, start, end) = key;
                // Matches come out in ascending pre order, so the layer
                // root — the first element of the document — can only
                // ever be the first of them.
                let Some(first) = target.annotations_at(&name, start, end).next() else {
                    return Err(StoreError::Delta(format!(
                        "retract <{name} {start}..{end}> matches no annotation of \
                         layer {layer:?}"
                    )));
                };
                // Hiding the root hides the whole layer: readers would be
                // served pending inserts from a document with no visible
                // root, and no later `compact` could rebuild it.
                if Some(first) == root_element(target.doc()) {
                    return Err(StoreError::Delta(format!(
                        "retract <{name} {start}..{end}> matches the root element of \
                         layer {layer:?}; a layer's root cannot be retracted"
                    )));
                }
                delta.retracts.push((name, start, end));
                MetricsRegistry::global().add("store.delta.retracts", 1);
                Ok(())
            }
        }
    }

    /// Apply a batch; ops after the first failure are not applied.
    pub fn apply_all(
        &mut self,
        ops: impl IntoIterator<Item = DeltaOp>,
        set: &LayerSet,
    ) -> Result<usize, StoreError> {
        let mut n = 0;
        for op in ops {
            self.apply(op, set)?;
            n += 1;
        }
        Ok(n)
    }

    /// The recorded mutations as a replayable op batch, layer by layer:
    /// a layer's retracts first, then its inserts in order. A recorded
    /// retract key always matched the *base* — a retract that hits a
    /// pending insert cancels it and records nothing — so replayed ahead
    /// of the inserts every retract finds its annotation again, and a
    /// later insert at the same key (replace in place) stays pending
    /// instead of being cancelled by its own predecessor's retract.
    /// Replaying the batch through [`DeltaSet::apply`] against the same
    /// base reproduces this delta exactly.
    pub fn to_ops(&self) -> Vec<DeltaOp> {
        let mut out = Vec::new();
        for (layer, delta) in &self.layers {
            for (name, start, end) in &delta.retracts {
                out.push(DeltaOp::Retract {
                    layer: layer.clone(),
                    name: name.clone(),
                    start: *start,
                    end: *end,
                });
            }
            for a in &delta.inserts {
                out.push(DeltaOp::Insert {
                    layer: layer.clone(),
                    name: a.name.clone(),
                    start: a.start,
                    end: a.end,
                    attrs: a.attrs.clone(),
                });
            }
        }
        out
    }

    fn check_layer<'a>(&self, layer: &str, set: &'a LayerSet) -> Result<&'a Layer, StoreError> {
        let target = set
            .layer(layer)
            .ok_or_else(|| StoreError::Delta(format!("no layer named {layer:?}")))?;
        if layer == set.base().name() {
            return Err(StoreError::Delta(format!(
                "layer {layer:?} is the base document; deltas target annotation layers"
            )));
        }
        Ok(target)
    }
}

/// Fold `delta` into `set`: every layer with pending mutations is
/// rebuilt — matching retracted subtrees dropped, inserts appended to
/// the layer root in insertion order — and re-validated through
/// [`Layer::build`]; untouched layers are shared as-is (`Arc` clones).
/// Records the `store.compact_ns` histogram.
pub fn compact(set: &LayerSet, delta: &DeltaSet) -> Result<LayerSet, StoreError> {
    let started = Instant::now();
    let mut layers: Vec<Layer> = Vec::with_capacity(set.len());
    for layer in set.layers() {
        match delta.layer_delta(layer.name()) {
            None => layers.push(layer.clone()),
            Some(d) => layers.push(compact_layer(layer, d)?),
        }
    }
    let out = LayerSet::from_layers(set.uri(), layers)?;
    MetricsRegistry::global().record(
        "store.compact_ns",
        started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    Ok(out)
}

fn compact_layer(layer: &Layer, delta: &LayerDelta) -> Result<Layer, StoreError> {
    let doc = layer.doc();
    // Element pres whose subtrees the rebuild skips. Matching is
    // re-derived here (not taken from `retracted_pres`) because the copy
    // needs subtree *roots*, not the expanded node set.
    let mut dropped: Vec<u32> = Vec::new();
    for (name, start, end) in delta.retracts() {
        dropped.extend(layer.annotations_at(name, *start, *end));
    }
    dropped.sort_unstable();
    dropped.dedup();

    let root = root_element_name(doc)
        .ok_or_else(|| StoreError::Delta("layer document has no root element".into()))?;
    let mut b = DocumentBuilder::with_capacity(doc.node_count());
    if let Some(uri) = doc.uri() {
        b.uri(uri);
    }
    let mut inserted_at_root = false;
    // Walk the old document's tree nodes in pre order with an explicit
    // end-stack (the builder wants explicit end_element calls), skipping
    // dropped subtrees whole.
    let mut open: Vec<u32> = Vec::new();
    let mut pre: u32 = 1; // 0 is the document node
    let last = doc.node_count() as u32 - 1;
    while pre <= last {
        while let Some(&top) = open.last() {
            if pre > top + doc.size(top) {
                // Closing the root element? Append the inserts first —
                // that is where compaction and the merge-on-read sibling
                // document agree to put them.
                if open.len() == 1 && !inserted_at_root {
                    for a in delta.inserts() {
                        append_insert(&mut b, a, layer.config());
                    }
                    inserted_at_root = true;
                }
                b.end_element();
                open.pop();
            } else {
                break;
            }
        }
        if dropped.binary_search(&pre).is_ok() {
            pre += doc.size(pre) + 1;
            continue;
        }
        match doc.kind(pre) {
            NodeKind::Element => {
                let name = doc.names().lexical(doc.name_id(pre));
                b.start_element(&name);
                for attr in doc.attributes(pre) {
                    let a = attr.attr_index().expect("attribute node");
                    b.attribute(&doc.names().lexical(doc.attr_name_id(a)), doc.attr_value(a));
                }
                open.push(pre);
            }
            NodeKind::Text => {
                b.text(doc.value(pre));
            }
            NodeKind::Comment => {
                b.comment(doc.value(pre));
            }
            NodeKind::Pi => {
                b.pi(&doc.names().lexical(doc.name_id(pre)), doc.value(pre));
            }
            NodeKind::Document => unreachable!("document node inside the tree"),
        }
        pre += 1;
    }
    while let Some(top) = open.pop() {
        if open.is_empty() && !inserted_at_root {
            for a in delta.inserts() {
                append_insert(&mut b, a, layer.config());
            }
            inserted_at_root = true;
        }
        let _ = top;
        b.end_element();
    }
    debug_assert!(inserted_at_root || delta.inserts().is_empty() || root.is_empty());
    let doc = b
        .finish()
        .map_err(|e| StoreError::Delta(format!("compacted document: {e}")))?;
    Layer::build(layer.name(), doc, layer.config().clone())
}

fn append_insert(b: &mut DocumentBuilder, a: &DeltaAnnotation, config: &StandoffConfig) {
    b.start_element(&a.name);
    b.attribute(&config.start_name, &a.start.to_string());
    b.attribute(&config.end_name, &a.end.to_string());
    for (k, v) in &a.attrs {
        b.attribute(k, v);
    }
    b.end_element();
}

fn root_element(doc: &Document) -> Option<u32> {
    doc.children(0).find(|&c| doc.kind(c) == NodeKind::Element)
}

fn root_element_name(doc: &Document) -> Option<String> {
    root_element(doc).map(|c| doc.names().lexical(doc.name_id(c)))
}

fn check_token(s: &str, what: &str) -> Result<(), StoreError> {
    let bad = s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || matches!(c, '<' | '>' | '"' | '\'' | '=' | '/' | '&'));
    if bad {
        Err(StoreError::Delta(format!("bad {what}: {s:?}")))
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sidecar text format
// ---------------------------------------------------------------------

/// Parse the delta sidecar text format, one op per line:
///
/// ```text
/// # comment / blank lines ignored
/// insert  <layer> <name> <start> <end> [k=v ...]
/// retract <layer> <name> <start> <end>
/// ```
///
/// Tokens are whitespace-separated; names and values must therefore be
/// whitespace-free (enforced again at [`DeltaSet::apply`] time).
pub fn parse_ops(text: &str) -> Result<Vec<DeltaOp>, StoreError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let op = tok.next().unwrap();
        let bad = |msg: &str| {
            StoreError::Delta(format!("line {}: {} in {:?}", lineno + 1, msg, raw.trim()))
        };
        let mut field = |what: &str| tok.next().map(str::to_string).ok_or_else(|| bad(what));
        let layer = field("missing layer")?;
        let name = field("missing element name")?;
        let start: i64 = field("missing start")?
            .parse()
            .map_err(|_| bad("bad start position"))?;
        let end: i64 = field("missing end")?
            .parse()
            .map_err(|_| bad("bad end position"))?;
        match op {
            "insert" => {
                let mut attrs = Vec::new();
                for kv in tok {
                    let (k, v) = kv.split_once('=').ok_or_else(|| bad("attribute not k=v"))?;
                    attrs.push((k.to_string(), v.to_string()));
                }
                out.push(DeltaOp::Insert {
                    layer,
                    name,
                    start,
                    end,
                    attrs,
                });
            }
            "retract" => {
                if tok.next().is_some() {
                    return Err(bad("trailing tokens after retract"));
                }
                out.push(DeltaOp::Retract {
                    layer,
                    name,
                    start,
                    end,
                });
            }
            other => return Err(bad(&format!("unknown op {other:?}"))),
        }
    }
    Ok(out)
}

/// Serialize ops into the sidecar text format ([`parse_ops`] inverse).
pub fn ops_to_text(ops: &[DeltaOp]) -> String {
    let mut out = String::new();
    for op in ops {
        match op {
            DeltaOp::Insert {
                layer,
                name,
                start,
                end,
                attrs,
            } => {
                out.push_str(&format!("insert {layer} {name} {start} {end}"));
                for (k, v) in attrs {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
            DeltaOp::Retract {
                layer,
                name,
                start,
                end,
            } => {
                out.push_str(&format!("retract {layer} {name} {start} {end}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_xml::parse_document;

    fn sample_set() -> LayerSet {
        let base = parse_document(r#"<text>hello stand-off world</text>"#).unwrap();
        let mut set = LayerSet::build("mem://sample", base, StandoffConfig::default()).unwrap();
        let tokens = parse_document(
            r#"<tokens>
                 <w start="0" end="4" kind="word"/>
                 <w start="6" end="14" kind="word"/>
                 <w start="16" end="20" kind="word"/>
               </tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        set
    }

    fn insert(layer: &str, name: &str, start: i64, end: i64) -> DeltaOp {
        DeltaOp::Insert {
            layer: layer.into(),
            name: name.into(),
            start,
            end,
            attrs: vec![],
        }
    }

    fn retract(layer: &str, name: &str, start: i64, end: i64) -> DeltaOp {
        DeltaOp::Retract {
            layer: layer.into(),
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn apply_validates_layers_and_regions() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        assert!(delta.apply(insert("nope", "w", 0, 1), &set).is_err());
        assert!(delta.apply(insert("base", "w", 0, 1), &set).is_err());
        assert!(delta.apply(insert("tokens", "w", 5, 1), &set).is_err());
        assert!(delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "w".into(),
                    start: 0,
                    end: 1,
                    attrs: vec![("start".into(), "7".into())],
                },
                &set
            )
            .is_err());
        assert!(delta.apply(retract("tokens", "w", 1, 2), &set).is_err());
        assert!(delta.is_empty());

        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        assert_eq!(delta.insert_count(), 1);
        assert_eq!(delta.retract_count(), 1);
        // Double retract of the same annotation is rejected.
        assert!(delta.apply(retract("tokens", "w", 0, 4), &set).is_err());
    }

    #[test]
    fn retract_matching_the_layer_root_is_rejected() {
        let base = parse_document("<text>hello world!</text>").unwrap();
        let mut set = LayerSet::build("mem://root", base, StandoffConfig::default()).unwrap();
        // The root is itself an annotation, and shares its extent and
        // name with a nested element.
        let tokens = parse_document(
            r#"<tokens start="0" end="12"><w start="0" end="4"/><tokens start="0" end="12"/></tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        let mut delta = DeltaSet::new();
        delta.apply(insert("tokens", "w", 6, 11), &set).unwrap();
        let err = delta
            .apply(retract("tokens", "tokens", 0, 12), &set)
            .unwrap_err();
        assert!(matches!(&err, StoreError::Delta(m) if m.contains("root element")));
        assert_eq!(delta.retract_count(), 0, "nothing recorded");
        // The delta stays usable: other retracts apply and it compacts.
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        let folded = compact(&set, &delta).unwrap();
        let tokens = folded.layer("tokens").unwrap();
        assert_eq!(tokens.doc().elements_named("w").len(), 1);
        assert_eq!(tokens.doc().elements_named("tokens").len(), 2);
    }

    #[test]
    fn retract_cancels_pending_insert() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        delta.apply(retract("tokens", "ner", 6, 14), &set).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.retract_count(), 0);
    }

    /// Replace in place — retract an annotation, insert another at the
    /// same key — must survive `to_ops` → `apply`: replayed insert-first,
    /// the retract cancelled the pending insert and the old annotation
    /// came back.
    #[test]
    fn to_ops_replays_a_replace_in_place() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "w".into(),
                    start: 0,
                    end: 4,
                    attrs: vec![("kind".into(), "replaced".into())],
                },
                &set,
            )
            .unwrap();
        // A second layer-independent mutation rides along.
        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();

        let mut replayed = DeltaSet::new();
        replayed.apply_all(delta.to_ops(), &set).unwrap();
        assert_eq!(replayed.insert_count(), 2);
        assert_eq!(replayed.retract_count(), 1);
        assert_eq!(replayed.to_ops(), delta.to_ops());
        // And through the sidecar text form.
        let mut from_text = DeltaSet::new();
        from_text
            .apply_all(parse_ops(&ops_to_text(&delta.to_ops())).unwrap(), &set)
            .unwrap();
        assert_eq!(from_text.to_ops(), delta.to_ops());

        for d in [&delta, &replayed, &from_text] {
            let folded = compact(&set, d).unwrap();
            let doc = folded.layer("tokens").unwrap().doc();
            let kinds: Vec<&str> = doc
                .elements_named("w")
                .iter()
                .map(|&w| doc.attribute(w, "kind").unwrap())
                .collect();
            assert_eq!(kinds, ["word", "word", "replaced"]);
        }
    }

    #[test]
    fn retracted_pres_cover_whole_subtrees() {
        let base = parse_document("<t>abcdef</t>").unwrap();
        let mut set = LayerSet::build("mem://sub", base, StandoffConfig::default()).unwrap();
        let spans = parse_document(
            r#"<spans><s start="0" end="2"><note>n</note></s><s start="3" end="5"/></spans>"#,
        )
        .unwrap();
        set.add_layer("spans", spans, StandoffConfig::default())
            .unwrap();
        let mut delta = DeltaSet::new();
        delta.apply(retract("spans", "s", 0, 2), &set).unwrap();
        let layer = set.layer("spans").unwrap();
        let hidden = delta.layer_delta("spans").unwrap().retracted_pres(layer);
        let s = layer.doc().elements_named("s")[0];
        let mut expect: Vec<u32> = vec![s];
        expect.extend(layer.doc().descendants(s));
        assert_eq!(hidden, expect);
        assert!(hidden.len() >= 3, "element, child element, text");
    }

    #[test]
    fn compact_folds_inserts_and_retracts() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "ner".into(),
                    start: 6,
                    end: 14,
                    attrs: vec![("class".into(), "MISC".into())],
                },
                &set,
            )
            .unwrap();
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        let folded = compact(&set, &delta).unwrap();
        // Base untouched — shares the exact document.
        assert!(std::sync::Arc::ptr_eq(
            &set.base().doc_arc(),
            &folded.base().doc_arc()
        ));
        let tokens = folded.layer("tokens").unwrap();
        assert_eq!(tokens.doc().elements_named("w").len(), 2);
        let ner = tokens.doc().elements_named("ner");
        assert_eq!(ner.len(), 1);
        assert_eq!(tokens.doc().attribute(ner[0], "class"), Some("MISC"));
        assert_eq!(tokens.doc().attribute(ner[0], "start"), Some("6"));
        // Inserts land after the surviving originals, as root children.
        let last_w = tokens.doc().elements_named("w")[1];
        assert!(ner[0] > last_w);
        // The rebuilt layer re-validated: index covers 2 + 1 annotations.
        assert_eq!(tokens.annotation_count(), 3);
    }

    #[test]
    fn compact_without_delta_shares_layers() {
        let set = sample_set();
        let folded = compact(&set, &DeltaSet::new()).unwrap();
        for (a, b) in set.layers().iter().zip(folded.layers()) {
            assert!(std::sync::Arc::ptr_eq(&a.doc_arc(), &b.doc_arc()));
        }
    }

    #[test]
    fn sidecar_text_roundtrip() {
        let text = "# delta\ninsert tokens ner 6 14 class=MISC\nretract tokens w 0 4\n";
        let ops = parse_ops(text).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            DeltaOp::Insert {
                layer: "tokens".into(),
                name: "ner".into(),
                start: 6,
                end: 14,
                attrs: vec![("class".into(), "MISC".into())],
            }
        );
        let round = ops_to_text(&ops);
        assert_eq!(parse_ops(&round).unwrap(), ops);
        assert!(parse_ops("insert tokens w 0\n").is_err());
        assert!(parse_ops("frobnicate tokens w 0 4\n").is_err());
        assert!(parse_ops("retract tokens w 0 4 extra\n").is_err());
    }

    #[test]
    fn insert_doc_mirrors_compaction_shape() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        let layer = set.layer("tokens").unwrap();
        let doc = delta
            .layer_delta("tokens")
            .unwrap()
            .insert_doc(layer)
            .unwrap()
            .unwrap();
        // Root carries the layer root's name; one child per insert.
        let roots = doc.elements_named("tokens");
        assert_eq!(roots.len(), 1);
        assert_eq!(doc.elements_named("ner").len(), 1);
        // Retract-only deltas need no sibling document.
        let mut d2 = DeltaSet::new();
        d2.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        assert!(d2
            .layer_delta("tokens")
            .unwrap()
            .insert_doc(layer)
            .unwrap()
            .is_none());
    }
}
