//! Writable deltas over immutable layer sets.
//!
//! A [`LayerSet`] (and a fortiori a mounted SOSN snapshot) is immutable:
//! its documents are shredded, its region indexes are clustered columns.
//! Mutation is recorded *beside* it as a [`DeltaSet`] — per annotation
//! layer, a list of **inserted** annotations (new stand-off elements
//! over the same BLOB) and a list of **retracted** ones (existing
//! annotations to hide). The delta is the durable truth: it is what the
//! sidecar and the write-ahead log hold. What readers see is its
//! compaction — [`compact`] folds a whole delta into a fresh, delta-free
//! `LayerSet`, and [`fold`] folds one more batch into such a compacted
//! view, so a writer never serves anything but a compacted layer set:
//!
//! * an insert becomes an empty element carrying the `start`/`end`
//!   attributes the layer's [`standoff_core::StandoffConfig`] prescribes,
//!   appended to the layer root in insertion order — the pending inserts
//!   are always the root's last children;
//! * a retraction drops the **whole subtree** of every matching
//!   annotation element.
//!
//! Deltas target annotation layers only: the base layer is the document
//! under annotation, not an annotation set, and rewriting it would
//! invalidate every region of every layer above it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use standoff_core::{MetricsRegistry, Region};
use standoff_xml::{Document, NewElement, NodeKind};

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
/// copied — matching retracted subtrees dropped, inserts appended to
/// the layer root in insertion order; untouched layers are shared as-is
/// (`Arc` clones). It is [`fold`] of the delta's replayable ops into
/// the set with nothing pending, and records the `store.compact_ns`
/// histogram (not `store.fold_ns`).
pub fn compact(set: &LayerSet, delta: &DeltaSet) -> Result<LayerSet, StoreError> {
    let started = Instant::now();
    let out = fold_ops(set, &DeltaSet::new(), &delta.to_ops())?;
    MetricsRegistry::global().record(
        "store.compact_ns",
        started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    Ok(out)
}

/// Fold one accepted batch into a compacted view: `view` is
/// `compact(checkpoint, pending)`, and `batch` is what
/// [`DeltaSet::apply_all`] just accepted on top of `pending` against
/// the checkpoint. The result is `compact(checkpoint, pending + batch)`,
/// built from the view alone — so a writer keeps its readers on a
/// compacted layer set without replaying what is pending.
///
/// A compacted layer keeps its pending inserts as the last children of
/// its root, in insertion order. A batch insert appends one more; a
/// retract either cancels pending inserts with its key (drops them from
/// that tail, as [`DeltaSet::apply`] drops them from the delta) or
/// hides the annotations the view holds at the key, whole subtrees —
/// the base annotations the checkpoint holds there, minus any already
/// hidden with an enclosing subtree. Each touched layer is spliced
/// once, column by column ([`Document::splice`]), so a batch costs a
/// copy of the layers it touches, whatever is pending; the others are
/// shared. Records the `store.fold_ns` histogram (per batch: a whole
/// delta's [`compact`] records `store.compact_ns` instead).
pub fn fold(
    view: &LayerSet,
    pending: &DeltaSet,
    batch: &[DeltaOp],
) -> Result<LayerSet, StoreError> {
    let started = Instant::now();
    let out = fold_ops(view, pending, batch)?;
    MetricsRegistry::global().record(
        "store.fold_ns",
        started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    Ok(out)
}

fn fold_ops(
    view: &LayerSet,
    pending: &DeltaSet,
    batch: &[DeltaOp],
) -> Result<LayerSet, StoreError> {
    let mut layers: Vec<Layer> = Vec::with_capacity(view.len());
    for layer in view.layers() {
        let ops: Vec<&DeltaOp> = (batch.iter())
            .filter(|op| op_layer(op) == layer.name())
            .collect();
        if ops.is_empty() {
            layers.push(layer.clone());
            continue;
        }
        let old = pending
            .layer_delta(layer.name())
            .map_or(&[][..], |d| d.inserts());
        layers.push(fold_layer(layer, old, &ops)?);
    }
    LayerSet::from_layers(view.uri(), layers)
}

fn op_layer(op: &DeltaOp) -> &str {
    match op {
        DeltaOp::Insert { layer, .. } | DeltaOp::Retract { layer, .. } => layer,
    }
}

/// One layer of [`fold`]: `old` are the layer's pending inserts, the
/// last `old.len()` children of its root.
fn fold_layer(
    layer: &Layer,
    old: &[DeltaAnnotation],
    ops: &[&DeltaOp],
) -> Result<Layer, StoreError> {
    let doc = layer.doc();
    // The copy reads every column group: verified first, so stored
    // bytes that fail their checks are never copied into a new layer.
    doc.verify()?;
    let tree = doc.tree()?;
    let root = root_element(doc)
        .ok_or_else(|| StoreError::Delta("layer document has no root element".into()))?;
    // Pending inserts are empty elements, so as the root's last children
    // they hold the last pre ranks of its subtree.
    let end = root + tree.size(root);
    let first = (end + 1).checked_sub(old.len() as u32).filter(|&first| {
        first > root
            && (first..=end).all(|pre| {
                doc.kind(pre) == NodeKind::Element
                    && tree.size(pre) == 0
                    && tree.parent(pre) == root
            })
    });
    let Some(first) = first else {
        return Err(StoreError::Delta(format!(
            "layer {:?} does not end in its {} pending inserts",
            layer.name(),
            old.len()
        )));
    };
    // The insert tail after the batch: a pending insert keeps its pre,
    // a batch insert has none yet.
    let mut tail: Vec<(Option<u32>, Cow<DeltaAnnotation>)> = (first..=end)
        .zip(old)
        .map(|(pre, a)| (Some(pre), Cow::Borrowed(a)))
        .collect();
    // Element pres whose subtrees the copy leaves out.
    let mut dropped: Vec<u32> = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Insert {
                name,
                start,
                end,
                attrs,
                ..
            } => {
                let a = DeltaAnnotation {
                    name: name.clone(),
                    start: *start,
                    end: *end,
                    attrs: attrs.clone(),
                };
                tail.push((None, Cow::Owned(a)));
            }
            DeltaOp::Retract {
                name, start, end, ..
            } => {
                let before = tail.len();
                tail.retain(|(pre, a)| {
                    let cancel = a.name == *name && a.start == *start && a.end == *end;
                    if cancel {
                        dropped.extend(*pre);
                    }
                    !cancel
                });
                if tail.len() == before {
                    dropped.extend(layer.annotations_at(name, *start, *end));
                }
            }
        }
    }
    dropped.sort_unstable();
    dropped.dedup();
    let appended: Vec<&DeltaAnnotation> = (tail.iter())
        .filter(|(pre, _)| pre.is_none())
        .map(|(_, a)| a.as_ref())
        .collect();
    splice_layer(layer, &dropped, &appended)
}

/// Splice `layer` ([`Document::splice`]): the subtrees rooted at
/// `dropped` (ascending) go, `appended` become new last children of its
/// root. The copy's region index is derived from the layer's
/// ([`standoff_core::RegionIndex::renumbered`]): the kept annotations'
/// areas are unchanged, only their pre ranks move. Debug builds check
/// the copy ([`Layer::check`]).
fn splice_layer(
    layer: &Layer,
    dropped: &[u32],
    appended: &[&DeltaAnnotation],
) -> Result<Layer, StoreError> {
    let config = layer.config();
    let elements: Vec<NewElement> = (appended.iter())
        .map(|a| NewElement {
            name: a.name.clone(),
            attrs: [
                (config.start_name.clone(), a.start.to_string()),
                (config.end_name.clone(), a.end.to_string()),
            ]
            .into_iter()
            .chain(a.attrs.iter().cloned())
            .collect(),
        })
        .collect();
    let (folded, moved) = (layer.doc())
        .splice(dropped, &elements)
        .map_err(|e| StoreError::Delta(format!("compacted document: {e}")))?;
    let added = (moved.added().zip(appended))
        .map(|(pre, a)| {
            let region = Region::new(a.start, a.end)
                .map_err(|e| StoreError::Delta(format!("insert: {e}")))?;
            Ok((pre, region))
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let index = layer.index().renumbered(&moved, &added);
    let folded = Layer::from_shared(
        layer.name().to_string(),
        config.clone(),
        Arc::new(folded),
        Arc::new(index),
    )?;
    debug_assert_eq!(folded.check().map_err(|e| e.to_string()), Ok(()));
    Ok(folded)
}

/// The root element: the first element in document order — whatever
/// precedes it is a comment or PI child of the document node.
fn root_element(doc: &Document) -> Option<u32> {
    (doc.kinds().iter())
        .position(|&k| k == NodeKind::Element as u8)
        .map(|pre| pre as u32)
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
    use standoff_core::StandoffConfig;
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
            let kinds: Vec<String> = doc
                .elements_named("w")
                .iter()
                .map(|&w| doc.attribute(w, "kind").unwrap().unwrap().to_string())
                .collect();
            assert_eq!(kinds, ["word", "word", "replaced"]);
        }
    }

    /// Batch by batch, [`fold`] reaches what [`compact`] makes of the
    /// whole delta — across a retract of a nested annotation whose
    /// enclosing subtree went first, a replace in place, and a retract
    /// that cancels a pending insert while a base annotation with the
    /// same key stays.
    #[test]
    fn folding_batches_equals_compacting_the_delta() {
        let base = parse_document("<t>abcdefghij</t>").unwrap();
        let mut set = LayerSet::build("mem://fold", base, StandoffConfig::default()).unwrap();
        let spans = parse_document(
            r#"<spans><s start="0" end="2"><s start="1" end="1"/></s><s start="3" end="5"/><s start="6" end="7"/></spans>"#,
        )
        .unwrap();
        set.add_layer("spans", spans, StandoffConfig::default())
            .unwrap();
        let batches = [
            vec![insert("spans", "s", 8, 9), insert("spans", "s", 3, 5)],
            vec![insert("spans", "ner", 4, 4)],
            vec![retract("spans", "s", 0, 2), retract("spans", "s", 6, 7)],
            vec![retract("spans", "ner", 4, 4)],
            vec![retract("spans", "s", 1, 1), insert("spans", "s", 6, 7)],
            vec![retract("spans", "s", 3, 5), insert("spans", "s", 2, 2)],
            vec![retract("spans", "s", 8, 9)],
        ];
        let xml = |set: &LayerSet| {
            let doc = set.layer("spans").unwrap().doc();
            standoff_xml::serialize_document(doc, Default::default())
        };
        let (mut delta, mut view) = (DeltaSet::new(), set.clone());
        for batch in &batches {
            let mut next = delta.clone();
            next.apply_all(batch.iter().cloned(), &set).unwrap();
            view = fold(&view, &delta, batch).unwrap();
            delta = next;
            assert_eq!(xml(&view), xml(&compact(&set, &delta).unwrap()));
        }
        // The base `s[3,5]` outlived the cancel of its pending twin.
        assert_eq!(
            xml(&view),
            r#"<spans><s start="3" end="5"/><s start="6" end="7"/><s start="2" end="2"/></spans>"#
        );
        assert_eq!(view.layer("spans").unwrap().annotation_count(), 3);
        // `ner` lost its last element but keeps its name id; the view
        // still writes, verifies and mounts as a snapshot.
        let path = std::env::temp_dir().join(format!("standoff-fold-{}.snap", std::process::id()));
        crate::save_snapshot(&view, &path).unwrap();
        let mounted = crate::Snapshot::open(&path).unwrap();
        mounted.verify().unwrap();
        assert_eq!(xml(&mounted.to_layer_set().unwrap()), xml(&view));
        let _ = std::fs::remove_file(&path);
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
        assert_eq!(
            tokens.doc().attribute(ner[0], "class").unwrap().as_deref(),
            Some("MISC")
        );
        assert_eq!(
            tokens.doc().attribute(ner[0], "start").unwrap().as_deref(),
            Some("6")
        );
        // Inserts land after the surviving originals, as root children.
        let last_w = tokens.doc().elements_named("w")[1];
        assert!(ner[0] > last_w);
        // The spliced layer's index covers 2 + 1 annotations.
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
}
