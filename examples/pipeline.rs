//! An incremental annotation pipeline over writable overlay layers.
//!
//! The paper's workflow assumes annotation layers arrive *fully built*
//! and immutable. Real pipelines grow them in stages: a tokenizer lays
//! down `w` regions, a named-entity tagger adds `entity` regions (and
//! revises a tokenizer mistake), and queries run between the stages —
//! without re-indexing the corpus. This example drives that workflow
//! through [`standoff::xquery::WritableEngine`]:
//!
//! 1. mount a corpus with empty annotation layers,
//! 2. apply tokenizer output as a batch of delta inserts,
//! 3. apply NER output — including a *retraction* fixing a token,
//! 4. query the view — the delta folded in — with a cross-layer
//!    StandOff join,
//! 5. compact into a delta-free snapshot and show the answers agree.
//!
//! Run with: `cargo run --example pipeline`

use standoff::core::StandoffConfig;
use standoff::store::{DeltaOp, LayerSet};
use standoff::xml::parse_document;
use standoff::xquery::{EngineOptions, WritableEngine};

const URI: &str = "mem://pipeline";
const TEXT: &str = "Marie Curie studied in Paris with Pierre Curie.";

fn insert(layer: &str, name: &str, start: i64, end: i64, attrs: &[(&str, &str)]) -> DeltaOp {
    DeltaOp::Insert {
        layer: layer.into(),
        name: name.into(),
        start,
        end,
        attrs: attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// A toy whitespace tokenizer: one `w` region per word.
fn tokenize(text: &str) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    let mut start = None;
    for (k, ch) in text.char_indices().chain([(text.len(), ' ')]) {
        match (ch.is_whitespace() || ch == '.', start) {
            (false, None) => start = Some(k),
            (true, Some(s)) => {
                ops.push(insert("tokens", "w", s as i64, k as i64 - 1, &[]));
                start = None;
            }
            _ => {}
        }
    }
    ops
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stage 0: the corpus — base text plus two empty annotation layers
    // the pipeline will fill in. (Layers can also start non-empty, e.g.
    // from a snapshot: see `standoff-xq annotate`.)
    let base = parse_document(&format!("<text>{TEXT}</text>"))?;
    let mut set = LayerSet::build(URI, base, StandoffConfig::default())?;
    set.add_layer(
        "tokens",
        parse_document("<tokens/>")?,
        StandoffConfig::default(),
    )?;
    set.add_layer(
        "entities",
        parse_document("<entities/>")?,
        StandoffConfig::default(),
    )?;
    let mut engine = WritableEngine::mount(set, EngineOptions::default())?;

    // Stage 1: tokenizer.
    let n = engine.apply(tokenize(TEXT))?;
    let tokens = engine.session().run(&count("tokens", "w"))?.as_xml();
    println!(
        "tokenizer: +{n} ops, {tokens} tokens (generation {})",
        engine.generation()
    );

    // Stage 2: named-entity tagger. It adds multi-word entities whose
    // regions *span* the underlying tokens ("Marie Curie" covers two `w`
    // regions), and it revises the tokenizer's output: the bare token
    // "with" gets retracted and re-inserted carrying a part-of-speech
    // attribute — the overlay's update idiom for annotation layers.
    let ner = vec![
        insert("entities", "entity", 0, 10, &[("class", "PER")]),
        insert("entities", "entity", 23, 27, &[("class", "LOC")]),
        insert("entities", "entity", 34, 45, &[("class", "PER")]),
        DeltaOp::Retract {
            layer: "tokens".into(),
            name: "w".into(),
            start: 29,
            end: 32,
        },
        insert("tokens", "w", 29, 32, &[("pos", "ADP")]),
    ];
    let n = engine.apply(ner)?;
    println!(
        "ner:       +{n} ops, {} entities (generation {})",
        engine.session().run(&count("entities", "entity"))?.as_xml(),
        engine.generation()
    );

    // Stage 3: query the view — which tokens does each entity cover? A
    // cross-layer StandOff join: entity regions inserted into one layer
    // select token regions of another, checkpointed and pending alike.
    let join = format!(
        r#"for $e in layer("{URI}", "entities")//entity
           return <hit class="{{string($e/@class)}}">{{count($e/select-wide::w)}}</hit>"#
    );
    let merged = engine.session().run(&join)?.as_xml();
    println!("join over overlay:   {merged}");

    // Stage 4: compact. The view becomes the checkpoint, pending state
    // clears, and every answer is byte-identical — readers were already
    // querying the compaction.
    let folded = engine.compact()?;
    let compacted = engine.session().run(&join)?.as_xml();
    println!("join after compact:  {compacted}");
    assert_eq!(merged, compacted, "compaction must not change answers");
    assert!(engine.delta().is_empty());
    println!(
        "compacted {} layer(s), {} annotations total",
        folded.len(),
        folded
            .layers()
            .iter()
            .map(|l| l.annotation_count())
            .sum::<usize>()
    );
    Ok(())
}

fn count(layer: &str, elem: &str) -> String {
    format!(r#"count(layer("{URI}", "{layer}")//{elem})"#)
}
