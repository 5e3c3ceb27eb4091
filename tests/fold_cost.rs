//! What one write costs a writer whose readers mount the compacted
//! view: `WritableEngine::apply` folds each batch into the view, so a
//! batch costs one copy of the layer it touches, whatever is pending.
//!
//! The corpus has the `annotate_rw` shape — XMark as the base layer, one
//! `w` per BLOB word, one `entity` over three words out of every twenty
//! — and so does the op stream: a 512-insert prefill checkpointed, then
//! batches of sixteen inserts and sixteen retracts of the oldest live
//! inserted annotations (pending ones, and once a checkpoint passed
//! them, checkpointed ones).
//!
//! The tier-1 test checks the fold against the one-shot compaction over
//! a short stream. The probe prints the median `apply` time at 1, 16, 32
//! and 1 000 pending batches at `xmark_m` scale, once for a stream into
//! the small `entities` layer and once for the same stream of `w` into
//! the `tokens` layer, twenty times larger; run it with
//! `cargo test --release --test fold_cost -- --ignored --nocapture`.

use std::time::Instant;

use standoff::core::StandoffConfig;
use standoff::store::{compact, DeltaOp, LayerSet};
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xml::{parse_document, try_serialize_document, SerializeOptions};
use standoff::xquery::{EngineOptions, WritableEngine};

/// The three layers at XMark `scale`, and the slots new entities go to.
fn corpus(scale: f64) -> (LayerSet, Vec<(i64, i64)>) {
    let so = standoffify(&generate(&XmarkConfig::with_scale(scale)), 7);
    let mut words: Vec<(i64, i64)> = Vec::new();
    let mut start = None;
    for (i, b) in so.blob.bytes().chain([b' ']).enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i as i64),
            (true, Some(s)) => {
                words.push((s, i as i64 - 1));
                start = None;
            }
            _ => {}
        }
    }
    let span = |first: usize| (words[first].0, words[first + 2].1);
    let mut tokens = String::from("<tokens>");
    for (k, (s, e)) in words.iter().enumerate() {
        tokens.push_str(&format!(r#"<w n="{}" start="{s}" end="{e}"/>"#, k % 100));
    }
    tokens.push_str("</tokens>");
    let mut entities = String::from("<entities>");
    for first in (0..words.len() - 2).step_by(20) {
        let (s, e) = span(first);
        entities.push_str(&format!(r#"<entity kind="seed" start="{s}" end="{e}"/>"#));
    }
    entities.push_str("</entities>");
    let slots = (0..words.len().saturating_sub(20))
        .step_by(20)
        .flat_map(|k| [k + 5, k + 10, k + 15])
        .map(span)
        .collect();
    let config = StandoffConfig::default;
    let mut set = LayerSet::build("xmark", so.doc, config()).unwrap();
    set.add_layer("tokens", parse_document(&tokens).unwrap(), config())
        .unwrap();
    set.add_layer("entities", parse_document(&entities).unwrap(), config())
        .unwrap();
    (set, slots)
}

const LIVE: usize = 512;
const HALF: usize = 16;

/// The layer a stream writes to, and the element name it writes.
type Target = (&'static str, &'static str);

const ENTITIES: Target = ("entities", "entity");
const TOKENS: Target = ("tokens", "w");

fn insert((layer, name): Target, (start, end): (i64, i64)) -> DeltaOp {
    DeltaOp::Insert {
        layer: layer.into(),
        name: name.into(),
        start,
        end,
        attrs: vec![("kind".into(), "new".into())],
    }
}

/// Batch `b` after the prefill: sixteen new slots in, the sixteen
/// oldest live ones out.
fn batch(target: Target, slots: &[(i64, i64)], b: usize) -> Vec<DeltaOp> {
    let slot = |k: usize| slots[k % slots.len()];
    let inserts = (0..HALF).map(|j| insert(target, slot(LIVE + b * HALF + j)));
    let retracts = (0..HALF).map(|j| {
        let (start, end) = slot(b * HALF + j);
        DeltaOp::Retract {
            layer: target.0.into(),
            name: target.1.into(),
            start,
            end,
        }
    });
    inserts.chain(retracts).collect()
}

/// A writer after the checkpointed prefill.
fn prefilled(target: Target, set: &LayerSet, slots: &[(i64, i64)]) -> WritableEngine {
    let mut writer = WritableEngine::mount(set.clone(), EngineOptions::default()).unwrap();
    writer
        .apply(slots[..LIVE].iter().map(|&slot| insert(target, slot)))
        .unwrap();
    writer.compact().unwrap();
    writer
}

fn serialized(set: &LayerSet) -> Vec<String> {
    (set.layers().iter())
        .map(|layer| try_serialize_document(layer.doc(), SerializeOptions::default()).unwrap())
        .collect()
}

/// Forty batches across a checkpoint: the folded view is the one-shot
/// compaction of the checkpoint under the pending delta, every time.
#[test]
fn folded_batches_equal_the_compaction_across_a_checkpoint() {
    let (set, slots) = corpus(0.002);
    let mut writer = prefilled(ENTITIES, &set, &slots);
    let count = r#"count(doc("xmark#entities")//entity[@kind = "new"])"#;
    for b in 0..40 {
        writer.apply(batch(ENTITIES, &slots, b)).unwrap();
        if b == 24 {
            writer.compact().unwrap();
        }
        let live = writer.session().run(count).unwrap().as_xml();
        assert_eq!(live, LIVE.to_string(), "after batch {b}");
    }
    let checkpoint = writer.layer_set().clone();
    let folded = compact(&checkpoint, writer.delta()).unwrap();
    assert_eq!(serialized(&writer.compact().unwrap()), serialized(&folded));
}

#[test]
#[ignore = "a timing probe; run in release with --ignored --nocapture"]
fn fold_cost_probe() {
    let (set, slots) = corpus(0.05);
    for target in [ENTITIES, TOKENS] {
        let (layer, _) = target;
        let count = set.layer(layer).unwrap().annotation_count();
        println!("xmark_m: {count} annotations in {layer} before the prefill");
        for pending in [1usize, 16, 32, 1_000] {
            let mut writer = prefilled(target, &set, &slots);
            for b in 0..pending - 1 {
                writer.apply(batch(target, &slots, b)).unwrap();
            }
            // The next batch, timed over clones of the same writer state.
            let mut took: Vec<f64> = (0..15)
                .map(|_| {
                    let mut w = WritableEngine::mount_with_delta(
                        writer.layer_set().clone(),
                        writer.delta().clone(),
                        EngineOptions::default(),
                    )
                    .unwrap();
                    let ops = batch(target, &slots, pending - 1);
                    let started = Instant::now();
                    w.apply(ops).unwrap();
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            took.sort_by(f64::total_cmp);
            println!(
                "{layer}: batch {pending:>4} of a period: apply p50 {:.3} ms (min {:.3}, max {:.3})",
                took[took.len() / 2],
                took[0],
                took[took.len() - 1]
            );
        }
    }
}
