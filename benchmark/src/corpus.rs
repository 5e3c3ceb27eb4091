//! Seeded inputs: the layered XMark corpora, the `annotate_rw` op
//! stream, and the digest that proves two runs saw the same inputs.
//!
//! Everything here is a pure function of `--seed`; the program under
//! test receives only the generated files and requests.

use std::path::{Path, PathBuf};

use standoff::core::crc32;
use standoff::store::DeltaOp;
use standoff::xmark::{generate, standoffify, XmarkConfig};
use standoff::xml::{serialize_document, SerializeOptions};

/// Store URI every corpus is indexed under (`doc("xmark")`,
/// `doc("xmark#tokens")`, `doc("xmark#entities")`).
pub const URI: &str = "xmark";
/// `n` attribute of token `i` is `i % TOKEN_MOD`, so `w[@n = "17"]`
/// selects about 0.1 % of a layer at any scale.
pub const TOKEN_MOD: usize = 997;
/// A seed entity starts every `ENTITY_STRIDE` tokens and spans
/// `ENTITY_SPAN` of them.
pub const ENTITY_STRIDE: usize = 20;
pub const ENTITY_SPAN: usize = 3;
/// Live `kind="new"` entities `annotate_rw` keeps on top of the seeds.
pub const LIVE_NEW: usize = 512;
/// Inserts (and retracts) per `annotate_rw` batch.
pub const BATCH_HALF: usize = 16;
/// Batches between two checkpoints.
pub const CHECKPOINT_EVERY: usize = 32;

/// The three corpus sizes (ISSUE §Corpora).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// XMark 0.005, three layers (~6.5 k / 16 k / 0.8 k annotations).
    S,
    /// XMark 0.05, three layers (~65 k / 164 k / 8 k annotations).
    M,
    /// XMark 0.2 — trace-only, used to fit cost exponents.
    L,
}

impl Scale {
    pub fn factor(self) -> f64 {
        match self {
            Scale::S => 0.005,
            Scale::M => 0.05,
            Scale::L => 0.2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::S => "xmark_s",
            Scale::M => "xmark_m",
            Scale::L => "xmark_l",
        }
    }
}

/// splitmix64: one independent stream per `(seed, lane)`.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generated corpus: the three layers as XML text plus the token
/// geometry the `annotate_rw` stream and its model oracle need.
pub struct Corpus {
    pub scale: Scale,
    pub base_xml: String,
    pub tokens_xml: String,
    pub entities_xml: String,
    /// Inclusive `[start, end]` byte span of every BLOB word, in order.
    pub tokens: Vec<(i64, i64)>,
}

impl Corpus {
    /// Generate the corpus for `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Corpus {
        let src = generate(&XmarkConfig {
            scale: scale.factor(),
            seed: mix(seed, 1),
        });
        let so = standoffify(&src, mix(seed, 2));
        let base_xml = serialize_document(&so.doc, SerializeOptions::default());
        let tokens = word_spans(so.blob.as_bytes());
        let mut tokens_xml = String::with_capacity(tokens.len() * 40 + 32);
        tokens_xml.push_str("<tokens>");
        for (i, (start, end)) in tokens.iter().enumerate() {
            tokens_xml.push_str(&format!(
                "<w n=\"{}\" start=\"{start}\" end=\"{end}\"/>",
                i % TOKEN_MOD
            ));
        }
        tokens_xml.push_str("</tokens>");
        let mut entities_xml = String::from("<entities>");
        for (start, end) in seed_entities(&tokens) {
            entities_xml.push_str(&format!(
                "<entity kind=\"seed\" start=\"{start}\" end=\"{end}\"/>"
            ));
        }
        entities_xml.push_str("</entities>");
        Corpus {
            scale,
            base_xml,
            tokens_xml,
            entities_xml,
            tokens,
        }
    }

    /// Summed bytes of the layer XML (the denominator of
    /// `stored_bytes_per_input_byte`).
    pub fn input_bytes(&self) -> usize {
        self.base_xml.len() + self.tokens_xml.len() + self.entities_xml.len()
    }

    /// Write the three layer files into `dir`; returns their paths
    /// (base, tokens, entities).
    pub fn write_xml(&self, dir: &Path) -> std::io::Result<[PathBuf; 3]> {
        let name = self.scale.name();
        let paths = [
            dir.join(format!("{name}.base.xml")),
            dir.join(format!("{name}.tokens.xml")),
            dir.join(format!("{name}.entities.xml")),
        ];
        std::fs::write(&paths[0], &self.base_xml)?;
        std::fs::write(&paths[1], &self.tokens_xml)?;
        std::fs::write(&paths[2], &self.entities_xml)?;
        Ok(paths)
    }

    /// CRC over the three layers — the corpus part of the run digest.
    pub fn digest(&self) -> u32 {
        crc32(self.base_xml.as_bytes())
            ^ crc32(self.tokens_xml.as_bytes()).rotate_left(11)
            ^ crc32(self.entities_xml.as_bytes()).rotate_left(22)
    }
}

/// Inclusive byte spans of the whitespace-delimited words of `blob`.
pub fn word_spans(blob: &[u8]) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, b) in blob.iter().enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                out.push((s as i64, i as i64 - 1));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s as i64, blob.len() as i64 - 1));
    }
    out
}

/// The span from the start of token `first` to the end of the last of
/// the `ENTITY_SPAN` tokens beginning there.
fn entity_span(tokens: &[(i64, i64)], first: usize) -> (i64, i64) {
    (tokens[first].0, tokens[first + ENTITY_SPAN - 1].1)
}

/// Regions of the `kind="seed"` entities: tokens `20k .. 20k+2`.
pub fn seed_entities(tokens: &[(i64, i64)]) -> Vec<(i64, i64)> {
    (0..tokens.len().saturating_sub(ENTITY_SPAN - 1))
        .step_by(ENTITY_STRIDE)
        .map(|first| entity_span(tokens, first))
        .collect()
}

/// The seeded, stationary `annotate_rw` op stream.
///
/// New entities live on token slots `20k+5`, `20k+10`, `20k+15`: three
/// slots per seed entity, none overlapping a seed or each other, so
/// every live region is unique (a retract hides exactly one element)
/// and `entity_tokens` is predictable. The slots are visited in one
/// seeded permutation, as a ring: batch `b` inserts the next
/// `BATCH_HALF` slots and retracts the `BATCH_HALF` oldest live ones.
/// The ring is longer than `LIVE_NEW + BATCH_HALF`, so a slot is never
/// inserted while still live.
pub struct OpStream {
    /// Slot regions in ring order.
    ring: Vec<(i64, i64)>,
}

impl OpStream {
    pub fn new(seed: u64, tokens: &[(i64, i64)]) -> OpStream {
        let mut ring: Vec<(i64, i64)> = (0..tokens.len().saturating_sub(ENTITY_STRIDE))
            .step_by(ENTITY_STRIDE)
            .flat_map(|k| [k + 5, k + 10, k + 15])
            .map(|first| entity_span(tokens, first))
            .collect();
        // Fisher–Yates under a splitmix stream.
        let mut state = mix(seed, 3);
        for i in (1..ring.len()).rev() {
            state = mix(state, i as u64);
            ring.swap(i, (state % (i as u64 + 1)) as usize);
        }
        assert!(
            ring.len() > LIVE_NEW + BATCH_HALF,
            "corpus too small for the annotate_rw ring ({} slots)",
            ring.len()
        );
        OpStream { ring }
    }

    /// Every region the stream can ever insert, in ring order.
    pub fn slots(&self) -> &[(i64, i64)] {
        &self.ring
    }

    fn slot(&self, k: usize) -> (i64, i64) {
        self.ring[k % self.ring.len()]
    }

    fn insert(&self, k: usize) -> DeltaOp {
        let (start, end) = self.slot(k);
        DeltaOp::Insert {
            layer: "entities".into(),
            name: "entity".into(),
            start,
            end,
            attrs: vec![("kind".into(), "new".into())],
        }
    }

    /// The untimed prefill: `LIVE_NEW` inserts in one batch.
    pub fn prefill(&self) -> Vec<DeltaOp> {
        (0..LIVE_NEW).map(|k| self.insert(k)).collect()
    }

    /// Steady-state batch `b` (0-based, after the prefill): 16 inserts
    /// and 16 retracts of the oldest live new entities.
    pub fn batch(&self, b: usize) -> Vec<DeltaOp> {
        let mut ops = Vec::with_capacity(2 * BATCH_HALF);
        for j in 0..BATCH_HALF {
            ops.push(self.insert(LIVE_NEW + b * BATCH_HALF + j));
        }
        for j in 0..BATCH_HALF {
            let (start, end) = self.slot(b * BATCH_HALF + j);
            ops.push(DeltaOp::Retract {
                layer: "entities".into(),
                name: "entity".into(),
                start,
                end,
            });
        }
        ops
    }

    /// Regions of the new entities live after `batches` steady-state
    /// batches (the model side of the `annotate_rw` oracle).
    pub fn live_after(&self, batches: usize) -> Vec<(i64, i64)> {
        let first = batches * BATCH_HALF;
        (first..first + LIVE_NEW).map(|k| self.slot(k)).collect()
    }

    /// CRC over the first `batches` batches — the op-stream part of the
    /// run digest.
    pub fn digest(&self, batches: usize) -> u32 {
        let mut text = String::new();
        for b in 0..batches {
            for op in self.batch(b) {
                match op {
                    DeltaOp::Insert { start, end, .. } => {
                        text.push_str(&format!("i{start}-{end};"))
                    }
                    DeltaOp::Retract { start, end, .. } => {
                        text.push_str(&format!("r{start}-{end};"))
                    }
                }
            }
        }
        crc32(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn word_spans_are_inclusive_and_skip_whitespace() {
        assert_eq!(
            word_spans(b"ab  c\nde"),
            vec![(0, 1), (4, 4), (6, 7)],
            "two spaces and a terminator separate words"
        );
        assert_eq!(word_spans(b"\n \n"), vec![]);
        assert_eq!(word_spans(b"x"), vec![(0, 0)]);
    }

    #[test]
    fn same_seed_same_corpus_and_stream() {
        let a = Corpus::generate(7, Scale::S);
        let b = Corpus::generate(7, Scale::S);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(
            OpStream::new(7, &a.tokens).digest(64),
            OpStream::new(7, &b.tokens).digest(64)
        );
        let c = Corpus::generate(8, Scale::S);
        assert_ne!(a.digest(), c.digest(), "the seed reaches the generator");
        assert_ne!(
            OpStream::new(7, &a.tokens).digest(64),
            OpStream::new(8, &a.tokens).digest(64),
            "the seed reaches the op stream"
        );
    }

    /// Replay the stream on a plain set: the entity count after ten
    /// checkpoint cycles equals the count after two, no retract ever
    /// misses, and no insert duplicates a live region.
    #[test]
    fn op_stream_is_stationary() {
        let corpus = Corpus::generate(3, Scale::S);
        let stream = OpStream::new(3, &corpus.tokens);
        let mut live: BTreeSet<(i64, i64)> = seed_entities(&corpus.tokens).into_iter().collect();
        let seeds = live.len();
        for op in stream.prefill() {
            if let DeltaOp::Insert { start, end, .. } = op {
                assert!(live.insert((start, end)), "prefill region is unique");
            }
        }
        let mut after_two = 0;
        for b in 0..10 * CHECKPOINT_EVERY {
            for op in stream.batch(b) {
                match op {
                    DeltaOp::Insert { start, end, .. } => {
                        assert!(live.insert((start, end)), "batch {b}: insert is unique")
                    }
                    DeltaOp::Retract { start, end, .. } => {
                        assert!(live.remove(&(start, end)), "batch {b}: retract hits")
                    }
                }
            }
            if b + 1 == 2 * CHECKPOINT_EVERY {
                after_two = live.len();
            }
            let model: BTreeSet<(i64, i64)> = stream.live_after(b + 1).into_iter().collect();
            assert_eq!(model.len(), LIVE_NEW);
            assert!(model.is_subset(&live), "batch {b}: model matches replay");
        }
        assert_eq!(after_two, seeds + LIVE_NEW);
        assert_eq!(live.len(), after_two);
    }
}
