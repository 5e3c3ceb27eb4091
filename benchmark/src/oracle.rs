//! Expected answers, computed apart from every path the workloads
//! time: an in-process engine over freshly *parsed* XML (never the
//! snapshot) running a reference join strategy (never loop-lifted).

use standoff::core::{StandoffConfig, StandoffStrategy};
use standoff::store::LayerSet;
use standoff::xml::parse_document;
use standoff::xquery::{Engine, EngineOptions};

use crate::classes::Class;
use crate::corpus::{Corpus, Scale, URI};

pub struct Oracle {
    engine: Engine,
}

impl Oracle {
    /// The reference strategy for a corpus size. The quadratic
    /// candidate-sequence join is the most literal reading of the
    /// paper's semantics and is used wherever it is affordable; on
    /// `xmark_m` two scan classes need 19 s and 9 s under it (measured),
    /// more than a whole run, so that corpus is checked against the
    /// paper's basic merge join instead — still not the loop-lifted
    /// kernel the server runs.
    pub fn strategy(scale: Scale) -> StandoffStrategy {
        match scale {
            Scale::S => StandoffStrategy::NaiveWithCandidates,
            Scale::M | Scale::L => StandoffStrategy::BasicMergeJoin,
        }
    }

    pub fn new(corpus: &Corpus) -> Result<Oracle, String> {
        Oracle::with_entities(corpus, &corpus.entities_xml)
    }

    /// An oracle whose `entities` layer is `entities_xml` instead of the
    /// corpus's seed entities (the `annotate_rw` end-state check).
    pub fn with_entities(corpus: &Corpus, entities_xml: &str) -> Result<Oracle, String> {
        let parse = |what: &str, xml: &str| {
            parse_document(xml).map_err(|e| format!("oracle: {what} layer does not parse: {e}"))
        };
        let config = StandoffConfig::default;
        let mut set = LayerSet::build(URI, parse("base", &corpus.base_xml)?, config())
            .map_err(|e| format!("oracle: {e}"))?;
        set.add_layer("tokens", parse("tokens", &corpus.tokens_xml)?, config())
            .map_err(|e| format!("oracle: {e}"))?;
        set.add_layer("entities", parse("entities", entities_xml)?, config())
            .map_err(|e| format!("oracle: {e}"))?;
        let mut engine = Engine::with_options(EngineOptions {
            strategy: Oracle::strategy(corpus.scale),
            ..EngineOptions::default()
        });
        engine
            .mount_store(set)
            .map_err(|e| format!("oracle: mount: {e}"))?;
        Ok(Oracle { engine })
    }

    /// The serialized answer to `query`.
    pub fn answer(&mut self, query: &str) -> Result<String, String> {
        self.engine
            .run(query)
            .map(|r| r.as_xml())
            .map_err(|e| format!("oracle: {query}: {e}"))
    }

    /// Answers for a workload's classes, in class order. A class whose
    /// answer is empty or zero would make a wrong (empty) reply look
    /// right, so it is refused here, at setup.
    pub fn answers(&mut self, classes: &[Class]) -> Result<Vec<String>, String> {
        classes
            .iter()
            .map(|class| {
                let answer = self.answer(&class.query)?;
                if answer.is_empty() || answer == "0" {
                    return Err(format!(
                        "oracle: class {} has the trivial answer {answer:?} on this seed",
                        class.name
                    ));
                }
                Ok(answer)
            })
            .collect()
    }
}
