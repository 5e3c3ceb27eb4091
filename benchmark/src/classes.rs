//! The five workloads and their nineteen request classes.
//!
//! Query texts are fixed; only the corpus they run over depends on the
//! seed. `person3`/`person7` exist at every scale the benchmark uses
//! (XMark 0.005 already has 127 people).

use standoff::xmark::queries::XmarkQuery;

use crate::corpus::{Scale, URI};

/// One request class: a stable name and its query text.
#[derive(Clone, Debug)]
pub struct Class {
    pub name: &'static str,
    pub query: String,
}

fn class(name: &'static str, query: impl Into<String>) -> Class {
    Class {
        name,
        query: query.into(),
    }
}

pub const RESERVE_COUNT: &str = r#"count(doc("xmark")//open_auction/select-narrow::reserve)"#;
const NAME_TOKENS: &str =
    r#"count(doc("xmark")//person[@id = "person3"]/select-narrow::name/select-narrow::w)"#;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePoint,
    ServeScan,
    AnnotateRw,
    ColdQuery,
    CallOneshot,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServePoint,
        Workload::ServeScan,
        Workload::AnnotateRw,
        Workload::ColdQuery,
        Workload::CallOneshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve_point",
            Workload::ServeScan => "serve_scan",
            Workload::AnnotateRw => "annotate_rw",
            Workload::ColdQuery => "cold_query",
            Workload::CallOneshot => "call_oneshot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServePoint => {
                "selective queries over one warm connection: the socket, frame and plan-cache floor is a third of each request"
            }
            Workload::ServeScan => {
                "heavy scans over the 10x corpus: over 98% of a request is inside the join kernels and the evaluator"
            }
            Workload::AnnotateRw => {
                "WAL-journaled write batches interleaved with overlay reads and periodic checkpoints"
            }
            Workload::ColdQuery => {
                "one process per query: process start, snapshot open, CRC, materialize, compile, execute once"
            }
            Workload::CallOneshot => {
                "the bundled client: new process and new connection per request, so accept latency dominates"
            }
        }
    }

    /// The corpus the workload runs over.
    pub fn scale(self) -> Scale {
        match self {
            Workload::ServePoint | Workload::AnnotateRw | Workload::CallOneshot => Scale::S,
            Workload::ServeScan | Workload::ColdQuery => Scale::M,
        }
    }

    /// The request classes, in round-robin order. For `annotate_rw`
    /// these are the four overlay reads that follow each write batch.
    pub fn classes(self) -> Vec<Class> {
        match self {
            Workload::ServePoint => vec![
                class("q1_person", XmarkQuery::Q1.standoff(URI)),
                class("reserve_count", RESERVE_COUNT),
                class(
                    "email_lookup",
                    r#"doc("xmark")//person[@id = "person7"]/select-narrow::emailaddress"#,
                ),
                class(
                    "category_wide",
                    r#"count(doc("xmark")//category/select-wide::name)"#,
                ),
                class("name_tokens", NAME_TOKENS),
            ],
            Workload::ServeScan => vec![
                class("q2_increase", XmarkQuery::Q2.standoff(URI)),
                class("q6_items", XmarkQuery::Q6.standoff(URI)),
                class("q7_prose", XmarkQuery::Q7.standoff(URI)),
                class(
                    "reject_price",
                    r#"count(doc("xmark")//open_auction/reject-narrow::price)"#,
                ),
                class(
                    "desc_tokens",
                    r#"count(doc("xmark")//description/select-narrow::w)"#,
                ),
                class(
                    "wide_node",
                    r#"count(doc("xmark")//open_auction/select-wide::node())"#,
                ),
            ],
            Workload::AnnotateRw => vec![
                class(
                    "entity_tokens",
                    r#"count(doc("xmark#entities")//entity/select-narrow::w)"#,
                ),
                class(
                    "desc_entities",
                    r#"count(doc("xmark")//description/select-wide::entity)"#,
                ),
                class(
                    "new_entities",
                    r#"count(doc("xmark#entities")//entity[@kind = "new"])"#,
                ),
                class("reserve_count", RESERVE_COUNT),
            ],
            Workload::ColdQuery => vec![
                class("q1_base", XmarkQuery::Q1.standoff(URI)),
                class("name_tokens", NAME_TOKENS),
                class(
                    "token_desc",
                    r#"count(doc("xmark#tokens")//w[@n = "17"]/select-wide::description)"#,
                ),
            ],
            Workload::CallOneshot => vec![class("reserve_count", RESERVE_COUNT)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_classes_with_unique_names_per_workload() {
        let mut total = 0;
        for w in Workload::ALL {
            let classes = w.classes();
            let mut names: Vec<&str> = classes.iter().map(|c| c.name).collect();
            total += names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), classes.len(), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(total, 19);
        assert_eq!(Workload::parse("nope"), None);
    }
}
