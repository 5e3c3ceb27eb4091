//! # standoff-xquery
//!
//! An XQuery subset engine with **loop-lifted evaluation** and the four
//! **StandOff XPath axes** of Alink et al. (XIME-P/SIGMOD 2006) — the role
//! MonetDB/XQuery with the Pathfinder compiler plays in the paper.
//!
//! Queries are **compiled**, and a query is one tree from start to
//! finish — the [`plan`] IR: `parse` ([`parser`] builds the plan) →
//! `resolve` ([`compile`]: prolog options, function calls, join
//! strategy) → `optimize` ([`optimize`], an ordered pass list: constant
//! folding, step fusion, loop-invariant hoisting, candidate pushdown,
//! post-filter elision, counts from the index) → `execute` (the
//! crate-private `eval`: one module per operator family — paths, tree
//! steps and predicates; StandOff joins; FLWOR, quantifiers and calls;
//! constructors; value operators — over one frame stack whose scopes
//! are opened in one place; built-ins live in the crate-private
//! `functions`).
//! [`explain`] renders the same plan object that executes, with what
//! the engine's corpus holds for each StandOff join, and the
//! batch executor ([`exec`]) caches compiled plans keyed on `(query
//! text, store generation, options fingerprint)`.
//!
//! The engine evaluates every plan operator *once per scope* on
//! `iter|pos|item` tables (see `standoff-algebra`), never once per
//! iteration: a path step inside a for-loop with 100 000 iterations is one
//! bulk [`standoff_algebra::staircase`] or StandOff MergeJoin call. The
//! StandOff steps can be evaluated under any of the paper's strategies
//! ([`standoff_core::StandoffStrategy`]) — that switch is what the Figure 6
//! benchmark sweeps — with strategy and §4.3 candidate pushdown fixed
//! *per operator at plan time*, the way the paper's Pathfinder
//! compilation makes them plan decisions.
//!
//! Supported XQuery subset (everything the paper's queries, UDF baselines
//! and the XMark workload need, and a fair bit more):
//!
//! * prolog: `declare option` (incl. `standoff-*`), `declare namespace`,
//!   `declare variable`, `declare function` (user-defined functions);
//! * FLWOR (`for`/`at`/`let`/`where`/`order by`/`return`), quantified
//!   expressions, `if/then/else`;
//! * full path expressions with all thirteen tree axes, the four StandOff
//!   axes, name/kind tests, predicates (positional and boolean);
//! * general and value comparisons, arithmetic, `to`, `and`/`or`;
//! * direct element constructors with nested enclosed expressions;
//! * a built-in function library (`doc`, `root`, `count`, `position`,
//!   `last`, string and numeric functions, `select-narrow(..)` etc. as
//!   built-in alternatives to the axes).
//!
//! ```
//! use standoff_xquery::Engine;
//! let mut engine = Engine::new();
//! engine.load_document("d.xml", r#"<a><w start="0" end="9"/><w start="3" end="5"/></a>"#)
//!     .unwrap();
//! let result = engine.run(r#"count(doc("d.xml")//w[@start = 0]/select-narrow::w)"#).unwrap();
//! assert_eq!(result.as_strings(), ["2"]);
//! ```

pub mod compile;
pub mod engine;
pub mod error;
mod eval;
pub mod exec;
pub mod explain;
mod functions;
pub mod lexer;
pub mod optimize;
pub mod overlay;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod result;

pub use engine::{Engine, EngineOptions, Session, SharedEngine};
pub use error::QueryError;
pub use exec::{CacheStats, Executor, Governance, QueryCache};
pub use overlay::WritableEngine;
pub use plan::Plan;
pub use profile::{JoinExec, OpMetrics, PlanProfile, QueryProfile};
pub use result::QueryResult;
pub use standoff_core::JoinStats;
