//! # standoff-algebra
//!
//! The loop-lifting substrate of MonetDB/XQuery, rebuilt in Rust.
//!
//! Pathfinder (the MonetDB/XQuery compiler) translates XQuery into
//! relational algebra over tables of the shape `iter|pos|item`: each row is
//! one item of the result sequence of one iteration of the enclosing
//! for-loop scope (paper §4.1). All expressions are evaluated *once per
//! scope* in bulk — never once per iteration — which is what makes the
//! loop-lifted StandOff MergeJoin (and loop-lifted Staircase Join before
//! it) an order of magnitude faster than iterative evaluation.
//!
//! This crate provides:
//!
//! * [`Item`] — the XQuery item model (nodes, integers, doubles, strings,
//!   booleans) with the comparison/atomization semantics the engine needs;
//! * [`LlSeq`] — a loop-lifted item sequence (`iter|pos|item` with `pos`
//!   implicit in row order);
//! * [`NodeTable`] — the specialized loop-lifted *node* sequence used by
//!   path steps, with document-order normalization and deduplication;
//! * [`staircase`] — Staircase Join (Grust et al., VLDB 2003) for the XPath
//!   tree axes in its loop-lifted form: context pruning per iteration plus
//!   pre/size range emission, the tree-shaped sibling of the paper's
//!   StandOff MergeJoin.

pub mod item;
pub mod nodeseq;
pub mod sequence;
pub mod staircase;

pub use item::Item;
pub use nodeseq::NodeTable;
pub use sequence::{rows_per_iter, LlSeq};
pub use staircase::{KindTest, NameCache, NodeTest, TreeAxis};
