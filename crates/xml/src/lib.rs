//! # standoff-xml
//!
//! From-scratch XML substrate for the StandOff annotation system
//! (reproduction of *Efficient XQuery Support for Stand-Off Annotation*,
//! Alink et al., XIME-P/SIGMOD 2006).
//!
//! MonetDB/XQuery stores XML documents *shredded* into relational tables
//! using the pre/size/level region encoding (Grust et al., "Staircase Join",
//! VLDB 2003). This crate provides the same storage model:
//!
//! * [`Document`] — a single XML fragment stored columnar: one row per node
//!   in pre-order, with `size` (descendant count), `level` (depth), `parent`,
//!   `kind`, `name` and `value` columns, plus a CSR-encoded attribute table.
//! * [`NameTable`] — QName interning shared per document (or per
//!   constructor arena of fragments).
//! * [`parse_document`] — a hand-written, allocation-conscious
//!   XML parser (elements, attributes, text, CDATA, comments, PIs, entity
//!   references, DOCTYPE skipping).
//! * [`DocumentBuilder`] — programmatic document construction: one
//!   document, or many fragments over one packed arena.
//! * [`serialize`] — document/subtree serialization with escaping, into
//!   a caller's buffer.
//! * [`Store`] — a collection of documents addressed by URI; nodes across the
//!   store are identified by [`NodeRef`] (document id + node id).
//!
//! The pre/size/level encoding is what makes Staircase Join (and the paper's
//! StandOff MergeJoin post-processing) possible: the descendants of a node
//! `v` are exactly the pre ranks in `v.pre + 1 ..= v.pre + v.size`.

pub mod builder;
mod checked;
pub mod column;
pub mod doc;
pub mod error;
pub mod name;
pub mod node;
pub mod parser;
pub mod serialize;
pub mod store;
pub mod wire;

pub use builder::DocumentBuilder;
pub use checked::{Corrupt, Loader};
pub use column::{Pod, PodCol, SharedBytes, StrArena, StrArenaBuilder};
pub use doc::{
    AttrTable, AttrValue, Document, DocumentParts, DocumentStorageRef, ElemIndex, KindCol,
    NewElement, RegionAttrs, RegionSource, Renumbering, Tree, TreeColumns,
};
pub use error::{ParseError, XmlError};
pub use name::{NameId, NameTable, QName};
pub use node::{DocId, NodeId, NodeKind, NodeRef};
pub use parser::{parse_document, ParseOptions};
pub use serialize::{
    serialize_document, serialize_node, serialize_node_into, try_serialize_document, NodeWriter,
    SerializeOptions,
};
pub use store::{DocSource, Store};
