//! # standoff-store
//!
//! Persistent multi-layer stand-off annotation store.
//!
//! The paper's premise is that stand-off annotations live *apart* from
//! the base data: many independent annotation hierarchies — tokens,
//! entities, syntax, shots, genes — reference regions of one immutable
//! BLOB. This crate makes that durable and cheap to reopen:
//!
//! * [`Layer`] / [`LayerSet`] — named annotation layers over one shared
//!   base, each carrying its own [`standoff_core::RegionIndex`] and
//!   [`standoff_core::StandoffConfig`]. Layers share the BLOB coordinate
//!   space, so the StandOff axes (`select-narrow` & co.) and merge joins
//!   compose *across* layers.
//! * [`snapshot`] / [`mount`] — the one binary format (SOSN v6, no
//!   external serde) that persists every layer's shredded document,
//!   element-name CSR and prebuilt region index. It is columnar and
//!   offset-indexed with a CRC32 per section: [`Snapshot::open`]
//!   *mounts* the file as one shared buffer, layers materialize lazily
//!   on first access as zero-copy column views (checksums verified
//!   then), and `inspect` is a pure header walk. No XML parsing, no
//!   `RegionIndex::build`, no per-node allocation. A file declaring any
//!   other version is refused by name — snapshots are derived data,
//!   rebuilt from the layer XML with `standoff-xq index`.
//! * [`delta`] — pending mutations ([`DeltaSet`]) and the one fold that
//!   turns them into a compacted layer set ([`compact`] for a whole
//!   delta, [`fold`] for one more batch over a compacted view).
//! * [`atomic`] / [`wal`] — the durability layer: every in-place
//!   rewrite goes through write-temp → fsync → rename → fsync(dir), and
//!   delta batches are journaled to an append-only, per-record
//!   checksummed `<sidecar>.wal` *before* they become visible, so a
//!   committed batch survives SIGKILL. The sidecar + journal protocol
//!   lives in [`wal`] and nowhere else: readers call [`recover_delta`],
//!   writers [`recover_delta_for_write`] and [`DeltaWal::checkpoint`];
//!   recovery replays exactly the committed prefix (torn tails are
//!   truncated; damaged committed records are categorized
//!   [`StoreError::Corrupt`]).
//!
//! `standoff_xquery::Engine::mount_snapshot` registers every layer of a
//! snapshot from its header and its [`Catalog`] (names, per-name element
//! counts) alone, so that `doc("uri")`, `doc("uri#layer")` and
//! `layer("uri", "name")` resolve to the stored layers; a layer is
//! materialized the first time a query dereferences it, and its region
//! index is the snapshot's own (shared, not copied).
//! `Engine::mount_store` registers the layers of an assembled
//! [`LayerSet`] the same way, already materialized.

pub mod atomic;
pub mod delta;
pub mod error;
pub mod layer;
pub mod mount;
pub mod snapshot;
pub mod wal;

pub use atomic::{atomic_replace, atomic_write};
pub use delta::{
    compact, fold, ops_to_text, parse_ops, DeltaAnnotation, DeltaOp, DeltaSet, LayerDelta,
};
pub use error::StoreError;
pub use layer::{Layer, LayerSet, BASE_LAYER};
pub use mount::{write_snapshot, Catalog, Snapshot, VerifyReport};
pub use snapshot::{save_snapshot, LayerInfo, SectionInfo, SnapshotInfo};
pub use wal::{
    audit_delta, recover_delta, recover_delta_for_write, wal_path, DeltaWal, Recovery,
    RecoveryError, WalRecord, WalScan,
};
