//! Store-level errors.

use std::fmt;

/// Errors raised while assembling layers or reading/writing snapshots.
#[derive(Debug)]
pub enum StoreError {
    /// A layer name is empty or contains `#` (reserved for the engine's
    /// `uri#layer` addressing).
    BadLayerName(String),
    /// Two layers of one set share a name.
    DuplicateLayer(String),
    /// Index construction over layer `layer`'s document failed.
    Index {
        layer: String,
        error: standoff_core::StandoffError,
    },
    /// Snapshot I/O or format error.
    Io(std::io::Error),
    /// An overlay mutation was rejected (unknown layer, region out of
    /// order, retract matching nothing, malformed op line, ...).
    Delta(String),
    /// Stored bytes failed an integrity check: a section payload whose
    /// CRC32 does not match the recorded checksum, a WAL record broken
    /// mid-file, a checksum table that does not cover the section list.
    /// Corruption is always reported through this categorized variant —
    /// never a panic — so callers can distinguish "the file is damaged"
    /// from "the file is from the future" or plain I/O failure.
    Corrupt {
        /// What failed the check, e.g. `"section doc.text (layer tokens)"`
        /// or `"wal record 3"`.
        section: String,
        /// Why, e.g. `"checksum mismatch: stored 0x1234, computed 0x5678"`.
        detail: String,
    },
}

impl StoreError {
    /// An index failure of layer `layer` ([`StoreError::Index`]).
    pub fn index(layer: &str) -> impl Fn(standoff_core::StandoffError) -> StoreError + '_ {
        move |error| StoreError::Index {
            layer: layer.to_string(),
            error,
        }
    }

    /// Shorthand constructor for [`StoreError::Corrupt`].
    pub fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            section: section.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadLayerName(name) => write!(f, "bad layer name {name:?}"),
            StoreError::DuplicateLayer(name) => write!(f, "duplicate layer {name:?}"),
            StoreError::Index { layer, error } => write!(f, "layer {layer:?} index: {error}"),
            StoreError::Io(e) => write!(f, "snapshot: {e}"),
            StoreError::Delta(msg) => write!(f, "delta: {msg}"),
            StoreError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A stored column group that failed its first-read verification is
/// the same corruption a materialization reports.
impl From<standoff_xml::Corrupt> for StoreError {
    fn from(e: standoff_xml::Corrupt) -> Self {
        StoreError::corrupt(e.section(), e.detail())
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Flatten into `io::Error` for the `io::Result` entry points: I/O
/// failures pass through, everything else is `InvalidData`.
impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
