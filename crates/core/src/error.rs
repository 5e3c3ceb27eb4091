//! Error type for the StandOff core.

use std::fmt;

use crate::region::Region;

/// Errors raised by region parsing, area validation and index
/// construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StandoffError {
    /// `start > end`.
    InvalidRegion { start: i64, end: i64 },
    /// An area must have at least one region.
    EmptyArea,
    /// Two regions of one area overlap or touch (§2 forbids both).
    AreaRegionsConflict { a: Region, b: Region },
    /// A region position did not parse as the configured position type.
    BadPosition {
        /// The lexical value that failed to parse.
        value: String,
        /// Where it was found (element name / attribute name).
        context: String,
    },
    /// An element in region representation lacked a start or end child.
    IncompleteRegion { context: String },
    /// The `standoff-type` option names an unsupported position type.
    UnsupportedType(String),
    /// A document's regions, from its first start `first` to its last
    /// end `last`, span 2³² positions or more: more than one region
    /// index holds.
    SpanTooWide { first: i64, last: i64 },
    /// A column group the region markup is read from failed its
    /// verification.
    Corrupt(standoff_xml::Corrupt),
}

impl From<standoff_xml::Corrupt> for StandoffError {
    fn from(e: standoff_xml::Corrupt) -> Self {
        StandoffError::Corrupt(e)
    }
}

impl fmt::Display for StandoffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StandoffError::InvalidRegion { start, end } => {
                write!(f, "invalid region: start {start} > end {end}")
            }
            StandoffError::EmptyArea => write!(f, "area-annotation without regions"),
            StandoffError::AreaRegionsConflict { a, b } => {
                write!(f, "area regions {a} and {b} overlap or touch")
            }
            StandoffError::BadPosition { value, context } => {
                write!(f, "position '{value}' in {context} is not a valid integer")
            }
            StandoffError::IncompleteRegion { context } => {
                write!(f, "region element {context} lacks start or end")
            }
            StandoffError::UnsupportedType(t) => {
                write!(f, "unsupported standoff-type '{t}' (supported: xs:integer)")
            }
            StandoffError::SpanTooWide { first, last } => write!(
                f,
                "regions span {first} to {last}, 2^32 positions or more; \
                 a layer's regions must lie within 4294967295 positions of its first start"
            ),
            StandoffError::Corrupt(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StandoffError {}
