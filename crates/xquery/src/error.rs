//! Query errors: parse, static and dynamic.

use std::fmt;

/// Any error raised while parsing or evaluating a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// Syntax error with position.
    Parse {
        message: String,
        line: u32,
        column: u32,
    },
    /// Static error (unknown function, undeclared variable, bad option).
    Static(String),
    /// Dynamic (runtime) error — type mismatches, missing documents.
    Dynamic(String),
    /// An engine defect surfaced as an error instead of a crash: the
    /// batch executor converts a panic inside one query's evaluation
    /// into this, so a worker thread never takes down the pool.
    Internal(String),
    /// The query's deadline elapsed before evaluation finished. The
    /// partial result is discarded; the engine state stays reusable.
    Timeout,
    /// A resource cap tripped — result cardinality or scratch memory;
    /// the message names which. Like [`QueryError::Timeout`], a clean
    /// refusal: no partial output escapes.
    ResultLimit(String),
    /// The query was cancelled cooperatively (client gone, server
    /// draining) before evaluation finished.
    Cancelled,
    /// The server's admission queue was full and the request was shed
    /// instead of queued — back off and retry, the query itself is fine.
    Overloaded(String),
}

impl QueryError {
    pub fn parse(message: impl Into<String>, input: &str, offset: usize) -> QueryError {
        let offset = offset.min(input.len());
        let mut line = 1;
        let mut column = 1;
        for b in input.as_bytes()[..offset].iter() {
            if *b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        QueryError::Parse {
            message: message.into(),
            line,
            column,
        }
    }

    pub fn dynamic(message: impl Into<String>) -> QueryError {
        QueryError::Dynamic(message.into())
    }

    pub fn stat(message: impl Into<String>) -> QueryError {
        QueryError::Static(message.into())
    }

    pub fn internal(message: impl Into<String>) -> QueryError {
        QueryError::Internal(message.into())
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse {
                message,
                line,
                column,
            } => write!(f, "syntax error at line {line}, column {column}: {message}"),
            QueryError::Static(m) => write!(f, "static error: {m}"),
            QueryError::Dynamic(m) => write!(f, "dynamic error: {m}"),
            QueryError::Internal(m) => write!(f, "internal error: {m}"),
            QueryError::Timeout => write!(f, "query deadline exceeded"),
            QueryError::ResultLimit(m) => write!(f, "resource limit: {m}"),
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::Overloaded(m) => write!(f, "overloaded: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<standoff_core::BudgetExceeded> for QueryError {
    /// Map a tripped budget to the error the client sees. The recorded
    /// trip *reason* (not the observation site) decides the variant, so
    /// the same over-budget query fails identically across join
    /// strategies and thread counts.
    fn from(e: standoff_core::BudgetExceeded) -> Self {
        use standoff_core::BudgetExceeded::*;
        match e {
            Timeout => QueryError::Timeout,
            ResultLimit => QueryError::ResultLimit("result cardinality cap exceeded".into()),
            ScratchLimit => QueryError::ResultLimit("scratch memory cap exceeded".into()),
            Cancelled => QueryError::Cancelled,
        }
    }
}

impl From<standoff_xml::ParseError> for QueryError {
    fn from(e: standoff_xml::ParseError) -> Self {
        QueryError::Dynamic(format!("document parse failure: {e}"))
    }
}

/// A document's tree columns or attribute table failed their
/// first-read verification: the operator that read them fails.
impl From<standoff_xml::Corrupt> for QueryError {
    fn from(e: standoff_xml::Corrupt) -> Self {
        QueryError::Dynamic(format!("cannot read the document: {e}"))
    }
}

impl From<standoff_core::StandoffError> for QueryError {
    fn from(e: standoff_core::StandoffError) -> Self {
        QueryError::Dynamic(format!("standoff annotation error: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_position() {
        let e = QueryError::parse("boom", "ab\ncd", 4);
        assert_eq!(
            e,
            QueryError::Parse {
                message: "boom".into(),
                line: 2,
                column: 2
            }
        );
        assert!(e.to_string().contains("line 2"));
    }
}
