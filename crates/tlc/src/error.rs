//! Errors raised during plan construction and execution.

use crate::analyze::AnalyzeError;
use crate::logical_class::LclId;
use std::fmt;

/// Execution/translation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A pattern referenced a document that is not loaded.
    UnknownDocument(String),
    /// An operator required a singleton logical class but found `found`
    /// members (paper §2.3: "others require that the logical class comprise
    /// a singleton set of nodes in each tree, else they generate an error").
    NotSingleton {
        /// The offending class.
        lcl: LclId,
        /// How many visible members there were.
        found: usize,
    },
    /// A pattern extension was anchored at a temporary node, which has no
    /// stored subtree to match into.
    TempAnchor(LclId),
    /// The query used a feature outside the supported fragment.
    Unsupported(String),
    /// A variable was referenced but never bound.
    UnboundVariable(String),
    /// Execution exceeded its wall-clock deadline (see
    /// [`crate::exec::execute_with_deadline`]). The executor checks the
    /// deadline between operators, so the abort is clean: no partial results
    /// escape, and the store is untouched.
    DeadlineExceeded,
    /// The static LC dataflow analysis ([`mod@crate::analyze`]) rejected the
    /// plan: some operator references a logical class its input does not
    /// produce.
    Analyze(AnalyzeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownDocument(d) => write!(f, "unknown document {d:?}"),
            Error::NotSingleton { lcl, found } => {
                write!(f, "logical class {lcl} must be a singleton but has {found} members")
            }
            Error::TempAnchor(lcl) => {
                write!(f, "cannot extend pattern from temporary nodes in class {lcl}")
            }
            Error::Unsupported(m) => write!(f, "unsupported query feature: {m}"),
            Error::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            Error::DeadlineExceeded => write!(f, "execution exceeded its deadline"),
            Error::Analyze(e) => write!(f, "plan failed LC dataflow analysis: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, Error>;
