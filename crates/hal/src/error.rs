//! Typed errors of the transcript codec and the host probe.

use std::fmt;

/// What a transcript or host-probe operation can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HalError {
    /// A transcript failed schema validation or structural checks.
    TraceSchema {
        /// Human-readable reason.
        detail: String,
    },
    /// Host-probe I/O failed (missing `/dev/cpu/*/msr`, permissions…).
    Io {
        /// The path involved.
        path: String,
        /// Stringified OS error.
        detail: String,
    },
}

impl fmt::Display for HalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HalError::TraceSchema { detail } => write!(f, "trace schema error: {detail}"),
            HalError::Io { path, detail } => write!(f, "host i/o error at {path}: {detail}"),
        }
    }
}

impl std::error::Error for HalError {}
