//! Pipeline-level errors and panic-payload handling.

use ssfa_core::SnapshotError;
use ssfa_logs::{CheckpointError, LogError};

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The log corpus failed to classify.
    Log(LogError),
    /// A pipeline worker thread died (a panic in render/parse/classify).
    Worker {
        /// What the worker was doing, including the downcast panic message
        /// when the payload was a string (the overwhelmingly common case).
        what: String,
    },
    /// The checkpoint store refused a read or write (corruption, version
    /// or corpus mismatch, i/o).
    Checkpoint(CheckpointError),
    /// A checkpointed fold snapshot failed to encode or restore.
    Snapshot(SnapshotError),
}

/// Best-effort extraction of a panic payload's message: `panic!("...")`
/// payloads are `&str` or `String`; anything else gets a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Log(e) => write!(f, "log pipeline failed: {e}"),
            PipelineError::Worker { what } => write!(f, "pipeline worker died: {what}"),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint store failed: {e}"),
            PipelineError::Snapshot(e) => write!(f, "checkpoint snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Log(e) => Some(e),
            PipelineError::Worker { .. } => None,
            PipelineError::Checkpoint(e) => Some(e),
            PipelineError::Snapshot(e) => Some(e),
        }
    }
}

impl From<LogError> for PipelineError {
    fn from(e: LogError) -> Self {
        PipelineError::Log(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

impl From<SnapshotError> for PipelineError {
    fn from(e: SnapshotError) -> Self {
        PipelineError::Snapshot(e)
    }
}
