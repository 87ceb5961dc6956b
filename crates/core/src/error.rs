//! Error types for the Pado compiler and runtime.

use std::fmt;

use pado_dag::{DagError, OpId};

use crate::runtime::{JobEvent, StallDiagnostics};

/// Errors produced by the Pado compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The input logical DAG failed validation.
    InvalidDag(DagError),
    /// An operator's parallelism could not be resolved (no input to
    /// inherit from and none declared).
    UnresolvedParallelism(OpId),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidDag(e) => write!(f, "invalid logical DAG: {e}"),
            CompileError::UnresolvedParallelism(id) => {
                write!(f, "cannot resolve parallelism of operator {id}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::InvalidDag(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for CompileError {
    fn from(e: DagError) -> Self {
        CompileError::InvalidDag(e)
    }
}

/// Errors produced by the Pado runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The job was aborted before completion.
    Aborted(String),
    /// An executor channel closed unexpectedly.
    Disconnected(String),
    /// The cluster has no alive executor of the required type.
    NoExecutors(&'static str),
    /// Compilation failed while preparing the job.
    Compile(CompileError),
    /// One task exhausted its retry budget: every attempt failed in user
    /// code (error or panic). Carries the job's event log so the failure
    /// history — which executors ran which attempts — is inspectable.
    TaskFailed {
        /// Fused operator of the failing task.
        fop: usize,
        /// Task index within the fop.
        index: usize,
        /// Failed attempts consumed (equals `max_task_attempts`).
        attempts: usize,
        /// Reason reported by the final failed attempt.
        reason: String,
        /// Event log up to the terminal failure.
        events: Vec<JobEvent>,
    },
    /// The master saw no progress within `event_timeout_ms` (or the
    /// threaded backstop found the master thread itself stuck): the run
    /// was aborted, cancelled and shut down, on either backend.
    Wedged {
        /// What was stuck and what the run did (boxed to keep the error
        /// small on the hot `Result` paths).
        diagnostics: Box<StallDiagnostics>,
    },
    /// A single block (or one task's pinned input set) exceeds the
    /// per-executor store budget: no amount of spilling can ever fit
    /// it, so the job fails cleanly instead of wedging.
    MemoryExceeded {
        /// Bytes that were required resident at once.
        bytes: usize,
        /// The configured `executor_memory_bytes` budget.
        budget: usize,
        /// What needed the bytes (block ref or task id).
        context: String,
    },
    /// A scheduler invariant was violated (a bug in the runtime, not in
    /// user code); surfaced instead of panicking the master thread.
    Invariant(String),
    /// The runtime configuration is self-contradictory (e.g. a
    /// retransmission backoff that outlives the dead-executor timeout);
    /// rejected before the job starts.
    Config(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Aborted(why) => write!(f, "job aborted: {why}"),
            RuntimeError::Disconnected(who) => write!(f, "channel to {who} disconnected"),
            RuntimeError::NoExecutors(kind) => write!(f, "no alive {kind} executors"),
            RuntimeError::Compile(e) => write!(f, "compilation failed: {e}"),
            RuntimeError::TaskFailed {
                fop,
                index,
                attempts,
                reason,
                ..
            } => write!(
                f,
                "task {fop}.{index} failed after {attempts} attempts: {reason}"
            ),
            RuntimeError::Wedged { diagnostics } => write!(f, "job aborted: {diagnostics}"),
            RuntimeError::MemoryExceeded {
                bytes,
                budget,
                context,
            } => write!(
                f,
                "executor memory exceeded: {context} needs {bytes} B resident but the \
                 store budget is {budget} B"
            ),
            RuntimeError::Invariant(msg) => write!(f, "scheduler invariant violated: {msg}"),
            RuntimeError::Config(msg) => write!(f, "invalid runtime configuration: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for RuntimeError {
    fn from(e: CompileError) -> Self {
        RuntimeError::Compile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CompileError::InvalidDag(DagError::Empty);
        assert!(e.to_string().contains("invalid logical DAG"));
        let r: RuntimeError = e.into();
        assert!(r.to_string().contains("compilation failed"));
        assert!(RuntimeError::NoExecutors("transient")
            .to_string()
            .contains("transient"));
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = CompileError::InvalidDag(DagError::Empty);
        assert!(e.source().is_some());
        assert!(CompileError::UnresolvedParallelism(3).source().is_none());
    }
}
