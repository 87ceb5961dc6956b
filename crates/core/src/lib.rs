//! The Pado engine: compiler and runtime (the paper's primary
//! contribution).
//!
//! Pado runs dataflow programs on a mix of *transient* containers
//! (eviction-prone resources harvested from over-provisioned
//! latency-critical jobs) and a small number of *reserved* containers.
//! Instead of checkpointing intermediate results, the
//! [`compiler`] places the operators most likely to cause cascading
//! recomputations on reserved containers (Algorithm 1), partitions the
//! DAG into Pado Stages at placement boundaries (Algorithm 2), and the
//! [`runtime`] pushes transient task outputs to reserved executors as
//! soon as they complete, so an eviction only ever relaunches the evicted
//! tasks of the running stage.
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

pub mod compiler;
pub mod error;
pub mod exec;
pub mod kernels;
pub mod runtime;

pub use error::{CompileError, RuntimeError};
