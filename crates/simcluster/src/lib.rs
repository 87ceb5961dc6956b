//! A discrete-event datacenter simulator for transient-resource research.
//!
//! This crate stands in for the paper's AWS EC2 / YARN evaluation cluster
//! (§5.1.1): containers with task slots, per-node fair-share network
//! links, an external input store, and a transient-container eviction
//! process driven by empirical lifetime CDFs. Execution engines (Pado and
//! the Spark baselines in `pado-engines`) schedule timers and transfers
//! against a [`Cluster`] and react to evictions it delivers.
#![warn(missing_docs)]
// Simulated decisions must be a function of the seed alone: nothing may
// follow a hash table's iteration order.
#![warn(clippy::iter_over_hash_type)]

pub mod cluster;
pub mod dist;
pub mod network;

pub use cluster::{Cluster, Container, ContainerId, Event, Kind, NodeSpec, SimTime, MIN, MS, SEC};
pub use dist::{EmpiricalDist, LifetimeDist};
pub use network::{Network, NodeId, TransferId};
