//! The repository's standing benchmark: four workloads, end-to-end and
//! per-layer metrics, every layer measured from outside through public
//! functions. See `perf/README.md`.

pub mod cluster;
pub mod layers;
pub mod metrics;
pub mod papersim;
pub mod sample;
pub mod spans;
pub mod stats;
pub mod suite;
