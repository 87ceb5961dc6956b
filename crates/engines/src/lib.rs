//! Simulated execution engines over the datacenter simulator.
//!
//! Reproduces the paper's evaluation setup (§5.1.2): three engines — Pado,
//! Spark 2.0.0, and Flint-style checkpoint-enabled Spark — run the same
//! workloads on the same simulated cluster of transient and reserved
//! containers. All three execute the physical plan produced by the real
//! Pado compiler; they differ in placement policy, data movement (push
//! with commit vs. pull vs. checkpoint), and recovery semantics.
//!
//! # Examples
//!
//! ```
//! use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};
//! use pado_engines::{simulate, CostModel, Mode, OpCost, SimConfig};
//!
//! let p = Pipeline::new();
//! let read = p.read("Read", 8, SourceFn::from_vec(vec![]));
//! let map = read.par_do("Map", ParDoFn::per_element(|v, e| e(v.clone())));
//! let red = map.combine_per_key("Reduce", CombineFn::sum_i64());
//! let mut model = CostModel::new();
//! model
//!     .set(read.op_id(), OpCost { compute_us: 1_000_000, read_store_bytes: 64e6, output_bytes: 16e6 })
//!     .set(red.op_id(), OpCost { compute_us: 500_000, read_store_bytes: 0.0, output_bytes: 1e6 });
//! let dag = p.build().unwrap();
//! let m = simulate(Mode::Pado, &dag, &model, SimConfig::default()).unwrap();
//! assert!(m.jct_us > 0);
//! assert_eq!(m.relaunched_tasks, 0); // No evictions configured.
//! ```
#![warn(missing_docs)]
// Simulated decisions must be a function of the seed alone: nothing may
// follow a hash table's iteration order.
#![warn(clippy::iter_over_hash_type)]

pub mod common;
pub mod engine;

pub use common::{CostModel, FopCosts, OpCost, RunMetrics, SimError, SlotPool, TaskRef};
pub use engine::{Ev, Mode, SimConfig, SimEngine};

use pado_dag::LogicalDag;

/// Compiles a dataflow program and simulates one engine run.
///
/// # Errors
///
/// Propagates compilation failures and simulation stalls/timeouts.
pub fn simulate(
    mode: Mode,
    dag: &LogicalDag,
    model: &CostModel,
    config: SimConfig,
) -> Result<RunMetrics, SimError> {
    let plan = pado_core::compiler::compile(dag).map_err(|e| SimError::Compile(e.to_string()))?;
    SimEngine::new(mode, dag, plan, model, config).run()
}
