//! Logical dataflow model for the Pado engine.
//!
//! This crate is the substrate the Pado compiler and runtime build on: a
//! dynamically-typed record model ([`Value`]), operators with typed data
//! dependencies ([`Operator`], [`DepType`]), the logical DAG itself
//! ([`LogicalDag`]), and a Beam-like typed builder ([`Pipeline`],
//! [`PCollection`]) mirroring the programming model the paper's Java
//! implementation consumes (§4).
//!
//! # Examples
//!
//! Building the paper's running Map-Reduce example (Figure 2a):
//!
//! ```
//! use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};
//!
//! let p = Pipeline::new();
//! p.read("Read", 8, SourceFn::from_vec(vec![Value::from("the cat")]))
//!     .par_do(
//!         "Map",
//!         ParDoFn::per_element(|line, emit| {
//!             for w in line.as_str().unwrap_or("").split_whitespace() {
//!                 emit(Value::pair(Value::from(w), Value::from(1i64)));
//!             }
//!         }),
//!     )
//!     .combine_per_key("Reduce", CombineFn::sum_i64())
//!     .sink("Write");
//! let dag = p.build().unwrap();
//! assert!(dag.validate().is_ok());
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod colcodec;
pub mod column;
pub mod lz;

mod block;
mod builder;
mod error;
mod graph;
mod operator;
mod udf;
pub mod value;

pub use block::{
    block_from_columns, block_from_vec, block_into_rows, empty_block, Block, BlockInner, MainSlot,
};
pub use builder::{PCollection, Pipeline};
pub use column::{Columns, ScalarCol};
pub use error::{DagError, Result};
pub use graph::{Edge, LogicalDag, OpId};
pub use operator::{DepType, Operator, OperatorKind, SourceKind};
pub use udf::{CombineFn, Emit, ParDoFn, SourceFn, TaskInput, UdfError};
pub use value::Value;
