//! Helpers the integration suites share: the small job shapes and the
//! byte-level output comparison. Each test binary uses a subset.
#![allow(dead_code)]

use pado_core::runtime::JobResult;
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};

pub fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

/// Four lines split into words and counted per key: a transient map
/// stage shuffled into a reserved combine.
pub fn wordcount_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::from_vec(vec![
            Value::from("pado harnesses transient resources"),
            Value::from("transient containers come and go"),
            Value::from("reserved containers hold the line"),
            Value::from("pado retries pado recovers"),
        ]),
    )
    .par_do(
        "Split",
        ParDoFn::per_element(|line, emit| {
            for w in line.as_str().unwrap_or("").split_whitespace() {
                emit(Value::pair(Value::from(w), Value::from(1i64)));
            }
        }),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// A broadcast shape: a three-part side input read by every task of a
/// main path, then one global aggregate.
pub fn side_input_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(9)));
    let data = p.read("Data", 2, SourceFn::from_vec(ints(6)));
    data.par_do_with_side(
        "AddSide",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let side_sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + side_sum));
            }
        }),
    )
    .aggregate("Total", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// Encode every output collection; byte equality here is the strongest
/// form of "the faults did not change the answer".
pub fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}
