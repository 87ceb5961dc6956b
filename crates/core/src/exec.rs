//! Pure task-execution semantics: applying an operator chain to one task's
//! input, and routing task outputs along typed edges.
//!
//! Both the in-process runtime and the test suites use these functions, so
//! a task computes the same records wherever it is (re)executed — the
//! property eviction recovery depends on.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pado_dag::column::LayoutBuilder;
use pado_dag::{
    block_from_vec, block_into_rows, empty_block, Block, DepType, LogicalDag, MainSlot,
    OperatorKind, TaskInput, UdfError, Value,
};

use crate::compiler::Fop;
use crate::kernels;

fn non_pair_error(op_name: &str, what: &str, rec: &Value) -> UdfError {
    UdfError::new(format!(
        "{op_name}: {what} requires key-value Pair records, got {rec}"
    ))
}

/// Applies one logical operator to a task input, materializing the
/// output block of [`apply_op_block`] as owned rows.
///
/// # Errors
///
/// Returns the [`UdfError`] raised by a fallible user function, or by
/// `GroupByKey`/keyed `Combine` when a record is not a key-value pair
/// (a mistyped upstream used to lose such records silently).
pub fn apply_op(
    dag: &LogicalDag,
    op: pado_dag::OpId,
    input: TaskInput<'_>,
) -> Result<Vec<Value>, UdfError> {
    apply_op_block(dag, op, input).map(block_into_rows)
}

/// Applies one logical operator to a task input, producing its output
/// block — what [`apply_chain`] passes from member to member.
///
/// Grouping and combining dispatch to the vectorized kernels in
/// [`crate::kernels`] whenever every input block is columnar, and a
/// keyed combine's block is born columnar. A `Sink` over a single input
/// block returns *that block*: no record is copied and its memoized
/// size is shared. Everything else seals the rows of the row
/// implementation ([`apply_op_rows`]), which is also the fallback for
/// heterogeneous data and the oracle the kernels are tested against.
///
/// # Errors
///
/// Same contract as [`apply_op`].
pub fn apply_op_block(
    dag: &LogicalDag,
    op: pado_dag::OpId,
    input: TaskInput<'_>,
) -> Result<Block, UdfError> {
    match &dag.op(op).kind {
        OperatorKind::GroupByKey => {
            if let Some((keys, vals)) = kernels::gather_pairs(input.mains) {
                return Ok(block_from_vec(kernels::group_by_key(&keys, &vals)));
            }
        }
        OperatorKind::Combine { f, keyed: true } => {
            if let Some((keys, vals)) = kernels::gather_pairs(input.mains) {
                return Ok(kernels::combine_keyed(&keys, &vals, f));
            }
        }
        OperatorKind::Combine { f, keyed: false } => {
            if let Some(parts) = kernels::gather_columns(input.mains) {
                return Ok(block_from_vec(vec![kernels::combine_global(&parts, f)]));
            }
        }
        OperatorKind::Sink => {
            if let [slot] = input.mains {
                if let [part] = slot.parts() {
                    return Ok(Arc::clone(part));
                }
            }
        }
        _ => {}
    }
    apply_op_rows(dag, op, input).map(block_from_vec)
}

/// The row-at-a-time implementation of [`apply_op`]: per-record `Value`
/// dispatch over the materialized rows. Kept public as the equivalence
/// oracle for the vectorized kernels; its record-cloning `Sink` arm runs
/// only for a sink gathering several blocks.
///
/// # Errors
///
/// Same contract as [`apply_op`].
pub fn apply_op_rows(
    dag: &LogicalDag,
    op: pado_dag::OpId,
    input: TaskInput<'_>,
) -> Result<Vec<Value>, UdfError> {
    let name = &dag.op(op).name;
    Ok(match &dag.op(op).kind {
        OperatorKind::Source { .. } => {
            // Sources are driven by `source_partition`, not by inputs.
            Vec::new()
        }
        OperatorKind::ParDo(f) => {
            let mut out = Vec::new();
            f.try_call(input, &mut |v| out.push(v))?;
            out
        }
        OperatorKind::GroupByKey => {
            let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
            for part in input.mains {
                for rec in part {
                    let Value::Pair(k, v) = rec else {
                        return Err(non_pair_error(name, "GroupByKey", rec));
                    };
                    // Clone only what is retained: the value always, the
                    // key just once per distinct key.
                    match groups.get_mut(k.as_ref()) {
                        Some(vs) => vs.push((**v).clone()),
                        None => {
                            groups.insert((**k).clone(), vec![(**v).clone()]);
                        }
                    }
                }
            }
            groups
                .into_iter()
                .map(|(k, vs)| Value::pair(k, Value::list(vs)))
                .collect()
        }
        OperatorKind::Combine { f, keyed: true } => {
            let mut accs: BTreeMap<Value, Value> = BTreeMap::new();
            for part in input.mains {
                for rec in part {
                    let Value::Pair(k, v) = rec else {
                        return Err(non_pair_error(name, "keyed Combine", rec));
                    };
                    match accs.get_mut(k.as_ref()) {
                        Some(acc) => {
                            let prev = std::mem::replace(acc, Value::Unit);
                            *acc = f.merge(prev, (**v).clone());
                        }
                        None => {
                            accs.insert((**k).clone(), f.merge(f.identity(), (**v).clone()));
                        }
                    }
                }
            }
            accs.into_iter().map(|(k, v)| Value::pair(k, v)).collect()
        }
        OperatorKind::Combine { f, keyed: false } => {
            let mut acc = f.identity();
            for part in input.mains {
                for rec in part {
                    acc = f.merge(acc, rec.clone());
                }
            }
            vec![acc]
        }
        OperatorKind::Sink => {
            let mut out = Vec::new();
            for part in input.mains {
                out.extend(part.iter().cloned());
            }
            out
        }
    })
}

/// The records of a source task's partition, owned (see
/// [`pado_dag::SourceFn::produce`]; tasks read [`pado_dag::SourceFn::block`]).
pub fn source_partition(
    dag: &LogicalDag,
    op: pado_dag::OpId,
    index: usize,
    parallelism: usize,
) -> Vec<Value> {
    match &dag.op(op).kind {
        OperatorKind::Source { f, .. } => f.produce(index, parallelism),
        _ => Vec::new(),
    }
}

/// Executes a fused operator chain for one task, returning its output
/// block.
///
/// `mains` holds the external main inputs of the chain head (one slot
/// per main edge); `sides` maps a chain-member index to that member's
/// broadcast side input (see [`crate::compiler::PlanEdge::member`]).
/// Interior chain members read the previous member's output block as
/// their main input. A generator's partition is sealed into a block once
/// per task run, a dataset's once per dataset. A ParDo at the chain's
/// tail takes each record apart as it is emitted ([`LayoutBuilder`]);
/// an interior one seals rows.
///
/// # Errors
///
/// Propagates the first [`UdfError`] raised by any chain member.
pub fn apply_chain(
    dag: &LogicalDag,
    fop: &Fop,
    index: usize,
    mains: &[MainSlot],
    sides: &BTreeMap<usize, Block>,
) -> Result<Block, UdfError> {
    let tail = fop.chain.len() - 1;
    let apply = |pos: usize, mains: &[MainSlot]| -> Result<Block, UdfError> {
        let op = fop.chain[pos];
        let input = TaskInput::new(mains, sides.get(&pos).map(|b| b.rows()));
        match &dag.op(op).kind {
            OperatorKind::ParDo(f) if pos == tail => {
                let mut out = LayoutBuilder::default();
                f.try_call(input, &mut |v| out.push(v))?;
                Ok(out.finish())
            }
            _ => apply_op_block(dag, op, input),
        }
    };
    let mut data = match &dag.op(fop.head()).kind {
        OperatorKind::Source { f, .. } => f.block(index, fop.parallelism),
        _ => apply(0, mains)?,
    };
    for pos in 1..=tail {
        data = apply(pos, &[MainSlot::from_block(data)])?;
    }
    Ok(data)
}

/// Deterministic hash used for many-to-many record routing.
pub fn route_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    // Route keyed records by key so equal keys co-locate.
    match v.key() {
        Some(k) => k.hash(&mut h),
        None => v.hash(&mut h),
    }
    h.finish()
}

/// Routes one task's output block to consumer task indices along a typed
/// edge. Returns `dst_parallelism` bucket blocks.
///
/// One-to-one, many-to-one, and broadcast edges never copy a record: the
/// target buckets share the input block itself. Only the hash shuffle
/// (many-to-many) materializes new blocks — column-built without a
/// single record clone when the block is columnar, cloning each record
/// exactly once on the row fallback — and the producing task does that
/// once per consumer width (the master files the buckets with the
/// output), so fan-out to N consumers still costs one pass, not N.
pub fn route(
    records: &Block,
    dep: DepType,
    src_index: usize,
    dst_parallelism: usize,
) -> Vec<Block> {
    let p = dst_parallelism.max(1);
    match dep {
        DepType::OneToOne | DepType::ManyToOne => {
            let mut buckets: Vec<Block> = vec![empty_block(); p];
            buckets[src_index % p] = Arc::clone(records);
            buckets
        }
        DepType::OneToMany => vec![Arc::clone(records); p],
        DepType::ManyToMany => {
            if let Some(buckets) = kernels::route_columnar(records, p) {
                return buckets;
            }
            let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); p];
            for r in records.iter() {
                let i = (route_hash(r) % p as u64) as usize;
                buckets[i].push(r.clone());
            }
            buckets.into_iter().map(block_from_vec).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn};

    #[test]
    fn apply_keyed_combine_merges_per_key() {
        let p = Pipeline::new();
        let read = p.read("R", 1, SourceFn::from_vec(vec![]));
        let c = read.combine_per_key("C", CombineFn::sum_i64());
        let cid = c.op_id();
        let dag = p.build().unwrap();
        let input = [MainSlot::from_vec(vec![
            Value::pair(Value::from("a"), Value::from(1i64)),
            Value::pair(Value::from("b"), Value::from(5i64)),
            Value::pair(Value::from("a"), Value::from(2i64)),
        ])];
        let out = apply_op(&dag, cid, TaskInput::new(&input, None)).unwrap();
        assert_eq!(
            out,
            vec![
                Value::pair(Value::from("a"), Value::from(3i64)),
                Value::pair(Value::from("b"), Value::from(5i64)),
            ]
        );
    }

    #[test]
    fn apply_global_combine_merges_all() {
        let p = Pipeline::new();
        let read = p.read("R", 1, SourceFn::from_vec(vec![]));
        let a = read.aggregate("A", CombineFn::sum_f64());
        let aid = a.op_id();
        let dag = p.build().unwrap();
        let input = [
            MainSlot::from_vec(vec![Value::from(1.0), Value::from(2.0)]),
            MainSlot::from_vec(vec![Value::from(3.0)]),
        ];
        let out = apply_op(&dag, aid, TaskInput::new(&input, None)).unwrap();
        assert_eq!(out, vec![Value::from(6.0)]);
    }

    #[test]
    fn group_by_key_groups_sorted() {
        let p = Pipeline::new();
        let read = p.read("R", 1, SourceFn::from_vec(vec![]));
        let g = read.group_by_key("G");
        let gid = g.op_id();
        let dag = p.build().unwrap();
        let input = [MainSlot::from_vec(vec![
            Value::pair(Value::from("b"), Value::from(1i64)),
            Value::pair(Value::from("a"), Value::from(2i64)),
            Value::pair(Value::from("b"), Value::from(3i64)),
        ])];
        let out = apply_op(&dag, gid, TaskInput::new(&input, None)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key().unwrap().as_str(), Some("a"));
        assert_eq!(out[1].val().unwrap().as_list().unwrap().len(), 2);
    }

    #[test]
    fn chain_executes_source_then_ops() {
        let p = Pipeline::new();
        let read = p.read(
            "R",
            2,
            SourceFn::new(|i, _| vec![Value::from(i as i64), Value::from(10 + i as i64)]),
        );
        read.par_do(
            "Double",
            ParDoFn::per_element(|v, e| e(Value::from(v.as_i64().unwrap() * 2))),
        );
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let fop = &plan.fops[0];
        assert_eq!(fop.chain.len(), 2);
        let out = apply_chain(&dag, fop, 1, &[], &BTreeMap::new()).unwrap();
        // A ParDo tail is born columnar.
        assert!(!out.has_rows());
        assert_eq!(out.rows(), &[Value::from(2i64), Value::from(22i64)]);
    }

    #[test]
    fn route_one_to_one_targets_same_index_sharing_the_block() {
        let recs = block_from_vec(vec![Value::from(1i64)]);
        let buckets = route(&recs, DepType::OneToOne, 2, 4);
        assert!(Arc::ptr_eq(&buckets[2], &recs), "bucket shares the block");
        assert!(buckets[0].is_empty() && buckets[1].is_empty() && buckets[3].is_empty());
    }

    #[test]
    fn route_broadcast_shares_the_block_everywhere() {
        let recs = block_from_vec(vec![Value::from(1i64), Value::from(2i64)]);
        let buckets = route(&recs, DepType::OneToMany, 0, 3);
        assert!(buckets.iter().all(|b| Arc::ptr_eq(b, &recs)));
    }

    #[test]
    fn route_many_to_one_round_robins_by_source() {
        let recs = block_from_vec(vec![Value::Unit]);
        assert_eq!(route(&recs, DepType::ManyToOne, 5, 2)[1].len(), 1);
        assert_eq!(route(&recs, DepType::ManyToOne, 4, 2)[0].len(), 1);
    }

    #[test]
    fn route_shuffle_is_deterministic_and_key_consistent() {
        let recs = block_from_vec(
            (0..100)
                .map(|i| Value::pair(Value::from(i % 10), Value::from(i)))
                .collect(),
        );
        let a = route(&recs, DepType::ManyToMany, 0, 4);
        let b = route(&recs, DepType::ManyToMany, 7, 4);
        assert_eq!(a, b, "routing ignores source index for shuffles");
        // Same key always lands in the same bucket.
        for (i, bucket) in a.iter().enumerate() {
            for r in bucket.iter() {
                let h = (route_hash(r) % 4) as usize;
                assert_eq!(h, i);
            }
        }
        // All records preserved.
        assert_eq!(a.iter().map(|b| b.len()).sum::<usize>(), 100);
    }

    #[test]
    fn route_zero_parallelism_clamps_to_one() {
        let recs = block_from_vec(vec![Value::Unit]);
        let buckets = route(&recs, DepType::ManyToMany, 0, 0);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].len(), 1);
    }
}
