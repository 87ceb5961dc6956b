//! Vectorized column-at-a-time kernels for the data-plane hot paths.
//!
//! When every input block of a `GroupByKey`, `Combine`, or hash-shuffle
//! route exposes a column layout, these kernels run over the flat column
//! vectors instead of dispatching per boxed [`Value`] record: grouping
//! is one sort of (u64 key, position) pairs, routing is a primitive copy
//! per record, and neither clones a single `Value`. The row
//! implementations in [`crate::exec`] remain the semantic oracle — every
//! kernel here must produce byte-identical output, which the equivalence
//! suites assert across the chaos matrices:
//!
//! - grouping order: a sort by (key, input position) reproduces
//!   `BTreeMap<Value, _>` iteration exactly — ascending keys (floats by
//!   `total_cmp` via a monotone bit map, strings by an 8-byte
//!   abbreviation with a full-bytes tie-break), values in encounter
//!   order ([`ScalarCol::sort_perm`]);
//! - shuffle buckets: [`ScalarCol::hash_at`] feeds the same
//!   `DefaultHasher` the same tag byte and payload writes as
//!   `Value::hash`, so every record lands in the row path's bucket.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use pado_dag::column::analyze;
use pado_dag::{
    block_from_columns, block_from_vec, empty_block, Block, Columns, CombineFn, MainSlot,
    ScalarCol, Value,
};

/// Gathers every part of every main slot into one concatenated pair of
/// key/value columns. `None` when there are no parts, any part is
/// non-columnar or not pair-shaped, or the scalar kinds differ across
/// parts — the caller then takes the row path.
pub fn gather_pairs(mains: &[MainSlot]) -> Option<(ScalarCol, ScalarCol)> {
    let mut parts: Vec<(&ScalarCol, &ScalarCol)> = Vec::new();
    for slot in mains {
        for b in slot.parts() {
            match b.columns() {
                Some(Columns::Pair { keys, vals }) => parts.push((keys, vals)),
                _ => return None,
            }
        }
    }
    let ((k0, v0), rest) = parts.split_first()?;
    let mut keys = k0.empty_like();
    let mut vals = v0.empty_like();
    for (k, v) in std::iter::once(&(*k0, *v0)).chain(rest) {
        if !keys.append(k) || !vals.append(v) {
            return None;
        }
    }
    Some((keys, vals))
}

/// Collects each part's column layout (kinds may differ across parts —
/// a global combine folds records one part at a time). `None` as soon
/// as any part is non-columnar.
pub fn gather_columns(mains: &[MainSlot]) -> Option<Vec<&Columns>> {
    let mut out = Vec::new();
    for slot in mains {
        for b in slot.parts() {
            out.push(b.columns()?);
        }
    }
    Some(out)
}

/// Walks the runs of equal keys in `BTreeMap` order, handing each run's
/// input positions (in encounter order) to `per_run`, and returns the
/// runs' keys as a column.
fn group_runs(keys: &ScalarCol, mut per_run: impl FnMut(&[u32])) -> ScalarCol {
    let (perm, starts) = keys.sort_perm();
    let mut out = keys.empty_like();
    let ends = starts.iter().skip(1).map(|&e| e as usize);
    for (start, end) in starts.iter().zip(ends.chain([perm.len()])) {
        let run = &perm[*start as usize..end];
        out.push_from(keys, run[0] as usize);
        per_run(run);
    }
    out
}

/// The fresh values of `col` at `run`'s positions.
fn values_at<'a>(col: &'a ScalarCol, run: &'a [u32]) -> impl Iterator<Item = Value> + 'a {
    run.iter().map(|&i| col.value_at(i as usize))
}

/// One `(key, value)` record per value, the `i`-th key fresh from `keys`.
fn pair_up(keys: &ScalarCol, vals: impl IntoIterator<Item = Value>) -> Vec<Value> {
    (0..)
        .zip(vals)
        .map(|(i, v)| Value::pair(keys.value_at(i), v))
        .collect()
}

/// Vectorized `GroupByKey`: `(key, [values...])` pairs, keys ascending,
/// values in input order.
pub fn group_by_key(keys: &ScalarCol, vals: &ScalarCol) -> Vec<Value> {
    let mut lists = Vec::new();
    let keys = group_runs(keys, |run| {
        lists.push(Value::list(values_at(vals, run).collect()))
    });
    pair_up(&keys, lists)
}

/// Vectorized keyed `Combine`: folds each key's values in input order,
/// starting from the combiner's identity — the exact merge sequence of
/// the row path — and emits the `(key, accumulator)` records as a block.
///
/// The block is columnar (keys copied column to column) when the
/// accumulators analyze to one scalar column, and a row block of the
/// same records when they do not (`sum_vector`, mixed kinds). That is
/// the layout analysis of the records would find, so either way the
/// block encodes to the bytes of `block_from_vec` over them. A combiner
/// with a typed fold ([`CombineFn::i64_fold`]) folds an i64 column
/// straight into an i64 column, with no `Value` per record.
pub fn combine_keyed(keys: &ScalarCol, vals: &ScalarCol, f: &CombineFn) -> Block {
    if let (ScalarCol::I64(xs), Some((identity, op))) = (vals, f.i64_fold()) {
        let fold = |run: &[u32]| run.iter().fold(identity, |acc, &i| op(acc, xs[i as usize]));
        let mut accs = Vec::new();
        let keys = group_runs(keys, |run| accs.push(fold(run)));
        let vals = ScalarCol::I64(accs);
        return seal(Columns::Pair { keys, vals });
    }
    let mut accs = Vec::new();
    let keys = group_runs(keys, |run| accs.push(f.merge_all(values_at(vals, run))));
    match analyze(&accs) {
        Some(Columns::Scalar(vals)) => block_from_columns(Columns::Pair { keys, vals }),
        _ => block_from_vec(pair_up(&keys, accs)),
    }
}

/// Vectorized global `Combine`: folds every record of every part in
/// order, constructing each operand fresh from its column (no clones).
pub fn combine_global(parts: &[&Columns], f: &CombineFn) -> Value {
    let mut acc = f.identity();
    for cols in parts {
        for i in 0..cols.len() {
            acc = f.merge(acc, cols.value_at(i));
        }
    }
    acc
}

fn bucket_of(col: &ScalarCol, i: usize, p: u64) -> usize {
    let mut h = DefaultHasher::new();
    col.hash_at(i, &mut h);
    (h.finish() % p) as usize
}

fn seal(cols: Columns) -> Block {
    if cols.is_empty() {
        empty_block()
    } else {
        block_from_columns(cols)
    }
}

/// Vectorized hash-shuffle routing: buckets a columnar block into `p`
/// column-built blocks without cloning a record. Pair records hash by
/// key, scalars by the whole value — the same rule as
/// [`crate::exec::route_hash`]. `None` for non-columnar blocks.
pub fn route_columnar(block: &Block, p: usize) -> Option<Vec<Block>> {
    match block.columns()? {
        Columns::Pair { keys, vals } => {
            let mut kb: Vec<ScalarCol> = (0..p).map(|_| keys.empty_like()).collect();
            let mut vb: Vec<ScalarCol> = (0..p).map(|_| vals.empty_like()).collect();
            for i in 0..keys.len() {
                let b = bucket_of(keys, i, p as u64);
                kb[b].push_from(keys, i);
                vb[b].push_from(vals, i);
            }
            Some(
                kb.into_iter()
                    .zip(vb)
                    .map(|(keys, vals)| seal(Columns::Pair { keys, vals }))
                    .collect(),
            )
        }
        Columns::Scalar(c) => {
            let mut bs: Vec<ScalarCol> = (0..p).map(|_| c.empty_like()).collect();
            for i in 0..c.len() {
                let b = bucket_of(c, i, p as u64);
                bs[b].push_from(c, i);
            }
            Some(bs.into_iter().map(|c| seal(Columns::Scalar(c))).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair_rows(n: i64, k: i64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::pair(Value::from(i % k), Value::from(i)))
            .collect()
    }

    #[test]
    fn gather_pairs_concatenates_slot_parts_in_order() {
        let slots = [
            MainSlot::from_blocks(vec![
                block_from_vec(pair_rows(3, 2)),
                block_from_vec(pair_rows(2, 2)),
            ]),
            MainSlot::from_vec(pair_rows(1, 2)),
        ];
        let (keys, vals) = gather_pairs(&slots).expect("columnar");
        assert_eq!(keys.len(), 6);
        assert_eq!(vals.len(), 6);
        let ScalarCol::I64(k) = keys else { panic!() };
        assert_eq!(k, vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn gather_pairs_refuses_mixed_or_row_blocks() {
        // Non-pair block.
        let slots = [MainSlot::from_vec(vec![Value::from(1i64)])];
        assert!(gather_pairs(&slots).is_none());
        // Pair blocks whose key kinds differ across parts.
        let slots = [MainSlot::from_blocks(vec![
            block_from_vec(vec![Value::pair(Value::from(1i64), Value::from(1i64))]),
            block_from_vec(vec![Value::pair(Value::from("s"), Value::from(1i64))]),
        ])];
        assert!(gather_pairs(&slots).is_none());
        // Heterogeneous (row-fallback) block.
        let slots = [MainSlot::from_vec(vec![
            Value::pair(Value::from(1i64), Value::from(1i64)),
            Value::Unit,
        ])];
        assert!(gather_pairs(&slots).is_none());
        // No parts at all.
        assert!(gather_pairs(&[]).is_none());
    }

    #[test]
    fn group_by_key_matches_btreemap_order() {
        let rows = pair_rows(20, 3);
        let (keys, vals) = gather_pairs(&[MainSlot::from_vec(rows)]).unwrap();
        let out = group_by_key(&keys, &vals);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key(), Some(&Value::from(0i64)));
        let vs = out[0].val().unwrap().as_list().unwrap();
        let got: Vec<i64> = vs.iter().map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(got, vec![0, 3, 6, 9, 12, 15, 18], "values keep input order");
    }

    #[test]
    fn combine_keyed_folds_in_input_order() {
        let rows = pair_rows(10, 2);
        let (keys, vals) = gather_pairs(&[MainSlot::from_vec(rows)]).unwrap();
        let out = combine_keyed(&keys, &vals, &CombineFn::sum_i64());
        assert_eq!(
            out.columns(),
            Some(&Columns::Pair {
                keys: ScalarCol::I64(vec![0, 1]),
                vals: ScalarCol::I64(vec![2 + 4 + 6 + 8, 1 + 3 + 5 + 7 + 9]),
            })
        );
    }

    #[test]
    fn combine_keyed_emits_rows_when_the_accumulators_are_not_one_column() {
        let rows = pair_rows(10, 3);
        let (keys, vals) = gather_pairs(&[MainSlot::from_vec(rows)]).unwrap();
        // Key 0 folds to an i64, key 1 to a float, key 2 to an i64 again.
        let mixed = CombineFn::new(
            || Value::I64(0),
            |a, b| match b.as_i64() {
                Some(x) if x % 3 == 1 => Value::F64(a.as_f64().unwrap() + x as f64),
                Some(x) => Value::I64(a.as_i64().unwrap() + x),
                None => a,
            },
        );
        let out = combine_keyed(&keys, &vals, &mixed);
        assert!(
            out.columns().is_none(),
            "mixed accumulators are a row block"
        );
        assert_eq!(
            out.rows(),
            &[
                Value::pair(Value::from(0i64), Value::from(3 + 6 + 9i64)),
                Value::pair(Value::from(1i64), Value::from((1 + 4 + 7) as f64)),
                Value::pair(Value::from(2i64), Value::from(2 + 5 + 8i64)),
            ]
        );
    }

    /// `f`'s identity and merge behind `CombineFn::new`, which has no
    /// typed fold and so folds `Value`s.
    fn on_values(f: &CombineFn) -> CombineFn {
        let (id, merge) = (f.clone(), f.clone());
        CombineFn::new(move || id.identity(), move |a, b| merge.merge(a, b))
    }

    proptest! {
        /// The typed i64 fold seals the block the `Value` fold does: the
        /// same bytes and sizes, over i64 and str keys, on short and long
        /// inputs. Sums stay clear of overflow.
        #[test]
        fn typed_i64_folds_seal_the_value_folds_bytes(
            recs in proptest::collection::vec(
                (0i64..90, -1_000_000i64..1_000_000, prop_oneof![
                    Just(i64::MIN),
                    Just(i64::MAX),
                    any::<i64>(),
                ]),
                1..700,
            ),
            str_keys in any::<bool>(),
        ) {
            use pado_dag::colcodec::encode_block;
            let folds = [("sum", CombineFn::sum_i64()), ("max", CombineFn::max_i64()), ("min", CombineFn::min_i64())];
            for (name, f) in folds {
                let rows = recs.iter().map(|&(k, small, wide)| {
                    let key = if str_keys { Value::from(format!("k-{k}")) } else { Value::from(k) };
                    Value::pair(key, Value::from(if name == "sum" { small } else { wide }))
                });
                let (keys, vals) = gather_pairs(&[MainSlot::from_vec(rows.collect())]).unwrap();
                let generic = on_values(&f);
                prop_assert!(f.i64_fold().is_some() && generic.i64_fold().is_none());
                let (typed, generic) = (combine_keyed(&keys, &vals, &f), combine_keyed(&keys, &vals, &generic));
                prop_assert_eq!(encode_block(&typed).unwrap(), encode_block(&generic).unwrap(), "{}", name);
                prop_assert_eq!(
                    (typed.raw_len(), typed.encoded_len()),
                    (generic.raw_len(), generic.encoded_len())
                );
            }
        }
    }

    #[test]
    fn route_columnar_clones_nothing() {
        let block = block_from_vec(pair_rows(500, 17));
        block.columns().expect("columnar");
        let before = pado_dag::value::thread_clone_count();
        let buckets = route_columnar(&block, 8).expect("columnar route");
        assert_eq!(
            pado_dag::value::thread_clone_count(),
            before,
            "routing must not clone"
        );
        assert_eq!(buckets.iter().map(|b| b.len()).sum::<usize>(), 500);
    }
}
