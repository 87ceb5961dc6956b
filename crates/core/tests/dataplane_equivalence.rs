//! Equivalence suite for the block-based data plane: a naive cloning
//! reference plane executes the same physical plans single-threaded —
//! per-consumer routing, owned `Vec<Value>` partitions, no sharing, no
//! pre-aggregation — and every cluster run must match it byte-for-byte
//! (codec-encoded), including runs under seeded chaos. This pins the
//! refactor's contract: sharing blocks instead of cloning records never
//! changes a single output byte.

use std::collections::BTreeMap;

use pado_core::compiler::{compile, InputSlot, PhysicalPlan};
use pado_core::exec::{apply_chain, route, route_hash};
use pado_core::runtime::master::required_src_indices;
use pado_core::runtime::{BackendKind, LocalCluster};
use pado_dag::codec::encode_batch;
use pado_dag::{
    block_from_vec, block_into_rows, Block, CombineFn, DepType, LogicalDag, MainSlot, ParDoFn,
    Pipeline, SourceFn, TaskInput, Value,
};

mod common;
use common::{base_config, clean, ints, run_matrix, DATAPLANE};

/// The pre-refactor routing semantics: clone every record into its
/// bucket, once per consumer that asks.
fn route_reference(
    records: &[Value],
    dep: DepType,
    src_index: usize,
    dst_parallelism: usize,
) -> Vec<Vec<Value>> {
    let p = dst_parallelism.max(1);
    let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); p];
    match dep {
        DepType::OneToOne | DepType::ManyToOne => {
            buckets[src_index % p].extend(records.iter().cloned());
        }
        DepType::OneToMany => {
            for b in &mut buckets {
                b.extend(records.iter().cloned());
            }
        }
        DepType::ManyToMany => {
            for r in records {
                let i = (route_hash(r) % p as u64) as usize;
                buckets[i].push(r.clone());
            }
        }
    }
    buckets
}

/// Executes a physical plan single-threaded with cloning assembly: every
/// task's inputs are materialized as fresh owned vectors, routed per
/// consumer, exactly as the pre-refactor master did.
fn run_reference(dag: &LogicalDag, plan: &PhysicalPlan) -> BTreeMap<String, Vec<Value>> {
    let n = plan.fops.len();
    let mut outputs: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
    let mut done = vec![false; n];
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for f in 0..n {
            if done[f] || !plan.in_edges(f).iter().all(|e| done[e.src]) {
                continue;
            }
            let fop = &plan.fops[f];
            let dst_par = fop.parallelism;
            outputs[f] = (0..dst_par)
                .map(|index| {
                    let mut mains: Vec<MainSlot> = Vec::new();
                    let mut sides: BTreeMap<usize, Block> = BTreeMap::new();
                    for e in plan.in_edges(f) {
                        let src_par = plan.fops[e.src].parallelism;
                        match e.slot {
                            InputSlot::Main(_) => {
                                let mut part: Vec<Value> = Vec::new();
                                for si in required_src_indices(&e, index, src_par, dst_par) {
                                    let records = &outputs[e.src][si];
                                    match e.dep {
                                        DepType::ManyToMany => part.extend(
                                            route_reference(records, e.dep, si, dst_par)[index]
                                                .iter()
                                                .cloned(),
                                        ),
                                        _ => part.extend(records.iter().cloned()),
                                    }
                                }
                                mains.push(MainSlot::from_vec(part));
                            }
                            InputSlot::Side => {
                                let mut all = Vec::new();
                                for part in outputs[e.src].iter().take(src_par) {
                                    all.extend(part.iter().cloned());
                                }
                                sides.insert(e.member, block_from_vec(all));
                            }
                        }
                    }
                    apply_chain(dag, fop, index, &mains, &sides)
                        .map(block_into_rows)
                        .unwrap_or_else(|e| panic!("reference task {f}.{index} failed: {e}"))
                })
                .collect();
            done[f] = true;
            progressed = true;
        }
        assert!(progressed, "physical plan has an input cycle");
    }

    let mut result: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (f, parts) in outputs.iter().enumerate() {
        if !plan.out_edges(f).is_empty() {
            continue;
        }
        let name = dag.op(plan.fops[f].tail()).name.clone();
        let entry = result.entry(name).or_default();
        for part in parts {
            entry.extend(part.iter().cloned());
        }
    }
    result
}

fn encode(outputs: &BTreeMap<String, Vec<Value>>) -> Vec<(String, Vec<u8>)> {
    outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

/// Shuffle-heavy: ManyToMany into a keyed combine, then a gather.
fn wordcount_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::new(|i, _| {
            (0..40)
                .map(|j| Value::from(format!("w{}", (i as i64 * 17 + j) % 13)))
                .collect()
        }),
    )
    .par_do(
        "Pair",
        ParDoFn::per_element(|w, emit| emit(Value::pair(w.clone(), Value::from(1i64)))),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// Broadcast-heavy: a side input fanned out to every consumer task.
fn broadcast_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(30)));
    let data = p.read("Data", 4, SourceFn::from_vec(ints(12)));
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

/// Gather-heavy: group-by-key over a shuffle, list-valued outputs.
fn groupby_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        3,
        SourceFn::new(|i, _| {
            (0..20)
                .map(|j| Value::pair(Value::from((i as i64 + j) % 7), Value::from(j)))
                .collect()
        }),
    )
    .group_by_key("Group")
    .sink("Out");
    p.build().unwrap()
}

/// Columnar float keys with the full bit-level zoo — `NaN`, `-0.0`,
/// `+0.0` — through a keyed combine. The vectorized grouping kernel
/// sorts these by a monotone bit map; outputs must still be
/// byte-identical to the row path's `total_cmp`-ordered `BTreeMap`.
fn floatkeys_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        3,
        SourceFn::new(|i, _| {
            (0..24)
                .map(|j| {
                    let key = match j % 6 {
                        0 => 0.0f64,
                        1 => -0.0,
                        2 => f64::NAN,
                        3 => 1.5,
                        4 => -2.25,
                        _ => i as f64 + 0.5,
                    };
                    Value::pair(Value::from(key), Value::from(j as i64))
                })
                .collect()
        }),
    )
    .combine_per_key("SumPerKey", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// Two sinks of many parts each, far more parts than a machine has
/// cores: keyed sums (pair columns) and mixed records (rows).
fn many_sink_parts_dag() -> LogicalDag {
    let p = Pipeline::new();
    let read = p.read("Read", 8, SourceFn::from_vec(ints(400)));
    read.par_do(
        "Key",
        ParDoFn::per_element(|v, emit| {
            let x = v.as_i64().unwrap_or(0);
            emit(Value::pair(Value::from(format!("k{}", x % 37)), v.clone()));
        }),
    )
    .combine_per_key("Sum", CombineFn::sum_i64())
    .with_parallelism(6)
    .sink("Sums");
    read.par_do(
        "Mix",
        ParDoFn::per_element(|v, emit| match v.as_i64().unwrap_or(0) {
            x if x % 3 == 0 => emit(Value::from(format!("s{x}"))),
            _ => emit(v.clone()),
        }),
    )
    .sink("Mixed");
    p.build().unwrap()
}

fn shapes() -> Vec<(&'static str, LogicalDag)> {
    vec![
        ("wordcount", wordcount_dag()),
        ("broadcast", broadcast_dag()),
        ("groupby", groupby_dag()),
        ("floatkeys", floatkeys_dag()),
    ]
}

#[test]
fn new_route_matches_cloning_reference_on_all_edge_types() {
    let records: Vec<Value> = (0..200)
        .map(|i| Value::pair(Value::from(i % 23), Value::from(i)))
        .collect();
    let block = block_from_vec(records.clone());
    for dep in [
        DepType::OneToOne,
        DepType::OneToMany,
        DepType::ManyToOne,
        DepType::ManyToMany,
    ] {
        for (src, par) in [(0usize, 1usize), (2, 4), (5, 3), (7, 16)] {
            let new: Vec<Vec<Value>> = route(&block, dep, src, par)
                .iter()
                .map(|b| b.to_vec())
                .collect();
            let old = route_reference(&records, dep, src, par);
            assert_eq!(new, old, "route diverged: {dep:?} src={src} par={par}");
        }
    }
}

/// The vectorized kernels against their row oracle, directly: for every
/// grouping/combining operator over columnar inputs — i64, f64 (with
/// `NaN` and signed zeros), and string keys, spread across several
/// blocks — `apply_op` (kernel path) must produce exactly the records
/// of `apply_op_rows` (BTreeMap path).
#[test]
fn vectorized_kernels_match_row_oracle() {
    use pado_core::exec::{apply_op, apply_op_rows};

    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.group_by_key("G").sink("O1");
    src.combine_per_key("CK", CombineFn::sum_f64()).sink("O2");
    src.aggregate("CG", CombineFn::sum_f64()).sink("O3");
    let dag = p.build().unwrap();
    let op_named = |name: &str| {
        dag.op_ids()
            .find(|&id| dag.op(id).name == name)
            .expect("op exists")
    };

    let i64_keys: Vec<Value> = (0..300)
        .map(|i| Value::pair(Value::from(i % 17), Value::from(i as f64 / 3.0)))
        .collect();
    let f64_keys: Vec<Value> = (0..300)
        .map(|i| {
            let key = match i % 5 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                _ => (i % 13) as f64 * 0.5,
            };
            Value::pair(Value::from(key), Value::from(i as f64))
        })
        .collect();
    let str_keys: Vec<Value> = (0..300)
        .map(|i| Value::pair(Value::from(format!("k{}", i % 11)), Value::from(i as f64)))
        .collect();

    for (what, rows) in [("i64", i64_keys), ("f64", f64_keys), ("str", str_keys)] {
        // Split across blocks so the kernels exercise multi-part gathers.
        let mains = [MainSlot::from_blocks(vec![
            block_from_vec(rows[..100].to_vec()),
            block_from_vec(rows[100..250].to_vec()),
            block_from_vec(rows[250..].to_vec()),
        ])];
        for b in mains[0].parts() {
            assert!(b.columns().is_some(), "{what}: input must be columnar");
        }
        for op in ["G", "CK", "CG"] {
            let input = pado_dag::TaskInput::new(&mains, None);
            let fast = apply_op(&dag, op_named(op), input).unwrap();
            let slow = apply_op_rows(&dag, op_named(op), input).unwrap();
            assert_eq!(
                encode_batch(&fast).unwrap(),
                encode_batch(&slow).unwrap(),
                "{what}/{op}: kernel diverged from row oracle"
            );
        }
    }
}

/// A keyed combine's block is born columnar: for every key kind and
/// combiner it must still be, byte for byte and size for size, the block
/// `block_from_vec` seals over the row oracle's records — including
/// `sum_vector`, whose accumulators are not scalars and fall back to rows.
#[test]
fn keyed_combine_block_encodes_like_the_sealed_row_oracle() {
    use pado_core::exec::{apply_op_block, apply_op_rows};
    use pado_dag::colcodec::encode_block;

    let combiners = [
        ("sum_i64", CombineFn::sum_i64(), true),
        ("sum_f64", CombineFn::sum_f64(), true),
        ("count", CombineFn::count(), true),
        ("max_i64", CombineFn::max_i64(), true),
        ("sum_vector", CombineFn::sum_vector(), false),
    ];
    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    let ops: Vec<_> = combiners
        .iter()
        .map(|(name, f, _)| src.combine_per_key(*name, f.clone()).op_id())
        .collect();
    let dag = p.build().unwrap();

    type Gen = (&'static str, fn(i64) -> Value);
    let keys: [Gen; 4] = [
        ("i64", |i| Value::from(i % 17 - 8)),
        ("f64", |i| {
            Value::from(match i % 5 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                _ => (i % 13) as f64 * 0.5,
            })
        }),
        ("str", |i| Value::from(format!("k{}", i % 11))),
        ("bytes", |i| {
            Value::Bytes(std::sync::Arc::from(
                &[(i % 7) as u8; 3][..(i % 4) as usize],
            ))
        }),
    ];
    let vals: [Gen; 2] = [
        ("i64", |i| Value::from(i * 31 % 100 - 50)),
        ("f64", |i| Value::from(i as f64 / 3.0)),
    ];
    for (key_kind, key) in keys {
        for (val_kind, val) in vals {
            let rows: Vec<Value> = (0..300).map(|i| Value::pair(key(i), val(i))).collect();
            let mains = [MainSlot::from_blocks(vec![
                block_from_vec(rows[..120].to_vec()),
                block_from_vec(rows[120..].to_vec()),
            ])];
            for (&op, (name, _, columnar)) in ops.iter().zip(&combiners) {
                let what = format!("{name} over {key_kind} keys, {val_kind} values");
                let input = TaskInput::new(&mains, None);
                let kernel = apply_op_block(&dag, op, input).unwrap();
                let oracle = block_from_vec(apply_op_rows(&dag, op, input).unwrap());
                assert_eq!(kernel.columns().is_some(), *columnar, "{what}: layout");
                assert_eq!(
                    encode_block(&kernel).unwrap(),
                    encode_block(&oracle).unwrap(),
                    "{what}: bytes"
                );
                assert_eq!(kernel.raw_len(), oracle.raw_len(), "{what}: raw_len");
                assert_eq!(
                    kernel.encoded_len(),
                    oracle.encoded_len(),
                    "{what}: encoded_len"
                );
            }
        }
    }
}

/// A sink over one input block hands that very block on (no record is
/// copied, the memoized size is shared); a sink gathering several blocks
/// still equals the record-cloning row oracle.
#[test]
fn sink_shares_a_single_input_block_and_gathers_several_like_the_oracle() {
    use pado_core::exec::{apply_op_block, apply_op_rows};

    let p = Pipeline::new();
    let sink = p
        .read("Src", 1, SourceFn::from_vec(Vec::new()))
        .sink("Out")
        .op_id();
    let dag = p.build().unwrap();

    let block = block_from_vec(ints(50));
    let size = block.encoded_len();
    let one = [MainSlot::from_block(std::sync::Arc::clone(&block))];
    let out = apply_op_block(&dag, sink, TaskInput::new(&one, None)).unwrap();
    assert!(std::sync::Arc::ptr_eq(&out, &block), "the sink's block");
    assert!(out.is_sized() && out.encoded_len() == size);

    let several = [MainSlot::from_blocks(vec![
        block_from_vec(ints(5)),
        block_from_vec(ints(7)),
    ])];
    let input = TaskInput::new(&several, None);
    let out = apply_op_block(&dag, sink, input).unwrap();
    assert_eq!(out.rows(), &apply_op_rows(&dag, sink, input).unwrap()[..]);
    assert_eq!(out.len(), 12);
}

/// Mistyped records through grouping operators fail with a readable
/// error instead of being silently dropped (the pre-fix behavior).
#[test]
fn non_pair_records_error_instead_of_vanishing() {
    use pado_core::exec::apply_op;

    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.group_by_key("G").sink("O1");
    src.combine_per_key("CK", CombineFn::sum_i64()).sink("O2");
    let dag = p.build().unwrap();
    let op_named = |name: &str| {
        dag.op_ids()
            .find(|&id| dag.op(id).name == name)
            .expect("op exists")
    };

    let mains = [MainSlot::from_vec(vec![
        Value::pair(Value::from(1i64), Value::from(2i64)),
        Value::from(42i64), // not a pair
    ])];
    for (op, what) in [("G", "GroupByKey"), ("CK", "keyed Combine")] {
        let input = pado_dag::TaskInput::new(&mains, None);
        let err = apply_op(&dag, op_named(op), input).expect_err("must fail");
        assert!(
            err.reason().contains(what) && err.reason().contains("42"),
            "{op}: unreadable error: {err}"
        );
    }
}

/// FNV-1a over every byte written into it.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One `mr::dag` job's data plane run task by task as the executor runs
/// it — each map task's chain output pre-aggregated for the reduce
/// combine, then cut into reducer buckets; each reducer's chain over its
/// buckets — folded into one FNV-1a hash: `encode_block` of every
/// pre-aggregated map output, every bucket and every reducer output,
/// then `encode_batch` of every reducer's rows.
fn mr_dataplane_hash(records: usize, pages: usize, seed: u64) -> u64 {
    use pado_core::runtime::executor::{combine_consumer, preaggregate};
    use pado_dag::colcodec::encode_block;
    use pado_workloads::{mr, MrConfig};

    let cfg = MrConfig {
        records,
        pages,
        partitions: 32,
        reducers: 8,
        seed,
    };
    let dag = mr::dag(&cfg);
    let plan = compile(&dag).unwrap();
    let shuffle = (0..plan.fops.len())
        .flat_map(|f| plan.out_edges(f))
        .find(|e| e.dep == DepType::ManyToMany)
        .expect("map-reduce has one shuffle");
    let (maps, reducers) = (plan.fops[shuffle.src].parallelism, cfg.reducers);
    let (f, keyed) = combine_consumer(&dag, &plan, shuffle.src).expect("combine consumer");
    let none = BTreeMap::new();

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut buckets: Vec<Vec<Block>> = vec![Vec::new(); reducers];
    for i in 0..maps {
        let out = apply_chain(&dag, &plan.fops[shuffle.src], i, &[], &none).unwrap();
        let out = preaggregate(out, &f, keyed).unwrap();
        h.write(&encode_block(&out).unwrap());
        for (j, b) in route(&out, DepType::ManyToMany, i, reducers)
            .into_iter()
            .enumerate()
        {
            h.write(&encode_block(&b).unwrap());
            buckets[j].push(b);
        }
    }
    let outs: Vec<Block> = buckets
        .into_iter()
        .enumerate()
        .map(|(j, parts)| {
            let mains = [MainSlot::from_blocks(parts)];
            apply_chain(&dag, &plan.fops[shuffle.dst], j, &mains, &none).unwrap()
        })
        .collect();
    for out in &outs {
        h.write(&encode_block(out).unwrap());
    }
    for out in &outs {
        h.write(&encode_batch(out.rows()).unwrap());
    }
    h.0
}

/// Every byte the map-reduce data plane encodes, pinned by hash: the
/// grouping sort, the dictionary finder and the LZ matcher may get
/// faster, but they may not change one map output, bucket or reducer
/// output. The hashes were recorded before those kernels were rewritten.
#[test]
fn mr_dataplane_bytes_are_pinned() {
    let settings: [((usize, usize), [u64; 3]); 3] = [
        (
            (250_000, 100_000),
            [
                0xf51c_7de2_2acc_98f6,
                0xde61_2989_86c2_837e,
                0x8baf_daa0_5977_c2f6,
            ],
        ),
        (
            (20_000, 50),
            [
                0x8c95_ea73_d194_d7cf,
                0xf6f7_fe8c_f100_f6b9,
                0x8efa_4e35_ce43_63b1,
            ],
        ),
        (
            (5_000, 5_000),
            [
                0x8ffd_70e9_0e59_321e,
                0xa9b5_0c66_b942_aedc,
                0x1f79_3178_ebb8_7e8d,
            ],
        ),
    ];
    let got: Vec<((usize, usize), [u64; 3])> = std::thread::scope(|s| {
        let runs: Vec<_> = settings
            .iter()
            .map(|&((records, pages), _)| {
                s.spawn(move || {
                    let hashes = [1, 2, 3].map(|seed| mr_dataplane_hash(records, pages, seed));
                    ((records, pages), hashes)
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(got, settings, "(records, pages) -> hashes for seeds 1-3");
}

#[test]
fn cluster_outputs_match_cloning_reference_plane() {
    for (name, dag) in shapes() {
        let plan = compile(&dag).unwrap();
        let expected = encode(&run_reference(&dag, &plan));
        let result = LocalCluster::new(2, 2)
            .with_config(base_config())
            .run(&dag)
            .unwrap_or_else(|e| panic!("{name}: cluster run failed: {e}"));
        assert_eq!(
            encode(&result.outputs),
            expected,
            "{name}: block data plane diverged from cloning reference"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}

/// The master builds the result rows on several threads; what it
/// returns is still every sink part's rows, joined serially in
/// `(fop, index)` order.
#[test]
fn result_rows_join_the_sink_parts_in_fop_and_index_order() {
    let dag = many_sink_parts_dag();
    let plan = compile(&dag).unwrap();
    let sinks = (0..plan.fops.len()).filter(|&f| plan.out_edges(f).is_empty());
    let parts: Vec<usize> = sinks.map(|f| plan.fops[f].parallelism).collect();
    assert_eq!(parts, [8, 6], "sink parts per terminal fop");
    let expected = encode(&run_reference(&dag, &plan));
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let result = LocalCluster::new(2, 2)
            .with_config(base_config())
            .with_backend(backend)
            .run(&dag)
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert_eq!(encode(&result.outputs), expected, "{backend:?}");
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}

/// Chaos runs — evictions, reserved failures, master restarts, injected
/// UDF faults — must still land byte-for-byte on the reference answer.
#[test]
fn chaos_outputs_match_cloning_reference_plane() {
    for (name, dag) in shapes() {
        let plan = compile(&dag).unwrap();
        let expected = encode(&run_reference(&dag, &plan));
        run_matrix(&DATAPLANE, &[(name, dag)], 0..8, BackendKind::Sim, |o| {
            let (case, result) = clean(o);
            assert_eq!(
                encode(&result.outputs),
                expected,
                "{name} seed {}: chaos run diverged from reference",
                case.seed
            );
        });
    }
}
