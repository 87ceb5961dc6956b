//! Property-based tests over the compiler, the record model, and the
//! runtime's eviction tolerance.

use proptest::prelude::*;

use pado::core::compiler::{compile, partition, place_operators, Placement};
use pado::core::exec::{route, route_hash};
use pado::core::runtime::{FaultPlan, LocalCluster};
use pado::dag::{
    CombineFn, DepType, LogicalDag, Operator, OperatorKind, ParDoFn, SourceFn, SourceKind, Value,
};

/// Builds a random valid logical DAG from a compact genome: for each
/// operator, a kind selector and up to two parent references.
fn dag_from_genome(genome: &[(u8, usize, usize, u8, u8)]) -> LogicalDag {
    let mut dag = LogicalDag::new();
    for (i, &(kind_sel, p1, p2, d1, d2)) in genome.iter().enumerate() {
        let make_dep = |d: u8| match d % 4 {
            0 => DepType::OneToOne,
            1 => DepType::OneToMany,
            2 => DepType::ManyToOne,
            _ => DepType::ManyToMany,
        };
        let is_source = i == 0 || kind_sel % 5 == 0;
        let kind = if is_source {
            OperatorKind::Source {
                kind: if kind_sel % 2 == 0 {
                    SourceKind::Read
                } else {
                    SourceKind::Created
                },
                f: SourceFn::from_vec(vec![Value::Unit]),
            }
        } else {
            match kind_sel % 4 {
                0 | 1 => OperatorKind::ParDo(ParDoFn::per_element(|v, e| e(v.clone()))),
                2 => OperatorKind::GroupByKey,
                _ => OperatorKind::Combine {
                    f: CombineFn::sum_i64(),
                    keyed: kind_sel % 2 == 0,
                },
            }
        };
        let mut op = Operator::new(format!("op{i}"), kind);
        if is_source {
            op.parallelism = Some(1 + (kind_sel as usize % 4));
        }
        let id = dag.add_operator(op);
        if !is_source {
            let a = p1 % id;
            dag.add_edge(a, id, make_dep(d1)).expect("edge a");
            let b = p2 % id;
            if b != a {
                let _ = dag.add_edge(b, id, make_dep(d2));
            }
        }
    }
    dag
}

fn genome_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, u8, u8)>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<usize>(),
            any::<usize>(),
            any::<u8>(),
            any::<u8>(),
        ),
        2..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Algorithm 1's invariants hold on arbitrary DAGs.
    #[test]
    fn placement_invariants(genome in genome_strategy()) {
        let dag = dag_from_genome(&genome);
        prop_assume!(dag.validate().is_ok());
        let placement = place_operators(&dag).unwrap();
        for op in dag.op_ids() {
            let ins = dag.in_edges(op);
            if ins.iter().any(|e| e.dep.is_wide()) {
                prop_assert_eq!(placement[op], Placement::Reserved);
            }
            if !ins.is_empty()
                && ins.iter().all(|e| e.dep == DepType::OneToOne)
                && ins.iter().all(|e| placement[e.src] == Placement::Reserved)
            {
                prop_assert_eq!(placement[op], Placement::Reserved);
            }
            if ins.is_empty() {
                let expected = match dag.op(op).kind {
                    OperatorKind::Source { kind: SourceKind::Read, .. } => Placement::Transient,
                    _ => Placement::Reserved,
                };
                prop_assert_eq!(placement[op], expected);
            }
        }
    }

    /// Algorithm 2's invariants: every operator belongs to a stage; stage
    /// anchors are reserved or terminal; non-anchor members are transient;
    /// stage parent links point backwards (acyclic).
    #[test]
    fn partition_invariants(genome in genome_strategy()) {
        let dag = dag_from_genome(&genome);
        prop_assume!(dag.validate().is_ok());
        let placement = place_operators(&dag).unwrap();
        let stages = partition(&dag, &placement).unwrap();
        for op in dag.op_ids() {
            prop_assert!(
                !stages.stages_containing(op).is_empty(),
                "operator {} in no stage", op
            );
        }
        for s in &stages.stages {
            let anchor_ok = placement[s.anchor] == Placement::Reserved
                || dag.out_edges(s.anchor).is_empty();
            prop_assert!(anchor_ok);
            for &op in &s.ops {
                if op != s.anchor {
                    prop_assert_eq!(placement[op], Placement::Transient);
                }
            }
            for &p in &s.parents {
                prop_assert!(p < s.id, "stage DAG must be topological");
            }
        }
    }

    /// Physical plans are structurally sound: fused chains are one-to-one
    /// same-placement runs, edges reference live fops, and every logical
    /// operator appears in at least one fop.
    #[test]
    fn plan_invariants(genome in genome_strategy()) {
        let dag = dag_from_genome(&genome);
        prop_assume!(dag.validate().is_ok());
        let plan = compile(&dag).unwrap();
        for fop in &plan.fops {
            prop_assert!(!fop.chain.is_empty());
            prop_assert!(fop.parallelism >= 1);
            for pair in fop.chain.windows(2) {
                let e = dag
                    .in_edges(pair[1])
                    .into_iter()
                    .find(|e| e.src == pair[0])
                    .expect("chain members are connected");
                prop_assert_eq!(e.dep, DepType::OneToOne);
                prop_assert_eq!(plan.placement[pair[0]], plan.placement[pair[1]]);
            }
        }
        for e in &plan.edges {
            prop_assert!(e.src < plan.fops.len());
            prop_assert!(e.dst < plan.fops.len());
            prop_assert!(e.member < plan.fops[e.dst].chain.len());
        }
        for op in dag.op_ids() {
            prop_assert!(
                plan.fops.iter().any(|f| f.chain.contains(&op)),
                "operator {} missing from plan", op
            );
        }
    }

    /// Routing conserves records and sends equal keys to equal buckets.
    #[test]
    fn routing_conserves_records(
        keys in proptest::collection::vec(0i64..50, 0..200),
        parts in 1usize..16,
        src in 0usize..8,
    ) {
        let records = pado::dag::block_from_vec(
            keys.iter()
                .map(|&k| Value::pair(Value::from(k), Value::from(k * 2)))
                .collect(),
        );
        let buckets = route(&records, DepType::ManyToMany, src, parts);
        prop_assert_eq!(buckets.len(), parts);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        prop_assert_eq!(total, records.len());
        for (i, bucket) in buckets.iter().enumerate() {
            for r in bucket.iter() {
                prop_assert_eq!((route_hash(r) % parts as u64) as usize, i);
            }
        }
    }

    /// Value ordering is a total order consistent with equality/hashing.
    #[test]
    fn value_order_total(xs in proptest::collection::vec(any::<i64>(), 0..50)) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let vals: Vec<Value> = xs.iter().map(|&x| {
            if x % 3 == 0 { Value::from(x) }
            else if x % 3 == 1 { Value::from(x as f64 * 0.5) }
            else { Value::pair(Value::from(x), Value::Unit) }
        }).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            prop_assert!(w[0] <= w[1]);
            if w[0] == w[1] {
                let h = |v: &Value| {
                    let mut s = DefaultHasher::new();
                    v.hash(&mut s);
                    s.finish()
                };
                prop_assert_eq!(h(&w[0]), h(&w[1]));
            }
        }
    }

    /// Transient-side partial aggregation never changes combine results.
    #[test]
    fn preaggregation_is_transparent(
        pairs in proptest::collection::vec((0i64..10, -100i64..100), 0..100)
    ) {
        use pado::core::runtime::executor::preaggregate;
        let records: Vec<Value> = pairs
            .iter()
            .map(|&(k, v)| Value::pair(Value::from(k), Value::from(v)))
            .collect();
        let f = CombineFn::sum_i64();
        let preagg = |records: &[Value]| {
            preaggregate(pado::dag::block_from_vec(records.to_vec()), &f, true).unwrap()
        };
        let direct = preagg(&records);
        // Split arbitrarily, pre-aggregate each half, merge the partials.
        let mid = records.len() / 2;
        let mut partials = preagg(&records[..mid]).to_vec();
        partials.extend(preagg(&records[mid..]).iter().cloned());
        let merged = preagg(&partials);
        prop_assert_eq!(direct, merged);
    }
}

/// A recursive strategy over arbitrary `Value` trees.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::from),
        any::<f64>().prop_map(Value::from),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..16)
            .prop_map(|b| Value::Bytes(std::sync::Arc::from(b.as_slice()))),
        proptest::collection::vec(any::<f64>(), 0..8).prop_map(Value::vector),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(k, v)| Value::pair(k, v)),
            proptest::collection::vec(inner, 0..4).prop_map(Value::list),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The binary codec round-trips every value tree, single and batched.
    #[test]
    fn codec_roundtrips(v in value_strategy(), batch in proptest::collection::vec(value_strategy(), 0..8)) {
        use pado::dag::codec::{decode, decode_batch, encode, encode_batch};
        prop_assert_eq!(decode(&encode(&v).unwrap()).unwrap(), v);
        prop_assert_eq!(decode_batch(&encode_batch(&batch).unwrap()).unwrap(), batch);
    }

    /// Decoding never panics on arbitrary garbage.
    #[test]
    fn codec_rejects_garbage_gracefully(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = pado::dag::codec::decode(&bytes);
        let _ = pado::dag::codec::decode_batch(&bytes);
    }
}

proptest! {
    // The runtime spawns real threads, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Word-count over the real runtime matches the serial reference for
    /// arbitrary inputs and arbitrary eviction schedules.
    #[test]
    fn runtime_correct_under_random_evictions(
        words in proptest::collection::vec(0u8..6, 1..60),
        partitions in 1usize..6,
        evictions in proptest::collection::vec((1usize..20, 0usize..4), 0..4),
    ) {
        let lines: Vec<Value> = words
            .chunks(4)
            .map(|c| {
                let s: Vec<String> = c.iter().map(|w| format!("w{w}")).collect();
                Value::from(s.join(" "))
            })
            .collect();
        let mut expected = std::collections::BTreeMap::new();
        for line in &lines {
            for w in line.as_str().unwrap().split_whitespace() {
                *expected.entry(w.to_string()).or_insert(0i64) += 1;
            }
        }
        let p = pado::dag::Pipeline::new();
        p.read("Read", partitions, SourceFn::from_vec(lines))
            .par_do(
                "Map",
                ParDoFn::per_element(|line, emit| {
                    for w in line.as_str().unwrap_or("").split_whitespace() {
                        emit(Value::pair(Value::from(w), Value::from(1i64)));
                    }
                }),
            )
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .sink("Out");
        let dag = p.build().unwrap();
        let faults = FaultPlan {
            evictions,
            ..Default::default()
        };
        let result = LocalCluster::new(3, 2).run_with_faults(&dag, faults).unwrap();
        let got: std::collections::BTreeMap<String, i64> = result.outputs["Out"]
            .iter()
            .filter_map(|r| Some((r.key()?.as_str()?.to_string(), r.val()?.as_i64()?)))
            .collect();
        prop_assert_eq!(got, expected);
    }
}
