//! Allocation proofs for the block data plane, via the global `Value`
//! clone counter: routing and pushing N records costs zero record clones
//! on one-to-one, gather, and broadcast edges, zero on a hash shuffle of
//! a columnar block (the vectorized kernel copies primitives), exactly N
//! on a hash shuffle of a heterogeneous row block, an end-to-end
//! broadcast job stays O(records) instead of O(records × consumers), a
//! whole map-reduce job over a generator source clones no record at all,
//! and an iterative job over a dataset source clones none of its records:
//! the dataset is dealt into partition blocks once and every read, in
//! every iteration and relaunch, shares them.
//!
//! The counter is process-global and the test harness runs tests on
//! threads, so every counting test serializes on one mutex and measures
//! deltas only while holding it.

use std::sync::Mutex;

use pado_core::exec::route;
use pado_core::runtime::{LocalCluster, RuntimeConfig};
use pado_dag::value::clone_count;
use pado_dag::{block_from_vec, CombineFn, DepType, ParDoFn, Pipeline, SourceFn, TaskInput, Value};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn route_clones_zero_records_on_sharing_edges_and_n_on_shuffle() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 10_000usize;
    // Plain I64 records: one counter tick per record clone, no recursion.
    let block = block_from_vec((0..n as i64).map(Value::from).collect());

    let before = clone_count();
    let one_to_one = route(&block, DepType::OneToOne, 3, 8);
    let broadcast = route(&block, DepType::OneToMany, 0, 8);
    let gather = route(&block, DepType::ManyToOne, 5, 4);
    assert_eq!(
        clone_count() - before,
        0,
        "narrow and broadcast edges must share blocks, not clone records"
    );
    assert_eq!(one_to_one[3].len(), n);
    assert_eq!(broadcast.iter().map(|b| b.len()).sum::<usize>(), 8 * n);
    assert_eq!(gather[1].len(), n);

    // Columnar shuffle: the vectorized kernel buckets by copying column
    // primitives, never cloning a Value.
    let before = clone_count();
    let shuffled = route(&block, DepType::ManyToMany, 0, 8);
    assert_eq!(
        clone_count() - before,
        0,
        "a columnar hash shuffle must not clone records"
    );
    assert_eq!(shuffled.iter().map(|b| b.len()).sum::<usize>(), n);
}

#[test]
fn heterogeneous_shuffle_falls_back_to_one_clone_per_record() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 1_000usize;
    // A Unit sentinel defeats column analysis, forcing the row path.
    let mut records: Vec<Value> = (0..n as i64 - 1).map(Value::from).collect();
    records.push(Value::Unit);
    let block = block_from_vec(records);
    assert!(block.columns().is_none(), "block must be heterogeneous");

    let before = clone_count();
    let shuffled = route(&block, DepType::ManyToMany, 0, 8);
    assert_eq!(
        clone_count() - before,
        n as u64,
        "the row shuffle clones each record exactly once"
    );
    assert_eq!(shuffled.iter().map(|b| b.len()).sum::<usize>(), n);
}

/// End-to-end: broadcasting N records to P consumer tasks — through the
/// master's location table, side-input packaging, and executor cache —
/// must cost far fewer than N record clones in total. The pre-refactor plane deep-cloned the broadcast per
/// consumer task (≥ N×P clones).
#[test]
fn broadcast_job_clones_far_fewer_records_than_the_dataset() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let n = 10_000i64;
    let consumers = 8usize;

    let p = Pipeline::new();
    let bcast = p.read(
        "Bcast",
        1,
        SourceFn::new(move |_, _| (0..n).map(Value::from).collect()),
    );
    let data = p.read(
        "Data",
        consumers,
        SourceFn::new(|i, _| vec![Value::from(i as i64)]),
    );
    data.par_do_with_side(
        "Scan",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + sum));
            }
        }),
    )
    .sink("Out");
    let dag = p.build().unwrap();

    let config = RuntimeConfig {
        slots_per_executor: 2,
        ..Default::default()
    };
    let before = clone_count();
    let result = LocalCluster::new(2, 2)
        .with_config(config)
        .run(&dag)
        .expect("broadcast job");
    let delta = clone_count() - before;

    assert_eq!(result.outputs["Out"].len(), consumers);
    let budget = (n as u64) / 10;
    assert!(
        delta < budget,
        "broadcast job cloned {delta} records; budget {budget} \
         (the cloning plane needed at least {})",
        n as u64 * consumers as u64
    );
}

/// End-to-end: a map-reduce job — map, transient-side pre-aggregation,
/// hash shuffle, keyed combine, sink, result collection — on both
/// backends. Records are decomposed into columns from the map output to
/// the sink, the sink shares the reduce block, and the result rows are
/// built fresh from its columns, so the only `Value` clones a job may
/// make are its source's: this source generates its records, and the
/// whole job clones none.
#[test]
fn map_reduce_job_clones_no_record_past_the_source_read() {
    use pado_core::runtime::BackendKind;

    let _guard = COUNTER_LOCK.lock().unwrap();
    let p = Pipeline::new();
    p.read(
        "Read",
        8,
        SourceFn::new(|part, _| {
            (0..500)
                .map(|i| Value::from(format!("page-{} {}", (part * 500 + i) % 700, i % 9)))
                .collect()
        }),
    )
    .par_do(
        "Map",
        ParDoFn::per_element(|line, emit| {
            let mut it = line.as_str().unwrap().split(' ');
            let (page, n) = (it.next().unwrap(), it.next().unwrap());
            emit(Value::pair(
                Value::from(page),
                Value::from(n.parse::<i64>().unwrap()),
            ));
        }),
    )
    .combine_per_key("Reduce", CombineFn::sum_i64())
    .with_parallelism(4)
    .sink("Out");
    let dag = p.build().unwrap();

    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let before = clone_count();
        let result = LocalCluster::new(2, 2)
            .with_backend(backend)
            .run(&dag)
            .expect("map-reduce job");
        let delta = clone_count() - before;
        assert_eq!(result.outputs["Out"].len(), 700);
        assert_eq!(delta, 0, "{backend:?}: the job cloned {delta} values");
    }
}

/// End-to-end: MLR reads one immutable training set in every iteration
/// (Figure 3b), and a relaunch after an eviction reads it again. The
/// dataset is dealt into partition blocks by its first read and every
/// later read shares them, so the whole job, on both backends, makes
/// fewer `Value` clones than the dataset has records. A source that
/// copied its partition per read cloned each record once per iteration.
#[test]
fn an_iterative_job_clones_no_dataset_record() {
    use pado_core::runtime::{BackendKind, FaultPlan};
    use pado_workloads::{mlr, MlrConfig};

    let _guard = COUNTER_LOCK.lock().unwrap();
    let cfg = MlrConfig {
        iterations: 4,
        ..MlrConfig::default()
    };
    let dag = mlr::dag(&cfg);
    let want = mlr::reference(&cfg);
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let faults = FaultPlan {
            evictions: vec![(8, 0)],
            ..FaultPlan::default()
        };
        let before = clone_count();
        let result = LocalCluster::new(2, 2)
            .with_backend(backend)
            .run_with_faults(&dag, faults)
            .expect("MLR job");
        let delta = clone_count() - before;
        assert_eq!(result.metrics.evictions, 1, "{backend:?}");
        let model = result.outputs["Model Out"][0].as_vector().unwrap();
        assert!(model.iter().zip(&want).all(|(a, b)| (a - b).abs() <= 1e-9));
        assert!(
            delta < cfg.samples as u64,
            "{backend:?}: the job cloned {delta} values over {} records",
            cfg.samples
        );
    }
}
