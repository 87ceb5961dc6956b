//! Property tests of a dataset source's deal. `SourceFn::from_vec` deals
//! its records into partition blocks once, by its first read, and every
//! read returns what the round-robin oracle `skip(p).step_by(t)` over the
//! original records returns: at the dealt partitioning, at any other one
//! asked for afterwards, for an empty dataset, and for more partitions
//! than records. Reads at the dealt partitioning share one block, the deal
//! moves records instead of cloning them, concurrent first reads deal
//! once, and a generator still produces its records on every read.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use pado_dag::value::thread_clone_count;
use pado_dag::{SourceFn, Value};
use proptest::prelude::*;

fn oracle(data: &[Value], partition: usize, total: usize) -> Vec<Value> {
    data.iter()
        .skip(partition)
        .step_by(total)
        .cloned()
        .collect()
}

/// `Pair(i64, Vector)` records, the shape of the MLR training set.
fn samples(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::pair(Value::from(i as i64), Value::vector(vec![i as f64; 3])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_read_equals_the_round_robin_oracle(
        len in prop_oneof![Just(0usize), 0usize..17, 0usize..301],
        first in 1usize..18,
        second in 1usize..18,
    ) {
        let data = samples(len);
        let source = SourceFn::from_vec(data.clone());
        // The first pass deals; the second asks for another partitioning
        // of the dealt blocks; the third comes back to the dealt one. One
        // partition past the last is read too.
        for total in [first, second, first] {
            for p in 0..=total {
                let (want, block) = (oracle(&data, p, total), source.block(p, total));
                prop_assert_eq!(block.rows(), &want[..]);
                prop_assert_eq!(source.produce(p, total), want);
            }
        }
    }
}

#[test]
fn reads_at_the_dealt_partitioning_share_one_block_and_clone_nothing() {
    let source = SourceFn::from_vec(samples(100));
    let before = thread_clone_count();
    let first = source.block(3, 8);
    assert_eq!(thread_clone_count(), before, "the deal moves the records");
    assert!(Arc::ptr_eq(&first, &source.block(3, 8)));
    let _ = source.block(3, 5);
    let clone = source.clone();
    assert!(
        Arc::ptr_eq(&first, &clone.block(3, 8)),
        "clones share the deal"
    );
    assert_eq!(first.len(), 13);
}

#[test]
fn concurrent_first_reads_deal_once() {
    let (len, total) = (257, 16);
    let data = samples(len);
    let source = SourceFn::from_vec(data.clone());
    let start = Barrier::new(total);
    let read: Vec<_> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..total)
            .map(|p| {
                let (source, start) = (&source, &start);
                s.spawn(move || {
                    start.wait();
                    source.block(p, total)
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect()
    });
    // A second deal would have found the records gone, or left a reader
    // holding a block the source does not.
    for (p, block) in read.iter().enumerate() {
        assert!(Arc::ptr_eq(block, &source.block(p, total)), "partition {p}");
        assert_eq!(block.rows(), &oracle(&data, p, total)[..]);
    }
}

#[test]
fn a_generator_produces_its_records_on_every_read() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let source = SourceFn::new(move |p, _| {
        counted.fetch_add(1, Ordering::Relaxed);
        vec![Value::from(p as i64)]
    });
    let (a, b) = (source.block(1, 4), source.block(1, 4));
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(source.produce(1, 4), vec![Value::from(1i64)]);
    assert_eq!(calls.load(Ordering::Relaxed), 3);
}
