//! Property tests of the byte-accounted executor store: for arbitrary
//! seeded sequences of admit / pin / unpin / release / cache-put /
//! budget-shrink operations,
//!
//! - combined occupancy (blocks + cache) never exceeds the store's
//!   (possibly clamped) budget,
//! - every block read back — including blocks that round-tripped
//!   through the disk spill tier, spilled from the image they were sized
//!   with or encoded afresh — is byte-identical to what was admitted,
//! - pinned blocks are never spilled,
//! - refusals are always clean `StoreError`s, never panics or silent
//!   corruption.

use std::collections::HashMap;

use pado_core::runtime::journal::Journal;
use pado_core::runtime::{BlockRef, ExecutorStore, StoreError};
use pado_dag::codec::encode_batch;
use pado_dag::colcodec::encode_block;
use pado_dag::{block_from_vec, Block, Value};
use proptest::prelude::*;

/// A dataset of `n` distinct I64 records (delta-friendly, so encoded
/// sizes stay small but distinct per `n`). With `kept` it arrives sized
/// with its image, as a worker under a budget reports it, and a spill
/// writes that image; without, a spill encodes it.
fn dataset(salt: usize, n: usize, kept: bool) -> Block {
    let block = block_from_vec(
        (0..n)
            .map(|i| Value::from((salt * 1_000 + i) as i64))
            .collect(),
    );
    if kept {
        block.keep_image();
    }
    block
}

/// `back` holds the records of `expected` and encodes to its bytes,
/// whichever image (kept, read back from disk, or none) it carries.
fn same_block(back: &Block, expected: &Block) -> Result<(), TestCaseError> {
    let rows = |b: &Block| encode_batch(b).expect("encodes");
    prop_assert_eq!(rows(back), rows(expected));
    let image = back.image().expect("encodes");
    prop_assert_eq!(&*image, &encode_block(expected).expect("encodes")[..]);
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    /// Admit block `key` with `n` records (push / preserved output),
    /// `kept` its image or not.
    Admit { key: usize, n: usize, kept: bool },
    /// Producer-local admit: straight to disk when memory is full.
    AdmitOrSpill { key: usize, n: usize, kept: bool },
    /// Pin block `key` with `n` records (admission control).
    Pin { key: usize, n: usize, kept: bool },
    /// Drop one pin of block `key`.
    Unpin { key: usize },
    /// Release block `key` if unpinned (invalidation).
    Release { key: usize },
    /// Read block `key` back (reloads from disk if spilled).
    Get { key: usize },
    /// Best-effort cache insert under the same budget.
    CachePut { key: usize, n: usize },
    /// Shrink (or grow) the budget.
    SetBudget { bytes: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0..8usize;
    let n = 1..12usize;
    let kept = any::<bool>;
    prop_oneof![
        (key.clone(), n.clone(), kept()).prop_map(|(key, n, kept)| Op::Admit { key, n, kept }),
        (key.clone(), n.clone(), kept()).prop_map(|(key, n, kept)| Op::AdmitOrSpill {
            key,
            n,
            kept
        }),
        (key.clone(), n.clone(), kept()).prop_map(|(key, n, kept)| Op::Pin { key, n, kept }),
        key.clone().prop_map(|key| Op::Unpin { key }),
        key.clone().prop_map(|key| Op::Release { key }),
        key.clone().prop_map(|key| Op::Get { key }),
        (key, n).prop_map(|(key, n)| Op::CachePut { key, n }),
        (16..160usize).prop_map(|bytes| Op::SetBudget { bytes }),
    ]
}

fn blk(key: usize) -> BlockRef {
    BlockRef::Output { fop: key, index: 0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary operation sequences keep combined occupancy within the
    /// budget at every step, round-trip every surviving block
    /// byte-identically through the spill tier, and never spill a
    /// pinned block.
    #[test]
    fn occupancy_never_exceeds_budget(
        budget in 32..128usize,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut store = ExecutorStore::new(1, budget, budget / 2, Journal::new());
        // What each admitted block must read back as, while it lives.
        let mut model: HashMap<usize, Block> = HashMap::new();
        let mut pins: HashMap<usize, usize> = HashMap::new();

        for op in &ops {
            match op {
                Op::Admit { key, n, kept } => {
                    let data = dataset(*key, *n, *kept);
                    match store.admit(blk(*key), &data) {
                        Ok(()) => {
                            model.entry(*key).or_insert(data);
                        }
                        Err(StoreError::NoHeadroom { .. } | StoreError::TooLarge { .. }) => {}
                        Err(e) => prop_assert!(false, "admit failed hard: {e}"),
                    }
                }
                Op::AdmitOrSpill { key, n, kept } => {
                    let data = dataset(*key, *n, *kept);
                    match store.admit_or_spill(blk(*key), &data) {
                        Ok(()) => {
                            model.entry(*key).or_insert(data);
                        }
                        Err(StoreError::TooLarge { .. }) => {}
                        Err(e) => prop_assert!(false, "admit_or_spill failed hard: {e}"),
                    }
                }
                Op::Pin { key, n, kept } => {
                    let data = dataset(*key, *n, *kept);
                    match store.pin(blk(*key), &data) {
                        Ok(()) => {
                            model.entry(*key).or_insert(data);
                            *pins.entry(*key).or_insert(0) += 1;
                        }
                        Err(StoreError::NoHeadroom { .. } | StoreError::TooLarge { .. }) => {}
                        Err(e) => prop_assert!(false, "pin failed hard: {e}"),
                    }
                }
                Op::Unpin { key } => {
                    store.unpin(blk(*key));
                    if let Some(c) = pins.get_mut(key) {
                        *c = c.saturating_sub(1);
                        if *c == 0 {
                            pins.remove(key);
                        }
                    }
                }
                Op::Release { key } => {
                    if store.remove_unpinned(blk(*key)) {
                        prop_assert!(
                            pins.get(key).copied().unwrap_or(0) == 0,
                            "released block {key} while pinned"
                        );
                        model.remove(key);
                    }
                }
                Op::Get { key } => match store.get(blk(*key)) {
                    Ok(Some(back)) => {
                        if let Some(expected) = model.get(key) {
                            same_block(&back, expected)?;
                        }
                    }
                    Ok(None) => {}
                    // Pinned siblings can block the reload's headroom.
                    Err(StoreError::NoHeadroom { .. }) => {}
                    Err(e) => prop_assert!(false, "get({key}) failed hard: {e}"),
                },
                Op::CachePut { key, n } => {
                    store.cache_put(*key, dataset(100 + key, *n, false));
                }
                Op::SetBudget { bytes } => {
                    let applied = store.set_budget(*bytes);
                    prop_assert!(
                        applied >= *bytes || applied >= store.occupancy(),
                        "applied budget {applied} below request {bytes} and occupancy"
                    );
                }
            }
            // The core law, checked after every single operation.
            prop_assert!(
                store.occupancy() <= store.budget(),
                "occupancy {} exceeded budget {} after {op:?}",
                store.occupancy(),
                store.budget()
            );
        }

        // Every surviving block reads back exactly as admitted, whether
        // it stayed resident or round-tripped through a spill file.
        // Reads need reload headroom, so drop all pins first.
        for (key, count) in pins.drain() {
            for _ in 0..count {
                store.unpin(blk(key));
            }
        }
        for (key, expected) in &model {
            if !store.contains(blk(*key)) {
                continue;
            }
            match store.get(blk(*key)) {
                Ok(Some(back)) => same_block(&back, expected)?,
                Ok(None) => prop_assert!(false, "store claims block {key} but returns nothing"),
                // A shrunk budget can be smaller than a spilled block;
                // its reload then refuses cleanly rather than overflow.
                Err(StoreError::NoHeadroom { .. }) => {}
                Err(e) => prop_assert!(false, "get({key}) failed hard: {e}"),
            }
        }
    }
}
