//! Seeded chaos harness: randomized fault plans (evictions, reserved
//! failures, master restarts) combined with probabilistic UDF faults and
//! delays, each seed checked against a fault-free baseline.
//!
//! Invariants enforced per seed, by the shared `violations`:
//! - outputs byte-identical to the fault-free run (codec-encoded),
//! - the journal replays cleanly through every law (law 1: a second
//!   `TaskCommitted` needs an intervening `TaskReverted`),
//! - per-task failures stay under the retry budget, counted across
//!   restarts,
//! - the launch ledger balances, and the transport counters read zero
//!   (this family injects no wire fault),
//!
//! and by this suite alone: launch counts per task bounded by the faults
//! actually injected.

use std::collections::HashMap;

use pado_core::runtime::{JobEvent, JobResult};

mod common;
use common::*;

const SEEDS: u64 = 110;

/// Launch counts are bounded by actual fault activity. Container losses
/// and master recoveries can silently drop a running attempt (Running ->
/// Pending without a revert event), so they bound the slack globally.
fn check_launch_bound(seed: u64, result: &JobResult) {
    let events = result.journal.to_events();
    let events = &events;

    let mut failures: HashMap<(usize, usize), usize> = HashMap::new();
    for e in events {
        if let JobEvent::TaskFailed { fop, index, .. } = e {
            *failures.entry((*fop, *index)).or_default() += 1;
        }
    }
    let container_losses = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                JobEvent::ContainerEvicted(_) | JobEvent::ReservedFailed(_)
            )
        })
        .count();
    let recoveries = events
        .iter()
        .filter(|e| matches!(e, JobEvent::MasterRecovered))
        .count();
    let mut launches: HashMap<(usize, usize), usize> = HashMap::new();
    let mut reverts: HashMap<(usize, usize), usize> = HashMap::new();
    let mut speculations: HashMap<(usize, usize), usize> = HashMap::new();
    for e in events {
        match e {
            JobEvent::TaskLaunched { fop, index, .. } => {
                *launches.entry((*fop, *index)).or_default() += 1;
            }
            JobEvent::TaskReverted { fop, index } => {
                *reverts.entry((*fop, *index)).or_default() += 1;
            }
            JobEvent::SpeculativeLaunched { fop, index, .. } => {
                *speculations.entry((*fop, *index)).or_default() += 1;
            }
            _ => {}
        }
    }
    for (task, n) in &launches {
        let bound = 1
            + failures.get(task).copied().unwrap_or(0)
            + reverts.get(task).copied().unwrap_or(0)
            + speculations.get(task).copied().unwrap_or(0)
            + container_losses
            + recoveries;
        assert!(
            *n <= bound,
            "seed {seed}: task {task:?} launched {n} times, bound {bound}"
        );
    }
}

#[test]
fn hundred_seeds_of_chaos_preserve_outputs() {
    run_matrix(&CHAOS, &chaos_shapes(), 0..SEEDS, |o| {
        let (case, result) = clean(o);
        check_launch_bound(case.seed, result);
    });
}

/// Seed 36 of the binary's row, every dimension on: a reserved failure
/// reverts the inputs of a combine that is still straggling on another
/// reserved executor (the replacement of a blacklisted one). The master
/// used to launch the straggler's speculative duplicate all the same and
/// fail the job on the input it no longer had — three runs in five.
#[test]
fn a_straggler_whose_input_was_reverted_is_not_duplicated() {
    run_matrix(&BENCH, &chaos_shapes(), [36; 8], |o| {
        clean(o);
    });
}

/// FNV-1a over the `Debug` rendering of every seed's cluster, config and
/// plan (the config before a WAL path is armed).
fn plan_hash(family: &Family, seeds: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for seed in seeds {
        let case = family.case(seed, (seed % 2) as usize);
        let line = (
            case.n_transient,
            case.n_reserved,
            &case.config,
            &case.faults,
        );
        for byte in format!("{line:?}\n").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Every row draws, seed for seed, the cluster, config and plan its suite
/// (or the `chaos` binary) drew when each kept a generator of its own:
/// the hashes were recorded on the last commit that did, and re-pinned
/// once when four stall knobs no row varied left `RuntimeConfig` (each
/// new hash is the old rows' rendering with those four fields cut out).
#[test]
fn family_plans_are_pinned() {
    let sized = Family {
        working_sets: &[(1000, 9000), (1000, 9000)],
        ..MEMORY
    };
    let unflagged = Family {
        dims: &BENCH.dims[..5],
        ..BENCH
    };
    let pins: [(&str, &Family, u64, u64); 12] = [
        ("chaos", &CHAOS, 110, 0x4ff0_9ec3_b053_b472),
        ("network", &NETWORK, 110, 0x4bf4_3543_0298_672b),
        ("drain", &DRAIN, 110, 0xb356_c967_8855_4863),
        ("crash", &CRASH, 110, 0x221e_1cf6_a66d_d761),
        ("memory", &sized, 110, 0x2dfd_2fca_f201_6934),
        ("bench", &unflagged, 110, 0x1ea4_e2e2_f172_06be),
        ("bench-all", &BENCH, 110, 0x3a7e_6c98_96ff_b2a2),
        ("causal-network", &CAUSAL_NETWORK, 10, 0x2eb5_8da9_d74f_8911),
        ("causal-memory", &CAUSAL_MEMORY, 10, 0x3db7_f763_eeb7_d763),
        ("causal-drain", &CAUSAL_DRAIN, 10, 0xc953_4762_36b6_70f8),
        ("causal-crash", &CAUSAL_CRASH, 10, 0xa285_2666_5378_cc66),
        ("dataplane", &DATAPLANE, 8, 0x1d4f_e388_e1ae_0b3d),
    ];
    for (name, family, seeds, pinned) in pins {
        assert_eq!(plan_hash(family, 0..seeds), pinned, "{name}");
    }
    // Family 1 of `threaded_chaos.rs` is two rows, split by seed parity;
    // the soak seeds its UDF chaos with `0x50AC ^ round`.
    let (evens, odds) = ((0..10).step_by(2), (1..10).step_by(2));
    assert_eq!(plan_hash(&CAUSAL_UDF, evens), 0x53ff_27bb_1150_0426);
    assert_eq!(plan_hash(&CAUSAL_EVICTION, odds), 0xf49e_0a37_8a9c_018b);
    let rounds = (0..10).map(|round| 0x50AC ^ round);
    assert_eq!(plan_hash(&SOAK, rounds), 0x11b8_6435_4452_837e);
}
