//! What the integration suites share: the chaos harness of
//! `pado_bench::chaos` (shapes, byte-level output comparison, the seed
//! loop and its checker) and the table of fault families only suites run
//! — one row a matrix, `family_plans_are_pinned` (`chaos.rs`) holding each
//! to the plans its suite drew before the rows existed. A row's
//! `not_causal` is ROADMAP item 8's exclusion list: why that family's
//! counters are not compared between two runs of a seed; every
//! `CAUSAL_*` row is causal because it leaves out what its once-run
//! sibling names, and `run_matrix` runs each of its seeds twice.
#![allow(dead_code, unused_imports)]

pub use pado_bench::chaos::*;
use pado_core::runtime::{CrashPlan, JobResult, RuntimeConfig};
use rand::Rng;

/// The case and result of a run that completed with no violation; panics,
/// naming seed and plan, on any other.
pub fn clean<'a>(o: &'a Outcome) -> (&'a Case, &'a JobResult) {
    let nth = if o.first.is_some() { 2 } else { 1 };
    let at = format!("seed {} ({}, run {nth})", o.case.seed, o.shape);
    let result = o
        .run
        .as_ref()
        .unwrap_or_else(|e| panic!("{at} failed: {e}\n{:?}", o.case));
    assert!(
        o.problems.is_empty(),
        "{at}: {:#?}\n{:?}",
        o.problems,
        o.case
    );
    (o.case, result)
}

const CORE_UDF: Dim = Dim::Udf([0.15, 0.10, 0.0, 0.20], 8);
const UDF_OVER_EVICTIONS: &str =
    "UDF chaos keys off a task's launch ordinal, and a count-based eviction changes launch \
     counts at a point whose place among in-flight launches is timing-dependent on real \
     threads: layered, they re-key the chaos schedule mid-run and task_failures drifts by one";

/// `chaos.rs`: the core failure domain.
pub const CHAOS: Family = Family {
    config: base_config,
    dims: &[EVICT, RESERVED, RESTART, CORE_UDF],
    not_causal: Some(UDF_OVER_EVICTIONS),
    ..BENCH
};
/// `network_chaos.rs`: the lossy wire over the core failure domain.
pub const NETWORK: Family = Family {
    dims: &[EVICT, RESERVED, RESTART, CORE_UDF, WIRE],
    ..BENCH
};
/// `drain_chaos.rs`: 1–2 drains over milder chaos; two transient executors
/// at least, or every drain would be refused.
pub const DRAIN: Family = Family {
    salt: |seed| seed ^ 0x5245_434F_4E46,
    cluster: (2..4, 1..3),
    config: || RuntimeConfig {
        max_task_attempts: 4,
        ..base_config()
    },
    dims: &[
        EVICT,
        RESERVED,
        RESTART,
        SPILL,
        Dim::Udf([0.10, 0.05, 0.0, 0.20], 8),
        DRAINS,
    ],
    ..CHAOS
};
/// `crash_recovery.rs`: crashes under drawn durability knobs, one seed in
/// four with an eviction; no UDF chaos.
pub const CRASH: Family = Family {
    salt: |seed| seed.wrapping_mul(0x9e37_79b9).wrapping_add(7),
    dims: &[
        Dim::WalKnobs,
        Dim::Crash,
        Dim::Maybe(0.25, &Dim::Evictions(1..2, 0..3)),
    ],
    not_causal: None,
    ..CHAOS
};
/// `memory_pressure.rs`: tight budgets (the suite measures `working_sets`),
/// OOMs, shrinks, two seeds in five a milder wire. Master restarts are
/// left out: the suite isolates the memory domain.
pub const MEMORY: Family = Family {
    salt: |seed| seed ^ 0x4D45_4D00,
    dims: &[
        EVICT,
        Dim::Maybe(0.3, &Dim::ReservedFailures(1..2)),
        Dim::Maybe(0.35, &Dim::Shrink(true)),
        Dim::Udf([0.10, 0.05, 0.12, 0.10], 5),
        Dim::Maybe(
            0.4,
            &Dim::Network(0x4D45_4DFA, [0.10, 0.08, 0.08, 0.10], 8, false),
        ),
    ],
    not_causal: Some(UDF_OVER_WIRE),
    ..CHAOS
};
/// `dataplane_equivalence.rs`: a fixed ladder of the core faults.
pub const DATAPLANE: Family = Family {
    cluster: (2..3, 2..3),
    dims: &[
        Dim::Custom(|_, case| {
            let (seed, faults) = (case.seed as usize, &mut case.faults);
            faults.evictions = vec![(2 + seed % 3, seed % 2)];
            faults.reserved_failures = if seed % 3 == 0 { vec![(4, 0)] } else { vec![] };
            faults.master_failure_after = (seed % 4 == 1).then_some(3);
        }),
        Dim::Udf([0.15, 0.10, 0.0, 0.15], 5),
    ],
    ..CHAOS
};
/// `backend_equivalence.rs`' soak: UDF chaos on four pool workers under
/// the default config.
pub const SOAK: Family = Family {
    cluster: (3..4, 2..3),
    config: || RuntimeConfig {
        threaded_workers: 4,
        ..RuntimeConfig::default()
    },
    dims: &[Dim::Udf([0.15, 0.10, 0.0, 0.10], 2)],
    not_causal: Some("a soak of interleavings against the fault-free answer, never of counters"),
    ..CHAOS
};

fn four_workers() -> RuntimeConfig {
    RuntimeConfig {
        threaded_workers: 4,
        ..base_config()
    }
}
const CAUSAL_UDF_PROBS: Dim = Dim::Udf([0.15, 0.10, 0.0, 0.15], 4);

/// `threaded_chaos.rs` family 1, even seeds: UDF chaos (errors, panics,
/// stalls) alone.
pub const CAUSAL_UDF: Family = Family {
    cluster: (2..3, 2..3),
    config: four_workers,
    dims: &[CAUSAL_UDF_PROBS],
    not_causal: None,
    ..CHAOS
};
/// Family 1, odd seeds: evictions and reserved failures alone.
pub const CAUSAL_EVICTION: Family = Family {
    dims: &[
        Dim::Evictions(1..3, 0..2),
        Dim::Maybe(0.3, &Dim::ReservedFailures(1..2)),
    ],
    ..CAUSAL_UDF
};
/// Family 2: the wire alone — no timed partitions, no UDF chaos. The
/// transport must mask every wire fault with zero task failures.
pub const CAUSAL_NETWORK: Family = Family {
    salt: |seed| seed ^ 0x4E45_54FA,
    dims: &[Dim::Network(
        0x4E45_54FA,
        [0.12, 0.08, 0.08, 0.12],
        8,
        false,
    )],
    ..CAUSAL_UDF
};
/// Family 3: a 4 KiB budget, shrinks and OOMs. Spill and defer schedules
/// follow real occupancy order and may differ; answer and counters not.
pub const CAUSAL_MEMORY: Family = Family {
    salt: |seed| seed ^ 0x5349_4C4C,
    config: || with_budget(four_workers(), 4096),
    dims: &[
        Dim::Maybe(0.5, &Dim::Shrink(true)),
        Dim::Udf([0.15, 0.10, 0.12, 0.15], 4),
    ],
    ..CAUSAL_UDF
};
/// Family 4: one drain on the commit clock (the same in every run), half
/// the seeds with UDF chaos.
pub const CAUSAL_DRAIN: Family = Family {
    salt: |seed| seed ^ 0x7EC0_4F16,
    dims: &[
        Dim::Drains(1..2, 1..6, 0..3),
        Dim::Maybe(0.5, &CAUSAL_UDF_PROBS),
    ],
    ..CAUSAL_UDF
};
/// Family 5: 1–2 crashes on the handled-frame clock under a WAL synced
/// at every append, each run recovering through its own WAL file.
/// `CRASH` draws all three triggers and is causal too: the append clock
/// counts only the frames the master writes, never an executor's events.
pub const CAUSAL_CRASH: Family = Family {
    salt: |seed| seed ^ 0x632a_5b01,
    config: || RuntimeConfig {
        wal_sync_every: 1,
        ..four_workers()
    },
    dims: &[Dim::Custom(|rng, case| {
        case.faults.crashes = Some(CrashPlan {
            seed: case.seed ^ 0x632a_5b01,
            after_handled_frames: Some(rng.gen_range(3..12u64)),
            max_crashes: rng.gen_range(1..3usize),
            ..Default::default()
        })
    })],
    ..CAUSAL_UDF
};
