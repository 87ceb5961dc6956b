//! Seeded drain chaos: every seed runs a job with 1–2 scheduled mid-job
//! drains (a transient executor cordoned ahead of a predicted eviction,
//! its sole-copy outputs copied to reserved stores) layered on top of
//! moderate container/UDF chaos, and must still produce outputs
//! byte-identical to the fault-free, undrained baseline. Some seeds add
//! injected spill-file disk faults and a master restart. Drain ordinals
//! run past the transient pool on purpose (they wrap, as eviction
//! ordinals do), and two drains on a two-executor pool leave the second
//! one transient executor to choose from, which it must refuse.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the fault-free baseline (codec-encoded),
//! - the journal replays cleanly through `assert_clean` (every law,
//!   including law 3's "no launch on a drained executor"),
//! - journal-derived metrics equal the reported metrics,
//! - no more drains applied than came due.
//!
//! A deterministic property test then pins what a drain buys on the
//! fused and unfused plans of small MLR, ALS and MR, on both backends.

use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::runtime::{
    assert_clean, eviction_ledger, BackendKind, ChaosPlan, FaultPlan, JobEvent, JobResult,
    LocalCluster, RuntimeConfig, SpillFaultPlan,
};
use pado_dag::LogicalDag;
use pado_workloads::{als, mlr, mr, AlsConfig, MlrConfig, MrConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{encode_outputs, side_input_dag, wordcount_dag};

const SEEDS: u64 = 110;
const MAX_TASK_ATTEMPTS: usize = 4;
/// Strictly below the retry budget so chaos alone can never exhaust a
/// task's attempts: every seeded job must complete.
const MAX_FAULTS_PER_TASK: usize = 2;

fn chaos_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        ..Default::default()
    }
}

/// 1–2 drains against the progress clock, earliest first (a fault
/// family's list fires in list order).
fn random_drains(rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut drains: Vec<(usize, usize)> = (0..rng.gen_range(1..3usize))
        .map(|_| (rng.gen_range(1..8usize), rng.gen_range(0..6usize)))
        .collect();
    drains.sort_unstable();
    drains
}

fn random_fault_plan(rng: &mut StdRng, seed: u64) -> FaultPlan {
    let evictions = (0..rng.gen_range(0..3usize))
        .map(|_| (rng.gen_range(1..10usize), rng.gen_range(0..3usize)))
        .collect();
    let reserved_failures = (0..rng.gen_range(0..2usize))
        .map(|_| (rng.gen_range(2..10usize), 0))
        .collect();
    let master_failure_after = if rng.gen_bool(0.2) {
        Some(rng.gen_range(3..8usize))
    } else {
        None
    };
    let spill_faults = rng.gen_bool(0.3).then(|| SpillFaultPlan {
        seed: seed ^ 0x5349_4C4C,
        write_prob: rng.gen_range(0.0..0.3),
        read_prob: rng.gen_range(0.0..0.3),
    });
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.10,
            panic_prob: 0.05,
            oom_prob: 0.0,
            delay_prob: 0.20,
            delay_ms: 8,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks: Vec::new(),
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: None,
        drains: random_drains(rng),
        spill_faults,
        crashes: None,
    }
}

fn count(events: &[JobEvent], pick: impl Fn(&JobEvent) -> bool) -> usize {
    events.iter().filter(|e| pick(e)).count()
}

/// Checks one seeded run and returns `(drains due, drains applied)`.
fn check_drain_invariants(seed: u64, faults: &FaultPlan, result: &JobResult) -> (usize, usize) {
    assert_clean(&result.journal, true);

    // The metrics surfaced on the result must be exactly what the
    // journal derives (modulo the four wire-level counters the journal
    // cannot see, which we copy over before comparing).
    let mut derived = result.journal.derive_metrics();
    derived.messages_dropped = result.metrics.messages_dropped;
    derived.messages_duplicated = result.metrics.messages_duplicated;
    derived.messages_deduplicated = result.metrics.messages_deduplicated;
    derived.max_message_retransmissions = result.metrics.max_message_retransmissions;
    assert_eq!(
        derived, result.metrics,
        "seed {seed}: journal-derived metrics drifted from reported metrics"
    );

    // A drain comes due on the commit clock and applies at once or not
    // at all: never more applied than due.
    let events = result.journal.to_events();
    let commits = count(&events, |e| matches!(e, JobEvent::TaskCommitted { .. }));
    let due = faults.drains.iter().filter(|d| d.0 <= commits).count();
    let applied = count(&events, |e| matches!(e, JobEvent::ExecutorDrained { .. }));
    assert!(
        applied <= due,
        "seed {seed}: {applied} drains applied, {due} due"
    );
    (due, applied)
}

#[test]
fn hundred_seeds_of_drain_chaos_preserve_outputs() {
    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(chaos_config())
                .run(dag)
                .unwrap_or_else(|e| panic!("fault-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    let (mut applied_total, mut refused_total, mut wrapped) = (0, 0, 0);
    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_434F_4E46);
        let n_transient = rng.gen_range(2..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let faults = random_fault_plan(&mut rng, seed);
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(chaos_config())
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {faults:?}) failed: {e}"));
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from fault-free baseline"
        );
        let (due, applied) = check_drain_invariants(seed, &faults, &result);
        applied_total += applied;
        refused_total += due - applied;
        let past_the_pool = faults.drains.iter().any(|d| d.1 >= n_transient);
        wrapped += usize::from(past_the_pool && applied == due && due > 0);
    }
    // The matrix reaches all three outcomes it was written for.
    assert!(applied_total > 0, "no seed applied a drain");
    assert!(refused_total > 0, "no seed had a drain refused");
    assert!(wrapped > 0, "no ordinal past the pool wrapped and applied");
}

/// The six plans EXPERIMENTS.md's drain table is measured on: small MLR,
/// ALS and MR, each fused (the default) and unfused.
fn six_plans() -> Vec<(String, LogicalDag, PlanConfig)> {
    let dags = [
        (
            "mlr",
            mlr::dag(&MlrConfig {
                samples: 160,
                features: 6,
                classes: 3,
                partitions: 8,
                iterations: 4,
                lr: 0.5,
                seed: 7,
            }),
        ),
        ("als", als::dag(&AlsConfig::default())),
        ("mr", mr::dag(&MrConfig::default())),
    ];
    let mut plans = Vec::new();
    for (name, dag) in dags {
        for fusion in [true, false] {
            let plan_config = PlanConfig {
                fusion,
                ..PlanConfig::default()
            };
            let label = format!("{name}-{}", if fusion { "fused" } else { "unfused" });
            plans.push((label, dag.clone(), plan_config));
        }
    }
    plans
}

/// What a drain buys, on every plan and both backends: drain the `k`-th
/// transient executor after `n` completions, evict that executor three
/// completions later. From the drain on nothing launches on it, so all
/// the eviction catches was launched before the drain; and nothing
/// committed rests on it alone, so the eviction reverts nothing.
#[test]
fn a_drained_executor_takes_no_work_and_its_eviction_reverts_nothing() {
    let config = RuntimeConfig {
        // A duplicate attempt is a launch no loss accounts for.
        speculation: false,
        tick_ms: 5,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    for (label, dag, plan_config) in six_plans() {
        let total = compile_with(&dag, &plan_config)
            .expect("the plan compiles")
            .total_tasks();
        let cluster = |backend| {
            LocalCluster::new(4, 2)
                .with_backend(backend)
                .with_config(config.clone())
                .with_plan_config(plan_config.clone())
        };
        let baseline = encode_outputs(&cluster(BackendKind::Sim).run(&dag).expect("baseline"));
        for backend in [BackendKind::Sim, BackendKind::Threaded] {
            for point in 0..5 {
                // Five drain points spread over the job, the eviction
                // still inside it; a different victim at each.
                let (n, k) = (1 + (total - 5) * point / 5, point % 4);
                let at = format!("{label} on {backend:?}, drain #{k} after {n}");
                let faults = FaultPlan {
                    drains: vec![(n, k)],
                    evictions: vec![(n + 3, k)],
                    ..Default::default()
                };
                let result = cluster(backend)
                    .run_with_faults(&dag, faults)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_clean(&result.journal, true);
                assert_eq!(encode_outputs(&result), baseline, "{at}: outputs diverged");

                let events = result.journal.to_events();
                let drained: Vec<(usize, usize)> = events
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, e)| match e {
                        JobEvent::ExecutorDrained { exec } => Some((pos, *exec)),
                        _ => None,
                    })
                    .collect();
                let [(drain_pos, victim)] = drained[..] else {
                    panic!("{at}: one requested, feasible drain applies once: {drained:?}");
                };
                // Launches on the victim, by position; those still
                // unreported when it is evicted are what it catches.
                let mut in_flight = std::collections::BTreeMap::new();
                let mut caught = None;
                for (pos, e) in events.iter().enumerate() {
                    match e {
                        JobEvent::TaskLaunched { attempt, exec, .. }
                        | JobEvent::SpeculativeLaunched { attempt, exec, .. }
                            if *exec == victim =>
                        {
                            assert!(pos < drain_pos, "{at}: launch on the drained executor");
                            in_flight.insert(*attempt, pos);
                        }
                        JobEvent::TaskCommitted { attempt, .. }
                        | JobEvent::TaskFailed { attempt, .. } => {
                            in_flight.remove(attempt);
                        }
                        JobEvent::ContainerEvicted(exec) if *exec == victim => {
                            caught = Some(in_flight.len());
                        }
                        _ => {}
                    }
                }
                let ledger = eviction_ledger(&result.journal);
                let [row] = &ledger[..] else {
                    panic!("{at}: one eviction, one ledger row: {ledger:?}");
                };
                assert_eq!(row.exec, victim, "{at}: the eviction takes the drained one");
                assert_eq!(Some(row.running), caught, "{at}: all launched pre-drain");
                assert_eq!((row.reverted, row.dropped), (0, 0), "{at}: {row:?}");
            }
        }
    }
}
