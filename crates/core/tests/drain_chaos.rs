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
//! - the journal replays cleanly through every law, including law 3's
//!   "no launch on a drained executor", and the rest of the shared
//!   `violations`,
//! - no more drains applied than came due.
//!
//! A deterministic property test then pins what a drain buys on the
//! fused and unfused plans of small MLR, ALS and MR, on both backends.

use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::runtime::{
    assert_clean, eviction_ledger, BackendKind, FaultPlan, JobEvent, JobResult, LocalCluster,
    RuntimeConfig,
};
use pado_dag::LogicalDag;
use pado_workloads::{als, mlr, mr, AlsConfig, MlrConfig, MrConfig};

mod common;
use common::*;

const SEEDS: u64 = 110;

fn count(events: &[JobEvent], pick: impl Fn(&JobEvent) -> bool) -> usize {
    events.iter().filter(|e| pick(e)).count()
}

/// Checks one seeded run and returns `(drains due, drains applied)`.
fn check_drain_invariants(seed: u64, faults: &FaultPlan, result: &JobResult) -> (usize, usize) {
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
    let (mut applied_total, mut refused_total, mut wrapped) = (0, 0, 0);
    run_matrix(&DRAIN, &chaos_shapes(), 0..SEEDS, BackendKind::Sim, |o| {
        let (case, result) = clean(o);
        let (due, applied) = check_drain_invariants(case.seed, &case.faults, result);
        applied_total += applied;
        refused_total += due - applied;
        let past_the_pool = case.faults.drains.iter().any(|d| d.1 >= case.n_transient);
        wrapped += usize::from(past_the_pool && applied == due && due > 0);
    });
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
