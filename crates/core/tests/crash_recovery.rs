//! Seeded crash-recovery matrix: the master is killed at handler
//! boundaries / WAL-append counts across 110 seeds, sometimes with
//! seeded bit-flip + truncation corruption of the WAL file itself, and
//! every recovered run is checked against a crash-free baseline.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the crash-free run (codec-encoded),
//! - the journal replays cleanly through every invariant law, including
//!   law 10 (a recovered run is a consistent continuation: fenced
//!   pre-crash attempts never report terminally, and `WalRecovered`
//!   and `MasterRecovered` events pair one to one),
//! - no double-commits across the crash (a second `TaskCommitted`
//!   needs an intervening `TaskReverted`),
//! - recoveries never exceed the planned crash budget.
//!
//! A second test holds each seed's second run to zero counter drift
//! from its first.

use std::collections::HashMap;
use std::fs;

use pado_core::runtime::{
    scan, temp_wal_path, BlockRef, CrashPlan, FaultPlan, JobEvent, JobResult, LocalCluster,
    RuntimeConfig, WalRecord,
};
use pado_core::RuntimeError;
use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, UdfError, Value};

mod common;
use common::*;

const SEEDS: u64 = 110;

fn check_crash_invariants(seed: u64, result: &JobResult, plan: &CrashPlan) {
    // Every recovered run must replay cleanly through the generic
    // invariant checker — law 10 (crash-recovery continuation) included.
    pado_core::runtime::assert_clean(&result.journal, true);

    let events = result.journal.to_events();

    // Commit-once across the crash: a durable commit must not re-commit
    // after recovery, and a lost commit must revert before relaunching.
    let mut committed: HashMap<(usize, usize), bool> = HashMap::new();
    for e in &events {
        match e {
            JobEvent::TaskCommitted { fop, index, .. } => {
                let slot = committed.entry((*fop, *index)).or_insert(false);
                assert!(
                    !*slot,
                    "seed {seed}: double commit of task {fop}.{index} across the crash"
                );
                *slot = true;
            }
            JobEvent::TaskReverted { fop, index } => {
                committed.insert((*fop, *index), false);
            }
            _ => {}
        }
    }

    // The injector never exceeds its crash budget (law 10 above already
    // pairs every master recovery with a WAL recovery).
    assert!(
        result.metrics.wal_recoveries <= plan.max_crashes,
        "seed {seed}: {} recoveries exceed the crash budget {}",
        result.metrics.wal_recoveries,
        plan.max_crashes
    );
}

/// The 110-seed matrix: randomized crash schedules (three trigger
/// styles), randomized durability knobs, occasional evictions layered on
/// top, and seeded WAL-file corruption on ~30% of seeds.
#[test]
fn crash_matrix_preserves_outputs() {
    let mut runs = 0;
    run_matrix(&CRASH, &chaos_shapes(), 0..SEEDS, |o| {
        let (case, result) = clean(o);
        let plan = case.faults.crashes.expect("every seed crashes");
        check_crash_invariants(case.seed, result, &plan);
        runs += 1;
    });
    assert_eq!(runs, 2 * SEEDS, "every seed runs twice");
}

/// The same matrix as a run-to-run check: task bodies run on the pool's
/// threads and finish in any order, yet `CRASH` is causal, so the
/// harness runs every seed twice and the second run must show zero
/// `drift` from the first. The append clock counts only the frames the
/// master writes, so no executor's emission moves a crash.
#[test]
fn crash_matrix_does_not_drift_on_threads() {
    let mut second_runs = 0;
    run_matrix(&CRASH, &chaos_shapes(), 0..SEEDS, |o| {
        let (case, result) = clean(o);
        if let Some(first) = o.first {
            let drift = first.drift(&result.metrics);
            assert!(drift.is_empty(), "seed {}: drifted {drift:?}", case.seed);
            second_runs += 1;
        }
    });
    assert_eq!(second_runs, SEEDS, "every seed's second run is compared");
}

/// Exhaustive boundary sweep: kill the master at every single handler
/// boundary of the fixed wordcount job. Recovery must be correct no
/// matter which message the crash lands after.
#[test]
fn every_handler_boundary_recovers() {
    let dag = wordcount_dag();
    let baseline = encode_outputs(
        &LocalCluster::new(2, 2)
            .with_config(base_config())
            .run(&dag)
            .expect("crash-free baseline"),
    );
    let mut recoveries_observed = 0usize;
    for boundary in 1..=32u64 {
        let wal = temp_wal_path(&format!("crash-boundary-{boundary}"));
        let plan = CrashPlan {
            seed: boundary,
            after_handled_frames: Some(boundary),
            max_crashes: 1,
            ..Default::default()
        };
        let result = LocalCluster::new(2, 2)
            .with_config(RuntimeConfig {
                wal_path: Some(wal.to_string_lossy().into_owned()),
                wal_snapshot_every: 16,
                ..base_config()
            })
            .run_with_faults(
                &dag,
                FaultPlan {
                    crashes: Some(plan),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("boundary {boundary} failed: {e}"));
        fs::remove_file(&wal).ok();
        assert_eq!(
            encode_outputs(&result),
            baseline,
            "boundary {boundary}: outputs diverged from crash-free baseline"
        );
        check_crash_invariants(boundary, &result, &plan);
        // A short job may complete before a high boundary is reached
        // (the handled-frame count varies with executor timing), but the
        // low boundaries are always hit.
        if boundary <= 6 {
            assert_eq!(
                result.metrics.wal_recoveries, 1,
                "boundary {boundary}: expected exactly one recovery"
            );
        }
        recoveries_observed += result.metrics.wal_recoveries;
    }
    assert!(
        recoveries_observed >= 12,
        "sweep injected only {recoveries_observed} recoveries; the boundary \
         schedule is not exercising the crash path"
    );
}

/// A restart with every executor alive recomputes nothing that had
/// committed: the stores hold every committed output at rest, so the
/// recovered master refetches all of them and only the attempts in
/// flight at the crash run again.
#[test]
fn a_restart_with_every_executor_alive_refetches_every_commit() {
    let p = Pipeline::new();
    p.read("Read", 8, SourceFn::from_vec(ints(400)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, emit| {
                emit(Value::pair(
                    Value::from(v.as_i64().unwrap() % 37),
                    v.clone(),
                ))
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    for budget in [usize::MAX, 1 << 20] {
        let cluster = LocalCluster::new(2, 1).with_config(RuntimeConfig {
            slots_per_executor: 1,
            executor_memory_bytes: budget,
            cache_capacity_bytes: 64 << 10,
            ..base_config()
        });
        let what = format!("budget {budget}");
        let baseline = cluster.run(&dag).expect("fault-free run");
        let released = |e: &JobEvent| {
            matches!(
                e,
                JobEvent::BlockReleased {
                    block: BlockRef::Output { .. },
                    ..
                }
            )
        };
        assert!(
            !baseline.journal.to_events().iter().any(released),
            "{what}: a fault-free run released an output block"
        );

        let faults = FaultPlan {
            master_failure_after: Some(6),
            ..Default::default()
        };
        let result = cluster.run_with_faults(&dag, faults).expect("recovers");
        pado_core::runtime::assert_clean(&result.journal, true);
        assert_eq!(encode_outputs(&result), encode_outputs(&baseline), "{what}");
        assert_eq!(result.metrics.wal_recoveries, 1, "{what}");
        let events = result.journal.to_events();
        let recovered = events
            .iter()
            .position(|e| matches!(e, JobEvent::MasterRecovered))
            .expect("recovery logged");
        let undone: Vec<&JobEvent> = events[recovered..]
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JobEvent::TaskReverted { .. } | JobEvent::OutputDropped { .. }
                )
            })
            .collect();
        assert!(
            undone.is_empty(),
            "{what}: no executor died, yet recovery lost commits: {undone:?}"
        );
        // One slot on each of three executors: at most two attempts
        // besides the committing one were in flight at the crash.
        assert!(
            result.metrics.tasks_launched <= result.metrics.original_tasks + 2,
            "{what}: {} launches for {} tasks",
            result.metrics.tasks_launched,
            result.metrics.original_tasks
        );
    }
}

/// This process's self-armed WAL files still in the temp dir.
fn leftover_temp_wals() -> Vec<String> {
    let prefix = format!("pado-wal-{}-auto-", std::process::id());
    fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// A fault plan that restarts the master needs no `wal_path`: the master
/// logs to a temp file, recovers from it, and removes it — whichever
/// family asked for the restart, and also when the job fails. (No other
/// test in this binary leaves `wal_path` unset under a restart plan, so
/// the temp-dir check cannot race one.)
#[test]
fn restarts_without_a_wal_path_recover_from_a_temp_log_and_remove_it() {
    let dag = wordcount_dag();
    let baseline = LocalCluster::new(2, 2)
        .with_config(base_config())
        .run(&dag)
        .expect("crash-free baseline");
    let plans = [
        FaultPlan {
            master_failure_after: Some(3),
            ..Default::default()
        },
        FaultPlan {
            crashes: Some(CrashPlan {
                after_handled_frames: Some(3),
                max_crashes: 1,
                ..Default::default()
            }),
            ..Default::default()
        },
    ];
    for faults in plans {
        let result = LocalCluster::new(2, 2)
            .with_config(base_config())
            .run_with_faults(&dag, faults.clone())
            .expect("job completes");
        assert_eq!(
            encode_outputs(&result),
            encode_outputs(&baseline),
            "outputs diverged under {faults:?}"
        );
        assert_eq!(
            result.metrics.wal_recoveries, 1,
            "the restart must replay the log: {faults:?}"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
        assert_eq!(leftover_temp_wals(), Vec::<String>::new());
    }

    let p = Pipeline::new();
    p.read("Read", 2, SourceFn::from_vec(ints(4)))
        .par_do(
            "Boom",
            ParDoFn::try_per_element(|_, _| Err(UdfError::new("boom"))),
        )
        .sink("Out");
    let failing = p.build().unwrap();
    let err = LocalCluster::new(2, 2)
        .with_config(base_config())
        .run_with_faults(
            &failing,
            FaultPlan {
                master_failure_after: Some(1),
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::TaskFailed { .. }), "{err:?}");
    assert_eq!(leftover_temp_wals(), Vec::<String>::new());
}

/// The WAL holds what the master emits and nothing an executor, store or
/// link does: an MR job under a store budget with the log armed (the
/// `mr-pressure` setup, at a small size) plus one eviction, its log
/// scanned after the run. Every launch, terminal report, revert and loss
/// in the journal has its event frame, in journal order.
#[test]
fn the_wal_holds_the_masters_events_and_nothing_an_executor_emits() {
    use pado_workloads::mr::{dag, MrConfig};

    let mr = dag(&MrConfig {
        records: 10_000,
        pages: 4_000,
        partitions: 8,
        reducers: 8,
        seed: 1,
    });
    let cluster = |config: RuntimeConfig| LocalCluster::new(4, 2).with_config(config);
    let roomy = RuntimeConfig {
        slots_per_executor: 1,
        executor_memory_bytes: 64 << 20,
        cache_capacity_bytes: 16 << 20,
        ..Default::default()
    };
    let peak = cluster(roomy.clone())
        .run(&mr)
        .expect("working-set probe")
        .metrics
        .peak_store_bytes;
    let budget = (peak * 4 / 7).max(1024);
    let wal = temp_wal_path("master-only");
    let config = RuntimeConfig {
        executor_memory_bytes: budget,
        cache_capacity_bytes: budget / 4,
        wal_path: Some(wal.to_string_lossy().into_owned()),
        ..roomy
    };
    let faults = FaultPlan {
        evictions: vec![(6, 0)],
        ..Default::default()
    };
    let result = cluster(config)
        .run_with_faults(&mr, faults)
        .expect("job completes");
    let image = fs::read(&wal).expect("the log is on disk");
    fs::remove_file(&wal).ok();
    pado_core::runtime::assert_clean(&result.journal, true);

    let executor_side = |e: &JobEvent| {
        matches!(
            e,
            JobEvent::TaskStarted { .. }
                | JobEvent::BlockAdmitted { .. }
                | JobEvent::BlockSpilled { .. }
                | JobEvent::BlockLoaded { .. }
                | JobEvent::BlockReleased { .. }
                | JobEvent::BlockPinned { .. }
                | JobEvent::BlockUnpinned { .. }
                | JobEvent::StoreBudgetChanged { .. }
                | JobEvent::CacheHit { .. }
                | JobEvent::CacheMiss { .. }
                | JobEvent::OomInjected { .. }
        )
    };
    let recovered = |e: &JobEvent| {
        matches!(
            e,
            JobEvent::TaskLaunched { .. }
                | JobEvent::SpeculativeLaunched { .. }
                | JobEvent::TaskCommitted { .. }
                | JobEvent::TaskFailed { .. }
                | JobEvent::TaskReverted { .. }
                | JobEvent::ContainerEvicted(_)
                | JobEvent::ReservedFailed(_)
                | JobEvent::ExecutorDeclaredDead(_)
        )
    };
    let journal = result.journal.to_events();
    let scanned = scan(&image);
    assert_eq!(scanned.frames_truncated, 0, "a crash-free log scans clean");
    let logged: Vec<&JobEvent> = scanned
        .frames
        .iter()
        .filter_map(|f| match &f.record {
            WalRecord::Event { event, .. } => Some(event),
            _ => None,
        })
        .collect();
    let spilled = |e: &JobEvent| matches!(e, JobEvent::BlockSpilled { .. });
    assert!(
        journal.iter().any(spilled) && journal.iter().any(executor_side),
        "the budget must make the stores journal spills"
    );
    let leaked: Vec<&&JobEvent> = logged.iter().filter(|e| executor_side(e)).collect();
    assert!(
        leaked.is_empty(),
        "executor-side frames in the log: {leaked:?}"
    );
    let expected: Vec<&JobEvent> = journal.iter().filter(|e| recovered(e)).collect();
    let framed: Vec<&JobEvent> = logged.into_iter().filter(|e| recovered(e)).collect();
    assert!(expected
        .iter()
        .any(|e| matches!(e, JobEvent::ContainerEvicted(_))));
    assert_eq!(framed, expected, "every recovered-kind event has its frame");
}
