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
//! - the reported metrics equal what the journal derives, so the
//!   recovery statistics (`wal_recoveries`, frames replayed/truncated,
//!   snapshot restores) are exactly the journal's story,
//! - recoveries never exceed the planned crash budget.

use std::collections::HashMap;
use std::fs;

use pado_core::runtime::{
    temp_wal_path, BackendKind, BlockRef, CrashPlan, FaultPlan, JobEvent, JobResult, LocalCluster,
    RuntimeConfig, WalCorruption,
};
use pado_core::RuntimeError;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, UdfError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{encode_outputs, ints, side_input_dag, wordcount_dag};

const SEEDS: u64 = 110;

fn crash_config(
    wal_path: Option<String>,
    sync_every: usize,
    snapshot_every: usize,
) -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: 3,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        wal_path,
        wal_sync_every: sync_every,
        wal_snapshot_every: snapshot_every,
        ..Default::default()
    }
}

/// One randomized crash schedule: a trigger style (fixed handler
/// boundary, every-k-th WAL append, or probabilistic per boundary), a
/// crash budget, and sometimes file corruption between crash and
/// recovery.
fn random_crash_plan(rng: &mut StdRng, seed: u64) -> CrashPlan {
    let mut plan = CrashPlan {
        seed: seed ^ 0x632a_5b01,
        max_crashes: rng.gen_range(1..4usize),
        ..Default::default()
    };
    match rng.gen_range(0..3u32) {
        0 => plan.after_handled_frames = Some(rng.gen_range(1..20u64)),
        1 => plan.every_kth_append = Some(rng.gen_range(5..40u64)),
        _ => plan.handler_prob = 0.08,
    }
    if rng.gen_bool(0.3) {
        plan.corruption = Some(WalCorruption {
            seed: seed ^ 0xc0de,
            bit_flip_prob: 0.0005,
            truncate_prob: 0.3,
        });
    }
    plan
}

fn check_crash_invariants(seed: u64, result: &JobResult, plan: &CrashPlan) {
    // Every recovered run must replay cleanly through the generic
    // invariant checker — law 10 (crash-recovery continuation) included.
    pado_core::runtime::assert_clean(&result.journal, true);

    // The recovery statistics on the result are exactly what the
    // journal derives (modulo the four wire-level counters the journal
    // cannot see).
    let mut derived = result.journal.derive_metrics();
    derived.messages_dropped = result.metrics.messages_dropped;
    derived.messages_duplicated = result.metrics.messages_duplicated;
    derived.messages_deduplicated = result.metrics.messages_deduplicated;
    derived.max_message_retransmissions = result.metrics.max_message_retransmissions;
    assert_eq!(
        derived, result.metrics,
        "seed {seed}: journal-derived metrics drifted from reported metrics"
    );

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
    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(crash_config(None, 1, 64))
                .run(dag)
                .unwrap_or_else(|e| panic!("crash-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let sync_every = rng.gen_range(1..4usize);
        let snapshot_every = rng.gen_range(8..64usize);
        let plan = random_crash_plan(&mut rng, seed);
        let evictions = if rng.gen_bool(0.25) {
            vec![(rng.gen_range(1..10usize), rng.gen_range(0..3usize))]
        } else {
            Vec::new()
        };
        let wal = temp_wal_path(&format!("crash-matrix-{seed}"));
        let faults = FaultPlan {
            evictions,
            crashes: Some(plan),
            ..Default::default()
        };
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(crash_config(
                Some(wal.to_string_lossy().into_owned()),
                sync_every,
                snapshot_every,
            ))
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {plan:?}) failed: {e}"));
        fs::remove_file(&wal).ok();
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from crash-free baseline"
        );
        check_crash_invariants(seed, &result, &plan);
    }
}

/// Exhaustive boundary sweep: kill the master at every single handler
/// boundary of the fixed wordcount job. Recovery must be correct no
/// matter which message the crash lands after.
#[test]
fn every_handler_boundary_recovers() {
    let dag = wordcount_dag();
    let baseline = encode_outputs(
        &LocalCluster::new(2, 2)
            .with_config(crash_config(None, 1, 64))
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
            .with_config(crash_config(
                Some(wal.to_string_lossy().into_owned()),
                1,
                16,
            ))
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
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        for budget in [usize::MAX, 1 << 20] {
            let cluster =
                LocalCluster::new(2, 1)
                    .with_backend(backend)
                    .with_config(RuntimeConfig {
                        slots_per_executor: 1,
                        executor_memory_bytes: budget,
                        cache_capacity_bytes: 64 << 10,
                        event_timeout_ms: 10_000,
                        tick_ms: 5,
                        ..Default::default()
                    });
            let what = format!("{backend:?}, budget {budget}");
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
        .with_config(crash_config(None, 1, 64))
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
            .with_config(crash_config(None, 1, 64))
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
        .with_config(crash_config(None, 1, 64))
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
