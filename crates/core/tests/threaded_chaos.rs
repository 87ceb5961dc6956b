//! Chaos on real threads: every fault family the sim backend is chaos-
//! tested under also runs on the true-parallel [`ThreadedBackend`], and
//! on the *same seed* the two backends must agree — byte-identical sink
//! outputs, clean journals through the full invariant checker (laws
//! 1–11, including the abort-quiescence law), and zero drift across the
//! deterministic metrics counters.
//!
//! This works because every fault draw routes through the causally-keyed
//! [`FaultInjector`](pado_core::runtime::FaultInjector): decisions key
//! off backend-invariant identifiers (task identity + launch ordinal,
//! transmission ordinal, spill ordinal, handled-frame count), never off
//! loop iteration order or thread interleaving.
//!
//! Seed counts are reduced versus the sim-only matrices (the threaded
//! backend runs real threads per seed); the sim matrices keep the wide
//! coverage, this suite pins cross-backend agreement per family.
//!
//! The final test deliberately wedges the worker pool and asserts the
//! hang watchdog converts the would-be deadlock into a structured
//! [`RuntimeError::Stalled`] with populated diagnostics — and that the
//! master thread is joined, not leaked.

use std::fs;
use std::time::Duration;

use pado_core::runtime::{
    assert_clean, temp_wal_path, BackendKind, ChaosPlan, CrashPlan, DirectionFaults, FaultPlan,
    JobResult, LocalCluster, NetworkFault, RuntimeConfig, ThreadedBackend,
};
use pado_core::RuntimeError;
use pado_dag::LogicalDag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{encode_outputs, wordcount_dag};

/// Seeds per family — reduced versus the 110-seed sim matrices.
const SEEDS: u64 = 10;
const MAX_TASK_ATTEMPTS: usize = 3;
/// Strictly below the retry budget so chaos alone can never exhaust a
/// task's attempts: every seeded job must complete on both backends.
const MAX_FAULTS_PER_TASK: usize = 2;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        threaded_workers: 4,
        ..Default::default()
    }
}

fn run_on(
    backend: BackendKind,
    dag: &LogicalDag,
    config: RuntimeConfig,
    faults: FaultPlan,
) -> JobResult {
    LocalCluster::new(2, 2)
        .with_backend(backend)
        .with_config(config)
        .run_with_faults(dag, faults)
        .expect("seeded job completes")
}

/// The cross-backend contract, per seed: clean journals on both sides,
/// byte-identical outputs, zero deterministic-counter drift.
fn assert_backends_agree(family: &str, seed: u64, sim: &JobResult, threaded: &JobResult) {
    assert_clean(&sim.journal, true);
    assert_clean(&threaded.journal, true);
    assert_eq!(
        encode_outputs(sim),
        encode_outputs(threaded),
        "{family} seed {seed}: backend changed the output bytes"
    );
    let drift = sim.metrics.backend_drift(&threaded.metrics);
    assert!(
        drift.is_empty(),
        "{family} seed {seed}: deterministic counters drifted \
         (counter, sim, threaded): {drift:?}"
    );
}

fn chaos_plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        error_prob: 0.15,
        panic_prob: 0.10,
        oom_prob: 0.0,
        delay_prob: 0.15,
        delay_ms: 4,
        max_faults_per_task: MAX_FAULTS_PER_TASK,
    }
}

/// Family 1: the core failure domain — probabilistic UDF chaos
/// (errors, panics, stalls) on even seeds, container evictions and
/// reserved failures on odd seeds. The two are tested *separately*, not
/// layered: chaos draws key off a task's launch ordinal, and a
/// count-based eviction changes launch counts at a point whose position
/// relative to in-flight launches is timing-dependent on real threads —
/// layering them would re-key the chaos schedule mid-run and let
/// `task_failures` drift by one (same root cause as the wire family's
/// chaos exclusion below).
#[test]
fn eviction_and_failure_family_agrees_across_backends() {
    let dag = wordcount_dag();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = if seed % 2 == 0 {
            FaultPlan {
                chaos: Some(chaos_plan(seed)),
                ..Default::default()
            }
        } else {
            let evictions = (0..rng.gen_range(1..3usize))
                .map(|_| (rng.gen_range(1..10usize), rng.gen_range(0..2usize)))
                .collect::<Vec<_>>();
            let reserved_failures = if rng.gen_bool(0.3) {
                vec![(rng.gen_range(2..10usize), 0)]
            } else {
                Vec::new()
            };
            FaultPlan {
                evictions,
                reserved_failures,
                ..Default::default()
            }
        };
        let sim = run_on(BackendKind::Sim, &dag, config(), faults.clone());
        let threaded = run_on(BackendKind::Threaded, &dag, config(), faults);
        assert_backends_agree("eviction", seed, &sim, &threaded);
    }
}

/// Family 2: lossy wire — drops, duplicates, reorders, and delays on
/// both directions of the control plane. The at-least-once transport
/// must mask all of it identically on both backends.
#[test]
fn network_family_agrees_across_backends() {
    let dag = wordcount_dag();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E45_54FA);
        let dir = |rng: &mut StdRng| DirectionFaults {
            drop_prob: rng.gen_range(0.0..0.12),
            dup_prob: rng.gen_range(0.0..0.08),
            reorder_prob: rng.gen_range(0.0..0.08),
            delay_prob: rng.gen_range(0.0..0.12),
            delay_ms: rng.gen_range(1..8u64),
        };
        let faults = FaultPlan {
            network: Some(NetworkFault {
                seed: seed ^ 0x4E45_54FA,
                to_executor: dir(&mut rng),
                to_master: dir(&mut rng),
                // No timed partitions: their windows are clock-relative,
                // which is exactly the kind of non-causal trigger this
                // suite exists to exclude.
                partitions: Vec::new(),
            }),
            // No UDF chaos overlay here: which frame lands on a given
            // transmission ordinal is timing-dependent, so a retransmit
            // storm can shift a task's launch count by one across
            // backends — and with it the chaos draw schedule. The wire
            // family tests the wire alone: the transport must mask every
            // injected wire fault with zero task failures on both sides.
            ..Default::default()
        };
        let sim = run_on(BackendKind::Sim, &dag, config(), faults.clone());
        let threaded = run_on(BackendKind::Threaded, &dag, config(), faults);
        assert_backends_agree("network", seed, &sim, &threaded);
    }
}

/// Family 3: memory pressure — a finite store budget, chaos budget
/// shrinks mid-run, and injected allocation failures. Spill/defer
/// schedules may differ across backends (they follow real occupancy
/// order); the answer and the deterministic counters may not.
#[test]
fn memory_pressure_family_agrees_across_backends() {
    let dag = wordcount_dag();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5349_4C4C);
        let budget = 4096usize;
        let mem_config = RuntimeConfig {
            executor_memory_bytes: budget,
            cache_capacity_bytes: budget / 4,
            ..config()
        };
        let budget_shrinks = if rng.gen_bool(0.5) {
            vec![(rng.gen_range(2..6usize), 0, budget * 3 / 4)]
        } else {
            Vec::new()
        };
        let faults = FaultPlan {
            budget_shrinks,
            chaos: Some(ChaosPlan {
                oom_prob: 0.12,
                ..chaos_plan(seed)
            }),
            ..Default::default()
        };
        let sim = run_on(BackendKind::Sim, &dag, mem_config.clone(), faults.clone());
        let threaded = run_on(BackendKind::Threaded, &dag, mem_config, faults);
        assert_backends_agree("memory", seed, &sim, &threaded);
    }
}

/// Family 4: drains — a transient executor cordoned ahead of a
/// predicted eviction on the (backend-invariant) progress clock, layered
/// over UDF chaos. Outputs and the deterministic counters must agree.
#[test]
fn drain_family_agrees_across_backends() {
    let dag = wordcount_dag();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7EC0_4F16);
        let faults = FaultPlan {
            drains: vec![(rng.gen_range(1..6usize), rng.gen_range(0..3usize))],
            chaos: rng.gen_bool(0.5).then(|| chaos_plan(seed)),
            ..Default::default()
        };
        let sim = run_on(BackendKind::Sim, &dag, config(), faults.clone());
        let threaded = run_on(BackendKind::Threaded, &dag, config(), faults);
        assert_backends_agree("drain", seed, &sim, &threaded);
    }
}

/// Family 5: master crashes + WAL recovery. The trigger is the
/// handled-frame progress clock (`after_handled_frames`) — the one
/// crash trigger whose firing count is backend-invariant (the
/// `every_kth_append` clock counts racing WAL appends and is documented
/// as non-portable). Each backend run recovers through its own WAL file.
#[test]
fn crash_recovery_family_agrees_across_backends() {
    let dag = wordcount_dag();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x632a_5b01);
        let plan = CrashPlan {
            seed: seed ^ 0x632a_5b01,
            after_handled_frames: Some(rng.gen_range(3..12u64)),
            max_crashes: rng.gen_range(1..3usize),
            ..Default::default()
        };
        let run = |kind: BackendKind, tag: &str| {
            let wal = temp_wal_path(&format!("threaded-chaos-{tag}-{seed}"));
            let wal_config = RuntimeConfig {
                wal_path: Some(wal.to_string_lossy().into_owned()),
                wal_sync_every: 1,
                ..config()
            };
            let faults = FaultPlan {
                crashes: Some(plan),
                ..Default::default()
            };
            let result = run_on(kind, &dag, wal_config, faults);
            fs::remove_file(&wal).ok();
            result
        };
        let sim = run(BackendKind::Sim, "sim");
        let threaded = run(BackendKind::Threaded, "thr");
        assert_backends_agree("crash", seed, &sim, &threaded);
        assert!(
            sim.metrics.wal_recoveries > 0,
            "crash seed {seed}: the trigger never fired — the family is vacuous"
        );
    }
}

/// The fail-well contract: a deliberately wedged worker pool must not
/// hang the suite or leak the master thread. The hang watchdog observes
/// the no-progress window, cancels the run, and `drive` surfaces a
/// structured [`RuntimeError::Stalled`] whose diagnostics describe the
/// wedge (busy workers, jobs in flight, last journal events).
#[test]
fn wedged_pool_produces_stalled_with_populated_diagnostics() {
    let config = RuntimeConfig {
        tick_ms: 5,
        // The stall window (4 × 50 ms) must undercut both timeouts so
        // the watchdog wins the race against Wedged and the wall clock.
        event_timeout_ms: 20_000,
        threaded_wallclock_timeout_ms: 30_000,
        stall_watchdog: true,
        stall_sample_interval_ms: 50,
        stall_samples: 4,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let backend = ThreadedBackend::from_config(&config);
    let pool = backend.worker_pool();
    let cancel = pool.cancel_token();
    // Wedge every worker with a job that only yields to cancellation —
    // the cooperative analogue of a deadlocked task body.
    for _ in 0..2 {
        let c = cancel.clone();
        pool.submit(Box::new(move || {
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }

    let dag = wordcount_dag();
    let err = LocalCluster::new(2, 2)
        .with_backend(BackendKind::Threaded)
        .with_config(config)
        .run_on_backend(&dag, FaultPlan::default(), &backend)
        .expect_err("a wedged pool cannot complete the job");

    match err {
        RuntimeError::Stalled { diagnostics: d } => {
            assert!(!d.reason.is_empty(), "diagnostics carry a reason");
            assert!(d.waited_ms > 0, "diagnostics carry the stall window");
            assert!(d.pool_in_flight > 0, "the wedged jobs are visible: {d}");
            assert_eq!(d.workers.len(), 2, "one state per worker: {d}");
            assert!(
                d.workers.iter().any(|w| w.busy),
                "the wedged workers sample as busy: {d}"
            );
            assert!(
                d.master_joined,
                "the master thread must be joined, not leaked: {d}"
            );
        }
        other => panic!("expected RuntimeError::Stalled, got {other:?}"),
    }
}

/// After a watchdog abort the journal must still satisfy law 11: the
/// abort marker is followed by a pool quiescence and no worker ever
/// detaches. (The frozen journal inside `JobResult` is unreachable on
/// the error path, so this drives the same wedge and inspects the live
/// journal through the backend's pool — the same handle the invariant
/// checker sees in the sim suites.)
#[test]
fn watchdog_abort_quiesces_the_pool_and_cancels_cooperatively() {
    let config = RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 20_000,
        threaded_wallclock_timeout_ms: 30_000,
        stall_watchdog: true,
        stall_sample_interval_ms: 50,
        stall_samples: 4,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let backend = ThreadedBackend::from_config(&config);
    let pool = backend.worker_pool();
    let cancel = pool.cancel_token();
    for _ in 0..2 {
        let c = cancel.clone();
        pool.submit(Box::new(move || {
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }
    let dag = wordcount_dag();
    let err = LocalCluster::new(2, 2)
        .with_backend(BackendKind::Threaded)
        .with_config(config)
        .run_on_backend(&dag, FaultPlan::default(), &backend)
        .expect_err("a wedged pool cannot complete the job");
    assert!(matches!(err, RuntimeError::Stalled { .. }), "got {err:?}");
    // Cancellation propagated: the token is sticky and the blockers
    // observed it (the pool drained to zero within the grace window).
    assert!(cancel.is_cancelled(), "the watchdog cancelled the token");
    assert!(
        pool.wait_quiesce(Duration::from_secs(5)),
        "the wedged jobs exited once cancelled; in flight: {}",
        pool.in_flight()
    );
}
