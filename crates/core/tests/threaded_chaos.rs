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
//! coverage, this suite pins cross-backend agreement per family. Each
//! family is a causal row of `common`'s table — what it leaves out, and
//! why, is the `not_causal` of its sim-only sibling — so the shared
//! `run_matrix` runs every seed on sim, then on threads, and adds counter
//! drift to the laws both runs must keep.
//!
//! The final test deliberately wedges the worker pool and asserts the
//! hang watchdog converts the would-be deadlock into a structured
//! [`RuntimeError::Stalled`] with populated diagnostics — and that the
//! master thread is joined, not leaked.

use std::time::Duration;

use pado_core::runtime::{BackendKind, FaultPlan, LocalCluster, RuntimeConfig, ThreadedBackend};
use pado_core::RuntimeError;

mod common;
use common::*;

/// Seeds per family — reduced versus the 110-seed sim matrices.
const SEEDS: u64 = 10;

/// Runs `seeds` of a causal row on both backends.
fn agrees_across_backends(family: &Family, seeds: impl IntoIterator<Item = u64>) {
    let shapes = [("wordcount", wordcount_dag())];
    run_matrix(family, &shapes, seeds, BackendKind::Threaded, |o| {
        let (_, result) = clean(o);
        if let Some(plan) = o.case.faults.crashes {
            assert!(
                result.metrics.wal_recoveries > 0,
                "seed {}: {plan:?} never fired — the family is vacuous",
                o.case.seed
            );
        }
    });
}

/// Family 1: the core failure domain — probabilistic UDF chaos (errors,
/// panics, stalls) on even seeds, container evictions and reserved
/// failures on odd seeds: two rows, tested *separately*, not layered.
#[test]
fn eviction_and_failure_family_agrees_across_backends() {
    agrees_across_backends(&THREADED_UDF, (0..SEEDS).step_by(2));
    agrees_across_backends(&THREADED_EVICTION, (1..SEEDS).step_by(2));
}

/// Family 2: lossy wire — drops, duplicates, reorders, and delays on
/// both directions of the control plane. The at-least-once transport
/// must mask all of it identically on both backends.
#[test]
fn network_family_agrees_across_backends() {
    agrees_across_backends(&THREADED_NETWORK, 0..SEEDS);
}

/// Family 3: memory pressure — a finite store budget, chaos budget
/// shrinks mid-run, and injected allocation failures.
#[test]
fn memory_pressure_family_agrees_across_backends() {
    agrees_across_backends(&THREADED_MEMORY, 0..SEEDS);
}

/// Family 4: drains — a transient executor cordoned ahead of a
/// predicted eviction, layered over UDF chaos.
#[test]
fn drain_family_agrees_across_backends() {
    agrees_across_backends(&THREADED_DRAIN, 0..SEEDS);
}

/// Family 5: master crashes + WAL recovery on the handled-frame clock;
/// on every seed, on either backend, the trigger must have fired.
#[test]
fn crash_recovery_family_agrees_across_backends() {
    agrees_across_backends(&THREADED_CRASH, 0..SEEDS);
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
