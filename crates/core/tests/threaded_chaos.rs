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
//! The last tests deliberately wedge the worker pool, then the master
//! thread itself, and assert that each would-be deadlock becomes a
//! structured [`RuntimeError::Wedged`] report: from the master's progress
//! timeout, or from the backstop when the master thread is stuck.

use std::time::{Duration, Instant};

use pado_core::runtime::{
    BackendKind, CancelToken, Candidate, ExecId, FaultPlan, LocalCluster, RuntimeConfig,
    SchedulingPolicy, StallDiagnostics, TaskToPlace, ThreadedBackend,
};
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

/// Runs wordcount on a worker pool wedged by jobs that only yield to
/// cancellation, with no knob beyond a 300 ms event timeout: the master's
/// own progress timeout is the run's one watchdog. Returns how long the
/// run took, its stall report, and the pool's token.
fn wedged_pool_run() -> (Duration, StallDiagnostics, CancelToken) {
    let config = RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 300,
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

    let started = Instant::now();
    let err = LocalCluster::new(2, 2)
        .with_backend(BackendKind::Threaded)
        .with_config(config)
        .run_on_backend(&wordcount_dag(), FaultPlan::default(), &backend)
        .expect_err("a wedged pool cannot complete the job");
    let took = started.elapsed();
    match err {
        RuntimeError::Wedged { diagnostics } => (took, *diagnostics, cancel),
        other => panic!("expected RuntimeError::Wedged, got {other:?}"),
    }
}

/// The fail-well contract: a deliberately wedged worker pool must not
/// hang the suite or leak the master thread. The master's progress
/// timeout ends the run within seconds, and the stall report describes
/// the wedge (jobs in flight, a busy worker) and comes from the master.
#[test]
fn wedged_pool_produces_stalled_with_populated_diagnostics() {
    let (took, d, _) = wedged_pool_run();
    assert!(took < Duration::from_secs(3), "took {took:?}: {d}");
    assert!(
        d.reason.contains("no progress"),
        "the master's timeout fired: {d}"
    );
    assert!(
        d.waited_ms >= 300,
        "the report carries the time waited: {d}"
    );
    assert!(d.pool_in_flight > 0, "the wedged jobs are visible: {d}");
    assert_eq!(d.workers.len(), 2, "one state per worker: {d}");
    assert!(
        d.workers.iter().any(|w| w.busy),
        "a wedged worker is busy: {d}"
    );
    assert!(d.master_joined, "the master returned its own report: {d}");
}

/// After the abort the run's token is cancelled, so the wedged jobs
/// unwind cooperatively, and the report's journal keeps law 11:
/// `RunAborted`, then `PoolQuiesced { in_flight: 0 }`.
#[test]
fn watchdog_abort_quiesces_the_pool_and_cancels_cooperatively() {
    let (_, d, cancel) = wedged_pool_run();
    assert!(cancel.is_cancelled(), "the wedge cancelled the run");
    // The master cancelled the run itself, so the wedged jobs unwound at
    // once: the pool quiesced long before the 600 ms backstop would have
    // cancelled it.
    let at = |kind| {
        let record = d.journal.records().iter().find(|r| r.event.kind() == kind);
        record.expect("journaled").at_us
    };
    let unwound_us = at("PoolQuiesced") - at("RunAborted");
    assert!(
        unwound_us < 200_000,
        "{unwound_us} µs from abort to quiesce"
    );
    let violations = pado_core::runtime::check(&d.journal, false);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A cancel from outside the master — a caller cancelling the pool's
/// token long before the progress timeout — is a deliberate stop, not a
/// detected wedge: the run shuts down and ends as `Aborted`.
#[test]
fn a_cancel_from_outside_ends_as_aborted() {
    let config = RuntimeConfig {
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let backend = ThreadedBackend::from_config(&config);
    backend.worker_pool().cancel_token().cancel();
    let started = Instant::now();
    let err = LocalCluster::new(2, 2)
        .with_backend(BackendKind::Threaded)
        .with_config(config)
        .run_on_backend(&wordcount_dag(), FaultPlan::default(), &backend)
        .expect_err("a cancelled run cannot complete");
    assert!(matches!(err, RuntimeError::Aborted(_)), "{err:?}");
    assert!(started.elapsed() < Duration::from_secs(3));
}

/// A policy whose first placement blocks the master thread for a while:
/// the master is stuck inside a scheduling pass, where its own progress
/// timeout cannot run.
struct SlowFirstPick(Option<Duration>);

impl SchedulingPolicy for SlowFirstPick {
    fn pick(&mut self, _: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId> {
        if let Some(stall) = self.0.take() {
            std::thread::sleep(stall);
        }
        candidates.first().map(|c| c.exec)
    }
}

/// Runs wordcount with the master thread stuck for `stall` in its first
/// placement, under a 200 ms backstop (twice the 100 ms event timeout).
fn stuck_master(stall: Duration) -> (Duration, StallDiagnostics) {
    let config = RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 100,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let started = Instant::now();
    let err = LocalCluster::new(2, 1)
        .with_backend(BackendKind::Threaded)
        .with_config(config)
        .with_policy(move || Box::new(SlowFirstPick(Some(stall))))
        .run(&wordcount_dag())
        .expect_err("the backstop ends the run");
    match err {
        RuntimeError::Wedged { diagnostics } => (started.elapsed(), *diagnostics),
        other => panic!("expected RuntimeError::Wedged, got {other:?}"),
    }
}

/// A master thread stuck past the backstop but not past the grace period
/// observes the backstop's cancel on its next pass and unwinds; the
/// backstop's report stands, with the journal frozen after the master's
/// shutdown, which keeps law 11.
#[test]
fn a_master_stuck_past_the_backstop_unwinds_on_its_cancel() {
    let (took, d) = stuck_master(Duration::from_millis(600));
    assert!(took < Duration::from_secs(2), "took {took:?}: {d}");
    assert!(d.reason.contains("nothing emitted for 200 ms"), "{d}");
    assert!(d.waited_ms >= 200, "{d}");
    assert!(d.master_joined, "{d}");
    let violations = pado_core::runtime::check(&d.journal, false);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A master thread stuck past the grace period too is detached, and the
/// backstop returns the same report, filled with what it can see: the
/// journal so far under the plan's facts, and the pool, but not the
/// master's task table.
#[test]
fn a_master_stuck_past_the_grace_is_detached_with_a_report() {
    let (took, d) = stuck_master(Duration::from_secs(4));
    assert!(took < Duration::from_secs(4), "took {took:?}: {d}");
    assert!(d.reason.contains("nothing emitted for 200 ms"), "{d}");
    assert!(d.waited_ms >= 200, "{d}");
    assert!(!d.master_joined, "{d}");
    assert_eq!(d.outstanding_attempts, None, "{d}");
    assert_eq!(d.workers.len(), 2, "{d}");
    assert!(
        d.journal.meta().n_stages > 0,
        "frozen with the plan's facts"
    );
    assert!(d.to_string().contains("detached"), "{d}");
}
