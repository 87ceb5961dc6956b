//! Run-to-run agreement under chaos: every fault family the matrices
//! test has a causal row here, and on the *same seed* two runs must
//! agree — byte-identical sink outputs, clean journals through the full
//! invariant checker (laws 1–11, including the abort-quiescence law),
//! and zero drift across the deterministic metrics counters. There is
//! one driver (the master on the caller's thread, bodies on the job's
//! pool), so what this pins is agreement between runs whose bodies
//! interleave differently.
//!
//! This works because every fault draw routes through the causally-keyed
//! [`FaultInjector`](pado_core::runtime::FaultInjector): decisions key
//! off identifiers that do not depend on interleaving (task identity +
//! launch ordinal, transmission ordinal, spill ordinal, handled-frame
//! count), never off loop iteration order or thread interleaving.
//!
//! Seed counts are reduced versus the 110-seed matrices; those keep the
//! wide coverage, this suite pins run-to-run agreement per family. Each
//! family is a causal row of `common`'s table — what it leaves out, and
//! why, is the `not_causal` of its sibling — so the shared `run_matrix`
//! runs every seed twice and adds counter drift to the laws both runs
//! must keep.
//!
//! The last tests deliberately wedge the worker pool, then stall the
//! master inside a scheduling pass, and assert that each would-be
//! deadlock becomes the master's own [`RuntimeError::Wedged`] report.

use std::time::{Duration, Instant};

use pado_core::runtime::{
    CancelToken, Candidate, ExecBackend, ExecId, FaultPlan, JobResult, LocalCluster, RuntimeConfig,
    SchedulingPolicy, SimBackend, StallDiagnostics, TaskToPlace,
};
use pado_core::RuntimeError;

mod common;
use common::*;

/// Seeds per family — reduced versus the 110-seed sim matrices.
const SEEDS: u64 = 10;

/// Runs `seeds` of a causal row, each twice.
fn agrees_run_to_run(family: &Family, seeds: impl IntoIterator<Item = u64>) {
    let shapes = [("wordcount", wordcount_dag())];
    run_matrix(family, &shapes, seeds, |o| {
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
fn eviction_and_failure_family_agrees_run_to_run() {
    agrees_run_to_run(&CAUSAL_UDF, (0..SEEDS).step_by(2));
    agrees_run_to_run(&CAUSAL_EVICTION, (1..SEEDS).step_by(2));
}

/// Family 2: lossy wire — drops, duplicates, reorders, and delays on
/// both directions of the control plane. The at-least-once transport
/// must mask all of it identically in both runs.
#[test]
fn network_family_agrees_run_to_run() {
    agrees_run_to_run(&CAUSAL_NETWORK, 0..SEEDS);
}

/// Family 3: memory pressure — a finite store budget, chaos budget
/// shrinks mid-run, and injected allocation failures.
#[test]
fn memory_pressure_family_agrees_run_to_run() {
    agrees_run_to_run(&CAUSAL_MEMORY, 0..SEEDS);
}

/// Family 4: drains — a transient executor cordoned ahead of a
/// predicted eviction, layered over UDF chaos.
#[test]
fn drain_family_agrees_run_to_run() {
    agrees_run_to_run(&CAUSAL_DRAIN, 0..SEEDS);
}

/// Family 5: master crashes + WAL recovery on the handled-frame clock;
/// on every seed, in both runs, the trigger must have fired.
#[test]
fn crash_recovery_family_agrees_run_to_run() {
    agrees_run_to_run(&CAUSAL_CRASH, 0..SEEDS);
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
    let backend = SimBackend::from_config(&config);
    let pool = backend.pool();
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
/// hang the suite. The master's progress timeout ends the run within
/// seconds, and the stall report describes the wedge (jobs in flight, a
/// busy worker).
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
}

/// After the abort the run's token is cancelled, so the wedged jobs
/// unwind cooperatively, and the report's journal keeps law 11:
/// `RunAborted`, then `PoolQuiesced { in_flight: 0 }`.
#[test]
fn watchdog_abort_quiesces_the_pool_and_cancels_cooperatively() {
    let (_, d, cancel) = wedged_pool_run();
    assert!(cancel.is_cancelled(), "the wedge cancelled the run");
    // The master cancelled the run itself, so the wedged jobs unwound at
    // once.
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
    let backend = SimBackend::from_config(&config);
    backend.pool().cancel_token().cancel();
    let started = Instant::now();
    let err = LocalCluster::new(2, 2)
        .with_config(config)
        .run_on_backend(&wordcount_dag(), FaultPlan::default(), &backend)
        .expect_err("a cancelled run cannot complete");
    assert!(matches!(err, RuntimeError::Aborted(_)), "{err:?}");
    assert!(started.elapsed() < Duration::from_secs(3));
}

/// A policy that blocks the master thread for `stall` in its `at`-th
/// placement (from 0): the master is stuck inside a scheduling pass,
/// where its progress timeout runs only once the pass returns.
struct StallPick {
    at: usize,
    stall: Duration,
    picks: usize,
}

impl SchedulingPolicy for StallPick {
    fn pick(&mut self, _: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId> {
        if self.picks == self.at {
            std::thread::sleep(self.stall);
        }
        self.picks += 1;
        candidates.first().map(|c| c.exec)
    }
}

/// Runs wordcount on one one-slot transient executor, so each pass
/// places at most one transient task, with the master stalled 600 ms in
/// its `at`-th placement under a 100 ms event timeout. Returns how long
/// the run took and what it returned.
fn stalled_pick(at: usize) -> (Duration, Result<JobResult, RuntimeError>) {
    let config = RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 100,
        threaded_workers: 2,
        slots_per_executor: 1,
        speculation: false,
        ..RuntimeConfig::default()
    };
    let started = Instant::now();
    let run = LocalCluster::new(1, 1)
        .with_config(config)
        .with_policy(move || {
            Box::new(StallPick {
                at,
                stall: Duration::from_millis(600),
                picks: 0,
            })
        })
        .run(&wordcount_dag());
    (started.elapsed(), run)
}

/// Nothing watches the master from outside: a master stalled in a
/// placement is caught by its own progress timeout as soon as the pass
/// returns, the first pass included (the progress clock starts before
/// it). The run ends as the master's `Wedged`, with the one attempt that
/// pick launched outstanding and a journal that keeps law 11.
#[test]
fn a_master_stalled_in_a_pick_is_caught_by_its_own_timeout() {
    for at in [1, 0] {
        let (took, run) = stalled_pick(at);
        let d = match run {
            Err(RuntimeError::Wedged { diagnostics }) => diagnostics,
            other => panic!("pick {at}: expected Wedged, got {other:?}"),
        };
        assert!(
            took < Duration::from_secs(2),
            "pick {at}: took {took:?}: {d}"
        );
        assert!(
            d.reason.contains("no progress within 100 ms"),
            "pick {at}: {d}"
        );
        assert!(d.waited_ms >= 600, "pick {at}: {d}");
        assert_eq!(d.outstanding_attempts, 1, "pick {at}: {d}");
        let violations = pado_core::runtime::check(&d.journal, false);
        assert!(violations.is_empty(), "pick {at}: {violations:?}");
    }
}
