//! Task-failure domain tests: UDF fault isolation, bounded retries,
//! executor blacklisting, speculative execution, and master-restart
//! recovery (§3.2.5–§3.2.6 plus the runtime's failure model).

use pado_core::compiler::compile;
use pado_core::runtime::master::JobEvent;
use std::time::{Duration, Instant};

use pado_core::runtime::{
    assert_clean, BackendKind, ChaosPlan, ExecBackend, FaultPlan, LocalCluster, RuntimeConfig,
    SimBackend,
};
use pado_core::RuntimeError;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, UdfError, Value};

mod common;
use common::ints;

fn wordcount_dag(partitions: usize) -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        partitions,
        SourceFn::from_vec(vec![
            Value::from("a b a"),
            Value::from("c a"),
            Value::from("b"),
            Value::from("a c c"),
        ]),
    )
    .par_do(
        "Map",
        ParDoFn::per_element(|line, emit| {
            for w in line.as_str().unwrap_or("").split_whitespace() {
                emit(Value::pair(Value::from(w), Value::from(1i64)));
            }
        }),
    )
    .combine_per_key("Reduce", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

fn fast_config() -> RuntimeConfig {
    RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 10_000,
        ..Default::default()
    }
}

/// A deterministically-failing UDF consumes exactly `max_task_attempts`
/// attempts and fails the job with `RuntimeError::TaskFailed` — no hang,
/// no crashed worker thread, full event log attached.
#[test]
fn deterministic_udf_error_exhausts_retry_budget() {
    let p = Pipeline::new();
    p.read("Read", 2, SourceFn::from_vec(ints(4)))
        .par_do(
            "Boom",
            ParDoFn::try_per_element(|_, _| Err(UdfError::new("boom"))),
        )
        .sink("Out");
    let dag = p.build().unwrap();
    let config = RuntimeConfig {
        max_task_attempts: 3,
        // High threshold: this test isolates the retry budget.
        executor_fault_threshold: 100,
        ..fast_config()
    };
    let err = LocalCluster::new(2, 1)
        .with_config(config)
        .run(&dag)
        .unwrap_err();
    let RuntimeError::TaskFailed {
        fop,
        index,
        attempts,
        reason,
        events,
    } = err
    else {
        panic!("expected TaskFailed, got {err:?}");
    };
    assert_eq!(attempts, 3, "budget is total attempts, first included");
    assert!(reason.contains("boom"), "UDF error surfaced: {reason}");
    let failures = events
        .iter()
        .filter(
            |e| matches!(e, JobEvent::TaskFailed { fop: f, index: i, .. } if *f == fop && *i == index),
        )
        .count();
    assert_eq!(failures, 3, "one TaskFailed event per consumed attempt");
}

/// A deterministically-panicking UDF takes the same path: the panic is
/// caught, the worker slot survives to run retries, and the job fails
/// terminally with the panic payload as the reason.
#[test]
fn deterministic_udf_panic_is_isolated_and_bounded() {
    let p = Pipeline::new();
    p.read("Read", 2, SourceFn::from_vec(ints(4)))
        .par_do(
            "Panic",
            ParDoFn::per_element(|_, _| panic!("task exploded")),
        )
        .sink("Out");
    let dag = p.build().unwrap();
    let config = RuntimeConfig {
        max_task_attempts: 2,
        executor_fault_threshold: 100,
        ..fast_config()
    };
    let err = LocalCluster::new(1, 1)
        .with_config(config)
        .run(&dag)
        .unwrap_err();
    let RuntimeError::TaskFailed {
        attempts, reason, ..
    } = err
    else {
        panic!("expected TaskFailed, got {err:?}");
    };
    assert_eq!(attempts, 2);
    assert!(reason.contains("task exploded"), "payload kept: {reason}");
}

/// Repeated user-code failures on one executor blacklist it: a
/// replacement takes over, the job still completes correctly, and the
/// failure-domain metrics record what happened.
#[test]
fn faulty_executor_is_blacklisted_and_replaced() {
    let dag = wordcount_dag(4);
    let config = RuntimeConfig {
        max_task_attempts: 4,
        executor_fault_threshold: 2,
        ..fast_config()
    };
    let faults = FaultPlan {
        chaos: Some(ChaosPlan {
            seed: 7,
            error_prob: 1.0,
            panic_prob: 0.0,
            oom_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            max_faults_per_task: 2,
        }),
        ..Default::default()
    };
    let result = LocalCluster::new(1, 1)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert!(
        result.metrics.blacklisted_executors >= 1,
        "two failures on the sole transient executor must blacklist it"
    );
    assert!(result.metrics.task_failures >= 2);
    pado_core::runtime::assert_clean(&result.journal, true);
    let events = result.journal.to_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, JobEvent::ExecutorBlacklisted(_))));
    // Every blacklisting provisions a replacement container.
    let blacklists = events
        .iter()
        .filter(|e| matches!(e, JobEvent::ExecutorBlacklisted(_)))
        .count();
    let additions = events
        .iter()
        .filter(|e| matches!(e, JobEvent::ContainerAdded(_)))
        .count();
    assert!(additions >= blacklists);
    // The job is still correct.
    let count_a = result.outputs["Out"]
        .iter()
        .find(|r| r.key().and_then(|k| k.as_str()) == Some("a"))
        .and_then(|r| r.val().and_then(|v| v.as_i64()));
    assert_eq!(count_a, Some(4));
}

/// A straggling first attempt gets a speculative duplicate on another
/// executor; the duplicate commits first (speculation win) and the job
/// result is unaffected.
#[test]
fn straggler_gets_speculative_duplicate_that_wins() {
    let p = Pipeline::new();
    let read = p.read("Read", 6, SourceFn::from_vec(ints(30)));
    read.par_do(
        "Key",
        ParDoFn::per_element(|v, e| {
            e(Value::pair(Value::from(v.as_i64().unwrap() % 3), v.clone()))
        }),
    )
    .combine_per_key("Sum", CombineFn::sum_i64())
    .sink("Out");
    let read_op = read.op_id();
    let dag = p.build().unwrap();
    let plan = compile(&dag).unwrap();
    let source_fop = plan
        .fops
        .iter()
        .find(|f| f.chain.contains(&read_op))
        .expect("source fop")
        .id;
    let config = RuntimeConfig {
        speculation: true,
        speculation_multiplier: 2.0,
        speculation_floor_ms: 40,
        ..fast_config()
    };
    // Stall one source task's first attempt far past the median of its
    // five fast siblings.
    let faults = FaultPlan {
        first_attempt_delays: vec![(source_fop, 0, 500)],
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert!(
        result.metrics.speculative_launches >= 1,
        "straggler must be speculated: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.speculative_wins >= 1,
        "the duplicate beats a 500 ms stall: {:?}",
        result.metrics
    );
    assert!(result
        .journal
        .to_events()
        .iter()
        .any(|e| matches!(e, JobEvent::SpeculativeLaunched { .. })));
    pado_core::runtime::assert_clean(&result.journal, true);
    assert_eq!(
        result.metrics.tasks_launched,
        result.metrics.original_tasks
            + result.metrics.relaunched_tasks
            + result.metrics.speculative_launches,
        "speculative launches are neither originals nor relaunches"
    );
    let total: i64 = result.outputs["Out"]
        .iter()
        .map(|r| r.val().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, (0..30).sum::<i64>());
}

/// A task whose computation finishes but whose `TaskDone` report stalls
/// (`DelayDone`) while its executor is evicted: the body outlives its
/// executor, finds the outbox closed and reports nothing, the task
/// relaunches, and the output is unchanged — on both backends, whose
/// lanes on the job's pool send their own reports. This
/// pins the evict-vs-commit race end to end at the transport boundary.
#[test]
fn delayed_done_report_from_evicted_executor_is_discarded() {
    let dag = wordcount_dag(4);
    let plan = compile(&dag).unwrap();
    let source_fop = plan
        .fops
        .iter()
        .find(|f| plan.in_edges(f.id).is_empty())
        .expect("source fop")
        .id;
    let config = RuntimeConfig {
        speculation: false,
        ..fast_config()
    };
    let baseline = LocalCluster::new(1, 1)
        .with_config(config.clone())
        .run(&dag)
        .unwrap();
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        // Task 0 computes, then sits on its Done report for 300 ms; after
        // one other completion the sole transient container (running it)
        // is evicted, so the report outlives its executor.
        let faults = FaultPlan {
            first_attempt_done_delays: vec![(source_fop, 0, 300)],
            evictions: vec![(1, 0)],
            ..Default::default()
        };
        let result = LocalCluster::new(1, 1)
            .with_config(config.clone())
            .with_backend(backend)
            .run_with_faults(&dag, faults)
            .unwrap();
        assert_eq!(
            result.outputs["Out"], baseline.outputs["Out"],
            "{backend:?}: stale Done report leaked into the result"
        );
        let m = &result.metrics;
        assert_eq!(m.evictions, 1, "{backend:?}");
        assert!(
            m.relaunched_tasks >= 1,
            "{backend:?}: the stalled task must relaunch after its executor died: {m:?}"
        );
        assert_eq!(
            m.task_failures, 0,
            "{backend:?}: a delayed report is not a user-code failure"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}

/// Master restart (satellite of §3.2.6): the replacement master resumes
/// from the WAL, never relaunches a commit that survived recovery,
/// and the outputs match the fault-free run.
#[test]
fn master_restart_recovers_without_relaunching_committed_tasks() {
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(16)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
            }),
        )
        .group_by_key("Group")
        .par_do("Post", ParDoFn::per_element(|v, e| e(v.clone())))
        .sink("Out");
    let dag = p.build().unwrap();
    let config = fast_config();
    let baseline = LocalCluster::new(2, 2)
        .with_config(config.clone())
        .run(&dag)
        .unwrap();
    let faults = FaultPlan {
        master_failure_after: Some(6),
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .unwrap();

    pado_core::runtime::assert_clean(&result.journal, true);
    let events = result.journal.to_events();
    let events = &events;
    let rec_idx = events
        .iter()
        .position(|e| matches!(e, JobEvent::MasterRecovered))
        .expect("recovery logged");

    // Tasks committed before the crash must never launch again.
    let committed_before: Vec<(usize, usize)> = events[..rec_idx]
        .iter()
        .filter_map(|e| match e {
            JobEvent::TaskCommitted { fop, index, .. } => Some((*fop, *index)),
            _ => None,
        })
        .collect();
    let reverted_after: Vec<(usize, usize)> = events[rec_idx..]
        .iter()
        .filter_map(|e| match e {
            JobEvent::TaskReverted { fop, index } => Some((*fop, *index)),
            _ => None,
        })
        .collect();
    // No executor is lost here, so every commit's block is still on a
    // store and recovery refetches it: nothing is rolled back.
    assert!(
        reverted_after.is_empty(),
        "recovery reverted commits whose executors are alive: {reverted_after:?}"
    );
    for e in &events[rec_idx..] {
        if let JobEvent::TaskLaunched { fop, index, .. } = e {
            let t = (*fop, *index);
            assert!(
                !committed_before.contains(&t),
                "surviving commit {t:?} relaunched after recovery"
            );
        }
    }

    // Recovery is invisible in the result.
    let sort = |r: &Vec<Value>| {
        let mut v = r.clone();
        v.sort();
        v
    };
    assert_eq!(sort(&result.outputs["Out"]), sort(&baseline.outputs["Out"]));
}

/// The master's progress timeout is the one stall detector, and it fires
/// whatever the frame rate: heartbeats every 5 ms arrive faster than the
/// 25 ms tick, so a check made only on an idle tick would never run. On
/// both backends the run surfaces `RuntimeError::Wedged` with the partial
/// journal and metrics (and its message keeps the historical "aborted"
/// text).
#[test]
fn wedged_job_reports_partial_events_and_metrics() {
    let p = Pipeline::new();
    // Transient work with zero transient executors: never schedulable.
    p.read("Read", 2, SourceFn::from_vec(ints(4)))
        .combine_per_key("Agg", CombineFn::sum_i64());
    let dag = p.build().unwrap();
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        for heartbeat_interval_ms in [50, 5] {
            let case = format!("{backend:?}, heartbeat {heartbeat_interval_ms} ms");
            let config = RuntimeConfig {
                event_timeout_ms: 150,
                tick_ms: 25,
                heartbeat_interval_ms,
                ..Default::default()
            };
            let started = Instant::now();
            let err = LocalCluster::new(0, 1)
                .with_backend(backend)
                .with_config(config)
                .run(&dag)
                .unwrap_err();
            let took = started.elapsed();
            let RuntimeError::Wedged { diagnostics: d } = &err else {
                panic!("{case}: expected Wedged, got {err:?}");
            };
            assert!(took < Duration::from_secs(2), "{case}: took {took:?}");
            assert!(d.reason.contains("no progress"), "{case}: {d}");
            assert!(d.waited_ms >= 150, "{case}: {d}");
            assert_eq!(d.metrics.tasks_launched, 0, "{case}: nothing launched");
            assert_eq!(d.outstanding_attempts, Some(0), "{case}: {d}");
            assert!(d.master_joined, "{case}: {d}");
            assert!(err.to_string().contains("aborted"), "{case}: {err}");
            assert_clean(&d.journal, false);
        }
    }
}

/// Sim runs its bodies on the job's pool too, so a pool wedged by jobs
/// that only yield to cancellation wedges a sim run: the master's
/// timeout reports the busy workers, and its cancel unwinds them.
#[test]
fn a_wedged_pool_wedges_a_sim_run_and_shows_in_its_report() {
    let config = RuntimeConfig {
        tick_ms: 5,
        event_timeout_ms: 300,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let backend = SimBackend::from_config(&config);
    let pool = backend.pool();
    let cancel = pool.cancel_token();
    for _ in 0..2 {
        let c = cancel.clone();
        pool.submit(Box::new(move || {
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }
    let err = LocalCluster::new(2, 2)
        .with_config(config)
        .run_on_backend(&wordcount_dag(4), FaultPlan::default(), &backend)
        .expect_err("a wedged pool cannot complete the job");
    let RuntimeError::Wedged { diagnostics: d } = &err else {
        panic!("expected Wedged, got {err:?}");
    };
    assert!(d.reason.contains("no progress"), "{d}");
    assert!(d.pool_in_flight > 0, "{d}");
    assert_eq!(d.workers.len(), 2, "{d}");
    assert!(d.workers.iter().all(|w| w.busy), "{d}");
    assert!(cancel.is_cancelled(), "the wedge cancelled the run");
    assert!(
        pool.wait_quiesce(Duration::from_secs(5)),
        "the jobs unwound"
    );
    assert_clean(&d.journal, false);
}

/// The other side of checking on every pass: heartbeats faster than the
/// tick do not wedge a job that keeps committing, even when the whole job
/// outlasts the event timeout several times over — each report resets it.
/// On threads the job also outlasts the 300 ms backstop, which counts
/// from the run's last emission, not from its start.
#[test]
fn fast_heartbeats_do_not_wedge_a_job_that_progresses() {
    let p = Pipeline::new();
    p.read("Read", 8, SourceFn::from_vec(ints(8)))
        .par_do(
            "Slow",
            ParDoFn::per_element(|v, emit| {
                std::thread::sleep(std::time::Duration::from_millis(60));
                emit(v.clone());
            }),
        )
        .sink("Out");
    let dag = p.build().unwrap();
    let config = RuntimeConfig {
        event_timeout_ms: 150,
        tick_ms: 25,
        heartbeat_interval_ms: 5,
        slots_per_executor: 1,
        speculation: false,
        ..Default::default()
    };
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let started = Instant::now();
        let result = LocalCluster::new(1, 1)
            .with_backend(backend)
            .with_config(config.clone())
            .run(&dag)
            .unwrap_or_else(|e| panic!("{backend:?}: progress resets the timeout: {e}"));
        let took = started.elapsed();
        assert!(
            took > Duration::from_millis(400),
            "{backend:?}: the job outlasted the backstop, took {took:?}"
        );
        assert_eq!(result.outputs["Out"].len(), 8, "{backend:?}");
    }
}
