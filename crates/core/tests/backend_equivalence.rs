//! Cross-backend differential suite: every plan in the matrix runs on
//! the deterministic sim backend and on the true-parallel threaded
//! backend, and the two runs must agree wherever the execution model
//! says they must — byte-identical sink outputs (codec-encoded), a
//! journal that replays cleanly through the full invariant checker on
//! both backends, zero drift across the deterministic metrics counters,
//! and matching counts for the logically determined event kinds.
//!
//! The soak test at the bottom (ignored by default, run in CI) hammers
//! the threaded backend with repeated shuffle-heavy runs under injected
//! task failures: thread interleavings change every run, the answer and
//! the invariants may not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pado_core::compiler::{compile, Placement};
use pado_core::runtime::{
    assert_clean, BackendKind, ExecBackend, FaultPlan, JobResult, LocalCluster, RuntimeConfig,
    SimBackend, ThreadedBackend,
};
use pado_core::RuntimeError;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};

mod common;
use common::{clean, encode_outputs, ints, run_matrix, SOAK};

/// One-to-one: a narrow map pipeline, no shuffle at all.
fn one_to_one_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(64)))
        .par_do(
            "Triple",
            ParDoFn::per_element(|v, emit| {
                emit(Value::from(v.as_i64().unwrap_or(0) * 3 + 1));
            }),
        )
        .sink("Out");
    p.build().unwrap()
}

/// Hash shuffle: pair records fan out many-to-many into a group-by-key.
fn hash_shuffle_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", 6, SourceFn::from_vec(ints(120)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap_or(0);
                emit(Value::pair(Value::from(x % 7), Value::from(x)));
            }),
        )
        .group_by_key("Group")
        .par_do(
            "CountValues",
            ParDoFn::per_element(|grouped, emit| {
                let n = grouped
                    .val()
                    .and_then(|v| v.as_list())
                    .map(|l| l.len() as i64)
                    .unwrap_or(0);
                emit(Value::pair(grouped.key().unwrap().clone(), Value::from(n)));
            }),
        )
        .sink("Out");
    p.build().unwrap()
}

/// Broadcast: a multi-partition side input shipped one-to-many.
fn broadcast_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(9)));
    let data = p.read("Data", 4, SourceFn::from_vec(ints(16)));
    data.par_do_with_side(
        "AddSideSum",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let side_sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap_or(0) + side_sum));
            }
        }),
    )
    .sink("Out");
    p.build().unwrap()
}

/// Keyed combine: the partial-aggregation path (transient-side preagg).
fn keyed_combine_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", 5, SourceFn::from_vec(ints(200)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap_or(0);
                emit(Value::pair(Value::from(x % 11), Value::from(x)));
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    p.build().unwrap()
}

/// Multi-stage: two shuffles back to back plus a global aggregate.
fn multi_stage_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(96)))
        .par_do(
            "KeyA",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap_or(0);
                emit(Value::pair(Value::from(x % 5), Value::from(x)));
            }),
        )
        .combine_per_key("SumA", CombineFn::sum_i64())
        .par_do(
            "ReKey",
            ParDoFn::per_element(|kv, emit| {
                let k = kv.key().and_then(|k| k.as_i64()).unwrap_or(0);
                let v = kv.val().and_then(|v| v.as_i64()).unwrap_or(0);
                emit(Value::pair(Value::from(k % 2), Value::from(v)));
            }),
        )
        .combine_per_key("SumB", CombineFn::sum_i64())
        .par_do(
            "Unkey",
            ParDoFn::per_element(|kv, emit| {
                emit(Value::from(kv.val().and_then(|v| v.as_i64()).unwrap_or(0)));
            }),
        )
        .aggregate("Total", CombineFn::sum_i64())
        .sink("Out");
    p.build().unwrap()
}

fn matrix() -> Vec<(&'static str, LogicalDag)> {
    vec![
        ("one_to_one", one_to_one_dag()),
        ("hash_shuffle", hash_shuffle_dag()),
        ("broadcast", broadcast_dag()),
        ("keyed_combine", keyed_combine_dag()),
        ("multi_stage", multi_stage_dag()),
    ]
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        threaded_workers: 4,
        ..RuntimeConfig::default()
    }
}

fn run_on(backend: BackendKind, dag: &LogicalDag, faults: FaultPlan) -> JobResult {
    LocalCluster::new(3, 2)
        .with_backend(backend)
        .with_config(config())
        .run_with_faults(dag, faults)
        .expect("job completes")
}

/// Event kinds whose per-run counts are fully determined by the plan and
/// fault schedule; everything else (spills, cache traffic, retransmits,
/// heartbeats, speculation) legitimately varies with real scheduling.
const DETERMINISTIC_KINDS: &[&str] = &["TaskCommitted", "StageCompleted", "TaskFailed"];

fn deterministic_kind_counts(result: &JobResult) -> BTreeMap<&'static str, usize> {
    let counts = result.journal.kind_counts();
    DETERMINISTIC_KINDS
        .iter()
        .map(|k| (*k, counts.get(k).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn matrix_plans_agree_across_backends() {
    for (name, dag) in matrix() {
        let sim = run_on(BackendKind::Sim, &dag, FaultPlan::default());
        let threaded = run_on(BackendKind::Threaded, &dag, FaultPlan::default());

        // Both journals replay cleanly through laws 1-10.
        assert_clean(&sim.journal, true);
        assert_clean(&threaded.journal, true);

        // Byte-identical job outputs.
        assert_eq!(
            encode_outputs(&sim),
            encode_outputs(&threaded),
            "plan {name}: backend changed the output bytes"
        );

        // No drift across the deterministic metrics counters.
        let drift = sim.metrics.backend_drift(&threaded.metrics);
        assert!(
            drift.is_empty(),
            "plan {name}: deterministic metrics drifted (counter, sim, threaded): {drift:?}"
        );

        // Logically determined event kinds appear the same number of
        // times, whatever order the interleaving produced them in.
        assert_eq!(
            deterministic_kind_counts(&sim),
            deterministic_kind_counts(&threaded),
            "plan {name}: deterministic journal kinds diverged"
        );
    }
}

#[test]
fn threaded_backend_survives_evictions() {
    // The recovery paths (revert, relaunch, stage reopen) must hold under
    // real parallelism too — and still not change a single output byte.
    let dag = keyed_combine_dag();
    let baseline = run_on(BackendKind::Sim, &dag, FaultPlan::default());
    let faults = FaultPlan {
        evictions: vec![(2, 0), (5, 1)],
        ..Default::default()
    };
    let result = run_on(BackendKind::Threaded, &dag, faults);
    assert_clean(&result.journal, true);
    assert_eq!(result.metrics.evictions, 2);
    assert_eq!(encode_outputs(&baseline), encode_outputs(&result));
}

/// Every executor, reserved ones included, runs at most
/// `slots_per_executor` of its bodies at once, on the job's pool, on
/// both backends: one reserved executor with one slot, beside four pool
/// workers, runs an eight-task reserved-only stage one body at a time,
/// each on a `pado-exec-pool-*` thread.
#[test]
fn a_reserved_executor_runs_at_most_its_slots_on_the_pool() {
    for backend in [BackendKind::Sim, BackendKind::Threaded] {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads = Arc::new(Mutex::new(Vec::new()));
        let (r, pk, th) = (running.clone(), peak.clone(), threads.clone());
        let p = Pipeline::new();
        p.read("Read", 4, SourceFn::from_vec(ints(32)))
            .par_do(
                "Key",
                ParDoFn::per_element(|v, emit| {
                    emit(Value::pair(v.clone(), Value::from(1i64)));
                }),
            )
            .combine_per_key("Sum", CombineFn::sum_i64())
            .with_parallelism(8)
            .par_do(
                "Probe",
                ParDoFn::new(move |input: TaskInput<'_>, emit| {
                    pk.fetch_max(r.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    let name = std::thread::current().name().map(str::to_owned);
                    th.lock().unwrap().push(name.unwrap_or_default());
                    std::thread::sleep(Duration::from_millis(20));
                    for v in input.main() {
                        emit(v.clone());
                    }
                    r.fetch_sub(1, Ordering::SeqCst);
                }),
            )
            .sink("Out");
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let probe = plan
            .fops
            .iter()
            .find(|f| f.chain.iter().any(|&op| dag.op(op).name == "Probe"));
        assert_eq!(
            probe.map(|f| (f.placement, f.parallelism)),
            Some((Placement::Reserved, 8))
        );

        let config = RuntimeConfig {
            slots_per_executor: 1,
            threaded_workers: 4,
            ..RuntimeConfig::default()
        };
        let result = LocalCluster::new(2, 1)
            .with_backend(backend)
            .with_config(config)
            .run(&dag)
            .expect("job completes");
        assert_clean(&result.journal, true);
        assert_eq!(result.outputs["Out"].len(), 32, "{backend:?}");
        let threads = threads.lock().unwrap();
        assert!(threads.len() >= 8, "{backend:?}: {threads:?}");
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "{backend:?}: bodies at once"
        );
        assert!(
            threads.iter().all(|n| n.starts_with("pado-exec-pool-")),
            "{backend:?}: {threads:?}"
        );
    }
}

/// The run's token is its pool's on both backends: a caller that
/// cancels it before the run starts gets `Aborted`, not a result.
#[test]
fn a_cancelled_pool_aborts_the_run_on_both_backends() {
    let config = config();
    let backends: [Box<dyn ExecBackend>; 2] = [
        Box::new(SimBackend::from_config(&config)),
        Box::new(ThreadedBackend::from_config(&config)),
    ];
    for backend in backends {
        backend.pool().cancel_token().cancel();
        let err = LocalCluster::new(3, 2)
            .with_config(config.clone())
            .run_on_backend(&one_to_one_dag(), FaultPlan::default(), backend.as_ref())
            .expect_err("a cancelled run cannot complete");
        assert!(
            matches!(err, RuntimeError::Aborted(_)),
            "{}: {err:?}",
            backend.name()
        );
    }
}

/// Soak: repeated shuffle-heavy runs on the threaded backend with task
/// failures injected through the `catch_unwind` path. Every run must
/// terminate (no deadlock — the run itself would hang or hit the
/// wall-clock abort), lose no `TaskDone` (outputs stay byte-identical to
/// the fault-free sim baseline), and commit exactly once per task (the
/// invariant checker's commit laws reject double commits).
///
/// Ignored by default — CI runs it with `--ignored` under a timeout.
#[test]
#[ignore = "soak test: run explicitly or in CI"]
fn threaded_soak_under_task_failures() {
    let shapes = [("hash_shuffle", hash_shuffle_dag())];
    let rounds = (0..10).map(|round| 0x50AC ^ round);
    run_matrix(&SOAK, &shapes, rounds, BackendKind::Threaded, |o| {
        clean(o);
    });
}
