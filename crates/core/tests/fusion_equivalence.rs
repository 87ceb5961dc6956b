//! Fused and unfused plans are the same job: fusion decides how many
//! tasks run and what rests between them, never what the sinks hold.
//!
//! MLR and ALS — the two workloads with a transient operator shared
//! between stages, which the plan generator fuses once per stage copy —
//! run with `fusion` on and off, on both backends, fault-free and under
//! count-based transient evictions spread evenly over the plan's tasks.
//!
//! What an eviction may cost is bounded per plan rather than compared
//! run against run: relaunch counts do not repeat on either backend —
//! the sim backend too runs each executor slot on a thread of its own,
//! and which attempt a count-based eviction catches follows the order
//! completions arrive in (40 sim runs of this MLR job relaunch 3–7
//! tasks unfused and 2–4 fused).
//! Fused, every transient output of these jobs is pushed to a reserved
//! executor as it is made, so an eviction costs at most the attempts it
//! catches running; unfused it may also revert `Read` outputs at rest.

mod common;

use common::encode_outputs;
use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::runtime::{
    assert_clean, eviction_ledger, BackendKind, FaultPlan, JobResult, LocalCluster, RuntimeConfig,
};
use pado_dag::LogicalDag;
use pado_workloads::{als, mlr, AlsConfig, MlrConfig};

const N_TRANSIENT: usize = 4;
const SLOTS: usize = 1;
const EVICTIONS: usize = 4;

fn jobs() -> [(&'static str, LogicalDag); 2] {
    let mlr = mlr::dag(&MlrConfig {
        samples: 160,
        features: 6,
        classes: 3,
        partitions: 8,
        iterations: 4,
        lr: 0.5,
        seed: 7,
    });
    let als = als::dag(&AlsConfig::default());
    [("mlr", mlr), ("als", als)]
}

fn plan_config(fusion: bool) -> PlanConfig {
    PlanConfig {
        fusion,
        ..PlanConfig::default()
    }
}

/// `EVICTIONS` evictions at evenly spaced task completions of this
/// plan, the transient executors taken in turn.
fn evictions(dag: &LogicalDag, fusion: bool) -> FaultPlan {
    let tasks = compile_with(dag, &plan_config(fusion))
        .expect("compiles")
        .total_tasks();
    let slice = tasks / (EVICTIONS + 1);
    FaultPlan {
        evictions: (0..EVICTIONS)
            .map(|i| (slice * (i + 1), i % N_TRANSIENT))
            .collect(),
        ..FaultPlan::default()
    }
}

fn run(dag: &LogicalDag, fusion: bool, backend: BackendKind, faults: FaultPlan) -> JobResult {
    let config = RuntimeConfig {
        slots_per_executor: SLOTS,
        speculation: false,
        tick_ms: 5,
        threaded_workers: 2,
        ..RuntimeConfig::default()
    };
    let result = LocalCluster::new(N_TRANSIENT, 2)
        .with_backend(backend)
        .with_config(config)
        .with_plan_config(plan_config(fusion))
        .run_with_faults(dag, faults)
        .expect("the job survives its faults");
    assert_clean(&result.journal, true);
    result
}

#[test]
fn fusion_changes_the_task_count_and_nothing_a_sink_holds() {
    for (name, dag) in jobs() {
        let reference = run(&dag, false, BackendKind::Sim, FaultPlan::default());
        let want = encode_outputs(&reference);
        for backend in [BackendKind::Sim, BackendKind::Threaded] {
            let tasks = [false, true].map(|fusion| {
                let quiet = run(&dag, fusion, backend, FaultPlan::default());
                assert_eq!(encode_outputs(&quiet), want, "{name} {backend:?} {fusion}");
                assert_eq!(quiet.metrics.relaunched_tasks, 0);

                let evicted = run(&dag, fusion, backend, evictions(&dag, fusion));
                assert_eq!(
                    encode_outputs(&evicted),
                    want,
                    "{name} {backend:?} {fusion}"
                );
                let m = &evicted.metrics;
                let ledger = eviction_ledger(&evicted.journal);
                assert_eq!((m.evictions, ledger.len()), (EVICTIONS, EVICTIONS));
                let at_rest: usize = ledger.iter().map(|row| row.reverted + row.dropped).sum();
                let lost: usize = ledger.iter().map(|row| row.running + row.reverted).sum();
                assert!(
                    m.relaunched_tasks <= lost,
                    "{name} {backend:?} {fusion}: {} relaunches for {ledger:?}",
                    m.relaunched_tasks
                );
                if fusion {
                    assert_eq!(at_rest, 0, "{name} {backend:?}: {ledger:?}");
                    assert!(
                        m.relaunched_tasks <= EVICTIONS * SLOTS,
                        "{name} {backend:?}"
                    );
                }
                quiet.metrics.original_tasks
            });
            let [unfused, fused] = tasks;
            assert!(fused < unfused, "{name}: fusion removes tasks");
        }
    }
}
