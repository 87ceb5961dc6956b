//! Who pays for a block's encoded size. Sizing a block is a full column
//! encode plus LZ, so a worker sizes what it built, on its own thread,
//! and only when the master will read the size; the master, whose loop
//! serializes every control decision, must never encode to size.
//!
//! On the sim backend the master loop runs on the thread that calls
//! `LocalCluster::run` and executor slots on threads of their own, so
//! the calling thread's `colcodec::thread_encode_count` is the master's.

use pado_core::runtime::{JobEvent, JobResult, LocalCluster, RuntimeConfig};
use pado_dag::colcodec::thread_encode_count;
use pado_dag::LogicalDag;
use pado_workloads::{mlr, mr, MlrConfig, MrConfig};

/// Two jobs whose master reads sizes: an MR job (transient maps pushed
/// to reserved reducers, shuffle buckets) and an MLR job whose model
/// reaches every gradient task as a side input.
fn jobs() -> Vec<(&'static str, LogicalDag)> {
    let mlr = MlrConfig {
        iterations: 2,
        ..MlrConfig::default()
    };
    vec![
        ("mr", mr::dag(&MrConfig::default())),
        ("mlr", mlr::dag(&mlr)),
    ]
}

/// Runs `dag` on sim under `budget` and returns the result with the
/// encodes the master's thread performed.
fn run(dag: &LogicalDag, budget: usize) -> (JobResult, u64) {
    let config = RuntimeConfig {
        executor_memory_bytes: budget,
        cache_capacity_bytes: budget.min(64 << 20),
        ..RuntimeConfig::default()
    };
    let before = thread_encode_count();
    let result = LocalCluster::new(2, 2)
        .with_config(config)
        .run(dag)
        .expect("job runs");
    (result, thread_encode_count() - before)
}

/// With no budget the master reads only a pushed transient output's
/// size (`bytes_pushed`) and a side input's (`SideStats`); the worker
/// sized both, so the master encodes nothing.
#[test]
fn an_unbudgeted_master_encodes_nothing() {
    for (name, dag) in jobs() {
        let (result, encodes) = run(&dag, usize::MAX);
        let events = result.journal.to_events();
        let pushed = events.iter().any(
            |e| matches!(e, JobEvent::TaskCommitted { bytes_pushed, .. } if *bytes_pushed > 0),
        );
        assert!(pushed, "{name}: a transient output was pushed and charged");
        assert_eq!(encodes, 0, "{name}: the master encoded {encodes} blocks");
    }
}

/// Under a budget every store charges every output it admits and every
/// bucket a reducer pins. With room for all of them nothing spills, so
/// a master that encodes nothing read only sizes that arrived with the
/// report: every output and bucket reached it already sized.
#[test]
fn under_a_budget_every_charged_block_arrives_sized() {
    for (name, dag) in jobs() {
        let (result, encodes) = run(&dag, 256 << 20);
        let events = result.journal.to_events();
        let admitted = events
            .iter()
            .filter(|e| matches!(e, JobEvent::BlockAdmitted { .. }))
            .count();
        assert!(admitted > 0, "{name}: the stores charged blocks");
        let spilled = events
            .iter()
            .any(|e| matches!(e, JobEvent::BlockSpilled { .. }));
        assert!(!spilled, "{name}: the budget holds every block");
        assert_eq!(encodes, 0, "{name}: the master encoded {encodes} blocks");
    }
}

/// Under a budget tight enough that the stores spill, the master still
/// encodes nothing: a spill writes the image its block was sized from on
/// the worker, or the bytes a reload read back, and the master, which
/// admits and pins under the store lock, never builds one.
#[test]
fn a_spilling_master_encodes_nothing() {
    let dag = mr::dag(&MrConfig::default());
    let (roomy, _) = run(&dag, 256 << 20);
    let (result, encodes) = run(&dag, roomy.metrics.peak_store_bytes * 4 / 7);
    let events = result.journal.to_events();
    let spills = events
        .iter()
        .filter(|e| matches!(e, JobEvent::BlockSpilled { .. }))
        .count();
    assert!(spills > 0, "the budget spills");
    assert_eq!(
        encodes, 0,
        "the master encoded {encodes} blocks for {spills} spills"
    );
}
