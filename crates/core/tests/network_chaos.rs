//! Network-chaos equivalence suite for the unreliable control-plane
//! transport: seeded message drop/duplicate/reorder/delay in both
//! directions, timed executor partitions, and the full existing fault
//! space (UDF chaos, evictions, reserved failures, master restarts)
//! layered on top.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to the fault-free run (codec-encoded) —
//!   at-least-once delivery plus idempotent handlers must make the lossy
//!   network invisible in the answer,
//! - no double-commits (law 1: a second `TaskCommitted` needs an
//!   intervening `TaskReverted`), the retry budget and the launch ledger
//!   (the shared `violations`),
//! - retransmissions per message stay bounded,
//! - partitions that heal below the dead-executor threshold cause no
//!   relaunches; partitions past it trigger the failure detector and the
//!   dead executor's uncommitted tasks relaunch exactly once,
//! - fault-free runs report exactly zero transport activity.

use std::collections::HashMap;

use pado_core::runtime::{
    BackendKind, FaultPlan, JobEvent, LocalCluster, NetworkFault, PartitionSpec, RuntimeConfig,
};

mod common;
use common::*;

const SEEDS: u64 = 110;

/// 110 seeds of network chaos layered over the full existing fault space:
/// every seed's outputs must be byte-identical to the fault-free run, no
/// task may double-commit, and per-message retransmissions stay bounded.
#[test]
fn hundred_seeds_of_network_chaos_preserve_outputs() {
    let runs = run_matrix(&NETWORK, &chaos_shapes(), 0..SEEDS, BackendKind::Sim, |o| {
        clean(o);
    });
    // The sweep as a whole must actually exercise the transport: across
    // 110 lossy seeds, drops, retransmissions, and dedup suppressions all
    // occur many times.
    assert!(
        total(&runs, |m| m.messages_dropped) > 0,
        "no seed ever dropped a message"
    );
    assert!(
        total(&runs, |m| m.messages_retransmitted) > 0,
        "no seed ever retransmitted"
    );
    assert!(
        total(&runs, |m| m.messages_deduplicated) > 0,
        "no seed ever suppressed a duplicate"
    );
}

/// A partition that heals below the dead-executor threshold makes the
/// executor slow, not dead: retransmissions bridge the outage and no
/// task is ever relaunched.
#[test]
fn partitioned_then_healed_rejoins_without_relaunches() {
    let dag = wordcount_dag();
    let config = RuntimeConfig {
        speculation: false,
        heartbeat_interval_ms: 20,
        dead_executor_timeout_ms: 1_200,
        retransmit_base_ms: 15,
        retransmit_max_ms: 120,
        ..tight_transport()
    };
    let baseline = LocalCluster::new(1, 1)
        .with_config(config.clone())
        .run(&dag)
        .unwrap();
    // Black-hole the sole transient executor (reserved spawn first, so it
    // is ExecId 1) from the start; it heals at 250 ms, far below the
    // 1 200 ms dead threshold.
    let faults = FaultPlan {
        network: Some(NetworkFault {
            partitions: vec![PartitionSpec {
                exec: 1,
                start_ms: 0,
                duration_ms: 250,
            }],
            ..Default::default()
        }),
        ..Default::default()
    };
    let result = LocalCluster::new(1, 1)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert_eq!(
        encode_outputs(&result),
        encode_outputs(&baseline),
        "healed partition changed the outputs"
    );
    assert_eq!(
        result.metrics.executors_declared_dead, 0,
        "a partition below the threshold must not look like death: {:?}",
        result.metrics
    );
    assert_eq!(
        result.metrics.relaunched_tasks, 0,
        "the healed executor's tasks complete in place: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.messages_retransmitted > 0,
        "bridging a 250 ms black hole requires retransmissions: {:?}",
        result.metrics
    );
    assert!(
        !result
            .journal
            .to_events()
            .iter()
            .any(|e| matches!(e, JobEvent::ExecutorDeclaredDead(_))),
        "no death sentence in the event log"
    );
    pado_core::runtime::assert_clean(&result.journal, true);
}

/// A partition that outlives the dead-executor threshold trips the
/// heartbeat failure detector: the executor is declared dead, its
/// uncommitted tasks relaunch exactly once on survivors, and the outputs
/// still match the fault-free run.
#[test]
fn partitioned_past_threshold_declared_dead() {
    let dag = wordcount_dag();
    let config = RuntimeConfig {
        speculation: false,
        heartbeat_interval_ms: 10,
        dead_executor_timeout_ms: 150,
        retransmit_base_ms: 10,
        retransmit_max_ms: 80,
        ..tight_transport()
    };
    let baseline = LocalCluster::new(1, 1)
        .with_config(config.clone())
        .run(&dag)
        .unwrap();
    // The partition never heals within the job's lifetime.
    let faults = FaultPlan {
        network: Some(NetworkFault {
            partitions: vec![PartitionSpec {
                exec: 1,
                start_ms: 0,
                duration_ms: 60_000,
            }],
            ..Default::default()
        }),
        ..Default::default()
    };
    let result = LocalCluster::new(1, 1)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert_eq!(
        encode_outputs(&result),
        encode_outputs(&baseline),
        "declared-dead recovery changed the outputs"
    );
    assert_eq!(
        result.metrics.executors_declared_dead, 1,
        "the silent executor must be declared dead exactly once: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.heartbeats_missed >= 1,
        "the detector flags the silence before the death sentence: {:?}",
        result.metrics
    );
    let events = result.journal.to_events();
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, JobEvent::ExecutorDeclaredDead(_)))
            .count(),
        1
    );
    // Exactly-once relaunch: every task launches at most twice (original
    // plus at most one post-death relaunch), and at least one task that
    // was stranded on the dead executor actually relaunched.
    let mut launches: HashMap<(usize, usize), usize> = HashMap::new();
    for e in &events {
        if let JobEvent::TaskLaunched { fop, index, .. } = e {
            *launches.entry((*fop, *index)).or_default() += 1;
        }
    }
    for (task, n) in &launches {
        assert!(
            *n <= 2,
            "task {task:?} launched {n} times; death recovery relaunches once"
        );
    }
    assert!(
        result.metrics.relaunched_tasks >= 1,
        "the dead executor's assignments must relaunch: {:?}",
        result.metrics
    );
    pado_core::runtime::assert_clean(&result.journal, true);
}

/// Without injected faults the transport is invisible: every message is
/// acknowledged on first transmission and all transport metrics are
/// exactly zero.
#[test]
fn fault_free_runs_report_zero_transport_metrics() {
    for (name, dag) in [
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ] {
        let result = LocalCluster::new(2, 2)
            .with_config(tight_transport())
            .run(&dag)
            .unwrap_or_else(|e| panic!("{name}: fault-free run failed: {e}"));
        let m = &result.metrics;
        assert_eq!(m.messages_dropped, 0, "{name}: {m:?}");
        assert_eq!(m.messages_duplicated, 0, "{name}: {m:?}");
        assert_eq!(m.messages_retransmitted, 0, "{name}: {m:?}");
        assert_eq!(m.messages_deduplicated, 0, "{name}: {m:?}");
        assert_eq!(m.max_message_retransmissions, 0, "{name}: {m:?}");
        assert_eq!(m.heartbeats_missed, 0, "{name}: {m:?}");
        assert_eq!(m.executors_declared_dead, 0, "{name}: {m:?}");
        pado_core::runtime::assert_clean(&result.journal, true);
    }
}
