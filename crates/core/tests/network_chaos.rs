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
//! - no double-commits (`assert_clean`, law 1: a second `TaskCommitted`
//!   needs an intervening `TaskReverted`),
//! - retransmissions per message stay bounded,
//! - partitions that heal below the dead-executor threshold cause no
//!   relaunches; partitions past it trigger the failure detector and the
//!   dead executor's uncommitted tasks relaunch exactly once,
//! - fault-free runs report exactly zero transport activity.

use std::collections::HashMap;

use pado_core::runtime::{
    ChaosPlan, DirectionFaults, FaultPlan, JobEvent, LocalCluster, NetworkFault, PartitionSpec,
    RuntimeConfig,
};
use pado_dag::LogicalDag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{encode_outputs, side_input_dag, wordcount_dag};

const SEEDS: u64 = 110;
const MAX_TASK_ATTEMPTS: usize = 3;
/// Strictly below the retry budget so chaos alone can never exhaust a
/// task's attempts: every seeded job must complete.
const MAX_FAULTS_PER_TASK: usize = 2;
/// With a healthy ack path every message eventually lands; even under
/// heavy loss no single frame should need anywhere near this many tries.
const MAX_RETRANSMISSIONS: usize = 64;

/// Tight transport tunings: lost messages retry fast, while the dead
/// threshold stays far above every partition this suite injects, so a
/// partitioned executor is always slow, never dead.
fn chaos_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        heartbeat_interval_ms: 20,
        dead_executor_timeout_ms: 600,
        retransmit_base_ms: 20,
        retransmit_max_ms: 160,
        ..Default::default()
    }
}

/// Seeded network dimension: moderate loss in both directions, plus (one
/// seed in four) a timed partition of one transient executor healing far
/// below the 600 ms dead threshold.
fn random_network(
    rng: &mut StdRng,
    seed: u64,
    n_transient: usize,
    n_reserved: usize,
) -> NetworkFault {
    let dir = |rng: &mut StdRng| DirectionFaults {
        drop_prob: rng.gen_range(0.0..0.15),
        dup_prob: rng.gen_range(0.0..0.10),
        reorder_prob: rng.gen_range(0.0..0.10),
        delay_prob: rng.gen_range(0.0..0.15),
        delay_ms: rng.gen_range(1..10u64),
    };
    let to_executor = dir(rng);
    let to_master = dir(rng);
    let partitions = if rng.gen_bool(0.25) {
        // Executors spawn reserved-first, so transient ids start at
        // n_reserved.
        vec![PartitionSpec {
            exec: n_reserved + rng.gen_range(0..n_transient),
            start_ms: rng.gen_range(20..120u64),
            duration_ms: rng.gen_range(50..250u64),
        }]
    } else {
        Vec::new()
    };
    NetworkFault {
        seed: seed ^ 0x4E45_54FA,
        to_executor,
        to_master,
        partitions,
    }
}

fn random_fault_plan(
    rng: &mut StdRng,
    seed: u64,
    n_transient: usize,
    n_reserved: usize,
) -> FaultPlan {
    let evictions = (0..rng.gen_range(0..3usize))
        .map(|_| (rng.gen_range(1..10usize), rng.gen_range(0..3usize)))
        .collect();
    let reserved_failures = (0..rng.gen_range(0..2usize))
        .map(|_| (rng.gen_range(2..10usize), 0))
        .collect();
    let master_failure_after = if rng.gen_bool(0.2) {
        Some(rng.gen_range(3..8usize))
    } else {
        None
    };
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.15,
            panic_prob: 0.10,
            oom_prob: 0.0,
            delay_prob: 0.20,
            delay_ms: 8,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks: Vec::new(),
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: Some(random_network(rng, seed, n_transient, n_reserved)),
        drains: Vec::new(),
        spill_faults: None,
        crashes: None,
    }
}

/// 110 seeds of network chaos layered over the full existing fault space:
/// every seed's outputs must be byte-identical to the fault-free run, no
/// task may double-commit, and per-message retransmissions stay bounded.
#[test]
fn hundred_seeds_of_network_chaos_preserve_outputs() {
    let shapes: Vec<(&str, LogicalDag)> = vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ];
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config(chaos_config())
                .run(dag)
                .unwrap_or_else(|e| panic!("fault-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();

    let mut total_dropped = 0usize;
    let mut total_retransmitted = 0usize;
    let mut total_deduplicated = 0usize;
    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let faults = random_fault_plan(&mut rng, seed, n_transient, n_reserved);
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(chaos_config())
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| panic!("seed {seed} ({name}, {faults:?}) failed: {e}"));
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}): outputs diverged from fault-free baseline"
        );
        pado_core::runtime::assert_clean(&result.journal, true);
        assert!(
            result.metrics.max_message_retransmissions <= MAX_RETRANSMISSIONS,
            "seed {seed}: a message needed {} retransmissions",
            result.metrics.max_message_retransmissions
        );
        total_dropped += result.metrics.messages_dropped;
        total_retransmitted += result.metrics.messages_retransmitted;
        total_deduplicated += result.metrics.messages_deduplicated;
    }
    // The sweep as a whole must actually exercise the transport: across
    // 110 lossy seeds, drops, retransmissions, and dedup suppressions all
    // occur many times.
    assert!(total_dropped > 0, "no seed ever dropped a message");
    assert!(total_retransmitted > 0, "no seed ever retransmitted");
    assert!(
        total_deduplicated > 0,
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
        ..chaos_config()
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
        ..chaos_config()
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
            .with_config(chaos_config())
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
