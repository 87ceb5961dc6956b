//! Memory-pressure chaos suite: tight executor store budgets crossed
//! with evictions, reserved failures, injected allocation failures (the
//! OOM fault family), chaos budget shrinks, and lossy networks.
//!
//! Invariants enforced per seed:
//! - outputs byte-identical to an *unbounded* baseline run — spilling,
//!   reloading, deferred pushes, and OOM retries must be invisible in
//!   the answer,
//! - the journal replays cleanly (occupancy ≤ budget on every store
//!   event, pinned blocks never spilled, spilled blocks reloaded before
//!   reuse, OOM'd attempts never commit),
//! - reported metrics equal journal-derived metrics,
//! - peak store occupancy stays within the configured budget,
//! - unbounded runs emit zero spill / defer / OOM events.
//!
//! Master restarts are excluded: this suite isolates the memory domain
//! (the network-chaos suite already crosses restarts with everything
//! else).
//!
//! Budgets are chosen as fractions of the measured working set with a
//! floor at the largest concurrently-pinned byte load a fault-free run
//! ever held on one executor — below that floor a task's inputs cannot
//! be pinned at all and the job would (correctly, but uninterestingly)
//! fail with `MemoryExceeded`.

use std::collections::HashMap;

use pado_core::runtime::message::ExecId;
use pado_core::runtime::{
    BlockRef, ChaosPlan, DirectionFaults, EventJournal, FaultPlan, JobEvent, JobResult,
    LocalCluster, NetworkFault, RuntimeConfig,
};
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{encode_outputs, ints, side_input_dag};

const SEEDS: u64 = 110;
const MAX_TASK_ATTEMPTS: usize = 3;
/// Strictly below the retry budget so chaos (UDF errors + OOM combined)
/// can never exhaust a task's attempts: every seeded job must complete.
const MAX_FAULTS_PER_TASK: usize = 2;

/// A shuffle-heavy shape: wide read, keyed combine (ManyToMany routing,
/// so consumers pin routed buckets, not whole outputs).
fn shuffle_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(64)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap();
                emit(Value::pair(Value::from(x % 7), Value::from(x)));
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    p.build().unwrap()
}

/// Two independent branches that share one reserved executor: branch A's
/// combine can be stalled mid-attempt (holding its input pins) while
/// branch B's producers are still pushing — the window where push
/// backpressure (`PushDeferred` / `PushResumed`) fires.
fn two_branch_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read("FastRead", 2, SourceFn::from_vec(ints(64)))
        .par_do(
            "KeyA",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap();
                emit(Value::pair(Value::from(x % 31), Value::from(x)));
            }),
        )
        .combine_per_key("SlowSum", CombineFn::sum_i64())
        .sink("OutA");
    p.read("SlowRead", 2, SourceFn::from_vec(ints(64)))
        .par_do(
            "KeyB",
            ParDoFn::per_element(|v, emit| {
                let x = v.as_i64().unwrap();
                emit(Value::pair(Value::from(x % 31), Value::from(x * 7)));
            }),
        )
        .combine_per_key("SumB", CombineFn::sum_i64())
        .sink("OutB");
    p.build().unwrap()
}

/// Fop id + parallelism of the (first) fop whose fused chain contains
/// the named logical operator.
fn fop_named(dag: &LogicalDag, name: &str) -> (usize, usize) {
    let plan = pado_core::compiler::compile(dag).expect("plan compiles");
    plan.fops
        .iter()
        .find(|f| f.chain.iter().any(|&op| dag.op(op).name == name))
        .map(|f| (f.id, f.parallelism))
        .unwrap_or_else(|| panic!("no fop contains operator {name}"))
}

fn config(budget: usize) -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: MAX_TASK_ATTEMPTS,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        executor_memory_bytes: budget,
        // The cache tier lives inside the same budget; keep its
        // sub-bound under the store budget so validate() accepts tight
        // configurations.
        cache_capacity_bytes: (budget / 4).clamp(1, 64 << 20),
        ..Default::default()
    }
}

/// The largest byte load any one executor ever held in *pinned* blocks
/// during a run: the hard floor below which some task's inputs can no
/// longer be pinned and admission control must refuse the job.
fn pinned_floor(journal: &EventJournal) -> usize {
    let mut sizes: HashMap<(ExecId, BlockRef), usize> = HashMap::new();
    let mut pins: HashMap<(ExecId, BlockRef), usize> = HashMap::new();
    let mut held: HashMap<ExecId, usize> = HashMap::new();
    let mut floor = 0;
    for e in journal.events() {
        match e {
            JobEvent::BlockAdmitted {
                exec, block, bytes, ..
            }
            | JobEvent::BlockLoaded {
                exec, block, bytes, ..
            } => {
                sizes.insert((*exec, *block), *bytes);
            }
            JobEvent::BlockPinned { exec, block } => {
                let n = pins.entry((*exec, *block)).or_insert(0);
                *n += 1;
                if *n == 1 {
                    let h = held.entry(*exec).or_insert(0);
                    *h += sizes.get(&(*exec, *block)).copied().unwrap_or(0);
                    floor = floor.max(*h);
                }
            }
            JobEvent::BlockUnpinned { exec, block } => {
                if let Some(n) = pins.get_mut(&(*exec, *block)) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        pins.remove(&(*exec, *block));
                        if let Some(h) = held.get_mut(exec) {
                            *h -= sizes.get(&(*exec, *block)).copied().unwrap_or(0);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    floor
}

/// Seeded network dimension, same shape as the network-chaos suite but
/// milder (memory pressure, not the wire, is the protagonist here).
fn random_network(rng: &mut StdRng, seed: u64) -> NetworkFault {
    let dir = |rng: &mut StdRng| DirectionFaults {
        drop_prob: rng.gen_range(0.0..0.10),
        dup_prob: rng.gen_range(0.0..0.08),
        reorder_prob: rng.gen_range(0.0..0.08),
        delay_prob: rng.gen_range(0.0..0.10),
        delay_ms: rng.gen_range(1..8u64),
    };
    NetworkFault {
        seed: seed ^ 0x4D45_4DFA,
        to_executor: dir(rng),
        to_master: dir(rng),
        partitions: Vec::new(),
    }
}

fn random_fault_plan(rng: &mut StdRng, seed: u64, floor: usize, budget: usize) -> FaultPlan {
    let evictions = (0..rng.gen_range(0..3usize))
        .map(|_| (rng.gen_range(1..10usize), rng.gen_range(0..3usize)))
        .collect();
    let reserved_failures = if rng.gen_bool(0.3) {
        vec![(rng.gen_range(2..10usize), 0)]
    } else {
        Vec::new()
    };
    // Chaos shrinks squeeze a reserved executor mid-run but never below
    // the pinned floor, so the job still completes (the store clamps the
    // applied budget up to its unspillable occupancy regardless).
    let budget_shrinks = if rng.gen_bool(0.35) {
        vec![(
            rng.gen_range(2..6usize),
            0,
            floor.max(budget.saturating_mul(3) / 4),
        )]
    } else {
        Vec::new()
    };
    FaultPlan {
        evictions,
        reserved_failures,
        master_failure_after: None,
        chaos: Some(ChaosPlan {
            seed,
            error_prob: 0.10,
            panic_prob: 0.05,
            oom_prob: 0.12,
            delay_prob: 0.10,
            delay_ms: 5,
            max_faults_per_task: MAX_FAULTS_PER_TASK,
        }),
        budget_shrinks,
        first_attempt_delays: Vec::new(),
        first_attempt_done_delays: Vec::new(),
        network: rng.gen_bool(0.4).then(|| random_network(rng, seed)),
        drains: Vec::new(),
        spill_faults: None,
        crashes: None,
    }
}

fn count<F: Fn(&JobEvent) -> bool>(journal: &EventJournal, pred: F) -> usize {
    journal.events().filter(|e| pred(e)).count()
}

fn check_seed(seed: u64, result: &JobResult, budget: usize) {
    pado_core::runtime::assert_clean(&result.journal, true);

    // Reported metrics must be exactly what the journal derives (modulo
    // the four wire-level counters the journal cannot see).
    let mut derived = result.journal.derive_metrics();
    derived.messages_dropped = result.metrics.messages_dropped;
    derived.messages_duplicated = result.metrics.messages_duplicated;
    derived.messages_deduplicated = result.metrics.messages_deduplicated;
    derived.max_message_retransmissions = result.metrics.max_message_retransmissions;
    assert_eq!(
        derived, result.metrics,
        "seed {seed}: journal-derived metrics drifted from reported metrics"
    );

    // Self-reported occupancy never exceeded the configured budget (the
    // invariant checker verifies this per event and per shrunk budget;
    // the metric is the cheap summary).
    assert!(
        result.metrics.peak_store_bytes <= budget,
        "seed {seed}: peak store occupancy {} exceeds the {} B budget",
        result.metrics.peak_store_bytes,
        budget
    );

    // Every spill pairs with a reload or a release: blocks do not rot on
    // disk past job end unless their executor died (checker handles the
    // per-event laws; here we sanity-check the counters agree with the
    // event stream).
    assert_eq!(
        result.metrics.blocks_spilled,
        count(&result.journal, |e| matches!(
            e,
            JobEvent::BlockSpilled { .. }
        )),
        "seed {seed}: spill counter drifted"
    );
    assert_eq!(
        result.metrics.oom_injected,
        count(&result.journal, |e| matches!(
            e,
            JobEvent::OomInjected { .. }
        )),
        "seed {seed}: OOM counter drifted"
    );
}

/// Deterministic push-backpressure exercise: the reserved store holds
/// exactly what branch A's stalled combines pin, so while they run no
/// pushed output of branch B can be admitted even after spilling
/// everything unpinned — the master must defer the pushes, retry with
/// backoff, and resume once the pins drop. The answer must still be
/// byte-identical to an unbounded run.
#[test]
fn tight_reserved_store_defers_and_resumes_pushes() {
    let dag = two_branch_dag();
    let (keya_fop, _) = fop_named(&dag, "KeyA");
    let (slow_fop, _) = fop_named(&dag, "SlowSum");
    let (keyb_fop, _) = fop_named(&dag, "KeyB");
    // One slot per executor orders the branches without a second timer:
    // KeyB's tasks queue behind KeyA's for the transient slot, so no
    // KeyB task launches before the scheduling pass that — KeyA's last
    // commit in hand — launches the combines and takes their pins.
    let config = |budget| RuntimeConfig {
        slots_per_executor: 1,
        ..config(budget)
    };

    let baseline = LocalCluster::new(1, 1)
        .with_config(config(usize::MAX))
        .run(&dag)
        .expect("unbounded baseline");
    let probe = LocalCluster::new(1, 1)
        .with_config(config(1 << 20))
        .run(&dag)
        .expect("probe run");
    // The budget is a function of the data alone: the bytes of every
    // routed bucket of KeyA's outputs, i.e. what the combines pin
    // between them. Both fit, nothing else does until one reports; any
    // single block is smaller, so nothing dies with `MemoryExceeded`.
    let mut buckets: HashMap<BlockRef, usize> = HashMap::new();
    let mut biggest = 0;
    for e in probe.journal.events() {
        if let JobEvent::BlockAdmitted { block, bytes, .. } = e {
            biggest = biggest.max(*bytes);
            if matches!(block, BlockRef::Bucket { fop, .. } if *fop == keya_fop) {
                buckets.insert(*block, *bytes);
            }
        }
    }
    let budget: usize = buckets.values().sum();
    assert!(
        biggest < budget,
        "a {biggest} B block cannot share a {budget} B store with a pin"
    );

    // Stall the first combine: its siblings queue behind it for the
    // reserved executor's one slot, every pin held — the window KeyB's
    // commits land in.
    let faults = FaultPlan {
        first_attempt_delays: vec![(slow_fop, 0, 250)],
        ..Default::default()
    };
    let result = LocalCluster::new(1, 1)
        .with_config(config(budget))
        .run_with_faults(&dag, faults)
        .unwrap_or_else(|e| panic!("backpressure run (budget {budget} B) failed: {e}"));
    let launched = |fop_wanted: usize| {
        result
            .journal
            .events()
            .position(|e| matches!(e, JobEvent::TaskLaunched { fop, .. } if *fop == fop_wanted))
    };
    assert!(
        launched(slow_fop) < launched(keyb_fop),
        "the combines must hold their pins before any KeyB task starts"
    );

    assert_eq!(
        encode_outputs(&result),
        encode_outputs(&baseline),
        "backpressure run diverged from unbounded baseline"
    );
    check_seed(u64::MAX, &result, budget);
    assert!(
        result.metrics.pushes_deferred > 0,
        "a {budget} B reserved store never deferred a push: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.pushes_resumed > 0,
        "deferred pushes were never resumed: {:?}",
        result.metrics
    );
    assert!(
        result.metrics.pushes_deferred >= result.metrics.pushes_resumed,
        "more resumes than deferrals: {:?}",
        result.metrics
    );
    println!(
        "backpressure: budget {budget} B, {} deferred, {} resumed, {} spills, {} reloads",
        result.metrics.pushes_deferred,
        result.metrics.pushes_resumed,
        result.metrics.blocks_spilled,
        result.metrics.blocks_loaded
    );
}

#[test]
fn memory_pressure_matrix_preserves_outputs() {
    let shapes: Vec<(&str, LogicalDag)> =
        vec![("shuffle", shuffle_dag()), ("side_input", side_input_dag())];

    // Unbounded baselines: the answer every budgeted run must reproduce,
    // and proof that an unlimited store is metrically invisible.
    let mut baselines = Vec::new();
    let mut floors = Vec::new();
    let mut peaks = Vec::new();
    for (name, dag) in &shapes {
        let unbounded = LocalCluster::new(2, 2)
            .with_config(config(usize::MAX))
            .run(dag)
            .unwrap_or_else(|e| panic!("unbounded baseline {name} failed: {e}"));
        assert_eq!(
            unbounded.metrics.blocks_spilled
                + unbounded.metrics.pushes_deferred
                + unbounded.metrics.oom_injected,
            0,
            "{name}: unbounded run must emit no memory-pressure events"
        );
        assert_eq!(
            unbounded.metrics.peak_store_bytes, 0,
            "{name}: unlimited stores must not journal occupancy"
        );

        // A roomy-but-limited probe measures the working set (peak
        // occupancy) and the pinned floor without any pressure.
        let probe = LocalCluster::new(2, 2)
            .with_config(config(1 << 20))
            .run(dag)
            .unwrap_or_else(|e| panic!("probe run {name} failed: {e}"));
        assert_eq!(
            encode_outputs(&probe),
            encode_outputs(&unbounded),
            "{name}: probe run diverged from unbounded baseline"
        );
        let floor = pinned_floor(&probe.journal);
        let peak = probe.metrics.peak_store_bytes;
        assert!(floor > 0, "{name}: probe run pinned nothing");
        assert!(peak >= floor, "{name}: peak below pinned floor");
        baselines.push(encode_outputs(&unbounded));
        floors.push(floor);
        peaks.push(peak);
    }

    let mut total_spills = 0usize;
    let mut total_loads = 0usize;
    let mut total_deferred = 0usize;
    let mut total_oom = 0usize;
    for seed in 0..SEEDS {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4D00);
        // Budget: a working-set fraction (1/2, 1/3, 1/4 by seed), never
        // below the pinned floor plus slack for one in-flight reload.
        let frac = 2 + (seed % 3) as usize;
        let budget = (peaks[shape] / frac).max(floors[shape] + 64);
        let n_transient = rng.gen_range(1..4usize);
        let n_reserved = rng.gen_range(1..3usize);
        let faults = random_fault_plan(&mut rng, seed, floors[shape], budget);
        let result = LocalCluster::new(n_transient, n_reserved)
            .with_config(config(budget))
            .run_with_faults(dag, faults.clone())
            .unwrap_or_else(|e| {
                panic!("seed {seed} ({name}, budget {budget} B, {faults:?}) failed: {e}")
            });
        assert_eq!(
            encode_outputs(&result),
            baselines[shape],
            "seed {seed} ({name}, budget {budget} B): outputs diverged from baseline"
        );
        check_seed(seed, &result, budget);
        total_spills += result.metrics.blocks_spilled;
        total_loads += result.metrics.blocks_loaded;
        total_deferred += result.metrics.pushes_deferred;
        total_oom += result.metrics.oom_injected;
    }

    // The matrix as a whole must actually exercise the pressure paths:
    // spills happened, spilled blocks were reloaded, and the OOM fault
    // family fired. (Deferred pushes depend on scheduling races; report
    // but do not require them.)
    assert!(total_spills > 0, "matrix never spilled a block");
    assert!(total_loads > 0, "matrix never reloaded a spilled block");
    assert!(total_oom > 0, "matrix never injected an allocation failure");
    println!(
        "memory-pressure matrix: {total_spills} spills, {total_loads} reloads, \
         {total_deferred} deferred pushes, {total_oom} OOM injections across {SEEDS} seeds"
    );
}
