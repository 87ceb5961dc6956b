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
    BackendKind, BlockRef, EventJournal, FaultPlan, JobEvent, JobResult, LocalCluster,
    RuntimeConfig,
};
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, Value};

mod common;
use common::*;

const SEEDS: u64 = 110;

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
    with_budget(base_config(), budget)
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

fn check_seed(seed: u64, result: &JobResult, budget: usize) {
    pado_core::runtime::assert_clean(&result.journal, true);

    // Self-reported occupancy never exceeded the configured budget (the
    // invariant checker verifies this per event and per shrunk budget;
    // the metric is the cheap summary).
    assert!(
        result.metrics.peak_store_bytes <= budget,
        "seed {seed}: peak store occupancy {} exceeds the {} B budget",
        result.metrics.peak_store_bytes,
        budget
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
    let shapes = [("shuffle", shuffle_dag()), ("side_input", side_input_dag())];

    // Unbounded baselines: the answer every budgeted run must reproduce,
    // and proof that an unlimited store is metrically invisible.
    let mut working_sets = Vec::new();
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
        working_sets.push((floor, peak));
    }

    // Budget: a working-set fraction (1/2, 1/3, 1/4 by seed), never
    // below the pinned floor plus slack for one in-flight reload.
    let family = Family {
        working_sets: &working_sets,
        ..MEMORY
    };
    let runs = run_matrix(&family, &shapes, 0..SEEDS, BackendKind::Sim, |o| {
        let (case, result) = clean(o);
        check_seed(case.seed, result, case.config.executor_memory_bytes);
    });
    let (total_spills, total_loads) = (
        total(&runs, |m| m.blocks_spilled),
        total(&runs, |m| m.blocks_loaded),
    );
    let (total_deferred, total_oom) = (
        total(&runs, |m| m.pushes_deferred),
        total(&runs, |m| m.oom_injected),
    );

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
