//! What an eviction costs (§3.2.5, invariant law 12): a lost output is
//! re-run only when a consumer task still has to read it.
//!
//! The job is MLR with 8 partitions and 4 unrolled iterations. Each
//! iteration is one Pado Stage — `Read Training Data` and `Compute
//! Gradient` on transient executors, `Aggregate Gradients` on a reserved
//! one — followed by a one-task `Compute Model` stage. The default plan
//! fuses each stage's `Read` into its gradient, which leaves no output
//! at rest on a transient executor; the drop-or-revert cases therefore
//! run the unfused plan ([`Job::unfused`]), where a `Read` output stays on the
//! transient executor that produced it (its consumer is transient too),
//! so an eviction takes its only copy: needed if that partition's
//! gradient has not committed, dead weight once it has.
//!
//! Every case must reproduce the fault-free run's outputs byte for byte,
//! and must replay clean through every invariant law.

use pado_bench::chaos::encode_outputs;
use pado_core::compiler::{compile_with, PhysicalPlan, PlanConfig};
use pado_core::runtime::{
    assert_clean, eviction_ledger, CrashPlan, FaultPlan, JobEvent, JobResult, LocalCluster,
    RuntimeConfig,
};
use pado_dag::LogicalDag;
use pado_workloads::{mlr, MlrConfig};

/// The job under one plan: the cluster compiles with the same options
/// the eviction points are counted on.
struct Job {
    dag: LogicalDag,
    plan: PhysicalPlan,
    plan_config: PlanConfig,
}

impl Job {
    fn new(plan_config: PlanConfig) -> Self {
        let dag = mlr::dag(&MlrConfig {
            samples: 160,
            features: 6,
            classes: 3,
            partitions: 8,
            iterations: 4,
            lr: 0.5,
            seed: 7,
        });
        let plan = compile_with(&dag, &plan_config).expect("MLR compiles");
        Job {
            dag,
            plan,
            plan_config,
        }
    }

    /// Every operator a fop of its own: `Read` outputs rest where they
    /// were made until their gradient has read them.
    fn unfused() -> Self {
        Job::new(PlanConfig {
            fusion: false,
            ..PlanConfig::default()
        })
    }

    /// Task completions once iteration `k`'s gradient stage is complete.
    /// The stages of this job run strictly one after another, so that is
    /// every task up to and including the stage's aggregate.
    fn stage_done(&self, k: usize) -> usize {
        let name = format!("Aggregate Gradients {k}");
        let aggregate = self
            .plan
            .fops
            .iter()
            .find(|f| self.dag.op(f.tail()).name == name)
            .expect("one aggregate per iteration");
        self.plan.fops[..=aggregate.id]
            .iter()
            .map(|f| f.parallelism)
            .sum()
    }

    fn run(&self, faults: FaultPlan) -> JobResult {
        let config = RuntimeConfig {
            // A duplicate attempt is a launch no loss accounts for.
            speculation: false,
            tick_ms: 5,
            threaded_workers: 2,
            ..RuntimeConfig::default()
        };
        let result = LocalCluster::new(4, 2)
            .with_config(config)
            .with_plan_config(self.plan_config.clone())
            .run_with_faults(&self.dag, faults)
            .expect("the job survives its faults");
        assert_clean(&result.journal, true);
        result
    }
}

/// The task of every event `pick` selects one from.
fn tasks_where(
    events: &[JobEvent],
    pick: impl Fn(&JobEvent) -> Option<(usize, usize)>,
) -> Vec<(usize, usize)> {
    events.iter().filter_map(pick).collect()
}

fn dropped(e: &JobEvent) -> Option<(usize, usize)> {
    match e {
        JobEvent::OutputDropped { fop, index, .. } => Some((*fop, *index)),
        _ => None,
    }
}

fn reverted(e: &JobEvent) -> Option<(usize, usize)> {
    match e {
        JobEvent::TaskReverted { fop, index } => Some((*fop, *index)),
        _ => None,
    }
}

fn launched(e: &JobEvent) -> Option<(usize, usize)> {
    match e {
        JobEvent::TaskLaunched { fop, index, .. } => Some((*fop, *index)),
        _ => None,
    }
}

#[test]
fn evictions_between_stages_relaunch_nothing() {
    let job = Job::unfused();
    let baseline = job.run(FaultPlan::default());
    // One eviction as each iteration's stage completes, the four
    // transient executors in turn: nothing is running, and every
    // output the victim holds has been consumed.
    let faults = FaultPlan {
        evictions: (0..4).map(|k| (job.stage_done(k), k)).collect(),
        ..FaultPlan::default()
    };
    let result = job.run(faults);
    assert_eq!(encode_outputs(&result), encode_outputs(&baseline));
    let m = &result.metrics;
    assert_eq!(m.evictions, 4);
    assert_eq!(
        (m.relaunched_tasks, m.stage_recomputations),
        (0, 0),
        "{m:?}"
    );
    assert!(m.outputs_dropped > 0, "{m:?}");
    let ledger = eviction_ledger(&result.journal);
    assert_eq!(ledger.len(), 4);
    for row in &ledger {
        assert_eq!(
            (row.running, row.reverted, row.reopened),
            (0, 0, 0),
            "{row:?}"
        );
    }
    let drops: usize = ledger.iter().map(|row| row.dropped).sum();
    assert_eq!(drops, m.outputs_dropped);
}

#[test]
fn on_the_fused_plan_evictions_between_stages_find_nothing_at_rest() {
    let job = Job::new(PlanConfig::default());
    let baseline = job.run(FaultPlan::default());
    // The same four points: with the read inside the gradient task,
    // every transient output went to a reserved executor as it was
    // made, so the victims hold nothing to revert or to drop.
    let faults = FaultPlan {
        evictions: (0..4).map(|k| (job.stage_done(k), k)).collect(),
        ..FaultPlan::default()
    };
    let result = job.run(faults);
    assert_eq!(encode_outputs(&result), encode_outputs(&baseline));
    let m = &result.metrics;
    assert_eq!(
        (
            m.evictions,
            m.relaunched_tasks,
            m.outputs_dropped,
            m.stage_recomputations
        ),
        (4, 0, 0, 0),
        "{m:?}"
    );
    let ledger = eviction_ledger(&result.journal);
    assert_eq!(ledger.len(), 4);
    for row in &ledger {
        assert_eq!(
            (row.running, row.reverted, row.dropped, row.reopened),
            (0, 0, 0, 0),
            "{row:?}"
        );
    }
}

#[test]
fn a_mid_stage_eviction_relaunches_only_unconsumed_work() {
    let job = Job::unfused();
    let baseline = job.run(FaultPlan::default());
    // Ten completions into iteration 1's stage (one more for the
    // model before it): reads and gradients are interleaved.
    let faults = FaultPlan {
        evictions: vec![(job.stage_done(0) + 1 + 10, 0)],
        ..FaultPlan::default()
    };
    let result = job.run(faults);
    assert_eq!(encode_outputs(&result), encode_outputs(&baseline));
    let ledger = eviction_ledger(&result.journal);
    let [row] = &ledger[..] else {
        panic!("one eviction, one row: {ledger:?}");
    };
    // The victim's running attempts, and its commits whose consumer
    // had not committed: that is all an eviction may cost.
    let m = &result.metrics;
    assert!(
        m.relaunched_tasks <= row.running + row.reverted,
        "{} relaunches for {row:?}",
        m.relaunched_tasks
    );
    assert_eq!((m.stage_recomputations, row.reopened), (0, 0));
    assert_eq!(m.outputs_dropped, row.dropped);
    assert!(
        row.dropped > 0,
        "the victim held iteration 0's consumed reads: {row:?}"
    );
}

#[test]
fn a_reserved_failure_after_drops_recomputes_the_dropped_ancestors() {
    let job = Job::unfused();
    let baseline = job.run(FaultPlan::default());
    // Evict two transient executors once iteration 0 is through —
    // their reads are dropped — then, well into iteration 1, fail
    // the reserved executor every aggregate and model lives on. The
    // model the running gradients read is gone, and recomputing it
    // walks back through iteration 0's gradients to those reads.
    let done = job.stage_done(0);
    let faults = FaultPlan {
        evictions: vec![(done, 0), (done, 1)],
        reserved_failures: vec![(done + 1 + 10, 0)],
        ..FaultPlan::default()
    };
    let result = job.run(faults);
    assert_eq!(encode_outputs(&result), encode_outputs(&baseline));
    assert!(result.metrics.stage_recomputations > 0);

    let events = result.journal.to_events();
    let failure = events
        .iter()
        .position(|e| matches!(e, JobEvent::ReservedFailed(_)))
        .expect("the reserved failure is logged");
    let drops = tasks_where(&events[..failure], dropped);
    assert!(!drops.is_empty(), "the evictions dropped reads");
    let pulled_back = tasks_where(&events[failure..], reverted);
    let relaunches = tasks_where(&events[failure..], launched);
    for task in &drops {
        assert!(
            pulled_back.contains(task),
            "dropped {task:?} was needed again, never reverted"
        );
        assert!(
            relaunches.contains(task),
            "dropped {task:?} was never recomputed"
        );
    }
}

#[test]
fn a_master_restart_does_not_recompute_what_evictions_dropped() {
    let job = Job::unfused();
    let done = job.stage_done(1);
    let evictions = vec![(job.stage_done(0), 0), (done, 1)];
    // Both ways to kill a master, each well into iteration 2.
    let restarts = [
        FaultPlan {
            evictions: evictions.clone(),
            master_failure_after: Some(done + 1 + 10),
            ..FaultPlan::default()
        },
        FaultPlan {
            evictions,
            crashes: Some(CrashPlan {
                seed: 1,
                after_handled_frames: Some(done as u64 + 1 + 10),
                every_kth_append: None,
                handler_prob: 0.0,
                max_crashes: 1,
                corruption: None,
            }),
            ..FaultPlan::default()
        },
    ];
    let baseline = job.run(FaultPlan::default());
    for faults in &restarts {
        let result = job.run(faults.clone());
        assert_eq!(encode_outputs(&result), encode_outputs(&baseline));
        assert_eq!(result.metrics.wal_recoveries, 1);

        let events = result.journal.to_events();
        let recovery = events
            .iter()
            .position(|e| matches!(e, JobEvent::MasterRecovered))
            .expect("the restart is logged");
        let drops = tasks_where(&events[..recovery], dropped);
        assert!(!drops.is_empty(), "the evictions dropped reads");
        // Every consumer of those reads committed, durably, long
        // before the crash: the recovered master must leave them be.
        let relaunches = tasks_where(&events[recovery..], launched);
        for task in &drops {
            assert!(
                !relaunches.contains(task),
                "dropped {task:?} relaunched after the restart"
            );
        }
        assert_eq!(result.metrics.stage_recomputations, 0);
    }
}
