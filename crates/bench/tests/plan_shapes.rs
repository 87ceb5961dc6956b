//! The compiled shape of every job a figure or a benchmark workload is
//! built on: a compiler change that moves a task count shows up here as
//! a test diff, not as a benchmark surprise.

use pado_core::compiler::compile;
use pado_dag::LogicalDag;
use pado_workloads::{als, mlr, mr, MlrConfig};

/// `(stages, fops, total_tasks)` of the default plan, which for every
/// job here fuses all it could: no in-stage one-to-one transfer between
/// same-placement fops is left.
fn shape(dag: &LogicalDag) -> (usize, usize, usize) {
    let plan = compile(dag).expect("compiles");
    assert!(pado_bench::unfused_transfers(&plan).is_empty());
    (
        plan.stage_dag.stages.len(),
        plan.fops.len(),
        plan.total_tasks(),
    )
}

#[test]
fn paper_scale_plans_are_pinned() {
    assert_eq!(shape(&mr::paper().0), (2, 3, 2_560));
    assert_eq!(shape(&mlr::paper().0), (17, 22, 2_872));
    assert_eq!(shape(&als::paper().0), (24, 46, 2_761));
}

/// The `mlr-evict` benchmark job (`perf/src/cluster.rs::mlr_config`): 64
/// partitions, 20 unrolled iterations. One task per partition per
/// iteration — each iteration's `Read` runs inside its gradient task —
/// plus an aggregate and a model per iteration, the first model and the
/// sink.
#[test]
fn the_benchmark_mlr_job_is_pinned() {
    let dag = mlr::dag(&MlrConfig {
        samples: 6_400,
        features: 16,
        classes: 4,
        partitions: 64,
        iterations: 20,
        lr: 0.5,
        seed: 1,
    });
    assert_eq!(shape(&dag), (42, 62, 20 * (64 + 2) + 2));
}
