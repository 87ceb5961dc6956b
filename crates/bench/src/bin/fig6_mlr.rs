//! Regenerates Figure 6: MLR job completion times and relaunched-task
//! ratios under the four eviction rates, for Spark, Spark-checkpoint, and
//! Pado on 40 transient + 5 reserved containers.

fn main() {
    let (dag, model) = pado_workloads::mlr::paper();
    pado_bench::eviction_rate_figure(
        &dag,
        &model,
        180,
        "Figure 6: MLR under different eviction rates (paper at High: Pado 2.7x faster than Spark-checkpoint, >3.5x than Spark; ~173GB checkpointed per iteration; 303 vs 550 vectors pushed)",
        "figure6_mlr",
    );
}
