//! Regenerates Figure 5: ALS job completion times and relaunched-task
//! ratios under the four eviction rates, for Spark, Spark-checkpoint, and
//! Pado on 40 transient + 5 reserved containers.

fn main() {
    let (dag, model) = pado_workloads::als::paper();
    pado_bench::eviction_rate_figure(
        &dag,
        &model,
        90,
        "Figure 5: ALS under different eviction rates (paper at High: Pado 2.1x faster than Spark-checkpoint, 4.1x than Spark; Spark >90m at Medium/High, 31% tasks relaunched; 279GB checkpointed)",
        "figure5_als",
    );
}
