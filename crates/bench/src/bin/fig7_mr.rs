//! Regenerates Figure 7: MR job completion times and relaunched-task
//! ratios under the four eviction rates, for Spark, Spark-checkpoint, and
//! Pado on 40 transient + 5 reserved containers.

fn main() {
    let (dag, model) = pado_workloads::mr::paper();
    pado_bench::eviction_rate_figure(
        &dag,
        &model,
        120,
        "Figure 7: MR under different eviction rates (paper: Spark wins up to Medium; at High Pado 1.3x faster than Spark-checkpoint, 5.1x than Spark)",
        "figure7_mr",
    );
}
