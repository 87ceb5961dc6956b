//! Regenerates Figure 8: job completion times with 3–7 reserved
//! containers (plus 40 transient) under the high eviction rate, comparing
//! Pado against Spark-checkpoint on all three workloads.

use pado_bench::{lifetime_dists, workloads_figure};
use pado_engines::{Mode, SimConfig};

fn main() {
    let [.., (_, high)] = lifetime_dists();
    let mut variants = Vec::new();
    for reserved in 3..=7usize {
        for mode in [Mode::SparkCkpt, Mode::Pado] {
            let config = SimConfig {
                n_transient: 40,
                n_reserved: reserved,
                lifetimes: high.clone(),
                ..SimConfig::default()
            };
            let labels = vec![reserved.to_string(), mode.name().to_string()];
            variants.push((labels, mode, config));
        }
    }
    workloads_figure(
        "Figure 8: JCT vs number of reserved containers at the high eviction rate (paper: Spark-checkpoint degrades steeply for ALS/MLR; Pado's MR slows ~2.6x from 7 to 3 reserved; Pado wins everywhere, up to 3.8x for MLR)",
        &["workload", "reserved", "engine", "JCT(m)", "std"],
        ("figure8", &["workload", "reserved", "engine", "jct_min", "jct_std"]),
        &variants,
        |agg| vec![agg.jct_label(), format!("{:.1}", agg.jct_std_min)],
    );
}
