//! Regenerates Figure 9: Pado's job completion times at three cluster
//! sizes with a fixed 8:1 transient-to-reserved ratio (27, 45, and 63
//! containers) under the high eviction rate.

use pado_bench::{lifetime_dists, workloads_figure};
use pado_engines::{Mode, SimConfig};

fn main() {
    let [.., (_, high)] = lifetime_dists();
    let variants: Vec<_> = [(24usize, 3usize), (40, 5), (56, 7)]
        .into_iter()
        .map(|(t, r)| {
            let config = SimConfig {
                n_transient: t,
                n_reserved: r,
                lifetimes: high.clone(),
                ..SimConfig::default()
            };
            (
                vec![format!("{} ({}T+{}R)", t + r, t, r)],
                Mode::Pado,
                config,
            )
        })
        .collect();
    workloads_figure(
        "Figure 9: Pado JCT at a fixed 8:1 transient:reserved ratio, high eviction rate (paper: all workloads scale with cluster size; ALS scales worst, being communication-intensive)",
        &["workload", "containers", "JCT(m)", "std"],
        ("figure9", &["workload", "containers", "jct_min", "jct_std"]),
        &variants,
        |agg| vec![agg.jct_label(), format!("{:.1}", agg.jct_std_min)],
    );
}
