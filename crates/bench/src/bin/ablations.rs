//! Ablation study of Pado's design choices (§3.2.7 optimizations and the
//! execution-plan generator's fusion): each row disables one mechanism
//! and reruns the three workloads under the high eviction rate.

use pado_bench::{lifetime_dists, workloads_figure};
use pado_engines::{Mode, SimConfig};

fn main() {
    let [.., (_, high)] = lifetime_dists();
    let full = SimConfig {
        n_transient: 40,
        n_reserved: 5,
        lifetimes: high,
        ..SimConfig::default()
    };
    let variants = [
        ("full", full.clone()),
        (
            "no partial aggregation",
            SimConfig {
                partial_aggregation: false,
                ..full.clone()
            },
        ),
        (
            "no broadcast caching",
            SimConfig {
                broadcast_caching: false,
                ..full
            },
        ),
    ]
    .map(|(label, config)| (vec![label.to_string()], Mode::Pado, config));
    workloads_figure(
        "Ablations: Pado at the high eviction rate with individual optimizations disabled",
        &["workload", "variant", "JCT(m)", "pushed"],
        (
            "ablations",
            &["workload", "variant", "jct_min", "bytes_pushed"],
        ),
        &variants,
        |agg| vec![agg.jct_label(), format!("{:.0}GB", agg.bytes_pushed / 1e9)],
    );
}
