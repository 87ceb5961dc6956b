//! Extension experiment (§6 "Operator Placement Optimization"): when the
//! resource manager offers transient resources in two lifetime classes
//! (Harvest-style), lifetime-aware placement steers high-recomputation-
//! cost operators to the long-lived class. Compares blind vs. aware
//! Pado on the three workloads over a half-short / half-long mix.

use pado_bench::workloads_figure;
use pado_engines::{Mode, SimConfig};
use pado_simcluster::{LifetimeDist, SEC};

fn main() {
    let base = SimConfig {
        n_transient: 20,
        n_reserved: 5,
        lifetimes: LifetimeDist::Exponential {
            mean_us: (90 * SEC) as f64,
        },
        n_transient_long: 20,
        long_lifetimes: LifetimeDist::Exponential {
            mean_us: (30 * 60 * SEC) as f64,
        },
        ..SimConfig::default()
    };
    let variants = [("blind", false), ("lifetime-aware", true)].map(|(label, aware)| {
        let config = SimConfig {
            lifetime_aware: aware,
            ..base.clone()
        };
        (vec![label.to_string()], Mode::Pado, config)
    });
    workloads_figure(
        "Extension: lifetime-aware placement over mixed transient pools (20 short-lived ~90s + 20 long-lived ~30m)",
        &["workload", "placement", "JCT(m)", "relaunched"],
        ("ext_lifetime_aware", &["workload", "placement", "jct_min", "relaunch_ratio"]),
        &variants,
        |agg| {
            vec![
                agg.jct_label(),
                format!("{:.1}%", agg.relaunch_mean * 100.0),
            ]
        },
    );
}
