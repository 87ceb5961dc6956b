//! Regenerates Figure 1 (transient-container lifetime CDFs), Table 1
//! (lifetime percentiles), and Table 2 (collected idle memory) from the
//! synthetic datacenter trace.

use pado_bench::{ascii_cdf_chart, print_csv, print_table};
use pado_trace::{analyze_margins, generate, lifetime_row, Cdf, SynthConfig, PAPER_MARGINS};

fn main() {
    let series = generate(&SynthConfig::default());
    // One refinement of each series feeds all three margins.
    let analyses = analyze_margins(&series, PAPER_MARGINS);
    let cdfs: Vec<_> = analyses
        .iter()
        .map(|a| Cdf::new(a.lifetimes_min.clone()))
        .collect();

    // Figure 1: CDF series at 0..60 minutes.
    let xs: Vec<u64> = (0..=60).collect();
    let mut rows = Vec::new();
    for &x in &xs {
        let mut row = vec![x.to_string()];
        for cdf in &cdfs {
            row.push(format!("{:.3}", cdf.at(x)));
        }
        rows.push(row);
    }
    print_table(
        "Figure 1: CDFs of transient container lifetimes over safety margins",
        &["minutes", "high (0.1%)", "medium (1%)", "low (5%)"],
        &rows[..16],
    );
    println!("   … (full series in the CSV below)\n");
    let charts: Vec<(&str, Vec<(u64, f64)>)> = cdfs
        .iter()
        .zip(["high (0.1%)", "medium (1%)", "low (5%)"])
        .map(|(cdf, name)| (name, cdf.series(&xs)))
        .collect();
    println!("{}", ascii_cdf_chart(&charts, 61, 16));
    print_csv(
        "figure1",
        &[
            "minutes",
            "cdf_margin_0.1pct",
            "cdf_margin_1pct",
            "cdf_margin_5pct",
        ],
        &rows,
    );

    // Table 1: lifetime percentiles.
    let t1: Vec<Vec<String>> = analyses
        .iter()
        .map(|a| {
            let r = lifetime_row(a);
            vec![
                format!("{}%", r.margin * 100.0),
                format!("{} min", r.p10),
                format!("{} min", r.p50),
                format!("{} min", r.p90),
            ]
        })
        .collect();
    print_table(
        "Table 1: lifetime percentiles per safety margin (paper: 0.1% -> 1/2/19, 1% -> 1/10/64, 5% -> 1/20/276)",
        &["margin", "p10", "p50", "p90"],
        &t1,
    );
    print_csv("table1", &["margin", "p10_min", "p50_min", "p90_min"], &t1);

    // Table 2: collected idle memory.
    let baseline = analyses[0].baseline_idle_fraction;
    let mut t2 = vec![vec![
        "baseline".to_string(),
        format!("{:.1}%", baseline * 100.0),
    ]];
    for a in &analyses {
        t2.push(vec![
            format!("{}%", a.margin * 100.0),
            format!("{:.1}%", a.collected_fraction * 100.0),
        ]);
    }
    print_table(
        "Table 2: collected idle memory vs total LC memory (paper: baseline 26.0, 0.1% -> 25.9, 1% -> 25.3, 5% -> 22.7)",
        &["margin", "collected"],
        &t2,
    );
    print_csv("table2", &["margin", "collected_fraction"], &t2);
}
