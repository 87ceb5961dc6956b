//! Benchmark harness utilities: eviction-rate construction from the trace
//! analysis, multi-seed engine runs, and table formatting shared by the
//! per-figure binaries.
#![warn(missing_docs)]

pub mod chaos;

use pado_dag::LogicalDag;
use pado_engines::{simulate, CostModel, Mode, RunMetrics, SimConfig, SimError};
use pado_simcluster::{LifetimeDist, MIN};
use pado_trace::{analyze, generate, SynthConfig};
use pado_workloads::{als, mlr, mr};

/// The paper's four eviction rates (§5.2): none, plus the lifetime CDFs
/// obtained at 5 %, 1 %, and 0.1 % safety margins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionRate {
    /// No evictions.
    None,
    /// 5 % safety margin.
    Low,
    /// 1 % safety margin.
    Medium,
    /// 0.1 % safety margin.
    High,
}

impl EvictionRate {
    /// All four rates in presentation order.
    pub const ALL: [EvictionRate; 4] = [
        EvictionRate::None,
        EvictionRate::Low,
        EvictionRate::Medium,
        EvictionRate::High,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EvictionRate::None => "None",
            EvictionRate::Low => "Low",
            EvictionRate::Medium => "Medium",
            EvictionRate::High => "High",
        }
    }

    /// The safety margin producing this rate, if any.
    pub fn margin(self) -> Option<f64> {
        match self {
            EvictionRate::None => None,
            EvictionRate::Low => Some(0.05),
            EvictionRate::Medium => Some(0.01),
            EvictionRate::High => Some(0.001),
        }
    }
}

/// Builds the four lifetime distributions by running the §2.1 trace
/// analysis once (synthetic trace, B-spline refinement, safety margins).
pub fn lifetime_dists() -> [(EvictionRate, LifetimeDist); 4] {
    let series = generate(&SynthConfig::default());
    EvictionRate::ALL.map(|rate| {
        let dist = match rate.margin() {
            None => LifetimeDist::None,
            Some(margin) => {
                let a = analyze(&series, margin);
                // Lifetimes are in minutes; the cluster wants microseconds.
                let us: Vec<u64> = a.lifetimes_min.iter().map(|&m| m.max(1) * MIN).collect();
                LifetimeDist::Empirical(pado_simcluster::EmpiricalDist::new(us))
            }
        };
        (rate, dist)
    })
}

/// Number of repetitions per configuration (the paper runs five; override
/// with `PADO_BENCH_REPEATS`).
pub fn repeats() -> usize {
    std::env::var("PADO_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Aggregate of repeated runs.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Mean JCT in minutes (capped runs contribute the cap).
    pub jct_mean_min: f64,
    /// Standard deviation of the JCT in minutes.
    pub jct_std_min: f64,
    /// Mean relaunched-to-original task ratio.
    pub relaunch_mean: f64,
    /// Whether any repetition hit the simulation time cap.
    pub capped: bool,
    /// Mean bytes checkpointed (Spark-checkpoint).
    pub bytes_checkpointed: f64,
    /// Mean bytes pushed to reserved executors (Pado).
    pub bytes_pushed: f64,
}

impl Aggregate {
    /// Formats the JCT, flagging capped runs with `>`.
    pub fn jct_label(&self) -> String {
        if self.capped {
            format!(">{:.0}", self.jct_mean_min)
        } else {
            format!("{:.1}", self.jct_mean_min)
        }
    }
}

/// Runs one engine `repeats()` times with distinct seeds and aggregates.
/// Runs that exceed `cap_min` minutes of virtual time are recorded at the
/// cap (the paper reports Spark's ALS runs as ">90 minutes").
pub fn run_repeated(
    mode: Mode,
    dag: &LogicalDag,
    model: &CostModel,
    base: &SimConfig,
    cap_min: u64,
) -> Aggregate {
    let n = repeats();
    let mut jcts = Vec::new();
    let mut relaunch = Vec::new();
    let mut capped = false;
    let mut ckpt = 0.0;
    let mut pushed = 0.0;
    for rep in 0..n {
        let config = SimConfig {
            seed: base.seed + 1000 * rep as u64,
            time_limit_us: cap_min * MIN,
            ..base.clone()
        };
        match simulate(mode, dag, model, config) {
            Ok(m) => {
                jcts.push(m.jct_minutes());
                relaunch.push(m.relaunch_ratio());
                ckpt += m.bytes_checkpointed;
                pushed += m.bytes_pushed;
            }
            Err(SimError::TimedOut) => {
                jcts.push(cap_min as f64);
                relaunch.push(f64::NAN);
                capped = true;
            }
            Err(e) => panic!("simulation failed: {e}"),
        }
    }
    let mean = jcts.iter().sum::<f64>() / jcts.len() as f64;
    let var = jcts.iter().map(|j| (j - mean).powi(2)).sum::<f64>() / jcts.len() as f64;
    let rl: Vec<f64> = relaunch.iter().copied().filter(|r| r.is_finite()).collect();
    let relaunch_mean = if rl.is_empty() {
        f64::NAN
    } else {
        rl.iter().sum::<f64>() / rl.len() as f64
    };
    Aggregate {
        jct_mean_min: mean,
        jct_std_min: var.sqrt(),
        relaunch_mean,
        capped,
        bytes_checkpointed: ckpt / n as f64,
        bytes_pushed: pushed / n as f64,
    }
}

/// Prints an aligned table: header + rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Emits machine-readable CSV after the human table.
pub fn print_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n# CSV {name}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Prints one of Figures 5–7: `dag` under the four eviction rates, for
/// Spark, Spark-checkpoint and Pado on 40 transient + 5 reserved
/// containers, runs capped at `cap_min` simulated minutes, as a table
/// under `caption` and as CSV named `csv`.
pub fn eviction_rate_figure(
    dag: &LogicalDag,
    model: &CostModel,
    cap_min: u64,
    caption: &str,
    csv: &str,
) {
    let mut rows = Vec::new();
    for (rate, lifetimes) in lifetime_dists() {
        let config = SimConfig {
            n_transient: 40,
            n_reserved: 5,
            lifetimes,
            ..SimConfig::default()
        };
        for mode in [Mode::Spark, Mode::SparkCkpt, Mode::Pado] {
            let agg = run_repeated(mode, dag, model, &config, cap_min);
            rows.push(vec![
                rate.label().to_string(),
                mode.name().to_string(),
                agg.jct_label(),
                format!("{:.1}", agg.jct_std_min),
                if agg.relaunch_mean.is_nan() {
                    "-".into()
                } else {
                    format!("{:.1}%", agg.relaunch_mean * 100.0)
                },
                format!("{:.0}GB", agg.bytes_checkpointed / 1e9),
                format!("{:.0}GB", agg.bytes_pushed / 1e9),
            ]);
        }
    }
    print_table(
        caption,
        &[
            "eviction",
            "engine",
            "JCT(m)",
            "std",
            "relaunched",
            "ckpt",
            "pushed",
        ],
        &rows,
    );
    print_csv(
        csv,
        &[
            "eviction",
            "engine",
            "jct_min",
            "jct_std",
            "relaunch_ratio",
            "bytes_ckpt",
            "bytes_pushed",
        ],
        &rows,
    );
}

/// One simulated configuration of a [`workloads_figure`]: the row labels
/// it adds after the workload's name, the engine, and the cluster.
pub type Variant = (Vec<String>, Mode, SimConfig);

/// Prints a figure over the three paper workloads: for ALS, MLR and MR in
/// turn and each variant, one row of the workload's name, the variant's
/// labels and `cells` of its repeated runs, as a table under `caption`
/// headed `header` and as CSV `csv` (name, header).
pub fn workloads_figure(
    caption: &str,
    header: &[&str],
    csv: (&str, &[&str]),
    variants: &[Variant],
    cells: impl Fn(&Aggregate) -> Vec<String>,
) {
    let workloads = [
        ("ALS", als::paper(), 120),
        ("MLR", mlr::paper(), 360),
        ("MR", mr::paper(), 90),
    ];
    let mut rows = Vec::new();
    for (name, (dag, model), cap) in &workloads {
        for (labels, mode, config) in variants {
            let agg = run_repeated(*mode, dag, model, config, *cap);
            rows.push([vec![name.to_string()], labels.clone(), cells(&agg)].concat());
        }
    }
    print_table(caption, header, &rows);
    print_csv(csv.0, csv.1, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_rates_map_to_margins() {
        assert_eq!(EvictionRate::High.margin(), Some(0.001));
        assert_eq!(EvictionRate::None.margin(), None);
        assert_eq!(EvictionRate::ALL.len(), 4);
    }

    #[test]
    fn lifetime_dists_order_by_aggressiveness() {
        let dists = lifetime_dists();
        let median = |d: &LifetimeDist| match d {
            LifetimeDist::Empirical(e) => e.quantile(0.5),
            _ => u64::MAX,
        };
        let low = median(&dists[1].1);
        let high = median(&dists[3].1);
        assert!(
            high < low,
            "0.1 % margin lifetimes ({high}) should be shorter than 5 % ({low})"
        );
    }

    #[test]
    fn aggregate_formats_caps() {
        let a = Aggregate {
            jct_mean_min: 240.0,
            jct_std_min: 0.0,
            relaunch_mean: 0.0,
            capped: true,
            bytes_checkpointed: 0.0,
            bytes_pushed: 0.0,
        };
        assert_eq!(a.jct_label(), ">240");
    }
}

/// Renders series of `(x, fraction)` points as a compact ASCII chart
/// (used to draw Figure 1's CDFs in the terminal).
pub fn ascii_cdf_chart(series: &[(&str, Vec<(u64, f64)>)], width: usize, height: usize) -> String {
    let width = width.max(10);
    let height = height.max(4);
    let max_x = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(x, _)| x))
        .max()
        .unwrap_or(1)
        .max(1);
    let marks = ['H', 'M', 'L', '*', '+', 'o'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts {
            let col = ((x as f64 / max_x as f64) * (width - 1) as f64).round() as usize;
            let row = ((1.0 - y.clamp(0.0, 1.0)) * (height - 1) as f64).round() as usize;
            grid[row][col] = mark;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            "100%|"
        } else if r == height - 1 {
            "  0%|"
        } else {
            "    |"
        };
        out.push_str(label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "    +{}\n     0 … {} minutes; ",
        "-".repeat(width),
        max_x
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} = {}", marks[i % marks.len()], name))
        .collect();
    out.push_str(&legend.join(", "));
    out.push('\n');
    out
}

/// Runs a small deterministic demo job and returns its frozen event
/// journal: a serial chain (parallelism 1 everywhere) on one transient
/// plus one reserved executor, with a fixed-seed chaos plan (UDF errors
/// only) and one scripted eviction. Only one task is ever in flight, so
/// the canonical journal — and thus the time-elided timeline — is
/// byte-stable run over run. This is the job behind `explain timeline`
/// and the golden timeline test.
pub fn demo_journal() -> pado_core::runtime::EventJournal {
    use pado_core::runtime::{ChaosPlan, FaultPlan, LocalCluster, RuntimeConfig};
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};

    let p = Pipeline::new();
    p.read(
        "Read",
        1,
        SourceFn::from_vec((0..12i64).map(Value::from).collect()),
    )
    .par_do(
        "Key",
        ParDoFn::per_element(|v, e| {
            e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
        }),
    )
    .combine_per_key("Sum", CombineFn::sum_i64())
    .sink("Out");
    let dag = p.build().unwrap();
    let config = RuntimeConfig {
        slots_per_executor: 1,
        speculation: false,
        // No blacklisting: a blacklist provisions a replacement container
        // that would run tasks concurrently with the old one, and the
        // interleaving of their commits is thread-timing, not seed.
        executor_fault_threshold: 100,
        heartbeat_interval_ms: 1_000,
        dead_executor_timeout_ms: 60_000,
        ..Default::default()
    };
    let faults = FaultPlan {
        evictions: vec![(1, 0)],
        chaos: Some(ChaosPlan {
            seed: 7,
            error_prob: 0.5,
            panic_prob: 0.0,
            oom_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            max_faults_per_task: 1,
        }),
        ..Default::default()
    };
    LocalCluster::new(1, 1)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .expect("demo job")
        .journal
}

/// The demo job's human-readable timeline with the timestamp column
/// elided (the byte-stable, golden-tested form).
pub fn demo_timeline() -> String {
    demo_journal().render_timeline(false)
}

/// "The two Pados" on one DAG: the real runtime's result for a small MLR
/// job under scripted evictions, and the simulated Pado engine's metrics
/// for the same DAG under as many.
#[derive(Debug)]
pub struct EvictionDemo {
    /// The job through `LocalCluster` (sim backend): its journal feeds
    /// [`pado_core::runtime::eviction_ledger`].
    pub runtime: pado_core::runtime::JobResult,
    /// `simulate(Mode::Pado, ..)` of the same DAG.
    pub simulated: RunMetrics,
}

/// Evictions [`eviction_demo`] injects into each engine.
pub const DEMO_EVICTIONS: usize = 4;

/// Runs MLR (8 partitions, 4 unrolled iterations, 42 tasks) on four
/// transient and two reserved executors, evicting a transient executor —
/// the four in turn — at [`DEMO_EVICTIONS`] evenly spaced points: task
/// completions for the runtime, fractions of the eviction-free JCT for
/// the simulator, whose toy cost model makes reads and gradients the
/// long tasks. The job behind `explain evictions`.
pub fn eviction_demo() -> EvictionDemo {
    use pado_core::runtime::{FaultPlan, LocalCluster, RuntimeConfig};
    use pado_engines::OpCost;
    use pado_workloads::{mlr, MlrConfig};

    let dag = mlr::dag(&MlrConfig {
        samples: 160,
        features: 6,
        classes: 3,
        partitions: 8,
        iterations: 4,
        lr: 0.5,
        seed: 7,
    });
    let spread = |span: usize| (1..=DEMO_EVICTIONS).map(move |i| span * i / (DEMO_EVICTIONS + 1));

    let tasks = pado_core::compiler::compile(&dag)
        .expect("MLR compiles")
        .total_tasks();
    let faults = FaultPlan {
        evictions: spread(tasks).zip(0..).collect(),
        ..Default::default()
    };
    let config = RuntimeConfig {
        slots_per_executor: 1,
        speculation: false,
        ..Default::default()
    };
    let runtime = LocalCluster::new(4, 2)
        .with_config(config)
        .run_with_faults(&dag, faults)
        .expect("demo job");

    let mut model = CostModel::new();
    for op in dag.op_ids() {
        let name = &dag.op(op).name;
        let long = name.starts_with("Read") || name.starts_with("Compute Gradient");
        let cost = OpCost {
            compute_us: if long { 400_000 } else { 20_000 },
            read_store_bytes: if name.starts_with("Read") { 1e6 } else { 0.0 },
            output_bytes: if name.starts_with("Read") { 1e6 } else { 1e4 },
        };
        model.set(op, cost);
    }
    let sim_config = |scripted_evictions| SimConfig {
        n_transient: 4,
        n_reserved: 2,
        scripted_evictions,
        ..SimConfig::default()
    };
    let quiet = simulate(Mode::Pado, &dag, &model, sim_config(Vec::new())).expect("simulates");
    let scripted = spread(quiet.jct_us as usize)
        .map(|at| at as u64)
        .zip(0..)
        .collect();
    let simulated = simulate(Mode::Pado, &dag, &model, sim_config(scripted)).expect("simulates");
    EvictionDemo { runtime, simulated }
}

/// The transfers fusion could have removed and did not: every in-stage
/// one-to-one edge between fops of the same placement, each with the
/// condition of [`pado_core::compiler::build_plan`] that kept it (the
/// first that fails, in the order the plan generator tests them).
pub fn unfused_transfers(
    plan: &pado_core::compiler::PhysicalPlan,
) -> Vec<(pado_core::compiler::PlanEdge, &'static str)> {
    use pado_core::compiler::InputSlot;
    use pado_dag::DepType;

    plan.edges
        .iter()
        .filter(|e| {
            e.dep == DepType::OneToOne
                && !e.cross_stage
                && plan.fops[e.src].placement == plan.fops[e.dst].placement
        })
        .map(|e| {
            let mains = plan.ins(e.dst).iter().filter(|i| i.slot != InputSlot::Side);
            let why = if mains.count() > 1 {
                "second main input"
            } else if plan.outs(e.src).len() > 1 {
                "in-stage fan-out"
            } else if plan.fops[e.src].parallelism != plan.fops[e.dst].parallelism {
                "parallelism"
            } else {
                "fusion is off"
            };
            (*e, why)
        })
        .collect()
}

#[cfg(test)]
mod unfused_tests {
    use super::unfused_transfers;
    use pado_core::compiler::compile;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};

    #[test]
    fn each_unfused_transfer_names_what_blocked_it() {
        let ident = || ParDoFn::per_element(|v, e| e(v.clone()));
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        let a = read.par_do("A", ident());
        let b = read.par_do("B", ident()).par_do("Wide", ident());
        let wide = b.with_parallelism(8);
        a.par_do_zip("Join", &wide, ident())
            .aggregate("Agg", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let name = |fop: usize| dag.op(plan.fops[fop].head()).name.clone();
        let mut found: Vec<(String, String, &str)> = unfused_transfers(&plan)
            .into_iter()
            .map(|(e, why)| (name(e.src), name(e.dst), why))
            .collect();
        found.sort();
        let row = |src: &str, dst: &str, why| (src.to_string(), dst.to_string(), why);
        assert_eq!(
            found,
            [
                row("A", "Join", "second main input"),
                row("B", "Wide", "parallelism"),
                row("Read", "A", "in-stage fan-out"),
                row("Read", "B", "in-stage fan-out"),
                row("Wide", "Join", "second main input"),
            ]
        );
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_places_extremes() {
        let pts: Vec<(u64, f64)> = (0..=10).map(|x| (x, x as f64 / 10.0)).collect();
        let chart = ascii_cdf_chart(&[("diag", pts)], 20, 5);
        assert!(chart.contains("100%|"));
        assert!(chart.contains("  0%|"));
        assert!(chart.contains("H = diag"));
        // Monotone CDF: the top row's mark is to the right of the bottom's.
        let rows: Vec<&str> = chart.lines().collect();
        let top = rows[0].find('H').unwrap();
        let bottom = rows[4].find('H').unwrap();
        assert!(top > bottom);
    }

    #[test]
    fn chart_handles_empty_series() {
        let chart = ascii_cdf_chart(&[("empty", vec![])], 10, 4);
        assert!(chart.contains("0 … 1 minutes"));
    }
}
