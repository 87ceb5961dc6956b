//! `paper-sim`: the simulated engines on the paper-scale Map-Reduce job,
//! 40 transient + 5 reserved containers, High eviction rate (the Figure 7
//! High row). Exercises `engines`, `simcluster`, `trace` and the compiler;
//! bypasses `runtime` entirely.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use pado_core::compiler::compile;
use pado_dag::LogicalDag;
use pado_engines::{simulate, CostModel, Mode, RunMetrics, SimConfig, SimEngine, SimError};
use pado_simcluster::{EmpiricalDist, LifetimeDist, Network, MIN};
use pado_trace::{analyze, generate, SynthConfig};
use pado_workloads::{als, mlr, mr};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::{setup_repeated, write_file};
use crate::layers;
use crate::metrics::{Outcome, STEPS};
use crate::sample::{column, print_summary, Sample, Sampler, Samples};
use crate::spans::Tracer;
use crate::stats::{median, Summary};

/// Safety margin of the paper's High eviction rate.
const HIGH_MARGIN: f64 = 0.001;
/// Virtual-time cap, as `fig7_mr` sets it.
const CAP_MIN: u64 = 120;
/// The paper jobs run at this fraction of their task count. A Pado-mode
/// call on the full `mr::paper()` takes ~10 s here and grows faster than
/// the square of the task count (1/2: 1.2 s, 1/3: 0.4 s, 1/4: 0.2 s), so a
/// run could hold one seed; at a half it holds a dozen and still evicts a
/// fifth of its tasks.
const DIVISOR: usize = 3;
const SMOKE_DIVISOR: usize = 50;
/// Spark-checkpoint calls per seed: each is ~30x cheaper than the Pado
/// call, and its wall clock is the noisier of the two.
const CKPT_CALLS: usize = 3;

pub struct SimCase {
    dag: LogicalDag,
    cost: CostModel,
    lifetimes: LifetimeDist,
    n_transient: usize,
    n_reserved: usize,
    /// The ordering JCT(Pado) < JCT(Spark-checkpoint) is a property of the
    /// paper-scale job; the smoke job is too short to be evicted.
    check_ordering: bool,
    /// Divisor the paper jobs' task counts are scaled by.
    divisor: usize,
    /// `--seed`: the i-th simulated run uses `SimConfig.seed = seed * 1000 + i`.
    seed: u64,
    pub setup_s: Summary,
}

/// A paper job at `1/divisor` of its task count: every operator's
/// parallelism divided, its per-task costs untouched.
fn scaled((mut dag, cost): (LogicalDag, CostModel), divisor: usize) -> (LogicalDag, CostModel) {
    let ops: Vec<_> = dag.op_ids().collect();
    for op in ops {
        if let Some(p) = dag.op(op).parallelism {
            dag.op_mut(op).parallelism = Some((p / divisor).max(1));
        }
    }
    (dag, cost)
}

impl SimCase {
    /// Trace synthesis + margin analysis (as `pado_bench::lifetime_dists`
    /// does for one rate) + job construction, timed as the set-up.
    pub fn build(seed: u64, smoke: bool) -> SimCase {
        let divisor = if smoke { SMOKE_DIVISOR } else { DIVISOR };
        let (((dag, cost), lifetimes), setup_s) = setup_repeated(|| {
            let analysis = analyze(&generate(&SynthConfig::default()), HIGH_MARGIN);
            // Lifetimes are in minutes; the cluster wants microseconds.
            let us: Vec<u64> = analysis
                .lifetimes_min
                .iter()
                .map(|&m| m.max(1) * MIN)
                .collect();
            (
                scaled(mr::paper(), divisor),
                LifetimeDist::Empirical(EmpiricalDist::new(us)),
            )
        });
        let (n_transient, n_reserved) = if smoke { (8, 2) } else { (40, 5) };
        SimCase {
            dag,
            cost,
            lifetimes,
            n_transient,
            n_reserved,
            check_ordering: !smoke,
            divisor,
            seed,
            setup_s,
        }
    }

    /// `SimConfig.seed` of the first simulated run; the i-th adds `i`.
    pub fn first_seed(&self) -> u64 {
        self.seed.wrapping_mul(1000)
    }

    /// Fingerprint of what the seed generates: the lifetimes the first
    /// simulated run's transient containers are born with, drawn the way
    /// `pado_simcluster::Cluster::new` draws them.
    pub fn inputs(&self) -> u64 {
        let mut rng = StdRng::seed_from_u64(self.first_seed());
        let mut inputs = DefaultHasher::new();
        for _ in 0..self.n_transient {
            self.lifetimes.sample(&mut rng).hash(&mut inputs);
        }
        inputs.finish()
    }

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            n_transient: self.n_transient,
            n_reserved: self.n_reserved,
            lifetimes: self.lifetimes.clone(),
            seed,
            time_limit_us: CAP_MIN * MIN,
            ..SimConfig::default()
        }
    }

    /// One simulated run as a sample; an error or a time-out is a failure.
    fn checked(
        &self,
        out: &mut Outcome,
        sampler: &mut Sampler,
        mode: Mode,
        seed: u64,
    ) -> (Sample, Option<RunMetrics>) {
        let config = self.config(seed);
        let (r, sample) = sampler.take(|| simulate(mode, &self.dag, &self.cost, config));
        out.check(
            &format!("{} simulate, seed {seed}", mode.name()),
            r.as_ref().map(|_| ()).map_err(SimError::to_string),
        );
        (sample, r.ok())
    }

    /// One seed: a Pado call and [`CKPT_CALLS`] Spark-checkpoint calls,
    /// and the ordering the paper's Figure 7 High row shows.
    fn one_seed(
        &self,
        out: &mut Outcome,
        sampler: &mut Sampler,
        seed: u64,
        samples: &mut Samples,
    ) -> Option<RunMetrics> {
        let (sample, pado) = self.checked(out, sampler, Mode::Pado, seed);
        let mut ckpt_jct = Vec::new();
        for _ in 0..CKPT_CALLS {
            let (sample, m) = self.checked(out, sampler, Mode::SparkCkpt, seed);
            if let Some(m) = m {
                samples.baseline.push(sample);
                ckpt_jct.push(m.jct_minutes());
            }
        }
        let pado = pado?;
        samples.primary.push(sample);
        let ckpt = median(&ckpt_jct);
        if self.check_ordering && !ckpt_jct.is_empty() && pado.jct_minutes() >= ckpt {
            out.failed += 1;
            println!(
                "FAILED ordering, seed {seed}: JCT(Pado) {:.3} min >= JCT(Spark-checkpoint) {ckpt:.3} min",
                pado.jct_minutes()
            );
        }
        Some(pado)
    }
}

/// `--trace 0`: one seed after another until `seconds` have passed (at
/// least two).
pub fn run_plain(case: &SimCase, seconds: f64, out: &mut Outcome) {
    let mut samples = Samples::default();
    let mut sampler = Sampler::new(1);
    let mut jct = Vec::new();
    let mut tasks = 0usize;
    let begin = Instant::now();
    let mut i = 0u64;
    while begin.elapsed().as_secs_f64() < seconds || i < 2 {
        let seed = case.first_seed().wrapping_add(i);
        if let Some(m) = case.one_seed(out, &mut sampler, seed, &mut samples) {
            jct.push(m.jct_minutes());
            tasks = m.original_tasks;
        }
        i += 1;
    }
    samples.print(&sampler);
    print_summary("sim_jct_min", "min", &jct);
    // The job's completion time here is the simulated one: throughput in
    // simulated seconds is what holds the Figure 5-9 JCT to a bound, and
    // `makespan_s` what producing it costs.
    let jct_s = median(&jct) * 60.0;
    out.set_end_to_end(&case.setup_s, &samples, tasks as f64 / jct_s);
}

/// 500 concurrent transfers over 50 nodes through the fair-share network
/// model (the existing microbench case); returns seconds.
fn network_500_transfers() -> f64 {
    let t = Instant::now();
    let mut n = Network::new();
    let nodes: Vec<_> = (0..50).map(|_| n.add_node(125.0, 125.0)).collect();
    let mut dues: Vec<pado_simcluster::network::Due> = Vec::new();
    for i in 0..500 {
        let (_, d) = n.start(0, nodes[i % 50], nodes[(i * 7 + 1) % 50], 1e6);
        for due in d {
            dues.retain(|p| p.id != due.id);
            dues.push(due);
        }
    }
    while n.active() > 0 {
        dues.sort_by_key(|d| d.at);
        let d = dues.remove(0);
        if let Ok(re) = n.complete(d.at, d.id, d.gen) {
            for r in re {
                dues.retain(|p| p.id != r.id);
                dues.push(r);
            }
        }
    }
    std::hint::black_box(n.bytes_completed);
    t.elapsed().as_secs_f64()
}

/// `--trace 1`: one untraced call per engine and per paper workload, one
/// traced Pado call, and the compiler, trace and network drivers. Times
/// are as measured.
pub fn run_traced(case: &SimCase, out_dir: &Path, out: &mut Outcome) {
    let seed = case.first_seed();
    let mut sampler = Sampler::new(1);
    let mut samples = Samples::default();
    let pado = case.one_seed(out, &mut sampler, seed, &mut samples);
    let wall = median(&column(&samples.primary, |s| s.raw_s));
    out.set("engines.simulate_s.pado", wall);
    out.set("sim_wall_s", wall);
    out.set(
        "engines.simulate_s.spark_ckpt",
        median(&column(&samples.baseline, |s| s.raw_s)),
    );
    if let Some(m) = &pado {
        out.set("sim_jct_min", m.jct_minutes());
        out.set("engines.sim_relaunch_ratio", m.relaunch_ratio());
        out.set("engines.bytes_pushed_gb", m.bytes_pushed / 1e9);
    }
    if let (_, Some(m)) = case.checked(out, &mut sampler, Mode::SparkCkpt, seed) {
        out.set("engines.jct_min.spark_ckpt", m.jct_minutes());
    }
    let (sample, spark) = case.checked(out, &mut sampler, Mode::Spark, seed);
    out.set("engines.simulate_s.spark", sample.raw_s);
    if let Some(m) = spark {
        out.set("engines.jct_min.spark", m.jct_minutes());
    }
    // One Pado-mode row each for the other two paper workloads, at the
    // same fraction of their task counts.
    for (name_s, name_jct, job, cap) in [
        (
            "engines.simulate_s.pado_mlr",
            "engines.jct_min.pado_mlr",
            mlr::paper(),
            180,
        ),
        (
            "engines.simulate_s.pado_als",
            "engines.jct_min.pado_als",
            als::paper(),
            90,
        ),
    ] {
        let (dag, cost) = scaled(job, case.divisor);
        let config = SimConfig {
            time_limit_us: cap * MIN,
            ..case.config(seed)
        };
        let (r, sample) = sampler.take(|| simulate(Mode::Pado, &dag, &cost, config));
        out.set(name_s, sample.raw_s);
        out.check(name_s, r.as_ref().map(|_| ()).map_err(SimError::to_string));
        if let Ok(m) = r {
            out.set(name_jct, m.jct_minutes());
        }
    }

    // The traced call: the steps `pado_engines::simulate` performs, on the
    // seed the untraced call above ran, so the two are the same work.
    let mut tr = Tracer::new(&format!("paper-sim-{}", std::process::id()));
    let (traced, job_s) = tr.span("job", |tr| {
        let plan = tr.span("compile", |_| compile(&case.dag)).0.ok()?;
        let (engine, _) = tr.span("master.new", |_| {
            SimEngine::new(Mode::Pado, &case.dag, plan, &case.cost, case.config(seed))
        });
        tr.span("drive", |_| engine.run()).0.ok()
    });
    out.check(
        "traced Pado simulate",
        traced.as_ref().map(|_| ()).ok_or("simulate failed".into()),
    );
    // `simulate` has no validation step of its own.
    for (metric, span) in &STEPS[1..] {
        out.set(metric, tr.secs_of(span));
    }
    if wall > 0.0 {
        out.set("trace.overhead_rel", job_s / wall - 1.0);
    }

    layers::compiler(&mut tr, &case.dag, out);
    let series = generate(&SynthConfig::default());
    let (_, secs) = tr.span("trace.analyze", |_| {
        for _ in 0..5 {
            std::hint::black_box(analyze(&series, HIGH_MARGIN));
        }
    });
    out.set("trace.analyze_s", secs / 5.0);
    let (secs, _) = tr.span("simcluster.network", |_| {
        median(&(0..5).map(|_| network_500_transfers()).collect::<Vec<_>>())
    });
    out.set(
        "simcluster.network_transfers_per_s",
        if secs > 0.0 { 500.0 / secs } else { 0.0 },
    );
    write_file(&out_dir.join("trace-paper-sim.json"), &tr.chrome_trace());
}
