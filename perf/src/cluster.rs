//! The three workloads that run a real job on `LocalCluster`: building
//! their inputs from the seed, running them closed-loop on both backends,
//! and checking every output.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::runtime::{
    invariants, AttemptId, BackendKind, EventJournal, ExecBackend, FaultPlan, JobContext, JobEvent,
    JobResult, LocalCluster, Master, RuntimeConfig, ThreadedBackend,
};
use pado_core::RuntimeError;
use pado_dag::codec::encode_batch;
use pado_dag::LogicalDag;
use pado_workloads::{mlr, mr, MlrConfig, MrConfig};

use crate::layers;
use crate::metrics::{Outcome, STEPS};
use crate::sample::{Sample, Sampler, Samples};
use crate::spans::Tracer;
use crate::stats::{median, Summary};

/// Cluster shape, fixed so rows compare across commits: `nproc` is 2
/// where the baseline was taken, and one slot per executor keeps the six
/// executors from oversubscribing it.
pub const N_TRANSIENT: usize = 4;
pub const N_RESERVED: usize = 2;
pub const SLOTS_PER_EXECUTOR: usize = 1;
pub const THREADED_WORKERS: usize = 2;

/// Transient evictions injected into every `mlr-evict` job.
const EVICTIONS: usize = 8;
/// Timed pairs a run takes at least, however short `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Jobs the traced pass runs with spans on: one would do for the trace,
/// five give the overhead a median.
const TRACED_JOBS: usize = 5;

fn base_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: SLOTS_PER_EXECUTOR,
        threaded_workers: THREADED_WORKERS,
        ..RuntimeConfig::default()
    }
}

fn mr_config(seed: u64, smoke: bool) -> MrConfig {
    // High key cardinality (pages = 0.4 x records): at the default
    // `pages: 5000` map-side combining collapses the shuffle and nothing
    // downstream of Map is exercised.
    if smoke {
        MrConfig {
            records: 10_000,
            pages: 4_000,
            partitions: 8,
            reducers: 8,
            seed,
        }
    } else {
        MrConfig {
            records: 250_000,
            pages: 100_000,
            partitions: 32,
            reducers: 8,
            seed,
        }
    }
}

fn mlr_config(seed: u64, smoke: bool) -> MlrConfig {
    // Tiny data, many tasks: the control plane does the work.
    let (samples, partitions, iterations) = if smoke { (320, 8, 3) } else { (6_400, 64, 20) };
    MlrConfig {
        samples,
        features: 16,
        classes: 4,
        partitions,
        iterations,
        lr: 0.5,
        seed,
    }
}

/// `n` count-based transient evictions spread evenly over a job of
/// `tasks` tasks, the victims taken in turn. The schedule does not follow
/// the seed: how many tasks an eviction costs depends on whom it hits and
/// when, and seeded schedules relaunched between 694 and 1 288 of 2 602
/// tasks, which moved the makespan by a tenth from seed to seed.
pub fn eviction_plan(tasks: usize, n: usize) -> Vec<(usize, usize)> {
    let slice = tasks / (n + 1);
    (0..n).map(|i| (slice * (i + 1), i % N_TRANSIENT)).collect()
}

enum Reference {
    Mr(BTreeMap<String, i64>),
    Mlr(Vec<f64>),
}

impl Reference {
    fn matches(&self, r: &JobResult) -> Result<(), String> {
        match self {
            Reference::Mr(want) => {
                let out = r.outputs.get("Out").ok_or("no `Out` sink in the result")?;
                if mr::result_to_map(out) == *want {
                    Ok(())
                } else {
                    Err("page totals differ from mr::reference".into())
                }
            }
            Reference::Mlr(want) => {
                let got = r
                    .outputs
                    .get("Model Out")
                    .and_then(|o| o.first())
                    .and_then(|v| v.as_vector())
                    .ok_or("no model vector in the `Model Out` sink")?;
                let close = got.len() == want.len()
                    && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= 1e-9);
                if close {
                    Ok(())
                } else {
                    Err("model differs from mlr::reference by more than 1e-9".into())
                }
            }
        }
    }
}

/// One workload, ready to run: inputs generated, reference computed.
pub struct Case {
    pub name: String,
    pub dag: LogicalDag,
    pub config: RuntimeConfig,
    pub faults: FaultPlan,
    /// Input records one job consumes (MLR: samples x iterations).
    pub records: u64,
    pub setup_s: Summary,
    /// Fingerprint of everything the seed generated: the dataset and the
    /// eviction schedule.
    pub inputs: u64,
    reference: Reference,
    /// Encoded outputs of the first run that equalled the reference;
    /// every later run on either backend must reproduce them byte for
    /// byte.
    verified: Option<Vec<u8>>,
}

/// Set-up runs at least [`SETUP_MIN`] times, then until it has taken
/// [`SETUP_BUDGET_S`] with its yardstick runs or run [`SETUP_MAX`] times:
/// a millisecond of set-up needs many samples before its median holds
/// still.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 40;
const SETUP_BUDGET_S: f64 = 2.0;

/// Times `build` repeatedly and keeps the last thing it built. Each
/// product is dropped before the next is built, so peak memory holds one.
pub fn setup_repeated<T>(build: impl Fn() -> T) -> (T, Summary) {
    let mut sampler = Sampler::new(1);
    let mut secs = Vec::new();
    let begin = Instant::now();
    loop {
        let (built, sample) = sampler.take(&build);
        secs.push(sample.secs);
        let spent = begin.elapsed().as_secs_f64();
        if secs.len() >= SETUP_MAX || (secs.len() >= SETUP_MIN && spent >= SETUP_BUDGET_S) {
            return (built, Summary::of(&secs).expect("at least one sample"));
        }
    }
}

impl Case {
    /// Builds `workload`'s inputs from `seed`. `tmp` is where a WAL may go.
    pub fn build(workload: &str, seed: u64, smoke: bool, tmp: &Path) -> Result<Case, String> {
        // The fingerprint and the reference each generate and drop a copy
        // of the dataset: before the DAG is built, so the peak holds one.
        let mut inputs = DefaultHasher::new();
        let (dag, setup_s, records, reference) = match workload {
            "mr-shuffle" | "mr-pressure" => {
                let cfg = mr_config(seed, smoke);
                mr::generate_pageviews(&cfg).hash(&mut inputs);
                let reference = Reference::Mr(mr::reference(&cfg));
                let (dag, setup_s) = setup_repeated(|| mr::dag(&cfg));
                (dag, setup_s, cfg.records, reference)
            }
            "mlr-evict" => {
                let cfg = mlr_config(seed, smoke);
                mlr::generate_dataset(&cfg).hash(&mut inputs);
                let reference = Reference::Mlr(mlr::reference(&cfg));
                let (dag, setup_s) = setup_repeated(|| mlr::dag(&cfg));
                (dag, setup_s, cfg.samples * cfg.iterations, reference)
            }
            other => return Err(format!("unknown LocalCluster workload {other:?}")),
        };
        let mut case = Case {
            name: workload.to_string(),
            dag,
            config: base_config(),
            faults: FaultPlan::default(),
            records: records as u64,
            setup_s,
            inputs: 0,
            reference,
            verified: None,
        };
        match workload {
            "mr-pressure" => {
                // Learn the working set under a roomy budget, then squeeze
                // every executor to 4/7 of its peak and arm the WAL. Below
                // about 10/19 the sim backend starts to thrash (README,
                // "Findings"), and no two of its jobs take the same time.
                case.config.executor_memory_bytes = 64 << 20;
                case.config.cache_capacity_bytes = 16 << 20;
                let peak = case
                    .run_job(BackendKind::Sim)
                    .map_err(|e| format!("working-set probe failed: {e}"))?
                    .metrics
                    .peak_store_bytes;
                let budget = (peak * 4 / 7).max(1024);
                println!("probe: working-set peak {peak} B -> executor budget {budget} B");
                case.config.executor_memory_bytes = budget;
                case.config.cache_capacity_bytes = budget / 4;
                let wal = tmp.join(format!("job-{}.wal", std::process::id()));
                case.config.wal_path = Some(wal.to_string_lossy().into_owned());
            }
            "mlr-evict" => {
                let tasks = compile_with(&case.dag, &PlanConfig::default())
                    .map_err(|e| format!("compile failed: {e}"))?
                    .total_tasks();
                case.faults.evictions = eviction_plan(tasks, if smoke { 2 } else { EVICTIONS });
                println!(
                    "evictions (after completions, k-th transient): {:?}",
                    case.faults.evictions
                );
            }
            _ => {}
        }
        case.faults.evictions.hash(&mut inputs);
        case.inputs = inputs.finish();
        Ok(case)
    }

    /// One job on `backend`: `run_with_faults` alone (validate + compile +
    /// drive + journal freeze) is what a sample times.
    pub fn run_job(&self, backend: BackendKind) -> Result<JobResult, RuntimeError> {
        let cluster = LocalCluster::new(N_TRANSIENT, N_RESERVED)
            .with_backend(backend)
            .with_config(self.config.clone());
        let faults = self.faults.clone();
        cluster.run_with_faults(&self.dag, faults)
    }

    /// Checks one finished job: it returned `Ok`, its journal replays
    /// clean against the invariant laws, and its outputs equal the
    /// single-threaded reference — directly for the first run, and for
    /// every later one by byte identity with that run, which is also the
    /// sim-vs-threaded identity check.
    pub fn verify(&mut self, r: &Result<JobResult, RuntimeError>) -> Result<(), String> {
        let r = r.as_ref().map_err(|e| format!("job returned {e}"))?;
        let violations = invariants::check(&r.journal, true);
        if let Some(first) = violations.first() {
            return Err(format!(
                "{} invariant violations, first: {first}",
                violations.len()
            ));
        }
        let mut bytes = Vec::new();
        for (sink, records) in &r.outputs {
            bytes.extend(sink.as_bytes());
            bytes.extend(encode_batch(records).map_err(|e| format!("encode {sink}: {e}"))?);
        }
        match &self.verified {
            Some(v) if *v == bytes => Ok(()),
            Some(_) => Err("outputs differ byte-wise from the first verified run".into()),
            None => {
                self.reference.matches(r)?;
                self.verified = Some(bytes);
                Ok(())
            }
        }
    }

    /// The WAL image the last job left behind, when the workload arms one.
    pub fn wal_image(&self) -> Option<Vec<u8>> {
        std::fs::read(self.config.wal_path.as_ref()?).ok()
    }
}

/// Where a threaded job's time went, from its journal's timestamps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// Sum over attempts of launch -> start.
    pub dispatch_wait_s: f64,
    /// Sum over committed attempts of start -> commit.
    pub task_run_s: f64,
    /// Makespan minus the union of start -> commit intervals: time no
    /// task body was running (master-serial work and barrier idle).
    pub uncovered_s: f64,
}

pub fn phases(journal: &EventJournal, makespan_s: f64) -> Phases {
    let mut launched: HashMap<AttemptId, u64> = HashMap::new();
    let mut started: HashMap<AttemptId, u64> = HashMap::new();
    let mut p = Phases::default();
    let mut busy: Vec<(u64, u64)> = Vec::new();
    for r in journal.records() {
        match &r.event {
            JobEvent::TaskLaunched { attempt, .. }
            | JobEvent::SpeculativeLaunched { attempt, .. } => {
                launched.insert(*attempt, r.at_us);
            }
            JobEvent::TaskStarted { attempt, .. } => {
                if let Some(at) = launched.get(attempt) {
                    p.dispatch_wait_s += r.at_us.saturating_sub(*at) as f64 / 1e6;
                }
                started.insert(*attempt, r.at_us);
            }
            JobEvent::TaskCommitted { attempt, .. } => {
                if let Some(&at) = started.get(attempt) {
                    p.task_run_s += r.at_us.saturating_sub(at) as f64 / 1e6;
                    busy.push((at, r.at_us.max(at)));
                }
            }
            _ => {}
        }
    }
    busy.sort_unstable();
    let mut covered_us = 0u64;
    let mut reach = 0u64;
    for (start, end) in busy {
        if end > reach {
            covered_us += end - start.max(reach);
            reach = end;
        }
    }
    p.uncovered_s = (makespan_s - covered_us as f64 / 1e6).max(0.0);
    p
}

/// Closed loop, one job at a time: a discarded warm-up pair, then
/// threaded/sim pairs until `seconds` have passed (at least
/// [`MIN_PAIRS`]). Every job is verified and counted; `each` sees every
/// successful timed job.
pub fn measure(
    case: &mut Case,
    out: &mut Outcome,
    seconds: f64,
    mut each: impl FnMut(BackendKind, &Sample, &JobResult),
) -> Samples {
    let order = [BackendKind::Threaded, BackendKind::Sim];
    for backend in order {
        let r = case.run_job(backend);
        out.check(&format!("warm-up on {backend:?}"), case.verify(&r));
    }
    let mut samples = Samples::default();
    let mut sampler = Sampler::new(THREADED_WORKERS);
    let begin = Instant::now();
    let mut pairs = 0;
    while begin.elapsed().as_secs_f64() < seconds || pairs < MIN_PAIRS {
        pairs += 1;
        for backend in order {
            let (r, sample) = sampler.take(|| case.run_job(backend));
            out.check(&format!("job on {backend:?}"), case.verify(&r));
            if let Ok(r) = &r {
                match backend {
                    BackendKind::Threaded => samples.primary.push(sample),
                    BackendKind::Sim => samples.baseline.push(sample),
                }
                each(backend, &sample, r);
            }
        }
    }
    samples.print(&sampler);
    samples
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn run_plain(case: &mut Case, seconds: f64, out: &mut Outcome) {
    let mut tasks = 0usize;
    let samples = measure(case, out, seconds, |_, _, r| {
        tasks = r.metrics.original_tasks
    });
    out.set_end_to_end(&case.setup_s, &samples, tasks as f64 / samples.makespan_s());
}

/// The per-layer counts and journal-derived times one timed job yields.
/// `secs` is its wall clock as measured, which is what the journal's own
/// timestamps are in.
fn job_rows(secs: f64, r: &JobResult) -> [(&'static str, f64); 15] {
    let m = &r.metrics;
    let ph = phases(&r.journal, secs);
    let mb = |bytes: usize| bytes as f64 / 1e6;
    [
        ("store.blocks_spilled", m.blocks_spilled as f64),
        ("store.blocks_loaded", m.blocks_loaded as f64),
        ("store.spill_mb", mb(m.spill_bytes)),
        ("store.peak_mb", mb(m.peak_store_bytes)),
        ("store.pushes_deferred", m.pushes_deferred as f64),
        ("cache.hit_rate", m.cache_hit_rate()),
        ("journal.events", r.journal.records().len() as f64),
        ("master.tasks_launched", m.tasks_launched as f64),
        ("master.relaunch_ratio", m.relaunch_ratio()),
        ("master.launches_per_s", m.tasks_launched as f64 / secs),
        ("master.dispatch_wait_s", ph.dispatch_wait_s),
        ("master.uncovered_s", ph.uncovered_s),
        ("master.uncovered_share", ph.uncovered_s / secs),
        ("executor.task_run_s", ph.task_run_s),
        ("executor.tasks_failed", m.task_failures as f64),
    ]
}

/// `--trace 1`: a shorter untraced measurement for the counts and the
/// overhead base, traced jobs, then every layer driver.
pub fn run_traced(case: &mut Case, seconds: f64, out_dir: &Path, out: &mut Outcome) {
    // Per metric, one value per timed threaded job; the median is reported.
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let samples = measure(case, out, seconds * 0.4, |backend, sample, r| {
        if backend == BackendKind::Threaded {
            for (name, value) in job_rows(sample.raw_s, r) {
                rows.entry(name).or_default().push(value);
            }
        }
    });
    for (name, values) in &rows {
        out.set(name, median(values));
    }
    let makespan = samples.makespan_s();
    if makespan > 0.0 {
        out.set(
            "backend.threaded_speedup",
            samples.makespan_sim_s() / makespan,
        );
        out.set("records_per_s", case.records as f64 / makespan);
    }

    // Traced jobs are samples like the others, so that their overhead is
    // read at the same machine speed as the median it is held against; the
    // last one's spans are the ones reported and written out.
    let mut sampler = Sampler::new(THREADED_WORKERS);
    let mut traced_secs = Vec::new();
    let mut last = None;
    for i in 0..TRACED_JOBS {
        let mut tr = Tracer::new(&format!("{}-{}-{i}", case.name, std::process::id()));
        let (r, sample) = sampler.take(|| traced_job(&mut tr, case));
        out.check("traced job", case.verify(&r));
        traced_secs.push(sample.secs);
        last = Some((tr, r));
    }
    let (mut tr, traced) = last.expect("TRACED_JOBS is at least one");
    for (metric, span) in STEPS {
        out.set(metric, tr.secs_of(span));
    }
    if makespan > 0.0 {
        out.set("trace.overhead_rel", median(&traced_secs) / makespan - 1.0);
    }
    if let Ok(job) = &traced {
        let wal = case.wal_image();
        layers::drive_all(&mut tr, case, job, wal.as_deref(), out_dir, out);
        write_file(
            &out_dir.join(format!("journal-{}.json", case.name)),
            &job.journal.chrome_trace(),
        );
    }
    write_file(
        &out_dir.join(format!("trace-{}.json", case.name)),
        &tr.chrome_trace(),
    );
}

/// The four public steps `LocalCluster::run_on_backend` performs, each in
/// its own span, on the threaded backend.
fn traced_job(tr: &mut Tracer, case: &Case) -> Result<JobResult, RuntimeError> {
    let config = case.config.clone();
    let faults = case.faults.clone();
    tr.span("job", |tr| {
        let (backend, _) = tr.span("backend.new", |_| ThreadedBackend::from_config(&config));
        tr.span("validate", |_| {
            config
                .validate_with_cluster(N_TRANSIENT + N_RESERVED)
                .and_then(|()| config.validate_for_backend(BackendKind::Threaded))
                .map_err(RuntimeError::Config)
        })
        .0?;
        let plan = tr
            .span("compile", |_| {
                compile_with(&case.dag, &PlanConfig::default())
            })
            .0?;
        let master = tr
            .span("master.new", |_| {
                let job = Arc::new(JobContext {
                    dag: case.dag.clone(),
                    plan,
                    config: config.clone(),
                });
                Master::with_backend(job, N_TRANSIENT, N_RESERVED, faults, &backend)
            })
            .0?;
        tr.span("drive", |_| backend.drive(master)).0
    })
    .0
}

pub fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        println!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_plan_spreads_over_the_job_and_takes_victims_in_turn() {
        let plan = eviction_plan(900, 8);
        assert_eq!(plan.len(), 8);
        assert!(
            plan.windows(2).all(|w| w[1].0 - w[0].0 == 100),
            "evenly spaced"
        );
        assert!(plan
            .iter()
            .all(|&(at, k)| (100..900).contains(&at) && k < N_TRANSIENT));
        assert_eq!(
            plan.iter().map(|p| p.1).collect::<Vec<_>>(),
            [0, 1, 2, 3, 0, 1, 2, 3]
        );
    }
}
