//! The one seeded chaos harness (§3.2.5–3.2.6: under evictions, reserved
//! failures and master restarts a job still gives the same answer). A
//! fault [`Family`] is a row of data — rng salt, cluster sizes, the
//! *ordered* list of [`Dim`]s it draws, config — and [`run_matrix`] is the
//! only seed loop: fault-free baseline per shape, one run per seed,
//! [`violations`] on each. The `chaos` binary runs [`BENCH`]; the suites
//! of `crates/core/tests` run the rows of their `common` module, whose
//! plans `family_plans_are_pinned` holds to what each suite drew before
//! it shared this file.

use std::collections::BTreeMap;
use std::ops::Range;

use pado_core::error::RuntimeError;
use pado_core::runtime::{
    check, temp_wal_path, BackendKind, ChaosPlan, CrashPlan, DirectionFaults, FaultPlan, JobEvent,
    JobMetrics, JobResult, LocalCluster, NetworkFault, PartitionSpec, RuntimeConfig,
    SpillFaultPlan, WalCorruption,
};
use pado_dag::codec::encode_batch;
use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, TaskInput, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `0..n` as integer records.
pub fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

/// Four lines split into words and counted per key: a transient map
/// stage shuffled into a reserved combine.
pub fn wordcount_dag() -> LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        4,
        SourceFn::from_vec(vec![
            Value::from("pado harnesses transient resources"),
            Value::from("transient containers come and go"),
            Value::from("reserved containers hold the line"),
            Value::from("pado retries pado recovers"),
        ]),
    )
    .par_do(
        "Split",
        ParDoFn::per_element(|line, emit| {
            for w in line.as_str().unwrap_or("").split_whitespace() {
                emit(Value::pair(Value::from(w), Value::from(1i64)));
            }
        }),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// A broadcast shape: a three-part side input read by every task of a
/// main path, then one global aggregate.
pub fn side_input_dag() -> LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(9)));
    let data = p.read("Data", 2, SourceFn::from_vec(ints(6)));
    data.par_do_with_side(
        "AddSide",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let side_sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + side_sum));
            }
        }),
    )
    .aggregate("Total", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

/// The two shapes of the chaos matrices, alternating by seed.
pub fn chaos_shapes() -> Vec<(&'static str, LogicalDag)> {
    vec![
        ("wordcount", wordcount_dag()),
        ("side_input", side_input_dag()),
    ]
}

/// Encode every output collection; byte equality here is the strongest
/// form of "the faults did not change the answer".
pub fn encode_outputs(result: &JobResult) -> Vec<(String, Vec<u8>)> {
    result
        .outputs
        .iter()
        .map(|(name, records)| (name.clone(), encode_batch(records).expect("encodes")))
        .collect()
}

/// The config every chaos run starts from; each family's is a delta.
pub fn base_config() -> RuntimeConfig {
    RuntimeConfig {
        slots_per_executor: 2,
        event_timeout_ms: 10_000,
        max_task_attempts: 3,
        executor_fault_threshold: 2,
        speculation_floor_ms: 50,
        tick_ms: 5,
        ..Default::default()
    }
}

/// Tight transport tunings so lost messages retry quickly, while the dead
/// threshold stays far above any partition [`WIRE`] injects.
pub fn tight_transport() -> RuntimeConfig {
    RuntimeConfig {
        heartbeat_interval_ms: 20,
        dead_executor_timeout_ms: 600,
        retransmit_base_ms: 20,
        retransmit_max_ms: 160,
        ..base_config()
    }
}

/// `config` under a store budget; the cache tier lives inside it, so its
/// sub-bound stays below for `validate()` to accept tight budgets.
pub fn with_budget(config: RuntimeConfig, budget: usize) -> RuntimeConfig {
    RuntimeConfig {
        executor_memory_bytes: budget,
        cache_capacity_bytes: (budget / 4).clamp(1, 64 << 20),
        ..config
    }
}

/// Injected UDF faults per task: strictly below every family's retry
/// budget, so chaos alone never exhausts a task and every job completes.
pub const MAX_FAULTS_PER_TASK: usize = 2;
/// With a healthy ack path every message lands; even under heavy loss no
/// frame should need anywhere near this many tries.
pub const MAX_RETRANSMISSIONS: usize = 64;

/// One fault dimension: what a family draws from its rng at this point of
/// its list. A range of one value is a constant and draws nothing.
#[derive(Debug, Clone)]
pub enum Dim {
    /// `count` evictions after 1–9 commits, of the `nth` transient.
    Evictions(Range<usize>, Range<usize>),
    /// `count` failures of reserved executor 0 after 2–9 commits.
    ReservedFailures(Range<usize>),
    /// The commit-clock master restart, after 3–7 commits.
    Restart,
    /// A store-budget shrink after 2–5 commits: a random reserved executor
    /// to 64–511 B, or (`true`) executor 0 to ¾ of the configured budget,
    /// not below the shape's pinned floor. The store clamps the applied
    /// budget up to pinned occupancy, so the job still completes.
    Shrink(bool),
    /// Loss in both directions: seed salt, upper bounds of the drop,
    /// duplicate, reorder and delay rates and of the latency in ms, and
    /// whether one seed in four partitions a transient executor for
    /// 50–250 ms (far below [`tight_transport`]'s dead threshold).
    Network(u64, [f64; 4], u64, bool),
    /// `count` drains after `after` commits of the `nth` schedulable
    /// transient, earliest first (a family's list fires in list order);
    /// ordinals run past the pool on purpose: they wrap.
    Drains(Range<usize>, Range<usize>, Range<usize>),
    /// Spill-tier disk faults.
    SpillFaults,
    /// 1–3 crashes on one of the three triggers (fixed handler boundary,
    /// every k-th WAL append, probabilistic); one seed in three corrupts
    /// the WAL between crash and recovery.
    Crash,
    /// `wal_sync_every` 1–3 and `wal_snapshot_every` 8–63.
    WalKnobs,
    /// UDF chaos keyed by the seed: error, panic, allocation-failure and
    /// stall probabilities, and the longest stall in milliseconds.
    Udf([f64; 4], u64),
    /// A dimension one suite alone draws, kept with its row.
    Custom(fn(&mut StdRng, &mut Case)),
    /// The inner dimension with this probability.
    Maybe(f64, &'static Dim),
}

fn pick(rng: &mut StdRng, r: &Range<usize>) -> usize {
    if r.len() == 1 {
        r.start
    } else {
        rng.gen_range(r.clone())
    }
}

type Pairs = Vec<(usize, usize)>;
fn pairs(rng: &mut StdRng, count: &Range<usize>, a: &Range<usize>, b: &Range<usize>) -> Pairs {
    (0..pick(rng, count))
        .map(|_| (pick(rng, a), pick(rng, b)))
        .collect()
}

impl Dim {
    fn draw(&self, rng: &mut StdRng, case: &mut Case, floor: usize) {
        let (seed, faults) = (case.seed, &mut case.faults);
        match self {
            Dim::Evictions(count, nth) => faults.evictions = pairs(rng, count, &(1..10), nth),
            Dim::ReservedFailures(count) => {
                faults.reserved_failures = pairs(rng, count, &(2..10), &(0..1))
            }
            Dim::Restart => faults.master_failure_after = Some(rng.gen_range(3..8usize)),
            Dim::Shrink(to_fraction) => {
                let after = rng.gen_range(2..6usize);
                faults.budget_shrinks = vec![if *to_fraction {
                    let budget = case.config.executor_memory_bytes;
                    (after, 0, floor.max(budget.saturating_mul(3) / 4))
                } else {
                    let nth = rng.gen_range(0..case.n_reserved);
                    (after, nth, rng.gen_range(64..512usize))
                }]
            }
            Dim::Network(salt, rates, delay_ms, partitions) => {
                let dir = |rng: &mut StdRng| DirectionFaults {
                    drop_prob: rng.gen_range(0.0..rates[0]),
                    dup_prob: rng.gen_range(0.0..rates[1]),
                    reorder_prob: rng.gen_range(0.0..rates[2]),
                    delay_prob: rng.gen_range(0.0..rates[3]),
                    delay_ms: rng.gen_range(1..*delay_ms),
                };
                let (to_executor, to_master) = (dir(rng), dir(rng));
                // Executors spawn reserved-first, so transient ids start
                // at `n_reserved`.
                let partition = (*partitions && rng.gen_bool(0.25)).then(|| PartitionSpec {
                    exec: case.n_reserved + rng.gen_range(0..case.n_transient),
                    start_ms: rng.gen_range(20..120u64),
                    duration_ms: rng.gen_range(50..250u64),
                });
                faults.network = Some(NetworkFault {
                    seed: seed ^ salt,
                    to_executor,
                    to_master,
                    partitions: partition.into_iter().collect(),
                });
            }
            Dim::Drains(count, after, nth) => {
                faults.drains = pairs(rng, count, after, nth);
                faults.drains.sort_unstable();
            }
            Dim::SpillFaults => {
                faults.spill_faults = Some(SpillFaultPlan {
                    seed: seed ^ 0x5349_4C4C,
                    write_prob: rng.gen_range(0.0..0.3),
                    read_prob: rng.gen_range(0.0..0.3),
                })
            }
            Dim::Crash => {
                let mut plan = CrashPlan {
                    seed: seed ^ 0x632a_5b01,
                    max_crashes: rng.gen_range(1..4usize),
                    ..Default::default()
                };
                match rng.gen_range(0..3u32) {
                    0 => plan.after_handled_frames = Some(rng.gen_range(1..20u64)),
                    1 => plan.every_kth_append = Some(rng.gen_range(5..40u64)),
                    _ => plan.handler_prob = 0.08,
                }
                plan.corruption = rng.gen_bool(0.3).then_some(WalCorruption {
                    seed: seed ^ 0xc0de,
                    bit_flip_prob: 0.0005,
                    truncate_prob: 0.3,
                });
                faults.crashes = Some(plan);
            }
            Dim::WalKnobs => {
                case.config.wal_sync_every = rng.gen_range(1..4usize);
                case.config.wal_snapshot_every = rng.gen_range(8..64usize);
            }
            Dim::Udf([error_prob, panic_prob, oom_prob, delay_prob], delay_ms) => {
                faults.chaos = Some(ChaosPlan {
                    seed,
                    error_prob: *error_prob,
                    panic_prob: *panic_prob,
                    oom_prob: *oom_prob,
                    delay_prob: *delay_prob,
                    delay_ms: *delay_ms,
                    max_faults_per_task: MAX_FAULTS_PER_TASK,
                })
            }
            Dim::Custom(draw) => draw(rng, case),
            Dim::Maybe(p, dim) => {
                if rng.gen_bool(*p) {
                    dim.draw(rng, case, floor)
                }
            }
        }
    }
}

/// One fault family: all that decides a seed's cluster, config and plan.
pub struct Family<'a> {
    /// Seed of the row's rng, from the matrix seed.
    pub salt: fn(u64) -> u64,
    /// Transient and reserved executor counts, drawn first.
    pub cluster: (Range<usize>, Range<usize>),
    /// The config before any dimension edits it.
    pub config: fn() -> RuntimeConfig,
    /// Per shape, the `(pinned floor, peak)` bytes of a fault-free run's
    /// stores. Where given, a seed runs under ½, ⅓ or ¼ (by seed) of the
    /// peak, never below the floor plus slack for one in-flight reload.
    pub working_sets: &'a [(usize, usize)],
    /// What the row draws, in rng order.
    pub dims: &'a [Dim],
    /// Why the row's deterministic counters ([`JobMetrics::backend_drift`])
    /// are not compared across backends (ROADMAP item 8's list). `None`:
    /// every fault keys off a backend-invariant identifier, and on the
    /// threaded backend [`run_matrix`] reruns the seed on sim and demands
    /// zero drift.
    pub not_causal: Option<&'static str>,
}

/// One seed of a family, ready to run.
#[derive(Debug)]
pub struct Case {
    /// The matrix seed.
    pub seed: u64,
    /// Transient executors.
    pub n_transient: usize,
    /// Reserved executors.
    pub n_reserved: usize,
    /// The family's config with the dimensions' edits; [`run_matrix`]
    /// adds a temp `wal_path` when the plan crashes the master.
    pub config: RuntimeConfig,
    /// The plan.
    pub faults: FaultPlan,
}

impl Family<'_> {
    /// The case of `seed` on shape number `shape`.
    pub fn case(&self, seed: u64, shape: usize) -> Case {
        let mut rng = StdRng::seed_from_u64((self.salt)(seed));
        let (floor, peak) = self.working_sets.get(shape).copied().unwrap_or((0, 0));
        let mut config = (self.config)();
        if peak > 0 {
            config = with_budget(config, (peak / (2 + seed as usize % 3)).max(floor + 64));
        }
        let mut case = Case {
            seed,
            n_transient: pick(&mut rng, &self.cluster.0),
            n_reserved: pick(&mut rng, &self.cluster.1),
            config,
            faults: FaultPlan::default(),
        };
        for dim in self.dims {
            dim.draw(&mut rng, &mut case, floor);
        }
        case
    }
}

/// 0–2 evictions.
pub const EVICT: Dim = Dim::Evictions(0..3, 0..3);
/// 0–1 reserved failures.
pub const RESERVED: Dim = Dim::ReservedFailures(0..2);
/// A restart, one seed in five.
pub const RESTART: Dim = Dim::Maybe(0.2, &Dim::Restart);
/// The lossy wire of the network matrix and the binary.
pub const WIRE: Dim = Dim::Network(0x4E45_54FA, [0.15, 0.10, 0.10, 0.15], 10, true);
/// 1–2 drains.
pub const DRAINS: Dim = Dim::Drains(1..3, 1..8, 0..6);
/// Spill faults, three seeds in ten.
pub const SPILL: Dim = Dim::Maybe(0.3, &Dim::SpillFaults);
/// Why UDF chaos atop a lossy wire is not causal.
pub const UDF_OVER_WIRE: &str =
    "which frame lands on a transmission ordinal is timing-dependent, so a retransmit storm \
     shifts a task's launch count, and with it the UDF-chaos schedule, by one across backends; \
     timed partitions are clock-relative; and the UDF chaos rides on count-based evictions";

/// The `chaos` binary's row: everything at once. `--network` keeps
/// [`Dim::Network`], `--drain` the drains and spill faults, `--crash` the
/// crashes and WAL knobs; without its flag a dimension is left undrawn.
pub const BENCH: Family = Family {
    salt: |seed| seed,
    cluster: (1..4, 1..3),
    config: tight_transport,
    working_sets: &[],
    dims: &[
        EVICT,
        RESERVED,
        RESTART,
        Dim::Maybe(0.35, &Dim::Shrink(false)),
        Dim::Udf([0.15, 0.10, 0.10, 0.20], 8),
        WIRE,
        DRAINS,
        SPILL,
        Dim::Crash,
        Dim::WalKnobs,
    ],
    not_causal: Some(UDF_OVER_WIRE),
};

/// Every law a seeded run must keep, as violation descriptions: bytes
/// equal to `expected`, the journal clean under [`check`], and what the
/// laws leave out.
pub fn violations(
    result: &JobResult,
    faults: &FaultPlan,
    expected: &[(String, Vec<u8>)],
) -> Vec<String> {
    let mut out: Vec<String> = check(&result.journal, true)
        .iter()
        .map(|v| v.to_string())
        .collect();
    if encode_outputs(result) != expected {
        out.push("outputs diverged from the fault-free baseline".into());
    }
    // Law 7 starts its count over at a recovery; injected faults are
    // capped below the budget for the whole run, so this one does not.
    let budget = result.journal.meta().max_task_attempts;
    let mut failures: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for e in result.journal.events() {
        if let JobEvent::TaskFailed { fop, index, .. } = e {
            *failures.entry((*fop, *index)).or_default() += 1;
        }
    }
    for (task, n) in failures.iter().filter(|(_, n)| **n >= budget) {
        out.push(format!(
            "task {task:?} burned {n} attempts (budget {budget})"
        ));
    }
    let m = &result.metrics;
    // The crash family batches syncs and corrupts the log, so a restart
    // can lose `TaskLaunched` frames and re-count relaunches as originals.
    if faults.crashes.is_none()
        && m.tasks_launched != m.original_tasks + m.relaunched_tasks + m.speculative_launches
    {
        out.push(format!("launch ledger out of balance: {m:?}"));
    }
    if m.max_message_retransmissions > MAX_RETRANSMISSIONS {
        let n = m.max_message_retransmissions;
        out.push(format!("a message needed {n} retransmissions"));
    }
    // `heartbeats_missed` is deliberately absent: a late heartbeat needs
    // no injected fault, only an oversubscribed machine.
    let wire = m.messages_dropped
        + m.messages_duplicated
        + m.messages_retransmitted
        + m.messages_deduplicated
        + m.executors_declared_dead;
    if faults.network.is_none() && wire > 0 {
        out.push(format!(
            "transport metrics nonzero without network faults: {m:?}"
        ));
    }
    out
}

/// One seeded run, judged.
pub struct Outcome<'a> {
    /// The shape's label.
    pub shape: &'a str,
    /// Which backend ran it.
    pub backend: BackendKind,
    /// The case as run (WAL path armed, file still on disk).
    pub case: &'a Case,
    /// The job's result.
    pub run: Result<JobResult, RuntimeError>,
    /// [`violations`] of a completed job, plus cross-backend drift.
    pub problems: Vec<String>,
}

/// The one seed loop. Runs each shape fault-free on sim once (cluster
/// 2 + 2, the family's config), then each seed's case on `backend`, on
/// shape `seed % shapes.len()`; a causal family on the threaded backend
/// runs on sim first and must not drift from it. A plan that crashes the
/// master gets a temp WAL, removed once `per_seed` has seen the run.
/// Returns the metrics of every run that completed.
pub fn run_matrix(
    family: &Family,
    shapes: &[(&'static str, LogicalDag)],
    seeds: impl IntoIterator<Item = u64>,
    backend: BackendKind,
    mut per_seed: impl FnMut(&Outcome),
) -> Vec<JobMetrics> {
    let baselines: Vec<Vec<(String, Vec<u8>)>> = shapes
        .iter()
        .map(|(name, dag)| {
            let r = LocalCluster::new(2, 2)
                .with_config((family.config)())
                .run(dag)
                .unwrap_or_else(|e| panic!("fault-free baseline {name} failed: {e}"));
            encode_outputs(&r)
        })
        .collect();
    let both = family.not_causal.is_none() && backend == BackendKind::Threaded;
    let mut completed = Vec::new();
    for seed in seeds {
        let shape = (seed % shapes.len() as u64) as usize;
        let (name, dag) = &shapes[shape];
        let mut sim: Option<JobMetrics> = None;
        for backend in both
            .then_some(BackendKind::Sim)
            .into_iter()
            .chain([backend])
        {
            let mut case = family.case(seed, shape);
            let wal = case
                .faults
                .crashes
                .map(|_| temp_wal_path(&format!("chaos-{backend:?}-{seed}")));
            case.config.wal_path = wal.as_ref().map(|p| p.to_string_lossy().into_owned());
            let run = LocalCluster::new(case.n_transient, case.n_reserved)
                .with_backend(backend)
                .with_config(case.config.clone())
                .run_with_faults(dag, case.faults.clone());
            let mut problems = run.as_ref().map_or(Vec::new(), |result| {
                violations(result, &case.faults, &baselines[shape])
            });
            if let (Ok(result), Some(sim)) = (&run, &sim) {
                let drift = sim.backend_drift(&result.metrics);
                if !drift.is_empty() {
                    problems.push(format!("(counter, sim, threaded) drifted: {drift:?}"));
                }
            }
            let outcome = Outcome {
                shape: name,
                backend,
                case: &case,
                run,
                problems,
            };
            per_seed(&outcome);
            wal.map(std::fs::remove_file);
            if let Ok(result) = outcome.run {
                sim = both.then(|| result.metrics.clone());
                completed.push(result.metrics);
            }
        }
    }
    completed
}

/// One counter summed over a matrix's completed runs: what the suites'
/// "the matrix reached X" assertions and the binary's footer read.
pub fn total(runs: &[JobMetrics], counter: fn(&JobMetrics) -> usize) -> usize {
    runs.iter().map(counter).sum()
}

/// Writes a bench artifact, creating the directories above it.
pub fn write_artifact(path: &str, contents: impl AsRef<[u8]>) {
    let dir = std::path::Path::new(path).parent();
    if let Some(dir) = dir.filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the artifact's directory");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pado_core::runtime::{EventJournal, JournalMeta, JournalRecord};

    fn launch(fop: usize, attempt: u64, exec: usize) -> JobEvent {
        JobEvent::TaskLaunched {
            fop,
            index: 0,
            attempt,
            exec,
            relaunch: false,
            side_bytes_sent: 0,
            side_bytes_saved: 0,
            side_cache_misses: 0,
        }
    }

    fn commit(fop: usize, attempt: u64, exec: usize) -> JobEvent {
        JobEvent::TaskCommitted {
            fop,
            index: 0,
            attempt,
            exec,
            speculative: false,
            bytes_pushed: 0,
            preaggregated: 0,
            cache_hit: false,
        }
    }

    /// Two chained single-task fops in one stage (1.0 reads 0.0): a clean
    /// run, or one where 1.0's speculative duplicate commits as well.
    /// Metrics as the journal derives them, one sink record.
    fn result(double_commit: bool) -> JobResult {
        let meta = JournalMeta {
            n_stages: 1,
            stage_of: vec![0, 0],
            parallelism: vec![1, 1],
            required: vec![vec![vec![]], vec![vec![(0, 0)]]],
            max_task_attempts: 3,
            retransmit_bound: 2,
            executor_memory_bytes: 0,
        };
        let duplicate = JobEvent::SpeculativeLaunched {
            fop: 1,
            index: 0,
            attempt: 3,
            exec: 0,
            side_bytes_sent: 0,
            side_bytes_saved: 0,
            side_cache_misses: 0,
        };
        let mut events = vec![launch(0, 1, 0), commit(0, 1, 0), launch(1, 2, 1)];
        if double_commit {
            events.extend([duplicate, commit(1, 2, 1), commit(1, 3, 0)]);
        } else {
            events.push(commit(1, 2, 1));
        }
        events.push(JobEvent::StageCompleted(0));
        let records = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalRecord {
                seq: i as u64,
                at_us: i as u64 * 10,
                stage: Some(0),
                event,
            })
            .collect();
        let journal = EventJournal::from_parts(meta, records);
        JobResult {
            outputs: [("Out".to_string(), vec![Value::from(7i64)])].into(),
            metrics: journal.derive_metrics(),
            journal,
        }
    }

    /// The violations of `result`, judged against its own bytes.
    fn judged(result: &JobResult, faults: &FaultPlan) -> Vec<String> {
        violations(result, faults, &encode_outputs(result))
    }

    fn assert_one(found: Vec<String>, naming: &str) {
        assert_eq!(found.len(), 1, "{found:#?}");
        assert!(found[0].contains(naming), "{found:#?}");
    }

    #[test]
    fn a_clean_result_has_no_violation() {
        assert_eq!(
            judged(&result(false), &FaultPlan::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_flipped_output_byte_is_one_violation() {
        let result = result(false);
        let mut expected = encode_outputs(&result);
        *expected[0].1.last_mut().unwrap() ^= 1;
        let found = violations(&result, &FaultPlan::default(), &expected);
        assert_one(found, "outputs diverged");
    }

    #[test]
    fn a_second_commit_with_no_revert_is_one_violation() {
        assert_one(
            judged(&result(true), &FaultPlan::default()),
            "double commit",
        );
    }

    #[test]
    fn a_launch_ledger_off_by_one_is_one_violation() {
        let mut result = result(false);
        result.metrics.tasks_launched += 1;
        assert_one(judged(&result, &FaultPlan::default()), "launch ledger");
        // The crash family is exempt: a restart can lose launch frames.
        let crashing = FaultPlan {
            crashes: Some(CrashPlan::default()),
            ..Default::default()
        };
        assert_eq!(judged(&result, &crashing), Vec::<String>::new());
    }

    #[test]
    fn a_retransmission_count_past_the_bound_is_one_violation() {
        let mut result = result(false);
        result.metrics.max_message_retransmissions = MAX_RETRANSMISSIONS + 1;
        assert_one(judged(&result, &FaultPlan::default()), "retransmissions");
    }

    #[test]
    fn a_dropped_message_on_a_quiet_wire_is_one_violation() {
        let mut result = result(false);
        result.metrics.messages_dropped = 1;
        assert_one(
            judged(&result, &FaultPlan::default()),
            "without network faults",
        );
        let lossy = FaultPlan {
            network: Some(NetworkFault::default()),
            ..Default::default()
        };
        assert_eq!(judged(&result, &lossy), Vec::<String>::new());
    }
}
