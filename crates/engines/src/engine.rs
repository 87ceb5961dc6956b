//! The unified simulation engine.
//!
//! All three evaluated engines execute the same compiled physical plan on
//! the same simulated cluster; they differ in three policies, captured by
//! [`Mode`]:
//!
//! - **Spark** (§5.1.2): executors on transient *and* reserved containers;
//!   pull-based shuffles from producer-local outputs; driver-side global
//!   aggregation on the master container; lineage recovery — a lost
//!   output is recomputed on demand, which cascades into critical chains
//!   under frequent evictions.
//! - **Spark-checkpoint** (Flint-style): executors on transient
//!   containers only; every task output is asynchronously checkpointed to
//!   stable storage served by the reserved containers; consumers pull
//!   from stable storage; recovery restarts from the last checkpoint.
//! - **Pado** (§3.2): placement from the Pado compiler; reserved receiver
//!   tasks are pre-assigned so transient task outputs are pushed to their
//!   consumers' reserved containers the moment they complete; an eviction
//!   only relaunches uncommitted tasks of the running stage; combine-bound
//!   outputs are partially aggregated before the push.
//!
//! # Scheduler indices
//!
//! [`SimEngine::schedule`] runs after every delivered event, so what it
//! reads is kept where task state changes, by [`SimEngine::set_state`]:
//! the `Done` count; per *wide* in-edge (each consumer needs every
//! producer) its *exceptions*, the producers whose output does not serve
//! it, which [`SimEngine::ready`] walks in the order a full scan would;
//! per task, its unusable and lost producers along *narrow* in-edges; per
//! fop, its `Pending` tasks with no unusable narrow producer (`clear`) and
//! with a lost one (`lossy`). `ready` reverts the lost producers it meets
//! and stops at the first blocking one, so a pass may skip a task only
//! where that comes first. The fop's first wide in-edge with exceptions
//! (its gate) decides which tasks it visits ([`SimEngine::next_visit`]):
//! with no gate, the `clear` and `lossy` ones; behind a blocking first
//! exception, the `lossy` ones; behind a lost one, all. Skipped tasks
//! would change nothing, so a pass launches and reverts what a walk over
//! every pending task would.

use std::collections::BTreeSet;

use pado_core::compiler::{FopId, InputSlot, PhysicalPlan, Placement, PlanEdge};
use pado_core::runtime::master::required_src_indices;
use pado_dag::{DepType, LogicalDag, OperatorKind, SourceKind};
use pado_simcluster::{Cluster, ContainerId, Event, Kind, LifetimeDist, NodeSpec};

use crate::common::{CostModel, FopCosts, RunMetrics, SimError, SlotPool};

/// Which engine's policies to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain Spark 2.0.0.
    Spark,
    /// Flint-style checkpoint-enabled Spark.
    SparkCkpt,
    /// Pado.
    Pado,
}

impl Mode {
    /// Display name used by the benchmark harness.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Spark => "Spark",
            Mode::SparkCkpt => "Spark-checkpoint",
            Mode::Pado => "Pado",
        }
    }
}

/// Cluster and engine configuration for one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of transient containers.
    pub n_transient: usize,
    /// Number of reserved containers (the master gets its own extra
    /// container, as in the paper).
    pub n_reserved: usize,
    /// Transient container links/slots (m3.xlarge-like).
    pub transient_spec: NodeSpec,
    /// Reserved container links/slots (i2.xlarge-like).
    pub reserved_spec: NodeSpec,
    /// External input store (S3-like).
    pub store_spec: NodeSpec,
    /// Transient lifetime distribution (the eviction rate).
    pub lifetimes: LifetimeDist,
    /// RNG seed for the eviction process.
    pub seed: u64,
    /// Abort the run beyond this much virtual time.
    pub time_limit_us: u64,
    /// Pado: enable transient-side partial aggregation (§3.2.7).
    pub partial_aggregation: bool,
    /// Extra transient containers forming a second, longer-lived pool
    /// (Harvest-style lifetime classes, §6). Zero disables the pool.
    pub n_transient_long: usize,
    /// Lifetime distribution of the long pool.
    pub long_lifetimes: LifetimeDist,
    /// Pado: place high-recomputation-cost transient operators on the
    /// long-lived pool (the §6 lifetime-aware placement extension).
    pub lifetime_aware: bool,
    /// Deterministic, scripted evictions: `(virtual time µs, k)` evicts
    /// the `k`-th initial transient container at that time (in addition
    /// to the stochastic eviction process).
    pub scripted_evictions: Vec<(u64, usize)>,
    /// Cache broadcast (one-to-many) inputs per container (§3.2.7; Spark
    /// gets the same courtesy for its broadcast variables).
    pub broadcast_caching: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_transient: 40,
            n_reserved: 5,
            transient_spec: NodeSpec::from_gbps(4, 1.0),
            reserved_spec: NodeSpec::from_gbps(4, 1.0),
            store_spec: NodeSpec::from_gbps(0, 40.0),
            lifetimes: LifetimeDist::None,
            seed: 1,
            time_limit_us: 24 * 60 * pado_simcluster::MIN,
            partial_aggregation: true,
            n_transient_long: 0,
            long_lifetimes: LifetimeDist::None,
            lifetime_aware: false,
            scripted_evictions: Vec::new(),
            broadcast_caching: true,
        }
    }
}

/// Engine events flowing through the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Part of a task's input fetch arrived.
    Fetch {
        /// Flattened task id.
        task: usize,
        /// Attempt guard.
        attempt: u32,
    },
    /// A task finished computing.
    ComputeDone {
        /// Flattened task id.
        task: usize,
        /// Attempt guard.
        attempt: u32,
    },
    /// Part of a task's output push (Pado) arrived at a reserved node.
    Push {
        /// Flattened task id.
        task: usize,
        /// Attempt guard.
        attempt: u32,
    },
    /// A task's checkpoint write (Spark-checkpoint) completed.
    Ckpt {
        /// Flattened task id.
        task: usize,
        /// Attempt guard.
        attempt: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum TState {
    Pending,
    Fetching { node: ContainerId, waiting: usize },
    Computing { node: ContainerId },
    Pushing { node: ContainerId, waiting: usize },
    Done(DoneInfo),
}

#[derive(Debug, Clone, Copy)]
struct DoneInfo {
    /// Node that produced the output (local copy).
    node: ContainerId,
    /// Whether the local copy still exists.
    available: bool,
    /// Whether a copy lives on eviction-free resources (pushed,
    /// checkpointed, produced on reserved, or written to the job sink).
    safe: bool,
    /// Where the safe copy lives (checkpoint node for Spark-checkpoint).
    safe_node: Option<ContainerId>,
}

/// Which copy of a finished producer's output serves a consumer along an
/// edge — fixed per edge by the mode and the two fops' placements.
#[derive(Debug, Clone, Copy)]
enum Usable {
    /// The producer-local copy only (Spark; Pado transient-to-transient).
    Available,
    /// The checkpointed copy only (Spark-checkpoint).
    Safe,
    /// Either copy (Pado edges with a reserved end: the output is
    /// preserved on, or was pushed to, eviction-free storage).
    Either,
}

impl Usable {
    fn holds(self, info: DoneInfo) -> bool {
        match self {
            Usable::Available => info.available,
            Usable::Safe => info.safe,
            Usable::Either => info.safe || info.available,
        }
    }
}

/// One in-edge of a fop, resolved once in [`SimEngine::new`].
#[derive(Debug, Clone, Copy)]
struct InEdge {
    edge: PlanEdge,
    usable: Usable,
    /// Index into [`SimEngine::wide`] when the edge is wide.
    wide: Option<usize>,
}

/// How a producer's output serves one in-edge, as `ready` meets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Serves {
    /// `Done` with an output the edge can use.
    Usable,
    /// `Done`, unusable, and its local copy gone: recomputed on demand.
    Lost,
    /// Anything else: the consumer waits.
    Blocks,
}

impl Serves {
    fn of(usable: Usable, state: TState) -> Serves {
        match state {
            TState::Done(info) if usable.holds(info) => Serves::Usable,
            TState::Done(info) if !info.available => Serves::Lost,
            _ => Serves::Blocks,
        }
    }
}

/// Byte totals per node for one task's transfers, reused across calls.
#[derive(Debug, Default)]
struct ByNode {
    /// Total per container id; negative marks a node not yet added to.
    bytes: Vec<f64>,
    touched: Vec<ContainerId>,
}

impl ByNode {
    fn add(&mut self, node: ContainerId, bytes: f64) {
        if node >= self.bytes.len() {
            self.bytes.resize(node + 1, -1.0);
        }
        if self.bytes[node] < 0.0 {
            self.bytes[node] = 0.0;
            self.touched.push(node);
        }
        self.bytes[node] += bytes;
    }

    /// Empties the totals, in ascending node order: transfers must start
    /// in a deterministic order or event-queue tie-breaks (and with them
    /// the whole simulated schedule) would vary.
    fn drain(&mut self) -> Vec<(ContainerId, f64)> {
        self.touched.sort_unstable();
        let bytes = &mut self.bytes;
        self.touched
            .drain(..)
            .map(|n| (n, std::mem::replace(&mut bytes[n], -1.0)))
            .collect()
    }
}

/// One simulated engine run.
pub struct SimEngine {
    mode: Mode,
    plan: PhysicalPlan,
    costs: FopCosts,
    config: SimConfig,
    cluster: Cluster<Ev>,
    pool: SlotPool,
    master_pool: SlotPool,
    /// The reserved containers (never evicted in these experiments).
    reserved: Vec<ContainerId>,
    /// Flattened task table; `offset[fop] + index`. Written only by
    /// [`SimEngine::set_state`].
    state: Vec<TState>,
    attempt: Vec<u32>,
    attempted: Vec<bool>,
    offset: Vec<usize>,
    /// Number of `Done` tasks.
    done: usize,
    /// Per task: its producers along narrow in-edges that are not
    /// [`Serves::Usable`], and those of them that are [`Serves::Lost`].
    unusable: Vec<u32>,
    lost: Vec<u32>,
    /// Per fop: its `Pending` tasks with no unusable narrow producer, and
    /// those with a lost one.
    clear: Vec<BTreeSet<usize>>,
    lossy: Vec<BTreeSet<usize>>,
    /// Per fop: its in-edges, main slots first (by slot index).
    in_edges: Vec<Vec<InEdge>>,
    /// Per fop: its out-edges.
    out_edges: Vec<Vec<PlanEdge>>,
    /// Exception sets of the wide in-edges: the producer indices whose
    /// output does not serve the edge ([`Serves::Usable`]).
    wide: Vec<BTreeSet<usize>>,
    /// Per fop: the in-edges it feeds, as (consumer fop, position).
    feeds: Vec<Vec<(FopId, usize)>>,
    /// Pado: reserved tasks' pre-assigned receiver nodes, by flat task id.
    assigned: Vec<Option<ContainerId>>,
    /// Per-(container, producer fop) broadcast cache.
    bcast_cache: BTreeSet<(ContainerId, FopId)>,
    /// Per fop: nodes able to serve its output as a broadcast dataset (the
    /// producer plus every container that finished fetching it) — models
    /// torrent-style peer-to-peer broadcast distribution.
    bcast_sources: Vec<Vec<ContainerId>>,
    bcast_rr: usize,
    /// Per task: broadcast keys it will cache once its fetch completes.
    pending_bcast: Vec<Vec<(ContainerId, FopId)>>,
    ckpt_rr: usize,
    by_node: ByNode,
    /// Events delivered so far.
    #[cfg(test)]
    events: u64,
    /// Producer states [`SimEngine::ready`] has looked at so far.
    #[cfg(test)]
    probes: u64,
    /// Pending tasks scheduling passes have called `ready` on so far.
    #[cfg(test)]
    visits: u64,
    metrics: RunMetrics,
    /// Whether each fop runs in the driver process in Spark modes.
    on_driver: Vec<bool>,
    /// Whether each fop prefers the long-lived transient pool (§6).
    prefer_long: Vec<bool>,
}

impl SimEngine {
    /// Prepares a run: compiles nothing (takes a compiled plan), derives
    /// costs, builds the cluster, and assigns Pado receivers.
    pub fn new(
        mode: Mode,
        dag: &LogicalDag,
        plan: PhysicalPlan,
        model: &CostModel,
        config: SimConfig,
    ) -> Self {
        let costs = FopCosts::derive(&plan, model);
        let mut cluster = Cluster::new(
            config.n_transient,
            config.n_reserved,
            config.transient_spec,
            config.reserved_spec,
            config.store_spec,
            config.lifetimes.clone(),
            config.seed,
        );
        let initial_transient = cluster.alive(Kind::Transient);
        for &(at, k) in &config.scripted_evictions {
            if !initial_transient.is_empty() {
                cluster.schedule_eviction(at, initial_transient[k % initial_transient.len()]);
            }
        }
        if config.n_transient_long > 0 {
            cluster.add_transient_pool(
                config.n_transient_long,
                config.transient_spec,
                config.long_lifetimes.clone(),
            );
        }
        // Lifetime-aware placement (§6): steer the transient operators
        // whose eviction wastes the most work to the long-lived pool. The
        // waste of losing one task is its own compute time plus the
        // recomputation cascade through transient ancestors, so the
        // steering signal is the structural recomputation score weighted
        // by the fused chain's task duration.
        let prefer_long: Vec<bool> = if config.lifetime_aware && config.n_transient_long > 0 {
            let scores =
                pado_core::compiler::recomputation_scores(dag, &plan.placement).unwrap_or_default();
            let weight = |f: &pado_core::compiler::Fop| {
                let cascade: f64 = f
                    .chain
                    .iter()
                    .map(|&op| scores.get(op).copied().unwrap_or(1.0))
                    .sum();
                costs.compute_us[f.id] as f64 * cascade
            };
            let mut transient: Vec<f64> = plan
                .fops
                .iter()
                .filter(|f| f.placement == Placement::Transient)
                .map(&weight)
                .collect();
            transient.sort_by(f64::total_cmp);
            let median = transient.get(transient.len() / 2).copied().unwrap_or(0.0);
            plan.fops
                .iter()
                .map(|f| f.placement == Placement::Transient && weight(f) >= median.max(1.0))
                .collect()
        } else {
            vec![false; plan.fops.len()]
        };

        let mut offset = Vec::with_capacity(plan.fops.len());
        let mut total = 0usize;
        for f in &plan.fops {
            offset.push(total);
            total += f.parallelism;
        }

        // Spark runs `Created` sources and singleton collection /
        // aggregation / update steps (e.g. MLR's model update, §5.2.2) in
        // the driver process, which lives on the never-evicted master
        // container. Read sources stay on executors regardless of
        // parallelism.
        let on_driver = plan
            .fops
            .iter()
            .map(|f| match dag.op(f.head()).kind {
                OperatorKind::Source { kind, .. } => kind == SourceKind::Created,
                _ => f.parallelism == 1,
            })
            .collect();

        // Every task starts `Pending`: every producer of a wide edge is an
        // exception, and every narrow producer of a task blocks it.
        let mut wide = Vec::new();
        let mut feeds = vec![Vec::new(); plan.fops.len()];
        let mut unusable = vec![0u32; total];
        let mut in_edges: Vec<Vec<InEdge>> = Vec::with_capacity(plan.fops.len());
        for dst in &plan.fops {
            let mut edges = Vec::new();
            for edge in plan.in_edges(dst.id) {
                feeds[edge.src].push((dst.id, edges.len()));
                let src = &plan.fops[edge.src];
                let usable = match mode {
                    Mode::Spark => Usable::Available,
                    Mode::SparkCkpt => Usable::Safe,
                    // Preserved on eviction-free storage, or pushed to
                    // this consumer's node.
                    Mode::Pado
                        if src.placement == Placement::Reserved
                            || dst.placement == Placement::Reserved =>
                    {
                        Usable::Either
                    }
                    // Transient-to-transient edge: only the producer-local
                    // copy serves it.
                    Mode::Pado => Usable::Available,
                };
                let is_wide = matches!(edge.dep, DepType::OneToMany | DepType::ManyToMany);
                for i in (0..dst.parallelism).filter(|_| !is_wide) {
                    let par = (src.parallelism, dst.parallelism);
                    unusable[offset[dst.id] + i] +=
                        required_src_indices(&edge, i, par.0, par.1).count() as u32;
                }
                let wide = is_wide.then(|| {
                    wide.push((0..src.parallelism).collect());
                    wide.len() - 1
                });
                edges.push(InEdge { edge, usable, wide });
            }
            in_edges.push(edges);
        }
        let out_edges = plan.fops.iter().map(|f| plan.out_edges(f.id)).collect();
        let clear = plan
            .fops
            .iter()
            .map(|f| (0..f.parallelism).filter(|&i| unusable[offset[f.id] + i] == 0))
            .map(|tasks| tasks.collect())
            .collect();
        let reserved = cluster.alive(Kind::Reserved);

        let mut engine = SimEngine {
            mode,
            costs,
            config,
            cluster,
            pool: SlotPool::new(),
            master_pool: SlotPool::new(),
            reserved,
            state: vec![TState::Pending; total],
            attempt: vec![0; total],
            attempted: vec![false; total],
            offset,
            done: 0,
            unusable,
            lost: vec![0; total],
            clear,
            lossy: vec![BTreeSet::new(); plan.fops.len()],
            in_edges,
            out_edges,
            wide,
            feeds,
            assigned: vec![None; total],
            bcast_cache: BTreeSet::new(),
            bcast_sources: vec![Vec::new(); plan.fops.len()],
            bcast_rr: 0,
            pending_bcast: vec![Vec::new(); total],
            ckpt_rr: 0,
            by_node: ByNode::default(),
            #[cfg(test)]
            events: 0,
            #[cfg(test)]
            probes: 0,
            #[cfg(test)]
            visits: 0,
            plan,
            metrics: RunMetrics {
                original_tasks: total,
                ..RunMetrics::default()
            },
            on_driver,
            prefer_long,
        };
        engine.init_pools();
        engine.assign_receivers();
        engine
    }

    fn init_pools(&mut self) {
        let master = Cluster::<Ev>::MASTER;
        self.master_pool
            .add(master, self.cluster.container(master).slots.max(1));
        for c in self.cluster.alive(Kind::Transient) {
            self.pool.add(c, self.cluster.container(c).slots);
        }
        if matches!(self.mode, Mode::Spark | Mode::Pado) {
            for &c in &self.reserved {
                self.pool.add(c, self.cluster.container(c).slots);
            }
        }
    }

    /// Pado pre-assigns every reserved task a receiver node, round-robin,
    /// so transient producers know their push destinations (§3.2.3).
    fn assign_receivers(&mut self) {
        if self.mode != Mode::Pado || self.reserved.is_empty() {
            return;
        }
        let mut rr = 0usize;
        for f in 0..self.plan.fops.len() {
            if self.plan.fops[f].placement != Placement::Reserved {
                continue;
            }
            for i in 0..self.plan.fops[f].parallelism {
                self.assigned[self.offset[f] + i] = Some(self.reserved[rr % self.reserved.len()]);
                rr += 1;
            }
        }
    }

    fn flat(&self, fop: FopId, index: usize) -> usize {
        self.offset[fop] + index
    }

    fn unflat(&self, t: usize) -> (FopId, usize) {
        // Offsets are strictly increasing (parallelism >= 1), so the
        // owning fop is unique.
        let fop = self.offset.partition_point(|&o| o <= t) - 1;
        (fop, t - self.offset[fop])
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] if the event queue drains early (an engine
    /// bug); [`SimError::TimedOut`] past the configured virtual deadline.
    pub fn run(mut self) -> Result<RunMetrics, SimError> {
        self.drive()?;
        self.metrics.jct_us = self.cluster.now();
        self.metrics.evictions = self.cluster.evictions;
        self.metrics.bytes_transferred = self.cluster.bytes_transferred();
        Ok(self.metrics)
    }

    /// The event loop: deliver an event, run a scheduling pass, until
    /// every task is `Done`.
    fn drive(&mut self) -> Result<(), SimError> {
        self.schedule();
        while self.done < self.state.len() {
            if self.cluster.now() > self.config.time_limit_us {
                return Err(SimError::TimedOut);
            }
            let Some(event) = self.cluster.next_event() else {
                return Err(SimError::Stalled {
                    completed: self.done,
                    total: self.state.len(),
                });
            };
            self.on_event(event);
            self.schedule();
            #[cfg(test)]
            {
                self.events += 1;
                self.check_indices();
            }
        }
        Ok(())
    }

    /// The one place a task's state is written: keeps every index the
    /// module docs list in step with the task table.
    fn set_state(&mut self, t: usize, new: TState) {
        let (fop, index) = self.unflat(t);
        let old = std::mem::replace(&mut self.state[t], new);
        let done = |s: TState| matches!(s, TState::Done(_));
        self.done = self.done + usize::from(done(new)) - usize::from(done(old));
        let pending = |s: TState| matches!(s, TState::Pending);
        if pending(old) != pending(new) {
            self.file(fop, index);
        }
        for k in 0..self.feeds[fop].len() {
            let (dst, pos) = self.feeds[fop][k];
            let InEdge { edge, usable, wide } = self.in_edges[dst][pos];
            let (was, is) = (Serves::of(usable, old), Serves::of(usable, new));
            if was == is {
                continue;
            }
            if let Some(w) = wide {
                toggle(&mut self.wide[w], index, is != Serves::Usable);
                continue;
            }
            // The one consumer needing this producer (`required_src_indices`).
            let dst_par = self.plan.fops[dst].parallelism;
            let consumer = match edge.dep {
                DepType::OneToOne if index >= dst_par => continue,
                DepType::OneToOne => index,
                _ => index % dst_par,
            };
            let c = self.offset[dst] + consumer;
            let count = |s: Serves, of: Serves| u32::from(s == of);
            self.unusable[c] =
                self.unusable[c] + count(was, Serves::Usable) - count(is, Serves::Usable);
            self.lost[c] = self.lost[c] + count(is, Serves::Lost) - count(was, Serves::Lost);
            self.file(dst, consumer);
        }
    }

    /// Files a task in, or out of, its fop's `clear` and `lossy` sets.
    fn file(&mut self, fop: FopId, index: usize) {
        let t = self.offset[fop] + index;
        let pending = matches!(self.state[t], TState::Pending);
        toggle(
            &mut self.clear[fop],
            index,
            pending && self.unusable[t] == 0,
        );
        toggle(&mut self.lossy[fop], index, pending && self.lost[t] > 0);
    }

    fn on_event(&mut self, event: Event<Ev>) {
        match event {
            Event::Timer(ev) => self.on_timer(ev),
            Event::TransferDone { tag, .. } => self.on_transfer_done(tag),
            Event::TransferFailed { tag, .. } => self.on_transfer_failed(tag),
            Event::Evicted(c) => self.on_evicted(c),
            Event::ContainerAdded(c) => self.pool.add(c, self.cluster.container(c).slots),
        }
    }

    fn current(&self, ev: Ev) -> bool {
        let (Ev::Fetch { task, attempt }
        | Ev::ComputeDone { task, attempt }
        | Ev::Push { task, attempt }
        | Ev::Ckpt { task, attempt }) = ev;
        self.attempt[task] == attempt
    }

    fn on_timer(&mut self, ev: Ev) {
        if !self.current(ev) {
            return;
        }
        if let Ev::ComputeDone { task, .. } = ev {
            if let TState::Computing { node } = self.state[task] {
                self.finish_compute(task, node);
            }
        }
    }

    fn on_transfer_done(&mut self, ev: Ev) {
        if !self.current(ev) {
            return;
        }
        match ev {
            Ev::Fetch { task, .. } => {
                if let TState::Fetching { node, waiting } = self.state[task] {
                    if waiting <= 1 {
                        self.start_compute(task, node);
                    } else {
                        let waiting = waiting - 1;
                        self.set_state(task, TState::Fetching { node, waiting });
                    }
                }
            }
            Ev::Push { task, .. } => {
                if let TState::Pushing { node, waiting } = self.state[task] {
                    if waiting <= 1 {
                        let done = DoneInfo {
                            node,
                            available: self.cluster.container(node).alive,
                            safe: true,
                            safe_node: None,
                        };
                        self.set_state(task, TState::Done(done));
                    } else {
                        let waiting = waiting - 1;
                        self.set_state(task, TState::Pushing { node, waiting });
                    }
                }
            }
            Ev::Ckpt { task, .. } => {
                if let TState::Done(info) = self.state[task] {
                    self.set_state(task, TState::Done(DoneInfo { safe: true, ..info }));
                }
            }
            Ev::ComputeDone { .. } => {}
        }
    }

    fn on_transfer_failed(&mut self, ev: Ev) {
        if !self.current(ev) {
            return;
        }
        // A fetch source died: abandon this attempt (had the task's own node
        // died, the eviction handler would have made this event stale). A
        // push or checkpoint fails only with its producer, which the
        // eviction handler reverted, or left unsafe for lineage recovery.
        if let Ev::Fetch { task, .. } = ev {
            if let TState::Fetching { node, .. } = self.state[task] {
                self.revert(task);
                self.pool.release(node);
                self.master_pool.release(node);
            }
        }
    }

    fn revert(&mut self, task: usize) {
        self.attempt[task] += 1;
        self.set_state(task, TState::Pending);
        // A reverted fetch can no longer seed its pending broadcasts.
        for (node, fop) in std::mem::take(&mut self.pending_bcast[task]) {
            if !self.bcast_cache.contains(&(node, fop)) {
                self.bcast_sources[fop].retain(|&n| n != node);
            }
        }
    }

    fn on_evicted(&mut self, c: ContainerId) {
        self.pool.remove(c);
        self.bcast_cache.retain(|(node, _)| *node != c);
        for sources in &mut self.bcast_sources {
            sources.retain(|&n| n != c);
        }
        for t in 0..self.state.len() {
            match self.state[t] {
                TState::Fetching { node, .. }
                | TState::Computing { node }
                | TState::Pushing { node, .. }
                    if node == c =>
                {
                    self.revert(t);
                }
                TState::Done(info) if info.node == c => {
                    let lost = DoneInfo {
                        available: false,
                        ..info
                    };
                    self.set_state(t, TState::Done(lost));
                }
                _ => {}
            }
        }
    }

    /// Where a fop's tasks may run under this mode.
    fn placement_target(&self, fop: FopId, task: usize) -> PlacementTarget {
        match self.mode {
            Mode::Spark | Mode::SparkCkpt => {
                if self.on_driver[fop] {
                    PlacementTarget::Master
                } else {
                    PlacementTarget::AnyExecutor
                }
            }
            Mode::Pado => match self.plan.fops[fop].placement {
                Placement::Reserved => PlacementTarget::Fixed(self.assigned[task]),
                Placement::Transient => {
                    if self.prefer_long[fop] {
                        PlacementTarget::TransientPool(1)
                    } else if self.config.lifetime_aware && self.config.n_transient_long > 0 {
                        PlacementTarget::TransientPool(0)
                    } else {
                        PlacementTarget::Transient
                    }
                }
            },
        }
    }

    /// One scheduling pass: launch every ready pending task that can get
    /// a slot. Tasks are visited in plan (stage-topological) order, so
    /// lineage recomputation naturally precedes dependents. Fops whose
    /// placement class has no free slot are skipped wholesale; within a
    /// fop, only the tasks [`SimEngine::next_visit`] names are visited.
    fn schedule(&mut self) {
        for f in 0..self.plan.fops.len() {
            // The slot check costs more than `next_visit`: it comes second.
            let mut next = self.next_visit(f, 0).filter(|_| self.any_slot_for(f));
            while let Some(i) = next {
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                if self.ready(f, i) {
                    self.try_launch(f, i);
                    if !self.any_slot_for(f) {
                        break;
                    }
                }
                // `ready` may revert producers and a launch leaves the
                // sets, so look the next task up afresh each step.
                next = self.next_visit(f, i + 1);
            }
        }
    }

    /// The fop's gate: whether its first wide in-edge with exceptions has
    /// a lost first exception, or `None` when no wide in-edge has any.
    fn gate(&self, fop: FopId) -> Option<bool> {
        self.in_edges[fop].iter().find_map(|e| {
            let first = *self.wide[e.wide?].first()?;
            let state = self.state[self.flat(e.edge.src, first)];
            Some(Serves::of(e.usable, state) == Serves::Lost)
        })
    }

    /// The lowest pending index `>= from` of the fop whose `ready` could
    /// return `None` or revert a producer (see the module docs).
    fn next_visit(&self, fop: FopId, from: usize) -> Option<usize> {
        let lossy = self.lossy[fop].range(from..).next().copied();
        match self.gate(fop) {
            None => {
                let clear = self.clear[fop].range(from..).next().copied();
                lossy.into_iter().chain(clear).min()
            }
            Some(false) => lossy,
            Some(true) => (from..self.plan.fops[fop].parallelism)
                .find(|&i| matches!(self.state[self.flat(fop, i)], TState::Pending)),
        }
    }

    /// Whether some executor eligible for this fop has a free slot.
    fn any_slot_for(&self, fop: FopId) -> bool {
        match self.placement_target(fop, self.offset[fop]) {
            PlacementTarget::Master => self.master_pool.any_free(),
            PlacementTarget::AnyExecutor => self.pool.any_free(),
            PlacementTarget::Transient | PlacementTarget::TransientPool(_) => {
                let cl = &self.cluster;
                self.pool
                    .free_slots_where(|c| cl.container(c).kind == Kind::Transient)
                    > 0
            }
            PlacementTarget::Fixed(Some(n)) => self.pool.free_on(n) > 0,
            PlacementTarget::Fixed(None) => false,
        }
    }

    /// Whether all of a task's inputs are usable. Reverts producers whose
    /// outputs are lost (lazy lineage recovery — the source of Spark's
    /// cascading recomputations).
    ///
    /// A producer simply not finished yet ends the scan, but *lost*
    /// outputs never do: all of them before it are reverted at once, so
    /// recovery recomputes them in parallel, not one per pass.
    fn ready(&mut self, fop: FopId, index: usize) -> bool {
        let mut ready = true;
        for pos in 0..self.in_edges[fop].len() {
            let InEdge { edge, usable, wide } = self.in_edges[fop][pos];
            let src_par = self.plan.fops[edge.src].parallelism;
            let dst_par = self.plan.fops[fop].parallelism;
            // Every producer of a wide edge is required, and only the
            // exceptions can be unusable; reverting one keeps it one.
            let mut required = required_src_indices(&edge, index, src_par, dst_par);
            let mut from = 0;
            loop {
                let si = match wide {
                    Some(w) => self.wide[w].range(from..).next().copied(),
                    None => required.next(),
                };
                let Some(si) = si else { break };
                from = si + 1;
                let st = self.flat(edge.src, si);
                #[cfg(test)]
                {
                    self.probes += 1;
                }
                match Serves::of(usable, self.state[st]) {
                    Serves::Usable => {}
                    // Lost and needed: recompute the producer (for Pado
                    // this only happens within the running stage;
                    // committed stage outputs on reserved containers are
                    // never lost here).
                    Serves::Lost => {
                        self.revert(st);
                        ready = false;
                    }
                    Serves::Blocks => return false,
                }
            }
        }
        ready
    }

    fn try_launch(&mut self, fop: FopId, index: usize) {
        let t = self.flat(fop, index);
        let node = match self.placement_target(fop, t) {
            PlacementTarget::Master => {
                let m = Cluster::<Ev>::MASTER;
                self.master_pool.acquire_on(m).then_some(m)
            }
            PlacementTarget::AnyExecutor => self.pool.acquire_any(),
            PlacementTarget::Transient => {
                let cl = &self.cluster;
                self.pool
                    .acquire_where(|c| cl.container(c).kind == Kind::Transient)
            }
            PlacementTarget::TransientPool(pool) => {
                let cl = &self.cluster;
                self.pool
                    .acquire_where(|c| {
                        cl.container(c).kind == Kind::Transient && cl.container(c).pool == pool
                    })
                    .or_else(|| {
                        // Fall back to any transient slot rather than stall.
                        self.pool
                            .acquire_where(|c| cl.container(c).kind == Kind::Transient)
                    })
            }
            PlacementTarget::Fixed(Some(n)) => self.pool.acquire_on(n).then_some(n),
            PlacementTarget::Fixed(None) => None,
        };
        let Some(node) = node else { return };

        self.metrics.tasks_launched += 1;
        if self.attempted[t] {
            self.metrics.relaunched_tasks += 1;
        } else {
            self.attempted[t] = true;
        }

        let fetches = self.fetch_plan(fop, index, node);
        let attempt = self.attempt[t];
        if fetches.is_empty() {
            self.start_compute(t, node);
        } else {
            let waiting = fetches.len();
            self.set_state(t, TState::Fetching { node, waiting });
            for (src_node, bytes) in fetches {
                self.cluster
                    .start_transfer(src_node, node, bytes, Ev::Fetch { task: t, attempt });
            }
        }
    }

    /// Computes the (source node, bytes) transfers a task needs before it
    /// can run on `node`. Local data contributes nothing.
    fn fetch_plan(
        &mut self,
        fop: FopId,
        index: usize,
        node: ContainerId,
    ) -> Vec<(ContainerId, f64)> {
        let t = self.flat(fop, index);
        // External input.
        let read = self.costs.read_bytes[fop];
        if read > 0.0 {
            self.by_node.add(Cluster::<Ev>::STORE, read);
        }
        let dst_par = self.plan.fops[fop].parallelism;
        for pos in 0..self.in_edges[fop].len() {
            let e = self.in_edges[fop][pos].edge;
            let src_par = self.plan.fops[e.src].parallelism;
            let is_bcast = e.slot == InputSlot::Side || e.dep == DepType::OneToMany;
            if is_bcast && self.config.broadcast_caching {
                if self.bcast_cache.contains(&(node, e.src)) {
                    continue; // Served from the container's input cache.
                }
                self.pending_bcast[t].push((node, e.src));
                // Torrent-style swarm: a fetching container immediately
                // relays chunks, so even the first broadcast wave spreads
                // over all participants instead of hammering the producer.
                let sources = &mut self.bcast_sources[e.src];
                if !sources.contains(&node) {
                    sources.push(node);
                }
            }
            let bytes = match e.dep {
                DepType::ManyToMany => self.costs.out_bytes[e.src] / dst_par as f64,
                _ => self.costs.out_bytes[e.src],
            };
            let bytes = self.pushed_bytes_factor(e.src) * bytes;
            for si in required_src_indices(&e, index, src_par, dst_par) {
                let st = self.flat(e.src, si);
                let TState::Done(info) = self.state[st] else {
                    continue; // `ready` guaranteed this cannot happen.
                };
                let mut src_node = match self.mode {
                    Mode::Spark => info.node,
                    Mode::SparkCkpt => info.safe_node.unwrap_or(info.node),
                    Mode::Pado => {
                        if info.safe
                            && self.plan.fops[e.src].placement == Placement::Transient
                            && self.plan.fops[fop].placement == Placement::Reserved
                        {
                            // Pushed to this consumer's reserved node.
                            node
                        } else {
                            info.node
                        }
                    }
                };
                // Broadcast data is served torrent-style: any container
                // that already holds the dataset can seed it, so broadcast
                // bandwidth scales with the cluster instead of pinning the
                // producer's uplink.
                if is_bcast {
                    let cluster = &self.cluster;
                    let seeds = || {
                        self.bcast_sources[e.src]
                            .iter()
                            .copied()
                            .filter(|&n| n != node && cluster.container(n).alive)
                    };
                    let n_seeds = seeds().count();
                    if n_seeds > 0 {
                        src_node = seeds()
                            .nth(self.bcast_rr % n_seeds)
                            .expect("index below count");
                        self.bcast_rr += 1;
                    }
                }
                if src_node == node {
                    continue;
                }
                self.by_node.add(src_node, bytes);
            }
        }
        let mut plan = self.by_node.drain();
        plan.retain(|&(_, bytes)| bytes > 0.0);
        plan
    }

    /// The byte-shrink factor partial aggregation applies to a producer's
    /// outputs (Pado only, combine-bound edges only).
    fn pushed_bytes_factor(&self, src: FopId) -> f64 {
        if self.mode == Mode::Pado
            && self.config.partial_aggregation
            && self.plan.fops[src].placement == Placement::Transient
        {
            self.costs.preagg[src].unwrap_or(1.0)
        } else {
            1.0
        }
    }

    fn start_compute(&mut self, t: usize, node: ContainerId) {
        for (cache_node, src_fop) in std::mem::take(&mut self.pending_bcast[t]) {
            self.bcast_cache.insert((cache_node, src_fop));
            let sources = &mut self.bcast_sources[src_fop];
            if !sources.contains(&cache_node) {
                sources.push(cache_node);
            }
        }
        let (fop, _) = self.unflat(t);
        self.set_state(t, TState::Computing { node });
        let attempt = self.attempt[t];
        self.cluster.schedule_after(
            self.costs.compute_us[fop].max(1),
            Ev::ComputeDone { task: t, attempt },
        );
    }

    fn finish_compute(&mut self, t: usize, node: ContainerId) {
        let (fop, index) = self.unflat(t);
        self.pool.release(node);
        self.master_pool.release(node);
        let attempt = self.attempt[t];
        let terminal = self.out_edges[fop].is_empty();
        let on_safe_node = !matches!(self.cluster.container(node).kind, Kind::Transient);
        let mut done = DoneInfo {
            node,
            available: true,
            safe: true,
            safe_node: None,
        };

        match self.mode {
            Mode::Spark => {
                // Terminal outputs are written to the job sink;
                // reserved/master-resident outputs cannot be evicted.
                done.safe = terminal || on_safe_node;
                self.set_state(t, TState::Done(done));
            }
            Mode::SparkCkpt => {
                let out = self.costs.out_bytes[fop];
                if terminal || on_safe_node || out <= 0.0 {
                    self.set_state(t, TState::Done(done));
                } else {
                    // Task-level asynchronous checkpointing to stable
                    // storage on the reserved containers.
                    let dst = self.reserved[self.ckpt_rr % self.reserved.len()];
                    self.ckpt_rr += 1;
                    done.safe = false;
                    done.safe_node = Some(dst);
                    self.set_state(t, TState::Done(done));
                    self.metrics.bytes_checkpointed += out;
                    self.cluster
                        .start_transfer(node, dst, out, Ev::Ckpt { task: t, attempt });
                }
            }
            Mode::Pado => {
                if self.plan.fops[fop].placement == Placement::Reserved || terminal {
                    self.set_state(t, TState::Done(done));
                    return;
                }
                // Push outputs to the reserved consumers immediately so
                // they escape the threat of evictions (§3.2.4).
                let pushes = self.push_plan(fop, index, node);
                if pushes.is_empty() {
                    // All consumers are transient: the output stays local
                    // and at risk, exactly like a Spark map output.
                    done.safe = false;
                    self.set_state(t, TState::Done(done));
                    return;
                }
                let waiting = pushes.len();
                self.set_state(t, TState::Pushing { node, waiting });
                for (dst, bytes) in pushes {
                    self.metrics.bytes_pushed += bytes;
                    self.cluster
                        .start_transfer(node, dst, bytes, Ev::Push { task: t, attempt });
                }
            }
        }
    }

    /// The (destination reserved node, bytes) pushes of a completed
    /// transient task, after partial aggregation.
    fn push_plan(
        &mut self,
        fop: FopId,
        index: usize,
        node: ContainerId,
    ) -> Vec<(ContainerId, f64)> {
        let out = self.costs.out_bytes[fop] * self.pushed_bytes_factor(fop);
        for e in &self.out_edges[fop] {
            let dst_fop = &self.plan.fops[e.dst];
            if dst_fop.placement != Placement::Reserved {
                continue;
            }
            let dst_par = dst_fop.parallelism;
            let (consumers, share) = match e.dep {
                DepType::OneToOne => (index..dst_par.min(index + 1), out),
                DepType::ManyToOne => {
                    let di = index % dst_par.max(1);
                    (di..dst_par.min(di + 1), out)
                }
                DepType::OneToMany => (0..dst_par, out),
                DepType::ManyToMany => (0..dst_par, out / dst_par as f64),
            };
            for di in consumers {
                if let Some(n) = self.assigned[self.offset[e.dst] + di] {
                    self.by_node.add(n, share);
                }
            }
        }
        let mut plan = self.by_node.drain();
        plan.retain(|&(dst, _)| dst != node);
        for (_, bytes) in &mut plan {
            *bytes = bytes.max(1.0);
        }
        plan
    }
}

/// Puts `i` in `set`, or takes it out.
fn toggle(set: &mut BTreeSet<usize>, i: usize, member: bool) {
    if member {
        set.insert(i);
    } else {
        set.remove(&i);
    }
}

#[derive(Debug, Clone, Copy)]
enum PlacementTarget {
    Master,
    AnyExecutor,
    Transient,
    TransientPool(usize),
    Fixed(Option<ContainerId>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{CostModel, OpCost};
    use crate::simulate;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn};

    impl SimEngine {
        /// Recomputes the done count, the exception sets, the narrow counts
        /// and the candidate sets from the task table and asserts the
        /// maintained ones equal them; then asserts that every pending task
        /// a pass would skip is blocked, with nothing for `ready` to revert.
        pub(super) fn check_indices(&self) {
            let done = |s: &&TState| matches!(s, TState::Done(_));
            assert_eq!(self.done, self.state.iter().filter(done).count());
            for e in self.in_edges.iter().flatten() {
                let Some(w) = e.wide else { continue };
                let src = e.edge.src;
                let producers = &self.state[self.offset[src]..][..self.plan.fops[src].parallelism];
                let exceptions = (0..producers.len())
                    .filter(|&i| Serves::of(e.usable, producers[i]) != Serves::Usable);
                assert!(
                    self.wide[w].iter().copied().eq(exceptions),
                    "exceptions of edge {src} -> {}",
                    e.edge.dst
                );
            }
            for (f, fop) in self.plan.fops.iter().enumerate() {
                let gate = self.gate(f);
                let (mut clear, mut lossy, mut visit) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..fop.parallelism {
                    let t = self.offset[f] + i;
                    let (unusable, lost, first) = self.scan(f, i);
                    assert_eq!(
                        (self.unusable[t], self.lost[t]),
                        (unusable, lost),
                        "narrow counts of task {i} of fop {f}"
                    );
                    if !matches!(self.state[t], TState::Pending) {
                        continue;
                    }
                    if unusable == 0 {
                        clear.push(i);
                    }
                    if lost > 0 {
                        lossy.push(i);
                    }
                    let visited = match gate {
                        None => unusable == 0 || lost > 0,
                        Some(false) => lost > 0,
                        Some(true) => true,
                    };
                    if visited {
                        visit.push(i);
                    } else {
                        assert_eq!(first, Some(Serves::Blocks), "skipped task {i} of fop {f}");
                    }
                }
                assert!(
                    self.clear[f].iter().copied().eq(clear),
                    "clear set of fop {f}"
                );
                assert!(
                    self.lossy[f].iter().copied().eq(lossy),
                    "lossy set of fop {f}"
                );
                // The pass's first two steps through the fop take the same.
                let first = self.next_visit(f, 0);
                let second = first.and_then(|i| self.next_visit(f, i + 1));
                assert_eq!(
                    (first, second),
                    (visit.first().copied(), visit.get(1).copied())
                );
            }
        }

        /// Scans the producers task `index` of `fop` needs in the order
        /// `ready` does (a wide edge's exceptions only: its other producers
        /// are usable): the narrow ones that are unusable and lost, and how
        /// the first unusable one serves the task.
        fn scan(&self, fop: FopId, index: usize) -> (u32, u32, Option<Serves>) {
            let (mut unusable, mut lost, mut first) = (0, 0, None);
            let dst_par = self.plan.fops[fop].parallelism;
            for e in &self.in_edges[fop] {
                let src = self.offset[e.edge.src];
                if let Some(w) = e.wide {
                    if let Some(&si) = self.wide[w].first() {
                        first = first.or(Some(Serves::of(e.usable, self.state[src + si])));
                    }
                    continue;
                }
                let src_par = self.plan.fops[e.edge.src].parallelism;
                for si in required_src_indices(&e.edge, index, src_par, dst_par) {
                    let serves = Serves::of(e.usable, self.state[src + si]);
                    if serves != Serves::Usable {
                        unusable += 1;
                        lost += u32::from(serves == Serves::Lost);
                        first = first.or(Some(serves));
                    }
                }
            }
            (unusable, lost, first)
        }
    }

    /// A Map-Reduce-like job: read from store, map, shuffle, reduce.
    fn mr_job(maps: usize, reduces: usize) -> (LogicalDag, CostModel) {
        let p = Pipeline::new();
        let read = p.read("Read", maps, SourceFn::from_vec(vec![]));
        let map = read.par_do("Map", ParDoFn::per_element(|v, e| e(v.clone())));
        let red = map
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .with_parallelism(reduces);
        let mut model = CostModel::new();
        model
            .set(
                read.op_id(),
                OpCost {
                    compute_us: 2_000_000,
                    read_store_bytes: 128e6,
                    output_bytes: 0.0,
                },
            )
            .set(
                map.op_id(),
                OpCost {
                    compute_us: 3_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 32e6,
                },
            )
            .set(
                red.op_id(),
                OpCost {
                    compute_us: 1_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 1e6,
                },
            );
        (p.build().unwrap(), model)
    }

    fn small_config() -> SimConfig {
        SimConfig {
            n_transient: 8,
            n_reserved: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn all_modes_complete_without_evictions() {
        let (dag, model) = mr_job(32, 8);
        for mode in [Mode::Spark, Mode::SparkCkpt, Mode::Pado] {
            let m = simulate(mode, &dag, &model, small_config()).unwrap();
            assert!(m.jct_us > 0, "{mode:?}");
            assert_eq!(m.relaunched_tasks, 0, "{mode:?}");
            assert_eq!(m.tasks_launched, m.original_tasks, "{mode:?}");
        }
    }

    #[test]
    fn only_ckpt_checkpoints_and_only_pado_pushes() {
        let (dag, model) = mr_job(16, 4);
        let spark = simulate(Mode::Spark, &dag, &model, small_config()).unwrap();
        let ckpt = simulate(Mode::SparkCkpt, &dag, &model, small_config()).unwrap();
        let pado = simulate(Mode::Pado, &dag, &model, small_config()).unwrap();
        assert_eq!(spark.bytes_checkpointed, 0.0);
        assert_eq!(spark.bytes_pushed, 0.0);
        assert!(ckpt.bytes_checkpointed > 0.0);
        assert_eq!(ckpt.bytes_pushed, 0.0);
        assert_eq!(pado.bytes_checkpointed, 0.0);
        assert!(pado.bytes_pushed > 0.0);
    }

    #[test]
    fn checkpointing_costs_extra_network_volume() {
        let (dag, model) = mr_job(16, 4);
        let spark = simulate(Mode::Spark, &dag, &model, small_config()).unwrap();
        let ckpt = simulate(Mode::SparkCkpt, &dag, &model, small_config()).unwrap();
        assert!(
            ckpt.bytes_transferred > spark.bytes_transferred,
            "checkpoint copies should add traffic: {} !> {}",
            ckpt.bytes_transferred,
            spark.bytes_transferred
        );
    }

    /// An MLR-like iterative job: per iteration, transient gradient tasks
    /// read training data and the broadcast model, and a reserved/driver
    /// aggregation folds the gradients into the next model.
    fn iterative_job(iters: usize, maps: usize) -> (LogicalDag, CostModel) {
        use pado_dag::Value;
        let p = Pipeline::new();
        let train = p.read("Read", maps, SourceFn::from_vec(vec![]));
        let mut model_pc = p.create("Model0", vec![Value::from(0.0)]);
        let mut cost = CostModel::new();
        cost.set(
            train.op_id(),
            OpCost {
                compute_us: 500_000,
                read_store_bytes: 64e6,
                output_bytes: 64e6,
            },
        );
        cost.set(
            model_pc.op_id(),
            OpCost {
                compute_us: 1_000,
                read_store_bytes: 0.0,
                output_bytes: 50e6,
            },
        );
        for k in 0..iters {
            let grad = train.par_do_with_side(
                format!("Grad{k}"),
                &model_pc,
                ParDoFn::per_element(|v, e| e(v.clone())),
            );
            let agg = grad.aggregate(format!("Agg{k}"), CombineFn::sum_vector());
            cost.set(
                grad.op_id(),
                OpCost {
                    compute_us: 20_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 50e6,
                },
            );
            cost.set(
                agg.op_id(),
                OpCost {
                    compute_us: 2_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 50e6,
                },
            );
            model_pc = agg;
        }
        (p.build().unwrap(), cost)
    }

    #[test]
    fn evictions_relaunch_fewer_tasks_on_pado_for_iterative_jobs() {
        let (dag, model) = iterative_job(4, 24);
        let config = SimConfig {
            n_transient: 8,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (90 * pado_simcluster::SEC) as f64,
            },
            seed: 11,
            ..SimConfig::default()
        };
        let spark = simulate(Mode::Spark, &dag, &model, config.clone()).unwrap();
        let pado = simulate(Mode::Pado, &dag, &model, config).unwrap();
        assert!(spark.evictions > 0 && pado.evictions > 0);
        // Pado pushes gradients to reserved containers as soon as they
        // complete, so evictions relaunch far fewer tasks than Spark,
        // whose completed-but-unconsumed gradient outputs die with their
        // containers.
        assert!(
            pado.relaunch_ratio() < spark.relaunch_ratio(),
            "pado {} vs spark {}",
            pado.relaunch_ratio(),
            spark.relaunch_ratio()
        );
        assert!(
            pado.jct_us < spark.jct_us,
            "pado {}m vs spark {}m",
            pado.jct_minutes(),
            spark.jct_minutes()
        );
    }

    #[test]
    fn pado_completes_under_heavy_evictions() {
        let (dag, model) = mr_job(64, 8);
        let config = SimConfig {
            n_transient: 8,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (30 * pado_simcluster::SEC) as f64,
            },
            seed: 7,
            ..SimConfig::default()
        };
        let m = simulate(Mode::Pado, &dag, &model, config).unwrap();
        assert!(m.evictions > 0);
        assert!(m.jct_us > 0);
    }

    #[test]
    fn broadcast_caching_reduces_traffic() {
        // An iterative job with a broadcast model.
        let p = Pipeline::new();
        let read = p.read("Read", 16, SourceFn::from_vec(vec![]));
        let model0 = p.create("Model", vec![pado_dag::Value::from(0.0)]);
        let grad =
            read.par_do_with_side("Grad", &model0, ParDoFn::per_element(|v, e| e(v.clone())));
        let agg = grad.aggregate("Agg", CombineFn::sum_vector());
        let mut model = CostModel::new();
        model
            .set(
                read.op_id(),
                OpCost {
                    compute_us: 1_000_000,
                    read_store_bytes: 64e6,
                    output_bytes: 0.0,
                },
            )
            .set(
                model0.op_id(),
                OpCost {
                    compute_us: 1_000,
                    read_store_bytes: 0.0,
                    output_bytes: 100e6,
                },
            )
            .set(
                grad.op_id(),
                OpCost {
                    compute_us: 2_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 10e6,
                },
            )
            .set(
                agg.op_id(),
                OpCost {
                    compute_us: 500_000,
                    read_store_bytes: 0.0,
                    output_bytes: 1e6,
                },
            );
        let dag = p.build().unwrap();
        // Two transient containers x 4 slots = 8 slots for 16 tasks: the
        // second wave finds the model cached on its container.
        let cfg = SimConfig {
            n_transient: 2,
            n_reserved: 2,
            ..SimConfig::default()
        };
        let cached = simulate(Mode::Pado, &dag, &model, cfg.clone()).unwrap();
        let uncached = simulate(
            Mode::Pado,
            &dag,
            &model,
            SimConfig {
                broadcast_caching: false,
                ..cfg
            },
        )
        .unwrap();
        assert!(
            cached.bytes_transferred < uncached.bytes_transferred,
            "caching should cut broadcast traffic: {} !< {}",
            cached.bytes_transferred,
            uncached.bytes_transferred
        );
    }

    #[test]
    fn partial_aggregation_reduces_pushed_bytes() {
        let p = Pipeline::new();
        let read = p.read("Read", 16, SourceFn::from_vec(vec![]));
        let grad = read.par_do("Grad", ParDoFn::per_element(|v, e| e(v.clone())));
        let agg = grad.aggregate("Agg", CombineFn::sum_vector());
        let mut model = CostModel::new();
        model
            .set(
                read.op_id(),
                OpCost {
                    compute_us: 1_000_000,
                    read_store_bytes: 64e6,
                    output_bytes: 0.0,
                },
            )
            .set(
                grad.op_id(),
                OpCost {
                    compute_us: 2_000_000,
                    read_store_bytes: 0.0,
                    output_bytes: 50e6,
                },
            )
            .set(
                agg.op_id(),
                OpCost {
                    compute_us: 500_000,
                    read_store_bytes: 0.0,
                    output_bytes: 1e6,
                },
            )
            .set_preagg(agg.op_id(), 0.25);
        let dag = p.build().unwrap();
        let with_agg = simulate(Mode::Pado, &dag, &model, small_config()).unwrap();
        let without = simulate(
            Mode::Pado,
            &dag,
            &model,
            SimConfig {
                partial_aggregation: false,
                ..small_config()
            },
        )
        .unwrap();
        assert!(with_agg.bytes_pushed < without.bytes_pushed * 0.5);
    }

    #[test]
    fn checkpointing_prevents_cascading_recomputation() {
        let (dag, model) = iterative_job(4, 24);
        let config = SimConfig {
            n_transient: 8,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (120 * pado_simcluster::SEC) as f64,
            },
            seed: 21,
            ..SimConfig::default()
        };
        let spark = simulate(Mode::Spark, &dag, &model, config.clone()).unwrap();
        let ckpt = simulate(Mode::SparkCkpt, &dag, &model, config).unwrap();
        assert!(spark.evictions > 0 && ckpt.evictions > 0);
        // Checkpointed gradients survive their producers' evictions, so
        // checkpoint-enabled Spark relaunches fewer tasks than plain
        // Spark — at the cost of the checkpoint traffic.
        assert!(
            ckpt.relaunch_ratio() < spark.relaunch_ratio(),
            "ckpt {} vs spark {}",
            ckpt.relaunch_ratio(),
            spark.relaunch_ratio()
        );
        assert!(ckpt.bytes_checkpointed > 0.0);
    }

    #[test]
    fn sim_engine_direct_construction() {
        let (dag, model) = mr_job(8, 2);
        let plan = pado_core::compiler::compile(&dag).unwrap();
        let engine = SimEngine::new(Mode::Pado, &dag, plan, &model, small_config());
        let metrics = engine.run().unwrap();
        assert_eq!(metrics.tasks_launched, metrics.original_tasks);
    }

    #[test]
    fn stalled_simulation_reports_progress() {
        // A cluster with zero reserved containers cannot place Pado's
        // reserved anchors: the run must stall, not hang.
        let (dag, model) = mr_job(4, 2);
        let config = SimConfig {
            n_transient: 2,
            n_reserved: 0,
            ..SimConfig::default()
        };
        match simulate(Mode::Pado, &dag, &model, config) {
            Err(SimError::Stalled { completed, total }) => {
                assert!(completed < total);
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn lifetime_aware_placement_reduces_relaunches() {
        // Iterative job on a half short-lived, half long-lived transient
        // mix: steering the expensive gradient operators to the long pool
        // should cut relaunches versus blind scheduling.
        let (dag, model) = iterative_job(4, 24);
        let base = SimConfig {
            n_transient: 4,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (45 * pado_simcluster::SEC) as f64,
            },
            n_transient_long: 4,
            long_lifetimes: LifetimeDist::Exponential {
                mean_us: (20 * 60 * pado_simcluster::SEC) as f64,
            },
            seed: 5,
            ..SimConfig::default()
        };
        let blind = simulate(Mode::Pado, &dag, &model, base.clone()).unwrap();
        let aware = simulate(
            Mode::Pado,
            &dag,
            &model,
            SimConfig {
                lifetime_aware: true,
                ..base
            },
        )
        .unwrap();
        assert!(
            aware.relaunched_tasks <= blind.relaunched_tasks,
            "aware {} vs blind {}",
            aware.relaunched_tasks,
            blind.relaunched_tasks
        );
    }

    #[test]
    fn relaunch_accounting_counts_extra_attempts() {
        let (dag, model) = mr_job(32, 4);
        let config = SimConfig {
            n_transient: 4,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (45 * pado_simcluster::SEC) as f64,
            },
            seed: 3,
            ..SimConfig::default()
        };
        let m = simulate(Mode::Spark, &dag, &model, config).unwrap();
        assert_eq!(
            m.tasks_launched,
            m.original_tasks + m.relaunched_tasks,
            "every launch is a first attempt or a relaunch"
        );
    }

    /// A paper workload with every operator's parallelism divided by
    /// `div` (`mr::paper()` at a third is what `paper-sim` runs).
    /// `pado-workloads` links the non-test build of this crate, so its
    /// `CostModel` is re-entered into this build's type.
    macro_rules! scaled {
        ($workload:path, $div:expr) => {{
            let (mut dag, theirs) = $workload();
            let mut model = CostModel::new();
            for op in dag.op_ids().collect::<Vec<_>>() {
                if let Some(p) = dag.op(op).parallelism {
                    dag.op_mut(op).parallelism = Some((p / $div).max(1));
                }
                let c = theirs.of(op);
                model.set(
                    op,
                    OpCost {
                        compute_us: c.compute_us,
                        read_store_bytes: c.read_store_bytes,
                        output_bytes: c.output_bytes,
                    },
                );
                if let Some(f) = theirs.preagg_of(op) {
                    model.set_preagg(op, f);
                }
            }
            (dag, model)
        }};
    }

    /// The paper's High eviction rate: lifetimes at a 0.1 % safety margin.
    fn high_rate() -> LifetimeDist {
        let analysis = pado_trace::analyze(
            &pado_trace::generate(&pado_trace::SynthConfig::default()),
            0.001,
        );
        LifetimeDist::Empirical(pado_simcluster::EmpiricalDist::new(
            analysis
                .lifetimes_min
                .iter()
                .map(|&m| m.max(1) * pado_simcluster::MIN)
                .collect(),
        ))
    }

    fn exponential(mean_secs: u64) -> LifetimeDist {
        LifetimeDist::Exponential {
            mean_us: (mean_secs * pado_simcluster::SEC) as f64,
        }
    }

    /// A golden case by name: job, cluster, eviction process.
    fn golden_case(name: &str) -> ((LogicalDag, CostModel), SimConfig) {
        let small = |lifetimes| SimConfig {
            lifetimes,
            ..small_config()
        };
        let paper = |lifetimes| SimConfig {
            lifetimes,
            time_limit_us: 120 * pado_simcluster::MIN,
            ..SimConfig::default()
        };
        match name {
            "mr/exp" => (mr_job(64, 8), small(exponential(30))),
            "mr/emp" => (mr_job(512, 16), small(high_rate())),
            "iter/exp" => (iterative_job(4, 24), small(exponential(90))),
            "iter/emp" => (iterative_job(8, 48), small(high_rate())),
            "paper3/exp" => (
                scaled!(pado_workloads::mr::paper, 3),
                paper(exponential(600)),
            ),
            "paper3/emp" => (scaled!(pado_workloads::mr::paper, 3), paper(high_rate())),
            // ALS's factor steps: a narrow edge to a long-done aggregate,
            // then a broadcast side edge to the previous half-iteration.
            "als/emp" => (scaled!(pado_workloads::als::paper, 8), small(high_rate())),
            other => panic!("no golden case {other}"),
        }
    }

    type GoldenRow = (&'static str, Mode, u64, u64, usize, usize, usize, f64, f64);

    /// `(case, mode, seed, jct_us, tasks_launched, relaunched_tasks,
    /// evictions, bytes_pushed, bytes_checkpointed)`, pinned on the commit
    /// before the scheduler indices and the one-live-entry event queue
    /// went in (PR 12), whose `Network` iterated a `HashMap`. That commit
    /// repeats run over run on the `mr/*` and `paper3/emp` Pado rows, and
    /// those are its own output; on the other rows it did not repeat
    /// (event tie-breaks followed the hash order), so they were taken from
    /// it with the one change that its `Network` visits transfers in
    /// ascending id order — the rule this engine keeps. The `iter/*` rows
    /// are this engine's own output since the plan generator fuses a
    /// per-stage copy into its one in-stage consumer: each iteration's
    /// `Read` runs inside its `Grad` task and waits for the model with
    /// it, where every iteration's reads used to run at t = 0. The
    /// `als/emp` rows were pinned on the commit before a scheduling pass
    /// skipped the tasks it cannot launch, whose pass stepped through
    /// every pending task.
    #[rustfmt::skip]
    const GOLDEN: &[GoldenRow] = &[
        ("mr/exp", Mode::Pado, 1, 30036722, 101, 29, 7, 2176000000.0, 0.0),
        ("mr/exp", Mode::Pado, 2, 31837302, 103, 31, 13, 2176000000.0, 0.0),
        ("mr/exp", Mode::Pado, 3, 31516838, 96, 24, 7, 2048000000.0, 0.0),
        ("mr/exp", Mode::Pado, 4, 35576669, 110, 38, 12, 2304000000.0, 0.0),
        ("mr/exp", Mode::Pado, 5, 31594390, 109, 37, 11, 2304000000.0, 0.0),
        ("mr/exp", Mode::Pado, 6, 34661464, 102, 30, 10, 2176000000.0, 0.0),
        ("mr/exp", Mode::Pado, 7, 33794401, 100, 28, 8, 2368000000.0, 0.0),
        ("mr/exp", Mode::Pado, 8, 40102699, 108, 36, 15, 2528000000.0, 0.0),
        ("mr/exp", Mode::Pado, 9, 28905064, 92, 20, 8, 2176000000.0, 0.0),
        ("mr/exp", Mode::Pado, 10, 29092969, 92, 20, 4, 2176000000.0, 0.0),
        ("mr/exp", Mode::Spark, 1, 176262142, 260, 188, 48, 0.0, 0.0),
        ("mr/exp", Mode::Spark, 2, 195570131, 256, 184, 60, 0.0, 0.0),
        ("mr/exp", Mode::Spark, 3, 189733730, 241, 169, 48, 0.0, 0.0),
        ("mr/exp", Mode::SparkCkpt, 1, 57391887, 102, 30, 10, 0.0, 2176000000.0),
        ("mr/exp", Mode::SparkCkpt, 2, 57896164, 105, 33, 23, 0.0, 2176000000.0),
        ("mr/exp", Mode::SparkCkpt, 3, 38712866, 97, 25, 7, 0.0, 2048000000.0),
        ("mr/emp", Mode::Pado, 1, 157847979, 568, 40, 10, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 2, 159383983, 576, 48, 12, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 3, 160279978, 580, 52, 13, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 4, 159511974, 576, 48, 12, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 5, 160407962, 568, 40, 10, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 6, 160663980, 580, 52, 13, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 7, 161065040, 580, 52, 13, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 8, 159511974, 572, 44, 11, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 9, 160279978, 576, 48, 12, 16384000000.0, 0.0),
        ("mr/emp", Mode::Pado, 10, 159895987, 580, 52, 13, 16384000000.0, 0.0),
        ("mr/emp", Mode::Spark, 1, 515104014, 1202, 674, 33, 0.0, 0.0),
        ("mr/emp", Mode::Spark, 2, 825196812, 1657, 1129, 54, 0.0, 0.0),
        ("mr/emp", Mode::Spark, 3, 645968015, 1651, 1123, 50, 0.0, 0.0),
        ("mr/emp", Mode::SparkCkpt, 1, 257384003, 593, 65, 20, 0.0, 16384000000.0),
        ("mr/emp", Mode::SparkCkpt, 2, 237680003, 590, 62, 17, 0.0, 16384000000.0),
        ("mr/emp", Mode::SparkCkpt, 3, 290152011, 621, 93, 25, 0.0, 16384000000.0),
        ("iter/exp", Mode::Pado, 1, 181565394, 132, 31, 10, 5350000000.0, 0.0),
        ("iter/exp", Mode::Pado, 2, 236017141, 162, 61, 26, 5850000000.0, 0.0),
        ("iter/exp", Mode::Pado, 3, 178850880, 134, 33, 11, 5150000000.0, 0.0),
        ("iter/exp", Mode::Pado, 4, 232437907, 153, 52, 27, 5350000000.0, 0.0),
        ("iter/exp", Mode::Pado, 5, 201667848, 145, 44, 18, 5250000000.0, 0.0),
        ("iter/exp", Mode::Pado, 6, 206707885, 136, 35, 16, 5100000000.0, 0.0),
        ("iter/exp", Mode::Pado, 7, 184486428, 124, 23, 10, 5300000000.0, 0.0),
        ("iter/exp", Mode::Pado, 8, 197840710, 125, 24, 17, 5150000000.0, 0.0),
        ("iter/exp", Mode::Pado, 9, 178068227, 133, 32, 16, 4800000000.0, 0.0),
        ("iter/exp", Mode::Pado, 10, 185544265, 135, 34, 10, 5150000000.0, 0.0),
        ("iter/exp", Mode::Spark, 1, 1220262764, 262, 161, 114, 0.0, 0.0),
        ("iter/exp", Mode::Spark, 2, 616074845, 195, 94, 60, 0.0, 0.0),
        ("iter/exp", Mode::Spark, 3, 886535322, 204, 103, 66, 0.0, 0.0),
        ("iter/exp", Mode::SparkCkpt, 1, 372467666, 151, 50, 35, 0.0, 5350000000.0),
        ("iter/exp", Mode::SparkCkpt, 2, 284846387, 130, 29, 34, 0.0, 5100000000.0),
        ("iter/exp", Mode::SparkCkpt, 3, 187650880, 114, 13, 12, 0.0, 4800000000.0),
        ("iter/emp", Mode::Pado, 1, 457348010, 517, 124, 31, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 2, 460040018, 533, 140, 35, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 3, 468760004, 557, 164, 41, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 4, 456288032, 505, 112, 28, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 5, 457934945, 505, 112, 28, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 6, 470360005, 541, 148, 37, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 7, 460552021, 537, 144, 36, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 8, 457836034, 509, 116, 29, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 9, 462872811, 517, 124, 31, 19200000000.0, 0.0),
        ("iter/emp", Mode::Pado, 10, 470360005, 573, 180, 45, 19200000000.0, 0.0),
        ("iter/emp", Mode::Spark, 1, 642724007, 553, 160, 37, 0.0, 0.0),
        ("iter/emp", Mode::Spark, 2, 651308009, 616, 223, 47, 0.0, 0.0),
        ("iter/emp", Mode::Spark, 3, 650396011, 635, 242, 50, 0.0, 0.0),
        ("iter/emp", Mode::SparkCkpt, 1, 593596006, 467, 74, 35, 0.0, 19200000000.0),
        ("iter/emp", Mode::SparkCkpt, 2, 605716005, 467, 74, 47, 0.0, 19200000000.0),
        ("iter/emp", Mode::SparkCkpt, 3, 608498323, 480, 87, 50, 0.0, 19200000000.0),
        ("paper3/exp", Mode::Pado, 1, 99678133, 876, 24, 6, 11458559999.9995, 0.0),
        ("paper3/exp", Mode::Pado, 2, 103444948, 867, 15, 7, 11458559999.9995, 0.0),
        ("paper3/exp", Mode::Pado, 3, 112282931, 871, 19, 6, 11566079999.999474, 0.0),
        ("paper3/exp", Mode::Pado, 4, 123932851, 879, 27, 9, 11566079999.999474, 0.0),
        ("paper3/exp", Mode::Pado, 5, 102495277, 911, 59, 15, 11581439999.99947, 0.0),
        ("paper3/exp", Mode::Spark, 1, 94616356, 904, 52, 6, 0.0, 0.0),
        ("paper3/exp", Mode::Spark, 2, 2533152353, 3080, 2228, 163, 0.0, 0.0),
        ("paper3/exp", Mode::Spark, 3, 575918013, 1424, 572, 34, 0.0, 0.0),
        ("paper3/exp", Mode::SparkCkpt, 1, 123357405, 876, 24, 6, 0.0, 19150600000.0),
        ("paper3/exp", Mode::SparkCkpt, 2, 206337044, 880, 28, 16, 0.0, 19329800000.0),
        ("paper3/exp", Mode::SparkCkpt, 3, 156175398, 873, 21, 7, 0.0, 19329800000.0),
        ("paper3/emp", Mode::Pado, 1, 106343262, 972, 120, 30, 11458559999.9995, 0.0),
        ("paper3/emp", Mode::Pado, 2, 106273938, 968, 116, 29, 11458559999.9995, 0.0),
        ("paper3/emp", Mode::Pado, 3, 106445274, 976, 124, 31, 11458559999.9995, 0.0),
        ("paper3/emp", Mode::Pado, 4, 106262670, 964, 112, 28, 11458559999.9995, 0.0),
        ("paper3/emp", Mode::Pado, 5, 106262670, 964, 112, 28, 11458559999.9995, 0.0),
        ("paper3/emp", Mode::Spark, 1, 704050008, 2761, 1909, 232, 0.0, 0.0),
        ("paper3/emp", Mode::Spark, 2, 703620158, 2898, 2046, 245, 0.0, 0.0),
        ("paper3/emp", Mode::Spark, 3, 691176596, 3029, 2177, 259, 0.0, 0.0),
        ("paper3/emp", Mode::SparkCkpt, 1, 147763154, 1035, 183, 59, 0.0, 19150600000.0),
        ("paper3/emp", Mode::SparkCkpt, 2, 144856937, 1021, 169, 54, 0.0, 19150600000.0),
        ("paper3/emp", Mode::SparkCkpt, 3, 147763130, 1040, 188, 60, 0.0, 19150600000.0),
        ("als/emp", Mode::Pado, 1, 686021602, 411, 65, 39, 21130000000.0, 0.0),
        ("als/emp", Mode::Pado, 2, 691055749, 449, 103, 50, 21310000000.0, 0.0),
        ("als/emp", Mode::Pado, 3, 717080493, 442, 96, 54, 21940000000.0, 0.0),
        ("als/emp", Mode::Spark, 1, 1786946441, 563, 217, 88, 0.0, 0.0),
        ("als/emp", Mode::Spark, 2, 2027592807, 619, 273, 98, 0.0, 0.0),
        ("als/emp", Mode::Spark, 3, 2030392811, 624, 278, 118, 0.0, 0.0),
        ("als/emp", Mode::SparkCkpt, 1, 903735204, 407, 61, 54, 0.0, 23350000000.0),
        ("als/emp", Mode::SparkCkpt, 2, 989607196, 428, 82, 62, 0.0, 23890000000.0),
        ("als/emp", Mode::SparkCkpt, 3, 1080137731, 447, 101, 71, 0.0, 25240000000.0),
    ];

    /// `(case, fingerprint)`: FNV-1a over every `RunMetrics` field of
    /// every row of the case, in `GOLDEN` order, floats by their bits. It
    /// pins what the rows leave loose, `bytes_transferred` above all,
    /// whose value follows the order `Network` sums progress in.
    const GOLDEN_FINGERPRINTS: &[(&str, u64)] = &[
        ("mr/exp", 0xe547_8758_860c_5c1f),
        ("mr/emp", 0x20b3_caad_f765_3679),
        ("iter/exp", 0x5643_7fba_856c_d1c9),
        ("iter/emp", 0x0763_979d_ee4c_6e6e),
        ("paper3/exp", 0xf9b5_5dae_10ba_0832),
        ("paper3/emp", 0xb3ce_260c_907b_942c),
        ("als/emp", 0xeee5_a0ef_f7f1_3fa8),
    ];

    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every event of these runs also passes `check_indices` (see
    /// [`SimEngine::drive`]).
    fn reproduces_golden(case: &str) {
        let ((dag, model), config) = golden_case(case);
        let rows = GOLDEN.iter().filter(|row| row.0 == case);
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for &(_, mode, seed, jct_us, launched, relaunched, evictions, pushed, ckpt) in rows {
            let config = SimConfig {
                seed,
                ..config.clone()
            };
            let m = simulate(mode, &dag, &model, config).unwrap();
            assert_eq!(
                (
                    m.jct_us,
                    m.tasks_launched,
                    m.relaunched_tasks,
                    m.evictions,
                    m.bytes_pushed,
                    m.bytes_checkpointed
                ),
                (jct_us, launched, relaunched, evictions, pushed, ckpt),
                "{case} {mode:?} seed {seed}"
            );
            let RunMetrics {
                jct_us,
                original_tasks,
                tasks_launched,
                relaunched_tasks,
                evictions,
                bytes_transferred,
                bytes_checkpointed,
                bytes_pushed,
            } = m;
            for word in [
                jct_us,
                original_tasks as u64,
                tasks_launched as u64,
                relaunched_tasks as u64,
                evictions as u64,
                bytes_transferred.to_bits(),
                bytes_checkpointed.to_bits(),
                bytes_pushed.to_bits(),
            ] {
                fingerprint = fnv1a(fingerprint, word);
            }
        }
        let pinned = GOLDEN_FINGERPRINTS.iter().find(|f| f.0 == case);
        assert_eq!(Some(fingerprint), pinned.map(|f| f.1), "{case} fingerprint");
    }

    // One test per case, so the harness runs them side by side.
    #[test]
    fn golden_mr_exponential() {
        reproduces_golden("mr/exp");
    }

    #[test]
    fn golden_mr_empirical() {
        reproduces_golden("mr/emp");
    }

    #[test]
    fn golden_iterative_exponential() {
        reproduces_golden("iter/exp");
    }

    #[test]
    fn golden_iterative_empirical() {
        reproduces_golden("iter/emp");
    }

    #[test]
    fn golden_paper_third_exponential() {
        reproduces_golden("paper3/exp");
    }

    #[test]
    fn golden_paper_third_empirical() {
        reproduces_golden("paper3/emp");
    }

    #[test]
    fn golden_als_empirical() {
        reproduces_golden("als/emp");
    }

    /// An ALS-like job: each half-iteration's `Compute` fop needs, one to
    /// one, the long-done `Aggregate` of the input and, broadcast, the
    /// `Gather` of the half-iteration before it.
    fn als_job(iters: usize, tasks: usize) -> (LogicalDag, CostModel) {
        let p = Pipeline::new();
        let read = p.read("Read", tasks, SourceFn::from_vec(vec![]));
        let data = read
            .combine_per_key("Aggregate", CombineFn::sum_i64())
            .with_parallelism(tasks);
        let mut factors = p.create("Factors", vec![]);
        let mut model = CostModel::new();
        let cost = |compute_s: u64, output_bytes: f64| OpCost {
            compute_us: compute_s * pado_simcluster::SEC,
            read_store_bytes: 0.0,
            output_bytes,
        };
        model.set(
            read.op_id(),
            OpCost {
                read_store_bytes: 64e6,
                ..cost(2, 64e6)
            },
        );
        model.set(data.op_id(), cost(2, 64e6));
        for k in 0..2 * iters {
            let body = ParDoFn::per_element(|v, e| e(v.clone()));
            let compute = data.par_do_with_side(format!("Compute {k}"), &factors, body);
            let gather = compute
                .combine_per_key(format!("Gather {k}"), CombineFn::sum_i64())
                .with_parallelism(tasks / 2);
            model.set(compute.op_id(), cost(10, 32e6));
            model.set(gather.op_id(), cost(1, 1e6));
            factors = gather;
        }
        let out = factors.sink("Out");
        model.set(out.op_id(), cost(1, 1e6));
        (p.build().unwrap(), model)
    }

    /// [`mr_job`] whose reducers each feed, one to one, a sink task.
    fn mr_sink_job(maps: usize, reduces: usize) -> (LogicalDag, CostModel) {
        let p = Pipeline::new();
        let read = p.read("Read", maps, SourceFn::from_vec(vec![]));
        let map = read.par_do("Map", ParDoFn::per_element(|v, e| e(v.clone())));
        let red = map
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .with_parallelism(reduces);
        let out = red.sink("Out");
        let (_, mut model) = mr_job(maps, reduces);
        model.set(
            out.op_id(),
            OpCost {
                compute_us: 1_000_000,
                read_store_bytes: 0.0,
                output_bytes: 1e6,
            },
        );
        (p.build().unwrap(), model)
    }

    /// Counts, not timings: what one delivered event costs must not grow
    /// with the job. A pass visits (calls `ready` on) a task it launches,
    /// or may launch or revert a producer for; per event, the rest of its
    /// visits and the producer states `ready` probes stay within a few per
    /// fop. Sinks waiting one to one on reducers, and ALS's factor steps
    /// waiting on a broadcast behind a usable narrow edge, are skipped.
    #[test]
    fn per_event_work_is_independent_of_job_size() {
        type Job = fn(usize, usize) -> (LogicalDag, CostModel);
        type Sizes = [(usize, usize); 2];
        let jobs: [(&str, Job, Sizes); 3] = [
            ("mr", mr_job, [(64, 8), (512, 64)]),
            ("mr+sink", mr_sink_job, [(64, 8), (512, 64)]),
            ("als", als_job, [(2, 16), (2, 128)]),
        ];
        for mode in [Mode::Spark, Mode::SparkCkpt, Mode::Pado] {
            for (name, job, sizes) in jobs {
                for (a, b) in sizes {
                    let (dag, model) = job(a, b);
                    let plan = pado_core::compiler::compile(&dag).unwrap();
                    let fops = plan.fops.len() as u64;
                    let config = SimConfig {
                        lifetimes: exponential(30),
                        seed: 7,
                        ..small_config()
                    };
                    let mut engine = SimEngine::new(mode, &dag, plan, &model, config);
                    engine.drive().unwrap();
                    assert!(engine.cluster.evictions > 0);
                    // Nothing stale is ever queued: every entry taken from
                    // the queue is an event delivered.
                    assert_eq!(engine.cluster.popped, engine.events, "{mode:?} {name}");
                    let per_event = fops * (engine.events + 1);
                    let launched = engine.metrics.tasks_launched as u64;
                    assert!(
                        engine.probes <= 2 * per_event,
                        "{mode:?} {name} {a}x{b}: {} probes over {} events",
                        engine.probes,
                        engine.events
                    );
                    assert!(
                        engine.visits <= launched + per_event,
                        "{mode:?} {name} {a}x{b}: {} visits, {launched} launches, {} events",
                        engine.visits,
                        engine.events
                    );
                }
            }
        }
    }
}
