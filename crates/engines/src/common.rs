//! Shared infrastructure for the simulated execution engines.
//!
//! All three engines (Pado, Spark, Spark-checkpoint) execute the *same*
//! physical plan — produced by the real Pado compiler — over the same
//! simulated cluster, differing only in placement policy, data movement
//! (push vs. pull vs. checkpoint), and recovery semantics. This module
//! holds the cost annotations, slot accounting, and run metrics they
//! share.

use std::collections::{BTreeMap, HashMap};

use pado_core::compiler::PhysicalPlan;
use pado_dag::OpId;
use pado_simcluster::{ContainerId, SimTime};

/// Cost annotations for one logical operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    /// Compute time per task, microseconds.
    pub compute_us: u64,
    /// Bytes each task reads from the external store (`Read` sources).
    pub read_store_bytes: f64,
    /// Bytes each task outputs.
    pub output_bytes: f64,
}

/// Workload cost model: per-operator costs plus partial-aggregation
/// factors for edges into combine operators.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    per_op: HashMap<OpId, OpCost>,
    /// Fraction of bytes actually pushed along a combine-bound edge after
    /// transient-side partial aggregation, keyed by the *consumer*
    /// logical operator (§3.2.7). `1.0` means no reduction.
    preagg_factor: HashMap<OpId, f64>,
}

impl CostModel {
    /// Creates an empty model (zero costs).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Sets the cost of a logical operator.
    pub fn set(&mut self, op: OpId, cost: OpCost) -> &mut Self {
        self.per_op.insert(op, cost);
        self
    }

    /// Sets the partial-aggregation factor of edges into `consumer`.
    pub fn set_preagg(&mut self, consumer: OpId, factor: f64) -> &mut Self {
        self.preagg_factor.insert(consumer, factor.clamp(0.0, 1.0));
        self
    }

    /// The cost of a logical operator (zero if unset).
    pub fn of(&self, op: OpId) -> OpCost {
        self.per_op.get(&op).copied().unwrap_or_default()
    }

    /// The partial-aggregation factor for edges into `consumer`.
    pub fn preagg_of(&self, consumer: OpId) -> Option<f64> {
        self.preagg_factor.get(&consumer).copied()
    }
}

/// Per-fop costs derived from a [`CostModel`] and a physical plan: a fused
/// chain's compute time is the sum over its members; its read volume is
/// the head's; its output volume is the tail's.
#[derive(Debug, Clone)]
pub struct FopCosts {
    /// Compute time per task, microseconds.
    pub compute_us: Vec<u64>,
    /// Store bytes read per task.
    pub read_bytes: Vec<f64>,
    /// Output bytes per task.
    pub out_bytes: Vec<f64>,
    /// Partial-aggregation factor per fop (for its *output* edges), when
    /// all consumers are the same combine operator.
    pub preagg: Vec<Option<f64>>,
}

impl FopCosts {
    /// Derives per-fop costs.
    pub fn derive(plan: &PhysicalPlan, model: &CostModel) -> Self {
        let n = plan.fops.len();
        let mut compute_us = vec![0u64; n];
        let mut read_bytes = vec![0.0; n];
        let mut out_bytes = vec![0.0; n];
        let mut preagg = vec![None; n];
        for fop in &plan.fops {
            compute_us[fop.id] = fop.chain.iter().map(|&op| model.of(op).compute_us).sum();
            read_bytes[fop.id] = model.of(fop.head()).read_store_bytes;
            out_bytes[fop.id] = model.of(fop.tail()).output_bytes;
            let consumer_factors: Vec<Option<f64>> = plan
                .out_edges(fop.id)
                .iter()
                .map(|e| model.preagg_of(plan.fops[e.dst].head()))
                .collect();
            if !consumer_factors.is_empty() && consumer_factors.iter().all(|f| f.is_some()) {
                preagg[fop.id] = consumer_factors[0];
            }
        }
        FopCosts {
            compute_us,
            read_bytes,
            out_bytes,
            preagg,
        }
    }
}

/// Slot accounting over containers.
#[derive(Debug, Default)]
pub struct SlotPool {
    free: BTreeMap<ContainerId, usize>,
    rr: usize,
}

impl SlotPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        SlotPool::default()
    }

    /// Registers a container with `slots` free slots.
    pub fn add(&mut self, c: ContainerId, slots: usize) {
        self.free.insert(c, slots);
    }

    /// Removes a container (evicted) and forgets its slots.
    pub fn remove(&mut self, c: ContainerId) {
        self.free.remove(&c);
    }

    /// Acquires a slot round-robin; returns the chosen container.
    pub fn acquire_any(&mut self) -> Option<ContainerId> {
        self.acquire_where(|_| true)
    }

    /// Acquires a slot round-robin among containers matching `pred`.
    pub fn acquire_where<F: Fn(ContainerId) -> bool>(&mut self, pred: F) -> Option<ContainerId> {
        let with_free: Vec<ContainerId> = self
            .free
            .iter()
            .filter(|(&c, &n)| n > 0 && pred(c))
            .map(|(&c, _)| c)
            .collect();
        if with_free.is_empty() {
            return None;
        }
        let c = with_free[self.rr % with_free.len()];
        self.rr += 1;
        *self.free.get_mut(&c).expect("candidate exists") -= 1;
        Some(c)
    }

    /// Acquires a slot on a specific container.
    pub fn acquire_on(&mut self, c: ContainerId) -> bool {
        match self.free.get_mut(&c) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Releases a slot on a container (no-op if the container is gone).
    pub fn release(&mut self, c: ContainerId) {
        if let Some(n) = self.free.get_mut(&c) {
            *n += 1;
        }
    }

    /// Whether any container has a free slot.
    pub fn any_free(&self) -> bool {
        self.free.values().any(|&n| n > 0)
    }

    /// Total free slots over containers matching `pred`.
    pub fn free_slots_where<F: Fn(ContainerId) -> bool>(&self, pred: F) -> usize {
        self.free
            .iter()
            .filter(|(&c, _)| pred(c))
            .map(|(_, &n)| n)
            .sum()
    }

    /// Free slots on one container.
    pub fn free_on(&self, c: ContainerId) -> usize {
        self.free.get(&c).copied().unwrap_or(0)
    }
}

/// Metrics of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Job completion time, microseconds of virtual time.
    pub jct_us: SimTime,
    /// Tasks in the plan.
    pub original_tasks: usize,
    /// Task launches, including relaunches.
    pub tasks_launched: usize,
    /// Launches beyond first attempts.
    pub relaunched_tasks: usize,
    /// Evictions that occurred during the run.
    pub evictions: usize,
    /// Bytes moved over the network to completion.
    pub bytes_transferred: f64,
    /// Bytes written to stable storage (Spark-checkpoint only).
    pub bytes_checkpointed: f64,
    /// Bytes pushed from transient to reserved executors (Pado only).
    pub bytes_pushed: f64,
}

// Note: `RunMetrics` deliberately carries *no* mirror of the runtime's
// failure/transport/memory counters (task failures, speculation, message
// drops, heartbeats, spills, deferred pushes, store occupancy). The
// simulated engines model none of those — their executors have infinite
// memory — and the real runtime now derives every such counter from its
// event journal (`EventJournal::derive_metrics`), so hand-mirrored zero
// fields here could only drift from the source of truth.

impl RunMetrics {
    /// Job completion time in minutes.
    pub fn jct_minutes(&self) -> f64 {
        self.jct_us as f64 / 60_000_000.0
    }

    /// Relaunched-to-original task ratio.
    pub fn relaunch_ratio(&self) -> f64 {
        if self.original_tasks == 0 {
            0.0
        } else {
            self.relaunched_tasks as f64 / self.original_tasks as f64
        }
    }
}

/// An error from a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained before the job completed (a scheduling
    /// deadlock — indicates an engine bug or an impossible cluster).
    Stalled {
        /// Tasks completed when the simulation stalled.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The job exceeded the simulation time limit.
    TimedOut,
    /// The dataflow program failed to compile.
    Compile(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { completed, total } => {
                write!(f, "simulation stalled at {completed}/{total} tasks")
            }
            SimError::TimedOut => write!(f, "simulation exceeded its time limit"),
            SimError::Compile(e) => write!(f, "compilation failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_pool_round_robins() {
        let mut p = SlotPool::new();
        p.add(1, 1);
        p.add(2, 1);
        let a = p.acquire_any().unwrap();
        let b = p.acquire_any().unwrap();
        assert_ne!(a, b);
        assert!(p.acquire_any().is_none());
        p.release(a);
        assert_eq!(p.acquire_any(), Some(a));
    }

    #[test]
    fn slot_pool_specific_acquire() {
        let mut p = SlotPool::new();
        p.add(5, 2);
        assert!(p.acquire_on(5));
        assert!(p.acquire_on(5));
        assert!(!p.acquire_on(5));
        assert!(!p.acquire_on(9));
        p.release(5);
        assert!(p.acquire_on(5));
    }

    #[test]
    fn removed_container_release_is_noop() {
        let mut p = SlotPool::new();
        p.add(1, 1);
        assert!(p.acquire_on(1));
        p.remove(1);
        p.release(1);
        assert!(!p.any_free());
    }

    #[test]
    fn cost_model_defaults_to_zero() {
        let m = CostModel::new();
        assert_eq!(m.of(3).compute_us, 0);
        assert!(m.preagg_of(3).is_none());
    }

    #[test]
    fn run_metrics_conversions() {
        let m = RunMetrics {
            jct_us: 120_000_000,
            original_tasks: 4,
            relaunched_tasks: 1,
            ..Default::default()
        };
        assert!((m.jct_minutes() - 2.0).abs() < 1e-9);
        assert!((m.relaunch_ratio() - 0.25).abs() < 1e-9);
    }
}

#[cfg(test)]
mod cost_tests {
    use super::*;
    use pado_core::compiler::compile;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn};

    #[test]
    fn fop_costs_sum_over_fused_chains() {
        let p = Pipeline::new();
        let read = p.read("R", 4, SourceFn::from_vec(vec![]));
        let map = read.par_do("M", ParDoFn::per_element(|v, e| e(v.clone())));
        let red = map.combine_per_key("C", CombineFn::sum_i64());
        let mut model = CostModel::new();
        model
            .set(
                read.op_id(),
                OpCost {
                    compute_us: 10,
                    read_store_bytes: 100.0,
                    output_bytes: 50.0,
                },
            )
            .set(
                map.op_id(),
                OpCost {
                    compute_us: 7,
                    read_store_bytes: 0.0,
                    output_bytes: 20.0,
                },
            )
            .set_preagg(red.op_id(), 0.5);
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let costs = FopCosts::derive(&plan, &model);
        // Fop 0 is the fused Read->Map chain.
        assert_eq!(costs.compute_us[0], 17, "chain compute is the sum");
        assert_eq!(costs.read_bytes[0], 100.0, "head's store read");
        assert_eq!(costs.out_bytes[0], 20.0, "tail's output");
        assert_eq!(costs.preagg[0], Some(0.5), "combine-bound edge factor");
        assert_eq!(costs.preagg[1], None, "the combine itself has no factor");
    }

    #[test]
    fn mixed_consumers_disable_preagg() {
        let p = Pipeline::new();
        let read = p.read("R", 4, SourceFn::from_vec(vec![]));
        let agg = read.aggregate("A", CombineFn::sum_i64());
        read.group_by_key("G");
        let mut model = CostModel::new();
        model.set_preagg(agg.op_id(), 0.3);
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let costs = FopCosts::derive(&plan, &model);
        // Read is instantiated once per consuming stage: the instance
        // feeding the combine pre-aggregates, the one feeding the
        // group-by-key does not.
        let factors: Vec<Option<f64>> = plan
            .fops
            .iter()
            .filter(|f| f.chain.contains(&0))
            .map(|f| costs.preagg[f.id])
            .collect();
        assert_eq!(factors.len(), 2);
        assert!(factors.contains(&Some(0.3)));
        assert!(factors.contains(&None));
    }
}
