//! Physical execution plans — the execution plan generator (§3.2.2).
//!
//! For each Pado Stage, neighboring operators on identical container types
//! connected by one-to-one edges are *fused* into a single physical
//! operator; each fused operator is expanded into parallel tasks; and each
//! logical edge becomes a transfer spec (direct / broadcast / gather /
//! hash shuffle) between tasks.
//!
//! Because a transient operator may belong to multiple stages (see
//! [`mod@crate::compiler::partition`]), fused operators are *per-stage
//! instances* of logical operators, and fusion is decided per instance:
//! a producer fuses into its consumer when that is its only consumer *in
//! the stage being instantiated*. The `Read` of an unrolled iterative job
//! has one logical consumer per iteration but exactly one in each stage
//! copy, so every copy fuses. This is sound because a stage copy is read
//! only from inside its stage: Algorithm 2 absorbs every transient parent
//! into the stage of whichever operator reads it, and a reserved operator
//! is the last member of its own stage.

use std::collections::HashMap;

use pado_dag::{DepType, LogicalDag, OpId, OperatorKind};

use crate::compiler::partition::{StageDag, StageId};
use crate::compiler::placement::Placement;
use crate::error::CompileError;

/// Identifier of a fused physical operator (a dense index into
/// [`PhysicalPlan::fops`]).
pub type FopId = usize;

/// Where a plan edge's data lands in the consumer's task input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSlot {
    /// The `i`-th main input (one-to-one, many-to-one, or many-to-many).
    Main(usize),
    /// The broadcast side input (one-to-many).
    Side,
}

/// A fused physical operator: a chain of logical operators executed
/// back-to-back by each task.
#[derive(Debug, Clone)]
pub struct Fop {
    /// Plan-wide id.
    pub id: FopId,
    /// Owning stage.
    pub stage: StageId,
    /// Fused logical operators, in execution order. Only `chain[0]` has
    /// external inputs.
    pub chain: Vec<OpId>,
    /// Container type this operator's tasks run on.
    pub placement: Placement,
    /// Number of parallel tasks.
    pub parallelism: usize,
}

impl Fop {
    /// The logical operator producing this fop's output.
    pub fn tail(&self) -> OpId {
        *self.chain.last().expect("chain is never empty")
    }

    /// The logical operator receiving this fop's input.
    pub fn head(&self) -> OpId {
        self.chain[0]
    }
}

/// A physical data transfer between two fused operators.
#[derive(Debug, Clone, Copy)]
pub struct PlanEdge {
    /// Producer fop.
    pub src: FopId,
    /// Consumer fop.
    pub dst: FopId,
    /// Dependency type (decides the routing pattern).
    pub dep: DepType,
    /// Input slot on the consumer.
    pub slot: InputSlot,
    /// Whether the producer was marked `cached()` (task input caching,
    /// §3.2.7). The runtime acts on it for broadcast side inputs only
    /// ([`InputSlot::Side`]); on a main edge the flag is carried but
    /// nothing caches.
    pub cache: bool,
    /// Whether producer and consumer live in different stages (the data
    /// is then read from preserved stage outputs on reserved executors).
    pub cross_stage: bool,
    /// Which member of the consumer's fused chain this edge feeds. Main
    /// edges always feed member `0`; broadcast side inputs may feed
    /// interior members of a fused chain.
    pub member: usize,
}

/// Adjacency tables over [`PhysicalPlan::edges`] and
/// [`PhysicalPlan::fops`], built once by [`build_plan`]: the master asks
/// "which edges enter this fop" once per pending task per scheduling
/// pass, which a filter-scan of every edge answers too slowly.
#[derive(Debug, Clone, Default)]
struct PlanIndex {
    /// Per fop, its in-edges: main slots first (by slot index), then side.
    ins: Vec<Vec<PlanEdge>>,
    /// Per fop, its out-edges in [`PhysicalPlan::edges`] order.
    outs: Vec<Vec<PlanEdge>>,
    /// Per stage, its fops in [`PhysicalPlan::fops`] order.
    stage_fops: Vec<Vec<FopId>>,
}

impl PlanIndex {
    fn new(fops: &[Fop], edges: &[PlanEdge], n_stages: usize) -> Self {
        let mut index = PlanIndex {
            ins: vec![Vec::new(); fops.len()],
            outs: vec![Vec::new(); fops.len()],
            stage_fops: vec![Vec::new(); n_stages],
        };
        for e in edges {
            index.ins[e.dst].push(*e);
            index.outs[e.src].push(*e);
        }
        for ins in &mut index.ins {
            ins.sort_by_key(|e| match e.slot {
                InputSlot::Main(i) => (0, i),
                InputSlot::Side => (1, 0),
            });
        }
        for f in fops {
            index.stage_fops[f.stage].push(f.id);
        }
        index
    }
}

/// A complete physical plan for one job.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Fused operators, grouped by stage in stage-topological order.
    pub fops: Vec<Fop>,
    /// Transfers between fused operators.
    pub edges: Vec<PlanEdge>,
    /// The stage DAG the plan was derived from.
    pub stage_dag: StageDag,
    /// Placement of every logical operator.
    pub placement: Vec<Placement>,
    index: PlanIndex,
}

impl PhysicalPlan {
    /// In-edges of a fop, ordered with main slots first (by slot index).
    pub fn in_edges(&self, fop: FopId) -> Vec<PlanEdge> {
        self.ins(fop).to_vec()
    }

    /// Out-edges of a fop.
    pub fn out_edges(&self, fop: FopId) -> Vec<PlanEdge> {
        self.outs(fop).to_vec()
    }

    /// Fops of the given stage, in topological order within the stage.
    pub fn stage_fops(&self, stage: StageId) -> Vec<FopId> {
        self.fops_of(stage).to_vec()
    }

    /// [`PhysicalPlan::in_edges`] by reference, for per-event callers.
    pub fn ins(&self, fop: FopId) -> &[PlanEdge] {
        &self.index.ins[fop]
    }

    /// [`PhysicalPlan::out_edges`] by reference.
    pub fn outs(&self, fop: FopId) -> &[PlanEdge] {
        &self.index.outs[fop]
    }

    /// [`PhysicalPlan::stage_fops`] by reference.
    pub fn fops_of(&self, stage: StageId) -> &[FopId] {
        &self.index.stage_fops[stage]
    }

    /// Total number of tasks across all fops (the paper's "original
    /// tasks" denominator for relaunch ratios).
    pub fn total_tasks(&self) -> usize {
        self.fops.iter().map(|f| f.parallelism).sum()
    }

    /// Renders the plan in Graphviz `dot` format: one cluster per Pado
    /// Stage, fops as nodes (labelled with their fused chain, placement,
    /// and parallelism), transfers as edges.
    pub fn to_dot(&self, dag: &LogicalDag) -> String {
        let mut s = String::from("digraph physical {\n  rankdir=LR;\n  compound=true;\n");
        for stage in &self.stage_dag.stages {
            s.push_str(&format!(
                "  subgraph cluster_{} {{\n    label=\"stage {}\";\n",
                stage.id, stage.id
            ));
            for fop in self.fops.iter().filter(|f| f.stage == stage.id) {
                let chain: Vec<&str> = fop
                    .chain
                    .iter()
                    .map(|&op| dag.op(op).name.as_str())
                    .collect();
                let style = match fop.placement {
                    Placement::Reserved => "filled",
                    Placement::Transient => "dashed",
                };
                s.push_str(&format!(
                    "    f{} [label=\"{} x{}\" style={}];\n",
                    fop.id,
                    chain.join(" -> "),
                    fop.parallelism,
                    style
                ));
            }
            s.push_str("  }\n");
        }
        for e in &self.edges {
            s.push_str(&format!(
                "  f{} -> f{} [label=\"{}\"];\n",
                e.src, e.dst, e.dep
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Default task parallelism for operators that neither declare one nor can
/// inherit one (e.g. shuffle consumers).
pub const DEFAULT_PARALLELISM: usize = 8;

/// Options controlling plan generation.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Parallelism assigned to shuffle consumers without a declared value.
    pub default_parallelism: usize,
    /// Whether to fuse one-to-one chains (disable to inspect unfused
    /// plans; ablation benches compare both).
    pub fusion: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            default_parallelism: DEFAULT_PARALLELISM,
            fusion: true,
        }
    }
}

/// Builds the physical plan for a placed, partitioned logical DAG.
///
/// # Errors
///
/// Fails if parallelism cannot be resolved for some operator.
pub fn build_plan(
    dag: &LogicalDag,
    placement: &[Placement],
    stage_dag: &StageDag,
    config: &PlanConfig,
) -> Result<PhysicalPlan, CompileError> {
    let order = dag.topo_sort()?;
    let topo_pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();

    // Resolve parallelism per (stage, op) instance. Instances of the same
    // logical operator share the resolution, computed in topological order.
    let par = resolve_all_parallelism(dag, config)?;

    // Instantiate (stage, op) fops, fusing one-to-one chains.
    let mut fops: Vec<Fop> = Vec::new();
    let mut instance: HashMap<(StageId, OpId), FopId> = HashMap::new();
    for stage in &stage_dag.stages {
        // Members in topological order.
        let mut members = stage.ops.clone();
        members.sort_by_key(|op| topo_pos[op]);
        for &op in &members {
            // Main (non-broadcast) in-edges decide fusability; broadcast
            // side inputs may be wired into interior chain members.
            let mains: Vec<_> = dag
                .in_edges(op)
                .into_iter()
                .filter(|e| e.dep != DepType::OneToMany)
                .collect();
            let fused_into = if config.fusion && mains.len() == 1 {
                let e = mains[0];
                let in_stage = stage.contains(e.src);
                let same_side = placement[e.src] == placement[op];
                // Consumers are counted over this stage's copy of the
                // producer, not over the logical DAG: a copy is read only
                // from inside its stage, so a producer shared by k stages
                // has one reader in each. Side edges count as consumers.
                let producer_single_consumer = dag
                    .out_edges(e.src)
                    .iter()
                    .filter(|o| stage.contains(o.dst))
                    .count()
                    == 1;
                let same_par = par[e.src] == par[op];
                if e.dep == DepType::OneToOne
                    && in_stage
                    && same_side
                    && producer_single_consumer
                    && same_par
                {
                    instance.get(&(stage.id, e.src)).copied()
                } else {
                    None
                }
            } else {
                None
            };
            match fused_into {
                Some(fid) => {
                    fops[fid].chain.push(op);
                    instance.insert((stage.id, op), fid);
                }
                None => {
                    let fid = fops.len();
                    fops.push(Fop {
                        id: fid,
                        stage: stage.id,
                        chain: vec![op],
                        placement: placement[op],
                        parallelism: par[op],
                    });
                    instance.insert((stage.id, op), fid);
                }
            }
        }
    }

    // Build plan edges: main edges of the chain head, plus broadcast side
    // edges of every chain member. Producers resolve to the fop instance
    // in the same stage if the producer is a member, otherwise to the
    // producer's owning reserved stage.
    let mut edges: Vec<PlanEdge> = Vec::new();
    for fop in &fops {
        for (pos, op) in fop.chain.iter().enumerate() {
            let mut main_slot = 0usize;
            for e in dag.in_edges(*op) {
                let slot = if e.dep == DepType::OneToMany {
                    InputSlot::Side
                } else {
                    if pos > 0 {
                        continue; // Interior main inputs come from the chain.
                    }
                    let s = InputSlot::Main(main_slot);
                    main_slot += 1;
                    s
                };
                let stage = &stage_dag.stages[fop.stage];
                let (src_fop, cross_stage) = if stage.contains(e.src) {
                    (instance[&(fop.stage, e.src)], false)
                } else {
                    let src_stage = stage_dag
                        .stage_of_anchor(e.src)
                        .or_else(|| stage_dag.stages_containing(e.src).first().copied())
                        .expect("reserved producer has an owning stage");
                    (instance[&(src_stage, e.src)], true)
                };
                edges.push(PlanEdge {
                    src: src_fop,
                    dst: fop.id,
                    dep: e.dep,
                    slot,
                    cache: dag.op(e.src).cache_input,
                    cross_stage,
                    member: pos,
                });
            }
        }
    }

    let index = PlanIndex::new(&fops, &edges, stage_dag.stages.len());
    Ok(PhysicalPlan {
        fops,
        edges,
        stage_dag: stage_dag.clone(),
        placement: placement.to_vec(),
        index,
    })
}

/// Resolves every operator's parallelism in topological order.
///
/// # Errors
///
/// Fails when an operator's parallelism cannot be resolved.
pub fn resolve_all_parallelism(
    dag: &LogicalDag,
    config: &PlanConfig,
) -> Result<Vec<usize>, CompileError> {
    let order = dag.topo_sort()?;
    let mut par: Vec<Option<usize>> = vec![None; dag.len()];
    for &op in &order {
        par[op] = Some(resolve_parallelism(dag, &par, op, config)?);
    }
    Ok(par.into_iter().map(|p| p.expect("resolved")).collect())
}

/// Resolves one operator's parallelism: declared > inherited (one-to-one)
/// > shuffle default > 1 for global aggregates.
fn resolve_parallelism(
    dag: &LogicalDag,
    resolved: &[Option<usize>],
    op: OpId,
    config: &PlanConfig,
) -> Result<usize, CompileError> {
    if let Some(p) = dag.op(op).parallelism {
        return Ok(p);
    }
    let in_edges = dag.in_edges(op);
    // Inherit across the first one-to-one main edge.
    for e in &in_edges {
        if e.dep == DepType::OneToOne {
            if let Some(p) = resolved[e.src] {
                return Ok(p);
            }
        }
    }
    if in_edges.iter().any(|e| e.dep == DepType::ManyToOne) {
        return Ok(1);
    }
    if in_edges.iter().any(|e| e.dep == DepType::ManyToMany) {
        return Ok(config.default_parallelism);
    }
    if in_edges.iter().any(|e| e.dep == DepType::OneToMany) {
        return Ok(config.default_parallelism);
    }
    // A source without declared parallelism.
    match &dag.op(op).kind {
        OperatorKind::Source { .. } => Ok(1),
        _ => Err(CompileError::UnresolvedParallelism(op)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::partition::partition;
    use crate::compiler::placement::place_operators;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};

    fn ident() -> ParDoFn {
        ParDoFn::per_element(|v, e| e(v.clone()))
    }

    fn compile(dag: &LogicalDag) -> PhysicalPlan {
        let pl = place_operators(dag).unwrap();
        let sd = partition(dag, &pl).unwrap();
        build_plan(dag, &pl, &sd, &PlanConfig::default()).unwrap()
    }

    #[test]
    fn map_reduce_fuses_read_and_map() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        let map = read.par_do("Map", ident());
        let reduce = map.combine_per_key("Reduce", CombineFn::sum_i64());
        reduce.sink("Sink");
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        // Read+Map fused (transient), Reduce alone, Sink alone.
        let chains: Vec<usize> = plan.fops.iter().map(|f| f.chain.len()).collect();
        assert_eq!(chains, vec![2, 1, 1]);
        assert_eq!(plan.fops[0].placement, Placement::Transient);
        assert_eq!(plan.fops[0].parallelism, 4);
        // Shuffle edge between fused map and reduce.
        let e = plan.in_edges(1);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].dep, DepType::ManyToMany);
        assert!(!e[0].cross_stage);
        // Sink reads across the stage boundary.
        let e = plan.in_edges(2);
        assert!(e[0].cross_stage);
    }

    #[test]
    fn fusion_can_be_disabled() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        read.par_do("Map", ident())
            .combine_per_key("Reduce", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let pl = place_operators(&dag).unwrap();
        let sd = partition(&dag, &pl).unwrap();
        let cfg = PlanConfig {
            fusion: false,
            ..PlanConfig::default()
        };
        let plan = build_plan(&dag, &pl, &sd, &cfg).unwrap();
        assert!(plan.fops.iter().all(|f| f.chain.len() == 1));
        assert_eq!(plan.fops.len(), 3);
    }

    #[test]
    fn fan_out_is_not_fused() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        let a = read.par_do("A", ident());
        a.combine_per_key("AggA", CombineFn::sum_i64());
        a.combine_per_key("AggB", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        // `A` has two consumers; `Read -> A` still fuses (A has a single
        // in-edge and Read a single consumer), but A is instantiated per
        // stage, giving two copies of the fused chain.
        let transient_fops: Vec<_> = plan
            .fops
            .iter()
            .filter(|f| f.placement == Placement::Transient)
            .collect();
        assert_eq!(transient_fops.len(), 2);
        assert!(transient_fops.iter().all(|f| f.chain.len() == 2));
    }

    /// `Read` feeding one gradient per unrolled iteration: `iters` logical
    /// consumers, one per stage copy.
    fn unrolled_mlr(iters: usize) -> LogicalDag {
        let p = Pipeline::new();
        let train = p.read("Read", 8, SourceFn::from_vec(vec![Value::Unit]));
        let mut model = p.create("Model 0", vec![Value::from(0.0)]);
        for k in 0..iters {
            let grad = train.par_do_with_side(format!("Grad {k}"), &model, ident());
            let agg = grad.aggregate(format!("Agg {k}"), CombineFn::sum_vector());
            model = agg.par_do_zip(format!("Model {}", k + 1), &model, ident());
        }
        model.sink("Out");
        p.build().unwrap()
    }

    #[test]
    fn a_producer_shared_between_stages_fuses_in_each() {
        let iters = 3;
        let dag = unrolled_mlr(iters);
        let plan = compile(&dag);
        let name = |op: OpId| dag.op(op).name.as_str();
        let with_read: Vec<&Fop> = plan
            .fops
            .iter()
            .filter(|f| f.chain.iter().any(|&op| name(op) == "Read"))
            .collect();
        assert_eq!(with_read.len(), iters, "one copy of Read per iteration");
        for (k, fop) in with_read.iter().enumerate() {
            let chain: Vec<&str> = fop.chain.iter().map(|&op| name(op)).collect();
            assert_eq!(chain, ["Read", &format!("Grad {k}")]);
            assert_eq!(fop.placement, Placement::Transient);
            // What is left to transfer is the model, into the gradient.
            let ins = plan.in_edges(fop.id);
            assert_eq!(ins.len(), 1);
            assert_eq!((ins[0].slot, ins[0].member), (InputSlot::Side, 1));
            assert!(ins[0].cross_stage);
        }
        // Model 0 and Out, and per iteration 8 gradients, Agg, Model.
        assert_eq!(plan.total_tasks(), 2 + iters * (8 + 1 + 1));
        assert_eq!(plan.fops.len(), 2 + iters * 3);
    }

    #[test]
    fn a_producer_with_one_consumer_in_each_of_two_stages_fuses_twice() {
        // ALS's head: one read keyed two ways, each keying shuffled into
        // a reserved aggregate of its own.
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        read.par_do("Key By User", ident())
            .combine_per_key("Users", CombineFn::sum_i64());
        read.par_do("Key By Item", ident())
            .combine_per_key("Items", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        let chains: Vec<Vec<&str>> = plan
            .fops
            .iter()
            .map(|f| f.chain.iter().map(|&op| dag.op(op).name.as_str()).collect())
            .collect();
        assert_eq!(
            chains,
            [
                vec!["Read", "Key By User"],
                vec!["Users"],
                vec!["Read", "Key By Item"],
                vec!["Items"],
            ]
        );
        assert_eq!(plan.total_tasks(), 2 * (4 + DEFAULT_PARALLELISM));
    }

    #[test]
    fn two_consumers_inside_one_stage_block_fusion() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        let a = read.par_do("A", ident());
        let b = read.par_do("B", ident());
        a.par_do_zip("Join", &b, ident())
            .aggregate("Agg", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        assert_eq!(plan.stage_dag.stages.len(), 1, "one stage holds all five");
        // Read's output has two readers in that stage, so it stays a
        // block of its own; Join has two main inputs.
        assert!(plan.fops.iter().all(|f| f.chain.len() == 1));
        assert_eq!(plan.fops.len(), 5);
    }

    #[test]
    fn declared_parallelism_mismatch_blocks_fusion() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        read.par_do("Map", ident()).with_parallelism(8);
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        assert!(plan.fops.iter().all(|f| f.chain.len() == 1));
    }

    #[test]
    fn mlr_plan_side_input_slots() {
        let p = Pipeline::new();
        let train = p.read("Read", 8, SourceFn::from_vec(vec![Value::Unit]));
        let model0 = p.create("Model0", vec![Value::from(0.0)]);
        let grad = train.par_do_with_side("Grad", &model0, ident());
        let agg = grad.aggregate("Agg", CombineFn::sum_vector());
        agg.par_do_zip("Model1", &model0, ident());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        // Find the fop containing Grad (fused with Read).
        let grad_fop = plan
            .fops
            .iter()
            .find(|f| f.chain.len() == 2)
            .expect("read+grad fused");
        let ins = plan.in_edges(grad_fop.id);
        assert_eq!(ins.len(), 1, "only the broadcast side input is external");
        assert_eq!(ins[0].slot, InputSlot::Side);
        assert_eq!(ins[0].member, 1, "side input feeds the fused Grad member");
        assert!(ins[0].cross_stage);
        // Model1 has two main inputs in declaration order.
        let m1_fop = plan
            .fops
            .iter()
            .find(|f| plan.in_edges(f.id).len() == 2)
            .expect("model1 fop");
        let ins = plan.in_edges(m1_fop.id);
        assert_eq!(ins[0].slot, InputSlot::Main(0));
        assert_eq!(ins[1].slot, InputSlot::Main(1));
    }

    #[test]
    fn aggregate_parallelism_is_one_and_shuffle_default_applies() {
        let p = Pipeline::new();
        let read = p.read("Read", 6, SourceFn::from_vec(vec![Value::Unit]));
        let gbk = read.group_by_key("G");
        let agg = read.aggregate("A", CombineFn::sum_i64());
        let (g, a) = (gbk.op_id(), agg.op_id());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        let g_fop = plan.fops.iter().find(|f| f.chain == vec![g]).unwrap();
        let a_fop = plan.fops.iter().find(|f| f.chain == vec![a]).unwrap();
        assert_eq!(g_fop.parallelism, DEFAULT_PARALLELISM);
        assert_eq!(a_fop.parallelism, 1);
    }

    #[test]
    fn cache_flag_propagates_to_edges() {
        let p = Pipeline::new();
        let data = p.read("Read", 2, SourceFn::from_vec(vec![Value::Unit]));
        let model = p.create("Model", vec![Value::from(0.0)]).cached();
        let grad = data.par_do_with_side("Grad", &model, ident());
        grad.aggregate("Agg", CombineFn::sum_vector());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        let cached: Vec<_> = plan.edges.iter().filter(|e| e.cache).collect();
        assert_eq!(cached.len(), 1);
        assert_eq!(cached[0].slot, InputSlot::Side);
    }

    #[test]
    fn total_tasks_counts_all_fops() {
        let p = Pipeline::new();
        let read = p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]));
        read.group_by_key("G").with_parallelism(3);
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        assert_eq!(plan.total_tasks(), 4 + 3);
    }

    #[test]
    fn shared_transient_producer_instantiated_per_stage() {
        let p = Pipeline::new();
        let read = p.read("Read", 2, SourceFn::from_vec(vec![Value::Unit]));
        read.combine_per_key("A", CombineFn::sum_i64());
        read.combine_per_key("B", CombineFn::sum_i64());
        let dag = p.build().unwrap();
        let plan = compile(&dag);
        let read_instances = plan.fops.iter().filter(|f| f.chain.contains(&0)).count();
        assert_eq!(read_instances, 2);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::compiler::{partition, place_operators};
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};

    #[test]
    fn dot_renders_stages_and_edges() {
        let p = Pipeline::new();
        p.read("Read", 4, SourceFn::from_vec(vec![Value::Unit]))
            .par_do("Map", ParDoFn::per_element(|v, e| e(v.clone())))
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .sink("Sink");
        let dag = p.build().unwrap();
        let pl = place_operators(&dag).unwrap();
        let sd = partition(&dag, &pl).unwrap();
        let plan = build_plan(&dag, &pl, &sd, &PlanConfig::default()).unwrap();
        let dot = plan.to_dot(&dag);
        assert!(dot.contains("digraph physical"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("Read -> Map"));
        assert!(dot.contains("many-to-many"));
        assert!(dot.contains("dashed"), "transient fops are dashed");
        assert!(dot.contains("filled"), "reserved fops are filled");
    }
}
