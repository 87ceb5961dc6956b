//! A Beam-like typed pipeline builder that produces a [`LogicalDag`].
//!
//! The builder plays the role Apache Beam plays for the Java Pado
//! implementation (§4): users chain transforms on [`PCollection`] handles,
//! and each transform records an operator plus typed edges in the
//! underlying logical DAG. Dependency types are derived from the transform:
//! `par_do` adds one-to-one edges, side inputs add one-to-many (broadcast)
//! edges, `aggregate` adds a many-to-one edge, and `group_by_key` /
//! `combine_per_key` add many-to-many (shuffle) edges.
//!
//! # Examples
//!
//! ```
//! use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};
//!
//! let p = Pipeline::new();
//! let words = p.read(
//!     "Read",
//!     4,
//!     SourceFn::from_vec(vec![Value::from("a"), Value::from("b"), Value::from("a")]),
//! );
//! let pairs = words.par_do(
//!     "Map",
//!     ParDoFn::per_element(|w, emit| emit(Value::pair(w.clone(), Value::from(1i64)))),
//! );
//! let counts = pairs.combine_per_key("Reduce", CombineFn::sum_i64());
//! counts.sink("Write");
//! let dag = p.build().unwrap();
//! assert_eq!(dag.len(), 4);
//! ```

use std::cell::RefCell;

use crate::error::Result;
use crate::graph::{LogicalDag, OpId};
use crate::operator::{DepType, Operator, OperatorKind, SourceKind};
use crate::udf::{CombineFn, ParDoFn, SourceFn};
use crate::value::Value;

/// A dataflow program under construction.
#[derive(Debug, Default)]
pub struct Pipeline {
    dag: RefCell<LogicalDag>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    fn add_op(&self, op: Operator) -> OpId {
        self.dag.borrow_mut().add_operator(op)
    }

    fn add_edge(&self, src: OpId, dst: OpId, dep: DepType) {
        // Edges created through the builder always reference live operators
        // and are never duplicated, so this cannot fail.
        self.dag
            .borrow_mut()
            .add_edge(src, dst, dep)
            .expect("builder-produced edge is structurally valid");
    }

    /// Adds a `Read` source: `partitions` tasks each produce one partition
    /// of external input data. Placed on transient containers by the
    /// compiler (§3.1.1).
    pub fn read(&self, name: impl Into<String>, partitions: usize, f: SourceFn) -> PCollection<'_> {
        let mut op = Operator::new(
            name,
            OperatorKind::Source {
                kind: SourceKind::Read,
                f,
            },
        );
        op.parallelism = Some(partitions.max(1));
        let id = self.add_op(op);
        PCollection { pipeline: self, id }
    }

    /// Adds a `Created` source materializing `data` in memory on a single
    /// task. Placed on reserved containers by the compiler (§3.1.1).
    pub fn create(&self, name: impl Into<String>, data: Vec<Value>) -> PCollection<'_> {
        let mut op = Operator::new(
            name,
            OperatorKind::Source {
                kind: SourceKind::Created,
                f: SourceFn::from_vec(data),
            },
        );
        op.parallelism = Some(1);
        let id = self.add_op(op);
        PCollection { pipeline: self, id }
    }

    /// Finishes construction, validating the DAG.
    ///
    /// # Errors
    ///
    /// Propagates any structural error found by [`LogicalDag::validate`].
    pub fn build(self) -> Result<LogicalDag> {
        let dag = self.dag.into_inner();
        dag.validate()?;
        Ok(dag)
    }
}

/// A handle to the output of one operator in a [`Pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PCollection<'p> {
    pipeline: &'p Pipeline,
    id: OpId,
}

impl<'p> PCollection<'p> {
    /// The id of the operator producing this collection.
    pub fn op_id(&self) -> OpId {
        self.id
    }

    /// Applies a parallel-do with a one-to-one dependency.
    pub fn par_do(&self, name: impl Into<String>, f: ParDoFn) -> PCollection<'p> {
        let id = self
            .pipeline
            .add_op(Operator::new(name, OperatorKind::ParDo(f)));
        self.pipeline.add_edge(self.id, id, DepType::OneToOne);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Applies a parallel-do whose tasks also receive `side` broadcast as a
    /// one-to-many dependency (e.g. the latest ML model).
    pub fn par_do_with_side(
        &self,
        name: impl Into<String>,
        side: &PCollection<'p>,
        f: ParDoFn,
    ) -> PCollection<'p> {
        let id = self
            .pipeline
            .add_op(Operator::new(name, OperatorKind::ParDo(f)));
        self.pipeline.add_edge(self.id, id, DepType::OneToOne);
        self.pipeline.add_edge(side.id, id, DepType::OneToMany);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Applies a parallel-do reading two main inputs, both one-to-one;
    /// task `i` sees partition `i` of `self` and of `other`.
    pub fn par_do_zip(
        &self,
        name: impl Into<String>,
        other: &PCollection<'p>,
        f: ParDoFn,
    ) -> PCollection<'p> {
        let id = self
            .pipeline
            .add_op(Operator::new(name, OperatorKind::ParDo(f)));
        self.pipeline.add_edge(self.id, id, DepType::OneToOne);
        self.pipeline.add_edge(other.id, id, DepType::OneToOne);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Groups `Pair` records by key (a many-to-many shuffle).
    pub fn group_by_key(&self, name: impl Into<String>) -> PCollection<'p> {
        let id = self
            .pipeline
            .add_op(Operator::new(name, OperatorKind::GroupByKey));
        self.pipeline.add_edge(self.id, id, DepType::ManyToMany);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Combines `Pair` records per key (a many-to-many shuffle with a
    /// commutative/associative combiner, eligible for partial aggregation).
    pub fn combine_per_key(&self, name: impl Into<String>, f: CombineFn) -> PCollection<'p> {
        let id = self.pipeline.add_op(Operator::new(
            name,
            OperatorKind::Combine { f, keyed: true },
        ));
        self.pipeline.add_edge(self.id, id, DepType::ManyToMany);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Globally aggregates all records into one (a many-to-one collection
    /// with a commutative/associative combiner).
    pub fn aggregate(&self, name: impl Into<String>, f: CombineFn) -> PCollection<'p> {
        self.aggregate_with(name, f, 1)
    }

    /// Aggregates through `parallelism` intermediate tasks (one level of a
    /// tree aggregation, as MLlib's `treeAggregate` does): a many-to-one
    /// dependency where producer task `i` feeds consumer `i mod
    /// parallelism`.
    pub fn aggregate_with(
        &self,
        name: impl Into<String>,
        f: CombineFn,
        parallelism: usize,
    ) -> PCollection<'p> {
        let mut op = Operator::new(name, OperatorKind::Combine { f, keyed: false });
        op.parallelism = Some(parallelism.max(1));
        let id = self.pipeline.add_op(op);
        self.pipeline.add_edge(self.id, id, DepType::ManyToOne);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Unions this collection with another (Beam's `Flatten`): task `i`
    /// of the result concatenates partition `i` of both inputs.
    pub fn union(&self, name: impl Into<String>, other: &PCollection<'p>) -> PCollection<'p> {
        self.par_do_zip(
            name,
            other,
            ParDoFn::new(|input, emit| {
                for part in input.mains {
                    for v in part {
                        emit(v.clone());
                    }
                }
            }),
        )
    }

    /// Terminates this collection into a job output sink.
    pub fn sink(&self, name: impl Into<String>) -> PCollection<'p> {
        let id = self
            .pipeline
            .add_op(Operator::new(name, OperatorKind::Sink));
        self.pipeline.add_edge(self.id, id, DepType::OneToOne);
        PCollection {
            pipeline: self.pipeline,
            id,
        }
    }

    /// Sets the task parallelism of the producing operator.
    pub fn with_parallelism(self, n: usize) -> Self {
        self.pipeline.dag.borrow_mut().op_mut(self.id).parallelism = Some(n.max(1));
        self
    }

    /// Marks this collection for task input caching (§3.2.7): executors
    /// that receive it as a broadcast side input keep it in memory, and
    /// the scheduler prefers them for later tasks that read it. Only side
    /// inputs are cached; on a collection consumed through main edges
    /// (`train.cached()` feeding a `par_do`) the mark does nothing.
    pub fn cached(self) -> Self {
        self.pipeline.dag.borrow_mut().op_mut(self.id).cache_input = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident() -> ParDoFn {
        ParDoFn::per_element(|v, e| e(v.clone()))
    }

    #[test]
    fn map_reduce_shape() {
        let p = Pipeline::new();
        let read = p.read("Read", 3, SourceFn::from_vec(vec![Value::Unit]));
        let mapped = read.par_do("Map", ident());
        let reduced = mapped.combine_per_key("Reduce", CombineFn::sum_i64());
        reduced.sink("Sink");
        let dag = p.build().unwrap();
        assert_eq!(dag.len(), 4);
        let edges = dag.edges();
        assert_eq!(edges[0].dep, DepType::OneToOne);
        assert_eq!(edges[1].dep, DepType::ManyToMany);
        assert_eq!(edges[2].dep, DepType::OneToOne);
    }

    #[test]
    fn side_input_adds_broadcast_edge() {
        let p = Pipeline::new();
        let data = p.read("Read", 2, SourceFn::from_vec(vec![Value::Unit]));
        let model = p.create("Model", vec![Value::from(0.0)]);
        let grad_id = data.par_do_with_side("Grad", &model, ident()).op_id();
        let dag = p.build().unwrap();
        let in_edges = dag.in_edges(grad_id);
        assert_eq!(in_edges.len(), 2);
        assert_eq!(in_edges[0].dep, DepType::OneToOne);
        assert_eq!(in_edges[1].dep, DepType::OneToMany);
    }

    #[test]
    fn aggregate_is_many_to_one_parallelism_one() {
        let p = Pipeline::new();
        let data = p.read("Read", 8, SourceFn::from_vec(vec![Value::Unit]));
        let agg = data.aggregate("Agg", CombineFn::sum_f64());
        let id = agg.op_id();
        let dag = p.build().unwrap();
        assert_eq!(dag.in_edges(id)[0].dep, DepType::ManyToOne);
        assert_eq!(dag.op(id).parallelism, Some(1));
    }

    #[test]
    fn zip_has_two_one_to_one_inputs() {
        let p = Pipeline::new();
        let a = p.create("A", vec![Value::from(1i64)]);
        let b = p.create("B", vec![Value::from(2i64)]);
        let z = a.par_do_zip("Zip", &b, ident());
        let id = z.op_id();
        let dag = p.build().unwrap();
        let ins = dag.in_edges(id);
        assert_eq!(ins.len(), 2);
        assert!(ins.iter().all(|e| e.dep == DepType::OneToOne));
    }

    #[test]
    fn with_parallelism_and_cached_set_flags() {
        let p = Pipeline::new();
        let c = p
            .read("Read", 2, SourceFn::from_vec(vec![Value::Unit]))
            .with_parallelism(7)
            .cached();
        let id = c.op_id();
        let dag = p.build().unwrap();
        assert_eq!(dag.op(id).parallelism, Some(7));
        assert!(dag.op(id).cache_input);
    }

    #[test]
    fn group_by_key_is_many_to_many() {
        let p = Pipeline::new();
        let g = p
            .read("Read", 2, SourceFn::from_vec(vec![Value::Unit]))
            .group_by_key("Group");
        let id = g.op_id();
        let dag = p.build().unwrap();
        assert_eq!(dag.in_edges(id)[0].dep, DepType::ManyToMany);
    }

    #[test]
    fn union_concatenates_partitions() {
        let p = Pipeline::new();
        let a = p.create("A", vec![Value::from(1i64)]);
        let b = p.create("B", vec![Value::from(2i64)]);
        let u = a.union("U", &b);
        let id = u.op_id();
        let dag = p.build().unwrap();
        assert_eq!(dag.in_edges(id).len(), 2);
        assert!(dag.in_edges(id).iter().all(|e| e.dep == DepType::OneToOne));
    }

    #[test]
    fn read_parallelism_is_at_least_one() {
        let p = Pipeline::new();
        let r = p.read("Read", 0, SourceFn::from_vec(vec![Value::Unit]));
        let id = r.op_id();
        let dag = p.build().unwrap();
        assert_eq!(dag.op(id).parallelism, Some(1));
    }
}
