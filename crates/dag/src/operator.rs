//! Operators and dependency types of a logical DAG (§2.2 of the paper).

use std::fmt;

use crate::udf::{CombineFn, ParDoFn, SourceFn};

/// The four dependency types between a parent and a child operator.
///
/// The type of an edge determines how parent task outputs flow into child
/// tasks and, crucially, how expensive an eviction of a child task is: a
/// task with a many-to-one or many-to-many in-edge depends on *multiple*
/// parent tasks, so losing it can cascade into many recomputations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepType {
    /// Each parent task feeds exactly one child task and vice versa.
    OneToOne,
    /// Every parent task's output is broadcast to all child tasks.
    OneToMany,
    /// The outputs of all parent tasks are collected into a child task.
    ManyToOne,
    /// Parent and child tasks are fully co-related (e.g. a hash shuffle).
    ManyToMany,
}

impl DepType {
    /// Whether an eviction of a child task triggers recomputation of
    /// multiple parent tasks (the paper's placement criterion).
    pub fn is_wide(self) -> bool {
        matches!(self, DepType::ManyToOne | DepType::ManyToMany)
    }
}

impl fmt::Display for DepType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepType::OneToOne => "one-to-one",
            DepType::OneToMany => "one-to-many",
            DepType::ManyToOne => "many-to-one",
            DepType::ManyToMany => "many-to-many",
        };
        f.write_str(s)
    }
}

/// How a source operator obtains its data (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Reads large input data from external storage; placed on transient
    /// containers so many containers can load it in parallel.
    Read,
    /// Creates relatively lightweight data in memory; placed on reserved
    /// containers so it is never lost.
    Created,
}

/// The computational kind of an operator.
#[derive(Debug, Clone)]
pub enum OperatorKind {
    /// A data source.
    Source {
        /// Read vs. created (drives placement).
        kind: SourceKind,
        /// Produces the records of each partition.
        f: SourceFn,
    },
    /// A parallel-do transformation.
    ParDo(ParDoFn),
    /// A commutative/associative combine; `keyed` combiners merge per key
    /// over `Pair` records, un-keyed combiners merge globally.
    Combine {
        /// The combiner.
        f: CombineFn,
        /// Whether merging is per key.
        keyed: bool,
    },
    /// Groups `Pair` records by key into `Pair(key, List(values))`.
    GroupByKey,
    /// A terminal operator collecting its input as the job output.
    Sink,
}

impl OperatorKind {
    /// Whether this is a source operator.
    pub fn is_source(&self) -> bool {
        matches!(self, OperatorKind::Source { .. })
    }

    /// Whether this is a sink operator.
    pub fn is_sink(&self) -> bool {
        matches!(self, OperatorKind::Sink)
    }

    /// Whether this operator's outputs may be partially aggregated
    /// (commutative + associative combine, §3.2.7).
    pub fn is_combine(&self) -> bool {
        matches!(self, OperatorKind::Combine { .. })
    }

    /// Short human-readable kind label.
    pub fn label(&self) -> &'static str {
        match self {
            OperatorKind::Source {
                kind: SourceKind::Read,
                ..
            } => "source/read",
            OperatorKind::Source {
                kind: SourceKind::Created,
                ..
            } => "source/created",
            OperatorKind::ParDo(_) => "pardo",
            OperatorKind::Combine { keyed: true, .. } => "combine-per-key",
            OperatorKind::Combine { keyed: false, .. } => "combine-global",
            OperatorKind::GroupByKey => "group-by-key",
            OperatorKind::Sink => "sink",
        }
    }
}

/// A vertex of the logical DAG.
#[derive(Debug, Clone)]
pub struct Operator {
    /// Display name, e.g. `"Aggregate Gradients"`.
    pub name: String,
    /// What the operator computes.
    pub kind: OperatorKind,
    /// Requested task parallelism; resolved by the compiler when `None`.
    pub parallelism: Option<usize>,
    /// Whether consumers that read this operator's output as a broadcast
    /// side input should cache it in executor memory (task input caching,
    /// §3.2.7). Main-edge consumers ignore it.
    pub cache_input: bool,
}

impl Operator {
    /// Builds an operator with default (compiler-resolved) parallelism.
    pub fn new(name: impl Into<String>, kind: OperatorKind) -> Self {
        Operator {
            name: name.into(),
            kind,
            parallelism: None,
            cache_input: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn wide_deps_are_many_x() {
        assert!(DepType::ManyToMany.is_wide());
        assert!(DepType::ManyToOne.is_wide());
        assert!(!DepType::OneToOne.is_wide());
        assert!(!DepType::OneToMany.is_wide());
    }

    #[test]
    fn dep_display_names() {
        assert_eq!(DepType::OneToOne.to_string(), "one-to-one");
        assert_eq!(DepType::ManyToMany.to_string(), "many-to-many");
    }

    #[test]
    fn kind_predicates() {
        let src = OperatorKind::Source {
            kind: SourceKind::Read,
            f: SourceFn::from_vec(vec![Value::Unit]),
        };
        assert!(src.is_source());
        assert!(!src.is_sink());
        assert!(OperatorKind::Sink.is_sink());
        let combine = OperatorKind::Combine {
            f: crate::udf::CombineFn::sum_i64(),
            keyed: true,
        };
        assert!(combine.is_combine());
        assert_eq!(combine.label(), "combine-per-key");
        assert_eq!(src.label(), "source/read");
    }
}
