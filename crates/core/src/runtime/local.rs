//! The in-process cluster harness.
//!
//! [`LocalCluster`] plays the role REEF and the datacenter resource
//! manager play for the paper's Java implementation (§4): it launches the
//! master, provisions transient and reserved executors as threads, and
//! lets tests and examples inject container evictions deterministically.
//!
//! # Examples
//!
//! Running a word-count under evictions:
//!
//! ```
//! use pado_core::runtime::{FaultPlan, LocalCluster};
//! use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};
//!
//! let p = Pipeline::new();
//! p.read(
//!     "Read",
//!     4,
//!     SourceFn::from_vec(vec![Value::from("a b a"), Value::from("b a")]),
//! )
//! .par_do(
//!     "Map",
//!     ParDoFn::per_element(|line, emit| {
//!         for w in line.as_str().unwrap_or("").split_whitespace() {
//!             emit(Value::pair(Value::from(w), Value::from(1i64)));
//!         }
//!     }),
//! )
//! .combine_per_key("Reduce", CombineFn::sum_i64())
//! .sink("Out");
//! let dag = p.build().unwrap();
//!
//! let cluster = LocalCluster::new(4, 2);
//! let result = cluster
//!     .run_with_faults(&dag, FaultPlan { evictions: vec![(2, 0)], ..Default::default() })
//!     .unwrap();
//! let mut counts = result.outputs["Out"].clone();
//! counts.sort();
//! assert_eq!(counts.len(), 2); // "a" and "b"
//! ```

use std::sync::Arc;

use pado_dag::LogicalDag;

use crate::runtime::policy::SchedulingPolicy;

use crate::compiler::{compile_with, PlanConfig};
use crate::error::RuntimeError;
use crate::runtime::backend::{BackendKind, ExecBackend, SimBackend, ThreadedBackend};
use crate::runtime::config::RuntimeConfig;
use crate::runtime::executor::JobContext;
use crate::runtime::fault::FaultPlan;
use crate::runtime::master::{JobResult, Master};

/// An in-process Pado cluster: `n_transient` eviction-prone executors and
/// `n_reserved` stable executors, each with configurable task slots.
#[derive(Clone)]
pub struct LocalCluster {
    n_transient: usize,
    n_reserved: usize,
    config: RuntimeConfig,
    plan_config: PlanConfig,
    policy_factory: Option<Arc<dyn Fn() -> Box<dyn SchedulingPolicy> + Send + Sync>>,
    drains: Vec<(usize, usize)>,
    backend: BackendKind,
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("n_transient", &self.n_transient)
            .field("n_reserved", &self.n_reserved)
            .field("config", &self.config)
            .field("plan_config", &self.plan_config)
            .field("custom_policy", &self.policy_factory.is_some())
            .field("backend", &self.backend)
            .finish()
    }
}

impl LocalCluster {
    /// Creates a cluster with default runtime configuration.
    pub fn new(n_transient: usize, n_reserved: usize) -> Self {
        LocalCluster {
            n_transient,
            n_reserved,
            config: RuntimeConfig::default(),
            plan_config: PlanConfig::default(),
            policy_factory: None,
            drains: Vec::new(),
            backend: BackendKind::Sim,
        }
    }

    /// Selects the execution backend (default: [`BackendKind::Sim`], the
    /// deterministic inline event loop). [`BackendKind::Threaded`] runs the
    /// master on its own thread and task bodies on a shared worker pool
    /// sized by [`RuntimeConfig::threaded_workers`].
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Schedules a drain ahead of a predicted eviction: after
    /// `after_done_events` task commits the master stops placing work on
    /// the `nth` schedulable transient executor (modulo their number) and
    /// copies every output only it holds to a reserved store. May be
    /// called repeatedly; drains fire in schedule order.
    pub fn with_drain(mut self, after_done_events: usize, nth: usize) -> Self {
        self.drains.push((after_done_events, nth));
        self
    }

    /// Installs a custom task scheduling policy (§3.2.3). The factory is
    /// invoked once per job, since policies are stateful.
    pub fn with_policy<F>(mut self, factory: F) -> Self
    where
        F: Fn() -> Box<dyn SchedulingPolicy> + Send + Sync + 'static,
    {
        self.policy_factory = Some(Arc::new(factory));
        self
    }

    /// Overrides the runtime configuration.
    pub fn with_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the plan-generation options.
    pub fn with_plan_config(mut self, plan_config: PlanConfig) -> Self {
        self.plan_config = plan_config;
        self
    }

    /// Compiles and runs a dataflow program to completion.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and runtime aborts.
    pub fn run(&self, dag: &LogicalDag) -> Result<JobResult, RuntimeError> {
        self.run_with_faults(dag, FaultPlan::default())
    }

    /// Runs a program while injecting the given fault schedule.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and runtime aborts.
    pub fn run_with_faults(
        &self,
        dag: &LogicalDag,
        faults: FaultPlan,
    ) -> Result<JobResult, RuntimeError> {
        let backend: Box<dyn ExecBackend> = match self.backend {
            BackendKind::Sim => Box::new(SimBackend),
            BackendKind::Threaded => Box::new(ThreadedBackend::from_config(&self.config)),
        };
        self.run_on_backend(dag, faults, backend.as_ref())
    }

    /// Runs a program on a caller-provided backend instance, injecting
    /// the given fault schedule. This is [`LocalCluster::run_with_faults`]
    /// with the backend construction split out, so tests can keep a
    /// handle on the backend's innards (e.g. wedge its worker pool
    /// deliberately and assert the wedge report).
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and runtime aborts.
    pub fn run_on_backend(
        &self,
        dag: &LogicalDag,
        mut faults: FaultPlan,
        backend: &dyn ExecBackend,
    ) -> Result<JobResult, RuntimeError> {
        self.config.validate().map_err(RuntimeError::Config)?;
        faults.drains.extend(self.drains.iter().copied());
        let plan = compile_with(dag, &self.plan_config)?;
        let job = Arc::new(JobContext {
            dag: dag.clone(),
            plan,
            config: self.config.clone(),
        });
        let mut master =
            Master::with_backend(job, self.n_transient, self.n_reserved, faults, backend)?;
        if let Some(factory) = &self.policy_factory {
            master.set_policy(factory());
        }
        backend.drive(master)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, Value};

    fn wordcount_dag(lines: Vec<&str>, partitions: usize) -> LogicalDag {
        let data: Vec<Value> = lines.into_iter().map(Value::from).collect();
        let p = Pipeline::new();
        p.read("Read", partitions, SourceFn::from_vec(data))
            .par_do(
                "Map",
                ParDoFn::per_element(|line, emit| {
                    for w in line.as_str().unwrap_or("").split_whitespace() {
                        emit(Value::pair(Value::from(w), Value::from(1i64)));
                    }
                }),
            )
            .combine_per_key("Reduce", CombineFn::sum_i64())
            .sink("Out");
        p.build().unwrap()
    }

    fn count_of(result: &JobResult, word: &str) -> i64 {
        result.outputs["Out"]
            .iter()
            .find(|r| r.key().and_then(|k| k.as_str()) == Some(word))
            .and_then(|r| r.val().and_then(|v| v.as_i64()))
            .unwrap_or(0)
    }

    #[test]
    fn wordcount_without_faults() {
        let dag = wordcount_dag(vec!["a b a", "c a", "b"], 3);
        let result = LocalCluster::new(3, 2).run(&dag).unwrap();
        assert_eq!(count_of(&result, "a"), 3);
        assert_eq!(count_of(&result, "b"), 2);
        assert_eq!(count_of(&result, "c"), 1);
        assert_eq!(result.metrics.relaunched_tasks, 0);
        assert_eq!(result.metrics.evictions, 0);
    }

    #[test]
    fn wordcount_with_eviction_is_correct() {
        let dag = wordcount_dag(vec!["a b a", "c a", "b", "a c c"], 4);
        let faults = FaultPlan {
            evictions: vec![(1, 0), (3, 1)],
            ..Default::default()
        };
        let result = LocalCluster::new(3, 2)
            .run_with_faults(&dag, faults)
            .unwrap();
        assert_eq!(count_of(&result, "a"), 4);
        assert_eq!(count_of(&result, "b"), 2);
        assert_eq!(count_of(&result, "c"), 3);
        assert_eq!(result.metrics.evictions, 2);
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let dag = wordcount_dag(vec!["a"], 1);
        let cluster = LocalCluster::new(1, 1).with_config(RuntimeConfig {
            transport_dedup_window: 0,
            ..RuntimeConfig::default()
        });
        match cluster.run(&dag) {
            Err(RuntimeError::Config(msg)) => {
                assert!(msg.contains("transport_dedup_window"));
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
