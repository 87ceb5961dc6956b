//! The Pado Runtime (§3.2): master, executors, scheduling, eviction and
//! fault tolerance, and the in-process cluster harness.

pub mod backend;
pub mod clock;
pub mod config;
pub mod executor;
pub mod fault;
pub mod invariants;
pub mod journal;
pub mod local;
pub mod master;
pub mod message;
pub mod metrics;
pub mod policy;
pub mod store;
mod tasks;
pub mod transport;
pub mod wal;

pub use backend::{
    BackendKind, CancelToken, ExecBackend, SimBackend, StallDiagnostics, ThreadedBackend,
    WorkerPool, WorkerState,
};
pub use clock::Clock;
pub use config::RuntimeConfig;
pub use executor::{ExecutorHandle, JobContext};
pub use fault::{ChaosPlan, CrashPlan, FaultDraw, FaultInjector, FaultPlan, WireSide};
pub use invariants::{assert_clean, check, Violation};
pub use journal::{
    eviction_ledger, EventJournal, JobEvent, Journal, JournalMeta, JournalRecord, LossRow,
};
pub use local::LocalCluster;
pub use master::{JobResult, Master};
pub use message::{AttemptId, ExecId, InjectedFault, MasterMsg};
pub use metrics::JobMetrics;
pub use policy::{Candidate, LeastLoaded, RoundRobinCacheAware, SchedulingPolicy, TaskToPlace};
pub use store::{BlockRef, CacheKey, ExecutorStore, SpillFaultPlan, StoreError, StoreHandle};
pub use tasks::{TaskTable, Undone};
pub use transport::{DirectionFaults, NetworkFault, PartitionSpec};
pub use wal::{
    encode_frame, inject_corruption, replay, scan, temp_wal_path, RecoveredState, WalCorruption,
    WalFrame, WalRecord, WalScan, WalSnapshot, WalWriter,
};
