//! Control-plane messages between the master and executors.

use std::collections::BTreeMap;
use std::time::Instant;

use pado_dag::{Block, MainSlot};

use crate::compiler::FopId;
use crate::runtime::store::CacheKey;

/// Identifier of an executor; monotonically assigned, never reused (a
/// replacement container gets a fresh id).
pub type ExecId = usize;

/// Identifier of one task launch attempt; monotonically assigned.
pub type AttemptId = u64;

/// How a side input reaches an executor.
///
/// `records` always carries the data (the master is the in-process stand-in
/// for the reserved store), but when `expect_cached` is set the executor
/// serves its cached copy instead; the byte-transfer metrics count the
/// shipped bytes only on cache misses, mirroring what a distributed
/// deployment would move over the network.
#[derive(Debug, Clone)]
pub struct SideData {
    /// Cache key, present when this input is cacheable (§3.2.7).
    pub key: Option<CacheKey>,
    /// The broadcast records, shared with the master's location table.
    pub records: Block,
    /// Whether the master believes the executor caches this key already.
    pub expect_cached: bool,
}

/// A fault the master injects into one task attempt (chaos testing).
///
/// Injection rides inside the [`TaskSpec`] so the decision stays with the
/// master — deterministic per seed — while the *effect* exercises the real
/// executor-side failure paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The user function returns an error (`Result` path).
    Error,
    /// The user function panics (unwind-isolation path).
    Panic,
    /// The task stalls for this many milliseconds before computing
    /// (straggler / speculation path).
    Delay(u64),
    /// The task computes normally, then stalls for this many milliseconds
    /// before reporting `TaskDone` — the window where output exists but
    /// the report is still in flight when an eviction lands.
    DelayDone(u64),
    /// A mid-task allocation fails (the executor store's budget is
    /// exhausted at the worst moment): the attempt must report
    /// `TaskFailed` and recover through the normal retry path — never
    /// abort the process.
    Oom,
}

/// One task launch. The master resolves every input to a shared block —
/// a producer's output, or the consumer's bucket of it — and the executor
/// computes the output and partitions it for the shuffles it feeds
/// (`route_to`), so whoever makes a block also derives what is read from it.
///
/// The one message the master sends an executor; `Clone` because an
/// unacknowledged launch stays buffered in the transport for
/// retransmission (`Block` payloads are `Arc`-shared, so the clone is
/// shallow).
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// This launch attempt.
    pub attempt: AttemptId,
    /// The fused operator to execute.
    pub fop: FopId,
    /// The task index within the fop.
    pub index: usize,
    /// Routed main inputs, one slot per main edge; blocks are shared with
    /// the master's location table, never copied.
    pub mains: Vec<MainSlot>,
    /// Side inputs by fused-chain member index.
    pub sides: BTreeMap<usize, SideData>,
    /// Whether the task should pre-aggregate its output before pushing
    /// (set when all consumers are combine operators and partial
    /// aggregation is enabled).
    pub preaggregate: bool,
    /// Consumer parallelisms to hash-partition the output for: the
    /// distinct live widths of the fop's many-to-many main out-edges.
    pub route_to: Vec<usize>,
    /// Fault to inject into this attempt, if any (chaos testing only).
    pub inject: Option<InjectedFault>,
}

/// Messages executors send to the master: an attempt's report, which
/// also carries what only the executor saw of the attempt (when its lane
/// started it), for the master to journal.
///
/// `Clone` because the transport layer buffers sent messages for
/// retransmission until they are acknowledged; `Block` payloads are
/// `Arc`-shared, so the clone is shallow.
#[derive(Debug, Clone)]
pub enum MasterMsg {
    /// A task attempt finished on an executor.
    TaskDone {
        /// Executor that ran the task.
        exec: ExecId,
        /// The completed attempt.
        attempt: AttemptId,
        /// When the lane started the attempt.
        started: Instant,
        /// Output block of the task, created once here and only referenced
        /// afterwards.
        output: Block,
        /// The output's shuffle buckets, one sized set per requested
        /// width (`TaskSpec::route_to`).
        buckets: Vec<(usize, Vec<Block>)>,
        /// Records removed by transient-side pre-aggregation.
        preaggregated: usize,
        /// Whether the side input was served from the executor cache.
        cache_hit: bool,
        /// Keys the executor caches after this task.
        cached_keys: Vec<CacheKey>,
    },
    /// A task attempt failed on an executor: the user function returned an
    /// error or panicked (the panic was caught; the worker slot survives).
    TaskFailed {
        /// Executor that ran the attempt.
        exec: ExecId,
        /// The failed attempt.
        attempt: AttemptId,
        /// When the lane started the attempt.
        started: Instant,
        /// Human-readable failure reason (error message or panic payload).
        reason: String,
    },
}
