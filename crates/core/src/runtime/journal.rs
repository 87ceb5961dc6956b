//! Structured execution journal: the single source of truth for what
//! happened during a job.
//!
//! The master writes it: every scheduling, commit and fault event
//! through `Master::emit`, and what an attempt's report carried (the
//! lane's start stamp, the allocation failure the master injected) when
//! the report arrives. The executor stores are the one other writer:
//! they journal their own block and cache events through a shared
//! [`Journal`] handle. Each record carries a sequence number, a
//! microsecond timestamp from the job epoch, and its causal keys (stage
//! / task / attempt / executor ids live on the event variants
//! themselves). A frozen [`EventJournal`] is attached to every
//! [`JobResult`](crate::runtime::JobResult) and is what the rest of the
//! system consumes:
//!
//! - [`EventJournal::derive_metrics`] folds the journal into
//!   [`JobMetrics`] — counters are *derived* from events, never mirrored
//!   by hand, so the metrics cannot drift from the log;
//! - [`crate::runtime::invariants::check`] replays a journal and asserts
//!   the runtime's protocol laws (commit-once, inputs-before-launch, …);
//! - [`EventJournal::render_timeline`] prints a human-readable timeline;
//! - [`EventJournal::chrome_trace`] exports `chrome://tracing` JSON.
//!
//! # Canonical order
//!
//! The canonical order is the sequence number, the order records entered
//! the journal; freezing reorders nothing. The master appends an
//! attempt's `TaskStarted` directly before that attempt's terminal
//! record (or where it handled a report that no longer counts), so
//! "launch happens-before start" holds by construction. Timestamps rise
//! with the sequence number, except that a carried fact keeps the
//! instant its executor stamped, which lies between its launch and the
//! record after it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::compiler::FopId;
use crate::runtime::message::{AttemptId, ExecId};
use crate::runtime::metrics::JobMetrics;
use crate::runtime::store::BlockRef;

/// One entry of the execution journal — the progress record a deployment
/// would surface in a UI and replicate for master fault tolerance.
///
/// Task events carry their attempt id and executor; together with the
/// record-level stage and timestamp every event is causally keyed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// A task attempt was sent to an executor.
    TaskLaunched {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The attempt id this launch was fenced with.
        attempt: AttemptId,
        /// Executor chosen.
        exec: ExecId,
        /// Side-input bytes shipped with this launch (cache misses).
        side_bytes_sent: usize,
        /// Side-input bytes served from the executor cache instead.
        side_bytes_saved: usize,
        /// Cacheable side inputs this launch had to ship.
        side_cache_misses: usize,
    },
    /// A speculative duplicate of a straggling attempt was launched.
    SpeculativeLaunched {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The duplicate's attempt id.
        attempt: AttemptId,
        /// Executor running the duplicate.
        exec: ExecId,
        /// Side-input bytes shipped with this launch (cache misses).
        side_bytes_sent: usize,
        /// Side-input bytes served from the executor cache instead.
        side_bytes_saved: usize,
        /// Cacheable side inputs this launch had to ship.
        side_cache_misses: usize,
    },
    /// An executor lane began executing an attempt: stamped by the lane,
    /// carried in the attempt's report, and journaled by the master
    /// directly before the attempt's terminal record.
    TaskStarted {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The attempt now running.
        attempt: AttemptId,
        /// The executor it runs on.
        exec: ExecId,
    },
    /// A task's output was pushed and committed.
    TaskCommitted {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The committing attempt.
        attempt: AttemptId,
        /// Executor the attempt ran on.
        exec: ExecId,
        /// Whether the committing attempt was the speculative duplicate.
        speculative: bool,
        /// Output bytes pushed from a transient container to reserved
        /// executors by this commit (0 when kept locally).
        bytes_pushed: usize,
        /// Records removed by transient-side partial aggregation.
        preaggregated: usize,
        /// Whether the attempt served its side input from the cache.
        cache_hit: bool,
    },
    /// A task attempt failed in user code (error or caught panic).
    TaskFailed {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The failed attempt.
        attempt: AttemptId,
        /// Executor the attempt ran on.
        exec: ExecId,
    },
    /// A committed task's output was lost (container loss or master
    /// recovery) and the task reverted to pending.
    TaskReverted {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
    },
    /// A committed task's output lost its last copy and no consumer task
    /// still has to read it: the output is gone, the task stays
    /// committed, and its stage stays complete. A later loss that
    /// reverts a consumer reverts this task with it.
    OutputDropped {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The lost executor that held the last copy (after a master
        /// recovery: one that held a copy before the crash).
        exec: ExecId,
    },
    /// An executor was blacklisted after repeated user-code failures.
    ExecutorBlacklisted(ExecId),
    /// A Pado Stage finished (all its tasks committed).
    StageCompleted(usize),
    /// A completed stage re-opened.
    StageReopened {
        /// The stage that reverted to incomplete.
        stage: usize,
        /// `true` when a container loss destroyed the stage's preserved
        /// outputs (the §3.2.6 recomputation path); `false` when a master
        /// restart merely rolled the stage back to what the WAL held.
        recompute: bool,
    },
    /// A transient container was evicted.
    ContainerEvicted(ExecId),
    /// A reserved executor failed.
    ReservedFailed(ExecId),
    /// The heartbeat failure detector declared an executor dead (treated
    /// like an eviction: uncommitted work relaunches, committed blocks on
    /// other executors keep serving).
    ExecutorDeclaredDead(ExecId),
    /// A replacement container was provisioned.
    ContainerAdded(ExecId),
    /// The failure detector flagged an executor as silent past the
    /// heartbeat-miss threshold (slow, not yet dead).
    HeartbeatMissed(ExecId),
    /// The master restarted; a `WalRecovered` with the replay statistics
    /// follows.
    MasterRecovered,
    /// A block was admitted into an executor's byte-accounted store.
    BlockAdmitted {
        /// The executor whose store admitted the block.
        exec: ExecId,
        /// The admitted block.
        block: BlockRef,
        /// Bytes of the block.
        bytes: usize,
        /// Store occupancy (blocks + cache) after the admission.
        resident: usize,
    },
    /// An unpinned block was spilled to the executor's disk tier to
    /// make headroom.
    BlockSpilled {
        /// The executor whose store spilled the block.
        exec: ExecId,
        /// The spilled block.
        block: BlockRef,
        /// Bytes of the block (freed from memory; the compressed
        /// column-codec size, which is also what the spill file holds).
        bytes: usize,
        /// Bytes the same records would occupy in the row (per-record)
        /// encoding — the uncompressed baseline, kept so the journal can
        /// report how much the column codecs saved.
        raw_bytes: usize,
        /// Store occupancy after the spill.
        resident: usize,
    },
    /// A spilled block was reloaded from disk before use.
    BlockLoaded {
        /// The executor whose store reloaded the block.
        exec: ExecId,
        /// The reloaded block.
        block: BlockRef,
        /// Bytes brought back into memory.
        bytes: usize,
        /// Store occupancy after the reload.
        resident: usize,
    },
    /// A block was released from an executor's store (its output was
    /// invalidated or superseded).
    BlockReleased {
        /// The executor whose store released the block.
        exec: ExecId,
        /// The released block.
        block: BlockRef,
        /// Bytes freed.
        bytes: usize,
        /// Store occupancy after the release.
        resident: usize,
    },
    /// A launching attempt pinned one of its input blocks (pinned
    /// blocks are never spillable).
    BlockPinned {
        /// The executor whose store holds the pin.
        exec: ExecId,
        /// The pinned block.
        block: BlockRef,
    },
    /// A terminal attempt report dropped one pin of an input block.
    BlockUnpinned {
        /// The executor whose store held the pin.
        exec: ExecId,
        /// The unpinned block.
        block: BlockRef,
    },
    /// An executor store's byte budget changed (chaos budget shrink);
    /// carries the *applied* budget, clamped up to the unspillable
    /// occupancy when pinned bytes exceed the request.
    StoreBudgetChanged {
        /// The executor whose budget changed.
        exec: ExecId,
        /// The applied budget in bytes.
        budget: usize,
    },
    /// Chaos injected an allocation failure into a running attempt
    /// (the OOM fault family); the attempt must fail, never abort.
    /// Journaled by the master, which injected it, with the attempt's
    /// report and the lane's start stamp.
    OomInjected {
        /// Fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// The attempt the allocation failure hit.
        attempt: AttemptId,
        /// The executor it ran on.
        exec: ExecId,
    },
    /// A task served a side input from the executor's §3.2.7 cache
    /// (emitted from the executor).
    CacheHit {
        /// The executor whose cache hit.
        exec: ExecId,
        /// The cache key (producing fop).
        key: usize,
        /// Bytes served from the cache.
        bytes: usize,
    },
    /// A task looked up a side input the executor's cache did not hold.
    CacheMiss {
        /// The executor whose cache missed.
        exec: ExecId,
        /// The cache key (producing fop).
        key: usize,
    },
    /// A transient executor was drained ahead of a predicted eviction:
    /// it takes no new attempts, and every output only it held is being
    /// copied to a reserved store. Its container and its copies stay.
    ExecutorDrained {
        /// The drained executor.
        exec: ExecId,
    },
    /// The master rebuilt its state from the durable write-ahead log
    /// (always paired with a [`JobEvent::MasterRecovered`]); carries the
    /// recovery statistics.
    WalRecovered {
        /// WAL frames folded into the recovered state.
        frames_replayed: usize,
        /// Frames the recovery scan discarded (torn tail, corrupt frame,
        /// frames stranded beyond interior corruption).
        frames_truncated: usize,
        /// Whether interior corruption forced the fallback to the last
        /// good snapshot instead of the full valid prefix.
        snapshot_restored: bool,
    },
    /// The master declared its run wedged and abandoned it (the abort
    /// marker of law 11: the run must still quiesce the pool and freeze
    /// the journal).
    RunAborted {
        /// What tripped: the progress timeout, or a cancel from the
        /// backend.
        reason: String,
    },
    /// The worker pool quiesced at master shutdown: emitted on every run
    /// — clean or aborted — with the in-flight count observed
    /// after the quiesce wait (law 11 requires zero).
    PoolQuiesced {
        /// Jobs still queued or running when the quiesce wait returned.
        in_flight: usize,
    },
}

impl JobEvent {
    /// What an attempt's report carries for the master to journal, in
    /// order: the attempt's start and, when the master injected one
    /// (`oom`), its allocation failure.
    pub(crate) fn carried(
        fop: FopId,
        index: usize,
        attempt: AttemptId,
        exec: ExecId,
        oom: bool,
    ) -> impl Iterator<Item = JobEvent> {
        let (start, failure) = (
            JobEvent::TaskStarted {
                fop,
                index,
                attempt,
                exec,
            },
            JobEvent::OomInjected {
                fop,
                index,
                attempt,
                exec,
            },
        );
        std::iter::once(start).chain(oom.then_some(failure))
    }

    /// The event's variant name — the unit the cross-backend differential
    /// suite compares on (per-kind counts are placement-sensitive for some
    /// kinds, but the set of kinds a plan can produce is not).
    pub fn kind(&self) -> &'static str {
        match self {
            JobEvent::TaskLaunched { .. } => "TaskLaunched",
            JobEvent::SpeculativeLaunched { .. } => "SpeculativeLaunched",
            JobEvent::TaskStarted { .. } => "TaskStarted",
            JobEvent::TaskCommitted { .. } => "TaskCommitted",
            JobEvent::TaskFailed { .. } => "TaskFailed",
            JobEvent::TaskReverted { .. } => "TaskReverted",
            JobEvent::OutputDropped { .. } => "OutputDropped",
            JobEvent::ExecutorBlacklisted(_) => "ExecutorBlacklisted",
            JobEvent::StageCompleted(_) => "StageCompleted",
            JobEvent::StageReopened { .. } => "StageReopened",
            JobEvent::ContainerEvicted(_) => "ContainerEvicted",
            JobEvent::ReservedFailed(_) => "ReservedFailed",
            JobEvent::ExecutorDeclaredDead(_) => "ExecutorDeclaredDead",
            JobEvent::ContainerAdded(_) => "ContainerAdded",
            JobEvent::HeartbeatMissed(_) => "HeartbeatMissed",
            JobEvent::MasterRecovered => "MasterRecovered",
            JobEvent::BlockAdmitted { .. } => "BlockAdmitted",
            JobEvent::BlockSpilled { .. } => "BlockSpilled",
            JobEvent::BlockLoaded { .. } => "BlockLoaded",
            JobEvent::BlockReleased { .. } => "BlockReleased",
            JobEvent::BlockPinned { .. } => "BlockPinned",
            JobEvent::BlockUnpinned { .. } => "BlockUnpinned",
            JobEvent::StoreBudgetChanged { .. } => "StoreBudgetChanged",
            JobEvent::OomInjected { .. } => "OomInjected",
            JobEvent::CacheHit { .. } => "CacheHit",
            JobEvent::CacheMiss { .. } => "CacheMiss",
            JobEvent::ExecutorDrained { .. } => "ExecutorDrained",
            JobEvent::WalRecovered { .. } => "WalRecovered",
            JobEvent::RunAborted { .. } => "RunAborted",
            JobEvent::PoolQuiesced { .. } => "PoolQuiesced",
        }
    }
}

/// One journal record: an event plus its emission order, timestamp, and
/// the stage it belongs to (when the emitter knows it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Raw emission sequence number (order the record entered the
    /// journal; unique, monotone).
    pub seq: u64,
    /// Microseconds since the job epoch.
    pub at_us: u64,
    /// The Pado stage this event belongs to, when known.
    pub stage: Option<usize>,
    /// The event itself.
    pub event: JobEvent,
}

/// Static plan facts embedded in every frozen journal so it replays
/// self-contained: the invariant checker needs no access to the plan,
/// only the journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalMeta {
    /// Number of stages in the physical plan.
    pub n_stages: usize,
    /// Stage of each fused operator.
    pub stage_of: Vec<usize>,
    /// Task count of each fused operator.
    pub parallelism: Vec<usize>,
    /// For each task `(fop, index)`, the producer tasks whose outputs
    /// must be locatable before it may launch.
    pub required: Vec<Vec<Vec<(FopId, usize)>>>,
    /// The configured per-task retry budget.
    pub max_task_attempts: usize,
    /// The per-executor store byte budget the job ran under. `0` (the
    /// `Default`, for journals predating memory accounting) and
    /// `usize::MAX` both mean unlimited.
    pub executor_memory_bytes: usize,
}

impl JournalMeta {
    /// Tasks in the physical plan.
    pub fn original_tasks(&self) -> usize {
        self.parallelism.iter().sum()
    }
}

/// Cloneable writer handle to the shared journal. The master and every
/// executor store hold one; the stores are why it is shared.
///
/// In memory only: the write-ahead log belongs to the master, which
/// appends the frames of its own events itself (`Master::emit`).
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Arc<Mutex<Vec<JournalRecord>>>,
    epoch: Option<Instant>,
}

impl Journal {
    /// An empty journal whose epoch is now.
    pub fn new() -> Self {
        Journal {
            inner: Arc::new(Mutex::new(Vec::new())),
            epoch: Some(Instant::now()),
        }
    }

    /// Appends one event, stamping its sequence number and timestamp.
    pub fn emit(&self, stage: Option<usize>, event: JobEvent) {
        self.emit_at(stage, Instant::now(), [], Some(event));
    }

    /// Appends `carried`, facts another participant saw at `at` and
    /// reported, then `then` stamped now, with no other writer's record
    /// between them: how the master journals what an attempt's report
    /// carried directly before the report's own record.
    pub(crate) fn emit_at(
        &self,
        stage: Option<usize>,
        at: Instant,
        carried: impl IntoIterator<Item = JobEvent>,
        then: Option<JobEvent>,
    ) {
        let mut records = self.inner.lock();
        let stamped = carried.into_iter().map(|event| (event, at));
        for (event, at) in stamped.chain(then.map(|event| (event, Instant::now()))) {
            let since = |epoch| at.saturating_duration_since(epoch).as_micros() as u64;
            let seq = records.len() as u64;
            records.push(JournalRecord {
                seq,
                at_us: self.epoch.map_or(0, since),
                stage,
                event,
            });
        }
    }

    /// Snapshots the journal into its canonical, replayable form.
    pub fn freeze(&self, meta: JournalMeta) -> EventJournal {
        EventJournal::from_parts(meta, self.inner.lock().clone())
    }
}

/// A frozen, canonically-ordered journal: what a [`JobResult`] carries
/// and what the invariant checker and exporters consume.
///
/// [`JobResult`]: crate::runtime::JobResult
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventJournal {
    meta: JournalMeta,
    records: Vec<JournalRecord>,
}

impl EventJournal {
    /// Builds a journal from its plan facts and its records, in the
    /// canonical order they were appended in.
    pub fn from_parts(meta: JournalMeta, records: Vec<JournalRecord>) -> Self {
        EventJournal { meta, records }
    }

    /// The embedded plan facts.
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    /// The canonical record sequence.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The canonical event sequence (records without their keys).
    pub fn events(&self) -> impl Iterator<Item = &JobEvent> + '_ {
        self.records.iter().map(|r| &r.event)
    }

    /// The canonical event sequence as an owned log (for error payloads).
    pub fn to_events(&self) -> Vec<JobEvent> {
        self.events().cloned().collect()
    }

    /// Counts records per event kind (see [`JobEvent::kind`]). Sorted map
    /// so differential assertions print deterministically.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for e in self.events() {
            *counts.entry(e.kind()).or_insert(0) += 1;
        }
        counts
    }

    /// Derives the event-sourced [`JobMetrics`] counters by folding the
    /// journal. The wire counters (drops, duplicates, retransmissions,
    /// dedup suppressions, the retransmission high-water mark) happen
    /// below the journal's causal horizon (inside the simulated network)
    /// and are copied in from [`TransportCounters`] by the master; every
    /// other counter is computed here, so it cannot disagree with the log.
    ///
    /// [`TransportCounters`]: crate::runtime::transport::TransportCounters
    pub fn derive_metrics(&self) -> JobMetrics {
        let mut m = JobMetrics {
            original_tasks: self.meta.original_tasks(),
            ..JobMetrics::default()
        };
        let mut launched = Launched(HashSet::with_capacity(m.original_tasks));
        for r in &self.records {
            match &r.event {
                JobEvent::TaskLaunched {
                    side_bytes_sent,
                    side_bytes_saved,
                    side_cache_misses,
                    ..
                } => {
                    m.tasks_launched += 1;
                    m.relaunched_tasks += usize::from(launched.relaunch(&r.event));
                    m.side_bytes_sent += side_bytes_sent;
                    m.side_bytes_saved += side_bytes_saved;
                    m.cache_misses += side_cache_misses;
                }
                JobEvent::SpeculativeLaunched {
                    side_bytes_sent,
                    side_bytes_saved,
                    side_cache_misses,
                    ..
                } => {
                    m.tasks_launched += 1;
                    m.speculative_launches += 1;
                    m.side_bytes_sent += side_bytes_sent;
                    m.side_bytes_saved += side_bytes_saved;
                    m.cache_misses += side_cache_misses;
                }
                JobEvent::TaskStarted { .. } => {}
                JobEvent::TaskCommitted {
                    speculative,
                    bytes_pushed,
                    preaggregated,
                    cache_hit,
                    ..
                } => {
                    if *speculative {
                        m.speculative_wins += 1;
                    }
                    m.bytes_pushed += bytes_pushed;
                    m.records_preaggregated += preaggregated;
                    if *cache_hit {
                        m.cache_hits += 1;
                    }
                }
                JobEvent::TaskFailed { .. } => m.task_failures += 1,
                JobEvent::TaskReverted { .. } => {}
                JobEvent::OutputDropped { .. } => m.outputs_dropped += 1,
                JobEvent::ExecutorBlacklisted(_) => m.blacklisted_executors += 1,
                JobEvent::StageCompleted(_) => {}
                JobEvent::StageReopened { recompute, .. } => {
                    if *recompute {
                        m.stage_recomputations += 1;
                    }
                }
                JobEvent::ContainerEvicted(_) => m.evictions += 1,
                JobEvent::ReservedFailed(_) => m.reserved_failures += 1,
                JobEvent::ExecutorDeclaredDead(_) => m.executors_declared_dead += 1,
                JobEvent::ContainerAdded(_) => {}
                JobEvent::HeartbeatMissed(_) => m.heartbeats_missed += 1,
                JobEvent::MasterRecovered => {}
                JobEvent::BlockAdmitted { resident, .. } => {
                    m.peak_store_bytes = m.peak_store_bytes.max(*resident);
                }
                JobEvent::BlockSpilled {
                    bytes,
                    raw_bytes,
                    resident,
                    ..
                } => {
                    m.blocks_spilled += 1;
                    m.spill_bytes += bytes;
                    m.spill_raw_bytes += raw_bytes;
                    m.peak_store_bytes = m.peak_store_bytes.max(*resident);
                }
                JobEvent::BlockLoaded { resident, .. } => {
                    m.blocks_loaded += 1;
                    m.peak_store_bytes = m.peak_store_bytes.max(*resident);
                }
                JobEvent::BlockReleased { resident, .. } => {
                    m.peak_store_bytes = m.peak_store_bytes.max(*resident);
                }
                JobEvent::BlockPinned { .. } | JobEvent::BlockUnpinned { .. } => {}
                JobEvent::StoreBudgetChanged { .. } => {}
                JobEvent::OomInjected { .. } => m.oom_injected += 1,
                JobEvent::CacheHit { .. } => m.store_cache_hits += 1,
                JobEvent::CacheMiss { .. } => m.store_cache_misses += 1,
                JobEvent::ExecutorDrained { .. } => {}
                JobEvent::WalRecovered {
                    frames_replayed,
                    frames_truncated,
                    snapshot_restored,
                } => {
                    m.wal_recoveries += 1;
                    m.wal_frames_replayed += frames_replayed;
                    m.wal_frames_truncated += frames_truncated;
                    if *snapshot_restored {
                        m.wal_snapshot_restores += 1;
                    }
                }
                JobEvent::RunAborted { .. } | JobEvent::PoolQuiesced { .. } => {}
            }
        }
        m
    }

    /// Renders a human-readable timeline, one line per canonical record.
    /// With `show_times` false the (wall-clock) timestamp column is
    /// elided, making the output byte-stable for a fixed seed under
    /// serial execution — the golden-test form.
    pub fn render_timeline(&self, show_times: bool) -> String {
        let mut out = String::new();
        let mut launched = Launched::default();
        for (pos, r) in self.records.iter().enumerate() {
            out.push_str(&format!("{pos:>5}  "));
            if show_times {
                out.push_str(&format!("[{:>9} us]  ", r.at_us));
            }
            match r.stage {
                Some(s) => out.push_str(&format!("s{s}  ")),
                None => out.push_str("--  "),
            }
            out.push_str(&describe(&r.event));
            if launched.relaunch(&r.event) {
                out.push_str(" (relaunch)");
            }
            out.push('\n');
        }
        out
    }

    /// Exports the journal as Chrome-trace (`chrome://tracing` /
    /// Perfetto) JSON: one duration event per task attempt (launch or
    /// start → terminal report), plus instant events for faults and
    /// recovery actions. Rows (`tid`) are executors.
    pub fn chrome_trace(&self) -> String {
        let end_us = self.records.iter().map(|r| r.at_us).max().unwrap_or(0);
        // attempt -> (fop, index, exec, stage, start_us, speculative)
        type OpenSlice = (FopId, usize, ExecId, Option<usize>, u64, bool);
        let mut open: HashMap<AttemptId, OpenSlice> = HashMap::new();
        let mut parts: Vec<String> = Vec::new();
        #[allow(clippy::too_many_arguments)]
        fn slice(
            parts: &mut Vec<String>,
            name: &str,
            cat: &str,
            ts: u64,
            dur: u64,
            tid: ExecId,
            fop: FopId,
            index: usize,
            attempt: AttemptId,
            stage: Option<usize>,
        ) {
            parts.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{\"fop\":{fop},\
                 \"index\":{index},\"attempt\":{attempt},\"stage\":{}}}}}",
                stage.map_or("null".to_string(), |s| s.to_string())
            ));
        }
        for r in &self.records {
            match &r.event {
                JobEvent::TaskLaunched {
                    fop,
                    index,
                    attempt,
                    exec,
                    ..
                } => {
                    open.insert(*attempt, (*fop, *index, *exec, r.stage, r.at_us, false));
                }
                JobEvent::SpeculativeLaunched {
                    fop,
                    index,
                    attempt,
                    exec,
                    ..
                } => {
                    open.insert(*attempt, (*fop, *index, *exec, r.stage, r.at_us, true));
                }
                JobEvent::TaskStarted { attempt, .. } => {
                    if let Some(o) = open.get_mut(attempt) {
                        o.4 = r.at_us; // Refine the slice start to actual execution.
                    }
                }
                JobEvent::TaskCommitted { attempt, .. } => {
                    if let Some((fop, index, exec, stage, t0, spec)) = open.remove(attempt) {
                        let name = format!("t{fop}.{index} a{attempt}");
                        let cat = if spec { "speculative" } else { "task" };
                        slice(
                            &mut parts,
                            &name,
                            cat,
                            t0,
                            r.at_us.saturating_sub(t0),
                            exec,
                            fop,
                            index,
                            *attempt,
                            stage,
                        );
                    }
                }
                JobEvent::TaskFailed { attempt, .. } => {
                    if let Some((fop, index, exec, stage, t0, _)) = open.remove(attempt) {
                        let name = format!("t{fop}.{index} a{attempt} FAILED");
                        slice(
                            &mut parts,
                            &name,
                            "failed",
                            t0,
                            r.at_us.saturating_sub(t0),
                            exec,
                            fop,
                            index,
                            *attempt,
                            stage,
                        );
                    }
                }
                _ => {}
            }
            if let Some((name, tid)) = instant_of(&r.event) {
                parts.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{},\
                     \"pid\":0,\"tid\":{tid},\"s\":\"g\"}}",
                    r.at_us
                ));
            }
        }
        // Attempts that never reported terminally (discarded losers,
        // attempts stranded on lost executors) stretch to the job end.
        let mut leftovers: Vec<_> = open.into_iter().collect();
        leftovers.sort_by_key(|&(a, _)| a);
        for (attempt, (fop, index, exec, stage, t0, _)) in leftovers {
            let name = format!("t{fop}.{index} a{attempt} (abandoned)");
            slice(
                &mut parts,
                &name,
                "abandoned",
                t0,
                end_us.saturating_sub(t0),
                exec,
                fop,
                index,
                attempt,
                stage,
            );
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            parts.join(",")
        )
    }
}

/// One row of the eviction ledger: what one executor loss cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossRow {
    /// Canonical position of the loss event in the journal.
    pub position: usize,
    /// [`JobEvent::kind`] of the loss event.
    pub kind: &'static str,
    /// The lost executor.
    pub exec: ExecId,
    /// Attempts in flight on it (launched there by the current master,
    /// no terminal report yet): the uncommitted work that relaunches.
    pub running: usize,
    /// Commits reverted because a consumer still needed their output.
    pub reverted: usize,
    /// Commits that lost their last copy and were dropped, not re-run.
    pub dropped: usize,
    /// Completed stages the loss re-opened.
    pub reopened: usize,
}

/// The eviction ledger: one [`LossRow`] per container loss (eviction,
/// reserved failure, declared dead), in journal order. The master logs
/// a loss's reverts, drops and reopens between the loss event and the
/// replacement container, which is how they are attributed.
pub fn eviction_ledger(journal: &EventJournal) -> Vec<LossRow> {
    let mut rows: Vec<LossRow> = Vec::new();
    let mut in_flight: HashMap<AttemptId, ExecId> = HashMap::new();
    let mut handling = false;
    for (position, r) in journal.records().iter().enumerate() {
        match &r.event {
            JobEvent::TaskLaunched { attempt, exec, .. }
            | JobEvent::SpeculativeLaunched { attempt, exec, .. } => {
                in_flight.insert(*attempt, *exec);
            }
            JobEvent::TaskCommitted { attempt, .. } | JobEvent::TaskFailed { attempt, .. } => {
                in_flight.remove(attempt);
            }
            // A recovered master knows none of its predecessor's attempts.
            JobEvent::MasterRecovered => {
                in_flight.clear();
                handling = false;
            }
            JobEvent::ContainerEvicted(exec)
            | JobEvent::ReservedFailed(exec)
            | JobEvent::ExecutorDeclaredDead(exec) => {
                let before = in_flight.len();
                in_flight.retain(|_, e| e != exec);
                rows.push(LossRow {
                    position,
                    kind: r.event.kind(),
                    exec: *exec,
                    running: before - in_flight.len(),
                    reverted: 0,
                    dropped: 0,
                    reopened: 0,
                });
                handling = true;
            }
            JobEvent::ContainerAdded(_) => handling = false,
            event if handling => {
                if let Some(row) = rows.last_mut() {
                    match event {
                        JobEvent::TaskReverted { .. } => row.reverted += 1,
                        JobEvent::OutputDropped { .. } => row.dropped += 1,
                        JobEvent::StageReopened { .. } => row.reopened += 1,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    rows
}

/// Instant-event rendering for the Chrome trace: fault and topology
/// events pinned to the executor row they concern (row 0 for the master).
fn instant_of(event: &JobEvent) -> Option<(String, ExecId)> {
    match event {
        JobEvent::ContainerEvicted(e) => Some((format!("evicted exec {e}"), *e)),
        JobEvent::ReservedFailed(e) => Some((format!("reserved failure exec {e}"), *e)),
        JobEvent::ExecutorDeclaredDead(e) => Some((format!("declared dead exec {e}"), *e)),
        JobEvent::ExecutorBlacklisted(e) => Some((format!("blacklisted exec {e}"), *e)),
        JobEvent::ContainerAdded(e) => Some((format!("container added exec {e}"), *e)),
        JobEvent::HeartbeatMissed(e) => Some((format!("heartbeat missed exec {e}"), *e)),
        JobEvent::TaskReverted { fop, index } => Some((format!("revert t{fop}.{index}"), 0)),
        JobEvent::OutputDropped { fop, index, exec } => {
            Some((format!("drop output t{fop}.{index}"), *exec))
        }
        JobEvent::StageCompleted(s) => Some((format!("stage {s} complete"), 0)),
        JobEvent::StageReopened { stage, recompute } => Some((
            if *recompute {
                format!("stage {stage} reopened (recompute)")
            } else {
                format!("stage {stage} reopened (rollback)")
            },
            0,
        )),
        JobEvent::MasterRecovered => Some(("master recovered".to_string(), 0)),
        JobEvent::BlockSpilled { exec, block, .. } => Some((format!("spill {block}"), *exec)),
        JobEvent::BlockLoaded { exec, block, .. } => Some((format!("load {block}"), *exec)),
        JobEvent::StoreBudgetChanged { exec, budget } => {
            Some((format!("budget {budget} B exec {exec}"), *exec))
        }
        JobEvent::OomInjected {
            fop, index, exec, ..
        } => Some((format!("oom injected t{fop}.{index}"), *exec)),
        JobEvent::ExecutorDrained { exec } => Some((format!("drained exec {exec}"), *exec)),
        JobEvent::WalRecovered {
            frames_replayed,
            frames_truncated,
            snapshot_restored,
        } => Some((
            format!(
                "wal recovered: {frames_replayed} frames replayed, {frames_truncated} \
                 truncated{}",
                if *snapshot_restored {
                    ", snapshot fallback"
                } else {
                    ""
                }
            ),
            0,
        )),
        _ => None,
    }
}

/// The tasks launched so far in a walk over the journal. A relaunch is a
/// fact of history: a `TaskLaunched` is one when an earlier record
/// launched the same task. The in-memory journal survives a master
/// restart, so the count holds whatever the WAL lost.
#[derive(Default)]
struct Launched(HashSet<(FopId, usize)>);

impl Launched {
    /// Whether `event` is a `TaskLaunched` of a task launched before (a
    /// speculative duplicate always follows its task's launch).
    fn relaunch(&mut self, event: &JobEvent) -> bool {
        match event {
            JobEvent::TaskLaunched { fop, index, .. } => !self.0.insert((*fop, *index)),
            _ => false,
        }
    }
}

/// One-line human description of an event (the timeline body).
fn describe(event: &JobEvent) -> String {
    match event {
        JobEvent::TaskLaunched {
            fop,
            index,
            attempt,
            exec,
            ..
        } => format!("launch        task {fop}.{index} attempt {attempt} on exec {exec}"),
        JobEvent::SpeculativeLaunched {
            fop,
            index,
            attempt,
            exec,
            ..
        } => format!("speculate     task {fop}.{index} attempt {attempt} on exec {exec}"),
        JobEvent::TaskStarted {
            fop,
            index,
            attempt,
            exec,
        } => format!("start         task {fop}.{index} attempt {attempt} on exec {exec}"),
        JobEvent::TaskCommitted {
            fop,
            index,
            attempt,
            exec,
            speculative,
            bytes_pushed,
            ..
        } => {
            let mut line =
                format!("commit        task {fop}.{index} attempt {attempt} on exec {exec}");
            if *speculative {
                line.push_str(" [speculative]");
            }
            if *bytes_pushed > 0 {
                line.push_str(&format!(" (pushed {bytes_pushed} B)"));
            }
            line
        }
        JobEvent::TaskFailed {
            fop,
            index,
            attempt,
            exec,
        } => format!("fail          task {fop}.{index} attempt {attempt} on exec {exec}"),
        JobEvent::TaskReverted { fop, index } => {
            format!("revert        task {fop}.{index}")
        }
        JobEvent::OutputDropped { fop, index, exec } => {
            format!("output-drop   task {fop}.{index} (last copy on exec {exec})")
        }
        JobEvent::ExecutorBlacklisted(e) => format!("blacklist     exec {e}"),
        JobEvent::StageCompleted(s) => format!("stage-done    stage {s}"),
        JobEvent::StageReopened { stage, recompute } => {
            if *recompute {
                format!("stage-reopen  stage {stage} (recompute)")
            } else {
                format!("stage-reopen  stage {stage} (rollback)")
            }
        }
        JobEvent::ContainerEvicted(e) => format!("evict         exec {e}"),
        JobEvent::ReservedFailed(e) => format!("reserved-fail exec {e}"),
        JobEvent::ExecutorDeclaredDead(e) => format!("declared-dead exec {e}"),
        JobEvent::ContainerAdded(e) => format!("container-add exec {e}"),
        JobEvent::HeartbeatMissed(e) => format!("hb-miss       exec {e}"),
        JobEvent::MasterRecovered => "master-recovered".to_string(),
        JobEvent::BlockAdmitted {
            exec,
            block,
            bytes,
            resident,
        } => format!("block-admit   {block} on exec {exec} ({bytes} B, resident {resident} B)"),
        JobEvent::BlockSpilled {
            exec,
            block,
            bytes,
            raw_bytes,
            resident,
        } => format!(
            "spill         {block} on exec {exec} ({bytes} B of {raw_bytes} B raw, \
             resident {resident} B)"
        ),
        JobEvent::BlockLoaded {
            exec,
            block,
            bytes,
            resident,
        } => format!("load          {block} on exec {exec} ({bytes} B, resident {resident} B)"),
        JobEvent::BlockReleased {
            exec,
            block,
            bytes,
            resident,
        } => format!("block-release {block} on exec {exec} ({bytes} B, resident {resident} B)"),
        JobEvent::BlockPinned { exec, block } => format!("pin           {block} on exec {exec}"),
        JobEvent::BlockUnpinned { exec, block } => {
            format!("unpin         {block} on exec {exec}")
        }
        JobEvent::StoreBudgetChanged { exec, budget } => {
            format!("store-budget  exec {exec} now {budget} B")
        }
        JobEvent::OomInjected {
            fop,
            index,
            attempt,
            exec,
        } => format!("oom-inject    task {fop}.{index} attempt {attempt} on exec {exec}"),
        JobEvent::CacheHit { exec, key, bytes } => {
            format!("cache-hit     side {key} on exec {exec} ({bytes} B)")
        }
        JobEvent::CacheMiss { exec, key } => format!("cache-miss    side {key} on exec {exec}"),
        JobEvent::ExecutorDrained { exec } => format!("executor-drained exec {exec}"),
        JobEvent::WalRecovered {
            frames_replayed,
            frames_truncated,
            snapshot_restored,
        } => {
            let tail = if *snapshot_restored {
                " [snapshot fallback]"
            } else {
                ""
            };
            format!(
                "wal-recovered replayed {frames_replayed} frames, truncated \
                 {frames_truncated}{tail}"
            )
        }
        JobEvent::RunAborted { reason } => format!("run-aborted   {reason}"),
        JobEvent::PoolQuiesced { in_flight } => {
            format!("pool-quiesced {in_flight} jobs in flight")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: JobEvent) -> JournalRecord {
        JournalRecord {
            seq,
            at_us: seq * 10,
            stage: Some(0),
            event,
        }
    }

    /// A launch of task 0.0.
    fn launched(attempt: AttemptId) -> JobEvent {
        JobEvent::TaskLaunched {
            fop: 0,
            index: 0,
            attempt,
            exec: 1,
            side_bytes_sent: 8,
            side_bytes_saved: 0,
            side_cache_misses: 1,
        }
    }

    fn committed(attempt: AttemptId) -> JobEvent {
        JobEvent::TaskCommitted {
            fop: 0,
            index: 0,
            attempt,
            exec: 1,
            speculative: false,
            bytes_pushed: 64,
            preaggregated: 3,
            cache_hit: true,
        }
    }

    #[test]
    fn derive_metrics_folds_every_event_kind() {
        let records = vec![
            rec(0, launched(1)),
            rec(
                1,
                JobEvent::TaskFailed {
                    fop: 0,
                    index: 0,
                    attempt: 1,
                    exec: 1,
                },
            ),
            rec(2, launched(2)),
            rec(3, committed(2)),
            rec(4, JobEvent::ContainerEvicted(1)),
            rec(5, JobEvent::TaskReverted { fop: 0, index: 0 }),
            rec(
                6,
                JobEvent::StageReopened {
                    stage: 0,
                    recompute: true,
                },
            ),
            rec(7, JobEvent::ContainerAdded(2)),
            rec(8, JobEvent::HeartbeatMissed(2)),
            rec(9, launched(3)),
            rec(10, JobEvent::ExecutorDeclaredDead(1)),
            rec(
                11,
                JobEvent::OutputDropped {
                    fop: 1,
                    index: 0,
                    exec: 1,
                },
            ),
            rec(12, JobEvent::ContainerAdded(3)),
            // Task 1.0's first launch: relaunches are counted per task.
            rec(
                13,
                JobEvent::TaskLaunched {
                    fop: 1,
                    index: 0,
                    attempt: 4,
                    exec: 2,
                    side_bytes_sent: 0,
                    side_bytes_saved: 0,
                    side_cache_misses: 0,
                },
            ),
        ];
        let meta = JournalMeta {
            parallelism: vec![1],
            ..JournalMeta::default()
        };
        let journal = EventJournal::from_parts(meta, records);
        // The ledger books each loss's reverts, drops and reopens, and
        // the attempts it caught in flight (attempt 3 launched on exec 1).
        let row = |position, kind, running, reverted, dropped, reopened| LossRow {
            position,
            kind,
            exec: 1,
            running,
            reverted,
            dropped,
            reopened,
        };
        assert_eq!(
            eviction_ledger(&journal),
            vec![
                row(4, "ContainerEvicted", 0, 1, 0, 1),
                row(10, "ExecutorDeclaredDead", 1, 0, 1, 0)
            ]
        );
        let m = journal.derive_metrics();
        assert_eq!(m.outputs_dropped, 1);
        assert_eq!(m.executors_declared_dead, 1);
        assert_eq!(m.original_tasks, 1);
        // Task 0.0 launched three times: its second and third launches
        // are relaunches, read from history.
        assert_eq!(m.tasks_launched, 4);
        assert_eq!(m.relaunched_tasks, 2);
        let relaunch_lines = journal.render_timeline(false);
        assert_eq!(relaunch_lines.matches("(relaunch)").count(), 2);
        assert_eq!(m.task_failures, 1);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.stage_recomputations, 1);
        assert_eq!(m.heartbeats_missed, 1);
        assert_eq!(m.bytes_pushed, 64);
        assert_eq!(m.records_preaggregated, 3);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 3);
        assert_eq!(m.side_bytes_sent, 24);
    }

    /// A carried fact keeps the instant its participant stamped and lands
    /// directly before the record it rode in with; a stamp from before
    /// the epoch reads 0.
    #[test]
    fn a_carried_fact_keeps_its_stamp_and_precedes_its_report() {
        let before = Instant::now();
        let j = Journal::new();
        j.emit(Some(0), launched(1));
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let start = |attempt| JobEvent::TaskStarted {
            fop: 0,
            index: 0,
            attempt,
            exec: 1,
        };
        j.emit_at(Some(0), started, [start(1)], Some(committed(1)));
        j.emit_at(Some(0), before, [start(2)], None);
        let frozen = j.freeze(JournalMeta::default());
        let events: Vec<_> = frozen.events().cloned().collect();
        assert_eq!(events, [launched(1), start(1), committed(1), start(2)]);
        let at: Vec<u64> = frozen.records().iter().map(|r| r.at_us).collect();
        assert!(at[0] <= at[1] && at[1] + 2_000 <= at[2], "{at:?}");
        assert_eq!(at[3], 0);
    }

    #[test]
    fn timeline_elides_times_when_asked() {
        let j = Journal::new();
        j.emit(Some(0), launched(1));
        let ej = j.freeze(JournalMeta::default());
        let with = ej.render_timeline(true);
        let without = ej.render_timeline(false);
        assert!(with.contains("us]"));
        assert!(!without.contains("us]"));
        assert!(without.contains("launch"));
        assert!(without.contains("task 0.0 attempt 1 on exec 1"));
    }

    #[test]
    fn chrome_trace_emits_duration_per_attempt() {
        let j = Journal::new();
        j.emit(Some(0), launched(1));
        j.emit(
            Some(0),
            JobEvent::TaskStarted {
                fop: 0,
                index: 0,
                attempt: 1,
                exec: 1,
            },
        );
        j.emit(Some(0), committed(1));
        j.emit(Some(0), JobEvent::ContainerEvicted(1));
        let dropped = JobEvent::OutputDropped {
            fop: 0,
            index: 0,
            exec: 1,
        };
        j.emit(Some(0), dropped);
        let trace = j.freeze(JournalMeta::default()).chrome_trace();
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        assert!(trace.contains("\"ph\":\"X\""), "one slice per attempt");
        assert!(trace.contains("t0.0 a1"));
        assert!(trace.contains("evicted exec 1"));
        assert!(
            trace.contains("drop output t0.0"),
            "an instant like a revert"
        );
        assert!(trace.contains("\"ph\":\"i\""), "instant for the eviction");
    }
}
