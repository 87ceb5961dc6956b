//! The Pado master: container manager, task scheduler, eviction and fault
//! tolerance (§3.2.1, §3.2.3, §3.2.5, §3.2.6).
//!
//! The master executes the stage DAG stage-by-stage in topological order.
//! When a stage becomes runnable it first *assigns* the stage's
//! reserved-side tasks to reserved executors (so transient tasks know their
//! push destinations), then launches tasks as their inputs become
//! available. A transient task's completed output is immediately pushed to
//! the reserved executors hosting its consumer tasks and committed —
//! recorded in the master's location table — so it escapes the threat of
//! evictions.
//!
//! On a transient container eviction, only the evicted executor's
//! uncommitted work is relaunched: running attempts and any outputs whose
//! sole location was the evicted container. Committed stage outputs on
//! reserved executors are never recomputed. On a (rare) reserved executor
//! failure, the master pauses descendant stages, walks ancestor stages in
//! topological order, and relaunches exactly the tasks whose preserved
//! outputs were lost.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pado_dag::{block_from_vec, Block, DepType, MainSlot, Value};
use parking_lot::Mutex;

use crate::compiler::{FopId, InputSlot, Placement, PlanEdge};
use crate::error::RuntimeError;
use crate::exec::route;
use crate::runtime::backend::{CancelToken, ExecBackend, SimBackend, StallDiagnostics, WorkerPool};
use crate::runtime::clock::Clock;
use crate::runtime::executor::{combine_consumer, ExecutorHandle, JobContext};
use crate::runtime::fault::{FaultAction, FaultPlan, FaultSchedule};
use crate::runtime::journal::{
    EventJournal, Journal, JournalMeta, MAX_RETRANSMISSIONS_PER_MESSAGE,
};
use crate::runtime::message::{AttemptId, ExecId, ExecutorMsg, MasterMsg, SideData, TaskSpec};
use crate::runtime::metrics::JobMetrics;
use crate::runtime::policy::{Candidate, RoundRobinCacheAware, SchedulingPolicy, TaskToPlace};
use crate::runtime::store::CacheKey;
use crate::runtime::store::{block_bytes, BlockRef, ExecutorStore, StoreError, StoreHandle};
use crate::runtime::tasks::{Attempt, Report, TaskTable};
use crate::runtime::transport::{
    mix64, DedupWindow, Direction, ExecIn, FaultyLink, NetPolicy, ReliableSender,
    TransportCounters, Wire,
};
use crate::runtime::wal::{temp_wal_path, WalCorruption, WalRecord, WalWriter};

// The event schema lives with the journal; re-exported here because the
// events were born in this module and callers still import them from it.
pub use crate::runtime::journal::JobEvent;

/// The result of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Output records per terminal operator (keyed by operator name),
    /// concatenated in task-index order.
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// Execution counters, derived from the journal (plus the wire-level
    /// transport counters the journal cannot see).
    pub metrics: JobMetrics,
    /// The canonically-ordered execution journal.
    pub journal: EventJournal,
}

/// An executor's lifecycle. Only `Alive` takes new attempts; the store
/// of every state but `Lost` stays readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    Alive,
    /// Exhausted its fault threshold.
    Blacklisted,
    /// A transient executor expected to be evicted: every output only it
    /// held was offered to a reserved store, its container lives on.
    Drained,
    /// Evicted, failed, or declared dead.
    Lost,
}

#[derive(Debug)]
struct ExecInfo {
    handle: ExecutorHandle,
    state: ExecState,
    /// User-code failures here, toward the blacklist threshold.
    failures: usize,
    cached: HashSet<CacheKey>,
    /// This executor's byte-accounted memory domain, shared with its
    /// worker slots: the master admits pushes, pins task inputs, and
    /// applies chaos budget shrinks through it.
    store: StoreHandle,
    /// Reliable (retransmitting) endpoint of the master→executor wire.
    out: ReliableSender<ExecutorMsg, ExecIn>,
    /// Duplicate suppression for frames this executor sends the master.
    dedup: DedupWindow,
    /// Last time any frame (heartbeat, ack, or report) arrived from this
    /// executor — the failure detector's input.
    last_heartbeat: Instant,
    /// Whether the detector already flagged the current silence (so one
    /// quiet spell counts one missed-heartbeat, not one per tick).
    hb_flagged: bool,
}

impl ExecInfo {
    fn live(&self) -> bool {
        self.state != ExecState::Lost
    }
}

/// Why an executor was lost, for loss-specific accounting. All kinds
/// share the recovery path: revert uncommitted work, keep committed
/// blocks that survive elsewhere, spawn a replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossKind {
    /// The resource manager reclaimed a transient container.
    Eviction,
    /// A reserved executor's machine failed (§3.2.6).
    ReservedFailure,
    /// The heartbeat failure detector timed the executor out.
    DeclaredDead,
}

/// Side-input traffic of one launch, embedded in its journal event (the
/// journal is the metrics source of truth, so the bytes ride the event).
#[derive(Debug, Clone, Copy, Default)]
struct SideStats {
    sent: usize,
    saved: usize,
    misses: usize,
}

/// A cross-executor push the destination store had no headroom for:
/// parked under backpressure and retried with exponential backoff until
/// the destination frees memory (or the push becomes obsolete).
#[derive(Debug, Clone)]
struct DeferredPush {
    fop: FopId,
    index: usize,
    dest: ExecId,
    next_try: Instant,
    backoff_ms: u64,
}

/// A committed task output with what is derived from it.
struct Output {
    /// The shared block, created once by the finishing executor.
    block: Block,
    /// The block hash-partitioned per consumer width, as the producing
    /// task reported it: a shuffle's one record pass per output.
    buckets: Vec<(usize, Vec<Block>)>,
}

/// The master event loop for one job.
pub struct Master {
    job: Arc<JobContext>,
    tx: Sender<Wire<MasterMsg>>,
    rx: Receiver<Wire<MasterMsg>>,
    /// Seeded network-fault policy shared with every executor's links.
    net: Option<Arc<NetPolicy>>,
    /// Transport counters shared with every link in the job.
    counters: Arc<TransportCounters>,
    executors: BTreeMap<ExecId, ExecInfo>,
    next_exec_id: ExecId,
    policy: Box<dyn SchedulingPolicy>,

    /// Task states, the location table's executor side, and every live
    /// attempt record (executor, launch time, pins).
    tasks: TaskTable,
    /// The location table's data side: every committed output and its
    /// shuffle buckets. Entries leave through [`Master::drop_output`].
    outputs: HashMap<(FopId, usize), Output>,
    result_parts: BTreeMap<(FopId, usize), Block>,
    /// Memoized concatenation of a multi-part broadcast dataset, keyed by
    /// producer fop; forgotten when [`Master::drop_output`] takes a part.
    side_cache: HashMap<FopId, Block>,
    assigned: HashMap<(FopId, usize), ExecId>,
    /// Cross-executor pushes deferred for lack of destination headroom,
    /// retried with backoff (push backpressure).
    deferred_pushes: Vec<DeferredPush>,
    /// Completed attempt durations (ms) per fop, for straggler medians.
    fop_durations: Vec<Vec<u64>>,

    /// Shared writer handle of the execution journal. Executor worker
    /// slots and transport endpoints hold clones; the master itself emits
    /// every scheduling, commit, and fault event through it. Metrics are
    /// *derived* from the journal on demand, never mirrored by hand.
    journal: Journal,
    /// Plan facts embedded in every frozen journal (what the invariant
    /// checker replays against).
    meta: JournalMeta,
    stage_completed: Vec<bool>,
    /// The harness's fault plan and what of it has fired: not state of
    /// the master a restart kills.
    faults: FaultSchedule,

    // --- Durability domain ---
    /// The write-ahead log: armed at `RuntimeConfig::wal_path`, or at a
    /// temp path when the fault plan restarts the master and no path is
    /// set. Shared with the journal (whose emissions it makes durable);
    /// the master additionally appends location-table deltas and
    /// compacting snapshots through it.
    wal: Option<Arc<Mutex<WalWriter>>>,
    /// The temp file a self-armed WAL lives in, removed on drop.
    temp_wal: Option<PathBuf>,

    // --- Execution-backend plumbing ---
    /// The scheduling clock (wall on both stock backends; manual in
    /// timer-order tests). Every master-side timer reads through it.
    clock: Clock,
    /// The shared worker pool, when the backend uses one: executors run
    /// task bodies on it.
    pool: Option<Arc<WorkerPool>>,
    /// Inbound frames drained per loop wakeup before control work reruns
    /// (1 on the sim backend — the original loop shape).
    frame_batch: usize,
    /// The run-wide cooperative cancellation token, shared with the
    /// executors: cancelled when the run is declared wedged, and checked
    /// at the top of every scheduling pass for a cancel from outside.
    cancel: CancelToken,
}

impl Drop for Master {
    fn drop(&mut self) {
        if let Some(path) = &self.temp_wal {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Master {
    /// Creates a master and spawns the initial containers.
    ///
    /// # Errors
    ///
    /// Fails when the write-ahead log is armed but cannot be created, or
    /// its genesis snapshot cannot be written.
    pub fn new(
        job: Arc<JobContext>,
        n_transient: usize,
        n_reserved: usize,
        faults: FaultPlan,
    ) -> Result<Self, RuntimeError> {
        Self::with_backend(job, n_transient, n_reserved, faults, &SimBackend)
    }

    /// Creates a master wired for a specific execution backend: its
    /// clock, worker pool and frame-batch width are installed before the
    /// first executor spawns (executors need the pool at spawn time).
    ///
    /// # Errors
    ///
    /// Same as [`Master::new`].
    pub fn with_backend(
        job: Arc<JobContext>,
        n_transient: usize,
        n_reserved: usize,
        faults: FaultPlan,
        backend: &dyn ExecBackend,
    ) -> Result<Self, RuntimeError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let net = faults.network.clone().map(NetPolicy::new);
        let counters = Arc::new(TransportCounters::default());
        let n_fops = job.plan.fops.len();
        let n_stages = job.plan.stage_dag.stages.len();
        let meta = JournalMeta {
            n_stages,
            stage_of: job.plan.fops.iter().map(|f| f.stage).collect(),
            parallelism: job.plan.fops.iter().map(|f| f.parallelism).collect(),
            required: (0..n_fops)
                .map(|f| {
                    let dst_par = job.plan.fops[f].parallelism;
                    (0..dst_par)
                        .map(|i| {
                            let mut req = Vec::new();
                            for e in job.plan.ins(f) {
                                let src_par = job.plan.fops[e.src].parallelism;
                                for si in required_src_indices(e, i, src_par, dst_par) {
                                    req.push((e.src, si));
                                }
                            }
                            req
                        })
                        .collect()
                })
                .collect(),
            max_task_attempts: job.config.max_task_attempts,
            retransmit_bound: MAX_RETRANSMISSIONS_PER_MESSAGE,
            executor_memory_bytes: job.config.executor_memory_bytes,
        };
        let consumers = (0..n_fops)
            .map(|f| job.plan.outs(f).iter().map(|e| (e.dst, e.dep)).collect())
            .collect();
        // The WAL sink must be armed before the journal is cloned out to
        // executors: every clone copies the sink, and a late arm would
        // leave executor emissions volatile.
        let mut journal = Journal::new();
        // A restart recovers from the log, so a fault plan that asks for
        // one arms a log of its own when the config names no path.
        let restarts = faults.master_failure_after.is_some() || faults.crashes.is_some();
        let temp_wal = (job.config.wal_path.is_none() && restarts).then(|| temp_wal_path("auto"));
        let wal_path = job.config.wal_path.as_deref().map(Path::new);
        let wal = match wal_path.or(temp_wal.as_deref()) {
            Some(path) => {
                let writer = WalWriter::create(
                    path,
                    // The frame header's inert stamp (see `wal.rs`).
                    Arc::new(AtomicU64::new(0)),
                    job.config.wal_sync_every,
                    job.config.wal_snapshot_every,
                )?;
                let sink = Arc::new(Mutex::new(writer));
                journal.arm_wal(Arc::clone(&sink));
                Some(sink)
            }
            None => None,
        };
        let mut master = Master {
            job,
            tx,
            rx,
            net,
            counters,
            executors: BTreeMap::new(),
            next_exec_id: 0,
            policy: Box::new(RoundRobinCacheAware::default()),
            tasks: TaskTable::new(&meta.parallelism, consumers),
            outputs: HashMap::new(),
            result_parts: BTreeMap::new(),
            side_cache: HashMap::new(),
            assigned: HashMap::new(),
            deferred_pushes: Vec::new(),
            fop_durations: vec![Vec::new(); n_fops],
            journal,
            meta,
            stage_completed: vec![false; n_stages],
            faults: FaultSchedule::new(faults),
            wal,
            temp_wal,
            clock: backend.clock(),
            pool: backend.pool(),
            frame_batch: backend.frame_batch().max(1),
            cancel: backend.cancel(),
        };
        // Arm the pool's detach journal so a worker leaked past the
        // shutdown grace is recorded in this run's own event stream.
        if let Some(pool) = &master.pool {
            pool.arm_journal(master.journal.clone());
        }
        for _ in 0..n_reserved {
            master.spawn_executor(Placement::Reserved);
        }
        for _ in 0..n_transient {
            master.spawn_executor(Placement::Transient);
        }
        // Genesis snapshot: the log opens on the table's durable form,
        // and the crash family's append clock counts it.
        master.append_wal_snapshot()?;
        Ok(master)
    }

    /// Replaces the task scheduling policy (§3.2.3's pluggable policy).
    pub fn set_policy(&mut self, policy: Box<dyn SchedulingPolicy>) {
        self.policy = policy;
    }

    fn spawn_executor(&mut self, kind: Placement) -> ExecId {
        let id = self.next_exec_id;
        self.next_exec_id += 1;
        let store = ExecutorStore::handle(
            id,
            self.job.config.executor_memory_bytes,
            self.job.config.cache_capacity_bytes,
            self.journal.clone(),
        );
        if let Some(sf) = self.faults.plan().spill_faults {
            store.lock().set_spill_faults(sf);
        }
        let handle = ExecutorHandle::spawn(
            id,
            kind,
            Arc::clone(&self.job),
            self.tx.clone(),
            self.net.clone(),
            Arc::clone(&self.counters),
            self.journal.clone(),
            Arc::clone(&store),
            self.pool.clone(),
            self.cancel.clone(),
        );
        let link = FaultyLink::new(
            handle.inbound(),
            id,
            Direction::ToExecutor,
            self.net.clone(),
            Arc::clone(&self.counters),
        );
        let seed = self.net.as_ref().map_or(0, |p| p.seed());
        let out = ReliableSender::new(
            link,
            id,
            |from, seq, epoch, payload| {
                ExecIn::Net(Wire::Msg {
                    from,
                    seq,
                    epoch,
                    payload,
                })
            },
            self.job.config.transport_inflight_cap,
            Duration::from_millis(self.job.config.retransmit_base_ms),
            Duration::from_millis(self.job.config.retransmit_max_ms),
            seed ^ mix64(id as u64),
        )
        .with_journal(self.journal.clone(), false);
        self.executors.insert(
            id,
            ExecInfo {
                handle,
                state: ExecState::Alive,
                failures: 0,
                cached: HashSet::new(),
                store,
                out,
                dedup: DedupWindow::new(self.job.config.transport_dedup_window),
                last_heartbeat: self.clock.now(),
                hb_flagged: false,
            },
        );
        id
    }

    /// Runs the job to completion.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::Wedged`] if no progress is made within
    /// the configured timeout ([`RuntimeError::Aborted`] if the run's token
    /// is cancelled first), with [`RuntimeError::TaskFailed`] when a task
    /// exhausts its retry budget in user code, and with
    /// [`RuntimeError::Invariant`] on internal scheduler bugs. Executors
    /// are stopped and joined on every exit path.
    pub fn run(mut self) -> Result<JobResult, RuntimeError> {
        let outcome = self.run_loop();
        // Join executors before freezing the journal so every in-flight
        // executor-side emission (task starts, retransmissions) lands.
        self.shutdown();
        match outcome {
            Ok(()) => Ok(self.collect_result()),
            Err(RuntimeError::Wedged { diagnostics }) => {
                let JobResult {
                    journal, metrics, ..
                } = self.collect_result();
                Err(diagnostics.finish(journal, metrics))
            }
            Err(e) => Err(e),
        }
    }

    /// The tick-driven master event loop: checks the wedge timeout, waits
    /// up to one tick for a frame, then re-evaluates retransmissions, the
    /// failure detector, stragglers, and the schedule. Ticks make all of
    /// these responsive even while no completions arrive.
    fn run_loop(&mut self) -> Result<(), RuntimeError> {
        self.schedule()?;
        let tick = Duration::from_millis(self.job.config.tick_ms.max(1));
        let timeout = Duration::from_millis(self.job.config.event_timeout_ms);
        let mut last_progress = self.clock.now();
        let mut last_spec_check = self.clock.now();
        while !self.complete() {
            // The one stall detector, on every pass whatever the frame
            // rate; a cancel from outside unwinds through the same exit.
            let waited = self.clock.now().saturating_duration_since(last_progress);
            if waited >= timeout || self.cancel.is_cancelled() {
                return Err(self.abort(waited, waited >= timeout));
            }
            match self.rx.recv_timeout(tick) {
                Ok(first) => {
                    // The threaded backend drains a burst of already-
                    // queued frames before rerunning the control work
                    // below, amortizing pump/schedule passes across
                    // concurrent completions. The sim backend keeps the
                    // original one-frame-per-wakeup shape (batch = 1).
                    let mut next = Some(first);
                    for _ in 0..self.frame_batch {
                        let Some(frame) = next.take().or_else(|| self.rx.try_recv()) else {
                            break;
                        };
                        // Only substantive deliveries reset the wedge
                        // timer: heartbeats, acks, and suppressed
                        // duplicates prove the wire is alive, not that
                        // the job is advancing.
                        if self.handle_frame(frame)? {
                            last_progress = self.clock.now();
                            // The crash family fires here — the handler
                            // boundary — so recovery never sees a frame's
                            // effects half-applied.
                            let logged = self.wal.as_ref().map_or(0, |w| w.lock().total_appends());
                            if let Some(restart) = self.faults.on_frame(logged) {
                                self.apply_fault(restart)?;
                            }
                        }
                    }
                    self.note_stage_transitions();
                    self.maybe_wal_snapshot()?;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected("executors".into()));
                }
            }
            self.pump_transport()?;
            self.retry_deferred_pushes()?;
            // Straggler checks are time-gated so a burst of completions
            // does not rescan the task table once per message.
            if self.clock.now().saturating_duration_since(last_spec_check) >= tick {
                last_spec_check = self.clock.now();
                self.maybe_speculate()?;
            }
            self.schedule()?;
        }
        Ok(())
    }

    /// Abandons the run behind the abort marker: a cancel from outside is
    /// `Aborted`; a wedge samples what is stuck, then cancels the run so
    /// executors and pool jobs unwind ([`Master::run`] finishes the report).
    fn abort(&mut self, waited: Duration, wedged: bool) -> RuntimeError {
        let reason = match wedged {
            true => format!("no progress within {} ms", self.job.config.event_timeout_ms),
            false => "run cancelled from outside".to_string(),
        };
        self.journal.emit(
            None,
            JobEvent::RunAborted {
                reason: reason.clone(),
            },
        );
        if !wedged {
            return RuntimeError::Aborted(reason);
        }
        let running = Some(self.tasks.running());
        let diagnostics = StallDiagnostics::sample(reason, waited, self.pool.as_deref(), running);
        self.cancel.cancel();
        RuntimeError::Wedged { diagnostics }
    }

    /// Dispatches one wire frame. Returns whether it constituted job
    /// progress (for the wedge timer).
    fn handle_frame(&mut self, frame: Wire<MasterMsg>) -> Result<bool, RuntimeError> {
        match frame {
            Wire::Heartbeat { from } => {
                self.note_liveness(from);
                Ok(false)
            }
            Wire::Ack { from, seq } => {
                self.note_liveness(from);
                if let Some(info) = self.executors.get_mut(&from).filter(|e| e.live()) {
                    info.out.on_ack(seq);
                }
                Ok(false)
            }
            Wire::Msg {
                from, seq, payload, ..
            } => {
                self.note_liveness(from);
                let Some(info) = self.executors.get_mut(&from).filter(|e| e.live()) else {
                    // Frames from an evicted or declared-dead executor are
                    // dropped unacknowledged; the container is being torn
                    // down out-of-band anyway.
                    return Ok(false);
                };
                info.out.link().send(ExecIn::Net(Wire::Ack { from, seq }));
                if !info.dedup.fresh(seq) {
                    self.counters.deduplicated.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                }
                self.handle(payload)?;
                Ok(true)
            }
        }
    }

    /// Records proof of life from an executor: any frame counts, so a
    /// partitioned-then-healed executor revives on its first retransmitted
    /// report even before its next heartbeat.
    fn note_liveness(&mut self, exec: ExecId) {
        if let Some(info) = self.executors.get_mut(&exec).filter(|e| e.live()) {
            info.last_heartbeat = self.clock.now();
            info.hb_flagged = false;
        }
    }

    /// Drives the transport between frames: retransmits due unacked
    /// messages, releases delayed frames, and runs the heartbeat failure
    /// detector. Silence past `4×heartbeat_interval` flags the executor
    /// (slow: tasks on it will look like stragglers and feed speculation);
    /// silence past `dead_executor_timeout_ms` declares it dead and routes
    /// into the eviction recovery path.
    fn pump_transport(&mut self) -> Result<(), RuntimeError> {
        let now = self.clock.now();
        let heartbeat = self.job.config.heartbeat_interval_ms;
        let miss_after = Duration::from_millis(heartbeat.saturating_mul(4).max(1));
        let dead_after = Duration::from_millis(self.job.config.dead_executor_timeout_ms);
        let mut dead: Vec<ExecId> = Vec::new();
        for (&id, info) in self.executors.iter_mut().filter(|(_, e)| e.live()) {
            info.out.pump(now)?;
            let age = now.duration_since(info.last_heartbeat);
            if age >= dead_after {
                dead.push(id);
            } else if age >= miss_after && !info.hb_flagged {
                info.hb_flagged = true;
                self.journal.emit(None, JobEvent::HeartbeatMissed(id));
            }
        }
        for id in dead {
            self.on_executor_lost(id, LossKind::DeclaredDead);
        }
        Ok(())
    }

    /// Retries pushes parked under backpressure. Entries become due on
    /// their backoff clock, or immediately when a pin release frees
    /// headroom on their destination (see [`Self::release_pins`]). The
    /// destination of a retry that lands joins the output's location
    /// set. Obsolete entries — output reverted or gone, destination
    /// lost — are dropped silently: the producer-local copy (or a
    /// recomputation) serves instead.
    fn retry_deferred_pushes(&mut self) -> Result<(), RuntimeError> {
        if self.deferred_pushes.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        for p in std::mem::take(&mut self.deferred_pushes) {
            if now < p.next_try {
                self.deferred_pushes.push(p);
                continue;
            }
            self.push_copy(p.fop, p.index, p.dest, Some(p.backoff_ms))?;
        }
        Ok(())
    }

    /// Offers a copy of committed output `(fop, index)` to `dest`
    /// ([`Master::push`]); one that lands joins the output's location
    /// set, durably. An output reverted or gone takes no copy.
    fn push_copy(
        &mut self,
        fop: FopId,
        index: usize,
        dest: ExecId,
        parked_ms: Option<u64>,
    ) -> Result<(), RuntimeError> {
        let done = self.tasks.is_done(fop, index);
        let Some(output) = self.output(fop, index).filter(|_| done).cloned() else {
            return Ok(());
        };
        if self.push(fop, index, dest, &output, parked_ms)? {
            if let Some(locations) = self.tasks.locations_mut(fop, index) {
                if !locations.contains(&dest) {
                    locations.push(dest);
                }
            }
            self.append_wal_locations(fop, index)?;
        }
        Ok(())
    }

    /// One cross-executor push: offers output `(fop, index)` to `dest`'s
    /// store and says whether it landed. A store with no headroom (or a
    /// spill-I/O fault making room: a disk hiccup never fails the job)
    /// parks the push to retry with backoff — journaled `PushDeferred`
    /// the first time, doubling from `parked_ms` after — and a parked
    /// push that lands is journaled `PushResumed`. A lost destination
    /// takes nothing; an output over a whole store budget fails the job.
    fn push(
        &mut self,
        fop: FopId,
        index: usize,
        dest: ExecId,
        output: &Block,
        parked_ms: Option<u64>,
    ) -> Result<bool, RuntimeError> {
        let Some(info) = self.executors.get(&dest).filter(|e| e.live()) else {
            return Ok(false);
        };
        let admitted = info
            .store
            .lock()
            .admit(BlockRef::Output { fop, index }, output);
        let (exec, bytes) = (dest, || block_bytes(output));
        let stage = Some(self.meta.stage_of[fop]);
        match admitted {
            Ok(()) => {
                if parked_ms.is_some() {
                    let resumed = JobEvent::PushResumed {
                        fop,
                        index,
                        exec,
                        bytes: bytes(),
                    };
                    self.journal.emit(stage, resumed);
                }
                Ok(true)
            }
            Err(StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. }) => {
                let backoff_ms = match parked_ms {
                    Some(ms) => ms
                        .saturating_mul(2)
                        .min(self.job.config.retransmit_max_ms.max(1)),
                    None => {
                        let deferred = JobEvent::PushDeferred {
                            fop,
                            index,
                            exec,
                            bytes: bytes(),
                        };
                        self.journal.emit(stage, deferred);
                        self.job.config.retransmit_base_ms.max(1)
                    }
                };
                self.deferred_pushes.push(DeferredPush {
                    fop,
                    index,
                    dest,
                    next_try: self.clock.now() + Duration::from_millis(backoff_ms),
                    backoff_ms,
                });
                Ok(false)
            }
            Err(StoreError::TooLarge { bytes, budget }) => Err(RuntimeError::MemoryExceeded {
                bytes,
                budget,
                context: format!("push of output {fop}.{index} to executor {dest}"),
            }),
        }
    }

    /// The journal frozen into its canonical, replayable form.
    fn frozen_journal(&self) -> EventJournal {
        self.journal.freeze(self.meta.clone())
    }

    /// The job metrics at this moment: every counter the journal can see
    /// is derived from it; the wire-level counts (drops, duplicates,
    /// dedup suppressions, the transmission high-water mark) happen below
    /// the journal's causal horizon inside the simulated network, so they
    /// fold in from the shared transport counters.
    fn snapshot_metrics(&self, journal: &EventJournal) -> JobMetrics {
        let mut m = journal.derive_metrics();
        m.messages_dropped = self.counters.dropped.load(Ordering::Relaxed) as usize;
        m.messages_duplicated = self.counters.duplicated.load(Ordering::Relaxed) as usize;
        m.messages_deduplicated = self.counters.deduplicated.load(Ordering::Relaxed) as usize;
        m.max_message_retransmissions = self
            .counters
            .max_transmissions
            .load(Ordering::Relaxed)
            .saturating_sub(1) as usize;
        m
    }

    fn complete(&self) -> bool {
        (0..self.job.plan.stage_dag.stages.len()).all(|s| self.stage_complete(s))
    }

    fn stage_complete(&self, stage: usize) -> bool {
        let fops = self.job.plan.fops_of(stage);
        fops.iter().all(|&f| self.tasks.fop_done(f))
    }

    fn stage_runnable(&self, stage: usize) -> bool {
        !self.stage_complete(stage)
            && self.job.plan.stage_dag.stages[stage]
                .parents
                .iter()
                .all(|&p| self.stage_complete(p))
    }

    /// Emits `StageCompleted` / `StageReopened` events on transitions.
    /// Loss-caused reopens are emitted eagerly (with `recompute: true`)
    /// inside [`Master::on_executor_lost`]; any flip still unlogged here
    /// is a master-restart rollback, not a recomputation.
    fn note_stage_transitions(&mut self) {
        for stage in 0..self.stage_completed.len() {
            let now = self.stage_complete(stage);
            if now != self.stage_completed[stage] {
                self.journal.emit(
                    Some(stage),
                    if now {
                        JobEvent::StageCompleted(stage)
                    } else {
                        JobEvent::StageReopened {
                            stage,
                            recompute: false,
                        }
                    },
                );
                self.stage_completed[stage] = now;
            }
        }
    }

    fn handle(&mut self, msg: MasterMsg) -> Result<(), RuntimeError> {
        match msg {
            MasterMsg::TaskDone {
                exec,
                attempt,
                output: block,
                buckets,
                preaggregated,
                cache_hit,
                cached_keys,
            } => {
                let output = Output { block, buckets };
                self.on_task_done(exec, attempt, output, preaggregated, cache_hit, cached_keys)
            }
            MasterMsg::TaskFailed {
                exec,
                attempt,
                reason,
            } => self.on_task_failed(exec, attempt, reason),
            MasterMsg::Evict { exec } => {
                self.on_executor_lost(exec, LossKind::Eviction);
                Ok(())
            }
            MasterMsg::FailReserved { exec } => {
                self.on_executor_lost(exec, LossKind::ReservedFailure);
                Ok(())
            }
        }
    }

    /// Where the plan places a fop: fixed at compile time (§3.1).
    fn placement(&self, fop: FopId) -> Placement {
        self.job.plan.fops[fop].placement
    }

    /// The executors of a pool that may take new work (not blacklisted,
    /// not drained), in id order.
    fn schedulable(&self, kind: Placement) -> impl Iterator<Item = (ExecId, &ExecInfo)> {
        self.executors
            .iter()
            .filter(move |(_, e)| e.state == ExecState::Alive && e.handle.kind == kind)
            .map(|(&id, e)| (id, e))
    }

    /// [`Master::schedulable`], as ids.
    fn schedulable_ids(&self, kind: Placement) -> Vec<ExecId> {
        self.schedulable(kind).map(|(id, _)| id).collect()
    }

    fn on_task_done(
        &mut self,
        exec: ExecId,
        attempt: AttemptId,
        output: Output,
        preaggregated: usize,
        cache_hit: bool,
        cached_keys: Vec<CacheKey>,
    ) -> Result<(), RuntimeError> {
        // The commit protocol: an output is processed exactly once, and
        // only for an attempt the master considers current. Stale attempts
        // (evicted containers, fenced masters, losing speculative
        // duplicates) are discarded.
        let Some(a) = self.end_attempt(exec, attempt, Some(cached_keys)) else {
            return Ok(());
        };
        let (fop, index) = (a.fop, a.index);
        let elapsed = self.clock.now().saturating_duration_since(a.launched_at);
        self.fop_durations[fop].push(elapsed.as_millis() as u64);
        let locations = self.commit_locations(fop, index, exec, &output.block)?;
        let pushed = locations.iter().any(|l| l != &exec);
        let bytes_pushed = match self.placement(fop) {
            Placement::Transient if pushed => block_bytes(&output.block),
            _ => 0,
        };
        if self.job.plan.outs(fop).is_empty() {
            // Terminal operator: the output is written to the job sink and
            // is safe regardless of container fate. Sink and location
            // table share the block.
            self.result_parts
                .insert((fop, index), Arc::clone(&output.block));
        }
        // No older version can be in the table: a task launches only
        // while pending, and the revert that made it pending dropped its
        // output with everything derived from it.
        self.outputs.insert((fop, index), output);
        // First commit wins: if this was the speculative duplicate, it
        // beat the original. Either way every other in-flight attempt of
        // this task is a loser now — its eventual report is stale and
        // only frees its executor slot and pins.
        self.tasks.commit(fop, index, locations);
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::TaskCommitted {
                fop,
                index,
                attempt,
                exec,
                speculative: a.speculative,
                bytes_pushed,
                preaggregated,
                cache_hit,
            },
        );
        // The commit's durable half: `TaskCommitted` carries no location
        // set, so the location table rides its own WAL frame.
        self.append_wal_locations(fop, index)?;

        for fault in self.faults.on_commit() {
            self.apply_fault(fault)?;
        }
        Ok(())
    }

    /// What every terminal report (`TaskDone`, `TaskFailed`) does before
    /// anyone asks whether it still counts. Idempotent by construction:
    /// one report per attempt is ever processed, so a
    /// duplicate delivery that slipped past the dedup window cannot
    /// re-commit, re-charge, or free a busy slot a second time. The
    /// attempt is over, win or lose: its input pins release and — the
    /// table retiring its record — the executor's slot frees even when
    /// the report is then discarded. Returns the attempt's record when it
    /// was still current.
    fn end_attempt(
        &mut self,
        exec: ExecId,
        attempt: AttemptId,
        cached_keys: Option<Vec<CacheKey>>,
    ) -> Option<Attempt> {
        let (record, current) = match self.tasks.report(attempt) {
            Report::Duplicate => return None,
            Report::Stale(record) => (record, false),
            Report::Current(a) => (Some(a), true),
        };
        if let Some(a) = &record {
            self.release_pins(a);
        }
        // Refresh the container manager's view of the executor cache.
        let info = self.executors.get_mut(&exec).filter(|e| e.live());
        if let (Some(info), Some(keys)) = (info, cached_keys) {
            info.cached = keys.into_iter().collect();
        }
        record.filter(|_| current)
    }

    /// Releases the input blocks a retired attempt pinned at launch.
    ///
    /// Releasing pins is the one event that creates durable headroom on
    /// a store, so pushes parked against that executor become due
    /// immediately. Timed backoff alone starves here: the scheduler
    /// re-pins freed bytes for the next waiting task within the same
    /// loop iteration, while a clock-gated retry lands milliseconds
    /// late and finds the store full again.
    fn release_pins(&mut self, a: &Attempt) {
        if let Some(info) = self.executors.get(&a.exec) {
            let mut s = info.store.lock();
            for &r in &a.pins {
                s.unpin(r);
            }
        }
        let now = self.clock.now();
        let base = self.job.config.retransmit_base_ms.max(1);
        for p in &mut self.deferred_pushes {
            if p.dest == a.exec {
                p.next_try = now;
                p.backoff_ms = base;
            }
        }
    }

    /// Handles a user-code failure (error or caught panic) of one task
    /// attempt: reverts the attempt, charges the task's retry budget and
    /// the executor's fault threshold, and fails the job terminally once
    /// the budget is exhausted.
    fn on_task_failed(
        &mut self,
        exec: ExecId,
        attempt: AttemptId,
        reason: String,
    ) -> Result<(), RuntimeError> {
        // Stale failures (already-discarded attempts) only free the slot;
        // a current one leaves its task pending again (unless a
        // speculative duplicate still runs).
        let Some(a) = self.end_attempt(exec, attempt, None) else {
            return Ok(());
        };
        let (fop, index) = (a.fop, a.index);
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            JobEvent::TaskFailed {
                fop,
                index,
                attempt,
                exec,
            },
        );
        let failures = self.tasks.charge_failure(fop, index);
        if failures >= self.job.config.max_task_attempts {
            return Err(RuntimeError::TaskFailed {
                fop,
                index,
                attempts: failures,
                reason,
                events: self.frozen_journal().to_events(),
            });
        }

        let threshold = self.job.config.executor_fault_threshold;
        if let Some(info) = self.executors.get_mut(&exec) {
            info.failures += 1;
            if info.failures >= threshold && info.state == ExecState::Alive {
                self.blacklist(exec);
            }
        }
        Ok(())
    }

    /// Blacklists an executor after repeated user-code failures: it gets
    /// no new work but stays alive, so outputs already committed to it
    /// remain readable. A replacement container takes over its share.
    fn blacklist(&mut self, exec: ExecId) {
        let Some(info) = self.executors.get_mut(&exec) else {
            return;
        };
        info.state = ExecState::Blacklisted;
        let kind = info.handle.kind;
        self.journal.emit(None, JobEvent::ExecutorBlacklisted(exec));
        // Re-route receiver assignments that have not yet produced data.
        let tasks = &self.tasks;
        self.assigned
            .retain(|&(f, i), &mut e| e != exec || tasks.is_done(f, i));
        let replacement = self.spawn_executor(kind);
        self.journal
            .emit(None, JobEvent::ContainerAdded(replacement));
    }

    /// Where a completed task's output now lives: reserved anchors keep it
    /// locally; transient tasks push it to the reserved executors assigned
    /// to their consumer tasks (escaping evictions); transient tasks with
    /// only transient consumers keep it locally, still at risk — unless
    /// their executor is drained, when a reserved store takes it instead.
    ///
    /// Every location is backed by a store admission. The producer-local
    /// copy admits unconditionally (spilling itself to disk when memory
    /// has no headroom — a commit never stalls on its own output); a
    /// cross-executor copy is a [`Master::push`], deferred when its
    /// destination cannot take it. Only an output larger than a whole
    /// store budget fails the job, as [`RuntimeError::MemoryExceeded`].
    fn commit_locations(
        &mut self,
        fop: FopId,
        index: usize,
        exec: ExecId,
        output: &Block,
    ) -> Result<Vec<ExecId>, RuntimeError> {
        let r = BlockRef::Output { fop, index };
        let mut dests: Vec<ExecId> = Vec::new();
        if self.placement(fop) != Placement::Reserved {
            let outs = self.job.plan.outs(fop);
            for e in outs {
                if self.placement(e.dst) != Placement::Reserved {
                    continue;
                }
                for di in 0..self.tasks.width(e.dst) {
                    if let Some(&d) = self.assigned.get(&(e.dst, di)) {
                        if d != exec && !dests.contains(&d) {
                            dests.push(d);
                        }
                    }
                }
            }
            let drained = self.executors.get(&exec).map(|e| e.state) == Some(ExecState::Drained);
            if dests.is_empty() && !outs.is_empty() && drained {
                dests.extend(self.reserved_home(index));
            }
        }
        let mut locations: Vec<ExecId> = Vec::new();
        for d in dests {
            if self.push(fop, index, d, output, None)? {
                locations.push(d);
            }
        }
        if locations.is_empty() {
            // No push landed (reserved anchor, transient-only consumers,
            // or every destination backpressured): the producer keeps the
            // output, spilling its own memory if it must.
            let admitted = self
                .executors
                .get(&exec)
                .map(|info| info.store.lock().admit_or_spill(r, output));
            match admitted {
                None | Some(Ok(())) => {}
                Some(Err(StoreError::TooLarge { bytes, budget })) => {
                    return Err(RuntimeError::MemoryExceeded {
                        bytes,
                        budget,
                        context: format!("output {fop}.{index} committed on executor {exec}"),
                    });
                }
                // A spill-write fault left the producer unable to account
                // the block. The data itself lives in the master's shared
                // location table either way, so the commit stands; only
                // the store-side residency record is missing, and an
                // eviction of this executor reverts the task as usual.
                Some(Err(StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. })) => {}
            }
            locations.push(exec);
        }
        Ok(locations)
    }

    /// Carries out a fault the harness's schedule says is due, through
    /// the handler the real event would reach.
    fn apply_fault(&mut self, fault: FaultAction) -> Result<(), RuntimeError> {
        match fault {
            FaultAction::Evict(k) => {
                if let Some(victim) = self.nth_alive(Placement::Transient, k) {
                    self.on_executor_lost(victim, LossKind::Eviction);
                }
            }
            FaultAction::FailReserved(k) => {
                if let Some(victim) = self.nth_alive(Placement::Reserved, k) {
                    self.on_executor_lost(victim, LossKind::ReservedFailure);
                }
            }
            FaultAction::ShrinkBudget(k, bytes) => {
                if let Some(victim) = self.nth_alive(Placement::Reserved, k) {
                    // The store spills what it can and journals the
                    // applied budget (clamped up to pinned occupancy).
                    self.executors[&victim].store.lock().set_budget(bytes);
                }
            }
            FaultAction::Drain(k) => self.drain(k)?,
            FaultAction::Restart(corruption) => self.crash_and_recover(corruption.as_ref())?,
        }
        Ok(())
    }

    /// The `k`-th executor of a pool that is not lost (modulo their
    /// number), in id order.
    fn nth_alive(&self, kind: Placement, k: usize) -> Option<ExecId> {
        let alive: Vec<ExecId> = self
            .executors
            .iter()
            .filter(|(_, e)| e.live() && e.handle.kind == kind)
            .map(|(&id, _)| id)
            .collect();
        alive.get(k % alive.len().max(1)).copied()
    }

    /// A schedulable reserved executor to keep a copy of some task
    /// `index`'s output on, spread by index.
    fn reserved_home(&self, index: usize) -> Option<ExecId> {
        let reserved = self.schedulable_ids(Placement::Reserved);
        reserved.get(index % reserved.len().max(1)).copied()
    }

    /// Drains the `nth` schedulable transient executor (modulo their
    /// number) ahead of a predicted eviction: it takes no new attempt,
    /// and every output only it holds is offered to a reserved store
    /// ([`Master::push_copy`]; one refused for headroom parks and
    /// retries like any push). Nothing is removed from the victim, whose
    /// container and store live on: a drain only ever adds locations, so
    /// no attempt in flight is affected and nothing has to quiesce.
    /// Refused — a no-op — with fewer than two schedulable transient
    /// executors: one has to keep running transient tasks.
    fn drain(&mut self, nth: usize) -> Result<(), RuntimeError> {
        let candidates = self.schedulable_ids(Placement::Transient);
        if candidates.len() < 2 {
            return Ok(());
        }
        let victim = candidates[nth % candidates.len()];
        if let Some(info) = self.executors.get_mut(&victim) {
            info.state = ExecState::Drained;
        }
        self.journal
            .emit(None, JobEvent::ExecutorDrained { exec: victim });
        // Sink-safe outputs need no copy: the job sink has them.
        let sole: Vec<(FopId, usize)> = self
            .tasks
            .committed()
            .filter(|&(f, i, locations)| {
                locations == [victim] && !self.result_parts.contains_key(&(f, i))
            })
            .map(|(f, i, _)| (f, i))
            .collect();
        for (f, i) in sole {
            if let Some(dest) = self.reserved_home(i) {
                self.push_copy(f, i, dest, None)?;
            }
        }
        Ok(())
    }

    /// Handles the loss of a container: eviction (transient), machine
    /// failure (reserved), or a heartbeat-detector death sentence.
    /// Uncommitted attempts revert to pending. A committed output whose
    /// only location died is reverted when a consumer task still has to
    /// read it — which for reserved failures re-opens completed ancestor
    /// stages exactly as §3.2.6 prescribes — and merely dropped when
    /// every consumer already committed: its stage stays complete.
    fn on_executor_lost(&mut self, exec: ExecId, kind_of_loss: LossKind) {
        let Some(info) = self.executors.get_mut(&exec).filter(|e| e.live()) else {
            return;
        };
        info.state = ExecState::Lost;
        info.cached.clear();
        // The kill is a resource-manager action, delivered out-of-band:
        // it reaches even an executor the network has partitioned away.
        info.handle.stop();
        // Its memory died with it: drop the store's contents (and spill
        // files) without journaling — the loss event itself tells the
        // invariant checker to clear the executor's replayed state.
        info.store.lock().clear_silent();
        let kind = info.handle.kind;
        self.deferred_pushes.retain(|p| p.dest != exec);
        // Sync the stage bracket first: a commit in the same frame may
        // have just completed a stage whose `StageCompleted` is not yet
        // logged, and the reopen below must nest inside it.
        self.note_stage_transitions();
        self.journal.emit(
            None,
            match kind_of_loss {
                LossKind::ReservedFailure => JobEvent::ReservedFailed(exec),
                LossKind::Eviction => JobEvent::ContainerEvicted(exec),
                LossKind::DeclaredDead => JobEvent::ExecutorDeclaredDead(exec),
            },
        );

        let complete_before: Vec<bool> = (0..self.job.plan.stage_dag.stages.len())
            .map(|s| self.stage_complete(s))
            .collect();

        // Revert the attempts scheduled on the lost executor (a task
        // racing a speculative duplicate keeps its surviving attempts;
        // the pins died with the store) and destroy data whose only copy
        // lived there. Terminal outputs are safe in the job sink.
        let lost = self.tasks.executor_lost(exec);
        for &(f, i) in &lost.reverted {
            self.forget_output(f, i, JobEvent::TaskReverted { fop: f, index: i });
        }
        for &(f, i) in &lost.dropped {
            let dropped = JobEvent::OutputDropped {
                fop: f,
                index: i,
                exec,
            };
            self.forget_output(f, i, dropped);
        }
        // Invalidate receiver assignments pointing at the lost executor.
        self.assigned.retain(|_, &mut e| e != exec);

        // Completed stages the loss re-opened (reserved-failure
        // recomputation, §3.2.6) are logged eagerly with `recompute:
        // true`; flipping the bracket state here keeps
        // `note_stage_transitions` from double-logging them.
        for (s, was_complete) in complete_before.iter().enumerate() {
            if *was_complete && !self.stage_complete(s) {
                self.journal.emit(
                    Some(s),
                    JobEvent::StageReopened {
                        stage: s,
                        recompute: true,
                    },
                );
                self.stage_completed[s] = false;
            }
        }

        // The resource manager immediately provides a replacement.
        let replacement = self.spawn_executor(kind);
        self.journal
            .emit(None, JobEvent::ContainerAdded(replacement));
    }

    /// Discards the data side of a commit that lost its last copy and
    /// journals what became of the task.
    fn forget_output(&mut self, fop: FopId, index: usize, fate: JobEvent) {
        self.drop_output(fop, index);
        self.journal.emit(Some(self.meta.stage_of[fop]), fate);
    }

    /// The one place an output and what is derived from it go away: the
    /// table entry with its buckets, the fop's broadcast concatenation,
    /// and the unpinned store residency of the block and of exactly the
    /// buckets the entry lists, on every executor (a pinned copy is left
    /// for its running attempt to finish with).
    fn drop_output(&mut self, fop: FopId, index: usize) {
        let dropped = self.outputs.remove(&(fop, index));
        self.side_cache.remove(&fop);
        let buckets = dropped.iter().flat_map(|o| &o.buckets);
        for info in self.executors.values() {
            let mut s = info.store.lock();
            s.remove_unpinned(BlockRef::Output { fop, index });
            for &(dst_par, _) in buckets.clone() {
                for dst in 0..dst_par {
                    s.remove_unpinned(BlockRef::Bucket {
                        fop,
                        index,
                        dst_par,
                        dst,
                    });
                }
            }
        }
    }

    /// The committed output block of task `(fop, index)`, when the
    /// master holds its data.
    fn output(&self, fop: FopId, index: usize) -> Option<&Block> {
        self.outputs.get(&(fop, index)).map(|o| &o.block)
    }

    /// Appends (and syncs) a compacting snapshot frame. A no-op without
    /// an armed WAL.
    fn append_wal_snapshot(&mut self) -> Result<(), RuntimeError> {
        let Some(wal) = self.wal.as_ref().map(Arc::clone) else {
            return Ok(());
        };
        let mut w = wal.lock();
        w.append(&WalRecord::Snapshot(self.tasks.snapshot()))?;
        w.sync()
    }

    /// Appends a snapshot when the writer's event clock says one is due
    /// (`RuntimeConfig::wal_snapshot_every` events since the last).
    fn maybe_wal_snapshot(&mut self) -> Result<(), RuntimeError> {
        let due = match &self.wal {
            Some(wal) => wal.lock().snapshot_due(),
            None => return Ok(()),
        };
        if due {
            self.append_wal_snapshot()?;
        }
        Ok(())
    }

    /// Makes the current location set of task `(fop, index)` durable.
    /// `TaskCommitted` events carry no locations, so every mutation of a
    /// committed output's location set rides its own WAL frame; an empty
    /// set records a commit whose only copy is the job sink's.
    fn append_wal_locations(&mut self, fop: FopId, index: usize) -> Result<(), RuntimeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        wal.lock().append(&WalRecord::Locations {
            fop,
            index,
            locations: self.tasks.locations(fop, index).to_vec(),
        })
    }

    /// Kills the master and rebuilds it from the write-ahead log: the
    /// unsynced WAL suffix is lost (the simulated page cache), optional
    /// seeded corruption mangles the surviving image, and the recovery
    /// scan replays the longest valid prefix into the task table's
    /// durable form, from which the table restarts (DESIGN.md §14).
    ///
    /// Everything else is in-memory state of the dead master and resets,
    /// retry budgets and executor fault counts included. `faults` is not
    /// the master's: the harness's schedule keeps injected faults bounded
    /// per task across the restart. Executors outlive the master,
    /// lifecycle state and transport sessions (sequence numbers, dedup
    /// windows) included: the in-process model restarts master *state*,
    /// not its sockets. So does the in-memory journal, which is where a
    /// relaunch is read from.
    fn crash_and_recover(
        &mut self,
        corruption: Option<&WalCorruption>,
    ) -> Result<(), RuntimeError> {
        let wal = self.wal.clone().ok_or_else(|| {
            RuntimeError::Invariant("master restart requested with no WAL armed".into())
        })?;
        let rec = wal.lock().crash_and_recover(corruption)?;
        // The recovery markers are the first thing the new master logs,
        // and law 10 fences every in-flight pre-crash attempt at the
        // `MasterRecovered` mark.
        self.journal.emit(None, JobEvent::MasterRecovered);
        self.journal.emit(
            None,
            JobEvent::WalRecovered {
                frames_replayed: rec.frames_replayed,
                frames_truncated: rec.frames_truncated,
                snapshot_restored: rec.snapshot_restored,
            },
        );
        // The executors outlive the master, so the fenced attempts' pins
        // lift before the refetch below needs the room. Deferred pushes
        // die with the dead master's queue.
        for a in self.tasks.fence() {
            self.release_pins(&a);
        }
        self.deferred_pushes.clear();
        self.outputs.clear();
        self.side_cache.clear();
        self.assigned.clear();
        for info in self.executors.values_mut() {
            info.failures = 0;
        }

        // Each logged commit keeps the locations still alive; its block is
        // refetched from one of them, a terminal output falls back to the
        // durable result parts (and is not restored without one), and any
        // other stays committed without data for `settle` to judge.
        let (executors, outputs, parts) =
            (&self.executors, &mut self.outputs, &mut self.result_parts);
        let plan = &self.job.plan;
        let undone = self.tasks.restart(&rec.snapshot, |f, i, logged| {
            let mut locations: Vec<ExecId> = logged
                .iter()
                .copied()
                .filter(|l| executors.get(l).is_some_and(ExecInfo::live))
                .collect();
            let r = BlockRef::Output { fop: f, index: i };
            let mut block = locations.iter().find_map(|l| {
                let fetched = executors.get(l)?.store.lock().get(r);
                fetched.ok().flatten()
            });
            if plan.outs(f).is_empty() {
                block = block.or_else(|| parts.get(&(f, i)).map(Arc::clone));
                parts.insert((f, i), Arc::clone(block.as_ref()?));
            }
            match block {
                // A refetched block arrives without buckets; its first
                // shuffle read routes it (`Master::routed_bucket`).
                Some(block) => {
                    let buckets = Vec::new();
                    outputs.insert((f, i), Output { block, buckets });
                }
                None => locations.clear(),
            }
            Some(locations)
        });
        // Result parts of tasks the log no longer believes committed
        // must not leak into the job output: their tasks recompute and
        // re-commit identical bytes.
        let tasks = &self.tasks;
        self.result_parts.retain(|&(f, i), _| tasks.is_done(f, i));
        for (fop, index) in undone.reverted {
            let stage = Some(self.meta.stage_of[fop]);
            self.journal
                .emit(stage, JobEvent::TaskReverted { fop, index });
        }
        for (fop, index, exec) in undone.dropped {
            let stage = Some(self.meta.stage_of[fop]);
            self.journal
                .emit(stage, JobEvent::OutputDropped { fop, index, exec });
        }
        self.note_stage_transitions();
        // A fresh snapshot compacts the replay for the next crash and
        // resets the writer's snapshot clock.
        self.append_wal_snapshot()
    }

    /// One scheduling pass: over every runnable stage, assign reserved
    /// receivers first, then launch every ready pending task with the
    /// round-robin, cache-aware policy.
    fn schedule(&mut self) -> Result<(), RuntimeError> {
        let job = Arc::clone(&self.job);
        for stage in job.plan.stage_dag.topo_order() {
            if !self.stage_runnable(stage) {
                continue;
            }
            self.assign_receivers(stage);
            // Reserved receivers launch as soon as their inputs are ready;
            // transient tasks fill free slots round-robin.
            for kind in [Placement::Reserved, Placement::Transient] {
                for &f in job.plan.fops_of(stage) {
                    if self.placement(f) != kind {
                        continue;
                    }
                    for i in 0..self.tasks.width(f) {
                        if !self.tasks.is_pending(f, i) || !self.task_ready(f, i) {
                            continue;
                        }
                        // Every transient slot is held: retry on the next event.
                        if kind == Placement::Transient && self.free_slots(kind).next().is_none() {
                            break;
                        }
                        if let Some(exec) = self.pick_executor(f, i) {
                            self.launch(f, i, exec, false)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Pre-assigns each reserved task of the stage to a reserved executor
    /// so transient producers know their push destinations (§3.2.3: "the
    /// task scheduler first schedules and sets up the tasks placed on
    /// reserved executors").
    fn assign_receivers(&mut self, stage: usize) {
        let reserved = self.schedulable_ids(Placement::Reserved);
        if reserved.is_empty() {
            return;
        }
        let mut cursor = 0usize;
        let job = Arc::clone(&self.job);
        for &f in job.plan.fops_of(stage) {
            if self.placement(f) != Placement::Reserved {
                continue;
            }
            for i in 0..self.tasks.width(f) {
                self.assigned.entry((f, i)).or_insert_with(|| {
                    let e = reserved[cursor % reserved.len()];
                    cursor += 1;
                    e
                });
            }
        }
    }

    /// Whether all of a task's inputs are available.
    fn task_ready(&self, fop: FopId, index: usize) -> bool {
        let dst_par = self.tasks.width(fop);
        self.job.plan.ins(fop).iter().all(|e| {
            required_src_indices(e, index, self.tasks.width(e.src), dst_par)
                .all(|si| self.tasks.is_done(e.src, si))
        })
    }

    /// Launches one attempt of task `(fop, index)` on `exec`: the task's
    /// only one, or — `speculative` — a duplicate of a straggling attempt.
    /// The duplicate shares the task's identity, so whichever attempt
    /// finishes first commits and the other is discarded by the commit
    /// protocol (never double-committed).
    fn launch(
        &mut self,
        fop: FopId,
        index: usize,
        exec: ExecId,
        speculative: bool,
    ) -> Result<(), RuntimeError> {
        // Admission control: a task launches only when every main input
        // can be pinned on its executor. A refusal leaves the task
        // pending — other tasks keep scheduling, and this one retries
        // once running attempts release their pins. Speculation is
        // strictly optional work: a refused duplicate is just skipped.
        let mains = self.main_inputs(fop, index)?;
        let Some(pins) = self.pin_inputs(fop, index, exec, &mains)? else {
            return Ok(());
        };
        let mains = mains
            .into_iter()
            .map(|parts| MainSlot::from_blocks(parts.into_iter().map(|(_, b)| b).collect()))
            .collect();
        let (sides, side) = self.side_inputs(fop, exec)?;
        let route_to = self.shuffle_widths(fop);
        let preaggregate = self.placement(fop) == Placement::Transient
            && self.job.config.partial_aggregation
            && combine_consumer(&self.job.dag, &self.job.plan, fop).is_some();

        let attempt = self.tasks.begin(Attempt {
            fop,
            index,
            exec,
            launched_at: self.clock.now(),
            speculative,
            pins,
        });
        self.journal.emit(
            Some(self.meta.stage_of[fop]),
            if speculative {
                JobEvent::SpeculativeLaunched {
                    fop,
                    index,
                    attempt,
                    exec,
                    side_bytes_sent: side.sent,
                    side_bytes_saved: side.saved,
                    side_cache_misses: side.misses,
                }
            } else {
                JobEvent::TaskLaunched {
                    fop,
                    index,
                    attempt,
                    exec,
                    side_bytes_sent: side.sent,
                    side_bytes_saved: side.saved,
                    side_cache_misses: side.misses,
                }
            },
        );
        let info = self.executors.get_mut(&exec).ok_or_else(|| {
            RuntimeError::Invariant(format!("picked executor {exec} is not registered"))
        })?;
        info.out.send(ExecutorMsg::Run(TaskSpec {
            attempt,
            fop,
            index,
            mains,
            sides,
            preaggregate,
            route_to,
            inject: self.faults.on_launch(fop, index),
        }));
        Ok(())
    }

    /// The widths a task of `fop` partitions its output for: the distinct
    /// parallelisms of the consumers that read it through a shuffle.
    fn shuffle_widths(&self, fop: FopId) -> Vec<usize> {
        let mut widths: Vec<usize> = Vec::new();
        for e in self.job.plan.outs(fop) {
            let width = self.tasks.width(e.dst);
            let shuffled = e.dep == DepType::ManyToMany && matches!(e.slot, InputSlot::Main(_));
            if shuffled && !widths.contains(&width) {
                widths.push(width);
            }
        }
        widths
    }

    /// Resolves the main inputs of task `(fop, index)`, one list per main
    /// edge: every required producer part as the store reference the
    /// consumer pins and the shared block it reads. Narrow edges read the
    /// producer's output block itself; a shuffle consumer reads — and
    /// pins — only its bucket of it (pinning full `ManyToMany` inputs
    /// would deadlock tight budgets outright). No record is cloned.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Invariant`] when a required input is not
    /// materialized — a scheduler bug (`task_ready` must gate every
    /// launch), surfaced instead of panicking the master.
    fn main_inputs(
        &mut self,
        fop: FopId,
        index: usize,
    ) -> Result<Vec<Vec<(BlockRef, Block)>>, RuntimeError> {
        let dst_par = self.tasks.width(fop);
        let job = Arc::clone(&self.job);
        let mut mains = Vec::new();
        for e in job.plan.ins(fop) {
            if !matches!(e.slot, InputSlot::Main(_)) {
                continue;
            }
            let mut parts = Vec::new();
            for si in required_src_indices(e, index, self.tasks.width(e.src), dst_par) {
                let (r, block) = match e.dep {
                    DepType::ManyToMany => (
                        BlockRef::Bucket {
                            fop: e.src,
                            index: si,
                            dst_par,
                            dst: index,
                        },
                        self.routed_bucket(e.src, si, dst_par, index),
                    ),
                    _ => (
                        BlockRef::Output {
                            fop: e.src,
                            index: si,
                        },
                        self.output(e.src, si).map(Arc::clone),
                    ),
                };
                let block = block.ok_or_else(|| {
                    RuntimeError::Invariant(format!(
                        "task {fop}.{index} launched before input {}.{si} was ready",
                        e.src
                    ))
                })?;
                parts.push((r, block));
            }
            mains.push(parts);
        }
        Ok(mains)
    }

    /// Admission control at launch: pins every main-input block of task
    /// `(fop, index)` on `exec`'s store *before* the attempt exists, so
    /// a running task's inputs can never spill (or be shed) under it.
    ///
    /// Returns `Ok(None)` on a headroom refusal: the pins taken so far
    /// roll back and the task stays pending (the scheduler reorders
    /// around it and retries once running attempts release memory).
    /// When the task's own requirement alone exceeds the budget on an
    /// otherwise-empty store, no amount of waiting can help — that is a
    /// terminal [`RuntimeError::MemoryExceeded`], not a deferral.
    fn pin_inputs(
        &self,
        fop: FopId,
        index: usize,
        exec: ExecId,
        mains: &[Vec<(BlockRef, Block)>],
    ) -> Result<Option<Vec<BlockRef>>, RuntimeError> {
        let info = self.executors.get(&exec).ok_or_else(|| {
            RuntimeError::Invariant(format!("picked executor {exec} is not registered"))
        })?;
        let mut s = info.store.lock();
        let mut pinned: Vec<BlockRef> = Vec::new();
        for (r, data) in mains.iter().flatten() {
            let refusal = match s.pin(*r, data) {
                Ok(()) => {
                    pinned.push(*r);
                    continue;
                }
                Err(refusal) => refusal,
            };
            let held = mains.iter().flatten().take(pinned.len());
            let pinned_bytes: usize = held.map(|(_, data)| block_bytes(data)).sum();
            for p in pinned {
                s.unpin(p);
            }
            return match refusal {
                // Refusal with nothing resident but our own pins means
                // the requirement itself is over budget.
                StoreError::NoHeadroom {
                    needed,
                    budget,
                    resident,
                } if resident <= pinned_bytes => Err(RuntimeError::MemoryExceeded {
                    bytes: pinned_bytes + needed,
                    budget,
                    context: format!("inputs of task {fop}.{index} on executor {exec}"),
                }),
                StoreError::TooLarge { bytes, budget } => Err(RuntimeError::MemoryExceeded {
                    bytes,
                    budget,
                    context: format!("input {r} of task {fop}.{index} on executor {exec}"),
                }),
                // A rotted spilled copy counts as a headroom refusal: the
                // store already dropped the corrupt entry, the task stays
                // pending, and the next admission re-pins from the
                // master's copy.
                StoreError::NoHeadroom { .. } | StoreError::SpillUnreadable { .. } => Ok(None),
            };
        }
        Ok(Some(pinned))
    }

    /// Completed attempts a fop needs before its median duration is
    /// trusted to call a running attempt a straggler.
    const SPECULATION_MIN_SAMPLES: usize = 3;

    /// Straggler mitigation: for every fop with enough completed-attempt
    /// samples, duplicate any single-attempt task whose elapsed time
    /// exceeds `speculation_multiplier` × the fop's median duration
    /// (floored by `speculation_floor_ms`). First commit wins.
    fn maybe_speculate(&mut self) -> Result<(), RuntimeError> {
        if !self.job.config.speculation {
            return Ok(());
        }
        let mult = self.job.config.speculation_multiplier;
        let floor = self.job.config.speculation_floor_ms;
        let mut stragglers: Vec<(FopId, usize, ExecId)> = Vec::new();
        for f in 0..self.fop_durations.len() {
            if self.fop_durations[f].len() < Self::SPECULATION_MIN_SAMPLES {
                continue;
            }
            let mut durs = self.fop_durations[f].clone();
            let mid = durs.len() / 2;
            let median = *durs.select_nth_unstable(mid).1;
            let threshold = ((median as f64 * mult) as u64).max(floor);
            let now = self.clock.now();
            // Never stack duplicates: one speculative race at a time. And a
            // duplicate reads its inputs anew: none while a loss has one reverted.
            for (i, a) in self.tasks.sole_attempts(f) {
                let elapsed = now.saturating_duration_since(a.launched_at).as_millis() as u64;
                if elapsed > threshold && self.task_ready(f, i) {
                    stragglers.push((f, i, a.exec));
                }
            }
        }
        for (f, i, avoid) in stragglers {
            // No spare executor: keep waiting on the original.
            if let Some(exec) = self.pick_spare(f, avoid) {
                self.launch(f, i, exec, true)?;
            }
        }
        Ok(())
    }

    /// The executor a speculative duplicate goes to: the least busy one
    /// of the fop's pool, other than the straggler's own.
    fn pick_spare(&self, fop: FopId, avoid: ExecId) -> Option<ExecId> {
        self.free_slots(self.placement(fop))
            .filter(|&(id, ..)| id != avoid)
            .max_by_key(|&(id, _, free)| (free, std::cmp::Reverse(id)))
            .map(|(id, ..)| id)
    }

    /// The schedulable executors of a pool with a free task slot, with
    /// how many they have free.
    fn free_slots(&self, kind: Placement) -> impl Iterator<Item = (ExecId, &ExecInfo, usize)> {
        let slots = self.job.config.slots_per_executor.max(1);
        self.schedulable(kind)
            .map(move |(id, e)| (id, e, slots.saturating_sub(self.tasks.held(id))))
            .filter(|&(.., free)| free > 0)
    }

    /// A cacheable side-input key of this fop, if any (used for
    /// cache-aware scheduling).
    fn cache_preference(&self, fop: FopId) -> Option<CacheKey> {
        self.job
            .plan
            .ins(fop)
            .iter()
            .find(|e| e.slot == InputSlot::Side && e.cache)
            .map(|e| e.src)
    }

    /// The default scheduling policy (§3.2.3): prefer an executor that
    /// caches the task's input; otherwise round-robin over alive
    /// executors with a free task slot. Reserved tasks go to their
    /// pre-assigned receiver.
    fn pick_executor(&mut self, fop: FopId, index: usize) -> Option<ExecId> {
        let kind = self.placement(fop);
        let cache_pref = self.cache_preference(fop);
        if kind == Placement::Reserved {
            if let Some(&e) = self.assigned.get(&(fop, index)) {
                if self.executors.get(&e).map(|i| i.state) == Some(ExecState::Alive) {
                    return Some(e);
                }
            }
            // The assigned receiver died or was blacklisted; fall through
            // to any reserved.
        }
        let candidates: Vec<Candidate> = self
            .free_slots(kind)
            .map(|(exec, e, free_slots)| Candidate {
                exec,
                free_slots,
                has_cached_input: cache_pref.is_some_and(|k| e.cached.contains(&k)),
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        self.policy.pick(
            TaskToPlace {
                fop,
                index,
                cache_pref,
            },
            &candidates,
        )
    }

    /// Packages a task's side inputs: each broadcast dataset as one
    /// shared block, with what shipping it to `exec` costs or saves.
    fn side_inputs(
        &mut self,
        fop: FopId,
        exec: ExecId,
    ) -> Result<(BTreeMap<usize, SideData>, SideStats), RuntimeError> {
        let mut sides: BTreeMap<usize, SideData> = BTreeMap::new();
        let mut stats = SideStats::default();
        let job = Arc::clone(&self.job);
        for e in job.plan.ins(fop) {
            if e.slot != InputSlot::Side {
                continue;
            }
            let records = self.side_records(e.src, self.tasks.width(e.src))?;
            let bytes = block_bytes(&records);
            let key = e.cache.then_some(e.src);
            let expect_cached = key.is_some_and(|k| self.executors[&exec].cached.contains(&k));
            if expect_cached {
                stats.saved += bytes;
            } else {
                stats.sent += bytes;
                if key.is_some() {
                    stats.misses += 1;
                }
            }
            sides.insert(
                e.member,
                SideData {
                    key,
                    records,
                    expect_cached,
                },
            );
        }
        Ok((sides, stats))
    }

    /// The shuffle bucket `dst_index` of output `(src, si)` hashed to
    /// `dst_par` consumers, as its task reported it. Only an output
    /// refetched from a store after a master restart arrives without
    /// buckets: its first read routes it here, once, and files the result.
    fn routed_bucket(
        &mut self,
        src: FopId,
        si: usize,
        dst_par: usize,
        dst_index: usize,
    ) -> Option<Block> {
        let out = self.outputs.get_mut(&(src, si))?;
        let at = match out.buckets.iter().position(|&(w, _)| w == dst_par) {
            Some(at) => at,
            None => {
                let routed = route(&out.block, DepType::ManyToMany, si, dst_par);
                out.buckets.push((dst_par, routed));
                out.buckets.len() - 1
            }
        };
        out.buckets[at].1.get(dst_index).map(Arc::clone)
    }

    /// The full broadcast dataset of a producer fop, as one shared block.
    /// Single-part producers share their output block outright; multi-part
    /// concatenations are built once and memoized.
    ///
    /// # Errors
    ///
    /// A committed part with no data is a scheduler bug — a dropped
    /// output has no consumer left to launch — surfaced rather than
    /// broadcast as a silently shorter dataset.
    fn side_records(&mut self, src: FopId, src_par: usize) -> Result<Block, RuntimeError> {
        let part = |si: usize| {
            self.output(src, si).ok_or_else(|| {
                RuntimeError::Invariant(format!("side input {src}.{si} is committed without data"))
            })
        };
        if src_par == 1 {
            return part(0).map(Arc::clone);
        }
        if let Some(b) = self.side_cache.get(&src) {
            return Ok(Arc::clone(b));
        }
        let mut all = Vec::new();
        for si in 0..src_par {
            all.extend(part(si)?.iter().cloned());
        }
        let block = block_from_vec(all);
        self.side_cache.insert(src, Arc::clone(&block));
        Ok(block)
    }

    fn collect_result(&self) -> JobResult {
        let mut outputs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
        for ((fop, _idx), records) in &self.result_parts {
            let tail = self.job.plan.fops[*fop].tail();
            let name = self.job.dag.op(tail).name.clone();
            outputs.entry(name).or_default().extend(records.to_rows());
        }
        let journal = self.frozen_journal();
        let metrics = self.snapshot_metrics(&journal);
        JobResult {
            outputs,
            metrics,
            journal,
        }
    }

    fn shutdown(&mut self) {
        for (_, info) in std::mem::take(&mut self.executors) {
            info.handle.stop();
            info.handle.join();
        }
        // Threaded backend: joining executors only joins their control
        // threads — task bodies run on the shared pool. Wait for it to
        // drain so every straggling journal emission (e.g. a loser
        // attempt's TaskStarted) lands before the journal freezes.
        let in_flight = match &self.pool {
            Some(pool) => {
                pool.wait_quiesce(Duration::from_secs(10));
                pool.in_flight()
            }
            None => 0,
        };
        // Every run — clean, aborted, or stalled — records the pool
        // quiesce outcome; law 11 requires the count to be zero, and
        // requires this marker after any abort marker.
        self.journal
            .emit(None, JobEvent::PoolQuiesced { in_flight });
    }

    /// A clone of the live journal writer and the plan facts it freezes
    /// with: the threaded backstop's report when the master thread is
    /// stuck.
    pub fn journal_handle(&self) -> (Journal, JournalMeta) {
        (self.journal.clone(), self.meta.clone())
    }
}

/// Which producer task indices a consumer task needs along an edge, in
/// ascending order.
pub fn required_src_indices(
    edge: &PlanEdge,
    dst_index: usize,
    src_par: usize,
    dst_par: usize,
) -> impl Iterator<Item = usize> {
    let (range, step) = match edge.dep {
        DepType::OneToOne => (dst_index..src_par.min(dst_index + 1), 1),
        DepType::OneToMany | DepType::ManyToMany => (0..src_par, 1),
        DepType::ManyToOne => (dst_index..src_par, dst_par.max(1)),
    };
    range.step_by(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::InputSlot;

    fn edge(dep: DepType) -> PlanEdge {
        PlanEdge {
            src: 0,
            dst: 1,
            dep,
            slot: InputSlot::Main(0),
            cache: false,
            cross_stage: false,
            member: 0,
        }
    }

    fn required(dep: DepType, dst_index: usize, src_par: usize, dst_par: usize) -> Vec<usize> {
        required_src_indices(&edge(dep), dst_index, src_par, dst_par).collect()
    }

    #[test]
    fn required_indices_one_to_one() {
        assert_eq!(required(DepType::OneToOne, 2, 4, 4), vec![2]);
        assert!(required(DepType::OneToOne, 5, 4, 8).is_empty());
    }

    #[test]
    fn required_indices_wide_edges_need_all() {
        assert_eq!(required(DepType::ManyToMany, 0, 3, 2), vec![0, 1, 2]);
        assert_eq!(required(DepType::OneToMany, 1, 2, 5), vec![0, 1]);
    }

    #[test]
    fn required_indices_many_to_one_partitions_by_modulo() {
        assert_eq!(required(DepType::ManyToOne, 0, 5, 2), vec![0, 2, 4]);
        assert_eq!(required(DepType::ManyToOne, 1, 5, 2), vec![1, 3]);
    }

    // --- Evict/commit race regression tests ---
    //
    // These drive the master's private `handle` directly, manufacturing
    // the in-flight attempt state, because the end-to-end path cannot
    // deterministically order an eviction against an in-flight TaskDone
    // (the chaos suites cover the stochastic orderings).

    fn test_master() -> Master {
        test_master_with(FaultPlan::default(), Default::default())
    }

    fn test_master_with(faults: FaultPlan, config: crate::runtime::RuntimeConfig) -> Master {
        use pado_dag::{Pipeline, SourceFn};
        let p = Pipeline::new();
        p.read("R", 1, SourceFn::from_vec(vec![Value::from(1i64)]))
            .sink("S");
        let dag = p.build().unwrap();
        let plan = crate::compiler::compile(&dag).unwrap();
        let job = Arc::new(JobContext { dag, plan, config });
        Master::new(job, 1, 1, faults).expect("master creation")
    }

    /// The canonical event log, frozen from the live journal.
    fn events(m: &Master) -> Vec<JobEvent> {
        m.frozen_journal().to_events()
    }

    /// The journal-derived metrics, as `run()` would report them.
    fn derived(m: &Master) -> JobMetrics {
        let journal = m.frozen_journal();
        m.snapshot_metrics(&journal)
    }

    /// A fop with no consumers (its output goes to the job sink).
    fn terminal_fop(m: &Master) -> FopId {
        (0..m.job.plan.fops.len())
            .find(|&f| m.job.plan.out_edges(f).is_empty())
            .expect("plan has a terminal fop")
    }

    /// Puts task `(fop, 0)` in flight on `exec` the way `launch` would,
    /// minus the executor-side send.
    fn begin(m: &mut Master, fop: FopId, exec: ExecId) -> AttemptId {
        begin_task(m, fop, 0, exec)
    }

    fn begin_task(m: &mut Master, fop: FopId, index: usize, exec: ExecId) -> AttemptId {
        let a = Attempt {
            fop,
            index,
            exec,
            launched_at: m.clock.now(),
            speculative: false,
            pins: Vec::new(),
        };
        m.tasks.begin(a)
    }

    fn done_msg(exec: ExecId, attempt: AttemptId) -> MasterMsg {
        MasterMsg::TaskDone {
            exec,
            attempt,
            output: block_from_vec(vec![Value::from(1i64)]),
            buckets: Vec::new(),
            preaggregated: 0,
            cache_hit: false,
            cached_keys: Vec::new(),
        }
    }

    #[test]
    fn task_done_after_evict_is_discarded_consistently() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1; // Spawn order is reserved-first: 1 is transient.
        let attempt = begin(&mut m, f, exec);

        m.handle(MasterMsg::Evict { exec }).unwrap();
        assert!(
            m.tasks.is_pending(f, 0),
            "eviction reverts the in-flight attempt"
        );
        assert_eq!(derived(&m).evictions, 1);

        // The TaskDone the evicted executor had in flight lands late: it
        // must be a complete no-op — no panic, no commit, no resurrected
        // task state, relaunch bookkeeping untouched.
        let commits_before = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        m.handle(done_msg(exec, attempt)).unwrap();
        assert!(m.tasks.is_pending(f, 0));
        assert!(m.outputs.is_empty());
        let commits_after = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        assert_eq!(commits_before, commits_after, "no post-evict commit");
        m.shutdown();
    }

    #[test]
    fn evict_after_task_done_keeps_committed_terminal_output() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        let attempt = begin(&mut m, f, exec);
        assert_eq!(m.tasks.held(exec), 1);

        m.handle(done_msg(exec, attempt)).unwrap();
        assert!(m.tasks.is_done(f, 0));
        assert_eq!(m.tasks.held(exec), 0);

        // The other ordering: eviction lands after the commit. Terminal
        // outputs live in the job sink, so the task must stay Done (no
        // revert, no relaunch) even though its only executor location died.
        m.handle(MasterMsg::Evict { exec }).unwrap();
        assert!(
            m.tasks.is_done(f, 0),
            "committed terminal output survives the eviction"
        );
        assert!(!events(&m)
            .iter()
            .any(|e| matches!(e, JobEvent::TaskReverted { .. })));
        m.shutdown();
    }

    /// Two maps shuffled to three keyed combines, and the map fop's id.
    fn shuffle_master(config: crate::runtime::RuntimeConfig) -> (Master, FopId) {
        use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn};

        let p = Pipeline::new();
        p.read("R", 2, SourceFn::from_vec(Vec::new()))
            .par_do("M", ParDoFn::per_element(|v, emit| emit(v.clone())))
            .combine_per_key("C", CombineFn::sum_i64())
            .with_parallelism(3)
            .sink("S");
        let dag = p.build().unwrap();
        let plan = crate::compiler::compile(&dag).unwrap();
        let job = Arc::new(JobContext { dag, plan, config });
        let m = Master::new(job, 1, 1, FaultPlan::default()).unwrap();
        let map = (0..m.job.plan.fops.len())
            .find(|&f| {
                let outs = m.job.plan.outs(f);
                outs.iter().any(|e| e.dep == DepType::ManyToMany)
            })
            .expect("the map fop feeds a shuffle");
        (m, map)
    }

    /// What a map task of [`shuffle_master`] reports: 60 pairs over 13
    /// keys, partitioned for the three combines.
    fn shuffled_done(exec: ExecId, attempt: AttemptId, index: usize) -> (MasterMsg, Vec<Block>) {
        let output = block_from_vec(
            (0..60)
                .map(|i| Value::pair(Value::from(i % 13), Value::from(i)))
                .collect(),
        );
        let buckets = route(&output, DepType::ManyToMany, index, 3);
        let msg = MasterMsg::TaskDone {
            exec,
            attempt,
            output,
            buckets: vec![(3, buckets.clone())],
            preaggregated: 0,
            cache_hit: false,
            cached_keys: Vec::new(),
        };
        (msg, buckets)
    }

    /// A scheduling pass asks the policy only while a transient slot is
    /// free: with the one slot held, the pending map is not offered.
    #[test]
    fn the_policy_is_not_asked_while_every_transient_slot_is_held() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(Arc<AtomicUsize>);
        impl SchedulingPolicy for Counting {
            fn pick(&mut self, task: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId> {
                self.0.fetch_add(1, Ordering::Relaxed);
                RoundRobinCacheAware::default().pick(task, candidates)
            }
        }
        let config = crate::runtime::RuntimeConfig {
            slots_per_executor: 1,
            ..Default::default()
        };
        let (mut m, map) = shuffle_master(config);
        let asked = Arc::new(AtomicUsize::new(0));
        m.set_policy(Box::new(Counting(Arc::clone(&asked))));
        let exec: ExecId = 1;
        let attempt = begin(&mut m, map, exec);
        m.schedule().unwrap();
        assert_eq!(asked.load(Ordering::Relaxed), 0);
        assert!(m.tasks.is_pending(map, 1));

        m.handle(shuffled_done(exec, attempt, 0).0).unwrap();
        m.schedule().unwrap();
        assert_eq!(
            asked.load(Ordering::Relaxed),
            1,
            "the freed slot takes map 1"
        );
        assert!(!m.tasks.is_pending(map, 1));
        m.shutdown();
    }

    /// The producing task partitions a shuffle output; the master files
    /// what it reported and serves those very blocks. It routes only an
    /// entry that has no buckets (an output refetched after a restart),
    /// and then once.
    #[test]
    fn a_commit_files_the_reported_buckets_and_a_miss_routes_once() {
        let (mut m, map) = shuffle_master(crate::runtime::RuntimeConfig::default());
        assert_eq!(
            m.shuffle_widths(map),
            vec![3],
            "what launch asks the task for"
        );
        assert!(m.shuffle_widths(terminal_fop(&m)).is_empty());

        let exec: ExecId = 1;
        let attempt = begin(&mut m, map, exec);
        let (done, buckets) = shuffled_done(exec, attempt, 0);
        m.handle(done).unwrap();
        assert_eq!(buckets.iter().map(|b| b.len()).sum::<usize>(), 60);
        for (dst, bucket) in buckets.iter().enumerate() {
            let served = m.routed_bucket(map, 0, 3, dst).expect("filed at commit");
            assert!(Arc::ptr_eq(&served, bucket), "admission pins this block");
        }

        m.outputs.get_mut(&(map, 0)).unwrap().buckets.clear();
        let first = m.routed_bucket(map, 0, 3, 1).expect("routed on the miss");
        assert!(!Arc::ptr_eq(&first, &buckets[1]));
        assert_eq!(first.to_rows(), buckets[1].to_rows());
        let second = m.routed_bucket(map, 0, 3, 1).expect("filed by the miss");
        assert!(Arc::ptr_eq(&first, &second), "one record pass per output");
        m.shutdown();
    }

    /// A commit leaves the output on every store its location set names,
    /// and nothing short of a loss takes it away again: a fault-free job
    /// never journals the release of an output block.
    #[test]
    fn a_committed_output_stays_on_the_stores_its_locations_name() {
        let config = crate::runtime::RuntimeConfig {
            executor_memory_bytes: 1 << 20,
            ..Default::default()
        };
        let (mut m, map) = shuffle_master(config);
        // The combines get their reserved receiver, so the transient
        // maps push to it instead of keeping their output.
        m.assign_receivers(m.meta.stage_of[map]);
        let exec: ExecId = 1;
        for index in 0..2 {
            let attempt = begin_task(&mut m, map, index, exec);
            m.handle(shuffled_done(exec, attempt, index).0).unwrap();
            let locations = m.tasks.locations(map, index).to_vec();
            assert_eq!(locations, vec![0], "pushed to the reserved executor");
            for l in locations {
                let r = BlockRef::Output { fop: map, index };
                assert!(
                    m.executors[&l].store.lock().contains(r),
                    "executor {l} is a location of {r} and must hold it"
                );
            }
        }
        // The rest of the job runs for real: combines pin their buckets,
        // commit, and the job completes.
        m.run_loop().unwrap();
        for (f, i, locations) in m.tasks.committed() {
            let r = BlockRef::Output { fop: f, index: i };
            for l in locations {
                assert!(m.executors[l].store.lock().contains(r), "{r} on {l}");
            }
        }
        let released: Vec<JobEvent> = events(&m)
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    JobEvent::BlockReleased {
                        block: BlockRef::Output { .. },
                        ..
                    }
                )
            })
            .collect();
        assert!(released.is_empty(), "no loss, no release: {released:?}");
        m.shutdown();
    }

    #[test]
    fn duplicate_task_done_is_idempotent() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        let attempt = begin(&mut m, f, exec);
        // Two busy slots (a duplicate of the task races it on the same
        // executor): a duplicate delivery must not free the second.
        begin(&mut m, f, exec);

        m.handle(done_msg(exec, attempt)).unwrap();
        m.handle(done_msg(exec, attempt)).unwrap();
        assert_eq!(
            m.tasks.held(exec),
            1,
            "duplicate TaskDone must not double-free a busy slot"
        );
        let commits = events(&m)
            .iter()
            .filter(|e| matches!(e, JobEvent::TaskCommitted { .. }))
            .count();
        assert_eq!(commits, 1, "first-commit-wins under duplicate delivery");
        m.shutdown();
    }

    #[test]
    fn duplicate_task_failed_charges_budget_once() {
        let mut m = test_master();
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        let attempt = begin(&mut m, f, exec);
        begin(&mut m, f, exec);

        let fail = |m: &mut Master| {
            m.handle(MasterMsg::TaskFailed {
                exec,
                attempt,
                reason: "injected".into(),
            })
            .unwrap()
        };
        fail(&mut m);
        fail(&mut m);
        assert_eq!(derived(&m).task_failures, 1, "one failure, not two");
        assert_eq!(m.tasks.failures(f, 0), 1, "retry charged once");
        assert_eq!(m.tasks.held(exec), 1);
        m.shutdown();
    }

    /// A restart fences the dead master's attempts but their bodies run
    /// on: the late report of one frees no slot a post-restart attempt
    /// holds on the same executor.
    #[test]
    fn a_fenced_attempts_late_report_frees_no_slot() {
        let mut m = test_master_with(restartable(), Default::default());
        let f = terminal_fop(&m);
        let exec: ExecId = 1;
        let fenced = begin(&mut m, f, exec);
        m.crash_and_recover(None).unwrap();
        assert_eq!(m.tasks.held(exec), 0, "the restarted table holds nothing");
        begin(&mut m, f, exec);
        m.handle(done_msg(exec, fenced)).unwrap();
        assert!(!m.tasks.is_done(f, 0), "a fenced report commits nothing");
        assert_eq!(m.tasks.held(exec), 1, "the live attempt keeps its slot");
        m.shutdown();
    }

    /// A plan that arms the WAL (the restart itself is applied by hand).
    fn restartable() -> FaultPlan {
        FaultPlan {
            master_failure_after: Some(usize::MAX),
            ..Default::default()
        }
    }

    /// A relaunch is read from the journal, which outlives the master: a
    /// launch the WAL lost in its unsynced suffix still makes the next
    /// launch of its task a relaunch, and the launch ledger balances.
    #[test]
    fn a_launch_the_wal_lost_still_makes_the_next_one_a_relaunch() {
        let config = crate::runtime::RuntimeConfig {
            wal_sync_every: 64,
            ..Default::default()
        };
        let mut m = test_master_with(restartable(), config);
        let f = terminal_fop(&m);
        let exec = m.pick_executor(f, 0).expect("a free slot");
        m.launch(f, 0, exec, false).unwrap();
        m.apply_fault(FaultAction::Restart(None)).unwrap();
        let replayed = derived(&m).wal_frames_replayed;
        assert_eq!(replayed, 1, "only the genesis snapshot was synced");
        let exec = m.pick_executor(f, 0).expect("a free slot");
        m.launch(f, 0, exec, false).unwrap();
        let metrics = derived(&m);
        assert_eq!((metrics.tasks_launched, metrics.relaunched_tasks), (2, 1));
        assert_eq!(
            metrics.tasks_launched,
            metrics.original_tasks + metrics.relaunched_tasks + metrics.speculative_launches
        );
        assert!(events(&m)
            .iter()
            .any(|e| matches!(e, JobEvent::MasterRecovered)));
        m.shutdown();
    }

    /// A drain is additive and immediate: the victim takes no new work,
    /// what only it held gains a reserved copy, what it commits later goes
    /// straight to a reserved store, and nothing it holds is taken away.
    #[test]
    fn a_drain_copies_sole_outputs_and_takes_no_new_work() {
        let (mut m, map) = shuffle_master(crate::runtime::RuntimeConfig::default());
        let (reserved, victim): (ExecId, ExecId) = (0, 1);
        let spare = m.spawn_executor(Placement::Transient);
        // No receiver is assigned, so map 0's output rests on its producer.
        let rested = begin_task(&mut m, map, 0, victim);
        m.handle(shuffled_done(victim, rested, 0).0).unwrap();
        assert_eq!(m.tasks.locations(map, 0), &[victim]);
        let in_flight = begin_task(&mut m, map, 1, victim);

        m.apply_fault(FaultAction::Drain(0)).unwrap();
        assert_eq!(m.executors[&victim].state, ExecState::Drained);
        assert_eq!(m.schedulable_ids(Placement::Transient), vec![spare]);
        assert_eq!(m.tasks.locations(map, 0), &[victim, reserved]);
        let r = BlockRef::Output { fop: map, index: 0 };
        for holder in [victim, reserved] {
            assert!(m.executors[&holder].store.lock().contains(r), "{holder}");
        }
        // The attempt launched before the drain still commits; its output
        // would have rested on the victim and goes to the reserved store.
        m.handle(shuffled_done(victim, in_flight, 1).0).unwrap();
        assert_eq!(m.tasks.locations(map, 1), &[reserved]);

        // One schedulable transient executor left: a second drain is
        // refused, silently.
        m.apply_fault(FaultAction::Drain(0)).unwrap();
        assert_eq!(m.executors[&spare].state, ExecState::Alive);
        m.handle(MasterMsg::Evict { exec: victim }).unwrap();
        let evs = events(&m);
        let drains = evs
            .iter()
            .filter(|e| matches!(e, JobEvent::ExecutorDrained { .. }));
        assert_eq!(
            drains.collect::<Vec<_>>(),
            vec![&JobEvent::ExecutorDrained { exec: victim }]
        );
        assert!(
            !evs.iter()
                .any(|e| matches!(e, JobEvent::TaskReverted { .. })),
            "the eviction found nothing only the victim held"
        );
        assert!(m.tasks.is_done(map, 0) && m.tasks.is_done(map, 1));
        m.shutdown();
    }

    // --- Clock-abstraction regression test (timer-order sensitivity) ---
    //
    // Every master timer (speculation, heartbeats, deferred pushes) must
    // read `self.clock`, never wall time directly: the threaded backend
    // shares the implementation, and a stray `Instant::now()` would make
    // timer order depend on host scheduling. Driving speculation off a
    // manual clock — no sleeps — proves the timer path is fully
    // clock-routed.

    #[test]
    fn speculation_timer_fires_on_clock_advance_not_wall_time() {
        let mut m = test_master();
        m.clock = Clock::manual();
        let f = terminal_fop(&m);
        // Run the straggler on the kind the fop is NOT placed on, so the
        // single executor of the placed kind is free to host the
        // duplicate (the picker skips the straggler's own executor).
        let exec: ExecId = if m.placement(f) == Placement::Reserved {
            1
        } else {
            0
        };
        begin(&mut m, f, exec);
        // Median 10ms × 3.0 multiplier, floored to speculation_floor_ms
        // (200ms): the attempt becomes a straggler only past 200ms.
        m.fop_durations[f] = vec![10, 10, 10];

        m.maybe_speculate().unwrap();
        assert!(
            !events(&m)
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculativeLaunched { .. })),
            "no virtual time has passed: the attempt is not yet a straggler"
        );

        m.clock.advance_ms(201);
        m.maybe_speculate().unwrap();
        assert!(
            events(&m)
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculativeLaunched { .. })),
            "advancing the manual clock past the threshold must trigger \
             the speculative duplicate without any wall-clock waiting"
        );
        m.shutdown();
    }
}
