//! Execution backends: how the master loop and executor slots map onto
//! threads (DESIGN.md §15).
//!
//! The scheduler, commit protocol, data plane, transport, and journal
//! are all backend-agnostic; an [`ExecBackend`] only decides *where* they
//! run:
//!
//! - [`SimBackend`] is the configuration every chaos/invariant suite
//!   runs on: the master loop runs inline on the caller's thread and
//!   each executor owns dedicated slot threads. One frame is handled per
//!   wakeup; seeded fault *decisions* repeat exactly, but frames arrive
//!   in the order the slot threads finish, which does not.
//! - [`ThreadedBackend`] is the wall-clock configuration: the master
//!   loop runs on its own `pado-master` thread, executor slots are
//!   serviced by one shared [`WorkerPool`], and inbound frames are
//!   drained in batches between scheduling passes.
//!
//! A wedged threaded run **fails well** instead of hanging or leaking
//! (DESIGN.md §16): every run shares a [`CancelToken`] that the
//! wall-clock deadline and the optional hang watchdog set; the master
//! loop, executor control threads, and pool submitters all observe it
//! and unwind cooperatively within a bounded grace period, the pool
//! quiesces, the journal freezes, and the caller gets a structured
//! [`RuntimeError::Stalled`] carrying a [`StallDiagnostics`] snapshot
//! (queue depths, per-worker state, the journal tail) instead of an
//! opaque CI timeout. Invariant law 11 audits the journal those paths
//! leave behind.
//!
//! Both backends implement the same [`Clock`] contract, emit the same
//! `JobEvent` stream up to causal reordering (the canonical journal
//! order is identical), and must produce byte-identical job outputs —
//! `crates/core/tests/backend_equivalence.rs` is the differential proof.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::runtime::clock::Clock;
use crate::runtime::config::RuntimeConfig;
use crate::runtime::journal::{JobEvent, Journal};
use crate::runtime::master::{JobResult, Master};

/// Which execution backend a [`LocalCluster`](crate::runtime::LocalCluster)
/// drives a job on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Deterministic-leaning inline loop (the default; all chaos and
    /// invariant suites run here).
    #[default]
    Sim,
    /// Real parallel backend: master on its own thread, executors on a
    /// shared worker pool, batched frame draining.
    Threaded,
}

impl BackendKind {
    /// Parses a CLI/user spelling of a backend name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "threaded" => Some(BackendKind::Threaded),
            _ => None,
        }
    }
}

/// A shared cooperative-cancellation flag: set once, observed
/// everywhere. The threaded backend's wall-clock deadline and hang
/// watchdog set it; the master loop (top of every scheduling pass),
/// executor control threads (every control iteration), and
/// [`WorkerPool::submit`] (every bounded send round) poll it and unwind
/// instead of blocking forever. Cancellation is one-way and sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Progress counters the master loop publishes for the hang watchdog:
/// lock-free, updated once per scheduling pass, read once per watchdog
/// sample. Progress is judged on *work* counters (journal length, pool
/// in-flight, outstanding attempts), not on `loop_ticks` — a wedged run
/// can still spin its master loop on timer wakeups.
#[derive(Debug, Default)]
pub struct StallProbe {
    loop_ticks: AtomicU64,
    outstanding_attempts: AtomicUsize,
    queue_depth: AtomicUsize,
}

impl StallProbe {
    /// Counts one master scheduling pass.
    pub fn tick(&self) {
        self.loop_ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the master's current outstanding-attempt count and
    /// inbound queue depth.
    pub fn record(&self, outstanding_attempts: usize, queue_depth: usize) {
        self.outstanding_attempts
            .store(outstanding_attempts, Ordering::Relaxed);
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
    }

    /// Master scheduling passes so far.
    pub fn loop_ticks(&self) -> u64 {
        self.loop_ticks.load(Ordering::Relaxed)
    }

    /// Task attempts launched but not yet terminally reported.
    pub fn outstanding_attempts(&self) -> usize {
        self.outstanding_attempts.load(Ordering::Relaxed)
    }

    /// Frames queued toward the master at the last pass.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

/// One pool worker's state as sampled for a [`StallDiagnostics`]
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerState {
    /// Whether the worker was inside a job when sampled (a wedged job
    /// shows as a persistently busy worker).
    pub busy: bool,
    /// Jobs the worker has completed.
    pub jobs_run: u64,
}

/// Everything the supervisor knew when it declared a run stalled: the
/// payload of [`RuntimeError::Stalled`], written so a hang in CI reads
/// as a bug report (who is blocked on what) instead of an opaque
/// timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostics {
    /// What tripped: the watchdog's no-progress window, the wall-clock
    /// deadline, or an external cancel.
    pub reason: String,
    /// Milliseconds of observed stasis (watchdog) or total run time
    /// (wall-clock expiry).
    pub waited_ms: u64,
    /// Master scheduling passes completed (distinguishes "loop wedged"
    /// from "loop spinning without progress").
    pub loop_ticks: u64,
    /// Journal records emitted when the snapshot was taken.
    pub journal_len: usize,
    /// Pool jobs submitted but unfinished (queued + running).
    pub pool_in_flight: usize,
    /// Pool jobs queued but not yet picked up by a worker.
    pub pool_queue_depth: usize,
    /// Task attempts launched but not terminally reported.
    pub outstanding_attempts: usize,
    /// Frames queued toward the master at its last pass.
    pub master_queue_depth: usize,
    /// Whether the master thread exited within the cancellation grace
    /// period and was joined (false = it had to be detached).
    pub master_joined: bool,
    /// Per-worker busy flags and completion counts.
    pub workers: Vec<WorkerState>,
    /// The last few journal events before the snapshot — what the
    /// runtime was doing when it wedged.
    pub last_events: Vec<JobEvent>,
}

impl StallDiagnostics {
    /// Journal-tail length captured into
    /// [`last_events`](StallDiagnostics::last_events).
    pub const TAIL_EVENTS: usize = 8;

    fn capture(
        reason: String,
        waited_ms: u64,
        journal: &Journal,
        pool: &WorkerPool,
        probe: &StallProbe,
    ) -> Self {
        StallDiagnostics {
            reason,
            waited_ms,
            loop_ticks: probe.loop_ticks(),
            journal_len: journal.len(),
            pool_in_flight: pool.in_flight(),
            pool_queue_depth: pool.queue_depth(),
            outstanding_attempts: probe.outstanding_attempts(),
            master_queue_depth: probe.queue_depth(),
            master_joined: false,
            workers: pool.worker_states(),
            last_events: journal.tail(Self::TAIL_EVENTS),
        }
    }
}

impl fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let busy = self.workers.iter().filter(|w| w.busy).count();
        write!(
            f,
            "{} after {} ms: {} pool jobs in flight ({} queued, {}/{} workers busy), \
             {} outstanding attempts, {} frames queued to master, {} master passes, \
             {} journal events, master thread {}",
            self.reason,
            self.waited_ms,
            self.pool_in_flight,
            self.pool_queue_depth,
            busy,
            self.workers.len(),
            self.outstanding_attempts,
            self.master_queue_depth,
            self.loop_ticks,
            self.journal_len,
            if self.master_joined {
                "joined"
            } else {
                "detached"
            },
        )
    }
}

/// How a job's master loop and executor slots map onto threads.
///
/// The contract every implementation must honor:
///
/// - [`drive`](ExecBackend::drive) runs the master to completion and
///   returns its result (or a positioned error).
/// - The emitted journal must freeze to the same canonical order as any
///   other backend for the same logical execution: causal order is the
///   contract, byte-level emission order is not.
/// - Job outputs must be byte-identical across backends for the same
///   plan (the data plane is deterministic; only timing may differ).
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name (journals, benches, traces).
    fn name(&self) -> &'static str;

    /// The scheduling clock the master reads all timer state from.
    fn clock(&self) -> Clock {
        Clock::wall()
    }

    /// The shared pool servicing executor slots, when this backend uses
    /// one (`None` = each executor spawns dedicated slot threads).
    fn pool(&self) -> Option<Arc<WorkerPool>> {
        None
    }

    /// How many inbound frames the master may drain per wakeup before
    /// rerunning its control work (transport pump, schedule pass).
    fn frame_batch(&self) -> usize {
        1
    }

    /// The cancellation token the master and executors must observe.
    /// The default is a fresh inert token: backends without supervision
    /// (the sim loop) never cancel.
    fn cancel(&self) -> CancelToken {
        CancelToken::new()
    }

    /// The progress probe the master publishes its per-pass counters to,
    /// when this backend runs a hang watchdog.
    fn stall_probe(&self) -> Option<Arc<StallProbe>> {
        None
    }

    /// Runs the master to completion.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the master loop; backends may add
    /// their own failure modes (e.g. the threaded wall-clock timeout).
    fn drive(&self, master: Master) -> Result<JobResult, RuntimeError>;
}

/// The inline master loop (completions are handled in arrival order):
/// dedicated slot threads per executor, one frame per wakeup.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl ExecBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn drive(&self, master: Master) -> Result<JobResult, RuntimeError> {
        master.run()
    }
}

/// Real parallel backend: master loop on its own thread supervised by a
/// wall-clock deadline (and optionally a hang watchdog), executor slots
/// on a shared [`WorkerPool`], and batched frame draining. Aborts are
/// cooperative: supervision
/// cancels the shared token, everything unwinds within the grace
/// period, and the caller gets [`RuntimeError::Stalled`] with a
/// [`StallDiagnostics`] snapshot.
#[derive(Debug)]
pub struct ThreadedBackend {
    pool: Arc<WorkerPool>,
    probe: Arc<StallProbe>,
    frame_batch: usize,
    wallclock_timeout: Duration,
    watchdog: bool,
    stall_interval: Duration,
    stall_samples: u64,
}

impl ThreadedBackend {
    /// Frames drained per master wakeup. Large enough to amortize the
    /// control work across a burst of concurrent completions, small
    /// enough that failure detection and deferred-push retries never
    /// starve.
    const FRAME_BATCH: usize = 32;

    /// Capacity of the bounded pool job queue executor task bodies wait
    /// in: far above the `executors × slots` the launch gate admits to
    /// transient executors (reserved receivers are not gated, see
    /// `ExecutorHandle::spawn`; a full queue blocks the submitter).
    const CHANNEL_CAPACITY: usize = 256;

    /// Builds the backend from the validated threaded knobs in `config`
    /// (`threaded_workers`, `threaded_wallclock_timeout_ms`, plus the
    /// watchdog knobs). The worker pool spins up
    /// immediately and is shared by every executor of the job.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        ThreadedBackend {
            pool: Arc::new(WorkerPool::new(
                config.threaded_workers.max(1),
                Self::CHANNEL_CAPACITY,
            )),
            probe: Arc::new(StallProbe::default()),
            frame_batch: Self::FRAME_BATCH,
            wallclock_timeout: Duration::from_millis(config.threaded_wallclock_timeout_ms.max(1)),
            watchdog: config.stall_watchdog,
            stall_interval: Duration::from_millis(config.stall_sample_interval_ms.max(1)),
            stall_samples: config.stall_samples.max(1),
        }
    }

    /// The pool shared by this backend's executors (tests use it to
    /// wedge the pool deliberately).
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// Spawns the no-progress watchdog. It samples the *work* counters
    /// (journal length, pool in-flight, outstanding attempts) every
    /// `stall_interval`; when all three hold still for `stall_samples`
    /// consecutive samples while work is outstanding, it emits
    /// [`JobEvent::RunStalled`], captures a [`StallDiagnostics`]
    /// snapshot into `slot`, cancels the run, and exits.
    #[allow(clippy::too_many_arguments)]
    fn spawn_watchdog(
        &self,
        journal: Journal,
        cancel: CancelToken,
        stop: Arc<AtomicBool>,
        slot: Arc<Mutex<Option<StallDiagnostics>>>,
    ) -> JoinHandle<()> {
        let pool = Arc::clone(&self.pool);
        let probe = Arc::clone(&self.probe);
        let interval = self.stall_interval;
        let samples = self.stall_samples;
        std::thread::Builder::new()
            .name("pado-watchdog".into())
            .spawn(move || {
                let mut last = (0usize, 0usize, 0usize);
                let mut held = 0u64;
                loop {
                    // Sleep in short slices so drive's stop signal joins
                    // us promptly even under a long sample interval.
                    let wake = Instant::now() + interval;
                    while Instant::now() < wake {
                        if stop.load(Ordering::SeqCst) || cancel.is_cancelled() {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5).min(interval));
                    }
                    if stop.load(Ordering::SeqCst) || cancel.is_cancelled() {
                        return;
                    }
                    let now = (
                        journal.len(),
                        pool.in_flight(),
                        probe.outstanding_attempts(),
                    );
                    let idle = now.1 == 0 && now.2 == 0;
                    if now == last && !idle {
                        held += 1;
                        if held >= samples {
                            let waited_ms = (interval.as_millis() as u64).saturating_mul(samples);
                            journal.emit(None, JobEvent::RunStalled { waited_ms });
                            *slot.lock() = Some(StallDiagnostics::capture(
                                format!(
                                    "watchdog: no progress across {samples} samples \
                                     ({} ms apart)",
                                    interval.as_millis()
                                ),
                                waited_ms,
                                &journal,
                                &pool,
                                &probe,
                            ));
                            cancel.cancel();
                            return;
                        }
                    } else {
                        held = 0;
                        last = now;
                    }
                }
            })
            .expect("spawn watchdog thread")
    }
}

impl ExecBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn pool(&self) -> Option<Arc<WorkerPool>> {
        Some(Arc::clone(&self.pool))
    }

    fn frame_batch(&self) -> usize {
        self.frame_batch
    }

    fn cancel(&self) -> CancelToken {
        self.pool.cancel_token()
    }

    fn stall_probe(&self) -> Option<Arc<StallProbe>> {
        Some(Arc::clone(&self.probe))
    }

    fn drive(&self, master: Master) -> Result<JobResult, RuntimeError> {
        let cancel = self.pool.cancel_token();
        let journal = master.journal_handle();
        let (tx, rx) = crossbeam::channel::bounded::<Result<JobResult, RuntimeError>>(1);
        let handle = std::thread::Builder::new()
            .name("pado-master".into())
            .spawn(move || {
                let _ = tx.send(master.run());
            })
            .expect("spawn master thread");

        let stall_slot: Arc<Mutex<Option<StallDiagnostics>>> = Arc::new(Mutex::new(None));
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = self.watchdog.then(|| {
            self.spawn_watchdog(
                journal.clone(),
                cancel.clone(),
                Arc::clone(&watchdog_stop),
                Arc::clone(&stall_slot),
            )
        });

        // Supervision loop: wait for the master's result while watching
        // the wall clock and the cancel token (the watchdog trips the
        // latter).
        let start = Instant::now();
        let deadline = start + self.wallclock_timeout;
        let mut outcome: Option<Result<JobResult, RuntimeError>> = None;
        let mut wallclock_reason: Option<String> = None;
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(result) => {
                    outcome = Some(result);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if cancel.is_cancelled() {
                        break;
                    }
                    if Instant::now() >= deadline {
                        wallclock_reason = Some(format!(
                            "wall-clock timeout: master loop did not finish within {} ms",
                            self.wallclock_timeout.as_millis()
                        ));
                        cancel.cancel();
                        break;
                    }
                }
                // The master thread died without sending (a panic in the
                // loop itself); fall through to the join below.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            let _ = w.join();
        }

        // Cooperative grace: the cancelled master observes the token at
        // the top of its next pass, aborts its run, quiesces the pool,
        // and freezes the journal — give it a bounded window to do so.
        if outcome.is_none() {
            outcome = rx.recv_timeout(WorkerPool::DEFAULT_GRACE).ok();
        }
        let master_joined = if outcome.is_some() || handle.is_finished() {
            let _ = handle.join();
            true
        } else {
            // Last resort: the master ignored cancellation through the
            // whole grace period (wedged outside a cancellation point).
            // Detaching here is the only alternative to moving the hang
            // into the caller; the diagnostics record the leak.
            drop(handle);
            false
        };

        if cancel.is_cancelled() {
            let mut diag = stall_slot.lock().take().unwrap_or_else(|| {
                StallDiagnostics::capture(
                    wallclock_reason.unwrap_or_else(|| "run cancelled by its cancel token".into()),
                    start.elapsed().as_millis() as u64,
                    &journal,
                    &self.pool,
                    &self.probe,
                )
            });
            diag.master_joined = master_joined;
            return Err(RuntimeError::Stalled {
                diagnostics: Box::new(diag),
            });
        }
        outcome.unwrap_or_else(|| {
            Err(RuntimeError::Aborted(
                "master thread terminated without reporting a result".into(),
            ))
        })
    }
}

/// A job submitted to the [`WorkerPool`].
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool with a bounded job queue, shared by every
/// executor of a threaded-backend job (task bodies).
///
/// Threads are named with the executor worker prefix so the process-wide
/// panic hook filter silences injected task panics on them exactly as it
/// does for dedicated slot threads. The pool never deadlocks the master:
/// the master submits nothing, and an executor control thread blocked on
/// a full queue waits only on workers, which never wait on it.
///
/// Shutdown is cooperative and bounded: [`submit`](WorkerPool::submit)
/// re-checks the shutdown flag and the pool's [`CancelToken`] every
/// bounded send round (so a submitter blocked on a full queue unblocks
/// once shutdown or cancellation begins), and `Drop` joins workers only
/// up to a grace period, detaching — and journaling
/// [`JobEvent::PoolWorkerDetached`] — any worker wedged past it rather
/// than hanging the dropper forever.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<Sender<PoolJob>>,
    threads: Vec<JoinHandle<()>>,
    /// Jobs submitted but not yet finished (queued + running).
    in_flight: Arc<AtomicUsize>,
    /// Set when Drop begins; submitters observe it and stop queueing.
    shutdown: Arc<AtomicBool>,
    /// The run-wide cancellation token (shared with the master loop and
    /// executor control threads on the threaded backend).
    cancel: CancelToken,
    /// Per-worker busy flags and completion counters (diagnostics).
    slots: Arc<Vec<WorkerSlot>>,
    /// Journal armed by the master so Drop can record detached workers.
    journal: Arc<Mutex<Option<Journal>>>,
    /// How long Drop waits for workers before detaching them.
    grace: Duration,
}

/// Lock-free per-worker state shared between the worker thread and
/// diagnostics readers.
#[derive(Debug, Default)]
struct WorkerSlot {
    busy: AtomicBool,
    jobs_run: AtomicU64,
}

impl WorkerPool {
    /// How long a cancelled run gets to unwind cooperatively — master
    /// loop observing the token, executor control threads exiting, pool
    /// quiescing — before its threads are detached as a last resort; and
    /// the default bound on how long `Drop` joins a wedged worker.
    const DEFAULT_GRACE: Duration = Duration::from_secs(2);

    /// Spawns `workers` threads behind a `capacity`-bounded job queue,
    /// with the default shutdown grace.
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self::with_grace(workers, capacity, Self::DEFAULT_GRACE)
    }

    /// Spawns `workers` threads behind a `capacity`-bounded job queue;
    /// `grace` bounds how long Drop waits for a wedged worker before
    /// detaching it.
    pub fn with_grace(workers: usize, capacity: usize, grace: Duration) -> Self {
        let (tx, rx) = crossbeam::channel::bounded::<PoolJob>(capacity.max(1));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let slots: Arc<Vec<WorkerSlot>> =
            Arc::new((0..workers.max(1)).map(|_| WorkerSlot::default()).collect());
        let threads = (0..workers.max(1))
            .map(|i| {
                let rx: Receiver<PoolJob> = rx.clone();
                let in_flight = Arc::clone(&in_flight);
                let slots = Arc::clone(&slots);
                std::thread::Builder::new()
                    // The prefix keys the panic hook filter (see
                    // `executor::install_panic_hook_filter`): injected
                    // task panics on pool threads stay silent too.
                    .name(format!("pado-exec-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            slots[i].busy.store(true, Ordering::SeqCst);
                            job();
                            slots[i].busy.store(false, Ordering::SeqCst);
                            slots[i].jobs_run.fetch_add(1, Ordering::SeqCst);
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    })
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            threads,
            in_flight,
            shutdown: Arc::new(AtomicBool::new(false)),
            cancel: CancelToken::new(),
            slots,
            journal: Arc::new(Mutex::new(None)),
            grace,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// The cancellation token every job of this pool's run shares. The
    /// threaded backend hands the same token to the master and the
    /// executors; cancelling it unblocks submitters and lets
    /// cancellation-aware jobs unwind.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Arms the journal Drop records [`JobEvent::PoolWorkerDetached`]
    /// into. The master arms this when it adopts the pool so a leak is
    /// visible in the run's own event stream.
    pub fn arm_journal(&self, journal: Journal) {
        *self.journal.lock() = Some(journal);
    }

    /// Submits a job, blocking while the queue is full — but never past
    /// shutdown or cancellation: the wait re-checks both every bounded
    /// send round, so a submitter stuck behind a wedged queue unblocks
    /// as soon as the run starts tearing down. Returns `false` when the
    /// job was not accepted.
    pub fn submit(&self, job: PoolJob) -> bool {
        let Some(tx) = &self.tx else { return false };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut job = job;
        loop {
            if self.shutdown.load(Ordering::SeqCst) || self.cancel.is_cancelled() {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            match tx.send_timeout(job, Duration::from_millis(10)) {
                Ok(()) => return true,
                Err(SendTimeoutError::Timeout(returned)) => job = returned,
                Err(SendTimeoutError::Disconnected(_)) => {
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    return false;
                }
            }
        }
    }

    /// Jobs submitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// A snapshot of every worker's busy flag and completion count.
    pub fn worker_states(&self) -> Vec<WorkerState> {
        self.slots
            .iter()
            .map(|s| WorkerState {
                busy: s.busy.load(Ordering::SeqCst),
                jobs_run: s.jobs_run.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Waits until every submitted job has finished, up to `timeout`.
    /// Returns `true` when the pool quiesced. The master calls this
    /// during shutdown so straggling pool jobs finish emitting journal
    /// events before the journal freezes.
    pub fn wait_quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop; queued
        // jobs drain first. The shutdown flag unblocks any submitter
        // still waiting on a full queue.
        self.shutdown.store(true, Ordering::SeqCst);
        self.tx.take();
        // Join cooperatively up to the grace period: poll each worker's
        // liveness instead of committing to an unbounded join, so one
        // wedged job cannot hang the dropper.
        let deadline = Instant::now() + self.grace;
        let mut pending: Vec<(usize, JoinHandle<()>)> =
            self.threads.drain(..).enumerate().collect();
        loop {
            let (done, rest): (Vec<_>, Vec<_>) =
                pending.into_iter().partition(|(_, t)| t.is_finished());
            for (_, t) in done {
                let _ = t.join();
            }
            pending = rest;
            if pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Grace expired: detach what's left. Joining a wedged worker
        // would just move the hang here; the journal event makes the
        // leak auditable (law 11 flags it).
        if !pending.is_empty() {
            let journal = self.journal.lock().clone();
            for (i, t) in pending {
                if t.is_finished() {
                    let _ = t.join();
                    continue;
                }
                if let Some(j) = &journal {
                    j.emit(None, JobEvent::PoolWorkerDetached { worker: i });
                }
                drop(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_all_submitted_jobs() {
        let pool = WorkerPool::new(4, 8);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            assert!(pool.submit(Box::new(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            })));
        }
        assert!(pool.wait_quiesce(Duration::from_secs(10)));
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 16);
            for _ in 0..10 {
                let hits = Arc::clone(&hits);
                pool.submit(Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        // Drop joined the workers; every queued job ran first.
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn submit_unblocks_when_the_run_is_cancelled() {
        // One worker wedged on a gate, queue full: a blocking submit
        // must give up (returning false) once the cancel token fires,
        // instead of waiting on the wedged queue forever.
        let pool = Arc::new(WorkerPool::new(1, 1));
        let cancel = pool.cancel_token();
        let (gate_tx, gate_rx) = crossbeam::channel::bounded::<()>(1);
        let (started_tx, started_rx) = crossbeam::channel::bounded::<()>(1);
        assert!(pool.submit(Box::new(move || {
            let _ = started_tx.send(());
            let _ = gate_rx.recv();
        })));
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("blocker job should start");
        assert!(pool.submit(Box::new(|| {}))); // fills the queue
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.submit(Box::new(|| {})))
        };
        // Give the submitter time to block on the full queue, then
        // cancel the run.
        std::thread::sleep(Duration::from_millis(50));
        cancel.cancel();
        let accepted = submitter.join().expect("submitter thread");
        assert!(!accepted, "cancelled submit must be rejected");
        gate_tx.send(()).unwrap();
        assert!(pool.wait_quiesce(Duration::from_secs(10)));
        // In-flight accounting survived the rejected submit.
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn drop_detaches_a_wedged_worker_and_journals_the_leak() {
        let journal = Journal::new();
        let (gate_tx, gate_rx) = crossbeam::channel::bounded::<()>(1);
        let (started_tx, started_rx) = crossbeam::channel::bounded::<()>(1);
        {
            let pool = WorkerPool::with_grace(1, 4, Duration::from_millis(50));
            pool.arm_journal(journal.clone());
            assert!(pool.submit(Box::new(move || {
                let _ = started_tx.send(());
                let _ = gate_rx.recv();
            })));
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("wedged job should start");
            // Drop now: the worker is stuck inside the job, the grace
            // period expires, and the worker must be detached (not
            // joined forever) with the leak journaled.
        }
        let tail = journal.tail(1);
        assert_eq!(tail, vec![JobEvent::PoolWorkerDetached { worker: 0 }]);
        // Unwedge the detached thread so the test process exits clean.
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn worker_states_report_busy_and_completed_jobs() {
        let pool = WorkerPool::new(2, 8);
        for _ in 0..6 {
            assert!(pool.submit(Box::new(|| {})));
        }
        assert!(pool.wait_quiesce(Duration::from_secs(10)));
        let states = pool.worker_states();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|s| !s.busy));
        assert_eq!(states.iter().map(|s| s.jobs_run).sum::<u64>(), 6);
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("threaded"), Some(BackendKind::Threaded));
        assert_eq!(BackendKind::parse("tcp"), None);
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }
}
