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
//! A wedged run **fails well** on either backend instead of hanging or
//! leaking (DESIGN.md §16): the master's progress timeout journals the
//! abort, cancels the run's shared [`CancelToken`] (executor control
//! threads, pool submitters and cooperative jobs unwind), shuts down,
//! and returns [`RuntimeError::Wedged`] with a [`StallDiagnostics`]
//! report. The threaded backend's backstop covers a master thread that
//! is itself stuck. Invariant law 11 audits the journal left behind.
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
use crate::runtime::journal::{EventJournal, JobEvent, Journal, JournalMeta};
use crate::runtime::master::{JobResult, Master};
use crate::runtime::metrics::JobMetrics;

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
/// everywhere. The master sets it when it declares its run wedged, the
/// threaded backstop when the master thread is stuck; the master loop
/// (top of every scheduling pass), executor control threads (every
/// control iteration), and [`WorkerPool::submit`] (every bounded send
/// round) poll it and unwind instead of blocking forever. Cancellation
/// is one-way and sticky.
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

/// Why and where a run wedged: the payload of [`RuntimeError::Wedged`],
/// written so a hang in CI reads as a bug report (who is blocked on
/// what) instead of an opaque timeout. The pool and the attempts are
/// sampled when the wedge is declared, before the run is cancelled; the
/// journal and metrics are taken after shutdown, so the journal ends
/// with the abort marker and the pool's quiesce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostics {
    /// What tripped: the master's progress timeout, or the threaded
    /// backstop finding the master thread stuck.
    pub reason: String,
    /// Milliseconds since the last progress (the master's report) or
    /// since anything in the run last emitted (the backstop's).
    pub waited_ms: u64,
    /// The frozen journal: everything the run emitted, up to shutdown.
    pub journal: EventJournal,
    /// Metrics derived from that journal.
    pub metrics: JobMetrics,
    /// Pool jobs submitted but unfinished (0 without a pool).
    pub pool_in_flight: usize,
    /// Per-worker busy flags and completion counts (empty without a
    /// pool).
    pub workers: Vec<WorkerState>,
    /// Task attempts launched but not terminally reported; `None` from
    /// the backstop, which cannot see the master's task table.
    pub outstanding_attempts: Option<usize>,
    /// Whether the master thread was joined (false: the backstop
    /// detached a master thread that ignored cancellation).
    pub master_joined: bool,
}

impl StallDiagnostics {
    /// Samples what is stuck when a wedge is declared. The journal and
    /// metrics stay empty until [`StallDiagnostics::finish`].
    pub(crate) fn sample(
        reason: String,
        waited: Duration,
        pool: Option<&WorkerPool>,
        outstanding_attempts: Option<usize>,
    ) -> Box<Self> {
        Box::new(StallDiagnostics {
            reason,
            waited_ms: waited.as_millis() as u64,
            journal: EventJournal::from_parts(JournalMeta::default(), Vec::new()),
            metrics: JobMetrics::default(),
            pool_in_flight: pool.map_or(0, WorkerPool::in_flight),
            workers: pool.map_or_else(Vec::new, WorkerPool::worker_states),
            outstanding_attempts,
            master_joined: true,
        })
    }

    /// Completes the report with the journal frozen after shutdown.
    pub(crate) fn finish(
        mut self: Box<Self>,
        journal: EventJournal,
        metrics: JobMetrics,
    ) -> RuntimeError {
        (self.journal, self.metrics) = (journal, metrics);
        RuntimeError::Wedged { diagnostics: self }
    }
}

impl fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let busy = self.workers.iter().filter(|w| w.busy).count();
        let outstanding = self
            .outstanding_attempts
            .map_or_else(|| "unknown".into(), |n| n.to_string());
        write!(
            f,
            "{} (waited {} ms): {} pool jobs in flight ({busy}/{} workers busy), \
             {outstanding} outstanding attempts, {} journal events, master thread {}",
            self.reason,
            self.waited_ms,
            self.pool_in_flight,
            self.workers.len(),
            self.journal.records().len(),
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

    /// The cancellation token the master and executors observe. The
    /// master cancels it when it declares its run wedged; the default is
    /// a fresh token, which nothing else cancels.
    fn cancel(&self) -> CancelToken {
        CancelToken::new()
    }

    /// Runs the master to completion.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the master loop; backends may add
    /// their own failure modes (e.g. the threaded backstop).
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

/// Real parallel backend: master loop on its own thread, executor slots
/// on a shared [`WorkerPool`], and batched frame draining. The master's
/// progress timeout detects a wedge here as on sim; `drive` only
/// backs it up for a master thread that is itself stuck.
#[derive(Debug)]
pub struct ThreadedBackend {
    pool: Arc<WorkerPool>,
    frame_batch: usize,
    backstop: Duration,
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

    /// Builds the backend from `config`: a pool of `threaded_workers`,
    /// which spins up immediately and is shared by every executor of the
    /// job, and a backstop of twice `event_timeout_ms` in which nothing
    /// in the run emits, so the master's own wedge report comes first.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        ThreadedBackend {
            pool: Arc::new(WorkerPool::new(
                config.threaded_workers.max(1),
                Self::CHANNEL_CAPACITY,
            )),
            frame_batch: Self::FRAME_BATCH,
            backstop: Duration::from_millis(config.event_timeout_ms.saturating_mul(2)),
        }
    }

    /// The pool shared by this backend's executors (tests use it to
    /// wedge the pool deliberately).
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
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

    fn drive(&self, master: Master) -> Result<JobResult, RuntimeError> {
        let (journal, meta) = master.journal_handle();
        let (tx, rx) = crossbeam::channel::bounded::<Result<JobResult, RuntimeError>>(1);
        let handle = std::thread::Builder::new()
            .name("pado-master".into())
            .spawn(move || {
                let _ = tx.send(master.run());
            })
            .expect("spawn master thread");
        // The backstop counts from the run's last emission, not from the
        // start: a job that keeps emitting may run as long as it needs.
        let mut outcome = rx.recv_timeout(self.backstop);
        let mut quiet = journal.quiet_for();
        while matches!(outcome, Err(RecvTimeoutError::Timeout)) && quiet < self.backstop {
            outcome = rx.recv_timeout(self.backstop - quiet);
            quiet = journal.quiet_for();
        }
        let mut stuck = None;
        if let Err(RecvTimeoutError::Timeout) = outcome {
            // Nothing in the run emitted for twice the master's own
            // timeout: its thread is stuck outside the loop. Sample the
            // pool, cancel, and give the master the grace period to
            // unwind.
            let reason = format!(
                "master thread stuck: nothing emitted for {} ms",
                self.backstop.as_millis()
            );
            stuck = Some(StallDiagnostics::sample(
                reason,
                quiet,
                Some(&self.pool),
                None,
            ));
            self.pool.cancel_token().cancel();
            outcome = rx.recv_timeout(WorkerPool::DEFAULT_GRACE);
        }
        match (outcome, stuck) {
            // The master unwound on the backstop's cancel (it reports
            // that as `Aborted`), or never did: the backstop's report
            // stands, frozen after the master's shutdown if it ran one.
            (
                outcome @ (Ok(Err(RuntimeError::Aborted(_))) | Err(RecvTimeoutError::Timeout)),
                Some(mut report),
            ) => {
                report.master_joined = outcome.is_ok();
                if report.master_joined {
                    let _ = handle.join();
                } else {
                    // Last resort: detaching is the only alternative to
                    // moving the hang into the caller; the report records
                    // the leak.
                    drop(handle);
                }
                let journal = journal.freeze(meta);
                let metrics = journal.derive_metrics();
                Err(report.finish(journal, metrics))
            }
            (Ok(result), _) => {
                let _ = handle.join();
                result
            }
            // The master thread died without sending (a panic in the
            // loop itself).
            _ => {
                let _ = handle.join();
                Err(RuntimeError::Aborted(
                    "master thread terminated without reporting a result".into(),
                ))
            }
        }
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
        let events = journal.freeze(JournalMeta::default()).to_events();
        assert_eq!(events, vec![JobEvent::PoolWorkerDetached { worker: 0 }]);
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
    fn backstop_is_twice_the_event_timeout_saturating() {
        let backend = |event_timeout_ms| {
            let config = RuntimeConfig {
                event_timeout_ms,
                threaded_workers: 1,
                ..RuntimeConfig::default()
            };
            ThreadedBackend::from_config(&config).backstop
        };
        assert_eq!(backend(30_000), Duration::from_secs(60));
        assert_eq!(backend(u64::MAX), Duration::from_millis(u64::MAX));
    }

    #[test]
    fn a_report_samples_the_pool_before_the_run_is_cancelled() {
        let pool = WorkerPool::new(2, 4);
        let cancel = pool.cancel_token();
        let (started_tx, started_rx) = crossbeam::channel::bounded::<()>(1);
        let c = cancel.clone();
        assert!(pool.submit(Box::new(move || {
            let _ = started_tx.send(());
            while !c.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        })));
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("wedged job should start");
        let waited = Duration::from_millis(300);
        let report = StallDiagnostics::sample("stuck".into(), waited, Some(&pool), Some(3));
        cancel.cancel();
        assert!(pool.wait_quiesce(Duration::from_secs(5)));
        let RuntimeError::Wedged { diagnostics: d } = report.finish(
            EventJournal::from_parts(JournalMeta::default(), Vec::new()),
            JobMetrics::default(),
        ) else {
            unreachable!()
        };
        assert_eq!((d.waited_ms, d.pool_in_flight), (300, 1));
        assert_eq!(d.workers.iter().filter(|w| w.busy).count(), 1);
        assert_eq!(
            d.to_string(),
            "stuck (waited 300 ms): 1 pool jobs in flight (1/2 workers busy), \
             3 outstanding attempts, 0 journal events, master thread joined"
        );
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("threaded"), Some(BackendKind::Threaded));
        assert_eq!(BackendKind::parse("tcp"), None);
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }
}
