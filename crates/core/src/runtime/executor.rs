//! Pado executors: multi-slot worker threads running tasks (§3.2.4).
//!
//! Each executor owns a user-configured number of task slots, realized as
//! worker threads sharing one task queue, plus an input cache shared by
//! its slots. Executors are *pure computers*: the master resolves every
//! input to a shared block, and executors send finished outputs back,
//! already sized and partitioned for the shuffles they feed. This keeps
//! every placement decision (and therefore every eviction consequence) in
//! one deterministic place, while preserving the paper's control flow.
//!
//! Since the control plane crosses an unreliable wire (see
//! [`transport`](crate::runtime::transport)), each executor also runs a
//! *control thread* between its worker slots and the network: it
//! acknowledges and deduplicates inbound frames from the master, sends
//! worker results through a reliable (retransmitting) endpoint, and beats
//! a heartbeat so the master's failure detector can tell a dead executor
//! from a slow one. Worker slots never touch the wire directly.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pado_dag::{
    block_from_vec, block_into_rows, Block, Columns, DepType, LogicalDag, OperatorKind, UdfError,
    Value,
};
use parking_lot::Mutex;

use crate::compiler::{FopId, InputSlot, PhysicalPlan, Placement};
use crate::exec::{apply_chain, route};
use crate::kernels::{combine_global, combine_keyed};
use crate::runtime::backend::{CancelToken, WorkerPool};
use crate::runtime::config::RuntimeConfig;
use crate::runtime::journal::{JobEvent, Journal};
use crate::runtime::message::{ExecId, ExecutorMsg, InjectedFault, MasterMsg, TaskSpec};
use crate::runtime::store::{CacheKey, ExecutorStore, StoreHandle, UNLIMITED};
use crate::runtime::transport::{
    DedupWindow, Direction, ExecIn, FaultyLink, NetPolicy, ReliableSender, TransportCounters, Wire,
};

/// Worker-thread name prefix; the panic hook filter keys off it.
const WORKER_THREAD_PREFIX: &str = "pado-exec-";

static PANIC_HOOK_FILTER: Once = Once::new();

/// Installs (once per process) a panic hook that silences panics on
/// executor worker threads. Those panics are caught by [`run_task`] and
/// reported to the master as [`MasterMsg::TaskFailed`]; printing the
/// default backtrace banner for each would drown test output. Panics on
/// any other thread still reach the previous hook untouched.
fn install_panic_hook_filter() {
    PANIC_HOOK_FILTER.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if !on_worker {
                previous(info);
            }
        }));
    });
}

/// Immutable job context shared by the master and all executors.
#[derive(Debug)]
pub struct JobContext {
    /// The logical DAG (holds the user functions).
    pub dag: LogicalDag,
    /// The compiled physical plan.
    pub plan: PhysicalPlan,
    /// Runtime tunables.
    pub config: RuntimeConfig,
}

impl JobContext {
    /// Whether the master reads the encoded size of a block task `fop`
    /// reports (its output, or a shuffle `bucket` cut from it): every one
    /// under a memory budget; with none, only a transient output's
    /// (`bytes_pushed`) and a side-input source's (`SideStats`, `CacheHit`).
    fn size_is_read(&self, fop: FopId, bucket: bool) -> bool {
        let outs = self.plan.outs(fop);
        let side = outs.iter().any(|e| e.slot == InputSlot::Side);
        let read = side || self.plan.fops[fop].placement == Placement::Transient;
        self.config.executor_memory_bytes != UNLIMITED || (!bucket && read)
    }
}

/// A live executor: its control thread, task queue, and worker threads.
#[derive(Debug)]
pub struct ExecutorHandle {
    /// Executor id (never reused across replacements).
    pub id: ExecId,
    /// Transient or reserved.
    pub kind: Placement,
    ctrl: Sender<ExecIn>,
    threads: Vec<JoinHandle<()>>,
}

impl ExecutorHandle {
    /// Spawns an executor: `config.slots_per_executor` worker threads plus
    /// one control thread bridging them to the (possibly faulty) wire.
    ///
    /// `to_master` is the master's inbound wire; `net` injects the seeded
    /// network faults (`None` = perfectly reliable transport); `journal`
    /// is the job's shared execution journal (worker slots log task
    /// starts, the reliable endpoint logs retransmissions); `store` is
    /// this executor's byte-accounted memory domain, shared with the
    /// master (which pins inputs and admits pushes into it).
    ///
    /// With `pool` set (the threaded backend) the executor spawns no
    /// dedicated slot threads: task bodies are submitted to the shared
    /// pool instead, and finished reports flow back through the control
    /// thread exactly as before. The master's `busy < slots` launch gate
    /// bounds a *transient* executor to `slots` outstanding task bodies.
    /// A reserved one has no such bound: `Master::pick_executor` returns
    /// a reserved task's pre-assigned receiver without looking at `busy`
    /// (§3.2.3 sets receivers up first), so it can hold
    /// `parallelism / n_reserved` bodies of a stage at once, and the
    /// pool's bounded queue can see more than `executors × slots`
    /// submissions; past its capacity `submit` blocks this control
    /// thread until a worker takes a job.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: ExecId,
        kind: Placement,
        job: Arc<JobContext>,
        to_master: Sender<Wire<MasterMsg>>,
        net: Option<Arc<NetPolicy>>,
        counters: Arc<TransportCounters>,
        journal: Journal,
        store: StoreHandle,
        pool: Option<Arc<WorkerPool>>,
        cancel: CancelToken,
    ) -> Self {
        install_panic_hook_filter();
        let (ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded::<ExecIn>();
        let slots = job.config.slots_per_executor.max(1);
        let mut threads: Vec<JoinHandle<()>>;
        let sink = match pool {
            Some(pool) => {
                threads = Vec::new();
                TaskSink::Pool {
                    pool,
                    exec: id,
                    job: Arc::clone(&job),
                    store: Arc::clone(&store),
                    journal: journal.clone(),
                    ctrl: ctrl_tx.clone(),
                }
            }
            None => {
                let (task_tx, task_rx) = crossbeam::channel::unbounded::<ExecutorMsg>();
                threads = (0..slots)
                    .map(|slot| {
                        let task_rx = task_rx.clone();
                        let job = Arc::clone(&job);
                        let ctrl_tx = ctrl_tx.clone();
                        let store = Arc::clone(&store);
                        let journal = journal.clone();
                        std::thread::Builder::new()
                            .name(format!("pado-exec-{id}-slot{slot}"))
                            .spawn(move || worker_loop(id, task_rx, job, ctrl_tx, store, journal))
                            .expect("spawn executor worker thread")
                    })
                    .collect();
                TaskSink::Slots { tx: task_tx, slots }
            }
        };
        let seed = net.as_ref().map_or(0, |p| p.seed());
        let ctrs = Arc::clone(&counters);
        let link = FaultyLink::new(to_master, id, Direction::ToMaster, net, counters);
        let out = ReliableSender::new(
            link,
            id,
            |from, seq, epoch, payload| Wire::Msg {
                from,
                seq,
                epoch,
                payload,
            },
            job.config.transport_inflight_cap,
            Duration::from_millis(job.config.retransmit_base_ms),
            Duration::from_millis(job.config.retransmit_max_ms),
            seed ^ (id as u64),
        )
        .with_journal(journal, true);
        let heartbeat = Duration::from_millis(job.config.heartbeat_interval_ms.max(1));
        let dedup = DedupWindow::new(job.config.transport_dedup_window);
        threads.push(
            std::thread::Builder::new()
                .name(format!("pado-exec-{id}-ctrl"))
                .spawn(move || control_loop(id, ctrl_rx, sink, out, dedup, heartbeat, ctrs, cancel))
                .expect("spawn executor control thread"),
        );
        ExecutorHandle {
            id,
            kind,
            ctrl: ctrl_tx,
            threads,
        }
    }

    /// The executor's inbound wire endpoint: what the master's faulty link
    /// to this executor feeds.
    pub fn inbound(&self) -> Sender<ExecIn> {
        self.ctrl.clone()
    }

    /// Resource-manager kill: tears the container down. This is an RM
    /// action, not a network message — it bypasses the faulty wire, so
    /// even a partitioned executor can be destroyed.
    pub fn stop(&self) {
        let _ = self.ctrl.send(ExecIn::Kill);
    }

    /// Joins all executor threads (call after [`ExecutorHandle::stop`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Where the control thread hands runnable task specs: dedicated slot
/// threads (sim backend) or the job-wide shared pool (threaded backend).
enum TaskSink {
    Slots {
        tx: Sender<ExecutorMsg>,
        slots: usize,
    },
    Pool {
        pool: Arc<WorkerPool>,
        exec: ExecId,
        job: Arc<JobContext>,
        store: StoreHandle,
        journal: Journal,
        ctrl: Sender<ExecIn>,
    },
}

impl TaskSink {
    /// Dispatches one task spec for execution.
    fn run(&self, spec: TaskSpec) {
        match self {
            TaskSink::Slots { tx, .. } => {
                let _ = tx.send(ExecutorMsg::Run(spec));
            }
            TaskSink::Pool {
                pool,
                exec,
                job,
                store,
                journal,
                ctrl,
            } => {
                let (exec, job, store, journal, ctrl) = (
                    *exec,
                    Arc::clone(job),
                    Arc::clone(store),
                    journal.clone(),
                    ctrl.clone(),
                );
                // Blocking submit is safe here: pool workers never wait
                // on this control thread (`ctrl` is unbounded), so a full
                // queue always drains.
                pool.submit(Box::new(move || {
                    let done = run_task(exec, &job, &store, &journal, spec);
                    let _ = ctrl.send(ExecIn::Out(done));
                }));
            }
        }
    }

    /// Tears down the execution lanes (no-op for the shared pool, which
    /// outlives any one executor; in-flight bodies finish and their
    /// reports land in a disconnected channel).
    fn stop(&self) {
        if let TaskSink::Slots { tx, slots } = self {
            for _ in 0..*slots {
                let _ = tx.send(ExecutorMsg::Stop);
            }
        }
    }
}

fn worker_loop(
    exec: ExecId,
    rx: Receiver<ExecutorMsg>,
    job: Arc<JobContext>,
    ctrl: Sender<ExecIn>,
    store: StoreHandle,
    journal: Journal,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ExecutorMsg::Stop => break,
            ExecutorMsg::Run(spec) => {
                let done = run_task(exec, &job, &store, &journal, spec);
                if ctrl.send(ExecIn::Out(done)).is_err() {
                    break; // The control thread is gone; the executor died.
                }
            }
        }
    }
}

/// The executor's network-facing loop: heartbeats, acks + dedup on
/// inbound frames, reliable retransmission on outbound reports, and the
/// out-of-band kill path.
#[allow(clippy::too_many_arguments)]
fn control_loop(
    exec: ExecId,
    ctrl_rx: Receiver<ExecIn>,
    sink: TaskSink,
    mut out: ReliableSender<MasterMsg, Wire<MasterMsg>>,
    mut dedup: DedupWindow,
    heartbeat: Duration,
    counters: Arc<TransportCounters>,
    cancel: CancelToken,
) {
    let mut next_beat = Instant::now();
    loop {
        // Cooperative cancellation point: a wedged run unwinds this
        // control thread without waiting for the master's Kill (which a
        // stuck master may never send).
        if cancel.is_cancelled() {
            sink.stop();
            return;
        }
        let now = Instant::now();
        if now >= next_beat {
            out.link().send(Wire::Heartbeat { from: exec });
            next_beat = now + heartbeat;
        }
        if out.pump(now).is_err() {
            // A transport bookkeeping invariant broke: tear the worker
            // slots down cleanly (the master's own pump surfaces the
            // positioned error and fails the job).
            sink.stop();
            return;
        }
        let deadline = out
            .next_deadline()
            .map_or(next_beat, |d| d.min(next_beat))
            .max(now + Duration::from_millis(1));
        match ctrl_rx.recv_timeout(deadline - now) {
            Ok(ExecIn::Kill) => {
                sink.stop();
                return;
            }
            Ok(ExecIn::Out(msg)) => out.send(msg),
            Ok(ExecIn::Net(Wire::Msg { seq, payload, .. })) => {
                // Always ack — the first ack may have been lost — but only
                // forward first deliveries to the task queue.
                out.link().send(Wire::Ack { from: exec, seq });
                if dedup.fresh(seq) {
                    match payload {
                        ExecutorMsg::Run(spec) => sink.run(spec),
                        ExecutorMsg::Stop => sink.stop(),
                    }
                } else {
                    counters
                        .deduplicated
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            Ok(ExecIn::Net(Wire::Ack { seq, .. })) => out.on_ack(seq),
            // Masters don't heartbeat executors; tolerate one anyway.
            Ok(ExecIn::Net(Wire::Heartbeat { .. })) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // The master dropped our inbound sender: job over.
                sink.stop();
                return;
            }
        }
    }
}

/// Everything a successful task attempt reports back to the master.
struct TaskOutput {
    output: Block,
    buckets: Vec<(usize, Vec<Block>)>,
    preaggregated: usize,
    cache_hit: bool,
    cached_keys: Vec<CacheKey>,
}

/// Executes one task: resolve side inputs through the cache, apply the
/// fused chain, optionally pre-aggregate the output, size it, and
/// partition it for the shuffles it feeds.
///
/// The *entire* task body — side-input resolution, plan lookup, chain
/// application, pre-aggregation — runs inside `catch_unwind`, so any
/// panic (a UDF's, or a runtime bug's) yields a [`MasterMsg::TaskFailed`]
/// instead of killing the worker slot silently: the slot stays alive and
/// the master learns the attempt died.
fn run_task(
    exec: ExecId,
    job: &JobContext,
    store: &Mutex<ExecutorStore>,
    journal: &Journal,
    spec: TaskSpec,
) -> MasterMsg {
    // Every attempt that reaches a worker slot logs a start — including
    // ones an injected fault will fail before the body runs (the fault
    // models user code dying, which starts executing first).
    journal.emit(
        job.plan.fops.get(spec.fop).map(|f| f.stage),
        JobEvent::TaskStarted {
            fop: spec.fop,
            index: spec.index,
            attempt: spec.attempt,
            exec,
        },
    );
    match spec.inject {
        Some(InjectedFault::Delay(ms)) => {
            // Simulated straggler: stall, then compute normally.
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(InjectedFault::Error) => {
            return MasterMsg::TaskFailed {
                exec,
                attempt: spec.attempt,
                reason: "injected: user function error".into(),
            };
        }
        Some(InjectedFault::Oom) => {
            // A mid-task allocation failure: journaled so the invariant
            // checker can demand the attempt fails (and never commits),
            // then reported as an ordinary task failure — the degraded
            // outcome of memory pressure is a retry, never an abort.
            journal.emit(
                job.plan.fops.get(spec.fop).map(|f| f.stage),
                JobEvent::OomInjected {
                    fop: spec.fop,
                    index: spec.index,
                    attempt: spec.attempt,
                    exec,
                },
            );
            return MasterMsg::TaskFailed {
                exec,
                attempt: spec.attempt,
                reason: "injected: allocation failure (store budget exhausted)".into(),
            };
        }
        Some(InjectedFault::Panic) | Some(InjectedFault::DelayDone(_)) | None => {}
    }

    let attempt = spec.attempt;
    let done_delay = match spec.inject {
        Some(InjectedFault::DelayDone(ms)) => Some(Duration::from_millis(ms)),
        _ => None,
    };
    let computed = panic::catch_unwind(AssertUnwindSafe(|| task_body(job, store, spec)));
    if let Some(d) = done_delay {
        // The output exists but the report stalls in flight: the window
        // where an eviction or partition races the TaskDone.
        std::thread::sleep(d);
    }
    match computed {
        Ok(Ok(done)) => MasterMsg::TaskDone {
            exec,
            attempt,
            output: done.output,
            buckets: done.buckets,
            preaggregated: done.preaggregated,
            cache_hit: done.cache_hit,
            cached_keys: done.cached_keys,
        },
        Ok(Err(udf)) => MasterMsg::TaskFailed {
            exec,
            attempt,
            reason: udf.to_string(),
        },
        Err(payload) => MasterMsg::TaskFailed {
            exec,
            attempt,
            reason: panic_reason(payload.as_ref()),
        },
    }
}

/// Unpins the cache entries a task read, even when the task body panics
/// mid-chain (the unwind runs this guard's `Drop`): a leaked pin would
/// make the entry unshedable forever.
struct CachePinGuard<'a> {
    store: &'a Mutex<ExecutorStore>,
    keys: Vec<CacheKey>,
}

impl Drop for CachePinGuard<'_> {
    fn drop(&mut self) {
        let mut s = self.store.lock();
        for k in &self.keys {
            s.cache_unpin(*k);
        }
    }
}

/// The fault-isolated body of one task attempt.
///
/// Side inputs resolve to shared blocks (a cache hit or the master's copy;
/// never a record clone) and the fused chain computes the output block.
/// The block and the shuffle buckets cut from it (`spec.route_to`) are
/// sized here, on the thread that built them, exactly when the master
/// will read the size ([`JobContext::size_is_read`]): it reads memoized
/// lengths, and no block is encoded for a size nobody reads. Cache
/// entries a task reads stay pinned until it finishes, so concurrent
/// slots cannot shed an input mid-use.
fn task_body(
    job: &JobContext,
    store: &Mutex<ExecutorStore>,
    spec: TaskSpec,
) -> Result<TaskOutput, UdfError> {
    if spec.inject == Some(InjectedFault::Panic) {
        panic!("injected: user function panic");
    }

    let mut cache_hit = false;
    let mut pins = CachePinGuard {
        store,
        keys: Vec::new(),
    };
    let mut sides: BTreeMap<usize, Block> = BTreeMap::new();
    for (member, side) in &spec.sides {
        let records = match side.key {
            Some(key) => {
                let mut s = store.lock();
                match s.cache_get(key) {
                    Some(hit) => {
                        if side.expect_cached {
                            cache_hit = true;
                        }
                        if s.cache_pin(key) {
                            pins.keys.push(key);
                        }
                        hit
                    }
                    None => {
                        if s.cache_put(key, Arc::clone(&side.records)) && s.cache_pin(key) {
                            pins.keys.push(key);
                        }
                        Arc::clone(&side.records)
                    }
                }
            }
            None => Arc::clone(&side.records),
        };
        sides.insert(*member, records);
    }

    let fop = &job.plan.fops[spec.fop];
    let mut output = apply_chain(&job.dag, fop, spec.index, &spec.mains, &sides)?;

    let mut preaggregated = 0usize;
    if spec.preaggregate {
        if let Some((f, keyed)) = combine_consumer(&job.dag, &job.plan, spec.fop) {
            let before = output.len();
            output = preaggregate(output, &f, keyed)?;
            preaggregated = before.saturating_sub(output.len());
        }
    }
    if job.size_is_read(spec.fop, false) {
        let _ = output.encoded_len();
    }
    let size_buckets = job.size_is_read(spec.fop, true);
    let buckets = spec
        .route_to
        .iter()
        .map(|&width| {
            let buckets = route(&output, DepType::ManyToMany, spec.index, width);
            for b in buckets.iter().filter(|_| size_buckets) {
                let _ = b.encoded_len();
            }
            (width, buckets)
        })
        .collect();

    drop(pins);
    let cached_keys = store.lock().cache_keys();
    Ok(TaskOutput {
        output,
        buckets,
        preaggregated,
        cache_hit,
        cached_keys,
    })
}

/// Extracts a readable message from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

/// Finds the combiner of this fop's consumer, when every consumer is the
/// same combine operator (the precondition for transient-side partial
/// aggregation).
pub fn combine_consumer(
    dag: &LogicalDag,
    plan: &PhysicalPlan,
    fop: crate::compiler::FopId,
) -> Option<(pado_dag::CombineFn, bool)> {
    let outs = plan.out_edges(fop);
    if outs.is_empty() {
        return None;
    }
    let mut found: Option<(pado_dag::CombineFn, bool)> = None;
    for e in outs {
        let head = plan.fops[e.dst].head();
        match &dag.op(head).kind {
            OperatorKind::Combine { f, keyed } => match &found {
                None => found = Some((f.clone(), *keyed)),
                Some((_, k)) if *k == *keyed => {}
                _ => return None,
            },
            _ => return None,
        }
    }
    found
}

/// Merges records within one partition ahead of the consumer combine:
/// per key for keyed combiners, into a single accumulator for global
/// ones. A columnar partition takes the vectorized kernel over the
/// block's columns; the row fallback consumes the records without
/// cloning when it holds the only reference.
///
/// # Errors
///
/// A keyed pre-aggregation over a record that is not a key-value pair
/// fails the attempt (the consumer combine would reject it anyway; it
/// used to be dropped silently here).
pub fn preaggregate(
    records: Block,
    f: &pado_dag::CombineFn,
    keyed: bool,
) -> Result<Block, UdfError> {
    if records.is_empty() {
        // An empty partition contributes nothing. Emitting the global
        // combiner's identity here — as the keyed branch never does —
        // would add one spurious record per empty partition to the
        // shuffled stream.
        return Ok(records);
    }
    match (records.columns(), keyed) {
        (Some(cols), false) => return Ok(block_from_vec(vec![combine_global(&[cols], f)])),
        (None, false) => return Ok(block_from_vec(vec![f.merge_all(block_into_rows(records))])),
        (Some(Columns::Pair { keys, vals }), true) => return Ok(combine_keyed(keys, vals, f)),
        (Some(cols), true) => {
            // Homogeneous but not pair-shaped: every record is a
            // non-pair, so the first one names the failure.
            return Err(UdfError::new(format!(
                "preaggregate: keyed combine requires key-value Pair records, got {}",
                cols.value_at(0)
            )));
        }
        // Heterogeneous: row path below, which may still be all pairs
        // of mixed scalar kinds.
        (None, true) => {}
    }
    let mut accs: BTreeMap<Value, Value> = BTreeMap::new();
    for rec in block_into_rows(records) {
        let Some((k, v)) = rec.into_pair() else {
            return Err(UdfError::new(
                "preaggregate: keyed combine requires key-value Pair records".to_string(),
            ));
        };
        let acc = accs.remove(&k).unwrap_or_else(|| f.identity());
        accs.insert(k, f.merge(acc, v));
    }
    Ok(block_from_vec(
        accs.into_iter().map(|(k, v)| Value::pair(k, v)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pado_dag::{empty_block, CombineFn};

    #[test]
    fn preaggregate_keyed_merges_per_key() {
        let recs = vec![
            Value::pair(Value::from("a"), Value::from(1i64)),
            Value::pair(Value::from("a"), Value::from(2i64)),
            Value::pair(Value::from("b"), Value::from(4i64)),
        ];
        let out = preaggregate(block_from_vec(recs), &CombineFn::sum_i64(), true).unwrap();
        assert!(out.columns().is_some(), "the kernel's block is columnar");
        assert_eq!(
            out.rows(),
            &[
                Value::pair(Value::from("a"), Value::from(3i64)),
                Value::pair(Value::from("b"), Value::from(4i64)),
            ]
        );
    }

    #[test]
    fn preaggregate_global_collapses_to_one() {
        let recs: Vec<Value> = (1..=4).map(Value::from).collect();
        let out = preaggregate(block_from_vec(recs), &CombineFn::sum_i64(), false).unwrap();
        assert_eq!(out.rows(), &[Value::from(10i64)]);
    }

    #[test]
    fn preaggregate_empty_keyed_is_empty() {
        let out = preaggregate(empty_block(), &CombineFn::sum_i64(), true).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn preaggregate_empty_global_is_empty() {
        // An empty partition must contribute zero records, exactly like
        // the keyed path — not one identity record.
        let out = preaggregate(empty_block(), &CombineFn::sum_i64(), false).unwrap();
        assert!(out.is_empty());
    }

    /// A worker reports an output partitioned, and sized where the
    /// master reads the size — on either backend, since both run this
    /// `run_task` — so the master's accounting never pays for the first
    /// encode and the master routes nothing. Under a budget the stores
    /// charge the output and every bucket; with none, only the transient
    /// output's push is journaled, so its buckets arrive unsized.
    #[test]
    fn run_task_reports_an_output_it_already_sized() {
        use crate::compiler::compile;
        use pado_dag::colcodec::encode_block;
        use pado_dag::{ParDoFn, Pipeline, SourceFn};

        for budget in [1 << 20, UNLIMITED] {
            let p = Pipeline::new();
            p.read(
                "R",
                1,
                SourceFn::from_vec((0..50).map(Value::from).collect()),
            )
            .par_do(
                "Key",
                ParDoFn::per_element(|v, emit| emit(Value::pair(v.clone(), Value::from(1i64)))),
            )
            .combine_per_key("C", CombineFn::sum_i64());
            let dag = p.build().unwrap();
            let plan = compile(&dag).unwrap();
            assert_eq!(plan.fops[0].placement, Placement::Transient);
            let config = RuntimeConfig {
                executor_memory_bytes: budget,
                ..RuntimeConfig::default()
            };
            let job = JobContext { dag, plan, config };
            let store = ExecutorStore::handle(3, budget, 1024, Journal::new());
            for (preaggregate, route_to) in [(false, vec![4]), (true, vec![4]), (false, vec![])] {
                let case =
                    format!("budget={budget} preaggregate={preaggregate} route_to={route_to:?}");
                let spec = TaskSpec {
                    attempt: 1,
                    fop: 0,
                    index: 0,
                    mains: Vec::new(),
                    sides: BTreeMap::new(),
                    preaggregate,
                    route_to: route_to.clone(),
                    inject: None,
                };
                match run_task(3, &job, &store, &Journal::new(), spec) {
                    MasterMsg::TaskDone {
                        output, buckets, ..
                    } => {
                        assert_eq!(output.len(), 50);
                        assert!(output.is_sized(), "{case}");
                        // The ParDo tail's output is born columnar, with no
                        // row view built, whoever reads it next.
                        assert!(!output.has_rows(), "{case}");
                        // One bucket set per requested width, cut from the
                        // output and sized like it.
                        assert_eq!(buckets.len(), route_to.len(), "{case}");
                        for (width, buckets) in &buckets {
                            assert_eq!((*width, buckets.len()), (4, 4));
                            assert_eq!(buckets.iter().map(|b| b.len()).sum::<usize>(), 50);
                            if budget != UNLIMITED {
                                assert!(buckets.iter().all(|b| b.is_sized() && !b.has_rows()));
                                continue;
                            }
                            assert!(buckets.iter().all(|b| !b.is_sized() && !b.has_rows()));
                            // Sized on first read, to the same length.
                            for b in buckets {
                                assert_eq!(b.encoded_len(), encode_block(b).unwrap().len());
                            }
                        }
                    }
                    other => panic!("expected TaskDone, got {other:?}"),
                }
            }
        }
    }

    /// A runtime bug inside the task body — here an out-of-range fop id
    /// hitting the plan lookup, which the old narrow `catch_unwind`
    /// around `apply_chain` alone did not cover — must surface as
    /// `TaskFailed`, not kill the worker slot silently.
    #[test]
    fn runtime_panic_in_task_body_reports_task_failed() {
        use crate::compiler::compile;
        use pado_dag::{Pipeline, SourceFn};

        let p = Pipeline::new();
        p.read("R", 1, SourceFn::from_vec(vec![Value::from(1i64)]))
            .sink("S");
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let job = Arc::new(JobContext {
            dag,
            plan,
            config: RuntimeConfig::default(),
        });
        let store = ExecutorStore::handle(3, usize::MAX, 1024, Journal::new());
        let spec = TaskSpec {
            attempt: 7,
            fop: 999, // No such fop: plan lookup panics inside the body.
            index: 0,
            mains: Vec::new(),
            sides: BTreeMap::new(),
            preaggregate: false,
            route_to: Vec::new(),
            inject: None,
        };
        install_panic_hook_filter();
        let msg = std::thread::Builder::new()
            .name(format!("{WORKER_THREAD_PREFIX}test-slot0"))
            .spawn(move || run_task(3, &job, &store, &Journal::new(), spec))
            .unwrap()
            .join()
            .expect("run_task must catch the panic, not unwind the slot");
        match msg {
            MasterMsg::TaskFailed {
                exec,
                attempt,
                reason,
            } => {
                assert_eq!((exec, attempt), (3, 7));
                assert!(reason.starts_with("panic:"), "reason: {reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }
}
