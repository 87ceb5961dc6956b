//! Pado executors: task slots on the job's worker pool (§3.2.4).
//!
//! Each executor owns a user-configured number of task slots and an input
//! cache shared by them. A slot is a *lane* on the job's [`WorkerPool`]:
//! at most `slots_per_executor` of an executor's bodies run on the pool
//! at once, the rest wait in the executor's own queue, and a lane that
//! finishes a body takes the next one from that queue before it retires.
//! Executors are *pure computers*: the master resolves every
//! input to a shared block, and executors send finished outputs back,
//! already sized and partitioned for the shuffles they feed. This keeps
//! every placement decision (and therefore every eviction consequence) in
//! one deterministic place, while preserving the paper's control flow.
//!
//! Since the control plane crosses an unreliable wire (see
//! [`transport`](crate::runtime::transport)), each executor also runs a
//! *control thread*: it acknowledges and deduplicates inbound frames from
//! the master, hands launches to the worker lanes, retransmits reports
//! the master has not acknowledged, and beats a heartbeat so the master's
//! failure detector can tell a dead executor from a slow one. A finished
//! body reports from the lane that ran it, with no hop through the
//! control thread: the executor's reliable endpoint to the master is its
//! *outbox*, shared behind one lock by the control thread and the lanes,
//! and closed when the executor stops, so a body that outlives its
//! executor reports nothing.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use pado_dag::{
    block_from_vec, block_into_rows, Block, Columns, DepType, LogicalDag, OperatorKind, UdfError,
    Value,
};
use parking_lot::Mutex;

use crate::compiler::{FopId, InputSlot, PhysicalPlan, Placement};
use crate::exec::{apply_chain, route};
use crate::kernels::{combine_global, combine_keyed};
use crate::runtime::backend::WorkerPool;
use crate::runtime::config::RuntimeConfig;
use crate::runtime::message::{ExecId, InjectedFault, MasterMsg, TaskSpec};
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
    /// Sizes a block task `fop` reports (its output, or a shuffle
    /// `bucket` cut from it) if the master reads its encoded size: every
    /// one under a memory budget, keeping the image a spill writes (only
    /// a budgeted store spills); with none, only a transient output
    /// (`bytes_pushed`) and a side-input source (`SideStats`, `CacheHit`).
    fn size_where_read(&self, fop: FopId, bucket: bool, block: &Block) {
        let outs = self.plan.outs(fop);
        let side = outs.iter().any(|e| e.slot == InputSlot::Side);
        let read = side || self.plan.fops[fop].placement == Placement::Transient;
        if self.config.executor_memory_bytes != UNLIMITED {
            block.keep_image();
        } else if !bucket && read {
            block.encoded_len();
        }
    }
}

/// A live executor: its control thread and its lanes' shared state.
#[derive(Debug)]
pub struct ExecutorHandle {
    /// Executor id (never reused across replacements).
    pub id: ExecId,
    /// Transient or reserved.
    pub kind: Placement,
    ctrl: Sender<ExecIn>,
    lane: Arc<Lane>,
    control: JoinHandle<()>,
}

/// What each lane of one executor runs a task body with, reports
/// through, and takes its next body from.
#[derive(Debug)]
struct Lane {
    exec: ExecId,
    job: Arc<JobContext>,
    store: StoreHandle,
    /// The executor's reliable endpoint to the master, shared with its
    /// control thread; `None` once the executor stops. No holder keeps
    /// the lock across a pool submit.
    outbox: Mutex<Option<Outbox>>,
    /// Bodies waiting for a slot, and how many lanes are on the pool.
    queue: Mutex<Slots>,
}

#[derive(Debug, Default)]
struct Slots {
    waiting: VecDeque<TaskSpec>,
    busy: usize,
}

#[derive(Debug)]
struct Outbox {
    out: ReliableSender<MasterMsg, Wire<MasterMsg>>,
    /// The instant the control thread sleeps until, unless woken.
    sleeps_until: Instant,
    /// The control thread's inbox, for [`ExecIn::Wake`].
    wake: Sender<ExecIn>,
}

impl Lane {
    /// Runs one attempt and sends its report from this thread; `false`
    /// when the executor stopped and the report went nowhere. When the
    /// report's retransmission falls due before the instant the control
    /// thread sleeps until, the lane wakes it, so a lost first
    /// transmission is retried on time.
    fn run(&self, spec: TaskSpec) -> bool {
        let done = run_task(self.exec, &self.job, &self.store, spec);
        let mut outbox = self.outbox.lock();
        let Some(o) = outbox.as_mut() else {
            return false;
        };
        o.out.send(done);
        if let Some(due) = o.out.next_deadline().filter(|&d| d < o.sleeps_until) {
            o.sleeps_until = due;
            let _ = o.wake.send(ExecIn::Wake);
        }
        true
    }

    /// Takes a slot for `spec`, or queues it when every slot is busy:
    /// the spec to put on the pool, if any.
    fn admit(&self, spec: TaskSpec) -> Option<TaskSpec> {
        let mut q = self.queue.lock();
        if q.busy >= self.job.config.slots_per_executor.max(1) {
            q.waiting.push_back(spec);
            return None;
        }
        q.busy += 1;
        Some(spec)
    }

    /// One lane on the pool: runs `spec`, then the queued bodies, and
    /// gives its slot back when the queue is empty or the executor
    /// stopped.
    fn drain(&self, mut spec: TaskSpec) {
        loop {
            let live = self.run(spec);
            let mut q = self.queue.lock();
            match q.waiting.pop_front().filter(|_| live) {
                Some(next) => spec = next,
                None => return q.busy -= 1,
            }
        }
    }
}

impl ExecutorHandle {
    /// Spawns an executor: one control thread bridging the (possibly
    /// faulty) wire to `slots_per_executor` lanes on `pool`.
    ///
    /// `to_master` is the master's inbound wire; `net` injects the seeded
    /// network faults (`None` = perfectly reliable transport); `store` is
    /// this executor's byte-accounted memory domain, shared with the
    /// master (which pins inputs and admits pushes into it). The control
    /// thread observes the pool's
    /// [`CancelToken`](crate::runtime::CancelToken). What the executor
    /// knows of an attempt rides in the attempt's report, and the master
    /// journals it.
    ///
    /// The slot bound holds for every executor. The master's `busy <
    /// slots` launch gate also keeps a *transient* executor's launches
    /// within it; a reserved one's are not gated there
    /// (`Master::pick_executor` returns a reserved task's pre-assigned
    /// receiver, §3.2.3), so its surplus waits in its queue.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: ExecId,
        kind: Placement,
        job: Arc<JobContext>,
        to_master: Sender<Wire<MasterMsg>>,
        net: Option<Arc<NetPolicy>>,
        counters: Arc<TransportCounters>,
        store: StoreHandle,
        pool: Arc<WorkerPool>,
    ) -> Self {
        install_panic_hook_filter();
        let (ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded::<ExecIn>();
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
        );
        let lane = Arc::new(Lane {
            exec: id,
            job,
            store,
            outbox: Mutex::new(Some(Outbox {
                out,
                sleeps_until: Instant::now(),
                wake: ctrl_tx.clone(),
            })),
            queue: Mutex::default(),
        });
        let config = &lane.job.config;
        let heartbeat = Duration::from_millis(config.heartbeat_interval_ms.max(1));
        let dedup = DedupWindow::new(config.transport_dedup_window);
        let ctrl_lane = Arc::clone(&lane);
        let control = std::thread::Builder::new()
            .name(format!("pado-exec-{id}-ctrl"))
            .spawn(move || {
                control_loop(&ctrl_lane, ctrl_rx, &pool, dedup, heartbeat, ctrs);
                ctrl_lane.outbox.lock().take();
            })
            .expect("spawn executor control thread");
        ExecutorHandle {
            id,
            kind,
            ctrl: ctrl_tx,
            lane,
            control,
        }
    }

    /// The executor's inbound wire endpoint: what the master's faulty link
    /// to this executor feeds.
    pub fn inbound(&self) -> Sender<ExecIn> {
        self.ctrl.clone()
    }

    /// Resource-manager kill: tears the container down. This is an RM
    /// action, not a network message — it bypasses the faulty wire, so
    /// even a partitioned executor can be destroyed. The outbox closes
    /// first: a body that finishes after this reports nothing.
    pub fn stop(&self) {
        self.lane.outbox.lock().take();
        let _ = self.ctrl.send(ExecIn::Kill);
    }

    /// Joins the control thread (call after [`ExecutorHandle::stop`]).
    /// The lanes live on the job's pool, which outlives any one
    /// executor: a body in flight finishes, finds the outbox closed, and
    /// its lane retires without taking the next.
    pub fn join(self) {
        let _ = self.control.join();
    }
}

/// The executor's network-facing loop: heartbeats, acks + dedup on
/// inbound frames, retransmission of unacknowledged reports, and the
/// out-of-band kill path.
fn control_loop(
    lane: &Arc<Lane>,
    ctrl_rx: Receiver<ExecIn>,
    pool: &WorkerPool,
    mut dedup: DedupWindow,
    heartbeat: Duration,
    counters: Arc<TransportCounters>,
) {
    let (exec, mut next_beat) = (lane.exec, Instant::now());
    let cancel = pool.cancel_token();
    loop {
        // Cooperative cancellation point: a wedged run unwinds this
        // control thread without waiting for the master's Kill (which a
        // stuck master may never send).
        if cancel.is_cancelled() {
            return;
        }
        let now = Instant::now();
        let wake_at = {
            let mut outbox = lane.outbox.lock();
            let Some(o) = outbox.as_mut() else {
                return; // Stopped: the Kill is on its way.
            };
            if now >= next_beat {
                o.out.link().send(Wire::Heartbeat { from: exec });
                next_beat = now + heartbeat;
            }
            if o.out.pump(now).is_err() {
                // A transport bookkeeping invariant broke: stop the
                // executor cleanly (the master's own pump surfaces the
                // positioned error and fails the job).
                return;
            }
            let due = o
                .out
                .next_deadline()
                .map_or(next_beat, |d| d.min(next_beat));
            o.sleeps_until = due.max(now + Duration::from_millis(1));
            o.sleeps_until
        };
        match ctrl_rx.recv_timeout(wake_at - now) {
            Ok(ExecIn::Kill) => return,
            Ok(ExecIn::Net(Wire::Msg { seq, payload, .. })) => {
                // Always ack — the first ack may have been lost — but only
                // forward first deliveries to the task queue.
                if let Some(o) = lane.outbox.lock().as_mut() {
                    o.out.link().send(Wire::Ack { from: exec, seq });
                }
                if !dedup.fresh(seq) {
                    counters.deduplicated.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Neither the outbox nor the queue lock is held here, so a
                // blocking submit is safe: workers never wait on a lock
                // held across it, and a full queue always drains.
                if let Some(spec) = lane.admit(payload) {
                    let lane = Arc::clone(lane);
                    pool.submit(Box::new(move || lane.drain(spec)));
                }
            }
            Ok(ExecIn::Net(Wire::Ack { seq, .. })) => {
                if let Some(o) = lane.outbox.lock().as_mut() {
                    o.out.on_ack(seq);
                }
            }
            // A wake only sends the loop round to re-read the deadline;
            // masters don't heartbeat executors. With every sender gone,
            // the outbox is closed and the next round returns.
            Ok(ExecIn::Wake | ExecIn::Net(Wire::Heartbeat { .. })) | Err(_) => {}
        }
    }
}

/// Executes one task: resolve side inputs through the cache, apply the
/// fused chain, optionally pre-aggregate the output, size it, and
/// partition it for the shuffles it feeds. The report carries the
/// instant the attempt started, for the master to journal.
///
/// The *entire* task body — side-input resolution, plan lookup, chain
/// application, pre-aggregation — runs inside `catch_unwind`, so any
/// panic (a UDF's, or a runtime bug's) yields a [`MasterMsg::TaskFailed`]
/// instead of killing the lane silently: the lane stays alive and the
/// master learns the attempt died.
fn run_task(
    exec: ExecId,
    job: &JobContext,
    store: &Mutex<ExecutorStore>,
    spec: TaskSpec,
) -> MasterMsg {
    // Every attempt that reaches a lane starts — including ones an
    // injected fault will fail before the body runs (the fault models
    // user code dying, which starts executing first).
    let (attempt, started) = (spec.attempt, Instant::now());
    match spec.inject {
        Some(InjectedFault::Delay(ms)) => {
            // Simulated straggler: stall, then compute normally.
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(InjectedFault::Error) => {
            return MasterMsg::TaskFailed {
                exec,
                attempt,
                started,
                reason: "injected: user function error".into(),
            };
        }
        Some(InjectedFault::Oom) => {
            // A mid-task allocation failure, reported as an ordinary task
            // failure — the degraded outcome of memory pressure is a
            // retry, never an abort. The master, which injected it,
            // journals it with the report.
            return MasterMsg::TaskFailed {
                exec,
                attempt,
                started,
                reason: "injected: allocation failure (store budget exhausted)".into(),
            };
        }
        Some(InjectedFault::Panic) | Some(InjectedFault::DelayDone(_)) | None => {}
    }

    let done_delay = match spec.inject {
        Some(InjectedFault::DelayDone(ms)) => Some(Duration::from_millis(ms)),
        _ => None,
    };
    let computed = panic::catch_unwind(AssertUnwindSafe(|| {
        task_body(exec, job, store, started, spec)
    }));
    if let Some(d) = done_delay {
        // The output exists but the report stalls in flight: the window
        // where an eviction or partition races the TaskDone.
        std::thread::sleep(d);
    }
    match computed {
        Ok(Ok(done)) => done,
        Ok(Err(udf)) => MasterMsg::TaskFailed {
            exec,
            attempt,
            started,
            reason: udf.to_string(),
        },
        Err(payload) => MasterMsg::TaskFailed {
            exec,
            attempt,
            started,
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

/// The fault-isolated body of one task attempt, and its `TaskDone`.
///
/// Side inputs resolve to shared blocks (a cache hit or the master's copy;
/// never a record clone) and the fused chain computes the output block.
/// The block and the shuffle buckets cut from it (`spec.route_to`) are
/// sized here, on the thread that built them, exactly when the master
/// will read the size ([`JobContext::size_where_read`]): it reads
/// memoized lengths, and no block is encoded for a size nobody reads. Cache
/// entries a task reads stay pinned until it finishes, so concurrent
/// lanes cannot shed an input mid-use.
fn task_body(
    exec: ExecId,
    job: &JobContext,
    store: &Mutex<ExecutorStore>,
    started: Instant,
    spec: TaskSpec,
) -> Result<MasterMsg, UdfError> {
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
    job.size_where_read(spec.fop, false, &output);
    let buckets = spec
        .route_to
        .iter()
        .map(|&width| {
            let buckets = route(&output, DepType::ManyToMany, spec.index, width);
            for b in &buckets {
                job.size_where_read(spec.fop, true, b);
            }
            (width, buckets)
        })
        .collect();

    drop(pins);
    let cached_keys = store.lock().cache_keys();
    Ok(MasterMsg::TaskDone {
        exec,
        attempt: spec.attempt,
        started,
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
                cols.values().next().unwrap_or_default()
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
    use crate::runtime::journal::Journal;
    use pado_dag::{empty_block, CombineFn};
    use std::sync::atomic::AtomicUsize;

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
    /// master reads the size, so the master's accounting never pays for
    /// the first encode and the master routes nothing. Under a budget the stores
    /// charge the output and every bucket; with none, only the transient
    /// output's push is journaled, so its buckets arrive unsized. Only a
    /// budgeted store spills, so only under a budget does a sized block
    /// keep its image.
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
                match run_task(3, &job, &store, spec) {
                    MasterMsg::TaskDone {
                        output, buckets, ..
                    } => {
                        assert_eq!(output.len(), 50);
                        assert!(output.is_sized(), "{case}");
                        // Only a budget spills, so only a budget keeps
                        // the image a spill would write.
                        let budgeted = budget != UNLIMITED;
                        assert_eq!(output.has_image(), budgeted, "{case}");
                        // The ParDo tail's output is born columnar, with no
                        // row view built, whoever reads it next.
                        assert!(!output.has_rows(), "{case}");
                        // One bucket set per requested width, cut from the
                        // output and sized like it.
                        assert_eq!(buckets.len(), route_to.len(), "{case}");
                        for (width, buckets) in &buckets {
                            assert_eq!((*width, buckets.len()), (4, 4));
                            assert_eq!(buckets.iter().map(|b| b.len()).sum::<usize>(), 50);
                            if budgeted {
                                assert!(buckets
                                    .iter()
                                    .all(|b| b.is_sized() && b.has_image() && !b.has_rows()));
                                continue;
                            }
                            assert!(buckets.iter().all(|b| !b.is_sized() && !b.has_rows()));
                            // Sized on first read, to the same length,
                            // keeping no image.
                            for b in buckets {
                                assert_eq!(b.encoded_len(), encode_block(b).unwrap().len());
                                assert!(!b.has_image());
                            }
                        }
                    }
                    other => panic!("expected TaskDone, got {other:?}"),
                }
            }
        }
    }

    /// A one-slot transient executor on a pool of two workers, running a
    /// one-task read → sink job: the executor, the master's end of its
    /// wire, the count of bodies that computed and the pool.
    fn lone_executor() -> (
        ExecutorHandle,
        Receiver<Wire<MasterMsg>>,
        Arc<AtomicUsize>,
        Arc<WorkerPool>,
    ) {
        use crate::compiler::compile;
        use pado_dag::{Pipeline, SourceFn};

        let bodies = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&bodies);
        let p = Pipeline::new();
        let source = SourceFn::new(move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            vec![Value::from(1i64)]
        });
        p.read("R", 1, source).sink("S");
        let dag = p.build().unwrap();
        let plan = compile(&dag).unwrap();
        let config = RuntimeConfig {
            slots_per_executor: 1,
            ..RuntimeConfig::default()
        };
        let job = Arc::new(JobContext { dag, plan, config });
        let pool = Arc::new(WorkerPool::new(2, 4));
        let (to_master, wire) = crossbeam::channel::unbounded();
        let store = ExecutorStore::handle(3, UNLIMITED, 1024, Journal::new());
        let exec = ExecutorHandle::spawn(
            3,
            Placement::Transient,
            job,
            to_master,
            None,
            Arc::default(),
            store,
            Arc::clone(&pool),
        );
        (exec, wire, bodies, pool)
    }

    /// The master's launch of attempt `seq` of the job's one task.
    fn launch(seq: u64, inject: Option<InjectedFault>) -> ExecIn {
        let spec = TaskSpec {
            attempt: seq,
            fop: 0,
            index: 0,
            mains: Vec::new(),
            sides: BTreeMap::new(),
            preaggregate: false,
            route_to: Vec::new(),
            inject,
        };
        ExecIn::Net(Wire::Msg {
            from: 3,
            seq,
            epoch: 0,
            payload: spec,
        })
    }

    /// Reports that reached the master's end of the wire: each attempt,
    /// and the instant its report says it started.
    fn reports(wire: &Receiver<Wire<MasterMsg>>) -> Vec<(u64, Instant)> {
        let frames = std::iter::from_fn(|| wire.try_recv());
        let started = frames.filter_map(|f| match f {
            Wire::Msg {
                payload:
                    MasterMsg::TaskDone {
                        attempt, started, ..
                    },
                ..
            } => Some((attempt, started)),
            _ => None,
        });
        started.collect()
    }

    /// A body that finishes after its executor stopped finds the outbox
    /// closed: its report never reaches the wire, while the same
    /// executor's earlier report, sent alive, did. Its lane retires: the
    /// body queued behind it for the one slot never computes.
    #[test]
    fn a_body_that_outlives_its_executor_reports_nothing() {
        let (exec, wire, bodies, pool) = lone_executor();
        exec.inbound().send(launch(1, None)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut sent = 0;
        while sent == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            sent += reports(&wire).len();
        }
        assert_eq!(sent, 1, "a live executor's report reaches the wire");

        // The second body computes, then stalls on its report past the
        // executor's stop; the third waits for its slot.
        let stall = Some(InjectedFault::DelayDone(100));
        exec.inbound().send(launch(2, stall)).unwrap();
        exec.inbound().send(launch(3, None)).unwrap();
        while bodies.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "the second body never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        exec.stop();
        assert!(pool.wait_quiesce(Duration::from_secs(10)), "the body ends");
        exec.join();
        assert_eq!(
            reports(&wire),
            [],
            "a stopped executor's body reports nothing"
        );
        assert_eq!(
            bodies.load(Ordering::SeqCst),
            2,
            "a stopped executor starts no body"
        );
    }

    /// Launches beyond an executor's slots wait in its queue, and its
    /// lane takes them in arrival order: with one slot and two pool
    /// workers, bodies start in launch order, one lane at a time, and
    /// every one reports when it started.
    #[test]
    fn a_lane_takes_queued_bodies_in_launch_order() {
        let (exec, wire, _, pool) = lone_executor();
        let launched = Instant::now();
        for seq in 1..=4 {
            // The first body holds its slot while the rest queue.
            let inject = (seq == 1).then_some(InjectedFault::Delay(200));
            exec.inbound().send(launch(seq, inject)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut sent = Vec::new();
        while sent.len() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            sent.extend(reports(&wire));
        }
        assert_eq!(sent.len(), 4, "every queued body ran and reported");
        assert!(launched <= sent[0].1, "a start is stamped on the lane");
        sent.sort_by_key(|&(_, started)| started);
        let order: Vec<u64> = sent.iter().map(|&(attempt, _)| attempt).collect();
        assert_eq!(order, [1, 2, 3, 4]);
        assert!(pool.wait_quiesce(Duration::from_secs(10)));
        let jobs: u64 = pool.worker_states().iter().map(|w| w.jobs_run).sum();
        assert_eq!(jobs, 1, "one lane ran all four bodies");
        exec.stop();
        exec.join();
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
            .spawn(move || run_task(3, &job, &store, spec))
            .unwrap()
            .join()
            .expect("run_task must catch the panic, not unwind the slot");
        match msg {
            MasterMsg::TaskFailed {
                exec,
                attempt,
                reason,
                ..
            } => {
                assert_eq!((exec, attempt), (3, 7));
                assert!(reason.starts_with("panic:"), "reason: {reason}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }
}
