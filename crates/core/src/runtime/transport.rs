//! Control-plane transport: at-least-once delivery over an adversarial
//! wire.
//!
//! The master↔executor channels stop being perfectly reliable here. Every
//! control message crosses a [`FaultyLink`], which consults a seeded
//! [`NetworkFault`] policy and may drop, duplicate, reorder, or delay the
//! frame — or black-hole it entirely while its executor is partitioned.
//! On top of the lossy link, a [`ReliableSender`]/[`DedupWindow`] pair
//! implements an at-least-once protocol:
//!
//! - the sender stamps each payload with a per-peer monotone sequence
//!   number and keeps it buffered until the peer acknowledges that exact
//!   sequence number;
//! - unacknowledged messages are retransmitted with exponential backoff
//!   plus deterministic jitter (derived from the seed and the sequence
//!   number, so a seeded chaos run replays the same schedule);
//! - the sender caps its in-flight window; excess sends queue in order
//!   behind it, which bounds the receiver's dedup window;
//! - the receiver acknowledges every delivery (including duplicates —
//!   the first ack may have been lost) and suppresses replays through a
//!   sequence-number window.
//!
//! The protocol upgrades the wire to *at-least-once, unordered* delivery.
//! Exactly-once semantics are then restored one layer up: the master's
//! message handlers are idempotent keyed on [`AttemptId`], so even a
//! replay that slips past the dedup window (or a reordering across an
//! eviction) cannot double-commit a task or double-count a retry.
//!
//! [`AttemptId`]: crate::runtime::message::AttemptId

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use crate::error::RuntimeError;
use crate::runtime::fault::{FaultInjector, WireSide};
use crate::runtime::message::{ExecId, TaskSpec};

/// Per-peer monotone sequence number; the unit of acknowledgement.
pub type Seq = u64;

/// Per-message retransmission bound: with a healthy ack path every
/// message eventually lands, and even under heavy loss no single frame
/// should need anywhere near this many tries. The chaos harness checks
/// it on every seed, against
/// [`JobMetrics::max_message_retransmissions`](crate::runtime::JobMetrics::max_message_retransmissions).
pub const MAX_RETRANSMISSIONS_PER_MESSAGE: usize = 64;

/// Which way a frame travels; fault probabilities are per-direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Master → executor (task launches, acks of executor reports).
    ToExecutor,
    /// Executor → master (task reports, acks of launches, heartbeats).
    ToMaster,
}

/// Fault probabilities for one direction of the wire. Each transmission
/// draws once; at most one fault applies per frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirectionFaults {
    /// Probability the frame is silently dropped.
    pub drop_prob: f64,
    /// Probability the frame is delivered twice.
    pub dup_prob: f64,
    /// Probability the frame is held briefly so later frames overtake it.
    pub reorder_prob: f64,
    /// Probability the frame is delayed by up to `delay_ms`.
    pub delay_prob: f64,
    /// Maximum injected latency in milliseconds (uniform in `1..=delay_ms`).
    pub delay_ms: u64,
}

/// A timed full partition of one executor: while active, every frame to
/// or from that executor is dropped, in both directions. Heals at
/// `start_ms + duration_ms` after job start; a partition longer than the
/// dead-executor timeout gets the executor declared dead first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// The partitioned executor.
    pub exec: ExecId,
    /// Milliseconds after job start the partition begins.
    pub start_ms: u64,
    /// How long the partition lasts, in milliseconds.
    pub duration_ms: u64,
}

/// Seeded network-fault policy for one job: the chaos harness's network
/// dimension. `Default` is a perfectly quiet network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkFault {
    /// Seed for every per-transmission fault draw and backoff jitter.
    pub seed: u64,
    /// Faults on master → executor frames.
    pub to_executor: DirectionFaults,
    /// Faults on executor → master frames.
    pub to_master: DirectionFaults,
    /// Timed full partitions of individual executors.
    pub partitions: Vec<PartitionSpec>,
}

/// Shared transport counters, aggregated into
/// [`JobMetrics`](crate::runtime::metrics::JobMetrics) when the job
/// completes. Atomics because executor control threads and the master
/// thread both transmit.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Frames the network dropped (including partition black-holes).
    pub dropped: AtomicU64,
    /// Frames the network delivered twice.
    pub duplicated: AtomicU64,
    /// Retransmissions of unacknowledged messages.
    pub retransmitted: AtomicU64,
    /// Received duplicates suppressed by a dedup window.
    pub deduplicated: AtomicU64,
    /// Highest transmission count any single message needed.
    pub max_transmissions: AtomicU64,
}

impl TransportCounters {
    fn note_transmissions(&self, n: u64) {
        self.max_transmissions.fetch_max(n, Ordering::Relaxed);
    }
}

/// The envelope layer: what actually crosses the wire in either
/// direction. `T` is the direction's payload type.
#[derive(Debug, Clone)]
pub enum Wire<T> {
    /// A sequence-numbered payload under the at-least-once protocol.
    Msg {
        /// The executor endpoint of the link (sender toward the master,
        /// receiver away from it).
        from: ExecId,
        /// Sequence number within that link direction.
        seq: Seq,
        /// Inert, always 0: the stamp of the retired reconfiguration
        /// fence, kept because `perf/` builds this variant (ROADMAP 1(b)).
        epoch: u64,
        /// The control message.
        payload: T,
    },
    /// Acknowledges receipt of `seq` on the opposite direction.
    Ack {
        /// The executor endpoint of the link.
        from: ExecId,
        /// The acknowledged sequence number.
        seq: Seq,
    },
    /// Unreliable executor liveness beacon (never retransmitted; the next
    /// one supersedes it).
    Heartbeat {
        /// The executor asserting liveness.
        from: ExecId,
    },
}

/// Everything an executor's control thread multiplexes over one inbox.
/// Reports are not among it: a finished body sends its own through the
/// executor's outbox.
#[derive(Debug, Clone)]
pub enum ExecIn {
    /// A task launch from the master, subject to network faults.
    Net(Wire<TaskSpec>),
    /// A report moved the outbox's next retransmission ahead of the
    /// instant the control thread sleeps until (in-process, reliable).
    Wake,
    /// Resource-manager kill: tear down the container. Bypasses the
    /// network, so a partitioned executor can still be destroyed.
    Kill,
}

/// What the fault policy decided for one transmission.
enum Action {
    Deliver,
    Drop,
    Duplicate,
    Hold(Duration),
}

/// The runtime view of a [`NetworkFault`] plan, shared by the master and
/// every executor control thread.
#[derive(Debug)]
pub struct NetPolicy {
    fault: NetworkFault,
    epoch: Instant,
}

impl NetPolicy {
    /// Starts the policy clock; partitions are timed from this instant.
    pub fn new(fault: NetworkFault) -> Arc<Self> {
        Arc::new(NetPolicy {
            fault,
            epoch: Instant::now(),
        })
    }

    /// The fault seed (used for retransmission jitter).
    pub fn seed(&self) -> u64 {
        self.fault.seed
    }

    /// Whether `exec` is inside a partition window at `now`.
    fn partitioned(&self, exec: ExecId, now: Instant) -> bool {
        let ms = now.duration_since(self.epoch).as_millis() as u64;
        self.fault
            .partitions
            .iter()
            .any(|p| p.exec == exec && ms >= p.start_ms && ms < p.start_ms + p.duration_ms)
    }

    /// One independent fault draw for the `ordinal`-th transmission on a
    /// link. Retransmissions of the same message get fresh draws (they
    /// are distinct transmissions), so a retried message always gets
    /// through eventually. The draw keys off `(seed, direction, peer,
    /// transmission ordinal)` only — all causal, backend-invariant
    /// identifiers — via the central [`FaultInjector`].
    fn decide(&self, dir: Direction, exec: ExecId, ordinal: u64) -> Action {
        let f = match dir {
            Direction::ToExecutor => &self.fault.to_executor,
            Direction::ToMaster => &self.fault.to_master,
        };
        let side = match dir {
            Direction::ToExecutor => WireSide::ToExecutor,
            Direction::ToMaster => WireSide::ToMaster,
        };
        let d = FaultInjector::new(self.fault.seed).wire(side, exec as u64, ordinal);
        let u = d.unit();
        if u < f.drop_prob {
            return Action::Drop;
        }
        if u < f.drop_prob + f.dup_prob {
            return Action::Duplicate;
        }
        if u < f.drop_prob + f.dup_prob + f.reorder_prob {
            // Held just long enough for frames sent after it to overtake.
            return Action::Hold(Duration::from_millis(1 + d.span(3)));
        }
        if u < f.drop_prob + f.dup_prob + f.reorder_prob + f.delay_prob {
            return Action::Hold(Duration::from_millis(1 + d.span(f.delay_ms)));
        }
        Action::Deliver
    }
}

/// One direction of the wire to one executor: a channel sender behind the
/// fault policy. Without a policy it is transparent.
#[derive(Debug)]
pub struct FaultyLink<W> {
    tx: Sender<W>,
    peer: ExecId,
    dir: Direction,
    policy: Option<Arc<NetPolicy>>,
    counters: Arc<TransportCounters>,
    /// Transmission ordinal on this link (drives independent fault draws).
    ordinal: u64,
    /// Frames held back by delay/reorder faults, with release deadlines.
    held: Vec<(Instant, W)>,
}

impl<W: Clone> FaultyLink<W> {
    /// Wraps `tx` as the `dir` side of the wire to `peer`.
    pub fn new(
        tx: Sender<W>,
        peer: ExecId,
        dir: Direction,
        policy: Option<Arc<NetPolicy>>,
        counters: Arc<TransportCounters>,
    ) -> Self {
        FaultyLink {
            tx,
            peer,
            dir,
            policy,
            counters,
            ordinal: 0,
            held: Vec::new(),
        }
    }

    /// Transmits one frame, subject to the fault policy. Failures to send
    /// (the peer is gone) are ignored like a lost datagram.
    pub fn send(&mut self, frame: W) {
        let now = Instant::now();
        self.release_due(now);
        let Some(policy) = &self.policy else {
            let _ = self.tx.send(frame);
            return;
        };
        if policy.partitioned(self.peer, now) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ordinal = self.ordinal;
        self.ordinal += 1;
        match policy.decide(self.dir, self.peer, ordinal) {
            Action::Deliver => {
                let _ = self.tx.send(frame);
            }
            Action::Drop => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Action::Duplicate => {
                self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
                let _ = self.tx.send(frame.clone());
                let _ = self.tx.send(frame);
            }
            Action::Hold(d) => {
                self.held.push((now + d, frame));
            }
        }
    }

    /// Releases held frames due at `now`: the master passes its
    /// [`Clock`](crate::runtime::clock::Clock) reading, so wire timers
    /// and scheduling timers share one time source on every backend.
    pub fn pump_at(&mut self, now: Instant) {
        self.release_due(now);
    }

    fn release_due(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                let (_, frame) = self.held.swap_remove(i);
                let _ = self.tx.send(frame);
            } else {
                i += 1;
            }
        }
    }

    /// Earliest deadline of a held frame, if any (for pump scheduling).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.held.iter().map(|(t, _)| *t).min()
    }
}

/// Sender-side state of one message under the reliability protocol.
#[derive(Debug)]
struct Pending<T> {
    payload: T,
    transmissions: u64,
    next_at: Instant,
    backoff: Duration,
}

/// The at-least-once sending endpoint of one link direction: sequence
/// numbering, ack bookkeeping, retransmission with exponential backoff
/// and deterministic jitter, and an in-flight cap with an ordered
/// backlog behind it.
#[derive(Debug)]
pub struct ReliableSender<T, W> {
    peer: ExecId,
    wrap: fn(ExecId, Seq, u64, T) -> W,
    link: FaultyLink<W>,
    next_seq: Seq,
    cap: usize,
    base: Duration,
    max: Duration,
    seed: u64,
    unacked: BTreeMap<Seq, Pending<T>>,
    backlog: VecDeque<T>,
    counters: Arc<TransportCounters>,
}

impl<T: Clone, W: Clone> ReliableSender<T, W> {
    /// Creates the endpoint. `wrap` builds the wire frame for a payload
    /// (its third argument is [`Wire::Msg`]'s inert stamp, always 0);
    /// `cap` bounds in-flight messages (and therefore the peer's
    /// dedup window occupancy); `base`/`max` bound the backoff schedule.
    pub fn new(
        link: FaultyLink<W>,
        peer: ExecId,
        wrap: fn(ExecId, Seq, u64, T) -> W,
        cap: usize,
        base: Duration,
        max: Duration,
        seed: u64,
    ) -> Self {
        let counters = Arc::clone(&link.counters);
        ReliableSender {
            peer,
            wrap,
            link,
            next_seq: 1,
            cap: cap.max(1),
            base: base.max(Duration::from_millis(1)),
            max,
            seed,
            unacked: BTreeMap::new(),
            backlog: VecDeque::new(),
            counters,
        }
    }

    /// Sends a payload reliably: transmits now if an in-flight slot is
    /// free, otherwise queues it in order behind the window.
    pub fn send(&mut self, payload: T) {
        if self.unacked.len() >= self.cap {
            self.backlog.push_back(payload);
            return;
        }
        self.transmit(payload);
    }

    fn transmit(&mut self, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = (self.wrap)(self.peer, seq, 0, payload.clone());
        self.link.send(frame);
        self.counters.note_transmissions(1);
        let backoff = self.base + jitter(self.base, self.seed, seq, 1);
        self.unacked.insert(
            seq,
            Pending {
                payload,
                transmissions: 1,
                next_at: Instant::now() + backoff,
                backoff,
            },
        );
    }

    /// Processes an acknowledgement, freeing its in-flight slot and
    /// transmitting from the backlog into the freed window.
    pub fn on_ack(&mut self, seq: Seq) {
        if self.unacked.remove(&seq).is_none() {
            return; // Duplicate ack.
        }
        while self.unacked.len() < self.cap {
            let Some(next) = self.backlog.pop_front() else {
                break;
            };
            self.transmit(next);
        }
    }

    /// Retransmits every message whose backoff deadline has passed and
    /// releases link-held frames.
    ///
    /// A due sequence number vanishing from the unacked window mid-pump
    /// is a transport bookkeeping bug: it surfaces as a positioned
    /// [`RuntimeError::Invariant`] that fails the job, instead of a
    /// panic poisoning the pumping thread.
    pub fn pump(&mut self, now: Instant) -> Result<(), RuntimeError> {
        let due: Vec<Seq> = self
            .unacked
            .iter()
            .filter(|(_, p)| p.next_at <= now)
            .map(|(&s, _)| s)
            .collect();
        for seq in due {
            let Some(p) = self.unacked.get_mut(&seq) else {
                return Err(RuntimeError::Invariant(format!(
                    "transport pump: due seq {seq} missing from the unacked \
                     window of the link to exec {}",
                    self.peer
                )));
            };
            p.transmissions += 1;
            p.backoff = (p.backoff * 2).min(self.max);
            p.next_at = now + p.backoff + jitter(self.base, self.seed, seq, p.transmissions);
            let transmissions = p.transmissions;
            let frame = (self.wrap)(self.peer, seq, 0, p.payload.clone());
            self.counters.retransmitted.fetch_add(1, Ordering::Relaxed);
            self.counters.note_transmissions(transmissions);
            self.link.send(frame);
        }
        // Share the caller's time source instead of re-reading the wall
        // clock: under a manual test clock the two readings would
        // otherwise disagree and release held frames out of timer order.
        self.link.pump_at(now);
        Ok(())
    }

    /// Direct access to the underlying link, e.g. to send unreliable
    /// frames (acks, heartbeats) on the same wire.
    pub fn link(&mut self) -> &mut FaultyLink<W> {
        &mut self.link
    }

    /// Earliest instant at which `pump` has work: the soonest retransmit
    /// deadline or link-held frame release.
    pub fn next_deadline(&self) -> Option<Instant> {
        let retransmit = self.unacked.values().map(|p| p.next_at).min();
        match (retransmit, self.link.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Messages currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }
}

/// Deterministic retransmission jitter: up to half the `base` backoff,
/// keyed by the envelope's causal sequence number and its per-message
/// transmission count — never a link-global counter — so retransmission
/// storms de-synchronize identically on every replay.
fn jitter(base: Duration, seed: u64, seq: Seq, transmissions: u64) -> Duration {
    let d = FaultInjector::new(seed).retransmit_jitter(seq, transmissions);
    Duration::from_millis(d.index(base.as_millis() as u64 / 2 + 1))
}

/// Receiver-side duplicate suppression: a sequence-number window.
///
/// `floor` is the lowest sequence number not yet known-delivered; every
/// seq below it was delivered (or force-skipped on overflow). The set
/// holds delivered seqs at or above the floor. The sender's in-flight
/// cap keeps the set no larger than the window, so the defensive trim
/// below never fires under a validated configuration.
#[derive(Debug)]
pub struct DedupWindow {
    floor: Seq,
    seen: BTreeSet<Seq>,
    window: usize,
}

impl DedupWindow {
    /// A window admitting at most `window` out-of-order seqs.
    pub fn new(window: usize) -> Self {
        DedupWindow {
            floor: 1,
            seen: BTreeSet::new(),
            window: window.max(1),
        }
    }

    /// Whether `seq` is a first delivery. Records it as seen either way;
    /// callers must acknowledge even stale deliveries (the first ack may
    /// have been lost).
    pub fn fresh(&mut self, seq: Seq) -> bool {
        if seq < self.floor || self.seen.contains(&seq) {
            return false;
        }
        self.seen.insert(seq);
        while self.seen.remove(&self.floor) {
            self.floor += 1;
        }
        // Defensive bound: a mis-configured sender overrunning the window
        // costs dedup coverage (idempotent handlers absorb the replays),
        // never unbounded memory.
        while self.seen.len() > self.window {
            if let Some(&lo) = self.seen.iter().next() {
                self.seen.remove(&lo);
                self.floor = self.floor.max(lo + 1);
            }
        }
        true
    }
}

/// splitmix64 finalizer, now owned by the central fault module (kept
/// re-exported here for the transport-seed-derivation call sites).
pub(crate) use crate::runtime::fault::mix64;

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn wrap(from: ExecId, seq: Seq, epoch: u64, payload: u32) -> Wire<u32> {
        Wire::Msg {
            from,
            seq,
            epoch,
            payload,
        }
    }

    fn reliable(
        tx: Sender<Wire<u32>>,
        policy: Option<Arc<NetPolicy>>,
        cap: usize,
    ) -> ReliableSender<u32, Wire<u32>> {
        let counters = Arc::new(TransportCounters::default());
        let link = FaultyLink::new(tx, 0, Direction::ToMaster, policy, counters);
        ReliableSender::new(
            link,
            0,
            wrap,
            cap,
            Duration::from_millis(5),
            Duration::from_millis(40),
            7,
        )
    }

    fn payloads(rx: &crossbeam::channel::Receiver<Wire<u32>>) -> Vec<(Seq, u32)> {
        let mut out = Vec::new();
        while let Some(f) = rx.try_recv() {
            if let Wire::Msg { seq, payload, .. } = f {
                out.push((seq, payload));
            }
        }
        out
    }

    #[test]
    fn dedup_window_suppresses_replays_and_advances() {
        let mut w = DedupWindow::new(16);
        assert!(w.fresh(1));
        assert!(!w.fresh(1), "replay suppressed");
        assert!(w.fresh(3), "out-of-order delivery is fresh");
        assert!(w.fresh(2));
        assert!(!w.fresh(2));
        assert!(!w.fresh(1));
        assert_eq!(w.floor, 4, "contiguous prefix collapsed");
        assert!(w.seen.is_empty());
    }

    #[test]
    fn dedup_window_overflow_stays_bounded() {
        let mut w = DedupWindow::new(4);
        // Seqs 2..=10 without 1: the set can never collapse to the floor.
        for s in 2..=10 {
            assert!(w.fresh(s));
        }
        assert!(w.seen.len() <= 4);
        // Seq 1 fell below the force-advanced floor: treated as stale.
        assert!(!w.fresh(1));
    }

    #[test]
    fn reliable_sender_retransmits_until_acked() {
        let (tx, rx) = unbounded();
        let mut s = reliable(tx, None, 8);
        s.send(42);
        assert_eq!(payloads(&rx), vec![(1, 42)]);
        // Past the backoff deadline: the unacked message goes out again.
        std::thread::sleep(Duration::from_millis(12));
        s.pump(Instant::now()).unwrap();
        assert_eq!(payloads(&rx), vec![(1, 42)], "retransmission");
        s.on_ack(1);
        std::thread::sleep(Duration::from_millis(60));
        s.pump(Instant::now()).unwrap();
        assert!(payloads(&rx).is_empty(), "acked: no more retransmissions");
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn in_flight_cap_queues_and_drains_in_order() {
        let (tx, rx) = unbounded();
        let mut s = reliable(tx, None, 2);
        for v in [10, 11, 12, 13] {
            s.send(v);
        }
        assert_eq!(payloads(&rx), vec![(1, 10), (2, 11)], "cap holds at 2");
        assert_eq!(s.in_flight(), 2);
        s.on_ack(1);
        assert_eq!(payloads(&rx), vec![(3, 12)], "ack admits the backlog head");
        s.on_ack(2);
        s.on_ack(3);
        assert_eq!(payloads(&rx), vec![(4, 13)]);
    }

    #[test]
    fn duplicate_acks_are_harmless() {
        let (tx, _rx) = unbounded();
        let mut s = reliable(tx, None, 4);
        s.send(1);
        s.on_ack(1);
        s.on_ack(1);
        s.on_ack(99);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn dropping_link_loses_frames_but_retransmission_recovers() {
        let policy = NetPolicy::new(NetworkFault {
            seed: 3,
            to_master: DirectionFaults {
                drop_prob: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let (tx, rx) = unbounded();
        let counters = Arc::new(TransportCounters::default());
        let mut link = FaultyLink::new(tx, 0, Direction::ToMaster, Some(policy), counters);
        link.send(Wire::Msg {
            from: 0,
            seq: 1,
            epoch: 0,
            payload: 5u32,
        });
        assert!(rx.try_recv().is_none(), "always-drop link delivers nothing");
        assert_eq!(link.counters.dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn partition_black_holes_then_heals() {
        let policy = NetPolicy::new(NetworkFault {
            seed: 1,
            partitions: vec![PartitionSpec {
                exec: 4,
                start_ms: 0,
                duration_ms: 30,
            }],
            ..Default::default()
        });
        let (tx, rx) = unbounded::<Wire<u32>>();
        let counters = Arc::new(TransportCounters::default());
        let mut link = FaultyLink::new(tx, 4, Direction::ToExecutor, Some(policy), counters);
        link.send(Wire::Heartbeat { from: 4 });
        assert!(rx.try_recv().is_none(), "partitioned: dropped");
        std::thread::sleep(Duration::from_millis(40));
        link.send(Wire::Heartbeat { from: 4 });
        assert!(rx.try_recv().is_some(), "healed: delivered");
    }

    #[test]
    fn delayed_frames_release_on_pump() {
        let policy = NetPolicy::new(NetworkFault {
            seed: 9,
            to_master: DirectionFaults {
                delay_prob: 1.0,
                delay_ms: 10,
                ..Default::default()
            },
            ..Default::default()
        });
        let (tx, rx) = unbounded::<Wire<u32>>();
        let counters = Arc::new(TransportCounters::default());
        let mut link = FaultyLink::new(tx, 2, Direction::ToMaster, Some(policy), counters);
        link.send(Wire::Heartbeat { from: 2 });
        assert!(rx.try_recv().is_none(), "held");
        assert!(link.next_deadline().is_some());
        std::thread::sleep(Duration::from_millis(12));
        link.pump_at(Instant::now());
        assert!(rx.try_recv().is_some(), "released after its deadline");
    }
}
