//! Property tests of the at-least-once control-plane transport
//! (`ReliableSender`/`DedupWindow` over a `FaultyLink`): under arbitrary
//! seeded drop/duplicate/reorder/delay schedules — on the data direction
//! AND the ack direction — every payload is delivered above the dedup
//! window exactly once, and the seq/ack state machines drain without
//! deadlock.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use pado_core::runtime::transport::MAX_RETRANSMISSIONS_PER_MESSAGE;
use pado_core::runtime::transport::{
    DedupWindow, Direction, DirectionFaults, FaultyLink, NetPolicy, NetworkFault, ReliableSender,
    Seq, TransportCounters, Wire,
};
use proptest::prelude::*;

fn wrap(from: usize, seq: Seq, epoch: u64, payload: u32) -> Wire<u32> {
    Wire::Msg {
        from,
        seq,
        epoch,
        payload,
    }
}

/// Drives one sender/receiver pair over a fully lossy wire (both
/// directions faulted) until every payload lands or `deadline` passes.
/// Returns (delivery counts above dedup, sender in-flight at the end,
/// shared transport counters).
#[allow(clippy::too_many_arguments)]
fn drive(
    seed: u64,
    data_faults: DirectionFaults,
    ack_faults: DirectionFaults,
    n_payloads: u32,
    cap: usize,
    deadline: Duration,
) -> (HashMap<u32, usize>, usize, Arc<TransportCounters>) {
    let policy = NetPolicy::new(NetworkFault {
        seed,
        to_master: data_faults,
        to_executor: ack_faults,
        partitions: Vec::new(),
    });
    let counters = Arc::new(TransportCounters::default());

    // Payload direction: "executor 0 -> master".
    let (data_tx, data_rx) = unbounded::<Wire<u32>>();
    let data_link = FaultyLink::new(
        data_tx,
        0,
        Direction::ToMaster,
        Some(Arc::clone(&policy)),
        Arc::clone(&counters),
    );
    let mut sender = ReliableSender::new(
        data_link,
        0,
        wrap,
        cap,
        Duration::from_millis(2),
        Duration::from_millis(8),
        seed,
    );

    // Ack direction: "master -> executor 0", equally lossy.
    let (ack_tx, ack_rx) = unbounded::<Wire<u32>>();
    let mut ack_link = FaultyLink::new(
        ack_tx,
        0,
        Direction::ToExecutor,
        Some(policy),
        Arc::clone(&counters),
    );

    for v in 0..n_payloads {
        sender.send(v);
    }

    let mut dedup = DedupWindow::new(64);
    let mut delivered: HashMap<u32, usize> = HashMap::new();
    let t0 = Instant::now();
    loop {
        // Receiver side: dedup, record first deliveries, ack everything
        // (the first ack may itself have been lost).
        while let Some(frame) = data_rx.try_recv() {
            if let Wire::Msg {
                from, seq, payload, ..
            } = frame
            {
                if dedup.fresh(seq) {
                    *delivered.entry(payload).or_default() += 1;
                }
                ack_link.send(Wire::Ack { from, seq });
            }
        }
        // Sender side: consume acks, retransmit past-due messages,
        // release held frames on both links.
        while let Some(frame) = ack_rx.try_recv() {
            if let Wire::Ack { seq, .. } = frame {
                sender.on_ack(seq);
            }
        }
        sender.pump(Instant::now()).expect("pump invariant");
        ack_link.pump_at(Instant::now());
        let done = delivered.len() == n_payloads as usize && sender.in_flight() == 0;
        if done || t0.elapsed() >= deadline {
            let in_flight = sender.in_flight();
            return (delivered, in_flight, counters);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary (bounded-probability) fault schedules on both wire
    /// directions never produce a duplicate delivery above the dedup
    /// window, never lose a payload, and never wedge the seq/ack state
    /// machines: every payload lands exactly once and the in-flight
    /// window drains, all within a generous real-time deadline.
    #[test]
    fn lossy_wire_delivers_exactly_once_above_dedup(
        seed in 0u64..1_000_000,
        probs in (0.0f64..0.45, 0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3),
        n_payloads in 1u32..9,
        cap in 1usize..5,
    ) {
        let (drop, dup, reorder, delay) = probs;
        let faults = |salt: f64| DirectionFaults {
            drop_prob: drop,
            dup_prob: (dup + salt).min(0.3),
            reorder_prob: reorder,
            delay_prob: delay,
            delay_ms: 3,
        };
        let (delivered, in_flight, _) = drive(
            seed,
            faults(0.0),
            faults(0.05),
            n_payloads,
            cap,
            Duration::from_secs(5),
        );
        prop_assert_eq!(
            in_flight, 0,
            "seq/ack machines deadlocked: {} of {} payloads delivered",
            delivered.len(), n_payloads
        );
        for v in 0..n_payloads {
            prop_assert_eq!(
                delivered.get(&v).copied().unwrap_or(0), 1,
                "payload {} delivered {:?} times above the dedup window",
                v, delivered.get(&v)
            );
        }
    }

    /// The dedup window itself is a correct exactly-once filter over any
    /// replayed/reordered seq schedule the in-flight cap permits: each
    /// seq is fresh at most once, replays and anything below the floor
    /// are always stale.
    #[test]
    fn dedup_window_admits_each_seq_at_most_once(
        seqs in proptest::collection::vec(1u64..40, 1..120),
    ) {
        let mut w = DedupWindow::new(64);
        let mut admitted: HashMap<u64, usize> = HashMap::new();
        for &s in &seqs {
            if w.fresh(s) {
                *admitted.entry(s).or_default() += 1;
            }
        }
        for (s, n) in &admitted {
            prop_assert_eq!(*n, 1, "seq {} admitted {} times", s, n);
        }
        for &s in &seqs {
            prop_assert!(!w.fresh(s), "replay of seq {} admitted late", s);
        }
    }

    /// Even over a heavily faulted wire, no single message needs more
    /// than the protocol-wide retransmission bound (fresh fault draws per
    /// transmission make long retry chains vanishingly unlikely); the
    /// invariant checker enforces the same bound on real runs.
    #[test]
    fn retransmissions_stay_bounded(
        seed in 0u64..1_000_000,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        n_payloads in 1u32..9,
    ) {
        let faults = DirectionFaults {
            drop_prob: 0.35,
            dup_prob: dup,
            reorder_prob: reorder,
            delay_prob: 0.2,
            delay_ms: 2,
        };
        let (delivered, in_flight, counters) =
            drive(seed, faults, faults, n_payloads, 4, Duration::from_secs(5));
        prop_assert_eq!(in_flight, 0);
        prop_assert_eq!(delivered.len(), n_payloads as usize);
        prop_assert!(delivered.values().all(|&n| n == 1));
        let max = counters
            .max_transmissions
            .load(std::sync::atomic::Ordering::Relaxed);
        prop_assert!(
            (max.saturating_sub(1) as usize) <= MAX_RETRANSMISSIONS_PER_MESSAGE,
            "a message needed {} transmissions", max
        );
    }

    /// The retransmission/dedup state machine holds under *real* thread
    /// interleavings, not just the single-threaded schedules above: the
    /// sender runs its genuine retransmission timers on this thread
    /// while a receiver thread pulls frames through a seeded shim that
    /// delivers them in arbitrary order, duplicates some, and drops a
    /// bounded number without acking (forcing real timer-driven
    /// retransmission). Whatever the OS scheduler does, every payload is
    /// delivered exactly once above the dedup window and the in-flight
    /// window drains.
    #[test]
    fn real_thread_interleavings_deliver_exactly_once(
        seed in 0u64..1_000_000,
        n_payloads in 4u32..24,
        cap in 1usize..6,
        dup_prob in 0.0f64..0.3,
        drop_budget in 0usize..6,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let counters = Arc::new(TransportCounters::default());
        let (data_tx, data_rx) = unbounded::<Wire<u32>>();
        // No NetPolicy: the shim thread below is the adversary.
        let data_link = FaultyLink::new(
            data_tx,
            0,
            Direction::ToMaster,
            None,
            Arc::clone(&counters),
        );
        let mut sender = ReliableSender::new(
            data_link,
            0,
            wrap,
            cap,
            Duration::from_millis(2),
            Duration::from_millis(8),
            seed,
        );
        let (ack_tx, ack_rx) = unbounded::<Wire<u32>>();

        let done = Arc::new(AtomicBool::new(false));
        let receiver = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7EC3_1A7E);
                let mut dedup = DedupWindow::new(64);
                let mut delivered: HashMap<u32, usize> = HashMap::new();
                let mut held: Vec<Wire<u32>> = Vec::new();
                let mut drops_left = drop_budget;
                loop {
                    while let Some(frame) = data_rx.try_recv() {
                        held.push(frame);
                    }
                    if held.is_empty() {
                        if done.load(Ordering::Acquire) {
                            return delivered;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    }
                    // Arbitrary delivery order: pull a random held frame.
                    let frame = held.swap_remove(rng.gen_range(0..held.len()));
                    if let Wire::Msg { from, seq, payload, .. } = frame {
                        if drops_left > 0 && rng.gen_bool(0.25) {
                            // Swallow it unacked: only the sender's real
                            // retransmission timer can recover this one.
                            drops_left -= 1;
                            continue;
                        }
                        let times = if rng.gen_bool(dup_prob) { 2 } else { 1 };
                        for _ in 0..times {
                            if dedup.fresh(seq) {
                                *delivered.entry(payload).or_default() += 1;
                            }
                            let _ = ack_tx.send(Wire::Ack { from, seq });
                        }
                    }
                }
            })
        };

        for v in 0..n_payloads {
            sender.send(v);
        }
        let t0 = Instant::now();
        while sender.in_flight() > 0 && t0.elapsed() < Duration::from_secs(5) {
            while let Some(frame) = ack_rx.try_recv() {
                if let Wire::Ack { seq, .. } = frame {
                    sender.on_ack(seq);
                }
            }
            sender.pump(Instant::now()).expect("pump invariant");
            std::thread::sleep(Duration::from_millis(1));
        }
        let in_flight = sender.in_flight();
        done.store(true, Ordering::Release);
        let delivered = receiver.join().expect("receiver thread");

        prop_assert_eq!(
            in_flight, 0,
            "real-thread schedule wedged the sender: {:?} delivered of {}",
            delivered.len(), n_payloads
        );
        for v in 0..n_payloads {
            prop_assert_eq!(
                delivered.get(&v).copied().unwrap_or(0), 1,
                "payload {} delivered {:?} times above the dedup window",
                v, delivered.get(&v)
            );
        }
    }
}
