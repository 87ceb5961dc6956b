//! Property tests of the cluster's event queue: under any mix of
//! transfers, timers and evictions, every transfer ends exactly once,
//! nothing stale is ever taken from the queue, and virtual time never runs
//! backwards.

use proptest::prelude::*;

use pado_simcluster::{Cluster, Event, Kind, LifetimeDist, NodeSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Each op is `(kind, a, b, amount)`: kind 0–1 starts a transfer of
    /// `amount` bytes between two live containers picked by `a` and `b`,
    /// 2 schedules a timer `amount` µs out, 3 evicts container `a` now
    /// and 4 schedules its eviction `amount` µs out. After each op the
    /// cluster delivers up to `b % 3` events; then it drains.
    #[test]
    fn every_transfer_ends_once_and_nothing_stale_is_taken(
        ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64, 1u64..2_000_000), 1..80),
        seed in 0u64..1_000,
    ) {
        let spec = NodeSpec::from_gbps(4, 1.0);
        let mut c: Cluster<usize> = Cluster::new(
            4,
            2,
            spec,
            spec,
            NodeSpec::from_gbps(0, 10.0),
            LifetimeDist::None,
            seed,
        );
        // Per started transfer (by tag): its id and how often it ended.
        let mut started = Vec::new();
        let mut ended: Vec<u32> = Vec::new();
        let (mut delivered, mut scripted, mut queued_evictions) = (0u64, 0u64, 0u64);
        let mut last = 0;
        let mut deliver = |c: &mut Cluster<usize>, started: &Vec<u64>, ended: &mut Vec<u32>| {
            let Some(ev) = c.next_event() else {
                return Ok(false);
            };
            delivered += 1;
            prop_assert!(c.now() >= last, "time went backwards");
            last = c.now();
            match ev {
                Event::TransferDone { id, tag } | Event::TransferFailed { id, tag } => {
                    prop_assert_eq!(started[tag], id);
                    ended[tag] += 1;
                }
                Event::Evicted(_) => queued_evictions += 1,
                Event::Timer(_) | Event::ContainerAdded(_) => {}
            }
            Ok(true)
        };
        for &(kind, a, b, amount) in &ops {
            let mut live = vec![Cluster::<usize>::STORE, Cluster::<usize>::MASTER];
            live.extend(c.alive(Kind::Reserved));
            live.extend(c.alive(Kind::Transient));
            match kind {
                0 | 1 => {
                    let (src, dst) = (live[a % live.len()], live[b % live.len()]);
                    let tag = started.len();
                    started.push(c.start_transfer(src, dst, amount as f64, tag));
                    ended.push(0);
                }
                2 => c.schedule_after(amount, usize::MAX),
                3 => {
                    let _ = c.evict_now(live[a % live.len()]);
                }
                _ => {
                    scripted += 1;
                    c.schedule_eviction(c.now() + amount, live[a % live.len()]);
                }
            }
            for _ in 0..b % 3 {
                deliver(&mut c, &started, &mut ended)?;
            }
        }
        while deliver(&mut c, &started, &mut ended)? {}
        prop_assert!(ended.iter().all(|&n| n == 1), "{:?}", ended);
        // Every entry taken was delivered, save a scheduled eviction of a
        // container that was already dead.
        prop_assert!(queued_evictions <= scripted);
        prop_assert_eq!(c.popped, delivered + (scripted - queued_evictions));
    }
}
