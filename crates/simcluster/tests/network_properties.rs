//! Property tests of the fair-share network model: byte conservation,
//! monotone virtual time, and robustness to arbitrary transfer mixes.

use proptest::prelude::*;

use pado_simcluster::network::Due;
use pado_simcluster::Network;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any mix of transfers, started over time and with some nodes
    /// cancelled, drains: completion events come in non-decreasing time
    /// order, every byte of a transfer that completes is counted, and
    /// with nothing cancelled every byte is conserved. Every `Due` list
    /// is strictly ascending by id (a start's own id last), and so is
    /// every list of cancelled ids: the id-order rule that the
    /// endpoint-list merge and the cancellation sort must keep.
    #[test]
    fn transfers_conserve_bytes(
        caps in proptest::collection::vec(1u32..1000, 2..10),
        transfers in proptest::collection::vec((0usize..10, 0usize..10, 1u64..1_000_000, 0u64..3_000), 1..60),
        cancels in proptest::collection::vec((0usize..60, 0usize..10), 0..3),
    ) {
        let mut n = Network::new();
        let nodes: Vec<_> = caps
            .iter()
            .map(|&c| n.add_node(c as f64, c as f64))
            .collect();
        let ascending = |dues: &[Due]| dues.windows(2).all(|w| w[0].id < w[1].id);
        let mut pending: Vec<Due> = Vec::new();
        let upsert = |pending: &mut Vec<Due>, dues: Vec<Due>| {
            for d in dues {
                pending.retain(|p| p.id != d.id);
                pending.push(d);
            }
        };
        let mut starts = transfers.clone();
        starts.sort_by_key(|t| t.3);
        let (mut next, mut now, mut guard) = (0, 0u64, 0);
        // Bytes per id, and what the completed and cancelled ones sum to.
        let (mut bytes_of, mut finished, mut cancelled) = (Vec::new(), 0.0, 0.0);
        loop {
            guard += 1;
            prop_assert!(guard < 100_000, "network failed to drain");
            pending.sort_by_key(|p| (p.at, p.id));
            let due_at = pending.first().map(|p| p.at);
            if let Some(&(s, d, bytes, at)) = starts.get(next) {
                if due_at.is_none_or(|due| at <= due) {
                    now = now.max(at);
                    let src = nodes[s % nodes.len()];
                    let dst = nodes[d % nodes.len()];
                    bytes_of.push((bytes as f64).max(1.0));
                    let (id, dues) = n.start(now, src, dst, bytes as f64);
                    prop_assert!(ascending(&dues), "start: {:?}", dues);
                    prop_assert_eq!(dues.last().map(|d| d.id), Some(id));
                    upsert(&mut pending, dues);
                    for &(_, node) in cancels.iter().filter(|c| c.0 == next) {
                        let (victims, dues) = n.cancel_node(now, nodes[node % nodes.len()]);
                        prop_assert!(victims.windows(2).all(|w| w[0] < w[1]), "{:?}", victims);
                        prop_assert!(ascending(&dues), "cancel: {:?}", dues);
                        pending.retain(|p| victims.binary_search(&p.id).is_err());
                        cancelled += victims.iter().map(|&v| bytes_of[v as usize]).sum::<f64>();
                        upsert(&mut pending, dues);
                    }
                    next += 1;
                    continue;
                }
            }
            if pending.is_empty() {
                break;
            }
            let due = pending.remove(0);
            prop_assert!(due.at >= now, "time went backwards");
            now = due.at;
            if let Ok(re) = n.complete(due.at, due.id, due.gen) {
                prop_assert!(ascending(&re), "complete: {:?}", re);
                finished += bytes_of[due.id as usize];
                upsert(&mut pending, re);
            }
        }
        prop_assert_eq!(n.active(), 0);
        let moved = n.bytes_completed;
        let slack = (finished + cancelled) * 1e-6 + 1.0;
        prop_assert!(moved >= finished - slack, "moved {moved}, completed {finished}");
        prop_assert!(
            moved <= finished + cancelled + slack,
            "moved {moved}, completed {finished}, cancelled {cancelled}"
        );
    }

    /// Cancelling a node mid-flight loses only that node's transfers; the
    /// rest still complete.
    #[test]
    fn cancellation_spares_unrelated_transfers(
        seed_bytes in 1u64..100_000,
        cancel_at in 1u64..1000,
    ) {
        let mut n = Network::new();
        let a = n.add_node(100.0, 100.0);
        let b = n.add_node(100.0, 100.0);
        let c = n.add_node(100.0, 100.0);
        let d = n.add_node(100.0, 100.0);
        let (doomed, _) = n.start(0, a, b, 1e9);
        let (survivor, dues) = n.start(0, c, d, seed_bytes as f64);
        let (victims, _) = n.cancel_node(cancel_at.min(dues[0].at.saturating_sub(1)), b);
        prop_assert_eq!(victims, vec![doomed]);
        prop_assert!(n.generation(survivor).is_some() || n.active() == 0);
    }
}
