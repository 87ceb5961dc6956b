//! Property tests of the fair-share network model: byte conservation,
//! monotone virtual time, robustness to arbitrary transfer mixes, and the
//! one-pass start/completion/cancellation held to the three walks it
//! replaced, bit for bit.

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
                        let victims = n.cancel_node(now, nodes[node % nodes.len()]);
                        let dues = n.dues().to_vec();
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
        let victims = n.cancel_node(cancel_at.min(dues[0].at.saturating_sub(1)), b);
        prop_assert_eq!(victims, vec![doomed]);
        prop_assert!(n.generation(survivor).is_some() || n.active() == 0);
    }
}

/// The network as it stood before starts and completions became one pass:
/// collect the touching ids (`touching`), advance them all (`advance`),
/// then re-rate them all (`rerate`), each into a fresh `Vec`. Kept as the
/// oracle of the one pass. Its `complete` restores its state when it
/// refuses, so a refusal changes nothing here either.
mod oracle {
    use pado_simcluster::network::{Due, NodeId, TransferId};

    #[derive(Debug, Clone)]
    struct Tr {
        src: NodeId,
        dst: NodeId,
        remaining: f64,
        rate: f64,
        last: u64,
        gen: u64,
    }

    #[derive(Debug, Clone, Default)]
    pub struct Network {
        caps: Vec<(f64, f64)>,
        transfers: Vec<Option<Tr>>,
        active: usize,
        by_node: Vec<Vec<TransferId>>,
        up_count: Vec<usize>,
        down_count: Vec<usize>,
        shares: Vec<(f64, f64)>,
        pub bytes_completed: f64,
    }

    impl Network {
        pub fn add_node(&mut self, up: f64, down: f64) -> NodeId {
            self.caps.push((up, down));
            self.shares.push((up, down));
            self.by_node.push(Vec::new());
            self.up_count.push(0);
            self.down_count.push(0);
            self.caps.len() - 1
        }

        pub fn active(&self) -> usize {
            self.active
        }

        pub fn start(
            &mut self,
            now: u64,
            src: NodeId,
            dst: NodeId,
            bytes: f64,
        ) -> (TransferId, Vec<Due>) {
            let id = self.transfers.len() as TransferId;
            let mut ids = self.touching(src, dst);
            self.advance(now, &ids);
            self.recount(src, dst, 1);
            self.transfers.push(Some(Tr {
                src,
                dst,
                remaining: bytes.max(1.0),
                rate: 0.0,
                last: now,
                gen: 0,
            }));
            self.by_node[src].push(id);
            if dst != src {
                self.by_node[dst].push(id);
            }
            ids.push(id);
            (id, self.rerate(&ids))
        }

        pub fn complete(&mut self, now: u64, id: TransferId, gen: u64) -> Result<Vec<Due>, ()> {
            let (src, dst) = match self.get(id) {
                Some(tr) if tr.gen == gen => (tr.src, tr.dst),
                _ => return Err(()),
            };
            let before = self.clone();
            let mut ids = self.touching(src, dst);
            self.advance(now, &ids);
            if self.get(id).unwrap().remaining > 1e-6 {
                *self = before;
                return Err(());
            }
            self.remove(id);
            ids.retain(|&t| t != id);
            Ok(self.rerate(&ids))
        }

        pub fn cancel_node(&mut self, now: u64, node: NodeId) -> (Vec<TransferId>, Vec<Due>) {
            let victims = self.by_node[node].clone();
            let mut ids = Vec::new();
            for &id in &victims {
                let tr = self.get(id).unwrap();
                ids.extend_from_slice(&self.by_node[tr.src]);
                ids.extend_from_slice(&self.by_node[tr.dst]);
            }
            ids.sort_unstable();
            ids.dedup();
            self.advance(now, &ids);
            for &id in &victims {
                self.remove(id);
            }
            ids.retain(|id| victims.binary_search(id).is_err());
            (victims, self.rerate(&ids))
        }

        pub fn generation(&self, id: TransferId) -> Option<u64> {
            self.get(id).map(|t| t.gen)
        }

        fn get(&self, id: TransferId) -> Option<&Tr> {
            self.transfers.get(id as usize)?.as_ref()
        }

        fn touching(&self, a: NodeId, b: NodeId) -> Vec<TransferId> {
            let (x, y) = (&self.by_node[a], &self.by_node[b]);
            if a == b {
                return x.clone();
            }
            let mut ids = Vec::with_capacity(x.len() + y.len());
            let (mut i, mut j) = (0, 0);
            while let (Some(&p), Some(&q)) = (x.get(i), y.get(j)) {
                ids.push(p.min(q));
                i += usize::from(p <= q);
                j += usize::from(q <= p);
            }
            ids.extend_from_slice(&x[i..]);
            ids.extend_from_slice(&y[j..]);
            ids
        }

        fn remove(&mut self, id: TransferId) {
            let tr = self.transfers[id as usize].take().unwrap();
            self.recount(tr.src, tr.dst, -1);
            for n in [tr.src, tr.dst] {
                if let Ok(at) = self.by_node[n].binary_search(&id) {
                    self.by_node[n].remove(at);
                }
            }
        }

        fn recount(&mut self, src: NodeId, dst: NodeId, by: isize) {
            self.active = self.active.wrapping_add_signed(by);
            self.up_count[src] = self.up_count[src].wrapping_add_signed(by);
            self.down_count[dst] = self.down_count[dst].wrapping_add_signed(by);
            self.shares[src].0 = self.caps[src].0 / self.up_count[src].max(1) as f64;
            self.shares[dst].1 = self.caps[dst].1 / self.down_count[dst].max(1) as f64;
        }

        fn advance(&mut self, now: u64, ids: &[TransferId]) {
            for id in ids {
                let tr = self.transfers[*id as usize].as_mut().unwrap();
                let dt = now.saturating_sub(tr.last) as f64;
                let moved = (tr.rate * dt).min(tr.remaining);
                tr.remaining -= moved;
                self.bytes_completed += moved;
                tr.last = now;
            }
        }

        fn rerate(&mut self, ids: &[TransferId]) -> Vec<Due> {
            let mut dues = Vec::new();
            for &id in ids {
                let tr = self.transfers[id as usize].as_mut().unwrap();
                let rate = self.shares[tr.src].0.min(self.shares[tr.dst].1);
                if (rate - tr.rate).abs() > 1e-12 || tr.rate == 0.0 {
                    tr.rate = rate;
                    tr.gen += 1;
                    let eta = (tr.remaining / rate).ceil() as u64;
                    dues.push(Due {
                        id,
                        at: tr.last + eta.max(1),
                        gen: tr.gen,
                    });
                }
            }
            dues
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The one pass against the three walks: after every start,
    /// completion (on time, early or stale) and cancellation, both
    /// networks return the same `Due`s (order, `at`, `gen`) and the same
    /// outcome, and hold the same `bytes_completed` bits, `active()` and
    /// generations. `hubs` sends most transfers through nodes 0 and 1, so
    /// both endpoint lists run long; `a == b` draws transfers from a node
    /// to itself. A step `(kind, a, b, bytes, dt)` of kind 0–4 starts
    /// `bytes` from `a` to `b` after `dt` µs (firing every event due by
    /// then first); 5–6 fires the earliest event, 7 fires one early, 8
    /// fires one with a superseded generation, 9 cancels node `a`; then
    /// every event left fires.
    #[test]
    fn the_one_pass_is_the_three_walks_bit_for_bit(
        caps in proptest::collection::vec((1u32..1000, 1u32..1000), 2..12),
        hubs in any::<bool>(),
        steps in proptest::collection::vec((0u8..10, 0usize..24, 0usize..24, 1u64..1_000_000, 0u64..2_000), 1..150),
    ) {
        let mut n = Network::new();
        let mut o = oracle::Network::default();
        for &(up, down) in &caps {
            n.add_node(up as f64, down as f64);
            o.add_node(up as f64, down as f64);
        }
        let node = |x: usize| if hubs && x < 16 { x % 2 } else { x % caps.len() };
        let mut pending: Vec<Due> = Vec::new();
        let upsert = |pending: &mut Vec<Due>, dues: &[Due]| {
            for d in dues {
                pending.retain(|p| p.id != d.id);
                pending.push(*d);
            }
            pending.sort_by_key(|p| (p.at, p.id));
        };
        let mut now = 0u64;
        let (mut ids, mut generations) = (0, Vec::new());
        // Fires the earliest pending event at its time.
        macro_rules! fire_one {
            () => {{
                let due = pending.remove(0);
                now = now.max(due.at);
                let got = n.complete(now, due.id, due.gen);
                prop_assert_eq!(&got, &o.complete(now, due.id, due.gen), "complete {:?}", due);
                upsert(&mut pending, &got.unwrap_or_default());
            }};
        }
        for (i, &(kind, a, b, bytes, dt)) in steps.iter().chain(std::iter::repeat_n(&(5, 0, 0, 0, 0), 1_000)).enumerate() {
            match kind {
                0..=4 => {
                    while pending.first().is_some_and(|p| p.at <= now + dt) {
                        fire_one!();
                    }
                    now += dt;
                    let (src, dst) = (node(a), node(b));
                    let got = n.start(now, src, dst, bytes as f64);
                    prop_assert_eq!(&got, &o.start(now, src, dst, bytes as f64), "start {}->{}", src, dst);
                    ids += 1;
                    upsert(&mut pending, &got.1);
                }
                7 | 8 if !pending.is_empty() => {
                    let due = pending[b % pending.len()];
                    // Early: before its time, current generation. Stale:
                    // at its time, superseded generation.
                    let (at, gen) = if kind == 7 { (now, due.gen) } else { (due.at.max(now), due.gen - 1) };
                    let got = n.complete(at, due.id, gen);
                    prop_assert_eq!(&got, &o.complete(at, due.id, gen), "early or stale {:?}", due);
                    if let Ok(dues) = got {
                        // Within 1e-6 bytes of done: not early after all.
                        pending.retain(|p| p.id != due.id);
                        upsert(&mut pending, &dues);
                    }
                }
                9 => {
                    let victims = n.cancel_node(now, node(a));
                    let (want, dues) = o.cancel_node(now, node(a));
                    prop_assert_eq!(&victims, &want);
                    prop_assert_eq!(n.dues(), &dues[..], "cancel {}", node(a));
                    pending.retain(|p| victims.binary_search(&p.id).is_err());
                    upsert(&mut pending, &dues);
                }
                _ if !pending.is_empty() => fire_one!(),
                _ => {}
            }
            prop_assert_eq!(n.bytes_completed.to_bits(), o.bytes_completed.to_bits());
            prop_assert_eq!(n.active(), o.active());
            generations.clear();
            generations.extend((0..ids).map(|id| (n.generation(id), o.generation(id))));
            prop_assert!(generations.iter().all(|(x, y)| x == y), "{:?}", generations);
            if i >= steps.len() && pending.is_empty() {
                break;
            }
        }
        prop_assert_eq!(n.active(), 0);
    }
}
