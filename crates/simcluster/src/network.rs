//! A fair-share network model.
//!
//! Every node has an uplink and a downlink capacity. An active transfer's
//! rate is `min(up(src)/active_up(src), down(dst)/active_down(dst))` —
//! count-based fair sharing. The approximation keeps a transfer's rate a
//! function of only its two endpoints' active counts, so a start or
//! completion only re-rates transfers touching those endpoints. This
//! captures the bottleneck the paper's evaluation hinges on: a handful of
//! reserved nodes serving (or absorbing) traffic for dozens of transient
//! nodes.
//!
//! Each node lists the ids of its active transfers, so a start, a
//! completion or a cancellation visits the endpoints' transfers only, and
//! always in ascending id order: the order of the returned [`Due`]s — and
//! with it every event tie-break downstream — is a function of the calls
//! made, never of a hash seed.

use std::collections::BTreeMap;

/// Node identifier within a simulation.
pub type NodeId = usize;

/// Transfer identifier.
pub type TransferId = u64;

#[derive(Debug, Clone)]
struct Tr {
    src: NodeId,
    dst: NodeId,
    remaining: f64,
    rate: f64,
    last: u64,
    gen: u64,
}

/// The network state: per-node link capacities and active transfers.
#[derive(Debug, Default)]
pub struct Network {
    /// (uplink, downlink) capacity per node, bytes per microsecond.
    caps: Vec<(f64, f64)>,
    transfers: BTreeMap<TransferId, Tr>,
    /// Ids of the active transfers touching each node, ascending.
    by_node: Vec<Vec<TransferId>>,
    up_count: Vec<usize>,
    down_count: Vec<usize>,
    next_id: TransferId,
    /// Total bytes moved to completion (accounting).
    pub bytes_completed: f64,
}

/// A transfer whose completion event must be (re)scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// The transfer.
    pub id: TransferId,
    /// Absolute completion time, microseconds.
    pub at: u64,
    /// Generation guard: a transfer's earlier `Due`s are superseded.
    pub gen: u64,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a node with the given link capacities (bytes per microsecond)
    /// and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities.
    pub fn add_node(&mut self, up: f64, down: f64) -> NodeId {
        assert!(up > 0.0 && down > 0.0, "link capacities must be positive");
        self.caps.push((up, down));
        self.by_node.push(Vec::new());
        self.up_count.push(0);
        self.down_count.push(0);
        self.caps.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Number of active transfers.
    pub fn active(&self) -> usize {
        self.transfers.len()
    }

    /// Starts a transfer of `bytes` from `src` to `dst` at time `now`.
    /// Returns the new transfer id and every completion event to
    /// (re)schedule — the new transfer's and those of transfers whose
    /// rate changed — in ascending id order.
    pub fn start(
        &mut self,
        now: u64,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> (TransferId, Vec<Due>) {
        let id = self.next_id;
        self.next_id += 1;
        let mut ids = self.touching(&[src, dst]);
        self.advance(now, &ids);
        self.up_count[src] += 1;
        self.down_count[dst] += 1;
        self.transfers.insert(
            id,
            Tr {
                src,
                dst,
                remaining: bytes.max(1.0),
                rate: 0.0,
                last: now,
                gen: 0,
            },
        );
        // Ids only grow, so pushing keeps every list ascending.
        self.by_node[src].push(id);
        if dst != src {
            self.by_node[dst].push(id);
        }
        ids.push(id);
        (id, self.rerate(&ids))
    }

    /// Attempts to complete a transfer at `now` for the event generation
    /// `gen`. Returns `Ok(reschedules)` with follow-up events (ascending
    /// id order) when the transfer genuinely finished, or `Err(())` when
    /// the event was stale (rate changed since it was scheduled) or the
    /// transfer is gone.
    #[allow(clippy::result_unit_err)]
    pub fn complete(&mut self, now: u64, id: TransferId, gen: u64) -> Result<Vec<Due>, ()> {
        let (src, dst) = match self.transfers.get(&id) {
            Some(tr) if tr.gen == gen => (tr.src, tr.dst),
            _ => return Err(()),
        };
        let mut ids = self.touching(&[src, dst]);
        self.advance(now, &ids);
        if self.transfers[&id].remaining > 1e-6 {
            // The event fired early relative to the re-rated schedule;
            // stale by construction (gen should have caught it), be safe.
            return Err(());
        }
        // Progress (and byte accounting) was brought to `now` above.
        self.remove(id);
        ids.retain(|&t| t != id);
        Ok(self.rerate(&ids))
    }

    /// Cancels every transfer touching `node` (its container was evicted).
    /// Returns the cancelled ids plus reschedules for affected survivors,
    /// both in ascending id order.
    pub fn cancel_node(&mut self, now: u64, node: NodeId) -> (Vec<TransferId>, Vec<Due>) {
        let victims = self.by_node[node].clone();
        let mut touched = vec![node];
        for id in &victims {
            let tr = &self.transfers[id];
            touched.push(tr.src);
            touched.push(tr.dst);
        }
        touched.sort_unstable();
        touched.dedup();
        let mut ids = self.touching(&touched);
        self.advance(now, &ids);
        for &id in &victims {
            self.remove(id);
        }
        ids.retain(|id| victims.binary_search(id).is_err());
        (victims, self.rerate(&ids))
    }

    /// The generation of a transfer, if active.
    pub fn generation(&self, id: TransferId) -> Option<u64> {
        self.transfers.get(&id).map(|t| t.gen)
    }

    /// Ids of the active transfers touching any of `nodes`, ascending.
    fn touching(&self, nodes: &[NodeId]) -> Vec<TransferId> {
        let mut ids = Vec::new();
        for &n in nodes {
            ids.extend_from_slice(&self.by_node[n]);
        }
        // The per-node lists are ascending runs: the stable sort merges
        // them in linear time.
        ids.sort();
        ids.dedup();
        ids
    }

    /// Forgets an active transfer and gives back its link shares.
    fn remove(&mut self, id: TransferId) {
        let tr = self.transfers.remove(&id).expect("transfer is active");
        self.up_count[tr.src] -= 1;
        self.down_count[tr.dst] -= 1;
        for n in [tr.src, tr.dst] {
            if let Ok(at) = self.by_node[n].binary_search(&id) {
                self.by_node[n].remove(at);
            }
        }
    }

    /// Advances the progress of the transfers `ids` to `now`.
    fn advance(&mut self, now: u64, ids: &[TransferId]) {
        for id in ids {
            let tr = self.transfers.get_mut(id).expect("listed transfer");
            let dt = now.saturating_sub(tr.last) as f64;
            let moved = (tr.rate * dt).min(tr.remaining);
            tr.remaining -= moved;
            self.bytes_completed += moved;
            tr.last = now;
        }
    }

    /// Recomputes the rates of the transfers `ids`; returns new completion
    /// events for those whose rate changed.
    fn rerate(&mut self, ids: &[TransferId]) -> Vec<Due> {
        let mut dues = Vec::new();
        for &id in ids {
            let tr = self.transfers.get_mut(&id).expect("listed transfer");
            let up_share = self.caps[tr.src].0 / self.up_count[tr.src].max(1) as f64;
            let down_share = self.caps[tr.dst].1 / self.down_count[tr.dst].max(1) as f64;
            let rate = up_share.min(down_share);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_uses_min_of_links() {
        let mut n = Network::new();
        let a = n.add_node(10.0, 10.0);
        let b = n.add_node(10.0, 5.0);
        let (_, dues) = n.start(0, a, b, 1000.0);
        assert_eq!(dues.len(), 1);
        // Bottleneck is b's downlink: 1000 / 5 = 200 us.
        assert_eq!(dues[0].at, 200);
    }

    #[test]
    fn sharing_halves_rates_and_completion_reschedules() {
        let mut n = Network::new();
        let a = n.add_node(10.0, 10.0);
        let b = n.add_node(10.0, 10.0);
        let (t1, d1) = n.start(0, a, b, 1000.0);
        assert_eq!(d1[0].at, 100);
        // A second transfer on the same pair halves both rates.
        let (_t2, d2) = n.start(0, a, b, 1000.0);
        assert_eq!(d2.len(), 2, "both transfers re-rated");
        for d in &d2 {
            assert_eq!(d.at, 200);
        }
        // The original completion event is now stale.
        let stale = d1[0];
        assert!(n.complete(stale.at, t1, stale.gen).is_err());
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut n = Network::new();
        let a = n.add_node(10.0, 10.0);
        let b = n.add_node(10.0, 10.0);
        let (t1, _) = n.start(0, a, b, 500.0);
        let (_t2, d2) = n.start(0, a, b, 1000.0);
        // Both run at 5 B/us. t1 finishes at 100us.
        let due1 = d2.iter().find(|d| d.id == t1).copied().unwrap();
        assert_eq!(due1.at, 100);
        let re = n.complete(100, t1, due1.gen).unwrap();
        // t2 moved 500 bytes by then; the remaining 500 now run at 10.
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].at, 150);
        let done = n.complete(150, re[0].id, re[0].gen);
        assert!(done.is_ok());
        assert_eq!(n.active(), 0);
        assert!((n.bytes_completed - 1500.0).abs() < 1.0);
    }

    #[test]
    fn cancel_node_kills_its_transfers() {
        let mut n = Network::new();
        let a = n.add_node(10.0, 10.0);
        let b = n.add_node(10.0, 10.0);
        let c = n.add_node(10.0, 10.0);
        let (t1, _) = n.start(0, a, b, 1000.0);
        let (t2, _) = n.start(0, a, c, 1000.0);
        let (victims, dues) = n.cancel_node(50, b);
        assert_eq!(victims, vec![t1]);
        assert_eq!(n.active(), 1);
        // The survivor t2 regains a's full uplink.
        assert_eq!(dues.len(), 1);
        assert_eq!(dues[0].id, t2);
    }

    #[test]
    fn dues_and_victims_come_back_in_ascending_id_order() {
        let mut n = Network::new();
        let hub = n.add_node(10.0, 10.0);
        let spokes: Vec<_> = (0..6).map(|_| n.add_node(10.0, 10.0)).collect();
        let mut ids = Vec::new();
        for (i, &spoke) in spokes.iter().enumerate() {
            // Alternate directions so both per-node lists are in play.
            let (src, dst) = if i % 2 == 0 {
                (hub, spoke)
            } else {
                (spoke, hub)
            };
            let (id, dues) = n.start(0, src, dst, 1000.0);
            ids.push(id);
            assert!(dues.windows(2).all(|w| w[0].id < w[1].id), "{dues:?}");
            assert_eq!(dues.last().map(|d| d.id), Some(id));
        }
        let (victims, dues) = n.cancel_node(10, hub);
        assert_eq!(victims, ids);
        assert!(dues.is_empty());
        assert_eq!(n.active(), 0);
    }

    #[test]
    fn many_small_transfers_conserve_bytes() {
        let mut n = Network::new();
        let src = n.add_node(100.0, 100.0);
        let dst = n.add_node(100.0, 100.0);
        let mut pending: Vec<Due> = Vec::new();
        let mut total = 0.0;
        for i in 0..20 {
            let bytes = 100.0 * (i + 1) as f64;
            total += bytes;
            let (_, dues) = n.start(0, src, dst, bytes);
            for d in dues {
                pending.retain(|p| p.id != d.id);
                pending.push(d);
            }
        }
        // Drain events in time order until everything completes.
        let mut guard = 0;
        while n.active() > 0 && guard < 10_000 {
            guard += 1;
            pending.sort_by_key(|d| d.at);
            let d = pending.remove(0);
            if let Ok(re) = n.complete(d.at, d.id, d.gen) {
                for r in re {
                    pending.retain(|p| p.id != r.id);
                    pending.push(r);
                }
            }
        }
        assert_eq!(n.active(), 0);
        assert!(
            (n.bytes_completed - total).abs() < total * 1e-6,
            "moved {} of {}",
            n.bytes_completed,
            total
        );
    }
}
