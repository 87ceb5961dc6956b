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
//! Ids are dense and only grow, so the transfers sit in a slab indexed by
//! id. Each node lists the ids of its active transfers, so a start, a
//! completion or a cancellation visits the endpoints' transfers only, and
//! always in ascending id order: the order of the [`Due`]s — and with it
//! every event tie-break downstream — is a function of the calls made,
//! never of a hash seed.

/// Node identifier within a simulation.
pub type NodeId = usize;

/// Transfer identifier.
pub type TransferId = u64;

#[derive(Debug, Clone, Copy)]
struct Tr {
    src: NodeId,
    dst: NodeId,
    remaining: f64,
    rate: f64,
    last: u64,
    gen: u64,
}

impl Tr {
    /// The bytes it moves from its last update to `now` at its rate.
    fn moved_by(&self, now: u64) -> f64 {
        (self.rate * now.saturating_sub(self.last) as f64).min(self.remaining)
    }
}

/// The network state: per-node link capacities and active transfers.
#[derive(Debug, Default)]
pub struct Network {
    /// (uplink, downlink) capacity per node, bytes per microsecond.
    caps: Vec<(f64, f64)>,
    /// Every transfer ever started, by id; `None` once it is gone.
    transfers: Vec<Option<Tr>>,
    active: usize,
    /// Ids of the active transfers touching each node, ascending.
    by_node: Vec<Vec<TransferId>>,
    up_count: Vec<usize>,
    down_count: Vec<usize>,
    /// Per node, the fair shares `caps / count.max(1)`, kept at every count change.
    shares: Vec<(f64, f64)>,
    /// The last call's `Due`s; cleared, never shrunk, by the next.
    dues: Vec<Due>,
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
        self.shares.push((up, down));
        self.by_node.push(Vec::new());
        self.up_count.push(0);
        self.down_count.push(0);
        self.caps.len() - 1
    }

    /// Number of active transfers.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The completion events to (re)schedule after the last start,
    /// completion or cancellation, in ascending id order.
    pub fn dues(&self) -> &[Due] {
        &self.dues
    }

    /// [`Network::start_pass`], its `Due`s copied out.
    pub fn start(
        &mut self,
        now: u64,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
    ) -> (TransferId, Vec<Due>) {
        let id = self.start_pass(now, src, dst, bytes);
        (id, self.dues.clone())
    }

    /// [`Network::complete_pass`], its `Due`s copied out.
    #[allow(clippy::result_unit_err)]
    pub fn complete(&mut self, now: u64, id: TransferId, gen: u64) -> Result<Vec<Due>, ()> {
        self.complete_pass(now, id, gen).map(|()| self.dues.clone())
    }

    /// Starts a transfer of `bytes` from `src` to `dst` at time `now` and
    /// returns its id; the new transfer's `Due` is the last of
    /// [`Network::dues`], after those of transfers whose rate changed.
    pub fn start_pass(&mut self, now: u64, src: NodeId, dst: NodeId, bytes: f64) -> TransferId {
        let id = self.transfers.len() as TransferId;
        self.recount(src, dst, 1);
        self.transfers.push(Some(Tr {
            src,
            dst,
            remaining: bytes.max(1.0),
            rate: 0.0,
            last: now,
            gen: 0,
        }));
        // Ids only grow, so pushing keeps every list ascending.
        self.by_node[src].push(id);
        if dst != src {
            self.by_node[dst].push(id);
        }
        self.pass(now, src, dst, None);
        id
    }

    /// Completes a transfer at `now` for the event generation `gen`, its
    /// follow-up events in [`Network::dues`]; `Err(())`, changing nothing,
    /// when the event is stale (rate changed since it was scheduled) or
    /// the transfer is gone.
    #[allow(clippy::result_unit_err)]
    pub fn complete_pass(&mut self, now: u64, id: TransferId, gen: u64) -> Result<(), ()> {
        let Some(&tr) = self.get(id).filter(|tr| tr.gen == gen) else {
            return Err(());
        };
        if tr.remaining - tr.moved_by(now) > 1e-6 {
            // The event fired early relative to the re-rated schedule;
            // stale by construction (gen should have caught it), be safe.
            return Err(());
        }
        self.recount(tr.src, tr.dst, -1);
        self.pass(now, tr.src, tr.dst, Some(id));
        self.forget(id);
        Ok(())
    }

    /// Cancels every transfer touching `node` (its container was evicted)
    /// and returns the cancelled ids, ascending; the survivors' reschedules
    /// are in [`Network::dues`].
    pub fn cancel_node(&mut self, now: u64, node: NodeId) -> Vec<TransferId> {
        let victims = self.by_node[node].clone();
        let mut ids = Vec::new();
        for &id in &victims {
            let tr = *self.get(id).expect("listed transfer");
            ids.extend_from_slice(&self.by_node[tr.src]);
            ids.extend_from_slice(&self.by_node[tr.dst]);
            self.recount(tr.src, tr.dst, -1);
        }
        ids.sort_unstable();
        ids.dedup();
        self.dues.clear();
        for &id in &ids {
            self.step(now, id, victims.binary_search(&id).is_ok());
        }
        for &id in &victims {
            self.forget(id);
        }
        victims
    }

    /// The generation of a transfer, if active.
    pub fn generation(&self, id: TransferId) -> Option<u64> {
        self.get(id).map(|t| t.gen)
    }

    fn get(&self, id: TransferId) -> Option<&Tr> {
        self.transfers.get(id as usize)?.as_ref()
    }

    /// The one pass of a start or a completion, after its recount: a
    /// [`Network::step`] per transfer touching `a` or `b`, in one merge of
    /// their ascending lists (a transfer between them is in both, taken once).
    fn pass(&mut self, now: u64, a: NodeId, b: NodeId, ending: Option<TransferId>) {
        self.dues.clear();
        // Lent out, not copied (`y` is empty if `a == b`); no step edits a list.
        let x = std::mem::take(&mut self.by_node[a]);
        let y = std::mem::take(&mut self.by_node[b]);
        let (mut i, mut j) = (0, 0);
        while i < x.len() || j < y.len() {
            let p = x.get(i).copied().unwrap_or(TransferId::MAX);
            let q = y.get(j).copied().unwrap_or(TransferId::MAX);
            i += usize::from(p <= q);
            j += usize::from(q <= p);
            self.step(now, p.min(q), Some(p.min(q)) == ending);
        }
        self.by_node[b] = y;
        self.by_node[a] = x;
    }

    /// Advances a listed transfer to `now` at its old rate; unless it
    /// `ends`, re-rates it against the current shares, filing a `Due`.
    fn step(&mut self, now: u64, id: TransferId, ends: bool) {
        let tr = self.transfers[id as usize].as_mut();
        let tr = tr.expect("listed transfer");
        let moved = tr.moved_by(now);
        tr.remaining -= moved;
        self.bytes_completed += moved;
        tr.last = now;
        let rate = self.shares[tr.src].0.min(self.shares[tr.dst].1);
        if !ends && ((rate - tr.rate).abs() > 1e-12 || tr.rate == 0.0) {
            tr.rate = rate;
            tr.gen += 1;
            let eta = (tr.remaining / rate).ceil() as u64;
            let (at, gen) = (tr.last + eta.max(1), tr.gen);
            self.dues.push(Due { id, at, gen });
        }
    }

    /// Forgets a transfer whose link shares were already given back.
    fn forget(&mut self, id: TransferId) {
        let tr = self.transfers[id as usize].take();
        let tr = tr.expect("transfer is active");
        for n in [tr.src, tr.dst] {
            if let Ok(at) = self.by_node[n].binary_search(&id) {
                self.by_node[n].remove(at);
            }
        }
    }

    /// Moves the active, `src` uplink and `dst` downlink counts by `by`.
    fn recount(&mut self, src: NodeId, dst: NodeId, by: isize) {
        self.active = self.active.wrapping_add_signed(by);
        self.up_count[src] = self.up_count[src].wrapping_add_signed(by);
        self.down_count[dst] = self.down_count[dst].wrapping_add_signed(by);
        self.shares[src].0 = self.caps[src].0 / self.up_count[src].max(1) as f64;
        self.shares[dst].1 = self.caps[dst].1 / self.down_count[dst].max(1) as f64;
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
        let victims = n.cancel_node(50, b);
        assert_eq!(victims, vec![t1]);
        assert_eq!(n.active(), 1);
        // The survivor t2 regains a's full uplink.
        assert_eq!(n.dues().len(), 1);
        assert_eq!(n.dues()[0].id, t2);
    }

    #[test]
    fn a_refused_completion_changes_nothing() {
        let mut n = Network::new();
        let a = n.add_node(10.0, 10.0);
        let b = n.add_node(10.0, 10.0);
        let (id, dues) = n.start(0, a, b, 1000.0);
        assert_eq!(dues[0].at, 100);
        // Halfway through: the check refuses before anything moves.
        assert!(n.complete(50, id, dues[0].gen).is_err());
        assert_eq!(n.bytes_completed, 0.0);
        assert_eq!(n.active(), 1);
        assert_eq!(n.complete(100, id, dues[0].gen), Ok(vec![]));
        assert_eq!(n.bytes_completed, 1000.0);
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
        let victims = n.cancel_node(10, hub);
        assert_eq!(victims, ids);
        assert!(n.dues().is_empty());
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
