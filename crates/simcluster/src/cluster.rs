//! The simulated datacenter: containers, virtual clock, event queue, and
//! the transient-container eviction process (§2.1, §5.1.1).
//!
//! Engines drive a [`Cluster`] by scheduling timer events (task
//! completions) and transfers (data movement), and react to the events the
//! cluster delivers — including evictions sampled from a lifetime
//! distribution. Whenever a transient container is evicted
//! [`Cluster::evict_now`] immediately provides a replacement with a fresh
//! lifetime, matching the paper's experimental setup.
//!
//! The event queue has two parts ordered by one `(time, sequence number)`
//! key. Timers, evictions, transfer failures and container arrivals sit in
//! a heap and are never superseded. A transfer's completion time moves
//! every time the network re-rates it, so each active transfer has exactly
//! one live completion entry, overwritten (with a fresh sequence number) on
//! every re-rate; [`Cluster::next_event`] delivers whichever of the heap's
//! head and the earliest live entry comes first. The live entries form a
//! dense list, each transfer's slot in a slab indexed by its id knowing
//! where its entry is, so an overwrite or a removal costs O(1). Nothing
//! stale is ever queued, so every entry taken is an event (or an eviction
//! of a container that already died).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist::LifetimeDist;
use crate::network::{Network, NodeId, TransferId};

/// Container identifier; also the container's node id in the network
/// (each container runs on its own node, as in the paper's EC2 setup).
pub type ContainerId = usize;

/// Microseconds of virtual time.
pub type SimTime = u64;

/// One millisecond in simulation time units.
pub const MS: u64 = 1_000;
/// One second in simulation time units.
pub const SEC: u64 = 1_000_000;
/// One minute in simulation time units.
pub const MIN: u64 = 60 * SEC;

/// Container kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Eviction-prone container on harvested resources.
    Transient,
    /// Eviction-free container.
    Reserved,
    /// External storage endpoint (e.g. the S3-like input store); never
    /// evicted, has no task slots.
    Store,
    /// The job master / driver process's container; never evicted.
    Master,
}

/// A container (one per node).
#[derive(Debug, Clone)]
pub struct Container {
    /// Container id == network node id.
    pub id: ContainerId,
    /// Kind.
    pub kind: Kind,
    /// Task slots (cores).
    pub slots: usize,
    /// Whether the container is alive.
    pub alive: bool,
    /// Transient pool index (lifetime class); 0 for the default pool and
    /// for non-transient containers.
    pub pool: usize,
}

/// Link and slot characteristics for one container class.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Task slots (cores).
    pub slots: usize,
    /// Uplink bandwidth, bytes/µs.
    pub up: f64,
    /// Downlink bandwidth, bytes/µs.
    pub down: f64,
}

impl NodeSpec {
    /// A node spec from gigabits per second and a core count.
    pub fn from_gbps(slots: usize, gbps: f64) -> Self {
        // 1 Gbps = 125 MB/s = 125 bytes/µs.
        NodeSpec {
            slots,
            up: 125.0 * gbps,
            down: 125.0 * gbps,
        }
    }
}

/// Events delivered to the engine.
#[derive(Debug)]
pub enum Event<E> {
    /// A timer the engine scheduled.
    Timer(E),
    /// A transfer the engine started has completed.
    TransferDone {
        /// The transfer.
        id: TransferId,
        /// The engine's tag for it.
        tag: E,
    },
    /// A transfer died because one of its endpoints was evicted.
    TransferFailed {
        /// The transfer.
        id: TransferId,
        /// The engine's tag for it.
        tag: E,
    },
    /// A transient container was evicted.
    Evicted(ContainerId),
    /// A replacement container came online.
    ContainerAdded(ContainerId),
}

#[derive(Debug)]
enum Item<E> {
    Timer(E),
    Eviction(ContainerId),
    TransferFailed { id: TransferId, tag: E },
    ContainerAdded(ContainerId),
}

struct QEntry<E> {
    at: SimTime,
    seq: u64,
    item: Item<E>,
}

impl<E> PartialEq for QEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for QEntry<E> {}
impl<E> PartialOrd for QEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for QEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// An active transfer's slot: where its one live completion entry sits.
struct Completion<E> {
    /// Position of its `(at, seq, id)` entry in [`Cluster::live`].
    live: usize,
    gen: u64,
    /// The engine's tag, handed back on completion or failure.
    tag: E,
}

/// The simulated cluster.
pub struct Cluster<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QEntry<E>>>,
    network: Network,
    containers: Vec<Container>,
    /// Every transfer's slot, by transfer id; `None` once it is gone.
    completions: Vec<Option<Completion<E>>>,
    /// The live completion entries `(at, seq, id)`, one per active
    /// transfer, in no order.
    live: Vec<(SimTime, u64, TransferId)>,
    /// Transient pools: (node spec, lifetime distribution) per lifetime
    /// class. Pool 0 is the default; extra pools model resources with
    /// longer or shorter predicted lifetimes (§6 of the paper).
    pools: Vec<(NodeSpec, LifetimeDist)>,
    rng: StdRng,
    /// Count of evictions that occurred.
    pub evictions: usize,
    /// Count of queue entries [`Cluster::next_event`] has taken. It exceeds
    /// the events delivered only by evictions of already-dead containers.
    pub popped: u64,
}

impl<E> Cluster<E> {
    /// Creates a cluster with one external store node plus the given
    /// transient and reserved containers.
    pub fn new(
        n_transient: usize,
        n_reserved: usize,
        transient: NodeSpec,
        reserved: NodeSpec,
        store: NodeSpec,
        lifetimes: LifetimeDist,
        seed: u64,
    ) -> Self {
        let mut cluster = Cluster {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            network: Network::new(),
            containers: Vec::new(),
            completions: Vec::new(),
            live: Vec::new(),
            pools: vec![(transient, lifetimes)],
            rng: StdRng::seed_from_u64(seed),
            evictions: 0,
            popped: 0,
        };
        cluster.add_container(Kind::Store, store, 0);
        cluster.add_container(Kind::Master, reserved, 0);
        for _ in 0..n_reserved {
            cluster.add_container(Kind::Reserved, reserved, 0);
        }
        for _ in 0..n_transient {
            cluster.add_container(Kind::Transient, transient, 0);
        }
        cluster
    }

    /// Registers an additional transient pool with its own node spec and
    /// lifetime distribution — e.g. harvested resources predicted to live
    /// longer (Harvest-style classes, §6). Returns the new containers.
    pub fn add_transient_pool(
        &mut self,
        n: usize,
        spec: NodeSpec,
        lifetimes: LifetimeDist,
    ) -> Vec<ContainerId> {
        self.pools.push((spec, lifetimes));
        let pool = self.pools.len() - 1;
        (0..n)
            .map(|_| self.add_container(Kind::Transient, spec, pool))
            .collect()
    }

    /// The external store's node id.
    pub const STORE: ContainerId = 0;

    /// The master/driver node id.
    pub const MASTER: ContainerId = 1;

    /// Current virtual time, microseconds.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// One container by id.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id]
    }

    /// Alive containers of a kind, in id order.
    pub fn alive(&self, kind: Kind) -> Vec<ContainerId> {
        self.containers
            .iter()
            .filter(|c| c.alive && c.kind == kind)
            .map(|c| c.id)
            .collect()
    }

    fn add_container(&mut self, kind: Kind, spec: NodeSpec, pool: usize) -> ContainerId {
        let id = self.network.add_node(spec.up, spec.down);
        debug_assert_eq!(id, self.containers.len());
        self.containers.push(Container {
            id,
            kind,
            slots: spec.slots,
            alive: true,
            pool,
        });
        if kind == Kind::Transient {
            if let Some(lt) = self.pools[pool].1.sample(&mut self.rng) {
                self.push(self.now + lt.max(1), Item::Eviction(id));
            }
        }
        id
    }

    fn push(&mut self, at: SimTime, item: Item<E>) {
        self.seq += 1;
        self.queue.push(Reverse(QEntry {
            at,
            seq: self.seq,
            item,
        }));
    }

    /// Schedules a deterministic eviction of a specific container at an
    /// absolute time (for scripted experiments; no-op if the container is
    /// already dead by then).
    pub fn schedule_eviction(&mut self, at: SimTime, container: ContainerId) {
        self.push(at.max(self.now), Item::Eviction(container));
    }

    /// Schedules a timer event `delay` microseconds from now.
    pub fn schedule_after(&mut self, delay: u64, ev: E) {
        self.push(self.now + delay, Item::Timer(ev));
    }

    /// Starts a transfer; `tag` is handed back on completion or failure.
    pub fn start_transfer(&mut self, src: NodeId, dst: NodeId, bytes: f64, tag: E) -> TransferId {
        let id = self.network.start_pass(self.now, src, dst, bytes);
        // Network ids are dense from 0 and every transfer starts here, so
        // the new id is the slab's next slot. The entry is a placeholder
        // until `reschedule` files the new transfer's own `Due`, which
        // `Network::start_pass` always leaves.
        debug_assert_eq!(id as usize, self.completions.len());
        self.completions.push(Some(Completion {
            live: self.live.len(),
            gen: 0,
            tag,
        }));
        self.live.push((SimTime::MAX, 0, id));
        self.reschedule();
        id
    }

    /// Overwrites the live completion entries of the transfers the
    /// network's last pass re-rated, each with the next sequence number,
    /// in the order of [`Network::dues`].
    fn reschedule(&mut self) {
        for due in self.network.dues() {
            self.seq += 1;
            let slot = self.completions[due.id as usize]
                .as_mut()
                .expect("a re-rated transfer is active");
            slot.gen = due.gen;
            self.live[slot.live] = (due.at, self.seq, due.id);
        }
    }

    /// Takes an ending transfer's slot and drops its live entry.
    fn take(&mut self, id: TransferId) -> Completion<E> {
        let slot = self.completions[id as usize].take();
        let slot = slot.expect("an ending transfer is active");
        self.live.swap_remove(slot.live);
        if let Some(&(_, _, moved)) = self.live.get(slot.live) {
            let moved = self.completions[moved as usize].as_mut();
            moved.expect("a live entry's transfer is active").live = slot.live;
        }
        slot
    }

    /// Total bytes moved to completion so far.
    pub fn bytes_transferred(&self) -> f64 {
        self.network.bytes_completed
    }

    /// Takes and processes the next queue entry, if any.
    ///
    /// Evictions of already-dead containers are absorbed; the method
    /// returns the next *engine-visible* event or `None` when the
    /// simulation has drained.
    pub fn next_event(&mut self) -> Option<Event<E>> {
        loop {
            let timer = self.queue.peek().map(|Reverse(e)| (e.at, e.seq));
            // Sequence numbers are unique: the minimum is one entry.
            let completion = self.live.iter().min().copied();
            let completion_first = match (completion, timer) {
                (None, None) => return None,
                (Some((at, seq, _)), timer) => timer.is_none_or(|t| (at, seq) < t),
                (None, Some(_)) => false,
            };
            self.popped += 1;
            if let (true, Some((at, _, id))) = (completion_first, completion) {
                self.advance_to(at);
                let done = self.take(id);
                self.network
                    .complete_pass(self.now, id, done.gen)
                    .expect("a live completion entry carries its transfer's generation");
                self.reschedule();
                return Some(Event::TransferDone { id, tag: done.tag });
            }
            let Reverse(entry) = self.queue.pop().expect("entry was just peeked");
            self.advance_to(entry.at);
            match entry.item {
                Item::Timer(ev) => return Some(Event::Timer(ev)),
                Item::Eviction(id) => {
                    if let Some(ev) = self.evict_now(id) {
                        return Some(ev);
                    }
                }
                Item::TransferFailed { id, tag } => {
                    return Some(Event::TransferFailed { id, tag });
                }
                Item::ContainerAdded(id) => return Some(Event::ContainerAdded(id)),
            }
        }
    }

    fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = self.now.max(at);
    }

    /// Evicts a container immediately (also used by the scheduled
    /// eviction process). Returns the eviction event to deliver, with any
    /// transfer-failure events queued behind it, or `None` if the
    /// container was already dead.
    pub fn evict_now(&mut self, id: ContainerId) -> Option<Event<E>> {
        if !self.containers[id].alive
            || matches!(self.containers[id].kind, Kind::Store | Kind::Master)
        {
            return None;
        }
        self.containers[id].alive = false;
        self.evictions += 1;
        let victims = self.network.cancel_node(self.now, id);
        self.reschedule();
        // Deliver transfer failures right after the eviction event.
        for v in victims {
            let tag = self.take(v).tag;
            self.push(self.now, Item::TransferFailed { id: v, tag });
        }
        // The resource manager immediately provides a replacement with a
        // fresh lifetime (§5.1.1), drawn from the same pool.
        if self.containers[id].kind == Kind::Transient {
            let pool = self.containers[id].pool;
            let spec = self.pools[pool].0;
            let new_id = self.add_container(Kind::Transient, spec, pool);
            self.push(self.now, Item::ContainerAdded(new_id));
        }
        Some(Event::Evicted(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(lifetimes: LifetimeDist) -> Cluster<u32> {
        Cluster::new(
            2,
            1,
            NodeSpec::from_gbps(4, 1.0),
            NodeSpec::from_gbps(4, 1.0),
            NodeSpec::from_gbps(0, 10.0),
            lifetimes,
            42,
        )
    }

    #[test]
    fn layout_store_then_reserved_then_transient() {
        let c = small_cluster(LifetimeDist::None);
        assert_eq!(c.container(Cluster::<u32>::STORE).kind, Kind::Store);
        assert_eq!(c.container(Cluster::<u32>::MASTER).kind, Kind::Master);
        assert_eq!(c.alive(Kind::Reserved), vec![2]);
        assert_eq!(c.alive(Kind::Transient), vec![3, 4]);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut c = small_cluster(LifetimeDist::None);
        c.schedule_after(500, 2);
        c.schedule_after(100, 1);
        c.schedule_after(900, 3);
        let mut seen = Vec::new();
        while let Some(ev) = c.next_event() {
            if let Event::Timer(x) = ev {
                seen.push((c.now(), x));
            }
        }
        assert_eq!(seen, vec![(100, 1), (500, 2), (900, 3)]);
    }

    #[test]
    fn transfer_completes_with_tag() {
        let mut c = small_cluster(LifetimeDist::None);
        // 1 Gbps = 125 bytes/us; 125_000 bytes -> 1000 us.
        let id = c.start_transfer(3, 2, 125_000.0, 7);
        match c.next_event() {
            Some(Event::TransferDone { id: done, tag }) => {
                assert_eq!(done, id);
                assert_eq!(tag, 7);
                assert_eq!(c.now(), 1000);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn re_rated_transfers_keep_one_queue_entry_each() {
        let mut c = small_cluster(LifetimeDist::None);
        // Four equal transfers over one link: every start re-rates the
        // ones before it, and the last leaves all four due together.
        let ids: Vec<_> = (0..4)
            .map(|tag| c.start_transfer(3, 2, 125_000.0, tag))
            .collect();
        let mut done = Vec::new();
        while let Some(ev) = c.next_event() {
            match ev {
                Event::TransferDone { id, tag } => done.push((id, tag)),
                other => panic!("unexpected event: {other:?}"),
            }
        }
        // Ties are delivered in transfer-id order, and nothing but the
        // four completions was ever taken from the queue.
        assert_eq!(done, ids.iter().copied().zip(0..4).collect::<Vec<_>>());
        assert_eq!(c.popped, 4);
    }

    #[test]
    fn eviction_replaces_container_and_fails_transfers() {
        let mut c = small_cluster(LifetimeDist::Exponential { mean_us: 10_000.0 });
        let t = c.start_transfer(3, 2, 1e12, 99); // Will not finish in time.
        let mut evicted = Vec::new();
        let mut failed = Vec::new();
        let mut added = Vec::new();
        for _ in 0..6 {
            match c.next_event() {
                Some(Event::Evicted(id)) => evicted.push(id),
                Some(Event::TransferFailed { id, tag }) => {
                    failed.push(id);
                    assert_eq!(tag, 99);
                }
                Some(Event::ContainerAdded(id)) => added.push(id),
                Some(_) => {}
                None => break,
            }
            if !added.is_empty() && !failed.is_empty() {
                break;
            }
        }
        assert!(evicted.contains(&3) || evicted.contains(&4));
        if evicted.contains(&3) {
            assert_eq!(failed, vec![t]);
        }
        assert!(!added.is_empty());
        // Replacement keeps the transient pool size constant.
        assert_eq!(c.alive(Kind::Transient).len(), 2);
    }

    #[test]
    fn manual_eviction_of_reserved_is_possible_but_not_replaced() {
        let mut c = small_cluster(LifetimeDist::None);
        assert!(c.evict_now(2).is_some());
        assert!(c.alive(Kind::Reserved).is_empty());
        assert!(c.evict_now(2).is_none(), "already dead");
        assert!(c.evict_now(Cluster::<u32>::STORE).is_none(), "store immune");
        assert!(
            c.evict_now(Cluster::<u32>::MASTER).is_none(),
            "master immune"
        );
    }

    #[test]
    fn replacement_containers_get_fresh_ids() {
        let mut c = small_cluster(LifetimeDist::Exponential { mean_us: 1000.0 });
        let before = c.alive(Kind::Transient);
        // Drain a few evictions.
        let mut steps = 0;
        while steps < 10 {
            match c.next_event() {
                Some(Event::Evicted(_)) => steps += 1,
                Some(_) => {}
                None => break,
            }
        }
        // Dead containers stay dead; alive count is stable, and the live
        // ones are replacements with fresh ids.
        let after = c.alive(Kind::Transient);
        assert_eq!(after.len(), 2);
        assert!(after.iter().all(|id| id > before.iter().max().unwrap()));
        assert_eq!(c.evictions, steps);
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    fn extra_pool_containers_are_tagged_and_replaced_within_pool() {
        let spec = NodeSpec::from_gbps(4, 1.0);
        let mut c: Cluster<u32> = Cluster::new(
            2,
            1,
            spec,
            spec,
            NodeSpec::from_gbps(0, 10.0),
            LifetimeDist::None,
            9,
        );
        let long = c.add_transient_pool(3, spec, LifetimeDist::Exponential { mean_us: 5_000.0 });
        let alive_in_pool = |c: &Cluster<u32>, pool| {
            let alive = c.alive(Kind::Transient).into_iter();
            alive.filter(|&id| c.container(id).pool == pool).count()
        };
        assert_eq!(long.len(), 3);
        assert_eq!(alive_in_pool(&c, 0), 2);
        assert_eq!(alive_in_pool(&c, 1), 3);
        for &id in &long {
            assert_eq!(c.container(id).pool, 1);
        }
        // Pool-1 containers evict (pool 0 never does) and are replaced
        // within their own pool.
        let mut evictions = 0;
        while evictions < 5 {
            match c.next_event() {
                Some(Event::Evicted(id)) => {
                    assert_eq!(c.container(id).pool, 1);
                    evictions += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert_eq!(alive_in_pool(&c, 0), 2);
        assert_eq!(alive_in_pool(&c, 1), 3);
    }
}
