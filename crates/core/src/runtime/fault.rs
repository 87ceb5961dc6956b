//! Where fault plans live: the *plans* a caller hands the master to say
//! which faults a run gets ([`FaultPlan`], [`ChaosPlan`], [`CrashPlan`]),
//! the [`FaultSchedule`] that says what of a plan is due, and the
//! seed-keyed [`FaultInjector`] every probabilistic fault decision in the
//! runtime draws through.
//!
//! Every draw is *causally* keyed: a decision depends only on the seed
//! plus identifiers of the causal event being decided (task identity +
//! launch ordinal, per-link transmission ordinal, per-store spill
//! ordinal, handled-frame ordinal, envelope sequence number), never on
//! sim-loop iteration order, wall-clock time, or thread interleaving.
//! The causal identifiers do not depend on which thread finishes first,
//! so a chaos seed injects the *same* fault schedule on every run, however
//! the pool's bodies interleave.
//!
//! [`FaultInjector`] puts those draws behind typed methods, one per
//! decision site. Two hash shapes exist (a chained fold and a single
//! mix) and each method's formula is pinned bit for bit
//! (`crates/core/tests/fault_injector.rs` sweeps them against verbatim
//! copies of the math), so every seeded suite replays the fault schedule
//! it was written against.
//!
//! The crash family's `every_kth_append` clock counts WAL frames, and
//! the master is the log's only writer: the count moves with the
//! master's own emissions, never with a racing executor's (DESIGN.md
//! §14).

use std::collections::BTreeMap;

use crate::compiler::FopId;
use crate::runtime::message::InjectedFault;
use crate::runtime::store::SpillFaultPlan;
use crate::runtime::transport::NetworkFault;
use crate::runtime::wal::WalCorruption;

/// splitmix64 finalizer: one independent uniform draw per input. The
/// primary hashing primitive — task chaos, wire faults, spill faults,
/// crash coins, retransmit jitter, and transport seed derivation all
/// draw through it.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// MurmurHash3 fmix64: the WAL-corruption family's historical finalizer.
/// Kept distinct from [`mix64`] because the refactor is
/// decision-preserving — changing the corruption draws would reshuffle
/// every fixed-seed crash-recovery suite.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Domain salts: two decision sites sharing causal identifiers must
/// still draw independently.
const SALT_WIRE_TO_EXECUTOR: u64 = 0x7C15;
const SALT_WIRE_TO_MASTER: u64 = 0x1CE4;
const SALT_SPILL_WRITE: u64 = 0x57;
const SALT_SPILL_READ: u64 = 0x52;
const SALT_WAL_TRUNCATE: u64 = 0x7472_756e;
const SALT_WAL_CUT: u64 = 0x6375_7421;
const SALT_WAL_FLIP: u64 = 0xb17f;

/// Which side of the control wire a transmission decision is for.
///
/// Mirrors [`Direction`](crate::runtime::Direction) so the injector's
/// draw methods take no transport type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSide {
    /// Master → executor deliveries.
    ToExecutor,
    /// Executor → master deliveries.
    ToMaster,
}

/// One resolved fault draw: a hash keyed by `(seed, domain, causal
/// ids)`. Consumers read it as a uniform `[0, 1)` threshold coordinate
/// ([`unit`](FaultDraw::unit)) and/or as deterministic magnitudes
/// ([`index`](FaultDraw::index) / [`span`](FaultDraw::span) /
/// [`coin`](FaultDraw::coin)) — the magnitude taps re-mix so they stay
/// independent of the threshold bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDraw {
    hash: u64,
}

impl FaultDraw {
    /// The uniform `[0, 1)` coordinate compared against fault
    /// probabilities (53 mantissa bits of the hash).
    pub fn unit(self) -> f64 {
        (self.hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A deterministic pick in `[0, modulus)` straight from the hash
    /// (correlated with [`unit`](Self::unit) — use for magnitudes whose
    /// draw already passed its threshold test, e.g. retransmit jitter).
    pub fn index(self, modulus: u64) -> u64 {
        self.hash % modulus.max(1)
    }

    /// A deterministic pick in `[0, modulus)` from a re-mixed hash —
    /// independent of the threshold bits (delay magnitudes).
    pub fn span(self, modulus: u64) -> u64 {
        mix64(self.hash) % modulus.max(1)
    }

    /// A salted fair coin independent of the threshold bits (e.g. the
    /// pre-compute vs post-compute stall placement choice).
    pub fn coin(self, salt: u64) -> bool {
        mix64(self.hash ^ salt) & 1 == 0
    }

    /// The raw hash (seed derivation and tests).
    pub fn hash(self) -> u64 {
        self.hash
    }
}

/// A seeded source of causally-keyed fault decisions. Copy-cheap: every
/// decision site constructs one from its plan's seed at the point of
/// use; there is no hidden state, so decision N does not depend on
/// decisions 1..N-1 having been made (or on which backend interleaving
/// asked for them first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// An injector drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// The seed the decisions key off.
    pub fn seed(self) -> u64 {
        self.seed
    }

    /// Chained fold over causal identifiers: `h = seed ^ salt`, then
    /// `h = mix64(h ^ id)` per id. The legacy shape of the task-chaos
    /// and wire draws.
    fn chain(self, salt: u64, ids: &[u64]) -> FaultDraw {
        let mut h = self.seed ^ salt;
        for &v in ids {
            h = mix64(h ^ v);
        }
        FaultDraw { hash: h }
    }

    /// Single-mix draw: `mix64(seed ^ key)`. The legacy shape of the
    /// spill, crash, jitter, and WAL-corruption draws.
    fn once(self, key: u64) -> FaultDraw {
        FaultDraw {
            hash: mix64(self.seed ^ key),
        }
    }

    /// The chaos draw for the `ordinal`-th launch of task
    /// `(fop, index)` — error/panic/OOM/delay thresholds and the delay
    /// magnitude all read this one draw.
    pub fn task_launch(self, fop: u64, index: u64, ordinal: u64) -> FaultDraw {
        self.chain(0, &[fop, index, ordinal])
    }

    /// The network-fault draw for the `ordinal`-th transmission on the
    /// link to/from `exec`. Retransmissions of one message are distinct
    /// transmissions with fresh ordinals, so a retried message always
    /// gets through eventually.
    pub fn wire(self, side: WireSide, exec: u64, ordinal: u64) -> FaultDraw {
        let salt = match side {
            WireSide::ToExecutor => SALT_WIRE_TO_EXECUTOR,
            WireSide::ToMaster => SALT_WIRE_TO_MASTER,
        };
        self.chain(salt, &[exec, ordinal])
    }

    /// The disk-fault draw for executor `exec`'s `ordinal`-th spill
    /// write.
    pub fn spill_write(self, exec: u64, ordinal: u64) -> FaultDraw {
        self.once(mix64(exec ^ SALT_SPILL_WRITE) ^ ordinal)
    }

    /// The disk-fault draw for executor `exec`'s `ordinal`-th spill
    /// read.
    pub fn spill_read(self, exec: u64, ordinal: u64) -> FaultDraw {
        self.once(mix64(exec ^ SALT_SPILL_READ) ^ ordinal)
    }

    /// The crash family's coin at the `handled_frames`-th handler
    /// boundary.
    pub fn crash_boundary(self, handled_frames: u64) -> FaultDraw {
        self.once(mix64(handled_frames))
    }

    /// Retransmission jitter for envelope `seq` on its
    /// `transmissions`-th transmission (keyed by the causal envelope
    /// sequence number, not by any link-global counter).
    pub fn retransmit_jitter(self, seq: u64, transmissions: u64) -> FaultDraw {
        self.once(mix64(seq) ^ transmissions)
    }

    /// The WAL corruption family's truncation coin.
    pub fn wal_truncate(self) -> FaultDraw {
        FaultDraw {
            hash: fmix64(self.seed ^ SALT_WAL_TRUNCATE),
        }
    }

    /// The WAL corruption family's truncation offset draw.
    pub fn wal_truncate_offset(self) -> FaultDraw {
        FaultDraw {
            hash: fmix64(self.seed ^ SALT_WAL_CUT),
        }
    }

    /// The WAL corruption family's per-byte bit-flip draw (keyed by the
    /// byte offset in the image — a file position, not an iteration
    /// counter). [`FaultDraw::index`]`(8)` picks the bit to flip.
    pub fn wal_bit_flip(self, offset: u64) -> FaultDraw {
        FaultDraw {
            hash: fmix64(self.seed ^ SALT_WAL_FLIP ^ (offset << 16)),
        }
    }
}

/// Probabilistic user-code fault injection, decided deterministically per
/// `(seed, task, launch ordinal)` so every chaos run is exactly
/// reproducible from its seed.
///
/// Faults count against the per-task cap `max_faults_per_task`; keeping
/// the cap below the runtime's `max_task_attempts` guarantees a chaos run
/// can always complete. Delays are not faults and are never capped.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed for the injection decisions.
    pub seed: u64,
    /// Probability a launch fails with a user-function error.
    pub error_prob: f64,
    /// Probability a launch fails with a user-function panic.
    pub panic_prob: f64,
    /// Probability a launch stalls before computing (straggler).
    pub delay_prob: f64,
    /// Maximum injected stall in milliseconds (actual stall is uniform in
    /// `1..=delay_ms`).
    pub delay_ms: u64,
    /// Probability a launch fails with a mid-task allocation failure
    /// (the executor-store budget exhausted at the worst moment). Counts
    /// against `max_faults_per_task` like errors and panics.
    pub oom_prob: f64,
    /// Injected error/panic/OOM budget per task across all its launches.
    pub max_faults_per_task: usize,
}

/// The master-crash chaos family: kills the master at handler
/// boundaries and recovers it from the write-ahead log.
///
/// A crash is evaluated after every handled frame (the only points an
/// in-process master can die without leaving a handler half-applied; a
/// real process crash mid-handler loses the same unsynced WAL suffix).
/// Any satisfied trigger fires, up to `max_crashes` total. Every decision
/// is keyed by the seed, the handled-frame ordinal, or the count of WAL
/// frames the master has appended by then — only the master writes the
/// log, so no executor-side emission moves that clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashPlan {
    /// Seed for the probabilistic handler-boundary trigger.
    pub seed: u64,
    /// Crash once every `n` handled frames (exhaustive boundary sweeps
    /// set this to each boundary in turn with `max_crashes = 1`).
    pub after_handled_frames: Option<u64>,
    /// Crash when the master has appended another `k` WAL frames.
    pub every_kth_append: Option<u64>,
    /// Probability of crashing at each handled-frame boundary.
    pub handler_prob: f64,
    /// Total crash budget for the run (0 disables the family).
    pub max_crashes: usize,
    /// Seeded corruption applied to the WAL image at each crash, before
    /// recovery scans it (bit flips and torn-tail truncation).
    pub corruption: Option<WalCorruption>,
}

/// Scheduled faults injected deterministically while a job runs.
///
/// Thresholds count *processed task completions*: `(n, k)` fires when the
/// master has handled `n` valid task completions, targeting the `k`-th
/// alive executor of the relevant kind (in id order).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Transient container evictions.
    pub evictions: Vec<(usize, usize)>,
    /// Reserved executor machine failures.
    pub reserved_failures: Vec<(usize, usize)>,
    /// Crash the master once after this many completions and recover it
    /// from the write-ahead log.
    pub master_failure_after: Option<usize>,
    /// Probabilistic user-code fault injection (chaos testing).
    pub chaos: Option<ChaosPlan>,
    /// Stall the *first* attempt of task `(fop, index)` by the given
    /// milliseconds — a targeted straggler, used to exercise speculative
    /// execution deterministically.
    pub first_attempt_delays: Vec<(FopId, usize, u64)>,
    /// Stall the *first* attempt of task `(fop, index)` by the given
    /// milliseconds *after* it computes, before its `TaskDone` is sent —
    /// deterministically exercising the computed-but-unreported window.
    pub first_attempt_done_delays: Vec<(FopId, usize, u64)>,
    /// Seeded network faults on the master↔executor control plane
    /// (`None` = perfectly reliable transport).
    pub network: Option<NetworkFault>,
    /// Scheduled executor-store budget shrinks `(n, k, bytes)`: after `n`
    /// processed completions, shrink the `k`-th alive *reserved*
    /// executor's store budget to `bytes` (memory-pressure chaos). The
    /// applied budget clamps up to pinned occupancy, so a shrink can
    /// squeeze but never strand a running attempt.
    pub budget_shrinks: Vec<(usize, usize, usize)>,
    /// Drains ahead of predicted evictions, `(n, k)` like `evictions`:
    /// after `n` completions, the `k`-th *schedulable* transient executor
    /// takes no new work and its sole-copy outputs go to reserved stores.
    /// The list fires in order.
    pub drains: Vec<(usize, usize)>,
    /// Seeded spill-I/O fault injection on every executor store
    /// (`None` = the disk tier never fails).
    pub spill_faults: Option<SpillFaultPlan>,
    /// Master crashes recovered from the write-ahead log. When
    /// `RuntimeConfig::wal_path` is unset the master logs to a temp file
    /// for the length of the run.
    pub crashes: Option<CrashPlan>,
}

/// What a due fault asks of the master. `k` picks the `k`-th executor of
/// the family's pool that is not lost, in id order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAction {
    /// Evict a transient executor.
    Evict(usize),
    /// Fail a reserved executor's machine.
    FailReserved(usize),
    /// Shrink a reserved executor's store budget to the given bytes.
    ShrinkBudget(usize, usize),
    /// Drain the `k`-th transient executor that still takes work.
    Drain(usize),
    /// Kill the master and recover it from the write-ahead log, whose
    /// surviving image the corruption mangles first.
    Restart(Option<WalCorruption>),
}

/// A [`FaultPlan`] with the clocks and cursors that say what of it is
/// due: the harness half of a chaos run. Pure state: no channel, store,
/// journal or clock. The master reports its three trigger points and
/// applies what comes back. Nothing here belongs to the master a restart
/// kills, so a recovered master neither refires a spent fault nor
/// forgets how often a task was launched or hit.
#[derive(Debug, Default)]
pub(crate) struct FaultSchedule {
    plan: FaultPlan,
    /// Valid task completions handled: the per-commit families' clock.
    commits: usize,
    /// Progress-bearing frames handled: the crash family's clock.
    frames: u64,
    /// The first unfired entry of `evictions`, `reserved_failures`,
    /// `budget_shrinks` and `drains`.
    cursors: [usize; 4],
    /// Crashes the crash family has fired.
    crashes: usize,
    /// Per task, its launches so far (the ordinal a chaos draw is keyed
    /// on) and the errors, panics and OOMs injected into them (toward
    /// `max_faults_per_task`).
    launches: BTreeMap<(FopId, usize), (usize, usize)>,
}

/// Moves `cursor` past the entries of `list` due at `now` and returns
/// them. A list is consumed in list order: a head that is not due holds
/// back everything after it.
fn take_due<'a, T>(list: &'a [T], cursor: &mut usize, now: usize, at: fn(&T) -> usize) -> &'a [T] {
    let start = *cursor;
    while list.get(*cursor).is_some_and(|e| at(e) <= now) {
        *cursor += 1;
    }
    &list[start..*cursor]
}

impl FaultSchedule {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultSchedule {
            plan,
            ..Default::default()
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The master committed a task: what is due now, in firing order.
    /// Allocates only when something is.
    pub(crate) fn on_commit(&mut self) -> Vec<FaultAction> {
        self.commits += 1;
        let now = self.commits;
        let (p, [evict, fail, shrink, drain]) = (&self.plan, &mut self.cursors);
        let evictions = take_due(&p.evictions, evict, now, |e| e.0);
        let failures = take_due(&p.reserved_failures, fail, now, |e| e.0);
        let shrinks = take_due(&p.budget_shrinks, shrink, now, |e| e.0);
        let drains = take_due(&p.drains, drain, now, |e| e.0);
        let mut due = Vec::new();
        due.extend(evictions.iter().map(|e| FaultAction::Evict(e.1)));
        due.extend(failures.iter().map(|e| FaultAction::FailReserved(e.1)));
        due.extend(shrinks.iter().map(|e| FaultAction::ShrinkBudget(e.1, e.2)));
        due.extend(drains.iter().map(|e| FaultAction::Drain(e.1)));
        if p.master_failure_after.is_some_and(|n| now >= n) {
            self.plan.master_failure_after = None;
            due.push(FaultAction::Restart(None));
        }
        due
    }

    /// The master handled a progress-bearing frame, the only point it
    /// can die with no handler half-applied, having appended `wal_appends`
    /// frames to its log: the restart, when a crash trigger fires.
    pub(crate) fn on_frame(&mut self, wal_appends: u64) -> Option<FaultAction> {
        self.frames += 1;
        let plan = self.plan.crashes?;
        if self.crashes >= plan.max_crashes {
            return None;
        }
        // A periodic trigger's next round is due `round` periods in.
        let round = self.crashes as u64 + 1;
        let reached = |clock: u64, every: Option<u64>| {
            every.is_some_and(|n| clock >= n.saturating_mul(round))
        };
        let coin = FaultInjector::new(plan.seed).crash_boundary(self.frames);
        let due = reached(self.frames, plan.after_handled_frames)
            || reached(wal_appends, plan.every_kth_append.filter(|&k| k > 0))
            || coin.unit() < plan.handler_prob;
        if !due {
            return None;
        }
        self.crashes += 1;
        Some(FaultAction::Restart(plan.corruption))
    }

    /// Decides fault injection for the next launch of task `(fop, index)`,
    /// combining targeted first-attempt delays with the probabilistic
    /// chaos plan. Decisions depend only on `(seed, task, launch
    /// ordinal)`, so a chaos run replays identically from its seed.
    pub(crate) fn on_launch(&mut self, fop: FopId, index: usize) -> Option<InjectedFault> {
        let (launches, injected) = self.launches.entry((fop, index)).or_default();
        let ordinal = *launches;
        *launches += 1;
        let targets = |t: &&(FopId, usize, u64)| t.0 == fop && t.1 == index;
        if ordinal == 0 {
            if let Some(&(_, _, ms)) = self.plan.first_attempt_delays.iter().find(targets) {
                return Some(InjectedFault::Delay(ms));
            }
            if let Some(&(_, _, ms)) = self.plan.first_attempt_done_delays.iter().find(targets) {
                return Some(InjectedFault::DelayDone(ms));
            }
        }
        let chaos = self.plan.chaos.as_ref()?;
        // Keyed by (task identity, per-task launch ordinal) — causal
        // identifiers, so the same seed hits the same launches on both
        // backends.
        let d =
            FaultInjector::new(chaos.seed).task_launch(fop as u64, index as u64, ordinal as u64);
        let u = d.unit();
        let panic_below = chaos.error_prob + chaos.panic_prob;
        let oom_below = panic_below + chaos.oom_prob;
        if u < oom_below && *injected < chaos.max_faults_per_task {
            *injected += 1;
            return Some(if u < chaos.error_prob {
                InjectedFault::Error
            } else if u < panic_below {
                InjectedFault::Panic
            } else {
                InjectedFault::Oom
            });
        }
        if u < oom_below + chaos.delay_prob {
            let ms = 1 + d.span(chaos.delay_ms);
            // Half the stalls land before the compute (a straggler), half
            // after it (output computed, report not yet sent) — the window
            // where evictions and partitions race the TaskDone.
            return Some(if d.coin(0x0D0E) {
                InjectedFault::Delay(ms)
            } else {
                InjectedFault::DelayDone(ms)
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_commit_fires_its_families_in_order_and_once() {
        let mut s = FaultSchedule::new(FaultPlan {
            master_failure_after: Some(1),
            drains: vec![(1, 3)],
            budget_shrinks: vec![(1, 2, 99)],
            reserved_failures: vec![(1, 1)],
            evictions: vec![(1, 0), (2, 7)],
            ..Default::default()
        });
        let legacy_restart = FaultAction::Restart(None);
        assert_eq!(
            s.on_commit(),
            vec![
                FaultAction::Evict(0),
                FaultAction::FailReserved(1),
                FaultAction::ShrinkBudget(2, 99),
                FaultAction::Drain(3),
                legacy_restart,
            ]
        );
        assert_eq!(s.on_commit(), vec![FaultAction::Evict(7)]);
        let idle = s.on_commit();
        assert!(
            idle.is_empty() && idle.capacity() == 0,
            "nothing due, nothing allocated"
        );
    }

    #[test]
    fn a_head_that_is_not_due_holds_back_the_rest_of_its_list() {
        let mut s = FaultSchedule::new(FaultPlan {
            evictions: vec![(3, 0), (1, 1), (2, 2)],
            reserved_failures: vec![(2, 5)],
            ..Default::default()
        });
        assert_eq!(s.on_commit(), vec![]);
        // Each family has its own cursor: only the evictions wait.
        assert_eq!(s.on_commit(), vec![FaultAction::FailReserved(5)]);
        let in_list_order = [0, 1, 2].map(FaultAction::Evict);
        assert_eq!(s.on_commit(), in_list_order);
    }

    fn crashes(plan: CrashPlan) -> FaultSchedule {
        FaultSchedule::new(FaultPlan {
            crashes: Some(plan),
            ..Default::default()
        })
    }

    #[test]
    fn crash_rounds_fire_at_multiples_up_to_the_budget() {
        let corruption = Some(WalCorruption {
            seed: 5,
            bit_flip_prob: 0.01,
            truncate_prob: 0.5,
        });
        let mut s = crashes(CrashPlan {
            after_handled_frames: Some(3),
            max_crashes: 2,
            corruption,
            ..Default::default()
        });
        let fired: Vec<u64> = (1..=12).filter(|_| s.on_frame(0).is_some()).collect();
        assert_eq!(fired, vec![3, 6], "at n, 2n, and never a third");

        let mut s = crashes(CrashPlan {
            every_kth_append: Some(10),
            max_crashes: 2,
            corruption,
            ..Default::default()
        });
        let appends = [9, 10, 19, 25, 40];
        let fired = appends.map(|a| s.on_frame(a));
        let restart = Some(FaultAction::Restart(corruption));
        assert_eq!(fired, [None, restart, None, restart, None]);
        assert_eq!(crashes(CrashPlan::default()).on_frame(u64::MAX), None);
    }

    #[test]
    fn the_crash_coin_is_keyed_on_the_frame_ordinal() {
        let (seed, handler_prob) = (0xFEED, 0.3);
        let mut s = crashes(CrashPlan {
            seed,
            handler_prob,
            max_crashes: usize::MAX,
            ..Default::default()
        });
        let coin = |frame| FaultInjector::new(seed).crash_boundary(frame).unit() < handler_prob;
        let want: Vec<u64> = (1..=200).filter(|&f| coin(f)).collect();
        let got: Vec<u64> = (1..=200).filter(|_| s.on_frame(0).is_some()).collect();
        assert!(!got.is_empty() && got.len() < 200);
        assert_eq!(got, want);
    }

    fn chaos(seed: u64, error_prob: f64) -> ChaosPlan {
        ChaosPlan {
            seed,
            error_prob,
            panic_prob: 0.15,
            oom_prob: 0.1,
            delay_prob: 0.3,
            delay_ms: 8,
            max_faults_per_task: 2,
        }
    }

    /// What a restarted master must not reset: the schedule counts a
    /// task's launches and its injected faults across every call.
    #[test]
    fn the_launch_ordinal_and_the_injection_cap_are_per_task_and_persist() {
        let mut s = FaultSchedule::new(FaultPlan {
            chaos: Some(chaos(1, 1.0)),
            first_attempt_delays: vec![(0, 1, 40)],
            first_attempt_done_delays: vec![(0, 2, 50)],
            ..Default::default()
        });
        use InjectedFault::{Delay, DelayDone, Error};
        // Past the cap a would-be fault degrades to a stall: delays are
        // not faults and are never capped.
        let stall = |f: &Option<InjectedFault>| matches!(f, Some(Delay(_) | DelayDone(_)));
        let launches: Vec<_> = (0..4).map(|_| s.on_launch(0, 0)).collect();
        assert_eq!(launches[..2], [Some(Error), Some(Error)]);
        assert!(
            launches[2..].iter().all(stall),
            "capped at two: {launches:?}"
        );
        // Another task has its own ordinal and its own cap; a targeted
        // delay takes its first launch only.
        let launches: Vec<_> = (0..4).map(|_| s.on_launch(0, 1)).collect();
        assert_eq!(launches[..3], [Some(Delay(40)), Some(Error), Some(Error)]);
        assert!(stall(&launches[3]));
        assert_eq!(s.on_launch(0, 2), Some(DelayDone(50)));
        assert!(stall(&s.on_launch(0, 0)), "task 0.0 is still spent");
    }

    /// Launches 0–5 of task 3.5, recorded from `Master::decide_injection`
    /// before the decision moved here.
    #[test]
    fn launch_decisions_are_pinned() {
        use InjectedFault::{Delay, DelayDone, Error, Oom, Panic};
        let pinned = [
            (
                0x7,
                [
                    Some(Oom),
                    None,
                    Some(Delay(3)),
                    Some(Error),
                    Some(DelayDone(5)),
                    Some(Delay(4)),
                ],
            ),
            (
                0xC0FFEE,
                [
                    Some(Delay(8)),
                    None,
                    Some(DelayDone(1)),
                    Some(Panic),
                    Some(Panic),
                    Some(DelayDone(8)),
                ],
            ),
        ];
        for (seed, want) in pinned {
            let mut s = FaultSchedule::new(FaultPlan {
                chaos: Some(chaos(seed, 0.2)),
                first_attempt_delays: vec![(9, 9, 1)],
                ..Default::default()
            });
            let got: Vec<_> = (0..6).map(|_| s.on_launch(3, 5)).collect();
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }

    #[test]
    fn draws_are_pure_functions_of_seed_and_causal_ids() {
        let a = FaultInjector::new(42);
        let b = FaultInjector::new(42);
        // Two independently-constructed injectors (as the two backends
        // construct them) agree on every decision, regardless of the
        // order decisions are asked for.
        let forward: Vec<u64> = (0..64)
            .map(|i| a.task_launch(i % 5, i % 7, i).hash())
            .collect();
        let backward: Vec<u64> = (0..64)
            .rev()
            .map(|i| b.task_launch(i % 5, i % 7, i).hash())
            .collect();
        let backward: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn domains_draw_independently() {
        let inj = FaultInjector::new(7);
        // Same causal ids, different domains: decisions must differ
        // (identical hashes would correlate fault families).
        let hashes = [
            inj.wire(WireSide::ToExecutor, 3, 9).hash(),
            inj.wire(WireSide::ToMaster, 3, 9).hash(),
            inj.spill_write(3, 9).hash(),
            inj.spill_read(3, 9).hash(),
        ];
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "domains {i} and {j} collide");
            }
        }
    }

    #[test]
    fn unit_is_a_probability() {
        let inj = FaultInjector::new(0xDEAD_BEEF);
        for i in 0..1000 {
            let u = inj.task_launch(0, 0, i).unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn span_and_index_respect_the_modulus() {
        let inj = FaultInjector::new(11);
        for i in 0..100 {
            let d = inj.wire(WireSide::ToMaster, 1, i);
            assert!(d.index(10) < 10);
            assert!(d.span(3) < 3);
            // Degenerate modulus never panics.
            assert_eq!(d.index(0), 0);
            assert_eq!(d.span(0), 0);
        }
    }
}
