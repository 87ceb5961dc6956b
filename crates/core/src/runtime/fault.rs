//! The seed-keyed fault injector: every probabilistic fault decision in
//! the runtime routed through one type — and the fault *plans*
//! ([`FaultPlan`], [`ChaosPlan`], [`CrashPlan`]) a caller hands the
//! master to say which faults a run gets.
//!
//! Before this module existed, each fault family rolled its own draw
//! inline: the task chaos plan hashed in `master.rs`, the network policy
//! in `transport.rs`, spill faults in `store.rs`, crash coins in
//! `master.rs`, WAL corruption in `wal.rs`. All of those draws were
//! already *causally* keyed — a decision depends only on the seed plus
//! identifiers of the causal event being decided (task identity + launch
//! ordinal, per-link transmission ordinal, per-store spill ordinal,
//! handled-frame ordinal, envelope sequence number) — never on sim-loop
//! iteration order, wall-clock time, or thread interleaving. That is the
//! property that lets a chaos seed inject the *same* fault schedule on
//! the deterministic [`SimBackend`](crate::runtime::SimBackend) and the
//! true-parallel [`ThreadedBackend`](crate::runtime::ThreadedBackend):
//! the causal identifiers are backend-invariant, so the draws are too.
//!
//! [`FaultInjector`] centralizes those draws behind typed methods, one
//! per decision site. Two hash shapes exist (a chained fold and a single
//! mix) because the refactor is **decision-preserving**: each method
//! reproduces its legacy inline formula bit-for-bit, so every seeded
//! suite written before the refactor replays the identical fault
//! schedule (`crates/core/tests/fault_injector.rs` pins this with
//! formula-equivalence sweeps against verbatim copies of the legacy
//! math).
//!
//! The only deliberately non-causal trigger left in the tree is the
//! crash family's `every_kth_append` clock (WAL append counts include
//! racing executor emissions, so the crash *boundary* floats across
//! backends — documented as intentional in DESIGN.md §14); its coin,
//! like everything else, draws through this module.

use crate::compiler::FopId;
use crate::runtime::reconfig::ScheduledReconfig;
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
/// Any satisfied trigger fires, up to `max_crashes` total. All decisions
/// are deterministic in `(seed, handled-frame ordinal)`, except the
/// append-count trigger, whose clock advances with concurrent executor
/// emissions — recovery must be correct at *any* boundary, so the
/// trigger's exact landing spot is allowed to float.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashPlan {
    /// Seed for the probabilistic handler-boundary trigger.
    pub seed: u64,
    /// Crash once every `n` handled frames (exhaustive boundary sweeps
    /// set this to each boundary in turn with `max_crashes = 1`).
    pub after_handled_frames: Option<u64>,
    /// Crash when the WAL has absorbed another `k` appends.
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
    /// Reconfiguration transactions scheduled against the same
    /// completion clock as the other fault families (the chaos family's
    /// random mid-job reconfigs, and the explicit API's deterministic
    /// ones, both ride here).
    pub reconfigs: Vec<ScheduledReconfig>,
    /// Seeded spill-I/O fault injection on every executor store
    /// (`None` = the disk tier never fails).
    pub spill_faults: Option<SpillFaultPlan>,
    /// Master crashes recovered from the write-ahead log. When
    /// `RuntimeConfig::wal_path` is unset the master logs to a temp file
    /// for the length of the run.
    pub crashes: Option<CrashPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
