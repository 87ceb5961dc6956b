//! Per-executor byte-accounted block store with a disk spill tier.
//!
//! Pado's reserved containers are a scarce resource (§2.2): they hold
//! preserved stage outputs, partitions pushed from transient tasks, and
//! the §3.2.7 input cache. This module makes that residency explicit:
//! every block living on an executor is owned by a [`BlockStore`] and
//! accounted in bytes against [`RuntimeConfig::executor_memory_bytes`].
//! Under pressure the store spills least-recently-used *unpinned* blocks
//! to a real tempfile — one per store, each payload at an offset of its
//! own — byte-identical on reload via the compressed
//! [`pado_dag::colcodec`] block format, and reloads them before any use.
//! Budgets charge each block's *encoded* size — the bytes its spill
//! file or push payload actually occupies — while the journal also
//! records the row-format baseline, so compression savings are
//! observable per spill.
//! Blocks pinned by a running task attempt are never spillable, so a
//! task's inputs cannot vanish mid-execution; a single block larger than
//! the whole budget is refused outright ([`StoreError::TooLarge`]),
//! which the master surfaces as a clean
//! [`RuntimeError::MemoryExceeded`](crate::RuntimeError::MemoryExceeded)
//! instead of wedging or aborting the process.
//!
//! [`ExecutorStore`] bundles the block store with the executor's
//! [`LruCache`]: the cache is a best-effort tier *inside* the same
//! budget (combined occupancy = blocks + cache ≤ budget). Making room
//! for a block sheds unpinned cache entries first (they can always be
//! re-sent), then spills unpinned blocks; caching never spills blocks
//! and silently skips when no room remains.
//!
//! Stores with `budget == usize::MAX` (the default) are unlimited: they
//! never spill, emit no journal events, and size no block, so memory
//! accounting is invisible (and costs no encode) unless a budget is set.
//!
//! The disk tier is fallible: real tempfile I/O errors and the
//! [`SpillFaultPlan`] chaos knob surface the same way. A failed spill
//! *write* keeps the victim resident and degrades to `NoHeadroom`
//! (defer/refuse — never an over-budget admit); a failed spill *read*
//! drops the useless on-disk copy and reports
//! [`StoreError::SpillUnreadable`], which the master resolves as an
//! ordinary task retry (the block re-admits from the master's copy).
//!
//! [`RuntimeConfig::executor_memory_bytes`]:
//! crate::runtime::RuntimeConfig::executor_memory_bytes

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pado_dag::colcodec::{decode_block, encode_block};
use pado_dag::Block;

use crate::compiler::FopId;
use crate::runtime::cache::{CacheKey, LruCache};
use crate::runtime::fault::FaultInjector;
use crate::runtime::journal::{JobEvent, Journal};
use crate::runtime::message::ExecId;

/// Deterministic disk-fault injection for the spill tier (a chaos
/// knob, [`FaultPlan::spill_faults`]): each spill write or read draws
/// from `(seed, executor, operation ordinal)`, so a run replays
/// identically from its seed. Probabilities are in `[0, 1]`; the
/// default injects nothing.
///
/// [`FaultPlan::spill_faults`]: crate::runtime::FaultPlan
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpillFaultPlan {
    /// Seed for the per-operation fault draws.
    pub seed: u64,
    /// Probability that a spill write fails (victim stays resident).
    pub write_prob: f64,
    /// Probability that a spill read fails (on-disk copy dropped).
    pub read_prob: f64,
}

/// Budget value meaning "no limit": the store never spills, emits no
/// journal events and sizes no block on admission; its byte counts are
/// summed (and each block sized, once) only when asked for.
pub const UNLIMITED: usize = usize::MAX;

/// Canonical byte size of a block: the one sizing rule shared by the
/// store, the [`LruCache`], and the journal's byte counters. This is
/// the block's *encoded* (column-codec, possibly compressed) length —
/// exactly what its spill file or serialized push payload occupies.
pub fn block_bytes(block: &Block) -> usize {
    block.encoded_len()
}

/// Identity of a block resident on an executor.
///
/// Shuffle consumers pin only their routed bucket of a producer's
/// output, not the whole output — pinning whole `ManyToMany` sources
/// would make tight budgets deadlock on plans whose full shuffle input
/// exceeds one executor's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockRef {
    /// A task's whole output partition.
    Output {
        /// Producing fused operator.
        fop: FopId,
        /// Task index within the fop.
        index: usize,
    },
    /// One routed shuffle bucket of a task's output.
    Bucket {
        /// Producing fused operator.
        fop: FopId,
        /// Producer task index.
        index: usize,
        /// Consumer-side parallelism the bucket was routed for.
        dst_par: usize,
        /// Destination task index within that parallelism.
        dst: usize,
    },
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockRef::Output { fop, index } => write!(f, "output {fop}.{index}"),
            BlockRef::Bucket {
                fop,
                index,
                dst_par,
                dst,
            } => write!(f, "bucket {fop}.{index}->{dst}/{dst_par}"),
        }
    }
}

/// Why the store refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Not enough unpinned bytes could be spilled to fit the block. The
    /// caller defers (push backpressure) or refuses a launch
    /// (admission control) instead of deadlocking.
    NoHeadroom {
        /// Bytes the refused block needs.
        needed: usize,
        /// The store's byte budget.
        budget: usize,
        /// Occupancy (blocks + cache) at the time of refusal.
        resident: usize,
    },
    /// A single block exceeds the whole budget: no amount of spilling
    /// can ever fit it. Surfaced as a terminal
    /// [`RuntimeError::MemoryExceeded`](crate::RuntimeError::MemoryExceeded).
    TooLarge {
        /// Bytes of the oversized block.
        bytes: usize,
        /// The store's byte budget.
        budget: usize,
    },
    /// A spill file could not be written or read back (disk full, lost,
    /// corrupt, or an injected fault). The store drops its useless
    /// on-disk copy, so the caller retries: the master defers a push,
    /// leaves a launch pending, or tolerates a producer-local miss —
    /// the block re-admits from the master's copy.
    SpillUnreadable {
        /// The block whose spill file is gone.
        block: BlockRef,
        /// What went wrong reading it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoHeadroom {
                needed,
                budget,
                resident,
            } => write!(
                f,
                "no headroom for {needed} B (budget {budget} B, resident {resident} B)"
            ),
            StoreError::TooLarge { bytes, budget } => {
                write!(f, "block of {bytes} B exceeds store budget of {budget} B")
            }
            StoreError::SpillUnreadable { block, reason } => {
                write!(f, "spill file for {block} unreadable: {reason}")
            }
        }
    }
}

/// Process-wide spill-file counter: names are unique across every store
/// of every in-process cluster in this process.
static SPILL_FILE_ID: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let id = SPILL_FILE_ID.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pado-spill-{}-{id}.bin", std::process::id()))
}

/// A block held in memory. Its bytes are [`block_bytes`], memoized in
/// the block itself.
#[derive(Debug)]
struct Resident {
    data: Block,
    last_used: u64,
}

/// Where a spilled block lives in its store's [`SpillFile`].
#[derive(Debug, Clone, Copy)]
struct Spill {
    at: u64,
    /// Length of the encoded payload on disk: the [`block_bytes`] the
    /// block is accounted at when resident.
    len: usize,
}

/// One store's disk tier: a single tempfile, created by the first spill
/// and unlinked with the store, holding every spilled payload at an
/// offset of its own. A store therefore costs the filesystem one create
/// and one unlink however many blocks pass through it; with a file per
/// block the spill path's cost followed the state of the filesystem's
/// journal instead of the bytes written (158 creates and unlinks of
/// 6 KB files took 10 to 90 ms on one ext4 mount, the same bytes into
/// open files 1 to 4 ms).
#[derive(Debug, Default)]
struct SpillFile {
    open: Option<(PathBuf, File)>,
    /// Where a payload that fits no hole goes.
    end: u64,
    /// Space released payloads left behind, as `(offset, length)`.
    holes: Vec<(u64, usize)>,
}

impl SpillFile {
    /// Writes one payload, into the first hole that holds it or at the
    /// end, and returns its offset. A failed write claims no space.
    fn write(&mut self, payload: &[u8]) -> io::Result<u64> {
        let (_, file) = match &mut self.open {
            Some(open) => open,
            closed => {
                let path = spill_path();
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)?;
                closed.insert((path, file))
            }
        };
        let hole = self.holes.iter().position(|&(_, len)| len >= payload.len());
        let at = hole.map_or(self.end, |h| self.holes[h].0);
        file.seek(SeekFrom::Start(at))?;
        file.write_all(payload)?;
        match hole {
            Some(h) if self.holes[h].1 == payload.len() => {
                self.holes.swap_remove(h);
            }
            Some(h) => {
                self.holes[h].0 += payload.len() as u64;
                self.holes[h].1 -= payload.len();
            }
            None => self.end += payload.len() as u64,
        }
        Ok(at)
    }

    fn read(&mut self, spill: Spill) -> io::Result<Vec<u8>> {
        let Some((_, file)) = self.open.as_mut() else {
            return Err(io::ErrorKind::NotFound.into());
        };
        let mut raw = vec![0; spill.len];
        file.seek(SeekFrom::Start(spill.at))?;
        file.read_exact(&mut raw)?;
        Ok(raw)
    }

    /// Gives a payload's space back; `last` says nothing else is spilled,
    /// in which case the file is written from its start again.
    fn release(&mut self, spill: Spill, last: bool) {
        if last {
            self.holes.clear();
            self.end = 0;
        } else {
            self.holes.push((spill.at, spill.len));
        }
    }

    /// Unlinks the file; the next spill creates another.
    fn remove(&mut self) {
        if let Some((path, _)) = self.open.take() {
            let _ = fs::remove_file(path);
        }
        self.holes.clear();
        self.end = 0;
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.remove();
    }
}

/// A byte-accounted store of the blocks resident on one executor, with
/// LRU spill-to-disk under pressure and pin counts protecting blocks a
/// running task depends on.
#[derive(Debug)]
pub struct BlockStore {
    exec: ExecId,
    budget: usize,
    /// Bytes held by the sibling cache tier, counted against the same
    /// budget (kept in sync by [`ExecutorStore`]).
    external_bytes: usize,
    clock: u64,
    resident: HashMap<BlockRef, Resident>,
    spilled: HashMap<BlockRef, Spill>,
    disk: SpillFile,
    pins: HashMap<BlockRef, usize>,
    journal: Journal,
    faults: SpillFaultPlan,
    spill_writes: u64,
    spill_reads: u64,
}

impl BlockStore {
    /// Creates a store for `exec` bounded to `budget` bytes, emitting
    /// memory events into `journal` (none when unlimited).
    pub fn new(exec: ExecId, budget: usize, journal: Journal) -> Self {
        BlockStore {
            exec,
            budget,
            external_bytes: 0,
            clock: 0,
            resident: HashMap::new(),
            spilled: HashMap::new(),
            disk: SpillFile::default(),
            pins: HashMap::new(),
            journal,
            faults: SpillFaultPlan::default(),
            spill_writes: 0,
            spill_reads: 0,
        }
    }

    /// Arms deterministic disk-fault injection for the spill tier.
    pub fn set_spill_faults(&mut self, faults: SpillFaultPlan) {
        self.faults = faults;
    }

    fn inject_write_fault(&mut self) -> bool {
        if self.faults.write_prob <= 0.0 {
            return false;
        }
        // Keyed by (executor, per-store spill-write ordinal): a causal
        // clock, so the same seed hits the same spills on both backends.
        self.spill_writes += 1;
        FaultInjector::new(self.faults.seed)
            .spill_write(self.exec as u64, self.spill_writes)
            .unit()
            < self.faults.write_prob
    }

    fn inject_read_fault(&mut self) -> bool {
        if self.faults.read_prob <= 0.0 {
            return false;
        }
        self.spill_reads += 1;
        FaultInjector::new(self.faults.seed)
            .spill_read(self.exec as u64, self.spill_reads)
            .unit()
            < self.faults.read_prob
    }

    fn limited(&self) -> bool {
        self.budget != UNLIMITED
    }

    /// The current byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes of blocks currently resident in memory (excludes spilled
    /// blocks and the cache tier), summed when asked: exact, and sizing
    /// any resident block not sized yet.
    pub fn resident_bytes(&self) -> usize {
        self.resident.values().map(|e| block_bytes(&e.data)).sum()
    }

    /// Combined occupancy counted against the budget: resident block
    /// bytes plus the sibling cache tier's bytes.
    pub fn occupancy(&self) -> usize {
        self.resident_bytes() + self.external_bytes
    }

    fn set_external_bytes(&mut self, bytes: usize) {
        self.external_bytes = bytes;
    }

    /// Whether the store owns this block, resident or spilled.
    pub fn contains(&self, r: BlockRef) -> bool {
        self.resident.contains_key(&r) || self.spilled.contains_key(&r)
    }

    /// Whether this block currently sits on the disk tier.
    pub fn is_spilled(&self, r: BlockRef) -> bool {
        self.spilled.contains_key(&r)
    }

    /// Bytes of a block on the disk tier (`None` when not spilled).
    pub fn spilled_bytes(&self, r: BlockRef) -> Option<usize> {
        self.spilled.get(&r).map(|s| s.len)
    }

    /// Journals a memory event, built only under a budget: an unlimited
    /// store neither journals nor sizes what the event would carry.
    fn emit(&self, event: impl FnOnce() -> JobEvent) {
        if self.limited() {
            self.journal.emit(None, event());
        }
    }

    /// Spills one resident block to disk. Returns false when the write
    /// failed (the block stays resident and accounted).
    fn spill_one(&mut self, r: BlockRef) -> bool {
        let entry = match self.resident.remove(&r) {
            Some(e) => e,
            None => return false,
        };
        let payload = match encode_block(&entry.data) {
            Ok(p) => p,
            Err(_) => {
                // A block the codec cannot serialize behaves like a
                // disk that refused the write: it stays resident.
                self.resident.insert(r, entry);
                return false;
            }
        };
        let written = if self.inject_write_fault() {
            None
        } else {
            self.disk.write(&payload).ok()
        };
        let Some(at) = written else {
            // Disk refused the spill: keep the block resident; the
            // caller degrades to NoHeadroom (defer/refuse), never aborts.
            self.resident.insert(r, entry);
            return false;
        };
        let len = payload.len();
        self.spilled.insert(r, Spill { at, len });
        self.emit(|| JobEvent::BlockSpilled {
            exec: self.exec,
            block: r,
            bytes: len,
            raw_bytes: entry.data.raw_len(),
            resident: self.occupancy(),
        });
        true
    }

    /// Picks the least-recently-used unpinned resident and spills it.
    /// Returns whether a block actually moved to disk — false when only
    /// pinned blocks remain or the disk refused the write, in which
    /// case pressure relief has gone as far as it can.
    fn spill_lru_victim(&mut self) -> bool {
        let victim = self
            .resident
            .iter()
            .filter(|(k, _)| self.pins.get(*k).copied().unwrap_or(0) == 0)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k);
        victim.map(|k| self.spill_one(k)).unwrap_or(false)
    }

    /// Spills unpinned LRU residents until `bytes` more fit under the
    /// budget, or fails with `NoHeadroom` when only pinned blocks remain.
    fn headroom_for(&mut self, bytes: usize) -> Result<(), StoreError> {
        while self.occupancy() + bytes > self.budget {
            if !self.spill_lru_victim() {
                return Err(StoreError::NoHeadroom {
                    needed: bytes,
                    budget: self.budget,
                    resident: self.occupancy(),
                });
            }
        }
        Ok(())
    }

    /// Admits a block, spilling unpinned residents as needed. Inserting
    /// a block the store already owns just refreshes its recency.
    pub fn insert(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        self.clock += 1;
        if let Some(e) = self.resident.get_mut(&r) {
            e.last_used = self.clock;
            return Ok(());
        }
        if self.spilled.contains_key(&r) {
            return Ok(());
        }
        // Only a budget reads the size; an unlimited store admits unsized.
        if self.limited() {
            let bytes = block_bytes(data);
            if bytes > self.budget {
                let budget = self.budget;
                return Err(StoreError::TooLarge { bytes, budget });
            }
            self.headroom_for(bytes)?;
        }
        let resident = Resident {
            data: Arc::clone(data),
            last_used: self.clock,
        };
        self.resident.insert(r, resident);
        self.emit(|| JobEvent::BlockAdmitted {
            exec: self.exec,
            block: r,
            bytes: block_bytes(data),
            resident: self.occupancy(),
        });
        Ok(())
    }

    /// Admits a block, writing it straight to the disk tier when memory
    /// has no headroom — the producer-local commit path must never
    /// stall on its own output. Only `TooLarge` (and disk failure) can
    /// refuse.
    pub fn insert_or_spill(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        match self.insert(r, data) {
            Err(StoreError::NoHeadroom { .. }) => {
                if self.inject_write_fault() {
                    return Err(StoreError::SpillUnreadable {
                        block: r,
                        reason: "spill write failed: injected disk fault".into(),
                    });
                }
                let payload = match encode_block(data) {
                    Ok(p) => p,
                    Err(e) => {
                        return Err(StoreError::SpillUnreadable {
                            block: r,
                            reason: format!("spill encode failed: {e}"),
                        })
                    }
                };
                let at = self.disk.write(&payload).map_err(|e| {
                    let reason = format!("spill write failed: {e}");
                    StoreError::SpillUnreadable { block: r, reason }
                })?;
                let len = payload.len();
                self.spilled.insert(r, Spill { at, len });
                self.emit(|| JobEvent::BlockAdmitted {
                    exec: self.exec,
                    block: r,
                    bytes: len,
                    resident: self.occupancy(),
                });
                self.emit(|| JobEvent::BlockSpilled {
                    exec: self.exec,
                    block: r,
                    bytes: len,
                    raw_bytes: data.raw_len(),
                    resident: self.occupancy(),
                });
                Ok(())
            }
            other => other,
        }
    }

    /// Forgets a block's on-disk copy and frees the space it held.
    fn unspill(&mut self, r: BlockRef) -> Option<Spill> {
        let spill = self.spilled.remove(&r)?;
        self.disk.release(spill, self.spilled.is_empty());
        Some(spill)
    }

    /// Reloads a spilled block into memory, byte-identical to what was
    /// spilled; its space in the spill file is freed.
    fn reload(&mut self, r: BlockRef) -> Result<(), StoreError> {
        let Some(&spill) = self.spilled.get(&r) else {
            return Ok(());
        };
        self.headroom_for(spill.len)?;
        let read = if self.inject_read_fault() {
            Err("injected disk fault".to_string())
        } else {
            self.disk
                .read(spill)
                .map_err(|e| e.to_string())
                .and_then(|raw| decode_block(&raw).map_err(|e| e.to_string()))
        };
        // Read or not, the on-disk copy goes: a useless one must not
        // stay, so that the owner re-admits the block from the master's
        // copy on retry instead of hitting the same corpse forever.
        self.unspill(r);
        let data = read.map_err(|reason| StoreError::SpillUnreadable { block: r, reason })?;
        self.clock += 1;
        let last_used = self.clock;
        self.resident.insert(r, Resident { data, last_used });
        self.emit(|| JobEvent::BlockLoaded {
            exec: self.exec,
            block: r,
            bytes: spill.len,
            resident: self.occupancy(),
        });
        Ok(())
    }

    /// Looks up a block, reloading it from the disk tier if spilled.
    pub fn get(&mut self, r: BlockRef) -> Result<Option<Block>, StoreError> {
        if self.spilled.contains_key(&r) {
            self.reload(r)?;
        }
        self.clock += 1;
        let clock = self.clock;
        Ok(self.resident.get_mut(&r).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.data)
        }))
    }

    /// Pins a block for a running attempt, making it resident first
    /// (inserting `data` if the store does not own it yet, reloading if
    /// spilled). Pinned blocks are never spilled; pins are counted.
    pub fn pin(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if self.spilled.contains_key(&r) {
            self.reload(r)?;
        } else {
            self.insert(r, data)?;
        }
        *self.pins.entry(r).or_insert(0) += 1;
        self.emit(|| JobEvent::BlockPinned {
            exec: self.exec,
            block: r,
        });
        Ok(())
    }

    /// Drops one pin of a block. Unknown refs are tolerated (pins may
    /// have been cleared wholesale by an executor loss).
    pub fn unpin(&mut self, r: BlockRef) {
        if let Some(n) = self.pins.get_mut(&r) {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&r);
            }
            self.emit(|| JobEvent::BlockUnpinned {
                exec: self.exec,
                block: r,
            });
        }
    }

    /// Releases an unpinned block (resident or spilled), freeing its
    /// bytes. Pinned blocks are left in place; returns whether the
    /// block is gone.
    pub fn remove_unpinned(&mut self, r: BlockRef) -> bool {
        if self.pins.get(&r).copied().unwrap_or(0) > 0 {
            return false;
        }
        if let Some(e) = self.resident.remove(&r) {
            self.emit(|| JobEvent::BlockReleased {
                exec: self.exec,
                block: r,
                bytes: block_bytes(&e.data),
                resident: self.occupancy(),
            });
            true
        } else if let Some(s) = self.unspill(r) {
            self.emit(|| JobEvent::BlockReleased {
                exec: self.exec,
                block: r,
                bytes: s.len,
                resident: self.occupancy(),
            });
            true
        } else {
            true
        }
    }

    /// Drops everything without journaling — the executor is gone, so
    /// its memory is gone too (the checker clears its replayed state on
    /// the loss event for the same reason).
    pub fn clear_silent(&mut self) {
        self.spilled.clear();
        self.disk.remove();
        self.resident.clear();
        self.pins.clear();
    }

    /// Shrinks (or grows) the budget, spilling unpinned residents to
    /// get under the new limit. When pinned blocks (or a sibling cache
    /// the caller chose not to shed) keep occupancy above the request,
    /// the applied budget is clamped up to the occupancy so the
    /// "occupancy ≤ budget" invariant keeps holding; the journaled
    /// event records the applied value. Returns the applied budget.
    pub fn set_budget(&mut self, requested: usize) -> usize {
        let was_unlimited = !self.limited();
        self.budget = requested;
        if requested == UNLIMITED {
            return UNLIMITED;
        }
        if was_unlimited {
            // Unlimited stores journal nothing, so pins taken before this
            // shrink are invisible to replay; emit them now or the
            // matching unpins would look like pins from nowhere.
            // In block order: the map's own differs from process to process.
            let mut held: Vec<(BlockRef, usize)> =
                self.pins.iter().map(|(r, n)| (*r, *n)).collect();
            held.sort_unstable();
            for (r, n) in held {
                for _ in 0..n {
                    self.emit(|| JobEvent::BlockPinned {
                        exec: self.exec,
                        block: r,
                    });
                }
            }
        }
        // The first occupancy read sizes every block admitted unsized
        // while the store was unlimited, before any spill is decided.
        while self.occupancy() > self.budget {
            if !self.spill_lru_victim() {
                break;
            }
        }
        let applied = requested.max(self.occupancy());
        self.budget = applied;
        self.journal.emit(
            None,
            JobEvent::StoreBudgetChanged {
                exec: self.exec,
                budget: applied,
            },
        );
        applied
    }
}

/// Shared handle to one executor's store, held by the master (admission
/// control, pinning, pushes) and the executor's worker slots (input
/// cache) alike.
pub type StoreHandle = Arc<Mutex<ExecutorStore>>;

/// One executor's full memory domain: the byte-accounted block store
/// plus the §3.2.7 input cache, both counted against one budget.
#[derive(Debug)]
pub struct ExecutorStore {
    exec: ExecId,
    journal: Journal,
    blocks: BlockStore,
    cache: LruCache,
}

impl ExecutorStore {
    /// Creates the store for `exec`: `budget` bounds blocks + cache
    /// combined, `cache_capacity` sub-bounds the cache tier.
    pub fn new(exec: ExecId, budget: usize, cache_capacity: usize, journal: Journal) -> Self {
        ExecutorStore {
            exec,
            journal: journal.clone(),
            blocks: BlockStore::new(exec, budget, journal),
            cache: LruCache::new(cache_capacity),
        }
    }

    /// Wraps a new store in its shared handle.
    pub fn handle(
        exec: ExecId,
        budget: usize,
        cache_capacity: usize,
        journal: Journal,
    ) -> StoreHandle {
        Arc::new(Mutex::new(ExecutorStore::new(
            exec,
            budget,
            cache_capacity,
            journal,
        )))
    }

    /// The store's byte budget.
    pub fn budget(&self) -> usize {
        self.blocks.budget()
    }

    /// Arms deterministic disk-fault injection for the spill tier. See
    /// [`SpillFaultPlan`].
    pub fn set_spill_faults(&mut self, faults: SpillFaultPlan) {
        self.blocks.set_spill_faults(faults);
    }

    /// Combined occupancy: resident block bytes + cache bytes.
    pub fn occupancy(&self) -> usize {
        self.blocks.resident_bytes() + self.cache.used_bytes()
    }

    fn sync_external(&mut self) {
        self.blocks.set_external_bytes(self.cache.used_bytes());
    }

    /// Sheds unpinned cache entries until `extra` more bytes fit under
    /// the budget (cache data can always be re-sent; spilled blocks
    /// cost a reload — shed the cheap tier first). `extra` is read only
    /// under a budget.
    fn make_room(&mut self, extra: impl FnOnce() -> usize) {
        if self.blocks.budget() == UNLIMITED {
            return;
        }
        let extra = extra();
        while self.occupancy() + extra > self.blocks.budget()
            && self.cache.shed_lru_unpinned().is_some()
        {}
        self.sync_external();
    }

    /// Admits a block under the combined budget: sheds unpinned cache
    /// entries, then spills unpinned blocks; refuses with `NoHeadroom`
    /// when only pinned bytes remain (push backpressure defers).
    pub fn admit(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if !self.blocks.contains(r) {
            self.make_room(|| block_bytes(data));
        }
        self.blocks.insert(r, data)
    }

    /// Admits a producer-local block, spilling it straight to disk when
    /// memory has no headroom — commits never stall on their own output.
    pub fn admit_or_spill(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if !self.blocks.contains(r) {
            self.make_room(|| block_bytes(data));
        }
        self.blocks.insert_or_spill(r, data)
    }

    /// Pins a block for a launching attempt (insert-if-absent,
    /// reload-if-spilled). See [`BlockStore::pin`].
    pub fn pin(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if !self.blocks.contains(r) || self.blocks.is_spilled(r) {
            self.make_room(|| block_bytes(data));
        }
        self.blocks.pin(r, data)
    }

    /// Drops one pin. See [`BlockStore::unpin`].
    pub fn unpin(&mut self, r: BlockRef) {
        self.blocks.unpin(r);
    }

    /// Reads a block back, reloading it from the disk tier if spilled
    /// (shedding unpinned cache entries first for reload headroom). See
    /// [`BlockStore::get`].
    pub fn get(&mut self, r: BlockRef) -> Result<Option<Block>, StoreError> {
        if let Some(bytes) = self.blocks.spilled_bytes(r) {
            self.make_room(|| bytes);
        }
        self.blocks.get(r)
    }

    /// Releases an unpinned block. See [`BlockStore::remove_unpinned`].
    pub fn remove_unpinned(&mut self, r: BlockRef) -> bool {
        self.blocks.remove_unpinned(r)
    }

    /// Whether the store owns this block (resident or spilled).
    pub fn contains(&self, r: BlockRef) -> bool {
        self.blocks.contains(r)
    }

    /// Clears everything silently (executor loss). See
    /// [`BlockStore::clear_silent`].
    pub fn clear_silent(&mut self) {
        self.blocks.clear_silent();
        // The cache died with the executor's memory too.
        self.cache = LruCache::new(self.cache.capacity_bytes());
        self.sync_external();
    }

    /// Applies a new budget: sheds unpinned cache entries first, then
    /// lets the block store spill; returns the applied budget (clamped
    /// up to occupancy when pinned bytes exceed the request).
    pub fn set_budget(&mut self, requested: usize) -> usize {
        if requested != UNLIMITED {
            while self.occupancy() > requested && self.cache.shed_lru_unpinned().is_some() {}
            self.sync_external();
        }
        self.blocks.set_budget(requested)
    }

    /// Cache lookup, journaling §3.2.7 effectiveness as
    /// `CacheHit`/`CacheMiss` (emitted whatever the budget — cache
    /// telemetry is not a memory-pressure event).
    pub fn cache_get(&mut self, key: CacheKey) -> Option<Block> {
        match self.cache.get(key) {
            Some(data) => {
                self.journal.emit(
                    None,
                    JobEvent::CacheHit {
                        exec: self.exec,
                        key,
                        bytes: block_bytes(&data),
                    },
                );
                Some(data)
            }
            None => {
                self.journal.emit(
                    None,
                    JobEvent::CacheMiss {
                        exec: self.exec,
                        key,
                    },
                );
                None
            }
        }
    }

    /// Best-effort cache insert under the combined budget: sheds its
    /// own unpinned entries for room but never spills blocks; skips
    /// caching (returns false) when no room remains. Failing to cache
    /// never fails a task.
    pub fn cache_put(&mut self, key: CacheKey, data: Block) -> bool {
        let bytes = block_bytes(&data);
        if self.blocks.budget() != UNLIMITED {
            while self.occupancy() + bytes > self.blocks.budget() {
                if self.cache.shed_lru_unpinned().is_none() {
                    self.sync_external();
                    return false;
                }
            }
        }
        let cached = self.cache.put(key, data);
        self.sync_external();
        cached
    }

    /// Pins a cache entry for the duration of a task that read it, so
    /// concurrent inserts cannot shed an input mid-use.
    pub fn cache_pin(&mut self, key: CacheKey) -> bool {
        self.cache.pin(key)
    }

    /// Drops a cache pin.
    pub fn cache_unpin(&mut self, key: CacheKey) {
        self.cache.unpin(key);
    }

    /// Keys currently cached (the executor reports these to the master
    /// for cache-aware scheduling).
    pub fn cache_keys(&self) -> Vec<CacheKey> {
        self.cache.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::journal::JournalMeta;
    use pado_dag::{block_from_vec, empty_block, Value};

    fn block(n: usize) -> Block {
        block_from_vec((0..n).map(|i| Value::from(i as i64)).collect())
    }

    /// Encoded size of the canonical 4-record test block — the unit the
    /// byte-budget tests below are denominated in.
    fn bsz() -> usize {
        block_bytes(&block(4))
    }

    fn out(fop: FopId, index: usize) -> BlockRef {
        BlockRef::Output { fop, index }
    }

    fn spill_file(s: &BlockStore) -> PathBuf {
        s.disk.open.as_ref().expect("something spilled").0.clone()
    }

    fn events(journal: &Journal) -> Vec<JobEvent> {
        journal.freeze(JournalMeta::default()).to_events()
    }

    #[test]
    fn block_bytes_is_the_encoded_length() {
        let b = block(3);
        assert_eq!(block_bytes(&b), b.encoded_len());
        assert_eq!(block_bytes(&b), encode_block(&b).unwrap().len());
        assert!(block_bytes(&empty_block()) > 0, "even empty has a header");
        // The whole point of charging encoded bytes: a compressible
        // block is accounted below its row-format size.
        let big = block_from_vec((0..1000).map(|i| Value::from(i % 5)).collect());
        assert!(block_bytes(&big) < big.raw_len());
    }

    #[test]
    fn unlimited_store_tracks_bytes_but_emits_nothing() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, UNLIMITED, j.clone());
        s.insert(out(0, 0), &block(4)).unwrap();
        assert_eq!(s.resident_bytes(), bsz());
        assert_eq!(s.get(out(0, 0)).unwrap().unwrap().len(), 4);
        assert!(events(&j).is_empty());
    }

    /// An unlimited store admits and pins without sizing, yet reports
    /// exact bytes when asked; a budget arriving later sizes what it
    /// holds before its first spill, so it journals what a store of
    /// blocks sized on admission journals.
    #[test]
    fn unlimited_store_sizes_nothing_until_a_budget_arrives() {
        const LENS: [usize; 6] = [4, 40, 2, 90, 7, 25];
        // Sized from other blocks, so reading it sizes none of the script's.
        let half = LENS.map(|n| block_bytes(&block(n))).iter().sum::<usize>() / 2;
        // Sizes before the budget: none, all, or all by `resident_bytes`.
        let script = |presize: bool, count: bool| {
            let j = Journal::new();
            let mut s = BlockStore::new(1, UNLIMITED, j.clone());
            let blocks: Vec<Block> = LENS.into_iter().map(block).collect();
            for b in blocks.iter().filter(|_| presize) {
                b.encoded_len();
            }
            for (i, b) in blocks.iter().enumerate() {
                match i % 3 {
                    0 => s.pin(out(0, i), b).unwrap(),
                    _ => s.insert(out(0, i), b).unwrap(),
                }
            }
            assert!(blocks.iter().all(|b| b.is_sized() == presize));
            if count {
                let encoded = blocks.iter().map(|b| encode_block(b).unwrap().len());
                assert_eq!(s.resident_bytes(), encoded.sum::<usize>());
            }
            s.set_budget(half);
            s.unpin(out(0, 0));
            s.insert(out(1, 0), &block(60)).unwrap();
            let evs = events(&j);
            assert!(evs
                .iter()
                .any(|e| matches!(e, JobEvent::BlockSpilled { .. })));
            evs
        };
        let sized = script(true, false);
        assert_eq!(script(false, true), sized);
        assert_eq!(script(false, false), sized);
    }

    #[test]
    fn shrink_from_unlimited_journals_held_pins() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, UNLIMITED, j.clone());
        let a = block(4);
        s.pin(out(0, 0), &a).unwrap();
        s.pin(out(0, 0), &a).unwrap();
        assert!(events(&j).is_empty());
        // The shrink turns accounting on; held pins must be journaled
        // before anything else so later unpins replay cleanly.
        s.set_budget(2 * bsz());
        s.unpin(out(0, 0));
        s.unpin(out(0, 0));
        let evs = events(&j);
        let pins = evs
            .iter()
            .filter(|e| matches!(e, JobEvent::BlockPinned { .. }))
            .count();
        let unpins = evs
            .iter()
            .filter(|e| matches!(e, JobEvent::BlockUnpinned { .. }))
            .count();
        assert_eq!(pins, 2);
        assert_eq!(unpins, 2);
    }

    #[test]
    fn shrink_from_unlimited_replays_pins_in_block_order() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, UNLIMITED, j.clone());
        for index in [5, 2, 7, 0, 3, 6, 1, 4] {
            s.pin(out(0, index), &block(4)).unwrap();
        }
        s.set_budget(16 * bsz());
        let pinned: Vec<BlockRef> = events(&j)
            .iter()
            .filter_map(|e| match e {
                JobEvent::BlockPinned { block, .. } => Some(*block),
                _ => None,
            })
            .collect();
        let in_order: Vec<BlockRef> = (0..8).map(|index| out(0, index)).collect();
        assert_eq!(pinned, in_order, "a journal must not depend on hash order");
    }

    #[test]
    fn pressure_spills_lru_and_reload_is_byte_identical() {
        let j = Journal::new();
        let budget = 2 * bsz();
        let mut s = BlockStore::new(1, budget, j.clone());
        let a = block(4);
        let b = block(4);
        s.insert(out(0, 0), &a).unwrap();
        s.insert(out(0, 1), &b).unwrap();
        assert_eq!(s.resident_bytes(), budget);
        // Third block forces the LRU (0,0) out to disk.
        s.insert(out(0, 2), &block(4)).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        assert_eq!(s.resident_bytes(), budget);
        // Reload is byte-identical and re-admitted (spilling another).
        let back = s.get(out(0, 0)).unwrap().unwrap();
        assert_eq!(encode_block(&back).unwrap(), encode_block(&a).unwrap());
        assert!(!s.is_spilled(out(0, 0)));
        let evs = events(&j);
        // Every spill records both the compressed bytes written and the
        // row-format baseline they replaced.
        assert!(evs.iter().any(|e| matches!(
            e,
            JobEvent::BlockSpilled { bytes, raw_bytes, .. }
                if *bytes == bsz() && *raw_bytes == a.raw_len()
        )));
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::BlockLoaded { .. })));
        // Occupancy self-reports never exceed the budget.
        for e in &evs {
            if let JobEvent::BlockAdmitted { resident, .. }
            | JobEvent::BlockSpilled { resident, .. }
            | JobEvent::BlockLoaded { resident, .. } = e
            {
                assert!(*resident <= budget, "occupancy {resident} over budget");
            }
        }
    }

    #[test]
    fn pinned_blocks_are_never_spilled() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, 2 * bsz(), j.clone());
        let a = block(4);
        let b = block(4);
        s.pin(out(0, 0), &a).unwrap();
        s.pin(out(0, 1), &b).unwrap();
        // Both pinned: a third block has nowhere to go.
        assert!(matches!(
            s.insert(out(0, 2), &block(1)),
            Err(StoreError::NoHeadroom { .. })
        ));
        s.unpin(out(0, 1));
        // Now (0,1) can spill to make room.
        s.insert(out(0, 2), &block(1)).unwrap();
        assert!(s.is_spilled(out(0, 1)));
        assert!(!s.is_spilled(out(0, 0)));
    }

    #[test]
    fn oversized_block_is_too_large() {
        let b = block(3);
        let need = block_bytes(&b);
        let mut s = BlockStore::new(1, need - 1, Journal::new());
        assert!(matches!(
            s.insert(out(0, 0), &b),
            Err(StoreError::TooLarge { bytes, budget })
                if bytes == need && budget == need - 1
        ));
    }

    #[test]
    fn insert_or_spill_goes_straight_to_disk_under_pressure() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, bsz(), j.clone());
        s.pin(out(0, 0), &block(4)).unwrap();
        // No headroom and nothing spillable, but the producer-local
        // commit still lands (on disk).
        s.insert_or_spill(out(1, 0), &block(2)).unwrap();
        assert!(s.is_spilled(out(1, 0)));
        // Reading it back needs headroom of its own: with everything
        // pinned the reload refuses rather than overflow the budget.
        assert!(matches!(
            s.get(out(1, 0)),
            Err(StoreError::NoHeadroom { .. })
        ));
        s.unpin(out(0, 0));
        assert_eq!(s.get(out(1, 0)).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn set_budget_spills_and_clamps_to_pinned_occupancy() {
        let j = Journal::new();
        let mut s = BlockStore::new(1, UNLIMITED, j.clone());
        s.pin(out(0, 0), &block(4)).unwrap(); // pinned: bsz() bytes
        s.insert(out(0, 1), &block(4)).unwrap(); // unpinned: bsz() bytes
        let applied = s.set_budget(bsz() / 2);
        // The unpinned block spilled; the pinned bytes cannot, so the
        // applied budget clamps up to them.
        assert_eq!(applied, bsz());
        assert!(s.is_spilled(out(0, 1)));
        assert!(!s.is_spilled(out(0, 0)));
        assert!(events(&j)
            .iter()
            .any(|e| matches!(e, JobEvent::StoreBudgetChanged { budget, .. } if *budget == bsz())));
    }

    #[test]
    fn remove_unpinned_frees_spill_files_and_respects_pins() {
        let mut s = BlockStore::new(1, bsz(), Journal::new());
        s.pin(out(0, 0), &block(4)).unwrap();
        assert!(!s.remove_unpinned(out(0, 0)), "pinned block must stay");
        s.unpin(out(0, 0));
        assert!(s.remove_unpinned(out(0, 0)));
        assert!(!s.contains(out(0, 0)));
    }

    #[test]
    fn the_spill_file_is_deleted_on_drop_and_on_executor_loss() {
        let path;
        {
            let mut s = BlockStore::new(1, bsz(), Journal::new());
            assert!(s.disk.open.is_none(), "no spill, no file");
            s.insert(out(0, 0), &block(4)).unwrap();
            s.pin(out(0, 1), &block(4)).unwrap();
            assert!(s.is_spilled(out(0, 0)));
            let lost = spill_file(&s);
            assert!(lost.exists());
            s.clear_silent();
            assert!(!lost.exists(), "spill file survived its executor");
            // The replacement's first spill opens a file of its own.
            s.insert(out(0, 0), &block(4)).unwrap();
            s.pin(out(0, 1), &block(4)).unwrap();
            path = spill_file(&s);
            assert!(path.exists());
        }
        assert!(!path.exists(), "spill file survived drop");
    }

    #[test]
    fn one_file_holds_every_spill_and_reuses_released_space() {
        let mut s = BlockStore::new(1, 2 * bsz(), Journal::new());
        let big = block(40);
        let fits = 2 * bsz() >= block_bytes(&big);
        assert!(fits, "the budget holds the big block alone");
        for i in 0..6 {
            s.insert(out(0, i), &block(4)).unwrap();
        }
        let path = spill_file(&s);
        let four = fs::metadata(&path).unwrap().len();
        assert_eq!(s.spilled.len(), 4);
        assert_eq!(four, 4 * s.spilled[&out(0, 0)].len as u64);
        // A reload makes room first, so its victim is written before
        // its own slot comes free: one slot more, and no growth after
        // that. Every block still reads back as what it was.
        for round in 0..3 {
            for i in 0..6 {
                let got = s.get(out(0, i)).unwrap().unwrap();
                assert_eq!(got, block(4), "round {round}, block {i}");
            }
            assert_eq!(fs::metadata(&path).unwrap().len(), four / 4 * 5);
        }
        // A payload no hole holds goes to the end; a smaller one splits
        // the hole it lands in.
        s.remove_unpinned(out(0, 0));
        s.remove_unpinned(out(0, 1));
        s.insert(out(1, 0), &big).unwrap();
        s.insert(out(1, 1), &block(1)).unwrap();
        s.insert(out(1, 2), &block(1)).unwrap();
        assert_eq!(s.get(out(1, 0)).unwrap().unwrap(), big);
        assert_eq!(s.get(out(1, 1)).unwrap().unwrap(), block(1));
        for i in 2..6 {
            assert_eq!(s.get(out(0, i)).unwrap().unwrap(), block(4));
        }
        // With nothing left on disk the file is written from its start.
        for r in s.spilled.keys().copied().collect::<Vec<_>>() {
            s.remove_unpinned(r);
        }
        assert_eq!((s.disk.end, s.disk.holes.len()), (0, 0));
        assert_eq!(spill_file(&s), path, "still the one file");
    }

    #[test]
    fn executor_store_sheds_cache_before_spilling_blocks() {
        let j = Journal::new();
        let budget = 2 * bsz();
        let mut s = ExecutorStore::new(1, budget, budget, j.clone());
        assert!(s.cache_put(7, block(4))); // bsz() cache bytes
        s.admit(out(0, 0), &block(4)).unwrap(); // bsz() block bytes
        assert_eq!(s.occupancy(), budget);
        // Admitting another block sheds the cache entry, not a spill.
        s.admit(out(0, 1), &block(4)).unwrap();
        assert!(s.cache_keys().is_empty());
        assert!(!s.blocks.is_spilled(out(0, 0)));
        assert_eq!(s.occupancy(), budget);
    }

    #[test]
    fn cache_put_never_spills_blocks_and_skips_when_full() {
        let budget = 2 * bsz();
        let mut s = ExecutorStore::new(1, budget, budget, Journal::new());
        s.pin(out(0, 0), &block(4)).unwrap();
        s.pin(out(0, 1), &block(4)).unwrap();
        assert!(!s.cache_put(7, block(1)), "no room: caching must skip");
        assert!(s.cache_keys().is_empty());
        assert!(!s.blocks.is_spilled(out(0, 0)));
        assert!(!s.blocks.is_spilled(out(0, 1)));
    }

    #[test]
    fn cache_get_journals_hits_and_misses() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(3, UNLIMITED, 2 * bsz(), j.clone());
        assert!(s.cache_get(9).is_none());
        s.cache_put(9, block(2));
        assert!(s.cache_get(9).is_some());
        let sz = block_bytes(&block(2));
        let evs = events(&j);
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::CacheMiss { exec: 3, key: 9 })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::CacheHit { exec: 3, key: 9, bytes } if *bytes == sz)));
    }

    #[test]
    fn injected_spill_write_fault_degrades_to_no_headroom() {
        let budget = 2 * bsz();
        let mut s = BlockStore::new(1, budget, Journal::new());
        s.set_spill_faults(SpillFaultPlan {
            seed: 11,
            write_prob: 1.0,
            read_prob: 0.0,
        });
        s.insert(out(0, 0), &block(4)).unwrap();
        s.insert(out(0, 1), &block(4)).unwrap();
        // Pressure relief needs a spill, the disk refuses every write:
        // the admit degrades to NoHeadroom, never an over-budget insert.
        assert!(matches!(
            s.insert(out(0, 2), &block(4)),
            Err(StoreError::NoHeadroom { .. })
        ));
        assert!(!s.is_spilled(out(0, 0)));
        assert!(!s.is_spilled(out(0, 1)));
        assert!(s.occupancy() <= budget);
    }

    #[test]
    fn injected_spill_read_fault_heals_so_a_repin_recovers() {
        let mut s = BlockStore::new(1, 2 * bsz(), Journal::new());
        let a = block(4);
        s.insert(out(0, 0), &a).unwrap();
        s.insert(out(0, 1), &block(4)).unwrap();
        s.insert(out(0, 2), &block(4)).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        s.set_spill_faults(SpillFaultPlan {
            seed: 11,
            write_prob: 0.0,
            read_prob: 1.0,
        });
        // The read fails; the corrupt on-disk copy is dropped with it.
        assert!(matches!(
            s.pin(out(0, 0), &a),
            Err(StoreError::SpillUnreadable { .. })
        ));
        assert!(!s.contains(out(0, 0)), "useless spill entry healed away");
        // A retry re-admits from the caller's copy and succeeds.
        s.set_spill_faults(SpillFaultPlan::default());
        s.pin(out(0, 0), &a).unwrap();
        assert_eq!(s.get(out(0, 0)).unwrap().unwrap().len(), 4);
    }

    #[test]
    fn truncated_spill_file_is_reported_and_healed() {
        let mut s = BlockStore::new(1, 2 * bsz(), Journal::new());
        s.insert(out(0, 0), &block(4)).unwrap();
        s.insert(out(0, 1), &block(4)).unwrap();
        s.insert(out(0, 2), &block(4)).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        // The store holds the file open, so unlinking it loses nothing;
        // cutting it short does.
        let file = OpenOptions::new().write(true).open(spill_file(&s)).unwrap();
        file.set_len(0).unwrap();
        assert!(matches!(
            s.get(out(0, 0)),
            Err(StoreError::SpillUnreadable { .. })
        ));
        assert!(!s.contains(out(0, 0)), "lost spill entry healed away");
    }

    #[test]
    fn spill_fault_draws_replay_from_the_seed() {
        let run = |seed: u64| {
            let mut s = BlockStore::new(1, 2 * bsz(), Journal::new());
            s.set_spill_faults(SpillFaultPlan {
                seed,
                write_prob: 0.5,
                read_prob: 0.0,
            });
            (0..8)
                .map(|i| s.insert(out(0, i), &block(4)).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "same seed, same fault schedule");
    }

    #[test]
    fn block_ref_displays() {
        assert_eq!(out(3, 1).to_string(), "output 3.1");
        let b = BlockRef::Bucket {
            fop: 3,
            index: 1,
            dst_par: 4,
            dst: 2,
        };
        assert_eq!(b.to_string(), "bucket 3.1->2/4");
    }
}
