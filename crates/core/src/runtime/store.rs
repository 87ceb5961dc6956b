//! One executor's memory domain: a byte-accounted store of everything
//! resident on it, with a disk spill tier.
//!
//! Pado's reserved containers are a scarce resource (§2.2): they hold
//! preserved stage outputs, partitions pushed from transient tasks, and
//! the §3.2.7 input cache. This module makes that residency explicit:
//! everything living on an executor is owned by its [`ExecutorStore`]
//! and accounted in bytes against [`RuntimeConfig::executor_memory_bytes`].
//! The store has two tiers in one map, under one recency clock and one
//! pin count: blocks, keyed by [`BlockRef`], and cached input datasets,
//! keyed by [`CacheKey`] and sub-bounded by the cache capacity. Making
//! room sheds the least-recently-used unpinned cached dataset first (it
//! can always be re-sent), then spills the least-recently-used unpinned
//! block to a real tempfile — one per store, each payload at an offset
//! of its own — byte-identical on reload via the compressed
//! [`pado_dag::colcodec`] block format, and reloads it before any use.
//! Caching never spills a block and silently skips when no room remains.
//! Budgets charge each resident's *encoded* size — the bytes its spill
//! file or push payload actually occupies — while the journal also
//! records the row-format baseline, so compression savings are
//! observable per spill. A spill writes the image a block was sized
//! from or reloaded with ([`pado_dag::BlockInner::image`]), encoding
//! only a block that kept none.
//! Pinned residents are never shed or spilled, so a task's inputs
//! cannot vanish mid-execution; a single block larger than
//! the whole budget is refused outright ([`StoreError::TooLarge`]),
//! which the master surfaces as a clean
//! [`RuntimeError::MemoryExceeded`](crate::RuntimeError::MemoryExceeded)
//! instead of wedging or aborting the process.
//!
//! Stores with `budget == usize::MAX` (the default) are unlimited: they
//! never spill, emit no memory events, and size no block, so memory
//! accounting is invisible (and costs no encode) unless a budget is set.
//! The cache tier journals only `CacheHit`/`CacheMiss`, whatever the
//! budget.
//!
//! The disk tier is fallible: real tempfile I/O errors and the
//! [`SpillFaultPlan`] chaos knob surface the same way. A failed spill
//! *write* keeps the victim resident and degrades to `NoHeadroom`
//! (refuse — never an over-budget admit); a failed spill *read*
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

use pado_dag::colcodec::decode_image;
use pado_dag::Block;

use crate::compiler::FopId;
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

/// Cache key: the plan-wide id of the fused operator whose output is
/// cached, qualified by the consumer-side routing (broadcast inputs are
/// whole datasets, so the fop id suffices).
pub type CacheKey = usize;

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
    /// caller writes the block to disk ([`ExecutorStore::admit_or_spill`])
    /// or refuses a launch (admission control) instead of deadlocking.
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
    /// on-disk copy, so the caller retries: the master leaves a launch
    /// pending, or keeps a commit's output on its producer — the block
    /// re-admits from the master's copy.
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

/// A block or cached dataset held in memory. Its bytes are its
/// `encoded_len`, memoized in the block itself.
#[derive(Debug)]
struct Resident {
    data: Block,
    last_used: u64,
}

/// Where a spilled block lives in its store's [`SpillFile`].
#[derive(Debug, Clone, Copy)]
struct Spill {
    at: u64,
    /// Length of the encoded payload on disk: the `encoded_len` the
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

/// What a resident of the store is: a block, or a dataset of the input
/// cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Block(BlockRef),
    Cached(CacheKey),
}

impl Slot {
    fn is_cached(&self) -> bool {
        matches!(self, Slot::Cached(_))
    }
}

/// Shared handle to one executor's store, held by the master (admission
/// control, pinning, pushes) and the executor's worker slots (input
/// cache) alike.
pub type StoreHandle = Arc<Mutex<ExecutorStore>>;

/// One executor's full memory domain: the blocks resident on it and its
/// §3.2.7 input cache, both counted against one budget, with LRU
/// shedding and spill-to-disk under pressure and pin counts protecting
/// what a running task reads.
#[derive(Debug)]
pub struct ExecutorStore {
    exec: ExecId,
    budget: usize,
    /// Sub-bound of the cache tier inside the budget.
    cache_capacity: usize,
    clock: u64,
    resident: HashMap<Slot, Resident>,
    spilled: HashMap<BlockRef, Spill>,
    disk: SpillFile,
    pins: HashMap<Slot, usize>,
    journal: Journal,
    faults: SpillFaultPlan,
    spill_writes: u64,
    spill_reads: u64,
}

impl ExecutorStore {
    /// Creates the store for `exec`: `budget` bounds blocks + cache
    /// combined, `cache_capacity` sub-bounds the cache tier. Memory
    /// events go into `journal` (none when unlimited).
    pub fn new(exec: ExecId, budget: usize, cache_capacity: usize, journal: Journal) -> Self {
        ExecutorStore {
            exec,
            budget,
            cache_capacity,
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

    /// Arms deterministic disk-fault injection for the spill tier. See
    /// [`SpillFaultPlan`].
    pub fn set_spill_faults(&mut self, faults: SpillFaultPlan) {
        self.faults = faults;
    }

    fn inject_write_fault(&mut self) -> bool {
        if self.faults.write_prob <= 0.0 {
            return false;
        }
        // Keyed by (executor, per-store spill-write ordinal): a causal
        // clock, so the same seed hits the same spills on every run.
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

    /// Occupancy counted against the budget: the bytes of every block
    /// and cached dataset in memory (spilled blocks excluded), summed
    /// when asked: exact, and sizing any resident block not sized yet.
    pub fn occupancy(&self) -> usize {
        self.resident.values().map(|e| e.data.encoded_len()).sum()
    }

    /// Bytes of the cache tier alone. Cached datasets are sized when
    /// put, so this sizes no block.
    pub fn cache_bytes(&self) -> usize {
        let cached = self.resident.iter().filter(|(s, _)| s.is_cached());
        cached.map(|(_, e)| e.data.encoded_len()).sum()
    }

    /// Whether the store owns this block, resident or spilled.
    pub fn contains(&self, r: BlockRef) -> bool {
        self.resident.contains_key(&Slot::Block(r)) || self.spilled.contains_key(&r)
    }

    fn is_spilled(&self, r: BlockRef) -> bool {
        self.spilled.contains_key(&r)
    }

    /// Journals a memory event, built only under a budget: an unlimited
    /// store neither journals nor sizes what the event would carry.
    fn emit(&self, event: impl FnOnce() -> JobEvent) {
        if self.limited() {
            self.journal.emit(None, event());
        }
    }

    /// Looks a resident up, refreshing its recency.
    fn touch(&mut self, slot: Slot) -> Option<Block> {
        self.clock += 1;
        let clock = self.clock;
        self.resident.get_mut(&slot).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.data)
        })
    }

    /// Puts a resident in memory as the most recently used.
    fn place(&mut self, slot: Slot, data: Block) {
        self.clock += 1;
        let last_used = self.clock;
        self.resident.insert(slot, Resident { data, last_used });
    }

    /// The one victim rule for freeing memory: the least recently used
    /// unpinned cached dataset while one is left (cache data can always
    /// be re-sent; a spilled block costs a reload), else, when `blocks`
    /// allows, the least recently used unpinned block.
    fn victim(&self, blocks: bool) -> Option<Slot> {
        self.resident
            .iter()
            .filter(|(s, _)| (blocks || s.is_cached()) && !self.pins.contains_key(*s))
            .min_by_key(|(s, e)| (!s.is_cached(), e.last_used))
            .map(|(s, _)| *s)
    }

    /// Frees the victim's memory: sheds it if a cached dataset, spills
    /// it if a block. False when nothing unpinned is left or the disk
    /// refused the write, in which case pressure relief has gone as far
    /// as it can.
    fn relieve(&mut self, blocks: bool) -> bool {
        match self.victim(blocks) {
            Some(Slot::Block(r)) => self.spill_one(r),
            Some(cached) => self.resident.remove(&cached).is_some(),
            None => false,
        }
    }

    /// Writes block `r` to the disk tier, returning its length there: the
    /// image it was sized from, encoded now only when it kept none.
    fn write_image(&mut self, r: BlockRef, data: &Block) -> Result<usize, String> {
        let failed = |what: &str, e: &dyn fmt::Display| format!("spill {what} failed: {e}");
        let image = data.image().map_err(|e| failed("encode", &e))?;
        if self.inject_write_fault() {
            return Err(failed("write", &"injected disk fault"));
        }
        let at = self.disk.write(&image).map_err(|e| failed("write", &e))?;
        let len = image.len();
        self.spilled.insert(r, Spill { at, len });
        Ok(len)
    }

    /// Spills one resident block to disk. Returns false when the write
    /// failed (the block stays resident and accounted).
    fn spill_one(&mut self, r: BlockRef) -> bool {
        let Some(entry) = self.resident.remove(&Slot::Block(r)) else {
            return false;
        };
        // A block the codec or the disk refused stays resident; the
        // caller degrades to NoHeadroom (refuse), never aborts.
        let Ok(len) = self.write_image(r, &entry.data) else {
            self.resident.insert(Slot::Block(r), entry);
            return false;
        };
        self.emit(|| JobEvent::BlockSpilled {
            exec: self.exec,
            block: r,
            bytes: len,
            raw_bytes: entry.data.raw_len(),
            resident: self.occupancy(),
        });
        true
    }

    /// Sheds and spills until `bytes` more fit under the budget, or
    /// fails with `NoHeadroom` when only pinned residents remain.
    fn headroom_for(&mut self, bytes: usize) -> Result<(), StoreError> {
        while self.occupancy() + bytes > self.budget {
            if !self.relieve(true) {
                return Err(StoreError::NoHeadroom {
                    needed: bytes,
                    budget: self.budget,
                    resident: self.occupancy(),
                });
            }
        }
        Ok(())
    }

    /// Admits a block under the combined budget: sheds unpinned cached
    /// datasets, then spills unpinned blocks; refuses with `NoHeadroom`
    /// when only pinned bytes remain (see [`Self::admit_or_spill`]).
    /// Admitting a block the store already owns just refreshes its
    /// recency.
    pub fn admit(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if self.touch(Slot::Block(r)).is_some() || self.is_spilled(r) {
            return Ok(());
        }
        // Only a budget reads the size; an unlimited store admits unsized.
        if self.limited() {
            let bytes = data.encoded_len();
            if bytes > self.budget {
                let budget = self.budget;
                return Err(StoreError::TooLarge { bytes, budget });
            }
            self.headroom_for(bytes)?;
        }
        self.place(Slot::Block(r), Arc::clone(data));
        self.emit(|| JobEvent::BlockAdmitted {
            exec: self.exec,
            block: r,
            bytes: data.encoded_len(),
            resident: self.occupancy(),
        });
        Ok(())
    }

    /// Admits a copy of a committed output — the producer's own or a
    /// push — writing it straight to the disk tier when memory has no
    /// headroom: a commit never stalls on a copy of its output. Only
    /// `TooLarge` (and disk failure) can refuse.
    pub fn admit_or_spill(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        match self.admit(r, data) {
            Err(StoreError::NoHeadroom { .. }) => {
                let failed = |reason| StoreError::SpillUnreadable { block: r, reason };
                let len = self.write_image(r, data).map_err(failed)?;
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
    /// spilled and holding the bytes it was read from as its image, so a
    /// second spill writes them without an encode; its space in the
    /// spill file is freed.
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
                .and_then(|raw| decode_image(raw).map_err(|e| e.to_string()))
        };
        // Read or not, the on-disk copy goes: a useless one must not
        // stay, so that the owner re-admits the block from the master's
        // copy on retry instead of hitting the same corpse forever.
        self.unspill(r);
        let data = read.map_err(|reason| StoreError::SpillUnreadable { block: r, reason })?;
        self.place(Slot::Block(r), data);
        self.emit(|| JobEvent::BlockLoaded {
            exec: self.exec,
            block: r,
            bytes: spill.len,
            resident: self.occupancy(),
        });
        Ok(())
    }

    /// Reads a block back, reloading it from the disk tier if spilled.
    pub fn get(&mut self, r: BlockRef) -> Result<Option<Block>, StoreError> {
        if self.is_spilled(r) {
            self.reload(r)?;
        }
        Ok(self.touch(Slot::Block(r)))
    }

    /// Pins a block for a launching attempt, making it resident first
    /// (admitting `data` if the store does not own it yet, reloading if
    /// spilled). Pinned blocks are never spilled; pins are counted.
    pub fn pin(&mut self, r: BlockRef, data: &Block) -> Result<(), StoreError> {
        if self.is_spilled(r) {
            self.reload(r)?;
        } else {
            self.admit(r, data)?;
        }
        *self.pins.entry(Slot::Block(r)).or_insert(0) += 1;
        self.emit(|| JobEvent::BlockPinned {
            exec: self.exec,
            block: r,
        });
        Ok(())
    }

    /// Drops one pin of a resident; returns whether it held one.
    fn drop_pin(&mut self, slot: Slot) -> bool {
        let Some(n) = self.pins.get_mut(&slot) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.pins.remove(&slot);
        }
        true
    }

    /// Drops one pin of a block. Unknown refs are tolerated (pins may
    /// have been cleared wholesale by an executor loss).
    pub fn unpin(&mut self, r: BlockRef) {
        if self.drop_pin(Slot::Block(r)) {
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
        if self.pins.contains_key(&Slot::Block(r)) {
            return false;
        }
        let bytes = match self.resident.remove(&Slot::Block(r)) {
            Some(e) => Some(e.data.encoded_len()),
            None => self.unspill(r).map(|s| s.len),
        };
        if let Some(bytes) = bytes {
            self.emit(|| JobEvent::BlockReleased {
                exec: self.exec,
                block: r,
                bytes,
                resident: self.occupancy(),
            });
        }
        true
    }

    /// Drops everything, both tiers, without journaling — the executor
    /// is gone, so its memory is gone too (the checker clears its
    /// replayed state on the loss event for the same reason).
    pub fn clear_silent(&mut self) {
        self.spilled.clear();
        self.disk.remove();
        self.resident.clear();
        self.pins.clear();
    }

    /// Shrinks (or grows) the budget, shedding unpinned cached datasets
    /// and then spilling unpinned blocks to get under the new limit.
    /// When pinned residents keep occupancy above the request, the
    /// applied budget is clamped up to the occupancy so the "occupancy ≤
    /// budget" invariant keeps holding; the journaled event records the
    /// applied value. Returns the applied budget.
    pub fn set_budget(&mut self, requested: usize) -> usize {
        let was_unlimited = !self.limited();
        self.budget = requested;
        if requested == UNLIMITED {
            return UNLIMITED;
        }
        if was_unlimited {
            // Unlimited stores journal nothing, so block pins taken
            // before this shrink are invisible to replay; emit them now
            // or the matching unpins would look like pins from nowhere.
            // In block order: the map's own differs from process to process.
            let mut held: Vec<(BlockRef, usize)> = self
                .pins
                .iter()
                .filter_map(|(s, n)| match s {
                    Slot::Block(r) => Some((*r, *n)),
                    Slot::Cached(_) => None,
                })
                .collect();
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
        while self.occupancy() > self.budget && self.relieve(true) {}
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

    /// Cache lookup, journaling §3.2.7 effectiveness as
    /// `CacheHit`/`CacheMiss` (emitted whatever the budget — cache
    /// telemetry is not a memory-pressure event).
    pub fn cache_get(&mut self, key: CacheKey) -> Option<Block> {
        let data = self.touch(Slot::Cached(key));
        let exec = self.exec;
        let event = match &data {
            Some(d) => JobEvent::CacheHit {
                exec,
                key,
                bytes: d.encoded_len(),
            },
            None => JobEvent::CacheMiss { exec, key },
        };
        self.journal.emit(None, event);
        data
    }

    /// Best-effort cache insert: sheds unpinned cached datasets for room
    /// under the budget and the cache capacity but never spills a block;
    /// skips caching (returns false) when no room remains. Failing to
    /// cache never fails a task.
    ///
    /// A dataset larger than the whole capacity is not cached, but an
    /// older version under the same key is still dropped so the cache
    /// never serves stale data.
    pub fn cache_put(&mut self, key: CacheKey, data: Block) -> bool {
        let bytes = data.encoded_len();
        if self.limited() {
            while self.occupancy() + bytes > self.budget {
                if !self.relieve(false) {
                    return false;
                }
            }
        }
        // Drop any existing version of this key *before* deciding whether
        // the new one fits: rejecting an oversized dataset must not leave a
        // stale version behind for `cache_get` to serve.
        let slot = Slot::Cached(key);
        self.resident.remove(&slot);
        if bytes > self.cache_capacity {
            return false;
        }
        while self.cache_bytes() + bytes > self.cache_capacity {
            if !self.relieve(false) {
                return false;
            }
        }
        self.place(slot, data);
        true
    }

    /// Pins a cached dataset for the duration of a task that read it,
    /// so concurrent inserts cannot shed an input mid-use. Returns false
    /// when the key is not cached.
    pub fn cache_pin(&mut self, key: CacheKey) -> bool {
        let slot = Slot::Cached(key);
        if !self.resident.contains_key(&slot) {
            return false;
        }
        *self.pins.entry(slot).or_insert(0) += 1;
        true
    }

    /// Drops a cache pin; unknown keys are tolerated.
    pub fn cache_unpin(&mut self, key: CacheKey) {
        self.drop_pin(Slot::Cached(key));
    }

    /// Keys currently cached, ascending (the executor reports these to
    /// the master for cache-aware scheduling).
    pub fn cache_keys(&self) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = self
            .resident
            .keys()
            .filter_map(|s| match s {
                Slot::Cached(k) => Some(*k),
                Slot::Block(_) => None,
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::journal::JournalMeta;
    use pado_dag::colcodec::{encode_block, thread_encode_count};
    use pado_dag::{block_from_vec, empty_block, Value};

    fn block(n: usize) -> Block {
        block_from_vec((0..n).map(|i| Value::from(i as i64)).collect())
    }

    /// Encoded size of the canonical 4-record test block — the unit the
    /// byte-budget tests below are denominated in.
    fn bsz() -> usize {
        block(4).encoded_len()
    }

    fn out(fop: FopId, index: usize) -> BlockRef {
        BlockRef::Output { fop, index }
    }

    fn spill_file(s: &ExecutorStore) -> PathBuf {
        s.disk.open.as_ref().expect("something spilled").0.clone()
    }

    fn events(journal: &Journal) -> Vec<JobEvent> {
        journal.freeze(JournalMeta::default()).to_events()
    }

    #[test]
    fn a_block_is_charged_its_encoded_length() {
        let b = block(3);
        assert_eq!(b.encoded_len(), encode_block(&b).unwrap().len());
        assert!(empty_block().encoded_len() > 0, "even empty has a header");
        // The whole point of charging encoded bytes: a compressible
        // block is accounted below its row-format size.
        let big = block_from_vec((0..1000).map(|i| Value::from(i % 5)).collect());
        assert!(big.encoded_len() < big.raw_len());
    }

    #[test]
    fn unlimited_store_tracks_bytes_but_emits_nothing() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(1, UNLIMITED, 0, j.clone());
        s.admit(out(0, 0), &block(4)).unwrap();
        assert_eq!(s.occupancy(), bsz());
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
        let half = LENS.map(|n| block(n).encoded_len()).iter().sum::<usize>() / 2;
        // Sizes before the budget: none, all, or all by `occupancy`.
        let script = |presize: bool, count: bool| {
            let j = Journal::new();
            let mut s = ExecutorStore::new(1, UNLIMITED, half, j.clone());
            let blocks: Vec<Block> = LENS.into_iter().map(block).collect();
            for b in blocks.iter().filter(|_| presize) {
                b.encoded_len();
            }
            for (i, b) in blocks.iter().enumerate() {
                match i % 3 {
                    0 => s.pin(out(0, i), b).unwrap(),
                    _ => s.admit(out(0, i), b).unwrap(),
                }
                // The cache tier sizes what it caches, and only that.
                match i {
                    0 => assert!(s.cache_put(1, block(3))),
                    1 => assert!(s.cache_get(1).is_some() && s.cache_get(2).is_none()),
                    2 => assert!(s.cache_pin(1)),
                    3 => s.cache_unpin(1),
                    4 => assert!(s.cache_pin(1)),
                    _ => {}
                }
            }
            assert!(blocks.iter().all(|b| b.is_sized() == presize));
            if count {
                let encoded = blocks.iter().map(|b| encode_block(b).unwrap().len());
                assert_eq!(s.occupancy(), encoded.sum::<usize>() + s.cache_bytes());
            }
            s.set_budget(half);
            s.unpin(out(0, 0));
            s.cache_unpin(1);
            s.admit(out(1, 0), &block(60)).unwrap();
            let evs = events(&j);
            assert!(evs
                .iter()
                .any(|e| matches!(e, JobEvent::BlockSpilled { .. })));
            // The shrink replays the held block pins, not the cache's.
            let pins = evs
                .iter()
                .filter(|e| matches!(e, JobEvent::BlockPinned { .. }));
            assert_eq!(pins.count(), 2);
            // Under the budget, cache puts, pins and sheds journal no
            // memory event.
            assert!(s.cache_put(2, block(1)));
            assert!(s.cache_pin(2));
            assert!(s.cache_get(2).is_some());
            s.cache_unpin(2);
            s.cache_put(3, block(2));
            assert!(!s.cache_keys().contains(&2), "the put shed dataset 2");
            let cache_evs = events(&j).split_off(evs.len());
            assert!(cache_evs
                .iter()
                .all(|e| matches!(e, JobEvent::CacheHit { .. })));
            evs
        };
        let sized = script(true, false);
        assert_eq!(script(false, true), sized);
        assert_eq!(script(false, false), sized);
    }

    #[test]
    fn shrink_from_unlimited_journals_held_pins() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(1, UNLIMITED, 0, j.clone());
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
        let mut s = ExecutorStore::new(1, UNLIMITED, 0, j.clone());
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
        let mut s = ExecutorStore::new(1, budget, 0, j.clone());
        let a = block(4);
        let b = block(4);
        s.admit(out(0, 0), &a).unwrap();
        s.admit(out(0, 1), &b).unwrap();
        assert_eq!(s.occupancy(), budget);
        // Third block forces the LRU (0,0) out to disk.
        s.admit(out(0, 2), &block(4)).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        assert_eq!(s.occupancy(), budget);
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

    /// A spill writes a block's image when it has one and encodes it
    /// only when it has none; a reloaded block keeps the bytes it was
    /// read from, so spill → reload → spill encodes once, and the file
    /// holds exactly the block's encoding.
    #[test]
    fn a_reloaded_block_spills_again_without_an_encode() {
        let mut s = ExecutorStore::new(1, bsz(), 0, Journal::new());
        let (a, b, c) = (block(4), block(4), block(4));
        for x in [&a, &b, &c] {
            x.encoded_len();
        }
        assert!(!a.has_image());
        let before = thread_encode_count();
        s.admit(out(0, 0), &a).unwrap();
        s.admit(out(0, 1), &b).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        assert_eq!(thread_encode_count(), before + 1, "no image: encoded once");
        // The reload spills (0, 1), encoding it; the block read back
        // holds its image.
        let back = s.get(out(0, 0)).unwrap().unwrap();
        assert!(back.has_image());
        let before = thread_encode_count();
        s.admit(out(0, 2), &c).unwrap();
        assert!(s.is_spilled(out(0, 0)));
        assert_eq!(thread_encode_count(), before, "the second spill encoded");
        let payload = s.disk.read(s.spilled[&out(0, 0)]).unwrap();
        assert_eq!(payload, encode_block(&a).unwrap());
    }

    #[test]
    fn pinned_blocks_are_never_spilled() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(1, 2 * bsz(), 0, j.clone());
        let a = block(4);
        let b = block(4);
        s.pin(out(0, 0), &a).unwrap();
        s.pin(out(0, 1), &b).unwrap();
        // Both pinned: a third block has nowhere to go.
        assert!(matches!(
            s.admit(out(0, 2), &block(1)),
            Err(StoreError::NoHeadroom { .. })
        ));
        s.unpin(out(0, 1));
        // Now (0,1) can spill to make room.
        s.admit(out(0, 2), &block(1)).unwrap();
        assert!(s.is_spilled(out(0, 1)));
        assert!(!s.is_spilled(out(0, 0)));
    }

    #[test]
    fn oversized_block_is_too_large() {
        let b = block(3);
        let need = b.encoded_len();
        let mut s = ExecutorStore::new(1, need - 1, 0, Journal::new());
        assert!(matches!(
            s.admit(out(0, 0), &b),
            Err(StoreError::TooLarge { bytes, budget })
                if bytes == need && budget == need - 1
        ));
    }

    #[test]
    fn insert_or_spill_goes_straight_to_disk_under_pressure() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(1, bsz(), 0, j.clone());
        s.pin(out(0, 0), &block(4)).unwrap();
        // No headroom and nothing spillable, but the producer-local
        // commit still lands (on disk).
        s.admit_or_spill(out(1, 0), &block(2)).unwrap();
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
        let mut s = ExecutorStore::new(1, UNLIMITED, 0, j.clone());
        s.pin(out(0, 0), &block(4)).unwrap(); // pinned: bsz() bytes
        s.admit(out(0, 1), &block(4)).unwrap(); // unpinned: bsz() bytes
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
        let mut s = ExecutorStore::new(1, bsz(), 0, Journal::new());
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
            let mut s = ExecutorStore::new(1, bsz(), 0, Journal::new());
            assert!(s.disk.open.is_none(), "no spill, no file");
            s.admit(out(0, 0), &block(4)).unwrap();
            s.pin(out(0, 1), &block(4)).unwrap();
            assert!(s.is_spilled(out(0, 0)));
            let lost = spill_file(&s);
            assert!(lost.exists());
            s.clear_silent();
            assert!(!lost.exists(), "spill file survived its executor");
            // The replacement's first spill opens a file of its own.
            s.admit(out(0, 0), &block(4)).unwrap();
            s.pin(out(0, 1), &block(4)).unwrap();
            path = spill_file(&s);
            assert!(path.exists());
        }
        assert!(!path.exists(), "spill file survived drop");
    }

    #[test]
    fn one_file_holds_every_spill_and_reuses_released_space() {
        let mut s = ExecutorStore::new(1, 2 * bsz(), 0, Journal::new());
        let big = block(40);
        let fits = 2 * bsz() >= big.encoded_len();
        assert!(fits, "the budget holds the big block alone");
        for i in 0..6 {
            s.admit(out(0, i), &block(4)).unwrap();
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
        s.admit(out(1, 0), &big).unwrap();
        s.admit(out(1, 1), &block(1)).unwrap();
        s.admit(out(1, 2), &block(1)).unwrap();
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
        assert!(!s.is_spilled(out(0, 0)));
        assert_eq!(s.occupancy(), budget);
    }

    /// Every path that makes room for a block sheds the cache tier
    /// first. From a full store holding one cached dataset and one
    /// unpinned block (and one spilled block for `get` to reload), each
    /// sheds the dataset and spills nothing. A pinned dataset is never
    /// shed: the operation spills the block instead, or, with that block
    /// pinned too, refuses (`admit_or_spill` writes its own block to
    /// disk, `set_budget` clamps).
    #[test]
    fn every_room_making_path_sheds_the_cache_first() {
        type Op = fn(&mut ExecutorStore) -> Result<(), StoreError>;
        let ops: [(&str, Op); 5] = [
            ("admit", |s| s.admit(out(0, 1), &block(4))),
            ("admit_or_spill", |s| s.admit_or_spill(out(0, 1), &block(4))),
            ("pin", |s| s.pin(out(0, 1), &block(4))),
            ("get", |s| s.get(out(0, 9)).map(drop)),
            ("set_budget", |s| {
                s.set_budget(bsz());
                Ok(())
            }),
        ];
        for (name, op) in ops {
            for (pin_cache, pin_block) in [(false, false), (true, false), (true, true)] {
                let case = format!("{name}, cache pinned {pin_cache}, block pinned {pin_block}");
                let j = Journal::new();
                let mut s = ExecutorStore::new(1, 2 * bsz(), 2 * bsz(), j.clone());
                s.admit(out(0, 9), &block(4)).unwrap();
                s.admit(out(0, 0), &block(4)).unwrap();
                s.admit(out(0, 1), &block(4)).unwrap();
                assert!(s.remove_unpinned(out(0, 1)));
                assert!(s.cache_put(7, block(4)));
                assert!(s.is_spilled(out(0, 9)));
                assert_eq!(s.occupancy(), 2 * bsz());
                if pin_cache {
                    assert!(s.cache_pin(7));
                }
                if pin_block {
                    s.pin(out(0, 0), &block(4)).unwrap();
                }
                let before = events(&j).len();
                let res = op(&mut s);
                let evs = events(&j).split_off(before);
                let spilled = |r: BlockRef| {
                    evs.iter()
                        .any(|e| matches!(e, JobEvent::BlockSpilled { block, .. } if *block == r))
                };
                if !pin_cache {
                    assert_eq!(res, Ok(()), "{case}");
                    assert!(s.cache_keys().is_empty(), "{case}: the dataset stayed");
                    assert!(!spilled(out(0, 0)) && !spilled(out(0, 1)), "{case}");
                    continue;
                }
                assert_eq!(s.cache_keys(), vec![7], "{case}: a pinned dataset was shed");
                assert_eq!(spilled(out(0, 0)), !pin_block, "{case}");
                match (pin_block, name) {
                    (false, _) | (true, "admit_or_spill" | "set_budget") => {
                        assert_eq!(res, Ok(()), "{case}")
                    }
                    (true, _) => assert!(
                        matches!(res, Err(StoreError::NoHeadroom { .. })),
                        "{case}: {res:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn cache_put_never_spills_blocks_and_skips_when_full() {
        let budget = 2 * bsz();
        let mut s = ExecutorStore::new(1, budget, budget, Journal::new());
        s.pin(out(0, 0), &block(4)).unwrap();
        s.pin(out(0, 1), &block(4)).unwrap();
        assert!(!s.cache_put(7, block(1)), "no room: caching must skip");
        assert!(s.cache_keys().is_empty());
        assert!(!s.is_spilled(out(0, 0)));
        assert!(!s.is_spilled(out(0, 1)));
    }

    #[test]
    fn cache_get_journals_hits_and_misses() {
        let j = Journal::new();
        let mut s = ExecutorStore::new(3, UNLIMITED, 2 * bsz(), j.clone());
        assert!(s.cache_get(9).is_none());
        s.cache_put(9, block(2));
        assert!(s.cache_get(9).is_some());
        let sz = block(2).encoded_len();
        let evs = events(&j);
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::CacheMiss { exec: 3, key: 9 })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, JobEvent::CacheHit { exec: 3, key: 9, bytes } if *bytes == sz)));
    }

    /// An unlimited store whose cache tier holds `capacity` bytes.
    fn cache(capacity: usize) -> ExecutorStore {
        ExecutorStore::new(1, UNLIMITED, capacity, Journal::new())
    }

    /// Encoded size of the `n`-record test block; strictly increasing in
    /// `n` for these contents.
    fn sz(n: usize) -> usize {
        block(n).encoded_len()
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = cache(3 * sz(1));
        c.cache_put(1, block(1));
        c.cache_put(2, block(1));
        c.cache_put(3, block(1));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.cache_get(1).is_some());
        c.cache_put(4, block(1));
        assert!(c.cache_get(2).is_none(), "2 was least recently used");
        assert!(c.cache_get(1).is_some());
        assert!(c.cache_get(3).is_some());
        assert!(c.cache_get(4).is_some());
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut c = cache(sz(2) - 1);
        assert!(!c.cache_put(1, block(2)));
        assert!(c.cache_keys().is_empty());
    }

    #[test]
    fn oversized_reinsert_drops_the_stale_version() {
        assert!(sz(2) > sz(1));
        let mut c = cache(sz(1));
        assert!(c.cache_put(1, block(1)));
        // The new version no longer fits; the cache must not keep serving
        // the old one.
        assert!(!c.cache_put(1, block(2)));
        assert!(
            c.cache_get(1).is_none(),
            "stale entry survived oversized put"
        );
        assert_eq!(c.cache_bytes(), 0);
        assert!(c.cache_keys().is_empty());
    }

    #[test]
    fn reinsert_replaces_bytes() {
        let mut c = cache(1000);
        c.cache_put(1, block(5));
        assert_eq!(c.cache_bytes(), sz(5));
        c.cache_put(1, block(2));
        assert_eq!(c.cache_bytes(), sz(2));
        assert_eq!(c.cache_keys().len(), 1);
    }

    #[test]
    fn eviction_frees_enough_space() {
        assert!(sz(8) > sz(5));
        let mut c = cache(2 * sz(5));
        c.cache_put(1, block(5));
        c.cache_put(2, block(5));
        c.cache_put(3, block(8)); // does not fit beside either 5-record entry
        assert!(c.cache_get(1).is_none());
        assert!(c.cache_get(2).is_none());
        assert!(c.cache_get(3).is_some());
        assert_eq!(c.cache_bytes(), sz(8));
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let mut c = cache(sz(1) + sz(2));
        c.cache_put(1, block(1));
        c.cache_put(2, block(1));
        assert!(c.cache_pin(1));
        assert!(c.cache_pin(2));
        assert!(!c.cache_pin(99), "cannot pin what is not cached");
        // Fitting the 2-record dataset would need an eviction, but both
        // entries are pinned: the put is refused and nothing is evicted.
        assert!(!c.cache_put(3, block(2)));
        assert!(c.cache_get(1).is_some());
        assert!(c.cache_get(2).is_some());
        c.cache_unpin(2);
        assert!(c.cache_put(3, block(2)));
        assert!(c.cache_get(2).is_none(), "unpinned entry was shed");
        assert!(c.cache_get(1).is_some(), "pinned entry survived");
    }

    #[test]
    fn keys_lists_entries() {
        let mut c = cache(1000);
        c.cache_put(9, block(1));
        c.cache_put(7, block(1));
        // Ascending, whatever the order of puts or of the store's map.
        assert_eq!(c.cache_keys(), vec![7, 9]);
    }

    #[test]
    fn injected_spill_write_fault_degrades_to_no_headroom() {
        let budget = 2 * bsz();
        let mut s = ExecutorStore::new(1, budget, 0, Journal::new());
        s.set_spill_faults(SpillFaultPlan {
            seed: 11,
            write_prob: 1.0,
            read_prob: 0.0,
        });
        s.admit(out(0, 0), &block(4)).unwrap();
        s.admit(out(0, 1), &block(4)).unwrap();
        // Pressure relief needs a spill, the disk refuses every write:
        // the admit degrades to NoHeadroom, never an over-budget insert.
        assert!(matches!(
            s.admit(out(0, 2), &block(4)),
            Err(StoreError::NoHeadroom { .. })
        ));
        assert!(!s.is_spilled(out(0, 0)));
        assert!(!s.is_spilled(out(0, 1)));
        assert!(s.occupancy() <= budget);
    }

    #[test]
    fn injected_spill_read_fault_heals_so_a_repin_recovers() {
        let mut s = ExecutorStore::new(1, 2 * bsz(), 0, Journal::new());
        let a = block(4);
        s.admit(out(0, 0), &a).unwrap();
        s.admit(out(0, 1), &block(4)).unwrap();
        s.admit(out(0, 2), &block(4)).unwrap();
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
        let mut s = ExecutorStore::new(1, 2 * bsz(), 0, Journal::new());
        s.admit(out(0, 0), &block(4)).unwrap();
        s.admit(out(0, 1), &block(4)).unwrap();
        s.admit(out(0, 2), &block(4)).unwrap();
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
            let mut s = ExecutorStore::new(1, 2 * bsz(), 0, Journal::new());
            s.set_spill_faults(SpillFaultPlan {
                seed,
                write_prob: 0.5,
                read_prob: 0.0,
            });
            (0..8)
                .map(|i| s.admit(out(0, i), &block(4)).is_ok())
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
