//! Durable write-ahead log for the master's control-plane state.
//!
//! Pado deliberately refuses to checkpoint intermediate *data* — blocks
//! live in executor stores and are recomputed on loss — but the master's
//! scheduling decisions must survive a master crash at any instruction
//! boundary. Every [`JobEvent`] the master emits is appended to an
//! on-disk log as a length-prefixed, CRC-checksummed frame, interleaved
//! with periodic compacting snapshots of the task table and with
//! dedicated block-location records (the location table is
//! reconstructable independently of scheduler state, following Whiz/F²).
//!
//! The task table's durable state has one shape, [`WalSnapshot`]: the
//! attempt-id mark, the completed-attempt set and the commits with their
//! locations — three facts that need no plan. The live table writes it,
//! [`replay`] folds every surviving frame into one, and the restarted
//! master's table is rebuilt from it. What the log may lose (the unsynced
//! suffix) the in-memory journal still holds, so facts read from history,
//! such as whether a launch was a relaunch, come from the journal.
//!
//! # Frame format
//!
//! ```text
//! [magic u32 LE][len u32 LE][crc u32 LE][payload: len bytes]
//! payload = [kind u8][epoch u64 LE][body]
//! ```
//!
//! `crc` covers the payload only. `kind` is 1 for an event frame, 2 for
//! a snapshot, 3 for a location record. `epoch` is the stamp of the
//! retired reconfiguration fence: always 0, read by nothing, kept so the
//! surviving frames keep their pinned bytes (ROADMAP item 1(b)).
//!
//! # Recovery semantics
//!
//! [`scan`] parses the longest valid prefix and classifies whatever
//! follows it:
//!
//! - **clean** — the file ends exactly at a frame boundary; replay the
//!   whole log.
//! - **torn tail** — trailing garbage with no further parseable frame
//!   (the classic crash-mid-write shape); the tail is truncated and the
//!   full prefix replayed.
//! - **interior corruption** — a bad frame *followed by* parseable
//!   frames (bit rot inside the log). Events between the last snapshot
//!   and the corruption can no longer be trusted to be complete, so
//!   recovery falls back to the last good snapshot and drops the rest.
//!
//! In every case the recovered state is a prefix of what the pre-crash
//! master knew, which keeps it consistent: attempt fencing
//! (`next_attempt` jumps past everything ever issued) makes any report
//! from the discarded suffix harmlessly rejectable.
//!
//! # Wire forms
//!
//! A type's layout is written down once, as its private `Wire` impl:
//! by hand for the primitives, `Vec<T>` (the one collection-length
//! guard) and [`WalSnapshot`]; as one `wire_enum!` table for each enum,
//! whose rows read `tag => Variant { fields in wire order }` and expand
//! to the encoder and the decoder both. Adding a [`JobEvent`] is the
//! enum variant, one row with the next free tag (tags are never reused
//! or renumbered — old logs must keep their meaning; 0, 28–33 and 36
//! are retired), a sample and a tag arm in `tests::every_wire_form_is_pinned`,
//! and its `kind` / `describe` arms in the journal.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compiler::FopId;
use crate::error::RuntimeError;
use crate::runtime::fault::FaultInjector;
use crate::runtime::journal::JobEvent;
use crate::runtime::message::{AttemptId, ExecId};
use crate::runtime::store::BlockRef;

/// Frame magic: `WAL1` little-endian.
pub const WAL_MAGIC: u32 = 0x3157_414C;

/// Hard ceiling on a single frame's payload, so a corrupt length field
/// can never drive a multi-gigabyte allocation during recovery.
const MAX_FRAME_LEN: u32 = 16 << 20;

const KIND_EVENT: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_LOCATIONS: u8 = 3;

// ---------------------------------------------------------------------
// CRC32 (IEEE, a table lookup a byte: every frame appended or scanned)
// ---------------------------------------------------------------------

/// The CRC register after shifting each byte value's 8 bits through it.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

fn crc32(data: &[u8]) -> u32 {
    let step = |crc: u32, &b: &u8| CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    !data.iter().fold(!0, step)
}

// ---------------------------------------------------------------------
// Byte codec (hand-rolled little-endian; the repo carries no serde)
// ---------------------------------------------------------------------

type DecodeResult<T> = Result<T, &'static str>;

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err("payload underrun");
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing payload bytes")
        }
    }
}

/// The wire form of a type, written down once: `dec` reads exactly what
/// `enc` wrote, field for field, and refuses anything else.
trait Wire: Sized {
    fn enc(&self, e: &mut Vec<u8>);
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self>;
}

impl Wire for u64 {
    fn enc(&self, e: &mut Vec<u8>) {
        e.extend_from_slice(&self.to_le_bytes());
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        Ok(u64::from_le_bytes(d.take(8)?.try_into().expect("took 8")))
    }
}

impl Wire for usize {
    fn enc(&self, e: &mut Vec<u8>) {
        (*self as u64).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        usize::try_from(u64::dec(d)?).map_err(|_| "usize overflow")
    }
}

impl Wire for bool {
    fn enc(&self, e: &mut Vec<u8>) {
        e.push(*self as u8);
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bad bool"),
        }
    }
}

impl Wire for String {
    fn enc(&self, e: &mut Vec<u8>) {
        self.len().enc(e);
        e.extend_from_slice(self.as_bytes());
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        let n = usize::dec(d)?;
        if n > d.bytes.len().saturating_sub(d.pos) {
            return Err("string underrun");
        }
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| "bad utf8")
    }
}

impl Wire for Option<usize> {
    fn enc(&self, e: &mut Vec<u8>) {
        e.push(self.is_some() as u8);
        if let Some(x) = self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(usize::dec(d)?)),
            _ => Err("bad option tag"),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, e: &mut Vec<u8>) {
        self.len().enc(e);
        for x in self {
            x.enc(e);
        }
    }
    /// A corrupt count must never drive an unbounded allocation.
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        let n = usize::dec(d)?;
        if n > 1 << 22 {
            return Err("implausible collection length");
        }
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::dec(d)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn enc(&self, e: &mut Vec<u8>) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        Ok((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

/// The wire form of an enum: a `u8` tag, then the variant's fields in
/// the order its row lists them. Each row expands to both directions, so
/// the two cannot disagree; the encoder's `match` has no wildcard (a
/// variant without a row does not compile) and a tag used twice is an
/// unreachable decoder arm, which `-D warnings` rejects.
macro_rules! wire_enum {
    ($ty:ident, $bad_tag:literal, {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(($inner:ident))?,)*
    }) => {
        impl Wire for $ty {
            fn enc(&self, e: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(($inner))? => {
                        e.push($tag);
                        $($($field.enc(e);)*)?
                        $($inner.enc(e);)?
                    })*
                }
            }
            fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
                Ok(match d.u8()? {
                    $($tag => {
                        $($(let $field = Wire::dec(d)?;)*)?
                        $(let $inner = Wire::dec(d)?;)?
                        $ty::$variant $({ $($field),* })? $(($inner))?
                    })*
                    _ => return Err($bad_tag),
                })
            }
        }
    };
}

wire_enum!(BlockRef, "bad block-ref tag", {
    0 => Output { fop, index },
    1 => Bucket { fop, index, dst_par, dst },
});

// Tags are never reused or renumbered: a new event takes the next free
// one, whatever its place in the enum. 28–33 belonged to the retired
// reconfiguration transaction, 0 to `TaskLaunched` while it carried a
// relaunch flag, 36 to `RunStalled`, the retired hang watchdog's abort
// marker; a frame carrying one is refused.
wire_enum!(JobEvent, "bad event tag", {
    1 => SpeculativeLaunched {
        fop, index, attempt, exec, side_bytes_sent, side_bytes_saved, side_cache_misses
    },
    2 => TaskStarted { fop, index, attempt, exec },
    3 => TaskCommitted {
        fop, index, attempt, exec, speculative, bytes_pushed, preaggregated, cache_hit
    },
    4 => TaskFailed { fop, index, attempt, exec },
    5 => TaskReverted { fop, index },
    6 => ExecutorBlacklisted(exec),
    7 => StageCompleted(stage),
    8 => StageReopened { stage, recompute },
    9 => ContainerEvicted(exec),
    10 => ReservedFailed(exec),
    11 => ExecutorDeclaredDead(exec),
    12 => ContainerAdded(exec),
    13 => HeartbeatMissed(exec),
    14 => MessageRetransmitted { exec, to_master, seq },
    15 => MasterRecovered,
    16 => BlockAdmitted { exec, block, bytes, resident },
    17 => BlockSpilled { exec, block, bytes, raw_bytes, resident },
    18 => BlockLoaded { exec, block, bytes, resident },
    19 => BlockReleased { exec, block, bytes, resident },
    20 => BlockPinned { exec, block },
    21 => BlockUnpinned { exec, block },
    22 => StoreBudgetChanged { exec, budget },
    23 => PushDeferred { fop, index, exec, bytes },
    24 => PushResumed { fop, index, exec, bytes },
    25 => OomInjected { fop, index, attempt, exec },
    26 => CacheHit { exec, key, bytes },
    27 => CacheMiss { exec, key },
    34 => WalRecovered { frames_replayed, frames_truncated, snapshot_restored },
    35 => RunAborted { reason },
    37 => PoolQuiesced { in_flight },
    38 => PoolWorkerDetached { worker },
    39 => OutputDropped { fop, index, exec },
    40 => ExecutorDrained { exec },
    41 => TaskLaunched {
        fop, index, attempt, exec, side_bytes_sent, side_bytes_saved, side_cache_misses
    },
});

// ---------------------------------------------------------------------
// Records and snapshots
// ---------------------------------------------------------------------

/// The task table's durable form: `TaskTable::snapshot` writes it,
/// [`replay`] folds frames into it, `TaskTable::restart` reads it.
/// Appended periodically as a compacting snapshot so recovery replays a
/// bounded suffix, and the fallback target when interior corruption
/// invalidates the events after it. Every list is ascending.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalSnapshot {
    /// Next attempt id the master would issue.
    pub next_attempt: AttemptId,
    /// Attempts that had reported terminally (the idempotence log).
    pub completed_attempts: Vec<AttemptId>,
    /// Block location table: committed task → executors believed to hold
    /// its output; empty for an output that was dropped or lives only in
    /// the job sink.
    pub committed: Vec<(FopId, usize, Vec<ExecId>)>,
}

impl Wire for WalSnapshot {
    fn enc(&self, e: &mut Vec<u8>) {
        self.next_attempt.enc(e);
        self.completed_attempts.enc(e);
        self.committed.enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> DecodeResult<Self> {
        Ok(WalSnapshot {
            next_attempt: Wire::dec(d)?,
            completed_attempts: Wire::dec(d)?,
            committed: Wire::dec(d)?,
        })
    }
}

impl WalSnapshot {
    /// Folds one frame in. A snapshot replaces the state, keeping the
    /// higher attempt mark. A commit whose location set empties stays
    /// committed: whether a dataless output must be recomputed depends on
    /// its consumers, which the restarted table settles. Only
    /// `TaskReverted` un-commits.
    fn apply(&mut self, record: &WalRecord) {
        let event = match record {
            WalRecord::Snapshot(s) => {
                let next_attempt = self.next_attempt.max(s.next_attempt);
                *self = WalSnapshot {
                    next_attempt,
                    ..s.clone()
                };
                return;
            }
            WalRecord::Locations {
                fop,
                index,
                locations,
            } => {
                return match self.find(*fop, *index) {
                    Ok(at) => self.committed[at].2.clone_from(locations),
                    Err(at) => self.committed.insert(at, (*fop, *index, locations.clone())),
                }
            }
            WalRecord::Event { event, .. } => event,
        };
        match event {
            JobEvent::TaskLaunched { attempt, .. }
            | JobEvent::SpeculativeLaunched { attempt, .. } => {
                self.next_attempt = self.next_attempt.max(attempt.saturating_add(1));
            }
            JobEvent::TaskCommitted { attempt, .. } | JobEvent::TaskFailed { attempt, .. } => {
                self.next_attempt = self.next_attempt.max(attempt.saturating_add(1));
                if let Err(at) = self.completed_attempts.binary_search(attempt) {
                    self.completed_attempts.insert(at, *attempt);
                }
            }
            JobEvent::TaskReverted { fop, index } => {
                if let Ok(at) = self.find(*fop, *index) {
                    self.committed.remove(at);
                }
            }
            JobEvent::ContainerEvicted(x)
            | JobEvent::ReservedFailed(x)
            | JobEvent::ExecutorDeclaredDead(x) => {
                for (_, _, locations) in &mut self.committed {
                    locations.retain(|l| l != x);
                }
            }
            _ => {}
        }
    }

    fn find(&self, fop: FopId, index: usize) -> Result<usize, usize> {
        self.committed
            .binary_search_by_key(&(fop, index), |&(f, i, _)| (f, i))
    }
}

/// One durable record: what a frame's payload carries.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A journal event, with the stage the emitter attributed it to.
    Event {
        /// Stage of the event, when the emitter knew it.
        stage: Option<usize>,
        /// The event itself.
        event: JobEvent,
    },
    /// A compacting state snapshot.
    Snapshot(WalSnapshot),
    /// The authoritative location list of one committed task's output.
    /// Appended at commit, on deferred-push resume, and when a drain's
    /// copy lands, so the block location table reconstructs independently
    /// of how the commit-time push resolved.
    Locations {
        /// Producing fused operator.
        fop: FopId,
        /// Task index.
        index: usize,
        /// Executors holding the output.
        locations: Vec<ExecId>,
    },
}

/// A decoded frame: a record plus the header's inert stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// The header stamp (always 0 in a log this runtime wrote).
    pub epoch: u64,
    /// The payload.
    pub record: WalRecord,
}

/// Encodes one frame (magic, length, CRC, payload) ready to append.
pub fn encode_frame(epoch: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    let e = &mut payload;
    e.push(match record {
        WalRecord::Event { .. } => KIND_EVENT,
        WalRecord::Snapshot(_) => KIND_SNAPSHOT,
        WalRecord::Locations { .. } => KIND_LOCATIONS,
    });
    epoch.enc(e);
    match record {
        WalRecord::Event { stage, event } => {
            stage.enc(e);
            event.enc(e);
        }
        WalRecord::Snapshot(s) => s.enc(e),
        WalRecord::Locations {
            fop,
            index,
            locations,
        } => {
            fop.enc(e);
            index.enc(e);
            locations.enc(e);
        }
    }
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> DecodeResult<WalFrame> {
    let d = &mut Dec {
        bytes: payload,
        pos: 0,
    };
    let kind = d.u8()?;
    let epoch = Wire::dec(d)?;
    let record = match kind {
        KIND_EVENT => WalRecord::Event {
            stage: Wire::dec(d)?,
            event: Wire::dec(d)?,
        },
        KIND_SNAPSHOT => WalRecord::Snapshot(Wire::dec(d)?),
        KIND_LOCATIONS => WalRecord::Locations {
            fop: Wire::dec(d)?,
            index: Wire::dec(d)?,
            locations: Wire::dec(d)?,
        },
        _ => return Err("bad frame kind"),
    };
    d.done()?;
    Ok(WalFrame { epoch, record })
}

/// Tries to parse one frame at `pos`; `Ok` returns the frame and the
/// offset just past it.
fn parse_frame_at(bytes: &[u8], pos: usize) -> Option<(WalFrame, usize)> {
    if pos + 12 > bytes.len() {
        return None;
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if word(pos) != WAL_MAGIC {
        return None;
    }
    let len = word(pos + 4);
    if len > MAX_FRAME_LEN {
        return None;
    }
    let end = pos + 12 + len as usize;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[pos + 12..end];
    if crc32(payload) != word(pos + 8) {
        return None;
    }
    decode_payload(payload).ok().map(|f| (f, end))
}

// ---------------------------------------------------------------------
// Scan: longest valid prefix + corruption classification
// ---------------------------------------------------------------------

/// Result of scanning a (possibly damaged) WAL image.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The frames recovery replays: the full valid prefix for a clean or
    /// torn log, or the prefix up to (and including) the last snapshot
    /// when interior corruption invalidated the events after it.
    pub frames: Vec<WalFrame>,
    /// Byte length the file should be truncated to so the surviving log
    /// ends exactly at the last replayed frame.
    pub valid_len: u64,
    /// Frames discarded: the corrupt frame itself, parseable frames
    /// stranded beyond it, and (on snapshot fallback) valid prefix
    /// frames past the last snapshot.
    pub frames_truncated: usize,
    /// `true` when interior corruption forced the snapshot fallback.
    pub snapshot_restored: bool,
}

/// Parses the longest valid frame prefix of `bytes` and classifies the
/// damage past it (see the module docs for the torn-tail vs interior-
/// corruption distinction). Pure, so property tests can fuzz it without
/// touching the filesystem; never panics on arbitrary input.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut frames: Vec<WalFrame> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut pos = 0usize;
    while let Some((frame, end)) = parse_frame_at(bytes, pos) {
        frames.push(frame);
        ends.push(end);
        pos = end;
    }
    // Resync: hunt for a parseable frame beyond the damage (if any).
    // Finding one proves the corruption is interior (bit rot), not a torn
    // append.
    let mut stranded = 0usize;
    let mut search = pos + 1;
    while search + 12 <= bytes.len() {
        if let Some((_, mut at)) = parse_frame_at(bytes, search) {
            stranded += 1;
            while let Some((_, next)) = parse_frame_at(bytes, at) {
                stranded += 1;
                at = next;
            }
            if at >= bytes.len() {
                break;
            }
            search = at + 1;
        } else {
            search += 1;
        }
    }
    if stranded == 0 {
        // Clean (the log ends exactly at a frame boundary) or a torn tail:
        // truncate the garbage, if any, and keep the whole prefix.
        return WalScan {
            frames,
            valid_len: pos as u64,
            frames_truncated: usize::from(pos < bytes.len()),
            snapshot_restored: false,
        };
    }
    // Interior corruption: events between the last snapshot and the bad
    // frame may be an incomplete story — fall back to the snapshot.
    let last_snap = frames
        .iter()
        .rposition(|f| matches!(f.record, WalRecord::Snapshot(_)));
    let (kept, valid_len) = match last_snap {
        Some(i) => (i + 1, ends[i] as u64),
        None => (0, 0),
    };
    let dropped_prefix = frames.len() - kept;
    frames.truncate(kept);
    WalScan {
        frames,
        valid_len,
        frames_truncated: dropped_prefix + 1 + stranded,
        snapshot_restored: true,
    }
}

// ---------------------------------------------------------------------
// Replay: frames -> recovered master state
// ---------------------------------------------------------------------

/// What a scanned WAL recovers: the task table's durable form, plus the
/// recovery statistics the journal reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Every replayed frame folded into one snapshot.
    pub snapshot: WalSnapshot,
    /// Frames folded into the snapshot.
    pub frames_replayed: usize,
    /// Frames the scan discarded.
    pub frames_truncated: usize,
    /// Whether interior corruption forced the snapshot fallback.
    pub snapshot_restored: bool,
}

/// Folds scanned frames into the task-table state they describe.
pub fn replay(scan: &WalScan) -> RecoveredState {
    let mut snapshot = WalSnapshot::default();
    for frame in &scan.frames {
        snapshot.apply(&frame.record);
    }
    RecoveredState {
        snapshot,
        frames_replayed: scan.frames.len(),
        frames_truncated: scan.frames_truncated,
        snapshot_restored: scan.snapshot_restored,
    }
}

// ---------------------------------------------------------------------
// Seeded corruption (the chaos family's file-level faults)
// ---------------------------------------------------------------------

/// Seeded WAL-file corruption applied between crash and recovery:
/// deterministic bit flips and/or a truncation, the two failure shapes a
/// real disk + page cache produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalCorruption {
    /// Seed of the deterministic corruption draws.
    pub seed: u64,
    /// Per-byte probability of flipping one bit.
    pub bit_flip_prob: f64,
    /// Probability of truncating the file at a random offset.
    pub truncate_prob: f64,
}

/// Applies seeded corruption to a WAL image in place. Pure and
/// deterministic for a fixed seed: the draws are keyed by byte offsets
/// in the image (a file position, not an iteration counter), routed
/// through [`FaultInjector`].
pub fn inject_corruption(bytes: &mut Vec<u8>, c: &WalCorruption) {
    if bytes.is_empty() {
        return;
    }
    let inj = FaultInjector::new(c.seed);
    if c.truncate_prob > 0.0 && inj.wal_truncate().unit() < c.truncate_prob {
        let cut = (inj.wal_truncate_offset().hash() as usize) % bytes.len();
        bytes.truncate(cut);
    }
    if c.bit_flip_prob > 0.0 {
        for (i, b) in bytes.iter_mut().enumerate() {
            let d = inj.wal_bit_flip(i as u64);
            if d.unit() < c.bit_flip_prob {
                *b ^= 1 << d.index(8);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// Append-only WAL writer with simulated durability semantics: appends
/// buffer until [`WalWriter::sync`] (driven by the `wal_sync_every`
/// knob), and a crash loses the unsynced suffix — exactly what a page
/// cache would.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// The frame-header stamp's cell: nothing advances it (see the
    /// module docs); `perf/` passes one to [`WalWriter::create`].
    epoch: Arc<AtomicU64>,
    written_len: u64,
    synced_len: u64,
    sync_every: usize,
    appends_since_sync: usize,
    snapshot_every: usize,
    events_since_snapshot: usize,
    total_appends: u64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> RuntimeError {
    RuntimeError::Invariant(format!("wal {what} failed at {}: {e}", path.display()))
}

impl WalWriter {
    /// Creates (truncating) the log at `path`.
    pub fn create(
        path: &Path,
        epoch: Arc<AtomicU64>,
        sync_every: usize,
        snapshot_every: usize,
    ) -> Result<Self, RuntimeError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err("create-dir", path, e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, e))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file,
            epoch,
            written_len: 0,
            synced_len: 0,
            sync_every: sync_every.max(1),
            appends_since_sync: 0,
            snapshot_every: snapshot_every.max(1),
            events_since_snapshot: 0,
            total_appends: 0,
        })
    }

    /// The log's path (for dumps and artifacts).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames appended over the writer's lifetime (the crash family's
    /// append clock).
    pub fn total_appends(&self) -> u64 {
        self.total_appends
    }

    /// Whether enough events accumulated since the last snapshot that
    /// the master should compact.
    pub fn snapshot_due(&self) -> bool {
        self.events_since_snapshot >= self.snapshot_every
    }

    /// Appends one record; syncs when the `sync_every` knob says so.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), RuntimeError> {
        let bytes = encode_frame(self.epoch.load(Ordering::SeqCst), record);
        self.file
            .seek(SeekFrom::Start(self.written_len))
            .and_then(|_| self.file.write_all(&bytes))
            .map_err(|e| io_err("append", &self.path, e))?;
        self.written_len += bytes.len() as u64;
        self.total_appends += 1;
        self.appends_since_sync += 1;
        match record {
            WalRecord::Snapshot(_) => self.events_since_snapshot = 0,
            WalRecord::Event { .. } | WalRecord::Locations { .. } => {
                self.events_since_snapshot += 1;
            }
        }
        if self.appends_since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Makes everything appended so far durable.
    pub fn sync(&mut self) -> Result<(), RuntimeError> {
        self.file
            .flush()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.synced_len = self.written_len;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Simulates a master crash and recovers: the unsynced suffix is
    /// lost (truncated to the synced length), optional seeded corruption
    /// is applied to the surviving image, the image is scanned, and the
    /// file is truncated to the scan's recovery point so post-recovery
    /// appends continue a consistent log. Returns the replayed state.
    ///
    /// File-level only: the caller restarts its task table from the
    /// returned [`RecoveredState::snapshot`].
    pub fn crash_and_recover(
        &mut self,
        corruption: Option<&WalCorruption>,
    ) -> Result<RecoveredState, RuntimeError> {
        // Crash: the page cache (unsynced suffix) is gone.
        self.file
            .set_len(self.synced_len)
            .map_err(|e| io_err("crash-truncate", &self.path, e))?;
        let mut bytes = Vec::new();
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", &self.path, e))?;
        if let Some(c) = corruption {
            inject_corruption(&mut bytes, c);
            // Persist the damaged image so the on-disk artifact matches
            // what recovery actually saw.
            self.file
                .set_len(0)
                .and_then(|_| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
                .and_then(|_| self.file.write_all(&bytes))
                .map_err(|e| io_err("corrupt-write", &self.path, e))?;
        }
        let scanned = scan(&bytes);
        let state = replay(&scanned);
        self.file
            .set_len(scanned.valid_len)
            .map_err(|e| io_err("recover-truncate", &self.path, e))?;
        self.file
            .flush()
            .map_err(|e| io_err("recover-sync", &self.path, e))?;
        self.written_len = scanned.valid_len;
        self.synced_len = scanned.valid_len;
        self.appends_since_sync = 0;
        self.events_since_snapshot = 0;
        Ok(state)
    }

    /// Renders a human-readable dump of the on-disk log (frame kinds,
    /// event one-liners, scan classification) — the CI artifact
    /// accompanying a recovered run's Chrome trace.
    pub fn dump(&mut self) -> Result<String, RuntimeError> {
        let mut bytes = Vec::new();
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(dump_image(&bytes, &self.path.display().to_string()))
    }
}

/// Renders a WAL image as a human-readable listing.
pub fn dump_image(bytes: &[u8], label: &str) -> String {
    let scanned = scan(bytes);
    let mut out = String::new();
    let _ = writeln!(out, "wal dump: {label} ({} bytes)", bytes.len());
    for (i, frame) in scanned.frames.iter().enumerate() {
        let body = match &frame.record {
            WalRecord::Event { stage, event } => {
                let s = stage.map_or("--".to_string(), |s| format!("s{s}"));
                format!("event    {s}  {event:?}")
            }
            WalRecord::Snapshot(s) => format!(
                "snapshot next-attempt {} committed {} attempts {}",
                s.next_attempt,
                s.committed.len(),
                s.completed_attempts.len()
            ),
            WalRecord::Locations {
                fop,
                index,
                locations,
            } => format!("locations t{fop}.{index} -> {locations:?}"),
        };
        let _ = writeln!(out, "{i:>5}  {body}");
    }
    let _ = writeln!(
        out,
        "scan: {} frames replayable, {} truncated, valid {} bytes{}",
        scanned.frames.len(),
        scanned.frames_truncated,
        scanned.valid_len,
        if scanned.snapshot_restored {
            " (interior corruption: snapshot fallback)"
        } else {
            ""
        }
    );
    out
}

/// A collision-free temp path for WAL files in tests and benches.
pub fn temp_wal_path(tag: &str) -> PathBuf {
    static WAL_FILE_ID: AtomicU64 = AtomicU64::new(0);
    let id = WAL_FILE_ID.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pado-wal-{}-{tag}-{id}.wal", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise CRC32 the table is built from: the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #[test]
        fn crc32_table_matches_the_bitwise_loop(
            data in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    fn ev(attempt: AttemptId) -> WalRecord {
        WalRecord::Event {
            stage: Some(1),
            event: JobEvent::TaskCommitted {
                fop: 2,
                index: 3,
                attempt,
                exec: 4,
                speculative: false,
                bytes_pushed: 17,
                preaggregated: 0,
                cache_hit: true,
            },
        }
    }

    fn snap() -> WalRecord {
        WalRecord::Snapshot(WalSnapshot {
            next_attempt: 9,
            completed_attempts: vec![1, 2, 3],
            committed: vec![(0, 0, vec![1]), (1, 2, vec![0, 3])],
        })
    }

    #[test]
    fn frame_round_trips() {
        for record in [
            ev(7),
            snap(),
            WalRecord::Locations {
                fop: 1,
                index: 2,
                locations: vec![3, 4],
            },
            WalRecord::Event {
                stage: None,
                event: JobEvent::ExecutorDrained { exec: 3 },
            },
            WalRecord::Event {
                stage: Some(0),
                event: JobEvent::WalRecovered {
                    frames_replayed: 10,
                    frames_truncated: 2,
                    snapshot_restored: true,
                },
            },
            WalRecord::Event {
                stage: Some(1),
                event: JobEvent::OutputDropped {
                    fop: 3,
                    index: 9,
                    exec: 4,
                },
            },
        ] {
            let bytes = encode_frame(5, &record);
            let scanned = scan(&bytes);
            assert_eq!(scanned.frames.len(), 1);
            assert_eq!(scanned.frames[0].epoch, 5);
            assert_eq!(scanned.frames[0].record, record);
            assert_eq!(scanned.valid_len, bytes.len() as u64);
            assert_eq!(scanned.frames_truncated, 0);
        }
    }

    /// One sample of every `JobEvent` variant, covering between them
    /// both `BlockRef` shapes.
    #[allow(clippy::too_many_lines)]
    fn every_event() -> Vec<JobEvent> {
        use JobEvent::*;
        let (fop, index, attempt, exec, bytes, resident) = (3, 5, 1 << 40, 7, 4096, 1 << 20);
        let output = BlockRef::Output { fop, index };
        let bucket = BlockRef::Bucket {
            fop,
            index,
            dst_par: 8,
            dst: 2,
        };
        vec![
            TaskLaunched {
                fop,
                index,
                attempt,
                exec,
                side_bytes_sent: 11,
                side_bytes_saved: 12,
                side_cache_misses: 13,
            },
            SpeculativeLaunched {
                fop,
                index,
                attempt,
                exec,
                side_bytes_sent: 14,
                side_bytes_saved: 15,
                side_cache_misses: 16,
            },
            TaskStarted {
                fop,
                index,
                attempt,
                exec,
            },
            TaskCommitted {
                fop,
                index,
                attempt,
                exec,
                speculative: true,
                bytes_pushed: 17,
                preaggregated: 18,
                cache_hit: false,
            },
            TaskFailed {
                fop,
                index,
                attempt,
                exec,
            },
            TaskReverted { fop, index },
            ExecutorBlacklisted(exec),
            StageCompleted(2),
            StageReopened {
                stage: 2,
                recompute: true,
            },
            ContainerEvicted(exec),
            ReservedFailed(exec),
            ExecutorDeclaredDead(exec),
            ContainerAdded(exec),
            HeartbeatMissed(exec),
            MessageRetransmitted {
                exec,
                to_master: true,
                seq: 19,
            },
            MasterRecovered,
            BlockAdmitted {
                exec,
                block: output,
                bytes,
                resident,
            },
            BlockSpilled {
                exec,
                block: bucket,
                bytes,
                raw_bytes: 9000,
                resident,
            },
            BlockLoaded {
                exec,
                block: bucket,
                bytes,
                resident,
            },
            BlockReleased {
                exec,
                block: output,
                bytes,
                resident,
            },
            BlockPinned {
                exec,
                block: bucket,
            },
            BlockUnpinned {
                exec,
                block: output,
            },
            StoreBudgetChanged { exec, budget: 20 },
            PushDeferred {
                fop,
                index,
                exec,
                bytes,
            },
            PushResumed {
                fop,
                index,
                exec,
                bytes,
            },
            OomInjected {
                fop,
                index,
                attempt,
                exec,
            },
            CacheHit {
                exec,
                key: 21,
                bytes,
            },
            CacheMiss { exec, key: 22 },
            WalRecovered {
                frames_replayed: 27,
                frames_truncated: 28,
                snapshot_restored: true,
            },
            RunAborted {
                reason: String::new(),
            },
            PoolQuiesced { in_flight: 30 },
            PoolWorkerDetached { worker: 31 },
            OutputDropped { fop, index, exec },
            ExecutorDrained { exec },
        ]
    }

    /// The tag a variant has always had on the wire. No wildcard: a new
    /// variant does not compile until it has an arm here, and
    /// `every_wire_form_is_pinned` fails until `every_event` samples it.
    fn pinned_tag(event: &JobEvent) -> u8 {
        match event {
            JobEvent::SpeculativeLaunched { .. } => 1,
            JobEvent::TaskStarted { .. } => 2,
            JobEvent::TaskCommitted { .. } => 3,
            JobEvent::TaskFailed { .. } => 4,
            JobEvent::TaskReverted { .. } => 5,
            JobEvent::ExecutorBlacklisted(_) => 6,
            JobEvent::StageCompleted(_) => 7,
            JobEvent::StageReopened { .. } => 8,
            JobEvent::ContainerEvicted(_) => 9,
            JobEvent::ReservedFailed(_) => 10,
            JobEvent::ExecutorDeclaredDead(_) => 11,
            JobEvent::ContainerAdded(_) => 12,
            JobEvent::HeartbeatMissed(_) => 13,
            JobEvent::MessageRetransmitted { .. } => 14,
            JobEvent::MasterRecovered => 15,
            JobEvent::BlockAdmitted { .. } => 16,
            JobEvent::BlockSpilled { .. } => 17,
            JobEvent::BlockLoaded { .. } => 18,
            JobEvent::BlockReleased { .. } => 19,
            JobEvent::BlockPinned { .. } => 20,
            JobEvent::BlockUnpinned { .. } => 21,
            JobEvent::StoreBudgetChanged { .. } => 22,
            JobEvent::PushDeferred { .. } => 23,
            JobEvent::PushResumed { .. } => 24,
            JobEvent::OomInjected { .. } => 25,
            JobEvent::CacheHit { .. } => 26,
            JobEvent::CacheMiss { .. } => 27,
            JobEvent::WalRecovered { .. } => 34,
            JobEvent::RunAborted { .. } => 35,
            JobEvent::PoolQuiesced { .. } => 37,
            JobEvent::PoolWorkerDetached { .. } => 38,
            JobEvent::OutputDropped { .. } => 39,
            JobEvent::ExecutorDrained { .. } => 40,
            JobEvent::TaskLaunched { .. } => 41,
        }
    }

    /// Every layout the log can hold, pinned byte for byte. The length
    /// and FNV-1a below were re-recorded when `TaskLaunched` lost its
    /// relaunch flag (tag 0 retired, 41 added) and the snapshot its
    /// first-launch rows (every other row was checked byte-identical
    /// against the encoder of commit `420373f` first), and again when
    /// `RunStalled` left (tag 36 retired; every remaining event's frame,
    /// with and without a stage, is byte-identical to the encoder of
    /// commit `c2fdfce`). A change here is a format change.
    #[test]
    fn every_wire_form_is_pinned() {
        let mut records: Vec<WalRecord> = Vec::new();
        let mut tags = std::collections::BTreeSet::new();
        for (n, event) in every_event().into_iter().enumerate() {
            let tag = pinned_tag(&event);
            let stage = (n % 2 == 1).then_some(n);
            let record = WalRecord::Event { stage, event };
            // magic, len, crc, kind, epoch, the stage option, then the tag.
            let at = 12 + 1 + 8 + if stage.is_some() { 9 } else { 1 };
            assert_eq!(encode_frame(0, &record)[at], tag, "{record:?}");
            tags.insert(tag);
            records.push(record);
        }
        let live: std::collections::BTreeSet<u8> = (1..28).chain([34, 35]).chain(37..42).collect();
        assert_eq!(tags, live, "a variant has no sample");
        records.push(WalRecord::Snapshot(WalSnapshot {
            next_attempt: 1 << 33,
            completed_attempts: vec![],
            committed: vec![(4, 0, vec![]), (4, 1, vec![2, 9])],
        }));
        for locations in [vec![], vec![6, 1, 300]] {
            records.push(WalRecord::Locations {
                fop: 4,
                index: 1,
                locations,
            });
        }

        let image: Vec<u8> = records
            .iter()
            .enumerate()
            .flat_map(|(n, r)| encode_frame(n as u64 / 10, r))
            .collect();
        let scanned = scan(&image);
        assert_eq!(
            (scanned.valid_len, scanned.frames_truncated),
            (image.len() as u64, 0)
        );
        assert_eq!(scanned.frames.len(), records.len());
        for (n, (frame, record)) in scanned.frames.iter().zip(&records).enumerate() {
            assert_eq!((frame.epoch, &frame.record), (n as u64 / 10, record));
        }
        let fnv1a = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (image.len(), fnv1a),
            (1960, 0x0a7f_e32d_2671_a7a4),
            "the image moved"
        );
    }

    /// What a decoder refused before the wire forms moved into one table
    /// per type it still refuses, for the same reason (`usize overflow`
    /// cannot occur where `usize` is 64 bits wide).
    #[test]
    fn decoders_refuse_what_they_always_refused() {
        let le = |v: u64| v.to_le_bytes().to_vec();
        // A payload is kind, epoch, body.
        let refusal = |kind: u8, body: Vec<Vec<u8>>| {
            let payload = [vec![kind], le(0), body.concat()].concat();
            decode_payload(&payload).expect_err("refused")
        };
        let event = |body: Vec<Vec<u8>>| refusal(KIND_EVENT, [vec![vec![0]], body].concat());
        assert_eq!(refusal(9, vec![]), "bad frame kind");
        assert_eq!(refusal(KIND_EVENT, vec![vec![2]]), "bad option tag");
        assert_eq!(event(vec![vec![42]]), "bad event tag");
        // Retired tags are refused, not mis-decoded: e.g. what used to be
        // a well-formed epoch advance, tag 32, a stall marker, tag 36, or
        // a flagged launch, tag 0.
        for retired in (28..=33).chain([36]) {
            assert_eq!(event(vec![vec![retired], le(1)]), "bad event tag");
        }
        let flagged_launch = [
            vec![0],
            le(3),
            le(5),
            le(1),
            le(7),
            vec![1],
            le(0),
            le(0),
            le(0),
        ];
        assert_eq!(event(flagged_launch.to_vec()), "bad event tag");
        // StageReopened { stage: 1, recompute: 2 }
        assert_eq!(event(vec![vec![8], le(1), vec![2]]), "bad bool");
        // BlockPinned { exec: 1, block: 2.. }
        assert_eq!(event(vec![vec![20], le(1), vec![2]]), "bad block-ref tag");
        // RunAborted { reason }
        assert_eq!(event(vec![vec![35], le(5), vec![b'x']]), "string underrun");
        assert_eq!(event(vec![vec![35], le(1), vec![0xFF]]), "bad utf8");
        // TaskReverted { fop: 1 } and no index; MasterRecovered and a byte.
        assert_eq!(event(vec![vec![5], le(1)]), "payload underrun");
        assert_eq!(event(vec![vec![15, 0]]), "trailing payload bytes");
        let too_many = vec![le(0), le(0), le((1 << 22) + 1)];
        assert_eq!(
            refusal(KIND_LOCATIONS, too_many),
            "implausible collection length"
        );
    }

    #[test]
    fn torn_tail_truncates_to_prefix() {
        let mut bytes = encode_frame(0, &ev(1));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_frame(0, &ev(2))[..7]); // torn append
        let scanned = scan(&bytes);
        assert_eq!(scanned.frames.len(), 1);
        assert_eq!(scanned.valid_len, first as u64);
        assert_eq!(scanned.frames_truncated, 1);
        assert!(!scanned.snapshot_restored);
    }

    #[test]
    fn interior_corruption_falls_back_to_snapshot() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(0, &snap()));
        let snap_end = bytes.len();
        bytes.extend_from_slice(&encode_frame(0, &ev(5)));
        let corrupt_at = bytes.len() - 3;
        bytes.extend_from_slice(&encode_frame(0, &ev(6)));
        bytes[corrupt_at] ^= 0xFF; // bit rot inside the middle frame
        let scanned = scan(&bytes);
        assert!(scanned.snapshot_restored);
        assert_eq!(scanned.frames.len(), 1, "only the snapshot survives");
        assert_eq!(scanned.valid_len, snap_end as u64);
        // The corrupt frame + the stranded good frame behind it.
        assert_eq!(scanned.frames_truncated, 2);
    }

    #[test]
    fn replay_folds_snapshot_then_events() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(1, &snap()));
        bytes.extend_from_slice(&encode_frame(1, &ev(50)));
        bytes.extend_from_slice(&encode_frame(
            1,
            &WalRecord::Locations {
                fop: 2,
                index: 3,
                locations: vec![4],
            },
        ));
        bytes.extend_from_slice(&encode_frame(
            2,
            &WalRecord::Event {
                stage: None,
                event: JobEvent::ContainerEvicted(1),
            },
        ));
        let state = replay(&scan(&bytes));
        // Exec 1 evicted: (0,0)'s only copy is gone, but the commit
        // stands until a revert says otherwise; (1,2) kept its copies on
        // execs 0 and 3.
        assert_eq!(
            state.snapshot,
            WalSnapshot {
                next_attempt: 51,
                completed_attempts: vec![1, 2, 3, 50],
                committed: vec![(0, 0, vec![]), (1, 2, vec![0, 3]), (2, 3, vec![4])],
            }
        );
        assert_eq!(state.frames_replayed, 4);
        // A later snapshot replaces the fold but never lowers the mark.
        bytes.extend_from_slice(&encode_frame(0, &snap()));
        let state = replay(&scan(&bytes));
        assert_eq!(state.snapshot.next_attempt, 51);
        assert_eq!(state.snapshot.committed.len(), 2);
    }

    /// There is one durable form: replaying what the master logs while
    /// evictions drop some outputs and revert others folds to exactly the
    /// table's own snapshot (attempt mark, completed set, commits).
    #[test]
    fn replay_and_the_task_table_agree_on_commits_across_drops() {
        use crate::runtime::tasks::{Attempt, Report, TaskTable};
        use pado_dag::DepType;

        // 0 -> 1 -> 2 (terminal), one-to-one, two tasks each.
        let one = |dst| vec![(dst, DepType::OneToOne)];
        let mut table = TaskTable::new(&[2; 3], vec![one(1), one(2), vec![]]);
        let mut log: Vec<WalRecord> = vec![WalRecord::Snapshot(table.snapshot())];
        let event = |event| WalRecord::Event { stage: None, event };
        // Lane 0 is through fop 1; lane 1 only through fop 0.
        for (fop, index, exec) in [(0, 0, 5), (0, 1, 6), (1, 0, 7)] {
            let attempt = table.begin(Attempt {
                fop,
                index,
                exec,
                launched_at: std::time::Instant::now(),
                speculative: false,
                pins: Vec::new(),
            });
            log.push(event(JobEvent::TaskLaunched {
                fop,
                index,
                attempt,
                exec,
                side_bytes_sent: 0,
                side_bytes_saved: 0,
                side_cache_misses: 0,
            }));
            assert!(matches!(table.report(attempt), Report::Current(_)));
            table.commit(fop, index, vec![exec]);
            log.push(event(JobEvent::TaskCommitted {
                fop,
                index,
                attempt,
                exec,
                speculative: false,
                bytes_pushed: 0,
                preaggregated: 0,
                cache_hit: false,
            }));
            log.push(WalRecord::Locations {
                fop,
                index,
                locations: vec![exec],
            });
        }
        for exec in [5, 6] {
            log.push(event(JobEvent::ContainerEvicted(exec)));
            let lost = table.executor_lost(exec);
            for (fop, index) in lost.reverted {
                log.push(event(JobEvent::TaskReverted { fop, index }));
            }
            for (fop, index) in lost.dropped {
                log.push(event(JobEvent::OutputDropped { fop, index, exec }));
            }
        }
        assert!(
            log.contains(&event(JobEvent::OutputDropped {
                fop: 0,
                index: 0,
                exec: 5
            })) && log.contains(&event(JobEvent::TaskReverted { fop: 0, index: 1 })),
            "0.0 fed a committed consumer, 0.1 a pending one: {log:?}"
        );

        let bytes: Vec<u8> = log.iter().flat_map(|r| encode_frame(0, r)).collect();
        let live = table.snapshot();
        assert_eq!(replay(&scan(&bytes)).snapshot, live);
        assert_eq!(live.committed, vec![(0, 0, vec![]), (1, 0, vec![7])]);
        assert_eq!(
            (live.next_attempt, &live.completed_attempts[..]),
            (4, &[1, 2, 3][..])
        );
    }

    #[test]
    fn writer_sync_gates_durability() {
        let path = temp_wal_path("sync-gate");
        let epoch = Arc::new(AtomicU64::new(0));
        let mut w = WalWriter::create(&path, epoch, 100, 100).expect("create");
        w.append(&ev(1)).expect("append");
        w.append(&ev(2)).expect("append");
        // Nothing synced: a crash loses both frames.
        let state = w.crash_and_recover(None).expect("recover");
        assert_eq!(state.frames_replayed, 0);
        w.append(&ev(3)).expect("append");
        w.sync().expect("sync");
        w.append(&ev(4)).expect("append");
        let state = w.crash_and_recover(None).expect("recover");
        assert_eq!(state.frames_replayed, 1, "synced frame survives");
        assert_eq!(state.snapshot.completed_attempts, vec![3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_snapshot_clock() {
        let path = temp_wal_path("snap-clock");
        let epoch = Arc::new(AtomicU64::new(0));
        let mut w = WalWriter::create(&path, epoch, 1, 2).expect("create");
        assert!(!w.snapshot_due());
        w.append(&ev(1)).expect("append");
        w.append(&ev(2)).expect("append");
        assert!(w.snapshot_due());
        w.append(&snap()).expect("append");
        assert!(!w.snapshot_due(), "snapshot resets the clock");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_injection_is_deterministic_and_survivable() {
        let mut bytes = Vec::new();
        for a in 0..20 {
            bytes.extend_from_slice(&encode_frame(0, &ev(a)));
        }
        let c = WalCorruption {
            seed: 42,
            bit_flip_prob: 0.01,
            truncate_prob: 0.5,
        };
        let mut a = bytes.clone();
        let mut b = bytes.clone();
        inject_corruption(&mut a, &c);
        inject_corruption(&mut b, &c);
        assert_eq!(a, b, "same seed, same damage");
        let scanned = scan(&a); // must not panic, whatever happened
        assert!(scanned.valid_len as usize <= a.len());
    }

    #[test]
    fn dump_renders_frames_and_scan_line() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(0, &snap()));
        bytes.extend_from_slice(&encode_frame(0, &ev(1)));
        let text = dump_image(&bytes, "test");
        assert!(text.contains("snapshot next-attempt 9"));
        assert!(text.contains("event"));
        assert!(text.contains("2 frames replayable, 0 truncated"));
    }
}
