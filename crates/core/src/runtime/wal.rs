//! Durable write-ahead log for the master's control-plane state.
//!
//! Pado deliberately refuses to checkpoint intermediate *data* — blocks
//! live in executor stores and are recomputed on loss — but the master's
//! scheduling decisions must survive a master crash at any instruction
//! boundary. Because master state is already a pure function of the
//! event journal (PR 4), durability is a persistence-and-replay
//! exercise: every [`JobEvent`] the master emits is appended to an
//! on-disk log as a length-prefixed, CRC-checksummed, epoch-stamped
//! frame, interleaved with periodic compacting snapshots of the derived
//! state ([`WalSnapshot`]) and with dedicated block-location records
//! (the location table is reconstructable independently of scheduler
//! state, following Whiz/F²).
//!
//! # Frame format
//!
//! ```text
//! [magic u32 LE][len u32 LE][crc u32 LE][payload: len bytes]
//! payload = [kind u8][epoch u64 LE][body]
//! ```
//!
//! `crc` covers the payload only. `kind` is 1 for an event frame, 2 for
//! a snapshot, 3 for a location record. `epoch` is the reconfiguration
//! epoch at append time, so recovery can restore the fencing horizon
//! even when the epoch-advancing events themselves were compacted away.
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
//! (`next_attempt` jumps past everything ever issued) and epoch fencing
//! (the epoch never regresses past the recovered stamp) make any frame
//! from the discarded suffix harmlessly rejectable.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compiler::{FopId, Placement};
use crate::error::RuntimeError;
use crate::runtime::fault::FaultInjector;
use crate::runtime::journal::JobEvent;
use crate::runtime::message::{AttemptId, ExecId};
use crate::runtime::reconfig::{ReconfigChange, ReconfigTrigger};
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
// CRC32 (IEEE, bitwise — the log is control-plane-sized, not a hot path)
// ---------------------------------------------------------------------

fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Byte codec (hand-rolled little-endian; the repo carries no serde)
// ---------------------------------------------------------------------

type DecodeResult<T> = Result<T, &'static str>;

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

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

    fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bad bool"),
        }
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn usize(&mut self) -> DecodeResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| "usize overflow")
    }

    fn str(&mut self) -> DecodeResult<String> {
        let n = self.usize()?;
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err("string underrun");
        }
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| "bad utf8")
    }

    fn opt_usize(&mut self) -> DecodeResult<Option<usize>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            _ => Err("bad option tag"),
        }
    }

    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing payload bytes")
        }
    }
}

fn enc_block_ref(e: &mut Enc, b: &BlockRef) {
    match b {
        BlockRef::Output { fop, index } => {
            e.u8(0);
            e.usize(*fop);
            e.usize(*index);
        }
        BlockRef::Bucket {
            fop,
            index,
            dst_par,
            dst,
        } => {
            e.u8(1);
            e.usize(*fop);
            e.usize(*index);
            e.usize(*dst_par);
            e.usize(*dst);
        }
    }
}

fn dec_block_ref(d: &mut Dec<'_>) -> DecodeResult<BlockRef> {
    match d.u8()? {
        0 => Ok(BlockRef::Output {
            fop: d.usize()?,
            index: d.usize()?,
        }),
        1 => Ok(BlockRef::Bucket {
            fop: d.usize()?,
            index: d.usize()?,
            dst_par: d.usize()?,
            dst: d.usize()?,
        }),
        _ => Err("bad block-ref tag"),
    }
}

fn enc_placement(e: &mut Enc, p: Placement) {
    e.u8(match p {
        Placement::Transient => 0,
        Placement::Reserved => 1,
    });
}

fn dec_placement(d: &mut Dec<'_>) -> DecodeResult<Placement> {
    match d.u8()? {
        0 => Ok(Placement::Transient),
        1 => Ok(Placement::Reserved),
        _ => Err("bad placement tag"),
    }
}

fn enc_change(e: &mut Enc, c: &ReconfigChange) {
    match c {
        ReconfigChange::MigrateStage { stage, to } => {
            e.u8(0);
            e.usize(*stage);
            enc_placement(e, *to);
        }
        ReconfigChange::Repartition { fop, parallelism } => {
            e.u8(1);
            e.usize(*fop);
            e.usize(*parallelism);
        }
        ReconfigChange::DrainTransient { nth } => {
            e.u8(2);
            e.usize(*nth);
        }
    }
}

fn dec_change(d: &mut Dec<'_>) -> DecodeResult<ReconfigChange> {
    match d.u8()? {
        0 => Ok(ReconfigChange::MigrateStage {
            stage: d.usize()?,
            to: dec_placement(d)?,
        }),
        1 => Ok(ReconfigChange::Repartition {
            fop: d.usize()?,
            parallelism: d.usize()?,
        }),
        2 => Ok(ReconfigChange::DrainTransient { nth: d.usize()? }),
        _ => Err("bad reconfig-change tag"),
    }
}

fn enc_trigger(e: &mut Enc, t: ReconfigTrigger) {
    e.u8(match t {
        ReconfigTrigger::Api => 0,
        ReconfigTrigger::Policy => 1,
        ReconfigTrigger::Chaos => 2,
    });
}

fn dec_trigger(d: &mut Dec<'_>) -> DecodeResult<ReconfigTrigger> {
    match d.u8()? {
        0 => Ok(ReconfigTrigger::Api),
        1 => Ok(ReconfigTrigger::Policy),
        2 => Ok(ReconfigTrigger::Chaos),
        _ => Err("bad trigger tag"),
    }
}

#[allow(clippy::too_many_lines)]
fn enc_event(e: &mut Enc, ev: &JobEvent) {
    match ev {
        JobEvent::TaskLaunched {
            fop,
            index,
            attempt,
            exec,
            relaunch,
            side_bytes_sent,
            side_bytes_saved,
            side_cache_misses,
        } => {
            e.u8(0);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
            e.bool(*relaunch);
            e.usize(*side_bytes_sent);
            e.usize(*side_bytes_saved);
            e.usize(*side_cache_misses);
        }
        JobEvent::SpeculativeLaunched {
            fop,
            index,
            attempt,
            exec,
            side_bytes_sent,
            side_bytes_saved,
            side_cache_misses,
        } => {
            e.u8(1);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
            e.usize(*side_bytes_sent);
            e.usize(*side_bytes_saved);
            e.usize(*side_cache_misses);
        }
        JobEvent::TaskStarted {
            fop,
            index,
            attempt,
            exec,
        } => {
            e.u8(2);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
        }
        JobEvent::TaskCommitted {
            fop,
            index,
            attempt,
            exec,
            speculative,
            bytes_pushed,
            preaggregated,
            cache_hit,
        } => {
            e.u8(3);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
            e.bool(*speculative);
            e.usize(*bytes_pushed);
            e.usize(*preaggregated);
            e.bool(*cache_hit);
        }
        JobEvent::TaskFailed {
            fop,
            index,
            attempt,
            exec,
        } => {
            e.u8(4);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
        }
        JobEvent::TaskReverted { fop, index } => {
            e.u8(5);
            e.usize(*fop);
            e.usize(*index);
        }
        JobEvent::ExecutorBlacklisted(x) => {
            e.u8(6);
            e.usize(*x);
        }
        JobEvent::StageCompleted(s) => {
            e.u8(7);
            e.usize(*s);
        }
        JobEvent::StageReopened { stage, recompute } => {
            e.u8(8);
            e.usize(*stage);
            e.bool(*recompute);
        }
        JobEvent::ContainerEvicted(x) => {
            e.u8(9);
            e.usize(*x);
        }
        JobEvent::ReservedFailed(x) => {
            e.u8(10);
            e.usize(*x);
        }
        JobEvent::ExecutorDeclaredDead(x) => {
            e.u8(11);
            e.usize(*x);
        }
        JobEvent::ContainerAdded(x) => {
            e.u8(12);
            e.usize(*x);
        }
        JobEvent::HeartbeatMissed(x) => {
            e.u8(13);
            e.usize(*x);
        }
        JobEvent::MessageRetransmitted {
            exec,
            to_master,
            seq,
        } => {
            e.u8(14);
            e.usize(*exec);
            e.bool(*to_master);
            e.u64(*seq);
        }
        JobEvent::MasterRecovered => e.u8(15),
        JobEvent::BlockAdmitted {
            exec,
            block,
            bytes,
            resident,
        } => {
            e.u8(16);
            e.usize(*exec);
            enc_block_ref(e, block);
            e.usize(*bytes);
            e.usize(*resident);
        }
        JobEvent::BlockSpilled {
            exec,
            block,
            bytes,
            raw_bytes,
            resident,
        } => {
            e.u8(17);
            e.usize(*exec);
            enc_block_ref(e, block);
            e.usize(*bytes);
            e.usize(*raw_bytes);
            e.usize(*resident);
        }
        JobEvent::BlockLoaded {
            exec,
            block,
            bytes,
            resident,
        } => {
            e.u8(18);
            e.usize(*exec);
            enc_block_ref(e, block);
            e.usize(*bytes);
            e.usize(*resident);
        }
        JobEvent::BlockReleased {
            exec,
            block,
            bytes,
            resident,
        } => {
            e.u8(19);
            e.usize(*exec);
            enc_block_ref(e, block);
            e.usize(*bytes);
            e.usize(*resident);
        }
        JobEvent::BlockPinned { exec, block } => {
            e.u8(20);
            e.usize(*exec);
            enc_block_ref(e, block);
        }
        JobEvent::BlockUnpinned { exec, block } => {
            e.u8(21);
            e.usize(*exec);
            enc_block_ref(e, block);
        }
        JobEvent::StoreBudgetChanged { exec, budget } => {
            e.u8(22);
            e.usize(*exec);
            e.usize(*budget);
        }
        JobEvent::PushDeferred {
            fop,
            index,
            exec,
            bytes,
        } => {
            e.u8(23);
            e.usize(*fop);
            e.usize(*index);
            e.usize(*exec);
            e.usize(*bytes);
        }
        JobEvent::PushResumed {
            fop,
            index,
            exec,
            bytes,
        } => {
            e.u8(24);
            e.usize(*fop);
            e.usize(*index);
            e.usize(*exec);
            e.usize(*bytes);
        }
        JobEvent::OomInjected {
            fop,
            index,
            attempt,
            exec,
        } => {
            e.u8(25);
            e.usize(*fop);
            e.usize(*index);
            e.u64(*attempt);
            e.usize(*exec);
        }
        JobEvent::CacheHit { exec, key, bytes } => {
            e.u8(26);
            e.usize(*exec);
            e.usize(*key);
            e.usize(*bytes);
        }
        JobEvent::CacheMiss { exec, key } => {
            e.u8(27);
            e.usize(*exec);
            e.usize(*key);
        }
        JobEvent::ReconfigRequested {
            reconfig,
            trigger,
            change,
        } => {
            e.u8(28);
            e.u64(*reconfig);
            enc_trigger(e, *trigger);
            enc_change(e, change);
        }
        JobEvent::ReconfigPrepared { reconfig, quiesced } => {
            e.u8(29);
            e.u64(*reconfig);
            e.usize(*quiesced);
        }
        JobEvent::ReconfigCommitted {
            reconfig,
            change,
            epoch,
        } => {
            e.u8(30);
            e.u64(*reconfig);
            enc_change(e, change);
            e.u64(*epoch);
        }
        JobEvent::ReconfigAborted { reconfig, reason } => {
            e.u8(31);
            e.u64(*reconfig);
            e.str(reason);
        }
        JobEvent::EpochAdvanced { epoch } => {
            e.u8(32);
            e.u64(*epoch);
        }
        JobEvent::StaleFrameFenced { exec, seq, epoch } => {
            e.u8(33);
            e.usize(*exec);
            e.u64(*seq);
            e.u64(*epoch);
        }
        JobEvent::WalRecovered {
            frames_replayed,
            frames_truncated,
            snapshot_restored,
        } => {
            e.u8(34);
            e.usize(*frames_replayed);
            e.usize(*frames_truncated);
            e.bool(*snapshot_restored);
        }
        JobEvent::RunAborted { reason } => {
            e.u8(35);
            e.str(reason);
        }
        JobEvent::RunStalled { waited_ms } => {
            e.u8(36);
            e.u64(*waited_ms);
        }
        JobEvent::PoolQuiesced { in_flight } => {
            e.u8(37);
            e.usize(*in_flight);
        }
        JobEvent::PoolWorkerDetached { worker } => {
            e.u8(38);
            e.usize(*worker);
        }
        JobEvent::OutputDropped { fop, index, exec } => {
            e.u8(39);
            e.usize(*fop);
            e.usize(*index);
            e.usize(*exec);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn dec_event(d: &mut Dec<'_>) -> DecodeResult<JobEvent> {
    Ok(match d.u8()? {
        0 => JobEvent::TaskLaunched {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
            relaunch: d.bool()?,
            side_bytes_sent: d.usize()?,
            side_bytes_saved: d.usize()?,
            side_cache_misses: d.usize()?,
        },
        1 => JobEvent::SpeculativeLaunched {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
            side_bytes_sent: d.usize()?,
            side_bytes_saved: d.usize()?,
            side_cache_misses: d.usize()?,
        },
        2 => JobEvent::TaskStarted {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
        },
        3 => JobEvent::TaskCommitted {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
            speculative: d.bool()?,
            bytes_pushed: d.usize()?,
            preaggregated: d.usize()?,
            cache_hit: d.bool()?,
        },
        4 => JobEvent::TaskFailed {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
        },
        5 => JobEvent::TaskReverted {
            fop: d.usize()?,
            index: d.usize()?,
        },
        6 => JobEvent::ExecutorBlacklisted(d.usize()?),
        7 => JobEvent::StageCompleted(d.usize()?),
        8 => JobEvent::StageReopened {
            stage: d.usize()?,
            recompute: d.bool()?,
        },
        9 => JobEvent::ContainerEvicted(d.usize()?),
        10 => JobEvent::ReservedFailed(d.usize()?),
        11 => JobEvent::ExecutorDeclaredDead(d.usize()?),
        12 => JobEvent::ContainerAdded(d.usize()?),
        13 => JobEvent::HeartbeatMissed(d.usize()?),
        14 => JobEvent::MessageRetransmitted {
            exec: d.usize()?,
            to_master: d.bool()?,
            seq: d.u64()?,
        },
        15 => JobEvent::MasterRecovered,
        16 => JobEvent::BlockAdmitted {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
            bytes: d.usize()?,
            resident: d.usize()?,
        },
        17 => JobEvent::BlockSpilled {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
            bytes: d.usize()?,
            raw_bytes: d.usize()?,
            resident: d.usize()?,
        },
        18 => JobEvent::BlockLoaded {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
            bytes: d.usize()?,
            resident: d.usize()?,
        },
        19 => JobEvent::BlockReleased {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
            bytes: d.usize()?,
            resident: d.usize()?,
        },
        20 => JobEvent::BlockPinned {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
        },
        21 => JobEvent::BlockUnpinned {
            exec: d.usize()?,
            block: dec_block_ref(d)?,
        },
        22 => JobEvent::StoreBudgetChanged {
            exec: d.usize()?,
            budget: d.usize()?,
        },
        23 => JobEvent::PushDeferred {
            fop: d.usize()?,
            index: d.usize()?,
            exec: d.usize()?,
            bytes: d.usize()?,
        },
        24 => JobEvent::PushResumed {
            fop: d.usize()?,
            index: d.usize()?,
            exec: d.usize()?,
            bytes: d.usize()?,
        },
        25 => JobEvent::OomInjected {
            fop: d.usize()?,
            index: d.usize()?,
            attempt: d.u64()?,
            exec: d.usize()?,
        },
        26 => JobEvent::CacheHit {
            exec: d.usize()?,
            key: d.usize()?,
            bytes: d.usize()?,
        },
        27 => JobEvent::CacheMiss {
            exec: d.usize()?,
            key: d.usize()?,
        },
        28 => JobEvent::ReconfigRequested {
            reconfig: d.u64()?,
            trigger: dec_trigger(d)?,
            change: dec_change(d)?,
        },
        29 => JobEvent::ReconfigPrepared {
            reconfig: d.u64()?,
            quiesced: d.usize()?,
        },
        30 => JobEvent::ReconfigCommitted {
            reconfig: d.u64()?,
            change: dec_change(d)?,
            epoch: d.u64()?,
        },
        31 => JobEvent::ReconfigAborted {
            reconfig: d.u64()?,
            reason: d.str()?,
        },
        32 => JobEvent::EpochAdvanced { epoch: d.u64()? },
        33 => JobEvent::StaleFrameFenced {
            exec: d.usize()?,
            seq: d.u64()?,
            epoch: d.u64()?,
        },
        34 => JobEvent::WalRecovered {
            frames_replayed: d.usize()?,
            frames_truncated: d.usize()?,
            snapshot_restored: d.bool()?,
        },
        35 => JobEvent::RunAborted { reason: d.str()? },
        36 => JobEvent::RunStalled {
            waited_ms: d.u64()?,
        },
        37 => JobEvent::PoolQuiesced {
            in_flight: d.usize()?,
        },
        38 => JobEvent::PoolWorkerDetached { worker: d.usize()? },
        39 => JobEvent::OutputDropped {
            fop: d.usize()?,
            index: d.usize()?,
            exec: d.usize()?,
        },
        _ => return Err("bad event tag"),
    })
}

// ---------------------------------------------------------------------
// Records and snapshots
// ---------------------------------------------------------------------

/// A compacting snapshot of the master's WAL-recoverable state. Appended
/// periodically so recovery replays a bounded suffix, and the fallback
/// target when interior corruption invalidates the events after it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalSnapshot {
    /// Reconfiguration epoch at snapshot time.
    pub epoch: u64,
    /// Next attempt id the master would issue.
    pub next_attempt: AttemptId,
    /// Attempts that had reported terminally (the idempotence log).
    pub completed_attempts: Vec<AttemptId>,
    /// Block location table: committed task → executors holding its
    /// output.
    pub committed: Vec<(FopId, usize, Vec<ExecId>)>,
    /// Per-task first-launch flags (drives the relaunch metric).
    pub first_attempted: Vec<Vec<bool>>,
    /// Live per-fop parallelism overlay (repartitions applied).
    pub parallelism: Vec<usize>,
    /// Live per-fop placement overlay (migrations applied).
    pub placement: Vec<Placement>,
}

fn enc_snapshot(e: &mut Enc, s: &WalSnapshot) {
    e.u64(s.epoch);
    e.u64(s.next_attempt);
    e.usize(s.completed_attempts.len());
    for a in &s.completed_attempts {
        e.u64(*a);
    }
    e.usize(s.committed.len());
    for (fop, index, locs) in &s.committed {
        e.usize(*fop);
        e.usize(*index);
        e.usize(locs.len());
        for l in locs {
            e.usize(*l);
        }
    }
    e.usize(s.first_attempted.len());
    for row in &s.first_attempted {
        e.usize(row.len());
        for &b in row {
            e.bool(b);
        }
    }
    e.usize(s.parallelism.len());
    for &p in &s.parallelism {
        e.usize(p);
    }
    e.usize(s.placement.len());
    for &p in &s.placement {
        enc_placement(e, p);
    }
}

/// Length guard for decoded collections: a corrupt count must never
/// drive an unbounded allocation.
fn checked_len(n: usize) -> DecodeResult<usize> {
    if n > 1 << 22 {
        Err("implausible collection length")
    } else {
        Ok(n)
    }
}

fn dec_snapshot(d: &mut Dec<'_>) -> DecodeResult<WalSnapshot> {
    let epoch = d.u64()?;
    let next_attempt = d.u64()?;
    let n = checked_len(d.usize()?)?;
    let mut completed_attempts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        completed_attempts.push(d.u64()?);
    }
    let n = checked_len(d.usize()?)?;
    let mut committed = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let fop = d.usize()?;
        let index = d.usize()?;
        let m = checked_len(d.usize()?)?;
        let mut locs = Vec::with_capacity(m.min(1024));
        for _ in 0..m {
            locs.push(d.usize()?);
        }
        committed.push((fop, index, locs));
    }
    let n = checked_len(d.usize()?)?;
    let mut first_attempted = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let m = checked_len(d.usize()?)?;
        let mut row = Vec::with_capacity(m.min(1024));
        for _ in 0..m {
            row.push(d.bool()?);
        }
        first_attempted.push(row);
    }
    let n = checked_len(d.usize()?)?;
    let mut parallelism = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        parallelism.push(d.usize()?);
    }
    let n = checked_len(d.usize()?)?;
    let mut placement = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        placement.push(dec_placement(d)?);
    }
    Ok(WalSnapshot {
        epoch,
        next_attempt,
        completed_attempts,
        committed,
        first_attempted,
        parallelism,
        placement,
    })
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
    /// Appended at commit, on deferred-push resume, and on drain
    /// migration, so the block location table reconstructs independently
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

/// A decoded frame: a record plus the epoch it was stamped with.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Reconfiguration epoch at append time.
    pub epoch: u64,
    /// The payload.
    pub record: WalRecord,
}

/// Encodes one frame (magic, length, CRC, payload) ready to append.
pub fn encode_frame(epoch: u64, record: &WalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    match record {
        WalRecord::Event { stage, event } => {
            e.u8(KIND_EVENT);
            e.u64(epoch);
            e.opt_usize(*stage);
            enc_event(&mut e, event);
        }
        WalRecord::Snapshot(s) => {
            e.u8(KIND_SNAPSHOT);
            e.u64(epoch);
            enc_snapshot(&mut e, s);
        }
        WalRecord::Locations {
            fop,
            index,
            locations,
        } => {
            e.u8(KIND_LOCATIONS);
            e.u64(epoch);
            e.usize(*fop);
            e.usize(*index);
            e.usize(locations.len());
            for l in locations {
                e.usize(*l);
            }
        }
    }
    let payload = e.buf;
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> DecodeResult<WalFrame> {
    let mut d = Dec::new(payload);
    let kind = d.u8()?;
    let epoch = d.u64()?;
    let record = match kind {
        KIND_EVENT => WalRecord::Event {
            stage: d.opt_usize()?,
            event: dec_event(&mut d)?,
        },
        KIND_SNAPSHOT => WalRecord::Snapshot(dec_snapshot(&mut d)?),
        KIND_LOCATIONS => {
            let fop = d.usize()?;
            let index = d.usize()?;
            let n = checked_len(d.usize()?)?;
            let mut locations = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                locations.push(d.usize()?);
            }
            WalRecord::Locations {
                fop,
                index,
                locations,
            }
        }
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
    let word = |at: usize| {
        let mut a = [0u8; 4];
        a.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(a)
    };
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
    if pos == bytes.len() {
        // Clean: the log ends exactly at a frame boundary.
        return WalScan {
            frames,
            valid_len: pos as u64,
            frames_truncated: 0,
            snapshot_restored: false,
        };
    }
    // Resync: hunt for a parseable frame beyond the damage. Finding one
    // proves the corruption is interior (bit rot), not a torn append.
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
        // Torn tail: truncate the garbage, keep the whole prefix.
        return WalScan {
            frames,
            valid_len: pos as u64,
            frames_truncated: 1,
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

/// Master state rebuilt from a scanned WAL: everything
/// [`Master`](crate::runtime::Master) needs to resume scheduling after a
/// crash, plus the recovery statistics the journal reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Reconfiguration epoch to resume fencing at (max of every source:
    /// snapshot, frame stamps, epoch-advance events).
    pub epoch: u64,
    /// Highest attempt id ever observed; the master fences past it.
    pub max_attempt: AttemptId,
    /// Terminally-reported attempts (the idempotence log).
    pub completed_attempts: HashSet<AttemptId>,
    /// Block location table: committed task → executors believed to hold
    /// its output; empty for an output that was dropped or lives only in
    /// the job sink. Recovery refetches what it can reach and reverts
    /// what it cannot only if a consumer still needs it.
    pub committed: HashMap<(FopId, usize), Vec<ExecId>>,
    /// Per-task first-launch flags.
    pub first_attempted: Vec<Vec<bool>>,
    /// Live parallelism overlay (empty when the log held no snapshot).
    pub parallelism: Vec<usize>,
    /// Live placement overlay (empty when the log held no snapshot).
    pub placement: Vec<Placement>,
    /// Committed placement migrations after the last snapshot, for the
    /// master to re-apply (they need `stage_of`, which only it knows).
    pub reconfig_changes: Vec<ReconfigChange>,
    /// Frames folded into this state.
    pub frames_replayed: usize,
    /// Frames the scan discarded.
    pub frames_truncated: usize,
    /// Whether interior corruption forced the snapshot fallback.
    pub snapshot_restored: bool,
}

impl RecoveredState {
    fn apply_snapshot(&mut self, s: &WalSnapshot) {
        self.epoch = self.epoch.max(s.epoch);
        self.max_attempt = self.max_attempt.max(s.next_attempt);
        self.completed_attempts = s.completed_attempts.iter().copied().collect();
        self.committed = s
            .committed
            .iter()
            .map(|(f, i, locs)| ((*f, *i), locs.clone()))
            .collect();
        self.first_attempted = s.first_attempted.clone();
        self.parallelism = s.parallelism.clone();
        self.placement = s.placement.clone();
        self.reconfig_changes.clear();
    }

    /// A commit whose location set empties stays committed: whether a
    /// dataless output must be recomputed depends on its consumers, which
    /// the master settles after replay. Only `TaskReverted` un-commits.
    fn lose_executor(&mut self, exec: ExecId) {
        for locs in self.committed.values_mut() {
            locs.retain(|&l| l != exec);
        }
    }

    fn apply_event(&mut self, event: &JobEvent) {
        match event {
            JobEvent::TaskLaunched {
                fop,
                index,
                attempt,
                ..
            }
            | JobEvent::SpeculativeLaunched {
                fop,
                index,
                attempt,
                ..
            } => {
                self.max_attempt = self.max_attempt.max(*attempt);
                if let Some(row) = self.first_attempted.get_mut(*fop) {
                    if let Some(slot) = row.get_mut(*index) {
                        *slot = true;
                    }
                }
            }
            JobEvent::TaskCommitted { attempt, .. } | JobEvent::TaskFailed { attempt, .. } => {
                self.max_attempt = self.max_attempt.max(*attempt);
                self.completed_attempts.insert(*attempt);
            }
            JobEvent::TaskReverted { fop, index } => {
                self.committed.remove(&(*fop, *index));
            }
            JobEvent::ContainerEvicted(x)
            | JobEvent::ReservedFailed(x)
            | JobEvent::ExecutorDeclaredDead(x) => self.lose_executor(*x),
            JobEvent::EpochAdvanced { epoch } => self.epoch = self.epoch.max(*epoch),
            JobEvent::ReconfigCommitted { change, epoch, .. } => {
                self.epoch = self.epoch.max(*epoch);
                match change {
                    ReconfigChange::Repartition { fop, parallelism } => {
                        // Self-contained: resize directly; the master
                        // rebuilds task slots from `parallelism` anyway.
                        if let Some(p) = self.parallelism.get_mut(*fop) {
                            *p = *parallelism;
                        }
                        if let Some(row) = self.first_attempted.get_mut(*fop) {
                            *row = vec![false; *parallelism];
                        }
                    }
                    ReconfigChange::MigrateStage { .. } | ReconfigChange::DrainTransient { .. } => {
                        self.reconfig_changes.push(*change);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Folds scanned frames into the master state they describe.
pub fn replay(scan: &WalScan) -> RecoveredState {
    let mut state = RecoveredState {
        frames_truncated: scan.frames_truncated,
        snapshot_restored: scan.snapshot_restored,
        ..RecoveredState::default()
    };
    for frame in &scan.frames {
        state.epoch = state.epoch.max(frame.epoch);
        match &frame.record {
            WalRecord::Snapshot(s) => state.apply_snapshot(s),
            WalRecord::Event { event, .. } => state.apply_event(event),
            WalRecord::Locations {
                fop,
                index,
                locations,
            } => {
                state.committed.insert((*fop, *index), locations.clone());
            }
        }
        state.frames_replayed += 1;
    }
    state
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
    /// Shared with the master so frames stamp the live epoch.
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

    /// Appends one record, stamped with the live epoch; syncs when the
    /// `sync_every` knob says so.
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
    /// File-level only — callers re-derive scheduler state from the
    /// returned [`RecoveredState`] after this returns.
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
    /// epochs, event one-liners, scan classification) — the CI artifact
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
                "snapshot epoch {} next-attempt {} committed {} attempts {}",
                s.epoch,
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
        let _ = writeln!(out, "{i:>5}  epoch {:>3}  {body}", frame.epoch);
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

    fn snap(epoch: u64) -> WalRecord {
        WalRecord::Snapshot(WalSnapshot {
            epoch,
            next_attempt: 9,
            completed_attempts: vec![1, 2, 3],
            committed: vec![(0, 0, vec![1]), (1, 2, vec![0, 3])],
            first_attempted: vec![vec![true, false], vec![true]],
            parallelism: vec![2, 1],
            placement: vec![Placement::Transient, Placement::Reserved],
        })
    }

    #[test]
    fn frame_round_trips() {
        for record in [
            ev(7),
            snap(3),
            WalRecord::Locations {
                fop: 1,
                index: 2,
                locations: vec![3, 4],
            },
            WalRecord::Event {
                stage: None,
                event: JobEvent::ReconfigAborted {
                    reconfig: 1,
                    reason: "master restarted mid-transaction".into(),
                },
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
        bytes.extend_from_slice(&encode_frame(0, &snap(0)));
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
        bytes.extend_from_slice(&encode_frame(1, &snap(1)));
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
        assert_eq!(state.epoch, 2, "frame stamps advance the epoch");
        assert_eq!(state.max_attempt, 50);
        assert!(state.completed_attempts.contains(&50));
        assert!(state.completed_attempts.contains(&1), "from the snapshot");
        assert_eq!(state.committed.get(&(2, 3)), Some(&vec![4]));
        // Exec 1 evicted: (0,0)'s only copy is gone, but the commit
        // stands until a revert says otherwise; (1,2) kept its copies on
        // execs 0 and 3.
        assert_eq!(state.committed.get(&(0, 0)), Some(&vec![]));
        assert_eq!(state.committed.get(&(1, 2)), Some(&vec![0, 3]));
        assert_eq!(state.frames_replayed, 4);
        assert_eq!(state.parallelism, vec![2, 1]);
    }

    /// The log fold and the live table must agree on what is committed
    /// when evictions drop some outputs and revert others: drive a
    /// `TaskTable`, log what the master would, replay the log.
    #[test]
    fn replay_and_the_task_table_agree_on_commits_across_drops() {
        use crate::runtime::tasks::TaskTable;
        use pado_dag::DepType;

        // 0 -> 1 -> 2 (terminal), one-to-one, two tasks each.
        let one = |dst| vec![(dst, DepType::OneToOne)];
        let mut table = TaskTable::new(&[2; 3], vec![one(1), one(2), vec![]]);
        let mut log: Vec<WalRecord> = Vec::new();
        let event = |event| WalRecord::Event { stage: None, event };
        // Lane 0 is through fop 1; lane 1 only through fop 0.
        for (fop, index, exec) in [(0, 0, 5), (0, 1, 6), (1, 0, 7)] {
            table.commit(fop, index, vec![exec]);
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
        let state = replay(&scan(&bytes));
        let mut replayed: Vec<_> = state.committed.into_iter().collect();
        replayed.sort();
        let live: Vec<_> = table
            .committed()
            .map(|(f, i, locations)| ((f, i), locations.to_vec()))
            .collect();
        assert_eq!(replayed, live);
        assert_eq!(live, vec![((0, 0), vec![]), ((1, 0), vec![7])]);
    }

    #[test]
    fn repartition_replays_self_contained() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(0, &snap(0)));
        bytes.extend_from_slice(&encode_frame(
            1,
            &WalRecord::Event {
                stage: None,
                event: JobEvent::ReconfigCommitted {
                    reconfig: 1,
                    change: ReconfigChange::Repartition {
                        fop: 0,
                        parallelism: 5,
                    },
                    epoch: 1,
                },
            },
        ));
        bytes.extend_from_slice(&encode_frame(
            1,
            &WalRecord::Event {
                stage: None,
                event: JobEvent::ReconfigCommitted {
                    reconfig: 2,
                    change: ReconfigChange::MigrateStage {
                        stage: 0,
                        to: Placement::Reserved,
                    },
                    epoch: 2,
                },
            },
        ));
        let state = replay(&scan(&bytes));
        assert_eq!(state.parallelism, vec![5, 1]);
        assert_eq!(state.first_attempted[0], vec![false; 5]);
        assert_eq!(state.epoch, 2);
        assert_eq!(
            state.reconfig_changes,
            vec![ReconfigChange::MigrateStage {
                stage: 0,
                to: Placement::Reserved
            }],
            "migrations are re-applied by the master, which knows stage_of"
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
        assert!(state.completed_attempts.contains(&3));
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
        w.append(&snap(0)).expect("append");
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
        bytes.extend_from_slice(&encode_frame(0, &snap(0)));
        bytes.extend_from_slice(&encode_frame(0, &ev(1)));
        let text = dump_image(&bytes, "test");
        assert!(text.contains("snapshot epoch 0"));
        assert!(text.contains("event"));
        assert!(text.contains("2 frames replayable, 0 truncated"));
    }
}
