//! Property tests of the write-ahead log codec and recovery scan: for
//! arbitrary event sequences,
//!
//! - encode → scan round-trips every frame byte-identically (header
//!   stamp and record), with nothing truncated,
//! - truncating the image at an arbitrary byte offset always recovers
//!   exactly the whole frames before the cut — a torn tail, never a
//!   snapshot fallback,
//! - seeded bit-flip + truncation corruption never panics the scan, the
//!   surviving frames are a prefix of what was written, and rescanning
//!   the reported valid prefix is clean and stable,
//! - completely arbitrary bytes never panic `scan` or `replay`.

use pado_core::runtime::{
    encode_frame, inject_corruption, replay, scan, BlockRef, JobEvent, WalCorruption, WalRecord,
    WalSnapshot,
};
use proptest::prelude::*;

fn block_ref_strategy() -> impl Strategy<Value = BlockRef> {
    prop_oneof![
        (0..6usize, 0..8usize).prop_map(|(fop, index)| BlockRef::Output { fop, index }),
        (0..6usize, 0..8usize, 1..5usize, 0..5usize).prop_map(|(fop, index, dst_par, dst)| {
            BlockRef::Bucket {
                fop,
                index,
                dst_par,
                dst,
            }
        }),
    ]
}

/// A cross-section of the journal vocabulary: master-side scheduling
/// events, executor-side store events, a drain, the `String`-carrying
/// abort marker, and the recovery marker itself.
fn event_strategy() -> impl Strategy<Value = JobEvent> {
    prop_oneof![
        (
            (0..6usize, 0..8usize, 0..10_000u64, 0..9usize),
            (any::<bool>(), 0..4_096usize, 0..4_096usize, 0..4usize),
        )
            .prop_map(
                |((fop, index, attempt, exec), (relaunch, sent, saved, misses))| {
                    JobEvent::TaskLaunched {
                        fop,
                        index,
                        attempt,
                        exec,
                        relaunch,
                        side_bytes_sent: sent,
                        side_bytes_saved: saved,
                        side_cache_misses: misses,
                    }
                }
            ),
        (
            (0..6usize, 0..8usize, 0..10_000u64, 0..9usize),
            (any::<bool>(), 0..4_096usize, 0..64usize, any::<bool>()),
        )
            .prop_map(
                |((fop, index, attempt, exec), (speculative, pushed, preagg, cache_hit))| {
                    JobEvent::TaskCommitted {
                        fop,
                        index,
                        attempt,
                        exec,
                        speculative,
                        bytes_pushed: pushed,
                        preaggregated: preagg,
                        cache_hit,
                    }
                }
            ),
        (0..6usize, 0..8usize, 0..10_000u64, 0..9usize).prop_map(|(fop, index, attempt, exec)| {
            JobEvent::TaskFailed {
                fop,
                index,
                attempt,
                exec,
            }
        }),
        (0..6usize, 0..8usize).prop_map(|(fop, index)| JobEvent::TaskReverted { fop, index }),
        (0..6usize, 0..8usize, 0..9usize).prop_map(|(fop, index, exec)| JobEvent::OutputDropped {
            fop,
            index,
            exec
        }),
        (0..9usize).prop_map(JobEvent::ContainerEvicted),
        (0..9usize).prop_map(JobEvent::ExecutorDeclaredDead),
        (0..4usize, any::<bool>())
            .prop_map(|(stage, recompute)| JobEvent::StageReopened { stage, recompute }),
        (
            0..9usize,
            block_ref_strategy(),
            0..4_096usize,
            0..8_192usize
        )
            .prop_map(|(exec, block, bytes, resident)| JobEvent::BlockAdmitted {
                exec,
                block,
                bytes,
                resident,
            }),
        (0..6usize, 0..8usize, 0..9usize, 0..4_096usize).prop_map(|(fop, index, exec, bytes)| {
            JobEvent::PushDeferred {
                fop,
                index,
                exec,
                bytes,
            }
        }),
        (0..9usize, 0..6usize, 0..4_096usize).prop_map(|(exec, key, bytes)| JobEvent::CacheHit {
            exec,
            key,
            bytes
        }),
        (0..9usize).prop_map(|exec| JobEvent::ExecutorDrained { exec }),
        "[a-z ]{0,16}".prop_map(|reason| JobEvent::RunAborted { reason }),
        Just(JobEvent::MasterRecovered),
        (0..200usize, 0..20usize, any::<bool>()).prop_map(
            |(frames_replayed, frames_truncated, snapshot_restored)| JobEvent::WalRecovered {
                frames_replayed,
                frames_truncated,
                snapshot_restored,
            }
        ),
    ]
}

fn snapshot_strategy() -> impl Strategy<Value = WalSnapshot> {
    (
        0..10_000u64,
        proptest::collection::vec(0..10_000u64, 0..6),
        proptest::collection::vec(
            (
                0..6usize,
                0..8usize,
                proptest::collection::vec(0..9usize, 0..3),
            ),
            0..5,
        ),
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..4), 0..4),
    )
        .prop_map(
            |(next_attempt, completed_attempts, committed, first_attempted)| WalSnapshot {
                next_attempt,
                completed_attempts,
                committed,
                first_attempted,
            },
        )
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    let stage = prop_oneof![Just(None), (0..5usize).prop_map(Some)];
    prop_oneof![
        (stage, event_strategy()).prop_map(|(stage, event)| WalRecord::Event { stage, event }),
        snapshot_strategy().prop_map(WalRecord::Snapshot),
        (
            0..6usize,
            0..8usize,
            proptest::collection::vec(0..9usize, 0..4),
        )
            .prop_map(|(fop, index, locations)| WalRecord::Locations {
                fop,
                index,
                locations,
            }),
    ]
}

/// A log image: stamped records, encoded and concatenated.
fn encode_log(records: &[(u64, WalRecord)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (epoch, record) in records {
        bytes.extend_from_slice(&encode_frame(*epoch, record));
    }
    bytes
}

fn log_strategy() -> impl Strategy<Value = Vec<(u64, WalRecord)>> {
    proptest::collection::vec((0..50u64, record_strategy()), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encoding an arbitrary record sequence and scanning it back yields
    /// every frame — epoch stamp and record — byte-identically, with no
    /// truncation and no snapshot fallback, and the replay folds without
    /// panicking.
    #[test]
    fn encode_scan_round_trips(records in log_strategy()) {
        let bytes = encode_log(&records);
        let s = scan(&bytes);
        prop_assert_eq!(s.frames.len(), records.len());
        for (frame, (epoch, record)) in s.frames.iter().zip(records.iter()) {
            prop_assert_eq!(frame.epoch, *epoch);
            prop_assert_eq!(&frame.record, record);
        }
        prop_assert_eq!(s.valid_len, bytes.len() as u64);
        prop_assert_eq!(s.frames_truncated, 0);
        prop_assert!(!s.snapshot_restored);
        let rec = replay(&s);
        prop_assert_eq!(rec.frames_replayed, records.len());
    }

    /// Cutting the image at an arbitrary byte offset is always a torn
    /// tail: recovery keeps exactly the whole frames before the cut and
    /// never falls back to a snapshot.
    #[test]
    fn truncation_recovers_whole_frame_prefix(
        records in log_strategy(),
        cut_frac in 0..1_000u32,
    ) {
        let bytes = encode_log(&records);
        let cut = (bytes.len() as u64 * u64::from(cut_frac) / 1_000) as usize;
        let cut_image = &bytes[..cut];
        let s = scan(cut_image);
        prop_assert!(!s.snapshot_restored);
        prop_assert!(s.valid_len as usize <= cut);
        // The kept frames are exactly the originals whose encoding ends
        // at or before the cut.
        let mut end = 0usize;
        let mut whole = 0usize;
        for (epoch, record) in &records {
            end += encode_frame(*epoch, record).len();
            if end > cut {
                break;
            }
            whole += 1;
        }
        prop_assert_eq!(s.frames.len(), whole);
        for (frame, (epoch, record)) in s.frames.iter().zip(records.iter()) {
            prop_assert_eq!(frame.epoch, *epoch);
            prop_assert_eq!(&frame.record, record);
        }
        let _ = replay(&s);
    }

    /// Seeded bit-flip + truncation corruption never panics: the scan
    /// reports a valid length within the damaged image, the surviving
    /// frames are a prefix of what was written, and rescanning the
    /// reported prefix is clean (same frames, nothing truncated) — the
    /// fixpoint the recovery path relies on when it truncates the file.
    #[test]
    fn corruption_always_recovers_a_valid_prefix(
        records in log_strategy(),
        seed in any::<u64>(),
        flip_millis in 0..12u32,
        truncate_millis in 0..1_000u32,
    ) {
        let mut bytes = encode_log(&records);
        inject_corruption(&mut bytes, &WalCorruption {
            seed,
            bit_flip_prob: f64::from(flip_millis) / 1_000.0,
            truncate_prob: f64::from(truncate_millis) / 1_000.0,
        });
        let s = scan(&bytes);
        prop_assert!(s.valid_len as usize <= bytes.len());
        prop_assert!(s.frames.len() <= records.len());
        for (frame, (epoch, record)) in s.frames.iter().zip(records.iter()) {
            prop_assert_eq!(frame.epoch, *epoch);
            prop_assert_eq!(&frame.record, record);
        }
        let again = scan(&bytes[..s.valid_len as usize]);
        prop_assert_eq!(again.frames.len(), s.frames.len());
        prop_assert_eq!(again.valid_len, s.valid_len);
        prop_assert_eq!(again.frames_truncated, 0);
        prop_assert!(!again.snapshot_restored);
        let rec = replay(&s);
        prop_assert_eq!(rec.frames_replayed, s.frames.len());
        prop_assert_eq!(rec.snapshot_restored, s.snapshot_restored);
    }

    /// Completely arbitrary bytes — not even a valid prefix — never
    /// panic the scan or the replay.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let s = scan(&bytes);
        prop_assert!(s.valid_len as usize <= bytes.len());
        let _ = replay(&s);
    }
}
