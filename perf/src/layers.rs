//! The traced pass's layer drivers: each times one layer's public API,
//! inside its own span, on data the workload itself produced — blocks from
//! its own DAG's first stage, the traced job's journal, its WAL image.
//! Nothing here runs inside the timed region of an end-to-end metric.

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pado_core::compiler::{compile_with, PlanConfig};
use pado_core::exec::{apply_op, route, source_partition};
use pado_core::runtime::transport::{
    DedupWindow, Direction, FaultyLink, NetPolicy, ReliableSender, Seq, TransportCounters, Wire,
};
use pado_core::runtime::{
    invariants, replay, scan, BlockRef, DirectionFaults, ExecId, ExecutorStore, JobEvent,
    JobResult, Journal, JournalMeta, JournalRecord, NetworkFault, RuntimeConfig, WalRecord,
    WalWriter,
};
use pado_dag::colcodec::{decode_block, encode_block};
use pado_dag::{
    block_from_vec, Block, DepType, LogicalDag, MainSlot, OpId, OperatorKind, SourceKind, TaskInput,
};

use crate::cluster::Case;
use crate::metrics::Outcome;
use crate::spans::Tracer;
use crate::stats::median;

/// Rate of `work` units over `secs`; 0 when nothing was timed.
fn per_s(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// `compile_with` on the workload's DAG, median of five.
pub fn compiler(tr: &mut Tracer, dag: &LogicalDag, out: &mut Outcome) {
    tr.span("compiler", |tr| {
        let mut secs = Vec::new();
        for _ in 0..5 {
            let (plan, s) = tr.span("compiler.compile_with", |_| {
                compile_with(dag, &PlanConfig::default())
            });
            secs.push(s);
            if let Ok(plan) = plan {
                out.set("compiler.stages", plan.stage_dag.stages.len() as f64);
                out.set("compiler.tasks", plan.total_tasks() as f64);
            }
        }
        out.set("compiler.compile_s", median(&secs));
    });
}

/// The operators of a DAG's first stage: the `Read` source, the ParDo it
/// feeds (with the rows of that ParDo's broadcast side input, when a
/// `Created` source supplies one), and the Combine after it.
struct FirstStage {
    read: OpId,
    partitions: usize,
    pardo: OpId,
    side: Option<Vec<pado_dag::Value>>,
    combine: OpId,
    dep: DepType,
    dst_parallelism: usize,
}

fn first_stage(dag: &LogicalDag) -> Option<FirstStage> {
    let is_source = |op: OpId, want: SourceKind| matches!(&dag.op(op).kind, OperatorKind::Source { kind, .. } if *kind == want);
    let read = dag.op_ids().find(|&op| is_source(op, SourceKind::Read))?;
    let pardo = dag
        .children(read)
        .into_iter()
        .find(|&op| matches!(dag.op(op).kind, OperatorKind::ParDo(_)))?;
    let side = dag
        .in_edges(pardo)
        .iter()
        .find(|e| e.dep == DepType::OneToMany && is_source(e.src, SourceKind::Created))
        .map(|e| source_partition(dag, e.src, 0, 1));
    let edge = dag
        .out_edges(pardo)
        .into_iter()
        .find(|e| dag.op(e.dst).kind.is_combine())?;
    Some(FirstStage {
        read,
        partitions: dag.op(read).parallelism.unwrap_or(1),
        pardo,
        side,
        combine: edge.dst,
        dep: edge.dep,
        dst_parallelism: dag.op(edge.dst).parallelism.unwrap_or(1),
    })
}

/// Source + ParDo, map-side combine and routing over the workload's own
/// first stage. Returns the combined (shuffle) blocks for the codec and
/// store drivers.
pub fn exec_kernels(tr: &mut Tracer, dag: &LogicalDag, out: &mut Outcome) -> Vec<Block> {
    let Some(fs) = first_stage(dag) else {
        return Vec::new();
    };
    tr.span("exec", |tr| {
        let mut records_in = 0usize;
        let (mapped, secs) = tr.span("exec.source_map", |_| {
            (0..fs.partitions)
                .filter_map(|i| {
                    let rows = source_partition(dag, fs.read, i, fs.partitions);
                    records_in += rows.len();
                    let mains = [MainSlot::from_vec(rows)];
                    apply_op(dag, fs.pardo, TaskInput::new(&mains, fs.side.as_deref())).ok()
                })
                .map(block_from_vec)
                .collect::<Vec<Block>>()
        });
        out.set("exec.source_map_rec_per_s", per_s(records_in as f64, secs));

        let mapped_records: usize = mapped.iter().map(|b| b.len()).sum();
        let (combined, secs) = tr.span("kernels.combine", |_| {
            mapped
                .iter()
                .filter_map(|b| {
                    let mains = [MainSlot::from_block(Arc::clone(b))];
                    apply_op(dag, fs.combine, TaskInput::new(&mains, None)).ok()
                })
                .map(block_from_vec)
                .collect::<Vec<Block>>()
        });
        out.set(
            "kernels.combine_rec_per_s",
            per_s(mapped_records as f64, secs),
        );

        let routed_records: usize = combined.iter().map(|b| b.len()).sum();
        let (buckets, secs) = tr.span("exec.route", |_| {
            combined
                .iter()
                .enumerate()
                .map(|(i, b)| route(b, fs.dep, i, fs.dst_parallelism).len())
                .sum::<usize>()
        });
        std::hint::black_box(buckets);
        out.set("exec.route_rec_per_s", per_s(routed_records as f64, secs));
        combined
    })
    .0
}

/// Column-codec encode and decode of the shuffle blocks. MB are raw
/// (row-encoded) megabytes, so a better ratio does not read as a slower
/// codec.
pub fn colcodec(tr: &mut Tracer, blocks: &[Block], out: &mut Outcome) {
    tr.span("colcodec", |tr| {
        let raw: usize = blocks.iter().map(|b| b.raw_len()).sum();
        let (encoded, secs) = tr.span("colcodec.encode", |_| {
            blocks
                .iter()
                .filter_map(|b| encode_block(b).ok())
                .collect::<Vec<_>>()
        });
        let encoded_len: usize = encoded.iter().map(Vec::len).sum();
        out.set("colcodec.encode_mb_per_s", per_s(raw as f64 / 1e6, secs));
        let (decoded, secs) = tr.span("colcodec.decode", |_| {
            encoded.iter().filter_map(|e| decode_block(e).ok()).count()
        });
        std::hint::black_box(decoded);
        out.set("colcodec.decode_mb_per_s", per_s(raw as f64 / 1e6, secs));
        out.set("colcodec.ratio", raw as f64 / encoded_len.max(1) as f64);
    });
}

fn spilled_and_loaded_bytes(journal: &Journal) -> (usize, usize) {
    let frozen = journal.freeze(JournalMeta::default());
    frozen.events().fold((0, 0), |(s, l), e| match e {
        JobEvent::BlockSpilled { bytes, .. } => (s + bytes, l),
        JobEvent::BlockLoaded { bytes, .. } => (s, l + bytes),
        _ => (s, l),
    })
}

/// An `ExecutorStore` fed the shuffle blocks: admitted under a roomy
/// budget, squeezed to the workload's own budget (which spills), then
/// read back (which reloads). A workload that runs unlimited only admits.
pub fn store(tr: &mut Tracer, blocks: &[Block], config: &RuntimeConfig, out: &mut Outcome) {
    let limited = config.executor_memory_bytes != usize::MAX;
    let journal = Journal::new();
    let roomy = if limited { 1 << 30 } else { usize::MAX };
    let cache = if limited {
        config.cache_capacity_bytes
    } else {
        0
    };
    let mut st = ExecutorStore::new(0, roomy, cache, journal.clone());
    let refs: Vec<BlockRef> = (0..blocks.len())
        .map(|index| BlockRef::Output { fop: 0, index })
        .collect();
    tr.span("store", |tr| {
        let (admitted, secs) = tr.span("store.admit", |_| {
            refs.iter()
                .zip(blocks)
                .filter(|(r, b)| st.admit_or_spill(**r, b).is_ok())
                .count()
        });
        out.set("store.admit_per_s", per_s(admitted as f64, secs));
        if !limited {
            return;
        }
        let (_, secs) = tr.span("store.spill", |_| {
            st.set_budget(config.executor_memory_bytes)
        });
        let (spilled, _) = spilled_and_loaded_bytes(&journal);
        out.set("store.spill_mb_per_s", per_s(spilled as f64 / 1e6, secs));
        let (read, secs) = tr.span("store.reload", |_| {
            refs.iter()
                .filter(|r| matches!(st.get(**r), Ok(Some(_))))
                .count()
        });
        std::hint::black_box(read);
        let (_, loaded) = spilled_and_loaded_bytes(&journal);
        out.set("store.reload_mb_per_s", per_s(loaded as f64 / 1e6, secs));
    });
}

fn wal_append_secs(path: &Path, records: &[JournalRecord], sync_every: usize) -> f64 {
    let snapshot_every = RuntimeConfig::default().wal_snapshot_every;
    let Ok(mut w) = WalWriter::create(
        path,
        Arc::new(AtomicU64::new(0)),
        sync_every,
        snapshot_every,
    ) else {
        return 0.0;
    };
    let t = Instant::now();
    for r in records {
        let record = WalRecord::Event {
            stage: r.stage,
            event: r.event.clone(),
        };
        if w.append(&record).is_err() {
            return 0.0;
        }
    }
    let _ = w.sync();
    t.elapsed().as_secs_f64()
}

/// WAL appends of the job's own events at the default `wal_sync_every`
/// and at 64, then scan + replay of the job's own image — or, when the
/// workload arms no WAL, of the image the append driver just wrote.
pub fn wal(tr: &mut Tracer, job: &JobResult, image: Option<&[u8]>, tmp: &Path, out: &mut Outcome) {
    let records = job.journal.records();
    let path = tmp.join(format!("layer-{}.wal", std::process::id()));
    tr.span("wal", |tr| {
        let sync_default = RuntimeConfig::default().wal_sync_every;
        let (secs, _) = tr.span("wal.append", |_| {
            wal_append_secs(&path, records, sync_default)
        });
        out.set("wal.append_per_s", per_s(records.len() as f64, secs));
        let (secs, _) = tr.span("wal.append_sync64", |_| wal_append_secs(&path, records, 64));
        out.set("wal.append_sync64_per_s", per_s(records.len() as f64, secs));
        let written = std::fs::read(&path).unwrap_or_default();
        let bytes = image.unwrap_or(&written);
        let (frames, secs) = tr.span("wal.replay", |_| replay(&scan(bytes)).frames_replayed);
        out.set("wal.replay_frames_per_s", per_s(frames as f64, secs));
        out.set(
            "wal.frames",
            if image.is_some() { frames as f64 } else { 0.0 },
        );
    });
    let _ = std::fs::remove_file(&path);
}

fn wrap(from: ExecId, seq: Seq, epoch: u64, payload: u32) -> Wire<u32> {
    Wire::Msg {
        from,
        seq,
        epoch,
        payload,
    }
}

/// `n` envelope round trips, one at a time: `ReliableSender` through a
/// `FaultyLink` dropping `drop_prob` of frames, a `DedupWindow` at the
/// receiver, the ack fed straight back. Retransmission timers are driven
/// by a virtual clock so loss costs work, not sleeping. Returns seconds
/// and retransmissions.
fn roundtrips(n: u32, drop_prob: f64) -> (f64, u64) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let counters = Arc::new(TransportCounters::default());
    let policy = (drop_prob > 0.0).then(|| {
        NetPolicy::new(NetworkFault {
            seed: 7,
            to_master: DirectionFaults {
                drop_prob,
                ..DirectionFaults::default()
            },
            ..NetworkFault::default()
        })
    });
    let link = FaultyLink::new(tx, 0, Direction::ToMaster, policy, Arc::clone(&counters));
    let config = RuntimeConfig::default();
    let mut sender = ReliableSender::new(
        link,
        0,
        wrap,
        config.transport_inflight_cap,
        Duration::from_millis(config.retransmit_base_ms),
        Duration::from_millis(config.retransmit_max_ms),
        7,
    );
    let mut dedup = DedupWindow::new(config.transport_dedup_window);
    let mut clock = Instant::now();
    let mut delivered = 0u32;
    let t = Instant::now();
    for payload in 0..n {
        sender.send(payload);
        loop {
            while let Some(frame) = rx.try_recv() {
                if let Wire::Msg { seq, .. } = frame {
                    delivered += u32::from(dedup.fresh(seq));
                    sender.on_ack(seq);
                }
            }
            if sender.in_flight() == 0 {
                break;
            }
            clock += Duration::from_secs(1);
            if sender.pump(clock).is_err() {
                return (0.0, 0);
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(delivered, n, "every payload is delivered exactly once");
    (
        secs,
        counters
            .retransmitted
            .load(std::sync::atomic::Ordering::Relaxed),
    )
}

pub fn transport(tr: &mut Tracer, out: &mut Outcome) {
    const N: u32 = 50_000;
    tr.span("transport", |tr| {
        let ((secs, _), _) = tr.span("transport.roundtrip", |_| roundtrips(N, 0.0));
        out.set("transport.roundtrip_per_s", per_s(N as f64, secs));
        let ((secs, retransmitted), _) =
            tr.span("transport.roundtrip_lossy", |_| roundtrips(N, 0.1));
        out.set("transport.roundtrip_lossy_per_s", per_s(N as f64, secs));
        out.set("transport.retransmitted", retransmitted as f64);
    });
}

/// Re-emits the job's events into a fresh `Journal` and freezes it,
/// derives the job metrics from the journal, and replays it against the
/// invariant laws.
pub fn journal(tr: &mut Tracer, job: &JobResult, out: &mut Outcome) {
    let records = job.journal.records();
    let events = records.len() as f64;
    tr.span("journal", |tr| {
        let (frozen, secs) = tr.span("journal.emit", |_| {
            let j = Journal::new();
            for r in records {
                j.emit(r.stage, r.event.clone());
            }
            j.freeze(job.journal.meta().clone())
        });
        std::hint::black_box(frozen.records().len());
        out.set("journal.emit_per_s", per_s(events, secs));
        let (derived, secs) = tr.span("journal.derive_metrics", |_| job.journal.derive_metrics());
        std::hint::black_box(derived);
        out.set("journal.derive_metrics_s", secs);
    });
    let (violations, secs) = tr.span("invariants.check", |_| {
        invariants::check(&job.journal, true)
    });
    std::hint::black_box(violations);
    out.set("invariants.check_events_per_s", per_s(events, secs));
}

/// Every layer driver a `LocalCluster` workload reaches.
pub fn drive_all(
    tr: &mut Tracer,
    case: &Case,
    job: &JobResult,
    wal_image: Option<&[u8]>,
    tmp: &Path,
    out: &mut Outcome,
) {
    tr.span("layers", |tr| {
        compiler(tr, &case.dag, out);
        let blocks = exec_kernels(tr, &case.dag, out);
        colcodec(tr, &blocks, out);
        store(tr, &blocks, &case.config, out);
        wal(tr, job, wal_image, tmp, out);
        transport(tr, out);
        journal(tr, job, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_round_trips_never_retransmit_and_lossy_ones_do() {
        let (secs, retransmitted) = roundtrips(2_000, 0.0);
        assert!(secs > 0.0);
        assert_eq!(retransmitted, 0);
        let (secs, retransmitted) = roundtrips(2_000, 0.1);
        assert!(secs > 0.0);
        // 10 % of ~2 200 transmissions.
        assert!((100..400).contains(&retransmitted), "{retransmitted}");
    }

    #[test]
    fn first_stage_finds_the_mr_and_mlr_shapes() {
        let dag = pado_workloads::mr::dag(&pado_workloads::MrConfig::default());
        let fs = first_stage(&dag).unwrap();
        assert_eq!((fs.partitions, fs.dst_parallelism), (8, 4));
        assert_eq!(fs.dep, DepType::ManyToMany);
        assert!(fs.side.is_none());
        let dag = pado_workloads::mlr::dag(&pado_workloads::MlrConfig::default());
        let fs = first_stage(&dag).unwrap();
        assert_eq!(fs.partitions, 6);
        assert_eq!(
            fs.side.map(|s| s.len()),
            Some(1),
            "the initial model is the side input"
        );
    }
}
