//! Standalone seeded chaos driver for the runtime's failure domain: runs
//! `pado_bench::chaos::BENCH` (evictions, reserved failures, master
//! restarts, UDF errors/panics/OOMs/delays, store-budget shrinks) through
//! the shared `run_matrix`; every seed is checked byte-for-byte against a
//! fault-free sim baseline and against every law of `violations`.
//!
//! Usage: `cargo run -p pado-bench --bin chaos [n_seeds] [--network]
//! [--drain] [--crash] [--journal <path>] [--wal-dump <path>]
//! [--backend <sim|threaded>] [--stall-diag <path>]`
//! `--network`, `--drain` and `--crash` keep the row's lossy-wire,
//! drain + spill-fault and crash + WAL dimensions (see `BENCH`).
//! `--backend threaded` doubles as a cross-backend differential check.
//! `--journal` writes a Chrome trace of the last seed's journal,
//! `--wal-dump` (with `--crash`) a frame dump of its surviving WAL image,
//! `--stall-diag` the report and timeline of any seed the master found
//! wedged, `RuntimeError::Wedged` (CI uploads it as a failure artifact).
//! Exits non-zero if any seed fails or violates an invariant.

use pado_bench::chaos::{chaos_shapes, run_matrix, total, write_artifact, Dim, Family, BENCH};
use pado_core::error::RuntimeError;
use pado_core::runtime::{wal::dump_image, BackendKind, JobEvent};

fn main() {
    let mut n_seeds: u64 = 100;
    let (mut network, mut drain, mut crash) = (false, false, false);
    let (mut journal_path, mut wal_dump_path, mut stall_diag_path) = (None, None, None);
    let mut backend = BackendKind::Sim;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = || Some(args.next().unwrap_or_else(|| panic!("{arg} needs a path")));
        match arg.as_str() {
            "--network" => network = true,
            "--drain" => drain = true,
            "--crash" => crash = true,
            "--journal" => journal_path = path(),
            "--wal-dump" => wal_dump_path = path(),
            "--stall-diag" => stall_diag_path = path(),
            "--backend" => {
                let spec = args.next().expect("--backend needs sim|threaded");
                backend = BackendKind::parse(&spec)
                    .unwrap_or_else(|| panic!("unknown backend {spec:?} (sim|threaded)"));
            }
            n => n_seeds = n.parse().expect("n_seeds must be an integer"),
        }
    }
    let dims: Vec<Dim> = BENCH
        .dims
        .iter()
        .filter(|dim| match dim {
            Dim::Network(..) => network,
            Dim::Drains(..) | Dim::Maybe(_, Dim::SpillFaults) => drain,
            Dim::Crash | Dim::WalKnobs => crash,
            _ => true,
        })
        .cloned()
        .collect();
    let family = Family {
        dims: &dims,
        ..BENCH
    };

    println!(
        " seed  shape      evict rsvd restart  fail  spec black launch  oom spill defer  drain \
         crash  verdict"
    );
    let mut bad = 0u64;
    let mut total_drains = 0usize;
    let mut last_journal = None;
    let mut last_wal_image: Option<(u64, Vec<u8>)> = None;
    let mut stall_reports: Vec<String> = Vec::new();
    let runs = run_matrix(&family, &chaos_shapes(), 0..n_seeds, backend, |o| {
        let (seed, name, faults) = (o.case.seed, o.shape, &o.case.faults);
        if let (Some(_), Some(path)) = (&wal_dump_path, &o.case.config.wal_path) {
            if let Ok(bytes) = std::fs::read(path) {
                last_wal_image = Some((seed, bytes));
            }
        }
        let result = match &o.run {
            Ok(r) => r,
            Err(e) => {
                if let RuntimeError::Wedged { diagnostics: d } = e {
                    let timeline = d.journal.render_timeline(true);
                    stall_reports
                        .push(format!("seed {seed} shape {name} wedged:\n{d}\n{timeline}"));
                }
                println!("{seed:>5}  {name:<10} JOB FAILED: {e}");
                bad += 1;
                return;
            }
        };
        let verdict = if o.problems.is_empty() {
            "ok"
        } else {
            "VIOLATION"
        };
        let m = &result.metrics;
        let drains_applied = result
            .journal
            .events()
            .filter(|e| matches!(e, JobEvent::ExecutorDrained { .. }))
            .count();
        println!(
            "{seed:>5}  {name:<10} {:>5} {:>4} {:>7} {:>5} {:>5} {:>5} {:>5} {:>4} {:>5} {:>5} {:>6} {:>5}  {verdict}",
            faults.evictions.len(),
            faults.reserved_failures.len(),
            faults
                .master_failure_after
                .map_or("-".into(), |n| n.to_string()),
            m.task_failures,
            m.speculative_launches,
            m.blacklisted_executors,
            m.tasks_launched,
            m.oom_injected,
            m.blocks_spilled,
            m.pushes_deferred,
            drains_applied,
            m.wal_recoveries,
        );
        for p in &o.problems {
            println!("       !! {p}");
        }
        if network {
            println!(
                "       net: dropped={} dup={} retx={} dedup={} max_retx={} dead={}",
                m.messages_dropped,
                m.messages_duplicated,
                m.messages_retransmitted,
                m.messages_deduplicated,
                m.max_message_retransmissions,
                m.executors_declared_dead,
            );
        }
        if drain {
            let scheduled = &faults.drains;
            println!("       drain: scheduled={scheduled:?} applied={drains_applied}");
        }
        if crash {
            println!(
                "       crash: recoveries={} frames_replayed={} truncated={} snapshot_restores={}",
                m.wal_recoveries,
                m.wal_frames_replayed,
                m.wal_frames_truncated,
                m.wal_snapshot_restores,
            );
        }
        total_drains += drains_applied;
        bad += u64::from(!o.problems.is_empty());
        last_journal = journal_path.is_some().then(|| result.journal.clone());
    });
    if let (Some(path), Some(journal)) = (&journal_path, &last_journal) {
        write_artifact(path, journal.chrome_trace());
        println!("wrote Chrome trace of the last seed to {path}");
    }
    if let (Some(path), Some((seed, bytes))) = (&wal_dump_path, &last_wal_image) {
        write_artifact(path, dump_image(bytes, &format!("chaos seed {seed}")));
        println!("wrote WAL frame dump of seed {seed} to {path}");
    }
    if let (Some(path), false) = (&stall_diag_path, stall_reports.is_empty()) {
        write_artifact(path, stall_reports.join("\n"));
        let n = stall_reports.len();
        println!("wrote wedge reports for {n} wedged seed(s) to {path}");
    }
    println!(
        "\n{}/{n_seeds} seeds clean, {bad} violating; \
         {} injected task failures survived, {} speculative launches, \
         {} injected allocation failures, {} blocks spilled, \
         {total_drains} drains applied; \
         crash: {} recoveries, {} frames truncated, {} snapshot restores",
        n_seeds - bad,
        total(&runs, |m| m.task_failures),
        total(&runs, |m| m.speculative_launches),
        total(&runs, |m| m.oom_injected),
        total(&runs, |m| m.blocks_spilled),
        total(&runs, |m| m.wal_recoveries),
        total(&runs, |m| m.wal_frames_truncated),
        total(&runs, |m| m.wal_snapshot_restores),
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
