//! Data-plane benchmark: throughput and peak memory of the block-based
//! intermediate-data path.
//!
//! Two layers:
//! - **grouping kernels** time the vectorized keyed-combine kernel over
//!   columnar blocks against the pre-refactor row oracle (clone every
//!   record into a `BTreeMap`, fold per key) on a shuffle-heavy input —
//!   once over i64 keys and once over the `mr` workload's `page-{k}`
//!   string keys — assert byte-identical outputs and a ≥3× records/sec
//!   speedup for each, and report how far the column codecs compress
//!   the keyed working set below its row encoding;
//! - **end-to-end** runs shuffle-heavy and broadcast-heavy pipelines on
//!   the in-process cluster, reporting records/sec, compressed output
//!   bytes, total record clones, and peak resident set (`VmHWM`).
//!
//! Usage: `cargo run -p pado-bench --release --bin dataplane
//! [-- --smoke] [--trace <path>] [--mem-budget <bytes|auto>]
//! [--backend <sim|threaded>]`
//! `--smoke` shrinks datasets for CI. `--backend` selects the execution
//! backend for the end-to-end sections (default sim); a final section
//! always races the two backends head-to-head on the shuffle-heavy plan,
//! asserts byte-identical outputs and reports the ratio. `--trace <path>` writes a
//! Chrome-trace JSON of the broadcast-heavy end-to-end run's event
//! journal to `<path>` (open it in chrome://tracing or Perfetto).
//! `--mem-budget` adds a third section: the shuffle-heavy pipeline runs
//! once unlimited and once under a per-executor byte budget (`auto`
//! probes the working set and squeezes to a quarter of it), reporting
//! peak store occupancy, spill volume (compressed and raw), and
//! deferred pushes; outputs must stay byte-identical, the peak must
//! respect the budget, the tight run must spill at least one block,
//! and the spill files must be strictly smaller than the row encoding
//! of what they hold. With `--trace`, the budgeted
//! run's journal (spill/load instants included) is written to
//! `<path stem>-mem<ext>` next to the broadcast trace. Exits non-zero
//! if the block plane loses its guarantees (speedup, clone counts, or
//! memory bounds).

use std::collections::BTreeMap;
use std::time::Instant;

use pado_bench::chaos::{encode_outputs, with_budget, write_artifact};
use pado_core::exec::apply_op_block;
use pado_core::runtime::{BackendKind, LocalCluster, RuntimeConfig};
use pado_dag::codec::encode_batch;
use pado_dag::value::clone_count;
use pado_dag::{
    block_from_vec, Block, CombineFn, MainSlot, ParDoFn, Pipeline, SourceFn, TaskInput, Value,
};

/// Peak resident set size of this process in bytes (`VmHWM`), if the
/// platform exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn fmt_rate(records: u64, secs: f64) -> String {
    format!("{:>8.1}M rec/s", records as f64 / secs / 1e6)
}

/// Builds the key of a keyed record from its key number.
type KeyFn = fn(i64) -> Value;

/// Shuffle-heavy keyed working set: `n` pairs over 4096 keys, each key
/// `key(i % 4096)`.
fn keyed_rows(n: usize, key: KeyFn) -> Vec<Value> {
    (0..n as i64)
        .map(|i| Value::pair(key(i % 4096), Value::from(1i64)))
        .collect()
}

/// The two key shapes the grouping kernel is timed on: i64, and the
/// `mr` workload's page names, which group through the abbreviated-key
/// string sort.
const KEY_SHAPES: [(&str, KeyFn); 2] = [
    ("i64", Value::from),
    ("page-{k}", |k| Value::from(format!("page-{k}"))),
];

/// Grouping kernel: the vectorized keyed combine over columnar blocks
/// against the pre-refactor row oracle — clone every record, group
/// through a `BTreeMap<Value, _>`, fold with the combiner — on a
/// shuffle-heavy input. The kernel side is `apply_op_block`, the
/// block-returning path the engine's chains run. Returns (kernel secs,
/// oracle secs, records, the kernel output's layout).
fn combine_kernel(n: usize, parts: usize, key: KeyFn) -> (f64, f64, u64, &'static str) {
    let p = Pipeline::new();
    let src = p.read("Src", 1, SourceFn::from_vec(Vec::new()));
    src.combine_per_key("Count", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    let op = dag
        .op_ids()
        .find(|&id| dag.op(id).name == "Count")
        .expect("combine op");

    let rows = keyed_rows(n, key);
    let per = (n / parts.max(1)).max(1);
    let blocks: Vec<Block> = rows
        .chunks(per)
        .map(|c| block_from_vec(c.to_vec()))
        .collect();
    for b in &blocks {
        assert!(b.columns().is_some(), "combine input must be columnar");
    }
    let mains = [MainSlot::from_blocks(blocks)];

    let t0 = Instant::now();
    let fast = apply_op_block(&dag, op, TaskInput::new(&mains, None)).expect("vectorized combine");
    let kernel_secs = t0.elapsed().as_secs_f64();
    let layout = match fast.columns() {
        Some(_) => "columns",
        None => "rows",
    };

    // Verbatim pre-refactor inner loop: clone the record, remove the
    // accumulator, merge, insert it back.
    let f = CombineFn::sum_i64();
    let t0 = Instant::now();
    let mut accs: BTreeMap<Value, Value> = BTreeMap::new();
    for rec in &rows {
        if let Some((k, v)) = rec.clone().into_pair() {
            let acc = accs.remove(&k).unwrap_or_else(|| f.identity());
            accs.insert(k, f.merge(acc, v));
        }
    }
    let slow: Vec<Value> = accs.into_iter().map(|(k, v)| Value::pair(k, v)).collect();
    let oracle_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        encode_batch(fast.rows()).expect("encodes"),
        encode_batch(&slow).expect("encodes"),
        "vectorized combine diverged from the row oracle"
    );
    (kernel_secs, oracle_secs, n as u64, layout)
}

/// End-to-end cluster run under a per-executor store budget
/// (`usize::MAX` = unlimited); returns (secs, clone delta, result).
fn run_pipeline(
    dag: &pado_dag::LogicalDag,
    mem_budget: usize,
    backend: BackendKind,
) -> (f64, u64, pado_core::runtime::JobResult) {
    // The input cache shares the budget; `with_budget` keeps it a small
    // slice so pinned inputs and pushed blocks get the headroom.
    let config = RuntimeConfig {
        slots_per_executor: 2,
        threaded_workers: 4,
        ..Default::default()
    };
    let config = with_budget(config, mem_budget);
    let before = clone_count();
    let t0 = Instant::now();
    let result = LocalCluster::new(2, 2)
        .with_backend(backend)
        .with_config(config)
        .run(dag)
        .expect("pipeline run");
    let secs = t0.elapsed().as_secs_f64();
    pado_core::runtime::assert_clean(&result.journal, true);
    (secs, clone_count() - before, result)
}

fn out_records(result: &pado_core::runtime::JobResult) -> u64 {
    result.outputs.values().map(|v| v.len() as u64).sum()
}

/// (encoded, raw) byte totals of the job's sink outputs when packed as
/// blocks — the compressed-bytes column of the end-to-end report.
fn out_bytes(result: &pado_core::runtime::JobResult) -> (usize, usize) {
    result.outputs.values().fold((0, 0), |(enc, raw), records| {
        let block = block_from_vec(records.clone());
        (enc + block.encoded_len(), raw + block.raw_len())
    })
}

/// `traces/dataplane.trace.json` -> `traces/dataplane-mem.trace.json`.
fn mem_trace_path(path: &str) -> String {
    let p = std::path::Path::new(path);
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let renamed = match name.split_once('.') {
        Some((stem, ext)) => format!("{stem}-mem.{ext}"),
        None => format!("{name}-mem"),
    };
    p.with_file_name(renamed).to_string_lossy().into_owned()
}

fn shuffle_heavy_dag(n: i64) -> pado_dag::LogicalDag {
    let p = Pipeline::new();
    p.read(
        "Read",
        8,
        SourceFn::new(move |i, par| {
            let per = n / par as i64;
            (0..per)
                .map(|j| Value::pair(Value::from((i as i64 * per + j) % 4096), Value::from(1i64)))
                .collect()
        }),
    )
    .combine_per_key("Count", CombineFn::sum_i64())
    .sink("Out");
    p.build().unwrap()
}

fn broadcast_heavy_dag(n: i64, consumers: usize) -> pado_dag::LogicalDag {
    let p = Pipeline::new();
    let bcast = p.read(
        "Bcast",
        1,
        SourceFn::new(move |_, _| (0..n).map(Value::from).collect()),
    );
    let data = p.read(
        "Data",
        consumers,
        SourceFn::new(|i, _| vec![Value::from(i as i64)]),
    );
    data.par_do_with_side(
        "Scan",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .fold(0, i64::wrapping_add);
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap().wrapping_add(sum)));
            }
        }),
    )
    .sink("Out");
    p.build().unwrap()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut trace_path: Option<String> = None;
    let mut mem_budget_arg: Option<String> = None;
    let mut backend = BackendKind::Sim;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().expect("--trace needs a path"));
        } else if arg == "--mem-budget" {
            mem_budget_arg = Some(args.next().expect("--mem-budget needs bytes or 'auto'"));
        } else if arg == "--backend" {
            let spec = args.next().expect("--backend needs sim|threaded");
            backend = BackendKind::parse(&spec)
                .unwrap_or_else(|| panic!("unknown backend {spec:?} (sim|threaded)"));
        }
    }
    let (n_kernel, consumers) = if smoke { (20_000, 8) } else { (200_000, 16) };
    let n_e2e: i64 = if smoke { 20_000 } else { 200_000 };

    println!(
        "data-plane bench ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!("\n== grouping kernels: vectorized combine vs row oracle, {n_kernel} records ==");
    for (shape, key) in KEY_SHAPES {
        let (k, c, n_rec, layout) = combine_kernel(n_kernel, 4, key);
        let speedup = c / k;
        println!(
            "combine    {shape:<9} keys  kernel {}   oracle  {}   speedup {speedup:>6.1}x   \
             output layout: {layout}",
            fmt_rate(n_rec, k),
            fmt_rate(n_rec, c),
        );
        assert!(
            speedup >= 3.0,
            "vectorized keyed combine must beat the row oracle >=3x on a \
             shuffle-heavy input of {shape} keys (got {speedup:.2}x)"
        );
        let working_set = block_from_vec(keyed_rows(n_kernel, key));
        println!(
            "blocks     {shape:<9} keys  {} records  {} B raw -> {} B encoded ({:.2}x smaller)",
            working_set.len(),
            working_set.raw_len(),
            working_set.encoded_len(),
            working_set.raw_len() as f64 / working_set.encoded_len() as f64,
        );
        assert!(
            working_set.encoded_len() < working_set.raw_len(),
            "the column codecs must compress the keyed working set below its row encoding"
        );
    }

    println!("\n== end-to-end: in-process cluster ==");
    let (secs, clones, result) = run_pipeline(&shuffle_heavy_dag(n_e2e), usize::MAX, backend);
    let (enc, raw) = out_bytes(&result);
    println!(
        "shuffle-heavy    {n_e2e} rec  {}  {} out ({enc} B compressed / {raw} B raw)  \
         {clones} record clones",
        fmt_rate(n_e2e as u64, secs),
        out_records(&result),
    );
    let (secs, clones, result) =
        run_pipeline(&broadcast_heavy_dag(n_e2e, consumers), usize::MAX, backend);
    if let Some(path) = &trace_path {
        write_artifact(path, result.journal.chrome_trace());
        println!("wrote Chrome trace of the broadcast-heavy run to {path}");
    }
    let pushed = n_e2e as u64 * consumers as u64;
    let (enc, raw) = out_bytes(&result);
    println!(
        "broadcast-heavy  {pushed} rec pushed  {}  {} out ({enc} B compressed / {raw} B raw)  \
         {clones} record clones",
        fmt_rate(pushed, secs),
        out_records(&result),
    );
    assert!(
        clones < n_e2e as u64,
        "broadcast-heavy job cloned {clones} records (dataset {n_e2e}): sharing is broken"
    );

    if let Some(spec) = &mem_budget_arg {
        println!("\n== memory budget: byte-accounted stores, spill-to-disk ==");
        let dag = shuffle_heavy_dag(n_e2e);

        // Unlimited baseline: no accounting, no spills, no deferrals.
        let (_, _, unlimited) = run_pipeline(&dag, usize::MAX, backend);
        let m = &unlimited.metrics;
        assert_eq!(
            m.blocks_spilled + m.pushes_deferred + m.oom_injected,
            0,
            "unlimited run must not spill, defer, or OOM: {m:?}"
        );
        assert_eq!(m.peak_store_bytes, 0, "unlimited stores must not account");

        let budget = if spec == "auto" {
            // Probe under a roomy limited budget to learn the working
            // set, then squeeze to a quarter of its peak.
            let (_, _, probe) = run_pipeline(&dag, 64 << 20, backend);
            let peak = probe.metrics.peak_store_bytes;
            println!("probe: working-set peak {peak} B (64 MiB roomy budget)");
            (peak / 4).max(1024)
        } else {
            spec.parse()
                .expect("--mem-budget takes a byte count or 'auto'")
        };

        let (secs, _, tight) = run_pipeline(&dag, budget, backend);
        if let Some(path) = &trace_path {
            let mem_path = mem_trace_path(path);
            write_artifact(&mem_path, tight.journal.chrome_trace());
            println!("wrote Chrome trace of the budgeted run to {mem_path}");
        }
        let m = &tight.metrics;
        println!(
            "budget {budget} B  {}  peak store {} B  spilled {} blocks / {} B \
             ({} B raw)  loads {}  deferred pushes {}",
            fmt_rate(n_e2e as u64, secs),
            m.peak_store_bytes,
            m.blocks_spilled,
            m.spill_bytes,
            m.spill_raw_bytes,
            m.blocks_loaded,
            m.pushes_deferred,
        );
        assert_eq!(
            encode_outputs(&tight),
            encode_outputs(&unlimited),
            "budgeted run diverged from the unlimited baseline"
        );
        assert!(
            m.peak_store_bytes <= budget,
            "peak store occupancy {} B broke the {budget} B budget",
            m.peak_store_bytes
        );
        assert!(
            m.blocks_spilled > 0 && m.blocks_loaded > 0,
            "a quarter-working-set budget must force at least one spill/load pair: {m:?}"
        );
        assert!(
            m.spill_bytes < m.spill_raw_bytes,
            "spill files must be strictly smaller than the row encoding of what \
             they hold ({} B vs {} B raw)",
            m.spill_bytes,
            m.spill_raw_bytes
        );
    }

    // Execution backends head-to-head: the same shuffle-heavy plan on
    // the deterministic sim backend (inline master, one frame per
    // wakeup, dedicated slot threads) and the threaded backend (master
    // on its own thread, shared worker pool, batched frame draining).
    // Outputs must be byte-identical. The data plane is the same code
    // on both — each task sizes and partitions its own output on
    // whatever thread runs it — so the ratio is reported, not gated:
    // what it measures is lanes and frame batching only.
    {
        println!("\n== execution backends: sim vs threaded (4 pool workers) ==");
        let n_cmp: i64 = if smoke { 60_000 } else { 600_000 };
        let dag = shuffle_heavy_dag(n_cmp);
        // Best-of-2 per backend keeps scheduler noise out of the ratio.
        let mut sim_secs = f64::INFINITY;
        let mut thr_secs = f64::INFINITY;
        let mut pair = None;
        for _ in 0..2 {
            let (s, _, sim_res) = run_pipeline(&dag, usize::MAX, BackendKind::Sim);
            let (t, _, thr_res) = run_pipeline(&dag, usize::MAX, BackendKind::Threaded);
            sim_secs = sim_secs.min(s);
            thr_secs = thr_secs.min(t);
            pair = Some((sim_res, thr_res));
        }
        let (sim_res, thr_res) = pair.expect("at least one comparison round");
        assert_eq!(
            encode_outputs(&sim_res),
            encode_outputs(&thr_res),
            "threaded backend changed the shuffle-heavy outputs"
        );
        let speedup = sim_secs / thr_secs;
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        println!(
            "shuffle-heavy    {n_cmp} rec  sim {} ({sim_secs:.3}s)  threaded {} \
             ({thr_secs:.3}s)  speedup {speedup:>5.2}x  [{cores} cores]",
            fmt_rate(n_cmp as u64, sim_secs),
            fmt_rate(n_cmp as u64, thr_secs),
        );
    }

    if let Some(rss) = peak_rss_bytes() {
        println!(
            "\npeak resident set: {:.1} MiB",
            rss as f64 / (1024.0 * 1024.0)
        );
    }
    println!("\nall data-plane guarantees held");
}
