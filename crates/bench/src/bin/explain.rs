//! Prints what the Pado compiler does to each evaluation workload:
//! placement decisions (Algorithm 1), the Pado Stages (Algorithm 2),
//! recomputation-cost scores, the fused physical plan, and every transfer
//! fusion could have removed with the condition that kept it — a
//! textual rendition of the paper's Figure 3.
//!
//! Usage: `cargo run -p pado-bench --bin explain [als|mlr|mr|timeline|evictions]`
//!
//! `timeline` instead prints the event-journal timeline of a small
//! deterministic demo job (fixed chaos seed, one scripted eviction) —
//! the exact bytes pinned by the golden test in
//! `crates/bench/tests/golden_timeline.rs`.
//!
//! `evictions` prints the eviction ledger of a small MLR job — per
//! container loss: attempts caught running, commits reverted because a
//! consumer still needed them, commits dropped, stages reopened — beside
//! the simulated Pado engine's relaunch ratio for the same DAG.

use pado_core::compiler::{compile, partition, place_operators, recomputation_scores, Placement};
use pado_core::runtime::eviction_ledger;
use pado_dag::LogicalDag;
use pado_workloads::{als, mlr, mr};

fn explain(name: &str, dag: &LogicalDag) {
    println!("=== {name} ===");
    let placement = place_operators(dag).expect("placement");
    let scores = recomputation_scores(dag, &placement).expect("scores");
    println!("\noperators (Algorithm 1 placement + recomputation scores):");
    for op in dag.op_ids() {
        let deps: Vec<String> = dag
            .in_edges(op)
            .iter()
            .map(|e| format!("{} {}", dag.op(e.src).name, e.dep))
            .collect();
        println!(
            "  [{:<9}] {:<26} score {:>8.0}  <- {}",
            placement[op].label(),
            dag.op(op).name,
            scores[op],
            if deps.is_empty() {
                "(source)".to_string()
            } else {
                deps.join(", ")
            }
        );
    }
    let stages = partition(dag, &placement).expect("stages");
    println!("\nPado Stages (Algorithm 2):");
    for s in &stages.stages {
        let names: Vec<&str> = s.ops.iter().map(|&op| dag.op(op).name.as_str()).collect();
        println!(
            "  stage {:>2} (anchor {:<26}) parents {:?}: {}",
            s.id,
            dag.op(s.anchor).name,
            s.parents,
            names.join(", ")
        );
    }
    let plan = compile(dag).expect("plan");
    println!("\nphysical plan ({} tasks total):", plan.total_tasks());
    for fop in &plan.fops {
        let chain: Vec<&str> = fop
            .chain
            .iter()
            .map(|&op| dag.op(op).name.as_str())
            .collect();
        println!(
            "  fop {:>2} stage {:>2} x{:<4} {:<9} {}",
            fop.id,
            fop.stage,
            fop.parallelism,
            match fop.placement {
                Placement::Transient => "transient",
                Placement::Reserved => "reserved",
            },
            chain.join(" -> ")
        );
    }
    let tail = |fop: usize| dag.op(plan.fops[fop].tail()).name.as_str();
    let head = |fop: usize| dag.op(plan.fops[fop].head()).name.as_str();
    let unfused = pado_bench::unfused_transfers(&plan);
    println!(
        "\nin-stage one-to-one transfers between same-placement fops left unfused:{}",
        if unfused.is_empty() { " none" } else { "" }
    );
    for (e, why) in unfused {
        println!(
            "  fop {:>2} -> fop {:>2}  {} -> {}: {why}",
            e.src,
            e.dst,
            tail(e.src),
            head(e.dst)
        );
    }
    println!();
}

fn evictions() {
    let demo = pado_bench::eviction_demo();
    let rows: Vec<Vec<String>> = eviction_ledger(&demo.runtime.journal)
        .iter()
        .map(|row| {
            let counts = [
                row.position,
                row.exec,
                row.running,
                row.reverted,
                row.dropped,
                row.reopened,
            ];
            let mut cells = vec![row.kind.to_string()];
            cells.extend(counts.iter().map(usize::to_string));
            cells
        })
        .collect();
    pado_bench::print_table(
        "Eviction ledger: MLR, 8 partitions x 4 iterations, runtime (sim backend)",
        &[
            "loss", "at event", "exec", "running", "reverted", "dropped", "reopened",
        ],
        &rows,
    );
    let m = &demo.runtime.metrics;
    let sim = &demo.simulated;
    println!(
        "\nrelaunched tasks after {} evictions, same DAG:",
        pado_bench::DEMO_EVICTIONS
    );
    println!(
        "  runtime    {:>2} of {} (ratio {:.3}), {} outputs dropped",
        m.relaunched_tasks,
        m.original_tasks,
        m.relaunch_ratio(),
        m.outputs_dropped
    );
    println!(
        "  simulator  {:>2} of {} (ratio {:.3})",
        sim.relaunched_tasks,
        sim.original_tasks,
        sim.relaunch_ratio()
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "evictions" {
        evictions();
        return;
    }
    if which == "timeline" {
        // Bare output so `explain timeline > .../golden/timeline.txt`
        // regenerates the golden file verbatim.
        print!("{}", pado_bench::demo_timeline());
        return;
    }
    if which == "mr" || which == "all" {
        explain("Map-Reduce (Figure 3a)", &mr::paper().0);
    }
    if which == "mlr" || which == "all" {
        explain(
            "Multinomial Logistic Regression (Figure 3b)",
            &mlr::paper().0,
        );
    }
    if which == "als" || which == "all" {
        explain("Alternating Least Squares (Figure 3c)", &als::paper().0);
    }
}
