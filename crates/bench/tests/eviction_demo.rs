//! The job behind `explain evictions`: both engines see the evictions,
//! and the runtime's ledger accounts for every relaunch.

use pado_bench::{eviction_demo, DEMO_EVICTIONS};
use pado_core::runtime::{assert_clean, eviction_ledger};

#[test]
fn the_ledger_accounts_for_every_runtime_relaunch() {
    let demo = eviction_demo();
    assert_clean(&demo.runtime.journal, true);
    let ledger = eviction_ledger(&demo.runtime.journal);
    assert_eq!(ledger.len(), DEMO_EVICTIONS);
    assert_eq!(demo.simulated.evictions, DEMO_EVICTIONS);
    assert_eq!(
        demo.simulated.original_tasks,
        demo.runtime.metrics.original_tasks
    );

    let lost_work: usize = ledger.iter().map(|row| row.running + row.reverted).sum();
    assert_eq!(
        demo.runtime.metrics.relaunched_tasks, lost_work,
        "{ledger:?}"
    );
    assert!(
        ledger.iter().all(|row| row.reopened == 0),
        "an eviction never reopens a completed stage: {ledger:?}"
    );
    let dropped: usize = ledger.iter().map(|row| row.dropped).sum();
    // Zero on the default plan, which fuses each read into its gradient:
    // `eviction_cost.rs` keeps drops under test on the unfused plan.
    assert_eq!(demo.runtime.metrics.outputs_dropped, dropped);
}
