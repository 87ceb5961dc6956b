//! The names the benchmark prints. `BENCHMARK.json` at the repository
//! root declares the same names, units and directions; `tests/smoke.rs`
//! holds the two equal.

use std::collections::BTreeMap;

use crate::sample::Samples;
use crate::stats::Summary;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: f64 = 22.0;

pub const WORKLOADS: [&str; 4] = ["mr-shuffle", "mr-pressure", "mlr-evict", "paper-sim"];

/// A declared metric: name, unit, and whether `lower` or `higher` is better.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics: every workload reports every one, none is ever 0.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", "lower"),
    ("makespan_s", "s", "lower"),
    ("makespan_sim_s", "s", "lower"),
    ("tasks_per_s", "tasks/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, layer = module name. A layer the workload bypasses
/// reads 0.
pub const PER_LAYER: &[Decl] = &[
    ("compiler.compile_s", "s", "lower"),
    ("compiler.stages", "count", "lower"),
    ("compiler.tasks", "count", "lower"),
    ("exec.source_map_rec_per_s", "records/s", "higher"),
    ("exec.route_rec_per_s", "records/s", "higher"),
    ("kernels.combine_rec_per_s", "records/s", "higher"),
    ("colcodec.encode_mb_per_s", "MB/s", "higher"),
    ("colcodec.decode_mb_per_s", "MB/s", "higher"),
    ("colcodec.ratio", "ratio", "higher"),
    ("store.admit_per_s", "1/s", "higher"),
    ("store.spill_mb_per_s", "MB/s", "higher"),
    ("store.reload_mb_per_s", "MB/s", "higher"),
    ("store.blocks_spilled", "count", "lower"),
    ("store.blocks_loaded", "count", "lower"),
    ("store.spill_mb", "MB", "lower"),
    ("store.peak_mb", "MB", "lower"),
    ("store.pushes_deferred", "count", "lower"),
    ("cache.hit_rate", "fraction", "higher"),
    ("wal.append_per_s", "1/s", "higher"),
    ("wal.append_sync64_per_s", "1/s", "higher"),
    ("wal.replay_frames_per_s", "1/s", "higher"),
    ("wal.frames", "count", "lower"),
    ("transport.roundtrip_per_s", "1/s", "higher"),
    ("transport.roundtrip_lossy_per_s", "1/s", "higher"),
    ("transport.retransmitted", "count", "lower"),
    ("journal.events", "count", "lower"),
    ("journal.emit_per_s", "1/s", "higher"),
    ("journal.derive_metrics_s", "s", "lower"),
    ("invariants.check_events_per_s", "1/s", "higher"),
    ("master.tasks_launched", "count", "lower"),
    ("master.relaunch_ratio", "fraction", "lower"),
    ("master.launches_per_s", "1/s", "higher"),
    ("master.dispatch_wait_s", "s", "lower"),
    ("master.uncovered_s", "s", "lower"),
    ("master.uncovered_share", "fraction", "lower"),
    ("executor.task_run_s", "s", "lower"),
    ("executor.tasks_failed", "count", "lower"),
    ("backend.threaded_speedup", "ratio", "higher"),
    ("engines.simulate_s.pado", "s", "lower"),
    ("engines.simulate_s.spark_ckpt", "s", "lower"),
    ("engines.simulate_s.spark", "s", "lower"),
    ("engines.simulate_s.pado_mlr", "s", "lower"),
    ("engines.simulate_s.pado_als", "s", "lower"),
    ("engines.jct_min.spark_ckpt", "min", "lower"),
    ("engines.jct_min.spark", "min", "lower"),
    ("engines.jct_min.pado_mlr", "min", "lower"),
    ("engines.jct_min.pado_als", "min", "lower"),
    ("engines.sim_relaunch_ratio", "fraction", "lower"),
    ("engines.bytes_pushed_gb", "GB", "lower"),
    ("simcluster.network_transfers_per_s", "1/s", "higher"),
    ("trace.analyze_s", "s", "lower"),
    ("trace.overhead_rel", "fraction", "lower"),
    ("step.validate_s", "s", "lower"),
    ("step.compile_s", "s", "lower"),
    ("step.master_new_s", "s", "lower"),
    ("step.drive_s", "s", "lower"),
    ("step.job_s", "s", "lower"),
    // End-to-end in the issue, per-layer here: the driver wants every
    // end-to-end metric from every workload and never 0 (see README).
    ("records_per_s", "records/s", "higher"),
    ("sim_wall_s", "s", "lower"),
    ("sim_jct_min", "min", "lower"),
    ("failed_run_share", "fraction", "lower"),
];

/// The traced job's step metrics and the spans they are read from: the
/// four public steps `LocalCluster::run_on_backend` performs, and the job
/// around them.
pub const STEPS: [(&str, &str); 5] = [
    ("step.validate_s", "validate"),
    ("step.compile_s", "compile"),
    ("step.master_new_s", "master.new"),
    ("step.drive_s", "drive"),
    ("step.job_s", "job"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs run and checked, warm-ups included.
    pub attempted: u64,
    /// Jobs that errored or whose output failed a check.
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|decl| decl.0 == name);
        assert!(declared, "metric {name} is set but not declared");
        self.values.insert(name, value);
    }

    /// The five end-to-end metrics, from a run's set-up and samples and
    /// one job's original tasks over its completion time.
    pub fn set_end_to_end(&mut self, setup_s: &Summary, samples: &Samples, tasks_per_s: f64) {
        println!("{:<28} {:<10} {setup_s}", "setup_s", "s");
        self.set("setup_s", setup_s.median);
        self.set("makespan_s", samples.makespan_s());
        self.set("makespan_sim_s", samples.makespan_sim_s());
        self.set("peak_rss_mb", samples.peak_rss_mib());
        self.set("tasks_per_s", tasks_per_s);
    }

    /// Counts one checked job; prints why it failed when it did.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            println!("FAILED {what}: {why}");
        }
    }

    /// The result line the driver reads: every metric of `decls`, in
    /// declaration order, 0 for a layer this workload never touched.
    pub fn result_line(&self, decls: &[Decl]) -> String {
        let metrics: Vec<String> = decls
            .iter()
            .map(|(name, unit, _)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit that was measured.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        o.check("job", Ok(()));
        o.check("job", Err("boom".into()));
        o.set("setup_s", 0.125);
        let line = o.result_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        // Never measured: present all the same, as 0.
        assert!(line.ends_with("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}}}"));
        assert!(!line.contains('\n'));
    }
}
