//! How one timed sample is taken: its peak RSS on its own, its wall clock,
//! and that wall clock read at one machine speed.
//!
//! The container this benchmark was sized in runs at a speed that changes
//! under it. Each of its two vCPUs, on its own, takes 25 ms or 45 ms for
//! the same single-threaded loop depending on what the host's other tenants
//! do, for a second or for minutes, mostly with no steal time reported; ten
//! 22-second runs of one workload had medians 3–32 % apart
//! (`perf/README.md`, "Noise"). More samples do not help against a speed
//! that holds for longer than a run. So every sample is bracketed by two
//! runs of a yardstick — a fixed piece of work that is part of the
//! benchmark, which no change to the engine moves — and scaled towards what
//! it would have taken had the yardstick taken [`REFERENCE_S`]. Both sides
//! of any comparison are scaled alike; the wall clock as measured is
//! printed beside every scaled one.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::{median, Summary};

/// What the yardstick usually takes on the baseline container (2 vCPUs of
/// a 2.1 GHz Xeon; one thread or two): the median of 2 300 runs, which
/// ranged from 26 ms on the quiet machine to 80 ms. Scaling to the usual
/// speed rather than the best keeps the scaled times near the measured
/// ones and the correction, and any error in it, small.
pub const REFERENCE_S: f64 = 0.040;

/// Share of a yardstick slowdown that a sample is scaled by. Less than 1
/// for the reason a regression on a noisy reading is shrunk: a yardstick
/// run is itself a noisy reading of the machine's speed, and the full
/// ratio would carry that noise into the sample; and a job is not busy
/// the way the yardstick is from start to end. Chosen on one day's
/// recordings and replayed over two later sets of ten runs per workload
/// (other seeds, noisy hours): run medians spread 3–32 % unscaled; scaled,
/// the worst `LocalCluster` spread was 12 % at 0.6, 10 % at 0.7, 8 % at 0.8
/// and 11 % at 1, the mean 5.0, 4.9, 5.5 and 6.7 %.
pub const SENSITIVITY: f64 = 0.7;

/// Hashing into a table that misses L1, a sort, and string keys into a
/// hash map: the mix the engine's own tasks are made of.
fn yardstick(salt: u64) -> u64 {
    let mut x = salt;
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut table = vec![0u64; 128 * 1024];
    for i in 0..8_000_000u64 {
        let z = next();
        let slot = z as usize % table.len();
        table[slot] = table[slot].wrapping_add(z ^ i);
    }
    let mut keys: Vec<u64> = (0..300_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (i, key) in keys.iter().enumerate().take(150_000) {
        *counts.entry(format!("page-{}", key % 4_096)).or_insert(0) += i as u64;
    }
    table[7] ^ keys[keys.len() / 2] ^ counts.len() as u64
}

/// `raw_s` read at the reference speed, when the yardstick took
/// `yardstick_s` around it.
fn at_reference(raw_s: f64, yardstick_s: f64) -> f64 {
    raw_s * (REFERENCE_S / yardstick_s).powf(SENSITIVITY)
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall clock as measured.
    pub raw_s: f64,
    /// Wall clock at the reference machine speed: what the metrics report.
    pub secs: f64,
    /// `VmHWM` the call reached, in MiB, the mark reset before it.
    pub peak_mib: f64,
}

/// One column of `samples`.
pub fn column(samples: &[Sample], of: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(of).collect()
}

/// The timed samples of one run: the workload's job on its primary engine
/// (the threaded backend; Pado-mode `simulate`) and on the baseline it is
/// held against (the sim backend; Spark-checkpoint `simulate`).
#[derive(Default)]
pub struct Samples {
    pub primary: Vec<Sample>,
    pub baseline: Vec<Sample>,
}

impl Samples {
    /// `makespan_s`: the primary engine's median at the reference speed.
    pub fn makespan_s(&self) -> f64 {
        median(&column(&self.primary, |s| s.secs))
    }

    /// `makespan_sim_s`: the baseline engine's.
    pub fn makespan_sim_s(&self) -> f64 {
        median(&column(&self.baseline, |s| s.secs))
    }

    /// `peak_rss_mb`: peak RSS of one job, the larger of the two engines'
    /// medians.
    pub fn peak_rss_mib(&self) -> f64 {
        let peak = |samples: &[Sample]| median(&column(samples, |s| s.peak_mib));
        peak(&self.primary).max(peak(&self.baseline))
    }

    /// Prints the order statistics behind the metrics: both makespans
    /// scaled and as measured, each engine's peak RSS, and the yardstick.
    pub fn print(&self, sampler: &Sampler) {
        let rows: [(&str, &str, Vec<f64>); 7] = [
            ("makespan_s", "s", column(&self.primary, |s| s.secs)),
            (
                "makespan_s as measured",
                "s",
                column(&self.primary, |s| s.raw_s),
            ),
            ("makespan_sim_s", "s", column(&self.baseline, |s| s.secs)),
            (
                "makespan_sim_s as measured",
                "s",
                column(&self.baseline, |s| s.raw_s),
            ),
            (
                "peak RSS, primary",
                "MiB",
                column(&self.primary, |s| s.peak_mib),
            ),
            (
                "peak RSS, baseline",
                "MiB",
                column(&self.baseline, |s| s.peak_mib),
            ),
            ("yardstick", "s", sampler.yardstick_s.clone()),
        ];
        for (name, unit, values) in rows {
            print_summary(name, unit, &values);
        }
    }
}

pub fn print_summary(name: &str, unit: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => println!("{name:<28} {unit:<10} {s}"),
        None => println!("{name:<28} {unit:<10} no successful sample"),
    }
}

/// Takes samples, running the yardstick between them.
pub struct Sampler {
    threads: usize,
    /// Seconds every yardstick run took, in order.
    pub yardstick_s: Vec<f64>,
}

impl Sampler {
    /// A sampler whose yardstick keeps `threads` threads busy: as many as
    /// the work it is held against. One thread means the calling thread,
    /// because the two vCPUs change speed independently: a yardstick on a
    /// thread of its own read the other vCPU as often as not, and
    /// `paper-sim` run medians then spread 31 % scaled and unscaled alike.
    /// Runs the yardstick once.
    pub fn new(threads: usize) -> Sampler {
        let mut sampler = Sampler {
            threads,
            yardstick_s: Vec::new(),
        };
        sampler.tick();
        sampler
    }

    fn tick(&mut self) -> f64 {
        let t = Instant::now();
        if self.threads == 1 {
            std::hint::black_box(yardstick(0));
        } else {
            std::thread::scope(|scope| {
                for salt in 0..self.threads as u64 {
                    scope.spawn(move || std::hint::black_box(yardstick(salt)));
                }
            });
        }
        let secs = t.elapsed().as_secs_f64();
        self.yardstick_s.push(secs);
        secs
    }

    /// Times `f` and runs the yardstick after it; the one before it is
    /// the previous call's.
    pub fn take<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = *self.yardstick_s.last().expect("new() ran the yardstick");
        reset_peak_rss();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let peak_mib = peak_rss_mib();
        let secs = at_reference(raw_s, (before + self.tick()) / 2.0);
        (
            out,
            Sample {
                raw_s,
                secs,
                peak_mib,
            },
        )
    }
}

/// Resets this process's `VmHWM` to its current RSS, so that the next
/// reading is the peak of what ran in between. Where the kernel refuses,
/// the mark stays and readings are the peak since the process began.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_is_a_function_of_its_salt() {
        assert_eq!(yardstick(1), yardstick(1));
        assert_ne!(yardstick(1), yardstick(2));
    }

    #[test]
    fn scaling_moves_a_sample_towards_the_reference_speed_and_not_past_it() {
        assert_eq!(at_reference(1.5, REFERENCE_S), 1.5);
        // Machine at half speed: the sample would have been shorter, but
        // not by the whole factor of two.
        let slow = at_reference(1.0, 2.0 * REFERENCE_S);
        assert!(slow > 0.5 && slow < 1.0, "{slow}");
        assert!((slow - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
        let fast = at_reference(1.0, 0.5 * REFERENCE_S);
        assert!(fast > 1.0 && fast < 2.0, "{fast}");
    }

    #[test]
    fn every_sample_is_followed_by_a_yardstick_run() {
        let mut sampler = Sampler::new(1);
        let (_, sample) = sampler.take(|| std::hint::black_box(yardstick(0)));
        assert_eq!(sampler.yardstick_s.len(), 2);
        assert!(sample.raw_s > 0.0 && sample.secs > 0.0);
    }

    #[test]
    fn the_peak_is_the_samples_own() {
        let mut sampler = Sampler::new(1);
        let (big, with_alloc) = sampler.take(|| vec![1u8; 64 << 20]);
        drop(big);
        let (_, without) = sampler.take(|| ());
        assert!(with_alloc.peak_mib > 0.0);
        if without.peak_mib < with_alloc.peak_mib {
            // The kernel let the mark be reset.
            assert!(
                with_alloc.peak_mib - without.peak_mib > 32.0,
                "{with_alloc:?} {without:?}"
            );
        }
    }
}
