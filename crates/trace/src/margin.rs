//! Safety-margin analysis of transient container lifetimes (§2.1).
//!
//! Following the Borg-style technique the paper applies: a transient
//! container is set up with the unused memory of an LC container, leaving
//! a *buffer* of `memory × safety-margin` untouched. When LC usage
//! decreases, the transient container is reallocated the newly idle
//! memory (it tracks the running minimum of LC usage). When LC usage
//! grows past the buffer — into memory the transient container occupies —
//! the transient container is evicted. A new transient container is set
//! up as soon as idle memory beyond the buffer reappears.

use crate::bspline::walk;
use crate::cdf::Cdf;
use crate::synth::UsageSeries;

/// Result of analyzing one safety margin across a whole trace.
#[derive(Debug, Clone)]
pub struct MarginAnalysis {
    /// The safety margin analyzed (fraction of LC memory, e.g. `0.001`).
    pub margin: f64,
    /// Observed transient-container lifetimes, minutes.
    pub lifetimes_min: Vec<u64>,
    /// Time-averaged memory collected for transient containers, as a
    /// fraction of total LC memory (Table 2).
    pub collected_fraction: f64,
    /// Time-averaged idle memory fraction (Table 2's baseline).
    pub baseline_idle_fraction: f64,
}

impl MarginAnalysis {
    /// The `q`-quantile of the observed lifetimes, minutes ([`Cdf::quantile`]).
    pub fn percentile(&self, q: f64) -> u64 {
        Cdf::new(self.lifetimes_min.clone()).quantile(q)
    }
}

/// Analyzes one container's 5-minute usage as [`walk`] refines it to
/// 1-minute resolution, appending lifetimes (in minutes) and accumulating
/// collected-memory statistics.
fn analyze_series(
    usage_5min: &[f64],
    margin: f64,
    lifetimes: &mut Vec<u64>,
    collected_sum: &mut f64,
    idle_sum: &mut f64,
    samples: &mut usize,
) {
    let buffer = margin;
    // Running minimum of LC usage since the current transient container
    // was allocated; `None` while no container fits.
    let mut alloc: Option<(usize, f64)> = None;
    let mut t = 0;
    walk(usage_5min, 5, |u| {
        let u = u.clamp(0.0, 1.0);
        *idle_sum += 1.0 - u;
        match alloc {
            None => {
                // Allocate when there is idle memory beyond the buffer.
                if 1.0 - u > buffer {
                    alloc = Some((t, u));
                    *collected_sum += 1.0 - u - buffer;
                }
            }
            Some((start, low)) => {
                let low = low.min(u);
                // The transient container occupies `1 - low - buffer`;
                // eviction when LC usage grows into it.
                if u > low + buffer {
                    lifetimes.push((t - start) as u64);
                    alloc = None;
                    // Immediately try to reallocate at the new level.
                    if 1.0 - u > buffer {
                        alloc = Some((t, u));
                        *collected_sum += 1.0 - u - buffer;
                    }
                } else {
                    alloc = Some((start, low));
                    *collected_sum += 1.0 - low - buffer;
                }
            }
        }
        t += 1;
    });
    *samples += t;
    // A container alive at trace end contributes a (censored) lifetime.
    if let Some((start, _)) = alloc {
        if t > start + 1 {
            lifetimes.push((t - 1 - start) as u64);
        }
    }
}

/// Runs the full analysis for one safety margin: refine every 5-minute
/// series to 1-minute resolution with the B-spline, then extract
/// transient container lifetimes and collected-memory fractions. The
/// refined values stream into the scan; no 1-minute series is stored.
pub fn analyze(series: &[UsageSeries], margin: f64) -> MarginAnalysis {
    let mut lifetimes = Vec::new();
    let mut collected_sum = 0.0;
    let mut idle_sum = 0.0;
    let mut samples = 0usize;
    for s in series {
        analyze_series(
            &s.samples,
            margin,
            &mut lifetimes,
            &mut collected_sum,
            &mut idle_sum,
            &mut samples,
        );
    }
    let n = samples.max(1) as f64;
    MarginAnalysis {
        margin,
        lifetimes_min: lifetimes,
        collected_fraction: collected_sum / n,
        baseline_idle_fraction: idle_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_series(value: f64, len: usize) -> UsageSeries {
        UsageSeries {
            samples: vec![value; len],
        }
    }

    #[test]
    fn flat_usage_never_evicts() {
        let series = vec![flat_series(0.7, 100)];
        let a = analyze(&series, 0.01);
        // Only the censored end-of-trace lifetime is recorded.
        assert_eq!(a.lifetimes_min.len(), 1);
        assert_eq!(a.lifetimes_min[0] as usize, (100 - 1) * 5);
    }

    #[test]
    fn usage_step_evicts_once() {
        // 0.6 for 50 samples, then a step to 0.8 — one eviction, then a
        // stable container to trace end.
        let mut samples = vec![0.6; 50];
        samples.extend(vec![0.8; 50]);
        let series = vec![UsageSeries { samples }];
        let a = analyze(&series, 0.05);
        // The B-spline smooths the step into a ramp, so the 0.2 rise
        // produces a handful of evict-reallocate cycles, plus the final
        // censored container: at least one eviction, and the first
        // container's lifetime spans the whole flat prefix.
        assert!(a.lifetimes_min.len() >= 2);
        assert!(
            a.lifetimes_min[0] >= 200,
            "first lifetime spans the flat prefix"
        );
    }

    #[test]
    fn smaller_margin_gives_shorter_lifetimes() {
        let series = crate::synth::generate(&crate::synth::SynthConfig {
            containers: 20,
            days: 7,
            ..Default::default()
        });
        let tight = analyze(&series, 0.001);
        let loose = analyze(&series, 0.05);
        assert!(
            tight.percentile(0.5) < loose.percentile(0.5),
            "median lifetimes: tight {} !< loose {}",
            tight.percentile(0.5),
            loose.percentile(0.5)
        );
        assert!(tight.lifetimes_min.len() > loose.lifetimes_min.len());
    }

    #[test]
    fn collected_memory_decreases_with_margin() {
        let series = crate::synth::generate(&crate::synth::SynthConfig {
            containers: 10,
            days: 5,
            ..Default::default()
        });
        let a = analyze(&series, 0.001);
        let b = analyze(&series, 0.05);
        assert!(a.collected_fraction > b.collected_fraction);
        assert!(a.collected_fraction <= a.baseline_idle_fraction + 1e-9);
    }

    #[test]
    fn percentile_handles_empty() {
        let a = MarginAnalysis {
            margin: 0.01,
            lifetimes_min: Vec::new(),
            collected_fraction: 0.0,
            baseline_idle_fraction: 0.0,
        };
        assert_eq!(a.percentile(0.5), 0);
    }

    #[test]
    fn running_minimum_grows_container() {
        // Usage decreasing: the transient container grows; collected
        // memory should exceed what the initial level allowed.
        let samples: Vec<f64> = (0..50).map(|i| 0.9 - i as f64 * 0.01).collect();
        let series = vec![UsageSeries { samples }];
        let a = analyze(&series, 0.01);
        assert!(a.collected_fraction > 0.05);
        assert_eq!(a.lifetimes_min.len(), 1, "no eviction on decreasing usage");
    }
}
