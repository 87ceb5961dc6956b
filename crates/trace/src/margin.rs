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

/// Takes one series' value `u` at minute `t` into one margin's scan.
/// `alloc` holds the current container's start and LC usage's minimum
/// since, `None` while none fits. Inlined into the walk, with the state in
/// the caller's locals, so that the scan's sums can stay in registers.
#[inline(always)]
fn step(
    buffer: f64,
    alloc: &mut Option<(usize, f64)>,
    (collected, idle): (&mut f64, &mut f64),
    lifetimes: &mut Vec<u64>,
    t: usize,
    u: f64,
) {
    let u = u.clamp(0.0, 1.0);
    *idle += 1.0 - u;
    if let Some((start, low)) = *alloc {
        let low = low.min(u);
        // The container holds `1 - low - buffer`, evicted once LC usage grows into it.
        if u <= low + buffer {
            *alloc = Some((start, low));
            *collected += 1.0 - low - buffer;
            return;
        }
        evicted(lifetimes, (t - start) as u64);
        *alloc = None;
    }
    // (Re)allocate when there is idle memory beyond the buffer.
    if 1.0 - u > buffer {
        *alloc = Some((t, u));
        *collected += 1.0 - u - buffer;
    }
}

/// Out of line and cold: the rare push does not spill `step`'s sums.
#[cold]
#[inline(never)]
fn evicted(lifetimes: &mut Vec<u64>, minutes: u64) {
    lifetimes.push(minutes);
}

/// Runs the full analysis for each of `margins`: each 5-minute series is
/// refined to 1-minute resolution with the B-spline once, streaming into
/// every margin's scan (never stored) for lifetimes and memory fractions.
pub fn analyze_margins<const N: usize>(
    series: &[UsageSeries],
    margins: [f64; N],
) -> [MarginAnalysis; N] {
    let mut lifetimes = margins.map(|_| Vec::new());
    let (mut collected, mut idle, mut samples) = ([0.0; N], [0.0; N], 0usize);
    for s in series {
        let (mut t, mut alloc) = (0, [None; N]);
        walk(&s.samples, 5, |u| {
            for k in 0..N {
                let sums = (&mut collected[k], &mut idle[k]);
                step(margins[k], &mut alloc[k], sums, &mut lifetimes[k], t, u);
            }
            t += 1;
        });
        samples += t;
        // A container alive at the series' end adds a censored lifetime.
        for (alloc, lifetimes) in alloc.into_iter().zip(&mut lifetimes) {
            match alloc {
                Some((start, _)) if t > start + 1 => lifetimes.push((t - 1 - start) as u64),
                _ => {}
            }
        }
    }
    let n = samples.max(1) as f64;
    let mut lifetimes = lifetimes.into_iter();
    std::array::from_fn(|k| MarginAnalysis {
        margin: margins[k],
        lifetimes_min: lifetimes.next().expect("one per margin"),
        collected_fraction: collected[k] / n,
        baseline_idle_fraction: idle[k] / n,
    })
}

/// [`analyze_margins`] for one safety margin.
pub fn analyze(series: &[UsageSeries], margin: f64) -> MarginAnalysis {
    let [analysis] = analyze_margins(series, [margin]);
    analysis
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
    fn one_walk_for_all_margins_is_each_margins_own_analysis() {
        let series = crate::synth::generate(&crate::synth::SynthConfig {
            containers: 10,
            days: 3,
            ..Default::default()
        });
        let bits = |a: &MarginAnalysis| {
            let fractions = [a.margin, a.collected_fraction, a.baseline_idle_fraction];
            (a.lifetimes_min.clone(), fractions.map(f64::to_bits))
        };
        let all = analyze_margins(&series, crate::PAPER_MARGINS);
        for (a, &margin) in all.iter().zip(&crate::PAPER_MARGINS) {
            assert_eq!(bits(a), bits(&analyze(&series, margin)), "margin {margin}");
        }
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
