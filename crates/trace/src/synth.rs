//! Synthetic latency-critical job memory-usage traces.
//!
//! Stand-in for the Google ClusterData2011_2 trace the paper analyzes
//! (§2.1): per-container average memory usage sampled at 5-minute
//! intervals over several weeks. The generator reproduces the properties
//! the paper's analysis depends on: over-provisioned LC containers whose
//! usage leaves roughly a quarter of memory idle on average, diurnal load
//! swings, short-term stochastic fluctuation (AR(1)), and occasional load
//! spikes — so aggressive harvesting (tiny safety margins) yields
//! minute-scale transient lifetimes while conservative margins yield
//! hour-scale lifetimes, as in Figure 1 / Table 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples per hour at the trace's native 5-minute interval.
pub const SAMPLES_PER_HOUR: usize = 12;

/// Parameters of the synthetic LC workload.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of LC containers to simulate.
    pub containers: usize,
    /// Trace length in days (the Google trace spans ~29 days).
    pub days: usize,
    /// Mean usage as a fraction of container memory (controls idle
    /// memory; 0.74 leaves ~26 % idle, Table 2's baseline).
    pub mean_usage: f64,
    /// Amplitude of the diurnal swing (fraction of memory).
    pub diurnal_amplitude: f64,
    /// Amplitude of a medium-period (~1.5 h) load oscillation (fraction
    /// of memory); drives hour-scale evictions at large safety margins.
    pub meso_amplitude: f64,
    /// Standard deviation of the AR(1) fluctuation per 5-minute step.
    pub noise_sigma: f64,
    /// AR(1) coefficient (persistence of fluctuations).
    pub noise_phi: f64,
    /// Probability that a load spike starts at any 5-minute sample.
    pub spike_prob: f64,
    /// Spike height (fraction of memory).
    pub spike_height: f64,
    /// Spike duration in 5-minute samples.
    pub spike_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            containers: 60,
            days: 29,
            mean_usage: 0.74,
            diurnal_amplitude: 0.08,
            meso_amplitude: 0.035,
            noise_sigma: 0.009,
            noise_phi: 0.85,
            spike_prob: 0.004,
            spike_height: 0.12,
            spike_len: 6,
            seed: 2017,
        }
    }
}

/// One LC container's usage series (fractions of its memory, 5-minute
/// samples).
#[derive(Debug, Clone)]
pub struct UsageSeries {
    /// Usage fractions in `[0, 1]`, one per 5-minute interval.
    pub samples: Vec<f64>,
}

/// Draws a standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates the synthetic trace: one usage series per LC container.
pub fn generate(config: &SynthConfig) -> Vec<UsageSeries> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let day_len = 24 * SAMPLES_PER_HOUR;
    let n = config.days * day_len;
    (0..config.containers)
        .map(|_| {
            // Containers differ in phase, base load, and volatility: some
            // LC jobs are calm (long transient lifetimes even at tight
            // margins), others churn constantly — this heterogeneity is
            // what gives the lifetime CDFs their long right tails.
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let base = config.mean_usage + normal(&mut rng) * 0.03;
            let volatility = (normal(&mut rng) * 1.2 - 0.8).exp().clamp(0.02, 4.0);
            let meso_scale: f64 = if rng.gen_bool(0.35) {
                0.0
            } else {
                rng.gen_range(0.2..1.6)
            };
            // Real memory usage moves in steps: many jobs hold an
            // allocation flat for a while. Each container re-evaluates its
            // usage only every `hold` samples, producing the plateaus that
            // give tight margins their minutes-long lifetimes.
            let hold: usize = match rng.gen_range(0u32..10) {
                0..=2 => 1,
                3..=6 => rng.gen_range(2..6),
                _ => rng.gen_range(6..20),
            };
            let mut ar = 0.0f64;
            let mut spike_left = 0usize;
            let mut held = 0.0f64;
            // The diurnal and meso swings, once per slot of the day.
            let day: Vec<(f64, f64)> = (0..n.min(day_len))
                .map(|slot| {
                    let hour = slot as f64 / SAMPLES_PER_HOUR as f64;
                    let diurnal = config.diurnal_amplitude
                        * (std::f64::consts::TAU * hour / 24.0 + phase).sin();
                    let meso = config.meso_amplitude
                        * meso_scale
                        * (std::f64::consts::TAU * hour / 1.5 + phase * 3.0).sin();
                    (diurnal, meso)
                })
                .collect();
            let mut samples = Vec::with_capacity(n);
            for t in 0..n {
                let (diurnal, meso) = day[t % day_len];
                ar = config.noise_phi * ar + normal(&mut rng) * config.noise_sigma * volatility;
                if spike_left == 0 && rng.gen_bool(config.spike_prob) {
                    spike_left = config.spike_len;
                }
                let spike = if spike_left > 0 {
                    spike_left -= 1;
                    config.spike_height
                } else {
                    0.0
                };
                let u = (base + diurnal + meso + ar + spike).clamp(0.02, 1.0);
                if t % hold == 0 || spike > 0.0 {
                    held = u;
                }
                samples.push(held);
            }
            UsageSeries { samples }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_length_matches_config() {
        let cfg = SynthConfig {
            containers: 3,
            days: 2,
            ..Default::default()
        };
        let series = generate(&cfg);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.samples.len(), 2 * 24 * SAMPLES_PER_HOUR);
        }
    }

    #[test]
    fn usage_stays_in_bounds() {
        let series = generate(&SynthConfig {
            containers: 5,
            days: 3,
            ..Default::default()
        });
        for s in &series {
            for &u in &s.samples {
                assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    #[test]
    fn mean_idle_memory_is_roughly_a_quarter() {
        let series = generate(&SynthConfig::default());
        let total: f64 = series.iter().flat_map(|s| s.samples.iter()).sum();
        let count: usize = series.iter().map(|s| s.samples.len()).sum();
        let mean = total / count as f64;
        let idle = 1.0 - mean;
        assert!(
            (0.20..0.32).contains(&idle),
            "idle fraction {idle:.3} should approximate the trace's ~26 %"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SynthConfig {
            containers: 2,
            days: 1,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a[0].samples, b[0].samples);
        let c = generate(&SynthConfig { seed: 1, ..cfg });
        assert_ne!(a[0].samples, c[0].samples);
    }

    #[test]
    fn usage_fluctuates() {
        let series = generate(&SynthConfig {
            containers: 1,
            days: 1,
            ..Default::default()
        });
        let s = &series[0].samples;
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.05, "series should fluctuate: {min}..{max}");
    }
}
