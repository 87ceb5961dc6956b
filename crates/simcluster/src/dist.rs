//! Lifetime distributions for transient containers.
//!
//! The paper derives empirical CDFs of transient container lifetimes from
//! a datacenter trace (Figure 1) and drives the simulated cluster's
//! eviction process with them (§5.1.1). [`EmpiricalDist`] holds such a
//! CDF as a sorted sample set and samples by inverse transform.

use rand::Rng;

/// How transient container lifetimes are drawn.
#[derive(Debug, Clone)]
pub enum LifetimeDist {
    /// Containers are never evicted (the paper's "none" eviction rate).
    None,
    /// Lifetimes drawn from an empirical CDF (microseconds).
    Empirical(EmpiricalDist),
    /// Exponential lifetimes with the given mean (microseconds); handy
    /// for property tests.
    Exponential {
        /// Mean lifetime in microseconds.
        mean_us: f64,
    },
}

impl LifetimeDist {
    /// Draws a lifetime, or `None` when containers are never evicted.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<u64> {
        match self {
            LifetimeDist::None => None,
            LifetimeDist::Empirical(d) => Some(d.sample(rng)),
            LifetimeDist::Exponential { mean_us } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                Some((-mean_us * u.ln()).max(1.0) as u64)
            }
        }
    }
}

/// An empirical distribution over `u64` samples (inverse-CDF sampling
/// with linear interpolation between order statistics); clones share them.
#[derive(Debug, Clone)]
pub struct EmpiricalDist {
    sorted: std::sync::Arc<[u64]>,
}

impl EmpiricalDist {
    /// Builds a distribution from observed samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty; an eviction process needs at least
    /// one observed lifetime.
    pub fn new(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        samples.sort_unstable();
        EmpiricalDist {
            sorted: samples.into(),
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.quantile(rng.gen_range(0.0..1.0))
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        let a = self.sorted[lo] as f64;
        let b = self.sorted[hi] as f64;
        (a + (b - a) * frac).round() as u64
    }

    /// The empirical CDF value at `x`: the fraction of samples `<= x`.
    pub fn cdf(&self, x: u64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantiles_interpolate() {
        let d = EmpiricalDist::new(vec![10, 20, 30, 40, 50]);
        assert_eq!(d.quantile(0.0), 10);
        assert_eq!(d.quantile(1.0), 50);
        assert_eq!(d.quantile(0.5), 30);
        assert_eq!(d.quantile(0.25), 20);
        assert_eq!(d.quantile(0.125), 15);
    }

    #[test]
    fn cdf_counts_fraction_below() {
        let d = EmpiricalDist::new(vec![1, 2, 3, 4]);
        assert_eq!(d.cdf(0), 0.0);
        assert_eq!(d.cdf(2), 0.5);
        assert_eq!(d.cdf(4), 1.0);
    }

    #[test]
    fn samples_stay_in_range() {
        let d = EmpiricalDist::new(vec![5, 7, 11]);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((5..=11).contains(&s));
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let dist = LifetimeDist::Exponential { mean_us: 1000.0 };
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| dist.sample(&mut rng).unwrap()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean was {mean}");
    }

    #[test]
    fn none_never_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(LifetimeDist::None.sample(&mut rng).is_none());
    }

    #[test]
    fn single_sample_dist_is_constant() {
        let d = EmpiricalDist::new(vec![99]);
        assert_eq!(d.quantile(0.3), 99);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }
}
