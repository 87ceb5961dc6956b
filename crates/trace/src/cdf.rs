//! Empirical CDFs and the paper's trace-analysis summary tables.

use crate::margin::MarginAnalysis;

/// An empirical CDF over lifetime samples (minutes).
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<u64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Fraction of samples `<= x`.
    pub fn at(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&s| s <= x) as f64 / self.sorted.len() as f64
    }

    /// The value at quantile `q` (nearest-rank).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let pos = (q.clamp(0.0, 1.0) * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[pos]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates the CDF at each of `xs` (for plotting Figure 1).
    pub fn series(&self, xs: &[u64]) -> Vec<(u64, f64)> {
        xs.iter().map(|&x| (x, self.at(x))).collect()
    }
}

/// One row of Table 1: lifetime percentiles for a margin.
#[derive(Debug, Clone)]
pub struct LifetimeRow {
    /// Safety margin.
    pub margin: f64,
    /// 10th-percentile lifetime, minutes.
    pub p10: u64,
    /// Median lifetime, minutes.
    pub p50: u64,
    /// 90th-percentile lifetime, minutes.
    pub p90: u64,
}

/// Summarizes a margin analysis into a Table 1 row, with one sort.
pub fn lifetime_row(a: &MarginAnalysis) -> LifetimeRow {
    let cdf = Cdf::new(a.lifetimes_min.clone());
    LifetimeRow {
        margin: a.margin,
        p10: cdf.quantile(0.10),
        p50: cdf.quantile(0.50),
        p90: cdf.quantile(0.90),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let c = Cdf::new(vec![5, 1, 3, 3, 9]);
        let mut prev = 0.0;
        for x in 0..12 {
            let v = c.at(x);
            assert!(v >= prev);
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
        assert_eq!(c.at(9), 1.0);
    }

    #[test]
    fn quantiles_pick_order_statistics() {
        let c = Cdf::new(vec![10, 20, 30, 40, 50]);
        assert_eq!(c.quantile(0.0), 10);
        assert_eq!(c.quantile(0.5), 30);
        assert_eq!(c.quantile(1.0), 50);
    }

    #[test]
    fn empty_cdf_is_harmless() {
        let c = Cdf::new(Vec::new());
        assert_eq!(c.at(7), 0.0);
        assert_eq!(c.quantile(0.9), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn series_pairs_inputs_with_values() {
        let c = Cdf::new(vec![1, 2, 3]);
        let s = c.series(&[0, 2, 5]);
        assert_eq!(s, vec![(0, 0.0), (2, 2.0 / 3.0), (5, 1.0)]);
    }
}
