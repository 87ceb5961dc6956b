//! Order statistics over a small sample: the vendored criterion shim
//! only reports a mean, and a mean of wall-clock samples follows every
//! scheduler hiccup.

/// Minimum, quartiles, median and MAD of `n` samples.
///
/// With fewer than 21 samples no percentile above the median has ten
/// samples beyond it, so none is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

/// Quantile `q` in `[0, 1]` of an ascending slice, interpolating
/// linearly between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; 0 for an empty slice, so a layer the workload
/// bypasses reads as zero work.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(&sorted(samples), 0.5)
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let v = sorted(samples);
        let median = quantile(&v, 0.5);
        let deviations: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median,
            q3: quantile(&v, 0.75),
            mad: self::median(&deviations),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.6} q1={:.6} median={:.6} q3={:.6} mad={:.6}",
            self.n, self.min, self.q1, self.median, self.q3, self.mad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_hits_exact_ranks() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        // |x - 3| = 2 1 0 1 2 -> median 1.
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn even_sample_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn one_outlier_moves_the_mean_not_the_median() {
        let s = Summary::of(&[1.0, 1.0, 1.0, 1.0, 100.0]).unwrap();
        assert_eq!(s.median, 1.0);
        assert_eq!(s.mad, 0.0);
    }

    #[test]
    fn single_and_empty() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.mad),
            (7.5, 7.5, 7.5, 7.5, 0.0)
        );
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
