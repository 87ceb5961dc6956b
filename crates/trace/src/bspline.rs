//! Uniform cubic B-spline curve fitting.
//!
//! The paper refines 5-minute-interval memory usage records into 1-minute
//! records "by applying the B-spline function … commonly used for
//! curve-fitting of experimental data" (§2.1, citing de Boor). This module
//! implements the uniform cubic B-spline with the coarse samples as
//! control points (a smoothing approximation) and end-point clamping via
//! repeated boundary control points.

/// Evaluates the four cubic B-spline basis functions at local parameter
/// `u` in `[0, 1]`.
fn basis(u: f64) -> [f64; 4] {
    let u2 = u * u;
    let u3 = u2 * u;
    [
        (1.0 - u).powi(3) / 6.0,
        (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0,
        (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0,
        u3 / 6.0,
    ]
}

/// Walks the spline through `samples` at `factor`× their resolution: for
/// `n` samples at interval Δ, passes `emit` the `(n-1)*factor + 1` values
/// at interval Δ/factor, storing none (the paper's 5-minute → 1-minute
/// refinement uses `factor = 5`). Value `i` lies in segment
/// `seg = i / factor` at `u = fl(i / factor) - seg`, an exact difference
/// fixed by `i % factor` and the binade of `seg` while `n * factor < 2^52`:
/// the basis weights are computed per offset at segments 0, 1, 2, 4, … only.
///
/// # Panics
///
/// Panics if fewer than two samples are given.
pub(crate) fn walk(samples: &[f64], factor: usize, mut emit: impl FnMut(f64)) {
    let (c, n, factor) = (samples, samples.len(), factor.max(1));
    assert!(n >= 2, "need at least two samples to fit");
    // Control points `seg - 1 ..= seg + 2`, clamped so the curve stays
    // anchored to the data range at the ends.
    let window = |seg: usize| {
        [
            c[seg.max(1) - 1],
            c[seg],
            c[seg + 1],
            c[(seg + 2).min(n - 1)],
        ]
    };
    let at = |b: [f64; 4], p: [f64; 4]| b[0] * p[0] + b[1] * p[1] + b[2] * p[2] + b[3] * p[3];
    let mut weights = Vec::with_capacity(factor);
    for seg in 0..n - 1 {
        if seg.count_ones() <= 1 {
            weights.clear();
            weights.extend(
                (0..factor).map(|r| basis((seg * factor + r) as f64 / factor as f64 - seg as f64)),
            );
        }
        let p = window(seg);
        for &b in &weights {
            emit(at(b, p));
        }
    }
    // The end point closes the last segment, at u = 1.
    emit(at(basis(1.0), window(n - 2)));
}

/// Convenience: the refined series `walk` passes, collected.
pub fn refine(samples: &[f64], factor: usize) -> Vec<f64> {
    let mut out = Vec::new();
    walk(samples, factor, |v| out.push(v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The spline evaluated at parameter `t` in sample-index units
    /// (`0.0..=(n-1)`), clamping outside the range: the oracle [`walk`]
    /// is held to.
    fn eval(control: &[f64], t: f64) -> f64 {
        let n = control.len();
        let t = t.clamp(0.0, (n - 1) as f64);
        let seg = (t.floor() as usize).min(n - 2);
        let u = t - seg as f64;
        let b = basis(u);
        let p = |i: isize| control[i.clamp(0, (n - 1) as isize) as usize];
        let s = seg as isize;
        b[0] * p(s - 1) + b[1] * p(s) + b[2] * p(s + 1) + b[3] * p(s + 2)
    }

    proptest! {
        // Up to 3 000 points: segment indices cross eleven binades.
        #[test]
        fn walk_is_eval_bit_for_bit(
            samples in proptest::collection::vec(-10.0f64..10.0, 2..3_000),
            factor in 1usize..9,
        ) {
            let refined = refine(&samples, factor);
            prop_assert_eq!(refined.len(), (samples.len() - 1) * factor + 1);
            for (i, v) in refined.iter().enumerate() {
                // The last value is segment `n - 2` at u = 1.
                let oracle = eval(&samples, i as f64 / factor as f64);
                prop_assert_eq!(v.to_bits(), oracle.to_bits(), "i={} factor={}", i, factor);
            }
        }
    }

    #[test]
    fn basis_partitions_unity() {
        for k in 0..10 {
            let u = k as f64 / 10.0;
            let b = basis(u);
            let sum: f64 = b.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "u={u}: sum={sum}");
        }
    }

    #[test]
    fn constant_data_stays_constant() {
        for v in refine(&[3.0; 8], 10) {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_data_stays_linear_in_interior() {
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let refined = refine(&data, 10);
        // Uniform cubic B-splines reproduce linear functions exactly in
        // the interior (partition of unity + linear precision).
        for (k, v) in refined.iter().enumerate().take(70).skip(20) {
            let t = k as f64 / 10.0;
            assert!((v - t).abs() < 1e-9, "t={t}: {v}");
        }
    }

    #[test]
    fn smoothing_stays_within_data_hull() {
        let data = vec![0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        for (k, v) in refine(&data, 10).into_iter().enumerate() {
            let t = k as f64 / 10.0;
            assert!(
                (0.0..=10.0).contains(&v),
                "convex-hull property violated at t={t}: {v}"
            );
        }
    }

    #[test]
    fn resample_counts_match() {
        let refined = refine(&[1.0, 2.0, 3.0, 4.0], 5);
        assert_eq!(refined.len(), 3 * 5 + 1);
    }

    #[test]
    fn eval_clamps_out_of_range() {
        let c = [1.0, 2.0, 3.0];
        assert_eq!(eval(&c, -5.0), eval(&c, 0.0));
        assert_eq!(eval(&c, 99.0), eval(&c, 2.0));
    }

    #[test]
    fn resample_smooths_toward_local_mean() {
        // A spike gets attenuated by the smoothing approximation.
        let data = vec![0.0, 0.0, 10.0, 0.0, 0.0];
        let refined = refine(&data, 5);
        let peak = refined.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            peak < 10.0,
            "peak {peak} should be smoothed below the spike"
        );
        assert!(peak > 3.0, "peak {peak} should still reflect the spike");
    }
}
