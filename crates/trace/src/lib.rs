//! Transient-container lifetime analysis (§2.1 of the Pado paper).
//!
//! The paper derives transient container lifetime CDFs (Figure 1),
//! lifetime percentiles (Table 1), and collected-idle-memory fractions
//! (Table 2) from a Google datacenter trace. Lacking that proprietary
//! trace, this crate generates synthetic latency-critical memory-usage
//! series with the same salient structure and runs the *same analysis
//! pipeline*: cubic B-spline refinement of 5-minute samples to 1-minute
//! resolution, then Borg-style safety-margin eviction detection.
//!
//! The resulting empirical lifetime distributions drive the eviction
//! process of the simulated cluster in `pado-simcluster`.
//!
//! # Examples
//!
//! ```
//! use pado_trace::{analyze, generate, lifetime_row, SynthConfig};
//!
//! let series = generate(&SynthConfig { containers: 10, days: 3, ..Default::default() });
//! let high = analyze(&series, 0.001); // 0.1 % safety margin.
//! let low = analyze(&series, 0.05); // 5 % safety margin.
//! let row = lifetime_row(&high);
//! assert!(row.p10 <= row.p50 && row.p50 <= row.p90);
//! assert!(high.percentile(0.5) <= low.percentile(0.5));
//! ```
#![warn(missing_docs)]

pub mod bspline;
pub mod cdf;
pub mod margin;
pub mod synth;

pub use bspline::refine;
pub use cdf::{lifetime_row, Cdf, LifetimeRow};
pub use margin::{analyze, analyze_margins, MarginAnalysis};
pub use synth::{generate, SynthConfig, UsageSeries};

/// The paper's three safety margins: 0.1 % (high eviction), 1 % (medium),
/// and 5 % (low).
pub const PAPER_MARGINS: [f64; 3] = [0.001, 0.01, 0.05];
