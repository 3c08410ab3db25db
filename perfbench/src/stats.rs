//! Exact-sample statistics.
//!
//! Every percentile reported here is one of the measured samples
//! (nearest rank over the sorted raw values), never a histogram bucket
//! bound: the registry histograms bucket by powers of two, so their
//! "p99" can exceed the largest sample. A percentile is refused unless
//! at least [`MIN_BEYOND`] samples lie beyond it, so a reported tail is
//! never set by a handful of outliers.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile (0–100).
    pub pct: u32,
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked above `value`.
    pub beyond: usize,
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{}={} (n={}, {} beyond)",
            self.pct, self.value, self.samples, self.beyond
        )
    }
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// The percentile is outside 1–100.
    OutOfRange(u32),
    /// Too few samples lie beyond the percentile.
    TooFewBeyond {
        /// The percentile asked for.
        pct: u32,
        /// Samples in the set.
        samples: usize,
        /// Samples that lie beyond it.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::OutOfRange(pct) => write!(f, "percentile p{pct} is not in 1..=100"),
            PercentileError::TooFewBeyond {
                pct,
                samples,
                beyond,
            } => write!(
                f,
                "p{pct} of {samples} samples has {beyond} beyond it (need {MIN_BEYOND})"
            ),
        }
    }
}

impl std::error::Error for PercentileError {}

/// Raw measurements, kept whole so percentiles are exact.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `pct`-th percentile: the smallest sample with
    /// at least `pct`% of the set at or below it. Refused when fewer
    /// than [`MIN_BEYOND`] samples rank above it.
    pub fn percentile(&mut self, pct: u32) -> Result<Percentile, PercentileError> {
        if !(1..=100).contains(&pct) {
            return Err(PercentileError::OutOfRange(pct));
        }
        let samples = self.values.len();
        // Integer rank arithmetic: 0.99 * 1000 is not exactly 990.0.
        let rank = (pct as usize * samples).div_ceil(100).max(1);
        let beyond = samples.saturating_sub(rank);
        if samples == 0 || beyond < MIN_BEYOND {
            return Err(PercentileError::TooFewBeyond {
                pct,
                samples,
                beyond,
            });
        }
        self.sort();
        Ok(Percentile {
            pct,
            value: self.values[rank - 1],
            samples,
            beyond,
        })
    }

    /// The largest sample.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().max_by(f64::total_cmp)
    }

    /// The median of a small set (the mean of the middle two for an
    /// even count). Used for per-job and per-start-up figures, where a
    /// run has a few samples and no tail is reported.
    pub fn median(&mut self) -> Option<f64> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        self.sort();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
        })
    }
}

/// The `pct`-th percentile of each window when the time-ordered
/// sequence `seq` is cut into as many consecutive windows of at least
/// `window` samples as it holds (sizes differ by at most one). The
/// median of these is a tail figure that one long stall of the host
/// cannot move by itself: the stall lands in one window.
pub fn window_percentiles(
    seq: &[f64],
    window: usize,
    pct: u32,
) -> Result<Samples, PercentileError> {
    let windows = (seq.len() / window.max(1)).max(1);
    let mut out = Samples::new();
    let mut start = 0;
    for w in 0..windows {
        let end = (w + 1) * seq.len() / windows;
        let mut chunk: Samples = seq[start..end].iter().copied().collect();
        out.push(chunk.percentile(pct)?.value);
        start = end;
    }
    Ok(out)
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}
