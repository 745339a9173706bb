//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median and as a tail percentile. The
//! tail is the highest percentile on [`TAIL_LADDER`] that still has at
//! least [`TAIL_BEYOND`] samples beyond it, so a small sample never
//! reports its maximum as if it were a p99.

/// Candidate tail percentiles, as fractions, in increasing order.
pub const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction (0.99 for p99).
    pub pct: f64,
    pub value: f64,
    /// Sample count the percentile was read from.
    pub samples: usize,
}

impl Tail {
    /// `p99`-style label of the percentile.
    pub fn label(&self) -> String {
        format!("p{}", self.pct * 100.0)
    }
}

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (nearest rank; 0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 0.5)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - nearest_rank(n, p) >= TAIL_BEYOND)
}

/// Tail of `values` by the [`tail_percentile`] rule; a sample too small
/// for any ladder percentile reports its maximum as `p100`.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    match tail_percentile(s.len()) {
        Some(p) => Tail {
            pct: p,
            value: percentile(&s, p),
            samples: s.len(),
        },
        None => Tail {
            pct: 1.0,
            value: s.last().copied().unwrap_or(0.0),
            samples: s.len(),
        },
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
