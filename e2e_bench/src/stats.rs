//! Summary statistics with the benchmark's reporting rules.

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail drawn from fewer samples is mostly noise.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`,
/// or `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank && n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
