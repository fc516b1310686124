//! Order statistics for timings: a median plus the highest percentile the
//! sample count can support.

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of an `n`-sample set that still has at least ten
/// samples beyond it, or `None` when `n` is too small to have any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > 10).then(|| (n - 10) as f64 / n as f64 * 100.0)
}

/// A timing reported the way the metrics guide asks: median, one tail
/// percentile, and how many samples stand behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    /// Value at `tail_pct`; equals `p50` when the sample supports no tail.
    pub tail: f64,
    /// The percentile `tail` was read at: the wanted one, lowered to the
    /// highest the sample count supports.
    pub tail_pct: f64,
    pub n: usize,
}

/// Summarise `samples`, reading the tail at `want_pct` or, if fewer than ten
/// samples lie beyond that, at the highest percentile that has ten.
pub fn timing(samples: &[f64], want_pct: f64) -> Timing {
    let p50 = median(samples);
    let n = samples.len();
    let Some(supported) = highest_supported_percentile(n) else {
        return Timing {
            p50,
            tail: p50,
            tail_pct: 50.0,
            n,
        };
    };
    let tail_pct = want_pct.min(supported);
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least `tail_pct` % at or below.
    let rank = ((tail_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Timing {
        p50,
        tail: v[rank - 1],
        tail_pct,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(11), Some(100.0 / 11.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(3000), Some(2990.0 / 30.0));
    }

    #[test]
    fn tail_is_lowered_to_what_the_sample_supports() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = timing(&samples, 99.0);
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!(t.tail, 90.0);
        assert_eq!(t.n, 100);
        // Exactly ten samples (91..=100) lie beyond the reported value.
        assert_eq!(samples.iter().filter(|&&s| s > t.tail).count(), 10);

        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = timing(&many, 99.0);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 1980.0);
    }

    #[test]
    fn small_samples_report_the_median_only() {
        let t = timing(&[5.0, 7.0, 9.0], 90.0);
        assert_eq!((t.p50, t.tail, t.tail_pct, t.n), (7.0, 7.0, 50.0, 3));
    }
}
