//! Sample statistics. Every percentile here is read from raw per-op
//! samples, never from the program's log₂ histograms.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of a latency sample set.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The reported tail value.
    pub tail: f64,
    /// The percentile the tail stands for: 99, or lower when fewer than
    /// ten samples would lie beyond p99.
    pub tail_pct: f64,
    /// Samples strictly above the tail's rank.
    pub beyond: usize,
}

/// Median, plus p99 or — when fewer than ten samples lie beyond p99 —
/// the highest percentile that still has ten samples beyond it
/// (nearest-rank).
pub fn tail(samples: &[f64]) -> Tail {
    assert!(samples.len() > 10, "need more than ten samples for a tail");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p99_rank = ((0.99 * n as f64).ceil() as usize).max(1); // 1-based
    let rank = p99_rank.min(n - 10);
    Tail {
        n,
        p50: median(&v),
        tail: v[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    }
}

impl Tail {
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{:.1} {:.1} {unit} (n = {}, {} beyond the tail)",
            self.p50, self.tail_pct, self.tail, self.n, self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.tail, 90.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!(t.tail, 9900.0);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.beyond, 100);
    }
}
