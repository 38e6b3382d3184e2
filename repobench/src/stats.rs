//! Order statistics for the report: medians and tail percentiles that
//! say how many samples they rest on.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
const TAILS_PM: [u64; 7] = [999, 990, 980, 950, 900, 750, 500];

/// One-based nearest rank of the `pm`-per-mille percentile among `n`
/// samples: the smallest rank with at least `pm`‰ of the samples at or
/// below it. Integer arithmetic, so 99.9% of 1000 is rank 999 exactly.
fn rank(n: usize, pm: u64) -> usize {
    let r = (pm * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `pm`-per-mille percentile of `n` samples.
pub fn beyond(n: usize, pm: u64) -> usize {
    n.saturating_sub(rank(n, pm))
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], pm: u64) -> f64 {
    sorted[rank(sorted.len(), pm) - 1]
}

/// The highest candidate percentile (per-mille) that has at least
/// [`MIN_BEYOND`] samples beyond it among `n`, if any.
pub fn highest_tail(n: usize) -> Option<u64> {
    TAILS_PM.into_iter().find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// Median and tail of one latency sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually reported, in per-mille.
    pub tail_pm: u64,
    pub tail: f64,
    /// Samples strictly beyond the tail percentile.
    pub beyond: usize,
}

impl Summary {
    /// Median plus the wanted tail percentile (per-mille). When fewer
    /// than [`MIN_BEYOND`] samples lie beyond the wanted percentile, the
    /// highest candidate that has enough is used instead; with too few
    /// samples for any, the maximum is reported with its true count.
    pub fn of(samples: &[f64], want_pm: u64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pm = match highest_tail(n) {
            Some(best) => best.min(want_pm),
            None => 1000,
        };
        Some(Summary {
            n,
            p50: percentile(&sorted, 500),
            tail_pm,
            tail: percentile(&sorted, tail_pm),
            beyond: beyond(n, tail_pm),
        })
    }

    /// Percentile label such as `p99` or `p99.9`.
    pub fn tail_label(&self) -> String {
        pct_label(self.tail_pm)
    }
}

/// `990` → `p99`, `999` → `p99.9`.
pub fn pct_label(pm: u64) -> String {
    if pm % 10 == 0 {
        format!("p{}", pm / 10)
    } else {
        format!("p{}.{}", pm / 10, pm % 10)
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        assert_eq!(highest_tail(1000), Some(990));
        assert_eq!(beyond(1000, 990), 10);
        // 999 samples: p99 has only 9 beyond, so p98 is the highest.
        assert_eq!(highest_tail(999), Some(980));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(highest_tail(100), Some(900));
        assert_eq!(highest_tail(99), Some(750));
        assert_eq!(highest_tail(19), None);
        assert_eq!(highest_tail(20), Some(500));
    }

    #[test]
    fn summaries_report_the_wanted_tail_or_fall_back_with_counts() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples, 990).unwrap();
        assert_eq!((s.n, s.tail_pm, s.beyond), (1000, 990, 10));
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_label(), "p99");

        // Asking for p99 of 200 samples falls back to p95 (10 beyond).
        let s = Summary::of(&samples[..200], 990).unwrap();
        assert_eq!((s.n, s.tail_pm, s.beyond), (200, 950, 10));
        assert_eq!(s.tail, 190.0);

        // A lower wanted tail is kept when it has enough samples.
        let s = Summary::of(&samples, 900).unwrap();
        assert_eq!((s.tail_pm, s.beyond), (900, 100));

        // Too few for any tail: the maximum, with zero beyond.
        let s = Summary::of(&samples[..5], 990).unwrap();
        assert_eq!((s.n, s.tail_pm, s.tail, s.beyond), (5, 1000, 5.0, 0));
        assert!(Summary::of(&[], 990).is_none());
    }

    #[test]
    fn labels_and_medians() {
        assert_eq!(pct_label(999), "p99.9");
        assert_eq!(pct_label(500), "p50");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
