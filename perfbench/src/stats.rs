//! Order statistics for timings: the median and the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it.

/// Samples a tail percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` (to 0.1) among `n` samples,
/// in integer arithmetic so that e.g. p99.9 of 10000 is rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile not above `max_p` that leaves at least
/// [`MIN_BEYOND`] samples strictly beyond its rank, with its value, or
/// `None` when even the median does not.
pub fn tail(sorted: &[f64], max_p: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .filter(|&&p| p <= max_p)
        .find(|&&p| n >= rank(p, n) + MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Median of unsorted `xs` (non-empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A latency sample summarised as median and tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (at most 99).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

impl Timing {
    /// Summarises `xs` (any order).
    pub fn of(xs: &[f64]) -> Timing {
        Timing::of_rounds(&[xs.to_vec()])
    }

    /// Rounds of one run, each its own samples: the median is the
    /// median of the rounds' medians (so one disturbed round does not
    /// move it); the tail is taken over all samples together (a round
    /// alone is too small for a high percentile).
    pub fn of_rounds(rounds: &[Vec<f64>]) -> Timing {
        let mut all: Vec<f64> = rounds.concat();
        if all.is_empty() {
            return Timing::default();
        }
        all.sort_by(f64::total_cmp);
        let medians: Vec<f64> = rounds
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| {
                let mut v = r.clone();
                v.sort_by(f64::total_cmp);
                percentile(&v, 50.0)
            })
            .collect();
        let p50 = median(&medians);
        let (tail_p, tail) = tail(&all, 99.0).unwrap_or((50.0, percentile(&all, 50.0)));
        Timing { n: all.len(), p50, tail_p, tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // 999 samples: p99 would leave 9, so p98 (rank 980, 19 beyond).
        assert_eq!(tail(&ramp(999), 99.0), Some((98.0, 980.0)));
        // 10000 samples support p99.9 when asked for it.
        assert_eq!(tail(&ramp(10_000), 99.9), Some((99.9, 9990.0)));
        // 200 samples: p95 is rank 190 with 10 beyond.
        assert_eq!(tail(&ramp(200), 99.0), Some((95.0, 190.0)));
        // 19 samples leave 9 beyond the median: no percentile at all.
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 20..1500 {
            let v = ramp(n);
            let (p, x) = tail(&v, 99.0).expect("20+ samples support a tail");
            let beyond = v.iter().filter(|&&s| s > x).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn timing_summary() {
        let t = Timing::of(&ramp(2000).into_iter().rev().collect::<Vec<_>>());
        assert_eq!((t.n, t.p50, t.tail_p, t.tail), (2000, 1000.0, 99.0, 1980.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        // Rounds of 1000, 200 and 2000 samples: the median round's
        // median, and the p99 of all 3200 samples together.
        let t = Timing::of_rounds(&[ramp(1000), ramp(200), ramp(2000)]);
        assert_eq!((t.n, t.p50, t.tail_p), (3200, 500.0, 99.0));
        let mut all = [ramp(1000), ramp(200), ramp(2000)].concat();
        all.sort_by(f64::total_cmp);
        assert_eq!(t.tail, percentile(&all, 99.0));
    }
}
