//! Order statistics and the regression rules the benchmark reports with.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), so a spread printed here is the spread anyone can
//! recompute from the raw values with the standard library.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them. With fewer than two values both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[nearest_rank(v.len(), q) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile of
/// `n` samples. A tail percentile is reported only when this is at least
/// [`MIN_TAIL_SAMPLES`].
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worse_by(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }

    /// Whether `b` strictly beats `a`.
    pub fn beats(self, b: f64, a: f64) -> bool {
        match self {
            Better::Lower => b < a,
            Better::Higher => b > a,
        }
    }
}

/// Whether `b`'s median is no worse than `a`'s by more than `bound` (a
/// share of `a`'s median).
pub fn within_bound(a: &[f64], b: &[f64], better: Better, bound: f64) -> bool {
    better.worse_by(median(a), median(b)) <= bound
}

/// The paired rule for claiming a gain of `b` over `a`: pairing run `i` of
/// each side, `b` wins at least nine tenths of the pairs (ties count for
/// neither), and the medians differ, in `b`'s favour, by more than `a`'s
/// interquartile range.
pub fn paired_gain(a: &[f64], b: &[f64], better: Better) -> PairedGain {
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(&x, &y)| better.beats(y, x))
        .count();
    let (q1, q3) = quartiles(a);
    let (ma, mb) = (median(a), median(b));
    let gain =
        pairs > 0 && wins * 10 >= pairs * 9 && better.beats(mb, ma) && (mb - ma).abs() > q3 - q1;
    PairedGain { wins, pairs, gain }
}

/// Outcome of [`paired_gain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairedGain {
    /// Pairs `b` won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Whether the rule grants the gain.
    pub gain: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: nearest-rank p90 is the 90th value, 10 beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(192, 0.9), 19);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn bounds_respect_direction() {
        let a = [10.0, 10.0, 10.0];
        assert!(within_bound(&a, &[10.9, 11.0, 10.8], Better::Lower, 0.1));
        assert!(!within_bound(&a, &[11.2, 11.3, 11.1], Better::Lower, 0.1));
        assert!(within_bound(&a, &[9.1, 9.2, 9.0], Better::Higher, 0.1));
        assert!(!within_bound(&a, &[8.8, 8.9, 8.7], Better::Higher, 0.1));
        // Improvements are always within the bound.
        assert!(within_bound(&a, &[1.0, 1.0, 1.0], Better::Lower, 0.0));
        assert!(Better::Lower.worse_by(10.0, 12.0) > 0.19);
    }

    #[test]
    fn paired_rule_needs_nine_in_ten_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let clear: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        let g = paired_gain(&a, &clear, Better::Lower);
        assert_eq!((g.wins, g.pairs, g.gain), (10, 10, true));
        // Nine wins out of ten still counts; eight does not.
        let mut nine = clear.clone();
        nine[0] = 500.0;
        assert!(paired_gain(&a, &nine, Better::Lower).gain);
        let mut eight = nine.clone();
        eight[1] = 500.0;
        assert!(!paired_gain(&a, &eight, Better::Lower).gain);
        // Winning every pair by less than the parent's IQR is no gain.
        let close: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert!(!paired_gain(&a, &close, Better::Lower).gain);
        // Direction matters.
        assert!(!paired_gain(&a, &clear, Better::Higher).gain);
    }
}
