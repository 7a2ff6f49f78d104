//! Order statistics over a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the arithmetic the
//! acceptance rule for this benchmark is stated in: spread = (q3 − q1) /
//! median.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when empty or when any sample is not a
    /// finite number.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median: median_sorted(&v),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        })
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0, which only happens for all-zero counters).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile of sorted samples, exclusive method. One
/// sample has no spread: both quartiles are that sample.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        return (sorted[0], sorted[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // i*m − j*n is negative when j was clamped up, as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100); 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10., 9., 8., 7., 6., 5., 4., 3., 2., 1.]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        let s = Summary::of(&[2., 4., 4., 5., 9.]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.0, 4.0, 7.0));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.q3, s.spread()), (7.0, 7.0, 0.0));
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
