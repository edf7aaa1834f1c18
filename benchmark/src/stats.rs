//! Order statistics shared by the run summary, the `compare` verdicts
//! and the latency reports. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is what the pipeline that re-measures this benchmark uses.

/// Ascending copy of `values` (NaN-free input assumed; ties keep order).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, exclusive method; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and count of one metric over a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `None` when `values` is empty; a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((median, median));
        Some(Summary {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (30.0, 15.0, 45.0, 5));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.q3, one.spread()), (7.0, 7.0, 0.0));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[5], 99.9), Some(5));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
