//! Order statistics over windows and over per-task samples.

/// Median and quartiles of one metric over a run's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Number of windows (or repetitions) summarised.
    pub n: usize,
}

impl Summary {
    /// Summary of `values`, which must not be empty.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A value that is not a distribution (a count, a one-off timing).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the rule the
/// benchmark's acceptance check uses), so spreads printed here can be
/// compared with it directly. One value yields itself three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn nearest_rank() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile_sorted(&v, 50.0), 5);
        assert_eq!(percentile_sorted(&v, 90.0), 9);
        assert_eq!(percentile_sorted(&v, 99.0), 10);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
    }
}
