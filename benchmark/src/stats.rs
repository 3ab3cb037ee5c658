//! Order statistics used by the harness.

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count). Panics on
/// empty input: every caller has at least one sample by construction.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Smallest value (+inf for no samples).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method) — the rule the driver
/// applies to ten runs, so the spread we print is the spread it sees.
/// With fewer than two samples both quartiles are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Exact order statistic: the value at rank `ceil(q * n)` of the sorted
/// samples — the same convention `fx-serve` uses for its request
/// breakdowns, so numbers line up. 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_is_the_ceil_rank_order_statistic() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
