//! Order statistics over small samples.

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Distance between the first and third quartile as a share of the
/// median; quartiles as Python's `statistics.quantiles(xs, n=4)`.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// The highest percentile that still has at least ten samples beyond
/// it: `(percentile, value)`; `None` with fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}
