//! Exact order statistics over raw samples.

/// Median of unsorted samples (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The 99th percentile by nearest rank. Failed requests enter as
/// `f64::INFINITY`, so they miss every limit. Fails with fewer than
/// `TAIL_SAMPLES` samples beyond it (fewer than 1 000 in all), rather than
/// reporting a lower percentile under the same name.
pub fn p99(values: &[f64]) -> Result<f64, String> {
    let n = values.len();
    let rank = (99 * n).div_ceil(100);
    if n - rank < TAIL_SAMPLES {
        return Err(format!(
            "p99 needs at least {TAIL_SAMPLES} samples beyond it, got {n} samples in all"
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&v), Ok(990.0));
        assert!(p99(&v[..999]).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
