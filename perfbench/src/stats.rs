//! Order statistics over per-op samples.

/// A p90 is reported only from at least this many samples, so that at least
/// ten of them lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// The mean of `values`.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// The mean of `values` without their lowest and highest quarter.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank 90th percentile, refused for fewer than
/// [`P90_MIN_SAMPLES`] samples.
pub fn p90(values: &[f64]) -> Result<f64, String> {
    if values.len() < P90_MIN_SAMPLES {
        return Err(format!(
            "a p90 needs at least {P90_MIN_SAMPLES} samples, the run has {}",
            values.len()
        ));
    }
    let sorted = sorted(values);
    let rank = (0.9 * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(interquartile_mean(&[100.0, 2.0, 4.0, 0.0]), Some(3.0));
        let values = [9.0, 1.0, 5.0, 3.0, 50.0, 4.0, 6.0, 2.0];
        assert_eq!(interquartile_mean(&values), Some(4.5));
    }

    #[test]
    fn p90_refuses_a_run_with_fewer_than_100_ops() {
        let ops: Vec<f64> = (1..=99).map(f64::from).collect();
        let error = p90(&ops).unwrap_err();
        assert!(error.contains("at least 100"), "{error}");
        assert!(p90(&[]).is_err());
    }

    #[test]
    fn p90_leaves_ten_samples_beyond_it_at_100_ops() {
        let ops: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let value = p90(&ops).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(ops.iter().filter(|&&v| v > value).count(), 10);
    }
}
