//! Order statistics over timing samples.

/// The arithmetic mean.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-th percentile (`0 < q ≤ 100`): the smallest
/// sample with at least `q`% of the samples at or below it. With fewer
/// than `100 / (100 − q)` samples this is the maximum.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile when at least ten samples lie beyond it (1,000
/// or more samples); below that no tail percentile is resolved and the
/// median stands in for it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(samples: &[f64]) -> f64 {
    if samples.len() >= 1_000 {
        percentile(samples, 99.0)
    } else {
        median(samples)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "order statistic of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 99.0), 5.0);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), 3.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), 990.0);
    }
}
