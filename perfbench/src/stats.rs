//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is taken from the raw samples it
//! collected, never from a bucketed histogram, and a tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); `None`
/// for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile, whatever the sample size; `None` for an
/// empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    (!v.is_empty()).then(|| v[nearest_rank(q, v.len()) - 1])
}

/// The nearest-rank `q`-quantile, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - nearest_rank(q, n) < MIN_BEYOND {
        return None;
    }
    quantile(samples, q)
}

/// The smallest sample count that supports a tail percentile at `q`.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| n - nearest_rank(q, n) >= MIN_BEYOND)
        .expect("some count supports any q < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: nearest rank of p90 is 90, 9 lie beyond — refused.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond — reported.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.9), Some(180.0));
    }
}
