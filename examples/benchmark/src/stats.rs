//! Order statistics over a run's samples.

/// First quartile, median and third quartile of `samples`, with the
/// quartiles computed as Python's `statistics.quantiles(samples, n=4)`
/// computes them (its default, exclusive method). A single sample is its
/// own median and quartiles; an empty slice yields zeros.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let median = if n % 2 == 1 {
                data[n / 2]
            } else {
                (data[n / 2 - 1] + data[n / 2]) / 2.0
            };
            (quantile(&data, 1), median, quantile(&data, 3))
        }
    }
}

/// The `i`-th of the three cut points dividing sorted `data` (at least
/// two samples) into quarters.
fn quantile(data: &[f64], i: usize) -> f64 {
    let m = data.len() + 1;
    let j = (i * m / 4).clamp(1, data.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

/// Median of `samples` (zero when empty).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }
}
