//! Order statistics and metric-name rules shared by every result.

use serde::Value;

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn to_value(self) -> Value {
        crate::json::obj(vec![
            ("median", Value::Float(self.median)),
            ("q1", Value::Float(self.q1)),
            ("q3", Value::Float(self.q3)),
            ("n", Value::UInt(self.n as u64)),
        ])
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), since
/// that is what the acceptance check runs. Fewer than two values have no
/// spread: all three cuts are the value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Mean of the faster half of the samples (the middle one included when
/// the count is odd): the estimator behind every timed end-to-end metric.
///
/// On a shared machine interference only ever adds time, so the faster
/// half is the less disturbed half; and a mean over half the samples does
/// not hinge on one lucky run the way a minimum does, which matters for
/// `campaign_fleet`, whose own 200 ms poll spreads its wall time over a
/// factor of two. Over ten runs of each workload in a noisy quarter of an
/// hour this spread least in the worst case (minimum: 25 % on
/// `campaign_fleet`; median: 21 % on `demo`; this: 20 %), and within two
/// points of the minimum wherever the minimum was best.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = &sorted[..sorted.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        median,
        q1,
        q3,
        n: values.len(),
    }
}

/// Metric and workload names: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[1.0, 4.0]), [0.25, 2.5, 4.75]);
        // statistics.quantiles([2, 4, 4, 5, 11], n=4) == [3.0, 4.0, 8.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 11.0]), [3.0, 4.0, 8.0]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(summarize(&[9.0, 1.0, 5.0]).n, 3);
    }

    #[test]
    fn faster_half_mean_ignores_the_slower_half() {
        assert_eq!(faster_half_mean(&[4.0]), 4.0);
        assert_eq!(faster_half_mean(&[9.0, 1.0]), 1.0);
        assert_eq!(faster_half_mean(&[5.0, 1.0, 3.0]), 2.0);
        assert_eq!(faster_half_mean(&[100.0, 2.0, 4.0, 50.0]), 3.0);
        assert!(faster_half_mean(&[]).is_nan());
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "wall_s",
            "core.cache.hit_share",
            "trace.coverage",
            "0a",
            "a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
