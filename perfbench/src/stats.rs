//! Order statistics for benchmark samples: medians and quartiles, never
//! minima, plus the tail-percentile rule.

/// Tail percentiles the benchmark may report, lowest first, in permille
/// so the samples beyond each are counted exactly.
const TAIL_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a tail percentile must leave beyond it before it is
/// reported: fewer, and the "percentile" is one or two outliers.
const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` (NaNs last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 < p < 1`) of sorted data, interpolated at rank
/// `p·(n+1)` and clamped to the data — Python's
/// `statistics.quantiles(method="exclusive")` rule, so the benchmark's
/// quartiles match the ones its runs are judged by.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                sorted[n - 1]
            } else {
                sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
            }
        }
    }
}

/// The median (the mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Each group's median, groups in key order: a job seen once per pass
/// contributes its typical latency, not every pass's noise.
pub fn group_medians<K: Ord>(pairs: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut groups: std::collections::BTreeMap<K, Vec<f64>> = Default::default();
    for (k, x) in pairs {
        groups.entry(k).or_default().push(x);
    }
    groups.values().map(|xs| median(xs)).collect()
}

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// Median, quartiles and the reportable tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` from [`tail_percentile`], when reportable.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs`; `None` for an empty set.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let s = sorted(xs);
        Some(Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: median(&s),
            q3: quantile(&s, 0.75),
            tail: tail_percentile(s.len()).map(|p| (p, quantile(&s, p / 100.0))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&xs, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.50) - 5.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn group_medians_take_each_groups_median() {
        let pairs = [("b", 9.0), ("a", 1.0), ("b", 3.0), ("a", 2.0), ("a", 30.0)];
        assert_eq!(group_medians(pairs), vec![2.0, 6.0]);
    }

    #[test]
    fn median_handles_even_counts_and_singletons() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
