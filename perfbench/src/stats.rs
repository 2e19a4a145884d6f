//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the "at least ten samples beyond" tail rule, quartiles and the
//! steadiness flag for a percentile that sits on a cliff.

/// Samples that must lie strictly beyond the tail percentile's rank.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n`
/// sorted samples: `ceil(p / 100 · n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The tail percentile: the highest nearest-rank percentile with at
/// least [`TAIL_BEYOND`] samples beyond its rank. Returns the
/// percentile (as `100 · rank / n`), its 1-based rank and its value.
/// With `2 · TAIL_BEYOND` samples or fewer that rank would sit at or
/// below the median, which is no tail, so the maximum stands in (rank
/// `n`, percentile 100); the report's sample count shows it.
pub fn tail(sorted: &[f64]) -> (f64, usize, f64) {
    let n = sorted.len();
    let rank = if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND
    } else {
        n
    };
    (100.0 * rank as f64 / n as f64, rank, sorted[rank - 1])
}

/// The median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method, including its extrapolation for two samples).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Whether the percentile at 1-based `rank` of `sorted` sits on a
/// cliff: its two neighbouring samples differ by more than `bound`
/// times the percentile's value, so a one-sample shift in rank would
/// move the metric past its bound.
pub fn on_cliff(sorted: &[f64], rank: usize, bound: f64) -> bool {
    let n = sorted.len();
    if n < 3 {
        return false;
    }
    let i = rank - 1;
    let lo = sorted[i.saturating_sub(1)];
    let hi = sorted[(i + 1).min(n - 1)];
    hi - lo > bound * sorted[i]
}

/// The geometric mean of positive values (1 for an empty list).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Odd counts round the rank up.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(nearest_rank(4, 50.0), 2);
        assert_eq!(nearest_rank(5, 50.0), 3);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, rank, value) = tail(&sorted);
        assert_eq!(rank, 990);
        assert_eq!(value, 990.0);
        assert_eq!(sorted.len() - rank, TAIL_BEYOND);
        assert!((pct - 99.0).abs() < 1e-9);

        let many: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&many), (100.0 * 11.0 / 21.0, 11, 11.0));

        // Twenty or fewer samples: the rank would not lie above the
        // median, so the maximum stands in.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (100.0, 20, 20.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), (100.0, 11, 11.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn cliffs_are_flagged_only_past_the_bound() {
        let flat = [1.0, 1.01, 1.02, 1.03, 1.04];
        assert!(!on_cliff(&flat, 3, 0.05));
        // Rank 3 sits between a 1 ms class and a 40 ms class.
        let cliff = [1.0, 1.0, 1.1, 40.0, 41.0];
        assert!(on_cliff(&cliff, 3, 0.25));
        assert!(!on_cliff(&cliff, 2, 0.25));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
