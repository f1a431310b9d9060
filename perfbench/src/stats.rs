//! Order statistics the benchmark reports, and span self-time.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spread printed here is the one an outside checker
/// computes from the same values. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread a
/// metric's bound is held against. `None` for fewer than two values or
/// a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// The highest tail percentile that still has at least ten samples
/// beyond it, from the ladder p50, p90, p99, p99.9, …: returns the
/// percentile's label, its nearest-rank value and the number of samples
/// ranked above it. `None` when even the median has fewer than ten
/// samples beyond it (fewer than 20 samples).
pub fn tail_percentile(values: &[f64]) -> Option<(&'static str, f64, usize)> {
    // Each rung keeps a tail of n / denom samples beyond its value.
    const LADDER: [(usize, &str); 7] = [
        (2, "p50"),
        (10, "p90"),
        (100, "p99"),
        (1_000, "p99.9"),
        (10_000, "p99.99"),
        (100_000, "p99.999"),
        (1_000_000, "p99.9999"),
    ];
    let s = sorted(values);
    let n = s.len();
    LADDER.iter().take_while(|&&(denom, _)| n / denom >= 10).last().map(|&(denom, label)| {
        let beyond = n / denom;
        (label, s[n - beyond - 1], beyond)
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `None` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    Some(s[rank.min(s.len()) - 1])
}

/// A layer's self time: its span's duration minus the parts its child
/// layers account for. Children are assumed nested and disjoint, so the
/// result is never below zero unless the inputs are inconsistent, in
/// which case it is clamped to zero.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// `num / den`, or 0 when the denominator is 0 (ratios over no attempts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), Some([15.0, 30.0, 45.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let of = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // Under 20 samples no percentile has ten beyond it.
        assert_eq!(tail_percentile(&of(19)), None);
        assert_eq!(tail_percentile(&of(20)), Some(("p50", 10.0, 10)));
        // 99 samples: p90 would leave only 9 beyond it.
        assert_eq!(tail_percentile(&of(99)).unwrap().0, "p50");
        assert_eq!(tail_percentile(&of(100)), Some(("p90", 90.0, 10)));
        assert_eq!(tail_percentile(&of(1_000)), Some(("p99", 990.0, 10)));
        assert_eq!(tail_percentile(&of(10_000)), Some(("p99.9", 9_990.0, 10)));
        let (label, value, beyond) = tail_percentile(&of(181_332)).unwrap();
        assert_eq!((label, beyond), ("p99.99", 18));
        assert_eq!(value, (181_332 - 18) as f64);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.75, 0.5]), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
