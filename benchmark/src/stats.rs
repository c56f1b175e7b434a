//! Summary statistics the harness reports: the fastest unit, quartiles,
//! medians and tail percentiles.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1): with fewer, the "tail" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values when the count is
/// even). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Smallest of `values`. `None` for an empty slice.
///
/// Timings are summarised by this rather than by the median. This machine
/// shares its cores with other tenants: the same 15 ms of work takes 13 ms
/// or 20 ms, the mode changes within tens of milliseconds, and how much of a
/// minute is spent in each changes from one minute to the next. Interference
/// only ever adds time and the clock cannot under-read, so the fastest of
/// many short, equal units is what the code itself costs; measured over ten
/// seconds of 15 ms units it repeats within a few percent where the median
/// and the quartiles move by 20 %.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// First quartile of `values`, interpolated between neighbours at rank
/// `(n + 1) / 4` (the "exclusive" method, as Python's
/// `statistics.quantiles`), clamped to the smallest value. `None` for an
/// empty slice.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() + 1) as f64 / 4.0;
    let below = (rank.floor() as usize).clamp(1, v.len());
    let above = (below + 1).min(v.len());
    let frac = (rank - below as f64).clamp(0.0, 1.0);
    Some(v[below - 1] + frac * (v[above - 1] - v[below - 1]))
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
    }

    #[test]
    fn lower_quartile_interpolates_and_clamps() {
        assert_eq!(lower_quartile(&[]), None);
        assert_eq!(lower_quartile(&[2.0]), Some(2.0));
        assert_eq!(lower_quartile(&[9.0, 1.0]), Some(1.0));
        // Rank (7 + 1) / 4 = 2: the second smallest.
        assert_eq!(
            lower_quartile(&[7.0, 1.0, 5.0, 3.0, 6.0, 2.0, 4.0]),
            Some(2.0)
        );
        // Rank (10 + 1) / 4 = 2.75: three quarters of the way from 2 to 3.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_quartile(&ten), Some(2.75));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 200 samples leaves exactly 10 beyond; 199 leaves 9.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None);
        assert!(tail_percentile(&v, 90.0).is_some());
        assert_eq!(tail_percentile(&[1.0; 19], 50.0), None);
        assert_eq!(tail_percentile(&[1.0; 20], 50.0), Some(1.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
