//! Quantiles from raw samples. Every percentile the benchmark reports
//! comes from here, never from a histogram, and states how many samples
//! lie beyond it so a reader can tell how much data backs a tail figure.

/// One nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at rank `ceil(q * n)` (1-based) of the sorted set.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` in `(0, 1]` of `samples`, which are sorted
/// in place. `None` for an empty set.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> Option<Quantile> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile { value: samples[rank - 1], n, beyond: n - rank })
}

/// Median and 99th percentile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: Quantile,
    pub p99: Quantile,
}

impl Summary {
    /// `None` for an empty set.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        Some(Summary { p50: nearest_rank(samples, 0.50)?, p99: nearest_rank(samples, 0.99)? })
    }
}

/// The lowest over segments of each segment's nearest-rank quantile `q`.
///
/// A run split into consecutive segments reports its best segment: on a
/// shared host, neighbours' bursts only ever add time, and a burst long
/// enough to cover most of a run would move a median but not the best
/// segment. A slowdown of the program itself shows in every segment, so it
/// still moves this figure. The returned quantile carries that segment's
/// sample count. Empty segments are skipped; `None` if all are empty.
pub fn best_of_segments(segments: &[Vec<f64>], q: f64) -> Option<Quantile> {
    segments
        .iter()
        .filter_map(|s| nearest_rank(&mut s.clone(), q))
        .min_by(|a, b| a.value.total_cmp(&b.value))
}

/// Smallest and largest of plain values (one per segment).
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_quantile() {
        assert_eq!(nearest_rank(&mut [], 0.5), None);
        assert_eq!(Summary::of(&mut []), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        for q in [0.01, 0.5, 0.99, 1.0] {
            let got = nearest_rank(&mut [7.0], q).unwrap();
            assert_eq!(got, Quantile { value: 7.0, n: 1, beyond: 0 });
        }
    }

    #[test]
    fn nearest_rank_picks_ceil_rank_of_sorted_samples() {
        // 1..=100 shuffled: p50 is the 50th value, p99 the 99th.
        let mut v: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let p50 = nearest_rank(&mut v, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = nearest_rank(&mut v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let max = nearest_rank(&mut v, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (100.0, 0));
    }

    #[test]
    fn rank_rounds_up_between_samples() {
        // n = 3: rank(0.5) = ceil(1.5) = 2, rank(0.99) = ceil(2.97) = 3.
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(nearest_rank(&mut v, 0.5).unwrap().value, 2.0);
        assert_eq!(nearest_rank(&mut v, 0.99).unwrap().value, 3.0);
        // A tiny q still reports the smallest sample, never rank 0.
        assert_eq!(nearest_rank(&mut v, 1e-9).unwrap().value, 1.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&mut v).unwrap();
        assert_eq!(s.p99.value, 989.0);
        assert_eq!(s.p99.beyond, 10);
        assert_eq!(s.p50.value, 499.0);
    }

    #[test]
    fn outliers_beyond_the_rank_do_not_move_it() {
        // A histogram with an overflow bucket would report the max here.
        let mut v: Vec<f64> = (0..98).map(|_| 1.0).collect();
        v.extend([500.0, 900.0]);
        let s = Summary::of(&mut v).unwrap();
        assert_eq!(s.p50.value, 1.0);
        assert_eq!(s.p99.value, 500.0);
        assert_eq!(s.p99.beyond, 1);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_quantile_is_rejected() {
        let _ = nearest_rank(&mut [1.0], 0.0);
    }

    #[test]
    fn best_segment_ignores_noisy_segments() {
        let quiet = |x: f64| (0..100).map(|i| x + i as f64 * 0.001).collect::<Vec<f64>>();
        let segs = vec![vec![50.0; 100], quiet(1.1), vec![40.0; 300], quiet(0.9), Vec::new()];
        // Segment p99s: 50.0, 1.198, 40.0, 0.998.
        let got = best_of_segments(&segs, 0.99).unwrap();
        assert!((got.value - 0.998).abs() < 1e-9, "{got:?}");
        assert_eq!((got.n, got.beyond), (100, 1));
        assert_eq!(best_of_segments(&[Vec::new()], 0.5), None);
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(max(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
