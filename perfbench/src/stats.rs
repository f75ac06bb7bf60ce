//! Sample statistics: medians and the tail rule used by every latency metric.

/// Median of `values` (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Part `i` of `0..total` cut into `parts` contiguous runs whose lengths differ
/// by at most one.
pub fn part(total: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let parts = parts.max(1);
    i * total / parts..(i + 1) * total / parts
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `values`: the 11th-largest sample, i.e. the highest rank with
/// exactly ten samples beyond it, labelled with the percentile that rank is.
/// `None` when there are too few samples for any percentile to have ten beyond.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank with `TAIL_BEYOND` samples above it
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).expect("1000 samples have a tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn parts_cover_every_index_once() {
        for (total, parts) in [(52, 5), (5, 5), (3, 5), (0, 2), (92, 1)] {
            let runs: Vec<_> = (0..parts).map(|i| part(total, parts, i)).collect();
            assert_eq!(runs[0].start, 0);
            assert_eq!(runs[parts - 1].end, total);
            for pair in runs.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 100.0), 5.0);
    }
}
