//! Small order statistics over repeated measurements.

use spal_dataplane::LatencyHisto;

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentile `q` of a dataplane latency histogram, interpolated
/// linearly inside the containing bucket.
///
/// `LatencyHisto::percentile_ns` reports the containing bucket's lower
/// bound, so on its own it moves in steps of 1/16 of an octave and two
/// runs of different speed can read the same value. The interpolation
/// places the percentile by the share of the bucket's samples that lie
/// below it, found by bisecting the histogram's own percentile
/// function.
pub fn histo_percentile(h: &LatencyHisto, q: f64) -> f64 {
    let floor = h.percentile_ns(q);
    if h.count() < 2 || floor >= h.max_ns() || floor < 16 {
        return floor as f64;
    }
    // The bucket holding `floor` spans [floor, floor + width): 16
    // sub-buckets per power of two above 16 ns.
    let msb = 63 - floor.leading_zeros();
    let width = 1u64 << (msb - 4);
    // First and last quantile that still land in this bucket.
    let lo = bisect(0.0, q, |f| h.percentile_ns(f) >= floor);
    let hi = bisect(q, 1.0, |f| h.percentile_ns(f) > floor);
    if hi <= lo {
        return floor as f64;
    }
    floor as f64 + (q - lo) / (hi - lo) * width as f64
}

/// Smallest `f` in `[lo, hi]` with `pred(f)` for a monotone `pred`
/// (false then true), to within 1e-9.
fn bisect(mut lo: f64, mut hi: f64, pred: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolation_stays_inside_the_bucket_and_moves_with_the_data() {
        // 1000 samples spread evenly over one bucket [1024, 1088).
        let mut h = LatencyHisto::default();
        for i in 0..1000u64 {
            h.record(1024 + i * 64 / 1000);
        }
        h.record(100_000);
        let p50 = histo_percentile(&h, 0.5);
        assert!((1024.0..1088.0).contains(&p50), "{p50}");
        assert!((p50 - 1056.0).abs() < 2.0, "{p50}");
        // Moving samples to a lower bucket moves the estimate down.
        let mut g = LatencyHisto::default();
        for _ in 0..600 {
            g.record(990);
        }
        for i in 0..400u64 {
            g.record(1024 + i % 64);
        }
        g.record(100_000);
        assert!(histo_percentile(&g, 0.5) < 1024.0);
    }
}
