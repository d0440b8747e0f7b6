//! Fixed-memory log-linear latency histogram.
//!
//! Values below 128 get a bucket each; above that, every power of two is
//! split into 128 equal sub-buckets, so a bucket's width is at most
//! 1/128 (< 1 %) of its lower bound. The whole `u64` range fits in 7424
//! counters allocated once, before the timed loop: recording never
//! allocates and the recorder's footprint does not grow with run length.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Minimum number of samples that must lie above a reported percentile.
pub const MIN_BEYOND: u64 = 10;

pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

/// A percentile estimate with the support behind it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    /// The requested rank's value in the recorded unit, interpolated
    /// within its bucket.
    pub value: f64,
    /// Samples recorded in total.
    pub samples: u64,
    /// Samples in buckets above the reported one.
    pub beyond: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((SUB + (i & (SUB - 1))) as u64) << shift, 1u64 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie above it (the sample cannot support it).
    pub fn percentile(&self, q: f64) -> Option<Pct> {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                let beyond = self.total - seen;
                let (lo, width) = bounds(i);
                // Place the rank linearly among the bucket's samples.
                let within = (rank - (seen - c)) as f64 - 0.5;
                return (beyond >= MIN_BEYOND).then_some(Pct {
                    value: lo as f64 + width as f64 * within / c as f64,
                    samples: self.total,
                    beyond,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_with_under_one_percent_error() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i} leaves a gap");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + (width - 1)), i);
            if width > 1 {
                assert!(width as f64 / lo as f64 <= 1.0 / 128.0, "bucket {i} too wide");
            }
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50.value - 500_000.0).abs() / 500_000.0 < 0.01, "{p50:?}");
        assert_eq!(p50.samples, 10_000);
        let p99 = h.percentile(0.99).unwrap();
        assert!(p99.beyond >= MIN_BEYOND && (p99.value - 990_000.0).abs() / 990_000.0 < 0.01);
        assert!(h.percentile(0.9995).is_none());
    }
}
