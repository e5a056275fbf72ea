//! Fixed-bucket log2 latency histograms.
//!
//! Bucket `i` holds samples `v` with `2^(i-1) <= v < 2^i` nanoseconds
//! (bucket 0 holds `v == 0`), so the bucket index is one `leading_zeros`
//! away and recording touches no heap and scans no bound table. Counts and
//! sums are exact; quantiles are read out as the upper bound of the bucket
//! the rank lands in, clamped to the exact maximum ever recorded.

/// Number of buckets. The last bucket's exclusive upper bound is
/// `2^(HIST_BUCKETS-1)` ns ≈ 550 s; samples at or above it are counted in
/// the overflow region (rendered only under Prometheus's `+Inf`).
pub const HIST_BUCKETS: usize = 40;

/// Exclusive upper bound of bucket `i` in nanoseconds: `2^i`.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_bound_ns(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
    1u64 << i
}

/// Index of the bucket holding `ns`: `0` for `0`, otherwise the bit width
/// of the value. `None` when the value overflows the last bucket.
fn bucket_index(ns: u64) -> Option<usize> {
    let idx = (u64::BITS - ns.leading_zeros()) as usize;
    (idx < HIST_BUCKETS).then_some(idx)
}

/// A log2-bucketed latency histogram with exact count, sum, min, and max.
///
/// Recording is allocation-free; merging and quantile readout operate on
/// the fixed bucket array. All durations are nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        match bucket_index(ns) {
            Some(idx) => self.counts[idx] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every recorded duration, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// The smallest recorded duration (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The largest recorded duration (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// A value-typed copy for cross-thread export and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.counts,
            overflow: self.overflow,
            count: self.count,
            sum_ns: self.sum,
            min_ns: self.min_ns(),
            max_ns: self.max,
        }
    }

    /// The duration at quantile `q` (see [`HistogramSnapshot::quantile_ns`]).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }

    /// Median duration.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile duration.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile duration.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// A plain-data copy of a [`LatencyHistogram`], safe to ship across
/// threads, merge into fleet totals, and render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (not cumulative); bucket `i` holds samples
    /// `< 2^i` ns and `>= 2^(i-1)` ns.
    pub counts: [u64; HIST_BUCKETS],
    /// Samples at or above the last bucket's bound (rendered under `+Inf`).
    pub overflow: u64,
    /// Total samples.
    pub count: u64,
    /// Exact sum of every sample, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample (0 when empty).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            overflow: 0,
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }

    /// Adds another snapshot's samples into this one — the fleet-total
    /// reduction over per-shard histograms.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = if self.count == other.count {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }

    /// The duration at quantile `q` (clamped to `0.0..=1.0`): the upper
    /// bound of the bucket the rank falls in, clamped to the exact maximum
    /// recorded — an estimate never below the true quantile and never above
    /// the true maximum. Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median duration.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile duration.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile duration.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_bin_by_bit_width() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1, "only zero");
        assert_eq!(s.counts[1], 1, "only one");
        assert_eq!(s.counts[2], 2, "2 and 3");
        assert_eq!(s.counts[3], 2, "4 and 7");
        assert_eq!(s.counts[4], 1, "8..16");
        assert_eq!(s.counts[10], 1, "512..1024");
        assert_eq!(s.counts[11], 1, "1024..2048");
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum_ns(), 2072);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 1024);
    }

    #[test]
    fn overflow_lands_outside_the_bounded_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(bucket_bound_ns(HIST_BUCKETS - 1));
        h.record(bucket_bound_ns(HIST_BUCKETS - 1) - 1);
        let s = h.snapshot();
        assert_eq!(s.overflow, 2);
        assert_eq!(s.counts[HIST_BUCKETS - 1], 1);
        assert_eq!(s.counts.iter().sum::<u64>() + s.overflow, s.count);
    }

    #[test]
    fn quantiles_upper_bound_and_clamp_to_max() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7 (64..128)
        }
        h.record(1_000_000);
        let p50 = h.p50_ns();
        assert!((100..=128).contains(&p50), "p50 = {p50}");
        assert_eq!(h.p99_ns(), 128, "still inside the dense bucket");
        assert_eq!(h.quantile_ns(1.0), 1_000_000, "clamped to the exact max");
        assert_eq!(LatencyHistogram::new().p95_ns(), 0, "empty reads as zero");
    }

    #[test]
    fn merge_is_a_per_bucket_add() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [5u64, 50, 500] {
            a.record(v);
        }
        for v in [1u64, 5_000_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum_ns, 5_000_556);
        assert_eq!(merged.min_ns, 1);
        assert_eq!(merged.max_ns, 5_000_000);
        let mut serial = LatencyHistogram::new();
        for v in [5u64, 50, 500, 1, 5_000_000] {
            serial.record(v);
        }
        assert_eq!(merged, serial.snapshot());
        let mut empty = HistogramSnapshot::empty();
        empty.merge(&a.snapshot());
        assert_eq!(empty, a.snapshot(), "merge into empty preserves min");
    }
}
