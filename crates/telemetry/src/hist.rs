//! Log-bucketed latency histograms (HDR-style, dependency-free).
//!
//! Values are `u64` (ticks in the simulator, but the histogram is
//! unit-agnostic). Buckets follow the classic HDR layout: values below
//! [`SUB_BUCKETS`] get exact unit-width buckets; above that, each power-of-
//! two octave is split into [`SUB_BUCKETS`] linear sub-buckets, bounding the
//! relative quantisation error at `1/SUB_BUCKETS` (≈ 3 %). The bucket count
//! is fixed (no allocation on record), recording is O(1), and two histograms
//! recorded on different channels merge by element-wise addition — exactly
//! what the per-channel → per-run aggregation needs.

/// Sub-buckets per octave (`2^SUB_BUCKET_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const SUB_BUCKET_BITS: u32 = 5;
/// Total bucket count: one unit bucket per value below [`SUB_BUCKETS`],
/// then `SUB_BUCKETS` linear sub-buckets per octave for exponents
/// `SUB_BUCKET_BITS..=63`.
pub const BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS;

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index for `v`. Exact below [`SUB_BUCKETS`]; logarithmic with
/// linear sub-buckets above.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // v ∈ [2^exp, 2^(exp+1))
    let sub = ((v >> (exp - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
    (exp - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
pub fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let exp = (i / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
    let sub = (i % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (exp - SUB_BUCKET_BITS)
}

/// Largest value mapping to bucket `i`.
pub fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_low(i + 1) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS sized"),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0.0–100.0), linearly interpolated
    /// within the containing bucket and clamped to the observed range.
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the target sample, 1-based.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let low = bucket_low(i);
                let high = bucket_high(i).min(self.max);
                let within = (rank - seen) as f64 / c as f64;
                let v = low as f64 + within * (high - low) as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Element-wise merge of `other` into `self` (cross-channel
    /// aggregation): afterwards every summary statistic reflects the union
    /// of both sample sets.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summary of the distribution as a JSON object — count, min, max,
    /// mean and the p50/p95/p99 percentiles. This is the per-request-kind
    /// shape the `das-serve` stats response reports.
    pub fn summary_value(&self) -> crate::json::Value {
        crate::json::Value::obj()
            .set("count", self.count())
            .set("min", self.min())
            .set("max", self.max())
            .set("mean", self.mean())
            .set("p50", self.percentile(50.0))
            .set("p95", self.percentile(95.0))
            .set("p99", self.percentile(99.0))
    }

    /// Non-empty buckets as `(bucket_low, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
            .collect()
    }

    /// Records `n` identical samples in O(1) — the bulk path
    /// [`LatencyHistogram::from_buckets_value`] reconstruction uses.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The non-empty buckets as a JSON array of `[bucket_low, count]`
    /// pairs — the wire shape `das-serve` stats carry so a client
    /// can rebuild a *mergeable* histogram instead of trying to average
    /// percentiles (which is not a thing).
    pub fn buckets_value(&self) -> crate::json::Value {
        crate::json::Value::Arr(
            self.nonzero_buckets()
                .into_iter()
                .map(|(low, c)| {
                    crate::json::Value::Arr(vec![
                        crate::json::Value::from(low),
                        crate::json::Value::from(c),
                    ])
                })
                .collect(),
        )
    }

    /// Rebuilds a histogram from a [`LatencyHistogram::buckets_value`]
    /// array. Bucket counts round-trip exactly (`bucket_low` maps back to
    /// its own bucket), so merges and percentiles of the reconstruction
    /// match the original to bucket resolution; min/max/mean are
    /// bucket-floor approximations. Returns `None` on a malformed value.
    pub fn from_buckets_value(v: &crate::json::Value) -> Option<LatencyHistogram> {
        let arr = v.as_arr()?;
        let mut h = LatencyHistogram::new();
        for pair in arr {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            h.record_n(pair[0].as_u64()?, pair[1].as_u64()?);
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_sub_buckets() {
        for v in 0..SUB_BUCKETS as u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_low(i), v);
            assert_eq!(bucket_high(i), v, "unit buckets are exact");
        }
    }

    #[test]
    fn bucket_boundaries_tile_the_range_contiguously() {
        // Every bucket's low is the previous bucket's high + 1: no gaps, no
        // overlaps, over the first few octaves and around u64::MAX.
        for i in 1..(SUB_BUCKETS * 10) {
            assert_eq!(bucket_low(i), bucket_high(i - 1) + 1, "bucket {i}");
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        // Round-trip: a value lands in a bucket whose range contains it.
        for &v in &[
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            123_456_789,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "value {v} bucket {i}"
            );
        }
    }

    #[test]
    fn relative_error_is_bounded_by_sub_bucket_width() {
        for shift in 6..40 {
            let v = (1u64 << shift) + (1 << (shift - 1)) + 7;
            let i = bucket_index(v);
            let width = bucket_high(i) - bucket_low(i) + 1;
            assert!(
                (width as f64) / (v as f64) <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "bucket width {width} too coarse for {v}"
            );
        }
    }

    #[test]
    fn percentiles_are_exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 1..=31u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 31);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 31);
        assert_eq!(h.percentile(50.0), 16, "median of 1..=31");
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn percentile_interpolation_stays_within_error_bound() {
        let mut h = LatencyHistogram::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 5_000.0), (95.0, 9_500.0), (99.0, 9_900.0)] {
            let got = h.percentile(p) as f64;
            let err = (got - expect).abs() / expect;
            assert!(
                err < 1.0 / SUB_BUCKETS as f64 + 1e-3,
                "p{p}: got {got}, want ≈{expect}"
            );
        }
        assert_eq!(h.percentile(100.0), 9_999);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..2_000u64 {
            let x = (v * 2_654_435_761) % 100_000; // deterministic scatter
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            assert_eq!(
                a.percentile(p),
                whole.percentile(p),
                "p{p} differs after merge"
            );
        }
        assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
    }

    #[test]
    fn empty_merges_are_identities() {
        // empty ∪ empty stays empty.
        let mut a = LatencyHistogram::new();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!((a.min(), a.max()), (0, 0));
        assert_eq!(a.percentile(99.0), 0);

        // nonempty ∪ empty and empty ∪ nonempty both equal the nonempty
        // side — min/max must not be poisoned by the empty sentinel.
        let mut populated = LatencyHistogram::new();
        for v in [3u64, 900, 77] {
            populated.record(v);
        }
        let mut left = populated.clone();
        left.merge(&LatencyHistogram::new());
        let mut right = LatencyHistogram::new();
        right.merge(&populated);
        for h in [&left, &right] {
            assert_eq!(h.count(), 3);
            assert_eq!((h.min(), h.max()), (3, 900));
            assert_eq!(h.mean(), populated.mean());
            assert_eq!(h.nonzero_buckets(), populated.nonzero_buckets());
        }
    }

    #[test]
    fn single_bucket_merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(7);
        a.record(7);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.nonzero_buckets(), vec![(7, 3)]);
        assert_eq!((a.min(), a.max()), (7, 7));
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), 7, "a one-value histogram is flat");
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        let mut loop_h = LatencyHistogram::new();
        for (v, n) in [(5u64, 3u64), (100, 1), (65_537, 4)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                loop_h.record(v);
            }
        }
        bulk.record_n(9, 0); // no-op
        assert_eq!(bulk.count(), loop_h.count());
        assert_eq!(bulk.mean(), loop_h.mean());
        assert_eq!(bulk.nonzero_buckets(), loop_h.nonzero_buckets());
    }

    #[test]
    fn buckets_value_round_trips_counts_exactly() {
        let mut h = LatencyHistogram::new();
        for v in 0..3_000u64 {
            h.record((v * 2_654_435_761) % 1_000_000);
        }
        let rebuilt =
            LatencyHistogram::from_buckets_value(&h.buckets_value()).expect("well-formed buckets");
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.nonzero_buckets(), h.nonzero_buckets());
        // Percentiles agree to bucket resolution: the rebuilt value can
        // only differ by intra-bucket interpolation.
        for p in [50.0, 95.0, 99.0] {
            let (a, b) = (h.percentile(p), rebuilt.percentile(p));
            let i = bucket_index(a);
            assert!(
                bucket_low(i).saturating_sub(bucket_high(i) - bucket_low(i)) <= b
                    && b <= bucket_high(i),
                "p{p}: original {a} rebuilt {b}"
            );
        }
        // Malformed shapes are rejected, not mis-parsed.
        use crate::json::Value;
        assert!(LatencyHistogram::from_buckets_value(&Value::obj()).is_none());
        assert!(
            LatencyHistogram::from_buckets_value(&Value::Arr(vec![Value::Arr(vec![Value::from(
                1u64
            )])]))
            .is_none()
        );
    }

    #[test]
    fn mean_tracks_sum_without_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert!(h.mean() > 1e18);
    }
}
