//! Measurement primitives: counters, time-weighted gauges, and a
//! log-linear (HDR-style) histogram with bounded relative error.
//!
//! The histogram stores counts in buckets whose width grows with magnitude:
//! each power-of-two range is split into `1 << sub_bits` linear sub-buckets,
//! giving a worst-case relative quantile error of `2^-sub_bits`. Memory does
//! not grow with sample count, which matters because the fabric experiments
//! record hundreds of millions of latency samples; it grows only with the
//! tiers a histogram touches. Each power-of-two tier is a 512 B row of 64
//! counters, allocated when the first value lands in it, so the hundreds
//! of per-component histograms of a pod hold a few rows each, at the same
//! resolution as if every tier were allocated.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A time-weighted gauge: tracks the integral of a level over simulated
/// time so the mean occupancy of queues and buffers can be reported.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gauge {
    level: f64,
    last_update: SimTime,
    weighted_sum: f64,
    peak: f64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            level: 0.0,
            last_update: SimTime::ZERO,
            weighted_sum: 0.0,
            peak: 0.0,
        }
    }
}

impl Gauge {
    /// Creates a gauge at level zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level at time `now`, accumulating the previous level's
    /// contribution.
    pub fn set(&mut self, now: SimTime, level: f64) {
        let dt = (now - self.last_update).as_ns();
        self.weighted_sum += self.level * dt;
        self.level = level;
        self.last_update = now;
        if level > self.peak {
            self.peak = level;
        }
    }

    /// Adjusts the level by `delta` at time `now`.
    pub fn adjust(&mut self, now: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    /// Returns the instantaneous level.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Returns the peak level observed.
    #[inline]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Returns the time-weighted mean level over `[0, now]`.
    ///
    /// Returns zero when no time has elapsed.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total_ns = now.as_ns();
        if total_ns <= 0.0 {
            return 0.0;
        }
        let tail = self.level * (now - self.last_update).as_ns();
        (self.weighted_sum + tail) / total_ns
    }
}

/// Number of linear sub-buckets per power of two (2^6 = 64 → ≤1.6% error).
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;

/// A log-linear histogram of `u64` values (typically picoseconds).
///
/// Counts are stored one row of 64 sub-buckets (512 B) per
/// power-of-two tier, and a row is allocated the first time a value lands
/// in its tier: an empty histogram holds no rows, and a latency
/// distribution, which spans a few tiers, holds a few. Bucket boundaries
/// and resolution do not depend on which rows exist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// `rows[tier]` holds the tier's sub-bucket counts, `None` until a
    /// value lands there; the vector reaches only the highest tier touched.
    rows: Vec<Option<Box<[u64]>>>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram; it allocates nothing until a value is
    /// recorded.
    pub fn new() -> Self {
        Histogram {
            rows: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUBS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) - SUBS as u64) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUBS + sub
    }

    fn bucket_lower_bound(index: usize) -> u64 {
        let tier = index / SUBS;
        let sub = (index % SUBS) as u64;
        if tier == 0 {
            sub
        } else {
            (SUBS as u64 + sub) << (tier - 1)
        }
    }

    /// The row of `tier`, allocated zeroed on first use.
    fn row_mut(&mut self, tier: usize) -> &mut [u64] {
        if tier >= self.rows.len() {
            self.rows.resize_with(tier + 1, || None);
        }
        self.rows[tier].get_or_insert_with(|| vec![0; SUBS].into_boxed_slice())
    }

    /// Records a value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        self.row_mut(idx / SUBS)[idx % SUBS] += 1;
        self.count += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records a [`SimTime`] duration (as picoseconds).
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_ps());
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value.
    ///
    /// Returns 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at quantile `q` in `[0, 1]` (bucket lower bound).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).floor() as u64;
        let mut seen = 0u64;
        for (tier, row) in self.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            for (sub, &c) in row.iter().enumerate() {
                seen += c;
                if seen > target {
                    return Self::bucket_lower_bound(tier * SUBS + sub)
                        .max(self.min)
                        .min(self.max);
                }
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (tier, theirs) in other.rows.iter().enumerate() {
            let Some(theirs) = theirs else { continue };
            for (a, b) in self.row_mut(tier).iter_mut().zip(theirs.iter()) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Produces a compact summary of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max,
        }
    }

    /// Convenience: summary interpreted as nanoseconds (samples are ps).
    pub fn summary_ns(&self) -> SummaryNs {
        let s = self.summary();
        SummaryNs {
            count: s.count,
            mean: s.mean / 1e3,
            min: s.min as f64 / 1e3,
            p50: s.p50 as f64 / 1e3,
            p90: s.p90 as f64 / 1e3,
            p99: s.p99 as f64 / 1e3,
            p999: s.p999 as f64 / 1e3,
            max: s.max as f64 / 1e3,
        }
    }
}

/// A point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Median (bucket-resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum sample.
    pub max: u64,
}

/// A [`Summary`] with all values converted from picoseconds to nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryNs {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (ns).
    pub mean: f64,
    /// Minimum (ns).
    pub min: f64,
    /// Median (ns).
    pub p50: f64,
    /// 90th percentile (ns).
    pub p90: f64,
    /// 99th percentile (ns).
    pub p99: f64,
    /// 99.9th percentile (ns).
    pub p999: f64,
    /// Maximum (ns).
    pub max: f64,
}

/// Jain's fairness index over a set of non-negative allocations.
///
/// Returns 1.0 for a perfectly fair vector and approaches `1/n` as one
/// element dominates. Returns 1.0 for empty or all-zero input.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sum_sq)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The seed histogram, kept as the oracle for the tiered one: all 64
    /// tiers of 64 sub-buckets allocated up front in one flat vector.
    struct DenseHistogram {
        buckets: Vec<u64>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl DenseHistogram {
        fn new() -> Self {
            DenseHistogram {
                buckets: vec![0; 64 * SUBS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, value: u64) {
            self.buckets[Histogram::bucket_index(value)] += 1;
            self.count += 1;
            self.sum += value as u128;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        fn merge(&mut self, other: &DenseHistogram) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            }
        }

        fn min(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.min
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            if q >= 1.0 {
                return self.max;
            }
            let target = (q * self.count as f64).floor() as u64;
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen > target {
                    return Histogram::bucket_lower_bound(i).max(self.min).min(self.max);
                }
            }
            self.max
        }

        fn summary(&self) -> Summary {
            Summary {
                count: self.count,
                mean: self.mean(),
                min: self.min(),
                p50: self.quantile(0.50),
                p90: self.quantile(0.90),
                p99: self.quantile(0.99),
                p999: self.quantile(0.999),
                max: self.max,
            }
        }
    }

    /// One step of the oracle test, applied to histogram `a` or `b` and
    /// to its dense twin.
    #[derive(Debug, Clone)]
    enum HistOp {
        Record {
            into_b: bool,
            value: u64,
        },
        /// Merge the other side into this one (`into_b`: b absorbs a).
        Merge {
            into_b: bool,
        },
    }

    /// Draws [`HistOp`]s: merges in both directions, and records whose
    /// value is exact-tier (`0..64`), a tier edge `2^k - 1`, `2^k` or
    /// `2^k + 1`, `u64::MAX`, or a picosecond latency of 1 ns to 10 ms.
    struct HistOps;

    impl Strategy for HistOps {
        type Value = HistOp;

        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> HistOp {
            let into_b = rng.below(2) == 1;
            let value = match rng.below(12) {
                0..=1 => return HistOp::Merge { into_b },
                2..=3 => rng.below(64),
                4..=6 => {
                    let edge = 1u64 << rng.below(64);
                    match rng.below(3) {
                        0 => edge - 1,
                        1 => edge,
                        _ => edge + 1,
                    }
                }
                7 => u64::MAX,
                _ => 1_000 + rng.below(10_000_000_000),
            };
            HistOp::Record { into_b, value }
        }
    }

    /// Fails unless `h` reads exactly as its dense twin `d` on every
    /// public read, at the fixed quantiles and at each of `qs`.
    fn same_reads(h: &Histogram, d: &DenseHistogram, qs: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(h.count(), d.count);
        prop_assert_eq!(h.mean().to_bits(), d.mean().to_bits());
        prop_assert_eq!(h.min(), d.min());
        prop_assert_eq!(h.max(), d.max);
        prop_assert_eq!(h.summary(), d.summary());
        for &q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0].iter().chain(qs) {
            prop_assert_eq!(h.quantile(q), d.quantile(q), "quantile {}", q);
        }
        Ok(())
    }

    #[test]
    fn rows_are_allocated_per_tier_touched() {
        let rows = |h: &Histogram| h.rows.iter().flatten().count();
        let mut h = Histogram::new();
        assert_eq!(rows(&h), 0);
        assert_eq!(h.rows.capacity(), 0, "a new histogram allocates nothing");
        // Tiers 0, 1, 14 (2^19 <= 10^6 < 2^20) and 58 (the top tier),
        // two values each.
        for v in [0, 63, 64, 127, 1_000_000, 1_000_001, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(rows(&h), 4);
        let mut m = Histogram::new();
        m.merge(&Histogram::new());
        assert_eq!(rows(&m), 0);
        m.merge(&h);
        assert_eq!(rows(&m), 4);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = Gauge::new();
        g.set(SimTime::ZERO, 2.0);
        g.set(SimTime::from_ns(10.0), 4.0);
        // 2.0 for 10ns then 4.0 for 10ns → mean 3.0 at 20ns.
        assert!((g.mean(SimTime::from_ns(20.0)) - 3.0).abs() < 1e-9);
        assert_eq!(g.peak(), 4.0);
        g.adjust(SimTime::from_ns(20.0), -3.0);
        assert_eq!(g.level(), 1.0);
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        // Small values land in exact buckets.
        assert_eq!(h.quantile(0.5), 32);
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i * 37);
        }
        for &q in &[0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 100_000.0) as u64 * 37;
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.02, "q={q}: est={est} exact={exact} err={err}");
        }
    }

    #[test]
    fn histogram_merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for i in 0..1000u64 {
            if i % 2 == 0 {
                a.record(i * i);
            } else {
                b.record(i * i);
            }
            u.record(i * i);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        assert_eq!(a.quantile(0.5), u.quantile(0.5));
        assert_eq!(a.min(), u.min());
        assert_eq!(a.max(), u.max());
    }

    #[test]
    fn summary_ns_scales() {
        let mut h = Histogram::new();
        h.record_time(SimTime::from_ns(1000.0));
        let s = h.summary_ns();
        assert_eq!(s.count, 1);
        assert!((s.mean - 1000.0).abs() < 1.0);
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
    }

    proptest! {
        /// The tiered histogram matches its dense oracle on every public
        /// read after any sequence of records and merges in either
        /// direction, empty sides included.
        #[test]
        fn matches_dense_oracle(
            ops in prop::collection::vec(HistOps, 0..80),
            qs in prop::collection::vec(0.0f64..1.0, 0..8),
        ) {
            let (mut a, mut b) = (Histogram::new(), Histogram::new());
            let (mut da, mut db) = (DenseHistogram::new(), DenseHistogram::new());
            for op in &ops {
                match *op {
                    HistOp::Record { into_b: false, value } => {
                        a.record(value);
                        da.record(value);
                    }
                    HistOp::Record { into_b: true, value } => {
                        b.record(value);
                        db.record(value);
                    }
                    HistOp::Merge { into_b: false } => {
                        a.merge(&b);
                        da.merge(&db);
                    }
                    HistOp::Merge { into_b: true } => {
                        b.merge(&a);
                        db.merge(&da);
                    }
                }
            }
            same_reads(&a, &da, &qs)?;
            same_reads(&b, &db, &qs)?;
        }

        #[test]
        fn bucket_index_is_monotonic(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Histogram::bucket_index(lo) <= Histogram::bucket_index(hi));
        }

        #[test]
        fn bucket_lower_bound_inverts_index(v in 0u64..u64::MAX) {
            let idx = Histogram::bucket_index(v);
            let lb = Histogram::bucket_lower_bound(idx);
            prop_assert!(lb <= v, "lb {lb} > v {v}");
            // Relative bucket width bound: lb >= v * (1 - 2^-SUB_BITS) roughly.
            if v > 128 {
                prop_assert!(lb as f64 >= v as f64 * (1.0 - 2.0 / SUBS as f64));
            }
        }

        #[test]
        fn quantiles_are_monotone(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut prev = 0;
            for i in 0..=10 {
                let q = h.quantile(i as f64 / 10.0);
                prop_assert!(q >= prev);
                prev = q;
            }
            prop_assert!(h.quantile(0.0) >= h.min());
            prop_assert!(h.quantile(1.0) == h.max());
        }

        #[test]
        fn mean_matches_sum(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
            let mut h = Histogram::new();
            let mut sum = 0u128;
            for &v in &values {
                h.record(v);
                sum += v as u128;
            }
            let exact = sum as f64 / values.len() as f64;
            prop_assert!((h.mean() - exact).abs() < 1e-6);
        }
    }
}
