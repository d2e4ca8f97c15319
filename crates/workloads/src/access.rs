//! Address-stream generators.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use rand::Rng;

/// Uniform random object/address indices in `[0, n)`.
#[derive(Debug, Clone)]
pub struct UniformStream {
    n: u64,
}

impl UniformStream {
    /// Creates a stream over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty universe");
        UniformStream { n }
    }

    /// Draws the next index.
    pub fn next(&mut self, rng: &mut impl Rng) -> u64 {
        rng.gen_range(0..self.n)
    }
}

/// A wrapping sequential sweep.
#[derive(Debug, Clone)]
pub struct SequentialStream {
    n: u64,
    next: u64,
}

#[allow(clippy::should_implement_trait)] // a seeded generator, not an Iterator.
impl SequentialStream {
    /// Creates a sweep over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty universe");
        SequentialStream { n, next: 0 }
    }

    /// Returns the next index.
    pub fn next(&mut self) -> u64 {
        let i = self.next;
        self.next = (self.next + 1) % self.n;
        i
    }
}

/// Zipf-distributed indices over `[0, n)`: rank `k` (0-based) is drawn
/// with probability proportional to `1 / (k+1)^theta`.
///
/// Implemented with a precomputed CDF and binary search — exact, O(log n)
/// per sample, fine for the object counts the experiments use (≤ 10^6).
/// Streams built on one thread with the same `(n, theta)` one after
/// another share one CDF, so a thousand clients over one key space cost
/// one table; it is freed when the last of them drops. The draws are
/// the same as from a table of its own.
///
/// # Examples
///
/// ```
/// use fcc_workloads::access::ZipfStream;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut zipf = ZipfStream::new(100, 1.1);
/// let hits = (0..1000).filter(|_| zipf.next(&mut rng) == 0).count();
/// assert!(hits > 100, "rank 0 dominates: {hits}");
/// ```
#[derive(Debug, Clone)]
pub struct ZipfStream {
    cdf: Arc<[f64]>,
}

/// The `(n, theta bits)` key of a CDF.
type ZipfKey = (u64, u64);

thread_local! {
    /// The CDF this thread built last, while a stream still holds it.
    static LAST_CDF: RefCell<Option<(ZipfKey, Weak<[f64]>)>> = const { RefCell::new(None) };
}

impl ZipfStream {
    /// Creates a Zipf stream over `n` items with skew `theta`.
    ///
    /// `theta == 0` degenerates to uniform; common skew is 0.9–1.2.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative/not finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty universe");
        assert!(theta.is_finite() && theta >= 0.0, "bad skew {theta}");
        let key = (n, theta.to_bits());
        let shared = LAST_CDF.with_borrow(|last| match last {
            Some((k, cdf)) if *k == key => cdf.upgrade(),
            _ => None,
        });
        let cdf = shared.unwrap_or_else(|| {
            let cdf = Self::build_cdf(n, theta);
            LAST_CDF.set(Some((key, Arc::downgrade(&cdf))));
            cdf
        });
        ZipfStream { cdf }
    }

    /// The normalized cumulative distribution of ranks `0..n`.
    fn build_cdf(n: u64, theta: f64) -> Arc<[f64]> {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        cdf.into()
    }

    /// Draws the next rank (0 = most popular).
    pub fn next(&mut self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        // First index with cdf >= u.
        self.cdf.partition_point(|&c| c < u) as u64
    }

    /// The stream's CDF table.
    #[cfg(test)]
    fn table(&self) -> &Arc<[f64]> {
        &self.cdf
    }
}

impl Drop for ZipfStream {
    /// The last stream on a CDF clears this thread's memo of it, so the
    /// memo's weak handle does not keep the table's memory allocated.
    fn drop(&mut self) {
        if Arc::strong_count(&self.cdf) > 1 {
            return;
        }
        let this = Arc::as_ptr(&self.cdf);
        // The memo is out of reach only while the thread's locals are
        // being torn down, when it goes with them.
        let _ = LAST_CDF.try_with(|last| {
            let Ok(mut last) = last.try_borrow_mut() else {
                return;
            };
            if matches!(&*last, Some((_, cdf)) if std::ptr::addr_eq(cdf.as_ptr(), this)) {
                *last = None;
            }
        });
    }
}

/// A random-cycle pointer chase: a permutation of `[0, n)` forming a
/// single cycle, so dependent traversal touches every slot with no
/// exploitable locality.
#[derive(Debug, Clone)]
pub struct PointerChase {
    next: Vec<u64>,
    cursor: u64,
}

impl PointerChase {
    /// Builds a single-cycle permutation of `n` slots (Sattolo's
    /// algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: u64, rng: &mut impl Rng) -> Self {
        assert!(n >= 2, "chase needs at least two slots");
        let mut order: Vec<u64> = (0..n).collect();
        // Sattolo: single cycle guaranteed.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..i);
            order.swap(i, j);
        }
        let mut next = vec![0u64; n as usize];
        for w in 0..order.len() {
            let from = order[w];
            let to = order[(w + 1) % order.len()];
            next[from as usize] = to;
        }
        PointerChase { next, cursor: 0 }
    }

    /// Follows the chain one step and returns the new slot.
    pub fn step(&mut self) -> u64 {
        self.cursor = self.next[self.cursor as usize];
        self.cursor
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether the chase is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn uniform_covers_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = UniformStream::new(10);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[s.next(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn sequential_wraps() {
        let mut s = SequentialStream::new(3);
        let xs: Vec<u64> = (0..7).map(|_| s.next()).collect();
        assert_eq!(xs, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut z = ZipfStream::new(1000, 1.1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // Rank 0 far outweighs rank 100.
        assert!(counts[0] > counts[100] * 20);
        // Top 10 ranks take a large share.
        let top10: u64 = counts[..10].iter().sum();
        assert!(top10 as f64 > 0.4 * 100_000.0, "top-10 share {top10}");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut z = ZipfStream::new(100, 0.0);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        let min = *counts.iter().min().expect("nonempty");
        assert!(max < min * 2, "uniform-ish: {min}..{max}");
    }

    fn draws(z: &mut ZipfStream, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1000).map(|_| z.next(&mut rng)).collect()
    }

    #[test]
    fn equal_zipf_streams_share_one_cdf() {
        let mut a = ZipfStream::new(512, 0.99);
        let mut b = ZipfStream::new(512, 0.99);
        assert!(Arc::ptr_eq(a.table(), b.table()));
        // A stream built with no memo entry gets a table of its own,
        // with the same values and the same draws.
        LAST_CDF.set(None);
        let mut fresh = ZipfStream::new(512, 0.99);
        assert!(!Arc::ptr_eq(a.table(), fresh.table()));
        assert_eq!(a.table()[..], fresh.table()[..]);
        let expect = draws(&mut fresh, 7);
        assert_eq!(draws(&mut a, 7), expect);
        assert_eq!(draws(&mut b, 7), expect);
    }

    #[test]
    fn zipf_streams_of_another_n_or_theta_do_not_share() {
        let a = ZipfStream::new(512, 0.99);
        let other_n = ZipfStream::new(511, 0.99);
        assert!(!Arc::ptr_eq(a.table(), other_n.table()));
        let b = ZipfStream::new(512, 0.99);
        let other_theta = ZipfStream::new(512, 1.0);
        assert!(!Arc::ptr_eq(b.table(), other_theta.table()));
        assert_eq!(other_n.table().len(), 511);
    }

    #[test]
    fn dropping_every_zipf_stream_frees_the_memo_target() {
        let a = ZipfStream::new(64, 1.1);
        let weak = Arc::downgrade(a.table());
        let b = a.clone();
        let c = ZipfStream::new(64, 1.1);
        drop((a, b));
        assert!(weak.upgrade().is_some(), "one stream still holds it");
        drop(c);
        assert!(weak.upgrade().is_none());
        assert_eq!(weak.strong_count(), 0);
        assert!(LAST_CDF.with_borrow(Option::is_none), "memo cleared");
    }

    #[test]
    fn pointer_chase_is_a_single_full_cycle() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut chase = PointerChase::new(256, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            assert!(seen.insert(chase.step()), "revisit before full cycle");
        }
        assert_eq!(seen.len(), 256);
        // Next step closes the cycle.
        assert!(seen.contains(&chase.step()));
    }

    #[test]
    fn chase_is_seed_deterministic() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = PointerChase::new(64, &mut rng);
            (0..10).map(|_| c.step()).collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
