//! In-place node-cost learning: one preallocated, fixed-bucket log
//! histogram per node of a session, into which the lane that ran a node
//! folds the node's execution time while the session's learning bit is
//! armed (see [`PoolExecutor::set_learning`](super::PoolExecutor::set_learning)).
//!
//! Buckets are exact below 16 ns and then split every power of two into
//! 16 equal sub-buckets, so a bucket spans at most 1/16 of its lower edge
//! and its midpoint — what a quantile reports — is within 1/32 (3.2 %) of
//! every value it holds. Values from 2^32 ns (4.3 s) up share the top
//! bucket. Recording is an index computation and a saturating `u16` add:
//! no allocation, no atomics.

use std::cell::UnsafeCell;

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two; also the count of exact buckets below.
const SUB: usize = 1 << SUB_BITS;
/// Powers of two above the exact range, up to 2^32 ns.
const OCTAVES: usize = 32 - SUB_BITS as usize;
/// Buckets of one histogram.
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// One node's execution-time histogram (ns).
pub(crate) struct CostHistogram {
    counts: [u16; BUCKETS],
}

impl CostHistogram {
    pub(crate) const fn new() -> Self {
        CostHistogram {
            counts: [0; BUCKETS],
        }
    }

    /// The bucket holding `ns`.
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros();
        if top >= 32 {
            return BUCKETS - 1;
        }
        let shift = top - SUB_BITS;
        let sub = (ns >> shift) as usize & (SUB - 1);
        SUB + shift as usize * SUB + sub
    }

    /// The midpoint of bucket `i` (ns).
    fn midpoint(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let (shift, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
        (((SUB + sub) as u64) << shift) + ((1u64 << shift) >> 1)
    }

    /// Count one execution of `ns` nanoseconds.
    #[inline]
    pub(crate) fn record(&mut self, ns: u64) {
        let c = &mut self.counts[Self::bucket(ns)];
        *c = c.saturating_add(1);
    }

    pub(crate) fn clear(&mut self) {
        self.counts = [0; BUCKETS];
    }

    /// The nearest-rank `q`-quantile, `q` in `(0, 1]`, as its bucket's
    /// midpoint; `None` with no sample.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if c > 0 && seen >= rank {
                return Some(Self::midpoint(i));
            }
        }
        None
    }
}

/// A node's histogram, written during a cycle by the one lane executing
/// that node and read or cleared by the driver between cycles.
pub(crate) struct CostCell(UnsafeCell<CostHistogram>);

// SAFETY: the epoch protocol of the module docs of `exec`: a node has
// exactly one executor per cycle, whose writes happen-before its done-count
// `Release` and so before the driver's barrier `Acquire`; the driver's
// accesses between cycles happen-before the next epoch `Release`.
unsafe impl Sync for CostCell {}

impl CostCell {
    pub(crate) fn new() -> Self {
        CostCell(UnsafeCell::new(CostHistogram::new()))
    }

    /// # Safety
    /// The caller is the exclusive executor of this node this epoch.
    #[inline]
    pub(crate) unsafe fn record(&self, ns: u64) {
        (*self.0.get()).record(ns);
    }

    /// # Safety
    /// Driver-only, with no cycle in flight.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self) -> &mut CostHistogram {
        &mut *self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_is_within_a_thirty_second_of_its_bucket_midpoint() {
        let mut v = 1u64;
        while 2 * v <= 1 << 32 {
            for x in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let mid = CostHistogram::midpoint(CostHistogram::bucket(x));
                let err = mid.abs_diff(x) as f64 / x as f64;
                assert!(err <= 1.0 / 32.0, "{x} ns -> {mid} ns ({err})");
            }
            v = v * 5 / 4 + 1;
        }
        // Beyond the range everything lands in the top bucket.
        assert_eq!(CostHistogram::bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(CostHistogram::bucket(1 << 32), BUCKETS - 1);
        assert_eq!(CostHistogram::bucket((1 << 32) - 1), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_nearest_rank_and_survive_an_outlier() {
        let mut h = CostHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for ns in [1_000, 1_010, 990, 1_005, 995, 1_002] {
            h.record(ns);
        }
        h.record(15_000_000); // one stall among seven samples
        let p50 = h.quantile(0.5).expect("samples");
        assert!(p50.abs_diff(1_002) * 32 <= 1_002, "p50 {p50}");
        let max = h.quantile(1.0).expect("samples");
        assert!(max.abs_diff(15_000_000) * 32 <= 15_000_000, "max {max}");
        h.clear();
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut h = CostHistogram::new();
        for _ in 0..70_000 {
            h.record(500);
        }
        h.record(9);
        // 65 535 samples of 500 ns against one of 9 ns.
        let at_500 = CostHistogram::midpoint(CostHistogram::bucket(500));
        assert_eq!(h.quantile(0.01), Some(at_500));
        assert_eq!(h.quantile(0.000_001), Some(9));
    }
}
