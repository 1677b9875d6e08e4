//! Online (single-pass, constant-memory) statistics.
//!
//! The 10 000-cycle measurement runs should not retain every sample when
//! only aggregates are needed; [`OnlineStats`] implements Welford's
//! algorithm for numerically stable streaming mean/variance, plus min/max
//! tracking. Merging two accumulators (for per-worker collection) uses the
//! parallel variance combination rule.

/// Welford streaming accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (Bessel-corrected; 0 for fewer than two samples).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (Chan et al. combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_computation() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut o = OnlineStats::new();
        for &s in &samples {
            o.push(s);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((o.mean() - mean).abs() < 1e-12);
        assert!((o.variance() - var).abs() < 1e-12);
        assert_eq!(o.min(), Some(1.0));
        assert_eq!(o.max(), Some(9.0));
        assert_eq!(o.count(), 8);
    }

    #[test]
    fn empty_is_benign() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.variance(), 0.0);
        assert_eq!(o.min(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &s in &all {
            whole.push(s);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &s) in all.iter().enumerate() {
            if i % 3 == 0 {
                a.push(s);
            } else {
                b.push(s);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let empty = OnlineStats::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: huge mean, small variance.
        let mut o = OnlineStats::new();
        for i in 0..1000 {
            o.push(1e9 + (i % 2) as f64);
        }
        assert!((o.variance() - 0.2502).abs() < 0.01, "{}", o.variance());
    }
}
