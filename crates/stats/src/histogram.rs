//! Fixed-bin histograms and cumulative views (Figs. 9 and 10 of the paper).

/// A histogram with uniformly sized bins over `[lo, hi)`.
///
/// Samples below `lo` are counted in the first bin and samples at or above
/// `hi` in the last bin ("clamping"), mirroring how the paper's histograms
/// plot everything within the 0.2–0.8 ms window while a handful of outliers
/// exist beyond it. Out-of-range counts are additionally tracked so outliers
/// remain visible (`underflow`/`overflow`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`; both indicate a harness bug.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        let idx = if value < self.lo {
            self.underflow += 1;
            0
        } else if value >= self.hi {
            self.overflow += 1;
            self.bins.len() - 1
        } else {
            let frac = (value - self.lo) / (self.hi - self.lo);
            ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
    }

    /// Record many samples.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// All bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `[start, end)` value range covered by bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Total number of recorded samples (including clamped ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples clamped into the first bin from below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples clamped into the last bin from at/above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of local maxima with at least `min_count` samples, where a peak
    /// is a bin strictly greater than its nearest differing neighbours on
    /// both sides (plateaus count once). Used to assert the bimodal shape the
    /// paper observes in Fig. 9.
    pub fn peak_count(&self, min_count: u64) -> usize {
        let b = &self.bins;
        let n = b.len();
        let mut peaks = 0;
        let mut i = 0;
        while i < n {
            // Find the plateau [i, j).
            let mut j = i + 1;
            while j < n && b[j] == b[i] {
                j += 1;
            }
            let left_lower = i == 0 || b[i - 1] < b[i];
            let right_lower = j == n || b[j] < b[i];
            if b[i] >= min_count && left_lower && right_lower && b[i] > 0 {
                peaks += 1;
            }
            i = j;
        }
        peaks
    }

    /// Cumulative view (Fig. 10): bin `i` holds the number of samples in bins
    /// `0..=i`.
    pub fn cumulative(&self) -> CumulativeView {
        let mut acc = 0u64;
        let cum = self
            .bins
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect();
        CumulativeView {
            lo: self.lo,
            hi: self.hi,
            cum,
            total: self.total,
        }
    }
}

/// Cumulative histogram: monotone non-decreasing counts per bin.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeView {
    lo: f64,
    hi: f64,
    cum: Vec<u64>,
    total: u64,
}

impl CumulativeView {
    /// Cumulative count at bin `i`.
    pub fn at(&self, i: usize) -> u64 {
        self.cum[i]
    }

    /// All cumulative counts.
    pub fn counts(&self) -> &[u64] {
        &self.cum
    }

    /// Fraction (0..=1) of samples at or below the *upper edge* of the bin
    /// containing `value`. Used for statements like "SLEEP finishes 80 % of
    /// iterations under 0.5 ms".
    pub fn fraction_below(&self, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if value < self.lo {
            return 0.0;
        }
        let n = self.cum.len();
        let frac = (value - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64) as usize).min(n - 1);
        self.cum[idx] as f64 / self.total as f64
    }

    /// Smallest bin upper edge at which the cumulative fraction reaches `p`
    /// (0..=1), or `None` if it never does (only when `p > 1`).
    pub fn value_at_fraction(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (p * self.total as f64).ceil() as u64;
        let w = (self.hi - self.lo) / self.cum.len() as f64;
        for (i, &c) in self.cum.iter().enumerate() {
            if c >= target {
                return Some(self.lo + w * (i + 1) as f64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        h.record(5.0);
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.bin(9), 1);
        assert_eq!(h.bin(5), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(2.0);
        h.record(1.0); // hi itself is out of the half-open range
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.bin(3), 2);
    }

    #[test]
    fn bin_ranges_tile_the_interval() {
        let h = Histogram::new(0.2, 0.8, 6);
        let (a0, b0) = h.bin_range(0);
        assert!((a0 - 0.2).abs() < 1e-12);
        assert!((b0 - 0.3).abs() < 1e-12);
        let (a5, b5) = h.bin_range(5);
        assert!((a5 - 0.7).abs() < 1e-12);
        assert!((b5 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        for i in 0..100 {
            h.record(i as f64 / 100.0);
        }
        let c = h.cumulative();
        let counts = c.counts();
        for w in counts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*counts.last().unwrap(), 100);
    }

    #[test]
    fn fraction_below_matches_data() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..10 {
            h.record(i as f64 / 10.0 + 0.05);
        }
        let c = h.cumulative();
        assert!((c.fraction_below(0.45) - 0.5).abs() < 1e-9);
        assert!((c.fraction_below(0.95) - 1.0).abs() < 1e-9);
        assert_eq!(c.fraction_below(-1.0), 0.0);
    }

    #[test]
    fn value_at_fraction_inverts_fraction_below() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..10 {
            h.record(i as f64 / 10.0 + 0.05);
        }
        let c = h.cumulative();
        let v = c.value_at_fraction(0.5).unwrap();
        assert!((v - 0.5).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn detects_two_peaks() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        // Peak at bin 2 and bin 7.
        for _ in 0..50 {
            h.record(2.5);
        }
        for _ in 0..20 {
            h.record(1.5);
        }
        for _ in 0..40 {
            h.record(7.5);
        }
        for _ in 0..10 {
            h.record(6.5);
        }
        assert_eq!(h.peak_count(5), 2);
    }

    #[test]
    fn plateau_counts_as_single_peak() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for _ in 0..10 {
            h.record(1.5);
            h.record(2.5);
        }
        h.record(0.5);
        assert_eq!(h.peak_count(2), 1);
    }
}
