//! Deadline accounting against the sound-card budget.
//!
//! DJ Star must hand a 128-sample buffer to the sound card every
//! `128 / 44100 s ≈ 2.9 ms`; an APC exceeding that budget distorts the audio
//! (§II–III). The paper reports "about five out of 10 K APC executions exceed
//! the deadline" on four cores (§VI). [`DeadlineTracker`] reproduces this
//! bookkeeping: it records per-cycle durations, counts misses, and reports
//! headroom statistics.

/// Records cycle durations against a fixed deadline.
#[derive(Debug, Clone)]
pub struct DeadlineTracker {
    deadline_ns: u64,
    cycles: u64,
    misses: u64,
    worst_ns: u64,
    total_ns: u128,
}

impl DeadlineTracker {
    /// Create a tracker with the given deadline in nanoseconds.
    pub fn new(deadline_ns: u64) -> Self {
        DeadlineTracker {
            deadline_ns,
            cycles: 0,
            misses: 0,
            worst_ns: 0,
            total_ns: 0,
        }
    }

    /// Tracker for the paper's configuration: buffer of `buffer_frames`
    /// samples at `sample_rate` Hz (128 @ 44 100 Hz → 2.902 ms).
    pub fn for_buffer(buffer_frames: u32, sample_rate: u32) -> Self {
        let ns = buffer_frames as u128 * 1_000_000_000u128 / sample_rate as u128;
        Self::new(ns as u64)
    }

    /// The deadline in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// Record one cycle of `duration_ns`; returns `true` if it met the deadline.
    pub fn record(&mut self, duration_ns: u64) -> bool {
        self.cycles += 1;
        self.total_ns += duration_ns as u128;
        self.worst_ns = self.worst_ns.max(duration_ns);
        if duration_ns > self.deadline_ns {
            self.misses += 1;
            false
        } else {
            true
        }
    }

    /// Number of recorded cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of cycles that exceeded the deadline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`; 0 when no cycles were recorded.
    pub fn miss_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.misses as f64 / self.cycles as f64
        }
    }

    /// Worst observed cycle (ns).
    pub fn worst_ns(&self) -> u64 {
        self.worst_ns
    }

    /// Mean cycle duration (ns); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.cycles as f64
        }
    }

    /// Mean headroom before the deadline (ns, may be negative if the average
    /// cycle misses).
    pub fn mean_headroom_ns(&self) -> f64 {
        self.deadline_ns as f64 - self.mean_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_buffer_deadline_is_2_9_ms() {
        let t = DeadlineTracker::for_buffer(128, 44_100);
        // 128/44100 s = 2.9025 ms
        assert!((t.deadline_ns() as f64 / 1e6 - 2.9025).abs() < 0.001);
    }

    #[test]
    fn counts_misses() {
        let mut t = DeadlineTracker::new(1000);
        assert!(t.record(900));
        assert!(!t.record(1500));
        assert!(t.record(1000)); // exactly on deadline counts as met
        assert_eq!(t.cycles(), 3);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.worst_ns(), 1500);
        assert!((t.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn headroom_is_deadline_minus_mean() {
        let mut t = DeadlineTracker::new(2000);
        t.record(500);
        t.record(1500);
        assert!((t.mean_ns() - 1000.0).abs() < 1e-9);
        assert!((t.mean_headroom_ns() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tracker_is_benign() {
        let t = DeadlineTracker::new(100);
        assert_eq!(t.miss_rate(), 0.0);
        assert_eq!(t.mean_ns(), 0.0);
    }
}
