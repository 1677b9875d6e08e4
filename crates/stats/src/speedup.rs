//! Strategy × thread-count response-time and speedup matrices
//! (Table I and Fig. 8 of the paper).

/// Average response times for several strategies over a range of thread
/// counts, plus the sequential baseline they are compared against.
///
/// The paper's Table I lists the mean task-graph response time in ms for
/// BUSY/SLEEP/WS at 1–4 threads; Fig. 8 plots the speedup of the same data
/// relative to the sequential implementation.
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    /// Thread counts of the columns, e.g. `[1, 2, 3, 4]`.
    pub threads: Vec<usize>,
    /// Sequential baseline time (same unit as `times`).
    pub baseline: f64,
    /// One row per strategy: `(name, times-per-thread-count)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl SpeedupTable {
    /// Create an empty table with the given thread-count columns and
    /// sequential baseline.
    ///
    /// # Panics
    /// Panics if `threads` is empty or `baseline` is not positive.
    pub fn new(threads: Vec<usize>, baseline: f64) -> Self {
        assert!(!threads.is_empty(), "need at least one thread-count column");
        assert!(baseline > 0.0, "baseline time must be positive");
        SpeedupTable {
            threads,
            baseline,
            rows: Vec::new(),
        }
    }

    /// Add a strategy row.
    ///
    /// # Panics
    /// Panics if `times.len()` disagrees with the number of columns.
    pub fn push_row(&mut self, name: impl Into<String>, times: Vec<f64>) {
        assert_eq!(
            times.len(),
            self.threads.len(),
            "row length must match thread columns"
        );
        self.rows.push((name.into(), times));
    }

    /// Speedup of row `r` at column `c`: `baseline / time`.
    pub fn speedup(&self, r: usize, c: usize) -> f64 {
        self.baseline / self.rows[r].1[c]
    }

    /// Speedups of one row across all columns.
    pub fn speedups(&self, r: usize) -> Vec<f64> {
        (0..self.threads.len())
            .map(|c| self.speedup(r, c))
            .collect()
    }

    /// Best (smallest) time in a column together with the winning row index.
    pub fn best_in_column(&self, c: usize) -> Option<(usize, f64)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, (_, t))| (i, t[c]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The actual Table I from the paper, in ms.
    fn paper_table() -> SpeedupTable {
        let mut t = SpeedupTable::new(vec![1, 2, 3, 4], 1.0839);
        t.push_row("BUSY", vec![1.0785, 0.6371, 0.5683, 0.4516]);
        t.push_row("SLEEP", vec![1.1130, 0.6447, 0.6444, 0.4657]);
        t.push_row("WS", vec![1.1111, 0.6394, 0.5844, 0.4690]);
        t
    }

    #[test]
    fn speedup_matches_paper_shape() {
        let t = paper_table();
        // BUSY at 4 threads: the paper reports a speedup of ~2.40.
        let s = t.speedup(0, 3);
        assert!(s > 2.3 && s < 2.5, "BUSY speedup = {s}");
        // Speedup grows with thread count for every strategy.
        for r in 0..t.rows.len() {
            let sp = t.speedups(r);
            assert!(sp[0] < sp[1] && sp[1] < sp[3]);
        }
    }

    #[test]
    fn busy_wins_at_four_threads() {
        let t = paper_table();
        let (winner, _) = t.best_in_column(3).unwrap();
        assert_eq!(t.rows[winner].0, "BUSY");
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_panics() {
        let mut t = SpeedupTable::new(vec![1, 2], 1.0);
        t.push_row("X", vec![1.0]);
    }
}
