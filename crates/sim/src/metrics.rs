//! Schedule quality metrics: utilization and load balance.
//!
//! The paper reads these quantities off Fig. 11 informally ("many active
//! waiting boxes", "the sleeping schedule has a longer total execution
//! time"); this module computes them exactly for simulated [`Schedule`]s.

use crate::model::Schedule;

/// Aggregate metrics of one schedule/cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// Makespan (ns).
    pub makespan_ns: u64,
    /// Sum of all node execution times (ns).
    pub busy_ns: u64,
    /// Mean processor utilization in `[0, 1]`: busy / (makespan × procs).
    pub utilization: f64,
    /// Per-processor busy time (ns), index = processor.
    pub per_proc_busy_ns: Vec<u64>,
    /// Load imbalance: max per-proc busy / mean per-proc busy (1.0 = even).
    pub imbalance: f64,
    /// Nodes executed per processor.
    pub per_proc_nodes: Vec<usize>,
}

impl ScheduleMetrics {
    /// Compute metrics of a simulated schedule.
    pub fn of_schedule(s: &Schedule) -> Self {
        let procs = s.procs.max(1) as usize;
        let mut per_proc_busy_ns = vec![0u64; procs];
        let mut per_proc_nodes = vec![0usize; procs];
        for e in &s.entries {
            let p = e.proc as usize;
            if p < procs {
                per_proc_busy_ns[p] += e.end_ns - e.start_ns;
                per_proc_nodes[p] += 1;
            }
        }
        Self::finish(s.makespan_ns(), per_proc_busy_ns, per_proc_nodes)
    }

    fn finish(makespan_ns: u64, per_proc_busy_ns: Vec<u64>, per_proc_nodes: Vec<usize>) -> Self {
        let procs = per_proc_busy_ns.len();
        let busy_ns: u64 = per_proc_busy_ns.iter().sum();
        let utilization = if makespan_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / (makespan_ns as f64 * procs as f64)
        };
        let mean = busy_ns as f64 / procs as f64;
        let max = per_proc_busy_ns.iter().copied().max().unwrap_or(0) as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        ScheduleMetrics {
            makespan_ns,
            busy_ns,
            utilization,
            per_proc_busy_ns,
            imbalance,
            per_proc_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScheduleEntry;

    fn two_proc() -> Schedule {
        Schedule {
            procs: 2,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 60,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 1,
                    start_ns: 0,
                    end_ns: 20,
                },
                ScheduleEntry {
                    node: 2,
                    proc: 1,
                    start_ns: 20,
                    end_ns: 40,
                },
            ],
        }
    }

    #[test]
    fn schedule_metrics_math() {
        let m = ScheduleMetrics::of_schedule(&two_proc());
        assert_eq!(m.makespan_ns, 60);
        assert_eq!(m.busy_ns, 100);
        assert!((m.utilization - 100.0 / 120.0).abs() < 1e-12);
        assert_eq!(m.per_proc_busy_ns, vec![60, 40]);
        assert_eq!(m.per_proc_nodes, vec![1, 2]);
        assert!((m.imbalance - 60.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_is_benign() {
        let m = ScheduleMetrics::of_schedule(&Schedule {
            entries: vec![],
            procs: 4,
        });
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.imbalance, 1.0);
    }

    #[test]
    fn perfect_balance_has_imbalance_one() {
        let s = Schedule {
            procs: 2,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 50,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 1,
                    start_ns: 0,
                    end_ns: 50,
                },
            ],
        };
        let m = ScheduleMetrics::of_schedule(&s);
        assert!((m.imbalance - 1.0).abs() < 1e-12);
        assert!((m.utilization - 1.0).abs() < 1e-12);
    }
}
