//! Schedulability bounds for a multi-session venue host.
//!
//! A venue server batches N independent APC graphs onto one shared worker
//! pool per sound-card period. Within a batch every pool worker walks the
//! session table in the same order, so the sessions' graph executions run
//! back-to-back on the shared lanes. The admission test sums one
//! Graham-style list bound per session:
//!
//! ```text
//! Σ session_bound_ns(s) ≤ deadline_ns × (1 − margin)
//! ```
//!
//! where each session's bound is its list-schedule makespan on the lane
//! count it was admitted with ([`list_schedule`]) plus the measured floor
//! of its non-graph phases (TP + GP + VC, which also serialize across
//! sessions). It is a mean-cost list bound that has not been proven sound:
//! nodes are priced at their mean measured cost, and dispatch, wake-up and
//! tail effects are left out, so measured two-session batches run *longer*
//! than the summed bounds (`sim.bound_slack_pct` reads negative in the
//! benchmark). [`admissible`] is the test oracle the engine's admission
//! check is compared against.

use crate::list::list_schedule;
use crate::model::{DurationModel, SimGraph};

/// List bound (ns) of one session's per-cycle cost on `threads` pool
/// lanes: the list-schedule makespan of its graph under `durations` plus
/// `aux_floor_ns`, the measured driver-side cost of its non-graph phases.
pub fn session_bound_ns(
    graph: &SimGraph,
    durations: &DurationModel,
    threads: u32,
    aux_floor_ns: u64,
) -> u64 {
    list_schedule(graph, durations, 0, threads).makespan_ns() + aux_floor_ns
}

/// The per-cycle budget (ns) a deadline leaves after the safety margin.
/// `margin` is a fraction in `[0, 1)`: 0.2 keeps 20 % headroom.
pub fn cycle_budget_ns(deadline_ns: u64, margin: f64) -> u64 {
    (deadline_ns as f64 * (1.0 - margin.clamp(0.0, 1.0))).max(0.0) as u64
}

/// Does the saturating sum of these per-session bounds fit `deadline_ns`
/// at safety `margin`?
pub fn admissible(bounds_ns: &[u64], deadline_ns: u64, margin: f64) -> bool {
    let total: u64 = bounds_ns.iter().fold(0u64, |a, &b| a.saturating_add(b));
    total <= cycle_budget_ns(deadline_ns, margin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SimGraph {
        SimGraph::synthetic(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    #[test]
    fn bound_is_list_makespan_plus_floor() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10, 20, 5, 8]);
        // 2 procs reach the critical path (38); +floor.
        assert_eq!(session_bound_ns(&g, &d, 2, 100), 138);
        // 1 proc serializes (43); +floor.
        assert_eq!(session_bound_ns(&g, &d, 1, 100), 143);
    }

    #[test]
    fn admission_is_a_sum_against_the_margined_deadline() {
        assert!(admissible(&[300, 300, 300], 1000, 0.1)); // 900 ≤ 900
        assert!(!admissible(&[300, 300, 301], 1000, 0.1)); // 901 > 900
        assert!(admissible(&[], 1000, 0.99));
        // Saturating sum: huge bounds never wrap into admissibility.
        assert!(!admissible(&[u64::MAX, 1], 1_000_000, 0.0));
        assert!(!admissible(&[u64::MAX, u64::MAX], 1_000_000, 0.0));
    }
}
