//! Virtual-time replica of the PLAN executor.
//!
//! The list scheduler (`sim::list`) produces the resource-constrained
//! schedule the paper calls "optimal" on four cores; its per-processor
//! timelines ([`Schedule::lanes`]) are what a real PLAN executor replays,
//! bound to its graph where the generation is staged. [`compile_blueprint`] makes the same
//! binding against a [`SimGraph`], and [`simulate_plan`] predicts what
//! the replay costs under an [`OverheadModel`] — through the same lane walk
//! that replays BUSY, SLEEP and HYBRID (`strategy`). PLAN's simulated
//! advantage over BUSY comes from two terms: list-scheduler placement
//! instead of round-robin (fewer convoy waits), and dependency checks only
//! on the compile-time-identified cross-worker waits instead of every
//! predecessor.

use crate::model::{DurationModel, Schedule, SimGraph};
use crate::strategy::{walk_lanes, OverheadModel, Slot, Wait};
use djstar_core::{BlueprintError, ScheduleBlueprint};

/// Bind a simulated schedule's lanes to `graph` for the replay: each
/// processor lane of `schedule` becomes one worker's static node order,
/// and cross-worker dependencies become spin-check waits. Fails if the
/// schedule does not cover the graph exactly once or is not replayable
/// (never the case for `sim::list` output, which is validated by
/// construction). The executor takes the lanes themselves
/// ([`Schedule::lanes`]) and binds them to the graph it runs.
pub fn compile_blueprint(
    graph: &SimGraph,
    schedule: &Schedule,
) -> Result<ScheduleBlueprint, BlueprintError> {
    ScheduleBlueprint::bind(&schedule.lanes(), graph.len(), |n| graph.preds(n))
}

/// Simulate one cycle of the PLAN executor replaying `blueprint`: the
/// static lane walk over the blueprint's slots, as `Replay::run_lane`
/// walks them. A lane checks only its slots' *cross-lane* waits
/// (same-lane predecessors are covered by slot order and cost nothing at
/// runtime) and spins like BUSY, so there is no initial wake latency.
pub fn simulate_plan(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    blueprint: &ScheduleBlueprint,
    overhead: &OverheadModel,
) -> Schedule {
    let lanes: Vec<Vec<Slot<'_>>> = (0..blueprint.threads())
        .map(|w| {
            let slots = blueprint.worker(w).iter();
            slots.map(|slot| (slot.node, slot.waits())).collect()
        })
        .collect();
    walk_lanes(graph, durations, cycle, &lanes, Wait::Spin, overhead)
}

/// Makespans of `cycles` consecutive simulated PLAN cycles.
pub fn simulate_plan_makespans(
    graph: &SimGraph,
    durations: &DurationModel,
    blueprint: &ScheduleBlueprint,
    overhead: &OverheadModel,
    cycles: usize,
) -> Vec<u64> {
    (0..cycles)
        .map(|c| simulate_plan(graph, durations, c, blueprint, overhead).makespan_ns())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use crate::strategy::{simulate_strategy, SimStrategy};

    /// `w` parallel chains of length `l` into one sink (DJ-Star-shaped).
    fn chains(w: usize, l: usize) -> SimGraph {
        let mut preds: Vec<Vec<u32>> = Vec::new();
        for c in 0..w {
            for k in 0..l {
                if k == 0 {
                    preds.push(vec![]);
                } else {
                    preds.push(vec![(c * l + k - 1) as u32]);
                }
            }
        }
        let sink_preds: Vec<u32> = (0..w).map(|c| ((c + 1) * l - 1) as u32).collect();
        preds.push(sink_preds);
        SimGraph::synthetic(preds)
    }

    #[test]
    fn compiled_plan_is_valid_and_covers_every_node_once() {
        let g = chains(4, 5);
        let d = DurationModel::Constant((0..g.len() as u64).map(|i| 2_000 + i * 97).collect());
        let bound = list_schedule(&g, &d, 0, 4);
        let bp = compile_blueprint(&g, &bound).unwrap();
        assert_eq!(bp.threads(), 4);
        assert_eq!(bp.len(), g.len());
        let s = simulate_plan(&g, &d, 0, &bp, &OverheadModel::default_host());
        assert!(s.is_valid(&g));
        let mut nodes: Vec<u32> = s.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..g.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_overhead_plan_reproduces_the_list_schedule_exactly() {
        let g = chains(3, 4);
        let d = DurationModel::Constant((0..g.len() as u64).map(|i| 1_000 + i * 211).collect());
        let bound = list_schedule(&g, &d, 0, 3);
        let bp = compile_blueprint(&g, &bound).unwrap();
        let s = simulate_plan(&g, &d, 0, &bp, &OverheadModel::zero());
        assert_eq!(s.makespan_ns(), bound.makespan_ns());
    }

    #[test]
    fn plan_stays_within_five_percent_of_the_list_bound() {
        let g = chains(4, 6);
        let d = DurationModel::Constant(
            (0..g.len() as u64)
                .map(|i| 10_000 + (i * 1_733) % 30_000)
                .collect(),
        );
        let bound = list_schedule(&g, &d, 0, 4);
        let bp = compile_blueprint(&g, &bound).unwrap();
        let plan = simulate_plan(&g, &d, 0, &bp, &OverheadModel::default_host()).makespan_ns();
        assert!(plan >= bound.makespan_ns());
        assert!(
            plan as f64 <= bound.makespan_ns() as f64 * 1.05,
            "plan {plan} > 1.05 x bound {}",
            bound.makespan_ns()
        );
    }

    #[test]
    fn plan_beats_simulated_busy() {
        let g = chains(4, 6);
        let d = DurationModel::Constant(
            (0..g.len() as u64)
                .map(|i| 5_000 + (i * 2_311) % 20_000)
                .collect(),
        );
        let oh = OverheadModel::default_host();
        for threads in [2usize, 4] {
            let busy = simulate_strategy(&g, &d, 0, threads, SimStrategy::Busy, &oh).makespan_ns();
            let bound = list_schedule(&g, &d, 0, threads as u32);
            let bp = compile_blueprint(&g, &bound).unwrap();
            let plan = simulate_plan(&g, &d, 0, &bp, &oh).makespan_ns();
            assert!(plan <= busy, "t={threads}: plan {plan} > busy {busy}");
        }
    }

    #[test]
    fn makespans_track_empirical_cycles() {
        let g = SimGraph::synthetic(vec![vec![], vec![0], vec![0], vec![1, 2]]);
        let d = DurationModel::Empirical(vec![
            vec![1_000, 9_000],
            vec![2_000, 18_000],
            vec![500, 4_500],
            vec![800, 7_200],
        ]);
        let bound = list_schedule(&g, &d, 0, 2);
        let bp = compile_blueprint(&g, &bound).unwrap();
        let ms = simulate_plan_makespans(&g, &d, &bp, &OverheadModel::zero(), 4);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0], ms[2]);
        assert_eq!(ms[1], ms[3]);
        assert!(ms[1] > ms[0]);
    }
}
