//! Resource-constrained list scheduling (§IV's 4-core "optimal" schedule).
//!
//! "Since only four cores are required most of the time, we simulated the
//! graph with a resource constraint of four cores to find an optimal
//! schedule. Our simulation results show that the task graph can be
//! computed in 324 µs using only four cores. This is only 8 % slower than
//! the schedule without resource constraints."
//!
//! The scheduler is an event-driven list scheduler: whenever a processor is
//! free and nodes are ready, the highest-priority ready node starts.
//! Priority is the DJ Star queue position by default (depth order), with an
//! optional critical-path priority for the ablation study in DESIGN.md §5.

use crate::model::{DurationModel, Schedule, ScheduleEntry, SimGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ready-node priority rule.
///
/// These rank *ready* nodes only, so they need no topological validity and
/// can use duration-aware keys freely. The executors have no such knob:
/// they walk the depth queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// DJ Star queue order (depth, then insertion order).
    QueueOrder,
    /// Longest remaining path first (classic critical-path list scheduling).
    CriticalPath,
    /// "Longer Is Shorter" path shaping: longest *total* path through the
    /// node first (entry path + remaining path, in time). Among equal
    /// remaining paths this prefers the node whose chain started earliest,
    /// serializing long end-to-end chains.
    LongerIsShorter,
    /// Global fixed-priority: a single static rank per node — ascending
    /// depth, then longest remaining path — assigned once before the run,
    /// mirroring global fixed-priority DAG scheduling analyses.
    GlobalFixed,
}

impl Priority {
    /// Every priority rule, in sweep order.
    pub const ALL: [Priority; 4] = [
        Priority::QueueOrder,
        Priority::CriticalPath,
        Priority::LongerIsShorter,
        Priority::GlobalFixed,
    ];

    /// Short label for reports and benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            Priority::QueueOrder => "queue-order",
            Priority::CriticalPath => "critical-path",
            Priority::LongerIsShorter => "longer-is-shorter",
            Priority::GlobalFixed => "global-fixed",
        }
    }
}

/// Schedule `graph` on `procs` processors under `durations` (cycle
/// `cycle`), using queue-order priority.
pub fn list_schedule(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    procs: u32,
) -> Schedule {
    list_schedule_with(graph, durations, cycle, procs, Priority::QueueOrder)
}

/// Schedule with an explicit priority rule.
pub fn list_schedule_with(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    procs: u32,
    priority: Priority,
) -> Schedule {
    assert!(procs > 0, "need at least one processor");
    let n = graph.len();
    // Longest remaining time path from each node down to a sink, including
    // the node itself (backward pass over the topological queue).
    let remaining_path = || {
        let mut remaining = vec![0u64; n];
        for &node in graph.queue().iter().rev() {
            let tail = graph
                .succs(node)
                .iter()
                .map(|&s| remaining[s as usize])
                .max()
                .unwrap_or(0);
            remaining[node as usize] = tail + durations.duration(node, cycle);
        }
        remaining
    };
    // Priority key per node: smaller = more urgent.
    let key: Vec<u64> = match priority {
        Priority::QueueOrder => {
            let mut k = vec![0u64; n];
            for (pos, &node) in graph.queue().iter().enumerate() {
                k[node as usize] = pos as u64;
            }
            k
        }
        Priority::CriticalPath => {
            // Remaining path length, inverted into a "smaller is better" key.
            let remaining = remaining_path();
            let max = remaining.iter().copied().max().unwrap_or(0);
            remaining.iter().map(|&r| max - r).collect()
        }
        Priority::LongerIsShorter => {
            // Longest total path *through* the node: entry path (forward
            // pass) + remaining path, with the node's own duration counted
            // once. Inverted into a "smaller is better" key.
            let remaining = remaining_path();
            let mut entry = vec![0u64; n];
            for &node in graph.queue() {
                let head = graph
                    .preds(node)
                    .iter()
                    .map(|&p| entry[p as usize])
                    .max()
                    .unwrap_or(0);
                entry[node as usize] = head + durations.duration(node, cycle);
            }
            let total: Vec<u64> = (0..n)
                .map(|i| entry[i] + remaining[i] - durations.duration(i as u32, cycle))
                .collect();
            let max = total.iter().copied().max().unwrap_or(0);
            total.iter().map(|&t| max - t).collect()
        }
        Priority::GlobalFixed => {
            // One static rank per node, assigned before the run: ascending
            // depth, then longest remaining path, then node id. The rank
            // itself is the key.
            let remaining = remaining_path();
            let mut depth = vec![0u32; n];
            for &node in graph.queue() {
                for &p in graph.preds(node) {
                    depth[node as usize] = depth[node as usize].max(depth[p as usize] + 1);
                }
            }
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| (depth[i as usize], Reverse(remaining[i as usize]), i));
            let mut k = vec![0u64; n];
            for (rank, &node) in order.iter().enumerate() {
                k[node as usize] = rank as u64;
            }
            k
        }
    };

    let mut pending: Vec<usize> = graph.preds_counts();
    // Ready heap: (key, node), min-first via Reverse.
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> = graph
        .sources()
        .iter()
        .map(|&s| Reverse((key[s as usize], s)))
        .collect();
    // Running heap: (end_time, proc, node), min-first.
    let mut running: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    let mut free_procs: Vec<u32> = (0..procs).rev().collect();
    let mut now = 0u64;
    let mut entries = Vec::with_capacity(n);

    loop {
        // Start every ready node we have a processor for.
        while !ready.is_empty() && !free_procs.is_empty() {
            let Reverse((_, node)) = ready.pop().expect("nonempty");
            let proc = free_procs.pop().expect("nonempty");
            let end = now + durations.duration(node, cycle);
            entries.push(ScheduleEntry {
                node,
                proc,
                start_ns: now,
                end_ns: end,
            });
            running.push(Reverse((end, proc, node)));
        }
        // Advance to the next completion.
        let Some(Reverse((end, proc, node))) = running.pop() else {
            break;
        };
        now = end;
        free_procs.push(proc);
        for &s in graph.succs(node) {
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                ready.push(Reverse((key[s as usize], s)));
            }
        }
        // Drain simultaneous completions so their successors are all ready
        // before the next start round.
        while let Some(&Reverse((e2, _, _))) = running.peek() {
            if e2 != now {
                break;
            }
            let Reverse((_, p2, n2)) = running.pop().expect("nonempty");
            free_procs.push(p2);
            for &s in graph.succs(n2) {
                pending[s as usize] -= 1;
                if pending[s as usize] == 0 {
                    ready.push(Reverse((key[s as usize], s)));
                }
            }
        }
    }
    Schedule { entries, procs }
}

impl SimGraph {
    /// Predecessor counts (helper for schedulers).
    pub(crate) fn preds_counts(&self) -> Vec<usize> {
        (0..self.len() as u32)
            .map(|n| self.preds(n).len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earliest::earliest_start;

    fn diamond() -> SimGraph {
        SimGraph::synthetic(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    #[test]
    fn one_proc_equals_serial_sum() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10, 20, 5, 8]);
        let s = list_schedule(&g, &d, 0, 1);
        assert!(s.is_valid(&g));
        assert_eq!(s.makespan_ns(), 43);
        assert_eq!(s.max_concurrency(), 1);
    }

    #[test]
    fn two_procs_reach_critical_path() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10, 20, 5, 8]);
        let s = list_schedule(&g, &d, 0, 2);
        assert!(s.is_valid(&g));
        assert_eq!(s.makespan_ns(), 38); // same as infinite procs
    }

    #[test]
    fn constrained_never_beats_unconstrained() {
        // Random-ish layered graph.
        let mut preds: Vec<Vec<u32>> = Vec::new();
        for i in 0u32..40 {
            let ps: Vec<u32> = (0..i).filter(|p| (p * 7 + i) % 11 == 0).collect();
            preds.push(ps);
        }
        let g = SimGraph::synthetic(preds);
        let d = DurationModel::Constant((0..40).map(|i| 10 + (i * 13) % 50).collect());
        let inf = earliest_start(&g, &d, 0).makespan_ns;
        let mut last = u64::MAX;
        for procs in [1u32, 2, 3, 4, 8, 16] {
            let s = list_schedule(&g, &d, 0, procs);
            assert!(s.is_valid(&g), "procs={procs}");
            let m = s.makespan_ns();
            assert!(m >= inf, "procs={procs}: {m} < {inf}");
            // More processors never hurt in this scheduler.
            assert!(m <= last, "procs={procs}");
            last = m;
        }
    }

    #[test]
    fn respects_processor_limit() {
        let mut preds: Vec<Vec<u32>> = (0..10).map(|_| vec![]).collect();
        preds.push((0..10).collect());
        let g = SimGraph::synthetic(preds);
        let d = DurationModel::Constant(vec![10; 11]);
        let s = list_schedule(&g, &d, 0, 3);
        assert!(s.is_valid(&g));
        assert!(s.max_concurrency() <= 3);
        // 10 tasks over 3 procs: ceil(10/3)*10 + 10 = 50.
        assert_eq!(s.makespan_ns(), 50);
    }

    #[test]
    fn critical_path_priority_helps_on_skewed_graphs() {
        // One long chain + several short independent nodes: CP priority
        // starts the chain immediately; queue order burns both processors
        // on the shorties first and delays the chain.
        let mut preds: Vec<Vec<u32>> = vec![vec![]; 4]; // 4 shorties
        preds.push(vec![]); // chain head (node 4)
        preds.push(vec![4]);
        preds.push(vec![5]);
        let g = SimGraph::synthetic(preds);
        let mut dur = vec![30u64; 4];
        dur.extend([50, 50, 50]);
        let d = DurationModel::Constant(dur);
        let cp = list_schedule_with(&g, &d, 0, 2, Priority::CriticalPath);
        let qo = list_schedule_with(&g, &d, 0, 2, Priority::QueueOrder);
        assert!(cp.is_valid(&g) && qo.is_valid(&g));
        assert!(cp.makespan_ns() <= qo.makespan_ns());
        assert_eq!(cp.makespan_ns(), 150);
    }

    #[test]
    fn all_priorities_produce_valid_schedules() {
        // Random-ish layered graph: every rule must yield a dependency- and
        // resource-valid schedule no slower than serial and no faster than
        // the unconstrained bound.
        let mut preds: Vec<Vec<u32>> = Vec::new();
        for i in 0u32..50 {
            let ps: Vec<u32> = (0..i).filter(|p| (p * 9 + i * 4) % 13 == 0).collect();
            preds.push(ps);
        }
        let g = SimGraph::synthetic(preds);
        let d = DurationModel::Constant((0..50).map(|i| 5 + (i * 17) % 60).collect());
        let inf = earliest_start(&g, &d, 0).makespan_ns;
        for pr in Priority::ALL {
            let s = list_schedule_with(&g, &d, 0, 3, pr);
            assert!(s.is_valid(&g), "{}", pr.label());
            assert!(s.max_concurrency() <= 3, "{}", pr.label());
            assert!(s.makespan_ns() >= inf, "{}", pr.label());
        }
    }

    #[test]
    fn longer_is_shorter_serializes_deep_chains() {
        // Same skewed shape as the CP test: LIS must also start the chain
        // immediately (its total-path key dominates the shorties).
        let mut preds: Vec<Vec<u32>> = vec![vec![]; 4];
        preds.push(vec![]);
        preds.push(vec![4]);
        preds.push(vec![5]);
        let g = SimGraph::synthetic(preds);
        let mut dur = vec![30u64; 4];
        dur.extend([50, 50, 50]);
        let d = DurationModel::Constant(dur);
        let lis = list_schedule_with(&g, &d, 0, 2, Priority::LongerIsShorter);
        assert!(lis.is_valid(&g));
        assert_eq!(lis.makespan_ns(), 150);
        // GFP's depth-first rank resumes the chain only after the current
        // column drains — strictly worse here, which is exactly the contrast
        // the ablation sweeps.
        let gfp = list_schedule_with(&g, &d, 0, 2, Priority::GlobalFixed);
        assert!(gfp.is_valid(&g));
        assert!(gfp.makespan_ns() >= lis.makespan_ns());
    }
}
