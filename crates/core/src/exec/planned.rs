//! The PLAN strategy: execute a precompiled static schedule.
//!
//! The paper's Fig. 4 derives a resource-constrained list schedule whose
//! makespan beats every online strategy, but DJ Star never *runs* it — the
//! schedule only exists inside the simulator. This executor closes that
//! gap: a [`ScheduleBlueprint`] fixes, per worker, the exact node order of
//! one cycle (typically compiled from `djstar-sim`'s list scheduler over
//! measured node durations), and the executor replays it with **zero
//! runtime queue management**. There is nothing to pop, steal or assign:
//! each worker walks its precompiled slice and spin-checks only the
//! *cross-worker* dependencies the compiler identified — same-worker
//! predecessors are already ordered before their dependents, so program
//! order alone covers them.
//!
//! Compared to BUSY, which round-robins the depth queue and spins on every
//! unmet predecessor, PLAN (a) places nodes where the list scheduler wants
//! them instead of `k mod T`, and (b) skips the dependency checks the
//! compiler proved redundant. The wait itself is BUSY's
//! ([`spin_then_exec`]), so the memory-safety argument is identical: a
//! worker reads a predecessor's output only after acquiring its
//! `done_epoch`, and blueprint validation guarantees exactly-once ownership
//! per cycle.
//!
//! Deadlock freedom: [`ScheduleBlueprint`] construction verifies (by
//! replaying the plan) that every wait refers to a node scheduled earlier
//! in the induced partial order, so the waits-for relation is acyclic.

use super::busy::spin_then_exec;
use super::executor::{Lane, Policy, PoolExecutor};
use super::pool::VenuePool;
use super::{Adoption, DriverCell, ExecGraph, RetiredGeneration, Shared, Strategy, SwapError};
use crate::graph::{GraphTopology, NodeId, TaskGraph};
use std::fmt;
use std::sync::Arc;

/// One slot of a worker's precompiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedNode {
    /// The node to execute.
    pub node: u32,
    /// Expected start offset from cycle start (ns) in the schedule the
    /// blueprint was compiled from. Informational: the executor is purely
    /// dependency-driven and never delays to match it.
    pub expected_start_ns: u64,
    /// Predecessors assigned to *other* workers — the only dependencies
    /// that need a runtime check. Same-worker predecessors are implicitly
    /// satisfied by slice order.
    waits: Vec<u32>,
}

impl PlannedNode {
    /// The cross-worker dependencies this slot spin-checks.
    pub fn waits(&self) -> &[u32] {
        &self.waits
    }
}

/// Errors detected while compiling or validating a blueprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlueprintError {
    /// The assignment lists no workers.
    NoWorkers,
    /// A node id is out of range for the topology.
    UnknownNode(u32),
    /// A node appears on more than one slot.
    Duplicate(u32),
    /// The assignment does not cover every node of the graph.
    Incomplete { assigned: usize, nodes: usize },
    /// A node is ordered before one of its same-worker predecessors, or the
    /// cross-worker waits form a cycle: replaying the plan got stuck.
    Unschedulable(u32),
}

impl fmt::Display for BlueprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlueprintError::NoWorkers => write!(f, "blueprint has no workers"),
            BlueprintError::UnknownNode(n) => write!(f, "blueprint references unknown node {n}"),
            BlueprintError::Duplicate(n) => write!(f, "node {n} assigned to more than one slot"),
            BlueprintError::Incomplete { assigned, nodes } => {
                write!(f, "blueprint covers {assigned} of {nodes} nodes")
            }
            BlueprintError::Unschedulable(n) => {
                write!(f, "plan deadlocks: node {n} can never become ready")
            }
        }
    }
}

impl std::error::Error for BlueprintError {}

/// A compiled static schedule: per-worker node orders plus the cross-worker
/// dependency checks each slot needs.
///
/// Build one from a simulated schedule (see `djstar-sim`'s
/// `compile_blueprint`) or from [`round_robin`](Self::round_robin), which
/// reproduces the BUSY assignment for baselines and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleBlueprint {
    workers: Vec<Vec<PlannedNode>>,
}

impl ScheduleBlueprint {
    /// Compile a blueprint from explicit per-worker `(node, start_ns)`
    /// assignments, ordered by start within each worker. Validates coverage
    /// (every node exactly once) and replays the plan to prove it
    /// deadlock-free.
    pub fn from_assignments(
        topo: &GraphTopology,
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        Self::build(topo.len(), |n| topo.preds(NodeId(n)), assignments)
    }

    /// Like [`from_assignments`](Self::from_assignments), but over a raw
    /// predecessor table (`preds[n]` = predecessors of node `n`). Lets the
    /// simulator compile blueprints for synthetic graphs that have no
    /// [`GraphTopology`].
    pub fn from_node_preds(
        preds: &[Vec<u32>],
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        Self::build(preds.len(), |n| &preds[n as usize], assignments)
    }

    fn build<'a>(
        n: usize,
        preds: impl Fn(u32) -> &'a [u32],
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        if assignments.is_empty() {
            return Err(BlueprintError::NoWorkers);
        }
        let mut owner = vec![usize::MAX; n];
        let mut assigned = 0usize;
        for (w, list) in assignments.iter().enumerate() {
            for &(node, _) in list {
                let slot = owner
                    .get_mut(node as usize)
                    .ok_or(BlueprintError::UnknownNode(node))?;
                if *slot != usize::MAX {
                    return Err(BlueprintError::Duplicate(node));
                }
                *slot = w;
                assigned += 1;
            }
        }
        if assigned != n {
            return Err(BlueprintError::Incomplete { assigned, nodes: n });
        }
        let workers: Vec<Vec<PlannedNode>> = assignments
            .iter()
            .enumerate()
            .map(|(w, list)| {
                list.iter()
                    .map(|&(node, start)| PlannedNode {
                        node,
                        expected_start_ns: start,
                        waits: preds(node)
                            .iter()
                            .copied()
                            .filter(|&p| owner[p as usize] != w)
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        let plan = ScheduleBlueprint { workers };
        plan.check_schedulable(n, &preds)?;
        Ok(plan)
    }

    /// The BUSY assignment as a blueprint: position `k` of the depth queue
    /// goes to worker `k mod threads`. Useful as a baseline and for tests
    /// that need a valid blueprint without running the simulator.
    pub fn round_robin(topo: &GraphTopology, threads: usize) -> Self {
        assert!(threads >= 1, "at least one worker required");
        let mut assignments: Vec<Vec<(u32, u64)>> = vec![Vec::new(); threads];
        for (k, &node) in topo.queue().iter().enumerate() {
            assignments[k % threads].push((node, 0));
        }
        Self::from_assignments(topo, &assignments)
            .expect("round-robin over a topological order is always schedulable")
    }

    /// Number of workers the plan was compiled for.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Worker `w`'s slots, in execution order.
    pub fn worker(&self, w: usize) -> &[PlannedNode] {
        &self.workers[w]
    }

    /// Total number of planned slots (equals the node count once validated).
    pub fn len(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }

    /// Recompile this blueprint against `topo`: keep the placements and
    /// per-worker orders, rebuild the cross-worker waits from the
    /// topology's own edges, and re-validate coverage and deadlock
    /// freedom. A blueprint compiled against a disagreeing predecessor
    /// table therefore cannot smuggle in a missing wait.
    pub(crate) fn recompile_for(&self, topo: &GraphTopology) -> Result<Self, BlueprintError> {
        Self::from_assignments(
            topo,
            &self
                .workers
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|e| (e.node, e.expected_start_ns))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        )
    }

    /// True when no slots are planned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replay the plan: verify every predecessor of every slot is either an
    /// earlier same-worker slot or a listed wait, and that the waits-for
    /// relation cannot cycle. This is the executor's deadlock-freedom
    /// proof, run once at compile time.
    fn check_schedulable<'a>(
        &self,
        n: usize,
        preds: &impl Fn(u32) -> &'a [u32],
    ) -> Result<(), BlueprintError> {
        let mut pos_on_worker = vec![(usize::MAX, usize::MAX); n];
        for (w, list) in self.workers.iter().enumerate() {
            for (i, e) in list.iter().enumerate() {
                pos_on_worker[e.node as usize] = (w, i);
            }
        }
        // Every pred must be covered by program order or a wait.
        for (w, list) in self.workers.iter().enumerate() {
            for (i, e) in list.iter().enumerate() {
                for &p in preds(e.node) {
                    let (pw, pi) = pos_on_worker[p as usize];
                    let same_worker_earlier = pw == w && pi < i;
                    if !same_worker_earlier && !e.waits.contains(&p) {
                        return Err(BlueprintError::Unschedulable(e.node));
                    }
                }
            }
        }
        // Replay: advance each worker's head while its waits are satisfied.
        let mut done = vec![false; n];
        let mut idx = vec![0usize; self.workers.len()];
        loop {
            let mut progressed = false;
            let mut remaining = false;
            for (w, list) in self.workers.iter().enumerate() {
                while idx[w] < list.len() {
                    let e = &list[idx[w]];
                    if e.waits.iter().all(|&p| done[p as usize]) {
                        done[e.node as usize] = true;
                        idx[w] += 1;
                        progressed = true;
                    } else {
                        break;
                    }
                }
                remaining |= idx[w] < list.len();
            }
            if !remaining {
                return Ok(());
            }
            if !progressed {
                // Report a head that is genuinely stuck (has an un-done
                // wait), not merely the first worker with slots left — that
                // worker's head may be blocked behind a different one.
                let stuck = self
                    .workers
                    .iter()
                    .enumerate()
                    .filter_map(|(w, list)| list.get(idx[w]))
                    .find(|e| e.waits.iter().any(|&p| !done[p as usize]))
                    .map(|e| e.node)
                    .expect("no progress implies some head has an unmet wait");
                return Err(BlueprintError::Unschedulable(stuck));
            }
        }
    }
}

/// The PLAN policy: BUSY's spin wait over a blueprint's slots.
///
/// Like `Shared`'s graph, the plan is swapped only by the driver between
/// cycles and published to workers by the next epoch Release store, so it
/// lives in a `DriverCell` with the same safety argument.
pub struct Replay {
    plan: DriverCell<ScheduleBlueprint>,
}

/// Executor that replays a [`ScheduleBlueprint`].
pub type PlannedExecutor = PoolExecutor<Replay>;

impl Replay {
    /// The current plan.
    ///
    /// Reads are sound everywhere a graph read is sound: drivers hold
    /// `&mut` on the executor, and workers have acquired the epoch whose
    /// Release store published any swap.
    #[inline]
    fn plan(&self) -> &ScheduleBlueprint {
        // SAFETY: swaps are driver-only between cycles, published by the
        // next epoch Release store (see `Shared::graph`).
        unsafe { self.plan.get() }
    }
}

impl PlannedExecutor {
    /// Build the executor over `graph` with `frames`-frame buffers,
    /// replaying `blueprint`. The worker count is the blueprint's.
    ///
    /// The blueprint is recompiled against *this* graph's topology before
    /// use: the placements and per-worker orders are kept, but the
    /// cross-worker waits are rebuilt from the graph's own edges. A
    /// blueprint compiled against a predecessor table that disagrees with
    /// `graph` therefore cannot smuggle in a missing wait — the executor
    /// always replays waits derived from the graph it actually runs.
    ///
    /// # Panics
    /// Panics if the blueprint's worker count is outside `1..=64` or the
    /// blueprint does not recompile against `graph`'s topology (wrong node
    /// set or an unschedulable order).
    pub fn new(graph: TaskGraph, frames: usize, blueprint: ScheduleBlueprint) -> Self {
        let pool = Arc::new(VenuePool::new(blueprint.threads().clamp(1, 64)));
        Self::with_pool(graph, frames, blueprint, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. The blueprint's worker count is this
    /// session's lane count and must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        frames: usize,
        blueprint: ScheduleBlueprint,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let exec = ExecGraph::new(graph, frames);
        let plan = blueprint
            .recompile_for(exec.topology())
            .unwrap_or_else(|e| panic!("blueprint does not fit this graph: {e}"));
        let policy = Replay {
            plan: DriverCell::new(plan),
        };
        Self::register(exec, blueprint.threads(), pool, policy)
    }

    /// The blueprint being replayed (for the current generation).
    pub fn blueprint(&self) -> &ScheduleBlueprint {
        self.policy().plan()
    }
}

impl Policy for Replay {
    const STRATEGY: Strategy = Strategy::Planned;

    unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        for slot in self.plan().worker(lane.me) {
            // SAFETY: exactly-once ownership by blueprint validation;
            // same-worker predecessors are done by program order, the
            // cross-worker ones are `slot.waits()`.
            unsafe { spin_then_exec(lane, slot.node, slot.waits()) };
        }
    }

    unsafe fn adopt(
        &self,
        sh: &Shared,
        exec: ExecGraph,
        staged_plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        // The staged plan was recompiled against the staged topology by
        // `StagedGeneration::with_plan`; all that is left to check is that
        // it has this session's lane count.
        let mut plan = match staged_plan {
            Some(p) if p.threads() == sh.threads => p,
            plan => {
                let err = match &plan {
                    Some(p) => SwapError::ThreadMismatch {
                        expected: sh.threads,
                        got: p.threads(),
                    },
                    None => SwapError::NoPlan,
                };
                return (Err(err), RetiredGeneration { exec, plan });
            }
        };
        // SAFETY: the caller's contract; workers read the plan only after
        // acquiring the next epoch's Release store, which publishes both
        // swaps.
        let (verdict, mut retired) = unsafe { sh.adopt_exec(exec, None) };
        if verdict.is_ok() {
            // SAFETY: as above; `plan` now holds the replaced blueprint.
            std::mem::swap(unsafe { self.plan.get_mut() }, &mut plan);
        }
        retired.plan = Some(plan);
        (verdict, retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{
        diamond_sum_graph, fan_graph, record, run_and_check, traced_cycle,
    };
    use crate::exec::{GraphExecutor, StagedGeneration};
    use djstar_dsp::AudioBuf;

    #[test]
    fn round_robin_blueprint_matches_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g, frames| {
                    let bp = ScheduleBlueprint::round_robin(g.topology(), threads);
                    Box::new(PlannedExecutor::new(g, frames, bp))
                },
                &format!("plan-rr-{threads}"),
            );
        }
    }

    #[test]
    fn critical_path_blueprint_matches_sequential() {
        // Longest path to a sink first, dealt round-robin: placements and
        // cross-worker waits the depth round-robin never produces.
        for threads in [1, 3] {
            run_and_check(
                |g, frames| {
                    let topo = g.topology();
                    let mut tail = vec![1u32; topo.len()];
                    for &v in topo.queue().iter().rev() {
                        for &s in topo.succs(NodeId(v)) {
                            tail[v as usize] = tail[v as usize].max(tail[s as usize] + 1);
                        }
                    }
                    let mut order: Vec<u32> = (0..topo.len() as u32).collect();
                    order.sort_by_key(|&v| std::cmp::Reverse(tail[v as usize]));
                    let mut lists: Vec<Vec<(u32, u64)>> = vec![Vec::new(); threads];
                    for (k, &v) in order.iter().enumerate() {
                        lists[k % threads].push((v, k as u64));
                    }
                    let bp = ScheduleBlueprint::from_assignments(topo, &lists).unwrap();
                    Box::new(PlannedExecutor::new(g, frames, bp))
                },
                &format!("plan-cp-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles_with_handcrafted_plan() {
        let g = diamond_sum_graph();
        // Worker 0: n0, n2, n3; worker 1: n1. n2 waits on n1 (cross), n0 is
        // same-worker; n3's pred n2 is same-worker.
        let bp = ScheduleBlueprint::from_assignments(
            g.topology(),
            &[vec![(0, 0), (2, 100), (3, 200)], vec![(1, 0)]],
        )
        .unwrap();
        assert_eq!(bp.worker(0)[1].waits(), &[1]);
        assert_eq!(bp.worker(0)[2].waits(), &[] as &[u32]);
        let mut ex = PlannedExecutor::new(g, 8, bp);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn trace_respects_dependencies_and_placement() {
        let g = fan_graph(16);
        let bp = ScheduleBlueprint::round_robin(g.topology(), 4);
        let mut ex = PlannedExecutor::new(g, 8, bp);
        record(&mut ex);
        for _ in 0..20 {
            let trace = traced_cycle(&mut ex);
            assert_eq!(trace.executions().len(), ex.topology().len());
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            // Placement is static: node queue position k runs on worker k%4.
            for e in trace.executions() {
                let k = topo.queue().iter().position(|&n| n == e.node).unwrap();
                assert_eq!(e.worker as usize, k % 4);
            }
        }
    }

    #[test]
    fn executor_rebuilds_waits_from_the_real_graph() {
        // Compile against a predecessor table with NO edges: the blueprint
        // validates (nothing to wait for) but its waits are empty, so
        // replaying it verbatim against the diamond graph would skip the
        // cross-worker check on n1 -> n2. The executor must recompile the
        // waits from the graph it actually runs.
        let no_edges: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let bp = ScheduleBlueprint::from_node_preds(
            &no_edges,
            &[vec![(0, 0), (2, 100), (3, 200)], vec![(1, 0)]],
        )
        .unwrap();
        assert_eq!(bp.worker(0)[1].waits(), &[] as &[u32]);
        let mut ex = PlannedExecutor::new(diamond_sum_graph(), 8, bp);
        assert_eq!(ex.blueprint().worker(0)[1].waits(), &[1]);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn staging_rebuilds_waits_from_the_real_graph() {
        // The staging-time twin of the test above: the same edgeless
        // blueprint, staged beside the diamond, carries the graph's own
        // waits before it ever reaches the executor.
        let no_edges: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let bp = ScheduleBlueprint::from_node_preds(
            &no_edges,
            &[vec![(0, 0), (2, 100), (3, 200)], vec![(1, 0)]],
        )
        .unwrap();
        let staged = StagedGeneration::with_plan(diamond_sum_graph(), 8, bp).unwrap();
        assert_eq!(staged.plan().unwrap().worker(0)[1].waits(), &[1]);
        let g = diamond_sum_graph();
        let rr = ScheduleBlueprint::round_robin(g.topology(), 2);
        let mut ex = PlannedExecutor::new(g, 8, rr);
        assert_eq!(ex.adopt_generation(staged).0, Ok(1));
        assert_eq!(ex.blueprint().worker(0)[1].waits(), &[1]);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn blueprint_rejects_duplicates_and_gaps() {
        let g = diamond_sum_graph();
        let t = g.topology();
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (0, 1)]]).unwrap_err(),
            BlueprintError::Duplicate(0)
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (1, 1)]]).unwrap_err(),
            BlueprintError::Incomplete {
                assigned: 2,
                nodes: 4
            }
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[]).unwrap_err(),
            BlueprintError::NoWorkers
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (1, 1), (2, 2), (9, 3)]])
                .unwrap_err(),
            BlueprintError::UnknownNode(9)
        );
    }

    #[test]
    fn blueprint_rejects_out_of_order_same_worker_preds() {
        let g = diamond_sum_graph();
        // n3 before its predecessor n2 on the same worker: unschedulable.
        assert_eq!(
            ScheduleBlueprint::from_assignments(
                g.topology(),
                &[vec![(0, 0), (1, 1), (3, 2), (2, 3)]]
            )
            .unwrap_err(),
            BlueprintError::Unschedulable(3)
        );
    }
}
