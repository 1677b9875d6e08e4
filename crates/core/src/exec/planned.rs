//! The PLAN strategy: execute a precompiled static schedule.
//!
//! The paper's Fig. 4 derives a resource-constrained list schedule whose
//! makespan beats every online strategy, but DJ Star never *runs* it — the
//! schedule only exists inside the simulator. The PLAN policy closes that
//! gap: a schedule's lanes fix, per worker, the exact node order of one
//! cycle (typically `djstar-sim`'s list schedule over priced node
//! durations); bound to the executor's graph as a [`ScheduleBlueprint`],
//! they are replayed with **zero runtime queue management**. There is
//! nothing to pop, steal or assign: each worker walks its slice and
//! spin-checks only the
//! *cross-worker* dependencies the binding identified — same-worker
//! predecessors are already ordered before their dependents, so program
//! order alone covers them.
//!
//! Compared to BUSY, which round-robins the depth queue and spins on every
//! unmet predecessor, PLAN (a) places nodes where the list scheduler wants
//! them instead of `k mod T`, and (b) skips the dependency checks the
//! binding proved redundant. The wait itself is BUSY's
//! ([`spin_then_exec`]), so the memory-safety argument is identical: a
//! worker reads a predecessor's output only after acquiring its
//! `done_epoch`, and blueprint validation guarantees exactly-once ownership
//! per cycle.
//!
//! Deadlock freedom: [`ScheduleBlueprint::bind`] verifies (by replaying
//! the plan) that every wait refers to a node scheduled earlier in the
//! induced partial order, so the waits-for relation is acyclic.

use super::busy::spin_then_exec;
use super::executor::Lane;
use super::{Adoption, DriverCell, ExecGraph, RetiredGeneration, Shared, SwapError};
use crate::graph::GraphTopology;
use std::fmt;

/// One slot of a worker's bound schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedNode {
    /// The node to execute.
    pub node: u32,
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

/// Errors detected while binding a schedule's lanes to a graph.
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

/// A static schedule's lanes bound to a graph: per-worker node orders plus
/// the cross-worker dependency checks each slot needs.
///
/// A schedule reaches core as its *lanes* — lane `w`'s node ids in
/// execution order, from `djstar-sim`'s list scheduler or
/// [`round_robin_lanes`] — and
/// [`StagedGeneration::with_plan`](super::StagedGeneration::with_plan)
/// binds them to the graph they run. [`bind`](Self::bind) is the one
/// binding constructor; the simulator uses it on its own graph for its
/// replay only, since no executor takes a bound blueprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleBlueprint {
    workers: Vec<Vec<PlannedNode>>,
}

/// The BUSY assignment as lanes: position `k` of the depth queue on lane
/// `k mod threads`. A plan for baselines and tests that need one without
/// running the simulator.
pub fn round_robin_lanes(topo: &GraphTopology, threads: usize) -> Vec<Vec<u32>> {
    assert!(threads >= 1, "at least one worker required");
    let mut lanes = vec![Vec::new(); threads];
    for (k, &node) in topo.queue().iter().enumerate() {
        lanes[k % threads].push(node);
    }
    lanes
}

impl ScheduleBlueprint {
    /// Bind `lanes` (lane `w`'s node ids, in execution order) to the graph
    /// of `nodes` nodes whose predecessors `preds` lists: each slot's
    /// waits are its predecessors on other lanes. Validates coverage
    /// (every node exactly once) and replays the plan to prove it
    /// deadlock-free.
    pub fn bind<'a>(
        lanes: &[Vec<u32>],
        nodes: usize,
        preds: impl Fn(u32) -> &'a [u32],
    ) -> Result<Self, BlueprintError> {
        if lanes.is_empty() {
            return Err(BlueprintError::NoWorkers);
        }
        let mut owner = vec![usize::MAX; nodes];
        let mut assigned = 0usize;
        for (w, lane) in lanes.iter().enumerate() {
            for &node in lane {
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
        if assigned != nodes {
            return Err(BlueprintError::Incomplete { assigned, nodes });
        }
        let workers: Vec<Vec<PlannedNode>> = lanes
            .iter()
            .enumerate()
            .map(|(w, lane)| {
                lane.iter()
                    .map(|&node| PlannedNode {
                        node,
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
        plan.check_schedulable(nodes, &preds)?;
        Ok(plan)
    }

    /// Number of workers the plan was bound for.
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

    /// True when no slots are planned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replay the plan: verify every predecessor of every slot is either an
    /// earlier same-worker slot or a listed wait, and that the waits-for
    /// relation cannot cycle. This is the executor's deadlock-freedom
    /// proof, run once at binding time.
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

/// The PLAN policy's state: the blueprint whose slots BUSY's spin wait
/// walks.
///
/// Like `Shared`'s graph, the plan is swapped only by the driver between
/// cycles and published to workers by the next epoch Release store, so it
/// lives in a `DriverCell` with the same safety argument.
pub(crate) struct Replay {
    plan: DriverCell<ScheduleBlueprint>,
}

/// `plan` if a `lanes`-lane session can replay it; else why not, with the
/// plan. The one check of a staged blueprint: its binding to the staged
/// graph already happened in `StagedGeneration::with_plan`.
fn check(
    plan: Option<ScheduleBlueprint>,
    lanes: usize,
) -> Result<ScheduleBlueprint, (SwapError, Option<ScheduleBlueprint>)> {
    match plan {
        Some(p) if p.threads() == lanes => Ok(p),
        Some(p) => {
            let got = p.threads();
            Err((
                SwapError::ThreadMismatch {
                    expected: lanes,
                    got,
                },
                Some(p),
            ))
        }
        None => Err((SwapError::NoPlan, None)),
    }
}

impl Replay {
    /// A `lanes`-lane session's replay of the staged `plan`.
    pub(super) fn new(plan: Option<ScheduleBlueprint>, lanes: usize) -> Result<Self, SwapError> {
        let plan = check(plan, lanes).map_err(|(err, _)| err)?;
        Ok(Replay {
            plan: DriverCell::new(plan),
        })
    }

    /// The current plan.
    ///
    /// Reads are sound everywhere a graph read is sound: drivers hold
    /// `&mut` on the executor, and workers have acquired the epoch whose
    /// Release store published any swap.
    #[inline]
    pub(super) fn plan(&self) -> &ScheduleBlueprint {
        // SAFETY: swaps are driver-only between cycles, published by the
        // next epoch Release store (see `Shared::graph`).
        unsafe { self.plan.get() }
    }

    /// The PLAN lane loop: walk this lane's slots, spin-checking only the
    /// cross-lane waits.
    ///
    /// # Safety
    /// As `Policy::run_lane`.
    pub(super) unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        for slot in self.plan().worker(lane.me) {
            // SAFETY: exactly-once ownership by blueprint validation;
            // same-worker predecessors are done by program order, the
            // cross-worker ones are `slot.waits()`.
            unsafe { spin_then_exec(lane, slot.node, slot.waits()) };
        }
    }

    /// Check the staged plan's lane count, then swap graph and plan.
    ///
    /// # Safety
    /// As `Policy::adopt`.
    pub(super) unsafe fn adopt(
        &self,
        sh: &Shared,
        exec: ExecGraph,
        staged_plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        let mut plan = match check(staged_plan, sh.threads) {
            Ok(plan) => plan,
            Err((err, plan)) => return (Err(err), RetiredGeneration { exec, plan }),
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
    use crate::exec::{PoolExecutor, StagedGeneration, Strategy};
    use crate::graph::{NodeId, TaskGraph};
    use djstar_dsp::AudioBuf;

    /// A PLAN executor over `g` replaying `lanes`, bound where they are
    /// staged.
    fn replay(g: TaskGraph, lanes: &[Vec<u32>]) -> PoolExecutor {
        let staged = StagedGeneration::with_plan(g, 8, lanes).expect("lanes bind to g");
        PoolExecutor::new(Strategy::Planned, staged, lanes.len()).expect("a filled plan")
    }

    /// Bind `lanes` to `g`'s own topology.
    fn bind(g: &TaskGraph, lanes: &[Vec<u32>]) -> Result<ScheduleBlueprint, BlueprintError> {
        let topo = g.topology();
        ScheduleBlueprint::bind(lanes, topo.len(), |n| topo.preds(NodeId(n)))
    }

    fn assert_diamond_sums(ex: &mut PoolExecutor) {
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn round_robin_blueprint_matches_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g| {
                    let lanes = round_robin_lanes(g.topology(), threads);
                    replay(g, &lanes)
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
                |g| {
                    let topo = g.topology();
                    let mut tail = vec![1u32; topo.len()];
                    for &v in topo.queue().iter().rev() {
                        for &s in topo.succs(NodeId(v)) {
                            tail[v as usize] = tail[v as usize].max(tail[s as usize] + 1);
                        }
                    }
                    let mut order: Vec<u32> = (0..topo.len() as u32).collect();
                    order.sort_by_key(|&v| std::cmp::Reverse(tail[v as usize]));
                    let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); threads];
                    for (k, &v) in order.iter().enumerate() {
                        lanes[k % threads].push(v);
                    }
                    replay(g, &lanes)
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
        let lanes = [vec![0, 2, 3], vec![1]];
        let bp = bind(&g, &lanes).unwrap();
        assert_eq!(bp.worker(0)[1].waits(), &[1]);
        assert_eq!(bp.worker(0)[2].waits(), &[] as &[u32]);
        let mut ex = replay(g, &lanes);
        assert_eq!(ex.blueprint(), Some(&bp));
        assert_diamond_sums(&mut ex);
    }

    #[test]
    fn trace_respects_dependencies_and_placement() {
        let g = fan_graph(16);
        let lanes = round_robin_lanes(g.topology(), 4);
        let mut ex = replay(g, &lanes);
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
        // The same lanes bound to a predecessor table with NO edges carry
        // no waits, so replaying that binding against the diamond would
        // skip the cross-worker check on n1 -> n2. The executor takes
        // lanes staged beside its graph, not a binding made elsewhere.
        let lanes = [vec![0, 2, 3], vec![1]];
        let edgeless = ScheduleBlueprint::bind(&lanes, 4, |_| &[]).unwrap();
        assert_eq!(edgeless.worker(0)[1].waits(), &[] as &[u32]);
        let mut ex = replay(diamond_sum_graph(), &lanes);
        assert_eq!(ex.blueprint().unwrap().worker(0)[1].waits(), &[1]);
        assert_diamond_sums(&mut ex);
    }

    #[test]
    fn staging_rebuilds_waits_from_the_real_graph() {
        // The staging-time twin of the test above: the same lanes, staged
        // beside the diamond, carry the graph's own waits before they ever
        // reach the executor.
        let lanes = [vec![0, 2, 3], vec![1]];
        let staged = StagedGeneration::with_plan(diamond_sum_graph(), 8, &lanes).unwrap();
        assert_eq!(staged.plan().unwrap().worker(0)[1].waits(), &[1]);
        let g = diamond_sum_graph();
        let rr = round_robin_lanes(g.topology(), 2);
        let mut ex = replay(g, &rr);
        assert_eq!(ex.adopt_generation(staged).0, Ok(1));
        assert_eq!(ex.blueprint().unwrap().worker(0)[1].waits(), &[1]);
        assert_diamond_sums(&mut ex);
    }

    #[test]
    fn blueprint_rejects_duplicates_and_gaps() {
        let g = diamond_sum_graph();
        assert_eq!(
            bind(&g, &[vec![0, 0]]).unwrap_err(),
            BlueprintError::Duplicate(0)
        );
        assert_eq!(
            bind(&g, &[vec![0, 1]]).unwrap_err(),
            BlueprintError::Incomplete {
                assigned: 2,
                nodes: 4
            }
        );
        assert_eq!(bind(&g, &[]).unwrap_err(), BlueprintError::NoWorkers);
        assert_eq!(
            bind(&g, &[vec![0, 1, 2, 9]]).unwrap_err(),
            BlueprintError::UnknownNode(9)
        );
    }

    #[test]
    fn blueprint_rejects_out_of_order_same_worker_preds() {
        let g = diamond_sum_graph();
        // n3 before its predecessor n2 on the same worker: unschedulable.
        assert_eq!(
            bind(&g, &[vec![0, 1, 3, 2]]).unwrap_err(),
            BlueprintError::Unschedulable(3)
        );
    }
}
