//! The busy-waiting strategy (§V-A) — the paper's winner.
//!
//! "The graph nodes are already in a sorted queue with respect to their
//! dependencies … they can be easily assigned to threads in a round-robin
//! manner. … When a node gets scheduled, it first checks its dependencies
//! and performs busy-waiting until they are met."
//!
//! Node `queue[k]` is executed by lane `k mod T`; each lane walks its own
//! positions in queue order and spins (`core::hint::spin_loop`) on any
//! predecessor that is not yet done for the current epoch. Because
//! dependencies always point to *earlier* queue positions, and each lane
//! processes its positions in order, a waiting lane's dependency is always
//! owned by a lane currently at an earlier position — so the waits-for
//! relation cannot form a cycle and the strategy is deadlock-free.
//!
//! On an over-subscribed host (fewer cores than lanes) a pure spin would
//! starve the producing worker; [`ExecGraph::spin_until_done`] therefore
//! yields every 4096 spins, which is a no-op when cores are plentiful.
//!
//! PLAN ([`Replay`](super::Replay)) is the same wait over a different slot
//! list — a blueprint's per-worker slices and cross-worker waits in place of
//! `k mod T` and all predecessors — so the two share [`spin_then_exec`].

use super::executor::{Lane, Policy, PoolExecutor, QueuePolicy};
use super::pool::VenuePool;
use super::{ExecGraph, Strategy};
use crate::flight::SpanKind;
use crate::graph::NodeId;

/// The BUSY policy: static round-robin assignment + spin waits.
pub struct Spin;

/// Busy-waiting executor.
pub type BusyExecutor = PoolExecutor<Spin>;

/// Spin until every node of `waits` is done for this epoch, then execute
/// `node` and count it complete.
///
/// # Safety
/// The caller is the exclusive executor of `node` this epoch, and every
/// predecessor of `node` not in `waits` is already done (the same lane ran
/// it earlier).
pub(super) unsafe fn spin_then_exec(lane: &mut Lane<'_>, node: u32, waits: &[u32]) {
    let graph = lane.sh.graph();
    let w0 = lane.clock();
    let mut spins = 0u64;
    for &p in waits {
        spins += graph.spin_until_done(p as usize, lane.epoch);
    }
    if spins > 0 {
        let ns = lane.waited(SpanKind::BusyWait, node, w0);
        lane.count(|c| c.add_spin(spins, ns));
    }
    // SAFETY: exclusive by the caller's contract; every predecessor was
    // observed done for this epoch (`Acquire`) above or by program order.
    unsafe { lane.exec(node) };
    lane.done();
}

impl Policy for Spin {
    const STRATEGY: Strategy = Strategy::Busy;

    unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        let sh = lane.sh;
        let topo = sh.graph().topology();
        for (k, &node) in topo.queue().iter().enumerate() {
            if k % sh.threads == lane.me {
                // SAFETY: exactly-once ownership by round-robin assignment;
                // all predecessors are waited for.
                unsafe { spin_then_exec(lane, node, topo.preds(NodeId(node))) };
            }
        }
    }
}

impl QueuePolicy for Spin {
    fn for_session(_: &ExecGraph, _: usize, _: &VenuePool) -> Self {
        Spin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{
        diamond_sum_graph, fan_graph, record, run_and_check, traced_cycle,
    };
    use crate::exec::GraphExecutor;
    use djstar_dsp::AudioBuf;

    #[test]
    fn computes_same_result_as_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g, frames| Box::new(BusyExecutor::new(g, threads, frames)),
                &format!("busy-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_sums_correctly_many_cycles() {
        let mut ex = BusyExecutor::new(diamond_sum_graph(), 2, 8);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0); // 1 + 2
        }
    }

    #[test]
    fn trace_respects_dependencies() {
        let mut ex = BusyExecutor::new(fan_graph(16), 4, 8);
        record(&mut ex);
        for _ in 0..20 {
            let trace = traced_cycle(&mut ex);
            assert_eq!(trace.executions().len(), ex.topology().len());
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        }
    }

    #[test]
    fn round_robin_assignment_visible_in_trace() {
        let mut ex = BusyExecutor::new(fan_graph(8), 2, 8);
        record(&mut ex);
        let trace = traced_cycle(&mut ex);
        let topo = ex.topology();
        for e in trace.executions() {
            let k = topo.queue().iter().position(|&n| n == e.node).unwrap();
            assert_eq!(e.worker as usize, k % 2, "node {} on wrong worker", e.node);
        }
    }
}
