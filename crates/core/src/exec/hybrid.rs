//! Extension: a hybrid spin-then-park strategy.
//!
//! §VI frames the BUSY-vs-SLEEP trade-off as all-or-nothing: spinning wins
//! because cycles are short, "if wasting resources on waiting is not an
//! option, work-stealing is a solid alternative". The classic middle ground
//! — spin for a bounded time, then park — is the obvious follow-up the
//! paper leaves open. It is the [`Park`] policy with its spin phase on: a
//! blocked lane polls for [`SPIN_PHASE`](super::SPIN_PHASE) (10 µs by the
//! clock, the spin phase of every executor wait), then parks like SLEEP;
//! once a phase that ran out finds the lane's CPU shared with another lane
//! of the session, the lane's later waits of that cycle park at once.
//! This module only names it; the simulator's `simulate_hybrid` sweeps
//! other spin lengths as a what-if.

use super::executor::PoolExecutor;
use super::sleeping::Park;

/// Spin-then-park executor.
pub type HybridExecutor = PoolExecutor<Park<true>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{
        diamond_sum_graph, fan_graph, record, run_and_check, traced_cycle,
    };
    use crate::exec::GraphExecutor;
    use crate::graph::NodeId;
    use djstar_dsp::AudioBuf;

    #[test]
    fn computes_same_result_as_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g, frames| Box::new(HybridExecutor::new(g, threads, frames)),
                &format!("hybrid-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles() {
        let mut ex = HybridExecutor::new(diamond_sum_graph(), 3, 8);
        for _ in 0..150 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn traces_are_dependency_safe() {
        let mut ex = HybridExecutor::new(fan_graph(12), 4, 8);
        record(&mut ex);
        for _ in 0..20 {
            let trace = traced_cycle(&mut ex);
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            assert_eq!(trace.executions().len(), topo.len());
        }
    }
}
