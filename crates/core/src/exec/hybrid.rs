//! Extension: a hybrid spin-then-park strategy.
//!
//! §VI frames the BUSY-vs-SLEEP trade-off as all-or-nothing: spinning wins
//! because cycles are short, "if wasting resources on waiting is not an
//! option, work-stealing is a solid alternative". The classic middle ground
//! — spin for a bounded budget, then park — is the obvious follow-up the
//! paper leaves open. It is the [`Park`] policy with a non-zero budget
//! (budget 0 ≈ SLEEP, budget ∞ ≈ BUSY); this module only names it.

use super::executor::PoolExecutor;
use super::pool::VenuePool;
use super::sleeping::Park;
use super::ExecGraph;
use crate::graph::TaskGraph;
use std::sync::Arc;

/// Spin-then-park executor.
pub type HybridExecutor = PoolExecutor<Park<true>>;

impl HybridExecutor {
    /// Build the executor; `spin_budget` is the number of dependency polls
    /// performed before giving up and parking (0 behaves like SLEEP).
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize, spin_budget: u32) -> Self {
        let pool = Arc::new(VenuePool::new(threads));
        Self::with_pool(graph, threads, frames, spin_budget, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. `threads` is this session's lane count and
    /// must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        spin_budget: u32,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let exec = ExecGraph::new(graph, frames);
        Self::register(exec, threads, pool, Park { spin_budget })
    }
}

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
        for (threads, budget) in [(1, 0), (2, 0), (3, 10_000), (4, u32::MAX)] {
            run_and_check(
                |g, frames| Box::new(HybridExecutor::new(g, threads, frames, budget)),
                &format!("hybrid-{threads}-{budget}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles_with_budget_changes() {
        for budget in [1_000, 0, u32::MAX] {
            let mut ex = HybridExecutor::new(diamond_sum_graph(), 3, 8, budget);
            for _ in 0..50 {
                ex.run_cycle(&[], &[]);
                let mut out = AudioBuf::zeroed(2, 8);
                ex.read_output(NodeId(3), &mut out);
                assert_eq!(out.sample(0, 0), 3.0);
            }
        }
    }

    #[test]
    fn traces_are_dependency_safe() {
        let mut ex = HybridExecutor::new(fan_graph(12), 4, 8, 500);
        record(&mut ex);
        for _ in 0..20 {
            let trace = traced_cycle(&mut ex);
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            assert_eq!(trace.executions().len(), topo.len());
        }
    }
}
