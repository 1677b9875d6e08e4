//! The thread-sleeping strategy (§V-B), and its spin-first variant.
//!
//! Same round-robin static assignment as BUSY, but "instead of actively
//! waiting for dependency fulfillment … threads are explicitly put to sleep
//! until their dependencies are met. … Nodes that are finished computing
//! send a signal to their successor node which in turn wakes up its assigned
//! thread. The wake up procedure only occurs when all predecessor nodes are
//! finished."
//!
//! Mechanics: each node has a `pending` counter (unmet predecessors this
//! epoch) and a `waiter` slot. A lane arriving at a node with `pending > 0`
//! first polls the counter up to `spin_budget` times, then registers itself
//! in `waiter`, re-checks, and parks (register → re-check → park, so a wake
//! between the check and the park is never lost — `unpark` before `park`
//! leaves a token). A lane finishing a node decrements each successor's
//! `pending` with `AcqRel`; the one that brings it to zero swaps out the
//! `waiter` and unparks it. The `AcqRel` read-modify-write chain forms a
//! release sequence, so the executor that observes `pending == 0` with
//! `Acquire` sees every predecessor's output.
//!
//! SLEEP is budget 0 — the paper's strategy, straight to the park. HYBRID
//! (see [`hybrid`](super::hybrid)) is the same policy with a budget.
//!
//! Deadlock freedom follows from the same queue-position argument as BUSY.

use super::executor::{Lane, Policy, PoolExecutor, QueuePolicy};
use super::pool::VenuePool;
use super::{ExecGraph, NodeCell, Strategy};
use crate::flight::SpanKind;
use crate::graph::NodeId;
use std::sync::atomic::Ordering;

/// The SLEEP / HYBRID policy: static round-robin assignment, spin for at
/// most `spin_budget` polls, then park. `SPIN` only says which of the two
/// labels (and constructor signatures) a session carries: `Park<false>` is
/// SLEEP and always has budget 0, `Park<true>` is HYBRID.
pub struct Park<const SPIN: bool> {
    pub(super) spin_budget: u32,
}

/// Thread-sleeping executor.
pub type SleepExecutor = PoolExecutor<Park<false>>;

/// Outcome of waiting for a node's dependencies.
enum Waited {
    /// Ready on arrival.
    No,
    /// Became ready within the spin budget, after this many polls.
    Spun(u64),
    /// Registered as the node's waiter after `spins` polls; `parks` is the
    /// number of `park()` calls actually made (0 when the dependency
    /// arrived between registration and parking).
    Parked { spins: u64, parks: u64 },
}

/// Spin up to `budget` polls, then register-and-park until `pending == 0`.
fn wait_ready(cell: &NodeCell, me: usize, budget: u32) -> Waited {
    let ready = || cell.pending.load(Ordering::Acquire) == 0;
    if ready() {
        return Waited::No;
    }
    for i in 0..budget {
        if ready() {
            return Waited::Spun(u64::from(i) + 1);
        }
        if i % 1024 == 1023 {
            std::thread::yield_now();
        } else {
            core::hint::spin_loop();
        }
    }
    let spins = u64::from(budget);
    let mut parks = 0u64;
    loop {
        // Register as this node's executor, then re-check before parking.
        cell.waiter.store(me + 1, Ordering::SeqCst);
        if ready() {
            break;
        }
        std::thread::park();
        parks += 1;
        // Spurious wakes (e.g. the batch dispatch's token) re-check.
        if ready() {
            break;
        }
    }
    cell.waiter.store(0, Ordering::SeqCst);
    Waited::Parked { spins, parks }
}

impl<const SPIN: bool> Policy for Park<SPIN> {
    const STRATEGY: Strategy = if SPIN {
        Strategy::Hybrid
    } else {
        Strategy::Sleep
    };

    unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        let sh = lane.sh;
        let graph = sh.graph();
        let topo = graph.topology();
        // SAFETY: handles were written before the epoch was published.
        let handles = unsafe { sh.handles.get() };
        for (k, &node) in topo.queue().iter().enumerate() {
            if k % sh.threads != lane.me {
                continue;
            }
            let w0 = lane.clock();
            match wait_ready(graph.cell(node as usize), lane.me, self.spin_budget) {
                Waited::No => {}
                Waited::Spun(spins) => {
                    let ns = lane.waited(SpanKind::BusyWait, node, w0);
                    lane.count(|c| c.add_spin(spins, ns));
                }
                Waited::Parked { spins, parks } => {
                    // The wait spanned the spin budget and the park; the
                    // duration is booked against the park, which dominates
                    // once the budget is exhausted.
                    let ns = lane.waited(SpanKind::Sleep, node, w0);
                    lane.count(|c| {
                        if spins > 0 {
                            c.add_spin(spins, 0);
                        }
                        c.add_park(parks, ns);
                    });
                }
            }
            // SAFETY: exactly-once ownership (static assignment); pending==0
            // observed with Acquire implies all predecessor outputs visible.
            unsafe { lane.exec(node) };
            // Signal successors; wake the registered executor of any
            // successor whose last dependency this was.
            for &s in topo.succs(NodeId(node)) {
                let sc = graph.cell(s as usize);
                if sc.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let w = sc.waiter.swap(0, Ordering::SeqCst);
                    if w != 0 {
                        lane.count(|c| c.add_unpark());
                        let u0 = lane.clock();
                        handles[w - 1].unpark();
                        lane.waited(SpanKind::Unpark, s, u0);
                    }
                }
            }
            lane.done();
        }
    }
}

impl QueuePolicy for Park<false> {
    fn for_session(_: &ExecGraph, _: usize, _: &VenuePool) -> Self {
        Park { spin_budget: 0 }
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
                |g, frames| Box::new(SleepExecutor::new(g, threads, frames)),
                &format!("sleep-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles() {
        let mut ex = SleepExecutor::new(diamond_sum_graph(), 3, 8);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn trace_has_sleep_kind_and_valid_order() {
        let mut ex = SleepExecutor::new(fan_graph(16), 4, 8);
        record(&mut ex);
        let mut saw_any_sleep = false;
        for _ in 0..50 {
            let trace = traced_cycle(&mut ex);
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            saw_any_sleep |= trace.events.iter().any(|e| e.kind == SpanKind::Sleep);
        }
        // On a single-core CI box sleeping is in fact very likely, but we
        // only assert the structural properties above; `saw_any_sleep` keeps
        // the variable observable without making the test flaky.
        let _ = saw_any_sleep;
    }
}
