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
//! registers itself in `waiter`, re-checks, and parks (register →
//! re-check → park, so a wake between the check and the park is never
//! lost — `unpark` before `park` leaves a token). A lane finishing a node
//! decrements each successor's `pending` with `AcqRel`; the one that
//! brings it to zero swaps out the `waiter` and unparks it. The `AcqRel`
//! read-modify-write chain forms a release sequence, so the executor that
//! observes `pending == 0` with `Acquire` sees every predecessor's output.
//!
//! SLEEP parks at once — the paper's strategy. HYBRID (`Park { spin:
//! true }`, whose doc tells why it exists) is the same loop that first
//! polls through the spin phase of the executors' one poll loop, `Backoff`
//! ([`SPIN_PHASE`](super::SPIN_PHASE), 10 µs by the clock) — until a
//! phase that ran out finds the lane's CPU shared with another lane of the
//! session; its later waits of that cycle park at once.
//!
//! Deadlock freedom follows from the same queue-position argument as BUSY.

use super::executor::Lane;
use super::{Backoff, NodeCell};
use crate::flight::SpanKind;
use crate::graph::NodeId;
use std::sync::atomic::Ordering;

/// Outcome of waiting for a node's dependencies.
enum Waited {
    /// Ready on arrival.
    No,
    /// Became ready within the spin phase, after this many polls.
    Spun(u64),
    /// Registered as the node's waiter after `spins` polls; `parks` is the
    /// number of `park()` calls actually made (0 when the dependency
    /// arrived between registration and parking).
    Parked { spins: u64, parks: u64 },
}

/// With `spin`, poll through the spin phase — unless an earlier wait of
/// this cycle found the lane's CPU shared, where spinning only delays the
/// lane it waits for; then register-and-park until `pending == 0`.
fn wait_ready(cell: &NodeCell, lane: &Lane<'_>, spin: bool) -> Waited {
    let ready = || cell.pending.load(Ordering::Acquire) == 0;
    if ready() {
        return Waited::No;
    }
    let me = lane.me;
    let mut spins = 0;
    if spin && !lane.known_shared() {
        let mut backoff = Backoff::new();
        while backoff.spin() {
            if ready() {
                return Waited::Spun(backoff.polls());
            }
        }
        spins = backoff.polls();
        // Asked once per spin phase that ran out; the answer is kept.
        lane.shares_cpu();
    }
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

/// The SLEEP / HYBRID lane loop: static round-robin assignment, park on an
/// unmet dependency; with `spin` (HYBRID) a lane first polls through the
/// spin phase.
///
/// # Safety
/// As `Policy::run_lane`.
pub(super) unsafe fn run_lane(lane: &mut Lane<'_>, spin: bool) {
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
        match wait_ready(graph.cell(node as usize), lane, spin) {
            Waited::No => {}
            Waited::Spun(spins) => {
                let ns = lane.waited(SpanKind::BusyWait, node, w0);
                lane.count(|c| c.add_spin(spins, ns));
            }
            Waited::Parked { spins, parks } => {
                // The wait spanned the spin phase and the park; the
                // duration is booked against the park, which dominates
                // once the phase is over.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{
        build, diamond_sum_graph, fan_graph, record, run_and_check, traced_cycle,
    };
    use crate::exec::Strategy;
    use djstar_dsp::AudioBuf;

    /// The two strategies of this loop: SLEEP, and HYBRID's spin-first
    /// variant.
    const PARKING: [Strategy; 2] = [Strategy::Sleep, Strategy::Hybrid];

    #[test]
    fn computes_same_result_as_sequential() {
        for strategy in PARKING {
            for threads in [1, 2, 3, 4] {
                run_and_check(
                    |g| build(strategy, g, threads),
                    &format!("{strategy:?}-{threads}"),
                );
            }
        }
    }

    #[test]
    fn diamond_many_cycles() {
        for strategy in PARKING {
            let mut ex = build(strategy, diamond_sum_graph(), 3);
            for _ in 0..200 {
                ex.run_cycle(&[], &[]);
                let mut out = AudioBuf::zeroed(2, 8);
                ex.read_output(NodeId(3), &mut out);
                assert_eq!(out.sample(0, 0), 3.0, "{strategy:?}");
            }
        }
    }

    #[test]
    fn trace_has_sleep_kind_and_valid_order() {
        for strategy in PARKING {
            let mut ex = build(strategy, fan_graph(16), 4);
            record(&mut ex);
            let mut saw_any_sleep = false;
            for _ in 0..50 {
                let trace = traced_cycle(&mut ex);
                let topo = ex.topology();
                assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
                assert_eq!(trace.executions().len(), topo.len(), "{strategy:?}");
                saw_any_sleep |= trace.events.iter().any(|e| e.kind == SpanKind::Sleep);
            }
            // On a single-core CI box sleeping is in fact very likely, but
            // we only assert the structural properties above;
            // `saw_any_sleep` keeps the variable observable without making
            // the test flaky.
            let _ = saw_any_sleep;
        }
    }
}
