//! The work-stealing strategy (§V-C).
//!
//! "1) Each thread gets its own working queue. 2) This queue only contains
//! nodes which are executable, i.e. all dependencies are met. 3) Threads can
//! steal nodes from other threads once their own queue is empty. … When a
//! new APC starts, the main thread fills up the processing queues of all
//! executor threads. It distributes all nodes without dependencies (source
//! nodes) to the threads. We categorize the source nodes as Deck A/B/C/D or
//! Master in order to be able to assign nodes from the same section to the
//! same thread."
//!
//! Ownership transfer: a node enters a deque exactly once — either seeded by
//! the driver between cycles, or pushed by the worker whose `fetch_sub`
//! brought its pending counter to zero (which happens for exactly one
//! caller). Deque `pop`/`steal` hand each element to exactly one thread, so
//! the exactly-once execution invariant holds.
//!
//! Idle workers park in an [`IdleSet`]; a worker that releases ready
//! successors wakes sleepers to come and steal. "Sleeping in fact only
//! occurs when there are solely nodes available with unfinished
//! dependencies" — i.e. near the end of the graph (§VI). The driver (lane
//! 0) never parks intra-cycle; it spin-yields so it can observe completion.
//!
//! WS is the one policy that uses every hook: `seed` fills the deques
//! before the epoch is published, `settle` waits for the exit barrier (a
//! lane still scanning deques must not see next cycle's seeds), and `adopt`
//! grows the deques when a staged graph outgrows them.

use super::executor::{Lane, Policy, PoolExecutor, QueuePolicy};
use super::pool::VenuePool;
use super::{
    spin_yield_until, Adoption, DriverCell, ExecGraph, ScheduleBlueprint, Shared, Strategy,
};
use crate::deque::{Steal as Stolen, WorkDeque};
use crate::flight::{Span, SpanKind};
use crate::graph::{NodeId, Section};
use crate::idle::IdleSet;
use crate::pad::CachePadded;
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// The WS policy: per-lane deques of ready nodes plus the idle set.
pub struct Steal {
    /// Per-lane deques. Behind a [`DriverCell`] so a generation swap can
    /// replace them with larger ones; the replacement happens between
    /// cycles (after the exit barrier the deques are quiescent) and is
    /// published by the next epoch store, like the graph itself.
    deques: DriverCell<Vec<WorkDeque>>,
    idle: IdleSet,
    /// Lanes that have fully left the current cycle's work loop. A
    /// lingering lane that has not yet observed completion must not be able
    /// to pop work seeded for the next cycle, so the driver waits for every
    /// lane to pass this barrier before the cycle is collected. Padded for
    /// the same reason as `Shared::done_count`.
    exited: CachePadded<AtomicU32>,
}

/// Work-stealing executor.
pub type StealExecutor = PoolExecutor<Steal>;

/// Which worker a section's source nodes are seeded to (§V-C's
/// deck-affinity categorization). The simulator's WS replica seeds with
/// it too.
pub fn seed_target(section: Section, threads: usize) -> usize {
    match section.deck_index() {
        Some(d) => d % threads,
        None => 4 % threads,
    }
}

fn deques_for(nodes: usize, threads: usize) -> Vec<WorkDeque> {
    (0..threads).map(|_| WorkDeque::new(nodes.max(4))).collect()
}

impl QueuePolicy for Steal {
    fn for_session(exec: &ExecGraph, threads: usize, pool: &VenuePool) -> Self {
        Steal {
            deques: DriverCell::new(deques_for(exec.len(), threads)),
            idle: IdleSet::new(pool.session_handles(threads)),
            exited: CachePadded::new(AtomicU32::new(0)),
        }
    }
}

impl Steal {
    /// The per-lane deques; same access contract as [`Shared::graph`].
    #[inline]
    fn deques(&self) -> &[WorkDeque] {
        // SAFETY: replaced only by the driver between cycles; workers read
        // after the epoch-acquire edge.
        unsafe { self.deques.get() }
    }

    /// One steal sweep over the other lanes' deques.
    fn steal_sweep(&self, me: usize) -> Option<u32> {
        let deques = self.deques();
        for off in 1..deques.len() {
            let victim = &deques[(me + off) % deques.len()];
            loop {
                match victim.steal() {
                    Stolen::Success(n) => return Some(n),
                    Stolen::Empty => break,
                    Stolen::Retry => continue,
                }
            }
        }
        None
    }

    /// Execute `node`, release ready successors to this lane's deque, wake
    /// thieves.
    ///
    /// # Safety
    /// `node` must have been obtained from a deque `pop`/`steal` this epoch
    /// (exactly-once ownership; readiness was established by the pending
    /// protocol before the node entered a deque).
    unsafe fn run_node(&self, lane: &mut Lane<'_>, node: u32) {
        // SAFETY: the caller's contract.
        unsafe { lane.exec(node) };
        let sh = lane.sh;
        let mine = &self.deques()[lane.me];
        let mut released = 0u32;
        for &s in sh.graph().topology().succs(NodeId(node)) {
            let pending = &sh.graph().cell(s as usize).pending;
            if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                mine.push(s).expect("deque sized for the whole graph");
                released += 1;
            }
        }
        if released > 0 {
            lane.count(|c| c.note_deque_depth(mine.len() as u64));
            // Publish the pushes before scanning for sleepers (pairs with the
            // fence idle workers issue between registering and re-checking).
            fence(Ordering::SeqCst);
            for _ in 0..released {
                if self.idle.wake_one().is_none() {
                    break;
                }
                lane.count(|c| c.add_unpark());
            }
        }
        if lane.done() {
            // Last node of the cycle: release every sleeper so all workers
            // observe completion and return to the cycle barrier.
            self.idle.wake_all();
        }
    }
}

impl Policy for Steal {
    const STRATEGY: Strategy = Strategy::Steal;

    unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        let sh = lane.sh;
        let me = lane.me;
        let total = sh.graph().len() as u32;
        let cycle_done = || sh.done_count.load(Ordering::Acquire) == total;
        loop {
            // 1. Local work, newest first (LIFO: §V-C cache-locality argument).
            if let Some(node) = self.deques()[me].pop() {
                // SAFETY: popped from own deque.
                unsafe { self.run_node(lane, node) };
                continue;
            }
            // 2. Steal, oldest first from a victim.
            let s0 = lane.clock();
            let stolen = self.steal_sweep(me);
            lane.count(|c| c.add_steal(stolen.is_some()));
            if let Some(node) = stolen {
                lane.waited(SpanKind::Steal, node, s0);
                // SAFETY: stolen exactly once.
                unsafe { self.run_node(lane, node) };
                continue;
            }
            // 3. Cycle complete?
            if cycle_done() {
                break;
            }
            // 4. Idle. The driver spin-yields (it must observe completion and
            //    may be running on a thread the IdleSet has no handle for);
            //    workers park until new work is released.
            if me == 0 {
                std::thread::yield_now();
                continue;
            }
            self.idle.register(me);
            fence(Ordering::SeqCst);
            if self.deques().iter().all(|d| d.is_empty()) && !cycle_done() {
                let w0 = lane.clock();
                std::thread::park();
                let ns = lane.waited(SpanKind::Idle, Span::NO_NODE, w0);
                lane.count(|c| c.add_park(1, ns));
            }
            self.idle.deregister(me);
        }
        // Exit barrier: a lane that has left this loop can no longer pop
        // work, so once every lane has signalled, the driver may safely seed
        // the next cycle's deques. (Telemetry relies on it too: the
        // idle-park counters above may be recorded after this lane's last
        // `done`, so the driver drains only after this barrier.)
        self.exited.fetch_add(1, Ordering::Release);
    }

    /// Seed source nodes by section affinity *before* the epoch is
    /// published; the deques are quiescent between cycles, so these pushes
    /// are ordinary owner pushes logically performed on behalf of each
    /// target lane.
    fn seed(&self, sh: &Shared) {
        self.exited.store(0, Ordering::Relaxed);
        let topo = sh.graph().topology();
        for &src in topo.sources() {
            let target = seed_target(topo.section(NodeId(src)), sh.threads);
            self.deques()[target]
                .push(src)
                .expect("deque sized for the whole graph");
        }
        if sh.telemetry.load(Ordering::Relaxed) {
            // Seeded depth counts toward each lane's deque high water.
            for (d, c) in self.deques().iter().zip(sh.counters.iter()) {
                c.note_deque_depth(d.len() as u64);
            }
        }
    }

    /// All nodes are done; wait for every lane to leave the work loop so
    /// none can touch the deques the next cycle seeds.
    fn settle(&self, sh: &Shared) {
        let lanes = sh.threads as u32;
        spin_yield_until(|| self.exited.load(Ordering::Acquire) == lanes);
    }

    unsafe fn adopt(
        &self,
        sh: &Shared,
        exec: ExecGraph,
        plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        // SAFETY: the exit barrier plus the pool quiesce guarantee every
        // lane has left the work loop — the deques are quiescent. Both the
        // deque replacement and the graph swap are published by the next
        // epoch Release store.
        unsafe {
            if self.deques().iter().any(|d| d.capacity() < exec.len()) {
                self.deques.set(deques_for(exec.len(), sh.threads));
            }
            sh.adopt_exec(exec, plan)
        }
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
                |g, frames| Box::new(StealExecutor::new(g, threads, frames)),
                &format!("ws-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles() {
        let mut ex = StealExecutor::new(diamond_sum_graph(), 4, 8);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn every_node_executed_exactly_once_per_cycle() {
        let mut ex = StealExecutor::new(fan_graph(16), 4, 8);
        record(&mut ex);
        for _ in 0..30 {
            let trace = traced_cycle(&mut ex);
            let mut nodes: Vec<u32> = trace.executions().iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            let expect: Vec<u32> = (0..ex.topology().len() as u32).collect();
            assert_eq!(nodes, expect);
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        }
    }

    #[test]
    fn seed_targets_follow_sections() {
        assert_eq!(seed_target(Section::DeckA, 4), 0);
        assert_eq!(seed_target(Section::DeckB, 4), 1);
        assert_eq!(seed_target(Section::DeckC, 4), 2);
        assert_eq!(seed_target(Section::DeckD, 4), 3);
        assert_eq!(seed_target(Section::Master, 4), 0);
        assert_eq!(seed_target(Section::DeckD, 2), 1);
        assert_eq!(seed_target(Section::Master, 1), 0);
    }
}
