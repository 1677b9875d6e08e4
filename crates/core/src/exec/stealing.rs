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
//! dependencies" — i.e. near the end of the graph (§VI). The driver (worker
//! 0) never parks intra-cycle; it spin-yields so it can observe completion.

use super::pool::{PoolBinding, SessionState, VenuePool};
use super::{
    Adoption, CycleResult, DriverCell, ExecGraph, GraphExecutor, RawEvent, Shared,
    StagedGeneration, Strategy,
};
use crate::deque::{Steal, WorkDeque};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, Section, TaskGraph};
use crate::idle::IdleSet;
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shared state of the work-stealing executor: the common cycle machinery
/// plus per-worker deques and the idle set.
pub(crate) struct WsShared {
    pub base: Shared,
    /// Per-worker deques. Behind a [`DriverCell`] so a generation swap can
    /// replace them with larger ones; the replacement happens between
    /// cycles (after the exit barrier the deques are quiescent) and is
    /// published by the next epoch store, like the graph itself.
    deques: DriverCell<Vec<WorkDeque>>,
    /// Filled by the driver right after spawning, before the first cycle.
    pub idle: OnceLock<IdleSet>,
}

impl WsShared {
    /// The per-worker deques; same access contract as [`Shared::graph`].
    #[inline]
    fn deques(&self) -> &[WorkDeque] {
        // SAFETY: replaced only by the driver between cycles; workers read
        // after the epoch-acquire edge.
        unsafe { self.deques.get() }
    }
}

/// Work-stealing executor.
pub struct StealExecutor {
    shared: Arc<WsShared>,
    pool: PoolBinding,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

/// Which worker a section's source nodes are seeded to (§V-C's
/// deck-affinity categorization).
pub(crate) fn seed_target(section: Section, threads: usize) -> usize {
    match section.deck_index() {
        Some(d) => d % threads,
        None => 4 % threads,
    }
}

impl StealExecutor {
    /// Build the executor with `threads` workers (including the calling
    /// thread) over `graph` with `frames`-frame buffers.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize) -> Self {
        Self::with_priority(graph, threads, frames, Priority::Depth)
    }

    /// Like [`new`](Self::new), but with [`Priority::CriticalPath`] the
    /// successors a finishing node releases are pushed in ascending
    /// critical-path order, so the LIFO pop takes the longest-path successor
    /// first.
    pub fn with_priority(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        priority: Priority,
    ) -> Self {
        let pool = Arc::new(VenuePool::new(threads));
        Self::with_pool(graph, threads, frames, priority, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. `threads` is this session's lane count and
    /// must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        priority: Priority,
        pool: &Arc<VenuePool>,
    ) -> Self {
        assert!((1..=64).contains(&threads), "1..=64 threads supported");
        let exec = ExecGraph::new(graph, frames);
        let nodes = exec.len();
        let shared = Arc::new(WsShared {
            base: Shared::new(exec, threads, priority),
            deques: DriverCell::new((0..threads).map(|_| WorkDeque::new(nodes.max(4))).collect()),
            idle: OnceLock::new(),
        });
        let handles = pool.session_handles(threads);
        shared
            .idle
            .set(IdleSet::new(handles.clone()))
            .expect("idle set initialized once");
        // SAFETY: no cycle in flight yet.
        unsafe { shared.base.handles.set(handles) };
        let pool = pool.register(SessionState::Steal(Arc::clone(&shared)));
        StealExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }
}

/// One steal sweep over the other workers' deques.
fn steal_sweep(ws: &WsShared, me: usize) -> Option<u32> {
    let threads = ws.base.threads;
    for off in 1..threads {
        let victim = (me + off) % threads;
        loop {
            match ws.deques()[victim].steal() {
                Steal::Success(n) => return Some(n),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// True when every deque currently appears empty.
fn all_deques_empty(ws: &WsShared) -> bool {
    ws.deques().iter().all(|d| d.is_empty())
}

/// Execute `node`, release ready successors to `me`'s deque, wake thieves.
///
/// # Safety
/// `node` must have been obtained from a deque `pop`/`steal` this epoch
/// (exactly-once ownership; readiness was established by the pending
/// protocol before the node entered a deque).
#[allow(clippy::too_many_arguments)] // the three observability gates travel together
unsafe fn run_node(
    ws: &WsShared,
    me: usize,
    node: u32,
    ctx: &CycleCtx<'_>,
    tracing: bool,
    telem: bool,
    rec: bool,
    events: &mut Vec<RawEvent>,
) {
    let counters = &ws.base.counters[me];
    let faults = ws.base.fault_plan();
    if tracing || telem || rec {
        let t0 = Instant::now();
        let mut fault_end = t0;
        if let Some(plan) = faults {
            let injected = plan.inject_node(ctx.epoch, node, counters);
            if rec && injected > 0 {
                fault_end = Instant::now();
            }
        }
        let net0 = if rec { ws.base.net_ns_of(me) } else { (0, 0) };
        ws.base.graph().execute(node as usize, ctx);
        let t1 = Instant::now();
        if tracing {
            events.push(RawEvent {
                node,
                kind: TraceKind::Exec,
                start: t0,
                end: t1,
            });
        }
        if telem {
            counters.add_exec((t1 - t0).as_nanos() as u64);
        }
        if rec {
            if fault_end > t0 {
                ws.base
                    .record_span(me, ctx.epoch, node, SpanKind::Fault, t0, fault_end);
            }
            ws.base
                .record_exec_carved(me, ctx.epoch, node, fault_end, t1, net0);
        }
    } else {
        if let Some(plan) = faults {
            plan.inject_node(ctx.epoch, node, counters);
        }
        ws.base.graph().execute(node as usize, ctx);
    }
    let idle = ws.idle.get().expect("idle set initialized");
    let mut released = 0u32;
    // Under critical-path priority successors are visited in ascending
    // cp-order, so the longest-path one is pushed last and popped first.
    for &s in ws.base.succ_order(node) {
        if ws
            .base
            .graph()
            .cell(s as usize)
            .pending
            .fetch_sub(1, Ordering::AcqRel)
            == 1
        {
            ws.deques()[me]
                .push(s)
                .expect("deque sized for the whole graph");
            released += 1;
        }
    }
    if released > 0 {
        if telem {
            counters.note_deque_depth(ws.deques()[me].len() as u64);
        }
        // Publish the pushes before scanning for sleepers (pairs with the
        // fence idle workers issue between registering and re-checking).
        fence(Ordering::SeqCst);
        for _ in 0..released {
            if idle.wake_one().is_none() {
                break;
            }
            if telem {
                counters.add_unpark();
            }
        }
    }
    if ws.base.node_finished() {
        // Last node of the cycle: release every sleeper so all workers
        // observe completion and return to the cycle barrier.
        idle.wake_all();
    }
}

pub(crate) fn run_cycle_part(ws: &WsShared, me: usize, epoch: u64) {
    let tracing = ws.base.tracing.load(Ordering::Relaxed);
    let telem = ws.base.telemetry.load(Ordering::Relaxed);
    let rec = ws.base.flight_on();
    let counters = &ws.base.counters[me];
    // SAFETY: epoch acquired.
    let ctx = if telem || rec {
        unsafe { ws.base.ctx_counted(epoch, me) }
    } else {
        unsafe { ws.base.ctx(epoch) }
    };
    let idle = ws.idle.get().expect("idle set initialized");
    let total = ws.base.graph().len() as u32;
    if let Some(plan) = ws.base.fault_plan() {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, me, ws.base.threads, counters) > 0 {
                ws.base.record_span(
                    me,
                    epoch,
                    Span::NO_NODE,
                    SpanKind::Fault,
                    s0,
                    Instant::now(),
                );
            }
        } else {
            plan.inject_stalls(epoch, me, ws.base.threads, counters);
        }
    }
    let mut events: Vec<RawEvent> = Vec::new();
    loop {
        // 1. Local work, newest first (LIFO: §V-C cache-locality argument).
        if let Some(node) = ws.deques()[me].pop() {
            // SAFETY: popped from own deque.
            unsafe { run_node(ws, me, node, &ctx, tracing, telem, rec, &mut events) };
            continue;
        }
        // 2. Steal, oldest first from a victim.
        let stolen = if tracing || telem || rec {
            let s0 = Instant::now();
            let stolen = steal_sweep(ws, me);
            if telem {
                counters.add_steal(stolen.is_some());
            }
            if tracing {
                if let Some(node) = stolen {
                    events.push(RawEvent {
                        node,
                        kind: TraceKind::Steal,
                        start: s0,
                        end: Instant::now(),
                    });
                }
            }
            if rec {
                if let Some(node) = stolen {
                    ws.base
                        .record_span(me, epoch, node, SpanKind::Steal, s0, Instant::now());
                }
            }
            stolen
        } else {
            steal_sweep(ws, me)
        };
        if let Some(node) = stolen {
            // SAFETY: stolen exactly once.
            unsafe { run_node(ws, me, node, &ctx, tracing, telem, rec, &mut events) };
            continue;
        }
        // 3. Cycle complete?
        if ws.base.done_count.load(Ordering::Acquire) == total {
            break;
        }
        // 4. Idle. The driver spin-yields (it must observe completion and
        //    may be running on a thread the IdleSet has no handle for);
        //    workers park until new work is released.
        if me == 0 {
            std::thread::yield_now();
            continue;
        }
        idle.register(me);
        fence(Ordering::SeqCst);
        if !all_deques_empty(ws) || ws.base.done_count.load(Ordering::Acquire) == total {
            idle.deregister(me);
            continue;
        }
        if tracing || telem || rec {
            let w0 = Instant::now();
            std::thread::park();
            let w1 = Instant::now();
            if tracing {
                events.push(RawEvent {
                    node: u32::MAX,
                    kind: TraceKind::Idle,
                    start: w0,
                    end: w1,
                });
            }
            if telem {
                counters.add_park(1, (w1 - w0).as_nanos() as u64);
            }
            if rec {
                ws.base
                    .record_span(me, epoch, Span::NO_NODE, SpanKind::Idle, w0, w1);
            }
        } else {
            std::thread::park();
        }
        idle.deregister(me);
    }
    if tracing {
        ws.base.flush_trace(me, events);
    }
    // Exit barrier: a worker that has left this loop can no longer pop
    // work, so once every worker has signalled, the driver may safely seed
    // the next cycle's deques. (Telemetry relies on it too: the idle-park
    // counters above may be recorded after this worker's last
    // `node_finished`, so the driver drains only after this barrier.)
    ws.base.signal_cycle_exit();
}

impl GraphExecutor for StealExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Steal
    }

    fn threads(&self) -> usize {
        self.shared.base.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self
            .venue_stage(external_audio, controls)
            .expect("ws executor always stages");
        self.pool.pool().dispatch();
        run_cycle_part(&self.shared, 0, epoch);
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        // The previous batch must be fully exited before the deques are
        // reseeded (a lagging pool worker could still be scanning them).
        self.pool.pool().quiesce();
        let ws = &self.shared;
        ws.base.tracing.store(self.tracing, Ordering::Relaxed);
        ws.base
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // Seed source nodes by section affinity *before* publishing the
        // epoch; the deques are quiescent between cycles, so these pushes
        // are ordinary owner pushes logically performed on behalf of each
        // target worker.
        let topo = ws.base.graph().topology();
        ws.base.graph().reset_pending();
        for &src in topo.sources() {
            let target = seed_target(topo.section(NodeId(src)), ws.base.threads);
            ws.deques()[target]
                .push(src)
                .expect("deque sized for the whole graph");
        }
        if self.telemetry.is_some() {
            // Seeded depth counts toward each worker's deque high water.
            for (i, d) in ws.deques().iter().enumerate() {
                ws.base.counters[i].note_deque_depth(d.len() as u64);
            }
        }
        // SAFETY: driver thread, no cycle in flight. (`prepare_cycle`
        // resets the pending counters again; that is idempotent.)
        let epoch = unsafe { ws.base.prepare_cycle(external_audio, controls) };
        self.pool.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let ws = &self.shared;
        ws.base.wait_cycle_done();
        // All nodes are done; now wait for every worker to leave the work
        // loop so none can touch the deques we will seed next cycle.
        ws.base.wait_cycle_exited(ws.base.threads as u32);
        let end = Instant::now();
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *ws.base.cycle_start.get() };
        let duration = end - start;
        if ws.base.flight_on() {
            ws.base.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // Drain strictly after the exit barrier: idle-park counters can
            // be recorded after a worker's last `node_finished`, but always
            // before its `signal_cycle_exit`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            ws.base.drain_counters(slot);
        }
        if self.tracing {
            ws.base.wait_trace_flushed();
            self.last_trace = Some(ws.base.collect_trace());
        }
        CycleResult { duration }
    }

    fn set_session(&mut self, session: u32) {
        self.session = session;
        if let Some(r) = &self.telemetry {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                session,
            ));
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn take_trace(&mut self) -> Option<ScheduleTrace> {
        self.last_trace.take()
    }

    fn set_telemetry(&mut self, on: bool) {
        if on {
            if self.telemetry.is_none() {
                self.telemetry = Some(TelemetryRing::with_session(
                    DEFAULT_RING_CAPACITY,
                    self.shared.base.threads,
                    self.session,
                ));
            }
        } else {
            self.telemetry = None;
        }
    }

    fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        let taken = self.telemetry.take();
        if let Some(r) = &taken {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                r.session(),
            ));
        }
        taken
    }

    fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.pool.pool().quiesce();
        // SAFETY: driver-only between cycles (`&mut self`), pool quiescent;
        // published to workers by the next epoch Release store.
        unsafe { self.shared.base.faults.set(plan) };
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.base.install_recorder(cfg);
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.base.take_window()
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Adoption {
        let (exec, plan) = staged.into_parts();
        let nodes = exec.len();
        self.pool.pool().quiesce();
        let ws = &self.shared;
        // SAFETY: `&mut self` proves no cycle is in flight, and the exit
        // barrier plus the pool quiesce guarantee every worker has left the
        // work loop — the deques are quiescent. Both the deque replacement
        // and the graph swap are published by the next epoch Release store.
        unsafe {
            if ws.deques().iter().any(|d| d.capacity() < nodes) {
                ws.deques.set(
                    (0..ws.base.threads)
                        .map(|_| WorkDeque::new(nodes.max(4)))
                        .collect(),
                );
            }
            ws.base.adopt_exec(exec, plan)
        }
    }

    fn generation(&self) -> u64 {
        self.shared.base.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; pool quiescent.
        unsafe { self.shared.base.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.shared.base.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.shared.base.graph().topology()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{diamond_sum_graph, fan_graph, run_and_check};

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
    fn critical_path_priority_matches_sequential() {
        for threads in [1, 4] {
            run_and_check(
                |g, frames| {
                    Box::new(StealExecutor::with_priority(
                        g,
                        threads,
                        frames,
                        Priority::CriticalPath,
                    ))
                },
                &format!("ws-cp-{threads}"),
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
        ex.set_tracing(true);
        for _ in 0..30 {
            ex.run_cycle(&[], &[]);
            let trace = ex.take_trace().unwrap();
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
