//! The thread-sleeping strategy (§V-B).
//!
//! Same round-robin static assignment as BUSY, but "instead of actively
//! waiting for dependency fulfillment … threads are explicitly put to sleep
//! until their dependencies are met. … Nodes that are finished computing
//! send a signal to their successor node which in turn wakes up its assigned
//! thread. The wake up procedure only occurs when all predecessor nodes are
//! finished."
//!
//! Mechanics: each node has a `pending` counter (unmet predecessors this
//! epoch) and a `waiter` slot. A worker arriving at a node with
//! `pending > 0` registers itself in `waiter`, re-checks, and parks
//! (register → re-check → park, so a wake between the check and the park is
//! never lost — `unpark` before `park` leaves a token). A worker finishing
//! a node decrements each successor's `pending` with `AcqRel`; the one that
//! brings it to zero swaps out the `waiter` and unparks it. The `AcqRel`
//! read-modify-write chain forms a release sequence, so the executor that
//! observes `pending == 0` with `Acquire` sees every predecessor's output.
//!
//! Deadlock freedom follows from the same queue-position argument as BUSY.

use super::pool::{PoolBinding, SessionState, VenuePool};
use super::{
    Adoption, CycleResult, ExecGraph, GraphExecutor, RawEvent, Shared, StagedGeneration, Strategy,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, TaskGraph};
use crate::processor::Processor;
use crate::telemetry::{TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Thread-sleeping executor: static round-robin assignment + park/unpark.
pub struct SleepExecutor {
    shared: Arc<Shared>,
    pool: PoolBinding,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

impl SleepExecutor {
    /// Build the executor with `threads` workers (including the calling
    /// thread) over `graph` with `frames`-frame buffers.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize) -> Self {
        Self::with_priority(graph, threads, frames, Priority::Depth)
    }

    /// Like [`new`](Self::new), but walking the queue in the order selected
    /// by `priority` (depth order is the production default).
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
        let shared = Arc::new(Shared::new(
            ExecGraph::new(graph, frames),
            threads,
            priority,
        ));
        // SAFETY: no cycle in flight yet.
        unsafe { shared.handles.set(pool.session_handles(threads)) };
        let pool = pool.register(SessionState::Sleep(Arc::clone(&shared)));
        SleepExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }
}

/// Wait for `node`'s dependencies by parking. Returns `None` when the node
/// was ready immediately, otherwise `Some(parks)` with the number of
/// `park()` calls actually made (0 when the dependency arrived between
/// registration and parking).
fn sleep_until_ready(shared: &Shared, node: usize, me: usize) -> Option<u64> {
    let cell = shared.graph().cell(node);
    if cell_pending(shared, node) == 0 {
        return None;
    }
    let mut parks = 0u64;
    loop {
        // Register as this node's executor, then re-check before parking.
        cell.waiter.store(me + 1, Ordering::SeqCst);
        if cell_pending(shared, node) == 0 {
            cell.waiter.store(0, Ordering::SeqCst);
            return Some(parks);
        }
        std::thread::park();
        parks += 1;
        // Spurious wakes (e.g. the cycle-start broadcast token) re-check.
        if cell_pending(shared, node) == 0 {
            cell.waiter.store(0, Ordering::SeqCst);
            return Some(parks);
        }
    }
}

#[inline]
fn cell_pending(shared: &Shared, node: usize) -> u32 {
    shared.graph().cell(node).pending.load(Ordering::Acquire)
}

pub(crate) fn run_cycle_part(shared: &Shared, me: usize, epoch: u64) {
    let tracing = shared.tracing.load(Ordering::Relaxed);
    let telem = shared.telemetry.load(Ordering::Relaxed);
    let rec = shared.flight_on();
    let counters = &shared.counters[me];
    let topo = shared.graph().topology();
    let faults = shared.fault_plan();
    // SAFETY: epoch acquired.
    let ctx = if telem || rec {
        unsafe { shared.ctx_counted(epoch, me) }
    } else {
        unsafe { shared.ctx(epoch) }
    };
    // SAFETY: handles were written before the epoch was published.
    let handles = unsafe { shared.handles.get() };
    if let Some(plan) = faults {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, me, shared.threads, counters) > 0 {
                shared.record_span(
                    me,
                    epoch,
                    Span::NO_NODE,
                    SpanKind::Fault,
                    s0,
                    Instant::now(),
                );
            }
        } else {
            plan.inject_stalls(epoch, me, shared.threads, counters);
        }
    }
    let mut events: Vec<RawEvent> = Vec::new();
    for (k, &node) in shared.order().iter().enumerate() {
        if k % shared.threads != me {
            continue;
        }
        if tracing || telem || rec {
            let w0 = Instant::now();
            if let Some(parks) = sleep_until_ready(shared, node as usize, me) {
                let w1 = Instant::now();
                if tracing {
                    events.push(RawEvent {
                        node,
                        kind: TraceKind::Sleep,
                        start: w0,
                        end: w1,
                    });
                }
                if telem {
                    counters.add_park(parks, (w1 - w0).as_nanos() as u64);
                }
                if rec {
                    shared.record_span(me, epoch, node, SpanKind::Sleep, w0, w1);
                }
            }
            let t0 = Instant::now();
            let mut fault_end = t0;
            if let Some(plan) = faults {
                let injected = plan.inject_node(epoch, node, counters);
                if rec && injected > 0 {
                    fault_end = Instant::now();
                }
            }
            let net0 = if rec { shared.net_ns_of(me) } else { (0, 0) };
            // SAFETY: exactly-once ownership (static assignment); pending==0
            // observed with Acquire implies all predecessor outputs visible.
            unsafe { shared.graph().execute(node as usize, &ctx) };
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
                    shared.record_span(me, epoch, node, SpanKind::Fault, t0, fault_end);
                }
                shared.record_exec_carved(me, epoch, node, fault_end, t1, net0);
            }
        } else {
            sleep_until_ready(shared, node as usize, me);
            if let Some(plan) = faults {
                plan.inject_node(epoch, node, counters);
            }
            // SAFETY: as above.
            unsafe { shared.graph().execute(node as usize, &ctx) };
        }
        // Signal successors; wake the registered executor of any successor
        // whose last dependency this was.
        for &s in topo.succs(NodeId(node)) {
            let sc = shared.graph().cell(s as usize);
            if sc.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let w = sc.waiter.swap(0, Ordering::SeqCst);
                if w != 0 {
                    if telem {
                        counters.add_unpark();
                    }
                    if tracing || rec {
                        let u0 = Instant::now();
                        handles[w - 1].unpark();
                        let u1 = Instant::now();
                        if tracing {
                            events.push(RawEvent {
                                node: s,
                                kind: TraceKind::Unpark,
                                start: u0,
                                end: u1,
                            });
                        }
                        if rec {
                            shared.record_span(me, epoch, s, SpanKind::Unpark, u0, u1);
                        }
                    } else {
                        handles[w - 1].unpark();
                    }
                }
            }
        }
        shared.node_finished();
    }
    if tracing {
        shared.flush_trace(me, events);
    }
}

impl GraphExecutor for SleepExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Sleep
    }

    fn threads(&self) -> usize {
        self.shared.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self
            .venue_stage(external_audio, controls)
            .expect("sleep executor always stages");
        self.pool.pool().dispatch();
        run_cycle_part(&self.shared, 0, epoch);
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        self.pool.pool().quiesce();
        self.shared.tracing.store(self.tracing, Ordering::Relaxed);
        self.shared
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        let epoch = unsafe { self.shared.prepare_cycle(external_audio, controls) };
        self.pool.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        self.shared.wait_cycle_done();
        let end = Instant::now();
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *self.shared.cycle_start.get() };
        let duration = end - start;
        if self.shared.flight_on() {
            self.shared.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // Every worker's last counter update precedes its final
            // done-count increment, acquired by `wait_cycle_done`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            self.shared.drain_counters(slot);
        }
        if self.tracing {
            self.shared.wait_trace_flushed();
            self.last_trace = Some(self.shared.collect_trace());
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
                    self.shared.threads,
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
        unsafe { self.shared.faults.set(plan) };
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.install_recorder(cfg);
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.take_window()
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Adoption {
        let (exec, plan) = staged.into_parts();
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state until the next batch.
        unsafe { self.shared.adopt_exec(exec, plan) }
    }

    fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; pool quiescent.
        unsafe { self.shared.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.shared.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.shared.graph().topology()
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
                |g, frames| Box::new(SleepExecutor::new(g, threads, frames)),
                &format!("sleep-{threads}"),
            );
        }
    }

    #[test]
    fn critical_path_priority_matches_sequential() {
        run_and_check(
            |g, frames| {
                Box::new(SleepExecutor::with_priority(
                    g,
                    3,
                    frames,
                    Priority::CriticalPath,
                ))
            },
            "sleep-cp-3",
        );
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
        ex.set_tracing(true);
        let mut saw_any_sleep = false;
        for _ in 0..50 {
            ex.run_cycle(&[], &[]);
            let trace = ex.take_trace().unwrap();
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            saw_any_sleep |= trace.events.iter().any(|e| e.kind == TraceKind::Sleep);
        }
        // On a single-core CI box sleeping is in fact very likely, but we
        // only assert the structural properties above; `saw_any_sleep` keeps
        // the variable observable without making the test flaky.
        let _ = saw_any_sleep;
    }
}
