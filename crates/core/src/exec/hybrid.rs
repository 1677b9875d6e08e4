//! Extension: a hybrid spin-then-park strategy.
//!
//! §VI frames the BUSY-vs-SLEEP trade-off as all-or-nothing: spinning wins
//! because cycles are short, "if wasting resources on waiting is not an
//! option, work-stealing is a solid alternative". The classic middle ground
//! — spin for a bounded budget, then park — is the obvious follow-up the
//! paper leaves open; this executor implements it so the ablation study can
//! sweep the spin budget between the two extremes (budget 0 ≈ SLEEP,
//! budget ∞ ≈ BUSY).
//!
//! Assignment and wake-up machinery are identical to
//! [`SleepExecutor`](super::SleepExecutor): round-robin static assignment,
//! pending counters, waiter registration, predecessor wake-ups. Only the
//! wait differs: up to `spin_budget` polls of the pending counter happen
//! before the thread registers and parks.

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
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spin-then-park executor.
pub struct HybridExecutor {
    shared: Arc<HybridShared>,
    pool: PoolBinding,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

pub(crate) struct HybridShared {
    pub(crate) base: Shared,
    /// Maximum spin polls before parking.
    spin_budget: AtomicU32,
}

impl HybridExecutor {
    /// Build the executor; `spin_budget` is the number of dependency polls
    /// performed before giving up and parking (0 behaves like SLEEP).
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize, spin_budget: u32) -> Self {
        Self::with_priority(graph, threads, frames, spin_budget, Priority::Depth)
    }

    /// Like [`new`](Self::new), but walking the queue in the order selected
    /// by `priority` (depth order is the production default).
    pub fn with_priority(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        spin_budget: u32,
        priority: Priority,
    ) -> Self {
        let pool = Arc::new(VenuePool::new(threads));
        Self::with_pool(graph, threads, frames, spin_budget, priority, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. `threads` is this session's lane count and
    /// must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        spin_budget: u32,
        priority: Priority,
        pool: &Arc<VenuePool>,
    ) -> Self {
        assert!((1..=64).contains(&threads), "1..=64 threads supported");
        let shared = Arc::new(HybridShared {
            base: Shared::new(ExecGraph::new(graph, frames), threads, priority),
            spin_budget: AtomicU32::new(spin_budget),
        });
        // SAFETY: no cycle in flight yet.
        unsafe { shared.base.handles.set(pool.session_handles(threads)) };
        let pool = pool.register(SessionState::Hybrid(Arc::clone(&shared)));
        HybridExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }

    /// Change the spin budget between cycles.
    pub fn set_spin_budget(&mut self, budget: u32) {
        self.shared.spin_budget.store(budget, Ordering::Relaxed);
    }
}

/// Outcome of a hybrid wait, for tracing and telemetry.
enum WaitOutcome {
    NoWait,
    SpunOnly { spins: u64 },
    Parked { spins: u64, parks: u64 },
}

/// Spin up to the budget, then register-and-park until `pending == 0`.
fn hybrid_wait(sh: &HybridShared, node: usize, me: usize) -> WaitOutcome {
    let cell = sh.base.graph().cell(node);
    let pending = |o: Ordering| cell.pending.load(o);
    if pending(Ordering::Acquire) == 0 {
        return WaitOutcome::NoWait;
    }
    let budget = sh.spin_budget.load(Ordering::Relaxed);
    for i in 0..budget {
        if pending(Ordering::Acquire) == 0 {
            return WaitOutcome::SpunOnly {
                spins: u64::from(i) + 1,
            };
        }
        if i % 1024 == 1023 {
            std::thread::yield_now();
        } else {
            core::hint::spin_loop();
        }
    }
    // Budget exhausted: fall back to the SLEEP protocol.
    let spins = u64::from(budget);
    let mut parks = 0u64;
    loop {
        cell.waiter.store(me + 1, Ordering::SeqCst);
        if pending(Ordering::Acquire) == 0 {
            cell.waiter.store(0, Ordering::SeqCst);
            return WaitOutcome::Parked { spins, parks };
        }
        std::thread::park();
        parks += 1;
        if pending(Ordering::Acquire) == 0 {
            cell.waiter.store(0, Ordering::SeqCst);
            return WaitOutcome::Parked { spins, parks };
        }
    }
}

pub(crate) fn run_cycle_part(sh: &HybridShared, me: usize, epoch: u64) {
    let tracing = sh.base.tracing.load(Ordering::Relaxed);
    let telem = sh.base.telemetry.load(Ordering::Relaxed);
    let rec = sh.base.flight_on();
    let counters = &sh.base.counters[me];
    let topo = sh.base.graph().topology();
    let faults = sh.base.fault_plan();
    // SAFETY: epoch acquired.
    let ctx = if telem || rec {
        unsafe { sh.base.ctx_counted(epoch, me) }
    } else {
        unsafe { sh.base.ctx(epoch) }
    };
    // SAFETY: handles written before the epoch was published.
    let handles = unsafe { sh.base.handles.get() };
    if let Some(plan) = faults {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, me, sh.base.threads, counters) > 0 {
                sh.base.record_span(
                    me,
                    epoch,
                    Span::NO_NODE,
                    SpanKind::Fault,
                    s0,
                    Instant::now(),
                );
            }
        } else {
            plan.inject_stalls(epoch, me, sh.base.threads, counters);
        }
    }
    let mut events: Vec<RawEvent> = Vec::new();
    for (k, &node) in sh.base.order().iter().enumerate() {
        if k % sh.base.threads != me {
            continue;
        }
        let w0 = Instant::now();
        let outcome = hybrid_wait(sh, node as usize, me);
        if tracing || telem || rec {
            let w1 = Instant::now();
            let wait_ns = (w1 - w0).as_nanos() as u64;
            match outcome {
                WaitOutcome::NoWait => {}
                WaitOutcome::SpunOnly { spins } => {
                    if tracing {
                        events.push(RawEvent {
                            node,
                            kind: TraceKind::BusyWait,
                            start: w0,
                            end: w1,
                        });
                    }
                    if telem {
                        counters.add_spin(spins, wait_ns);
                    }
                    if rec {
                        sh.base
                            .record_span(me, epoch, node, SpanKind::BusyWait, w0, w1);
                    }
                }
                WaitOutcome::Parked { spins, parks } => {
                    if tracing {
                        events.push(RawEvent {
                            node,
                            kind: TraceKind::Sleep,
                            start: w0,
                            end: w1,
                        });
                    }
                    if telem {
                        // The wait spanned the spin budget and the park; the
                        // duration is booked against the park, which
                        // dominates once the budget is exhausted.
                        counters.add_spin(spins, 0);
                        counters.add_park(parks, wait_ns);
                    }
                    if rec {
                        sh.base
                            .record_span(me, epoch, node, SpanKind::Sleep, w0, w1);
                    }
                }
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
        let net0 = if rec { sh.base.net_ns_of(me) } else { (0, 0) };
        // SAFETY: exactly-once by static assignment; pending==0 acquired.
        unsafe { sh.base.graph().execute(node as usize, &ctx) };
        if tracing || telem || rec {
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
                    sh.base
                        .record_span(me, epoch, node, SpanKind::Fault, t0, fault_end);
                }
                sh.base
                    .record_exec_carved(me, epoch, node, fault_end, t1, net0);
            }
        }
        for &s in topo.succs(NodeId(node)) {
            let sc = sh.base.graph().cell(s as usize);
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
                            sh.base.record_span(me, epoch, s, SpanKind::Unpark, u0, u1);
                        }
                    } else {
                        handles[w - 1].unpark();
                    }
                }
            }
        }
        sh.base.node_finished();
    }
    if tracing {
        sh.base.flush_trace(me, events);
    }
}

impl GraphExecutor for HybridExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Hybrid
    }

    fn threads(&self) -> usize {
        self.shared.base.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self
            .venue_stage(external_audio, controls)
            .expect("hybrid executor always stages");
        self.pool.pool().dispatch();
        run_cycle_part(&self.shared, 0, epoch);
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        self.pool.pool().quiesce();
        let sh = &self.shared;
        sh.base.tracing.store(self.tracing, Ordering::Relaxed);
        sh.base
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        let epoch = unsafe { sh.base.prepare_cycle(external_audio, controls) };
        self.pool.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let sh = &self.shared;
        sh.base.wait_cycle_done();
        let end = Instant::now();
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *sh.base.cycle_start.get() };
        let duration = end - start;
        if sh.base.flight_on() {
            sh.base.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // Counter updates happen-before the workers' final done-count
            // increments, acquired by `wait_cycle_done`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            sh.base.drain_counters(slot);
        }
        if self.tracing {
            sh.base.wait_trace_flushed();
            self.last_trace = Some(sh.base.collect_trace());
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
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state until the next batch.
        unsafe { self.shared.base.adopt_exec(exec, plan) }
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
        for (threads, budget) in [(1, 0), (2, 0), (3, 10_000), (4, u32::MAX)] {
            run_and_check(
                |g, frames| Box::new(HybridExecutor::new(g, threads, frames, budget)),
                &format!("hybrid-{threads}-{budget}"),
            );
        }
    }

    #[test]
    fn critical_path_priority_matches_sequential() {
        run_and_check(
            |g, frames| {
                Box::new(HybridExecutor::with_priority(
                    g,
                    3,
                    frames,
                    2_000,
                    Priority::CriticalPath,
                ))
            },
            "hybrid-cp-3",
        );
    }

    #[test]
    fn diamond_many_cycles_with_budget_changes() {
        let mut ex = HybridExecutor::new(diamond_sum_graph(), 3, 8, 1_000);
        for cycle in 0..150 {
            if cycle == 50 {
                ex.set_spin_budget(0);
            }
            if cycle == 100 {
                ex.set_spin_budget(u32::MAX);
            }
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn traces_are_dependency_safe() {
        let mut ex = HybridExecutor::new(fan_graph(12), 4, 8, 500);
        ex.set_tracing(true);
        for _ in 0..20 {
            ex.run_cycle(&[], &[]);
            let trace = ex.take_trace().unwrap();
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            assert_eq!(trace.executions().len(), topo.len());
        }
    }
}
