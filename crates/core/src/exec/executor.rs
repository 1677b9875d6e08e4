//! [`PoolExecutor<P>`]: the one executor (see the module docs of
//! [`exec`](super) for the policy table), the [`Policy`] trait, and the
//! [`Lane`] every policy drives.
//!
//! Policies never touch a clock, a counter or a recorder directly:
//! `lane.exec(node)` runs one node with fault injection, telemetry and
//! flight spans around it, `clock()` / `waited(..)` bracket a wait,
//! `count(..)` books it. A lane records each interval exactly once, into
//! the flight recorder, and while learning is armed folds each node's
//! execution time into that node's cost histogram; with nothing armed it
//! takes zero clock reads.

use super::pool::{LaneRunner, PoolBinding, VenuePool};
use super::{
    current_cpu, Adoption, CycleResult, ExecGraph, GraphExecutor, ScheduleBlueprint, Shared,
    StagedGeneration, Strategy, UNKNOWN_CPU,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightRecorder, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Section, TaskGraph};
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{CycleCounters, TelemetryRing, DEFAULT_RING_CAPACITY};
use djstar_dsp::AudioBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the lanes of a session wait for dependencies: the part of a §V
/// strategy that is not shared. The set is closed — the four policies of
/// this module tree — which is why the trait stays crate-private.
pub(crate) trait Policy: Send + Sync + 'static {
    /// The label sessions of this policy report.
    const STRATEGY: Strategy;

    /// Run lane `lane.me` of cycle `lane.epoch` to completion: execute
    /// every node this lane owns, each exactly once and only after its
    /// predecessors are done, calling `lane.done()` after each.
    ///
    /// # Safety
    /// The caller holds the epoch happens-before edge (pool-epoch `Acquire`
    /// for workers; the driver published the cycle itself) and is the only
    /// participant running this lane of this session this cycle.
    unsafe fn run_lane(&self, lane: &mut Lane<'_>);

    /// Driver-side, after `prepare_cycle` and before the epoch is
    /// published: hand out the cycle's initial work.
    fn seed(&self, _sh: &Shared) {}

    /// Driver-side, after the done-count barrier: wait for whatever else
    /// must be quiet before the driver owns the session again.
    fn settle(&self, _sh: &Shared) {}

    /// Swap in a staged generation (and whatever policy state is sized or
    /// compiled for it).
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight and the pool quiesced.
    unsafe fn adopt(
        &self,
        sh: &Shared,
        exec: ExecGraph,
        plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        sh.adopt_exec(exec, plan)
    }
}

/// One lane of one cycle, as a policy sees it: the session, which lane,
/// which epoch, and the instrumentation that is armed.
pub(crate) struct Lane<'a> {
    pub(crate) sh: &'a Shared,
    pub(crate) me: usize,
    pub(crate) epoch: u64,
    ctx: CycleCtx<'a>,
    counters: &'a CycleCounters,
    faults: Option<&'a FaultPlan>,
    /// The flight recorder, when installed. This lane writes only its own
    /// span ring of it.
    rec: Option<&'a FlightRecorder>,
    telem: bool,
    /// Cost learning is armed: node times go into the cost histograms.
    learn: bool,
    /// Anything armed: telemetry, the recorder or learning.
    armed: bool,
}

impl<'a> Lane<'a> {
    /// # Safety
    /// As [`Policy::run_lane`].
    unsafe fn begin(sh: &'a Shared, me: usize, epoch: u64) -> Self {
        let telem = sh.telemetry.load(Ordering::Relaxed);
        let learn = sh.learning.load(Ordering::Relaxed);
        sh.lane_cpus[me].store(current_cpu(), Ordering::Relaxed);
        let counters = &sh.counters[me];
        // SAFETY: epoch edge held; externals, the fault plan and the
        // recorder are written by the driver between cycles only.
        let (ext, faults, rec) = unsafe {
            (
                sh.external.get(),
                sh.faults.get().as_ref(),
                sh.recorder.get().as_ref(),
            )
        };
        Lane {
            sh,
            me,
            epoch,
            ctx: CycleCtx {
                epoch,
                external_audio: &ext.audio,
                controls: &ext.controls,
                // Processors that book their own telemetry get the lane's
                // counters only when something will read them.
                counters: (telem || rec.is_some()).then_some(counters),
            },
            counters,
            faults,
            rec,
            telem,
            learn,
            armed: telem || learn || rec.is_some(),
        }
    }

    /// Absorb this lane's injected stalls, if a fault plan has any.
    fn stalls(&mut self) {
        let Some(plan) = self.faults else { return };
        let s0 = self.rec.map(|_| Instant::now());
        let injected = plan.inject_stalls(self.epoch, self.me, self.sh.threads, self.counters);
        if let (Some(s0), true) = (s0, injected > 0) {
            self.span(Span::NO_NODE, SpanKind::Fault, s0, Instant::now());
        }
    }

    /// Execute `node` and publish it done: the one copy of the
    /// fault → net counters → process → telemetry / learning / flight
    /// block.
    ///
    /// # Safety
    /// The caller is the exclusive executor of `node` this epoch and has
    /// observed every predecessor done (see [`ExecGraph::process`]).
    pub(crate) unsafe fn exec(&mut self, node: u32) {
        let graph = self.sh.graph();
        // An APC-phase node is not graph work: no faults, no exec booking.
        let is_apc = || graph.topology().section(NodeId(node)) == Section::Apc;
        let faults = self.faults.filter(|_| !is_apc());
        if !self.armed {
            if let Some(plan) = faults {
                plan.inject_node(self.epoch, node, self.counters);
            }
            // SAFETY: the caller's contract.
            unsafe { graph.execute(node as usize, &self.ctx) };
            return;
        }
        let t0 = Instant::now();
        let mut fault_end = t0;
        if let Some(plan) = faults {
            let injected = plan.inject_node(self.epoch, node, self.counters);
            if self.rec.is_some() && injected > 0 {
                fault_end = Instant::now();
            }
        }
        let net0 = self.counters.net_ns();
        // SAFETY: the caller's contract.
        unsafe { graph.process(node as usize, &self.ctx) };
        // The end stamp is taken BEFORE the publishing store: a successor
        // can start only after it acquires that store, so its recorded
        // start can never precede this recorded end, even if this worker
        // is pre-empted right here.
        let t1 = Instant::now();
        graph.publish(node as usize, self.epoch);
        let ns = (t1 - t0).as_nanos() as u64;
        if self.telem && !is_apc() {
            self.counters.add_exec(ns);
        }
        if self.learn {
            // SAFETY: the caller's contract.
            unsafe { self.sh.learn(node, ns) };
        }
        if let Some(rec) = self.rec {
            if fault_end > t0 {
                self.span(node, SpanKind::Fault, t0, fault_end);
            }
            self.exec_carved(rec, node, fault_end, t1, net0);
        }
    }

    /// Another lane of this session started its part of the cycle on the
    /// CPU this lane runs on now (or the platform cannot tell): a wait that
    /// kept spinning could be keeping that lane off the CPU.
    pub(crate) fn shares_cpu(&self) -> bool {
        let cpu = current_cpu();
        let other_lane_here =
            |(l, c): (usize, &AtomicU32)| l != self.me && c.load(Ordering::Relaxed) == cpu;
        cpu == UNKNOWN_CPU || self.sh.lane_cpus.iter().enumerate().any(other_lane_here)
    }

    /// Count one node of this cycle complete (`Release`: the lane's last
    /// access to it); `true` when it was the cycle's last. A node's
    /// successors must be released BEFORE this — the driver may start the
    /// next cycle as soon as the count is full.
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.sh.node_finished()
    }

    /// Open a wait interval: the current instant when anything is armed,
    /// `None` (and no clock read) otherwise.
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.armed.then(Instant::now)
    }

    /// Close a wait interval opened by [`clock`](Self::clock): the flight
    /// recorder gets a `kind` interval on `node`. Returns its length in ns
    /// for the caller to [`count`](Self::count).
    pub(crate) fn waited(&self, kind: SpanKind, node: u32, since: Option<Instant>) -> u64 {
        let Some(start) = since else { return 0 };
        let end = Instant::now();
        self.span(node, kind, start, end);
        (end - start).as_nanos() as u64
    }

    /// Book on this lane's telemetry counters, when telemetry is on.
    #[inline]
    pub(crate) fn count(&self, book: impl FnOnce(&CycleCounters)) {
        if self.telem {
            book(self.counters);
        }
    }

    /// Record `[start, end]` into this lane of the flight recorder, when
    /// one is installed.
    fn span(&self, node: u32, kind: SpanKind, start: Instant, end: Instant) {
        if let Some(rec) = self.rec {
            self.span_ns(rec, node, kind, rec.now_ns(start), rec.now_ns(end));
        }
    }

    fn span_ns(&self, rec: &FlightRecorder, node: u32, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let span = Span {
            cycle: self.epoch,
            node,
            worker: self.me as u32,
            start_ns,
            end_ns,
            kind,
        };
        // SAFETY: each worker owns exactly its own lane during a cycle.
        unsafe { rec.record(self.me, span) };
    }

    /// Record a node's execution interval `[start, end]`, carving the time
    /// its processor booked on the net counters into leading
    /// [`SpanKind::NetWait`] / [`SpanKind::Conceal`] spans (the remainder
    /// stays [`SpanKind::Exec`]). `net_before` is the lane's
    /// [`CycleCounters::net_ns`] reading taken just before the node ran.
    /// The three spans tile the interval exactly, so forensics blame still
    /// sums to the overrun.
    fn exec_carved(
        &self,
        rec: &FlightRecorder,
        node: u32,
        start: Instant,
        end: Instant,
        net_before: (u64, u64),
    ) {
        let (w1, c1) = self.counters.net_ns();
        let wait = w1.wrapping_sub(net_before.0);
        let conceal = c1.wrapping_sub(net_before.1);
        let (s, e) = (rec.now_ns(start), rec.now_ns(end));
        if wait == 0 && conceal == 0 {
            return self.span_ns(rec, node, SpanKind::Exec, s, e);
        }
        // Clamp so the carve never escapes the measured interval even if
        // the counter booked more time than the wall clock saw.
        let wait_end = s.saturating_add(wait).min(e);
        let conceal_end = wait_end.saturating_add(conceal).min(e);
        for (kind, start_ns, end_ns) in [
            (SpanKind::NetWait, s, wait_end),
            (SpanKind::Conceal, wait_end, conceal_end),
            (SpanKind::Exec, conceal_end, e),
        ] {
            if end_ns > start_ns {
                self.span_ns(rec, node, kind, start_ns, end_ns);
            }
        }
    }
}

/// What a pool entry points at: one session's shared state and its policy.
pub(crate) struct Session<P> {
    pub(crate) shared: Shared,
    pub(crate) policy: P,
}

impl<P: Policy> LaneRunner for Session<P> {
    fn lanes(&self) -> usize {
        self.shared.threads
    }

    unsafe fn run_lane(&self, me: usize, epoch: u64) {
        // SAFETY: the caller's contract is `Policy::run_lane`'s.
        unsafe {
            let mut lane = Lane::begin(&self.shared, me, epoch);
            lane.stalls();
            self.policy.run_lane(&mut lane);
        }
    }
}

/// A graph session on a [`VenuePool`], scheduled by wait policy `P`. All
/// six strategies are this type (see the aliases: `SequentialExecutor`,
/// `BusyExecutor`, `SleepExecutor`, `StealExecutor`, `HybridExecutor`,
/// `PlannedExecutor`); a solo executor is the one session of a private
/// pool.
pub struct PoolExecutor<P> {
    session: Arc<Session<P>>,
    pool: PoolBinding,
    /// The last cycle epoch handed out; driver-owned, published to the
    /// lanes through the pool entry under the pool epoch's `Release`.
    epoch: u64,
    telemetry: Option<TelemetryRing>,
    /// Cost learning armed from the next staged cycle on.
    learning: bool,
    tag: u32,
}

// The policy traits are crate-private on purpose (a closed set): from
// outside, these impls are reachable only through the six aliases.
#[allow(private_bounds)]
impl<P: Policy> PoolExecutor<P> {
    /// Register `exec` as a session of `threads` lanes on `pool`, scheduled
    /// by `policy`.
    ///
    /// # Panics
    /// Panics if `threads` is outside `1..=64` or exceeds the pool's lanes.
    pub(crate) fn register(
        exec: ExecGraph,
        threads: usize,
        pool: &Arc<VenuePool>,
        policy: P,
    ) -> Self {
        assert!((1..=64).contains(&threads), "1..=64 threads supported");
        let shared = Shared::new(exec, pool.session_handles(threads));
        let session = Arc::new(Session { shared, policy });
        let pool = pool.register(Arc::clone(&session) as Arc<dyn LaneRunner>);
        PoolExecutor {
            session,
            pool,
            epoch: 0,
            telemetry: None,
            learning: false,
            tag: 0,
        }
    }

    pub(crate) fn policy(&self) -> &P {
        &self.session.policy
    }

    fn ring(&self, capacity: usize) -> TelemetryRing {
        TelemetryRing::with_session(capacity, self.session.shared.threads, self.tag)
    }
}

impl<P: Policy> GraphExecutor for PoolExecutor<P> {
    fn strategy(&self) -> Strategy {
        P::STRATEGY
    }

    fn threads(&self) -> usize {
        self.session.shared.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self.venue_stage(external_audio, controls);
        self.pool.pool().dispatch();
        // SAFETY: the driver published this cycle itself and lane 0 is its.
        unsafe { self.session.run_lane(0, epoch) };
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> u64 {
        // The previous batch must be fully exited before any session state
        // is reset (a lagging pool worker could still be inside it).
        self.pool.pool().quiesce();
        let Session { shared, policy } = &*self.session;
        shared
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        shared.learning.store(self.learning, Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        unsafe {
            shared.prepare_cycle(external_audio, controls);
            policy.seed(shared);
            shared.start_cycle();
        }
        self.epoch += 1;
        self.pool.stage(self.epoch);
        self.epoch
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let Session { shared, policy } = &*self.session;
        shared.wait_cycle_done();
        policy.settle(shared);
        let end = Instant::now();
        // SAFETY: driver-owned; set by `start_cycle` this cycle.
        let start = unsafe { *shared.cycle_start.get() };
        let duration = end - start;
        shared.stamp_cycle(epoch, end);
        if let Some(ring) = self.telemetry.as_mut() {
            // Every counter update happens-before its worker's final
            // done-count increment (or, for workers that keep recording
            // until they leave the cycle loop, the barrier `settle` waited
            // on) — both acquired above.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            for (lane, out) in shared.counters.iter().zip(slot) {
                lane.drain_into(out);
            }
        }
        CycleResult { duration }
    }

    fn set_session(&mut self, session: u32) {
        self.tag = session;
        if let Some(r) = &self.telemetry {
            self.telemetry = Some(self.ring(r.capacity()));
        }
    }

    fn set_telemetry(&mut self, on: bool) {
        if !on {
            self.telemetry = None;
        } else if self.telemetry.is_none() {
            self.telemetry = Some(self.ring(DEFAULT_RING_CAPACITY));
        }
    }

    fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        let fresh = self.telemetry.as_ref().map(|r| self.ring(r.capacity()));
        std::mem::replace(&mut self.telemetry, fresh)
    }

    fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.pool.pool().quiesce();
        // SAFETY: driver-only between cycles (`&mut self`), pool quiescent;
        // published to workers by the next epoch Release store.
        unsafe { self.session.shared.faults.set(plan) };
    }

    fn set_learning(&mut self, on: bool) {
        if on {
            self.pool.pool().quiesce();
            // SAFETY: as `set_faults`.
            unsafe { self.session.shared.clear_costs() };
        }
        self.learning = on;
    }

    fn learned_quantiles(&mut self, q: f64) -> Vec<Option<u64>> {
        self.pool.pool().quiesce();
        // SAFETY: as `set_faults`.
        unsafe { self.session.shared.cost_quantiles(q) }
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        self.pool.pool().quiesce();
        let (lanes, session) = (self.session.shared.threads, self.tag);
        let rec = cfg.map(|c| FlightRecorder::new(lanes, FlightConfig { session, ..c }));
        // SAFETY: as `set_faults`.
        unsafe { self.session.shared.recorder.set(rec) };
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        self.pool.pool().quiesce();
        // SAFETY: as `set_faults`; recording continues into the emptied
        // buffers.
        unsafe { self.session.shared.recorder.get_mut() }
            .as_mut()
            .map(|r| r.take_window())
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Adoption {
        let (exec, plan) = staged.into_parts();
        self.pool.pool().quiesce();
        let Session { shared, policy } = &*self.session;
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no session state until the next
        // batch, whose epoch Release store publishes the swap.
        let adoption = unsafe { policy.adopt(shared, exec, plan) };
        if self.learning && adoption.0.is_ok() {
            // Histograms are indexed by node: a learning window restarts
            // on the new graph. SAFETY: as above.
            unsafe { shared.clear_costs() };
        }
        adoption
    }

    fn generation(&self) -> u64 {
        self.session.shared.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state.
        unsafe { self.session.shared.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.session.shared.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.session.shared.graph().topology()
    }
}

/// A policy that needs nothing from its caller but the session's shape —
/// BUSY, SLEEP and WS. Their executors share one set of constructors.
pub(crate) trait QueuePolicy: Policy {
    /// The policy state for a `threads`-lane session over `exec` on `pool`.
    fn for_session(exec: &ExecGraph, threads: usize, pool: &VenuePool) -> Self;
}

#[allow(private_bounds)]
impl<P: QueuePolicy> PoolExecutor<P> {
    /// Build the executor with `threads` lanes (including the calling
    /// thread) over `graph` with `frames`-frame buffers, on a private pool.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize) -> Self {
        let pool = Arc::new(VenuePool::new(threads));
        Self::with_pool(graph, threads, frames, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. `threads` is this session's lane count and
    /// must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let exec = ExecGraph::new(graph, frames);
        let policy = P::for_session(&exec, threads, pool);
        Self::register(exec, threads, pool, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fan_graph;
    use super::super::{
        BusyExecutor, HybridExecutor, PlannedExecutor, SequentialExecutor, SleepExecutor,
        StealExecutor, SwapError,
    };
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};

    fn make(strategy: Strategy, lanes: usize) -> Box<dyn GraphExecutor> {
        let g = fan_graph(5);
        match strategy {
            Strategy::Sequential => Box::new(SequentialExecutor::new(g, 8)),
            Strategy::Busy => Box::new(BusyExecutor::new(g, lanes, 8)),
            Strategy::Sleep => Box::new(SleepExecutor::new(g, lanes, 8)),
            Strategy::Steal => Box::new(StealExecutor::new(g, lanes, 8)),
            Strategy::Hybrid => Box::new(HybridExecutor::new(g, lanes, 8, 2_000)),
            Strategy::Planned => {
                let bp = ScheduleBlueprint::round_robin(g.topology(), lanes);
                Box::new(PlannedExecutor::new(g, 8, bp))
            }
        }
    }

    /// Every strategy is the same executor, so the control surface is the
    /// same: nothing is "unsupported" anywhere.
    #[test]
    fn control_surface_is_uniform_across_strategies_and_lanes() {
        for strategy in Strategy::ALL {
            for lanes in 1..=3 {
                let tag = format!("{strategy:?} x {lanes}");
                let mut ex = make(strategy, lanes);
                let nodes = ex.topology().len();
                assert_eq!(ex.strategy(), strategy, "{tag}");
                let want = if strategy == Strategy::Sequential {
                    1
                } else {
                    lanes
                };
                assert_eq!(ex.threads(), want, "{tag}");

                // `set_session` tags the next ring and flight window.
                ex.set_session(7);
                ex.set_telemetry(true);
                ex.set_flight_recorder(Some(FlightConfig::default()));
                ex.run_cycle(&[], &[]);
                let ring = ex.take_telemetry().expect("telemetry is on");
                assert_eq!((ring.session(), ring.len()), (7, 1), "{tag}");
                let window = ex.take_flight_window().expect("recorder installed");
                assert_eq!(window.session, 7, "{tag}");
                let execs = window.spans.iter().filter(|s| s.kind == SpanKind::Exec);
                assert_eq!(execs.count(), nodes, "{tag}: one Exec span per node");

                // `take_telemetry` hands back a ring and keeps recording.
                ex.run_cycle(&[], &[]);
                ex.run_cycle(&[], &[]);
                let ring = ex.take_telemetry().expect("still on");
                assert_eq!((ring.session(), ring.len()), (7, 2), "{tag}");
                let executed: u64 = ring.iter().map(|r| r.totals().nodes_executed).sum();
                assert_eq!(executed, 2 * nodes as u64, "{tag}");

                // A refused adopt returns the staged generation and leaves
                // the running one alone.
                let mut b = TaskGraphBuilder::new();
                b.add("ghost", Section::Master, crate::processor::vacant(2), &[]);
                let ghost = b.build().unwrap();
                let staged = if strategy == Strategy::Planned {
                    let bp = ScheduleBlueprint::round_robin(ghost.topology(), lanes);
                    StagedGeneration::with_plan(ghost, 8, bp).unwrap()
                } else {
                    StagedGeneration::new(ghost, 8)
                };
                let (verdict, retired) = ex.adopt_generation(staged);
                let missing = SwapError::MissingPart {
                    name: "ghost".into(),
                };
                assert_eq!(verdict, Err(missing), "{tag}");
                assert_eq!(retired.exec.topology().name(NodeId(0)), "ghost", "{tag}");
                assert_eq!((ex.generation(), ex.topology().len()), (0, nodes), "{tag}");
                ex.run_cycle(&[], &[]);
            }
        }
    }

    /// An APC-phase node runs and is recorded like any node, but takes no
    /// fault and is not booked as graph execution.
    #[test]
    fn apc_nodes_are_recorded_but_never_faulted_or_booked() {
        let pt = || Box::new(crate::processor::Passthrough) as Box<dyn crate::processor::Processor>;
        let mut b = TaskGraphBuilder::new();
        let phase = b.add("phase", Section::Apc, pt(), &[]);
        b.add("graph", Section::Master, pt(), &[phase]);
        let mut ex = SequentialExecutor::new(b.build().unwrap(), 8);
        let every_node_spikes = FaultPlan {
            spike_rate: 1.0,
            spike_iters: 10,
            ..FaultPlan::quiet(1)
        };
        ex.set_faults(Some(every_node_spikes));
        ex.set_telemetry(true);
        ex.set_flight_recorder(Some(FlightConfig::default()));
        for _ in 0..3 {
            ex.run_cycle(&[], &[]);
        }
        for record in ex.take_telemetry().expect("telemetry is on").iter() {
            let t = record.totals();
            assert_eq!((t.nodes_executed, t.fault_spikes), (1, 1));
        }
        let window = ex.take_flight_window().expect("recorder installed");
        let spans = |kind| window.spans.iter().filter(move |s| s.kind == kind);
        assert_eq!(
            spans(SpanKind::Exec).filter(|s| s.node == phase.0).count(),
            3
        );
        assert!(spans(SpanKind::Fault).all(|s| s.node != phase.0));
        assert_eq!(spans(SpanKind::Fault).count(), 3);
    }
}
