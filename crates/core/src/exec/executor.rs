//! [`PoolExecutor`]: the one executor (see the module docs of
//! [`exec`](super) for the policy table), the [`Policy`] value that makes a
//! session one strategy, and the [`Lane`] every policy drives.
//!
//! Policies never touch a clock, a counter or a recorder directly:
//! `lane.exec(node)` runs one node with fault injection, telemetry and
//! flight spans around it, `clock()` / `waited(..)` bracket a wait,
//! `count(..)` books it. A lane records each interval exactly once, into
//! the flight recorder, and while learning is armed folds each node's
//! execution time into that node's cost histogram; with nothing armed it
//! takes zero clock reads.

use super::planned::Replay;
use super::pool::{PoolBinding, VenuePool};
use super::stealing::Steal;
use super::{
    busy, current_cpu, sequential, sleeping, Adoption, CycleResult, ExecGraph, ScheduleBlueprint,
    Shared, StagedGeneration, Strategy, SwapError, UNKNOWN_CPU,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightRecorder, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Section};
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{CycleCounters, TelemetryRing, DEFAULT_RING_CAPACITY};
use djstar_dsp::AudioBuf;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the lanes of a session wait for dependencies: the part of a §V
/// strategy that is not shared, chosen from the [`Strategy`] when the
/// session is built. Only WS has state of its own beside the graph; PLAN
/// holds its bound blueprint.
// One per session, inside the session's `Arc`: WS's padded state stays
// inline, one pointer from the lanes.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Policy {
    /// SEQ: no waiting — one lane walks the whole depth queue.
    Seq,
    /// BUSY: static round-robin assignment + `Backoff` waits.
    Spin,
    /// PLAN: BUSY's wait over a blueprint's slots.
    Replay(Replay),
    /// SLEEP (`spin: false`): static round-robin assignment, park on an
    /// unmet dependency.
    ///
    /// HYBRID (`spin: true`), an extension: §VI frames the BUSY-vs-SLEEP
    /// trade-off as all-or-nothing — spinning wins because cycles are
    /// short, "if wasting resources on waiting is not an option,
    /// work-stealing is a solid alternative". The classic middle ground,
    /// spin for a bounded time and then park, is the follow-up the paper
    /// leaves open: a blocked lane polls for [`SPIN_PHASE`](super::SPIN_PHASE)
    /// (10 µs by the clock, the spin phase of every executor wait), then
    /// parks like SLEEP; once a phase that ran out finds the lane's CPU
    /// shared with another lane of the session, the lane's later waits of
    /// that cycle park at once. The simulator's `simulate_hybrid` sweeps
    /// other spin lengths as a what-if.
    Park {
        /// Poll through the spin phase before parking.
        spin: bool,
    },
    /// WS: per-lane deques of ready nodes plus the idle set.
    Steal(Steal),
}

impl Policy {
    /// The policy of a `lanes`-lane `strategy` session over `exec` on
    /// `pool`; PLAN replays `plan`, which must have been bound for
    /// `lanes` lanes — the check [`adopt`](Self::adopt) makes too.
    fn new(
        strategy: Strategy,
        exec: &ExecGraph,
        plan: Option<ScheduleBlueprint>,
        lanes: usize,
        pool: &VenuePool,
    ) -> Result<Self, SwapError> {
        Ok(match strategy {
            Strategy::Sequential => Policy::Seq,
            Strategy::Busy => Policy::Spin,
            Strategy::Sleep => Policy::Park { spin: false },
            Strategy::Hybrid => Policy::Park { spin: true },
            Strategy::Steal => Policy::Steal(Steal::new(exec.len(), lanes, pool)),
            Strategy::Planned => Policy::Replay(Replay::new(plan, lanes)?),
        })
    }

    /// The label sessions of this policy report.
    fn strategy(&self) -> Strategy {
        match self {
            Policy::Seq => Strategy::Sequential,
            Policy::Spin => Strategy::Busy,
            Policy::Replay(_) => Strategy::Planned,
            Policy::Park { spin: false } => Strategy::Sleep,
            Policy::Park { spin: true } => Strategy::Hybrid,
            Policy::Steal(_) => Strategy::Steal,
        }
    }

    /// Run lane `lane.me` of cycle `lane.epoch` to completion: execute
    /// every node this lane owns, each exactly once and only after its
    /// predecessors are done, calling `lane.done()` after each.
    ///
    /// # Safety
    /// The caller holds the epoch happens-before edge (pool-epoch `Acquire`
    /// for workers; the driver published the cycle itself) and is the only
    /// participant running this lane of this session this cycle.
    unsafe fn run_lane(&self, lane: &mut Lane<'_>) {
        // SAFETY: the caller's contract is each loop's.
        unsafe {
            match self {
                Policy::Seq => sequential::run_lane(lane),
                Policy::Spin => busy::run_lane(lane),
                Policy::Replay(replay) => replay.run_lane(lane),
                Policy::Park { spin } => sleeping::run_lane(lane, *spin),
                Policy::Steal(steal) => steal.run_lane(lane),
            }
        }
    }

    /// Driver-side, after `prepare_cycle` and before the epoch is
    /// published: hand out the cycle's initial work (WS seeds its deques).
    fn seed(&self, sh: &Shared) {
        if let Policy::Steal(steal) = self {
            steal.seed(sh);
        }
    }

    /// Driver-side, after the done-count barrier: wait for whatever else
    /// must be quiet before the driver owns the session again (WS: its
    /// exit barrier).
    fn settle(&self, sh: &Shared) {
        if let Policy::Steal(steal) = self {
            steal.settle(sh);
        }
    }

    /// Swap in a staged generation, and whatever policy state is sized or
    /// bound to it: PLAN checks and swaps the blueprint, WS grows its
    /// deques.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight and the pool quiesced.
    unsafe fn adopt(
        &self,
        sh: &Shared,
        exec: ExecGraph,
        plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        // SAFETY: the caller's contract.
        unsafe {
            match self {
                Policy::Replay(replay) => replay.adopt(sh, exec, plan),
                Policy::Steal(steal) => steal.adopt(sh, exec, plan),
                _ => sh.adopt_exec(exec, plan),
            }
        }
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
    /// A wait of this cycle found [`shares_cpu`](Self::shares_cpu) true.
    shared: Cell<bool>,
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
            shared: Cell::new(false),
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

    /// Execute the sibling group `members` as one batch and publish every
    /// member done: faults are injected per member, then one
    /// [`ExecGraph::process_batch`] runs them all. When armed, each member
    /// is booked an equal share of the batch's interval — its `exec_ns`,
    /// its learned cost and its flight span, laid contiguously in member
    /// order — so the shares sum to the interval exactly. Allocates
    /// nothing.
    ///
    /// # Safety
    /// As [`exec`](Self::exec), for every member; `members` is one of the
    /// topology's [`runs`](GraphTopology::runs).
    pub(crate) unsafe fn exec_batch(&mut self, members: &[u32]) {
        let graph = self.sh.graph();
        let inject = |plan: &FaultPlan| {
            let each = members
                .iter()
                .map(|&m| plan.inject_node(self.epoch, m, self.counters));
            each.sum::<u64>()
        };
        if !self.armed {
            if let Some(plan) = self.faults {
                inject(plan);
            }
            // SAFETY: the caller's contract.
            unsafe { graph.process_batch(members, &self.ctx) };
            for &m in members {
                graph.publish(m as usize, self.epoch);
            }
            return;
        }
        let t0 = Instant::now();
        let mut fault_end = t0;
        if self.faults.map_or(0, inject) > 0 && self.rec.is_some() {
            fault_end = Instant::now();
        }
        let net0 = self.counters.net_ns();
        // SAFETY: the caller's contract.
        unsafe { graph.process_batch(members, &self.ctx) };
        // Stamped before the publishing stores, as in `exec`.
        let t1 = Instant::now();
        for &m in members {
            graph.publish(m as usize, self.epoch);
        }
        // Member k's share of `total`: [total·k/n, total·(k+1)/n).
        let n = members.len() as u64;
        let share = |total: u64, k: u64| (total * k / n, total * (k + 1) / n);
        let total = (t1 - t0).as_nanos() as u64;
        for (k, &m) in (0..).zip(members) {
            let (from, to) = share(total, k);
            if self.telem {
                self.counters.add_exec(to - from);
            }
            if self.learn {
                // SAFETY: the caller's contract.
                unsafe { self.sh.learn(m, to - from) };
            }
        }
        if let Some(rec) = self.rec {
            if fault_end > t0 {
                self.span(members[0], SpanKind::Fault, t0, fault_end);
            }
            let (s, e) = (rec.now_ns(fault_end), rec.now_ns(t1));
            let mut net_before = net0;
            for (k, &m) in (0..).zip(members) {
                let (from, to) = share(e - s, k);
                self.exec_carved_ns(rec, m, s + from, s + to, net_before);
                net_before = self.counters.net_ns();
            }
        }
    }

    /// Another lane of this session started its part of the cycle on the
    /// CPU this lane runs on now (or the platform cannot tell): a wait that
    /// kept spinning could be keeping that lane off the CPU. Once true, it
    /// stays true for the rest of the cycle without asking again.
    pub(crate) fn shares_cpu(&self) -> bool {
        if self.shared.get() {
            return true;
        }
        let cpu = current_cpu();
        let other_lane_here =
            |(l, c): (usize, &AtomicU32)| l != self.me && c.load(Ordering::Relaxed) == cpu;
        let shared =
            cpu == UNKNOWN_CPU || self.sh.lane_cpus.iter().enumerate().any(other_lane_here);
        self.shared.set(shared);
        shared
    }

    /// An earlier wait of this cycle found the CPU shared: a later one
    /// yields (BUSY, PLAN) or parks (HYBRID) without spinning first.
    pub(crate) fn known_shared(&self) -> bool {
        self.shared.get()
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
        let (s, e) = (rec.now_ns(start), rec.now_ns(end));
        self.exec_carved_ns(rec, node, s, e, net_before);
    }

    /// [`exec_carved`](Self::exec_carved) on recorder nanoseconds `[s, e]`.
    fn exec_carved_ns(
        &self,
        rec: &FlightRecorder,
        node: u32,
        s: u64,
        e: u64,
        net_before: (u64, u64),
    ) {
        let (w1, c1) = self.counters.net_ns();
        let wait = w1.wrapping_sub(net_before.0);
        let conceal = c1.wrapping_sub(net_before.1);
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
pub(crate) struct Session {
    pub(crate) shared: Shared,
    pub(crate) policy: Policy,
}

impl Session {
    /// Lanes this session runs on (`1..=pool lanes`).
    pub(crate) fn lanes(&self) -> usize {
        self.shared.threads
    }

    /// Run lane `me` of this session's cycle `epoch`.
    ///
    /// # Safety
    /// As [`Policy::run_lane`].
    pub(crate) unsafe fn run_lane(&self, me: usize, epoch: u64) {
        // SAFETY: the caller's contract.
        unsafe {
            let mut lane = Lane::begin(&self.shared, me, epoch);
            lane.stalls();
            self.policy.run_lane(&mut lane);
        }
    }
}

/// A graph session on a [`VenuePool`], scheduled by the wait policy of its
/// [`Strategy`]. Every strategy is this type; a solo executor is the one
/// session of a private pool, SEQ a one-lane session.
pub struct PoolExecutor {
    session: Arc<Session>,
    pool: PoolBinding,
    /// The last cycle epoch handed out; driver-owned, published to the
    /// lanes through the pool entry under the pool epoch's `Release`.
    epoch: u64,
    telemetry: Option<TelemetryRing>,
    /// Cost learning armed from the next staged cycle on.
    learning: bool,
    tag: u32,
}

impl PoolExecutor {
    /// Build a `strategy` session of `lanes` lanes (including the calling
    /// thread; SEQ takes one whatever `lanes` says) running `staged`, on a
    /// private pool of exactly those lanes. See
    /// [`with_pool`](Self::with_pool).
    ///
    /// # Panics
    /// Panics if the session's lane count is outside `1..=64`.
    pub fn new(
        strategy: Strategy,
        staged: StagedGeneration,
        lanes: usize,
    ) -> Result<Self, SwapError> {
        let pool = Arc::new(VenuePool::new(strategy.lanes(lanes)));
        Self::with_pool(strategy, staged, lanes, &pool)
    }

    /// Build a `strategy` session of `lanes` lanes running `staged` and
    /// register it on `pool`. The session takes `staged` the way
    /// [`adopt_generation`](Self::adopt_generation) would, from a running
    /// generation with no nodes: PLAN refuses a generation staged without
    /// a blueprint or bound for another lane count, and every strategy
    /// refuses a [`vacant`](crate::processor::vacant) node. Other
    /// strategies ignore a staged blueprint.
    ///
    /// # Panics
    /// Panics if the session's lane count is outside `1..=64` or exceeds
    /// the pool's.
    pub fn with_pool(
        strategy: Strategy,
        staged: StagedGeneration,
        lanes: usize,
        pool: &Arc<VenuePool>,
    ) -> Result<Self, SwapError> {
        let lanes = strategy.lanes(lanes);
        assert!((1..=64).contains(&lanes), "1..=64 lanes supported");
        let (mut exec, plan) = staged.into_parts();
        exec.check_filled()?;
        let policy = Policy::new(strategy, &exec, plan, lanes, pool)?;
        let shared = Shared::new(exec, pool.session_handles(lanes));
        let session = Arc::new(Session { shared, policy });
        let pool = pool.register(Arc::clone(&session));
        Ok(PoolExecutor {
            session,
            pool,
            epoch: 0,
            telemetry: None,
            learning: false,
            tag: 0,
        })
    }

    fn ring(&self, capacity: usize) -> TelemetryRing {
        TelemetryRing::with_session(capacity, self.session.shared.threads, self.tag)
    }

    /// Which strategy this executor runs.
    pub fn strategy(&self) -> Strategy {
        self.session.policy.strategy()
    }

    /// Number of lanes (including the calling thread).
    pub fn threads(&self) -> usize {
        self.session.shared.threads
    }

    /// PLAN: the blueprint being replayed (for the current generation).
    pub fn blueprint(&self) -> Option<&ScheduleBlueprint> {
        match &self.session.policy {
            Policy::Replay(replay) => Some(replay.plan()),
            _ => None,
        }
    }

    /// Execute one full graph cycle with the given external audio (see
    /// [`CycleCtx::external_audio`]; the engine passes none) and controls.
    pub fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self.venue_stage(external_audio, controls);
        self.pool.pool().dispatch();
        // SAFETY: the driver published this cycle itself and lane 0 is its.
        unsafe { self.session.run_lane(0, epoch) };
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    /// Venue path, first half: publish this session's cycle (reset the
    /// graph, copy externals, bump the session epoch) WITHOUT dispatching
    /// pool workers, and stage it for the pool's next batch. Returns the
    /// session epoch to pass to [`venue_collect`](Self::venue_collect).
    /// After staging every session, the caller fires one
    /// [`VenuePool::dispatch`], runs each staged session's driver share via
    /// [`VenuePool::run_driver_parts`], and collects.
    pub fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> u64 {
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

    /// Venue path, second half: wait for this session's staged cycle
    /// (published by [`venue_stage`](Self::venue_stage)) to complete and
    /// harvest its timing, telemetry and cycle stamp exactly as
    /// `run_cycle` would. Must only be called with the epoch returned by
    /// the matching `venue_stage`, after the batch was dispatched and the
    /// driver parts ran.
    pub fn venue_collect(&mut self, epoch: u64) -> CycleResult {
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

    /// Tag this executor's exported telemetry rings and flight windows
    /// with a venue session id (0 = single-session default). Takes effect
    /// for rings/recorders installed *after* the call; the venue server
    /// sets it once, right after construction.
    pub fn set_session(&mut self, session: u32) {
        self.tag = session;
        if let Some(r) = &self.telemetry {
            self.telemetry = Some(self.ring(r.capacity()));
        }
    }

    /// Enable/disable telemetry counter collection (a handful of
    /// `Relaxed` counter adds per node, no allocation inside a cycle); off
    /// by default.
    pub fn set_telemetry(&mut self, on: bool) {
        if !on {
            self.telemetry = None;
        } else if self.telemetry.is_none() {
            self.telemetry = Some(self.ring(DEFAULT_RING_CAPACITY));
        }
    }

    /// Take the ring of per-cycle telemetry records collected so far.
    /// Collection continues afterwards (with a fresh ring) if telemetry is
    /// still enabled. `None` when telemetry is off.
    pub fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        let fresh = self.telemetry.as_ref().map(|r| self.ring(r.capacity()));
        std::mem::replace(&mut self.telemetry, fresh)
    }

    /// Install (or clear, with `None`) a fault-injection plan. Driver-only
    /// between cycles (`&mut self`); takes effect from the next
    /// `run_cycle`. With no plan installed the node-execution path pays
    /// one well-predicted branch on an already-loaded `Option` per node,
    /// nothing more.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.pool.pool().quiesce();
        // SAFETY: driver-only between cycles (`&mut self`), pool quiescent;
        // published to workers by the next epoch Release store.
        unsafe { self.session.shared.faults.set(plan) };
    }

    /// Arm (or disarm) per-node cost learning. While armed, the lane that
    /// runs a node folds the node's execution time — the interval
    /// telemetry's `exec_ns` books, injected faults included — into that
    /// node's preallocated log histogram; arming clears every histogram.
    /// Takes effect from the next cycle and allocates nothing. A session
    /// holds one histogram per node of the graph it was built with: after
    /// a swap to a larger graph, the nodes past that count go unrecorded.
    pub fn set_learning(&mut self, on: bool) {
        if on {
            self.pool.pool().quiesce();
            // SAFETY: as `set_faults`.
            unsafe { self.session.shared.clear_costs() };
        }
        self.learning = on;
    }

    /// The nearest-rank `q`-quantile (`q` in `(0, 1]`) of each node's
    /// learned execution time in ns, in node order, within 3.2 % (half a
    /// histogram bucket); `None` for a node with no sample. Driver-only
    /// between cycles (`&mut self`).
    pub fn learned_quantiles(&mut self, q: f64) -> Vec<Option<u64>> {
        self.pool.pool().quiesce();
        // SAFETY: as `set_faults`.
        unsafe { self.session.shared.cost_quantiles(q) }
    }

    /// Install (or clear, with `None`) a flight recorder sized by `cfg`
    /// and tagged with the executor's session id. All buffers are
    /// allocated here, up front; from the next cycle the executor records
    /// every Exec/BusyWait/Sleep/Steal/Unpark/Fault/NetWait/Conceal
    /// interval into pre-allocated overwrite-oldest per-worker rings — the
    /// executor's one recording primitive, which
    /// [`ScheduleTrace::of_cycle`](crate::trace::ScheduleTrace::of_cycle)
    /// folds into a cycle's schedule trace. Disabled, the hot path pays one
    /// plain load of the empty slot — the same zero-cost-when-off contract
    /// as [`set_faults`](Self::set_faults).
    pub fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        self.pool.pool().quiesce();
        let (lanes, session) = (self.session.shared.threads, self.tag);
        let rec = cfg.map(|c| FlightRecorder::new(lanes, FlightConfig { session, ..c }));
        // SAFETY: as `set_faults`.
        unsafe { self.session.shared.recorder.set(rec) };
    }

    /// Freeze and take the flight-recorder capture accumulated so far
    /// (spans + cycle stamps); recording continues into the emptied
    /// buffers. `None` when no recorder is installed. Driver-only between
    /// cycles (`&mut self`).
    pub fn take_flight_window(&mut self) -> Option<FlightWindow> {
        self.pool.pool().quiesce();
        // SAFETY: as `set_faults`; recording continues into the emptied
        // buffers.
        unsafe { self.session.shared.recorder.get_mut() }
            .as_mut()
            .map(|r| r.take_window())
    }

    /// Adopt a staged topology generation at a cycle boundary (`&mut self`
    /// proves no cycle is in flight). Runtime state of nodes that exist in
    /// both generations (matched by name) is carried over; workers are not
    /// torn down — the next cycle's epoch store publishes the new graph.
    /// Returns the new generation number; on `Err` the running generation
    /// is unchanged. Either way a generation comes back — the replaced one,
    /// or the refused `staged` — for the caller to drop off the audio
    /// thread: the adopt itself frees neither.
    pub fn adopt_generation(&mut self, staged: StagedGeneration) -> Adoption {
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

    /// The topology generation currently running (0 before any swap).
    pub fn generation(&self) -> u64 {
        self.session.shared.generation.load(Ordering::Relaxed)
    }

    /// Copy a node's output buffer into `dst` (call between cycles only;
    /// enforced by `&mut self`).
    pub fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state.
        unsafe { self.session.shared.graph().read_output_unsync(node, dst) };
    }

    /// Mutable access to a node's processor between cycles (to turn knobs).
    pub fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.session.shared.graph().node_processor_unsync(node) }
    }

    /// The graph topology.
    pub fn topology(&self) -> &GraphTopology {
        self.session.shared.graph().topology()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{build, fan_graph};
    use super::super::SwapError;
    use super::*;
    use crate::graph::TaskGraphBuilder;

    /// Every strategy is the same executor, so the control surface is the
    /// same: nothing is "unsupported" anywhere.
    #[test]
    fn control_surface_is_uniform_across_strategies_and_lanes() {
        for strategy in Strategy::ALL {
            for lanes in 1..=3 {
                let tag = format!("{strategy:?} x {lanes}");
                let mut ex = build(strategy, fan_graph(5), lanes);
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
                let staged = StagedGeneration::round_robin(ghost, 8, lanes);
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

    /// A session is built the way it adopts: PLAN refuses a generation
    /// staged without a blueprint or for another lane count, every
    /// strategy a vacant node; SEQ takes one lane whatever it is given.
    #[test]
    fn construction_refuses_what_adopt_refuses() {
        let planless = StagedGeneration::new(fan_graph(5), 8);
        let refused = PoolExecutor::new(Strategy::Planned, planless, 2).err();
        assert_eq!(refused, Some(SwapError::NoPlan));
        let three = StagedGeneration::round_robin(fan_graph(5), 8, 3);
        let refused = PoolExecutor::new(Strategy::Planned, three, 2).err();
        let mismatch = SwapError::ThreadMismatch {
            expected: 2,
            got: 3,
        };
        assert_eq!(refused, Some(mismatch));
        for strategy in Strategy::ALL {
            let mut b = TaskGraphBuilder::new();
            b.add("ghost", Section::Master, crate::processor::vacant(2), &[]);
            let staged = StagedGeneration::round_robin(b.build().unwrap(), 8, 2);
            let missing = SwapError::MissingPart {
                name: "ghost".into(),
            };
            let refused = PoolExecutor::new(strategy, staged, 2).err();
            assert_eq!(refused, Some(missing), "{strategy:?}");
        }
        let seq = build(Strategy::Sequential, fan_graph(5), 4);
        assert_eq!((seq.threads(), seq.blueprint()), (1, None));
        // An executor can move to the thread that drives it.
        fn assert_send<T: Send>() {}
        assert_send::<PoolExecutor>();
    }

    /// An APC-phase node runs and is recorded like any node, but takes no
    /// fault and is not booked as graph execution.
    #[test]
    fn apc_nodes_are_recorded_but_never_faulted_or_booked() {
        let pt = || Box::new(crate::processor::Passthrough) as Box<dyn crate::processor::Processor>;
        let mut b = TaskGraphBuilder::new();
        let phase = b.add("phase", Section::Apc, pt(), &[]);
        b.add("graph", Section::Master, pt(), &[phase]);
        let mut ex = build(Strategy::Sequential, b.build().unwrap(), 1);
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
