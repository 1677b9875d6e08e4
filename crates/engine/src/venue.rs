//! Venue server: many independent APC engines on one shared worker pool.
//!
//! A venue hosts N DJ sessions — each a full [`AudioEngine`] with its own
//! decks, timecode, control surface and task graph — against **one**
//! persistent [`VenuePool`]. Every sound-card period is one batch: each
//! session's whole APC (TP, GP, graph and VC are nodes of its one task
//! graph, see [`crate::front`]) goes onto the pool together:
//!
//! 1. stage every session ([`AudioEngine::venue_stage`]) without waking
//!    anyone,
//! 2. one [`VenuePool::dispatch`] publishing the whole batch to the
//!    workers,
//! 3. [`VenuePool::run_driver_parts`] so the driver contributes lane 0,
//! 4. collect per session ([`AudioEngine::venue_finish`]). A sequential
//!    session is a one-lane session like any other: step 3 runs it.
//!
//! **Admission control** is the engine's one [`AdmissionControl`]: a
//! candidate session's per-cycle cost is bounded by [`shape_bound_ns`] —
//! the list schedule of its graph, TP, GP and VC nodes included, on the
//! lanes it requests, nodes priced by the static
//! [`NodeCostModel::prior`] at the session's aux weights — and it is
//! admitted only if that bound fits the margined deadline beside the
//! summed bounds of the sessions already admitted. Nothing runs to admit
//! a session. Once the admitted engine has learned its node costs in
//! place (its cycle 16), the venue re-prices the session's bound under
//! them, so [`load_ns`](VenueServer::load_ns) becomes a measured value.
//! The bound is a p50-cost list bound that has not been proven sound:
//! measured two-session batches can run longer than the summed bounds
//! (`sim.bound_slack_pct` reads negative). Rejections are counted.
//!
//! **Per-session accounting**: each session carries its own cycle/miss
//! counters (verdict: that session's TP+GP+Graph+VC against the venue
//! deadline), its own degradation governor (armed through the engine),
//! and a session id stamped into every telemetry ring and flight window
//! it records — so a `MissDossier` built from a venue capture names the
//! offending session.

use crate::apc::{ApcTiming, AudioEngine, AuxWork, GovernorOutcome};
use crate::graphbuild::GraphShape;
use crate::modes::{shape_bound_ns, AdmissionControl, NodeCostModel, Unschedulable};
use djstar_core::exec::{Strategy, VenuePool};
use djstar_workload::scenario::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the venue needs to know about a candidate session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Workload (decks, tracks, net) the session will run.
    pub scenario: Scenario,
    /// Dispatch policy for the session's graph on the shared pool.
    pub strategy: Strategy,
    /// Pool lanes the session wants (1..=pool lanes).
    pub threads: usize,
    /// Non-graph phase weights.
    pub aux: AuxWork,
}

struct VenueSession {
    id: u32,
    engine: AudioEngine,
    bound_ns: u64,
    /// `bound_ns` is the venue's own pricing (`admit`), not the caller's
    /// (`admit_bounded`): it is re-priced once the engine learned its
    /// node costs.
    priced: bool,
    cycles: u64,
    misses: u64,
    last: ApcTiming,
    /// The epoch staged for the batch in flight.
    epoch: u64,
}

/// A multi-session host: one worker pool, N engines, per-session
/// deadlines, admission control.
pub struct VenueServer {
    pool: Arc<VenuePool>,
    sessions: Vec<VenueSession>,
    admission: AdmissionControl,
    rejections: u64,
    next_id: u32,
}

impl VenueServer {
    /// A venue with `threads` pool lanes (driver + threads−1 workers), a
    /// per-cycle deadline and an admission safety margin in `[0, 1)`.
    pub fn new(threads: usize, deadline: Duration, margin: f64) -> Self {
        VenueServer {
            pool: Arc::new(VenuePool::new(threads)),
            sessions: Vec::new(),
            admission: AdmissionControl::new(deadline.as_nanos() as u64, margin),
            rejections: 0,
            next_id: 1,
        }
    }

    /// The shared pool.
    pub fn pool(&self) -> &Arc<VenuePool> {
        &self.pool
    }

    /// The venue deadline in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.admission.deadline_ns()
    }

    /// The admission safety margin.
    pub fn margin(&self) -> f64 {
        self.admission.margin()
    }

    /// The per-cycle budget admission tests against (ns).
    pub fn budget_ns(&self) -> u64 {
        self.admission.budget_ns()
    }

    /// Summed admission bounds of the current session set (ns).
    pub fn load_ns(&self) -> u64 {
        self.sessions
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.bound_ns))
    }

    /// Sessions turned away so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Number of admitted sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Ids of the admitted sessions, in admission order.
    pub fn session_ids(&self) -> Vec<u32> {
        self.sessions.iter().map(|s| s.id).collect()
    }

    /// Admit `spec` if the venue stays schedulable with it, building its
    /// engine on the shared pool and tagging it with a fresh session id.
    /// The bound prices the session's shape with the static cost prior at
    /// its aux weights, on `spec.threads` lanes, and is re-priced from the
    /// engine's learned costs once it has them. Otherwise count and return
    /// the rejection.
    pub fn admit(&mut self, spec: SessionSpec) -> Result<u32, Unschedulable> {
        let shape = GraphShape::for_net(&spec.scenario.net);
        let costs = NodeCostModel::prior(&spec.scenario, &shape, spec.aux);
        let bound_ns = shape_bound_ns(&spec.scenario, &shape, &costs, spec.threads);
        self.admit_priced(spec, bound_ns, true)
    }

    /// [`admit`](Self::admit) with a caller-supplied bound, kept as given
    /// (for harnesses that already measured the workload).
    pub fn admit_bounded(
        &mut self,
        spec: SessionSpec,
        bound_ns: u64,
    ) -> Result<u32, Unschedulable> {
        self.admit_priced(spec, bound_ns, false)
    }

    fn admit_priced(
        &mut self,
        spec: SessionSpec,
        bound_ns: u64,
        priced: bool,
    ) -> Result<u32, Unschedulable> {
        assert!(
            spec.threads >= 1 && spec.threads <= self.pool.threads(),
            "session wants {} lanes but the pool has {}",
            spec.threads,
            self.pool.threads()
        );
        let node_count = GraphShape::for_net(&spec.scenario.net).node_count();
        self.admission
            .admit(bound_ns, self.load_ns(), node_count)
            .inspect_err(|_| self.rejections += 1)?;
        let id = self.next_id;
        self.next_id += 1;
        let SessionSpec {
            scenario,
            strategy,
            threads,
            aux,
        } = spec;
        let mut engine = AudioEngine::on_pool(scenario, strategy, threads, aux, &self.pool);
        engine.set_session(id);
        self.sessions.push(VenueSession {
            id,
            engine,
            bound_ns,
            priced,
            cycles: 0,
            misses: 0,
            last: ApcTiming::default(),
            epoch: 0,
        });
        Ok(id)
    }

    /// Tear a session down (its engine drops, unregistering from the
    /// pool). Returns false if `id` is unknown.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.sessions.iter().position(|s| s.id == id) {
            Some(i) => {
                self.sessions.remove(i);
                true
            }
            None => false,
        }
    }

    fn find(&self, id: u32) -> Option<&VenueSession> {
        self.sessions.iter().find(|s| s.id == id)
    }

    /// Borrow a session's engine (e.g. to install faults or telemetry).
    pub fn engine_mut(&mut self, id: u32) -> Option<&mut AudioEngine> {
        self.sessions
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| &mut s.engine)
    }

    /// A session's bound (ns): the one it was admitted at, re-priced from
    /// learned costs for a session [`admit`](Self::admit) priced.
    pub fn bound_ns(&self, id: u32) -> Option<u64> {
        self.find(id).map(|s| s.bound_ns)
    }

    /// A session's deadline misses so far.
    pub fn misses(&self, id: u32) -> Option<u64> {
        self.find(id).map(|s| s.misses)
    }

    /// A session's cycles run so far.
    pub fn cycles(&self, id: u32) -> Option<u64> {
        self.find(id).map(|s| s.cycles)
    }

    /// A session's most recent cycle timing.
    pub fn last_timing(&self, id: u32) -> Option<ApcTiming> {
        self.find(id).map(|s| s.last)
    }

    /// Run one batched cycle across every session — one pool dispatch —
    /// and return the batch wall time. Per session: cycle/miss counters
    /// update against the
    /// venue deadline and, if its degradation governor is armed, the
    /// verdict feeds it (shed/restore commits ride the engine's
    /// glitch-free swap path). Steady-state calls perform no heap
    /// allocation.
    pub fn run_cycle(&mut self) -> Duration {
        let t0 = Instant::now();
        if self.sessions.is_empty() {
            return t0.elapsed();
        }
        let deadline_ns = self.deadline_ns();
        for s in &mut self.sessions {
            s.epoch = s.engine.venue_stage();
        }
        self.pool.dispatch();
        self.pool.run_driver_parts();
        for s in &mut self.sessions {
            let t = s.engine.venue_finish(s.epoch);
            s.cycles += 1;
            s.last = t;
            let missed = t.total().as_nanos() as u64 > deadline_ns;
            if missed {
                s.misses += 1;
            }
            let _: Option<GovernorOutcome> = s.engine.observe_deadline(missed);
            if s.priced && s.engine.learned_now() {
                let e = &s.engine;
                s.bound_ns = shape_bound_ns(e.scenario(), e.shape(), e.costs(), e.threads());
            }
        }
        t0.elapsed()
    }

    /// Run `n` batched cycles (warm-up, steady-state measurement).
    pub fn run_cycles(&mut self, n: usize) {
        for _ in 0..n {
            self.run_cycle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djstar_workload::scenario::Scenario;

    fn spec(strategy: Strategy, threads: usize) -> SessionSpec {
        SessionSpec {
            scenario: Scenario::light_test(),
            strategy,
            threads,
            aux: AuxWork::light(),
        }
    }

    #[test]
    fn venue_runs_mixed_strategies_bitexact_with_solo() {
        let mut venue = VenueServer::new(3, Duration::from_secs(1), 0.0);
        let a = venue
            .admit_bounded(spec(Strategy::Busy, 3), 1)
            .expect("admit a");
        let b = venue
            .admit_bounded(spec(Strategy::Steal, 2), 1)
            .expect("admit b");
        let c = venue
            .admit_bounded(spec(Strategy::Sequential, 1), 1)
            .expect("admit c");
        venue.run_cycles(20);

        let mut solo = AudioEngine::with_aux(
            Scenario::light_test(),
            Strategy::Sequential,
            1,
            AuxWork::light(),
        );
        solo.warmup(20);
        let want = solo.output();
        for id in [a, b, c] {
            assert_eq!(venue.cycles(id), Some(20));
            let got = venue.engine_mut(id).unwrap().output();
            assert_eq!(got.channel(0), want.channel(0), "session {id} diverged");
            assert_eq!(got.channel(1), want.channel(1), "session {id} diverged");
        }
    }

    #[test]
    fn admission_rejects_when_bounds_overflow_the_budget() {
        let mut venue = VenueServer::new(2, Duration::from_micros(100), 0.1);
        // Budget is 90 µs; two 40 µs sessions fit, a third does not.
        venue
            .admit_bounded(spec(Strategy::Busy, 2), 40_000)
            .expect("first fits");
        venue
            .admit_bounded(spec(Strategy::Busy, 2), 40_000)
            .expect("second fits");
        let err = venue
            .admit_bounded(spec(Strategy::Busy, 2), 40_000)
            .expect_err("third must be rejected");
        assert_eq!(err.bound_ns, 40_000);
        assert_eq!(err.load_ns, 80_000);
        assert_eq!(err.budget_ns, 90_000);
        assert_eq!(err.node_count, GraphShape::paper_default().node_count());
        assert_eq!(venue.rejections(), 1);
        assert_eq!(venue.session_count(), 2);
        // The oracle agrees the rejection was necessary.
        assert!(!djstar_sim::admissible(
            &[40_000, 40_000, 40_000],
            100_000,
            0.1
        ));
    }

    #[test]
    fn priced_admission_fills_then_rejects() {
        let mut venue = VenueServer::new(2, Duration::from_secs(2), 0.0);
        let id = venue
            .admit(spec(Strategy::Sleep, 2))
            .expect("a light session must fit a 2 s deadline");
        assert_eq!(venue.session_count(), 1);
        let bound = venue.bound_ns(id).expect("admitted above");
        assert!(bound > 0);
        assert!(bound <= venue.budget_ns());
        // Nothing is left for a session that wants the whole budget.
        let err = venue
            .admit_bounded(spec(Strategy::Sleep, 2), venue.budget_ns())
            .expect_err("the budget is spent");
        assert_eq!((err.bound_ns, err.load_ns), (venue.budget_ns(), bound));
        assert_eq!(venue.rejections(), 1);
    }

    #[test]
    fn a_resize_past_the_shared_pool_is_refused_and_the_session_keeps_running() {
        use crate::reconfig::{EditError, GraphEdit, ReconfigError};
        let mut venue = VenueServer::new(2, Duration::from_secs(1), 0.0);
        let id = venue
            .admit_bounded(spec(Strategy::Busy, 2), 1)
            .expect("admit");
        venue.run_cycles(5);
        let engine = venue.engine_mut(id).expect("admitted above");
        let generation = engine.generation();
        assert_eq!(
            engine.reconfigure(&[GraphEdit::ResizeThreads(3)]),
            Err(ReconfigError::Edit(EditError::PoolTooSmall {
                want: 3,
                have: 2
            }))
        );
        assert_eq!((engine.threads(), engine.generation()), (2, generation));
        venue.run_cycles(5);
        assert_eq!(venue.cycles(id), Some(10));
        // A resize the pool can serve still rebuilds in place.
        let engine = venue.engine_mut(id).expect("admitted above");
        engine
            .reconfigure(&[GraphEdit::ResizeThreads(1)])
            .expect("one lane fits");
        venue.run_cycles(5);
        let out = venue.engine_mut(id).expect("admitted above").output();
        assert!(out.is_finite() && out.rms() > 1e-4);
    }

    #[test]
    fn remove_frees_budget() {
        let mut venue = VenueServer::new(2, Duration::from_micros(100), 0.0);
        let id = venue
            .admit_bounded(spec(Strategy::Busy, 2), 90_000)
            .expect("fits");
        assert!(venue
            .admit_bounded(spec(Strategy::Busy, 2), 90_000)
            .is_err());
        assert!(venue.remove(id));
        venue
            .admit_bounded(spec(Strategy::Busy, 2), 90_000)
            .expect("fits after removal");
    }
}
