//! Venue server: many independent APC engines on one shared worker pool.
//!
//! A venue hosts N DJ sessions — each a full [`AudioEngine`] with its own
//! decks, timecode, control surface and task graph — against **one**
//! persistent [`VenuePool`]. Every sound-card period the server batches
//! the sessions' cycles onto the pool in two batches of the same shape —
//! first every session's front graph (TP + GP, one task per deck), then
//! every session's task graph:
//!
//! 1. stage every session ([`AudioEngine::venue_front_stage`], later
//!    [`AudioEngine::venue_graph_stage`]) without waking anyone,
//! 2. one [`VenuePool::dispatch`] publishing the whole batch to the
//!    workers,
//! 3. [`VenuePool::run_driver_parts`] so the driver contributes lane 0,
//! 4. collect per session ([`AudioEngine::venue_front_collect`], later
//!    [`AudioEngine::venue_finish`], which also runs VC). A sequential
//!    session is a one-lane session like any other: step 3 runs it.
//!
//! The front batch is one wall-clock window shared by all sessions; each
//! session's `tp`/`gp` is its share of that window by measured task time,
//! so the shares sum to the time the venue actually spent there.
//!
//! **Admission control** keeps the venue schedulable: a candidate session
//! is probed on a throwaway sequential engine, its per-cycle cost is
//! bounded with the sim oracle ([`djstar_sim::session_bound_ns`] — list
//! schedule of its graph on the lanes it requests, plus the measured
//! floor of its non-graph phases), and the session is admitted only if
//! the summed bounds of all sessions fit the deadline with the configured
//! safety margin ([`djstar_sim::admissible`]). Rejections are counted and
//! reported; the E18 harness cross-checks every rejection against the
//! same oracle.
//!
//! **Per-session accounting**: each session carries its own cycle/miss
//! counters (verdict: that session's TP+GP+Graph+VC against the venue
//! deadline), its own degradation governor (armed through the engine),
//! and a session id stamped into every telemetry ring and flight window
//! it records — so a `MissDossier` built from a venue capture names the
//! offending session.

use crate::apc::GovernorOutcome;
use crate::apc::{ApcTiming, AudioEngine, AuxWork, PROBE_CYCLES};
use crate::front::FrontWork;
use crate::graphbuild::GraphShape;
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

/// Why a session was turned away, with the numbers that decided it.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionRejection {
    /// The candidate's probed per-cycle bound (ns).
    pub bound_ns: u64,
    /// Summed bounds of the sessions already admitted (ns).
    pub load_ns: u64,
    /// The venue's per-cycle budget: deadline × (1 − margin), in ns.
    pub budget_ns: u64,
}

/// Per-session counters surfaced to telemetry export and reports.
#[derive(Debug, Clone, Copy)]
pub struct SessionCounters {
    /// Venue session id (1-based; 0 means "solo engine").
    pub id: u32,
    /// Cycles this session has run in the venue.
    pub cycles: u64,
    /// Cycles whose TP+GP+Graph+VC exceeded the venue deadline.
    pub misses: u64,
    /// Is the session currently running in shed (degraded) mode?
    pub degraded: bool,
    /// The admission-time per-cycle bound (ns).
    pub bound_ns: u64,
}

struct VenueSession {
    id: u32,
    engine: AudioEngine,
    bound_ns: u64,
    cycles: u64,
    misses: u64,
    last: ApcTiming,
    /// In-flight scratch of the current batch: the staged epoch (front
    /// batch, then graph batch) and the front task time just collected.
    epoch: u64,
    front: FrontWork,
}

/// A multi-session host: one worker pool, N engines, per-session
/// deadlines, admission control.
pub struct VenueServer {
    pool: Arc<VenuePool>,
    sessions: Vec<VenueSession>,
    deadline_ns: u64,
    margin: f64,
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
            deadline_ns: deadline.as_nanos() as u64,
            margin,
            rejections: 0,
            next_id: 1,
        }
    }

    /// The shared pool (e.g. to build extra engines on it directly).
    pub fn pool(&self) -> &Arc<VenuePool> {
        &self.pool
    }

    /// The venue deadline in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// The admission safety margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The per-cycle budget admission tests against (ns).
    pub fn budget_ns(&self) -> u64 {
        djstar_sim::cycle_budget_ns(self.deadline_ns, self.margin)
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

    /// Probe a candidate on a throwaway sequential engine and bound its
    /// per-cycle cost on `spec.threads` pool lanes with the sim oracle:
    /// list-schedule makespan of its measured graph plus the median of
    /// its measured non-graph phases.
    pub fn probe_session_bound(spec: &SessionSpec) -> u64 {
        let shape = GraphShape::for_net(&spec.scenario.net);
        let mut probe = AudioEngine::probe(&spec.scenario, shape, spec.aux);
        let means = probe.mean_node_durations(PROBE_CYCLES);
        let mut aux: Vec<u64> = (0..PROBE_CYCLES)
            .map(|_| {
                let t = probe.run_apc();
                (t.tp + t.gp + t.vc).as_nanos() as u64
            })
            .collect();
        aux.sort_unstable();
        let aux_floor = aux[aux.len() / 2];
        let graph = djstar_sim::SimGraph::from_topology(probe.executor_mut().topology());
        let durations = djstar_sim::DurationModel::Constant(means);
        djstar_sim::session_bound_ns(&graph, &durations, spec.threads as u32, aux_floor)
    }

    /// Admit `spec` if the venue stays schedulable with it, building its
    /// engine on the shared pool and tagging it with a fresh session id.
    /// Otherwise count and return the rejection.
    pub fn admit(&mut self, spec: SessionSpec) -> Result<u32, AdmissionRejection> {
        let bound = Self::probe_session_bound(&spec);
        self.admit_bounded(spec, bound)
    }

    /// [`admit`](Self::admit) with a caller-supplied bound (skips the
    /// probe — for harnesses that already measured the workload).
    pub fn admit_bounded(
        &mut self,
        spec: SessionSpec,
        bound_ns: u64,
    ) -> Result<u32, AdmissionRejection> {
        assert!(
            spec.threads >= 1 && spec.threads <= self.pool.threads(),
            "session wants {} lanes but the pool has {}",
            spec.threads,
            self.pool.threads()
        );
        let mut bounds: Vec<u64> = self.sessions.iter().map(|s| s.bound_ns).collect();
        bounds.push(bound_ns);
        if !djstar_sim::admissible(&bounds, self.deadline_ns, self.margin) {
            self.rejections += 1;
            return Err(AdmissionRejection {
                bound_ns,
                load_ns: self.load_ns(),
                budget_ns: self.budget_ns(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut engine = AudioEngine::on_pool(
            spec.scenario,
            spec.strategy,
            spec.threads,
            spec.aux,
            &self.pool,
        );
        engine.set_session(id);
        self.sessions.push(VenueSession {
            id,
            engine,
            bound_ns,
            cycles: 0,
            misses: 0,
            last: ApcTiming::default(),
            epoch: 0,
            front: FrontWork::default(),
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

    /// A session's admission-time bound (ns).
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

    /// Counter snapshot for every admitted session, in admission order.
    pub fn session_counters(&self) -> Vec<SessionCounters> {
        self.sessions
            .iter()
            .map(|s| SessionCounters {
                id: s.id,
                cycles: s.cycles,
                misses: s.misses,
                degraded: s.engine.is_degraded(),
                bound_ns: s.bound_ns,
            })
            .collect()
    }

    /// Run one batched cycle across every session and return the batch
    /// wall time. Per session: cycle/miss counters update against the
    /// venue deadline and, if its degradation governor is armed, the
    /// verdict feeds it (shed/restore commits ride the engine's
    /// glitch-free swap path). Steady-state calls perform no heap
    /// allocation.
    pub fn run_cycle(&mut self) -> Duration {
        let t0 = Instant::now();
        if self.sessions.is_empty() {
            return t0.elapsed();
        }
        // Front batch: every session's four deck tasks on the pool lanes.
        for s in &mut self.sessions {
            s.epoch = s.engine.venue_front_stage();
        }
        self.pool.dispatch();
        self.pool.run_driver_parts();
        let mut front_total_ns = 0;
        for s in &mut self.sessions {
            s.front = s.engine.venue_front_collect(s.epoch);
            front_total_ns += s.front.total_ns();
        }
        let front_window = t0.elapsed();
        // Graph batch.
        for s in &mut self.sessions {
            s.epoch = s.engine.venue_graph_stage();
        }
        self.pool.dispatch();
        self.pool.run_driver_parts();
        for s in &mut self.sessions {
            let (tp, gp) = s.front.shares(front_window, front_total_ns);
            let t = s.engine.venue_finish(s.epoch, tp, gp);
            s.cycles += 1;
            s.last = t;
            let missed = t.total().as_nanos() as u64 > self.deadline_ns;
            if missed {
                s.misses += 1;
            }
            let _: Option<GovernorOutcome> = s.engine.observe_deadline(missed);
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
        assert_eq!(err.load_ns, 80_000);
        assert_eq!(err.budget_ns, 90_000);
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
    fn probed_admission_fills_then_rejects() {
        let mut venue = VenueServer::new(2, Duration::from_secs(2), 0.0);
        let s = spec(Strategy::Sleep, 2);
        let bound = VenueServer::probe_session_bound(&s);
        assert!(bound > 0);
        let fit = djstar_sim::max_sessions(bound, venue.deadline_ns(), venue.margin());
        assert!(fit >= 1, "a light session must fit a 2 s deadline");
        venue.admit(s).expect("probed admit");
        assert_eq!(venue.session_count(), 1);
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
