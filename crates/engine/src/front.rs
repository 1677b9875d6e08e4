//! The deck-parallel front end: TP and GP as one task per deck.
//!
//! The paper parallelises only the task graph and leaves timecode
//! processing (TP) and graph preprocessing (GP) serial on the audio thread.
//! Both are per-deck work with no cross-deck dependency — deck *d*'s decoded
//! platter speed feeds only deck *d*'s time-stretched pull — so each deck's
//! TP → GP chain is one `DeckFront` task, and the four tasks form a tiny
//! *front graph* that runs as a second session on the very
//! [`VenuePool`] the APC graph uses: same strategy, same lanes, no thread of
//! its own. A SEQ or one-lane engine runs the same graph with zero workers,
//! i.e. inline on the driver; there is no serial variant to select.
//!
//! An APC is therefore: front cycle → `FrontEnd::finish` on the driver
//! (copy the four pulled buffers out, pairwise phase alignment) → graph
//! cycle → VC. Faults, telemetry and the flight recorder are never
//! armed on the front session; they keep describing the 67-node graph.
//!
//! Each task times its own TP and GP halves. The driver measures the
//! wall-clock window the front cycle occupied and splits it in proportion to
//! those task times ([`FrontWork::shares`]), so `ApcTiming::tp`/`gp` stay
//! disjoint wall-clock phases that sum to the window whether the tasks ran
//! one after another or side by side.

use crate::apc::{executor_on_pool, AuxWork};
use crate::deck::{beat_phase_offset, TrackPlayer};
use crate::reconfig::unit_cost_blueprint;
use crate::timecode::{TimecodeDecoder, TimecodeGenerator};
use djstar_core::exec::{GraphExecutor, Strategy, VenuePool};
use djstar_core::graph::{NodeId, Section, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, Processor};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::work::burn;
use djstar_workload::scenario::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one deck needs before the graph can run: its virtual
/// turntable (timecode generator + decoder), its track player, and the
/// momentary controller state that steers them. One front-graph node.
pub(crate) struct DeckFront {
    deck: usize,
    /// Scenario platter tempo.
    tempo: f32,
    /// The deck's track; `None` for a deck the scenario leaves idle, whose
    /// platter stands still.
    player: Option<TrackPlayer>,
    tc_gen: TimecodeGenerator,
    tc_dec: TimecodeDecoder,
    /// This deck's control-signal scratch (generated, then decoded).
    tc_buf: AudioBuf,
    decoded_speed: f32,
    /// Momentary platter-nudge offset from the controller, decaying per
    /// cycle like a released jog wheel.
    nudge: f32,
    tp_iters: u32,
    gp_iters: u32,
    /// Burn-result sink keeping the aux work observable.
    aux_sink: f32,
    /// Wall time of the last cycle's TP and GP halves, measured by the
    /// task itself on whichever lane ran it.
    tp_ns: u64,
    gp_ns: u64,
}

impl DeckFront {
    /// Deck `d` of `scenario` (loads its track from the scenario's library
    /// when the deck is active) with the TP/GP weights of `aux`.
    fn new(scenario: &Scenario, d: usize, aux: AuxWork) -> Self {
        let cfg = &scenario.decks[d];
        let mut front = Self::vacant(d);
        front.tempo = cfg.tempo;
        front.player = cfg.active.then(|| TrackPlayer::new(scenario.track(d)));
        front.set_aux(aux);
        front
    }

    /// A stopped deck with no track: what a [`FrontEnd`] leaves in the old
    /// front graph when a rebuild moves the real decks into a new one.
    fn vacant(deck: usize) -> Self {
        let sr = djstar_dsp::SAMPLE_RATE;
        DeckFront {
            deck,
            tempo: 1.0,
            player: None,
            tc_gen: TimecodeGenerator::new(sr),
            tc_dec: TimecodeDecoder::new(sr),
            tc_buf: AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES),
            decoded_speed: 0.0,
            nudge: 0.0,
            tp_iters: 0,
            gp_iters: 0,
            aux_sink: 0.0,
            tp_ns: 0,
            gp_ns: 0,
        }
    }

    /// Push the platter: add `delta` to the nudge offset (clamped ±0.5).
    pub(crate) fn nudge(&mut self, delta: f32) {
        self.nudge = (self.nudge + delta).clamp(-0.5, 0.5);
    }

    /// Platter speed the decoder read in the last cycle.
    #[cfg(test)]
    pub(crate) fn decoded_speed(&self) -> f32 {
        self.decoded_speed
    }

    /// The deck's track player; `None` for a deck the scenario leaves idle.
    pub(crate) fn player(&self) -> Option<&TrackPlayer> {
        self.player.as_ref()
    }

    pub(crate) fn set_aux(&mut self, aux: AuxWork) {
        self.tp_iters = aux.tp_iters;
        self.gp_iters = aux.gp_iters;
    }

    /// TP: generate + decode this deck's timecode control signal.
    fn timecode(&mut self, cycle: f32) {
        let d = self.deck as f32;
        // The virtual platter: scenario tempo plus a gentle DJ nudge
        // wobble so the decoder has something to track.
        let speed = if self.player.is_some() {
            self.tempo * (1.0 + 0.015 * (cycle * 0.045 + d).sin()) * (1.0 + self.nudge)
        } else {
            0.0
        };
        // A released jog wheel spins back to neutral.
        self.nudge *= 0.9;
        self.tc_gen.generate(speed, &mut self.tc_buf);
        let reading = self.tc_dec.decode(&self.tc_buf);
        self.decoded_speed = reading.speed;
        self.aux_sink += burn(self.tp_iters, reading.speed.abs() + d * 0.1);
    }

    /// GP: pull time-stretched deck audio at the decoded tempo into `out`.
    fn preprocess(&mut self, out: &mut AudioBuf) {
        match &mut self.player {
            Some(player) => {
                let tempo = if self.decoded_speed.abs() > 0.05 {
                    self.decoded_speed.abs()
                } else {
                    self.tempo
                };
                player.pull(tempo, out);
                self.aux_sink += burn(self.gp_iters, tempo);
            }
            None => out.clear(),
        }
    }
}

impl Processor for DeckFront {
    /// One front cycle of this deck; `output` receives the deck buffer the
    /// graph will read.
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let t0 = Instant::now();
        self.timecode(ctx.controls[CTRL_CYCLE]);
        let t1 = Instant::now();
        self.preprocess(output);
        self.tp_ns = (t1 - t0).as_nanos() as u64;
        self.gp_ns = t1.elapsed().as_nanos() as u64;
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Slot of the front graph's control array carrying the engine's cycle
/// number (as `f32`, the precision the platter wobble is computed in).
const CTRL_CYCLE: usize = 0;

/// Task time one engine's front cycle spent in TP and in GP, summed over
/// its four decks (lane time, not wall time: tasks may overlap).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontWork {
    /// Σ over decks of the TP half.
    pub tp_ns: u64,
    /// Σ over decks of the GP half.
    pub gp_ns: u64,
}

impl FrontWork {
    /// TP + GP task time.
    pub fn total_ns(&self) -> u64 {
        self.tp_ns + self.gp_ns
    }

    /// This work's TP and GP shares of a wall-clock `window` in which
    /// `total_ns` of front task time ran (its own for a solo engine; the
    /// sum over sessions for a venue batch, so the sessions' shares add up
    /// to the window).
    pub fn shares(&self, window: Duration, total_ns: u64) -> (Duration, Duration) {
        let window = window.as_nanos();
        let total = u128::from(total_ns.max(1));
        let tp = window * u128::from(self.tp_ns) / total;
        let both = window * u128::from(self.total_ns()) / total;
        (
            Duration::from_nanos(tp as u64),
            Duration::from_nanos((both - tp) as u64),
        )
    }
}

/// The front graph of one engine: four independent [`DeckFront`] nodes
/// (node *d* = deck *d*) behind an executor of the engine's own strategy,
/// registered on the engine's pool.
pub(crate) struct FrontEnd {
    exec: Box<dyn GraphExecutor>,
    /// Sink keeping the phase-alignment arithmetic observable.
    align_sink: f32,
}

impl FrontEnd {
    /// The front session of an engine running `scenario`: its four decks,
    /// registered with `threads` lanes on `pool`.
    pub(crate) fn new(
        scenario: &Scenario,
        aux: AuxWork,
        strategy: Strategy,
        threads: usize,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let decks = (0..4).map(|d| DeckFront::new(scenario, d, aux)).collect();
        Self::with_decks(decks, strategy, threads, pool)
    }

    fn with_decks(
        decks: Vec<DeckFront>,
        strategy: Strategy,
        threads: usize,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let mut b = TaskGraphBuilder::new();
        for (d, deck) in decks.into_iter().enumerate() {
            b.add(format!("Front{d}"), Section::deck(d), Box::new(deck), &[]);
        }
        let graph = b.build().expect("independent nodes always form a graph");
        let exec = executor_on_pool(graph, strategy, threads, pool, |topo| {
            unit_cost_blueprint(topo, threads)
                .expect("a list schedule always compiles to a valid blueprint")
        });
        FrontEnd {
            exec,
            align_sink: 0.0,
        }
    }

    /// Re-register the same four decks (playback, timecode and nudge state
    /// intact) as a fresh session of `threads` lanes on `pool`.
    pub(crate) fn rebuild(&mut self, strategy: Strategy, threads: usize, pool: &Arc<VenuePool>) {
        let decks = (0..4)
            .map(|d| std::mem::replace(self.deck_mut(d), DeckFront::vacant(d)))
            .collect();
        *self = FrontEnd::with_decks(decks, strategy, threads, pool);
    }

    pub(crate) fn set_session(&mut self, session: u32) {
        self.exec.set_session(session);
    }

    pub(crate) fn deck_mut(&mut self, d: usize) -> &mut DeckFront {
        self.exec
            .node_processor(NodeId(d as u32))
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<DeckFront>())
            .expect("front node d is deck d's DeckFront")
    }

    fn controls(cycle: u64) -> [f32; CTRL_CYCLE + 1] {
        [cycle as f32]
    }

    /// Run one front cycle to completion (solo engines).
    pub(crate) fn run(&mut self, cycle: u64) {
        self.exec.run_cycle(&[], &Self::controls(cycle));
    }

    /// Venue path, first half: stage the front cycle for the pool's next
    /// batch.
    pub(crate) fn stage(&mut self, cycle: u64) -> u64 {
        self.exec.venue_stage(&[], &Self::controls(cycle))
    }

    /// Venue path, second half: wait for the staged cycle.
    pub(crate) fn collect(&mut self, epoch: u64) {
        self.exec.venue_collect(epoch);
    }

    /// Driver-side tail of a front cycle: copy each deck's pulled audio
    /// into `deck_bufs`, compute the pairwise beat offsets DJ Star displays
    /// (phase alignment), and report the tasks' measured TP/GP time.
    pub(crate) fn finish(&mut self, deck_bufs: &mut [AudioBuf]) -> FrontWork {
        let mut work = FrontWork::default();
        let mut phases = [None; 4];
        for (d, buf) in deck_bufs.iter_mut().enumerate() {
            self.exec.read_output(NodeId(d as u32), buf);
            let deck = self.deck_mut(d);
            work.tp_ns += deck.tp_ns;
            work.gp_ns += deck.gp_ns;
            phases[d] = deck.player().map(TrackPlayer::beat_phase);
        }
        let mut align = 0.0f32;
        for a in 0..4 {
            for b in (a + 1)..4 {
                if let (Some(pa), Some(pb)) = (phases[a], phases[b]) {
                    align += beat_phase_offset(pa, pb);
                }
            }
        }
        self.align_sink += align * 1e-20;
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_split_a_window_in_proportion_and_sum_to_it() {
        let work = FrontWork {
            tp_ns: 100,
            gp_ns: 300,
        };
        let (tp, gp) = work.shares(Duration::from_nanos(200), work.total_ns());
        assert_eq!((tp.as_nanos(), gp.as_nanos()), (50, 150));
        // Two sessions of a batch: shares add up to the window.
        let other = FrontWork {
            tp_ns: 50,
            gp_ns: 50,
        };
        let total = work.total_ns() + other.total_ns();
        let window = Duration::from_nanos(1_000);
        let (a_tp, a_gp) = work.shares(window, total);
        let (b_tp, b_gp) = other.shares(window, total);
        assert_eq!(a_tp + a_gp + b_tp + b_gp, window);
        // Degenerate clock: no task time measured, nothing attributed.
        let (tp, gp) = FrontWork::default().shares(window, 0);
        assert_eq!((tp, gp), (Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn rebuild_keeps_deck_state() {
        let scenario = Scenario::light_test();
        let pool = Arc::new(VenuePool::new(2));
        let mut front = FrontEnd::new(&scenario, AuxWork::light(), Strategy::Busy, 2, &pool);
        let mut bufs: Vec<AudioBuf> = (0..4)
            .map(|_| AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES))
            .collect();
        for cycle in 1..=20 {
            front.run(cycle);
            front.finish(&mut bufs);
        }
        let speed = front.deck_mut(1).decoded_speed();
        let position = front.deck_mut(1).player().unwrap().position();
        assert!(speed > 0.5 && position > 0.0);
        front.rebuild(Strategy::Planned, 1, &pool);
        assert_eq!(front.deck_mut(1).decoded_speed(), speed);
        assert_eq!(front.deck_mut(1).player().unwrap().position(), position);
        front.run(21);
        assert!(front.finish(&mut bufs).total_ns() > 0);
        assert!(bufs[1].rms() > 0.0);
    }
}
