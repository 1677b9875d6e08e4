//! The APC's non-graph phases as nodes of the one task graph.
//!
//! The paper's cycle is `T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)` (§VI),
//! and only the graph runs in parallel. Here every phase is a node of one
//! task graph, appended after the paper's nodes in [`Section::Apc`] (see
//! `graphbuild::walk_nodes`), so an APC is one pool dispatch:
//!
//! * `FrontA`…`FrontD` (`DeckFront`): deck *d*'s timecode processing
//!   (TP), then its graph preprocessing (GP). Its output buffer is the
//!   deck's time-stretched audio, and it feeds through edges the deck-*d*
//!   nodes that read deck audio: the four SP filters of a local deck,
//!   `LevelMeter`, `WaveformTap`, `BeatPhase` and `KeyDetect`.
//! * `VC` (`VariousCalc`): master tempo and the beat clock. It depends on
//!   the four fronts only — it reads the tempos they settle this cycle —
//!   so it runs in the graph's slack, beside the effect chains. The graph
//!   reads the beat clock from `controls::BEAT_CLOCK`, which the engine
//!   copies out of VC after each cycle: cycle *n* sees VC(*n* − 1).
//!
//! Executors inject no faults into [`Section::Apc`] nodes and book none of
//! their time as graph execution (`exec_ns`); the flight recorder records
//! them and cost learning prices them like any node. Each node times its own
//! work, from which `AudioEngine::run_apc` reports TP, GP and VC.
//!
//! [`Section::Apc`]: djstar_core::graph::Section::Apc

use crate::apc::AuxWork;
use crate::deck::TrackPlayer;
use crate::nodes::controls;
use crate::timecode::{TimecodeDecoder, TimecodeGenerator};
use djstar_core::processor::{CycleCtx, Processor};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::work::burn;
use djstar_workload::scenario::Scenario;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The four decks' tempos of the current cycle: each front writes its
/// deck's, VC reads all four. The front → VC edges order every write
/// before the read (the executors publish a node's completion with
/// `Release` and wait for it with `Acquire`), so the slots need no
/// ordering of their own.
#[derive(Debug, Default)]
pub(crate) struct DeckTempos([AtomicU32; 4]);

impl DeckTempos {
    fn publish(&self, deck: usize, tempo: f32) {
        self.0[deck].store(tempo.to_bits(), Relaxed);
    }

    fn read(&self, deck: usize) -> f32 {
        f32::from_bits(self.0[deck].load(Relaxed))
    }
}

/// Everything one deck needs before the graph can run: its virtual
/// turntable (timecode generator + decoder), its track player, and the
/// momentary controller state that steers them. Node `Front<d>`.
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
    /// node itself on whichever lane ran it.
    tp_ns: u64,
    gp_ns: u64,
    tempos: Arc<DeckTempos>,
}

impl DeckFront {
    /// Deck `d` of `scenario` (loads its track from the scenario's library
    /// when the deck is active), publishing its tempo into `tempos`. Built
    /// without aux work; the engine sets its [`AuxWork`].
    pub(crate) fn new(scenario: &Scenario, d: usize, tempos: Arc<DeckTempos>) -> Self {
        let cfg = &scenario.decks[d];
        let sr = djstar_dsp::SAMPLE_RATE;
        DeckFront {
            deck: d,
            tempo: cfg.tempo,
            player: cfg.active.then(|| TrackPlayer::new(scenario.track(d))),
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
            tempos,
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
    #[cfg(test)]
    pub(crate) fn player(&self) -> Option<&TrackPlayer> {
        self.player.as_ref()
    }

    pub(crate) fn set_aux(&mut self, aux: AuxWork) {
        self.tp_iters = aux.tp_iters;
        self.gp_iters = aux.gp_iters;
    }

    /// The last cycle's TP and GP task time (ns).
    pub(crate) fn work_ns(&self) -> (u64, u64) {
        (self.tp_ns, self.gp_ns)
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
                self.tempos.publish(self.deck, player.tempo());
                self.aux_sink += burn(self.gp_iters, tempo);
            }
            None => out.clear(),
        }
    }
}

impl Processor for DeckFront {
    /// One cycle of this deck; `output` receives the deck audio the deck's
    /// graph nodes read.
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let t0 = Instant::now();
        let cycle = ctx.controls.get(controls::CYCLE).copied().unwrap_or(0.0);
        self.timecode(cycle);
        let t1 = Instant::now();
        self.preprocess(output);
        self.tp_ns = (t1 - t0).as_nanos() as u64;
        self.gp_ns = t1.elapsed().as_nanos() as u64;
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// VC, node `VC`: the master tempo follows the playing decks' tempos, and
/// the beat clock advances at the master tempo. Its output buffer stays
/// silent: the engine reads the beat clock off the node.
pub(crate) struct VariousCalc {
    /// Scenario BPM of each deck that plays a track; `None` for idle decks.
    bpm: [Option<f32>; 4],
    tempos: Arc<DeckTempos>,
    master_bpm: f32,
    beat_clock: f64,
    vc_iters: u32,
    /// Burn-result sink keeping the aux work observable.
    aux_sink: f32,
    /// Wall time of the last cycle's VC, measured by the node itself.
    vc_ns: u64,
}

impl VariousCalc {
    /// VC of `scenario`, reading the tempos its fronts publish into
    /// `tempos`. Built without aux work; the engine sets its [`AuxWork`].
    pub(crate) fn new(scenario: &Scenario, tempos: Arc<DeckTempos>) -> Self {
        VariousCalc {
            bpm: std::array::from_fn(|d| {
                let cfg = &scenario.decks[d];
                cfg.active.then_some(cfg.bpm)
            }),
            tempos,
            master_bpm: scenario.decks[0].bpm,
            beat_clock: 0.0,
            vc_iters: 0,
            aux_sink: 0.0,
            vc_ns: 0,
        }
    }

    pub(crate) fn set_aux(&mut self, aux: AuxWork) {
        self.vc_iters = aux.vc_iters;
    }

    /// Beats elapsed at the master tempo, as of the last cycle.
    pub(crate) fn beat_clock(&self) -> f64 {
        self.beat_clock
    }

    /// The last cycle's VC task time (ns).
    pub(crate) fn work_ns(&self) -> u64 {
        self.vc_ns
    }
}

impl Processor for VariousCalc {
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        let t0 = Instant::now();
        let mut bpm_sum = 0.0;
        let mut active = 0u32;
        for (d, bpm) in self.bpm.iter().enumerate() {
            if let Some(bpm) = bpm {
                bpm_sum += bpm * self.tempos.read(d);
                active += 1;
            }
        }
        if active > 0 {
            let target = bpm_sum / active as f32;
            self.master_bpm = 0.95 * self.master_bpm + 0.05 * target;
        }
        self.beat_clock += (self.master_bpm as f64 / 60.0)
            * (djstar_dsp::BUFFER_FRAMES as f64 / djstar_dsp::SAMPLE_RATE as f64);
        self.aux_sink += burn(self.vc_iters, self.master_bpm / 200.0);
        output.clear();
        self.vc_ns = t0.elapsed().as_nanos() as u64;
    }

    fn output_channels(&self) -> usize {
        1
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::apc::{AudioEngine, AuxWork};
    use crate::reconfig::GraphEdit;
    use djstar_core::exec::Strategy;
    use djstar_workload::scenario::Scenario;

    #[test]
    fn rebuild_keeps_deck_state() {
        let mut e =
            AudioEngine::with_aux(Scenario::light_test(), Strategy::Busy, 2, AuxWork::light());
        e.warmup(20);
        let speed = e.front_mut(1).decoded_speed();
        let position = e.front_mut(1).player().unwrap().position();
        let beats = e.beat_clock();
        assert!(speed > 0.5 && position > 0.0 && beats > 0.0);
        e.reconfigure(&[GraphEdit::ResizeThreads(1)])
            .expect("resize");
        assert_eq!(e.threads(), 1);
        assert_eq!(e.front_mut(1).decoded_speed(), speed);
        assert_eq!(e.front_mut(1).player().unwrap().position(), position);
        assert_eq!(e.beat_clock(), beats);
        let t = e.run_apc();
        assert!(t.tp.as_nanos() > 0 && t.gp.as_nanos() > 0);
        assert!(e.beat_clock() > beats, "VC stopped across the rebuild");
    }
}
