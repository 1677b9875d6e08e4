//! Processor implementations for every node kind of the DJ Star graph
//! (Fig. 3): sample-preprocess filters, deck effects, channel strips, the
//! mixer, the master section, and the independent bookkeeping nodes.
//!
//! Every processor finishes by running the calibratable [`CostModel`], which
//! burns a per-class, signal-energy-dependent number of compute iterations
//! (see `djstar_workload::profile`) — this is what gives our graph the
//! paper's heterogeneous, data-dependent node-cost distribution.

use djstar_core::processor::{CycleCtx, Processor, Sibling};
use djstar_dsp::biquad::{process_crossover_tree, Biquad, FilterKind};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::dynamics::{Compressor, HardClip, Limiter};
use djstar_dsp::effects::Effect;
use djstar_dsp::eq::{ChannelFilter, ThreeBandEq};
use djstar_dsp::meter::{goertzel_bank, goertzel_coeff, LevelMeter};
use djstar_dsp::mix::{crossfader_gain, mix_into};
use djstar_dsp::work::burn;
use djstar_workload::profile::{NodeClass, WorkProfile};

/// Indices into `CycleCtx::controls` (the engine's live control surface).
pub mod controls {
    /// Crossfader position in `[0, 1]`.
    pub const CROSSFADER: usize = 0;
    /// Master output gain.
    pub const MASTER_GAIN: usize = 1;
    /// Master beat clock (monotonically increasing beat count).
    pub const BEAT_CLOCK: usize = 2;
    /// Channel fader gain of deck `d`.
    pub const fn deck_gain(d: usize) -> usize {
        3 + d
    }
    /// The engine's cycle number (as `f32`, the precision the deck fronts'
    /// platter wobble is computed in).
    pub const CYCLE: usize = 7;
    /// Total number of control slots.
    pub const COUNT: usize = 8;
}

/// The deck audio a deck-section node reads: its wired predecessor (the
/// deck's front node, or a remote deck's network receiver) when it has
/// one, else deck `deck`'s external-audio slot (the paper graph of
/// `build_djstar_graph`, which has no front nodes).
fn deck_audio<'a>(
    inputs: &[&'a AudioBuf],
    ctx: &CycleCtx<'a>,
    deck: usize,
) -> Option<&'a AudioBuf> {
    inputs
        .first()
        .copied()
        .or_else(|| ctx.external_audio.get(deck))
}

/// Reads a control value, defaulting when the engine supplied none (tests).
#[inline]
fn ctrl(ctx: &CycleCtx<'_>, idx: usize, default: f32) -> f32 {
    ctx.controls.get(idx).copied().unwrap_or(default)
}

/// The calibratable per-node compute burden.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    class: NodeClass,
    profile: WorkProfile,
    seed: f32,
}

impl CostModel {
    /// Cost model for a node of `class`; `seed` decorrelates the burn
    /// kernels of different nodes (use the node's index).
    pub fn new(class: NodeClass, profile: WorkProfile, seed: u32) -> Self {
        CostModel {
            class,
            profile,
            seed: (seed as f32 * 0.137).fract(),
        }
    }

    /// Normalized signal energy of a buffer: RMS mapped into `[0, 1]`.
    /// RMS (not mean-square) keeps the mapping from saturating at hot
    /// levels, preserving the loud/quiet cost contrast that produces the
    /// paper's bimodal execution-time histograms (Fig. 9).
    fn energy_of(buf: &AudioBuf) -> f32 {
        let len = buf.samples().len();
        let mean_sq = if len == 0 {
            0.0
        } else {
            buf.energy() / len as f32
        };
        (mean_sq.sqrt() * 1.6).clamp(0.0, 1.0)
    }

    /// The iteration count [`apply`](Self::apply) would burn for `buf` —
    /// exposed so tests can verify the data dependence deterministically.
    pub fn iters_for(&self, buf: &AudioBuf) -> u32 {
        self.profile
            .effective_iters(self.class, Self::energy_of(buf))
    }

    /// Burn the configured iterations, scaled by the buffer's normalized
    /// signal energy, and fold an unobservably small residue into the
    /// buffer so the optimizer cannot elide the work.
    pub fn apply(&self, buf: &mut AudioBuf) {
        let energy = Self::energy_of(buf);
        let iters = self.profile.effective_iters(self.class, energy);
        let sink = burn(iters, self.seed + energy);
        if let Some(s0) = buf.samples_mut().first_mut() {
            *s0 += sink * 1e-20;
        }
    }
}

/// Unity gains for summing nodes (the graph caps predecessors at 16).
const UNITY_GAINS: [f32; 16] = [1.0; 16];

/// Sum all inputs into `out` (cleared first); a no-op clear for sources.
/// Routed through the fused mixer kernel, which makes a single pass per
/// channel plane when the layouts line up.
pub(crate) fn sum_inputs(inputs: &[&AudioBuf], out: &mut AudioBuf) {
    if inputs.len() <= UNITY_GAINS.len() {
        mix_into(out, inputs, &UNITY_GAINS[..inputs.len()]);
    } else {
        out.clear();
        for i in inputs {
            out.mix_add(i, 1.0);
        }
    }
}

// --------------------------------------------------------------------------
// Deck section nodes
// --------------------------------------------------------------------------

/// SPx: sample-preprocess band filter reading the deck's audio.
///
/// The four SP nodes of a deck form a Linkwitz–Riley 4-band crossover
/// (200 / 1200 / 5000 Hz): each node applies its branch of the LR4 split
/// tree, so when the first effect node sums the four bands the deck signal
/// reconstructs flat. Each node owns its own filter chain — the graph
/// decomposition demands independent nodes — so a branch holds its own
/// copy of the highpass prefix it shares with its siblings, and run one
/// by one (BUSY, SLEEP, WS, PLAN) the four nodes filter 18 sections.
/// The graph declares a deck's four SP nodes a sibling group; SEQ runs the
/// group as one [`process_batch`](Processor::process_batch), which filters
/// the deck audio through the shared tree once ([`process_crossover_tree`]:
/// 12 sections in AVX2 lanes, every copy of a shared section kept
/// bit-equal), bit for bit the four nodes' own runs.
pub struct SpFilterNode {
    deck: usize,
    chain: Vec<Biquad>,
    cost: CostModel,
}

/// LR4 crossover points of the SP filterbank (Hz).
const SP_CROSSOVERS: [f32; 3] = [200.0, 1_200.0, 5_000.0];

impl SpFilterNode {
    /// The `band`-th (0–3) preprocess filter of `deck`.
    pub fn new(deck: usize, band: usize, profile: WorkProfile, seed: u32) -> Self {
        let sr = djstar_dsp::SAMPLE_RATE;
        let q = core::f32::consts::FRAC_1_SQRT_2;
        // LR4 = two cascaded Butterworth sections per split side. The band's
        // branch through the split tree:
        //   b0: LP(f1)            b1: HP(f1)·LP(f2)
        //   b2: HP(f1)·HP(f2)·LP(f3)   b3: HP(f1)·HP(f2)·HP(f3)
        let mut chain = Vec::new();
        let mut push = |kind, f| {
            for _ in 0..2 {
                chain.push(Biquad::design(kind, f, q, sr));
            }
        };
        match band {
            0 => push(FilterKind::Lowpass, SP_CROSSOVERS[0]),
            1 => {
                push(FilterKind::Highpass, SP_CROSSOVERS[0]);
                push(FilterKind::Lowpass, SP_CROSSOVERS[1]);
            }
            2 => {
                push(FilterKind::Highpass, SP_CROSSOVERS[0]);
                push(FilterKind::Highpass, SP_CROSSOVERS[1]);
                push(FilterKind::Lowpass, SP_CROSSOVERS[2]);
            }
            _ => {
                push(FilterKind::Highpass, SP_CROSSOVERS[0]);
                push(FilterKind::Highpass, SP_CROSSOVERS[1]);
                push(FilterKind::Highpass, SP_CROSSOVERS[2]);
            }
        }
        SpFilterNode {
            deck,
            chain,
            cost: CostModel::new(NodeClass::SpFilter, profile, seed),
        }
    }
}

impl Processor for SpFilterNode {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        match deck_audio(inputs, ctx, self.deck) {
            Some(src) => output.copy_from(src),
            None => output.clear(),
        }
        // One pass over the whole 2–6 section chain (on an AVX2 host a
        // wavefront: sections and channels ride the lanes).
        djstar_dsp::biquad::process_chain(&mut self.chain, output);
        self.cost.apply(output);
    }

    /// A deck's four bands, in band order, as one shared LR4 tree; then
    /// each band's cost model, in band order. Declines (the tree's own
    /// checks, or siblings that are not this deck's other three bands)
    /// before touching anything.
    fn process_batch(
        &mut self,
        output: &mut AudioBuf,
        siblings: &mut [Sibling<'_>],
        inputs: &[&AudioBuf],
        ctx: &CycleCtx<'_>,
    ) -> bool {
        let deck = self.deck;
        let Some(src) = deck_audio(inputs, ctx, deck) else {
            return false;
        };
        let [b, c, d] = siblings else {
            return false;
        };
        let (Some(nb), Some(nc), Some(nd)) = (
            sp_band(&mut *b.processor, deck),
            sp_band(&mut *c.processor, deck),
            sp_band(&mut *d.processor, deck),
        ) else {
            return false;
        };
        let chains = [&mut self.chain, &mut nb.chain, &mut nc.chain, &mut nd.chain];
        let outs = [&mut *output, &mut *b.output, &mut *c.output, &mut *d.output];
        if !process_crossover_tree(chains.map(|c| c.as_mut_slice()), src, outs) {
            return false;
        }
        self.cost.apply(output);
        nb.cost.apply(b.output);
        nc.cost.apply(c.output);
        nd.cost.apply(d.output);
        true
    }
}

/// `processor` as an SP node of `deck`, if it is one.
fn sp_band(processor: &mut dyn Processor, deck: usize) -> Option<&mut SpFilterNode> {
    let node = processor.as_any_mut()?.downcast_mut::<SpFilterNode>()?;
    (node.deck == deck).then_some(node)
}

/// FXn: a deck effect; the first in the chain sums the four SP bands.
pub struct EffectNode {
    effect: Box<dyn Effect>,
    enabled: bool,
    cost: CostModel,
}

impl EffectNode {
    /// An effect node wrapping `effect`; when `enabled` is false the node
    /// passes audio through (but still pays its queue slot, like DJ Star's
    /// nodes that "do not modify the audio packets").
    pub fn new(effect: Box<dyn Effect>, enabled: bool, profile: WorkProfile, seed: u32) -> Self {
        EffectNode {
            effect,
            enabled,
            cost: CostModel::new(NodeClass::Effect, profile, seed),
        }
    }

    /// Enable or disable the effect (live control).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }
}

impl Processor for EffectNode {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        // Recombining the SP bands needs no normalization: they form a
        // Linkwitz-Riley crossover whose sum is allpass-flat.
        sum_inputs(inputs, output);
        if self.enabled {
            self.effect.process(output);
        }
        self.cost.apply(output);
    }
}

/// Channel strip: single-knob filter + 3-band EQ + fader gain.
pub struct ChannelNode {
    deck: usize,
    filter: ChannelFilter,
    eq: ThreeBandEq,
    cost: CostModel,
}

impl ChannelNode {
    /// The channel strip of `deck` with the given knob settings.
    pub fn new(
        deck: usize,
        filter_pos: f32,
        eq_db: [f32; 3],
        profile: WorkProfile,
        seed: u32,
    ) -> Self {
        let sr = djstar_dsp::SAMPLE_RATE;
        let mut filter = ChannelFilter::new(sr);
        filter.set_position(filter_pos);
        let mut eq = ThreeBandEq::new(sr);
        eq.set_gains(eq_db[0], eq_db[1], eq_db[2]);
        ChannelNode {
            deck,
            filter,
            eq,
            cost: CostModel::new(NodeClass::Channel, profile, seed),
        }
    }

    /// Live EQ control.
    pub fn set_eq(&mut self, low_db: f32, mid_db: f32, high_db: f32) {
        self.eq.set_gains(low_db, mid_db, high_db);
    }

    /// Live filter-knob control.
    pub fn set_filter(&mut self, pos: f32) {
        self.filter.set_position(pos);
    }
}

impl Processor for ChannelNode {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        sum_inputs(inputs, output);
        self.filter.process(output);
        self.eq.process(output);
        output.scale(ctrl(ctx, controls::deck_gain(self.deck), 1.0));
        self.cost.apply(output);
    }
}

// --------------------------------------------------------------------------
// Master section nodes
// --------------------------------------------------------------------------

/// The mixer: crossfades channels A/B, adds C/D and the sampler.
pub struct MixerNode {
    /// Crossfader side of each channel input; inputs beyond this list are
    /// sampler feeds. One entry per channel actually wired into the graph,
    /// so a reshaped graph with unloaded decks just builds a shorter list.
    sides: Vec<f32>,
    sampler_gain: f32,
    cost: CostModel,
}

impl MixerNode {
    /// A mixer with channels A on side -1, B on side +1, C and D center.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        Self::with_sides(vec![-1.0, 1.0, 0.0, 0.0], profile, seed)
    }

    /// A mixer over an explicit channel/side layout (shaped graphs).
    pub fn with_sides(sides: Vec<f32>, profile: WorkProfile, seed: u32) -> Self {
        MixerNode {
            sides,
            sampler_gain: 0.7,
            cost: CostModel::new(NodeClass::Mixer, profile, seed),
        }
    }
}

impl Processor for MixerNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let x = ctrl(ctx, controls::CROSSFADER, 0.5);
        let mut gains = [0.0f32; 16];
        if inputs.len() <= gains.len() {
            for (i, g) in gains.iter_mut().take(inputs.len()).enumerate() {
                *g = match self.sides.get(i) {
                    Some(&side) => crossfader_gain(x, side),
                    None => self.sampler_gain,
                };
            }
            mix_into(output, inputs, &gains[..inputs.len()]);
        } else {
            output.clear();
            for (i, buf) in inputs.iter().enumerate() {
                let gain = match self.sides.get(i) {
                    Some(&side) => crossfader_gain(x, side),
                    None => self.sampler_gain,
                };
                output.mix_add(buf, gain);
            }
        }
        self.cost.apply(output);
    }
}

/// Master buffer: master gain + limiter.
pub struct MasterBufferNode {
    limiter: Limiter,
    cost: CostModel,
}

impl MasterBufferNode {
    /// The master bus processor.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        MasterBufferNode {
            limiter: Limiter::master(djstar_dsp::SAMPLE_RATE),
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for MasterBufferNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        sum_inputs(inputs, output);
        output.scale(ctrl(ctx, controls::MASTER_GAIN, 1.0));
        self.limiter.process(output);
        self.cost.apply(output);
    }
}

/// Final hardware output: limiter + hard clip safety net.
pub struct AudioOutNode {
    limiter: Limiter,
    clip: HardClip,
    cost: CostModel,
}

impl AudioOutNode {
    /// The output stage.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        AudioOutNode {
            limiter: Limiter::master(djstar_dsp::SAMPLE_RATE),
            clip: HardClip::new(1.0),
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for AudioOutNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        sum_inputs(inputs, output);
        self.limiter.process(output);
        self.clip.process(output);
        self.cost.apply(output);
    }
}

/// Record buffer: an independently limited/clipped copy of the master.
pub struct RecordBufferNode {
    limiter: Limiter,
    clip: HardClip,
    cost: CostModel,
}

impl RecordBufferNode {
    /// The record-path processor (slightly lower ceiling than the master).
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        RecordBufferNode {
            limiter: Limiter::new(0.89, 0.5, 60.0, djstar_dsp::SAMPLE_RATE),
            clip: HardClip::new(0.95),
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for RecordBufferNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        sum_inputs(inputs, output);
        self.limiter.process(output);
        self.clip.process(output);
        self.cost.apply(output);
    }
}

/// Cue buffer: pre-crossfader mix of the cue-enabled channels.
pub struct CueBufferNode {
    /// One enable flag per wired channel input (shaped graphs wire only
    /// the loaded decks).
    cue_enabled: Vec<bool>,
    cost: CostModel,
}

impl CueBufferNode {
    /// Cue mix over the given channel-enable mask.
    pub fn new(cue_enabled: impl Into<Vec<bool>>, profile: WorkProfile, seed: u32) -> Self {
        CueBufferNode {
            cue_enabled: cue_enabled.into(),
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for CueBufferNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        output.clear();
        let n = self.cue_enabled.iter().filter(|&&e| e).count().max(1);
        for (i, buf) in inputs.iter().enumerate() {
            if *self.cue_enabled.get(i).unwrap_or(&false) {
                output.mix_add(buf, 1.0 / n as f32);
            }
        }
        self.cost.apply(output);
    }
}

/// Monitor buffer: mono downmix of the cue signal (Fig. 3: "Mono").
pub struct MonitorBufferNode {
    cost: CostModel,
}

impl MonitorBufferNode {
    /// The headphone-monitor processor.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        MonitorBufferNode {
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for MonitorBufferNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        sum_inputs(inputs, output);
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Clock tick: fires a trigger sample whenever the beat counter crosses an
/// integer boundary. (A source node: reads only the control surface.)
pub struct ClockTickNode {
    last_beat: f32,
    cost: CostModel,
}

impl ClockTickNode {
    /// The master clock node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        ClockTickNode {
            last_beat: 0.0,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for ClockTickNode {
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let beat = ctrl(ctx, controls::BEAT_CLOCK, 0.0);
        output.clear();
        if beat.floor() > self.last_beat.floor() {
            output.set_sample(0, 0, 1.0);
        }
        output.set_sample(0, 1.min(output.frames() - 1), beat.fract());
        self.last_beat = beat;
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Audio sampler: plays a one-shot stab when the clock node fires every
/// fourth beat.
pub struct SamplerNode {
    sample: Vec<f32>,
    pos: Option<usize>,
    beats_seen: u32,
    cost: CostModel,
}

impl SamplerNode {
    /// A sampler loaded with a synthesized stab.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        // 60 ms decaying square stab.
        let n = (0.06 * djstar_dsp::SAMPLE_RATE as f32) as usize;
        let sample = (0..n)
            .map(|i| {
                let t = i as f32 / djstar_dsp::SAMPLE_RATE as f32;
                let sq = if (t * 660.0).fract() < 0.5 { 1.0 } else { -1.0 };
                0.4 * sq * (-t * 35.0).exp()
            })
            .collect();
        SamplerNode {
            sample,
            pos: None,
            beats_seen: 0,
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }
}

impl Processor for SamplerNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        let triggered = inputs
            .first()
            .map(|clock| clock.sample(0, 0) > 0.5)
            .unwrap_or(false);
        if triggered {
            self.beats_seen += 1;
            if self.beats_seen % 4 == 1 {
                self.pos = Some(0);
            }
        }
        output.clear();
        if let Some(p) = self.pos.take() {
            // Straight slice copies into the planar channel planes.
            let n = (self.sample.len() - p).min(output.frames());
            let seg = &self.sample[p..p + n];
            let (l, r) = output.as_planar_slices_mut();
            l[..n].copy_from_slice(seg);
            if !r.is_empty() {
                r[..n].copy_from_slice(seg);
            }
            if p + n < self.sample.len() {
                self.pos = Some(p + n);
            }
        }
        self.cost.apply(output);
    }
}

// --------------------------------------------------------------------------
// Bookkeeping nodes (independent or tap nodes; "do not modify the audio")
// --------------------------------------------------------------------------

/// Level meter of a deck's audio or of its first graph input.
pub struct LevelMeterNode {
    deck: Option<usize>,
    meter: LevelMeter,
    cost: CostModel,
}

impl LevelMeterNode {
    /// A meter reading deck `deck`'s audio.
    pub fn for_deck(deck: usize, profile: WorkProfile, seed: u32) -> Self {
        LevelMeterNode {
            deck: Some(deck),
            meter: LevelMeter::standard(),
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }

    /// A meter reading its first graph input (e.g. the master bus).
    pub fn for_input(profile: WorkProfile, seed: u32) -> Self {
        LevelMeterNode {
            deck: None,
            meter: LevelMeter::standard(),
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for LevelMeterNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let src = match self.deck {
            Some(d) => deck_audio(inputs, ctx, d),
            None => inputs.first().copied(),
        };
        let (peak, rms) = src.map_or((0.0, 0.0), |src| self.meter.update(src));
        output.clear();
        output.set_sample(0, 0, peak);
        output.set_sample(0, 1.min(output.frames() - 1), rms);
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Waveform tap: decimated copy of the deck audio for the GUI.
pub struct WaveformTapNode {
    deck: usize,
    cost: CostModel,
}

impl WaveformTapNode {
    /// The waveform tap of `deck`.
    pub fn new(deck: usize, profile: WorkProfile, seed: u32) -> Self {
        WaveformTapNode {
            deck,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for WaveformTapNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = deck_audio(inputs, ctx, self.deck) {
            let step = 8;
            for (k, i) in (0..src.frames()).step_by(step).enumerate() {
                if k >= output.frames() {
                    break;
                }
                output.set_sample(0, k, src.sample(0, i));
            }
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Beat-phase estimator: onset energy flux of the deck audio.
pub struct BeatPhaseNode {
    deck: usize,
    prev_energy: f32,
    flux_acc: f32,
    cost: CostModel,
}

impl BeatPhaseNode {
    /// The beat-phase estimator of `deck`.
    pub fn new(deck: usize, profile: WorkProfile, seed: u32) -> Self {
        BeatPhaseNode {
            deck,
            prev_energy: 0.0,
            flux_acc: 0.0,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for BeatPhaseNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = deck_audio(inputs, ctx, self.deck) {
            let e = src.energy() / src.samples().len().max(1) as f32;
            let flux = (e - self.prev_energy).max(0.0);
            self.prev_energy = e;
            self.flux_acc = 0.9 * self.flux_acc + 0.1 * flux;
            output.set_sample(0, 0, self.flux_acc);
            output.set_sample(0, 1.min(output.frames() - 1), flux);
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Key detector: crude zero-crossing-rate pitch estimate.
pub struct KeyDetectNode {
    deck: usize,
    smoothed_zcr: f32,
    cost: CostModel,
}

impl KeyDetectNode {
    /// The key detector of `deck`.
    pub fn new(deck: usize, profile: WorkProfile, seed: u32) -> Self {
        KeyDetectNode {
            deck,
            smoothed_zcr: 0.0,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for KeyDetectNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = deck_audio(inputs, ctx, self.deck) {
            let mut zc = 0u32;
            for i in 1..src.frames() {
                if (src.sample(0, i - 1) <= 0.0) != (src.sample(0, i) <= 0.0) {
                    zc += 1;
                }
            }
            let zcr = zc as f32 / src.frames().max(1) as f32;
            self.smoothed_zcr = 0.95 * self.smoothed_zcr + 0.05 * zcr;
            output.set_sample(0, 0, self.smoothed_zcr);
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Spectrum tap: 8 Goertzel bands of the master signal.
pub struct SpectrumTapNode {
    /// Recurrence coefficients of the eight bands.
    coeffs: [f32; 8],
    cost: CostModel,
}

impl SpectrumTapNode {
    /// Band centres of the master spectrum analyzer (Hz).
    const BANDS_HZ: [f32; 8] = [
        60.0, 150.0, 400.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 15_000.0,
    ];

    /// The master spectrum analyzer.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        SpectrumTapNode {
            coeffs: Self::BANDS_HZ.map(|f| goertzel_coeff(f, djstar_dsp::SAMPLE_RATE)),
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for SpectrumTapNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = inputs.first() {
            let bands = goertzel_bank(src.samples(), &self.coeffs);
            for (k, &p) in bands.iter().enumerate().take(output.frames()) {
                output.set_sample(0, k, p);
            }
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Headroom calculator: remaining dB before the mixer output clips.
pub struct HeadroomCalcNode {
    cost: CostModel,
}

impl HeadroomCalcNode {
    /// The headroom bookkeeping node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        HeadroomCalcNode {
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for HeadroomCalcNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = inputs.first() {
            let headroom_db = djstar_dsp::db::gain_to_db(1.0 / src.peak().max(1e-6));
            output.set_sample(0, 0, headroom_db);
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Auto-gain: computes (but does not apply) a compressor gain suggestion.
pub struct AutoGainNode {
    comp: Compressor,
    scratch: AudioBuf,
    cost: CostModel,
}

impl AutoGainNode {
    /// The auto-gain bookkeeping node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        AutoGainNode {
            comp: Compressor::new(0.3, 3.0, 20.0, djstar_dsp::SAMPLE_RATE),
            scratch: AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES),
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for AutoGainNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        output.clear();
        if let Some(src) = inputs.first() {
            if self.scratch.channels() != src.channels() || self.scratch.frames() != src.frames() {
                self.scratch = AudioBuf::zeroed(src.channels(), src.frames());
            }
            self.scratch.copy_from(src);
            let gain = self.comp.process(&mut self.scratch);
            output.set_sample(0, 0, gain);
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Master tempo tracker (depends on the clock).
pub struct TempoMasterNode {
    smoothed: f32,
    last_beat: f32,
    cost: CostModel,
}

impl TempoMasterNode {
    /// The master-tempo bookkeeping node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        TempoMasterNode {
            smoothed: 0.0,
            last_beat: 0.0,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for TempoMasterNode {
    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let beat = ctrl(ctx, controls::BEAT_CLOCK, 0.0);
        let delta = (beat - self.last_beat).max(0.0);
        self.last_beat = beat;
        // beats/cycle → BPM at the 344.53 Hz cycle rate.
        let bpm = delta * 60.0 * djstar_dsp::SAMPLE_RATE as f32 / djstar_dsp::BUFFER_FRAMES as f32;
        self.smoothed = if self.smoothed == 0.0 {
            bpm
        } else {
            0.98 * self.smoothed + 0.02 * bpm
        };
        output.clear();
        output.set_sample(0, 0, self.smoothed);
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Latency monitor: watches the output stage (trivial accounting).
pub struct LatencyMonNode {
    cycles: u64,
    cost: CostModel,
}

impl LatencyMonNode {
    /// The latency-monitor bookkeeping node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        LatencyMonNode {
            cycles: 0,
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for LatencyMonNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        self.cycles += 1;
        output.clear();
        output.set_sample(0, 0, self.cycles as f32);
        if let Some(src) = inputs.first() {
            output.set_sample(0, 1.min(output.frames() - 1), src.peak());
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

/// Stats collector: aggregates the three output paths (the graph's sink).
pub struct StatsCollectorNode {
    cost: CostModel,
}

impl StatsCollectorNode {
    /// The stats-aggregation sink node.
    pub fn new(profile: WorkProfile, seed: u32) -> Self {
        StatsCollectorNode {
            cost: CostModel::new(NodeClass::Bookkeeping, profile, seed),
        }
    }
}

impl Processor for StatsCollectorNode {
    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, _ctx: &CycleCtx<'_>) {
        output.clear();
        for (k, src) in inputs.iter().enumerate() {
            if k < output.frames() {
                output.set_sample(0, k, src.rms());
            }
        }
        self.cost.apply(output);
    }

    fn output_channels(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light() -> WorkProfile {
        WorkProfile::light()
    }

    fn ctx_with<'a>(audio: &'a [AudioBuf], ctrls: &'a [f32]) -> CycleCtx<'a> {
        CycleCtx {
            epoch: 1,
            external_audio: audio,
            controls: ctrls,
            counters: None,
        }
    }

    #[test]
    fn sp_filter_reads_external_deck() {
        let audio = vec![AudioBuf::from_fn(2, 128, |_, i| {
            ((i as f32) * 0.2).sin() * 0.5
        })];
        let mut node = SpFilterNode::new(0, 0, light(), 1);
        let mut out = AudioBuf::zeroed(2, 128);
        node.process(&[], &mut out, &ctx_with(&audio, &[]));
        assert!(out.is_finite());
        assert!(out.rms() > 0.0);
    }

    #[test]
    fn sp_filter_missing_deck_is_silent() {
        let mut node = SpFilterNode::new(2, 1, light(), 1);
        let mut out = AudioBuf::zeroed(2, 128);
        node.process(&[], &mut out, &ctx_with(&[], &[]));
        assert!(out.peak() < 1e-10);
    }

    /// A deck's four SP bands, batched through the shared tree, equal
    /// the four run alone — outputs and burn residue — and a band of
    /// another deck, or a band whose shared state drifted, makes the
    /// batch decline without touching anything.
    #[test]
    fn sp_batch_equals_the_bands_alone_and_declines_when_it_must() {
        let mk = |deck| -> Vec<SpFilterNode> {
            (0..4)
                .map(|b| SpFilterNode::new(deck, b, light(), 3 + b as u32))
                .collect()
        };
        let (mut batched, mut alone) = (mk(1), mk(1));
        let mut rng = djstar_dsp::rng::SmallRng::seed_from_u64(0x5BA7);
        let out = || AudioBuf::zeroed(2, 128);
        let batch = |nodes: &mut [SpFilterNode], src: &AudioBuf, outs: &mut [AudioBuf]| {
            let ([lead, rest @ ..], [o0, o_rest @ ..]) = (nodes, outs) else {
                unreachable!()
            };
            let mut sibs: Vec<Sibling<'_>> = rest
                .iter_mut()
                .zip(o_rest.iter_mut())
                .map(|(p, o)| Sibling {
                    processor: p as &mut dyn Processor,
                    output: o,
                })
                .collect();
            lead.process_batch(o0, &mut sibs, &[src], &CycleCtx::bare(1))
        };
        for _ in 0..20 {
            let src = AudioBuf::from_fn(2, 128, |_, _| rng.f32() - 0.5);
            let mut got: Vec<AudioBuf> = (0..4).map(|_| out()).collect();
            assert_eq!(
                batch(&mut batched, &src, &mut got),
                djstar_dsp::simd::avx2_fma_available()
            );
            for (k, node) in alone.iter_mut().enumerate() {
                let mut want = out();
                node.process(&[&src], &mut want, &CycleCtx::bare(1));
                if djstar_dsp::simd::avx2_fma_available() {
                    assert_eq!(got[k].samples(), want.samples(), "band {k}");
                }
            }
        }
        let src = AudioBuf::from_fn(2, 128, |_, i| i as f32 * 1e-3);
        // A band of another deck in the group.
        let mut mixed = mk(1);
        mixed[3] = SpFilterNode::new(2, 3, light(), 6);
        // Band 3's copy of the shared highpass filtered one buffer more.
        let mut drifted = mk(1);
        drifted[3].process(&[&src], &mut out(), &CycleCtx::bare(1));
        for (label, mut nodes) in [("another deck", mixed), ("drifted", drifted)] {
            let mut outs: Vec<AudioBuf> = (0..4).map(|_| out()).collect();
            let before: Vec<_> = nodes.iter().map(|n| n.chain[0].state()).collect();
            assert!(!batch(&mut nodes, &src, &mut outs), "{label}: batch ran");
            assert!(outs.iter().all(|o| o.peak() == 0.0), "{label}");
            let after: Vec<_> = nodes.iter().map(|n| n.chain[0].state()).collect();
            assert_eq!(before, after, "{label}");
        }
    }

    #[test]
    fn disabled_effect_is_passthrough_shape() {
        let fx = djstar_dsp::effects::EffectKind::Overdrive.build(44_100);
        let mut node = EffectNode::new(fx, false, light(), 2);
        let input = AudioBuf::from_fn(2, 128, |_, i| (i as f32 * 0.1).sin() * 0.4);
        let mut out = AudioBuf::zeroed(2, 128);
        node.process(&[&input], &mut out, &ctx_with(&[], &[]));
        // Single input: no normalization, no effect; only the 1e-20 residue.
        for (a, b) in out.samples().iter().zip(input.samples()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn channel_node_applies_fader_control() {
        let mut node = ChannelNode::new(0, 0.0, [0.0; 3], light(), 3);
        let input = AudioBuf::from_fn(2, 128, |_, _| 0.5);
        let mut out = AudioBuf::zeroed(2, 128);
        let mut ctrls = vec![0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        ctrls[controls::deck_gain(0)] = 0.0;
        node.process(&[&input], &mut out, &ctx_with(&[], &ctrls));
        assert!(out.peak() < 1e-10, "fader at zero must silence");
    }

    #[test]
    fn mixer_crossfader_kills_side_a_at_full_b() {
        let mut node = MixerNode::new(light(), 4);
        let a = AudioBuf::from_fn(2, 128, |_, _| 1.0);
        let silent = AudioBuf::zeroed(2, 128);
        let mut out = AudioBuf::zeroed(2, 128);
        let mut ctrls = vec![0.0; controls::COUNT];
        ctrls[controls::CROSSFADER] = 1.0; // full B
        node.process(
            &[&a, &silent, &silent, &silent, &silent],
            &mut out,
            &ctx_with(&[], &ctrls),
        );
        assert!(out.peak() < 1e-6, "A must be silent at crossfader=1");
        ctrls[controls::CROSSFADER] = 0.0; // full A
        node.process(
            &[&a, &silent, &silent, &silent, &silent],
            &mut out,
            &ctx_with(&[], &ctrls),
        );
        assert!(out.peak() > 0.9);
    }

    #[test]
    fn audio_out_never_exceeds_unity() {
        let mut node = AudioOutNode::new(light(), 5);
        let hot = AudioBuf::from_fn(2, 128, |_, _| 4.0);
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..10 {
            node.process(&[&hot], &mut out, &ctx_with(&[], &[]));
            assert!(out.peak() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn clock_tick_fires_on_integer_crossings() {
        let mut node = ClockTickNode::new(light(), 6);
        let mut out = AudioBuf::zeroed(1, 128);
        let mut ctrls = vec![0.0; controls::COUNT];
        // The cost model folds a ~1e-20 residue into sample 0, so compare
        // with a tolerance rather than exactly.
        ctrls[controls::BEAT_CLOCK] = 0.5;
        node.process(&[], &mut out, &ctx_with(&[], &ctrls));
        assert!(out.sample(0, 0).abs() < 1e-10);
        ctrls[controls::BEAT_CLOCK] = 1.1;
        node.process(&[], &mut out, &ctx_with(&[], &ctrls));
        assert!((out.sample(0, 0) - 1.0).abs() < 1e-6);
        ctrls[controls::BEAT_CLOCK] = 1.4;
        node.process(&[], &mut out, &ctx_with(&[], &ctrls));
        assert!(out.sample(0, 0).abs() < 1e-10);
    }

    #[test]
    fn sampler_plays_on_every_fourth_beat() {
        let mut node = SamplerNode::new(light(), 7);
        let mut trigger = AudioBuf::zeroed(1, 128);
        trigger.set_sample(0, 0, 1.0);
        let silent_clock = AudioBuf::zeroed(1, 128);
        let mut out = AudioBuf::zeroed(2, 128);
        // Beat 1: plays.
        node.process(&[&trigger], &mut out, &ctx_with(&[], &[]));
        assert!(out.peak() > 0.1);
        // Drain the one-shot.
        for _ in 0..40 {
            node.process(&[&silent_clock], &mut out, &ctx_with(&[], &[]));
        }
        // Beat 2: must NOT play.
        node.process(&[&trigger], &mut out, &ctx_with(&[], &[]));
        assert!(out.peak() < 1e-6);
    }

    #[test]
    fn cue_buffer_averages_enabled_channels() {
        let mut node = CueBufferNode::new([true, true, false, false], light(), 8);
        let one = AudioBuf::from_fn(2, 16, |_, _| 1.0);
        let three = AudioBuf::from_fn(2, 16, |_, _| 3.0);
        let ignored = AudioBuf::from_fn(2, 16, |_, _| 100.0);
        let mut out = AudioBuf::zeroed(2, 16);
        node.process(
            &[&one, &three, &ignored, &ignored],
            &mut out,
            &ctx_with(&[], &[]),
        );
        assert!((out.sample(0, 0) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn spectrum_tap_reports_band_energy() {
        let mut node = SpectrumTapNode::new(light(), 9);
        let tone = AudioBuf::from_fn(2, 128, |_, i| {
            (core::f32::consts::TAU * 1000.0 * i as f32 / 44_100.0).sin()
        });
        let mut out = AudioBuf::zeroed(1, 128);
        node.process(&[&tone], &mut out, &ctx_with(&[], &[]));
        // Band 3 is 1 kHz; with only 128 samples the low bins suffer
        // leakage, so compare against the far-away 15 kHz band.
        assert!(
            out.sample(0, 3) > out.sample(0, 7) * 3.0,
            "1k {} vs 15k {}",
            out.sample(0, 3),
            out.sample(0, 7)
        );
    }

    #[test]
    fn stats_collector_reports_input_rms() {
        let mut node = StatsCollectorNode::new(light(), 10);
        let a = AudioBuf::from_fn(2, 16, |_, _| 0.5);
        let b = AudioBuf::zeroed(2, 16);
        let mut out = AudioBuf::zeroed(1, 16);
        node.process(&[&a, &b], &mut out, &ctx_with(&[], &[]));
        assert!((out.sample(0, 0) - 0.5).abs() < 1e-4);
        assert!(out.sample(0, 1).abs() < 1e-6);
    }

    #[test]
    fn cost_model_burns_more_for_loud_audio() {
        // Deterministic check via the exposed iteration count (a timing
        // comparison would be flaky on loaded CI boxes).
        let profile = WorkProfile::paper_scale();
        let cost = CostModel::new(NodeClass::Effect, profile, 0);
        let loud = AudioBuf::from_fn(2, 128, |_, _| 0.9);
        let medium = AudioBuf::from_fn(2, 128, |_, i| 0.25 * ((i as f32) * 0.3).sin());
        let quiet = AudioBuf::zeroed(2, 128);
        let (il, im, iq) = (
            cost.iters_for(&loud),
            cost.iters_for(&medium),
            cost.iters_for(&quiet),
        );
        assert!(
            il > im && im > iq,
            "iters loud {il}, medium {im}, quiet {iq}"
        );
        // dd = 0.9: the spread between silence and saturation is 0.55..1.45
        // of the base budget.
        let base = profile.fx_iters as f32;
        assert!((iq as f32 / base - 0.55).abs() < 0.01);
        assert!((il as f32 / base - 1.45).abs() < 0.01);
    }
}
