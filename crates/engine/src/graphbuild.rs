//! Assembly of the 67-node DJ Star task graph (Fig. 3).
//!
//! Structure per deck `d` (4 decks):
//!
//! ```text
//! SPd1..SPd4  ─┬─► FXd1 ─► FXd2 ─► FXd3 ─► FXd4 ─► Channel_d ─► (Mixer, CueBuffer)
//! LevelMeter_d │   (the effect chain sums the four preprocess bands)
//! WaveformTap_d│  independent bookkeeping sources
//! BeatPhase_d  │
//! KeyDetect_d ─┘
//! ```
//!
//! Master section: `ClockTick → AudioSampler → Mixer → MasterBuffer →
//! {AudioOut1 → LatencyMon, RecordBuffer, MasterMeter, SpectrumTap}`,
//! `Channels → CueBuffer → MonitorBuffer`, `Mixer → {HeadroomCalc,
//! AutoGain}`, `ClockTick → TempoMaster`, and `{AudioOut1, RecordBuffer,
//! MonitorBuffer} → StatsCollector`.
//!
//! Node count: 4 decks × (4 SP + 4 FX + 1 Channel + 4 bookkeeping) = 52,
//! plus 15 master-section nodes = **67** (the paper's count, §IV). Source
//! nodes: 16 SP + 16 deck bookkeeping + ClockTick = **33**, matching the
//! paper's measured initial concurrency of 33. That is
//! [`build_djstar_graph`], whose deck sources read the deck audio from
//! `CycleCtx::external_audio`.
//!
//! The engine's graph ([`build_shaped_graph`]) appends the APC's own
//! phases after those nodes, in [`Section::Apc`] (see [`crate::front`]):
//! `FrontA`…`FrontD` (TP + GP of one deck each) feed their deck's SP and
//! bookkeeping nodes, and `VC` depends on the four fronts. Appending keeps
//! every id — hence every burn seed and fault draw — of the paper's nodes.

use crate::front::{DeckFront, DeckTempos, VariousCalc};
use crate::netnodes::{jitter_config_from_spec, net_plan_from_spec, NetDeckSource};
use crate::nodes::*;
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{vacant, Processor};
use djstar_dsp::effects::EffectKind;
use djstar_workload::profile::WorkProfile;
use djstar_workload::scenario::Scenario;
use std::sync::Arc;

/// Build-time shape of the DJ Star graph: which decks are loaded and how
/// many FX slots each loaded deck's chain holds.
///
/// The paper's fixed 67-node graph is [`paper_default`](Self::paper_default)
/// (4 loaded decks x 4 FX slots). Live reconfiguration (see
/// `crate::reconfig`) edits a shape, rebuilds the graph off the audio
/// thread, and swaps it into the running executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphShape {
    /// Whether deck `d` contributes its 13-node section to the graph.
    pub deck_loaded: [bool; 4],
    /// FX chain length per deck (`1..=MAX_FX_SLOTS`); ignored for
    /// unloaded decks.
    pub fx_slots: [usize; 4],
    /// Whether a loaded deck streams over the network: a `NetSrc` receiver
    /// node feeds its SP filterbank instead of the local audio slot.
    pub remote_decks: [bool; 4],
    /// Jitter-buffer playout depth override per remote deck (`0` = use the
    /// scenario's start depth). The degradation governor's latency axis:
    /// rebuilding with a larger depth trades latency for fewer dropouts.
    pub net_depth: [u32; 4],
    /// Broadcast listeners fed from the master bus (`0` = no sink node).
    pub listeners: u32,
}

impl GraphShape {
    /// Upper bound on a deck's FX chain length.
    pub const MAX_FX_SLOTS: usize = 8;

    /// The paper's shape: all four decks loaded, four FX slots each, no
    /// networking.
    pub fn paper_default() -> Self {
        GraphShape {
            deck_loaded: [true; 4],
            fx_slots: [4; 4],
            remote_decks: [false; 4],
            net_depth: [0; 4],
            listeners: 0,
        }
    }

    /// The paper shape with the network machinery a
    /// [`NetSpec`](djstar_workload::NetSpec) asks for.
    pub fn for_net(net: &djstar_workload::NetSpec) -> Self {
        let mut net_depth = [0u32; 4];
        for (d, slot) in net_depth.iter_mut().enumerate() {
            if net.remote_decks[d] {
                *slot = net.start_depth;
            }
        }
        GraphShape {
            remote_decks: net.remote_decks,
            net_depth,
            listeners: net.listeners,
            ..Self::paper_default()
        }
    }

    /// Node count of the graph this shape builds: 15 master nodes and the
    /// [`APC_NODES`], plus `4 SP + fx_slots + 1 channel + 4 bookkeeping`
    /// per loaded deck, one `NetSrc` per loaded remote deck, and the
    /// broadcast sink.
    pub fn node_count(&self) -> usize {
        15 + APC_NODES
            + usize::from(self.listeners > 0)
            + (0..4)
                .filter(|&d| self.deck_loaded[d])
                .map(|d| 9 + self.fx_slots[d] + usize::from(self.remote_decks[d]))
                .sum::<usize>()
    }
}

impl Default for GraphShape {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Nodes the APC's own phases add to every shape's graph: four deck
/// fronts and VC.
pub const APC_NODES: usize = 5;

/// Ids of the APC-phase nodes.
#[derive(Debug, Clone, Copy)]
pub struct ApcNodes {
    /// `Front<d>`: TP + GP of deck `d`.
    pub fronts: [NodeId; 4],
    /// `VC`: master tempo and beat clock.
    pub vc: NodeId,
}

/// Landmark node ids of one loaded deck.
#[derive(Debug, Clone)]
pub struct DeckNodes {
    /// SP filterbank, `[band]`.
    pub sp: [NodeId; 4],
    /// Effect chain, one id per slot (variable length under reshaping).
    pub fx: Vec<NodeId>,
    /// Channel strip.
    pub channel: NodeId,
}

/// Ids of the landmark nodes of the built graph. Unloaded decks have no
/// nodes, so the per-deck landmarks are optional.
#[derive(Debug, Clone)]
pub struct NodeMap {
    /// Every node's [`NodeKey`], in node order: what its cost is priced by.
    pub keys: Vec<NodeKey>,
    /// Per-deck landmarks; `None` when the deck is not in the graph.
    pub decks: [Option<DeckNodes>; 4],
    /// The mixer.
    pub mixer: NodeId,
    /// Master buffer (post-mixer bus).
    pub master_buffer: NodeId,
    /// Final audio output (what the sound card consumes).
    pub audio_out: NodeId,
    /// Record path.
    pub record: NodeId,
    /// Cue mix.
    pub cue: NodeId,
    /// Headphone monitor.
    pub monitor: NodeId,
    /// Clock tick source.
    pub clock: NodeId,
    /// The sampler.
    pub sampler: NodeId,
    /// The stats sink (last node of the queue).
    pub stats: NodeId,
    /// Per-deck network receiver; `None` when the deck plays locally.
    pub net_src: [Option<NodeId>; 4],
    /// The broadcast sink, when the shape has listeners.
    pub broadcast: Option<NodeId>,
    /// The APC-phase nodes; `None` in the paper graph of
    /// [`build_djstar_graph`].
    pub apc: Option<ApcNodes>,
}

impl NodeMap {
    /// Landmarks of deck `d`, when loaded.
    pub fn deck(&self, d: usize) -> Option<&DeckNodes> {
        self.decks.get(d).and_then(|o| o.as_ref())
    }

    /// Channel strip of deck `d`, when loaded.
    pub fn channel(&self, d: usize) -> Option<NodeId> {
        self.deck(d).map(|k| k.channel)
    }

    /// FX slot `slot` of deck `d`, when present.
    pub fn fx(&self, d: usize, slot: usize) -> Option<NodeId> {
        self.deck(d).and_then(|k| k.fx.get(slot).copied())
    }

    /// SP band filter `band` of deck `d`, when loaded.
    pub fn sp(&self, d: usize, band: usize) -> Option<NodeId> {
        self.deck(d).and_then(|k| k.sp.get(band).copied())
    }
}

/// The effect kinds loaded into the four FX slots of every deck.
const DECK_FX: [EffectKind; 4] = [
    EffectKind::EchoDelay,
    EffectKind::Flanger,
    EffectKind::Phaser,
    EffectKind::Overdrive,
];

/// Build the paper's fixed-shape DJ Star graph for `scenario`: the 67
/// nodes of Fig. 3 and no APC-phase nodes, so its deck sources read the
/// deck audio from `CycleCtx::external_audio`. What the experiment
/// harnesses analyse.
///
/// Inactive decks still contribute their nodes (the paper's graph always
/// has 67 nodes; unused decks process silence), but their effects are
/// disabled. Equivalent to [`build_shaped_graph`] with
/// [`GraphShape::paper_default`], less its [`APC_NODES`].
pub fn build_djstar_graph(scenario: &Scenario) -> (TaskGraph, NodeMap) {
    assemble(scenario, &GraphShape::paper_default(), false, |spec| {
        spec.build()
    })
}

/// Build the DJ Star graph for `scenario` with an explicit `shape`:
/// unloaded decks contribute no nodes at all, and each loaded deck's FX
/// chain holds `shape.fx_slots[d]` slots (slot `s` loads
/// `DECK_FX[s % 4]`, enabled per the scenario's `fx_enabled[s % 4]`).
///
/// Node names are stable across shapes — `SPA1`, `FXB5`, `ChannelC`, … —
/// which is what lets the executors' generation swap carry processor
/// state over by name when the shape changes.
pub fn build_shaped_graph(scenario: &Scenario, shape: &GraphShape) -> (TaskGraph, NodeMap) {
    assemble(scenario, shape, true, |spec| spec.build())
}

/// The same graph with every node *hollow*: names, sections, edges and
/// output layouts of [`build_shaped_graph`], each node holding a
/// zero-sized [`vacant`] placeholder instead of its processor. What a mode
/// switch stages and the mode cache keeps; [`build_part`] makes the
/// processors a generation swap cannot carry over.
pub fn hollow_graph(scenario: &Scenario, shape: &GraphShape) -> (TaskGraph, NodeMap) {
    assemble(scenario, shape, true, |spec| vacant(spec.channels))
}

/// The processor of the node keyed `key` in `shape`'s graph, exactly as
/// [`build_shaped_graph`] constructs it (same parameters, same seed);
/// `None` when the shape has no such node. A front or VC built alone
/// shares its tempo slots with no other node: the engine never builds
/// one alone, because every generation swap carries all five over.
pub fn build_part(
    scenario: &Scenario,
    shape: &GraphShape,
    key: NodeKey,
) -> Option<Box<dyn Processor>> {
    let mut part = None;
    walk_nodes(scenario, shape, true, &mut |spec| {
        if spec.key == key {
            part = Some(spec.build());
        }
    });
    part
}

fn assemble(
    scenario: &Scenario,
    shape: &GraphShape,
    apc: bool,
    part: impl Fn(&NodeSpec<'_>) -> Box<dyn Processor>,
) -> (TaskGraph, NodeMap) {
    let mut b = TaskGraphBuilder::new();
    let map = walk_nodes(scenario, shape, apc, &mut |spec| {
        let processor = part(&spec);
        let (name, section) = (spec.key.name(), spec.key.section());
        debug_assert_eq!(processor.output_channels(), spec.channels, "{name}");
        b.add(name, section, processor, spec.preds);
    });
    // A deck's four SP bands read the same deck audio: one sibling group,
    // which SEQ runs as one shared crossover tree.
    for deck in map.decks.iter().flatten() {
        b.group(&deck.sp);
    }
    let graph = b.build().expect("the DJ Star graph is a valid DAG");
    (graph, map)
}

/// Constructs a node's processor from its burn seed.
type Make<'a> = &'a dyn Fn(u32) -> Box<dyn Processor>;

/// `profile` on a deck whose `fx_weight` scales its FX chain's compute
/// (the paper's chains are visibly imbalanced, Fig. 11).
pub(crate) fn deck_profile(mut profile: WorkProfile, fx_weight: f32) -> WorkProfile {
    profile.fx_iters = ((profile.fx_iters as f32 * fx_weight).round() as u32).max(1);
    profile
}

/// What a node computes: its name with the deck letter, slot number and
/// bracket suffix taken away. Nodes of one kind cost alike, so a kind's
/// mean prices a node a cost model has never seen (`FXC7`).
#[allow(missing_docs, clippy::upper_case_acronyms)] // each variant is its node names' stem
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    NetSrc,
    SP,
    FX,
    Channel,
    LevelMeter,
    WaveformTap,
    BeatPhase,
    KeyDetect,
    ClockTick,
    AudioSampler,
    Mixer,
    MasterBuffer,
    AudioOut,
    RecordBuffer,
    CueBuffer,
    MonitorBuffer,
    MasterMeter,
    SpectrumTap,
    HeadroomCalc,
    AutoGain,
    TempoMaster,
    LatencyMon,
    StatsCollector,
    BroadcastSink,
    Front,
    VC,
}

/// A node's identity as a value: its kind, its deck and its slot (SP band
/// or FX slot from 1, the output number of `AudioOut1`, the wired decks of
/// the mixer and cue bus as a bit mask, the broadcast listener count).
/// Node costs are priced by key; the name is the key spelled out
/// ([`name`](Self::name)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeKey {
    /// What the node computes.
    pub kind: NodeKind,
    /// The deck the node belongs to; `None` in the master section and VC.
    pub deck: Option<u8>,
    /// The node's slot within its kind and deck (0 when it has none).
    pub slot: u32,
}

impl NodeKey {
    /// The node's name — `SPA1`, `FXB5`, `ChannelC`, `Mixer[ABD]`,
    /// `BroadcastSink[n4]` — stable across shapes, which is what lets the
    /// generation swap carry processor state over by name.
    pub fn name(self) -> String {
        let letter = |d: u32| char::from(b'A' + d as u8);
        let mut name = format!("{:?}", self.kind);
        name.extend(self.deck.map(|d| letter(d.into())));
        match self.kind {
            NodeKind::Mixer | NodeKind::CueBuffer => {
                let wired = (0..4).filter(|d| self.slot >> d & 1 == 1);
                name = format!("{name}[{}]", wired.map(letter).collect::<String>());
            }
            NodeKind::BroadcastSink => name = format!("{name}[n{}]", self.slot),
            _ if self.slot > 0 => name = format!("{name}{}", self.slot),
            _ => {}
        }
        name
    }

    /// The section the node runs in.
    fn section(self) -> Section {
        match (self.kind, self.deck) {
            (NodeKind::Front | NodeKind::VC, _) => Section::Apc,
            (_, Some(d)) => Section::deck(d.into()),
            (_, None) => Section::Master,
        }
    }
}

/// What a node *is* — id, key, predecessors, output channels — kept apart
/// from the processor that computes it, which [`build`](Self::build)
/// constructs on demand.
pub(crate) struct NodeSpec<'a> {
    pub id: NodeId,
    pub key: NodeKey,
    pub channels: usize,
    pub preds: &'a [NodeId],
    make: Make<'a>,
}

impl NodeSpec<'_> {
    /// Construct the node's processor. Its burn seed is its 1-based
    /// position in the graph, so a part built alone equals the one a whole
    /// graph build makes for that node.
    pub fn build(&self) -> Box<dyn Processor> {
        (self.make)(self.id.0 + 1)
    }
}

const MONO: usize = 1;
const STEREO: usize = 2;

/// Present every node of `shape`'s graph to `visit`, in build order, and
/// return the landmark ids — with the [`APC_NODES`] last when `apc`. The
/// one description of the graph: [`build_shaped_graph`], [`hollow_graph`]
/// and [`build_part`] differ only in what they do with each [`NodeSpec`].
pub(crate) fn walk_nodes(
    scenario: &Scenario,
    shape: &GraphShape,
    apc: bool,
    visit: &mut dyn FnMut(NodeSpec<'_>),
) -> NodeMap {
    // The fronts come last, but the deck nodes they feed name them first.
    let fronts: Option<[NodeId; 4]> = apc.then(|| {
        let first = shape.node_count() - APC_NODES;
        std::array::from_fn(|d| NodeId((first + d) as u32))
    });
    use NodeKind::*;
    let mut keys = Vec::with_capacity(shape.node_count());
    let mut add = |key: NodeKey, channels: usize, preds: &[NodeId], make: Make<'_>| {
        let id = NodeId(keys.len() as u32);
        keys.push(key);
        visit(NodeSpec {
            id,
            key,
            channels,
            preds,
            make,
        });
        id
    };
    let profile = scenario.work;
    let sr = djstar_dsp::SAMPLE_RATE;
    let net_plan = net_plan_from_spec(&scenario.net);

    let mut decks: [Option<DeckNodes>; 4] = [None, None, None, None];
    let mut net_src: [Option<NodeId>; 4] = [None; 4];

    #[allow(clippy::needless_range_loop)] // `d` indexes shape, scenario and decks alike
    for d in 0..4 {
        if !shape.deck_loaded[d] {
            continue;
        }
        let slots = shape.fx_slots[d].clamp(1, GraphShape::MAX_FX_SLOTS);
        let deck = Some(d as u8);
        let key = |kind, slot: usize| NodeKey {
            kind,
            deck,
            slot: slot as u32,
        };
        let cfg = &scenario.decks[d];
        let front: Vec<NodeId> = fronts.map(|f| f[d]).into_iter().collect();
        // Remote deck: a network receiver feeds the SP filterbank. The
        // key carries no depth — the generation swap's name-keyed carry
        // preserves the jitter buffer's state across reshapes, and the
        // engine retunes the carried buffer's target depth post-commit.
        if shape.remote_decks[d] {
            let depth = (shape.net_depth[d] > 0).then_some(shape.net_depth[d]);
            let jcfg = jitter_config_from_spec(&scenario.net, depth);
            net_src[d] = Some(add(key(NetSrc, 0), STEREO, &[], &|seed| {
                Box::new(NetDeckSource::new(d, net_plan, jcfg, profile, seed))
            }));
        }
        let sp_preds: Vec<NodeId> = match net_src[d] {
            Some(src) => vec![src],
            None => front.clone(),
        };
        // Sample-preprocess filterbank.
        let mut sp = [NodeId(0); 4];
        #[allow(clippy::needless_range_loop)] // `band` names the SP slot
        for band in 0..4 {
            sp[band] = add(key(SP, band + 1), STEREO, &sp_preds, &|seed| {
                Box::new(SpFilterNode::new(d, band, profile, seed))
            });
        }
        // Effect chain: the first slot sums the four bands, the rest run
        // in series.
        let fx_profile = deck_profile(profile, cfg.fx_weight);
        let mut fx: Vec<NodeId> = Vec::with_capacity(slots);
        for slot in 0..slots {
            let preds: Vec<NodeId> = if slot == 0 {
                sp.to_vec()
            } else {
                vec![fx[slot - 1]]
            };
            let enabled = cfg.active && cfg.fx_enabled[slot % 4];
            fx.push(add(key(FX, slot + 1), STEREO, &preds, &|seed| {
                let effect = DECK_FX[slot % 4].build(sr);
                Box::new(EffectNode::new(effect, enabled, fx_profile, seed))
            }));
        }
        // Channel strip.
        let channel = add(
            key(Channel, 0),
            STEREO,
            &[*fx.last().expect("at least one FX slot")],
            &|seed| {
                Box::new(ChannelNode::new(
                    d,
                    cfg.filter_pos,
                    cfg.eq_db,
                    profile,
                    seed,
                ))
            },
        );
        // Bookkeeping of the deck audio.
        let bookkeeping: [(NodeKind, Make<'_>); 4] = [
            (LevelMeter, &|seed| {
                Box::new(LevelMeterNode::for_deck(d, profile, seed))
            }),
            (WaveformTap, &|seed| {
                Box::new(WaveformTapNode::new(d, profile, seed))
            }),
            (BeatPhase, &|seed| {
                Box::new(BeatPhaseNode::new(d, profile, seed))
            }),
            (KeyDetect, &|seed| {
                Box::new(KeyDetectNode::new(d, profile, seed))
            }),
        ];
        for (kind, make) in bookkeeping {
            add(key(kind, 0), MONO, &front, make);
        }
        decks[d] = Some(DeckNodes { sp, fx, channel });
    }

    // Channel inputs the master section consumes, in deck order. The
    // crossfader side of each comes with it so the mixer's layout tracks
    // the shape.
    const DECK_SIDES: [f32; 4] = [-1.0, 1.0, 0.0, 0.0];
    let wired: Vec<(usize, NodeId)> = decks
        .iter()
        .enumerate()
        .filter_map(|(d, k)| k.as_ref().map(|k| (d, k.channel)))
        .collect();
    let mixer_sides: Vec<f32> = wired.iter().map(|&(d, _)| DECK_SIDES[d]).collect();
    // Cue defaults to deck B, matching the paper-shape mask.
    let cue_mask: Vec<bool> = wired.iter().map(|&(d, _)| d == 1).collect();
    let channel_ids: Vec<NodeId> = wired.iter().map(|&(_, id)| id).collect();
    // The mixer and cue bus are wired per shape (one input slot per loaded
    // deck), so their keys, and so their names, carry the wiring: the
    // generation swap's name-keyed carry-over then never drags a stale
    // input layout into a reshaped graph — a changed wiring gets a fresh
    // (stateless) node.
    let wiring = wired.iter().fold(0, |mask, &(d, _)| mask | 1 << d);
    let master = |kind, slot: usize| NodeKey {
        kind,
        deck: None,
        slot: slot as u32,
    };

    // Master section.
    let clock = add(master(ClockTick, 0), MONO, &[], &|seed| {
        Box::new(ClockTickNode::new(profile, seed))
    });
    let sampler = add(master(AudioSampler, 0), STEREO, &[clock], &|seed| {
        Box::new(SamplerNode::new(profile, seed))
    });
    let mixer_preds: Vec<NodeId> = channel_ids.iter().copied().chain([sampler]).collect();
    let mixer = add(master(Mixer, wiring), STEREO, &mixer_preds, &|seed| {
        Box::new(MixerNode::with_sides(mixer_sides.clone(), profile, seed))
    });
    let master_buffer = add(master(MasterBuffer, 0), STEREO, &[mixer], &|seed| {
        Box::new(MasterBufferNode::new(profile, seed))
    });
    let to_master = [master_buffer];
    let audio_out = add(master(AudioOut, 1), STEREO, &to_master, &|seed| {
        Box::new(AudioOutNode::new(profile, seed))
    });
    let record = add(master(RecordBuffer, 0), STEREO, &to_master, &|seed| {
        Box::new(RecordBufferNode::new(profile, seed))
    });
    let cue = add(master(CueBuffer, wiring), STEREO, &channel_ids, &|seed| {
        Box::new(CueBufferNode::new(cue_mask.clone(), profile, seed))
    });
    let monitor = add(master(MonitorBuffer, 0), MONO, &[cue], &|seed| {
        Box::new(MonitorBufferNode::new(profile, seed))
    });
    add(master(MasterMeter, 0), MONO, &to_master, &|seed| {
        Box::new(LevelMeterNode::for_input(profile, seed))
    });
    add(master(SpectrumTap, 0), MONO, &to_master, &|seed| {
        Box::new(SpectrumTapNode::new(profile, seed))
    });
    add(master(HeadroomCalc, 0), MONO, &[mixer], &|seed| {
        Box::new(HeadroomCalcNode::new(profile, seed))
    });
    add(master(AutoGain, 0), MONO, &[mixer], &|seed| {
        Box::new(AutoGainNode::new(profile, seed))
    });
    add(master(TempoMaster, 0), MONO, &[clock], &|seed| {
        Box::new(TempoMasterNode::new(profile, seed))
    });
    add(master(LatencyMon, 0), MONO, &[audio_out], &|seed| {
        Box::new(LatencyMonNode::new(profile, seed))
    });
    let stats = add(
        master(StatsCollector, 0),
        MONO,
        &[audio_out, record, monitor],
        &|seed| Box::new(StatsCollectorNode::new(profile, seed)),
    );
    // Broadcast sink: encodes the master bus for N listeners. The key
    // carries the listener count, so a changed audience gets a fresh node
    // (its queues are sized at construction).
    let broadcast = (shape.listeners > 0).then(|| {
        add(
            master(BroadcastSink, shape.listeners as usize),
            STEREO,
            &to_master,
            &|seed| {
                let sink =
                    crate::netnodes::BroadcastSink::new(shape.listeners, net_plan, profile, seed);
                Box::new(sink)
            },
        )
    });

    // The APC's phases; one tempo board links the fronts to VC.
    let apc = fronts.map(|want| {
        let tempos = Arc::new(DeckTempos::default());
        let fronts: [NodeId; 4] = std::array::from_fn(|d| {
            add(
                NodeKey {
                    kind: Front,
                    deck: Some(d as u8),
                    slot: 0,
                },
                STEREO,
                &[],
                &|_| Box::new(DeckFront::new(scenario, d, Arc::clone(&tempos))),
            )
        });
        debug_assert_eq!(fronts, want, "the deck nodes named the wrong fronts");
        let vc = add(master(VC, 0), MONO, &fronts, &|_| {
            Box::new(VariousCalc::new(scenario, Arc::clone(&tempos)))
        });
        ApcNodes { fronts, vc }
    });

    NodeMap {
        keys,
        decks,
        mixer,
        master_buffer,
        audio_out,
        record,
        cue,
        monitor,
        clock,
        sampler,
        stats,
        net_src,
        broadcast,
        apc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djstar_workload::scenario::Scenario;

    #[test]
    fn graph_has_exactly_67_nodes() {
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        assert_eq!(g.len(), 67, "the paper's graph has 67 nodes");
    }

    #[test]
    fn graph_has_exactly_33_sources() {
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        assert_eq!(
            g.topology().sources().len(),
            33,
            "the paper measures 33 initially concurrent nodes"
        );
    }

    #[test]
    fn queue_is_valid_and_covers_all_nodes() {
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        let t = g.topology();
        assert!(t.is_valid_execution_order(t.queue()));
    }

    #[test]
    fn critical_path_matches_structure() {
        // SP → FX1 → FX2 → FX3 → FX4 → Channel → Mixer → MasterBuffer →
        // AudioOut → StatsCollector = 10 nodes.
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        assert_eq!(g.topology().critical_path_len(), 10);
    }

    #[test]
    fn node_map_names_line_up() {
        let (g, map) = build_djstar_graph(&Scenario::light_test());
        let t = g.topology();
        assert_eq!(t.name(map.mixer), "Mixer[ABCD]");
        assert_eq!(t.name(map.audio_out), "AudioOut1");
        assert_eq!(t.name(map.sp(2, 0).unwrap()), "SPC1");
        assert_eq!(t.name(map.fx(1, 3).unwrap()), "FXB4");
        assert_eq!(t.name(map.channel(3).unwrap()), "ChannelD");
        assert_eq!(t.name(map.stats), "StatsCollector");
    }

    #[test]
    fn shaped_graph_drops_unloaded_decks() {
        let mut shape = GraphShape::paper_default();
        shape.deck_loaded[2] = false;
        shape.deck_loaded[3] = false;
        let (g, map) = build_shaped_graph(&Scenario::light_test(), &shape);
        assert_eq!(g.len(), shape.node_count());
        assert_eq!(g.len(), 67 - 2 * 13 + APC_NODES);
        assert!(map.deck(0).is_some() && map.deck(1).is_some());
        assert!(map.deck(2).is_none() && map.deck(3).is_none());
        let t = g.topology();
        // The mixer consumes the two wired channels plus the sampler.
        assert_eq!(t.preds(map.mixer).len(), 3);
        assert_eq!(t.preds(map.cue).len(), 2);
        assert!(t.is_valid_execution_order(t.queue()));
    }

    #[test]
    fn shaped_graph_extends_fx_chains() {
        let mut shape = GraphShape::paper_default();
        shape.fx_slots[0] = 7;
        shape.fx_slots[1] = 1;
        let (g, map) = build_shaped_graph(&Scenario::light_test(), &shape);
        assert_eq!(g.len(), shape.node_count());
        assert_eq!(g.len(), 67 + 3 - 3 + APC_NODES);
        let t = g.topology();
        assert_eq!(t.name(map.fx(0, 6).unwrap()), "FXA7");
        assert_eq!(map.deck(1).unwrap().fx.len(), 1);
        // The longer chain stretches the critical path: Front + SP + 7 FX
        // + Channel + Mixer + MasterBuffer + AudioOut + Stats = 14.
        assert_eq!(t.critical_path_len(), 14);
        // Channel hangs off the last slot of the chain.
        assert_eq!(
            t.preds(map.channel(0).unwrap()),
            &[map.fx(0, 6).unwrap().0][..]
        );
        assert_eq!(
            t.preds(map.channel(1).unwrap()),
            &[map.fx(1, 0).unwrap().0][..]
        );
    }

    #[test]
    fn shaped_graph_with_no_decks_still_has_a_master_section() {
        let shape = GraphShape {
            deck_loaded: [false; 4],
            ..GraphShape::paper_default()
        };
        let (g, map) = build_shaped_graph(&Scenario::light_test(), &shape);
        assert_eq!(g.len(), 15 + APC_NODES);
        let t = g.topology();
        assert_eq!(t.preds(map.mixer), &[map.sampler.0][..]);
        assert!(t.preds(map.cue).is_empty());
        assert!(t.is_valid_execution_order(t.queue()));
    }

    #[test]
    fn default_shape_matches_fixed_builder() {
        // The paper graph is the engine graph's first 67 nodes, with the
        // edges from the fronts taken away.
        let scenario = Scenario::light_test();
        let (a, _) = build_djstar_graph(&scenario);
        let (b, map) = build_shaped_graph(&scenario, &GraphShape::paper_default());
        let (ta, tb) = (a.topology(), b.topology());
        assert_eq!(ta.len() + APC_NODES, tb.len());
        let apc = map.apc.expect("engine graph");
        for n in 0..ta.len() as u32 {
            assert_eq!(ta.name(NodeId(n)), tb.name(NodeId(n)));
            let paper: Vec<u32> = tb
                .preds(NodeId(n))
                .iter()
                .copied()
                .filter(|&p| !apc.fronts.contains(&NodeId(p)))
                .collect();
            assert_eq!(ta.preds(NodeId(n)), &paper[..]);
        }
    }

    #[test]
    fn apc_nodes_follow_the_paper_graph() {
        let mut shape = GraphShape::paper_default();
        shape.deck_loaded[1] = false;
        let (g, map) = build_shaped_graph(&Scenario::light_test(), &shape);
        let t = g.topology();
        let apc = map.apc.expect("engine graph");
        let first = shape.node_count() - APC_NODES;
        for (d, &front) in apc.fronts.iter().enumerate() {
            assert_eq!(front, NodeId((first + d) as u32));
            assert_eq!(t.name(front), format!("Front{}", ["A", "B", "C", "D"][d]));
            assert_eq!(t.section(front), Section::Apc);
            assert!(t.preds(front).is_empty());
            // Every deck-audio reader of a loaded deck hangs off its front
            // (an unloaded deck's front feeds VC only).
            let readers: Vec<&str> = t.succs(front).iter().map(|&n| t.name(NodeId(n))).collect();
            if shape.deck_loaded[d] {
                assert_eq!(readers.len(), 4 + 4 + 1, "{readers:?}");
                assert!(readers.iter().filter(|n| n.starts_with("SP")).count() == 4);
            } else {
                assert_eq!(readers, ["VC"]);
            }
        }
        assert_eq!(t.name(apc.vc), "VC");
        assert_eq!(t.section(apc.vc), Section::Apc);
        let fronts: Vec<u32> = apc.fronts.iter().map(|f| f.0).collect();
        assert_eq!(t.preds(apc.vc), &fronts[..]);
        assert!(t.succs(apc.vc).is_empty());
        assert!(build_djstar_graph(&Scenario::light_test()).1.apc.is_none());
    }

    #[test]
    fn stats_collector_is_the_unique_sink() {
        let (g, map) = build_djstar_graph(&Scenario::light_test());
        let t = g.topology();
        // Sinks = nodes with no successors that are not bookkeeping outputs.
        let audio_sinks: Vec<u32> = (0..t.len() as u32)
            .filter(|&n| t.succs(NodeId(n)).is_empty())
            .collect();
        assert!(audio_sinks.contains(&map.stats.0));
        // The stats node has the maximum depth in the graph.
        let max_depth = (0..t.len() as u32)
            .map(|n| t.depth(NodeId(n)))
            .max()
            .unwrap();
        assert_eq!(t.depth(map.stats), max_depth);
    }

    #[test]
    fn sections_partition_the_graph() {
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        let t = g.topology();
        let mut per_section = std::collections::HashMap::new();
        for n in 0..t.len() as u32 {
            *per_section.entry(t.section(NodeId(n))).or_insert(0usize) += 1;
        }
        assert_eq!(per_section[&Section::DeckA], 13);
        assert_eq!(per_section[&Section::DeckB], 13);
        assert_eq!(per_section[&Section::DeckC], 13);
        assert_eq!(per_section[&Section::DeckD], 13);
        assert_eq!(per_section[&Section::Master], 15);
    }

    #[test]
    fn networked_shape_adds_receivers_and_broadcast() {
        let mut scenario = Scenario::light_test();
        scenario.net = djstar_workload::NetSpec::lossy(5);
        let shape = GraphShape::for_net(&scenario.net);
        let (g, map) = build_shaped_graph(&scenario, &shape);
        // 67 + 2 NetSrc + 1 BroadcastSink, and the APC nodes.
        assert_eq!(g.len(), shape.node_count());
        assert_eq!(g.len(), 70 + APC_NODES);
        let t = g.topology();
        let na = map.net_src[0].expect("deck A is remote");
        assert_eq!(t.name(na), "NetSrcA");
        assert!(map.net_src[2].is_none());
        // The receiver feeds all four SP bands of its deck.
        for band in 0..4 {
            assert_eq!(t.preds(map.sp(0, band).unwrap()), &[na.0][..]);
        }
        // Local decks' SP filters read their deck's front.
        let front_c = map.apc.expect("engine graph").fronts[2];
        assert_eq!(t.preds(map.sp(2, 0).unwrap()), &[front_c.0][..]);
        let bc = map.broadcast.expect("listeners > 0");
        assert_eq!(t.name(bc), "BroadcastSink[n4]");
        assert_eq!(t.preds(bc), &[map.master_buffer.0][..]);
        // The receiver stretches the deck's chain by one level.
        assert_eq!(t.critical_path_len(), 11);
        assert!(t.is_valid_execution_order(t.queue()));
    }

    #[test]
    fn every_effect_kind_is_loaded_by_the_deck_chains() {
        use std::collections::HashSet;
        let all: HashSet<_> = EffectKind::ALL.into_iter().collect();
        let loaded: HashSet<_> = DECK_FX.into_iter().collect();
        assert_eq!(
            all, loaded,
            "an effect kind no deck chain loads is dead code"
        );
    }

    #[test]
    fn default_shape_has_no_network_nodes() {
        let (g, map) = build_djstar_graph(&Scenario::light_test());
        assert!(map.net_src.iter().all(|n| n.is_none()));
        assert!(map.broadcast.is_none());
        assert_eq!(
            g.len() + APC_NODES,
            GraphShape::paper_default().node_count()
        );
    }

    /// Every deck's four SP bands form one run of the queue — in the
    /// paper graph, the engine graph and with a remote deck — and no other
    /// node shares a run.
    #[test]
    fn each_decks_sp_bands_are_one_run_of_four() {
        let scenario = Scenario::light_test();
        let mut remote = GraphShape::paper_default();
        remote.remote_decks[1] = true;
        for (label, (g, map)) in [
            ("paper", build_djstar_graph(&scenario)),
            (
                "engine",
                build_shaped_graph(&scenario, &GraphShape::paper_default()),
            ),
            ("remote", build_shaped_graph(&scenario, &remote)),
            ("hollow", hollow_graph(&scenario, &remote)),
        ] {
            let t = g.topology();
            let batches: Vec<&[u32]> = t.runs().filter(|r| r.len() > 1).collect();
            let bands: Vec<Vec<u32>> = map
                .decks
                .iter()
                .flatten()
                .map(|d| d.sp.iter().map(|n| n.0).collect())
                .collect();
            assert_eq!(batches, bands, "{label}");
            assert_eq!(
                t.runs().map(<[u32]>::len).sum::<usize>(),
                t.len(),
                "{label}"
            );
            assert_eq!(t.runs().flatten().copied().collect::<Vec<_>>(), t.queue());
        }
    }

    #[test]
    fn initial_concurrency_drops_to_about_four_chains() {
        // After the sources, the structural parallelism is the 4 FX chains:
        // depth 1 holds the four FX1 nodes plus the two clock followers.
        let (g, _) = build_djstar_graph(&Scenario::light_test());
        let t = g.topology();
        let depth1: Vec<&str> = (0..t.len() as u32)
            .filter(|&n| t.depth(NodeId(n)) == 1)
            .map(|n| t.name(NodeId(n)))
            .collect();
        assert_eq!(depth1.len(), 6, "{depth1:?}");
        assert!(depth1.iter().filter(|n| n.starts_with("FX")).count() == 4);
    }
}
