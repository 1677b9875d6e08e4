//! Mode-aware scheduling: a per-shape blueprint cache and a
//! schedulability admission check for live reconfiguration.
//!
//! PR 4's stage/commit split keeps the *commit* cheap, but every mode
//! switch still pays a full stage — graph build, buffer allocation and
//! (for PLAN) blueprint compilation — before it can commit. A performer
//! flipping between a handful of deck/FX *modes* rebuilds the same few
//! generations over and over. This module closes that gap:
//!
//! * `shape_fingerprint` canonicalises a [`GraphShape`] into a stable
//!   64-bit key. Fields the build ignores (FX slots of an unloaded deck,
//!   playout depth of a local deck) are zeroed first, so two shapes that
//!   build the same graph share one cache slot.
//! * [`BlueprintCache`] maps fingerprints to staged *hollow* generations
//!   ([`StagedTopology`]): topology, buffers and — for PLAN — a blueprint
//!   list-scheduled under the engine's measured [`NodeCostModel`], but no
//!   processor. A cached mode is a plan, not a second engine. Hits are
//!   *take-once*: the generation moves out of the cache and into the
//!   commit, so a hit allocates nothing. Capacity is bounded (LRU
//!   eviction), and every entry is invalidated when the node-cost
//!   calibration or the worker count changes — a blueprint scheduled
//!   under stale costs must never be committed.
//! * [`PartsBin`] holds the processors those plans will need: at most one
//!   never-run part per node key that a cached generation has and the
//!   running graph lacks. Filling a hit from the bin keeps the warm switch
//!   allocation-free; everything else a generation needs is carried over
//!   from the running graph by the commit.
//! * [`reachable_edits`] enumerates the one-[`GraphEdit`] neighborhood of
//!   a shape. The engine precompiles those targets off the audio thread
//!   (`AudioEngine::precompile_neighborhood`), so the *next* switch is a
//!   warm hit with high probability.
//! * [`NodeCostModel`] prices each node by its [`NodeKey`];
//!   [`NodeCostModel::schedule`] list-schedules a shape once under it. That
//!   schedule's lanes are the PLAN blueprint and its makespan the bound
//!   [`AdmissionControl`] compares against the margined deadline
//!   ([`djstar_sim::cycle_budget_ns`]), beside the other sessions' load
//!   for a venue. A rejected shape is [`Unschedulable`]; once rejected,
//!   it is turned away before it is built again.
//!
//! ```
//! use djstar_core::exec::Strategy;
//! use djstar_engine::{AdmissionControl, AudioEngine, AuxWork, GraphEdit, ReconfigError};
//! use djstar_workload::scenario::Scenario;
//!
//! let scenario = Scenario::light_test();
//! let mut engine = AudioEngine::with_aux(scenario, Strategy::Planned, 2, AuxWork::light());
//! engine.warmup(20); // cycles 5-16 learn every node's p50; cycle 16 re-plans
//! engine.enable_admission(AdmissionControl::new(2_902_494, 0.1));
//! engine.enable_mode_cache(32); // LRU-bounded, take-once entries
//! engine.precompile_neighborhood(); // every admitted shape one edit away
//! match engine.reconfigure(&[GraphEdit::InsertFxSlot(2)]) {
//!     Ok(_) => assert_eq!(engine.mode_stats().hits, 1), // warm: no compile, alloc or free
//!     Err(ReconfigError::Unschedulable(u)) => eprintln!("refused: {u}"), // bound > budget
//!     Err(e) => panic!("staging failed: {e}"),
//! }
//! ```

use crate::apc::AuxWork;
use crate::graphbuild::{deck_profile, walk_nodes, GraphShape, NodeKey, NodeKind};
use crate::reconfig::{ids_in, in_mask, orphan_mask, GraphEdit, StagedTopology};
use djstar_core::graph::{GraphTopology, NodeId};
use djstar_core::processor::Processor;
use djstar_dsp::work::burn;
use djstar_sim::{cycle_budget_ns, list_schedule, DurationModel, Schedule, SimGraph};
use djstar_workload::profile::NodeClass;
use djstar_workload::scenario::Scenario;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Admission proved a bound cannot fit the margined deadline beside the
/// load already on the pool. Nothing was staged or built; what runs is
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unschedulable {
    /// List-schedule bound of the candidate, ns.
    pub bound_ns: u64,
    /// Summed bounds already on the pool (0 for a mode switch), ns.
    pub load_ns: u64,
    /// The margined cycle budget load + bound must fit, ns.
    pub budget_ns: u64,
    /// Node count of the rejected graph.
    pub node_count: usize,
}

impl fmt::Display for Unschedulable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph of {} nodes bounded at {} ns beside a load of {} ns exceeds the {} ns cycle budget",
            self.node_count, self.bound_ns, self.load_ns, self.budget_ns
        )
    }
}

impl std::error::Error for Unschedulable {}

/// Canonical 64-bit fingerprint of a [`GraphShape`] (FNV-1a over the
/// canonicalised fields). Equal fingerprints mean the shapes build the
/// same graph generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ShapeFingerprint(u64);

/// `shape` with every build-ignored field zeroed: unloaded decks carry no
/// FX/remote/depth state, local decks no playout depth. Two shapes with
/// equal canonical forms build identical graphs.
fn canonical_shape(shape: &GraphShape) -> GraphShape {
    let mut c = *shape;
    for d in 0..4 {
        if !c.deck_loaded[d] {
            c.fx_slots[d] = 0;
            c.remote_decks[d] = false;
        }
        if !c.remote_decks[d] {
            c.net_depth[d] = 0;
        }
    }
    c
}

/// Fingerprint of the `canonical_shape` of `shape`.
fn shape_fingerprint(shape: &GraphShape) -> ShapeFingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let c = canonical_shape(shape);
    let mut h = OFFSET;
    let mut fold = |byte: u64| {
        h ^= byte;
        h = h.wrapping_mul(PRIME);
    };
    for d in 0..4 {
        fold(u64::from(c.deck_loaded[d]));
        fold(c.fx_slots[d] as u64);
        fold(u64::from(c.remote_decks[d]));
        fold(u64::from(c.net_depth[d]));
    }
    fold(u64::from(c.listeners));
    ShapeFingerprint(h)
}

/// Every [`GraphEdit`] that applies to `shape` — its one-edit
/// reachability neighborhood, the precompile frontier of the blueprint
/// cache. `ResizeThreads` is excluded (not a shape edit) and playout
/// depth only steps by one in either direction.
pub fn reachable_edits(shape: &GraphShape) -> Vec<GraphEdit> {
    let mut edits = Vec::new();
    for d in 0..4 {
        if !shape.deck_loaded[d] {
            edits.push(GraphEdit::LoadDeck(d));
            continue;
        }
        edits.push(GraphEdit::UnloadDeck(d));
        if shape.fx_slots[d] < GraphShape::MAX_FX_SLOTS {
            edits.push(GraphEdit::InsertFxSlot(d));
        }
        if shape.fx_slots[d] > 1 {
            edits.push(GraphEdit::RemoveFxSlot(d));
        }
        if shape.remote_decks[d] {
            edits.push(GraphEdit::DisconnectRemoteDeck(d));
            if shape.net_depth[d] > 0 {
                edits.push(GraphEdit::SetNetDepth(d, shape.net_depth[d] + 1));
                if shape.net_depth[d] > 1 {
                    edits.push(GraphEdit::SetNetDepth(d, shape.net_depth[d] - 1));
                }
            }
        } else {
            edits.push(GraphEdit::ConnectRemoteDeck(d));
        }
    }
    edits
}

/// Counters of one [`BlueprintCache`]'s life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCacheStats {
    /// `take` found a staged generation for the requested shape.
    pub hits: u64,
    /// `take` found nothing; the caller staged from scratch.
    pub misses: u64,
    /// Entries inserted (precompiles and refreshes alike).
    pub inserted: u64,
    /// Entries evicted to respect the capacity bound.
    pub evicted: u64,
    /// Times the whole cache was invalidated.
    pub invalidations: u64,
    /// Bytes of buffers and node cells the cached generations hold now.
    pub entry_bytes: u64,
    /// Never-run processors waiting in the [`PartsBin`] now.
    pub parts_in_bin: u64,
    /// Processors a cache *hit* had to construct because the bin lacked
    /// them. Nonzero means a hit allocated: the bin was not restocked
    /// ([`BlueprintCache::restock`]) after the last commit.
    pub parts_built_on_hit: u64,
    /// Replaced generations the engine holds, to be freed at its next
    /// control-plane call (reported by `AudioEngine::mode_stats`; a bare
    /// cache reads 0).
    pub retired_pending: u64,
}

/// At most one never-run processor per node name: the parts cached
/// generations need and the running graph cannot hand over. A part has
/// processed no audio, so a node filled from the bin starts exactly like
/// one built with its graph.
#[derive(Default)]
pub struct PartsBin {
    parts: Vec<BinPart>,
}

struct BinPart {
    key: NodeKey,
    /// Position of the node in the graph the part was built for. It seeds
    /// the part's burn kernel, so the part fits only a node of that key
    /// *at that position*.
    id: NodeId,
    /// `None` once taken; the slot lingers until the next restock so a
    /// warm hit frees nothing.
    part: Option<Box<dyn Processor>>,
}

impl PartsBin {
    /// Node keys of the waiting parts (each at most once).
    pub fn keys(&self) -> impl Iterator<Item = NodeKey> + '_ {
        let waiting = self.parts.iter().filter(|p| p.part.is_some());
        waiting.map(|p| p.key)
    }

    /// Take the part built for node `id` keyed `key`, if one waits.
    pub(crate) fn take(&mut self, key: NodeKey, id: NodeId) -> Option<Box<dyn Processor>> {
        let slot = self.parts.iter_mut().find(|p| p.key == key)?;
        if slot.id == id {
            slot.part.take()
        } else {
            None
        }
    }
}

struct CacheEntry {
    key: ShapeFingerprint,
    /// Insert/refresh stamp — the LRU axis. Hits *remove* entries, so
    /// recency of insertion is recency of use.
    stamp: u64,
    staged: StagedTopology,
}

/// Bounded cache of staged hollow generations, keyed by canonical shape
/// fingerprint, plus the [`PartsBin`] that stocks their missing parts.
///
/// Hits are take-once (the generation moves out, zero allocation on the
/// taking thread); capacity evicts least-recently-inserted; and
/// [`invalidate`](BlueprintCache::invalidate) clears the cache when the
/// inputs its blueprints were scheduled under change. The engine holds the
/// cache and fills it through `&mut self`, so no staging can race an
/// invalidation.
pub struct BlueprintCache {
    capacity: usize,
    clock: u64,
    entries: Vec<CacheEntry>,
    pub(crate) bin: PartsBin,
    /// The bin and the entries' orphan masks cover every entry and describe
    /// the graph that runs now: set by [`restock`](Self::restock), cleared
    /// by an insert and — by the engine — when a commit changes that graph.
    pub(crate) stocked: bool,
    pub(crate) stats: ModeCacheStats,
}

impl BlueprintCache {
    /// An empty cache holding at most `capacity` staged generations.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BlueprintCache {
            capacity,
            clock: 0,
            entries: Vec::with_capacity(capacity),
            bin: PartsBin::default(),
            stocked: false,
            stats: ModeCacheStats::default(),
        }
    }

    /// Number of cached generations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters so far, and the current footprint.
    pub fn stats(&self) -> ModeCacheStats {
        let entry_bytes: usize = self
            .entries
            .iter()
            .map(|e| e.staged.staged.heap_bytes())
            .sum();
        ModeCacheStats {
            entry_bytes: entry_bytes as u64,
            parts_in_bin: self.bin.keys().count() as u64,
            ..self.stats
        }
    }

    /// The parts bin.
    pub fn bin(&self) -> &PartsBin {
        &self.bin
    }

    /// Restore the bin invariant against the `running` graph: one
    /// never-run part for every node name some cached generation has and
    /// `running` cannot carry over, nothing else. Parts still waiting are
    /// kept; where two generations want one name at different positions
    /// the more recently used generation wins. Each generation also learns
    /// which of its nodes those are, so a hit need not look. Constructs
    /// processors — run it off the audio path, after each commit or cache
    /// fill.
    pub fn restock(&mut self, scenario: &Scenario, running: &GraphTopology) {
        let mut old = std::mem::take(&mut self.bin);
        let mut parts: Vec<BinPart> = Vec::new();
        let mut recent_first: Vec<&mut CacheEntry> = self.entries.iter_mut().collect();
        recent_first.sort_by_key(|e| std::cmp::Reverse(e.stamp));
        for entry in recent_first {
            let orphans = orphan_mask(entry.staged.staged.topology(), running);
            let mut to_build = 0u128;
            for id in ids_in(orphans) {
                let key = entry.staged.map.keys[id.0 as usize];
                if parts.iter().any(|p| p.key == key) {
                    continue;
                }
                match old.take(key, id) {
                    Some(part) => parts.push(BinPart {
                        key,
                        id,
                        part: Some(part),
                    }),
                    None => to_build |= 1 << id.0,
                }
            }
            if to_build != 0 {
                walk_nodes(scenario, entry.staged.shape(), true, &mut |spec| {
                    if in_mask(to_build, spec.id) {
                        parts.push(BinPart {
                            part: Some(spec.build()),
                            id: spec.id,
                            key: spec.key,
                        });
                    }
                });
            }
            entry.staged.orphans = Some(orphans);
        }
        self.stocked = true;
        self.bin = PartsBin { parts };
    }

    /// Is a generation for `shape` cached? (No effect on hit/miss
    /// counters.)
    pub fn contains(&self, shape: &GraphShape) -> bool {
        let key = shape_fingerprint(shape);
        self.entries.iter().any(|e| e.key == key)
    }

    /// Take the staged generation for `shape` out of the cache, if one is
    /// cached. A hit removes the entry (generations are single-use — the
    /// commit consumes them) and performs no allocation.
    ///
    /// The hit is re-stamped with the *requested* shape: canonical
    /// equality only guarantees the built graphs match, and committing
    /// the donor's shape verbatim would resurrect its latent don't-care
    /// fields (e.g. the FX chain length of an unloaded deck, which
    /// decides the chain the deck reloads with later).
    pub fn take(&mut self, shape: &GraphShape) -> Option<StagedTopology> {
        let key = shape_fingerprint(shape);
        match self.entries.iter().position(|e| e.key == key) {
            Some(i) => {
                self.stats.hits += 1;
                let mut staged = self.entries.swap_remove(i).staged;
                staged.shape = *shape;
                if !self.stocked {
                    staged.orphans = None;
                }
                Some(staged)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Refresh `shape`'s LRU stamp without taking it. The eager
    /// precompiler touches entries it would otherwise re-stage, so a
    /// neighbor that is still one edit away is never the eviction
    /// victim of unrelated inserts. Returns whether the entry exists.
    pub fn touch(&mut self, shape: &GraphShape) -> bool {
        let key = shape_fingerprint(shape);
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                self.clock += 1;
                e.stamp = self.clock;
                true
            }
            None => false,
        }
    }

    /// Insert a staged generation. Replaces any entry for the same
    /// canonical shape; evicts the least-recently inserted entry when
    /// full.
    pub fn insert(&mut self, staged: StagedTopology) {
        let key = shape_fingerprint(staged.shape());
        self.stocked = false;
        self.clock += 1;
        let stamp = self.clock;
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.entries[i] = CacheEntry { key, stamp, staged };
            self.stats.inserted += 1;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(oldest);
                self.stats.evicted += 1;
            }
        }
        self.entries.push(CacheEntry { key, stamp, staged });
        self.stats.inserted += 1;
    }

    /// Void every cached generation. Called whenever the inputs a
    /// blueprint bakes in change: node-cost recalibration, worker-count
    /// resize, strategy change.
    pub fn invalidate(&mut self) {
        self.entries.clear();
        self.bin = PartsBin::default();
        self.stocked = false;
        self.stats.invalidations += 1;
    }
}

impl fmt::Debug for BlueprintCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlueprintCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Per-node cost estimates (ns): what PLAN blueprints are list-scheduled
/// under and what admission bounds a shape with. An engine starts on the
/// static [`prior`](Self::prior) and replaces it with the per-node p50s it
/// learns in place over its first cycles ([`from_costs`](Self::from_costs)).
///
/// A node is priced by its [`NodeKey`]: the node's own cost first, then
/// the mean of its kind, then the mean of all nodes. The kind fallback is
/// what lets costs known for one shape price a *different* shape: deck C's
/// fifth FX slot costs about what deck A's slots did, even if no `FXC5`
/// ever ran.
#[derive(Debug, Clone)]
pub struct NodeCostModel {
    /// Priced nodes, sorted by key.
    nodes: Vec<(NodeKey, u64)>,
    /// Mean cost of each priced kind.
    kinds: Vec<(NodeKind, u64)>,
    default_ns: u64,
}

/// `djstar_dsp::work::burn`'s cost per iteration on this host (ns):
/// measured once per process, as the fastest of five short timed runs, so
/// a pre-emption during one cannot inflate it.
fn burn_ns_per_iter() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        const ITERS: u32 = 20_000;
        let fastest = (0..5)
            .map(|k| {
                let t0 = Instant::now();
                std::hint::black_box(burn(ITERS, 0.1 + 0.1 * k as f32));
                t0.elapsed()
            })
            .min()
            .unwrap_or_default();
        fastest.as_nanos() as f64 / f64::from(ITERS)
    })
}

/// The `burn` iterations the static prior prices node `key` at: its
/// class's `WorkProfile` iterations at full signal energy on a deck that
/// plays (in the master section, when any deck does) and at silence
/// otherwise, FX carrying the deck's `fx_weight`; a front costs TP + GP
/// (TP alone on an idle deck) and VC its `vc_iters`, all at `aux`.
fn prior_iters(scenario: &Scenario, aux: AuxWork, key: NodeKey) -> u32 {
    use NodeKind::*;
    let deck = key.deck.map(|d| &scenario.decks[usize::from(d)]);
    let plays = deck.map_or_else(|| scenario.decks.iter().any(|c| c.active), |c| c.active);
    let class = match key.kind {
        Front => return aux.tp_iters + if plays { aux.gp_iters } else { 0 },
        VC => return aux.vc_iters,
        NetSrc | SP => NodeClass::SpFilter,
        FX => NodeClass::Effect,
        Channel => NodeClass::Channel,
        Mixer => NodeClass::Mixer,
        AudioSampler | MasterBuffer | AudioOut | RecordBuffer | CueBuffer | MonitorBuffer
        | BroadcastSink => NodeClass::MasterChain,
        _ => NodeClass::Bookkeeping,
    };
    let profile = deck.map_or(scenario.work, |c| deck_profile(scenario.work, c.fx_weight));
    profile.effective_iters(class, if plays { 1.0 } else { 0.0 })
}

impl NodeCostModel {
    /// Every node costs `ns` — the structural (uncalibrated) model.
    pub fn uniform(ns: u64) -> Self {
        let default_ns = ns.max(1);
        NodeCostModel {
            default_ns,
            ..Self::from_costs([])
        }
    }

    /// The static prior of `shape`'s engine graph: one fold over the walk
    /// that builds it, each node priced at its `burn` iterations
    /// (`prior_iters`) times the kernel's measured ns/iter.
    pub fn prior(scenario: &Scenario, shape: &GraphShape, aux: AuxWork) -> Self {
        Self::prior_at(scenario, shape, aux, burn_ns_per_iter())
    }

    /// [`prior`](Self::prior) at `ns` per `burn` iteration instead of the
    /// host's measured cost.
    pub(crate) fn prior_at(scenario: &Scenario, shape: &GraphShape, aux: AuxWork, ns: f64) -> Self {
        let mut priced = Vec::with_capacity(shape.node_count());
        walk_nodes(scenario, shape, true, &mut |spec| {
            let iters = prior_iters(scenario, aux, spec.key);
            priced.push((spec.key, (f64::from(iters) * ns).round() as u64));
        });
        Self::from_costs(priced)
    }

    /// Price each keyed node at its cost (ns, floored at 1). A kind costs
    /// the mean of its nodes, the default the mean of all nodes; a key
    /// listed twice keeps its first cost.
    pub fn from_costs(nodes: impl IntoIterator<Item = (NodeKey, u64)>) -> Self {
        let mut nodes: Vec<_> = nodes.into_iter().map(|(k, c)| (k, c.max(1))).collect();
        nodes.sort_by_key(|n| n.0);
        let mean = |nodes: &[(NodeKey, u64)]| {
            let sum: u64 = nodes.iter().map(|n| n.1).sum();
            sum.checked_div(nodes.len() as u64).map_or(1, |m| m.max(1))
        };
        let by_kind = nodes.chunk_by(|a, b| a.0.kind == b.0.kind);
        let kinds = by_kind.map(|k| (k[0].0.kind, mean(k))).collect();
        let default_ns = mean(&nodes);
        nodes.dedup_by_key(|n| n.0);
        NodeCostModel {
            nodes,
            kinds,
            default_ns,
        }
    }

    /// The cost (ns) estimated for the node keyed `key`.
    pub fn cost(&self, key: NodeKey) -> u64 {
        match self.nodes.binary_search_by_key(&key, |n| n.0) {
            Ok(i) => self.nodes[i].1,
            Err(_) => self
                .kinds
                .iter()
                .find(|k| k.0 == key.kind)
                .map_or(self.default_ns, |k| k.1),
        }
    }

    /// Price every node of `topo` — keyed `keys`, in node order — and
    /// list-schedule the graph on `lanes` lanes: the one schedule of a
    /// shape. Its makespan is the bound admission compares (the graph
    /// carries the APC's TP, GP and VC as nodes, so it prices the whole
    /// cycle), its lanes are what a PLAN executor replays, and each entry
    /// spans its node's priced cost.
    pub fn schedule(&self, topo: &GraphTopology, keys: &[NodeKey], lanes: usize) -> Schedule {
        let costs = DurationModel::Constant(keys.iter().map(|&k| self.cost(k)).collect());
        list_schedule(
            &SimGraph::from_topology(topo),
            &costs,
            0,
            lanes.max(1) as u32,
        )
    }
}

/// Schedulability admission: a bound must fit the margined deadline
/// beside the load already on the pool, or it is rejected as
/// [`Unschedulable`]. A mode switch brings no load ([`check`](Self::check),
/// on the engine's [`NodeCostModel`] and lane count); a venue session
/// brings the other sessions' bounds (`VenueServer::admit`).
///
/// Mode-switch bounds are remembered per canonical fingerprint, so a shape
/// is priced once and a rejected one is turned away before it is built
/// again. The engine forgets them whenever its cost model or lane count
/// changes.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    deadline_ns: u64,
    margin: f64,
    bounds: Vec<(ShapeFingerprint, u64)>,
}

impl AdmissionControl {
    /// Admission against `deadline_ns` at safety `margin` (a fraction in
    /// `[0, 1)`).
    pub fn new(deadline_ns: u64, margin: f64) -> Self {
        AdmissionControl {
            deadline_ns,
            margin,
            bounds: Vec::new(),
        }
    }

    /// The margined cycle budget a bound must fit (ns).
    pub fn budget_ns(&self) -> u64 {
        cycle_budget_ns(self.deadline_ns, self.margin)
    }

    /// The deadline being admitted against (ns).
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// The safety margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The one comparison: `Ok(bound_ns)` when `load_ns + bound_ns` (a
    /// saturating sum) fits the margined budget, otherwise the typed
    /// rejection for a graph of `nodes` nodes.
    pub fn admit(&self, bound_ns: u64, load_ns: u64, nodes: usize) -> Result<u64, Unschedulable> {
        let budget_ns = self.budget_ns();
        if load_ns.saturating_add(bound_ns) <= budget_ns {
            Ok(bound_ns)
        } else {
            Err(Unschedulable {
                bound_ns,
                load_ns,
                budget_ns,
                node_count: nodes,
            })
        }
    }

    /// The verdict on a mode switch to `shape` from its remembered bound;
    /// `None` until [`check`](Self::check) has seen the shape.
    pub fn recall(&self, shape: &GraphShape) -> Option<Result<u64, Unschedulable>> {
        let key = shape_fingerprint(shape);
        let (_, bound_ns) = self.bounds.iter().find(|(k, _)| *k == key)?;
        Some(self.admit(*bound_ns, 0, shape.node_count()))
    }

    /// Remember `bound_ns` — the makespan of `shape`'s
    /// [`schedule`](NodeCostModel::schedule) on the engine's lanes — and
    /// admit or reject the mode switch against the budget alone.
    pub fn check(&mut self, shape: &GraphShape, bound_ns: u64) -> Result<u64, Unschedulable> {
        self.bounds.push((shape_fingerprint(shape), bound_ns));
        self.admit(bound_ns, 0, shape.node_count())
    }

    /// Forget every remembered bound: the cost model or the lane count
    /// they were computed under changed.
    pub(crate) fn forget_bounds(&mut self) {
        self.bounds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphbuild::{build_shaped_graph, hollow_graph};
    use crate::reconfig::{apply_edit, stage_topology};
    use djstar_core::exec::Strategy;

    #[test]
    fn fingerprint_canonicalises_ignored_fields() {
        let mut a = GraphShape::paper_default();
        a.deck_loaded[2] = false;
        let mut b = a;
        b.fx_slots[2] = 7; // unloaded: ignored
        b.net_depth[1] = 9; // not remote: ignored
        assert_eq!(shape_fingerprint(&a), shape_fingerprint(&b));

        let mut c = a;
        c.fx_slots[0] = 5; // loaded: significant
        assert_ne!(shape_fingerprint(&a), shape_fingerprint(&c));
        let mut d = a;
        d.listeners = 3;
        assert_ne!(shape_fingerprint(&a), shape_fingerprint(&d));
        let mut e = a;
        e.remote_decks[1] = true;
        e.net_depth[1] = 9; // remote: depth now significant
        assert_ne!(shape_fingerprint(&a), shape_fingerprint(&e));
    }

    #[test]
    fn reachable_edits_all_apply() {
        let mut shape = GraphShape::paper_default();
        shape.deck_loaded[3] = false;
        shape.fx_slots[0] = GraphShape::MAX_FX_SLOTS;
        shape.fx_slots[1] = 1;
        shape.remote_decks[2] = true;
        shape.net_depth[2] = 3;
        let edits = reachable_edits(&shape);
        assert!(!edits.is_empty());
        for &edit in &edits {
            let mut target = shape;
            apply_edit(&mut target, edit).unwrap_or_else(|e| {
                panic!("reachable edit {edit:?} must apply, got {e}");
            });
            assert_ne!(
                shape_fingerprint(&target),
                shape_fingerprint(&shape),
                "edit {edit:?} must change the canonical shape"
            );
        }
        // Saturated chains don't offer the saturating edit.
        assert!(!edits.contains(&GraphEdit::InsertFxSlot(0)));
        assert!(!edits.contains(&GraphEdit::RemoveFxSlot(1)));
        // The unloaded deck offers exactly a load.
        assert!(edits.contains(&GraphEdit::LoadDeck(3)));
        assert!(!edits.contains(&GraphEdit::UnloadDeck(3)));
        // Depth steps both ways around 3.
        assert!(edits.contains(&GraphEdit::SetNetDepth(2, 4)));
        assert!(edits.contains(&GraphEdit::SetNetDepth(2, 2)));
    }

    fn staged_for(shape: &GraphShape) -> StagedTopology {
        let scenario = Scenario::light_test();
        stage_topology(
            &scenario,
            shape,
            Strategy::Busy,
            2,
            16,
            &NodeCostModel::uniform(1),
            None,
        )
        .unwrap()
    }

    #[test]
    fn cache_takes_are_single_use_and_counted() {
        let mut cache = BlueprintCache::new(4);
        let shape = GraphShape::paper_default();
        assert!(cache.take(&shape).is_none());
        cache.insert(staged_for(&shape));
        assert!(cache.contains(&shape));
        let hit = cache.take(&shape).expect("warm hit");
        assert_eq!(hit.shape(), &shape);
        assert!(cache.take(&shape).is_none(), "takes are single-use");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inserted, 1);
    }

    #[test]
    fn touch_protects_an_entry_from_eviction() {
        let mut cache = BlueprintCache::new(2);
        let mut shapes = Vec::new();
        for fx in 1..=3usize {
            let mut s = GraphShape::paper_default();
            s.fx_slots[0] = fx;
            shapes.push(s);
        }
        cache.insert(staged_for(&shapes[0]));
        cache.insert(staged_for(&shapes[1]));
        assert!(cache.touch(&shapes[0]), "touch must find the cached entry");
        assert!(!cache.touch(&shapes[2]), "touch must miss uncached shapes");
        cache.insert(staged_for(&shapes[2]));
        assert!(cache.contains(&shapes[0]), "touched entry must survive");
        assert!(!cache.contains(&shapes[1]), "untouched entry is the victim");
    }

    #[test]
    fn hits_are_restamped_with_the_requested_shape() {
        // Donor and requester share a canonical shape (deck 2 unloaded,
        // so its FX count is a don't-care for the built graph) but
        // disagree on the latent FX count. The hit must carry the
        // requester's shape — committing the donor's verbatim would make
        // deck 2 reload with the donor's chain length later.
        let mut donor = GraphShape::paper_default();
        donor.deck_loaded[2] = false;
        donor.fx_slots[2] = 7;
        let mut requested = donor;
        requested.fx_slots[2] = 3;
        assert_eq!(shape_fingerprint(&donor), shape_fingerprint(&requested));
        let mut cache = BlueprintCache::new(4);
        cache.insert(staged_for(&donor));
        let hit = cache.take(&requested).expect("canonical-equal hit");
        assert_eq!(hit.shape(), &requested);
    }

    #[test]
    fn cache_evicts_least_recently_inserted() {
        let mut cache = BlueprintCache::new(2);
        let mut shapes = Vec::new();
        for fx in 1..=3usize {
            let mut s = GraphShape::paper_default();
            s.fx_slots[0] = fx;
            shapes.push(s);
            cache.insert(staged_for(&s));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evicted, 1);
        assert!(!cache.contains(&shapes[0]), "oldest entry evicted");
        assert!(cache.contains(&shapes[1]));
        assert!(cache.contains(&shapes[2]));
    }

    #[test]
    fn invalidation_empties_the_cache_and_counts() {
        let mut cache = BlueprintCache::new(4);
        let shape = GraphShape::paper_default();
        cache.insert(staged_for(&shape));
        cache.invalidate();
        assert!(cache.is_empty());
        assert!(!cache.contains(&shape));
        assert_eq!(cache.stats().invalidations, 1);
        // It stores fine afterwards.
        cache.insert(staged_for(&shape));
        assert!(cache.contains(&shape));
    }

    #[test]
    fn kind_fallback_prices_unseen_names() {
        let scenario = Scenario::light_test();
        let (_, map) = hollow_graph(&scenario, &GraphShape::paper_default());
        let model = NodeCostModel::from_costs(
            map.keys
                .iter()
                .enumerate()
                .map(|(i, &key)| (key, 100 + i as u64)),
        );
        let key = |kind, deck: Option<u8>, slot| NodeKey { kind, deck, slot };
        // Exact keys resolve to their own cost.
        let sp_a1 = map.sp(0, 0).unwrap().0 as u64;
        assert_eq!(model.cost(key(NodeKind::SP, Some(0), 1)), 100 + sp_a1);
        // An FX slot never built (paper shape stops at FX?4) prices via
        // the FX kind, not the global default.
        let fx_kind = model.cost(key(NodeKind::FX, Some(2), 7));
        let fx: Vec<u64> = map
            .keys
            .iter()
            .filter(|k| k.kind == NodeKind::FX)
            .map(|&k| model.cost(k))
            .collect();
        assert_eq!(fx_kind, fx.iter().sum::<u64>() / fx.len() as u64);
        assert_eq!(fx_kind, model.cost(key(NodeKind::FX, Some(0), 8)));
        // A kind never priced costs the mean of all nodes.
        let all = map.keys.iter().map(|&k| model.cost(k)).sum::<u64>() / map.keys.len() as u64;
        assert_eq!(model.cost(key(NodeKind::NetSrc, Some(0), 0)), all);
        // A key spells out its node's name.
        for (k, name) in [
            (key(NodeKind::FX, Some(1), 5), "FXB5"),
            (key(NodeKind::SP, Some(0), 1), "SPA1"),
            (key(NodeKind::Channel, Some(2), 0), "ChannelC"),
            (key(NodeKind::NetSrc, Some(0), 0), "NetSrcA"),
            (key(NodeKind::Mixer, None, 0b1011), "Mixer[ABD]"),
            (key(NodeKind::BroadcastSink, None, 3), "BroadcastSink[n3]"),
            (key(NodeKind::AudioOut, None, 1), "AudioOut1"),
            (key(NodeKind::VC, None, 0), "VC"),
        ] {
            assert_eq!(k.name(), name);
        }
    }

    /// The makespan of `shape`'s schedule under `costs` on `lanes` lanes.
    fn bound_of(
        scenario: &Scenario,
        shape: &GraphShape,
        costs: &NodeCostModel,
        lanes: usize,
    ) -> u64 {
        let (graph, map) = hollow_graph(scenario, shape);
        costs
            .schedule(graph.topology(), &map.keys, lanes)
            .makespan_ns()
    }

    #[test]
    fn admission_rejects_exactly_over_budget_shapes() {
        let scenario = Scenario::light_test();
        let shape = GraphShape::paper_default();
        let costs = NodeCostModel::uniform(100);
        let bound = bound_of(&scenario, &shape, &costs, 2);
        let mut generous = AdmissionControl::new(1_000_000_000, 0.1);
        assert_eq!(
            generous.check(&shape, bound),
            Ok(bound),
            "a 1s deadline admits everything"
        );
        assert!(bound > 0);

        // A budget exactly at the bound admits; one below rejects with
        // the same bound — the boundary the differential battery walks.
        let mut exact = AdmissionControl::new(bound, 0.0);
        assert_eq!(exact.check(&shape, bound), Ok(bound));
        let mut tight = AdmissionControl::new(bound - 1, 0.0);
        assert_eq!(tight.recall(&shape), None, "nothing remembered yet");
        let err = tight.check(&shape, bound).unwrap_err();
        assert_eq!(err.bound_ns, bound);
        assert_eq!(err.load_ns, 0, "a mode switch brings no load");
        assert_eq!(err.budget_ns, bound - 1);
        assert_eq!(err.node_count, shape.node_count());
        // Bounds are remembered: a recall agrees without rebuilding.
        assert_eq!(tight.recall(&shape), Some(Err(err)));
    }

    #[test]
    fn admission_bound_matches_sim_oracle() {
        let scenario = Scenario::light_test();
        let mut shape = GraphShape::paper_default();
        shape.deck_loaded[1] = false;
        shape.fx_slots[2] = 7;
        let ctrl = AdmissionControl::new(50_000, 0.2);
        let bound = bound_of(&scenario, &shape, &NodeCostModel::uniform(250), 3);
        // Recompute independently through the public sim API.
        let (graph, _) = build_shaped_graph(&scenario, &shape);
        let topo = graph.topology();
        let sim = SimGraph::from_topology(topo);
        let durations = DurationModel::Constant(vec![250; topo.len()]);
        assert_eq!(bound, djstar_sim::session_bound_ns(&sim, &durations, 3, 0));
        let oracle = djstar_sim::admissible(&[bound], 50_000, 0.2);
        assert_eq!(bound <= ctrl.budget_ns(), oracle);
        assert_eq!(ctrl.admit(bound, 0, shape.node_count()).is_ok(), oracle);
    }

    #[test]
    fn the_one_check_is_a_saturating_sum_against_the_margined_budget() {
        let ctrl = AdmissionControl::new(1000, 0.1);
        assert_eq!(ctrl.budget_ns(), 900);
        // load + bound == budget admits; one more nanosecond rejects.
        assert_eq!(ctrl.admit(300, 600, 5), Ok(300));
        let err = ctrl.admit(301, 600, 5).unwrap_err();
        let want = Unschedulable {
            bound_ns: 301,
            load_ns: 600,
            budget_ns: 900,
            node_count: 5,
        };
        assert_eq!(err, want);
        assert_eq!(ctrl.admit(0, 0, 0), Ok(0));
        // Saturating sum: huge loads never wrap into admissibility.
        assert!(ctrl.admit(1, u64::MAX, 5).is_err());
        assert!(ctrl.admit(u64::MAX, u64::MAX, 5).is_err());
        // Every verdict is the simulator's oracle on the same two bounds.
        for (load, bound) in [(0, 900), (0, 901), (899, 1), (900, 1), (u64::MAX, 1)] {
            assert_eq!(
                ctrl.admit(bound, load, 1).is_ok(),
                djstar_sim::admissible(&[load, bound], 1000, 0.1),
                "load {load}, bound {bound}"
            );
        }
    }
}
