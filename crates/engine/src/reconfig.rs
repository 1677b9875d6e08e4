//! Live graph reconfiguration: shape edits, off-thread staging, and the
//! glitch-free commit protocol.
//!
//! DJ Star's topology is not fixed at startup: the performer loads and
//! ejects decks and inserts or removes effect slots mid-set. Rebuilding
//! the executor for every such edit would tear down the worker pool and
//! miss deadlines, so reconfiguration is split into two halves:
//!
//! 1. **Stage** ([`stage_topology`] + [`StagedTopology::fill`], or
//!    [`AudioEngine::stage_edits`](crate::apc::AudioEngine::stage_edits)
//!    for both): build the new [`GraphShape`]'s task graph *hollow* —
//!    every node a placeholder — allocate its buffers and (for the PLAN
//!    strategy) list-schedule a blueprint under the engine's measured
//!    node costs; then give a real processor to exactly the nodes the
//!    running graph has no counterpart for. This is the expensive part
//!    and runs on any thread — the audio thread never blocks on it.
//! 2. **Commit** ([`AudioEngine::commit`](crate::apc::AudioEngine::commit)):
//!    hand the staged generation to the running executor between two
//!    cycles. The executor's `adopt_generation` is a pointer-sized swap
//!    plus a name-keyed carry-over of processor state and output buffers,
//!    so surviving nodes (a playing deck, a ringing delay line) keep
//!    their state and the workers never restart. The replaced generation
//!    is handed back and freed later, off the audio thread.
//!
//! The only edit that cannot ride this path is
//! [`GraphEdit::ResizeThreads`]: worker counts are baked into each
//! executor's spawn-time state, so a resize rebuilds the executor (and
//! resets graph-node state). `AudioEngine::reconfigure` documents and
//! implements that split.

use crate::graphbuild::{hollow_graph, walk_nodes, GraphShape, NodeMap};
use crate::modes::{NodeCostModel, PartsBin, Unschedulable};
use djstar_core::exec::{BlueprintError, ScheduleBlueprint, StagedGeneration, Strategy, SwapError};
use djstar_core::graph::{GraphTopology, NodeId};
use djstar_workload::scenario::Scenario;
use std::fmt;

/// One live edit to the running graph topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEdit {
    /// Load deck `d`: its 13-node section joins the graph.
    LoadDeck(usize),
    /// Eject deck `d`: its section leaves the graph.
    UnloadDeck(usize),
    /// Append an FX slot to deck `d`'s chain.
    InsertFxSlot(usize),
    /// Remove the last FX slot of deck `d`'s chain.
    RemoveFxSlot(usize),
    /// Change the executor's worker count. Not a shape edit: this one
    /// rebuilds the executor (documented teardown; see the module docs).
    ResizeThreads(usize),
    /// Attach deck `d` to its network stream: a `NetSrc` receiver joins
    /// the graph and feeds the deck's SP filterbank.
    ConnectRemoteDeck(usize),
    /// Detach deck `d` from the network (back to local audio).
    DisconnectRemoteDeck(usize),
    /// Retarget the jitter-buffer playout depth of remote deck `d` — the
    /// degradation governor's latency axis. The commit carries the
    /// receiver's state over by name; the engine then retunes the carried
    /// buffer, which converges one bounded step per cycle.
    SetNetDepth(usize, u32),
}

/// Why an edit cannot be applied to a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// Deck index outside `0..4`.
    UnknownDeck(usize),
    /// Loading a deck that is already loaded.
    DeckAlreadyLoaded(usize),
    /// Editing or unloading a deck that is not loaded.
    DeckNotLoaded(usize),
    /// The FX chain is already at [`GraphShape::MAX_FX_SLOTS`].
    FxChainFull(usize),
    /// The FX chain is already at its single-slot minimum (the first slot
    /// sums the SP bands and cannot be removed).
    FxChainAtMinimum(usize),
    /// Worker count outside `1..=64`.
    BadThreadCount(usize),
    /// Connecting a deck that is already remote.
    DeckAlreadyRemote(usize),
    /// A network edit on a deck that is not remote.
    DeckNotRemote(usize),
    /// A playout depth of zero (the buffer needs at least one cycle).
    BadNetDepth(u32),
    /// `ResizeThreads` is valid but is not a shape edit — it needs the
    /// executor-rebuild path (`AudioEngine::reconfigure`).
    ResizeNeedsRebuild(usize),
    /// A resize asking a shared pool for more lanes than it has.
    PoolTooSmall {
        /// Lanes the resized session would need.
        want: usize,
        /// Lanes the shared pool has.
        have: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownDeck(d) => write!(f, "unknown deck {d}"),
            EditError::DeckAlreadyLoaded(d) => write!(f, "deck {d} is already loaded"),
            EditError::DeckNotLoaded(d) => write!(f, "deck {d} is not loaded"),
            EditError::FxChainFull(d) => write!(
                f,
                "deck {d}'s FX chain is full ({} slots)",
                GraphShape::MAX_FX_SLOTS
            ),
            EditError::FxChainAtMinimum(d) => {
                write!(f, "deck {d}'s FX chain is at its 1-slot minimum")
            }
            EditError::BadThreadCount(n) => write!(f, "worker count {n} outside 1..=64"),
            EditError::DeckAlreadyRemote(d) => write!(f, "deck {d} is already remote"),
            EditError::DeckNotRemote(d) => write!(f, "deck {d} is not remote"),
            EditError::BadNetDepth(n) => write!(f, "playout depth {n} must be at least 1"),
            EditError::ResizeNeedsRebuild(n) => {
                write!(f, "resize to {n} workers requires an executor rebuild")
            }
            EditError::PoolTooSmall { want, have } => {
                write!(f, "resize wants {want} lanes, the shared pool has {have}")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Why a reconfiguration failed. On error the running generation, shape
/// and node map are untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// An edit did not apply to the current shape.
    Edit(EditError),
    /// The executor refused the staged generation.
    Swap(SwapError),
    /// The PLAN blueprint for the target shape failed to compile. Staging
    /// surfaces this as a typed error (and the engine counts it in
    /// telemetry) instead of staging a planless generation, which the
    /// PLAN executor would refuse at commit.
    Blueprint(BlueprintError),
    /// The schedulability admission check proved the target shape cannot
    /// meet the margined deadline; nothing was staged.
    Unschedulable(Unschedulable),
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::Edit(e) => write!(f, "edit rejected: {e}"),
            ReconfigError::Swap(e) => write!(f, "swap rejected: {e}"),
            ReconfigError::Blueprint(e) => write!(f, "blueprint compilation failed: {e}"),
            ReconfigError::Unschedulable(u) => write!(f, "admission rejected: {u}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

impl From<EditError> for ReconfigError {
    fn from(e: EditError) -> Self {
        ReconfigError::Edit(e)
    }
}

impl From<SwapError> for ReconfigError {
    fn from(e: SwapError) -> Self {
        ReconfigError::Swap(e)
    }
}

impl From<BlueprintError> for ReconfigError {
    fn from(e: BlueprintError) -> Self {
        ReconfigError::Blueprint(e)
    }
}

impl From<Unschedulable> for ReconfigError {
    fn from(u: Unschedulable) -> Self {
        ReconfigError::Unschedulable(u)
    }
}

/// Apply one topology edit to `shape`. [`GraphEdit::ResizeThreads`] is
/// rejected with [`EditError::ResizeNeedsRebuild`] (after validating the
/// count) — it is not expressible as a shape change.
pub fn apply_edit(shape: &mut GraphShape, edit: GraphEdit) -> Result<(), EditError> {
    let deck_ok = |d: usize| {
        if d < 4 {
            Ok(d)
        } else {
            Err(EditError::UnknownDeck(d))
        }
    };
    match edit {
        GraphEdit::LoadDeck(d) => {
            let d = deck_ok(d)?;
            if shape.deck_loaded[d] {
                return Err(EditError::DeckAlreadyLoaded(d));
            }
            shape.deck_loaded[d] = true;
        }
        GraphEdit::UnloadDeck(d) => {
            let d = deck_ok(d)?;
            if !shape.deck_loaded[d] {
                return Err(EditError::DeckNotLoaded(d));
            }
            shape.deck_loaded[d] = false;
        }
        GraphEdit::InsertFxSlot(d) => {
            let d = deck_ok(d)?;
            if !shape.deck_loaded[d] {
                return Err(EditError::DeckNotLoaded(d));
            }
            if shape.fx_slots[d] >= GraphShape::MAX_FX_SLOTS {
                return Err(EditError::FxChainFull(d));
            }
            shape.fx_slots[d] += 1;
        }
        GraphEdit::RemoveFxSlot(d) => {
            let d = deck_ok(d)?;
            if !shape.deck_loaded[d] {
                return Err(EditError::DeckNotLoaded(d));
            }
            if shape.fx_slots[d] <= 1 {
                return Err(EditError::FxChainAtMinimum(d));
            }
            shape.fx_slots[d] -= 1;
        }
        GraphEdit::ResizeThreads(n) => {
            if !(1..=64).contains(&n) {
                return Err(EditError::BadThreadCount(n));
            }
            return Err(EditError::ResizeNeedsRebuild(n));
        }
        GraphEdit::ConnectRemoteDeck(d) => {
            let d = deck_ok(d)?;
            if !shape.deck_loaded[d] {
                return Err(EditError::DeckNotLoaded(d));
            }
            if shape.remote_decks[d] {
                return Err(EditError::DeckAlreadyRemote(d));
            }
            shape.remote_decks[d] = true;
        }
        GraphEdit::DisconnectRemoteDeck(d) => {
            let d = deck_ok(d)?;
            if !shape.remote_decks[d] {
                return Err(EditError::DeckNotRemote(d));
            }
            shape.remote_decks[d] = false;
            shape.net_depth[d] = 0;
        }
        GraphEdit::SetNetDepth(d, depth) => {
            let d = deck_ok(d)?;
            if !shape.remote_decks[d] {
                return Err(EditError::DeckNotRemote(d));
            }
            if depth == 0 {
                return Err(EditError::BadNetDepth(depth));
            }
            shape.net_depth[d] = depth;
        }
    }
    Ok(())
}

/// A prepared topology generation: the staged core graph plus the
/// engine-level landmarks that must swap with it. Built hollow off the
/// audio thread ([`stage_topology`]), [`fill`](Self::fill)ed against the
/// graph it will replace, committed by
/// [`AudioEngine::commit`](crate::apc::AudioEngine::commit).
pub struct StagedTopology {
    pub(crate) shape: GraphShape,
    pub(crate) map: NodeMap,
    pub(crate) staged: StagedGeneration,
    /// [`orphan_mask`] against the graph that runs now, when the mode cache
    /// worked it out ahead of the switch (`BlueprintCache::restock`);
    /// [`fill`](Self::fill) computes it otherwise.
    pub(crate) orphans: Option<u128>,
}

/// Bit `n` is set when node `n` of `staged` is an orphan: `running` has no
/// same-name, same-layout node to carry a processor over from.
pub(crate) fn orphan_mask(staged: &GraphTopology, running: &GraphTopology) -> u128 {
    assert!(
        staged.len() <= 128,
        "the largest DJ Star shape has 88 nodes"
    );
    let orphan = |&n: &u32| {
        let id = NodeId(n);
        let survivor = running.survivor(staged.name(id), staged.channels(id));
        survivor.is_none()
    };
    (0..staged.len() as u32)
        .filter(orphan)
        .fold(0, |mask, n| mask | 1 << n)
}

/// Is node `id`'s bit set in `mask`?
pub(crate) fn in_mask(mask: u128, id: NodeId) -> bool {
    mask >> id.0 & 1 == 1
}

/// The node ids whose bit is set in `mask`.
pub(crate) fn ids_in(mask: u128) -> impl Iterator<Item = NodeId> {
    (0..128).map(NodeId).filter(move |&id| in_mask(mask, id))
}

impl StagedTopology {
    /// The shape this generation was built for.
    pub fn shape(&self) -> &GraphShape {
        &self.shape
    }

    /// Node count of the staged graph.
    pub fn node_count(&self) -> usize {
        self.staged.len()
    }

    /// Whether a PLAN blueprint was staged alongside the graph.
    pub fn has_plan(&self) -> bool {
        self.staged.has_plan()
    }

    /// The staged PLAN blueprint, when one was compiled. Differential
    /// tests use this to compare a cached generation against a freshly
    /// staged one slot by slot.
    pub fn blueprint(&self) -> Option<&ScheduleBlueprint> {
        self.staged.plan()
    }

    /// Give a processor to every vacant node that `running` — the graph
    /// this generation will replace — has no same-name, same-layout node
    /// for; the commit carries the rest over. A part comes from `bin` when
    /// one built for that very node waits there (no allocation), else it
    /// is constructed here, bit-identical to a whole-graph build. Returns
    /// how many were constructed.
    pub fn fill(
        &mut self,
        scenario: &Scenario,
        running: &GraphTopology,
        bin: &mut PartsBin,
    ) -> usize {
        let staged = &mut self.staged;
        let orphans = self.orphans.take();
        let orphans = orphans.unwrap_or_else(|| orphan_mask(staged.topology(), running));
        let mut to_build = 0u128;
        for id in ids_in(orphans) {
            if staged.part_mut(id).is_vacant() {
                match bin.take(staged.topology().name(id), id) {
                    Some(part) => *staged.part_mut(id) = part,
                    None => to_build |= 1 << id.0,
                }
            }
        }
        if to_build != 0 {
            walk_nodes(scenario, &self.shape, true, &mut |spec| {
                if in_mask(to_build, spec.id) {
                    *staged.part_mut(spec.id) = spec.build();
                }
            });
        }
        to_build.count_ones() as usize
    }
}

/// PLAN lanes for `topo` on `threads` workers: the list schedule of the
/// graph under per-node `durations` (ns, node order), one node order per
/// lane. The executor or the staged generation binds them to the graph.
pub(crate) fn list_lanes(
    topo: &GraphTopology,
    durations: Vec<u64>,
    threads: usize,
) -> Vec<Vec<u32>> {
    let sim = djstar_sim::SimGraph::from_topology(topo);
    let durations = djstar_sim::DurationModel::Constant(durations);
    djstar_sim::list_schedule(&sim, &durations, 0, threads as u32).lanes()
}

/// Build a hollow generation for `shape`: the shaped task graph with a
/// placeholder in every node, its buffers, and — when `strategy` is PLAN —
/// a schedule blueprint for `threads` workers, list-scheduled with each
/// node priced by `costs` (exact name, else kind, else mean). This is the
/// expensive half of a reconfiguration and runs on any thread;
/// [`StagedTopology::fill`] makes the result committable.
///
/// Lanes that fail to bind to the graph in
/// [`StagedGeneration::with_plan`] are a typed [`BlueprintError`], never
/// an unplanned generation, which the PLAN executor would refuse at
/// commit.
pub fn stage_topology(
    scenario: &Scenario,
    shape: &GraphShape,
    strategy: Strategy,
    threads: usize,
    frames: usize,
    costs: &NodeCostModel,
) -> Result<StagedTopology, BlueprintError> {
    let (graph, map) = hollow_graph(scenario, shape);
    let staged = if strategy == Strategy::Planned {
        let topo = graph.topology();
        let lanes = list_lanes(topo, costs.durations_for(topo), threads);
        StagedGeneration::with_plan(graph, frames, &lanes)?
    } else {
        StagedGeneration::new(graph, frames)
    };
    Ok(StagedTopology {
        shape: *shape,
        map,
        staged,
        orphans: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_topology_is_send() {
        // Staging must be movable across threads: the whole point is to
        // build generations off the audio thread.
        fn assert_send<T: Send>() {}
        assert_send::<StagedTopology>();
    }

    #[test]
    fn edits_apply_and_validate() {
        let mut shape = GraphShape::paper_default();
        apply_edit(&mut shape, GraphEdit::UnloadDeck(3)).unwrap();
        assert!(!shape.deck_loaded[3]);
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::UnloadDeck(3)),
            Err(EditError::DeckNotLoaded(3))
        );
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::InsertFxSlot(3)),
            Err(EditError::DeckNotLoaded(3))
        );
        apply_edit(&mut shape, GraphEdit::LoadDeck(3)).unwrap();
        assert!(shape.deck_loaded[3]);
        for _ in 4..GraphShape::MAX_FX_SLOTS {
            apply_edit(&mut shape, GraphEdit::InsertFxSlot(0)).unwrap();
        }
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::InsertFxSlot(0)),
            Err(EditError::FxChainFull(0))
        );
        for _ in 1..GraphShape::MAX_FX_SLOTS {
            apply_edit(&mut shape, GraphEdit::RemoveFxSlot(0)).unwrap();
        }
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::RemoveFxSlot(0)),
            Err(EditError::FxChainAtMinimum(0))
        );
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::LoadDeck(7)),
            Err(EditError::UnknownDeck(7))
        );
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::ResizeThreads(0)),
            Err(EditError::BadThreadCount(0))
        );
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::ResizeThreads(4)),
            Err(EditError::ResizeNeedsRebuild(4))
        );
    }

    #[test]
    fn net_edits_apply_and_validate() {
        let mut shape = GraphShape::paper_default();
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::SetNetDepth(0, 4)),
            Err(EditError::DeckNotRemote(0))
        );
        apply_edit(&mut shape, GraphEdit::ConnectRemoteDeck(0)).unwrap();
        assert!(shape.remote_decks[0]);
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::ConnectRemoteDeck(0)),
            Err(EditError::DeckAlreadyRemote(0))
        );
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::SetNetDepth(0, 0)),
            Err(EditError::BadNetDepth(0))
        );
        apply_edit(&mut shape, GraphEdit::SetNetDepth(0, 6)).unwrap();
        assert_eq!(shape.net_depth[0], 6);
        apply_edit(&mut shape, GraphEdit::DisconnectRemoteDeck(0)).unwrap();
        assert!(!shape.remote_decks[0]);
        assert_eq!(shape.net_depth[0], 0);
        // An unloaded deck cannot stream.
        apply_edit(&mut shape, GraphEdit::UnloadDeck(2)).unwrap();
        assert_eq!(
            apply_edit(&mut shape, GraphEdit::ConnectRemoteDeck(2)),
            Err(EditError::DeckNotLoaded(2))
        );
    }

    #[test]
    fn stage_compiles_a_plan_only_for_planned() {
        use djstar_workload::scenario::Scenario;
        let scenario = Scenario::light_test();
        let shape = GraphShape::paper_default();
        let costs = NodeCostModel::uniform(1);
        let busy = stage_topology(&scenario, &shape, Strategy::Busy, 3, 16, &costs).unwrap();
        assert!(!busy.has_plan());
        assert!(busy.blueprint().is_none());
        // The paper's 67 nodes and the APC's five.
        let nodes = 67 + crate::graphbuild::APC_NODES;
        assert_eq!(busy.node_count(), nodes);
        let plan = stage_topology(&scenario, &shape, Strategy::Planned, 3, 16, &costs).unwrap();
        assert!(plan.has_plan());
        assert_eq!(plan.blueprint().map(|bp| bp.len()), Some(nodes));
    }
}
