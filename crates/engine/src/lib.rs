//! The DJ Star application engine: everything around the task graph.
//!
//! DJ Star's audio processing cycle (APC) is
//! `T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)` (§VI):
//!
//! * **TP** — timecode processing: decoding the control signal of the
//!   external turntables ([`timecode`]), 16 % of the APC in the paper.
//! * **GP** — graph preprocessing: time stretching, phase alignment and
//!   buffer management for each deck ([`deck`]), the largest non-graph
//!   chunk (33 %).
//! * **Graph** — the 67-node task graph ([`graphbuild`], executed by
//!   `djstar-core`), 38 %.
//! * **VC** — various calculations (master tempo, accounting).
//!
//! The paper runs TP, GP and VC serially around the parallel graph. Here
//! they are nodes of the same task graph ([`front`]: one TP → GP node per
//! deck and a VC node), so each APC is one dispatch onto the pool lanes.
//! [`apc::AudioEngine`] drives it against a simulated sound card
//! ([`soundcard`]) with the 2.9 ms deadline, timing each phase in its
//! [`ApcTiming`] — the numbers the §III hotspot analysis sums.

pub mod apc;
pub mod deck;
pub mod degrade;
pub mod events;
pub mod front;
pub mod graphbuild;
pub mod modes;
pub mod netnodes;
pub mod nodes;
mod pricing_golden;
pub mod reconfig;
pub mod soundcard;
pub mod sync;
pub mod timecode;
pub mod venue;

pub use apc::{ApcTiming, AudioEngine, AuxWork, GovernorOutcome};
pub use degrade::{Governor, GovernorAction, GovernorConfig, GovernorEvent};
pub use graphbuild::{
    build_djstar_graph, build_part, build_shaped_graph, hollow_graph, ApcNodes, GraphShape,
    NodeKey, NodeKind, NodeMap, APC_NODES,
};
pub use modes::{
    reachable_edits, AdmissionControl, BlueprintCache, ModeCacheStats, NodeCostModel, PartsBin,
    Unschedulable,
};
pub use netnodes::{BroadcastSink, BroadcastStats, NetDeckSource};
pub use reconfig::{
    apply_edit, stage_topology, EditError, GraphEdit, ReconfigError, StagedTopology,
};
pub use soundcard::SoundCardSim;
pub use venue::{SessionSpec, VenueServer};
