//! The DJ Star application engine: everything around the task graph.
//!
//! DJ Star's audio processing cycle (APC) is
//! `T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)` (§VI):
//!
//! * **TP** — timecode processing: decoding the control signal of the
//!   external turntables ([`timecode`]), 16 % of the APC in the paper.
//! * **GP** — graph preprocessing: time stretching, phase alignment and
//!   buffer management for each deck ([`deck`]), the largest non-graph
//!   chunk (33 %). Serial in the paper; here TP and GP run as one task per
//!   deck on the graph's own pool lanes ([`front`]).
//! * **Graph** — the 67-node task graph ([`graphbuild`], executed by
//!   `djstar-core`), 38 %.
//! * **VC** — various calculations (master tempo, accounting).
//!
//! [`apc::AudioEngine`] drives all four phases against a simulated sound
//! card ([`soundcard`]) with the 2.9 ms deadline, and [`profiling`] is the
//! scoped-timer hotspot profiler used to regenerate the §III analysis.

pub mod apc;
pub mod deck;
pub mod degrade;
pub mod events;
pub mod front;
pub mod graphbuild;
pub mod modes;
pub mod netnodes;
pub mod nodes;
pub mod profiling;
pub mod reconfig;
pub mod soundcard;
pub mod sync;
pub mod timecode;
pub mod venue;

pub use apc::{ApcTiming, AudioEngine, AuxWork, GovernorOutcome};
pub use degrade::{Governor, GovernorAction, GovernorConfig, GovernorEvent};
pub use front::FrontWork;
pub use graphbuild::{
    build_djstar_graph, build_part, build_shaped_graph, hollow_graph, GraphShape, NodeMap,
};
pub use modes::{
    canonical_shape, reachable_edits, shape_fingerprint, AdmissionControl, BlueprintCache,
    ModeCacheStats, NodeCostModel, PartsBin, ShapeFingerprint, Unschedulable,
};
pub use netnodes::{BroadcastSink, BroadcastStats, NetDeckSource};
pub use reconfig::{
    apply_edit, stage_topology, EditError, GraphEdit, ReconfigError, StagedTopology,
};
pub use soundcard::SoundCardSim;
pub use venue::{AdmissionRejection, SessionCounters, SessionSpec, VenueServer};
