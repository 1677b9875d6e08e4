//! Virtual-time schedule simulation — the role RESCON plays in the paper.
//!
//! §IV: "In order to find an optimal schedule and to assess the parallel
//! potential for the task graph, we performed a graph simulation using the
//! simulation tool RESCON. … we defined the earliest start scheduling
//! strategy … similar to a critical path analysis, but in addition it
//! reveals the maximum concurrency in the graph." And §VI/Fig. 12: "we
//! implemented our BUSY strategy in the RESCON simulation tool and compared
//! the simulation result with our measurement."
//!
//! RESCON is closed educational software, so this crate reimplements the
//! algorithms the paper describes, plus strategy-faithful simulators for
//! all three parallelizations:
//!
//! * [`earliest`] — earliest-start schedule with unbounded processors:
//!   critical path, makespan, concurrency-over-time profile (Fig. 4's
//!   analysis: 33-wide start, dropping to 4, tailing to 1).
//! * [`list`] — resource-constrained list scheduling on `P` processors
//!   (the paper's "optimal schedule" on four cores: 324 µs vs 295 µs).
//! * [`strategy`] — virtual-time replicas of the executors including
//!   scheduling overheads: one lane walk replays BUSY, SLEEP, HYBRID and
//!   (through [`planned`]) PLAN, an event simulation replays WS. They
//!   regenerate Table I / Figs. 8–12 on hosts without enough cores.
//! * [`planned`] — compiles a list schedule into the PLAN executor's
//!   blueprint and replays it.
//! * [`gantt`] — ASCII Gantt rendering of schedules and real traces
//!   (Fig. 11).
//!
//! On a 1–2 vCPU evaluation host the strategy simulators are the primary
//! source of the parallel numbers; the real executors in `djstar-core`
//! supply correctness and the one- and two-thread columns, and `djstar-engine::apc::AudioEngine::measured_node_durations`
//! supplies the per-node, per-cycle duration samples that drive the
//! simulation (preserving the loud/quiet correlation that makes the
//! execution-time histograms bimodal).

pub mod earliest;
pub mod gantt;
pub mod list;
pub mod metrics;
pub mod model;
pub mod netsim;
pub mod planned;
pub mod strategy;
pub mod venue;

pub use earliest::{earliest_start, EarliestStartResult};
pub use list::list_schedule;
pub use metrics::ScheduleMetrics;
pub use model::{DurationModel, Schedule, ScheduleEntry, SimGraph};
pub use netsim::lost_packets;
pub use planned::{compile_blueprint, simulate_plan_makespans};
pub use strategy::{simulate_hybrid, simulate_strategy, OverheadModel, SimStrategy};
pub use venue::{admissible, cycle_budget_ns, session_bound_ns};
