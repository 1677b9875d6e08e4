//! The paper's primary contribution: the DJ Star audio **task graph** and the
//! three parallel scheduling strategies evaluated against it — busy-waiting,
//! thread-sleeping and work-stealing (§IV–V of *Parallelizing a Real-Time
//! Audio Application*, IPPS 2015).
//!
//! # Architecture
//!
//! * [`graph`] — the static task graph: nodes with audio processors,
//!   dependency edges, and the depth-sorted FIFO queue DJ Star stores the
//!   graph in ("nodes are inserted according to their depth in the
//!   dependency graph", §IV).
//! * [`processor`] — the [`Processor`] trait node
//!   payloads implement, and the per-cycle context handed to them.
//! * [`exec`] — the runtime: an [`ExecGraph`] with atomic
//!   per-node dependency state, and one executor,
//!   [`PoolExecutor`](exec::PoolExecutor), a session on a shared
//!   [`VenuePool`](exec::VenuePool) whose wait policy is the strategy. The
//!   per-strategy names are aliases of it:
//!   [`SequentialExecutor`],
//!   [`BusyExecutor`],
//!   [`SleepExecutor`],
//!   [`StealExecutor`],
//!   [`HybridExecutor`] and the precompiled-schedule
//!   [`PlannedExecutor`] (a [`ScheduleBlueprint`]
//!   compiled offline, e.g. from `djstar-sim`'s list scheduler).
//! * [`deque`] — a fixed-capacity Chase–Lev work-stealing deque (owner pops
//!   LIFO from the bottom, thieves steal FIFO from the top — the exact
//!   convention of §V-C).
//! * [`idle`] — a bitmask-based idle-worker set used to park and wake
//!   work-stealing workers.
//! * [`pad`] — [`CachePadded`], the cache-line padding
//!   applied to the hot shared atomics (deque ends, node completion state,
//!   cycle counters) to stop false sharing.
//! * [`trace`] — per-cycle schedule traces (which thread ran which node
//!   when, including wait intervals), the data behind Fig. 11: a view
//!   folded out of a flight window, not a second capture.
//! * [`telemetry`] — real-time-safe per-worker cycle counters (spin
//!   iterations, park/unpark traffic, steal hit rates, execution time)
//!   drained between cycles into a fixed-capacity ring.
//! * [`faults`] — seeded, deterministic fault injection (node duration
//!   spikes, worker stalls, CPU-pressure episodes) hooked into every
//!   executor's node-execution path via [`exec::GraphExecutor::set_faults`];
//!   zero-cost when no plan is installed.
//! * [`net`] — seeded network-fault traces ([`net::NetFaultPlan`]: loss,
//!   duplication, reorder, jitter bursts per `(cycle, stream)`) and the
//!   zero-alloc [`net::JitterBuffer`] behind the engine's remote
//!   deck sources; deterministic by construction, no sockets involved.
//! * [`flight`] — the flight recorder, the executors' one recording
//!   primitive: pre-allocated, overwrite-oldest per-worker span rings
//!   capturing the last N cycles of Exec/BusyWait/Sleep/Steal/Unpark/Fault
//!   intervals with zero hot-path allocation, behind
//!   [`exec::GraphExecutor::set_flight_recorder`]; the raw material for
//!   schedule traces, deadline-miss forensics and Chrome-trace export.
//!
//! # Memory-safety argument
//!
//! Node payloads live in `UnsafeCell`s and are accessed without locks. The
//! safety invariant, enforced by every wait policy, is *exactly-once ownership
//! per cycle*: a node is executed by exactly one thread per cycle, and a
//! thread only reads a predecessor's output after observing its
//! `done_epoch` equal to the current epoch with `Acquire` ordering (the
//! writer published it with `Release`). See `exec` for the detailed
//! proof obligations.

pub mod deque;
pub mod exec;
pub mod faults;
pub mod flight;
pub mod graph;
pub mod idle;
pub mod net;
pub mod pad;
pub mod processor;
pub mod telemetry;
pub mod trace;

pub use exec::{
    BlueprintError, BusyExecutor, CycleResult, ExecGraph, GraphExecutor, HybridExecutor,
    PlannedExecutor, PlannedNode, RetiredGeneration, ScheduleBlueprint, SequentialExecutor,
    SleepExecutor, StagedGeneration, StealExecutor, Strategy, SwapError,
};
pub use faults::FaultPlan;
pub use flight::{CycleStamp, FlightConfig, FlightRecorder, FlightWindow, Span, SpanKind};
pub use graph::{GraphError, NodeId, Section, TaskGraph, TaskGraphBuilder};
pub use net::{JitterBuffer, JitterConfig, NetFaultPlan, NetStats};
pub use pad::CachePadded;
pub use processor::{CycleCtx, Processor};
pub use telemetry::{CounterSnapshot, CycleCounters, CycleRecord, TelemetryRing};
pub use trace::ScheduleTrace;
