//! Real-time-safe telemetry: per-worker cycle counters and a per-cycle
//! record ring, shared by every executor strategy.
//!
//! The paper's evaluation (§VI) hinges on *where the time goes* inside an
//! audio processing cycle — spinning (BUSY), parked waiting (SLEEP), steal
//! traffic (WS). Flight spans capture that interval by interval, at a
//! timestamp pair each; this module is the aggregate counterpart: plain
//! `Relaxed` atomic counters, preallocated once per executor, recorded on
//! the hot path and drained by the driver into a fixed-capacity ring
//! **between** cycles.
//!
//! Real-time discipline:
//!
//! * **Zero allocation inside a cycle.** Counters are preallocated per
//!   worker; the ring and every [`CycleRecord`] slot in it (including the
//!   per-worker snapshot storage) are allocated when telemetry is switched
//!   on. Recording is `fetch_add`/`fetch_max`; draining overwrites a ring
//!   slot in place.
//! * **No synchronization added to the hot path.** All counter updates are
//!   `Relaxed`; visibility to the draining driver rides on the executors'
//!   existing cycle-completion barriers (the `Release` done-count /
//!   cycle-exit increments that every worker already performs after its
//!   last counter update, acquired by the driver before it drains).
//! * **Bounded memory.** The ring overwrites its oldest record; a run of
//!   any length holds at most [`ring::DEFAULT_RING_CAPACITY`] records
//!   (unless a taker drains it periodically via
//!   [`PoolExecutor::take_telemetry`](crate::exec::PoolExecutor::take_telemetry)).

pub mod counters;
pub mod ring;

pub use counters::{CounterSnapshot, CycleCounters};
pub use ring::{CycleRecord, TelemetryRing, DEFAULT_RING_CAPACITY};
