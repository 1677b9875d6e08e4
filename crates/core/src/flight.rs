//! The flight recorder: always-on, real-time-safe span capture.
//!
//! The recorder is the executors' one recording primitive: a
//! **pre-allocated, overwrite-oldest** per-worker ring of [`Span`]s plus a
//! driver-side ring of per-cycle [`CycleStamp`]s, recorded by every
//! executor behind a single plain flag load (the same
//! zero-cost-when-disabled pattern as
//! [`set_faults`](crate::exec::GraphExecutor::set_faults)). A lane records
//! every interval exactly once, here; the other views are folds over a
//! frozen [`FlightWindow`]: the Fig. 11 schedule trace
//! ([`ScheduleTrace::of_cycle`](crate::trace::ScheduleTrace::of_cycle)),
//! per-node durations for the cost probes, and — when a cycle blows its
//! deadline — forensic analysis of the last N cycles of Exec/BusyWait/
//! Sleep/Steal/Unpark/Fault intervals (critical-path blame, Chrome Trace
//! export), all without any allocation ever happening on the hot path.
//!
//! # Memory-safety argument
//!
//! Each worker owns exactly one `WorkerLane` during a cycle and the
//! driver touches lanes only between cycles — the same epoch-protocol
//! ownership discipline as `DriverCell` (see `exec`). The cycle-stamp ring
//! is driver-only in both phases. All spans carry timestamps relative to
//! the recorder's `origin` instant, so windows from consecutive takes
//! share one timebase.

use std::cell::UnsafeCell;
use std::time::Instant;

/// What a recorded interval was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Executing a node's processor (includes any injected spike burn
    /// unless a separate [`SpanKind::Fault`] span was split off).
    Exec,
    /// Spinning on a dependency (BUSY, PLAN, HYBRID before parking).
    BusyWait,
    /// Parked on a dependency (SLEEP, HYBRID after the spin budget).
    Sleep,
    /// Idle with no work available (WS workers parked in the idle set).
    Idle,
    /// A successful steal sweep (WS).
    Steal,
    /// Waking a parked peer (SLEEP, HYBRID).
    Unpark,
    /// Injected fault work (spike/stall/pressure burn) from an installed
    /// [`FaultPlan`](crate::faults::FaultPlan).
    Fault,
    /// Receiving remote-deck packets into a jitter buffer (carved out of
    /// the owning node's Exec interval from its `net_wait_ns` counter).
    NetWait,
    /// Synthesizing concealment for late/lost network frames (carved the
    /// same way from `net_conceal_ns`).
    Conceal,
}

impl SpanKind {
    /// Stable label, used as the Chrome Trace `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Exec => "exec",
            SpanKind::BusyWait => "busy_wait",
            SpanKind::Sleep => "sleep",
            SpanKind::Idle => "idle",
            SpanKind::Steal => "steal",
            SpanKind::Unpark => "unpark",
            SpanKind::Fault => "fault",
            SpanKind::NetWait => "net_wait",
            SpanKind::Conceal => "conceal",
        }
    }

    /// Parse a [`label`](Self::label) back (for trace round-trips).
    pub fn from_label(s: &str) -> Option<SpanKind> {
        Some(match s {
            "exec" => SpanKind::Exec,
            "busy_wait" => SpanKind::BusyWait,
            "sleep" => SpanKind::Sleep,
            "idle" => SpanKind::Idle,
            "steal" => SpanKind::Steal,
            "unpark" => SpanKind::Unpark,
            "fault" => SpanKind::Fault,
            "net_wait" => SpanKind::NetWait,
            "conceal" => SpanKind::Conceal,
            _ => return None,
        })
    }

    /// Spans that represent productive on-CPU work (or injected work
    /// masquerading as it) rather than waiting.
    pub fn is_work(self) -> bool {
        matches!(
            self,
            SpanKind::Exec | SpanKind::Fault | SpanKind::NetWait | SpanKind::Conceal
        )
    }

    /// Every kind, in a stable order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Exec,
        SpanKind::BusyWait,
        SpanKind::Sleep,
        SpanKind::Idle,
        SpanKind::Steal,
        SpanKind::Unpark,
        SpanKind::Fault,
        SpanKind::NetWait,
        SpanKind::Conceal,
    ];
}

/// One recorded interval on one worker's timeline. Timestamps are
/// nanoseconds since the recorder's origin instant, so spans from
/// different cycles (and different takes of the same recorder) compare
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Executor epoch the span belongs to.
    pub cycle: u64,
    /// Node id, or [`Span::NO_NODE`] for spans not tied to a node
    /// (idle parks, stall burns).
    pub node: u32,
    /// Worker index.
    pub worker: u32,
    /// Start, ns since the recorder origin.
    pub start_ns: u64,
    /// End, ns since the recorder origin.
    pub end_ns: u64,
    /// What the interval was spent on.
    pub kind: SpanKind,
}

impl Span {
    /// Sentinel node id for spans not attached to a graph node.
    pub const NO_NODE: u32 = u32::MAX;

    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sizing of a [`FlightRecorder`]. Every buffer is allocated up front at
/// install time; nothing grows afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Span-ring capacity per worker (overwrite-oldest past this).
    pub spans_per_worker: usize,
    /// Cycle-stamp ring capacity (how many recent cycles stay addressable).
    pub cycles: usize,
    /// Venue session id stamped into exported windows (0 = single-session).
    pub session: u32,
}

impl Default for FlightConfig {
    /// Roughly 60 cycles of a 67-node graph per worker, 256 stamps.
    fn default() -> Self {
        FlightConfig {
            spans_per_worker: 4096,
            cycles: 256,
            session: 0,
        }
    }
}

/// Driver-side stamp of one finished cycle: its epoch and wall-clock
/// bounds on the recorder timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStamp {
    /// Executor epoch of the cycle.
    pub cycle: u64,
    /// Cycle start, ns since the recorder origin.
    pub start_ns: u64,
    /// Cycle end (driver observed completion), ns since the origin.
    pub end_ns: u64,
}

impl CycleStamp {
    /// Wall-clock duration of the cycle in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker's fixed-capacity overwrite-oldest span ring.
struct WorkerLane {
    spans: Box<[Span]>,
    /// Next write position.
    next: usize,
    /// Live spans (≤ capacity).
    len: usize,
    /// Total spans ever pushed since the last take.
    pushed: u64,
}

impl WorkerLane {
    fn new(capacity: usize) -> Self {
        let blank = Span {
            cycle: 0,
            node: Span::NO_NODE,
            worker: 0,
            start_ns: 0,
            end_ns: 0,
            kind: SpanKind::Idle,
        };
        WorkerLane {
            spans: vec![blank; capacity.max(1)].into_boxed_slice(),
            next: 0,
            len: 0,
            pushed: 0,
        }
    }

    #[inline]
    fn push(&mut self, span: Span) {
        self.spans[self.next] = span;
        self.next = (self.next + 1) % self.spans.len();
        if self.len < self.spans.len() {
            self.len += 1;
        }
        self.pushed += 1;
    }

    /// Copy live spans oldest-first into `out`, then reset the lane.
    fn drain_into(&mut self, out: &mut Vec<Span>) -> u64 {
        let cap = self.spans.len();
        let start = (self.next + cap - self.len) % cap;
        for k in 0..self.len {
            out.push(self.spans[(start + k) % cap]);
        }
        let dropped = self.pushed - self.len as u64;
        self.next = 0;
        self.len = 0;
        self.pushed = 0;
        dropped
    }
}

/// Interior-mutable lane: worker `w` writes lane `w` during a cycle, the
/// driver reads all lanes between cycles — disjoint in time and space.
struct LaneCell(UnsafeCell<WorkerLane>);

// SAFETY: see the module-level memory-safety argument — per-lane single
// writer during a cycle, driver-only access between cycles, ordered by the
// executors' epoch/done-count edges.
unsafe impl Sync for LaneCell {}

/// Driver-only ring of cycle stamps.
struct StampRing {
    stamps: Box<[CycleStamp]>,
    next: usize,
    len: usize,
}

impl StampRing {
    fn new(capacity: usize) -> Self {
        let blank = CycleStamp {
            cycle: 0,
            start_ns: 0,
            end_ns: 0,
        };
        StampRing {
            stamps: vec![blank; capacity.max(1)].into_boxed_slice(),
            next: 0,
            len: 0,
        }
    }

    fn push(&mut self, stamp: CycleStamp) {
        self.stamps[self.next] = stamp;
        self.next = (self.next + 1) % self.stamps.len();
        if self.len < self.stamps.len() {
            self.len += 1;
        }
    }

    fn drain_into(&mut self, out: &mut Vec<CycleStamp>) {
        let cap = self.stamps.len();
        let start = (self.next + cap - self.len) % cap;
        for k in 0..self.len {
            out.push(self.stamps[(start + k) % cap]);
        }
        self.next = 0;
        self.len = 0;
    }
}

/// The recorder proper: one span lane per worker plus the cycle-stamp
/// ring, all pre-allocated at construction.
pub struct FlightRecorder {
    origin: Instant,
    lanes: Box<[LaneCell]>,
    stamps: UnsafeCell<StampRing>,
    session: u32,
}

// SAFETY: lanes are per-worker single-writer (see `LaneCell`); the stamp
// ring is driver-only in every phase.
unsafe impl Sync for FlightRecorder {}
// SAFETY: all contents are owned plain data.
unsafe impl Send for FlightRecorder {}

impl FlightRecorder {
    /// Allocate a recorder for `workers` lanes sized by `cfg`. The origin
    /// instant (timestamp zero) is captured here.
    pub fn new(workers: usize, cfg: FlightConfig) -> Self {
        FlightRecorder {
            origin: Instant::now(),
            lanes: (0..workers.max(1))
                .map(|_| LaneCell(UnsafeCell::new(WorkerLane::new(cfg.spans_per_worker))))
                .collect(),
            stamps: UnsafeCell::new(StampRing::new(cfg.cycles)),
            session: cfg.session,
        }
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The recorder's timestamp origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Convert an instant to nanoseconds on the recorder timebase.
    #[inline]
    pub fn now_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span into `worker`'s lane. No allocation, no atomics.
    ///
    /// # Safety
    /// Caller must be the exclusive owner of lane `worker` — i.e. worker
    /// `worker` during a cycle, or the driver between cycles.
    #[inline]
    pub unsafe fn record(&self, worker: usize, span: Span) {
        (*self.lanes[worker].0.get()).push(span);
    }

    /// Record a finished cycle's stamp.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight.
    pub unsafe fn stamp(&self, stamp: CycleStamp) {
        (*self.stamps.get()).push(stamp);
    }

    /// Freeze and take everything captured so far as a [`FlightWindow`]
    /// (sorted spans, stamps, drop accounting); recording continues into
    /// the emptied buffers. This is the only allocating operation and it
    /// runs on the driver between cycles, off the hot path.
    pub fn take_window(&mut self) -> FlightWindow {
        let workers = self.lanes.len();
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for lane in self.lanes.iter_mut() {
            dropped += lane.0.get_mut().drain_into(&mut spans);
        }
        spans.sort_by_key(|s| (s.start_ns, s.worker));
        let mut cycles = Vec::new();
        self.stamps.get_mut().drain_into(&mut cycles);
        FlightWindow {
            workers,
            spans,
            cycles,
            dropped_spans: dropped,
            session: self.session,
        }
    }
}

/// A frozen capture: every live span (sorted by start time) and cycle
/// stamp at take time, plus how many spans the overwrite-oldest policy
/// discarded since the previous take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightWindow {
    /// Worker lanes the recorder had.
    pub workers: usize,
    /// All captured spans, sorted by `(start_ns, worker)`.
    pub spans: Vec<Span>,
    /// Cycle stamps, oldest first.
    pub cycles: Vec<CycleStamp>,
    /// Spans overwritten before they could be taken.
    pub dropped_spans: u64,
    /// Venue session id this window was captured for (0 = single-session).
    pub session: u32,
}

impl FlightWindow {
    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.cycles.is_empty()
    }

    /// The stamp of `cycle`, if it is still in the window.
    pub fn stamp_for(&self, cycle: u64) -> Option<CycleStamp> {
        self.cycles.iter().copied().find(|s| s.cycle == cycle)
    }

    /// All spans belonging to `cycle`, in start order.
    pub fn spans_in(&self, cycle: u64) -> Vec<Span> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.cycle == cycle)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cycle: u64, worker: u32, start: u64, end: u64, kind: SpanKind) -> Span {
        Span {
            cycle,
            node: 7,
            worker,
            start_ns: start,
            end_ns: end,
            kind,
        }
    }

    #[test]
    fn lane_overwrites_oldest() {
        let mut rec = FlightRecorder::new(
            1,
            FlightConfig {
                spans_per_worker: 3,
                cycles: 4,
                session: 0,
            },
        );
        for i in 0..5u64 {
            unsafe { rec.record(0, span(1, 0, i * 10, i * 10 + 5, SpanKind::Exec)) };
        }
        let w = rec.take_window();
        assert_eq!(w.spans.len(), 3);
        assert_eq!(w.dropped_spans, 2);
        // Oldest two (start 0, 10) were overwritten.
        assert_eq!(w.spans[0].start_ns, 20);
        assert_eq!(w.spans[2].start_ns, 40);
    }

    #[test]
    fn take_clears_and_recording_continues() {
        let mut rec = FlightRecorder::new(2, FlightConfig::default());
        unsafe {
            rec.record(0, span(1, 0, 0, 10, SpanKind::Exec));
            rec.record(1, span(1, 1, 5, 15, SpanKind::BusyWait));
            rec.stamp(CycleStamp {
                cycle: 1,
                start_ns: 0,
                end_ns: 20,
            });
        }
        let w1 = rec.take_window();
        assert_eq!(w1.spans.len(), 2);
        assert_eq!(w1.cycles.len(), 1);
        assert_eq!(w1.dropped_spans, 0);
        // Sorted across lanes by start.
        assert_eq!(w1.spans[0].worker, 0);
        assert_eq!(w1.spans[1].worker, 1);

        unsafe { rec.record(0, span(2, 0, 30, 40, SpanKind::Fault)) };
        let w2 = rec.take_window();
        assert_eq!(w2.spans.len(), 1);
        assert_eq!(w2.cycles.len(), 0);
        assert!(rec.take_window().is_empty());
    }

    #[test]
    fn stamp_ring_overwrites_oldest() {
        let mut rec = FlightRecorder::new(
            1,
            FlightConfig {
                spans_per_worker: 4,
                cycles: 2,
                session: 0,
            },
        );
        for c in 1..=3u64 {
            unsafe {
                rec.stamp(CycleStamp {
                    cycle: c,
                    start_ns: c * 100,
                    end_ns: c * 100 + 50,
                })
            };
        }
        let w = rec.take_window();
        assert_eq!(w.cycles.len(), 2);
        assert_eq!(w.stamp_for(1), None);
        assert_eq!(w.stamp_for(3).unwrap().duration_ns(), 50);
        assert!(w.spans_in(3).is_empty());
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
        assert!(SpanKind::Exec.is_work());
        assert!(SpanKind::Fault.is_work());
        assert!(!SpanKind::Sleep.is_work());
    }

    #[test]
    fn window_queries_filter_by_cycle() {
        let mut rec = FlightRecorder::new(1, FlightConfig::default());
        unsafe {
            rec.record(0, span(1, 0, 0, 10, SpanKind::Exec));
            rec.record(0, span(2, 0, 20, 30, SpanKind::Exec));
            rec.record(0, span(2, 0, 30, 35, SpanKind::Steal));
        }
        let w = rec.take_window();
        assert_eq!(w.spans_in(1).len(), 1);
        assert_eq!(w.spans_in(2).len(), 2);
        assert_eq!(w.spans_in(2)[1].duration_ns(), 5);
    }
}
