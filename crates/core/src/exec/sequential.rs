//! The sequential baseline: DJ Star's original implementation.
//!
//! §IV: "the task graph is implemented using a simple queue. Nodes are
//! inserted according to their depth in the dependency graph … single nodes
//! can simply be removed from the queue in the same order (FIFO) during
//! graph execution and processed sequentially."

use super::{
    Adoption, CycleResult, ExecGraph, GraphExecutor, RawEvent, RetiredGeneration, StagedGeneration,
    Strategy,
};
use crate::faults::FaultPlan;
use crate::flight::{CycleStamp, FlightConfig, FlightRecorder, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, TaskGraph};
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{CycleCounters, TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::time::Instant;

/// Single-threaded FIFO execution of the depth-sorted queue.
pub struct SequentialExecutor {
    exec: ExecGraph,
    epoch: u64,
    generation: u64,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    counters: CycleCounters,
    telemetry: Option<TelemetryRing>,
    faults: Option<FaultPlan>,
    flight: Option<FlightRecorder>,
    session: u32,
}

/// Record a span on the single worker lane.
#[inline]
fn rec_span(r: &FlightRecorder, cycle: u64, node: u32, kind: SpanKind, t0: Instant, t1: Instant) {
    let span = Span {
        cycle,
        node,
        worker: 0,
        start_ns: r.now_ns(t0),
        end_ns: r.now_ns(t1),
        kind,
    };
    // SAFETY: single-threaded executor — lane 0 has exactly one writer.
    unsafe { r.record(0, span) };
}

/// Record the execution interval of `node`, carving any net wait/conceal
/// time its processor booked (counter deltas vs `net0`) into `NetWait` /
/// `Conceal` spans; the three spans tile `[t0, t1]` exactly.
fn rec_exec_carved(
    r: &FlightRecorder,
    counters: &CycleCounters,
    cycle: u64,
    node: u32,
    t0: Instant,
    t1: Instant,
    net0: (u64, u64),
) {
    let (w1, c1) = counters.net_ns();
    let (wait, conceal) = (w1.wrapping_sub(net0.0), c1.wrapping_sub(net0.1));
    if wait == 0 && conceal == 0 {
        rec_span(r, cycle, node, SpanKind::Exec, t0, t1);
        return;
    }
    let s = r.now_ns(t0);
    let e = r.now_ns(t1);
    let wait_end = s.saturating_add(wait).min(e);
    let conceal_end = wait_end.saturating_add(conceal).min(e);
    for (kind, start_ns, end_ns) in [
        (SpanKind::NetWait, s, wait_end),
        (SpanKind::Conceal, wait_end, conceal_end),
        (SpanKind::Exec, conceal_end, e),
    ] {
        if end_ns > start_ns {
            let span = Span {
                cycle,
                node,
                worker: 0,
                start_ns,
                end_ns,
                kind,
            };
            // SAFETY: single-threaded executor — lane 0 has one writer.
            unsafe { r.record(0, span) };
        }
    }
}

impl SequentialExecutor {
    /// Build a sequential executor over `graph` with `frames`-frame buffers.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        SequentialExecutor {
            exec: ExecGraph::new(graph, frames),
            epoch: 0,
            generation: 0,
            tracing: false,
            last_trace: None,
            counters: CycleCounters::new(),
            telemetry: None,
            faults: None,
            flight: None,
            session: 0,
        }
    }
}

impl GraphExecutor for SequentialExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Sequential
    }

    fn threads(&self) -> usize {
        1
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        self.epoch += 1;
        let telem = self.telemetry.is_some();
        let rec = self.flight.is_some();
        let ctx = CycleCtx {
            epoch: self.epoch,
            external_audio,
            controls,
            counters: (telem || rec).then_some(&self.counters),
        };
        let flight = self.flight.as_ref();
        let faults = self.faults.as_ref();
        let start = Instant::now();
        // The single worker absorbs every stall lane.
        if let Some(plan) = faults {
            if rec {
                let s0 = Instant::now();
                if plan.inject_stalls(self.epoch, 0, 1, &self.counters) > 0 {
                    if let Some(r) = flight {
                        rec_span(
                            r,
                            self.epoch,
                            Span::NO_NODE,
                            SpanKind::Fault,
                            s0,
                            Instant::now(),
                        );
                    }
                }
            } else {
                plan.inject_stalls(self.epoch, 0, 1, &self.counters);
            }
        }
        if self.tracing {
            let mut events = Vec::with_capacity(self.exec.len());
            for &n in self.exec.topology().queue() {
                let t0 = Instant::now();
                let mut fault_end = t0;
                if let Some(plan) = faults {
                    let injected = plan.inject_node(self.epoch, n, &self.counters);
                    if rec && injected > 0 {
                        fault_end = Instant::now();
                    }
                }
                let net0 = if rec { self.counters.net_ns() } else { (0, 0) };
                // SAFETY: single thread executes every node in queue order,
                // which is a valid topological order.
                unsafe { self.exec.execute(n as usize, &ctx) };
                let t1 = Instant::now();
                if telem {
                    self.counters.add_exec((t1 - t0).as_nanos() as u64);
                }
                if let Some(r) = flight {
                    if fault_end > t0 {
                        rec_span(r, self.epoch, n, SpanKind::Fault, t0, fault_end);
                    }
                    rec_exec_carved(r, &self.counters, self.epoch, n, fault_end, t1, net0);
                }
                events.push(RawEvent {
                    node: n,
                    kind: TraceKind::Exec,
                    start: t0,
                    end: t1,
                });
            }
            self.last_trace = Some(super::finish_trace(1, start, vec![(0, events)]));
        } else if telem || rec {
            for &n in self.exec.topology().queue() {
                let t0 = Instant::now();
                let mut fault_end = t0;
                if let Some(plan) = faults {
                    let injected = plan.inject_node(self.epoch, n, &self.counters);
                    if rec && injected > 0 {
                        fault_end = Instant::now();
                    }
                }
                let net0 = if rec { self.counters.net_ns() } else { (0, 0) };
                // SAFETY: as above.
                unsafe { self.exec.execute(n as usize, &ctx) };
                let t1 = Instant::now();
                if telem {
                    self.counters.add_exec((t1 - t0).as_nanos() as u64);
                }
                if let Some(r) = flight {
                    if fault_end > t0 {
                        rec_span(r, self.epoch, n, SpanKind::Fault, t0, fault_end);
                    }
                    rec_exec_carved(r, &self.counters, self.epoch, n, fault_end, t1, net0);
                }
            }
        } else {
            for &n in self.exec.topology().queue() {
                if let Some(plan) = faults {
                    plan.inject_node(self.epoch, n, &self.counters);
                }
                // SAFETY: as above.
                unsafe { self.exec.execute(n as usize, &ctx) };
            }
        }
        let end = Instant::now();
        let duration = end - start;
        if let Some(r) = self.flight.as_ref() {
            let stamp = CycleStamp {
                cycle: self.epoch,
                start_ns: r.now_ns(start),
                end_ns: r.now_ns(end),
            };
            // SAFETY: single-threaded executor — only the driver stamps.
            unsafe { r.stamp(stamp) };
        }
        if let Some(ring) = self.telemetry.as_mut() {
            let slot = ring.begin_push(self.epoch, duration.as_nanos() as u64);
            self.counters.drain_into(&mut slot[0]);
        }
        CycleResult { duration }
    }

    fn set_session(&mut self, session: u32) {
        self.session = session;
        if let Some(r) = &self.telemetry {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                session,
            ));
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn take_trace(&mut self) -> Option<ScheduleTrace> {
        self.last_trace.take()
    }

    fn set_telemetry(&mut self, on: bool) {
        if on {
            if self.telemetry.is_none() {
                self.telemetry = Some(TelemetryRing::with_session(
                    DEFAULT_RING_CAPACITY,
                    1,
                    self.session,
                ));
            }
        } else {
            self.telemetry = None;
        }
    }

    fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        let taken = self.telemetry.take();
        if let Some(r) = &taken {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                r.session(),
            ));
        }
        taken
    }

    fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        self.flight = cfg.map(|c| FlightRecorder::new(1, c));
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        self.flight.as_mut().map(|r| r.take_window())
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Adoption {
        let (mut exec, plan) = staged.into_parts();
        let verdict = exec.carry_over_from(&mut self.exec).map(|_| {
            std::mem::swap(&mut self.exec, &mut exec);
            // The epoch keeps counting: nothing in the fresh graph can
            // claim to be done for a past or future cycle.
            self.generation += 1;
            self.generation
        });
        let plans = [plan, None];
        (verdict, RetiredGeneration { exec, plans })
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.exec.read_output_internal(node, dst);
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.exec.node_processor_internal(node)
    }

    fn topology(&self) -> &GraphTopology {
        self.exec.topology()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::FnProcessor;

    fn chain_graph(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut prev: Option<NodeId> = None;
        for i in 0..n {
            let preds: Vec<NodeId> = prev.into_iter().collect();
            prev = Some(b.add(
                format!("n{i}"),
                Section::Master,
                Box::new(FnProcessor(
                    move |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                        let base = inp.first().map(|b| b.sample(0, 0)).unwrap_or(0.0);
                        out.samples_mut().fill(base + 1.0);
                    },
                )),
                &preds,
            ));
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_accumulates_through_cycle() {
        let mut ex = SequentialExecutor::new(chain_graph(5), 4);
        ex.run_cycle(&[], &[]);
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(NodeId(4), &mut out);
        assert_eq!(out.sample(0, 0), 5.0);
    }

    #[test]
    fn trace_is_a_valid_order_on_one_worker() {
        let mut ex = SequentialExecutor::new(chain_graph(6), 4);
        ex.set_tracing(true);
        ex.run_cycle(&[], &[]);
        let trace = ex.take_trace().unwrap();
        assert_eq!(trace.executions().len(), 6);
        assert_eq!(trace.execution_order(), vec![0, 1, 2, 3, 4, 5]);
        let topo = ex.topology();
        assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        // All on worker 0.
        assert!(trace.events.iter().all(|e| e.worker == 0));
    }

    #[test]
    fn take_trace_none_when_untraced() {
        let mut ex = SequentialExecutor::new(chain_graph(2), 4);
        ex.run_cycle(&[], &[]);
        assert!(ex.take_trace().is_none());
    }

    #[test]
    fn epochs_isolate_cycles() {
        let mut ex = SequentialExecutor::new(chain_graph(3), 4);
        let r1 = ex.run_cycle(&[], &[]);
        let r2 = ex.run_cycle(&[], &[]);
        assert!(r1.duration.as_nanos() > 0);
        assert!(r2.duration.as_nanos() > 0);
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(NodeId(2), &mut out);
        assert_eq!(out.sample(0, 0), 3.0);
    }
}
