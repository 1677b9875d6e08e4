//! The sequential baseline: DJ Star's original implementation.
//!
//! §IV: "the task graph is implemented using a simple queue. Nodes are
//! inserted according to their depth in the dependency graph … single nodes
//! can simply be removed from the queue in the same order (FIFO) during
//! graph execution and processed sequentially."
//!
//! As a pool session SEQ is the one-lane case: its single lane belongs to
//! the driver, so a private one-lane pool spawns no thread and a shared
//! pool's workers skip it. Its lane loop is deliberately its own plain
//! queue walk — the differential tests compare every other policy against
//! it, and two independent *scheduling* loops are what make that
//! comparison mean something. Everything around the loop is shared.

use super::executor::Lane;

/// The SEQ lane loop: no waiting — one lane walks the whole depth queue.
///
/// # Safety
/// As `Policy::run_lane`.
pub(super) unsafe fn run_lane(lane: &mut Lane<'_>) {
    for &n in lane.sh.graph().topology().queue() {
        // SAFETY: a single lane executes every node in queue order, which
        // is a valid topological order.
        unsafe { lane.exec(n) };
        lane.done();
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::test_support::{build, record, traced_cycle};
    use crate::exec::Strategy;
    use crate::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
    use crate::processor::{CycleCtx, FnProcessor};
    use crate::trace::ScheduleTrace;
    use djstar_dsp::AudioBuf;

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
        let mut ex = build(Strategy::Sequential, chain_graph(5), 1);
        ex.run_cycle(&[], &[]);
        let mut out = AudioBuf::zeroed(2, 8);
        ex.read_output(NodeId(4), &mut out);
        assert_eq!(out.sample(0, 0), 5.0);
    }

    #[test]
    fn trace_is_a_valid_order_on_one_worker() {
        let mut ex = build(Strategy::Sequential, chain_graph(6), 1);
        record(&mut ex);
        let trace = traced_cycle(&mut ex);
        assert_eq!(trace.executions().len(), 6);
        assert_eq!(trace.execution_order(), vec![0, 1, 2, 3, 4, 5]);
        let topo = ex.topology();
        assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        // All on worker 0.
        assert!(trace.events.iter().all(|e| e.worker == 0));
    }

    #[test]
    fn of_cycle_none_when_the_stamp_is_not_in_the_window() {
        let mut ex = build(Strategy::Sequential, chain_graph(2), 1);
        ex.run_cycle(&[], &[]);
        assert!(ex.take_flight_window().is_none(), "nothing recorded");
        record(&mut ex);
        ex.run_cycle(&[], &[]);
        let window = ex.take_flight_window().unwrap();
        let cycle = window.cycles.last().unwrap().cycle;
        assert!(ScheduleTrace::of_cycle(&window, cycle).is_some());
        // The cycle before the recorder was installed, and the next one.
        assert!(ScheduleTrace::of_cycle(&window, cycle - 1).is_none());
        assert!(ScheduleTrace::of_cycle(&window, cycle + 1).is_none());
    }

    #[test]
    fn epochs_isolate_cycles() {
        let mut ex = build(Strategy::Sequential, chain_graph(3), 1);
        let r1 = ex.run_cycle(&[], &[]);
        let r2 = ex.run_cycle(&[], &[]);
        assert!(r1.duration.as_nanos() > 0);
        assert!(r2.duration.as_nanos() > 0);
        let mut out = AudioBuf::zeroed(2, 8);
        ex.read_output(NodeId(2), &mut out);
        assert_eq!(out.sample(0, 0), 3.0);
    }
}
