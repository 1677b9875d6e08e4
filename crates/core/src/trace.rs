//! Schedule traces: which worker executed which node when.
//!
//! Fig. 11 of the paper visualizes "typical schedule realizations": per
//! thread, the sequence of executed nodes, with gray boxes for busy-waiting
//! and white gaps for sleeping. A [`ScheduleTrace`] is exactly that data
//! for one cycle; `djstar-sim::gantt` renders it.
//!
//! A trace is not recorded on its own: it is a view over a
//! [`FlightWindow`], built by one fold, [`ScheduleTrace::of_cycle`]. The
//! flight recorder is the one recording primitive every lane writes.

use crate::flight::{FlightWindow, Span, SpanKind};

/// The trace of one cycle: its flight spans, rebased to the cycle start,
/// with each node's execution as one [`SpanKind::Exec`] interval.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTrace {
    /// Number of workers that participated.
    pub workers: u32,
    /// All intervals, in start order; `start_ns` / `end_ns` are
    /// nanoseconds from the cycle start.
    pub events: Vec<Span>,
}

impl ScheduleTrace {
    /// Fold `cycle`'s spans out of `window`: every span is rebased to the
    /// cycle's [`CycleStamp`](crate::flight::CycleStamp) start, and each
    /// node's contiguous work spans ([`Fault`](SpanKind::Fault),
    /// [`NetWait`](SpanKind::NetWait), [`Conceal`](SpanKind::Conceal),
    /// [`Exec`](SpanKind::Exec)) merge back into one `Exec` interval — the
    /// `[t0, t1]` the lane timed around the node, and telemetry's
    /// `exec_ns` with it. Spans with no node (stall burns, idle parks) and
    /// waits stay as recorded. `None` when the cycle's stamp is not in the
    /// window.
    pub fn of_cycle(window: &FlightWindow, cycle: u64) -> Option<ScheduleTrace> {
        let stamp = window.stamp_for(cycle)?;
        let mut events: Vec<Span> = Vec::new();
        // Index into `events` of each worker's latest interval.
        let mut last: Vec<Option<usize>> = vec![None; window.workers];
        for s in window.spans.iter().filter(|s| s.cycle == cycle) {
            let mut span = Span {
                start_ns: s.start_ns.saturating_sub(stamp.start_ns),
                end_ns: s.end_ns.saturating_sub(stamp.start_ns),
                ..*s
            };
            let w = s.worker as usize;
            if s.kind.is_work() && s.node != Span::NO_NODE {
                if let Some(i) = last[w] {
                    let prev = &mut events[i];
                    let joins = prev.kind == SpanKind::Exec && prev.node == s.node;
                    if joins && prev.end_ns == span.start_ns {
                        prev.end_ns = span.end_ns;
                        continue;
                    }
                }
                span.kind = SpanKind::Exec;
            }
            last[w] = Some(events.len());
            events.push(span);
        }
        Some(ScheduleTrace {
            workers: window.workers as u32,
            events,
        })
    }

    /// Events of one worker, sorted by start time.
    pub fn worker_timeline(&self, worker: u32) -> Vec<Span> {
        let mut v: Vec<Span> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.worker == worker)
            .collect();
        v.sort_by_key(|e| e.start_ns);
        v
    }

    /// Execution events only, sorted by start time.
    pub fn executions(&self) -> Vec<Span> {
        let mut v: Vec<Span> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.kind == SpanKind::Exec)
            .collect();
        v.sort_by_key(|e| e.start_ns);
        v
    }

    /// Node ids in execution *start* order (ties broken by node id).
    pub fn execution_order(&self) -> Vec<u32> {
        let mut v = self.executions();
        v.sort_by_key(|e| (e.start_ns, e.node));
        v.into_iter().map(|e| e.node).collect()
    }

    /// Check that no node started before every one of its predecessors (as
    /// given by `preds(node)`) had finished. This is the dependency-safety
    /// check the integration tests run against every strategy.
    pub fn respects_dependencies(&self, preds: impl Fn(u32) -> Vec<u32>) -> bool {
        let execs = self.executions();
        let mut end_of = std::collections::HashMap::new();
        for e in &execs {
            end_of.insert(e.node, e.end_ns);
        }
        for e in &execs {
            for p in preds(e.node) {
                match end_of.get(&p) {
                    Some(&pend) if pend <= e.start_ns => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::CycleStamp;

    /// Cycle 3 starts 1 000 ns after the recorder origin.
    const START: u64 = 1_000;

    fn ev(node: u32, worker: u32, start: u64, end: u64, kind: SpanKind) -> Span {
        Span {
            cycle: 3,
            node,
            worker,
            start_ns: START + start,
            end_ns: START + end,
            kind,
        }
    }

    /// The trace of cycle 3 in a window holding `spans` (plus one span of
    /// a neighboring cycle, which the fold must ignore).
    fn trace(workers: usize, mut spans: Vec<Span>) -> ScheduleTrace {
        spans.push(Span {
            cycle: 2,
            ..ev(0, 0, 0, 5, SpanKind::Exec)
        });
        spans.sort_by_key(|s| (s.start_ns, s.worker));
        let window = FlightWindow {
            workers,
            spans,
            cycles: vec![CycleStamp {
                cycle: 3,
                start_ns: START,
                end_ns: START + 100,
            }],
            dropped_spans: 0,
            session: 0,
        };
        ScheduleTrace::of_cycle(&window, 3).expect("cycle 3 is stamped")
    }

    fn max_exec_end(t: &ScheduleTrace) -> Option<u64> {
        t.executions().iter().map(|e| e.end_ns).max()
    }

    fn total_ns(t: &ScheduleTrace, kind: SpanKind) -> u64 {
        let of_kind = t.events.iter().filter(|e| e.kind == kind);
        of_kind.map(|e| e.duration_ns()).sum()
    }

    #[test]
    fn timeline_sorted_per_worker() {
        let t = trace(
            2,
            vec![
                ev(1, 0, 50, 80, SpanKind::Exec),
                ev(0, 0, 0, 40, SpanKind::Exec),
                ev(2, 1, 10, 90, SpanKind::Exec),
            ],
        );
        let w0 = t.worker_timeline(0);
        assert_eq!(w0.len(), 2);
        assert_eq!(w0[0].node, 0);
        assert_eq!(max_exec_end(&t), Some(90));
        assert_eq!(t.execution_order(), vec![0, 2, 1]);
    }

    #[test]
    fn dependency_check_passes_for_ordered_trace() {
        let t = trace(
            1,
            vec![
                ev(0, 0, 0, 10, SpanKind::Exec),
                ev(1, 0, 10, 20, SpanKind::Exec),
            ],
        );
        assert!(t.respects_dependencies(|n| if n == 1 { vec![0] } else { vec![] }));
    }

    #[test]
    fn dependency_check_fails_for_overlap() {
        let t = trace(
            2,
            vec![
                ev(0, 0, 0, 10, SpanKind::Exec),
                ev(1, 1, 5, 20, SpanKind::Exec),
            ],
        );
        assert!(!t.respects_dependencies(|n| if n == 1 { vec![0] } else { vec![] }));
    }

    #[test]
    fn dependency_check_fails_for_missing_pred() {
        let t = trace(1, vec![ev(1, 0, 0, 10, SpanKind::Exec)]);
        assert!(!t.respects_dependencies(|n| if n == 1 { vec![0] } else { vec![] }));
    }

    #[test]
    fn wait_time_accounting() {
        let t = trace(
            1,
            vec![
                ev(0, 0, 0, 10, SpanKind::BusyWait),
                ev(0, 0, 10, 30, SpanKind::Exec),
                ev(Span::NO_NODE, 0, 30, 35, SpanKind::Idle),
            ],
        );
        assert_eq!(total_ns(&t, SpanKind::BusyWait), 10);
        assert_eq!(total_ns(&t, SpanKind::Idle), 5);
        assert_eq!(max_exec_end(&t), Some(30));
    }

    #[test]
    fn carved_work_spans_fold_into_one_exec_interval() {
        let t = trace(
            2,
            vec![
                // Node 4: injected fault, net wait, concealment, then its
                // own work — one interval [10, 60] once folded.
                ev(4, 0, 10, 20, SpanKind::Fault),
                ev(4, 0, 20, 30, SpanKind::NetWait),
                ev(4, 0, 30, 35, SpanKind::Conceal),
                ev(4, 0, 35, 60, SpanKind::Exec),
                // A stall burn has no node: it stays a Fault span.
                ev(Span::NO_NODE, 1, 0, 15, SpanKind::Fault),
                // Node 5 only waited on net data before running.
                ev(5, 1, 15, 25, SpanKind::NetWait),
                ev(5, 1, 25, 40, SpanKind::Exec),
            ],
        );
        let execs = t.executions();
        let spans: Vec<(u32, u64, u64)> = execs
            .iter()
            .map(|e| (e.node, e.start_ns, e.end_ns))
            .collect();
        assert_eq!(spans, vec![(4, 10, 60), (5, 15, 40)]);
        assert_eq!(t.events.len(), 3);
        assert_eq!(total_ns(&t, SpanKind::Fault), 15);
        assert_eq!(total_ns(&t, SpanKind::NetWait), 0);
        assert!(t.events.iter().all(|e| e.cycle == 3));
    }

    #[test]
    fn of_cycle_is_none_for_an_unstamped_cycle() {
        let window = FlightWindow {
            workers: 1,
            spans: vec![ev(0, 0, 0, 10, SpanKind::Exec)],
            cycles: Vec::new(),
            dropped_spans: 0,
            session: 0,
        };
        assert!(ScheduleTrace::of_cycle(&window, 3).is_none());
    }
}
