//! ASCII Gantt rendering of schedules and real traces (Fig. 11).
//!
//! The paper's Fig. 11 shows, per thread, the sequence of executed nodes as
//! labeled bars, with gray boxes for busy-waiting and white gaps for
//! sleeping. The renderers here produce the same picture in text: `=` bars
//! carrying node ids, `.` for waiting, and spaces for idle time.

use crate::model::Schedule;
use djstar_core::flight::SpanKind;
use djstar_core::trace::ScheduleTrace;

/// Render a simulated [`Schedule`] as one text row per processor.
pub fn render_schedule(s: &Schedule, width: usize) -> String {
    let makespan = s.makespan_ns().max(1);
    let mut out = String::new();
    for proc in 0..s.procs {
        let mut row = vec![b' '; width];
        for e in s.proc_timeline(proc) {
            paint(&mut row, width, makespan, e.start_ns, e.end_ns, b'=');
            label(&mut row, width, makespan, e.start_ns, e.node);
        }
        out.push_str(&format!("T{proc} |{}|\n", String::from_utf8_lossy(&row)));
    }
    out.push_str(&format!(
        "    0 {:>width$} ns\n",
        makespan,
        width = width.saturating_sub(2)
    ));
    out
}

/// Render a measured [`ScheduleTrace`] (Fig. 11 proper): `=` executing,
/// `.` busy-waiting, sleeping or burning a stall, `s` a successful steal
/// sweep, `^` waking a parked peer, space idle.
pub fn render_trace(t: &ScheduleTrace, width: usize) -> String {
    let makespan = t.events.iter().map(|e| e.end_ns).max().unwrap_or(0).max(1);
    let mut out = String::new();
    for worker in 0..t.workers {
        let mut row = vec![b' '; width];
        for e in t.worker_timeline(worker) {
            let ch = match e.kind {
                SpanKind::Exec => b'=',
                SpanKind::Steal => b's',
                SpanKind::Unpark => b'^',
                // A trace folds a node's work spans into its Exec; what
                // is left of Fault / NetWait / Conceal has no node (a
                // stall burn) and kept the lane from running work.
                SpanKind::BusyWait
                | SpanKind::Sleep
                | SpanKind::Idle
                | SpanKind::Fault
                | SpanKind::NetWait
                | SpanKind::Conceal => b'.',
            };
            paint(&mut row, width, makespan, e.start_ns, e.end_ns, ch);
            if e.kind == SpanKind::Exec {
                label(&mut row, width, makespan, e.start_ns, e.node);
            }
        }
        out.push_str(&format!("T{worker} |{}|\n", String::from_utf8_lossy(&row)));
    }
    out.push_str(&format!(
        "    0 {:>width$} ns\n",
        makespan,
        width = width.saturating_sub(2)
    ));
    out
}

/// Fill `[start, end)` (scaled) with `ch`, at least one column per event.
fn paint(row: &mut [u8], width: usize, makespan: u64, start: u64, end: u64, ch: u8) {
    let a = scale(start, makespan, width);
    let b = scale(end, makespan, width).max(a + 1).min(width);
    for slot in row.iter_mut().take(b).skip(a) {
        *slot = ch;
    }
}

/// Write the node id at the start of its bar (digits only, best effort).
fn label(row: &mut [u8], width: usize, makespan: u64, start: u64, node: u32) {
    let text = node.to_string();
    let a = scale(start, makespan, width);
    for (k, byte) in text.bytes().enumerate() {
        let i = a + k;
        if i < width && (row[i] == b'=' || row[i] == b' ') {
            row[i] = byte;
        } else {
            break;
        }
    }
}

#[inline]
fn scale(t: u64, makespan: u64, width: usize) -> usize {
    ((t as u128 * width as u128 / makespan as u128) as usize).min(width.saturating_sub(1))
}

/// Comma-separated values export of a schedule (node, proc, start, end).
pub fn schedule_csv(s: &Schedule) -> String {
    let mut out = String::from("node,proc,start_ns,end_ns\n");
    for e in &s.entries {
        out.push_str(&format!(
            "{},{},{},{}\n",
            e.node, e.proc, e.start_ns, e.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Schedule, ScheduleEntry};
    use djstar_core::flight::Span;

    fn two_proc_schedule() -> Schedule {
        Schedule {
            procs: 2,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 500,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 1,
                    start_ns: 0,
                    end_ns: 300,
                },
                ScheduleEntry {
                    node: 2,
                    proc: 1,
                    start_ns: 500,
                    end_ns: 1_000,
                },
            ],
        }
    }

    #[test]
    fn schedule_render_has_one_row_per_proc() {
        let s = render_schedule(&two_proc_schedule(), 40);
        let rows: Vec<&str> = s.lines().collect();
        assert_eq!(rows.len(), 3); // 2 procs + axis
        assert!(rows[0].starts_with("T0 |"));
        assert!(rows[1].starts_with("T1 |"));
        assert!(rows[0].contains('0'));
        assert!(rows[1].contains('2'));
    }

    #[test]
    fn trace_render_shows_wait_marks() {
        let span = |node, worker, start_ns, end_ns, kind| Span {
            cycle: 1,
            node,
            worker,
            start_ns,
            end_ns,
            kind,
        };
        let t = ScheduleTrace {
            workers: 2,
            events: vec![
                span(5, 0, 0, 400, SpanKind::BusyWait),
                span(5, 0, 400, 1_000, SpanKind::Exec),
                span(Span::NO_NODE, 1, 0, 600, SpanKind::Fault),
            ],
        };
        let s = render_trace(&t, 50);
        assert!(s.contains('.'), "{s}");
        assert!(s.contains('='), "{s}");
        assert!(s.contains('5'), "{s}");
        // The stall burn on T1 renders as a wait, not as work.
        let t1 = s.lines().nth(1).unwrap();
        assert!(t1.starts_with("T1 |..."), "{s}");
        assert!(!t1.contains('='), "{s}");
    }

    #[test]
    fn csv_lists_all_entries() {
        let csv = schedule_csv(&two_proc_schedule());
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("2,1,500,1000"));
    }

    #[test]
    fn tiny_events_are_still_visible() {
        let s = Schedule {
            procs: 1,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 1,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 0,
                    start_ns: 1,
                    end_ns: 1_000_000,
                },
            ],
        };
        let text = render_schedule(&s, 60);
        assert!(text.contains('0'));
    }
}
