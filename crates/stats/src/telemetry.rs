//! Aggregation and export of executor telemetry.
//!
//! The core layer hands out raw per-cycle records
//! ([`CycleRecord`]); this module
//! turns a run's worth of them into the artifacts the evaluation wants:
//! graph-time and wait-time percentiles (p50/p90/p99/p99.9), counter
//! totals, a deadline-miss ledger naming the offending cycles, a JSONL
//! line per cycle, and a human-readable report.

use crate::json::Json;
use crate::online::OnlineStats;
use crate::summary::Summary;
use djstar_core::telemetry::{CounterSnapshot, CycleRecord};

/// The percentile set the telemetry report uses for latency distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Percentiles {
    /// Percentiles of `samples` (need not be sorted); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let at = |p: f64| {
            // Delegate to the shared interpolation via Summary on the
            // already-sorted slice (Summary::percentile re-sorts; cheap
            // relative to report generation and keeps one implementation).
            Summary::percentile(&sorted, p).unwrap()
        };
        Some(Percentiles {
            p50: at(50.0),
            p90: at(90.0),
            p99: at(99.0),
            p999: at(99.9),
        })
    }

    fn to_json(self) -> Json {
        Json::object([
            ("p50", Json::Float(self.p50)),
            ("p90", Json::Float(self.p90)),
            ("p99", Json::Float(self.p99)),
            ("p99_9", Json::Float(self.p999)),
        ])
    }
}

/// One deadline miss: which cycle, and how long it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEntry {
    pub cycle: u64,
    pub graph_ns: u64,
}

/// Aggregated telemetry of one (strategy, thread-count) run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Strategy label (`SEQ`, `BUSY`, `SLEEP`, `WS`, `HYBRID`).
    pub strategy: String,
    /// Worker count of the run.
    pub threads: usize,
    /// Cycles aggregated.
    pub cycles: usize,
    /// Deadline the miss ledger is accounted against (ns).
    pub deadline_ns: u64,
    /// Mean wall-clock graph time (ns).
    pub graph_mean_ns: f64,
    /// Worst wall-clock graph time (ns).
    pub graph_max_ns: f64,
    /// Graph-time percentiles (ns).
    pub graph_pct: Percentiles,
    /// Mean per-cycle total wait time across workers (busy + parked, ns).
    pub wait_mean_ns: f64,
    /// Per-cycle total wait-time percentiles (ns).
    pub wait_pct: Percentiles,
    /// Counter totals over all cycles (deque high water is the maximum).
    pub totals: CounterSnapshot,
    /// Deadline misses, oldest first (capped at [`Self::MAX_MISSES`]).
    pub misses: Vec<MissEntry>,
    /// Total number of misses, including any beyond the ledger cap.
    pub miss_count: u64,
    /// Engine-level overload drops (events shed by the APC layer), not
    /// derivable from the ring; attached by the capture path via
    /// [`with_dropped_events`](Self::with_dropped_events).
    pub dropped_events: u64,
    /// Venue session id the aggregated ring was recording for (0 = solo
    /// engine); attached via [`with_session`](Self::with_session).
    pub session: u32,
}

impl TelemetryReport {
    /// Maximum entries retained in the miss ledger.
    pub const MAX_MISSES: usize = 256;

    /// Aggregate `records` (oldest first, e.g. `TelemetryRing::iter`).
    /// Returns `None` when there are no records.
    pub fn from_records<'a>(
        strategy: &str,
        threads: usize,
        deadline_ns: u64,
        records: impl IntoIterator<Item = &'a CycleRecord>,
    ) -> Option<Self> {
        let mut graph = OnlineStats::new();
        let mut graph_samples = Vec::new();
        let mut wait = OnlineStats::new();
        let mut wait_samples = Vec::new();
        let mut totals = CounterSnapshot::default();
        let mut misses = Vec::new();
        let mut miss_count = 0u64;
        for r in records {
            let t = r.totals();
            graph.push(r.graph_ns as f64);
            graph_samples.push(r.graph_ns as f64);
            wait.push(t.wait_ns() as f64);
            wait_samples.push(t.wait_ns() as f64);
            totals.merge(&t);
            if r.graph_ns > deadline_ns {
                miss_count += 1;
                if misses.len() < Self::MAX_MISSES {
                    misses.push(MissEntry {
                        cycle: r.cycle,
                        graph_ns: r.graph_ns,
                    });
                }
            }
        }
        let graph_pct = Percentiles::of(&graph_samples)?;
        let wait_pct = Percentiles::of(&wait_samples)?;
        Some(TelemetryReport {
            strategy: strategy.to_string(),
            threads,
            cycles: graph_samples.len(),
            deadline_ns,
            graph_mean_ns: graph.mean(),
            graph_max_ns: graph.max().unwrap_or(0.0),
            graph_pct,
            wait_mean_ns: wait.mean(),
            wait_pct,
            totals,
            misses,
            miss_count,
            dropped_events: 0,
            session: 0,
        })
    }

    /// Attach the engine's overload-drop counter to the report.
    pub fn with_dropped_events(mut self, dropped: u64) -> Self {
        self.dropped_events = dropped;
        self
    }

    /// Attach the venue session id the ring was recording for.
    pub fn with_session(mut self, session: u32) -> Self {
        self.session = session;
        self
    }

    /// The report as a JSON object: the machine-readable form of [`render`](Self::render).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("strategy", Json::from(self.strategy.clone())),
            ("session", Json::from(u64::from(self.session))),
            ("threads", Json::from(self.threads)),
            ("cycles", Json::from(self.cycles)),
            ("deadline_ns", Json::from(self.deadline_ns)),
            ("graph_mean_ns", Json::Float(self.graph_mean_ns)),
            ("graph_max_ns", Json::Float(self.graph_max_ns)),
            ("graph_ns", self.graph_pct.to_json()),
            ("wait_mean_ns", Json::Float(self.wait_mean_ns)),
            ("wait_ns", self.wait_pct.to_json()),
            ("counters", counters_json(&self.totals)),
            ("dropped_events", Json::from(self.dropped_events)),
            ("deadline_misses", Json::from(self.miss_count)),
            (
                "miss_ledger",
                Json::array(self.misses.iter().map(|m| {
                    Json::object([
                        ("cycle", Json::from(m.cycle)),
                        ("graph_ns", Json::from(m.graph_ns)),
                    ])
                })),
            ),
        ])
    }

    /// Human-readable report: headline numbers plus a graph-time histogram.
    pub fn render(&self) -> String {
        let ms = 1e-6;
        let mut out = String::new();
        out.push_str(&format!(
            "{} @ {} thread(s), {} cycles\n",
            self.strategy, self.threads, self.cycles
        ));
        out.push_str(&format!(
            "  graph time  mean {:.4} ms  p50 {:.4}  p90 {:.4}  p99 {:.4}  p99.9 {:.4}  max {:.4}\n",
            self.graph_mean_ns * ms,
            self.graph_pct.p50 * ms,
            self.graph_pct.p90 * ms,
            self.graph_pct.p99 * ms,
            self.graph_pct.p999 * ms,
            self.graph_max_ns * ms,
        ));
        out.push_str(&format!(
            "  wait time   mean {:.4} ms  p50 {:.4}  p90 {:.4}  p99 {:.4}  p99.9 {:.4}\n",
            self.wait_mean_ns * ms,
            self.wait_pct.p50 * ms,
            self.wait_pct.p90 * ms,
            self.wait_pct.p99 * ms,
            self.wait_pct.p999 * ms,
        ));
        let t = &self.totals;
        out.push_str(&format!(
            "  counters    exec {} nodes / {:.1} ms | spin {} iters / {:.2} ms | park {} (unpark {}) / {:.2} ms\n",
            t.nodes_executed,
            t.exec_ns as f64 * ms,
            t.spin_iters,
            t.busy_wait_ns as f64 * ms,
            t.park_count,
            t.unpark_count,
            t.park_wait_ns as f64 * ms,
        ));
        if t.net_packet_events() > 0 || t.net_frames_concealed > 0 {
            out.push_str(&format!(
                "  network     {} lost, {} late, {} dup | {} concealed, {} depth changes | wait {:.2} ms, conceal {:.2} ms\n",
                t.net_packets_lost,
                t.net_packets_late,
                t.net_packets_dup,
                t.net_frames_concealed,
                t.net_depth_changes,
                t.net_wait_ns as f64 * ms,
                t.net_conceal_ns as f64 * ms,
            ));
        }
        if t.steal_attempts > 0 {
            out.push_str(&format!(
                "  stealing    {} sweeps: {} hits, {} misses ({:.1}% hit rate), deque high water {}\n",
                t.steal_attempts,
                t.steal_hits,
                t.steal_misses,
                100.0 * t.steal_hits as f64 / t.steal_attempts as f64,
                t.deque_high_water,
            ));
        }
        out.push_str(&format!(
            "  deadline    {:.4} ms budget: {} misses in {} cycles\n",
            self.deadline_ns as f64 * ms,
            self.miss_count,
            self.cycles,
        ));
        for m in self.misses.iter().take(8) {
            out.push_str(&format!(
                "              cycle {} ran {:.4} ms\n",
                m.cycle,
                m.graph_ns as f64 * ms
            ));
        }
        if self.miss_count as usize > self.misses.len().min(8) {
            out.push_str("              ...\n");
        }
        out
    }
}

/// One cycle record as a JSONL line object: cycle stamp, the venue session
/// id the record's ring was recording for (`TelemetryRing::session`; 0 =
/// solo engine, so venue exports attribute every line to its session),
/// graph time, and the full per-worker counter snapshots.
pub fn cycle_json_for_session(record: &CycleRecord, session: u32) -> Json {
    Json::object([
        ("cycle", Json::from(record.cycle)),
        ("session", Json::from(u64::from(session))),
        ("graph_ns", Json::from(record.graph_ns)),
        (
            "workers",
            Json::array(record.workers.iter().map(counters_json)),
        ),
    ])
}

/// A counter snapshot as a JSON object (field order fixed).
fn counters_json(c: &CounterSnapshot) -> Json {
    Json::object([
        ("spin_iters", Json::from(c.spin_iters)),
        ("busy_wait_ns", Json::from(c.busy_wait_ns)),
        ("park_count", Json::from(c.park_count)),
        ("unpark_count", Json::from(c.unpark_count)),
        ("park_wait_ns", Json::from(c.park_wait_ns)),
        ("steal_attempts", Json::from(c.steal_attempts)),
        ("steal_hits", Json::from(c.steal_hits)),
        ("steal_misses", Json::from(c.steal_misses)),
        ("deque_high_water", Json::from(c.deque_high_water)),
        ("nodes_executed", Json::from(c.nodes_executed)),
        ("exec_ns", Json::from(c.exec_ns)),
        ("fault_spikes", Json::from(c.fault_spikes)),
        ("fault_spike_iters", Json::from(c.fault_spike_iters)),
        ("fault_stalls", Json::from(c.fault_stalls)),
        ("fault_stall_iters", Json::from(c.fault_stall_iters)),
        ("fault_pressure_iters", Json::from(c.fault_pressure_iters)),
        ("net_packets_lost", Json::from(c.net_packets_lost)),
        ("net_packets_late", Json::from(c.net_packets_late)),
        ("net_packets_dup", Json::from(c.net_packets_dup)),
        ("net_frames_concealed", Json::from(c.net_frames_concealed)),
        ("net_depth_changes", Json::from(c.net_depth_changes)),
        ("net_wait_ns", Json::from(c.net_wait_ns)),
        ("net_conceal_ns", Json::from(c.net_conceal_ns)),
        ("broadcast_drops", Json::from(c.broadcast_drops)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: u64, graph_ns: u64, exec_ns: u64, wait_ns: u64) -> CycleRecord {
        let w0 = CounterSnapshot {
            nodes_executed: 3,
            exec_ns,
            busy_wait_ns: wait_ns / 2,
            park_wait_ns: wait_ns - wait_ns / 2,
            spin_iters: 10,
            ..Default::default()
        };
        CycleRecord {
            cycle,
            graph_ns,
            workers: vec![w0, CounterSnapshot::default()].into_boxed_slice(),
        }
    }

    #[test]
    fn aggregates_records_into_report() {
        let records: Vec<CycleRecord> = (1..=100).map(|c| record(c, c * 1_000, 500, 200)).collect();
        let report = TelemetryReport::from_records("BUSY", 2, 90_000, records.iter()).unwrap();
        assert_eq!(report.cycles, 100);
        assert_eq!(report.strategy, "BUSY");
        assert_eq!(report.graph_max_ns, 100_000.0);
        assert!((report.graph_mean_ns - 50_500.0).abs() < 1e-9);
        // Cycles 91..=100 exceed 90_000 ns.
        assert_eq!(report.miss_count, 10);
        assert_eq!(report.misses.len(), 10);
        assert_eq!(report.misses[0].cycle, 91);
        assert_eq!(report.totals.nodes_executed, 300);
        assert_eq!(report.totals.exec_ns, 50_000);
        assert_eq!(report.totals.spin_iters, 1_000);
        assert!(report.graph_pct.p50 <= report.graph_pct.p90);
        assert!(report.graph_pct.p90 <= report.graph_pct.p99);
        assert!(report.graph_pct.p99 <= report.graph_pct.p999);
        assert!(report.graph_pct.p999 <= report.graph_max_ns);
    }

    #[test]
    fn empty_records_yield_none() {
        assert!(TelemetryReport::from_records("SEQ", 1, 1_000, [].iter()).is_none());
    }

    #[test]
    fn miss_ledger_is_capped_but_counts_everything() {
        let records: Vec<CycleRecord> = (0..400).map(|c| record(c, 10_000, 1, 0)).collect();
        let report = TelemetryReport::from_records("WS", 4, 1, records.iter()).unwrap();
        assert_eq!(report.miss_count, 400);
        assert_eq!(report.misses.len(), TelemetryReport::MAX_MISSES);
    }

    #[test]
    fn json_shapes_are_stable() {
        let r = record(7, 1234, 500, 100);
        let line = cycle_json_for_session(&r, 0).render();
        assert!(line.starts_with("{\"cycle\":7,\"session\":0,\"graph_ns\":1234,\"workers\":[{"));
        assert!(line.contains("\"exec_ns\":500"));
        let tagged = cycle_json_for_session(&r, 3).render();
        assert!(tagged.starts_with("{\"cycle\":7,\"session\":3,"));

        let report = TelemetryReport::from_records("SLEEP", 2, 2_000, [r].iter()).unwrap();
        let j = report.to_json().render();
        assert!(j.contains("\"strategy\":\"SLEEP\""));
        assert!(j.contains("\"deadline_misses\":0"));
        assert!(j.contains("\"p99_9\""));
        assert!(j.contains("\"dropped_events\":0"));
    }

    #[test]
    fn every_counter_field_is_exported() {
        let c = CounterSnapshot {
            spin_iters: 1,
            busy_wait_ns: 2,
            park_count: 3,
            unpark_count: 4,
            park_wait_ns: 5,
            steal_attempts: 6,
            steal_hits: 7,
            steal_misses: 8,
            deque_high_water: 9,
            nodes_executed: 10,
            exec_ns: 11,
            fault_spikes: 12,
            fault_spike_iters: 13,
            fault_stalls: 14,
            fault_stall_iters: 15,
            fault_pressure_iters: 16,
            net_packets_lost: 17,
            net_packets_late: 18,
            net_packets_dup: 19,
            net_frames_concealed: 20,
            net_depth_changes: 21,
            net_wait_ns: 22,
            net_conceal_ns: 23,
            broadcast_drops: 24,
        };
        let j = counters_json(&c).render();
        for (i, field) in [
            "spin_iters",
            "busy_wait_ns",
            "park_count",
            "unpark_count",
            "park_wait_ns",
            "steal_attempts",
            "steal_hits",
            "steal_misses",
            "deque_high_water",
            "nodes_executed",
            "exec_ns",
            "fault_spikes",
            "fault_spike_iters",
            "fault_stalls",
            "fault_stall_iters",
            "fault_pressure_iters",
            "net_packets_lost",
            "net_packets_late",
            "net_packets_dup",
            "net_frames_concealed",
            "net_depth_changes",
            "net_wait_ns",
            "net_conceal_ns",
            "broadcast_drops",
        ]
        .iter()
        .enumerate()
        {
            assert!(
                j.contains(&format!("\"{}\":{}", field, i + 1)),
                "missing {field} in {j}"
            );
        }
    }

    #[test]
    fn dropped_events_ride_the_report() {
        let r = record(1, 1000, 10, 0);
        let report = TelemetryReport::from_records("WS", 2, 2_000, [r].iter())
            .unwrap()
            .with_dropped_events(42);
        assert!(report.to_json().render().contains("\"dropped_events\":42"));
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let records: Vec<CycleRecord> = (1..=10).map(|c| record(c, 2_000_000, 1, 0)).collect();
        let report = TelemetryReport::from_records("HYBRID", 2, 2_902_494, records.iter()).unwrap();
        let text = report.render();
        assert!(text.contains("HYBRID @ 2 thread(s), 10 cycles"));
        assert!(text.contains("deadline"));
    }
}
