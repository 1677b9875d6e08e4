//! Telemetry capture and export helpers shared by the experiment binaries.
//!
//! The executors record per-worker [`CycleCounters`] into a
//! [`TelemetryRing`]; this module runs an engine with telemetry enabled,
//! drains the ring, writes `results/telemetry_<tag>.jsonl` (one JSON object
//! per cycle with the full per-worker counter snapshots) and returns the
//! aggregated [`TelemetryReport`] the binaries print.
//!
//! [`CycleCounters`]: djstar_core::telemetry::CycleCounters

use djstar_core::exec::Strategy;
use djstar_core::telemetry::TelemetryRing;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_stats::telemetry::{cycle_json_for_session, TelemetryReport};
use djstar_workload::scenario::Scenario;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The sound-card cycle budget (128 frames at 44.1 kHz, §VI's 2.9 ms) that
/// the miss ledger accounts graph times against.
const DEADLINE_NS: u64 = 2_902_494;

/// Run `cycles` APCs of `scenario` under `strategy` with telemetry enabled
/// (after `warmup` untracked cycles); return the drained ring and the
/// engine's dropped-event count.
fn collect_telemetry(
    scenario: &Scenario,
    strategy: Strategy,
    threads: usize,
    warmup: usize,
    cycles: usize,
) -> (TelemetryRing, u64) {
    let mut engine = AudioEngine::with_aux(scenario.clone(), strategy, threads, AuxWork::light());
    engine.warmup(warmup);
    engine.set_telemetry(true);
    for _ in 0..cycles {
        engine.run_apc();
    }
    let ring = engine
        .take_telemetry()
        .expect("telemetry was enabled before the measured cycles");
    (ring, engine.dropped_events())
}

/// Aggregate a ring into a [`TelemetryReport`] against [`DEADLINE_NS`].
/// The report carries the ring's venue session id (0 for solo engines).
fn report_for(strategy: Strategy, threads: usize, ring: &TelemetryRing) -> TelemetryReport {
    TelemetryReport::from_records(strategy.label(), threads, DEADLINE_NS, ring.iter())
        .expect("telemetry ring is non-empty after a measured run")
        .with_session(ring.session())
}

/// `results/telemetry_<tag>.jsonl`, creating `results/` if needed.
fn jsonl_path(tag: &str) -> PathBuf {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[telemetry] cannot create {}: {e}", dir.display());
    }
    dir.join(format!("telemetry_{tag}.jsonl"))
}

/// Write a ring as JSONL, one cycle record per line, oldest first.
fn write_jsonl(path: &Path, ring: &TelemetryRing) -> std::io::Result<()> {
    let mut out = String::new();
    render_jsonl(&mut out, ring);
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Append a ring's JSONL lines to `out`. Every line carries the ring's
/// venue session id (0 for solo engines) so multi-session exports stay
/// attributable.
fn render_jsonl(out: &mut String, ring: &TelemetryRing) {
    let session = ring.session();
    for record in ring.iter() {
        out.push_str(&cycle_json_for_session(record, session).render());
        out.push('\n');
    }
}

/// Capture + export in one step: run, write `results/telemetry_<tag>.jsonl`,
/// and return the aggregated report. Used by the experiment binaries so
/// every run leaves a telemetry artifact next to its figures.
pub fn capture_and_export(
    tag: &str,
    scenario: &Scenario,
    strategy: Strategy,
    threads: usize,
    warmup: usize,
    cycles: usize,
) -> TelemetryReport {
    let (ring, dropped) = collect_telemetry(scenario, strategy, threads, warmup, cycles);
    let path = jsonl_path(tag);
    match write_jsonl(&path, &ring) {
        Ok(()) => eprintln!(
            "[telemetry] wrote {} ({} cycles)",
            path.display(),
            ring.len()
        ),
        Err(e) => eprintln!("[telemetry] cannot write {}: {e}", path.display()),
    }
    report_for(strategy, threads, &ring).with_dropped_events(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_returns_one_record_per_cycle() {
        let (ring, _) = collect_telemetry(&Scenario::light_test(), Strategy::Sequential, 1, 3, 17);
        assert_eq!(ring.len(), 17);
        assert_eq!(ring.total_pushed(), 17);
        let report = report_for(Strategy::Sequential, 1, &ring);
        assert_eq!(report.cycles, 17);
        assert_eq!(report.strategy, "SEQ");
        assert_eq!(report.totals.nodes_executed, 17 * 67);
    }

    #[test]
    fn jsonl_has_one_line_per_cycle() {
        let (ring, _) = collect_telemetry(&Scenario::light_test(), Strategy::Busy, 2, 2, 5);
        let dir = std::env::temp_dir().join("djstar_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &ring).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            assert!(line.starts_with("{\"cycle\":"));
            assert!(line.contains("\"workers\":["));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn venue_rings_export_session_tagged_jsonl() {
        use djstar_engine::venue::{SessionSpec, VenueServer};
        let mut venue = VenueServer::new(2, std::time::Duration::from_secs(1), 0.0);
        let mut ids = Vec::new();
        for strategy in [Strategy::Busy, Strategy::Steal] {
            let id = venue
                .admit_bounded(
                    SessionSpec {
                        scenario: Scenario::light_test(),
                        strategy,
                        threads: 2,
                        aux: AuxWork::light(),
                    },
                    1,
                )
                .unwrap();
            venue.engine_mut(id).unwrap().set_telemetry(true);
            ids.push(id);
        }
        venue.run_cycles(6);
        let rings: Vec<TelemetryRing> = ids
            .iter()
            .map(|&id| venue.engine_mut(id).unwrap().take_telemetry().unwrap())
            .collect();
        // Each ring knows its session, and the aggregated report carries it.
        assert_eq!(rings[0].session(), ids[0]);
        assert_eq!(rings[1].session(), ids[1]);
        let report = report_for(Strategy::Busy, 2, &rings[0]);
        assert_eq!(report.session, ids[0]);
        assert!(report.to_json().render().contains("\"session\":1"));
        // The combined JSONL attributes every line to its session.
        let mut out = String::new();
        for r in &rings {
            render_jsonl(&mut out, r);
        }
        assert_eq!(out.lines().count(), 12);
        for (i, id) in ids.iter().enumerate() {
            let tag = format!("\"session\":{id}");
            assert_eq!(
                out.lines().filter(|l| l.contains(&tag)).count(),
                6,
                "session {} lines missing (ring {i})",
                id
            );
        }
    }
}
