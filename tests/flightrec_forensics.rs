//! Property test for miss forensics: across every strategy and a span of
//! thread counts, every dossier produced from a recorded window must
//! (a) blame-decompose exactly to the measured cycle overrun and
//! (b) tile the cycle's `[start, end]` interval with contiguous slices.
//!
//! A budget far below any real cycle time flags *every* stamped cycle as
//! a miss, so the invariants are checked across the whole run, not just
//! the pathological tail — and a storm fault plan keeps Fault spans,
//! stall burns and degenerate waits in the mix.

use djstar_core::exec::Strategy;
use djstar_core::faults::FaultPlan;
use djstar_core::flight::FlightConfig;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_stats::{analyze_miss, MissContext};
use djstar_workload::scenario::Scenario;

#[test]
fn blame_sums_to_overrun_across_strategies_and_threads() {
    const CYCLES: usize = 24;
    // Far below any real cycle time, so every stamp is an overrun.
    const BUDGET_NS: u64 = 1_000;
    let mut dossiers = 0u64;
    for strategy in Strategy::ALL {
        let thread_counts: &[usize] = if strategy == Strategy::Sequential {
            &[1]
        } else {
            &[1, 2, 4, 8]
        };
        for &t in thread_counts {
            let mut engine =
                AudioEngine::with_aux(Scenario::light_test(), strategy, t, AuxWork::light());
            engine.set_faults(Some(FaultPlan::storm(0xE15).with_iters(50, 50, 25)));
            engine.warmup(4);
            engine.set_flight_recorder(Some(FlightConfig {
                spans_per_worker: 8192,
                cycles: 64,
                session: 0,
            }));
            for _ in 0..CYCLES {
                engine.run_apc();
            }
            let window = engine
                .take_flight_window()
                .expect("recorder armed before the measured cycles");
            let label = strategy.label();
            assert!(!window.is_empty(), "{label}@{t}: empty window");
            assert_eq!(window.cycles.len(), CYCLES, "{label}@{t}: missing stamps");
            for stamp in &window.cycles {
                assert!(
                    stamp.duration_ns() > BUDGET_NS,
                    "{label}@{t}: a real cycle ran under {BUDGET_NS} ns?"
                );
                let ctx = MissContext::default();
                let d = analyze_miss(&window, stamp.cycle, BUDGET_NS, label, t, ctx)
                    .expect("stamped miss must produce a dossier");
                assert_eq!(
                    d.overrun_ns,
                    stamp.duration_ns() - BUDGET_NS,
                    "{label}@{t} cycle {}: overrun mismatch",
                    stamp.cycle
                );
                assert_eq!(
                    d.blame.total(),
                    d.overrun_ns,
                    "{label}@{t} cycle {}: blame does not sum to the overrun",
                    stamp.cycle
                );
                // The realized path tiles [start, end] with no gap or
                // overlap — slices touch and cover the whole envelope.
                let first = d.path.first().expect("non-empty path");
                let last = d.path.last().expect("non-empty path");
                assert_eq!(first.start_ns, stamp.start_ns, "{label}@{t}");
                assert_eq!(last.end_ns, stamp.end_ns, "{label}@{t}");
                for pair in d.path.windows(2) {
                    assert_eq!(
                        pair[0].end_ns, pair[1].start_ns,
                        "{label}@{t} cycle {}: path not contiguous",
                        stamp.cycle
                    );
                }
                dossiers += 1;
            }
        }
    }
    assert!(dossiers > 0, "no dossiers were ever produced");
}
