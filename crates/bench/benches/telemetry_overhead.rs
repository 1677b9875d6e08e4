//! Microbenchmarks of the telemetry hot path, plus the end-to-end
//! overhead guard (telemetry-off vs -on graph times on the real engine).
//!
//! The per-op numbers bound what a single recording call costs inside a
//! cycle (a handful of relaxed atomic RMWs); the end-to-end section shows
//! the aggregate effect, which the acceptance criterion caps at 2 % of the
//! mean graph time.

use djstar_bench::microbench::{bench, group};
use djstar_bench::telemetry::median_graph_ns;
use djstar_core::exec::Strategy;
use djstar_core::telemetry::{CounterSnapshot, CycleCounters, TelemetryRing};
use djstar_workload::scenario::Scenario;

fn main() {
    group("telemetry counter primitives");
    let c = CycleCounters::new();
    bench("counters/add_exec", || c.add_exec(1_234));
    bench("counters/add_spin", || c.add_spin(17, 4_096));
    bench("counters/add_steal_hit", || c.add_steal(true));
    bench("counters/note_deque_depth", || c.note_deque_depth(7));
    let mut snap = CounterSnapshot::default();
    bench("counters/drain_into", || c.drain_into(&mut snap));

    group("telemetry ring");
    let mut ring = TelemetryRing::new(1024, 4);
    let mut cycle = 0u64;
    bench("ring/begin_push (4 workers)", || {
        cycle += 1;
        let slot = ring.begin_push(cycle, 1_000_000);
        std::hint::black_box(slot.len())
    });

    // The light scenario's ~1.5 us nodes make this a *worst case*: the
    // dominant cost is two clock reads per node, which is a fixed ns/node
    // tax. On the paper-scale workloads, whose nodes are ~10x longer, the
    // benchmark's `bench.trace_overhead_pct` row tracks the recording cost.
    group("end-to-end overhead (light scenario, SEQ, 300 cycles)");
    let scenario = Scenario::light_test();
    let cycles = 300;
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..3 {
        best_off = best_off.min(median_graph_ns(
            &scenario,
            Strategy::Sequential,
            1,
            20,
            cycles,
            false,
        ));
        best_on = best_on.min(median_graph_ns(
            &scenario,
            Strategy::Sequential,
            1,
            20,
            cycles,
            true,
        ));
    }
    let pct = (best_on - best_off) / best_off * 100.0;
    println!("telemetry off: {best_off:>12.1} ns/cycle (median)");
    println!("telemetry on : {best_on:>12.1} ns/cycle (median)");
    let per_node = (best_on - best_off) / 67.0;
    println!("overhead     : {pct:+.3} % on ~1.5 us nodes ({per_node:.0} ns/node fixed tax)");
    println!("(paper scale: see the benchmark's bench.trace_overhead_pct row)");
}
