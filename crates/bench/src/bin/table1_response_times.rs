//! E3 + E4 — Table I (average task-graph response times) and Fig. 8
//! (speedup over the sequential baseline), strategies × 1–4 threads.
//!
//! Methodology (two-vCPU host): per-node durations are measured on the
//! real engine, then each strategy is replayed in virtual time by
//! `djstar-sim` over `DJSTAR_CYCLES` cycles — the paper's own Fig. 12
//! validation technique. Set `DJSTAR_REAL=1` to also measure the real
//! executors (wall-clock speedup shows only up to the host's core count).

use djstar_bench::{
    build_harness, mean_ms, real_executor_times, run_real_executors, sim_cycles, PAPER_TABLE1,
};
use djstar_core::exec::Strategy;
use djstar_sim::strategy::{simulate_makespans, SimStrategy};
use djstar_stats::render::{table_speedups, table_times};
use djstar_stats::SpeedupTable;

fn main() {
    let h = build_harness();
    let cycles = sim_cycles();
    let threads = [1usize, 2, 3, 4];
    let baseline_ms = h.sequential_sum_ms();

    println!("# Table I — task graph average response times (ms)\n");
    println!(
        "sequential baseline: {:.4} ms  (paper: {:.4} ms; direct wall-clock \
         measurement over a different track window: {:.4} ms)\n",
        baseline_ms,
        djstar_bench::PAPER_SEQUENTIAL_MS,
        h.sequential_mean_ms()
    );

    let mut table = SpeedupTable::new(threads.to_vec(), baseline_ms);
    for strat in SimStrategy::ALL {
        let mut row = Vec::new();
        for &t in &threads {
            let makespans =
                simulate_makespans(&h.graph, &h.durations, t, strat, &h.overheads, cycles);
            row.push(mean_ms(&makespans));
        }
        table.push_row(strat.label(), row);
    }

    println!("## Reproduced (virtual-time simulation, {cycles} cycles)\n");
    println!("{}", table_times(&table, "ms"));
    println!("## Paper's Table I\n");
    let mut paper = SpeedupTable::new(threads.to_vec(), djstar_bench::PAPER_SEQUENTIAL_MS);
    for (name, row) in PAPER_TABLE1 {
        paper.push_row(name, row.to_vec());
    }
    println!("{}", table_times(&paper, "ms"));

    println!("# Fig. 8 — speedup vs sequential\n");
    println!("## Reproduced\n{}", table_speedups(&table));
    println!("## Paper\n{}", table_speedups(&paper));

    // Headline checks, in the spirit of §VI.
    let (winner, best) = table.best_in_column(3).expect("rows present");
    println!(
        "winner at 4 threads: {} ({best:.4} ms)",
        table.rows[winner].0
    );
    println!(
        "BUSY speedup at 4 threads: {:.2} (paper: 2.40)",
        table.speedup(0, 3)
    );

    // Telemetry artifacts: short real-engine runs of each parallel
    // strategy with cycle counters enabled, exported as JSONL next to the
    // table (see DESIGN.md "Telemetry").
    let real_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    println!("\n# Telemetry (real engines, {real_threads} thread(s), 400 cycles)\n");
    for strat in [Strategy::Busy, Strategy::Sleep, Strategy::Steal] {
        let label = strat.label().to_lowercase();
        let report = djstar_bench::telemetry::capture_and_export(
            &format!("table1_{label}_{real_threads}t"),
            &h.scenario,
            strat,
            real_threads,
            50,
            400,
        );
        println!("{}", report.render());
    }

    if run_real_executors() {
        println!("\n# Real executors (wall clock; only meaningful on multi-core hosts)\n");
        let real_cycles = cycles.min(2_000);
        let mut real = SpeedupTable::new(threads.to_vec(), baseline_ms);
        for (strat, label) in [
            (Strategy::Busy, "BUSY"),
            (Strategy::Sleep, "SLEEP"),
            (Strategy::Steal, "WS"),
        ] {
            let mut row = Vec::new();
            for &t in &threads {
                let times = real_executor_times(&h.scenario, strat, t, real_cycles);
                row.push(mean_ms(&times));
            }
            real.push_row(label, row);
        }
        println!("{}", table_times(&real, "ms"));
        println!("{}", table_speedups(&real));
    }
}
