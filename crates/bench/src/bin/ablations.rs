//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! 1. **Queue priority** — DJ Star's depth-order queue vs critical-path
//!    priority in the resource-constrained list scheduler (§IV keeps "the
//!    queue structure simple"; how much does that cost?).
//! 2. **Hybrid spin budget** — the spin-then-park extension strategy swept
//!    from budget 0 (SLEEP) to unbounded (BUSY plus SLEEP's notify duty),
//!    with a row at the executor's own spin phase (`exec::SPIN_PHASE`).
//! 3. **Cycle-length sensitivity** — the paper's core claim is that
//!    busy-waiting wins *because APC cycles are short*: "the time it takes
//!    to pause a thread and wake it up … costs too much time". Scaling all
//!    node durations shows where SLEEP closes the gap.
//!
//! The harness calibrates its work profile on the host, so the header
//! prints the profile it chose and the sequential mean it measured.

use djstar_bench::{build_harness, mean_ms, sim_cycles};
use djstar_core::exec::SPIN_PHASE;
use djstar_sim::list::{list_schedule_with, Priority};
use djstar_sim::model::DurationModel;
use djstar_sim::strategy::{simulate_hybrid, simulate_makespans, SimStrategy};

fn main() {
    let h = build_harness();
    let cycles = sim_cycles().min(3_000);
    let threads = 4;
    let means = h.durations.means(h.graph.len());

    println!("# Ablations (4 threads)\n");
    let w = &h.scenario.work;
    println!(
        "Calibrated work profile (burn iterations): sp {}, fx {}, channel {}, mixer {}, \
         master {}, bookkeeping {}; data dependence {}.",
        w.sp_iters,
        w.fx_iters,
        w.channel_iters,
        w.mixer_iters,
        w.master_iters,
        w.bookkeeping_iters,
        w.data_dependence
    );
    println!(
        "Measured sequential mean: {:.4} ms over {} cycles.\n",
        h.sequential_mean_ms(),
        h.sequential_ns.len()
    );

    println!("## 1. List-scheduler priority (per-node mean durations)\n");
    for (label, prio) in [
        ("depth/queue order (DJ Star)", Priority::QueueOrder),
        ("critical path", Priority::CriticalPath),
    ] {
        let s = list_schedule_with(&h.graph, &means, 0, threads as u32, prio);
        println!("{label:>30}: {:>8.1} us", s.makespan_ns() as f64 / 1e3);
    }

    println!("\n## 2. Hybrid spin-then-park (extension strategy)\n");
    println!("(spin budget 0 behaves like SLEEP, unbounded like BUSY-with-notify)\n");
    println!("| spin budget | mean ms |");
    println!("|---|---|");
    let executor_us = SPIN_PHASE.as_micros() as u64;
    for budget_us in [0u64, 1, 5, executor_us, 20, 100, u64::MAX / 1_000] {
        let budget_ns = budget_us.saturating_mul(1_000);
        let ms: Vec<u64> = (0..cycles)
            .map(|c| {
                simulate_hybrid(&h.graph, &h.durations, c, threads, &h.overheads, budget_ns)
                    .makespan_ns()
            })
            .collect();
        let label = if budget_us > 1_000_000 {
            "unbounded".to_string()
        } else if budget_us == executor_us {
            format!("{budget_us} us (executor's HYBRID)")
        } else {
            format!("{budget_us} us")
        };
        println!("| {label} | {:.4} |", mean_ms(&ms));
    }

    println!("\n## 3. Cycle-length sensitivity: BUSY vs SLEEP gap\n");
    println!("(the paper's key finding holds only for short cycles; scaling all");
    println!("node durations by k shows the wake-up overhead amortizing away)\n");
    println!("| duration scale | BUSY ms | SLEEP ms | SLEEP penalty |");
    println!("|---|---|---|---|");
    for k in [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let scaled = scale_model(&h.durations, k, h.graph.len());
        let busy = mean_ms(&simulate_makespans(
            &h.graph,
            &scaled,
            threads,
            SimStrategy::Busy,
            &h.overheads,
            cycles,
        ));
        let sleep = mean_ms(&simulate_makespans(
            &h.graph,
            &scaled,
            threads,
            SimStrategy::Sleep,
            &h.overheads,
            cycles,
        ));
        println!(
            "| {k}x | {busy:.4} | {sleep:.4} | +{:.1} % |",
            (sleep / busy - 1.0) * 100.0
        );
    }
}

fn scale_model(model: &DurationModel, k: f64, nodes: usize) -> DurationModel {
    match model {
        DurationModel::Constant(v) => {
            DurationModel::Constant(v.iter().map(|&d| (d as f64 * k) as u64).collect())
        }
        DurationModel::Empirical(samples) => DurationModel::Empirical(
            (0..nodes)
                .map(|n| samples[n].iter().map(|&d| (d as f64 * k) as u64).collect())
                .collect(),
        ),
    }
}
