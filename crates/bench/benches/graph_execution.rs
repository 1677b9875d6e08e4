//! Wall-clock counterpart of Table I: per-cycle graph execution time of the
//! real executors (sequential plus each strategy at the host's sensible
//! thread count) and of the virtual-time simulators.

use djstar_bench::microbench::{bench, group};
use djstar_core::exec::Strategy;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_sim::list::{list_schedule_with, Priority};
use djstar_sim::model::{DurationModel, SimGraph};
use djstar_sim::strategy::{simulate_strategy, OverheadModel, SimStrategy};
use djstar_workload::scenario::Scenario;

fn scenario() -> Scenario {
    // A reduced work profile keeps the many iterations affordable while
    // preserving the node-cost *distribution*.
    let mut s = Scenario::paper_default();
    s.work = s.work.scaled(0.1);
    s.track_secs = 8.0;
    s
}

fn bench_real_executors() {
    group("real_graph_cycle");
    for (strategy, label) in [
        (Strategy::Sequential, "SEQ"),
        (Strategy::Busy, "BUSY"),
        (Strategy::Sleep, "SLEEP"),
        (Strategy::Steal, "WS"),
        (Strategy::Planned, "PLAN"),
    ] {
        let threads = if strategy == Strategy::Sequential {
            1
        } else {
            2
        };
        let mut engine = AudioEngine::with_aux(scenario(), strategy, threads, AuxWork::light());
        engine.warmup(20);
        bench(&format!("real_graph_cycle/{label}"), || {
            engine.run_apc().graph
        });
    }
}

fn bench_simulators() {
    // Build the empirical inputs once.
    // BUSY x 1: SEQ's queue order with every node run alone (SEQ batches
    // a deck's SP bands).
    let mut engine = AudioEngine::with_aux(scenario(), Strategy::Busy, 1, AuxWork::light());
    engine.warmup(20);
    let samples = engine.measured_node_durations(64);
    let graph = SimGraph::from_topology(engine.executor_mut().topology());
    let durations = DurationModel::Empirical(samples);
    let overheads = OverheadModel::default_host();

    group("simulated_cycle_4t");
    for strat in SimStrategy::ALL {
        let mut cycle = 0usize;
        bench(&format!("simulated_cycle_4t/{}", strat.label()), || {
            cycle += 1;
            simulate_strategy(&graph, &durations, cycle, 4, strat, &overheads).makespan_ns()
        });
    }
}

/// The list-scheduler bound (the PLAN compilation input) under each
/// ready-node priority rule.
fn bench_priority_order() {
    group("priority_order");
    // BUSY x 1: SEQ's queue order with every node run alone (SEQ batches
    // a deck's SP bands).
    let mut engine = AudioEngine::with_aux(scenario(), Strategy::Busy, 1, AuxWork::light());
    engine.warmup(20);
    let samples = engine.measured_node_durations(64);
    let graph = SimGraph::from_topology(engine.executor_mut().topology());
    let durations = DurationModel::Empirical(samples);
    for priority in Priority::ALL {
        let mut cycle = 0usize;
        bench(
            &format!("priority_order/list_bound_4p/{}", priority.label()),
            || {
                cycle += 1;
                list_schedule_with(&graph, &durations, cycle, 4, priority).makespan_ns()
            },
        );
    }
}

fn main() {
    bench_real_executors();
    bench_simulators();
    bench_priority_order();
}
