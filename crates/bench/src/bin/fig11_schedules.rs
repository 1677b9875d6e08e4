//! E7 — Fig. 11: typical schedule realizations on four threads.
//!
//! The paper renders, per strategy, how nodes were assigned to threads and
//! in what order — gray boxes marking busy-wait intervals, white gaps
//! marking sleeping threads, with node ids on the bars. We print the same
//! picture twice: once from the virtual-time simulators (the comparable
//! numbers) and once from a real recorded cycle of each executor, folded
//! out of its flight recorder (structure only on a single-core host).
//!
//! A median-makespan cycle is selected per strategy, matching the paper's
//! "typical realizations of the schedules with execution times close to
//! their respective average".

use djstar_bench::{build_harness, run_real_executors};
use djstar_core::exec::Strategy;
use djstar_core::flight::FlightConfig;
use djstar_core::graph::NodeId;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_sim::gantt::{render_schedule, render_trace};
use djstar_sim::strategy::{simulate_makespans, simulate_strategy, SimStrategy};

fn main() {
    let h = build_harness();
    let threads = 4;
    let probe = 501.min(h.durations.cycles().max(1));

    println!("# Fig. 11 — typical schedule realizations (4 threads)\n");
    for strat in SimStrategy::ALL {
        // Pick the cycle whose makespan is the median.
        let makespans =
            simulate_makespans(&h.graph, &h.durations, threads, strat, &h.overheads, probe);
        let mut idx: Vec<usize> = (0..probe).collect();
        idx.sort_by_key(|&i| makespans[i]);
        let median_cycle = idx[probe / 2];
        let s = simulate_strategy(
            &h.graph,
            &h.durations,
            median_cycle,
            threads,
            strat,
            &h.overheads,
        );
        println!(
            "## {} (virtual time; median cycle, makespan {:.1} us)\n",
            strat.label(),
            s.makespan_ns() as f64 / 1e3
        );
        println!("{}", render_schedule(&s, 110));
        let m = djstar_sim::metrics::ScheduleMetrics::of_schedule(&s);
        println!(
            "utilization {:.0} %, load imbalance {:.2}, nodes/thread {:?}\n",
            m.utilization * 100.0,
            m.imbalance,
            m.per_proc_nodes
        );
        // Order statistics the paper discusses: WS runs small independent
        // nodes early; BUSY/SLEEP follow the round-robin queue order.
        let mut order: Vec<(u64, u32)> = s.entries.iter().map(|e| (e.start_ns, e.node)).collect();
        order.sort();
        let first: Vec<String> = order
            .iter()
            .take(8)
            .map(|&(_, n)| h.topology.name(NodeId(n)).to_string())
            .collect();
        println!("first nodes started: {}\n", first.join(", "));
    }

    if run_real_executors() {
        println!("# Real traced cycles (structure; timing is serialized on 1 core)\n");
        for (strategy, label) in [
            (Strategy::Busy, "BUSY"),
            (Strategy::Sleep, "SLEEP"),
            (Strategy::Steal, "WS"),
        ] {
            let mut engine =
                AudioEngine::with_aux(h.scenario.clone(), strategy, threads, AuxWork::light());
            engine.warmup(30);
            engine.set_flight_recorder(Some(FlightConfig::default()));
            let trace = engine.run_apc_traced();
            println!("## {label} (measured)\n");
            println!("{}", render_trace(&trace, 110));
        }
    }
}
