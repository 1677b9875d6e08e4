//! Schedule explorer: inspect the 67-node graph and compare how each
//! scheduling strategy lays it out across threads.
//!
//! ```sh
//! cargo run --release --example schedule_explorer -- [threads] [--dot]
//! cargo run --release --example schedule_explorer -- --costs [light|paper]
//! ```
//!
//! With `--dot` the graph is printed in Graphviz format instead. With
//! `--costs` the *nodes* layer of the budget tree (APC → phases → nodes →
//! kernel families) is printed instead: BUSY x 1 (SEQ's queue order, each
//! node run alone) on the light (default) or paper-scale work profile,
//! one row per node, most expensive first.

use djstar_core::exec::Strategy;
use djstar_core::graph::NodeId;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::graphbuild::build_djstar_graph;
use djstar_sim::earliest::earliest_start;
use djstar_sim::gantt::render_schedule;
use djstar_sim::list::list_schedule;
use djstar_sim::model::{DurationModel, SimGraph};
use djstar_sim::strategy::{simulate_strategy, OverheadModel, SimStrategy};
use djstar_stats::summary::Summary;
use djstar_workload::profile::WorkProfile;
use djstar_workload::scenario::Scenario;

/// Per-node cost table of the scenario `benchmark/`'s `dsp_seq` (light) or
/// `paper_busy` (paper) workload runs, on BUSY x 1 so a node's duration is
/// its own work and nothing else: one lane never waits, and, unlike SEQ,
/// it runs a deck's SP bands one by one rather than as one batch.
fn print_costs(profile: &str) {
    let (work, aux) = match profile {
        "light" => (WorkProfile::light(), AuxWork::light()),
        "paper" => (WorkProfile::paper_scale(), AuxWork::paper_scale()),
        other => {
            eprintln!("--costs takes `light` or `paper`, not `{other}`");
            std::process::exit(2);
        }
    };
    let mut scenario = Scenario::paper_default();
    scenario.work = work;
    eprintln!("measuring node durations (200 warm-up + 4000 cycles) ...");
    let mut engine = AudioEngine::with_aux(scenario, Strategy::Busy, 1, aux);
    engine.warmup(200);
    let samples = engine.measured_node_durations(4_000);
    let topology = engine.executor_mut().topology();
    let mut rows: Vec<(&str, Summary)> = samples
        .iter()
        .enumerate()
        .filter_map(|(id, ns)| {
            let ns: Vec<f64> = ns.iter().map(|&d| d as f64).collect();
            Some((topology.name(NodeId(id as u32)), Summary::of(&ns)?))
        })
        .collect();
    rows.sort_by(|a, b| b.1.mean.total_cmp(&a.1.mean));
    let total: f64 = rows.iter().map(|(_, s)| s.mean).sum();

    println!("## Node costs: {profile} profile, SEQ x 1, 4000 cycles\n");
    println!(
        "{:<14} {:>10} {:>10} {:>7}",
        "node", "mean ns", "p50 ns", "share"
    );
    println!(
        "{:<14} {:>10.0} {:>10} {:>6.1}%",
        format!("total ({})", rows.len()),
        total,
        "",
        100.0
    );
    for (name, s) in &rows {
        println!(
            "{:<14} {:>10.0} {:>10.0} {:>6.1}%",
            name,
            s.mean,
            s.median,
            100.0 * s.mean / total
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args
        .iter()
        .filter_map(|a| a.parse().ok())
        .find(|&t: &usize| (1..=16).contains(&t))
        .unwrap_or(4);

    if let Some(at) = args.iter().position(|a| a == "--costs") {
        print_costs(args.get(at + 1).map_or("light", String::as_str));
        return;
    }

    if args.iter().any(|a| a == "--dot") {
        let (graph, _) = build_djstar_graph(&Scenario::paper_default());
        println!("{}", graph.topology().to_dot());
        return;
    }

    eprintln!("measuring node durations (400 cycles) ...");
    let mut engine = AudioEngine::with_aux(
        Scenario::paper_default(),
        Strategy::Busy,
        1,
        AuxWork::light(),
    );
    engine.warmup(30);
    let samples = engine.measured_node_durations(400);
    let graph = SimGraph::from_topology(engine.executor_mut().topology());
    let durations = DurationModel::Empirical(samples).means(graph.len());
    let overheads = OverheadModel::default_host();

    println!("## DJ Star graph\n");
    println!("{} nodes, {} sources", graph.len(), graph.sources().len());
    let inf = earliest_start(&graph, &durations, 0);
    println!(
        "critical path: {:.1} us through {}",
        inf.makespan_ns as f64 / 1e3,
        inf.critical_path
            .iter()
            .map(|&n| engine.executor_mut().topology().name(NodeId(n)).to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!("max concurrency: {}\n", inf.max_concurrency);

    println!("## List schedule ({threads} cores)\n");
    let ls = list_schedule(&graph, &durations, 0, threads as u32);
    println!("makespan {:.1} us", ls.makespan_ns() as f64 / 1e3);
    println!("{}", render_schedule(&ls, 100));

    for strat in SimStrategy::ALL {
        let s = simulate_strategy(&graph, &durations, 0, threads, strat, &overheads);
        println!(
            "## {} ({} threads) — makespan {:.1} us\n",
            strat.label(),
            threads,
            s.makespan_ns() as f64 / 1e3
        );
        println!("{}", render_schedule(&s, 100));
    }
}
