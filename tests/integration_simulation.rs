//! Simulator ↔ real-graph integration: the §IV structural results must
//! hold on the actual 67-node topology, and the simulated strategies must
//! agree with real traces where physics allows.

use djstar_core::exec::Strategy;
use djstar_core::graph::{NodeId, TaskGraph};
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::graphbuild::build_djstar_graph;
use djstar_sim::earliest::earliest_start;
use djstar_sim::list::list_schedule;
use djstar_sim::model::{DurationModel, SimGraph};
use djstar_sim::strategy::{simulate_strategy, OverheadModel, SimStrategy};
use djstar_workload::scenario::Scenario;

fn dj_sim_graph() -> SimGraph {
    SimGraph::from_topology(dj_graph().topology())
}

/// The paper's graph on the light scenario; its topology names the nodes
/// of [`dj_sim_graph`].
fn dj_graph() -> TaskGraph {
    build_djstar_graph(&Scenario::light_test()).0
}

fn uniform(graph: &SimGraph, ns: u64) -> DurationModel {
    DurationModel::Constant(vec![ns; graph.len()])
}

#[test]
fn earliest_start_on_dj_graph_shows_the_paper_structure() {
    let graph = dj_sim_graph();
    let d = uniform(&graph, 10_000);
    let r = earliest_start(&graph, &d, 0);
    // 33 initially concurrent nodes (§IV).
    assert_eq!(r.max_concurrency, 33);
    // Critical path has 10 nodes → 100 us at uniform 10 us.
    assert_eq!(r.makespan_ns, 100_000);
    assert!(r.schedule.is_valid(&graph));
    // Concurrency at time zero is 33 and eventually drops to <= 4.
    let profile = r.schedule.concurrency_profile();
    assert_eq!(profile[0].1, 33);
    assert!(profile.iter().any(|&(_, c)| c <= 4 && c > 0));
}

#[test]
fn four_core_schedule_close_to_unbounded_on_dj_graph() {
    // The paper's §IV observation: 4 cores cost only ~8 % over infinite
    // cores, because structural parallelism is 4 after the source burst.
    let paper = dj_graph();
    let graph = SimGraph::from_topology(paper.topology());
    // Effect-heavy realistic durations.
    let d = DurationModel::Constant(
        (0..graph.len())
            .map(|n| {
                let name = paper.topology().name(NodeId(n as u32));
                if name.starts_with("FX") {
                    50_000
                } else if name.starts_with("Channel") {
                    18_000
                } else if name.starts_with("SP") {
                    4_000
                } else {
                    2_000
                }
            })
            .collect(),
    );
    let inf = earliest_start(&graph, &d, 0).makespan_ns;
    let four = list_schedule(&graph, &d, 0, 4).makespan_ns();
    let ratio = four as f64 / inf as f64;
    assert!(
        (1.0..1.25).contains(&ratio),
        "4-core/unbounded ratio {ratio:.3}"
    );
}

#[test]
fn simulated_strategies_valid_on_dj_graph_at_all_thread_counts() {
    let graph = dj_sim_graph();
    let d = DurationModel::Constant(
        (0..graph.len() as u64)
            .map(|i| 1_000 + (i * 977) % 40_000)
            .collect(),
    );
    let oh = OverheadModel::default_host();
    for strat in SimStrategy::ALL {
        for threads in 1..=8 {
            let s = simulate_strategy(&graph, &d, 0, threads, strat, &oh);
            assert!(s.is_valid(&graph), "{strat:?} t={threads}");
            assert!(s.max_concurrency() <= threads as u32);
        }
    }
}

#[test]
fn busy_simulation_tracks_real_sequential_time_at_one_thread() {
    // At one thread BUSY degenerates to sequential execution; the simulated
    // makespan built from measured per-node durations must match the
    // measured sequential cycle within a tight factor.
    let mut engine = AudioEngine::with_aux(
        Scenario::light_test(),
        Strategy::Sequential,
        1,
        AuxWork::light(),
    );
    engine.warmup(20);
    let samples = engine.measured_node_durations(40);
    let graph = SimGraph::from_topology(engine.executor_mut().topology());
    let d = DurationModel::Empirical(samples.clone());
    let sim_1t = simulate_strategy(&graph, &d, 7, 1, SimStrategy::Busy, &OverheadModel::zero())
        .makespan_ns();
    let sample_sum: u64 = samples.iter().map(|s| s[7]).sum();
    assert_eq!(sim_1t, sample_sum, "1-thread BUSY must equal the node sum");
}

#[test]
fn speedup_ordering_on_dj_graph_with_realistic_imbalance() {
    // Heaviest chain ~1.5x the lightest, like the paper's Fig. 11.
    let paper = dj_graph();
    let graph = SimGraph::from_topology(paper.topology());
    let d = DurationModel::Constant(
        (0..graph.len())
            .map(|n| {
                let name = paper.topology().name(NodeId(n as u32));
                match name.chars().nth(2) {
                    _ if !name.starts_with("FX") => 3_000,
                    Some('A') => 60_000u64,
                    Some('B') => 45_000,
                    Some('C') => 32_000,
                    _ => 25_000,
                }
            })
            .collect(),
    );
    let oh = OverheadModel::default_host();
    let seq: u64 = (0..graph.len() as u32).map(|n| d.duration(n, 0)).sum();
    for strat in SimStrategy::ALL {
        let m4 = simulate_strategy(&graph, &d, 0, 4, strat, &oh).makespan_ns();
        let speedup = seq as f64 / m4 as f64;
        assert!(
            (1.5..3.8).contains(&speedup),
            "{strat:?}: speedup {speedup:.2} out of plausible band"
        );
    }
    // BUSY beats SLEEP (the paper's headline).
    let busy = simulate_strategy(&graph, &d, 0, 4, SimStrategy::Busy, &oh).makespan_ns();
    let sleep = simulate_strategy(&graph, &d, 0, 4, SimStrategy::Sleep, &oh).makespan_ns();
    assert!(busy <= sleep);
}

#[test]
fn gantt_rendering_of_dj_schedules_is_well_formed() {
    let graph = dj_sim_graph();
    let d = uniform(&graph, 5_000);
    let s = simulate_strategy(
        &graph,
        &d,
        0,
        4,
        SimStrategy::Busy,
        &OverheadModel::default_host(),
    );
    let text = djstar_sim::gantt::render_schedule(&s, 90);
    assert_eq!(text.lines().count(), 5); // 4 threads + axis
    for t in 0..4 {
        assert!(text.contains(&format!("T{t} |")));
    }
    let csv = djstar_sim::gantt::schedule_csv(&s);
    assert_eq!(csv.lines().count(), 68); // header + 67 nodes
}
