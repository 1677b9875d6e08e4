//! Miniature versions of the paper's experiments (light workload, few
//! cycles): the *shape* assertions that the full harness binaries rely on.

use djstar_bench::{build_harness_with, mean_ms, Harness};
use djstar_sim::earliest::earliest_start;
use djstar_sim::list::list_schedule;
use djstar_sim::strategy::{simulate_makespans, SimStrategy};
use djstar_stats::Histogram;
use djstar_workload::scenario::Scenario;
use std::sync::OnceLock;

/// The light harness is expensive enough to share across tests.
fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| build_harness_with(Scenario::light_test(), 60, false))
}

#[test]
fn e2_fig4_structure_holds_on_measured_durations() {
    let h = harness();
    let means = h.durations.means(h.graph.len());
    let inf = earliest_start(&h.graph, &means, 0);
    // 33 source nodes run at t=0. How far the peak climbs above that, and
    // how much the 4-core schedule pays over the unbounded one, depend on
    // the wall-clock durations the harness just measured; both bands are
    // pinned on fixed durations in integration_simulation, and
    // fig4_optimal_schedule prints the measured ratio.
    assert_eq!(h.graph.sources().len(), 33);
    assert!(inf.max_concurrency >= 33);
    assert!(inf.schedule.is_valid(&h.graph));
    let four = list_schedule(&h.graph, &means, 0, 4);
    assert!(four.is_valid(&h.graph));
    assert!(four.max_concurrency() <= 4);
    assert!(four.makespan_ns() >= inf.makespan_ns);
}

#[test]
fn e3_table1_shape_small_scale() {
    let h = harness();
    let cycles = 50;
    let baseline = mean_ms(&h.sequential_sum_ns());
    for strat in SimStrategy::ALL {
        let m1 = mean_ms(&simulate_makespans(
            &h.graph,
            &h.durations,
            1,
            strat,
            &h.overheads,
            cycles,
        ));
        let m4 = mean_ms(&simulate_makespans(
            &h.graph,
            &h.durations,
            4,
            strat,
            &h.overheads,
            cycles,
        ));
        // One thread tracks the sequential baseline...
        assert!(
            (m1 / baseline - 1.0).abs() < 0.6,
            "{strat:?}: 1-thread {m1:.4} vs baseline {baseline:.4}"
        );
        // ...and four threads are meaningfully faster.
        assert!(
            m4 < m1 * 0.8,
            "{strat:?}: no parallel gain ({m1:.4} -> {m4:.4})"
        );
    }
}

#[test]
fn e4_busy_wins_or_ties_at_four_threads() {
    let h = harness();
    let cycles = 50;
    let mut means = Vec::new();
    for strat in SimStrategy::ALL {
        means.push(mean_ms(&simulate_makespans(
            &h.graph,
            &h.durations,
            4,
            strat,
            &h.overheads,
            cycles,
        )));
    }
    let busy = means[0];
    // The tolerance is host-dependent: the simulation replays *measured*
    // overhead constants, and on hosts where steals come out very cheap
    // (small containers with hot shared caches) WS can edge out BUSY by a
    // few percent. The paper-shape claim is "BUSY is not materially worse
    // than the alternatives at 4 threads", so allow a 10 % band.
    assert!(
        busy <= means[1] * 1.10 && busy <= means[2] * 1.10,
        "BUSY {busy:.4} vs SLEEP {:.4} vs WS {:.4}",
        means[1],
        means[2]
    );
}

#[test]
fn e5_histograms_populate_and_sleep_floor_is_higher() {
    let h = harness();
    let cycles = 60;
    let busy = simulate_makespans(
        &h.graph,
        &h.durations,
        4,
        SimStrategy::Busy,
        &h.overheads,
        cycles,
    );
    let sleep = simulate_makespans(
        &h.graph,
        &h.durations,
        4,
        SimStrategy::Sleep,
        &h.overheads,
        cycles,
    );
    let min_busy = *busy.iter().min().unwrap();
    let min_sleep = *sleep.iter().min().unwrap();
    // The SLEEP floor sits above BUSY's (thread wake-up cost; Fig. 9's
    // "no graph executions below 0.4 ms" observation).
    assert!(
        min_sleep >= min_busy,
        "sleep floor {min_sleep} below busy floor {min_busy}"
    );
    let ms: Vec<f64> = busy.iter().map(|&n| n as f64 / 1e6).collect();
    let lo = ms.iter().cloned().fold(f64::INFINITY, f64::min) * 0.9;
    let hi = ms.iter().cloned().fold(0.0f64, f64::max) * 1.1;
    let mut hist = Histogram::new(lo, hi.max(lo + 1e-6), 20);
    hist.record_all(&ms);
    assert_eq!(hist.total(), cycles as u64);
}

#[test]
fn e10_no_gain_beyond_the_structural_parallelism() {
    let h = harness();
    let cycles = 40;
    let m4 = mean_ms(&simulate_makespans(
        &h.graph,
        &h.durations,
        4,
        SimStrategy::Busy,
        &h.overheads,
        cycles,
    ));
    let m8 = mean_ms(&simulate_makespans(
        &h.graph,
        &h.durations,
        8,
        SimStrategy::Busy,
        &h.overheads,
        cycles,
    ));
    // Eight threads may help marginally or hurt, but never approach a
    // further 2x (the graph has only 4 chains).
    assert!(
        m8 > m4 * 0.75,
        "impossible extra scaling: {m4:.4} -> {m8:.4}"
    );
}

#[test]
fn e8_overheads_increase_simulated_busy_time() {
    let h = harness();
    let zero = djstar_sim::strategy::OverheadModel::zero();
    let ideal = mean_ms(&simulate_makespans(
        &h.graph,
        &h.durations,
        4,
        SimStrategy::Busy,
        &zero,
        30,
    ));
    let real = mean_ms(&simulate_makespans(
        &h.graph,
        &h.durations,
        4,
        SimStrategy::Busy,
        &h.overheads,
        30,
    ));
    assert!(real >= ideal, "overheads cannot speed things up");
}
