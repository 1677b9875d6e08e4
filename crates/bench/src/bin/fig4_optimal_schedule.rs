//! E2 — Fig. 4 and the §IV simulation numbers: the earliest-start schedule
//! with unbounded processors (paper: 295 µs, 33 processors, concurrency
//! dropping to 4 after ~25 µs) and the resource-constrained 4-core list
//! schedule (paper: 324 µs, +8 %).

use djstar_bench::build_harness;
use djstar_core::graph::NodeId;
use djstar_sim::earliest::earliest_start;
use djstar_sim::gantt::render_schedule;
use djstar_sim::list::list_schedule;
use djstar_stats::render::line_chart;

fn main() {
    let h = build_harness();
    // §IV: "we measured the average vertex computation time using 10k APC
    // executions" — the simulation runs on per-node means.
    let means = h.durations.means(h.graph.len());

    let inf = earliest_start(&h.graph, &means, 0);
    println!("# Fig. 4 / §IV — optimal schedule analysis\n");
    println!("## Earliest start, unbounded processors\n");
    println!(
        "makespan: {:.1} us   (paper: 295 us)",
        inf.makespan_ns as f64 / 1e3
    );
    println!(
        "max concurrency: {} processors   (paper: 33)",
        inf.max_concurrency
    );
    println!(
        "critical path ({} nodes): {}",
        inf.critical_path.len(),
        inf.critical_path
            .iter()
            .map(|&n| h.topology.name(NodeId(n)))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // Concurrency over time (the paper: 33 concurrent nodes at start, down
    // to 4 after ~25 us, tailing to 1).
    let profile = inf.schedule.concurrency_profile();
    let points: Vec<(f64, f64)> = profile
        .iter()
        .map(|&(t, c)| (t as f64 / 1e3, c as f64))
        .collect();
    println!("\nconcurrency over time (x = us, y = running nodes):\n");
    println!("{}", line_chart(&points, 12, 70));
    if let Some(&(t_drop, _)) = profile.iter().find(|&&(_, c)| c <= 4) {
        println!(
            "concurrency first drops to <= 4 at {:.1} us   (paper: ~25 us)",
            t_drop as f64 / 1e3
        );
    }

    println!("\n## Resource-constrained list schedule (4 cores)\n");
    let four = list_schedule(&h.graph, &means, 0, 4);
    let slowdown = four.makespan_ns() as f64 / inf.makespan_ns as f64 - 1.0;
    println!(
        "makespan: {:.1} us   (paper: 324 us)",
        four.makespan_ns() as f64 / 1e3
    );
    println!("vs unbounded: +{:.1} %   (paper: +8 %)", slowdown * 100.0);
    println!("\nschedule (Fig. 4 lower panel):\n");
    println!("{}", render_schedule(&four, 100));

    for procs in [1u32, 2, 3, 4, 6, 8] {
        let s = list_schedule(&h.graph, &means, 0, procs);
        println!(
            "list schedule on {procs} cores: {:>8.1} us",
            s.makespan_ns() as f64 / 1e3
        );
    }
}
