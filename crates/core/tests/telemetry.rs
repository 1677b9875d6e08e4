//! Consistency properties of the telemetry layer, checked against the
//! schedule traces folded out of the flight recorder on randomly generated
//! DAGs across every strategy and 1–8 worker threads (seeded
//! [`SmallRng`]; the workspace builds offline, without proptest).
//!
//! The load-bearing property is *exactness*: when the recorder and
//! telemetry are both armed, each node execution feeds the same `Instant`
//! pair to both, so the sum of per-worker `exec_ns` must equal the folded
//! trace's total execution time to the nanosecond — also when injected
//! faults split a node's interval into several spans.

use djstar_core::exec::{
    BusyExecutor, GraphExecutor, HybridExecutor, SequentialExecutor, SleepExecutor, StealExecutor,
};
use djstar_core::faults::FaultPlan;
use djstar_core::flight::{FlightConfig, Span, SpanKind};
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, FnProcessor};
use djstar_core::trace::ScheduleTrace;
use djstar_dsp::rng::SmallRng;
use djstar_dsp::AudioBuf;

/// Random DAG: node i draws predecessors from earlier nodes (≤ 8).
fn random_dag(rng: &mut SmallRng, max_nodes: usize) -> Vec<Vec<u32>> {
    let n = 2 + rng.below(max_nodes - 2);
    (0..n)
        .map(|i| {
            let mut ps: Vec<u32> = (0..i as u32).filter(|_| rng.chance(0.3)).collect();
            ps.truncate(8);
            ps
        })
        .collect()
}

fn build_graph(preds: &[Vec<u32>]) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    for (i, ps) in preds.iter().enumerate() {
        let pred_ids: Vec<NodeId> = ps.iter().map(|&p| NodeId(p)).collect();
        b.add(
            format!("n{i}"),
            Section::deck(i % 4),
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    let base = inp.iter().map(|b| b.sample(0, 0)).sum::<f32>();
                    // A little arithmetic per frame so executions take
                    // measurable (but tiny) time.
                    for s in out.samples_mut() {
                        *s = (base + 1.0).sin();
                    }
                },
            )),
            &pred_ids,
        );
    }
    b.build().expect("forward edges only: always a DAG")
}

/// Every strategy at `threads` workers (SEQ only when threads == 1).
fn executors(graph: &[Vec<u32>], threads: usize) -> Vec<(&'static str, Box<dyn GraphExecutor>)> {
    const FRAMES: usize = 8;
    let mut v: Vec<(&'static str, Box<dyn GraphExecutor>)> = vec![
        (
            "BUSY",
            Box::new(BusyExecutor::new(build_graph(graph), threads, FRAMES)),
        ),
        (
            "SLEEP",
            Box::new(SleepExecutor::new(build_graph(graph), threads, FRAMES)),
        ),
        (
            "WS",
            Box::new(StealExecutor::new(build_graph(graph), threads, FRAMES)),
        ),
        (
            "HYBRID",
            Box::new(HybridExecutor::new(
                build_graph(graph),
                threads,
                FRAMES,
                200,
            )),
        ),
    ];
    if threads == 1 {
        v.push((
            "SEQ",
            Box::new(SequentialExecutor::new(build_graph(graph), FRAMES)),
        ));
    }
    v
}

#[test]
fn counters_are_consistent_with_traces_on_all_strategies() {
    let mut rng = SmallRng::seed_from_u64(0x7E1E_3E7E);
    // Node intervals a storm split into Fault + Exec spans: the fold must
    // merge them back for the equality below to hold.
    let mut carved = 0usize;
    for threads in 1..=8usize {
        let dag = random_dag(&mut rng, 40);
        let nodes = dag.len() as u64;
        for (label, mut exec) in executors(&dag, threads) {
            exec.set_flight_recorder(Some(FlightConfig::default()));
            exec.set_telemetry(true);
            for cycle in 0..4u64 {
                if cycle == 2 {
                    exec.set_faults(Some(FaultPlan::storm(threads as u64)));
                }
                exec.run_cycle(&[], &[]);
                let window = exec.take_flight_window().expect("recorder on");
                assert_eq!(window.dropped_spans, 0, "{label}/{threads}t");
                let stamp = window.cycles.last().expect("cycle stamped");
                let trace = ScheduleTrace::of_cycle(&window, stamp.cycle).unwrap();
                carved += window
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Fault && s.node != Span::NO_NODE)
                    .count();
                let ring = exec.take_telemetry().expect("telemetry on");
                assert_eq!(ring.len(), 1, "{label}/{threads}t: one record per take");
                let rec = ring.latest().unwrap();
                assert_eq!(rec.workers.len(), if label == "SEQ" { 1 } else { threads });
                let t = rec.totals();

                // Every node executed exactly once; counters were drained
                // (reset) after the previous cycle, or this would be
                // (cycle+1) * nodes.
                assert_eq!(
                    t.nodes_executed, nodes,
                    "{label}/{threads}t cycle {cycle}: node count"
                );

                // Exactness: both layers timed each execution with the
                // same Instant pair.
                let trace_exec_ns: u64 = trace.executions().iter().map(|e| e.duration_ns()).sum();
                assert_eq!(
                    t.exec_ns, trace_exec_ns,
                    "{label}/{threads}t cycle {cycle}: exec_ns vs trace"
                );

                // Steal accounting is internally consistent.
                assert!(t.steal_hits <= t.steal_attempts, "{label}/{threads}t");
                assert_eq!(
                    t.steal_hits + t.steal_misses,
                    t.steal_attempts,
                    "{label}/{threads}t"
                );
                if label != "WS" {
                    assert_eq!(t.steal_attempts, 0, "{label} must not steal");
                }
                // Steal hits in the counters match Steal events in the
                // trace (both are recorded on the same successful sweep).
                let steal_events = trace
                    .events
                    .iter()
                    .filter(|e| e.kind == SpanKind::Steal)
                    .count() as u64;
                assert_eq!(t.steal_hits, steal_events, "{label}/{threads}t");

                // Unparks were counted waker-side and never exceed parks
                // plus the workers a cycle can wake at exit (wake_all at
                // cycle end is uncounted, so unpark_count can be lower).
                if label == "SEQ" || label == "BUSY" {
                    assert_eq!(t.park_count, 0, "{label} never parks");
                    assert_eq!(t.unpark_count, 0, "{label} never unparks");
                }
            }
        }
    }
    assert!(
        carved > 0,
        "the storm split no node interval: nothing checked"
    );
}

#[test]
fn ring_accumulates_one_record_per_cycle() {
    let mut rng = SmallRng::seed_from_u64(0x00C7_A9E5);
    let dag = random_dag(&mut rng, 24);
    let nodes = dag.len() as u64;
    for (label, mut exec) in executors(&dag, 3) {
        exec.set_telemetry(true);
        for _ in 0..6 {
            exec.run_cycle(&[], &[]);
        }
        let ring = exec.take_telemetry().expect("telemetry on");
        assert_eq!(ring.len(), 6, "{label}: one record per cycle");
        assert_eq!(ring.total_pushed(), 6, "{label}");
        let mut last_cycle = 0;
        for rec in ring.iter() {
            assert!(rec.cycle > last_cycle, "{label}: cycles ascend");
            last_cycle = rec.cycle;
            assert_eq!(rec.totals().nodes_executed, nodes, "{label}");
            assert!(rec.graph_ns > 0, "{label}");
            // exec time happened within the cycle wall-clock on every
            // worker (per-worker, not summed: workers run concurrently).
            for w in rec.workers.iter() {
                assert!(
                    w.exec_ns <= rec.graph_ns,
                    "{label}: worker exec {} > cycle {}",
                    w.exec_ns,
                    rec.graph_ns
                );
            }
        }
        // Taking replaced the ring with an empty one; recording continues.
        exec.run_cycle(&[], &[]);
        let next = exec.take_telemetry().expect("still on");
        assert_eq!(next.len(), 1, "{label}: fresh ring after take");
    }
}

#[test]
fn telemetry_off_records_nothing_and_costs_no_drain() {
    let mut rng = SmallRng::seed_from_u64(0xD15AB1ED);
    let dag = random_dag(&mut rng, 16);
    for (label, mut exec) in executors(&dag, 2) {
        // Off by default.
        exec.run_cycle(&[], &[]);
        assert!(exec.take_telemetry().is_none(), "{label}: off by default");
        // On, then off again: disabling drops the ring.
        exec.set_telemetry(true);
        exec.run_cycle(&[], &[]);
        exec.set_telemetry(false);
        assert!(exec.take_telemetry().is_none(), "{label}: disabled");
        // Re-enabling starts from a clean ring and zeroed counters (any
        // counts recorded while on were drained by the cycle that
        // recorded them; the first new record must cover one cycle only).
        exec.set_telemetry(true);
        exec.run_cycle(&[], &[]);
        let ring = exec.take_telemetry().expect("re-enabled");
        assert_eq!(ring.len(), 1, "{label}");
        assert_eq!(
            ring.latest().unwrap().totals().nodes_executed,
            dag.len() as u64,
            "{label}: no leakage across off/on"
        );
    }
}

#[test]
fn parallel_strategies_account_waits_when_dependencies_block() {
    // A deep chain forces waiting on every parallel strategy: with more
    // workers than ready nodes, someone always spins/parks/misses steals.
    let chain: Vec<Vec<u32>> = (0..24u32)
        .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
        .collect();
    for (label, mut exec) in executors(&chain, 4) {
        if label == "SEQ" {
            continue;
        }
        exec.set_telemetry(true);
        for _ in 0..5 {
            exec.run_cycle(&[], &[]);
        }
        let ring = exec.take_telemetry().unwrap();
        let mut totals = djstar_core::telemetry::CounterSnapshot::default();
        for rec in ring.iter() {
            totals.merge(&rec.totals());
        }
        match label {
            "BUSY" => assert!(totals.spin_iters > 0, "BUSY must spin on a chain"),
            "SLEEP" => assert!(
                totals.park_count > 0 || totals.wait_ns() > 0,
                "SLEEP must park on a chain"
            ),
            "WS" => assert!(
                totals.steal_attempts > 0,
                "WS must attempt steals on a chain"
            ),
            "HYBRID" => assert!(
                totals.spin_iters > 0 || totals.park_count > 0,
                "HYBRID must wait on a chain"
            ),
            _ => {}
        }
    }
}
