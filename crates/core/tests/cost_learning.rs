//! Learned node costs survive a host stall. A session prices each node at
//! the p50 of the times its lanes folded into the node's histogram over a
//! learning window, so one pre-emption of a node — here a ≥ 10 ms fault
//! spike in one of twelve recorded cycles — moves one sample and not the
//! price. The mean of the same twelve samples, which the engine's probe
//! twin used to price nodes with, moves by far more: one stall doubled the
//! probed admission bound (benchmark README, departure 9).
//!
//! The stalled node sleeps rather than computes: on a shared 2-vCPU host a
//! computing node's time jumps between speed regimes (≈ 1.6 ×) every few
//! milliseconds, so two runs' p50s of a computing node differ by whatever
//! regime their medians fall in. A sleep's length does not depend on the
//! CPU's speed.

use djstar_core::exec::{PoolExecutor, StagedGeneration, Strategy};
use djstar_core::faults::FaultPlan;
use djstar_core::flight::FlightConfig;
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, FnProcessor};
use djstar_core::telemetry::CycleCounters;
use djstar_core::trace::ScheduleTrace;
use djstar_dsp::work::burn;
use djstar_dsp::AudioBuf;
use std::time::{Duration, Instant};

/// Cycles skipped before the window, and cycles it records — the engine's
/// learning window, cycles 5 ..= 16.
const SKIP: u64 = 4;
const RECORD: u64 = 12;

/// The node under test: `tape` sleeps 2 ms a cycle; `mix` sums it with a
/// cheap source.
fn graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let tape = b.add(
        "tape",
        Section::DeckA,
        Box::new(FnProcessor(
            |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                std::thread::sleep(Duration::from_millis(2));
                out.samples_mut().fill(0.5);
            },
        )),
        &[],
    );
    let click = b.add(
        "click",
        Section::DeckB,
        Box::new(FnProcessor(
            |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                out.samples_mut().fill(0.25);
            },
        )),
        &[],
    );
    b.add(
        "mix",
        Section::Master,
        Box::new(FnProcessor(
            |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                out.clear();
                for i in inp {
                    out.mix_add(i, 1.0);
                }
            },
        )),
        &[tape, click],
    );
    b.build().expect("a valid graph")
}

/// A seed whose spike draws, at `rate`, fire exactly once over the cycles
/// run and the nodes of `nodes`: on `target`, in the window's last cycle.
/// Drawn with one-iteration spikes, which cost nothing to fire.
fn seed_spiking_only(nodes: u32, target: u32, rate: f64) -> u64 {
    let counters = CycleCounters::new();
    (0..1_000_000u64)
        .find(|&seed| {
            let plan = FaultPlan {
                spike_rate: rate,
                spike_iters: 1,
                ..FaultPlan::quiet(seed)
            };
            let mut fired = (1..=SKIP + RECORD)
                .flat_map(|c| (0..nodes).map(move |n| (c, n)))
                .filter(|&(c, n)| plan.inject_node(c, n, &counters) > 0);
            matches!(
                (fired.next(), fired.next()),
                (Some((c, n)), None) if n == target && c == SKIP + RECORD
            )
        })
        .expect("a seed spikes exactly one node-cycle")
}

/// `burn` iterations that take at least `at_least` on this host.
fn burn_iters_lasting(at_least: Duration) -> u32 {
    let fastest = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(burn(1_000_000, 0.3));
            t0.elapsed()
        })
        .min()
        .expect("three runs");
    let ns_per_iter = fastest.as_nanos() as f64 / 1e6;
    (at_least.as_nanos() as f64 / ns_per_iter).ceil() as u32
}

/// Node `node`'s samples of the recorded window, from the flight recorder.
fn window_samples(ex: &mut PoolExecutor, node: u32) -> Vec<u64> {
    let window = ex.take_flight_window().expect("recorder installed");
    assert_eq!(window.dropped_spans, 0);
    (SKIP + 1..=SKIP + RECORD)
        .map(|c| {
            let trace = ScheduleTrace::of_cycle(&window, c).expect("cycle in window");
            let exec = trace.executions().into_iter().find(|s| s.node == node);
            exec.expect("the node ran").duration_ns()
        })
        .collect()
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

#[test]
fn a_stall_in_the_window_moves_the_mean_but_not_the_learned_p50() {
    let seq = || PoolExecutor::new(Strategy::Sequential, StagedGeneration::new(graph(), 8), 1);
    let mut clean = seq().expect("a filled generation");
    let mut stalled = seq().expect("a filled generation");
    let tape = NodeId(0);
    assert_eq!(clean.topology().name(tape), "tape");
    let nodes = clean.topology().len() as u32;
    let rate = 1.0 / 100.0;
    let seed = seed_spiking_only(nodes, tape.0, rate);
    // 2.5 times the 10 ms the test needs: the kernel's speed is measured
    // once, and this host's speed regimes differ by up to 1.6 times.
    stalled.set_faults(Some(FaultPlan {
        spike_rate: rate,
        spike_iters: burn_iters_lasting(Duration::from_millis(25)),
        ..FaultPlan::quiet(seed)
    }));
    // Lockstep, so both sessions see the same host.
    for ex in [&mut clean, &mut stalled] {
        ex.set_flight_recorder(Some(FlightConfig::default()));
    }
    for cycle in 1..=SKIP + RECORD {
        for ex in [&mut clean, &mut stalled] {
            if cycle == SKIP + 1 {
                ex.set_learning(true);
            }
            ex.run_cycle(&[], &[]);
        }
    }
    let (c, s) = (
        window_samples(&mut clean, tape.0),
        window_samples(&mut stalled, tape.0),
    );
    assert!(
        s[..RECORD as usize - 1].iter().all(|&ns| ns < 10_000_000)
            && s[RECORD as usize - 1] >= 10_000_000,
        "the stall did not land in the window's last cycle alone: {s:?}"
    );
    let learned = |ex: &mut PoolExecutor| {
        ex.learned_quantiles(0.5)[tape.idx()].expect("tape was recorded") as f64
    };
    let (lc, ls) = (learned(&mut clean), learned(&mut stalled));
    let (mc, ms) = (mean(&c), mean(&s));
    eprintln!("tape: learned p50 clean {lc} ns, stalled {ls} ns; window mean {mc} / {ms} ns");
    assert!(
        (ls - lc).abs() <= 0.10 * lc,
        "learned p50 moved: clean {lc} ns, stalled {ls} ns (samples {c:?} / {s:?})"
    );
    assert!(
        (ms - mc).abs() > 0.10 * mc,
        "the old per-node mean would have held: clean {mc} ns, stalled {ms} ns"
    );
}
