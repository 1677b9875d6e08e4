//! Cross-strategy differential test for the fault-injection layer.
//!
//! The fault schedule is a pure function of `(seed, cycle, node-or-lane)`,
//! so under one fixed plan every executor — regardless of strategy or
//! thread count — must (1) produce bit-exact audio with a fault-free run,
//! (2) record *identical* fault-event totals in telemetry, and (3) match,
//! per cycle, the injection totals the plan computes arithmetically.
//! A repeat run of the whole matrix must reproduce every number.

use djstar_core::exec::{PoolExecutor, StagedGeneration, Strategy};
use djstar_core::faults::FaultPlan;
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, FnProcessor};
use djstar_dsp::rng::SmallRng;
use djstar_dsp::AudioBuf;

const FRAMES: usize = 8;
const CYCLES: usize = 48;

/// Fault iteration counts are tiny: the test checks bookkeeping, not
/// timing, and the whole 6-strategy × 3-thread-count matrix runs twice.
fn storm() -> FaultPlan {
    FaultPlan {
        seed: 0xD1FF,
        spike_rate: 0.08,
        spike_iters: 50,
        stall_lanes: 5,
        stall_rate: 0.25,
        stall_iters: 80,
        pressure_period: 16,
        pressure_len: 6,
        pressure_iters: 30,
    }
}

/// Fixed random-ish DAG (~20 nodes) whose node values are
/// schedule-independent: node i writes `i + 1 + max(pred values)`.
fn graph() -> TaskGraph {
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    let n = 20usize;
    let mut b = TaskGraphBuilder::new();
    for i in 0..n {
        let preds: Vec<NodeId> = (0..i as u32)
            .filter(|_| rng.chance(0.25))
            .take(8)
            .map(NodeId)
            .collect();
        let val = (i + 1) as f32;
        b.add(
            format!("n{i}"),
            Section::deck(i % 4),
            Box::new(FnProcessor(
                move |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    let base = inp.iter().map(|b| b.sample(0, 0)).fold(0.0f32, f32::max);
                    out.samples_mut().fill(base + val);
                },
            )),
            &preds,
        );
    }
    b.build().unwrap()
}

/// Everything a run must reproduce: the sink's exact output bits and the
/// summed fault telemetry, broken out per class.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    sink_bits: Vec<u32>,
    spikes: u64,
    spike_iters: u64,
    stalls: u64,
    stall_iters: u64,
    pressure_iters: u64,
}

/// Run `CYCLES` cycles under `plan` and fingerprint the result. With a
/// plan installed, every telemetry record is also checked against the
/// plan's arithmetic ground truth for that exact cycle number.
fn run_one(strategy: Strategy, threads: usize, plan: Option<FaultPlan>, tag: &str) -> Fingerprint {
    let staged = StagedGeneration::round_robin(graph(), FRAMES, threads);
    let mut ex = PoolExecutor::new(strategy, staged, threads).expect("a filled generation");
    let nodes = ex.topology().len();
    let sink = NodeId(nodes as u32 - 1);
    ex.set_faults(plan);
    ex.set_telemetry(true);
    for _ in 0..CYCLES {
        ex.run_cycle(&[], &[]);
    }
    let mut out = AudioBuf::zeroed(2, FRAMES);
    ex.read_output(sink, &mut out);
    let sink_bits: Vec<u32> = out.samples().iter().map(|s| s.to_bits()).collect();

    let ring = ex.take_telemetry().expect("telemetry was enabled");
    assert_eq!(ring.len(), CYCLES, "{tag}: ring must hold every cycle");
    let mut fp = Fingerprint {
        sink_bits,
        spikes: 0,
        spike_iters: 0,
        stalls: 0,
        stall_iters: 0,
        pressure_iters: 0,
    };
    for rec in ring.iter() {
        let t = rec.totals();
        if let Some(p) = &plan {
            assert_eq!(
                t.fault_iters(),
                p.cycle_injection_iters(rec.cycle, nodes),
                "{tag}: cycle {} telemetry diverged from the plan's schedule",
                rec.cycle
            );
        }
        fp.spikes += t.fault_spikes;
        fp.spike_iters += t.fault_spike_iters;
        fp.stalls += t.fault_stalls;
        fp.stall_iters += t.fault_stall_iters;
        fp.pressure_iters += t.fault_pressure_iters;
    }
    fp
}

/// The (strategy, threads) matrix under test. Sequential ignores the
/// thread count, so it appears once.
fn matrix() -> Vec<(Strategy, usize)> {
    let mut m = vec![(Strategy::Sequential, 1)];
    for strategy in Strategy::ALL {
        if strategy == Strategy::Sequential {
            continue;
        }
        for threads in [1usize, 2, 4] {
            m.push((strategy, threads));
        }
    }
    m
}

#[test]
fn fixed_seed_storm_is_identical_across_strategies_and_thread_counts() {
    let plan = storm();
    let mut reference: Option<Fingerprint> = None;
    for (strategy, threads) in matrix() {
        let tag = format!("{strategy:?} t={threads}");
        let fp = run_one(strategy, threads, Some(plan), &tag);
        assert!(fp.spikes > 0, "{tag}: storm produced no spikes");
        assert!(fp.stalls > 0, "{tag}: storm produced no stalls");
        assert!(fp.pressure_iters > 0, "{tag}: storm produced no pressure");
        match &reference {
            None => reference = Some(fp),
            Some(want) => assert_eq!(&fp, want, "{tag} diverged from SEQ"),
        }
    }
}

#[test]
fn faulted_runs_are_bit_exact_with_fault_free_runs() {
    for (strategy, threads) in matrix() {
        let tag = format!("{strategy:?} t={threads}");
        let base = run_one(strategy, threads, None, &tag);
        let faulted = run_one(strategy, threads, Some(storm()), &tag);
        assert_eq!(
            base.sink_bits, faulted.sink_bits,
            "{tag}: fault injection leaked into the audio path"
        );
        assert_eq!(base.spikes + base.stalls, 0, "{tag}: events without a plan");
    }
}

#[test]
fn repeat_runs_reproduce_every_fingerprint() {
    // Two full passes over a reduced matrix: same seed, same numbers.
    for (strategy, threads) in [
        (Strategy::Sequential, 1),
        (Strategy::Busy, 2),
        (Strategy::Steal, 4),
        (Strategy::Planned, 3),
    ] {
        let tag = format!("{strategy:?} t={threads}");
        let a = run_one(strategy, threads, Some(storm()), &tag);
        let b = run_one(strategy, threads, Some(storm()), &tag);
        assert_eq!(a, b, "{tag}: a repeat run diverged");
    }
}

#[test]
fn clearing_the_plan_silences_injection_mid_stream() {
    let staged = StagedGeneration::new(graph(), FRAMES);
    let mut ex = PoolExecutor::new(Strategy::Busy, staged, 2).expect("a filled generation");
    ex.set_faults(Some(storm()));
    ex.set_telemetry(true);
    for _ in 0..16 {
        ex.run_cycle(&[], &[]);
    }
    ex.set_faults(None);
    for _ in 0..16 {
        ex.run_cycle(&[], &[]);
    }
    let ring = ex.take_telemetry().unwrap();
    let recs: Vec<_> = ring.iter().collect();
    let first: u64 = recs[..16].iter().map(|r| r.totals().fault_iters()).sum();
    let second: u64 = recs[16..].iter().map(|r| r.totals().fault_iters()).sum();
    assert!(first > 0, "storm phase must inject");
    assert_eq!(second, 0, "cleared plan must stop injecting immediately");
}
