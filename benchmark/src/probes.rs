//! Layer probes beside the traced rounds. Each runs once, in the traced pass
//! of the workload it explains: direct kernel calls on `dsp_seq`, the
//! strategy sweep and the simulator on `paper_busy`, the light-scenario
//! scheduling overhead on `light_plan`, the solo sessions on `venue_pair`
//! (`modewalk_plan`'s control plane is `passes::control_plane`).

use crate::affinity::spawn_workers_off_driver;
use crate::metrics::{strategy_key, Report, PARALLEL};
use crate::passes::{scaled_count, Traced};
use crate::rig::{scenario, Rig, Workload};
use crate::stats::{median, p50, p99};
use djstar_core::deque::WorkDeque;
use djstar_core::exec::Strategy;
use djstar_dsp::biquad::{process_chain, Biquad, FilterKind};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::dynamics::{Compressor, Limiter};
use djstar_dsp::eq::ThreeBandEq;
use djstar_dsp::fft::{Complex, Fft};
use djstar_dsp::mix::mix_into;
use djstar_dsp::osc::NoiseSource;
use djstar_dsp::stretch::TimeStretcher;
use djstar_dsp::work::burn;
use djstar_dsp::{BUFFER_FRAMES, SAMPLE_RATE};
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::timecode::{TimecodeDecoder, TimecodeGenerator};
use djstar_sim::list::{list_schedule_with, Priority};
use djstar_sim::strategy::simulate_makespans;
use djstar_sim::{
    compile_blueprint, session_bound_ns, simulate_plan_makespans, DurationModel, OverheadModel,
    SimGraph, SimStrategy,
};
use djstar_workload::profile::WorkProfile;
use djstar_workload::scenario::Scenario;
use djstar_workload::track::{synth_track, TrackStyle};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `f` over `samples` timed batches of
/// `batch` calls on `state`; `reset` runs untimed before each batch.
fn time_ns<S>(
    samples: usize,
    batch: usize,
    state: &mut S,
    reset: impl Fn(&mut S),
    f: impl Fn(&mut S),
) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            reset(state);
            let t0 = Instant::now();
            for _ in 0..batch {
                f(black_box(state));
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Time a call that needs no state restored between batches.
fn time_call_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    time_ns(samples, batch, &mut f, |_| {}, |f| f())
}

fn music_buf() -> AudioBuf {
    let mut noise = NoiseSource::new(17);
    AudioBuf::from_fn(2, BUFFER_FRAMES, |_, i| {
        0.4 * noise.next_sample() + 0.3 * ((i as f32) * 0.2).sin()
    })
}

/// The DSP kernels the graph nodes are made of, called directly on one
/// 128-frame stereo buffer. Each batch starts from the same input so a
/// filter cannot decay its buffer into denormals over thousands of calls.
fn dsp_kernels(report: &mut Report) {
    const SAMPLES: usize = 500;
    const BATCH: usize = 4; // 2 000 calls per kernel
    let template = music_buf();
    let refill = |buf: &mut AudioBuf| buf.copy_from(&template);

    let chain = vec![
        Biquad::design(FilterKind::Highpass, 30.0, 0.7, SAMPLE_RATE),
        Biquad::design(
            FilterKind::Peaking { gain_db: 2.0 },
            120.0,
            1.1,
            SAMPLE_RATE,
        ),
        Biquad::design(
            FilterKind::Peaking { gain_db: -3.0 },
            800.0,
            0.9,
            SAMPLE_RATE,
        ),
        Biquad::design(
            FilterKind::Peaking { gain_db: 1.5 },
            2_500.0,
            1.3,
            SAMPLE_RATE,
        ),
        Biquad::design(
            FilterKind::HighShelf { gain_db: -1.0 },
            8_000.0,
            0.7,
            SAMPLE_RATE,
        ),
        Biquad::design(FilterKind::Lowpass, 16_000.0, 0.7, SAMPLE_RATE),
    ];
    let ns = time_ns(
        SAMPLES,
        BATCH,
        &mut (chain, music_buf()),
        |s| refill(&mut s.1),
        |s| process_chain(&mut s.0, &mut s.1),
    );
    report.set("dsp.biquad_chain6_ns", ns);

    let mut eq = ThreeBandEq::new(SAMPLE_RATE);
    eq.set_gains(3.0, -2.0, 4.0);
    let ns = time_ns(
        SAMPLES,
        BATCH,
        &mut (eq, music_buf()),
        |s| refill(&mut s.1),
        |s| s.0.process(&mut s.1),
    );
    report.set("dsp.eq3_ns", ns);

    let inputs: Vec<AudioBuf> = (0..8).map(|_| music_buf()).collect();
    let refs: Vec<&AudioBuf> = inputs.iter().collect();
    let gains = [0.5f32; 8];
    let mut out = AudioBuf::zeroed(2, BUFFER_FRAMES);
    let ns = time_call_ns(SAMPLES, BATCH, || {
        mix_into(black_box(&mut out), &refs, &gains)
    });
    report.set("dsp.mix_into8_ns", ns);

    let ns = time_ns(
        SAMPLES,
        BATCH,
        &mut (Limiter::master(SAMPLE_RATE), music_buf()),
        |s| refill(&mut s.1),
        |s| s.0.process(&mut s.1),
    );
    report.set("dsp.limiter_ns", ns);

    let ns = time_ns(
        SAMPLES,
        BATCH,
        &mut (Compressor::new(0.3, 4.0, 10.0, SAMPLE_RATE), music_buf()),
        |s| refill(&mut s.1),
        |s| {
            black_box(s.0.process(&mut s.1));
        },
    );
    report.set("dsp.compressor_ns", ns);

    // Forward + inverse per call, so the data stays bounded.
    let mut plan = Fft::new(128);
    let mut data: Vec<Complex> = (0..128)
        .map(|i| Complex::new(((i as f32) * 0.13).sin(), 0.0))
        .collect();
    let ns = time_call_ns(SAMPLES, BATCH, || {
        plan.process(black_box(&mut data), false);
        plan.process(black_box(&mut data), true);
    });
    report.set("dsp.fft128_ns", ns);

    let src: Vec<f32> = (0..44_100)
        .map(|i| ((i as f32) * 0.06).sin() * 0.7)
        .collect();
    let mut stretcher = TimeStretcher::new();
    let mut out = vec![0.0f32; 512];
    let ns = time_call_ns(SAMPLES, BATCH, || {
        stretcher.seek(1_000.0);
        stretcher.process(&src, 1.3, black_box(&mut out));
    });
    report.set("dsp.stretch512_ns", ns);

    const BURN_ITERS: u32 = 16_000; // one paper-scale effect node
    let ns = time_call_ns(SAMPLES, 1, || {
        black_box(burn(black_box(BURN_ITERS), 0.4));
    });
    report.set("dsp.burn_ns_per_iter", ns / f64::from(BURN_ITERS));
}

fn timecode(report: &mut Report) {
    let generator = TimecodeGenerator::new(SAMPLE_RATE);
    let decoder = TimecodeDecoder::new(SAMPLE_RATE);
    let buf = AudioBuf::zeroed(2, BUFFER_FRAMES);
    let ns = time_ns(
        2_000,
        1,
        &mut (generator, decoder, buf),
        |s| s.0.generate(1.0, &mut s.2),
        |s| {
            black_box(s.1.decode(&s.2));
        },
    );
    report.set("engine.timecode_decode_ns", ns);
}

fn synth(report: &mut Report) {
    let ns = time_call_ns(5, 1, || {
        black_box(synth_track(black_box(11), 126.0, 30.0, TrackStyle::House));
    });
    report.set("workload.synth_track_ms", ns / 1e6);
}

fn deque(report: &mut Report) {
    let deque = WorkDeque::new(1024);
    let ns = time_call_ns(2_000, 64, || {
        let _ = deque.push(black_box(1));
        black_box(deque.pop());
    });
    report.set("core.deque_push_pop_ns", ns);
}

/// The paper scenario on tracks short enough that eleven sweep engines cost
/// tens of milliseconds to build, not seconds. The tracks loop; the sweep
/// runs well inside one loop.
fn sweep_scenario(seed: u64, work: WorkProfile) -> Scenario {
    let mut s = scenario(seed, work);
    s.track_secs = 6.0;
    s
}

/// Graph wall time of every strategy at 1 and 2 threads on the paper
/// scenario, cells interleaved block by block so all of them sample the
/// same host epochs. Returns the measured BUSY and PLAN 2-thread medians
/// (ns) for the simulator comparison.
fn strategy_sweep(seed: u64, scale: f64, report: &mut Report) -> (f64, f64) {
    const BLOCKS: usize = 5;
    let block = scaled_count(120, scale, 20);
    let paper = sweep_scenario(seed, WorkProfile::paper_scale());
    let mut cells: Vec<(String, AudioEngine, Vec<f64>)> = Vec::new();
    let mut add = |strategy: Strategy, threads: usize| {
        let mut e = spawn_workers_off_driver(threads, || {
            AudioEngine::with_aux(paper.clone(), strategy, threads, AuxWork::light())
        });
        e.warmup(20);
        let name = format!("core.graph_p50_us.{}.t{threads}", strategy_key(strategy));
        cells.push((name, e, Vec::new()));
    };
    add(Strategy::Sequential, 1);
    for s in PARALLEL {
        add(s, 1);
        add(s, 2);
    }
    let mut steal = (0u64, 0u64);
    for _ in 0..BLOCKS {
        for (name, engine, samples) in cells.iter_mut() {
            // Counters on for the work-stealing cell only: its steal
            // outcomes are the one ratio the sweep reports.
            let ws = name.ends_with(".ws.t2");
            engine.set_telemetry(ws);
            for d in engine.graph_times(block) {
                samples.push(d.as_nanos() as f64 / 1e3);
            }
            if let Some(ring) = engine.take_telemetry() {
                for record in ring.iter() {
                    let t = record.totals();
                    steal.0 += t.steal_hits;
                    steal.1 += t.steal_attempts;
                }
            }
            engine.set_telemetry(false);
        }
    }
    let mut busy_plan = (0.0, 0.0);
    for (name, _, samples) in &cells {
        let mid = p50(samples);
        report.set(name, mid);
        if name.ends_with(".busy.t2") {
            busy_plan.0 = mid * 1e3;
        } else if name.ends_with(".plan.t2") {
            busy_plan.1 = mid * 1e3;
        }
    }
    report.set(
        "core.steal_hit_ratio",
        steal.0 as f64 / (steal.1 as f64).max(1.0),
    );
    busy_plan
}

/// Scheduling overhead (graph window x 2 lanes - node execution) of the
/// parallel strategies at 2 threads on the light scenario, where nodes take
/// about a microsecond and the overhead is most of the graph.
fn light_overhead(seed: u64, scale: f64, report: &mut Report) {
    let light = sweep_scenario(seed, WorkProfile::light());
    let cycles = scaled_count(2_400, scale, 100);
    for s in PARALLEL {
        let mut e = spawn_workers_off_driver(2, || {
            AudioEngine::with_aux(light.clone(), s, 2, AuxWork::light())
        });
        e.warmup(20);
        e.set_telemetry(true);
        let window_ns: u64 = e
            .graph_times(cycles)
            .iter()
            .map(|d| d.as_nanos() as u64)
            .sum();
        let exec_ns: u64 = e.take_telemetry().map_or(0, |ring| {
            ring.iter().map(|record| record.totals().exec_ns).sum()
        });
        report.set(
            &format!("core.sched_overhead_us.{}", strategy_key(s)),
            (2.0 * window_ns as f64 - exec_ns as f64) / cycles as f64 / 1e3,
        );
    }
}

/// Simulator call times on the paper graph, and the paper's Fig. 12 as a
/// tracked number: per-node durations traced on a sequential engine drive
/// the simulator at 2 threads, and the prediction is set beside the graph
/// time the sweep measured on 2 real threads.
fn simulator(seed: u64, scale: f64, measured_ns: (f64, f64), report: &mut Report) {
    let cycles = scaled_count(450, scale, 30);
    let mut probe = AudioEngine::with_aux(
        sweep_scenario(seed, WorkProfile::paper_scale()),
        Strategy::Sequential,
        1,
        AuxWork::light(),
    );
    probe.warmup(20);
    let durations = DurationModel::Empirical(probe.measured_node_durations(cycles));
    let graph = SimGraph::from_topology(probe.executor_mut().topology());
    let means = durations.means(graph.len());

    let ns = time_call_ns(200, 1, || {
        black_box(list_schedule_with(
            &graph,
            &means,
            0,
            2,
            Priority::QueueOrder,
        ));
    });
    report.set("sim.list_schedule_us", ns / 1e3);
    let schedule = list_schedule_with(&graph, &means, 0, 2, Priority::QueueOrder);
    let ns = time_call_ns(200, 1, || {
        black_box(compile_blueprint(&graph, &schedule).is_ok());
    });
    report.set("sim.compile_blueprint_us", ns / 1e3);
    let ns = time_call_ns(200, 1, || {
        black_box(session_bound_ns(&graph, &means, 2, 0));
    });
    report.set("sim.session_bound_us", ns / 1e3);

    let overhead = OverheadModel::default_host();
    let to_us = |v: Vec<u64>| -> Vec<f64> { v.iter().map(|&ns| ns as f64 / 1e3).collect() };
    let busy = p50(&to_us(simulate_makespans(
        &graph,
        &durations,
        2,
        SimStrategy::Busy,
        &overhead,
        cycles,
    )));
    let plan = compile_blueprint(&graph, &schedule).map_or(f64::NAN, |blueprint| {
        p50(&to_us(simulate_plan_makespans(
            &graph, &durations, &blueprint, &overhead, cycles,
        )))
    });
    for (key, predicted, measured) in [
        ("busy", busy, measured_ns.0 / 1e3),
        ("plan", plan, measured_ns.1 / 1e3),
    ] {
        report.set(&format!("sim.pred_graph_us.{key}"), predicted);
        report.set(
            &format!("sim.pred_err_pct.{key}"),
            ((predicted - measured) / measured * 100.0).abs(),
        );
    }
}

/// The venue's batch (untraced rounds of the traced pass) against its two
/// sessions run solo, and the bound admission summed for them against the
/// tail the admitted pair then measured.
fn venue(
    (admit_ns, refusals, bound_ns): (u64, u64, u64),
    traced: &Traced,
    seed: u64,
    scale: f64,
    report: &mut Report,
) {
    let cycles = scaled_count(1_200, scale, 60);
    let mut solo_sum = 0.0;
    for mut e in Rig::solo_engines(Workload::VenuePair, seed) {
        let solo: Vec<f64> = (0..cycles)
            .map(|_| e.run_apc().total().as_nanos() as f64 / 1e3)
            .collect();
        solo_sum += p50(&solo);
    }
    report.set(
        "engine.venue_batch_vs_solo",
        p50(&traced.plain_us) / solo_sum,
    );
    // Per session: the rig admitted two.
    report.set("engine.admit_ms", admit_ns as f64 / 1e6 / 2.0);
    report.set("engine.admit_refusals", refusals as f64);
    let bound_us = bound_ns as f64 / 1e3;
    report.set(
        "sim.bound_slack_pct",
        (bound_us - p99(&traced.plain_us)) / bound_us * 100.0,
    );
}

/// Run the probes that belong to `workload`'s traced pass.
pub fn run(
    workload: Workload,
    rig: Rig,
    traced: &Traced,
    seed: u64,
    scale: f64,
    report: &mut Report,
) {
    let admission = (rig.admit_ns, rig.admit_refusals, rig.venue_bound_ns());
    // The probes build engines of their own: free this rig's threads first.
    drop(rig);
    match workload {
        Workload::PaperBusy => {
            deque(report);
            let measured = strategy_sweep(seed, scale, report);
            simulator(seed, scale, measured, report);
        }
        Workload::DspSeq => {
            dsp_kernels(report);
            timecode(report);
            synth(report);
        }
        Workload::LightPlan => light_overhead(seed, scale, report),
        Workload::ModewalkPlan => {}
        Workload::VenuePair => venue(admission, traced, seed, scale, report),
    }
}
