//! E1 — the §III-B hotspot analysis.
//!
//! Paper (measured with the Visual Studio profiler on the original
//! sequential application, GUI included): 88 % of total run-time is the
//! APC; inside it, 33 % audio stream preprocessing, 38 % audio-graph
//! execution, 16 % timecode decoding. This binary runs the engine's scoped
//! hotspot profiler over `DJSTAR_MEASURE_CYCLES` sequential APCs, adding a
//! simulated GUI tick (DJ Star redraws waveforms etc. — the paper's
//! remaining 12 %) so the top-level split is comparable.

use djstar_bench::measure_cycles;
use djstar_core::exec::Strategy;
use djstar_engine::apc::AudioEngine;
use djstar_engine::profiling::{record_kernel_totals, HotspotProfiler};
use djstar_workload::scenario::Scenario;
use std::time::Instant;

fn main() {
    let cycles = measure_cycles();
    eprintln!("[hotspot] running {cycles} profiled sequential APCs ...");
    let mut engine = AudioEngine::new(Scenario::paper_default(), Strategy::Sequential, 1);
    engine.warmup(50);

    // Per-kernel-family accounting: drain anything warmup left behind,
    // then count every biquad/eq/mix/fft/stretch/dynamics kernel call the
    // measured cycles make.
    djstar_dsp::kprof::set_enabled(true);
    let _ = djstar_dsp::kprof::take_totals();

    let mut profiler = HotspotProfiler::new();
    for cycle in 0..cycles {
        engine.run_apc_profiled(&mut profiler);
        // Simulated GUI: DJ Star redraws at ~30 fps, i.e. roughly every
        // 11th APC; the redraw walks the waveform taps and meters.
        if cycle % 11 == 0 {
            let t0 = Instant::now();
            let mut acc = 0.0f32;
            let out = engine.output();
            for s in out.samples() {
                acc += s.abs();
            }
            acc += djstar_dsp::work::burn(800_000, acc.fract());
            std::hint::black_box(acc);
            profiler.record("gui", t0.elapsed().as_nanos() as u64);
        }
    }

    djstar_dsp::kprof::set_enabled(false);
    let mut kernels = HotspotProfiler::new();
    record_kernel_totals(&mut kernels);

    println!("# §III-B hotspot analysis ({cycles} APCs)\n");
    let apc_ns: u64 = [
        "apc/timecode",
        "apc/preprocessing",
        "apc/graph",
        "apc/various",
    ]
    .iter()
    .map(|r| profiler.total_of(r))
    .sum();
    let paper = |region: &str| match region {
        "apc/timecode" => "16 % of APC runtime",
        "apc/preprocessing" => "33 % of APC runtime",
        "apc/graph" => "38 % of APC runtime",
        "apc/various" => "(remainder)",
        "gui" => "~12 % of total",
        _ => "",
    };
    print!("{}", profiler.render_table(paper));

    // Break the phase time down by DSP kernel family (stretch runs in
    // preprocessing, every other family inside graph execution). Shares in
    // this table are relative to total *kernel* time; the gap between a
    // family sum and its phase total is scheduling + non-kernel node work.
    println!("\n## DSP kernel families inside the APC\n");
    print!(
        "{}",
        kernels.render_table(|region| match region {
            "apc/graph/biquad" => "SpFilter cascades",
            "apc/graph/eq" => "3-band EQ",
            "apc/graph/mix" => "gain / sum / crossfade",
            "apc/graph/fft" => "FFT (no deck-chain node)",
            "apc/graph/dynamics" => "limiter / compressor / clip",
            "apc/preprocessing/stretch" => "WSOLA time stretch",
            _ => "",
        })
    );

    // The same shares as a machine-readable artifact, through the same
    // JSON writer the telemetry exporters use. The per-family breakdown
    // rides along under "kernels" so before/after SIMD shares are
    // comparable across runs.
    std::fs::create_dir_all("results").ok();
    let mut doc = profiler.to_json();
    doc.push("kernels", kernels.to_json());
    let json = doc.render();
    match std::fs::write("results/hotspot.json", format!("{json}\n")) {
        Ok(()) => eprintln!("[hotspot] wrote results/hotspot.json"),
        Err(e) => eprintln!("[hotspot] cannot write results/hotspot.json: {e}"),
    }
    let total: u64 = profiler.grand_total().as_nanos() as u64;
    println!(
        "\nAPC share of total run-time: {:.1} %   (paper: 88 %)",
        apc_ns as f64 / total as f64 * 100.0
    );
    println!("\nshares *within* the APC:\n");
    for (region, paper_pct) in [
        ("apc/preprocessing", 33.0 / 88.0 * 100.0),
        ("apc/graph", 38.0 / 88.0 * 100.0),
        ("apc/timecode", 16.0 / 88.0 * 100.0),
    ] {
        println!(
            "  {region:<20} {:.1} %   (paper: {:.1} %)",
            profiler.total_of(region) as f64 / apc_ns as f64 * 100.0,
            paper_pct
        );
    }
    println!(
        "\nmean APC: {:.3} ms; TP+GP+VC: {:.3} ms (paper: ~0.8 ms); 2.9 ms budget leaves {:.3} ms for the graph (paper: 2.1 ms)",
        apc_ns as f64 / cycles as f64 / 1e6,
        (apc_ns - profiler.total_of("apc/graph")) as f64 / cycles as f64 / 1e6,
        2.9 - (apc_ns - profiler.total_of("apc/graph")) as f64 / cycles as f64 / 1e6
    );
}
