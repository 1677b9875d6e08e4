//! E1 — the §III-B hotspot analysis.
//!
//! Paper (measured with the Visual Studio profiler on the original
//! sequential application, GUI included): 88 % of total run-time is the
//! APC; inside it, 33 % audio stream preprocessing, 38 % audio-graph
//! execution, 16 % timecode decoding. This binary sums the engine's own
//! per-phase [`ApcTiming`](djstar_engine::ApcTiming) over
//! `DJSTAR_MEASURE_CYCLES` sequential APCs, adding a simulated GUI tick
//! (DJ Star redraws waveforms etc. — the paper's remaining 12 %) so the
//! top-level split is comparable.

use djstar_bench::measure_cycles;
use djstar_core::exec::Strategy;
use djstar_dsp::kprof::{self, Family};
use djstar_engine::apc::AudioEngine;
use djstar_stats::Json;
use djstar_workload::scenario::Scenario;
use std::time::Instant;

/// A share table: `(region, ns)` rows, largest first (ties by name).
struct Shares {
    rows: Vec<(String, u64)>,
    total: u64,
}

impl Shares {
    fn new(mut rows: Vec<(String, u64)>) -> Self {
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = rows.iter().map(|r| r.1).sum();
        Shares { rows, total }
    }

    fn share(&self, ns: u64) -> f64 {
        ns as f64 / self.total.max(1) as f64
    }

    /// A markdown table; `annotate` fills the right-hand column.
    fn table(&self, annotate: impl Fn(&str) -> &'static str) -> String {
        let mut out = String::from("| region | total ms | share | paper |\n|---|---|---|---|\n");
        for (region, ns) in &self.rows {
            out += &format!(
                "| {region} | {:.1} | {:.1} % | {} |\n",
                *ns as f64 / 1e6,
                self.share(*ns) * 100.0,
                annotate(region)
            );
        }
        out
    }

    /// `{grand_total_ns, regions: [{region, total_ns, share}]}`.
    fn json(&self) -> Json {
        let rows = self.rows.iter().map(|(region, ns)| {
            Json::object([
                ("region", Json::from(region.as_str())),
                ("total_ns", Json::from(*ns)),
                ("share", Json::from(self.share(*ns))),
            ])
        });
        Json::object([
            ("grand_total_ns", Json::from(self.total)),
            ("regions", Json::Array(rows.collect())),
        ])
    }
}

fn main() {
    let cycles = measure_cycles();
    eprintln!("[hotspot] running {cycles} sequential APCs ...");
    let mut engine = AudioEngine::new(Scenario::paper_default(), Strategy::Sequential, 1);
    engine.warmup(50);

    // Per-kernel-family accounting: drain anything warmup left behind,
    // then count every biquad/eq/mix/fft/stretch/dynamics kernel call the
    // measured cycles make.
    kprof::set_enabled(true);
    let _ = kprof::take_totals();

    let (mut tp, mut gp, mut graph, mut vc, mut gui) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for cycle in 0..cycles {
        let t = engine.run_apc();
        tp += t.tp.as_nanos() as u64;
        gp += t.gp.as_nanos() as u64;
        graph += t.graph.as_nanos() as u64;
        vc += t.vc.as_nanos() as u64;
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
            gui += t0.elapsed().as_nanos() as u64;
        }
    }

    kprof::set_enabled(false);
    // Stretch runs in preprocessing, every other family inside graph
    // execution; families with no recorded time get no row.
    let kernels = Family::ALL.into_iter().zip(kprof::take_totals());
    let kernels = Shares::new(
        kernels
            .filter(|&(_, ns)| ns > 0)
            .map(|(family, ns)| {
                let phase = if family == Family::Stretch {
                    "preprocessing"
                } else {
                    "graph"
                };
                (format!("apc/{phase}/{}", family.label()), ns)
            })
            .collect(),
    );
    let phases = Shares::new(
        [
            ("apc/timecode", tp),
            ("apc/preprocessing", gp),
            ("apc/graph", graph),
            ("apc/various", vc),
            ("gui", gui),
        ]
        .map(|(region, ns)| (region.to_string(), ns))
        .to_vec(),
    );

    println!("# §III-B hotspot analysis ({cycles} APCs)\n");
    let apc_ns = tp + gp + graph + vc;
    let paper = |region: &str| match region {
        "apc/timecode" => "16 % of APC runtime",
        "apc/preprocessing" => "33 % of APC runtime",
        "apc/graph" => "38 % of APC runtime",
        "apc/various" => "(remainder)",
        "gui" => "~12 % of total",
        _ => "",
    };
    print!("{}", phases.table(paper));

    // Break the phase time down by DSP kernel family. Shares in this table
    // are relative to total *kernel* time; the gap between a family sum
    // and its phase total is scheduling + non-kernel node work.
    println!("\n## DSP kernel families inside the APC\n");
    print!(
        "{}",
        kernels.table(|region| match region {
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
    let mut doc = phases.json();
    doc.push("kernels", kernels.json());
    let json = doc.render();
    match std::fs::write("results/hotspot.json", format!("{json}\n")) {
        Ok(()) => eprintln!("[hotspot] wrote results/hotspot.json"),
        Err(e) => eprintln!("[hotspot] cannot write results/hotspot.json: {e}"),
    }
    println!(
        "\nAPC share of total run-time: {:.1} %   (paper: 88 %)",
        apc_ns as f64 / phases.total as f64 * 100.0
    );
    println!("\nshares *within* the APC:\n");
    for (region, ns, paper_pct) in [
        ("apc/preprocessing", gp, 33.0 / 88.0 * 100.0),
        ("apc/graph", graph, 38.0 / 88.0 * 100.0),
        ("apc/timecode", tp, 16.0 / 88.0 * 100.0),
    ] {
        println!(
            "  {region:<20} {:.1} %   (paper: {:.1} %)",
            ns as f64 / apc_ns as f64 * 100.0,
            paper_pct
        );
    }
    let serial_ms = (apc_ns - graph) as f64 / cycles as f64 / 1e6;
    println!(
        "\nmean APC: {:.3} ms; TP+GP+VC: {:.3} ms (paper: ~0.8 ms); 2.9 ms budget leaves {:.3} ms for the graph (paper: 2.1 ms)",
        apc_ns as f64 / cycles as f64 / 1e6,
        serial_ms,
        2.9 - serial_ms
    );
}
