//! Per-node-class DSP kernel costs on the standard 128-frame buffer:
//! the raw material of the graph's node-duration distribution.

use djstar_bench::microbench::{bench, group};
use djstar_dsp::biquad::{
    process_chain, process_chain_fused, process_chain_scalar, process_crossover_tree, Biquad,
    FilterKind,
};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::dynamics::{Compressor, Limiter};
use djstar_dsp::effects::{EchoDelay, EffectKind, Flanger, Overdrive, Phaser};
use djstar_dsp::eq::ThreeBandEq;
use djstar_dsp::meter::goertzel_power;
use djstar_dsp::mix::{mix_into, mix_into_scalar};
use djstar_dsp::osc::NoiseSource;
use djstar_dsp::stretch::TimeStretcher;
use djstar_dsp::vmath::{sin_block, tanh_block};
use djstar_engine::timecode::TimecodeGenerator;
use djstar_workload::track::{synth_track, synth_track_reference, TrackStyle};

fn music_buf() -> AudioBuf {
    let mut noise = NoiseSource::new(17);
    AudioBuf::from_fn(2, djstar_dsp::BUFFER_FRAMES, |_, i| {
        0.4 * noise.next_sample() + 0.3 * ((i as f32) * 0.2).sin()
    })
}

fn bench_effects() {
    group("effects_128f");
    for kind in EffectKind::ALL {
        let mut fx = kind.build(djstar_dsp::SAMPLE_RATE);
        let mut buf = music_buf();
        bench(&format!("effects_128f/{kind:?}"), || fx.process(&mut buf));
    }
    // The per-frame references of the block-rate effects (bit-equal), built
    // as `EffectKind::build` builds the rows above.
    let sr = djstar_dsp::SAMPLE_RATE;
    macro_rules! reference_row {
        ($kind:ident, $fx:expr) => {
            let (mut fx, mut buf) = ($fx, music_buf());
            bench(
                concat!("effects_128f/", stringify!($kind), "/reference"),
                || fx.process_reference(&mut buf),
            );
        };
    }
    reference_row!(EchoDelay, EchoDelay::new(sr, 0.25, 0.45, 0.5));
    reference_row!(Flanger, Flanger::new(sr, 0.4, 0.7, 0.5));
    reference_row!(Phaser, Phaser::new(sr, 0.3, 4, 0.6));
    reference_row!(Overdrive, Overdrive::new(3.0, 0.7));
}

/// The libm-identical block kernels against a libm call per element, on
/// the inputs the audio path feeds them: a 256-sample Overdrive buffer
/// (drive 3 × music) and 256 LFO / carrier arguments `TAU * phase` — and
/// on what a track load feeds `sin`: 256 lead-voice arguments `w · t`
/// spread over 30 s (up to ~6·10⁴ rad, the large-argument path). Each
/// iteration restores its input first, so both rows pay the same copy.
fn bench_vmath() {
    group("vmath");
    let drive: Vec<f32> = music_buf().samples().iter().map(|s| 3.0 * s).collect();
    let args: Vec<f32> = (0..256)
        .map(|i| core::f32::consts::TAU * (i as f32 * 0.0043 % 1.0))
        .collect();
    let track_args: Vec<f32> = (0..256)
        .map(|i| core::f32::consts::TAU * 311.1 * ((i * 5_167) as f32 / 44_100.0))
        .collect();
    let mut xs = vec![0.0f32; 256];
    for (name, input, libm, block) in [
        (
            "tanh_256",
            &drive,
            f32::tanh as fn(f32) -> f32,
            tanh_block as fn(&mut [f32]),
        ),
        ("sin_256", &args, f32::sin, sin_block),
        ("sin_large_256", &track_args, f32::sin, sin_block),
    ] {
        bench(&format!("vmath/{name}/libm"), || {
            xs.copy_from_slice(input);
            for x in xs.iter_mut() {
                *x = libm(*x);
            }
            xs[0]
        });
        bench(&format!("vmath/{name}/block"), || {
            xs.copy_from_slice(input);
            block(&mut xs);
            xs[0]
        });
    }
}

/// One deck's timecode carrier for a cycle: two 128-sample quadrature
/// planes (the per-deck front's signal source).
fn bench_timecode() {
    group("timecode");
    let mut generator = TimecodeGenerator::new(djstar_dsp::SAMPLE_RATE);
    let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
    bench("timecode_generate_128f", || {
        generator.generate(1.02, &mut out)
    });
}

fn bench_filters() {
    group("filters_128f");
    let mut biquad = Biquad::design(FilterKind::Lowpass, 1_000.0, 0.7, djstar_dsp::SAMPLE_RATE);
    let mut buf = music_buf();
    bench("biquad", || biquad.process(&mut buf));
    let mut eq = ThreeBandEq::new(djstar_dsp::SAMPLE_RATE);
    eq.set_gains(3.0, -2.0, 4.0);
    bench("three_band_eq", || eq.process(&mut buf));
    let mut lim = Limiter::master(djstar_dsp::SAMPLE_RATE);
    bench("limiter", || lim.process(&mut buf));
    let other = music_buf();
    bench("buf_mix_add", || buf.mix_add(&other, 0.5));
    bench("buf_rms", || other.rms());
    let src: Vec<f32> = (0..44_100)
        .map(|i| ((i as f32) * 0.06).sin() * 0.7)
        .collect();
    let mut st = TimeStretcher::new();
    let mut out = vec![0.0f32; 512];
    bench("stretch_512", || {
        st.seek(1_000.0);
        st.process(&src, 1.3, &mut out);
        out[0]
    });
    // The search alone, on the stretcher's state after that read: the
    // offsets in lanes against one offset after another.
    let natural = 2_000;
    bench("stretch_search/lanes", || st.best_offset(&src, natural));
    bench("stretch_search/serial", || {
        st.best_offset_serial(&src, natural)
    });
    let meter_buf = music_buf();
    bench("goertzel_8_bands", || {
        let mut acc = 0.0f32;
        for f in [60.0, 150.0, 400.0, 1000.0, 2500.0, 5000.0, 10000.0, 15000.0] {
            acc += goertzel_power(meter_buf.samples(), f, djstar_dsp::SAMPLE_RATE);
        }
        acc
    });
}

fn bench_fft() {
    use djstar_dsp::fft::{fft_inplace, fft_real, Complex, Fft};
    group("fft");
    for n in [128usize, 512, 2048] {
        let signal: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.13).sin()).collect();
        bench(&format!("fft/real/{n}"), || fft_real(&signal).len());
        let template: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
        bench(&format!("fft/roundtrip/{n}"), || {
            let mut data = template.clone();
            fft_inplace(&mut data, false);
            fft_inplace(&mut data, true);
            data[0].re
        });
        let mut plan = Fft::new(n);
        let mut data = template;
        bench(&format!("fft/plan_roundtrip/{n}"), || {
            plan.process(&mut data, false);
            plan.process(&mut data, true);
            data[0].re
        });
    }
}

/// The first `sections` filters of the fourth band's `SpFilterNode`
/// chain: two sections (band 0's length), four (band 1's), six (bands 2
/// and 3); three is the `ThreeBandEq`'s length.
fn sp_chain(sections: usize) -> Vec<Biquad> {
    let sr = djstar_dsp::SAMPLE_RATE;
    let q = core::f32::consts::FRAC_1_SQRT_2;
    [200.0, 200.0, 1_200.0, 1_200.0, 5_000.0, 5_000.0]
        .iter()
        .take(sections)
        .map(|&f| Biquad::design(FilterKind::Highpass, f, q, sr))
        .collect()
}

/// Every vectorized kernel that has a scalar reference, scalar vs SIMD on
/// the same corpus — the raw per-kernel speedups (the benchmark's
/// `dsp.*_ns` rows track the SIMD side). A cascade's `lanes` row is the
/// wavefront every graph cascade runs on an AVX2 host, `fused` the
/// one-`F32x4` pass it replaces there.
fn bench_simd_pairs() {
    group("simd_vs_scalar_128f");

    for n in [2usize, 3, 4, 6] {
        let mut chain = sp_chain(n);
        let mut buf = music_buf();
        bench(&format!("biquad_chain{n}/scalar"), || {
            process_chain_scalar(&mut chain, &mut buf)
        });
        bench(&format!("biquad_chain{n}/fused"), || {
            process_chain_fused(&mut chain, &mut buf)
        });
        bench(&format!("biquad_chain{n}/lanes"), || {
            process_chain(&mut chain, &mut buf)
        });
    }

    let mut eq = ThreeBandEq::new(djstar_dsp::SAMPLE_RATE);
    eq.set_gains(3.0, -2.0, 4.0);
    let mut buf = music_buf();
    bench("three_band_eq/scalar", || eq.process_scalar(&mut buf));
    bench("three_band_eq/simd", || eq.process(&mut buf));

    // The summing node's sizes: one to five inputs (the graph's widest
    // sum), plus eight.
    let inputs: Vec<AudioBuf> = (0..8).map(|_| music_buf()).collect();
    let gains = [0.5f32; 8];
    let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
    for n in [1usize, 2, 3, 4, 5, 8] {
        let refs: Vec<&AudioBuf> = inputs[..n].iter().collect();
        bench(&format!("mix_into_{n}/scalar"), || {
            mix_into_scalar(&mut out, &refs, &gains[..n])
        });
        bench(&format!("mix_into_{n}/simd"), || {
            mix_into(&mut out, &refs, &gains[..n])
        });
    }

    let mut comp = Compressor::new(0.3, 4.0, 10.0, djstar_dsp::SAMPLE_RATE);
    let mut buf = music_buf();
    bench("compressor/scalar", || comp.process_scalar(&mut buf));
    bench("compressor/simd", || comp.process(&mut buf));
}

/// One deck's four SP bands as the SP nodes build them: the LR4 split
/// tree's branches at 200, 1 200 and 5 000 Hz (2, 4, 6 and 6 sections).
fn sp_bands() -> [Vec<Biquad>; 4] {
    let sr = djstar_dsp::SAMPLE_RATE;
    let q = core::f32::consts::FRAC_1_SQRT_2;
    let pair = |kind, f| [0; 2].map(|_| Biquad::design(kind, f, q, sr));
    let [lp1, hp1] = [FilterKind::Lowpass, FilterKind::Highpass].map(|k| pair(k, 200.0));
    let [lp2, hp2] = [FilterKind::Lowpass, FilterKind::Highpass].map(|k| pair(k, 1_200.0));
    let [lp3, hp3] = [FilterKind::Lowpass, FilterKind::Highpass].map(|k| pair(k, 5_000.0));
    [
        lp1.to_vec(),
        [&hp1[..], &lp2].concat(),
        [&hp1[..], &hp2, &lp3].concat(),
        [&hp1[..], &hp2, &hp3].concat(),
    ]
}

/// A deck's SP filterbank on one 128-frame buffer: each band copying the
/// deck audio and running its own chain (what BUSY, SLEEP, WS and PLAN
/// run), against the shared LR4 tree SEQ's sibling batch runs (bit-equal).
fn bench_sp_crossover() {
    group("sp_crossover_128f");
    let src = music_buf();
    let mut outs: [AudioBuf; 4] = std::array::from_fn(|_| music_buf());
    let mut bands = sp_bands();
    bench("sp_crossover/per_band", || {
        for (chain, out) in bands.iter_mut().zip(&mut outs) {
            out.copy_from(&src);
            process_chain(chain, out);
        }
    });
    let mut bands = sp_bands();
    bench("sp_crossover/tree", || {
        process_crossover_tree(
            bands.each_mut().map(Vec::as_mut_slice),
            &src,
            outs.each_mut(),
        )
    });
}

/// A 30-s deck track, per-sample reference vs the run-based vector path
/// every engine loads through (bit-equal; four of these per set), for the
/// three styles of the `paper_default` decks.
fn bench_track_synth() {
    group("track_synth_30s");
    for (style, seed, bpm) in [
        (TrackStyle::House, 11, 126.0),
        (TrackStyle::Breakbeat, 22, 132.0),
        (TrackStyle::Ambient, 44, 128.0),
    ] {
        bench(&format!("track_synth/{style:?}/reference"), || {
            synth_track_reference(seed, bpm, 30.0, style)
        });
        bench(&format!("track_synth/{style:?}/fast"), || {
            synth_track(seed, bpm, 30.0, style)
        });
    }
}

fn bench_burn() {
    group("burn_kernel");
    for iters in [1_000u32, 16_000] {
        bench(&format!("burn_kernel/{iters}"), || {
            djstar_dsp::work::burn(iters, 0.4)
        });
    }
}

fn main() {
    bench_effects();
    bench_filters();
    bench_fft();
    bench_simd_pairs();
    bench_sp_crossover();
    bench_vmath();
    bench_timecode();
    bench_track_synth();
    bench_burn();
}
