//! Per-node-class DSP kernel costs on the standard 128-frame buffer:
//! the raw material of the graph's node-duration distribution.

use djstar_bench::microbench::{bench, group};
use djstar_dsp::biquad::{process_chain, process_chain_scalar, Biquad, FilterKind};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::dynamics::{Compressor, Limiter};
use djstar_dsp::effects::{EchoDelay, EffectKind, Flanger, Overdrive, Phaser};
use djstar_dsp::eq::ThreeBandEq;
use djstar_dsp::meter::goertzel_power;
use djstar_dsp::mix::{mix_into, mix_into_scalar};
use djstar_dsp::osc::NoiseSource;
use djstar_dsp::simd;
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
    use djstar_dsp::fft::{fft_inplace, fft_real, Complex};
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
    }
}

/// A six-section cascade shaped like `SpFilterNode`'s chain.
fn spfilter_chain() -> Vec<Biquad> {
    let sr = djstar_dsp::SAMPLE_RATE;
    vec![
        Biquad::design(FilterKind::Highpass, 30.0, 0.7, sr),
        Biquad::design(FilterKind::Peaking { gain_db: 2.0 }, 120.0, 1.1, sr),
        Biquad::design(FilterKind::Peaking { gain_db: -3.0 }, 800.0, 0.9, sr),
        Biquad::design(FilterKind::Peaking { gain_db: 1.5 }, 2_500.0, 1.3, sr),
        Biquad::design(FilterKind::HighShelf { gain_db: -1.0 }, 8_000.0, 0.7, sr),
        Biquad::design(FilterKind::Lowpass, 16_000.0, 0.7, sr),
    ]
}

/// Every vectorized kernel, scalar vs SIMD on the same corpus — the raw
/// per-kernel speedups (the benchmark's `dsp.*_ns` rows track the SIMD side).
fn bench_simd_pairs() {
    group("simd_vs_scalar_128f");

    let mut chain = spfilter_chain();
    let mut buf = music_buf();
    bench("biquad_chain6/scalar", || {
        process_chain_scalar(&mut chain, &mut buf)
    });
    bench("biquad_chain6/simd", || process_chain(&mut chain, &mut buf));

    let mut eq = ThreeBandEq::new(djstar_dsp::SAMPLE_RATE);
    eq.set_gains(3.0, -2.0, 4.0);
    let mut buf = music_buf();
    bench("three_band_eq/scalar", || eq.process_scalar(&mut buf));
    bench("three_band_eq/simd", || eq.process(&mut buf));

    let inputs: Vec<AudioBuf> = (0..8).map(|_| music_buf()).collect();
    let refs: Vec<&AudioBuf> = inputs.iter().collect();
    let gains = [0.5f32; 8];
    let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
    bench("mix_into_8/scalar", || {
        mix_into_scalar(&mut out, &refs, &gains)
    });
    bench("mix_into_8/simd", || mix_into(&mut out, &refs, &gains));

    let mut comp = Compressor::new(0.3, 4.0, 10.0, djstar_dsp::SAMPLE_RATE);
    let mut buf = music_buf();
    bench("compressor/scalar", || comp.process_scalar(&mut buf));
    bench("compressor/simd", || comp.process(&mut buf));

    use djstar_dsp::fft::{Complex, Fft};
    for n in [128usize, 1024] {
        let mut plan = Fft::new(n);
        let template: Vec<Complex> = (0..n)
            .map(|i| Complex::new(((i as f32) * 0.13).sin(), 0.0))
            .collect();
        let mut data = template.clone();
        bench(&format!("fft_plan/{n}/scalar"), || {
            plan.process_scalar(&mut data, false);
            plan.process_scalar(&mut data, true);
            data[0].re
        });
        let mut data = template;
        bench(&format!("fft_plan/{n}/simd"), || {
            plan.process(&mut data, false);
            plan.process(&mut data, true);
            data[0].re
        });
    }

    // The RMS kernel dispatches on the global SIMD switch, so the scalar
    // leg forces it off for the duration.
    let buf = music_buf();
    simd::set_force_scalar(true);
    bench("buf_rms/scalar", || buf.rms());
    simd::set_force_scalar(false);
    bench("buf_rms/simd", || buf.rms());
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
    bench_vmath();
    bench_timecode();
    bench_track_synth();
    bench_burn();
}
