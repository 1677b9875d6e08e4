//! Exact equality of the libm-free hot-path forms with their textbook
//! references, over seeded random streams (the PR 7 `*_scalar` pattern: the
//! old form stays as the reference, the property is **bit-exact** equality).
//!
//! * `advance_phase` (compare-and-add) vs `advance_phase_reference`
//!   (`x - x.floor()`): chained over long streams, because the claim rests
//!   on the phase staying in `[0, 1]` from one step to the next.
//! * `DelayLine::read_frac` (truncating cast, compare-wrap) vs
//!   `read_frac_reference` (`floor`, `%`).
//! * `goertzel_bank` (eight recurrences per sample) vs eight passes of the
//!   per-band `goertzel_power`.
//! * An oscillator and the flanger end to end (400 blocks), against twins
//!   rebuilt on the reference forms.
//! * `Oscillator::fill` (a serial phase walk, then one `vmath::sin_block`
//!   for a sine) against chained `next_sample` calls, over 400 blocks.

use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::delayline::DelayLine;
use djstar_dsp::effects::{Effect, Flanger};
use djstar_dsp::meter::{goertzel_bank, goertzel_coeff, goertzel_power};
use djstar_dsp::osc::{advance_phase, advance_phase_reference, Oscillator, Waveform};
use djstar_dsp::rng::SmallRng;

/// Increments that stress every branch: audio-rate steps, steps that land
/// within an ulp of a wrap, both signs, the ±0.5 boundary, and values past
/// it (which must take — and equal — the reference form).
fn rand_inc(rng: &mut SmallRng) -> f32 {
    match rng.below(8) {
        0 => rng.f32() * 0.05,
        1 => -rng.f32() * 0.05,
        2 => rng.f32() - 0.5,
        3 => [0.5, -0.5, 0.0, -0.0][rng.below(4)],
        4 => f32::from_bits(rng.next_u32() & 0x1FFF_FFFF), // denormal to tiny
        5 => -f32::from_bits(rng.next_u32() & 0x1FFF_FFFF),
        6 => (rng.f32() - 0.5) * 8.0,
        _ => 1.0 - rng.f32() * 1e-6,
    }
}

#[test]
fn advance_phase_equals_floor_form_over_chained_streams() {
    let mut rng = SmallRng::seed_from_u64(0x00F1_0012);
    for _ in 0..200 {
        let (mut fast, mut reference) = (0.0f32, 0.0f32);
        // A fixed increment for a while (an oscillator), then a new one.
        for _ in 0..20 {
            let inc = rand_inc(&mut rng);
            for _ in 0..400 {
                fast = advance_phase(fast, inc);
                reference = advance_phase_reference(reference, inc);
                assert_eq!(fast.to_bits(), reference.to_bits(), "inc {inc:e}");
                assert!((0.0..=1.0).contains(&fast), "phase {fast} left [0, 1]");
            }
        }
    }
}

#[test]
fn advance_phase_wraps_at_the_edges() {
    // A sum a hair below zero rounds up to exactly 1.0 in both forms, and
    // the step after that still agrees.
    let tiny = -1e-10f32;
    let p = advance_phase(0.0, tiny);
    assert_eq!(p, 1.0);
    assert_eq!(p.to_bits(), advance_phase_reference(0.0, tiny).to_bits());
    for inc in [0.5f32, -0.5, 0.25, -1e-10] {
        assert_eq!(
            advance_phase(p, inc).to_bits(),
            advance_phase_reference(p, inc).to_bits()
        );
    }
    // Non-finite increments take the reference form and stay NaN.
    assert!(advance_phase(0.25, f32::NAN).is_nan());
    assert!(advance_phase(0.25, f32::INFINITY).is_nan());
}

#[test]
fn oscillator_matches_a_floor_form_twin() {
    let mut rng = SmallRng::seed_from_u64(0x05C);
    for _ in 0..50 {
        let freq = rng.f32() * 30_000.0; // includes steps past Nyquist/2
        let mut osc = Oscillator::new(Waveform::Saw, freq, 44_100);
        let mut phase = 0.0f32;
        for _ in 0..2_000 {
            // A saw is `2·phase − 1`: it exposes the phase directly.
            assert_eq!(osc.next_sample().to_bits(), (2.0 * phase - 1.0).to_bits());
            phase = advance_phase_reference(phase, freq / 44_100.0);
        }
    }
}

#[test]
fn read_frac_equals_floor_and_modulo_form() {
    let mut rng = SmallRng::seed_from_u64(0xDE1A);
    for _ in 0..100 {
        let capacity = 2 + rng.below(3_000);
        let mut line = DelayLine::new(capacity);
        for _ in 0..(capacity * 2 + rng.below(capacity)) {
            line.push(rng.f32() * 2.0 - 1.0);
            let delay = match rng.below(6) {
                0 => rng.f32() * capacity as f32,
                1 => rng.below(capacity + 2) as f32, // integer taps, both clamps
                2 => -rng.f32() * 10.0,
                3 => capacity as f32 + rng.f32() * 10.0,
                4 => 1.0 + rng.f32() * 1e-3,
                _ => (capacity - 1) as f32 - rng.f32() * 1e-3,
            };
            assert_eq!(
                line.read_frac(delay).to_bits(),
                line.read_frac_reference(delay).to_bits(),
                "capacity {capacity}, delay {delay}"
            );
        }
    }
}

#[test]
fn goertzel_bank_equals_eight_single_band_passes() {
    const BANDS: [f32; 8] = [
        60.0, 150.0, 400.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 15_000.0,
    ];
    let coeffs = BANDS.map(|f| goertzel_coeff(f, 44_100));
    let mut rng = SmallRng::seed_from_u64(0x60E7);
    for round in 0..400 {
        let len = if round == 0 { 0 } else { 1 + rng.below(600) };
        let gain = [1.0, 1e-3, 50.0][rng.below(3)];
        let samples: Vec<f32> = (0..len).map(|_| (rng.f32() * 2.0 - 1.0) * gain).collect();
        let bank = goertzel_bank(&samples, &coeffs);
        for (k, &f) in BANDS.iter().enumerate() {
            assert_eq!(
                bank[k].to_bits(),
                goertzel_power(&samples, f, 44_100).to_bits(),
                "band {k}, {len} samples"
            );
        }
    }
}

#[test]
fn flanger_matches_a_reference_twin_over_400_blocks() {
    // The flanger's signal path rebuilt on the reference forms: a sine LFO
    // on a `floor`-wrapped phase sweeping a 1–8 ms `read_frac_reference` tap.
    let (sr, rate_hz, depth, mix) = (44_100.0f32, 0.7f32, 0.9f32, 0.5f32);
    let mut fx = Flanger::new(44_100, rate_hz, depth, mix);
    let mut lines = [
        DelayLine::new((0.008 * sr) as usize + 4),
        DelayLine::new((0.008 * sr) as usize + 4),
    ];
    let mut phase = 0.0f32;
    let center = (0.001 + 0.008) / 2.0 * sr;
    let swing = (0.008 - 0.001) / 2.0 * sr * depth;
    let mut rng = SmallRng::seed_from_u64(0xF1A6);
    for block in 0..400 {
        let dry = AudioBuf::from_fn(2, 128, |_, _| rng.f32() * 2.0 - 1.0);
        let mut wet = dry.clone();
        fx.process(&mut wet);
        for i in 0..128 {
            let lfo = (core::f32::consts::TAU * phase).sin();
            phase = advance_phase_reference(phase, rate_hz / sr);
            let delay = center + swing * lfo;
            for (ch, line) in lines.iter_mut().enumerate() {
                let x = dry.sample(ch, i);
                line.push(x);
                let want = x * (1.0 - mix) + line.read_frac_reference(delay) * mix;
                assert_eq!(
                    wet.sample(ch, i).to_bits(),
                    want.to_bits(),
                    "block {block} frame {i} ch {ch}"
                );
            }
        }
    }
}

#[test]
fn oscillator_fill_equals_chained_next_sample_over_400_blocks() {
    let mut rng = SmallRng::seed_from_u64(0x0F11);
    for waveform in [
        Waveform::Sine,
        Waveform::Saw,
        Waveform::Square,
        Waveform::Triangle,
    ] {
        for _ in 0..4 {
            // LFO rates up to audio rates past Nyquist (the floor form).
            let freq = [rng.f32() * 10.0, rng.f32() * 2_000.0, rng.f32() * 60_000.0][rng.below(3)];
            let mut block = Oscillator::new(waveform, freq, 44_100);
            let mut chained = block.clone();
            let mut out = [0.0f32; 300];
            for round in 0..400 {
                let len = [1, 7, 8, 127, 128, 129, 300][round % 7];
                let out = &mut out[..len];
                block.fill(out);
                for (i, &got) in out.iter().enumerate() {
                    let want = chained.next_sample();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{waveform:?} at {freq} Hz, block {round}, sample {i}"
                    );
                }
                assert_eq!(block.phase().to_bits(), chained.phase().to_bits());
            }
        }
    }
}
