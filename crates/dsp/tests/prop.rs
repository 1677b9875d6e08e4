//! Property-style tests for the DSP substrate: stability, boundedness and
//! algebraic invariants that must hold for arbitrary audio. Inputs are
//! generated from a seeded [`SmallRng`] so every run checks the same cases
//! (the workspace builds offline, without proptest).

use djstar_dsp::biquad::{Biquad, FilterKind};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::db::{crossfade_gains, db_to_gain, gain_to_db};
use djstar_dsp::dynamics::{HardClip, Limiter};
use djstar_dsp::effects::EffectKind;
use djstar_dsp::resample::VarRateReader;
use djstar_dsp::rng::SmallRng;

fn rand_buf(rng: &mut SmallRng, frames: usize) -> AudioBuf {
    let mut buf = AudioBuf::zeroed(2, frames);
    for s in buf.samples_mut() {
        *s = rng.f32() * 2.0 - 1.0;
    }
    buf
}

fn rand_in(rng: &mut SmallRng, lo: f32, hi: f32) -> f32 {
    lo + rng.f32() * (hi - lo)
}

#[test]
fn db_round_trip_everywhere() {
    let mut rng = SmallRng::seed_from_u64(0xD5B);
    for _ in 0..256 {
        let db = rand_in(&mut rng, -100.0, 24.0);
        let back = gain_to_db(db_to_gain(db));
        assert!((back - db).abs() < 1e-2, "{db} -> {back}");
    }
}

#[test]
fn crossfade_is_equal_power() {
    let mut rng = SmallRng::seed_from_u64(0x9A4);
    for _ in 0..256 {
        let x = rand_in(&mut rng, -1.0, 1.0);
        let (a, b) = crossfade_gains((x + 1.0) / 2.0);
        assert!((a * a + b * b - 1.0).abs() < 1e-4);
    }
}

#[test]
fn mix_add_is_linear() {
    let mut rng = SmallRng::seed_from_u64(0x317);
    for _ in 0..64 {
        let buf_a = rand_buf(&mut rng, 32);
        let buf_b = rand_buf(&mut rng, 32);
        let g1 = rand_in(&mut rng, -2.0, 2.0);
        let g2 = rand_in(&mut rng, -2.0, 2.0);
        // (a*g1 + b*g2) built two ways must agree.
        let mut one = AudioBuf::zeroed(2, 32);
        one.mix_add(&buf_a, g1);
        one.mix_add(&buf_b, g2);
        let mut two = AudioBuf::zeroed(2, 32);
        two.mix_add(&buf_b, g2);
        two.mix_add(&buf_a, g1);
        for (x, y) in one.samples().iter().zip(two.samples()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}

#[test]
fn biquad_stable_for_any_design() {
    let mut rng = SmallRng::seed_from_u64(0xB1D);
    for _ in 0..64 {
        let gain_db = rand_in(&mut rng, -24.0, 24.0);
        let kind = match rng.below(7) {
            0 => FilterKind::Lowpass,
            1 => FilterKind::Highpass,
            2 => FilterKind::Bandpass,
            3 => FilterKind::Notch,
            4 => FilterKind::Peaking { gain_db },
            5 => FilterKind::LowShelf { gain_db },
            _ => FilterKind::HighShelf { gain_db },
        };
        // Deliberately allows beyond-Nyquist frequencies.
        let freq = rand_in(&mut rng, 10.0, 30_000.0);
        let q = rand_in(&mut rng, 0.01, 20.0);
        let buf = rand_buf(&mut rng, 128);
        let mut filt = Biquad::design(kind, freq, q, 44_100);
        // Stream fresh copies of the block through the stateful filter (the
        // real usage pattern); a stable filter's output stays bounded by
        // roughly the resonance gain (~Q) plus shelf gain.
        for _ in 0..20 {
            let mut work = buf.clone();
            filt.process(&mut work);
            assert!(work.is_finite(), "{kind:?} f={freq} q={q}");
            assert!(work.peak() < 500.0, "{kind:?} blew up: {}", work.peak());
        }
    }
}

#[test]
fn limiter_always_respects_ceiling() {
    let mut rng = SmallRng::seed_from_u64(0x717);
    for _ in 0..64 {
        let buf = rand_buf(&mut rng, 128);
        let drive = rand_in(&mut rng, 1.0, 20.0);
        let ceiling = rand_in(&mut rng, 0.1, 1.0);
        let mut lim = Limiter::new(ceiling, 0.5, 50.0, 44_100);
        let mut work = buf.clone();
        work.scale(drive);
        for _ in 0..5 {
            lim.process(&mut work);
        }
        assert!(work.peak() <= ceiling + 1e-4);
    }
}

#[test]
fn hard_clip_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0xC11);
    for _ in 0..64 {
        let buf = rand_buf(&mut rng, 64);
        let ceiling = rand_in(&mut rng, 0.1, 1.0);
        let clip = HardClip::new(ceiling);
        let mut once = buf.clone();
        clip.process(&mut once);
        let mut twice = once.clone();
        let clipped_again = clip.process(&mut twice);
        assert_eq!(clipped_again, 0);
        assert_eq!(once, twice);
    }
}

#[test]
fn effects_never_explode_on_arbitrary_input() {
    let mut rng = SmallRng::seed_from_u64(0xEFF);
    for kind in EffectKind::ALL {
        for _ in 0..6 {
            let buf = rand_buf(&mut rng, 128);
            let mut fx = kind.build(44_100);
            // Stream fresh blocks (the streaming usage pattern); internal
            // feedback state must stay bounded across blocks.
            for _ in 0..30 {
                let mut work = buf.clone();
                fx.process(&mut work);
                assert!(work.is_finite(), "{kind:?}");
                assert!(work.peak() < 20.0, "{kind:?} peak {}", work.peak());
            }
        }
    }
}

#[test]
fn unit_rate_resampling_is_near_identity() {
    let mut rng = SmallRng::seed_from_u64(0x4E5);
    for _ in 0..64 {
        let len = 64 + rng.below(192);
        let src: Vec<f32> = (0..len).map(|_| rng.f32() * 2.0 - 1.0).collect();
        let mut reader = VarRateReader::new(1.0);
        let mut out = vec![0.0f32; src.len() - 3];
        reader.read(&src, 1.0, &mut out);
        for (k, &o) in out.iter().enumerate() {
            assert!((o - src[k + 1]).abs() < 1e-3, "frame {k}");
        }
    }
}

#[test]
fn buffer_energy_matches_rms() {
    let mut rng = SmallRng::seed_from_u64(0x4A5);
    for _ in 0..64 {
        let buf = rand_buf(&mut rng, 64);
        let n = buf.samples().len() as f32;
        let rms = buf.rms();
        let energy = buf.energy();
        assert!((rms * rms * n - energy).abs() < 1e-2 * energy.max(1.0));
    }
}
