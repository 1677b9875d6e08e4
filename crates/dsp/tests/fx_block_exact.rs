//! Exact equality of the block-rate effect kernels (the Overdrive's one
//! `tanh_block` per buffer included) with their per-frame references
//! (`process` vs `process_reference`, the `*_scalar` pattern of the SIMD
//! kernels): two twins of one effect are fed the same chained blocks and
//! every output sample is compared with `to_bits`, across buffer lengths on
//! both sides of the 128-frame modulation table, mono and stereo, and a
//! `reset()` in mid-stream.

use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::delayline::DelayLine;
use djstar_dsp::effects::{EchoDelay, Effect, Flanger, Overdrive, Phaser};
use djstar_dsp::rng::SmallRng;

const BLOCKS: usize = 400;
const FRAMES: [usize; 7] = [1, 2, 3, 127, 128, 129, 512];

/// Drive `fast.process` and `reference.process_reference` (passed as
/// `run_reference`) over the same `BLOCKS` chained blocks for every
/// buffer shape, resetting both halfway.
fn assert_twins<E: Effect>(
    label: &str,
    build: impl Fn() -> E,
    run_reference: impl Fn(&mut E, &mut AudioBuf),
) {
    for channels in [1, 2] {
        for frames in FRAMES {
            let (mut fast, mut reference) = (build(), build());
            let mut rng = SmallRng::seed_from_u64(0xB10C ^ (frames * 2 + channels) as u64);
            for block in 0..BLOCKS {
                if block == BLOCKS / 2 {
                    fast.reset();
                    reference.reset();
                }
                let dry = AudioBuf::from_fn(channels, frames, |_, _| rng.f32() * 2.0 - 1.0);
                let (mut got, mut want) = (dry.clone(), dry);
                fast.process(&mut got);
                run_reference(&mut reference, &mut want);
                for (i, (g, w)) in got.samples().iter().zip(want.samples()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{label}: {channels} ch x {frames} frames, block {block}, sample {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn echo_delay_block_equals_reference() {
    // Delays shorter than a block (the run is cut at the delay), of one
    // sample (every run is one sample), and longer than a block.
    for delay_samples in [1usize, 44, 11_025] {
        let delay_s = (delay_samples as f32 + 0.5) / 44_100.0;
        assert_twins(
            &format!("echo {delay_samples}"),
            || {
                let fx = EchoDelay::new(44_100, delay_s, 0.45, 0.5);
                assert_eq!(fx.delay_samples(), delay_samples);
                fx
            },
            EchoDelay::process_reference,
        );
    }
}

#[test]
fn flanger_block_equals_reference() {
    assert_twins(
        "flanger default",
        || Flanger::new(44_100, 0.4, 0.7, 0.5),
        Flanger::process_reference,
    );
    assert_twins(
        "flanger full depth",
        || Flanger::new(44_100, 3.0, 1.0, 0.8),
        Flanger::process_reference,
    );
    // At 500 Hz the sweep is 0.5–4 samples: the modulated delay spends part
    // of every LFO period on the lower clamp.
    assert_twins(
        "flanger 500 Hz",
        || Flanger::new(500, 7.0, 1.0, 0.5),
        Flanger::process_reference,
    );
}

#[test]
fn phaser_block_equals_reference() {
    // One to four stages run as a wavefront on an AVX2 host (four is the
    // deck slot's count), sixteen as the per-plane loop.
    for stages in [1, 2, 3, 4, 16] {
        assert_twins(
            &format!("phaser {stages}"),
            || Phaser::new(44_100, 0.3, stages, 0.6),
            Phaser::process_reference,
        );
    }
}

#[test]
fn overdrive_block_equals_reference() {
    // The default slot (drive 3), a hot drive that pushes samples past
    // |x| = 22 (the per-lane libm fallback), and the minimum drive.
    for (drive, level) in [(3.0, 0.7), (40.0, 1.0), (0.1, 0.5)] {
        assert_twins(
            &format!("overdrive {drive}"),
            || Overdrive::new(drive, level),
            Overdrive::process_reference,
        );
    }
}

/// Delays that hit both clamps, sit within an ulp of them, and are not
/// numbers at all.
fn rand_delay(rng: &mut SmallRng, capacity: usize) -> f32 {
    match rng.below(9) {
        0 => rng.f32() * capacity as f32,
        1 => rng.below(capacity + 2) as f32,
        2 => -rng.f32() * 10.0,
        3 => capacity as f32 + rng.f32() * 10.0,
        4 => 1.0 + rng.f32() * 1e-3,
        5 => (capacity - 1) as f32 - rng.f32() * 1e-3,
        6 => f32::INFINITY,
        7 => f32::NEG_INFINITY,
        _ => f32::NAN,
    }
}

#[test]
fn modulated_taps_equal_push_then_read_frac() {
    let mut rng = SmallRng::seed_from_u64(0x7A95);
    for round in 0..200 {
        // Capacity 1 (no pair of taps), 2 (one legal delay) and up.
        let capacity = if round < 4 {
            1 + round / 2
        } else {
            1 + rng.below(600)
        };
        let (mut block, mut per_sample) = (DelayLine::new(capacity), DelayLine::new(capacity));
        let mix = rng.f32();
        for _ in 0..8 {
            let len = rng.below(300);
            let dry: Vec<f32> = (0..len).map(|_| rng.f32() * 2.0 - 1.0).collect();
            let delays: Vec<f32> = (0..len).map(|_| rand_delay(&mut rng, capacity)).collect();
            let mut got = dry.clone();
            block.modulated_taps(&mut got, &delays, mix);
            for i in 0..len {
                per_sample.push(dry[i]);
                let want = dry[i] * (1.0 - mix) + per_sample.read_frac(delays[i]) * mix;
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "capacity {capacity}, delay {}",
                    delays[i]
                );
            }
        }
    }
}

/// The Flanger's taps in lanes at their edges, against push-then-
/// `read_frac` bit for bit: plane lengths around the 8-frame block (1, 7,
/// 8, 9) and the 128-frame buffer (127, 128, 129); delays swept between
/// both clamp bounds (a block reaching within eight samples of the
/// capacity runs the scalar loop) and past them; a NaN delay inside a
/// block; the write index wrapping inside a block; and lines of 8 and 9
/// samples, too short for lanes and just long enough.
#[test]
fn modulated_taps_lanes_equal_push_then_read_frac_at_every_edge() {
    let mut rng = SmallRng::seed_from_u64(0x1A9E);
    for capacity in [8usize, 9, 16, 356, 1_000] {
        for len in [1usize, 7, 8, 9, 127, 128, 129] {
            let (mut block, mut per_sample) = (DelayLine::new(capacity), DelayLine::new(capacity));
            let mut phase = rng.f32();
            for call in 0..12 {
                let dry: Vec<f32> = (0..len).map(|_| rng.f32() * 2.0 - 1.0).collect();
                let mut delays: Vec<f32> = (0..len)
                    .map(|_| {
                        phase += 0.013;
                        // From below 1 to past the capacity.
                        (capacity as f32 + 4.0) * (0.5 + 0.55 * (phase * 6.0).sin())
                    })
                    .collect();
                if call == 5 {
                    delays[len / 2] = f32::NAN;
                }
                if call == 7 {
                    delays.fill(1.0);
                }
                if call == 8 {
                    delays.fill((capacity - 1) as f32);
                }
                let mut got = dry.clone();
                block.modulated_taps(&mut got, &delays, 0.5);
                for i in 0..len {
                    per_sample.push(dry[i]);
                    let want = dry[i] * 0.5 + per_sample.read_frac(delays[i]) * 0.5;
                    assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "capacity {capacity}, {len} frames, call {call}, frame {i}, delay {}",
                        delays[i]
                    );
                }
            }
        }
    }
}

#[test]
fn feedback_block_equals_read_then_push() {
    let mut rng = SmallRng::seed_from_u64(0xFEED);
    for _ in 0..200 {
        let capacity = 1 + rng.below(400);
        // Delays of 0 and beyond the capacity clamp as `read` clamps them.
        let delay = rng.below(capacity + 3);
        let (mut block, mut per_sample) = (DelayLine::new(capacity), DelayLine::new(capacity));
        for _ in 0..8 {
            let len = rng.below(300);
            let dry: Vec<f32> = (0..len).map(|_| rng.f32() * 2.0 - 1.0).collect();
            let mut wet = vec![0.0f32; len];
            block.feedback_block(&dry, delay, 0.6, &mut wet);
            for i in 0..len {
                let want = per_sample.read(delay);
                per_sample.push(dry[i] + want * 0.6);
                assert_eq!(
                    wet[i].to_bits(),
                    want.to_bits(),
                    "capacity {capacity}, delay {delay}"
                );
            }
        }
        // Both lines end in the same state.
        for d in 1..=capacity {
            assert_eq!(block.read(d).to_bits(), per_sample.read(d).to_bits());
        }
    }
}

#[test]
fn one_sample_line_reads_its_sample() {
    // `DelayLine::new(1)` is legal; `read_frac` used to clamp to `[1, 0]`
    // and panic. Every delay now clamps to 1: both taps are the one sample.
    let mut line = DelayLine::new(1);
    line.push(0.75);
    for delay in [0.0, 1.0, 2.5, -3.0, f32::INFINITY, f32::NEG_INFINITY] {
        assert_eq!(line.read_frac(delay), 0.75, "delay {delay}");
        assert_eq!(line.read_frac_reference(delay), 0.75, "delay {delay}");
    }
    assert!(line.read_frac(f32::NAN).is_nan());
    // Each frame's one tap is the sample it pushed: an even mix is dry.
    let mut plane = [0.1f32, -0.2, 0.3];
    line.modulated_taps(&mut plane, &[-1.0, 5.0, 0.0], 0.5);
    assert_eq!(plane, [0.1, -0.2, 0.3]);
    assert_eq!(line.read(1), 0.3);
}

#[test]
fn non_finite_delays_clamp_in_both_forms() {
    let mut line = DelayLine::new(8);
    for i in 0..8 {
        line.push(i as f32);
    }
    // +inf clamps to capacity − 1, −inf to 1; NaN stays NaN.
    assert_eq!(line.read_frac(f32::INFINITY), line.read(7));
    assert_eq!(line.read_frac(f32::NEG_INFINITY), line.read(1));
    assert!(line.read_frac(f32::NAN).is_nan());
    let mut block = line.clone();
    let mut plane = [8.0f32, 9.0, 10.0];
    let delays = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    block.modulated_taps(&mut plane, &delays, 1.0);
    // After pushing 8, 9, 10: the oldest of seven, the newest, not a number.
    assert_eq!(plane[0], 2.0);
    assert_eq!(plane[1], 9.0);
    assert!(plane[2].is_nan());
}
