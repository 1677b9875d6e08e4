//! SIMD↔scalar parity for every vectorized kernel over randomized shapes.
//!
//! The E16 acceptance bound is 1e-6 per sample; the shim performs lane-wise
//! IEEE-754 single operations with no FMA and no reassociation, so these
//! tests assert the stronger property — **bit-exact** equality — across
//! randomized frame counts (including non-lane-multiple tails), channel
//! counts, parameter draws and multi-block streams. Inputs come from the
//! seeded [`SmallRng`], so every run checks the same cases (the workspace
//! builds offline, without proptest).
//!
//! Kernels are compared through their explicit `*_scalar` reference entry
//! points; the FFT plan, whose one path is scalar, against the one-shot
//! `fft_inplace`.

use djstar_dsp::biquad::{
    process_chain, process_chain_fused, process_chain_scalar, process_crossover_tree, Biquad,
    FilterKind,
};
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::dynamics::Compressor;
use djstar_dsp::eq::ThreeBandEq;
use djstar_dsp::fft::{fft_inplace, Complex, Fft};
use djstar_dsp::mix::{mix_into, mix_into_scalar};
use djstar_dsp::rng::SmallRng;

fn rand_buf(rng: &mut SmallRng, channels: usize, frames: usize) -> AudioBuf {
    let mut buf = AudioBuf::zeroed(channels, frames);
    for s in buf.samples_mut() {
        *s = rng.f32() * 2.0 - 1.0;
    }
    buf
}

/// A random shape: mono or stereo, 1..=300 frames (tails of every length
/// mod 4 appear many times over the draws).
fn rand_shape(rng: &mut SmallRng) -> (usize, usize) {
    (1 + rng.below(2), 1 + rng.below(300))
}

fn rand_filter(rng: &mut SmallRng) -> Biquad {
    let gain_db = rng.f32() * 36.0 - 18.0;
    let kind = match rng.below(7) {
        0 => FilterKind::Lowpass,
        1 => FilterKind::Highpass,
        2 => FilterKind::Bandpass,
        3 => FilterKind::Notch,
        4 => FilterKind::Peaking { gain_db },
        5 => FilterKind::LowShelf { gain_db },
        _ => FilterKind::HighShelf { gain_db },
    };
    let freq = 40.0 + rng.f32() * 15_000.0;
    let q = 0.3 + rng.f32() * 3.0;
    Biquad::design(kind, freq, q, djstar_dsp::SAMPLE_RATE)
}

#[test]
fn biquad_chains_bit_exact_for_any_shape_and_length() {
    let mut rng = SmallRng::seed_from_u64(0x51AD);
    for _ in 0..60 {
        // 1..=10 sections: covers the fused single chunk and the >8
        // multi-chunk path.
        let sections = 1 + rng.below(10);
        let mut wide: Vec<Biquad> = (0..sections).map(|_| rand_filter(&mut rng)).collect();
        let mut scalar = wide.clone();
        let (ch, frames) = rand_shape(&mut rng);
        let input = rand_buf(&mut rng, ch, frames);
        // Two blocks through the same chain: state carry-over must agree
        // too, not just the first block.
        for _ in 0..2 {
            let mut a = input.clone();
            let mut b = input.clone();
            process_chain(&mut wide, &mut a);
            process_chain_scalar(&mut scalar, &mut b);
            assert_eq!(
                a.samples(),
                b.samples(),
                "{sections} sections, {ch}ch x {frames}f"
            );
        }
        for (w, s) in wide.iter().zip(&scalar) {
            assert_eq!(w.state(), s.state(), "filter state diverged");
        }
    }
}

/// Every sample's bit pattern.
fn bits(buf: &AudioBuf) -> Vec<u32> {
    buf.samples().iter().map(|s| s.to_bits()).collect()
}

/// The cascade's edges: every chain length 1–12 (one vector, two, and a
/// second chunk past eight), frame counts below, at and past the pipeline
/// depth (1, 2, 3, `sections − 1`) and around a block (127, 128, 129),
/// mono and stereo, with state carried over four calls and across a
/// `reset` after the second. The wavefront ([`process_chain`] on an AVX2
/// host) and the fused pass (its form without AVX2) are each held to the
/// per-section reference, bit for bit, samples and state.
#[test]
fn biquad_cascades_bit_exact_at_every_edge() {
    let mut rng = SmallRng::seed_from_u64(0x3A7E);
    for sections in 1..=12usize {
        for channels in [1, 2] {
            let mut lengths = vec![1, 2, 3, 127, 128, 129];
            if sections > 1 {
                lengths.push(sections - 1);
            }
            for frames in lengths {
                let chain: Vec<Biquad> = (0..sections).map(|_| rand_filter(&mut rng)).collect();
                let (mut lanes, mut fused, mut scalar) = (chain.clone(), chain.clone(), chain);
                for call in 0..4 {
                    if call == 2 {
                        for section in lanes.iter_mut().chain(&mut fused).chain(&mut scalar) {
                            section.reset();
                        }
                    }
                    let input = rand_buf(&mut rng, channels, frames);
                    let (mut a, mut b, mut want) = (input.clone(), input.clone(), input);
                    process_chain(&mut lanes, &mut a);
                    process_chain_fused(&mut fused, &mut b);
                    process_chain_scalar(&mut scalar, &mut want);
                    let case =
                        format!("{sections} sections, {channels} ch x {frames}, call {call}");
                    assert_eq!(bits(&a), bits(&want), "wavefront: {case}");
                    assert_eq!(bits(&b), bits(&want), "fused: {case}");
                    for ((l, f), s) in lanes.iter().zip(&fused).zip(&scalar) {
                        let state = |b: &Biquad| {
                            let (z1, z2) = b.state();
                            [z1[0], z1[1], z2[0], z2[1]].map(f32::to_bits)
                        };
                        assert_eq!(state(l), state(s), "wavefront state: {case}");
                        assert_eq!(state(f), state(s), "fused state: {case}");
                    }
                }
            }
        }
    }
}

/// A deck's four crossover bands as the SP nodes hold them: sections 0–1
/// shared by bands 1–3 and 2–3 by bands 2–3 (clones, so bit-equal), every
/// other section a band's own. `lr4` designs the engine's LR4 tree (200,
/// 1 200 and 5 000 Hz); otherwise every section is a random filter.
fn tree_bands(rng: &mut SmallRng, lr4: bool) -> [Vec<Biquad>; 4] {
    let q = core::f32::consts::FRAC_1_SQRT_2;
    let mut pair = |kind, f| -> [Biquad; 2] {
        if lr4 {
            [0; 2].map(|_| Biquad::design(kind, f, q, djstar_dsp::SAMPLE_RATE))
        } else {
            [0; 2].map(|_| rand_filter(rng))
        }
    };
    let (lp1, hp1) = (
        pair(FilterKind::Lowpass, 200.0),
        pair(FilterKind::Highpass, 200.0),
    );
    let (lp2, hp2) = (
        pair(FilterKind::Lowpass, 1_200.0),
        pair(FilterKind::Highpass, 1_200.0),
    );
    let (lp3, hp3) = (
        pair(FilterKind::Lowpass, 5_000.0),
        pair(FilterKind::Highpass, 5_000.0),
    );
    [
        lp1.to_vec(),
        [&hp1[..], &lp2].concat(),
        [&hp1[..], &hp2, &lp3].concat(),
        [&hp1[..], &hp2, &hp3].concat(),
    ]
}

fn state_bits(chain: &[Biquad]) -> Vec<[u32; 4]> {
    let state = |b: &Biquad| {
        let (z1, z2) = b.state();
        [z1[0], z1[1], z2[0], z2[1]].map(f32::to_bits)
    };
    chain.iter().map(state).collect()
}

/// Run the tree over `blocks` chained blocks of `frames` frames against
/// each band's copy-then-[`process_chain_scalar`], bit for bit, samples
/// and every section's state.
fn assert_tree_equals_chains(mut tree: [Vec<Biquad>; 4], frames: usize, blocks: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scalar = tree.clone();
    for block in 0..blocks {
        let src = rand_buf(&mut rng, 2, frames);
        let mut outs: [AudioBuf; 4] = core::array::from_fn(|_| AudioBuf::zeroed(2, frames));
        let ran = process_crossover_tree(
            tree.each_mut().map(Vec::as_mut_slice),
            &src,
            outs.each_mut(),
        );
        assert_eq!(
            ran,
            djstar_dsp::simd::avx2_fma_available(),
            "the tree declined"
        );
        if !ran {
            return;
        }
        for (k, (out, chain)) in outs.iter().zip(&mut scalar).enumerate() {
            let mut want = src.clone();
            process_chain_scalar(chain, &mut want);
            let case = format!("band {k}, {frames} frames, block {block}");
            assert_eq!(bits(out), bits(&want), "{case}");
            assert_eq!(state_bits(&tree[k]), state_bits(chain), "state: {case}");
        }
    }
}

/// The crossover tree against four per-band scalar chains: the engine's
/// LR4 bands over 50 blocks of 128 frames, and random sections at frame
/// counts below, at and past the tree's five-step lag and around a block.
#[test]
fn crossover_tree_bit_exact_against_per_band_chains() {
    let mut rng = SmallRng::seed_from_u64(0x7EE5);
    assert_tree_equals_chains(tree_bands(&mut rng, true), 128, 50, 1);
    for frames in [1, 2, 4, 5, 6, 7, 8, 9, 127, 128, 129] {
        let bands = tree_bands(&mut rng, false);
        assert_tree_equals_chains(bands, frames, 6, frames as u64);
    }
}

/// The tree runs only where it is exact: a shared section one ulp apart in
/// one band, a chain of the wrong length or a mono source make it decline,
/// with every output and every section untouched.
#[test]
fn crossover_tree_declines_without_touching_anything() {
    let mut rng = SmallRng::seed_from_u64(0xDEC1);
    let bands = tree_bands(&mut rng, true);
    // Warm the state so a perturbation is not a zero.
    let mut warm = bands.clone();
    assert_tree_equals_chains(bands, 64, 3, 9);
    for chain in &mut warm {
        process_chain_scalar(chain, &mut rand_buf(&mut rng, 2, 64));
    }
    // One more frame through band 2's copy of a shared section only.
    let mut nudged_state = warm.clone();
    let mut frame = AudioBuf::from_fn(2, 1, |_, _| 1e-3);
    process_chain_scalar(&mut nudged_state[2][1..2], &mut frame);
    let mut nudged_coeffs = warm.clone();
    let mut c = nudged_coeffs[3][2].coeffs();
    c.b0 = f32::from_bits(c.b0.to_bits() + 1);
    nudged_coeffs[3][2].set_coeffs(c);
    let mut short = warm.clone();
    short[1].pop();
    let stereo = rand_buf(&mut rng, 2, 32);
    let mono = rand_buf(&mut rng, 1, 32);
    for (label, mut bands, src) in [
        ("shared state", nudged_state, &stereo),
        ("shared coefficients", nudged_coeffs, &stereo),
        ("shape", short, &stereo),
        ("mono source", warm.clone(), &mono),
    ] {
        let before: Vec<_> = bands.iter().map(|b| state_bits(b)).collect();
        let mut outs: [AudioBuf; 4] = core::array::from_fn(|_| AudioBuf::zeroed(2, 32));
        let ran = process_crossover_tree(
            bands.each_mut().map(Vec::as_mut_slice),
            src,
            outs.each_mut(),
        );
        assert!(!ran, "{label}: the tree ran");
        assert!(
            outs.iter().all(|o| o.peak() == 0.0),
            "{label}: an output was written"
        );
        let after: Vec<_> = bands.iter().map(|b| state_bits(b)).collect();
        assert_eq!(before, after, "{label}: a section changed");
    }
}

#[test]
fn eq_bit_exact_for_any_gains() {
    let mut rng = SmallRng::seed_from_u64(0xE9);
    for _ in 0..40 {
        let mut wide = ThreeBandEq::new(djstar_dsp::SAMPLE_RATE);
        let mut scalar = ThreeBandEq::new(djstar_dsp::SAMPLE_RATE);
        let gains = [
            rng.f32() * 24.0 - 12.0,
            rng.f32() * 24.0 - 12.0,
            rng.f32() * 24.0 - 12.0,
        ];
        wide.set_gains(gains[0], gains[1], gains[2]);
        scalar.set_gains(gains[0], gains[1], gains[2]);
        let (ch, frames) = rand_shape(&mut rng);
        let input = rand_buf(&mut rng, ch, frames);
        let mut a = input.clone();
        let mut b = input;
        wide.process(&mut a);
        scalar.process_scalar(&mut b);
        assert_eq!(
            a.samples(),
            b.samples(),
            "gains {gains:?}, {ch}ch x {frames}f"
        );
    }
}

#[test]
fn mix_bit_exact_for_any_input_count_and_layout_mix() {
    let mut rng = SmallRng::seed_from_u64(0x317A);
    for _ in 0..60 {
        let (out_ch, frames) = rand_shape(&mut rng);
        // 1..=18 inputs: crosses the fused-path cap (16) into the
        // fallback; occasionally throw in a mismatched layout to force
        // the per-input path.
        let count = 1 + rng.below(18);
        let inputs: Vec<AudioBuf> = (0..count)
            .map(|_| {
                let ch = if rng.chance(0.15) { 3 - out_ch } else { out_ch };
                rand_buf(&mut rng, ch, frames)
            })
            .collect();
        let refs: Vec<&AudioBuf> = inputs.iter().collect();
        let gains: Vec<f32> = (0..count).map(|_| rng.f32() * 2.0 - 0.5).collect();
        let mut fused = AudioBuf::zeroed(out_ch, frames);
        let mut scalar = AudioBuf::zeroed(out_ch, frames);
        mix_into(&mut fused, &refs, &gains);
        mix_into_scalar(&mut scalar, &refs, &gains);
        assert_eq!(
            fused.samples(),
            scalar.samples(),
            "{count} inputs, {out_ch}ch x {frames}f"
        );
    }
}

#[test]
fn dynamics_bit_exact_over_multi_block_streams() {
    let mut rng = SmallRng::seed_from_u64(0xD1A);
    for _ in 0..25 {
        let ch = 1 + rng.below(2);
        let mut comp_w = Compressor::new(0.25, 4.0, 8.0, djstar_dsp::SAMPLE_RATE);
        let mut comp_s = Compressor::new(0.25, 4.0, 8.0, djstar_dsp::SAMPLE_RATE);
        // A stream of ragged block sizes so the chunked wide paths hit
        // every tail; envelope state must stay identical across blocks.
        for _ in 0..6 {
            let frames = 1 + rng.below(200);
            let mut input = rand_buf(&mut rng, ch, frames);
            input.scale(1.8); // hot enough to engage gain reduction
            let mut a = input.clone();
            let mut b = input;
            let gw = comp_w.process(&mut a);
            let gs = comp_s.process_scalar(&mut b);
            assert_eq!(a.samples(), b.samples(), "compressor {ch}ch x {frames}f");
            assert_eq!(gw, gs, "compressor gain diverged");
        }
    }
}

#[test]
fn fft_plan_bit_exact_against_legacy_and_scalar() {
    let mut rng = SmallRng::seed_from_u64(0xFF7);
    for &n in &[2usize, 8, 32, 128, 256, 1024] {
        let template: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.f32() * 2.0 - 1.0, rng.f32() * 2.0 - 1.0))
            .collect();
        let mut plan = Fft::new(n);
        for inverse in [false, true] {
            let mut legacy = template.clone();
            let mut planned = template.clone();
            fft_inplace(&mut legacy, inverse);
            plan.process(&mut planned, inverse);
            for i in 0..n {
                assert_eq!(
                    planned[i].re.to_bits(),
                    legacy[i].re.to_bits(),
                    "n={n} i={i}"
                );
                assert_eq!(
                    planned[i].im.to_bits(),
                    legacy[i].im.to_bits(),
                    "n={n} i={i}"
                );
            }
        }
    }
}
