//! `vmath::tanh_block` and `vmath::sin_block` against `f32::tanh` and
//! `f32::sin` (the host libm), compared with `to_bits` — any NaN matches any
//! NaN. Inputs: ±64 ulps around every branch threshold of the ported code
//! (so eight-lane groups straddle each one, lanes on both sides, in and out
//! of the vector domain), a strided sweep of all 2³² bit patterns, a dense
//! sweep of the ranges the audio path feeds them, and every slice length up
//! to two groups plus a tail. The all-2³² proof is the
//! `#[ignore]`d pair in `vmath.rs`.

use djstar_dsp::vmath::{sin_block, tanh_block};

/// The patterns within `ulps` of `center`, both signs.
fn around(center: f32, ulps: u32, out: &mut Vec<f32>) {
    let c = center.abs().to_bits();
    for bits in c.saturating_sub(ulps)..=c + ulps {
        out.push(f32::from_bits(bits));
        out.push(-f32::from_bits(bits));
    }
}

fn assert_block_matches(inputs: &[f32], block: fn(&mut [f32]), libm: fn(f32) -> f32, what: &str) {
    let mut got = inputs.to_vec();
    block(&mut got);
    for (&x, &g) in inputs.iter().zip(&got) {
        let want = libm(x);
        assert!(
            g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
            "{what}({x:e} = {:#010x}): block {g:e} ({:#010x}), libm {want:e} ({:#010x})",
            x.to_bits(),
            g.to_bits(),
            want.to_bits()
        );
    }
}

/// One in every 16 385 bit patterns (an odd stride, so every exponent and
/// low mantissa bits vary), 262 144 inputs.
fn strided_sweep() -> Vec<f32> {
    (0..1u32 << 18)
        .map(|i| f32::from_bits(i.wrapping_mul(16_385).wrapping_add(0x9E37)))
        .collect()
}

#[test]
fn tanh_block_matches_libm_around_every_threshold() {
    let ln2 = core::f64::consts::LN_2;
    let mut xs = Vec::new();
    // tanhf's own branches: the domain's lower edge, |x| = 1, |x| = 22.
    for c in [2f32.powi(-55), 1.0, 22.0] {
        around(c, 64, &mut xs);
    }
    // expm1f's branches as reached through a = 2|x|: 2^-25, ln2/2,
    // 1.5·ln2 and 27·ln2 (the library's bit thresholds, halved exactly).
    for a_bits in [0x3300_0000u32, 0x3EB1_7218, 0x3F85_1592, 0x4195_B844] {
        around(f32::from_bits(a_bits) / 2.0, 64, &mut xs);
    }
    // The reduction k = (int)(a/ln2 ± 0.5) changes at a = (j + 0.5)·ln2:
    // k 1/2 (−a, the |x| < 1 side), 2/3, 22/23 (the 2^-k constant's
    // form), 56/57 (the exponent-add form).
    for j in [1.0, 2.0, 22.0, 56.0] {
        around(((j + 0.5) * ln2 / 2.0) as f32, 64, &mut xs);
    }
    assert_block_matches(&xs, tanh_block, f32::tanh, "tanh");
}

#[test]
fn sin_block_matches_libm_around_every_threshold() {
    let mut xs = Vec::new();
    // sinf's branches: 2^-126 and 2^-12 (tiny inputs return y), the
    // π/4 test (its top 12 bits: 0.75) and π/4 itself, 120 (the domain).
    for c in [
        2f32.powi(-126),
        2f32.powi(-12),
        0.75,
        core::f32::consts::FRAC_PI_4,
        120.0,
    ] {
        around(c, 64, &mut xs);
    }
    // Every quadrant boundary of the reduction below 120.
    let mut k = 1.0f64;
    while k * core::f64::consts::FRAC_PI_4 < 120.0 {
        around((k * core::f64::consts::FRAC_PI_4) as f32, 64, &mut xs);
        k += 1.0;
    }
    assert_block_matches(&xs, sin_block, f32::sin, "sin");
}

#[test]
fn both_blocks_match_libm_on_a_strided_sweep_of_all_patterns() {
    let xs = strided_sweep();
    assert_block_matches(&xs, tanh_block, f32::tanh, "tanh");
    assert_block_matches(&xs, sin_block, f32::sin, "sin");
}

/// Every 101st pattern with `lo ≤ |x| < hi`, both signs.
fn dense_sweep(lo: f32, hi: f32) -> Vec<f32> {
    (lo.to_bits()..hi.to_bits())
        .step_by(101)
        .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
        .collect()
}

#[test]
fn both_blocks_match_libm_densely_where_audio_lives() {
    // Overdrive inputs (drive × sample) and LFO / carrier arguments
    // (TAU × phase) sit in these ranges; a rounding slip in the ports
    // (one fused operation where the library has two, say) shows up here
    // at a rate of about one input in 10^4, so ~2 million inputs catch it
    // where the sparse sweep above may not.
    assert_block_matches(
        &dense_sweep(2f32.powi(-8), 32.0),
        tanh_block,
        f32::tanh,
        "tanh",
    );
    assert_block_matches(&dense_sweep(2f32.powi(-8), 8.0), sin_block, f32::sin, "sin");
}

#[test]
fn every_length_and_offset_matches_libm() {
    // Groups of eight, tails of 0–7, and special lanes (0, ±∞, NaN, 100,
    // 1e-40) at every offset.
    let mut pool: Vec<f32> = (0..40).map(|i| (i as f32 - 20.0) * 0.37).collect();
    for (i, s) in [
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        100.0,
        1e-40,
    ]
    .into_iter()
    .enumerate()
    {
        pool[i * 7 % 40] = s;
    }
    for len in 0..=23 {
        for start in 0..pool.len() - len {
            let xs = &pool[start..start + len];
            assert_block_matches(xs, tanh_block, f32::tanh, "tanh");
            assert_block_matches(xs, sin_block, f32::sin, "sin");
        }
    }
}
