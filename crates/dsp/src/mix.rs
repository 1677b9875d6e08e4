//! Mixer arithmetic: crossfades and channel summing — the "Mixer" node of
//! Fig. 3.
//!
//! [`mix_into`] is the hottest loop in the graph (every summing node runs
//! it). Its reference is one clear pass plus one read-modify-write
//! [`AudioBuf::mix_add`] pass per input. On a CPU with AVX, a sum of one
//! to sixteen inputs that share the output's layout instead makes a
//! *single* fused pass per channel plane: each output lane block
//! accumulates every input in registers. Accumulation order matches the
//! reference add-for-add, so the fused pass is bit-identical.

use crate::buffer::AudioBuf;
use crate::db::crossfade_gains;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// The gain contribution of a channel given the master crossfader position
/// `x` in `[0, 1]` and the channel's side assignment.
pub fn crossfader_gain(x: f32, side: f32) -> f32 {
    let (a, b) = crossfade_gains(x);
    if side < -0.5 {
        a
    } else if side > 0.5 {
        b
    } else {
        1.0
    }
}

/// Sum `inputs[i] * gains[i]` into `out` (cleared first).
///
/// # Panics
/// Panics if `inputs` and `gains` lengths differ.
pub fn mix_into(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    assert_eq!(inputs.len(), gains.len(), "one gain per input");
    let _t = crate::kprof::timer(crate::kprof::Family::Mix);
    #[cfg(target_arch = "x86_64")]
    if (1..=MAX_FUSED_INPUTS).contains(&inputs.len())
        && inputs
            .iter()
            .all(|b| b.channels() == out.channels() && b.frames() == out.frames())
        && simd::avx_available()
    {
        // SAFETY: AVX presence was just verified at runtime.
        unsafe { mix_into_fused_avx(out, inputs, gains) };
        return;
    }
    mix_into_scalar(out, inputs, gains);
}

/// Scalar reference for [`mix_into`]: clear, then one read-modify-write
/// pass per input — the seed's algorithm, and the path every sum the fused
/// pass does not take runs.
pub fn mix_into_scalar(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    assert_eq!(inputs.len(), gains.len(), "one gain per input");
    out.clear();
    for (buf, &g) in inputs.iter().zip(gains) {
        out.mix_add(buf, g);
    }
}

/// Most inputs the fused pass handles (the graph's widest summing node is
/// well under this); wider mixes take the reference.
#[cfg(target_arch = "x86_64")]
const MAX_FUSED_INPUTS: usize = 16;

/// The fused pass: 8-lane AVX, 32-frame blocks with four independent
/// accumulator chains, then 8-frame blocks, then a scalar tail. Each output
/// sample sums its inputs zero-seeded in input order with lane-wise
/// `vmulps`/`vaddps` (no FMA) — the reference's clear + `mix_add` sequence
/// bit for bit; the chains only overlap *different* samples, hiding the
/// add latency a single accumulator would serialize on. The fixed-length
/// sub-slices let the bounds checks collapse to one per input and block,
/// and every unaligned load and store reads or writes eight floats of a
/// sub-slice at least eight long.
///
/// # Safety
/// The caller must verify AVX support first ([`simd::avx_available`]).
/// `inputs` must share `out`'s layout; at most `MAX_FUSED_INPUTS` of them
/// are summed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mix_into_fused_avx(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    use core::arch::x86_64::*;
    let mut gv = [_mm256_setzero_ps(); MAX_FUSED_INPUTS];
    for (slot, &g) in gv.iter_mut().zip(gains) {
        *slot = _mm256_set1_ps(g);
    }
    let frames = out.frames();
    let mut planes: [&[f32]; MAX_FUSED_INPUTS] = [&[]; MAX_FUSED_INPUTS];
    for ch in 0..out.channels() {
        for (slot, input) in planes.iter_mut().zip(inputs) {
            *slot = input.channel(ch);
        }
        let planes = &planes[..inputs.len()];
        let plane = out.channel_mut(ch);
        let mut i = 0;
        while i + 32 <= frames {
            let mut acc = [_mm256_setzero_ps(); 4];
            for (src, g) in planes.iter().zip(&gv) {
                let s = &src[i..i + 32];
                for (j, a) in acc.iter_mut().enumerate() {
                    let v = _mm256_loadu_ps(s[8 * j..].as_ptr());
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(*g, v));
                }
            }
            let d = &mut plane[i..i + 32];
            for (j, a) in acc.into_iter().enumerate() {
                _mm256_storeu_ps(d[8 * j..].as_mut_ptr(), a);
            }
            i += 32;
        }
        while i + 8 <= frames {
            let mut acc = _mm256_setzero_ps();
            for (src, g) in planes.iter().zip(&gv) {
                let v = _mm256_loadu_ps(src[i..i + 8].as_ptr());
                acc = _mm256_add_ps(acc, _mm256_mul_ps(*g, v));
            }
            _mm256_storeu_ps(plane[i..i + 8].as_mut_ptr(), acc);
            i += 8;
        }
        for i in i..frames {
            let mut acc = 0.0f32;
            for (src, &g) in planes.iter().zip(gains) {
                acc += g * src[i];
            }
            plane[i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossfader_sides() {
        assert!((crossfader_gain(0.0, -1.0) - 1.0).abs() < 1e-6);
        assert!(crossfader_gain(1.0, -1.0).abs() < 1e-6);
        assert!(crossfader_gain(0.0, 1.0).abs() < 1e-6);
        assert!((crossfader_gain(1.0, 1.0) - 1.0).abs() < 1e-6);
        assert_eq!(crossfader_gain(0.3, 0.0), 1.0);
    }

    #[test]
    fn mix_into_sums_weighted() {
        let a = AudioBuf::from_fn(2, 2, |_, _| 1.0);
        let b = AudioBuf::from_fn(2, 2, |_, _| 2.0);
        let mut out = AudioBuf::from_fn(2, 2, |_, _| 99.0); // must be cleared
        mix_into(&mut out, &[&a, &b], &[1.0, 0.5]);
        assert!(out.samples().iter().all(|&s| (s - 2.0).abs() < 1e-6));
    }

    #[test]
    fn fused_mix_matches_scalar_exactly() {
        // 5 inputs, odd frame count for the tail path.
        let inputs: Vec<AudioBuf> = (0..5)
            .map(|k| AudioBuf::from_fn(2, 53, |ch, i| ((ch + i) as f32 * 0.1 + k as f32) * 0.07))
            .collect();
        let refs: Vec<&AudioBuf> = inputs.iter().collect();
        let gains = [1.0, 0.5, 0.25, 0.8, 0.33];
        let mut fused = AudioBuf::zeroed(2, 53);
        let mut scalar = AudioBuf::zeroed(2, 53);
        mix_into(&mut fused, &refs, &gains);
        mix_into_scalar(&mut scalar, &refs, &gains);
        assert_eq!(fused.samples(), scalar.samples());
    }

    /// The fused tier and its fallback, called directly: every input count
    /// it takes at every block/tail split, mono and stereo, bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fused_avx_tier_equals_its_fallback_bit_for_bit() {
        assert!(
            crate::simd::avx_available(),
            "this test covers the AVX tier; run it on a CPU with AVX"
        );
        for channels in [1, 2] {
            for frames in [1, 7, 8, 31, 32, 33, 71, 128] {
                for count in 1..=MAX_FUSED_INPUTS {
                    let inputs: Vec<AudioBuf> = (0..count)
                        .map(|k| {
                            AudioBuf::from_fn(channels, frames, |ch, i| {
                                ((ch * frames + i + 11 * k) as f32 * 0.37).sin()
                            })
                        })
                        .collect();
                    let refs: Vec<&AudioBuf> = inputs.iter().collect();
                    let gains: Vec<f32> = (0..count).map(|k| 1.3 - 0.17 * k as f32).collect();
                    let mut fused = AudioBuf::from_fn(channels, frames, |_, _| 99.0);
                    let mut scalar = AudioBuf::zeroed(channels, frames);
                    // SAFETY: AVX presence was asserted above.
                    unsafe { mix_into_fused_avx(&mut fused, &refs, &gains) };
                    mix_into_scalar(&mut scalar, &refs, &gains);
                    let bits =
                        |b: &AudioBuf| b.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&fused),
                        bits(&scalar),
                        "{count} in, {channels}ch x {frames}f"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_layout_inputs_fall_back_correctly() {
        let stereo = AudioBuf::from_fn(2, 8, |ch, i| (ch * 8 + i) as f32 * 0.1);
        let mono = AudioBuf::from_fn(1, 8, |_, i| i as f32 * 0.2);
        let mut fused = AudioBuf::zeroed(2, 8);
        let mut scalar = AudioBuf::zeroed(2, 8);
        mix_into(&mut fused, &[&stereo, &mono], &[0.9, 0.6]);
        mix_into_scalar(&mut scalar, &[&stereo, &mono], &[0.9, 0.6]);
        assert_eq!(fused.samples(), scalar.samples());
    }

    #[test]
    fn mixing_is_linear() {
        // mix(a, gains g) + mix(b, gains g) == mix(a + b, gains g)
        let a = AudioBuf::from_fn(2, 8, |ch, i| (ch + i) as f32 * 0.1);
        let b = AudioBuf::from_fn(2, 8, |ch, i| (ch as f32 - i as f32) * 0.05);
        let mut ab = a.clone();
        ab.mix_add(&b, 1.0);

        let mut out_a = AudioBuf::zeroed(2, 8);
        let mut out_b = AudioBuf::zeroed(2, 8);
        let mut out_ab = AudioBuf::zeroed(2, 8);
        mix_into(&mut out_a, &[&a], &[0.7]);
        mix_into(&mut out_b, &[&b], &[0.7]);
        mix_into(&mut out_ab, &[&ab], &[0.7]);
        for i in 0..out_ab.samples().len() {
            let sum = out_a.samples()[i] + out_b.samples()[i];
            assert!((sum - out_ab.samples()[i]).abs() < 1e-5);
        }
    }
}
