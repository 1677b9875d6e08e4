//! Mixer arithmetic: gains, pans, crossfades and channel summing —
//! the "Mixer" node of Fig. 3.
//!
//! [`mix_into`] is the hottest loop in the graph (every summing node runs
//! it): when all inputs share the output's layout it makes a *single*
//! fused pass per channel plane — each output lane block accumulates every
//! input in registers — instead of one clear pass plus one read-modify-
//! write pass per input. Accumulation order matches the scalar reference
//! add-for-add, so the fused pass is bit-identical.

use crate::buffer::AudioBuf;
use crate::db::{crossfade_gains, pan_gains};
use crate::simd::{self, F32x4};

/// Per-channel strip settings feeding the mixer.
#[derive(Debug, Clone, Copy)]
pub struct ChannelStripParams {
    /// Channel fader gain (linear, >= 0).
    pub fader: f32,
    /// Pan position in `[-1, 1]`.
    pub pan: f32,
    /// Crossfader side assignment: -1 = side A, 0 = center (unaffected),
    /// +1 = side B.
    pub crossfader_side: f32,
}

impl Default for ChannelStripParams {
    fn default() -> Self {
        ChannelStripParams {
            fader: 1.0,
            pan: 0.0,
            crossfader_side: 0.0,
        }
    }
}

/// Apply fader gain and equal-power pan to a stereo buffer in place.
pub fn apply_strip(buf: &mut AudioBuf, params: &ChannelStripParams) {
    let _t = crate::kprof::timer(crate::kprof::Family::Mix);
    let (gl, gr) = strip_gains(params);
    match buf.channels() {
        2 => {
            let (l, r) = buf.as_planar_slices_mut();
            if simd::wide_enabled() {
                crate::buffer::scale_slice_wide(l, gl);
                crate::buffer::scale_slice_wide(r, gr);
            } else {
                for s in l {
                    *s *= gl;
                }
                for s in r {
                    *s *= gr;
                }
            }
        }
        _ => buf.scale(params.fader),
    }
}

/// Scalar reference for [`apply_strip`]; bit-identical to the vector path.
pub fn apply_strip_scalar(buf: &mut AudioBuf, params: &ChannelStripParams) {
    let (gl, gr) = strip_gains(params);
    match buf.channels() {
        2 => {
            let frames = buf.frames();
            for i in 0..frames {
                let l = buf.sample(0, i);
                let r = buf.sample(1, i);
                buf.set_sample(0, i, l * gl);
                buf.set_sample(1, i, r * gr);
            }
        }
        _ => buf.scale_scalar(params.fader),
    }
}

/// Left/right linear gains of a strip: fader x equal-power pan, scaled so
/// center position is transparent (cos 45° ≈ 0.707 would otherwise
/// attenuate both channels).
fn strip_gains(params: &ChannelStripParams) -> (f32, f32) {
    let (pl, pr) = pan_gains(params.pan);
    let norm = core::f32::consts::SQRT_2;
    (params.fader * pl * norm, params.fader * pr * norm)
}

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
/// When every input shares `out`'s layout this is a single fused pass per
/// channel plane; mixed layouts (mono taps into a stereo bus and vice
/// versa) fall back to per-input [`AudioBuf::mix_add`] passes.
///
/// # Panics
/// Panics if `inputs` and `gains` lengths differ.
pub fn mix_into(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    assert_eq!(inputs.len(), gains.len(), "one gain per input");
    let _t = crate::kprof::timer(crate::kprof::Family::Mix);
    let uniform = inputs
        .iter()
        .all(|b| b.channels() == out.channels() && b.frames() == out.frames());
    if simd::wide_enabled() && uniform && !inputs.is_empty() && inputs.len() <= MAX_FUSED_INPUTS {
        #[cfg(target_arch = "x86_64")]
        {
            if simd::avx512_available() {
                // SAFETY: AVX-512F presence was just verified at runtime.
                unsafe { mix_into_fused_avx512(out, inputs, gains) };
                return;
            }
            if simd::avx_available() {
                // SAFETY: AVX presence was just verified at runtime.
                unsafe { mix_into_fused_avx(out, inputs, gains) };
                return;
            }
        }
        mix_into_fused(out, inputs, gains);
    } else {
        out.clear();
        for (buf, &g) in inputs.iter().zip(gains) {
            out.mix_add(buf, g);
        }
    }
}

/// Scalar reference for [`mix_into`]: clear, then one read-modify-write
/// pass per input — the seed's algorithm. Bit-identical to the fused pass.
pub fn mix_into_scalar(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    assert_eq!(inputs.len(), gains.len(), "one gain per input");
    out.clear();
    for (buf, &g) in inputs.iter().zip(gains) {
        out.mix_add(buf, g);
    }
}

/// Most inputs the fused pass handles (the graph's widest summing node is
/// well under this); wider mixes fall back to per-input passes.
const MAX_FUSED_INPUTS: usize = 16;

fn mix_into_fused(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    let mut gv = [F32x4::zero(); MAX_FUSED_INPUTS];
    for (slot, &g) in gv.iter_mut().zip(gains) {
        *slot = F32x4::splat(g);
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
        // Four independent accumulator chains per 16-frame block. Each
        // output sample still sums its inputs zero-seeded in input order
        // (the scalar clear + mix_add sequence, bit-for-bit); the chains
        // only overlap *different* samples, hiding the vector-add latency
        // a single accumulator would serialize on. The fixed-length
        // sub-slices let the bounds checks collapse to one per input.
        while i + 16 <= frames {
            let mut a0 = F32x4::zero();
            let mut a1 = F32x4::zero();
            let mut a2 = F32x4::zero();
            let mut a3 = F32x4::zero();
            for (k, src) in planes.iter().enumerate() {
                let s = &src[i..i + 16];
                let g = gv[k];
                a0 = a0.add(g.mul(F32x4::load(&s[0..])));
                a1 = a1.add(g.mul(F32x4::load(&s[4..])));
                a2 = a2.add(g.mul(F32x4::load(&s[8..])));
                a3 = a3.add(g.mul(F32x4::load(&s[12..])));
            }
            let d = &mut plane[i..i + 16];
            a0.store(&mut d[0..]);
            a1.store(&mut d[4..]);
            a2.store(&mut d[8..]);
            a3.store(&mut d[12..]);
            i += 16;
        }
        while i + 4 <= frames {
            let mut acc = F32x4::zero();
            for (k, src) in planes.iter().enumerate() {
                acc = acc.add(gv[k].mul(F32x4::load(&src[i..i + 4])));
            }
            acc.store(&mut plane[i..i + 4]);
            i += 4;
        }
        for i in i..frames {
            let mut acc = 0.0f32;
            for (k, src) in planes.iter().enumerate() {
                acc += gains[k] * src[i];
            }
            plane[i] = acc;
        }
    }
}

/// The 8-lane AVX variant of [`mix_into_fused`]. Identical per-sample add
/// sequence (zero-seeded, input order, lane-wise `vmulps`/`vaddps`, no
/// FMA), so the output is bit-for-bit the same as the SSE2 and scalar
/// paths — the wider lanes and four independent accumulator chains only
/// raise arithmetic throughput, which is what the fused pass saturates
/// once memory traffic is already minimal.
///
/// # Safety
/// The caller must verify AVX support first ([`simd::avx_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mix_into_fused_avx(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    use core::arch::x86_64::*;
    let mut gv = [_mm256_setzero_ps(); MAX_FUSED_INPUTS];
    for (slot, &g) in gv.iter_mut().zip(gains) {
        *slot = _mm256_set1_ps(g);
    }
    let frames = out.frames();
    let mut srcs: [*const f32; MAX_FUSED_INPUTS] = [core::ptr::null(); MAX_FUSED_INPUTS];
    for ch in 0..out.channels() {
        // Raw plane pointers: every offset below stays within
        // `[0, frames)` of planes that are all exactly `frames` long, and
        // `out` cannot alias the (shared-borrowed) inputs.
        for (slot, input) in srcs.iter_mut().zip(inputs) {
            *slot = input.channel(ch).as_ptr();
        }
        let srcs = &srcs[..inputs.len()];
        let dst = out.channel_mut(ch).as_mut_ptr();
        let mut i = 0;
        while i + 32 <= frames {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (k, &src) in srcs.iter().enumerate() {
                let s = src.add(i);
                let g = gv[k];
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(g, _mm256_loadu_ps(s)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(g, _mm256_loadu_ps(s.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(g, _mm256_loadu_ps(s.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(g, _mm256_loadu_ps(s.add(24))));
            }
            _mm256_storeu_ps(dst.add(i), a0);
            _mm256_storeu_ps(dst.add(i + 8), a1);
            _mm256_storeu_ps(dst.add(i + 16), a2);
            _mm256_storeu_ps(dst.add(i + 24), a3);
            i += 32;
        }
        while i + 8 <= frames {
            let mut acc = _mm256_setzero_ps();
            for (k, &src) in srcs.iter().enumerate() {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(gv[k], _mm256_loadu_ps(src.add(i))));
            }
            _mm256_storeu_ps(dst.add(i), acc);
            i += 8;
        }
        for i in i..frames {
            let mut acc = 0.0f32;
            for (k, &src) in srcs.iter().enumerate() {
                acc += gains[k] * *src.add(i);
            }
            *dst.add(i) = acc;
        }
    }
}

/// The 16-lane AVX-512 variant of [`mix_into_fused`]; same bit-exactness
/// argument as [`mix_into_fused_avx`] (lane-wise `vmulps`/`vaddps`, no FMA,
/// zero-seeded input-order accumulation), with 64-frame blocks so four
/// independent zmm accumulator chains keep both FP ports saturated.
///
/// # Safety
/// The caller must verify AVX-512F support first
/// ([`simd::avx512_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mix_into_fused_avx512(out: &mut AudioBuf, inputs: &[&AudioBuf], gains: &[f32]) {
    use core::arch::x86_64::*;
    let mut gv = [_mm512_setzero_ps(); MAX_FUSED_INPUTS];
    for (slot, &g) in gv.iter_mut().zip(gains) {
        *slot = _mm512_set1_ps(g);
    }
    let frames = out.frames();
    let mut srcs: [*const f32; MAX_FUSED_INPUTS] = [core::ptr::null(); MAX_FUSED_INPUTS];
    for ch in 0..out.channels() {
        // Raw plane pointers: every offset below stays within
        // `[0, frames)` of planes that are all exactly `frames` long, and
        // `out` cannot alias the (shared-borrowed) inputs.
        for (slot, input) in srcs.iter_mut().zip(inputs) {
            *slot = input.channel(ch).as_ptr();
        }
        let srcs = &srcs[..inputs.len()];
        let dst = out.channel_mut(ch).as_mut_ptr();
        let mut i = 0;
        while i + 64 <= frames {
            let mut a0 = _mm512_setzero_ps();
            let mut a1 = _mm512_setzero_ps();
            let mut a2 = _mm512_setzero_ps();
            let mut a3 = _mm512_setzero_ps();
            for (k, &src) in srcs.iter().enumerate() {
                let s = src.add(i);
                let g = gv[k];
                a0 = _mm512_add_ps(a0, _mm512_mul_ps(g, _mm512_loadu_ps(s)));
                a1 = _mm512_add_ps(a1, _mm512_mul_ps(g, _mm512_loadu_ps(s.add(16))));
                a2 = _mm512_add_ps(a2, _mm512_mul_ps(g, _mm512_loadu_ps(s.add(32))));
                a3 = _mm512_add_ps(a3, _mm512_mul_ps(g, _mm512_loadu_ps(s.add(48))));
            }
            _mm512_storeu_ps(dst.add(i), a0);
            _mm512_storeu_ps(dst.add(i + 16), a1);
            _mm512_storeu_ps(dst.add(i + 32), a2);
            _mm512_storeu_ps(dst.add(i + 48), a3);
            i += 64;
        }
        while i + 16 <= frames {
            let mut acc = _mm512_setzero_ps();
            for (k, &src) in srcs.iter().enumerate() {
                acc = _mm512_add_ps(acc, _mm512_mul_ps(gv[k], _mm512_loadu_ps(src.add(i))));
            }
            _mm512_storeu_ps(dst.add(i), acc);
            i += 16;
        }
        for i in i..frames {
            let mut acc = 0.0f32;
            for (k, &src) in srcs.iter().enumerate() {
                acc += gains[k] * *src.add(i);
            }
            *dst.add(i) = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_strip_is_transparent() {
        let params = ChannelStripParams::default();
        let orig = AudioBuf::from_fn(2, 16, |ch, i| (ch as f32 + 1.0) * i as f32 * 0.01);
        let mut buf = orig.clone();
        apply_strip(&mut buf, &params);
        for (a, b) in buf.samples().iter().zip(orig.samples()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn hard_left_pan_silences_right() {
        let params = ChannelStripParams {
            pan: -1.0,
            ..Default::default()
        };
        let mut buf = AudioBuf::from_fn(2, 4, |_, _| 1.0);
        apply_strip(&mut buf, &params);
        assert!(buf.sample(1, 0).abs() < 1e-6);
        assert!(buf.sample(0, 0) > 1.0); // sqrt(2) * cos(0)
    }

    #[test]
    fn fader_scales() {
        let params = ChannelStripParams {
            fader: 0.5,
            ..Default::default()
        };
        let mut buf = AudioBuf::from_fn(2, 2, |_, _| 1.0);
        apply_strip(&mut buf, &params);
        assert!((buf.sample(0, 0) - 0.5).abs() < 1e-5);
    }

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
    fn strip_wide_matches_scalar_exactly() {
        let params = ChannelStripParams {
            fader: 0.8,
            pan: 0.4,
            crossfader_side: -1.0,
        };
        let orig = AudioBuf::from_fn(2, 45, |ch, i| ((ch * 45 + i) as f32 * 0.37).sin());
        let mut a = orig.clone();
        let mut b = orig;
        apply_strip(&mut a, &params);
        apply_strip_scalar(&mut b, &params);
        assert_eq!(a.samples(), b.samples());
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
