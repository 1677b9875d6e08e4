//! Phaser: a chain of LFO-swept first-order allpass sections.

use crate::buffer::AudioBuf;
use crate::effects::{modulation_table, Effect, MOD_BLOCK};
use crate::osc::{Oscillator, Waveform};

/// First-order allpass section state per channel.
#[derive(Debug, Clone, Copy, Default)]
struct AllpassState {
    x1: f32,
    y1: f32,
}

impl AllpassState {
    /// y[n] = -a*x[n] + x[n-1] + a*y[n-1]  (first-order allpass)
    #[inline]
    fn tick(&mut self, a: f32, x: f32) -> f32 {
        let y = -a * x + self.x1 + a * self.y1;
        self.x1 = x;
        self.y1 = y;
        y
    }
}

/// A stereo phaser with `stages` allpass sections swept by a sine LFO.
pub struct Phaser {
    stages: Vec<[AllpassState; 2]>,
    lfo: Oscillator,
    mix: f32,
    sample_rate: f32,
}

impl Phaser {
    /// Phaser with LFO `rate_hz`, `stages` allpass sections (2–12 typical)
    /// and dry/wet `mix`.
    pub fn new(sample_rate: u32, rate_hz: f32, stages: usize, mix: f32) -> Self {
        Phaser {
            stages: vec![[AllpassState::default(); 2]; stages.clamp(1, 16)],
            lfo: Oscillator::new(Waveform::Sine, rate_hz, sample_rate),
            mix: mix.clamp(0.0, 1.0),
            sample_rate: sample_rate as f32,
        }
    }

    /// The per-frame definition of the phaser: one LFO step, then per
    /// channel one pass down the allpass chain. Test and bench oracle for
    /// [`process`](Effect::process); nothing at run time calls it.
    pub fn process_reference(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels();
        let frames = buf.frames();
        for i in 0..frames {
            // Sweep the allpass coefficient between 0.2 and 0.8.
            let lfo = self.lfo.next_sample();
            let a = 0.5 + 0.3 * lfo;
            for ch in 0..channels.min(2) {
                let dry = buf.sample(ch, i);
                let mut wet = dry;
                for st in &mut self.stages {
                    wet = st[ch].tick(a, wet);
                }
                buf.set_sample(ch, i, dry * (1.0 - self.mix) + wet * self.mix);
            }
        }
    }
}

impl Phaser {
    /// The block kernel without AVX2, and for more than four stages: the
    /// LFO's allpass coefficients for up to `MOD_BLOCK` frames go into a
    /// stack table, then each channel plane runs down the chain against it.
    fn process_planes(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels().min(2);
        let frames = buf.frames();
        let mix = self.mix;
        let mut coeffs = [0.0f32; MOD_BLOCK];
        for start in (0..frames).step_by(MOD_BLOCK) {
            let coeffs = &mut coeffs[..(frames - start).min(MOD_BLOCK)];
            // Sweep the allpass coefficient between 0.2 and 0.8.
            modulation_table(&mut self.lfo, coeffs, 0.5, 0.3);
            for ch in 0..channels {
                let plane = &mut buf.channel_mut(ch)[start..start + coeffs.len()];
                for (x, &a) in plane.iter_mut().zip(&*coeffs) {
                    let dry = *x;
                    let mut wet = dry;
                    for st in &mut self.stages {
                        wet = st[ch].tick(a, wet);
                    }
                    *x = dry * (1.0 - mix) + wet * mix;
                }
            }
        }
    }
}

impl Effect for Phaser {
    /// Bit for bit [`process_reference`](Phaser::process_reference), block
    /// by block. On a CPU with AVX2 a chain of up to four stages runs as a
    /// wavefront (lane `2s + c` is stage `s`, channel `c`; at step `t`
    /// stage `s` filters frame `t − s`); elsewhere each channel plane runs
    /// down the chain in turn.
    fn process(&mut self, buf: &mut AudioBuf) {
        #[cfg(target_arch = "x86_64")]
        if self.stages.len() <= x86::STAGES && crate::simd::avx2_fma_available() {
            // SAFETY: AVX2 presence was just verified at runtime.
            unsafe { x86::wavefront(self, buf) };
            return;
        }
        self.process_planes(buf);
    }

    fn reset(&mut self) {
        for st in &mut self.stages {
            *st = [AllpassState::default(); 2];
        }
        self.lfo = Oscillator::new(Waveform::Sine, self.lfo.freq(), self.sample_rate as u32);
    }

    fn name(&self) -> &'static str {
        "phaser"
    }
}

/// The AVX2 wavefront: the allpass chain's stages side by side in lanes.
///
/// # Safety
/// Every `unsafe fn` here requires a CPU with AVX2: the caller checks
/// [`crate::simd::avx2_fma_available`] first. Vector loads read a stack
/// table through bounds-checked slices of eight; stores go to stack arrays.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AllpassState, Phaser};
    use crate::buffer::AudioBuf;
    use crate::effects::{modulation_table, MOD_BLOCK};
    use crate::simd::wave::{frame, live_lanes, pair, rotate_up};
    use core::arch::x86_64::*;

    /// Stages per vector: lane `2s + c` holds stage `s`, channel `c`.
    pub(super) const STAGES: usize = 4;
    /// Table slots before the block's last pair: the drain's last step
    /// reads up to `STAGES − 1` pairs past it.
    const PAD: usize = 2 * (STAGES - 1);

    /// [`Phaser::process_planes`] on a chain of 1–4 stages. Per block,
    /// the coefficient table is stored reversed with each coefficient
    /// twice, so the one load at `PAD + 2(k − 1 − t)` gives lane `2s + c`
    /// its frame's `a[t − s]`. The dry/wet mix is applied to frame
    /// `t − n + 1` as it leaves the last stage.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wavefront(fx: &mut Phaser, buf: &mut AudioBuf) {
        let n = fx.stages.len();
        let mix = fx.mix;
        let (last, sign) = (2 * (n - 1), _mm256_set1_ps(-0.0));
        let stage = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
        let (mut x1, mut y1) = ([0.0f32; 8], [0.0f32; 8]);
        for (s, st) in fx.stages.iter().enumerate() {
            for ch in 0..2 {
                x1[2 * s + ch] = st[ch].x1;
                y1[2 * s + ch] = st[ch].y1;
            }
        }
        let mut x1v = _mm256_loadu_ps(x1.as_ptr());
        let mut y1v = _mm256_loadu_ps(y1.as_ptr());
        let mut y = _mm256_setzero_ps();
        let mut coeffs = [0.0f32; MOD_BLOCK];
        // `PAD` slack, `a[k − 1]` twice, …, `a[0]` twice, then the slack
        // the first step's load reads past `a[0]`.
        let mut table = [0.0f32; PAD + 2 * MOD_BLOCK + 6];
        let channels = buf.channels();
        for (l, r) in buf.frames_chunks_mut(MOD_BLOCK) {
            let k = l.len();
            let coeffs = &mut coeffs[..k];
            // Sweep the allpass coefficient between 0.2 and 0.8.
            modulation_table(&mut fx.lfo, coeffs, 0.5, 0.3);
            for (f, &a) in coeffs.iter().enumerate() {
                let at = PAD + 2 * (k - 1 - f);
                table[at] = a;
                table[at + 1] = a;
            }
            for t in 0..k + n - 1 {
                let fresh = if t < k {
                    frame(l, r, t)
                } else {
                    _mm256_setzero_ps()
                };
                let x = _mm256_blend_ps::<0b11>(rotate_up(y), fresh);
                let at = PAD + 2 * (k - 1) - 2 * t;
                let a = _mm256_loadu_ps(table[at..at + 8].as_ptr());
                // y = (−a·x + x1) + a·y1, `tick`'s order.
                let neg_a = _mm256_xor_ps(a, sign);
                y = _mm256_add_ps(
                    _mm256_add_ps(_mm256_mul_ps(neg_a, x), x1v),
                    _mm256_mul_ps(a, y1v),
                );
                if t + 1 >= n && t < k {
                    x1v = x;
                    y1v = y;
                } else {
                    let live = live_lanes(stage, t, k);
                    x1v = _mm256_blendv_ps(x1v, x, live);
                    y1v = _mm256_blendv_ps(y1v, y, live);
                }
                if t + 1 >= n {
                    let f = t + 1 - n;
                    let (left, right) = pair(y, last);
                    let dry = l[f];
                    l[f] = dry * (1.0 - mix) + left * mix;
                    if !r.is_empty() {
                        let dry = r[f];
                        r[f] = dry * (1.0 - mix) + right * mix;
                    }
                }
            }
        }
        _mm256_storeu_ps(x1.as_mut_ptr(), x1v);
        _mm256_storeu_ps(y1.as_mut_ptr(), y1v);
        for (s, st) in fx.stages.iter_mut().enumerate() {
            for ch in 0..channels {
                st[ch] = AllpassState {
                    x1: x1[2 * s + ch],
                    y1: y1[2 * s + ch],
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allpass_preserves_energy_of_steady_tone() {
        // A pure allpass chain (mix irrelevant here: feed wet only) keeps the
        // magnitude of a steady sine at ~1.
        use crate::osc::{Oscillator, Waveform};
        let mut st = AllpassState::default();
        let mut osc = Oscillator::new(Waveform::Sine, 1000.0, 44_100);
        // settle
        for _ in 0..4096 {
            st.tick(0.5, osc.next_sample());
        }
        let mut inp = 0.0f32;
        let mut out = 0.0f32;
        for _ in 0..4096 {
            let x = osc.next_sample();
            let y = st.tick(0.5, x);
            inp += x * x;
            out += y * y;
        }
        let ratio = (out / inp).sqrt();
        assert!((ratio - 1.0).abs() < 0.02, "allpass gain {ratio}");
    }

    #[test]
    fn per_plane_loop_equals_reference_at_every_stage_count() {
        // `process` takes the wavefront for 1–4 stages on an AVX2 host;
        // the loop it replaces there stays the path without AVX2.
        let mut noise = crate::osc::NoiseSource::new(9);
        for stages in [1, 2, 3, 4, 16] {
            for (channels, frames) in [(1, 129), (2, 3), (2, 128)] {
                let mut planes = Phaser::new(44_100, 0.3, stages, 0.6);
                let mut reference = Phaser::new(44_100, 0.3, stages, 0.6);
                for _ in 0..20 {
                    let dry = AudioBuf::from_fn(channels, frames, |_, _| noise.next_sample());
                    let (mut got, mut want) = (dry.clone(), dry);
                    planes.process_planes(&mut got);
                    reference.process_reference(&mut want);
                    let bits =
                        |b: &AudioBuf| b.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{stages} stages, {channels} ch x {frames}"
                    );
                }
            }
        }
    }

    #[test]
    fn stage_count_clamped() {
        assert_eq!(Phaser::new(44_100, 1.0, 0, 0.5).stages.len(), 1);
        assert_eq!(Phaser::new(44_100, 1.0, 100, 0.5).stages.len(), 16);
    }

    #[test]
    fn phaser_output_bounded_on_square_wave() {
        let mut fx = Phaser::new(44_100, 2.0, 6, 0.7);
        let mut osc = Oscillator::new(Waveform::Square, 200.0, 44_100);
        for _ in 0..100 {
            let mut buf = AudioBuf::from_fn(2, 128, |_, _| osc.next_sample() * 0.8);
            fx.process(&mut buf);
            assert!(buf.is_finite());
            assert!(buf.peak() < 4.0);
        }
    }
}
