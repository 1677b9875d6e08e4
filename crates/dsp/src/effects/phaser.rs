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

impl Effect for Phaser {
    /// Bit for bit [`process_reference`](Phaser::process_reference), block
    /// by block: the LFO's allpass coefficients for up to `MOD_BLOCK`
    /// frames go into a stack table, then each channel plane runs down the
    /// chain against it.
    fn process(&mut self, buf: &mut AudioBuf) {
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
