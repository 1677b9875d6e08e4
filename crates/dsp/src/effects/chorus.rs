//! Chorus: two detuned modulated-delay voices layered with the dry signal.

use crate::buffer::AudioBuf;
use crate::delayline::StereoDelayLine;
use crate::effects::{modulation_table, Effect, MOD_BLOCK};
use crate::osc::{Oscillator, Waveform};

/// A two-voice stereo chorus. Each voice reads a 15–30 ms delay tap swept by
/// its own LFO; voices run at slightly different rates so left and right
/// decorrelate.
pub struct Chorus {
    lines: StereoDelayLine,
    lfo_a: Oscillator,
    lfo_b: Oscillator,
    mix: f32,
    sample_rate: f32,
    rate_hz: f32,
}

const CENTER_S: f32 = 0.022;
const SWING_S: f32 = 0.007;

impl Chorus {
    /// Chorus with base LFO `rate_hz` and dry/wet `mix`.
    pub fn new(sample_rate: u32, rate_hz: f32, mix: f32) -> Self {
        let cap = ((CENTER_S + SWING_S) * sample_rate as f32) as usize + 4;
        Chorus {
            lines: StereoDelayLine::new(cap),
            lfo_a: Oscillator::new(Waveform::Sine, rate_hz, sample_rate),
            lfo_b: Oscillator::new(Waveform::Sine, rate_hz * 1.31, sample_rate),
            mix: mix.clamp(0.0, 1.0),
            sample_rate: sample_rate as f32,
            rate_hz,
        }
    }

    /// The per-frame definition of the chorus: one step of each LFO, then
    /// per channel one `push` and two `read_frac`s. Test and bench oracle
    /// for [`process`](Effect::process); nothing at run time calls it.
    pub fn process_reference(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels();
        let frames = buf.frames();
        let center = CENTER_S * self.sample_rate;
        let swing = SWING_S * self.sample_rate;
        for i in 0..frames {
            let la = self.lfo_a.next_sample();
            let lb = self.lfo_b.next_sample();
            let d_a = center + swing * la;
            let d_b = center + swing * lb;
            for ch in 0..channels.min(2) {
                let dry = buf.sample(ch, i);
                let line = self.lines.channel(ch);
                line.push(dry);
                let wet = 0.5 * (line.read_frac(d_a) + line.read_frac(d_b));
                buf.set_sample(ch, i, dry * (1.0 - self.mix) + wet * self.mix);
            }
        }
    }
}

impl Effect for Chorus {
    /// Bit for bit [`process_reference`](Chorus::process_reference), block
    /// by block: both voices' delays for up to `MOD_BLOCK` frames go into
    /// stack tables, then each channel plane runs against its delay line.
    fn process(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels().min(2);
        let frames = buf.frames();
        let center = CENTER_S * self.sample_rate;
        let swing = SWING_S * self.sample_rate;
        let mix = self.mix;
        let mut delays = [[0.0f32; MOD_BLOCK]; 2];
        for start in (0..frames).step_by(MOD_BLOCK) {
            let len = (frames - start).min(MOD_BLOCK);
            let [d_a, d_b] = &mut delays;
            let (d_a, d_b) = (&mut d_a[..len], &mut d_b[..len]);
            modulation_table(&mut self.lfo_a, d_a, center, swing);
            modulation_table(&mut self.lfo_b, d_b, center, swing);
            for ch in 0..channels {
                let plane = &mut buf.channel_mut(ch)[start..start + len];
                self.lines
                    .channel(ch)
                    .modulated_taps(plane, [d_a, d_b], |dry, [a, b]| {
                        let wet = 0.5 * (a + b);
                        dry * (1.0 - mix) + wet * mix
                    });
            }
        }
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.lfo_a = Oscillator::new(Waveform::Sine, self.rate_hz, self.sample_rate as u32);
        self.lfo_b = Oscillator::new(Waveform::Sine, self.rate_hz * 1.31, self.sample_rate as u32);
    }

    fn name(&self) -> &'static str {
        "chorus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chorus_delays_impulse_into_multiple_taps() {
        let mut fx = Chorus::new(44_100, 0.8, 1.0);
        let mut buf = AudioBuf::from_fn(1, 2048, |_, i| if i == 0 { 1.0 } else { 0.0 });
        fx.process(&mut buf);
        // Wet-only output: energy appears around the 15-30 ms region
        // (662-1323 samples), not at t=0.
        assert!(buf.sample(0, 0).abs() < 1e-6);
        let tail_energy: f32 = (600..1400).map(|i| buf.sample(0, i).powi(2)).sum();
        assert!(tail_energy > 0.1, "tail energy {tail_energy}");
    }

    #[test]
    fn output_bounded() {
        let mut fx = Chorus::new(44_100, 2.0, 0.5);
        for _ in 0..50 {
            let mut buf = AudioBuf::from_fn(2, 128, |_, i| if i % 2 == 0 { 0.9 } else { -0.9 });
            fx.process(&mut buf);
            assert!(buf.is_finite());
            assert!(buf.peak() < 2.0);
        }
    }
}
