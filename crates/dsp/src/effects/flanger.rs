//! Flanger: short LFO-modulated delay mixed with the dry signal.

use crate::buffer::AudioBuf;
use crate::delayline::StereoDelayLine;
use crate::effects::{modulation_table, Effect, MOD_BLOCK};
use crate::osc::{Oscillator, Waveform};

/// A stereo flanger sweeping a 1–8 ms delay with a sine LFO.
pub struct Flanger {
    lines: StereoDelayLine,
    lfo: Oscillator,
    depth: f32,
    mix: f32,
    sample_rate: f32,
}

/// Shortest modulated delay (seconds).
const MIN_DELAY_S: f32 = 0.001;
/// Longest modulated delay (seconds).
const MAX_DELAY_S: f32 = 0.008;

impl Flanger {
    /// Flanger with LFO rate `rate_hz`, sweep `depth` in `[0, 1]` and
    /// dry/wet `mix` in `[0, 1]`.
    pub fn new(sample_rate: u32, rate_hz: f32, depth: f32, mix: f32) -> Self {
        let cap = (MAX_DELAY_S * sample_rate as f32) as usize + 4;
        Flanger {
            lines: StereoDelayLine::new(cap),
            lfo: Oscillator::new(Waveform::Sine, rate_hz, sample_rate),
            depth: depth.clamp(0.0, 1.0),
            mix: mix.clamp(0.0, 1.0),
            sample_rate: sample_rate as f32,
        }
    }

    /// Centre and swing of the modulated delay, in samples.
    fn sweep(&self) -> (f32, f32) {
        let center = (MIN_DELAY_S + MAX_DELAY_S) / 2.0 * self.sample_rate;
        let swing = (MAX_DELAY_S - MIN_DELAY_S) / 2.0 * self.sample_rate * self.depth;
        (center, swing)
    }

    /// The per-frame definition of the flanger: one LFO step, then per
    /// channel one `push` and one `read_frac`. Test and bench oracle for
    /// [`process`](Effect::process); nothing at run time calls it.
    pub fn process_reference(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels();
        let frames = buf.frames();
        let (center, swing) = self.sweep();
        for i in 0..frames {
            let lfo = self.lfo.next_sample();
            let delay = center + swing * lfo;
            for ch in 0..channels.min(2) {
                let dry = buf.sample(ch, i);
                let line = self.lines.channel(ch);
                line.push(dry);
                let wet = line.read_frac(delay);
                buf.set_sample(ch, i, dry * (1.0 - self.mix) + wet * self.mix);
            }
        }
    }
}

impl Effect for Flanger {
    /// Bit for bit [`process_reference`](Flanger::process_reference), block
    /// by block: the LFO's delays for up to `MOD_BLOCK` frames go into a
    /// stack table, then each channel plane runs against its delay line.
    fn process(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels().min(2);
        let frames = buf.frames();
        let (center, swing) = self.sweep();
        let mix = self.mix;
        let mut delays = [0.0f32; MOD_BLOCK];
        for start in (0..frames).step_by(MOD_BLOCK) {
            let delays = &mut delays[..(frames - start).min(MOD_BLOCK)];
            modulation_table(&mut self.lfo, delays, center, swing);
            for ch in 0..channels {
                let plane = &mut buf.channel_mut(ch)[start..start + delays.len()];
                self.lines.channel(ch).modulated_taps(plane, delays, mix);
            }
        }
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.lfo = Oscillator::new(Waveform::Sine, self.lfo.freq(), self.sample_rate as u32);
    }

    fn name(&self) -> &'static str {
        "flanger"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::NoiseSource;

    #[test]
    fn flanger_creates_comb_notches() {
        // A flanger summing x[n] + x[n-d] creates notches; on white noise the
        // output spectrum differs from the input, which shows up as a changed
        // autocorrelation at the delay lag. We check more simply that the
        // output differs and is bounded.
        let mut fx = Flanger::new(44_100, 0.5, 1.0, 0.5);
        let mut n = NoiseSource::new(5);
        let orig = AudioBuf::from_fn(2, 512, |_, _| n.next_sample());
        let mut buf = orig.clone();
        fx.process(&mut buf);
        assert!(buf.is_finite());
        let diff: f32 = buf
            .samples()
            .iter()
            .zip(orig.samples())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.1);
    }

    #[test]
    fn zero_depth_is_fixed_comb() {
        let mut fx = Flanger::new(44_100, 1.0, 0.0, 0.5);
        // With depth 0 the delay is a constant 4.5 ms (198.45 samples): an
        // impulse yields the dry spike at 0 plus the wet spike spread over
        // the two taps the fractional read interpolates between.
        let mut buf = AudioBuf::from_fn(1, 512, |_, i| if i == 0 { 1.0 } else { 0.0 });
        fx.process(&mut buf);
        let nonzero: Vec<usize> = (0..512)
            .filter(|&i| buf.sample(0, i).abs() > 1e-4)
            .collect();
        assert!(
            nonzero.len() == 2 || nonzero.len() == 3,
            "spikes at {nonzero:?}"
        );
        assert_eq!(nonzero[0], 0);
        let center = (MIN_DELAY_S + MAX_DELAY_S) / 2.0 * 44_100.0;
        for &i in &nonzero[1..] {
            assert!(
                (i as f32 - center).abs() <= 1.5,
                "wet spike at {i}, expected near {center}"
            );
        }
    }

    #[test]
    fn params_clamped() {
        let fx = Flanger::new(44_100, 0.5, 7.0, -3.0);
        assert_eq!(fx.depth, 1.0);
        assert_eq!(fx.mix, 0.0);
    }
}
