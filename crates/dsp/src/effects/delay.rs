//! Feedback echo/delay effect.

use crate::buffer::AudioBuf;
use crate::delayline::StereoDelayLine;
use crate::effects::{Effect, MOD_BLOCK};

/// A classic feedback delay ("echo"): the signal is delayed by a fixed time
/// and fed back with a gain < 1, mixed with the dry signal.
#[derive(Debug, Clone)]
pub struct EchoDelay {
    lines: StereoDelayLine,
    delay_samples: usize,
    feedback: f32,
    mix: f32,
}

impl EchoDelay {
    /// Echo with `delay_s` seconds of delay, `feedback` in `[0, 0.95]` and
    /// dry/wet `mix` in `[0, 1]`.
    pub fn new(sample_rate: u32, delay_s: f32, feedback: f32, mix: f32) -> Self {
        let delay_samples = ((delay_s * sample_rate as f32) as usize).max(1);
        EchoDelay {
            lines: StereoDelayLine::new(delay_samples + 1),
            delay_samples,
            feedback: feedback.clamp(0.0, 0.95),
            mix: mix.clamp(0.0, 1.0),
        }
    }

    /// Delay length in samples.
    pub fn delay_samples(&self) -> usize {
        self.delay_samples
    }

    /// The per-frame definition of the echo: per channel one `read`, one
    /// `push`. Test and bench oracle for [`process`](Effect::process);
    /// nothing at run time calls it.
    pub fn process_reference(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels();
        let frames = buf.frames();
        for i in 0..frames {
            for ch in 0..channels.min(2) {
                let dry = buf.sample(ch, i);
                let line = self.lines.channel(ch);
                let wet = line.read(self.delay_samples);
                line.push(dry + wet * self.feedback);
                buf.set_sample(ch, i, dry * (1.0 - self.mix) + wet * self.mix);
            }
        }
    }
}

impl Effect for EchoDelay {
    /// Bit for bit [`process_reference`](EchoDelay::process_reference), one
    /// channel plane at a time: the delay line hands back up to
    /// `MOD_BLOCK` wet taps while it takes the feedback, then the plane is
    /// mixed against them.
    fn process(&mut self, buf: &mut AudioBuf) {
        let mix = self.mix;
        let mut wet = [0.0f32; MOD_BLOCK];
        for ch in 0..buf.channels().min(2) {
            let line = self.lines.channel(ch);
            for plane in buf.channel_mut(ch).chunks_mut(MOD_BLOCK) {
                let taps = &mut wet[..plane.len()];
                line.feedback_block(plane, self.delay_samples, self.feedback, taps);
                for (x, tap) in plane.iter_mut().zip(&*taps) {
                    *x = *x * (1.0 - mix) + tap * mix;
                }
            }
        }
    }

    fn reset(&mut self) {
        self.lines.clear();
    }

    fn name(&self) -> &'static str {
        "echo-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_appears_after_delay_time() {
        // 10-sample delay, full wet.
        let mut fx = EchoDelay {
            lines: StereoDelayLine::new(11),
            delay_samples: 10,
            feedback: 0.0,
            mix: 1.0,
        };
        let mut buf = AudioBuf::from_fn(1, 32, |_, i| if i == 0 { 1.0 } else { 0.0 });
        fx.process(&mut buf);
        // Fully wet output: impulse reappears at frame 10 only.
        assert!(buf.sample(0, 0).abs() < 1e-6);
        assert!((buf.sample(0, 10) - 1.0).abs() < 1e-6);
        assert!(buf.sample(0, 11).abs() < 1e-6);
    }

    #[test]
    fn feedback_produces_decaying_repeats() {
        let mut fx = EchoDelay {
            lines: StereoDelayLine::new(5),
            delay_samples: 4,
            feedback: 0.5,
            mix: 1.0,
        };
        let mut buf = AudioBuf::from_fn(1, 16, |_, i| if i == 0 { 1.0 } else { 0.0 });
        fx.process(&mut buf);
        assert!((buf.sample(0, 4) - 1.0).abs() < 1e-6);
        assert!((buf.sample(0, 8) - 0.5).abs() < 1e-6);
        assert!((buf.sample(0, 12) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn feedback_is_clamped_for_stability() {
        let fx = EchoDelay::new(44_100, 0.1, 5.0, 0.5);
        assert!(fx.feedback <= 0.95);
    }

    #[test]
    fn default_constructor_sane() {
        let fx = EchoDelay::new(44_100, 0.25, 0.4, 0.5);
        assert_eq!(fx.delay_samples(), (0.25 * 44_100.0) as usize);
    }
}
