//! Overdrive: tanh waveshaping distortion with drive and output level.

use crate::buffer::AudioBuf;
use crate::effects::Effect;
use crate::vmath::tanh_block;

/// Soft-clipping waveshaper: `out = tanh(drive * in) * level`.
#[derive(Debug, Clone)]
pub struct Overdrive {
    drive: f32,
    level: f32,
}

impl Overdrive {
    /// Overdrive with input `drive` (>= 0.1) and output `level` in `[0, 1]`.
    pub fn new(drive: f32, level: f32) -> Self {
        Overdrive {
            drive: drive.max(0.1),
            level: level.clamp(0.0, 1.0),
        }
    }

    /// The per-sample definition: `tanh(drive * x) * level` through libm.
    /// Test and bench oracle for [`process`](Effect::process); nothing at
    /// run time calls it.
    pub fn process_reference(&mut self, buf: &mut AudioBuf) {
        for s in buf.samples_mut() {
            *s = (*s * self.drive).tanh() * self.level;
        }
    }
}

impl Effect for Overdrive {
    /// Bit for bit [`process_reference`](Overdrive::process_reference):
    /// the same three operations per sample, with the `tanh` of the whole
    /// buffer in one [`tanh_block`] call.
    fn process(&mut self, buf: &mut AudioBuf) {
        let samples = buf.samples_mut();
        for s in samples.iter_mut() {
            *s *= self.drive;
        }
        tanh_block(samples);
        for s in samples {
            *s *= self.level;
        }
    }

    fn reset(&mut self) {
        // Stateless.
    }

    fn name(&self) -> &'static str {
        "overdrive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_bounded_by_level() {
        let mut fx = Overdrive::new(100.0, 0.8);
        let mut buf = AudioBuf::from_fn(1, 64, |_, i| (i as f32 - 32.0) * 10.0);
        fx.process(&mut buf);
        assert!(buf.peak() <= 0.8 + 1e-6);
    }

    #[test]
    fn small_signals_pass_nearly_linear() {
        let mut fx = Overdrive::new(1.0, 1.0);
        let mut buf = AudioBuf::from_fn(1, 4, |_, _| 0.01);
        fx.process(&mut buf);
        assert!((buf.sample(0, 0) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn monotone_odd_symmetric() {
        let mut fx = Overdrive::new(3.0, 1.0);
        let mut pos = AudioBuf::from_fn(1, 1, |_, _| 0.5);
        let mut neg = AudioBuf::from_fn(1, 1, |_, _| -0.5);
        fx.process(&mut pos);
        fx.process(&mut neg);
        assert!((pos.sample(0, 0) + neg.sample(0, 0)).abs() < 1e-6);
        assert!(pos.sample(0, 0) > 0.0);
    }
}
