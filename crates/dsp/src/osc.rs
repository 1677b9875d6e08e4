//! Oscillators and noise sources used for synthetic tracks, LFOs and the
//! timecode carrier.

use core::f32::consts::TAU;

use crate::vmath::sin_block;

/// Waveform shapes produced by [`Oscillator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waveform {
    Sine,
    Saw,
    Square,
    Triangle,
}

/// Advance a unit phase accumulator by `inc` and wrap it: bit for bit
/// [`advance_phase_reference`]'s `x - x.floor()`, without the `floorf`
/// call that `floor` is on the SSE2 baseline.
///
/// `phase` must be `+0.0` or an earlier result of this function, hence in
/// `[0, 1]` (1.0 itself appears when a tiny negative sum rounds up). With
/// `|inc| <= 0.5` the sum then lies in `[-0.5, 1.5]`, its floor is −1, 0 or
/// 1, and one compare-and-add subtracts exactly that; any larger increment
/// (an oscillator above Nyquist, a non-finite speed) takes the `floor` form.
#[inline]
pub fn advance_phase(phase: f32, inc: f32) -> f32 {
    let sum = phase + inc;
    if inc.abs() <= 0.5 {
        if sum < 0.0 {
            sum + 1.0
        } else if sum >= 1.0 {
            sum - 1.0
        } else {
            sum
        }
    } else {
        advance_phase_reference(phase, inc)
    }
}

/// The textbook form [`advance_phase`] must equal exactly.
pub fn advance_phase_reference(phase: f32, inc: f32) -> f32 {
    let sum = phase + inc;
    sum - sum.floor()
}

/// A phase-accumulator oscillator.
///
/// Phase is kept in `[0, 1)`; frequency may be changed between samples
/// without clicks (phase is continuous), which the timecode generator relies
/// on when the virtual turntable changes speed.
#[derive(Debug, Clone)]
pub struct Oscillator {
    waveform: Waveform,
    phase: f32,
    freq_hz: f32,
    sample_rate: f32,
}

impl Oscillator {
    /// Create an oscillator at `freq_hz` for the given sample rate.
    pub fn new(waveform: Waveform, freq_hz: f32, sample_rate: u32) -> Self {
        Oscillator {
            waveform,
            phase: 0.0,
            freq_hz,
            sample_rate: sample_rate as f32,
        }
    }

    /// Current frequency in Hz.
    pub fn freq(&self) -> f32 {
        self.freq_hz
    }

    /// Current phase in `[0, 1)`.
    pub fn phase(&self) -> f32 {
        self.phase
    }

    /// Produce the next sample in `[-1, 1]`.
    pub fn next_sample(&mut self) -> f32 {
        let p = self.phase;
        let v = match self.waveform {
            Waveform::Sine => (TAU * p).sin(),
            Waveform::Saw => 2.0 * p - 1.0,
            Waveform::Square => {
                if p < 0.5 {
                    1.0
                } else {
                    -1.0
                }
            }
            Waveform::Triangle => {
                if p < 0.5 {
                    4.0 * p - 1.0
                } else {
                    3.0 - 4.0 * p
                }
            }
        };
        self.phase = advance_phase(self.phase, self.freq_hz / self.sample_rate);
        v
    }

    /// Fill `out` with consecutive samples: bit for bit `out.len()` calls
    /// of [`next_sample`](Self::next_sample). A sine runs the serial phase
    /// walk first, then `TAU * phase` and one [`sin_block`] over the buffer.
    pub fn fill(&mut self, out: &mut [f32]) {
        if self.waveform != Waveform::Sine {
            for s in out {
                *s = self.next_sample();
            }
            return;
        }
        let inc = self.freq_hz / self.sample_rate;
        for s in out.iter_mut() {
            *s = TAU * self.phase;
            self.phase = advance_phase(self.phase, inc);
        }
        sin_block(out);
    }
}

/// A deterministic xorshift32 white-noise source in `[-1, 1]`.
///
/// The DSP crate keeps no external dependencies, so randomness here is a
/// tiny self-contained PRNG; statistical quality is irrelevant for audio
/// noise beds and test signals.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    state: u32,
}

impl NoiseSource {
    /// Create a noise source; `seed` must not be zero (0 is mapped to a
    /// fixed non-zero constant).
    pub fn new(seed: u32) -> Self {
        NoiseSource {
            state: if seed == 0 { 0x9E37_79B9 } else { seed },
        }
    }

    /// Next raw 32-bit state.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }

    /// Next white-noise sample in `[-1, 1)`.
    pub fn next_sample(&mut self) -> f32 {
        (self.next_u32() as f32 / u32::MAX as f32) * 2.0 - 1.0
    }

    /// Fill `out` with noise.
    pub fn fill(&mut self, out: &mut [f32]) {
        for s in out {
            *s = self.next_sample();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_oscillates_at_requested_frequency() {
        // 441 Hz at 44100 Hz: period = 100 samples.
        let mut osc = Oscillator::new(Waveform::Sine, 441.0, 44_100);
        let s0 = osc.next_sample();
        assert!(s0.abs() < 1e-6); // sin(0) = 0
        let mut buf = vec![0.0; 99];
        osc.fill(&mut buf);
        // After a full period the phase is back near zero.
        assert!(osc.phase() < 1e-3 || osc.phase() > 0.999, "{}", osc.phase());
    }

    #[test]
    fn all_waveforms_bounded() {
        for wf in [
            Waveform::Sine,
            Waveform::Saw,
            Waveform::Square,
            Waveform::Triangle,
        ] {
            let mut osc = Oscillator::new(wf, 1234.5, 44_100);
            for _ in 0..10_000 {
                let s = osc.next_sample();
                assert!((-1.0..=1.0).contains(&s), "{wf:?} produced {s}");
            }
        }
    }

    #[test]
    fn square_has_two_levels() {
        let mut osc = Oscillator::new(Waveform::Square, 100.0, 44_100);
        let mut saw_pos = false;
        let mut saw_neg = false;
        for _ in 0..1000 {
            let s = osc.next_sample();
            assert!(s == 1.0 || s == -1.0);
            saw_pos |= s > 0.0;
            saw_neg |= s < 0.0;
        }
        assert!(saw_pos && saw_neg);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let mut a = NoiseSource::new(42);
        let mut b = NoiseSource::new(42);
        for _ in 0..1000 {
            let sa = a.next_sample();
            assert_eq!(sa, b.next_sample());
            assert!((-1.0..=1.0).contains(&sa));
        }
    }

    #[test]
    fn noise_zero_seed_is_remapped() {
        let mut n = NoiseSource::new(0);
        // A zero state would be a fixed point of xorshift; ensure we produce
        // varied output.
        let first = n.next_sample();
        let second = n.next_sample();
        assert_ne!(first, second);
    }

    #[test]
    fn noise_has_roughly_zero_mean() {
        let mut n = NoiseSource::new(7);
        let mean: f32 = (0..100_000).map(|_| n.next_sample()).sum::<f32>() / 100_000.0;
        assert!(mean.abs() < 0.02, "mean = {mean}");
    }
}
