//! Channel-strip equalization: a 3-band DJ EQ and the single-knob
//! channel filter, matching the "Channel: Filter, EQ" nodes of Fig. 3.

use crate::biquad::{Biquad, FilterKind};
use crate::buffer::AudioBuf;

/// A classic DJ mixer 3-band EQ: low shelf, mid peaking, high shelf.
///
/// Band gains range from full kill (-26 dB, like an "isolator" EQ) to
/// +12 dB boost. The three sections are stored as one contiguous chain so
/// [`ThreeBandEq::process`] runs a single fused buffer pass.
#[derive(Debug, Clone)]
pub struct ThreeBandEq {
    /// `[low shelf, mid peaking, high shelf]`.
    sections: [Biquad; 3],
    gains_db: [f32; 3],
    sample_rate: u32,
}

const LOW: usize = 0;
const MID: usize = 1;
const HIGH: usize = 2;

/// Crossover frequencies of the EQ bands (Hz).
const LOW_FREQ: f32 = 250.0;
const MID_FREQ: f32 = 1_200.0;
const HIGH_FREQ: f32 = 5_000.0;
/// Gain limits (dB).
const MIN_GAIN_DB: f32 = -26.0;
const MAX_GAIN_DB: f32 = 12.0;

impl ThreeBandEq {
    /// A flat EQ.
    pub fn new(sample_rate: u32) -> Self {
        let mut eq = ThreeBandEq {
            sections: [
                Biquad::design(
                    FilterKind::LowShelf { gain_db: 0.0 },
                    LOW_FREQ,
                    0.7,
                    sample_rate,
                ),
                Biquad::design(
                    FilterKind::Peaking { gain_db: 0.0 },
                    MID_FREQ,
                    0.9,
                    sample_rate,
                ),
                Biquad::design(
                    FilterKind::HighShelf { gain_db: 0.0 },
                    HIGH_FREQ,
                    0.7,
                    sample_rate,
                ),
            ],
            gains_db: [0.0; 3],
            sample_rate,
        };
        eq.set_gains(0.0, 0.0, 0.0);
        eq
    }

    /// Set band gains in dB; each is clamped into `[-26, +12]`.
    pub fn set_gains(&mut self, low_db: f32, mid_db: f32, high_db: f32) {
        let clamp = |g: f32| g.clamp(MIN_GAIN_DB, MAX_GAIN_DB);
        self.gains_db = [clamp(low_db), clamp(mid_db), clamp(high_db)];
        self.sections[LOW].set_coeffs(crate::biquad::BiquadCoeffs::design(
            FilterKind::LowShelf {
                gain_db: self.gains_db[0],
            },
            LOW_FREQ,
            0.7,
            self.sample_rate,
        ));
        self.sections[MID].set_coeffs(crate::biquad::BiquadCoeffs::design(
            FilterKind::Peaking {
                gain_db: self.gains_db[1],
            },
            MID_FREQ,
            0.9,
            self.sample_rate,
        ));
        self.sections[HIGH].set_coeffs(crate::biquad::BiquadCoeffs::design(
            FilterKind::HighShelf {
                gain_db: self.gains_db[2],
            },
            HIGH_FREQ,
            0.7,
            self.sample_rate,
        ));
    }

    /// Clear filter state.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Equalize a buffer in place (one fused three-section pass).
    pub fn process(&mut self, buf: &mut AudioBuf) {
        let _t = crate::kprof::timer(crate::kprof::Family::Eq);
        crate::biquad::chain_dispatch(&mut self.sections, buf);
    }

    /// Scalar reference for [`ThreeBandEq::process`]: one buffer pass per
    /// band, the seed's algorithm. Bit-identical to the fused pass.
    pub fn process_scalar(&mut self, buf: &mut AudioBuf) {
        crate::biquad::process_chain_scalar(&mut self.sections, buf);
    }
}

/// The single-knob DJ channel filter: the knob sweeps from lowpass
/// (negative positions) through neutral (center) to highpass (positive).
#[derive(Debug, Clone)]
pub struct ChannelFilter {
    filter: Biquad,
    position: f32,
    sample_rate: u32,
}

impl ChannelFilter {
    /// Neutral filter.
    pub fn new(sample_rate: u32) -> Self {
        let mut cf = ChannelFilter {
            filter: Biquad::new(crate::biquad::BiquadCoeffs::identity()),
            position: 0.0,
            sample_rate,
        };
        cf.set_position(0.0);
        cf
    }

    /// Set the knob position in `[-1, 1]`. Near the center (|pos| < 0.02)
    /// the filter is bypassed.
    pub fn set_position(&mut self, pos: f32) {
        self.position = pos.clamp(-1.0, 1.0);
        let coeffs = if self.position.abs() < 0.02 {
            crate::biquad::BiquadCoeffs::identity()
        } else if self.position < 0.0 {
            // Lowpass sweeping from 20 kHz down toward 100 Hz.
            let t = -self.position;
            let f = 20_000.0 * (100.0f32 / 20_000.0).powf(t);
            crate::biquad::BiquadCoeffs::design(FilterKind::Lowpass, f, 1.0, self.sample_rate)
        } else {
            // Highpass sweeping from 20 Hz up toward 8 kHz.
            let t = self.position;
            let f = 20.0 * (8_000.0f32 / 20.0).powf(t);
            crate::biquad::BiquadCoeffs::design(FilterKind::Highpass, f, 1.0, self.sample_rate)
        };
        self.filter.set_coeffs(coeffs);
    }

    /// Current knob position.
    pub fn position(&self) -> f32 {
        self.position
    }

    /// Clear filter state.
    pub fn reset(&mut self) {
        self.filter.reset();
    }

    /// Filter a buffer in place.
    pub fn process(&mut self, buf: &mut AudioBuf) {
        self.filter.process(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::{Oscillator, Waveform};

    fn tone_buf(freq: f32, frames: usize) -> AudioBuf {
        let mut osc = Oscillator::new(Waveform::Sine, freq, 44_100);
        let mut buf = AudioBuf::zeroed(1, frames);
        for s in buf.samples_mut() {
            *s = osc.next_sample();
        }
        buf
    }

    #[test]
    fn flat_eq_is_nearly_transparent() {
        let mut eq = ThreeBandEq::new(44_100);
        let mut buf = tone_buf(1000.0, 4096);
        let before = buf.rms();
        eq.process(&mut buf);
        eq.process(&mut buf); // settle
        assert!((buf.rms() / before - 1.0).abs() < 0.05);
    }

    #[test]
    fn low_kill_removes_bass() {
        let mut eq = ThreeBandEq::new(44_100);
        eq.set_gains(-26.0, 0.0, 0.0);
        let mut bass = tone_buf(60.0, 8192);
        let before = bass.rms();
        eq.process(&mut bass);
        let mut settle = tone_buf(60.0, 8192);
        eq.process(&mut settle);
        assert!(
            settle.rms() < before * 0.2,
            "bass remaining {}",
            settle.rms() / before
        );
    }

    #[test]
    fn gains_clamped() {
        let mut eq = ThreeBandEq::new(44_100);
        eq.set_gains(-100.0, 100.0, 0.0);
        assert_eq!(eq.gains_db, [-26.0, 12.0, 0.0]);
    }

    #[test]
    fn channel_filter_center_is_bypass() {
        let mut cf = ChannelFilter::new(44_100);
        cf.set_position(0.0);
        let mut buf = tone_buf(500.0, 512);
        let orig = buf.clone();
        cf.process(&mut buf);
        for (a, b) in buf.samples().iter().zip(orig.samples()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn channel_filter_left_kills_treble() {
        let mut cf = ChannelFilter::new(44_100);
        cf.set_position(-0.9);
        let mut hi = tone_buf(10_000.0, 8192);
        cf.process(&mut hi);
        let mut settled = tone_buf(10_000.0, 8192);
        cf.process(&mut settled);
        assert!(settled.rms() < 0.05, "treble remaining {}", settled.rms());
    }

    #[test]
    fn channel_filter_right_kills_bass() {
        let mut cf = ChannelFilter::new(44_100);
        cf.set_position(0.9);
        let mut lo = tone_buf(60.0, 8192);
        cf.process(&mut lo);
        let mut settled = tone_buf(60.0, 8192);
        cf.process(&mut settled);
        assert!(settled.rms() < 0.1, "bass remaining {}", settled.rms());
    }

    #[test]
    fn fused_eq_matches_scalar_exactly() {
        let mut fused = ThreeBandEq::new(44_100);
        let mut scalar = ThreeBandEq::new(44_100);
        fused.set_gains(-6.0, 4.0, 9.0);
        scalar.set_gains(-6.0, 4.0, 9.0);
        let mut osc = Oscillator::new(Waveform::Sine, 523.0, 44_100);
        for _ in 0..6 {
            let buf = AudioBuf::from_fn(2, 97, |_, _| osc.next_sample() * 0.8);
            let mut a = buf.clone();
            let mut b = buf;
            fused.process(&mut a);
            scalar.process_scalar(&mut b);
            assert_eq!(a.samples(), b.samples());
        }
    }

    #[test]
    fn eq_stable_across_parameter_sweeps() {
        let mut eq = ThreeBandEq::new(44_100);
        let mut buf = tone_buf(440.0, 128);
        for i in 0..100 {
            let g = (i as f32 / 100.0) * 24.0 - 12.0;
            eq.set_gains(g, -g, g);
            eq.process(&mut buf);
            assert!(buf.is_finite());
        }
    }
}
