//! RBJ ("Audio EQ Cookbook") biquad filters and cascades.
//!
//! These are the workhorse of the channel strips and sample-preprocess (SP)
//! filter nodes in the DJ Star graph. Coefficients follow Robert
//! Bristow-Johnson's cookbook formulas; the state uses transposed direct
//! form II, which is well-behaved in `f32`.
//!
//! Whole-buffer filtering is vectorized with channels-in-lanes: both
//! channels of a frame ride one [`F32x4`], and [`process_chain`] fuses a
//! whole cascade into a *single* pass over the buffer (per-section state
//! lives in registers), instead of one read-modify-write pass per section.
//! The fused pass is bit-identical to the per-section reference: section
//! `k` still sees exactly the sequence section `k-1` produced, and every
//! lane operation is the same IEEE-754 single operation the scalar
//! expression performs (no FMA, no reassociation).

use crate::buffer::AudioBuf;
use crate::simd::{self, F32x4};

/// Filter kinds supported by [`BiquadCoeffs::design`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    Lowpass,
    Highpass,
    Bandpass,
    Notch,
    /// Peaking EQ with the given gain in dB.
    Peaking {
        gain_db: f32,
    },
    /// Low shelf with the given gain in dB.
    LowShelf {
        gain_db: f32,
    },
    /// High shelf with the given gain in dB.
    HighShelf {
        gain_db: f32,
    },
}

/// Normalized biquad coefficients (a0 divided out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiquadCoeffs {
    pub b0: f32,
    pub b1: f32,
    pub b2: f32,
    pub a1: f32,
    pub a2: f32,
}

impl BiquadCoeffs {
    /// Identity (pass-through) coefficients.
    pub fn identity() -> Self {
        BiquadCoeffs {
            b0: 1.0,
            b1: 0.0,
            b2: 0.0,
            a1: 0.0,
            a2: 0.0,
        }
    }

    /// Design a filter at `freq_hz` with quality factor `q` for `sample_rate`.
    ///
    /// `freq_hz` is clamped into `(0, sample_rate/2)` and `q` to a sane
    /// minimum, so a UI sweeping a knob to its end stop cannot produce an
    /// unstable filter.
    pub fn design(kind: FilterKind, freq_hz: f32, q: f32, sample_rate: u32) -> Self {
        let fs = sample_rate as f32;
        let f = freq_hz.clamp(1.0, 0.499 * fs);
        let q = q.max(0.05);
        let w0 = core::f32::consts::TAU * f / fs;
        let (sin, cos) = w0.sin_cos();
        let alpha = sin / (2.0 * q);

        let (b0, b1, b2, a0, a1, a2) = match kind {
            FilterKind::Lowpass => {
                let b1 = 1.0 - cos;
                (b1 / 2.0, b1, b1 / 2.0, 1.0 + alpha, -2.0 * cos, 1.0 - alpha)
            }
            FilterKind::Highpass => {
                let b1 = -(1.0 + cos);
                let b0 = (1.0 + cos) / 2.0;
                (b0, b1, b0, 1.0 + alpha, -2.0 * cos, 1.0 - alpha)
            }
            FilterKind::Bandpass => (alpha, 0.0, -alpha, 1.0 + alpha, -2.0 * cos, 1.0 - alpha),
            FilterKind::Notch => (1.0, -2.0 * cos, 1.0, 1.0 + alpha, -2.0 * cos, 1.0 - alpha),
            FilterKind::Peaking { gain_db } => {
                let a = 10f32.powf(gain_db / 40.0);
                (
                    1.0 + alpha * a,
                    -2.0 * cos,
                    1.0 - alpha * a,
                    1.0 + alpha / a,
                    -2.0 * cos,
                    1.0 - alpha / a,
                )
            }
            FilterKind::LowShelf { gain_db } => {
                let a = 10f32.powf(gain_db / 40.0);
                let sq = 2.0 * a.sqrt() * alpha;
                (
                    a * ((a + 1.0) - (a - 1.0) * cos + sq),
                    2.0 * a * ((a - 1.0) - (a + 1.0) * cos),
                    a * ((a + 1.0) - (a - 1.0) * cos - sq),
                    (a + 1.0) + (a - 1.0) * cos + sq,
                    -2.0 * ((a - 1.0) + (a + 1.0) * cos),
                    (a + 1.0) + (a - 1.0) * cos - sq,
                )
            }
            FilterKind::HighShelf { gain_db } => {
                let a = 10f32.powf(gain_db / 40.0);
                let sq = 2.0 * a.sqrt() * alpha;
                (
                    a * ((a + 1.0) + (a - 1.0) * cos + sq),
                    -2.0 * a * ((a - 1.0) + (a + 1.0) * cos),
                    a * ((a + 1.0) + (a - 1.0) * cos - sq),
                    (a + 1.0) - (a - 1.0) * cos + sq,
                    2.0 * ((a - 1.0) - (a + 1.0) * cos),
                    (a + 1.0) - (a - 1.0) * cos - sq,
                )
            }
        };
        BiquadCoeffs {
            b0: b0 / a0,
            b1: b1 / a0,
            b2: b2 / a0,
            a1: a1 / a0,
            a2: a2 / a0,
        }
    }
}

/// A stereo biquad filter (independent state per channel), transposed
/// direct form II.
#[derive(Debug, Clone)]
pub struct Biquad {
    coeffs: BiquadCoeffs,
    // Two state variables per channel.
    z1: [f32; 2],
    z2: [f32; 2],
}

impl Biquad {
    /// Filter with the given coefficients.
    pub fn new(coeffs: BiquadCoeffs) -> Self {
        Biquad {
            coeffs,
            z1: [0.0; 2],
            z2: [0.0; 2],
        }
    }

    /// Convenience: design and construct in one step.
    pub fn design(kind: FilterKind, freq_hz: f32, q: f32, sample_rate: u32) -> Self {
        Self::new(BiquadCoeffs::design(kind, freq_hz, q, sample_rate))
    }

    /// Replace the coefficients, keeping state (for smooth knob sweeps).
    pub fn set_coeffs(&mut self, coeffs: BiquadCoeffs) {
        self.coeffs = coeffs;
    }

    /// Current coefficients.
    pub fn coeffs(&self) -> BiquadCoeffs {
        self.coeffs
    }

    /// Clear the filter state.
    pub fn reset(&mut self) {
        self.z1 = [0.0; 2];
        self.z2 = [0.0; 2];
    }

    /// The per-channel delay state `(z1, z2)`, for parity checks.
    pub fn state(&self) -> ([f32; 2], [f32; 2]) {
        (self.z1, self.z2)
    }

    /// Process one sample on `channel` (0 or 1).
    #[inline]
    pub fn tick(&mut self, channel: usize, x: f32) -> f32 {
        let c = &self.coeffs;
        let y = c.b0 * x + self.z1[channel];
        self.z1[channel] = c.b1 * x - c.a1 * y + self.z2[channel];
        self.z2[channel] = c.b2 * x - c.a2 * y;
        y
    }

    /// Filter a whole buffer in place.
    pub fn process(&mut self, buf: &mut AudioBuf) {
        let _t = crate::kprof::timer(crate::kprof::Family::Biquad);
        if simd::wide_enabled() {
            process_chunk_wide(core::slice::from_mut(self), buf);
        } else {
            self.process_scalar(buf);
        }
    }

    /// Scalar reference for [`Biquad::process`]: the seed's per-sample
    /// `tick` loop. Bit-identical to the vector path.
    pub fn process_scalar(&mut self, buf: &mut AudioBuf) {
        let channels = buf.channels();
        let frames = buf.frames();
        for i in 0..frames {
            for ch in 0..channels {
                let y = self.tick(ch, buf.sample(ch, i));
                buf.set_sample(ch, i, y);
            }
        }
    }
}

/// Most fused sections per buffer pass; longer chains run in fused chunks.
const MAX_FUSED: usize = 8;

/// Filter `buf` through every section of `chain` in series, fusing up to
/// `MAX_FUSED` sections into one pass over the buffer.
pub fn process_chain(chain: &mut [Biquad], buf: &mut AudioBuf) {
    let _t = crate::kprof::timer(crate::kprof::Family::Biquad);
    chain_dispatch(chain, buf);
}

/// [`process_chain`] without the kernel-family timer, for callers (the EQ)
/// that account the time to their own family.
pub(crate) fn chain_dispatch(chain: &mut [Biquad], buf: &mut AudioBuf) {
    if simd::wide_enabled() {
        for chunk in chain.chunks_mut(MAX_FUSED) {
            process_chunk_wide(chunk, buf);
        }
    } else {
        process_chain_scalar(chain, buf);
    }
}

/// Scalar reference for [`process_chain`]: one buffer pass per section.
pub fn process_chain_scalar(chain: &mut [Biquad], buf: &mut AudioBuf) {
    for section in chain {
        section.process_scalar(buf);
    }
}

/// One fused pass: per-section coefficients and state in lanes, channels
/// 0/1 in lanes 0/1. Lanes 2–3 (and lane 1 for mono buffers) carry zeros
/// whose results are discarded, so unused channel state is left untouched.
fn process_chunk_wide(chain: &mut [Biquad], buf: &mut AudioBuf) {
    let n = chain.len();
    debug_assert!(n <= MAX_FUSED);
    if n == 0 {
        return;
    }
    let channels = buf.channels();
    let stereo = channels == 2;
    let mut b0 = [F32x4::zero(); MAX_FUSED];
    let mut b1 = [F32x4::zero(); MAX_FUSED];
    let mut b2 = [F32x4::zero(); MAX_FUSED];
    let mut a1 = [F32x4::zero(); MAX_FUSED];
    let mut a2 = [F32x4::zero(); MAX_FUSED];
    let mut z1 = [F32x4::zero(); MAX_FUSED];
    let mut z2 = [F32x4::zero(); MAX_FUSED];
    for (k, s) in chain.iter().enumerate() {
        let c = s.coeffs;
        b0[k] = F32x4::splat(c.b0);
        b1[k] = F32x4::splat(c.b1);
        b2[k] = F32x4::splat(c.b2);
        a1[k] = F32x4::splat(c.a1);
        a2[k] = F32x4::splat(c.a2);
        let r1 = if stereo { s.z1[1] } else { 0.0 };
        let r2 = if stereo { s.z2[1] } else { 0.0 };
        z1[k] = F32x4::from_array([s.z1[0], r1, 0.0, 0.0]);
        z2[k] = F32x4::from_array([s.z2[0], r2, 0.0, 0.0]);
    }
    let frames = buf.frames();
    let (l, r) = buf.as_planar_slices_mut();
    for i in 0..frames {
        let xr = if stereo { r[i] } else { 0.0 };
        let mut x = F32x4::from_array([l[i], xr, 0.0, 0.0]);
        for k in 0..n {
            let y = b0[k].mul(x).add(z1[k]);
            z1[k] = b1[k].mul(x).sub(a1[k].mul(y)).add(z2[k]);
            z2[k] = b2[k].mul(x).sub(a2[k].mul(y));
            x = y;
        }
        let out = x.to_array();
        l[i] = out[0];
        if stereo {
            r[i] = out[1];
        }
    }
    for (k, s) in chain.iter_mut().enumerate() {
        let s1 = z1[k].to_array();
        let s2 = z2[k].to_array();
        s.z1[0] = s1[0];
        s.z2[0] = s2[0];
        if stereo {
            s.z1[1] = s1[1];
            s.z2[1] = s2[1];
        }
    }
}

/// A cascade of identical-topology biquads applied in series, e.g. a 4th
/// order lowpass built from two 2nd-order sections.
#[derive(Debug, Clone)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Cascade of `n` sections with the same design.
    pub fn design(kind: FilterKind, freq_hz: f32, q: f32, sample_rate: u32, n: usize) -> Self {
        BiquadCascade {
            sections: (0..n)
                .map(|_| Biquad::design(kind, freq_hz, q, sample_rate))
                .collect(),
        }
    }

    /// Number of second-order sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the cascade has no sections (pass-through).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Clear all section states.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Filter a buffer in place through every section (one fused pass).
    pub fn process(&mut self, buf: &mut AudioBuf) {
        process_chain(&mut self.sections, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::{Oscillator, Waveform};

    /// Measure output RMS of a steady sine through a filter.
    fn response(kind: FilterKind, cutoff: f32, tone: f32) -> f32 {
        let mut osc = Oscillator::new(Waveform::Sine, tone, 44_100);
        let mut filt = Biquad::design(kind, cutoff, core::f32::consts::FRAC_1_SQRT_2, 44_100);
        // Let transients settle, then measure.
        let mut buf = AudioBuf::zeroed(1, 4096);
        for s in buf.samples_mut() {
            *s = osc.next_sample();
        }
        filt.process(&mut buf);
        let mut buf2 = AudioBuf::zeroed(1, 4096);
        for s in buf2.samples_mut() {
            *s = osc.next_sample();
        }
        filt.process(&mut buf2);
        buf2.rms() / core::f32::consts::FRAC_1_SQRT_2 // normalize: sine RMS = 1/sqrt(2)
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let low = response(FilterKind::Lowpass, 1000.0, 100.0);
        let high = response(FilterKind::Lowpass, 1000.0, 10_000.0);
        assert!(low > 0.9, "low band gain {low}");
        assert!(high < 0.05, "high band gain {high}");
    }

    #[test]
    fn highpass_blocks_low_passes_high() {
        let low = response(FilterKind::Highpass, 1000.0, 100.0);
        let high = response(FilterKind::Highpass, 1000.0, 10_000.0);
        assert!(low < 0.05, "low band gain {low}");
        assert!(high > 0.9, "high band gain {high}");
    }

    #[test]
    fn bandpass_peaks_at_center() {
        let center = response(FilterKind::Bandpass, 1000.0, 1000.0);
        let off = response(FilterKind::Bandpass, 1000.0, 8000.0);
        assert!(center > off * 3.0, "center {center} vs off {off}");
    }

    #[test]
    fn notch_rejects_center() {
        let center = response(FilterKind::Notch, 1000.0, 1000.0);
        let off = response(FilterKind::Notch, 1000.0, 4000.0);
        assert!(center < 0.1, "notch center gain {center}");
        assert!(off > 0.8, "notch off-center gain {off}");
    }

    #[test]
    fn peaking_boosts_center() {
        let boosted = response(FilterKind::Peaking { gain_db: 12.0 }, 1000.0, 1000.0);
        assert!(
            boosted > 3.0 && boosted < 4.5,
            "peak gain {boosted} (expect ~4x)"
        );
    }

    #[test]
    fn shelves_shape_spectrum() {
        let lo = response(FilterKind::LowShelf { gain_db: -12.0 }, 1000.0, 100.0);
        let hi = response(FilterKind::LowShelf { gain_db: -12.0 }, 1000.0, 10_000.0);
        assert!(lo < 0.35 && hi > 0.8, "lowshelf lo {lo} hi {hi}");
        let lo = response(FilterKind::HighShelf { gain_db: 12.0 }, 1000.0, 100.0);
        let hi = response(FilterKind::HighShelf { gain_db: 12.0 }, 1000.0, 10_000.0);
        assert!(hi / lo > 3.0, "highshelf lo {lo} hi {hi}");
    }

    #[test]
    fn filter_is_stable_on_noise() {
        use crate::osc::NoiseSource;
        let mut noise = NoiseSource::new(3);
        let mut filt = Biquad::design(FilterKind::Lowpass, 200.0, 4.0, 44_100);
        let mut buf = AudioBuf::zeroed(2, 128);
        for _ in 0..200 {
            for s in buf.samples_mut() {
                *s = noise.next_sample();
            }
            filt.process(&mut buf);
            assert!(buf.is_finite());
            assert!(buf.peak() < 20.0, "unstable: peak {}", buf.peak());
        }
    }

    #[test]
    fn identity_coeffs_pass_through() {
        let mut filt = Biquad::new(BiquadCoeffs::identity());
        let mut buf = AudioBuf::from_fn(2, 16, |ch, i| (ch + i) as f32 * 0.01);
        let orig = buf.clone();
        filt.process(&mut buf);
        for (a, b) in buf.samples().iter().zip(orig.samples()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn design_clamps_out_of_range_cutoff() {
        // Nyquist-exceeding cutoff must still give a finite, stable filter.
        let mut filt = Biquad::design(FilterKind::Lowpass, 96_000.0, 0.7, 44_100);
        let mut buf = AudioBuf::from_fn(1, 256, |_, i| if i == 0 { 1.0 } else { 0.0 });
        filt.process(&mut buf);
        assert!(buf.is_finite());
    }

    #[test]
    fn cascade_is_steeper_than_single() {
        let single = response(FilterKind::Lowpass, 1000.0, 4000.0);
        let mut osc = Oscillator::new(Waveform::Sine, 4000.0, 44_100);
        let mut casc = BiquadCascade::design(
            FilterKind::Lowpass,
            1000.0,
            core::f32::consts::FRAC_1_SQRT_2,
            44_100,
            3,
        );
        let mut buf = AudioBuf::zeroed(1, 4096);
        for s in buf.samples_mut() {
            *s = osc.next_sample();
        }
        casc.process(&mut buf);
        let mut buf2 = AudioBuf::zeroed(1, 4096);
        for s in buf2.samples_mut() {
            *s = osc.next_sample();
        }
        casc.process(&mut buf2);
        let triple = buf2.rms() / core::f32::consts::FRAC_1_SQRT_2;
        assert!(triple < single * 0.1, "single {single}, cascade {triple}");
    }

    #[test]
    fn fused_chain_matches_per_section_scalar_exactly() {
        use crate::osc::NoiseSource;
        // Long enough to exceed MAX_FUSED (forces chunking) and odd frame
        // counts for the tails; both mono and stereo.
        for &(channels, frames, sections) in &[(2usize, 128usize, 6usize), (1, 37, 9), (2, 5, 1)] {
            let mk = || -> Vec<Biquad> {
                (0..sections)
                    .map(|k| {
                        Biquad::design(
                            FilterKind::Peaking {
                                gain_db: 3.0 + k as f32,
                            },
                            300.0 * (k + 1) as f32,
                            0.8,
                            44_100,
                        )
                    })
                    .collect()
            };
            let mut wide_chain = mk();
            let mut scalar_chain = mk();
            let mut noise = NoiseSource::new(11);
            for _ in 0..5 {
                let buf = AudioBuf::from_fn(channels, frames, |_, _| noise.next_sample() * 0.5);
                let mut a = buf.clone();
                let mut b = buf.clone();
                process_chain(&mut wide_chain, &mut a);
                process_chain_scalar(&mut scalar_chain, &mut b);
                assert_eq!(
                    a.samples(),
                    b.samples(),
                    "{channels}ch x {frames} x {sections} sections"
                );
            }
        }
    }

    #[test]
    fn single_biquad_wide_matches_scalar_exactly() {
        use crate::osc::NoiseSource;
        let mut noise = NoiseSource::new(5);
        let mut wide = Biquad::design(FilterKind::Lowpass, 900.0, 0.9, 44_100);
        let mut scalar = wide.clone();
        for _ in 0..8 {
            let buf = AudioBuf::from_fn(2, 61, |_, _| noise.next_sample());
            let mut a = buf.clone();
            let mut b = buf.clone();
            wide.process(&mut a);
            scalar.process_scalar(&mut b);
            assert_eq!(a.samples(), b.samples());
        }
    }

    #[test]
    fn mono_buffers_leave_right_channel_state_untouched() {
        let mut filt = Biquad::design(FilterKind::Lowpass, 500.0, 0.7, 44_100);
        // Charge the right-channel state via a stereo buffer.
        let mut st = AudioBuf::from_fn(2, 32, |_, _| 1.0);
        filt.process(&mut st);
        let before = filt.clone();
        let mut mono = AudioBuf::from_fn(1, 32, |_, _| 0.25);
        filt.process(&mut mono);
        assert_eq!(filt.z1[1], before.z1[1]);
        assert_eq!(filt.z2[1], before.z2[1]);
        assert_ne!(filt.z1[0], before.z1[0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut filt = Biquad::design(FilterKind::Lowpass, 500.0, 0.7, 44_100);
        let mut buf = AudioBuf::from_fn(1, 64, |_, _| 1.0);
        filt.process(&mut buf);
        filt.reset();
        let mut impulse = AudioBuf::from_fn(1, 1, |_, _| 0.0);
        filt.process(&mut impulse);
        assert_eq!(impulse.sample(0, 0), 0.0);
    }
}
