//! Level metering: RMS and peak with ballistic decay — the per-deck and
//! master "level meter" bookkeeping nodes of the DJ Star graph.

use crate::buffer::AudioBuf;

/// A level meter with instant peak attack and exponential decay, plus a
/// smoothed RMS track.
#[derive(Debug, Clone)]
pub struct LevelMeter {
    peak: f32,
    rms_sq: f32,
    decay: f32,
    rms_coeff: f32,
}

impl LevelMeter {
    /// Meter with `decay_ms` peak fallback and `rms_ms` RMS smoothing,
    /// assuming one `update` per buffer of `frames` frames at `sample_rate`.
    pub fn new(decay_ms: f32, rms_ms: f32, frames: usize, sample_rate: u32) -> Self {
        let buffers_per_sec = sample_rate as f32 / frames.max(1) as f32;
        let coeff = |ms: f32| (-1.0 / (ms.max(0.1) * 1e-3 * buffers_per_sec)).exp();
        LevelMeter {
            peak: 0.0,
            rms_sq: 0.0,
            decay: coeff(decay_ms),
            rms_coeff: coeff(rms_ms),
        }
    }

    /// Standard DJ Star meter for the default 128-frame buffer.
    pub fn standard() -> Self {
        Self::new(300.0, 80.0, crate::BUFFER_FRAMES, crate::SAMPLE_RATE)
    }

    /// Feed one buffer; returns `(peak, rms)` after the update.
    pub fn update(&mut self, buf: &AudioBuf) -> (f32, f32) {
        let p = buf.peak();
        self.peak = if p >= self.peak {
            p
        } else {
            self.peak * self.decay
        };
        let sq = buf.rms().powi(2);
        self.rms_sq = self.rms_coeff * self.rms_sq + (1.0 - self.rms_coeff) * sq;
        (self.peak, self.rms())
    }

    /// Current peak reading.
    pub fn peak(&self) -> f32 {
        self.peak
    }

    /// Current smoothed RMS reading.
    pub fn rms(&self) -> f32 {
        self.rms_sq.sqrt()
    }

    /// Reset readings to silence.
    pub fn reset(&mut self) {
        self.peak = 0.0;
        self.rms_sq = 0.0;
    }
}

/// The Goertzel recurrence coefficient `2·cos(2π·f/fs)` of one bin.
pub fn goertzel_coeff(freq_hz: f32, sample_rate: u32) -> f32 {
    let w = core::f32::consts::TAU * freq_hz / sample_rate as f32;
    2.0 * w.cos()
}

/// Goertzel single-bin spectral power of `samples` at `freq_hz`.
///
/// The cheap alternative to a full FFT for a small number of bins; for
/// several bins of one signal use [`goertzel_bank`], which this function is
/// the per-band reference of.
pub fn goertzel_power(samples: &[f32], freq_hz: f32, sample_rate: u32) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let coeff = goertzel_coeff(freq_hz, sample_rate);
    let mut s_prev = 0.0f32;
    let mut s_prev2 = 0.0f32;
    for &x in samples {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    power.max(0.0) / (samples.len() as f32 * samples.len() as f32 / 4.0)
}

/// Goertzel power of `N` bins in one pass over `samples`: the `N`
/// recurrences are independent, so they advance side by side per sample
/// (and vectorize) instead of costing `N` sequential passes. `coeffs` are
/// [`goertzel_coeff`]s; band `k` of the result is bit for bit what the
/// one-bin recurrence gives for `coeffs[k]`.
///
/// The spectrum-tap bookkeeping node evaluates its eight bands with this.
pub fn goertzel_bank<const N: usize>(samples: &[f32], coeffs: &[f32; N]) -> [f32; N] {
    if samples.is_empty() {
        return [0.0; N];
    }
    let mut s_prev = [0.0f32; N];
    let mut s_prev2 = [0.0f32; N];
    for &x in samples {
        for k in 0..N {
            let s = x + coeffs[k] * s_prev[k] - s_prev2[k];
            s_prev2[k] = s_prev[k];
            s_prev[k] = s;
        }
    }
    let norm = samples.len() as f32 * samples.len() as f32 / 4.0;
    let mut power = [0.0f32; N];
    for k in 0..N {
        let p =
            s_prev[k] * s_prev[k] + s_prev2[k] * s_prev2[k] - coeffs[k] * s_prev[k] * s_prev2[k];
        power[k] = p.max(0.0) / norm;
    }
    power
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goertzel_detects_its_bin() {
        let tone: Vec<f32> = (0..512)
            .map(|i| (core::f32::consts::TAU * 1000.0 * i as f32 / 44_100.0).sin())
            .collect();
        let on = goertzel_power(&tone, 1000.0, 44_100);
        let off = goertzel_power(&tone, 4000.0, 44_100);
        assert!(on > off * 20.0, "on {on}, off {off}");
        // A full-scale sine concentrates ~unit power in its bin.
        assert!(on > 0.5 && on < 2.0, "on {on}");
    }

    #[test]
    fn goertzel_empty_is_zero() {
        assert_eq!(goertzel_power(&[], 1000.0, 44_100), 0.0);
    }

    #[test]
    fn goertzel_silence_is_zero() {
        let z = vec![0.0f32; 256];
        assert_eq!(goertzel_power(&z, 500.0, 44_100), 0.0);
    }

    #[test]
    fn peak_attacks_instantly() {
        let mut m = LevelMeter::standard();
        let buf = AudioBuf::from_fn(2, 128, |_, _| 0.7);
        let (p, _) = m.update(&buf);
        assert!((p - 0.7).abs() < 1e-6);
    }

    #[test]
    fn peak_decays_on_silence() {
        let mut m = LevelMeter::standard();
        m.update(&AudioBuf::from_fn(2, 128, |_, _| 1.0));
        let mut last = 1.0;
        for _ in 0..200 {
            let (p, _) = m.update(&AudioBuf::zeroed(2, 128));
            assert!(p <= last);
            last = p;
        }
        assert!(last < 0.2, "peak after decay {last}");
    }

    #[test]
    fn rms_converges_to_signal_level() {
        let mut m = LevelMeter::standard();
        let buf = AudioBuf::from_fn(2, 128, |_, _| 0.5);
        let mut rms = 0.0;
        for _ in 0..500 {
            let (_, r) = m.update(&buf);
            rms = r;
        }
        assert!((rms - 0.5).abs() < 0.01, "rms {rms}");
    }

    #[test]
    fn reset_clears() {
        let mut m = LevelMeter::standard();
        m.update(&AudioBuf::from_fn(1, 128, |_, _| 1.0));
        m.reset();
        assert_eq!(m.peak(), 0.0);
        assert_eq!(m.rms(), 0.0);
    }
}
