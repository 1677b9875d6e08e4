//! Radix-2 FFT and spectral helpers.
//!
//! §III-B of the paper notes that "audio effects heavily rely on core
//! algorithms such as Fourier transformation". This is a from-scratch
//! iterative radix-2 Cooley–Tukey implementation, measured by the
//! benchmark's kernel probes (no deck-chain effect runs one).
//!
//! Two entry points:
//!
//! * [`fft_inplace`] — the original one-shot transform; recomputes twiddle
//!   factors incrementally on every call.
//! * [`Fft`] — a reusable plan that precomputes the bit-reversal table and
//!   per-stage twiddles once, then runs butterflies over split re/im planes
//!   4 lanes at a time. The plan's scalar and vector paths share the same
//!   twiddle tables and evaluate the same formulas element-for-element, so
//!   they are bit-identical to each other (and the scalar path reproduces
//!   [`fft_inplace`] exactly, because the tables are built with the same
//!   incremental recurrence).

use crate::simd::{self, F32x4};
use core::f32::consts::TAU;

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f32,
    pub im: f32,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f32 {
        (self.re * self.re + self.im * self.im).sqrt()
    }

    /// Complex multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)] // tiny internal helper, not an ops overload
    pub fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// In-place FFT. `inverse` selects the inverse transform (which also
/// divides by the length, so `ifft(fft(x)) == x`).
///
/// # Panics
/// Panics unless `data.len()` is a power of two.
pub fn fft_inplace(data: &mut [Complex], inverse: bool) {
    let _t = crate::kprof::timer(crate::kprof::Family::Fft);
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * TAU / len as f32;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2].mul(w);
                data[i + k] = u.add(v);
                data[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f32;
        for c in data {
            c.re *= scale;
            c.im *= scale;
        }
    }
}

/// A reusable FFT plan for one transform length.
///
/// Precomputes per-stage twiddle factors (both directions) and owns the
/// split re/im scratch planes the butterflies run over, so repeated
/// transforms do no trigonometry and no allocation.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Forward twiddles, stage-major: stages `len = 2, 4, .., n`, each
    /// contributing `len/2` factors.
    fwd_re: Vec<f32>,
    fwd_im: Vec<f32>,
    /// Inverse twiddles in the same layout.
    inv_re: Vec<f32>,
    inv_im: Vec<f32>,
    scratch_re: Vec<f32>,
    scratch_im: Vec<f32>,
}

/// Twiddle tables for one direction, built with the same incremental
/// `w = w * wlen` recurrence as [`fft_inplace`] so plan outputs match it
/// bit-for-bit.
fn twiddle_tables(n: usize, sign: f32) -> (Vec<f32>, Vec<f32>) {
    let count = n.saturating_sub(1);
    let mut re = Vec::with_capacity(count);
    let mut im = Vec::with_capacity(count);
    let mut len = 2;
    while len <= n {
        let ang = sign * TAU / len as f32;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..len / 2 {
            re.push(w.re);
            im.push(w.im);
            w = w.mul(wlen);
        }
        len <<= 1;
    }
    (re, im)
}

impl Fft {
    /// Plan a transform of length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let (fwd_re, fwd_im) = twiddle_tables(n, -1.0);
        let (inv_re, inv_im) = twiddle_tables(n, 1.0);
        Fft {
            n,
            fwd_re,
            fwd_im,
            inv_re,
            inv_im,
            scratch_re: vec![0.0; n],
            scratch_im: vec![0.0; n],
        }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform of `data` (`inverse` also divides by the length,
    /// so `ifft(fft(x)) == x`).
    ///
    /// # Panics
    /// Panics unless `data.len()` equals the planned length.
    pub fn process(&mut self, data: &mut [Complex], inverse: bool) {
        let _t = crate::kprof::timer(crate::kprof::Family::Fft);
        self.run(data, inverse, simd::wide_enabled());
    }

    /// Scalar reference for [`Fft::process`]; bit-identical to the vector
    /// path (and to [`fft_inplace`]).
    pub fn process_scalar(&mut self, data: &mut [Complex], inverse: bool) {
        self.run(data, inverse, false);
    }

    fn run(&mut self, data: &mut [Complex], inverse: bool, wide: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length must match the plan");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation, then split into planes.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        for (i, c) in data.iter().enumerate() {
            self.scratch_re[i] = c.re;
            self.scratch_im[i] = c.im;
        }
        let (tw_re, tw_im) = if inverse {
            (&self.inv_re, &self.inv_im)
        } else {
            (&self.fwd_re, &self.fwd_im)
        };
        let mut off = 0;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let wr = &tw_re[off..off + half];
            let wi = &tw_im[off..off + half];
            let mut i = 0;
            while i < n {
                let (ur, vr) = self.scratch_re[i..i + len].split_at_mut(half);
                let (ui, vi) = self.scratch_im[i..i + len].split_at_mut(half);
                butterflies(ur, vr, ui, vi, wr, wi, wide);
                i += len;
            }
            off += half;
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f32;
            for (i, c) in data.iter_mut().enumerate() {
                *c = Complex::new(self.scratch_re[i] * scale, self.scratch_im[i] * scale);
            }
        } else {
            for (i, c) in data.iter_mut().enumerate() {
                *c = Complex::new(self.scratch_re[i], self.scratch_im[i]);
            }
        }
    }
}

/// One stage's butterflies over a split block: `u ± w·v` with `u` in
/// `(ur, ui)` and `v` in `(vr, vi)`. The vector and scalar loops evaluate
/// the identical per-element formula (no reassociation), so the paths are
/// bit-identical.
fn butterflies(
    ur: &mut [f32],
    vr: &mut [f32],
    ui: &mut [f32],
    vi: &mut [f32],
    wr: &[f32],
    wi: &[f32],
    wide: bool,
) {
    let half = wr.len();
    let mut k = 0;
    if wide {
        while k + 4 <= half {
            let wrv = F32x4::load(&wr[k..]);
            let wiv = F32x4::load(&wi[k..]);
            let vrv = F32x4::load(&vr[k..]);
            let viv = F32x4::load(&vi[k..]);
            let tr = vrv.mul(wrv).sub(viv.mul(wiv));
            let ti = vrv.mul(wiv).add(viv.mul(wrv));
            let urv = F32x4::load(&ur[k..]);
            let uiv = F32x4::load(&ui[k..]);
            urv.add(tr).store(&mut ur[k..]);
            uiv.add(ti).store(&mut ui[k..]);
            urv.sub(tr).store(&mut vr[k..]);
            uiv.sub(ti).store(&mut vi[k..]);
            k += 4;
        }
    }
    while k < half {
        let tr = vr[k] * wr[k] - vi[k] * wi[k];
        let ti = vr[k] * wi[k] + vi[k] * wr[k];
        let (a, b) = (ur[k], ui[k]);
        ur[k] = a + tr;
        ui[k] = b + ti;
        vr[k] = a - tr;
        vi[k] = b - ti;
        k += 1;
    }
}

/// Forward FFT of a real signal; returns the full complex spectrum.
///
/// # Panics
/// Panics unless `signal.len()` is a power of two.
pub fn fft_real(signal: &[f32]) -> Vec<Complex> {
    let mut data: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
    fft_inplace(&mut data, false);
    data
}

/// Magnitude spectrum of a real signal (first `n/2 + 1` bins).
pub fn magnitude_spectrum(signal: &[f32]) -> Vec<f32> {
    let spec = fft_real(signal);
    let n = spec.len();
    spec.iter().take(n / 2 + 1).map(|c| c.abs()).collect()
}

/// Index of the strongest non-DC bin and its frequency in Hz.
pub fn dominant_frequency(signal: &[f32], sample_rate: u32) -> f32 {
    let mags = magnitude_spectrum(signal);
    let (idx, _) = mags
        .iter()
        .enumerate()
        .skip(1)
        .fold(
            (0usize, 0.0f32),
            |best, (i, &m)| {
                if m > best.1 {
                    (i, m)
                } else {
                    best
                }
            },
        );
    idx as f32 * sample_rate as f32 / signal.len() as f32
}

/// A Hann window of length `n`.
pub fn hann_window(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 0.5 - 0.5 * (TAU * i as f32 / n as f32).cos())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, cycles: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (TAU * cycles * i as f32 / n as f32).sin())
            .collect()
    }

    #[test]
    fn round_trip_identity() {
        let signal = sine(256, 7.0);
        let mut data: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
        fft_inplace(&mut data, false);
        fft_inplace(&mut data, true);
        for (c, &s) in data.iter().zip(&signal) {
            assert!((c.re - s).abs() < 1e-4, "{} vs {}", c.re, s);
            assert!(c.im.abs() < 1e-4);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_its_bin() {
        let signal = sine(512, 17.0);
        let mags = magnitude_spectrum(&signal);
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 17);
        // A full-scale sine of exact bin frequency: |X[k]| = n/2.
        assert!((mags[17] - 256.0).abs() < 1.0, "{}", mags[17]);
    }

    #[test]
    fn dominant_frequency_detects_tone() {
        let sr = 44_100u32;
        let n = 1024;
        // 10 full cycles in 1024 samples → 10 * 44100/1024 ≈ 430.7 Hz.
        let signal = sine(n, 10.0);
        let f = dominant_frequency(&signal, sr);
        assert!((f - 430.66).abs() < 1.0, "f = {f}");
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal = sine(128, 3.0);
        let time_energy: f32 = signal.iter().map(|s| s * s).sum();
        let spec = fft_real(&signal);
        let freq_energy: f32 =
            spec.iter().map(|c| c.abs() * c.abs()).sum::<f32>() / signal.len() as f32;
        assert!(
            (time_energy - freq_energy).abs() < 1e-2 * time_energy,
            "{time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn linearity() {
        let a = sine(64, 2.0);
        let b = sine(64, 5.0);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft_real(&a);
        let fb = fft_real(&b);
        let fsum = fft_real(&sum);
        for i in 0..64 {
            assert!((fa[i].re + fb[i].re - fsum[i].re).abs() < 1e-3);
            assert!((fa[i].im + fb[i].im - fsum[i].im).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        fft_real(&[0.0; 100]);
    }

    #[test]
    fn hann_window_shape() {
        let w = hann_window(64);
        assert!(w[0] < 1e-6);
        assert!((w[32] - 1.0).abs() < 1e-3);
        assert_eq!(w.len(), 64);
    }

    #[test]
    fn plan_matches_fft_inplace_exactly() {
        for n in [2usize, 8, 64, 128, 512] {
            let signal = sine(n, 3.0);
            let mut legacy: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
            let mut planned = legacy.clone();
            let mut plan = Fft::new(n);
            for inverse in [false, true] {
                fft_inplace(&mut legacy, inverse);
                plan.process_scalar(&mut planned, inverse);
                for (a, b) in legacy.iter().zip(&planned) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} inverse={inverse}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} inverse={inverse}");
                }
            }
        }
    }

    #[test]
    fn plan_wide_matches_scalar_exactly() {
        for n in [2usize, 4, 16, 128, 1024] {
            let signal = sine(n, 5.0);
            let mut a: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.25)).collect();
            let mut b = a.clone();
            let mut plan = Fft::new(n);
            for inverse in [false, true] {
                plan.process(&mut a, inverse);
                plan.process_scalar(&mut b, inverse);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "n={n} inverse={inverse}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "n={n} inverse={inverse}");
                }
            }
        }
    }

    #[test]
    fn plan_round_trip_identity() {
        let signal = sine(256, 7.0);
        let mut plan = Fft::new(256);
        let mut data: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
        plan.process(&mut data, false);
        plan.process(&mut data, true);
        for (c, &s) in data.iter().zip(&signal) {
            assert!((c.re - s).abs() < 1e-4, "{} vs {}", c.re, s);
            assert!(c.im.abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        Fft::new(100);
    }

    #[test]
    fn tiny_transforms() {
        let mut one = vec![Complex::new(3.0, 0.0)];
        fft_inplace(&mut one, false);
        assert_eq!(one[0].re, 3.0);
        let mut two = vec![Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)];
        fft_inplace(&mut two, false);
        assert!((two[0].re - 3.0).abs() < 1e-6);
        assert!((two[1].re + 1.0).abs() < 1e-6);
    }
}
