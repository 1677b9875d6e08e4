//! Dynamics processing: limiter, hard clipper and a soft-knee compressor.
//!
//! Fig. 3's master section runs "Limiter, Clip" on the record buffer and the
//! audio outputs; these are those processors.
//!
//! The limiter and compressor have a serial per-frame envelope follower
//! sandwiched between two embarrassingly-parallel phases. The compressor's
//! vector path stages frames through fixed stack chunks: per-frame mean
//! squares are computed 4 lanes at a time, the envelope/gain recurrence
//! runs scalar over the chunk, and the gains are applied back to each
//! channel plane 4 lanes at a time. Every per-frame formula matches the
//! scalar reference operation-for-operation, so the result is
//! bit-identical. The limiter is scalar only: its peak-and-clamp form of
//! the same staging measured no faster than the per-frame loop.

use crate::buffer::AudioBuf;
use crate::simd::F32x4;

/// Frames staged per stack chunk (one engine buffer); no heap involved.
const CHUNK: usize = 128;

/// Hard clipper: clamps every sample into `[-ceiling, ceiling]`.
#[derive(Debug, Clone)]
pub struct HardClip {
    ceiling: f32,
}

impl HardClip {
    /// Clipper at the given ceiling (> 0).
    pub fn new(ceiling: f32) -> Self {
        HardClip {
            ceiling: ceiling.max(1e-3),
        }
    }

    /// Clip a buffer in place; returns the number of clipped samples (a
    /// diagnostic DJ Star surfaces as a clip indicator).
    pub fn process(&self, buf: &mut AudioBuf) -> usize {
        // Kept scalar on purpose: vector min/max would change NaN
        // propagation vs these strict comparisons, and clipping is cheap.
        let _t = crate::kprof::timer(crate::kprof::Family::Dynamics);
        let c = self.ceiling;
        let mut clipped = 0;
        for s in buf.samples_mut() {
            if *s > c {
                *s = c;
                clipped += 1;
            } else if *s < -c {
                *s = -c;
                clipped += 1;
            }
        }
        clipped
    }
}

/// A lookahead-free peak limiter with exponential attack/release gain
/// smoothing. Output never exceeds the ceiling by more than the attack
/// transient of a single sample step (then the hard clip safety net holds).
#[derive(Debug, Clone)]
pub struct Limiter {
    ceiling: f32,
    attack_coeff: f32,
    release_coeff: f32,
    envelope: f32,
}

impl Limiter {
    /// Limiter with `ceiling` amplitude, `attack_ms` and `release_ms` time
    /// constants at `sample_rate`.
    pub fn new(ceiling: f32, attack_ms: f32, release_ms: f32, sample_rate: u32) -> Self {
        let fs = sample_rate as f32;
        let coeff = |ms: f32| (-1.0 / (ms.max(0.01) * 1e-3 * fs)).exp();
        Limiter {
            ceiling: ceiling.max(1e-3),
            attack_coeff: coeff(attack_ms),
            release_coeff: coeff(release_ms),
            envelope: 0.0,
        }
    }

    /// Default master limiter: -0.3 dBFS ceiling, 0.5 ms attack, 50 ms release.
    pub fn master(sample_rate: u32) -> Self {
        Self::new(0.966, 0.5, 50.0, sample_rate)
    }

    /// Clear envelope state.
    pub fn reset(&mut self) {
        self.envelope = 0.0;
    }

    /// Limit a buffer in place: per frame, the peak across channels drives
    /// the envelope, and the frame's gain is applied with a safety clamp.
    pub fn process(&mut self, buf: &mut AudioBuf) {
        let _t = crate::kprof::timer(crate::kprof::Family::Dynamics);
        let channels = buf.channels();
        let frames = buf.frames();
        for i in 0..frames {
            // Peak across channels of this frame.
            let mut peak = 0.0f32;
            for ch in 0..channels {
                peak = peak.max(buf.sample(ch, i).abs());
            }
            let gain = self.gain_step(peak);
            for ch in 0..channels {
                let s = buf.sample(ch, i) * gain;
                // Safety clamp for attack transients.
                buf.set_sample(ch, i, s.clamp(-self.ceiling, self.ceiling));
            }
        }
    }

    /// Advance the envelope by one frame peak and return the frame gain.
    #[inline]
    fn gain_step(&mut self, peak: f32) -> f32 {
        let coeff = if peak > self.envelope {
            self.attack_coeff
        } else {
            self.release_coeff
        };
        self.envelope = coeff * self.envelope + (1.0 - coeff) * peak;
        let over = self.envelope.max(peak);
        if over > self.ceiling {
            self.ceiling / over
        } else {
            1.0
        }
    }
}

/// A soft-knee RMS compressor used by the auto-gain bookkeeping node.
#[derive(Debug, Clone)]
pub struct Compressor {
    threshold: f32,
    ratio: f32,
    coeff: f32,
    envelope: f32,
}

impl Compressor {
    /// Compressor with linear `threshold`, compression `ratio` (>= 1) and a
    /// `window_ms` RMS smoothing window.
    pub fn new(threshold: f32, ratio: f32, window_ms: f32, sample_rate: u32) -> Self {
        let fs = sample_rate as f32;
        Compressor {
            threshold: threshold.max(1e-4),
            ratio: ratio.max(1.0),
            coeff: (-1.0 / (window_ms.max(0.1) * 1e-3 * fs)).exp(),
            envelope: 0.0,
        }
    }

    /// Clear envelope state.
    pub fn reset(&mut self) {
        self.envelope = 0.0;
    }

    /// Compress a buffer in place; returns the final gain applied (for
    /// metering).
    pub fn process(&mut self, buf: &mut AudioBuf) -> f32 {
        let _t = crate::kprof::timer(crate::kprof::Family::Dynamics);
        self.process_wide(buf)
    }

    /// Scalar reference for [`Compressor::process`]: the seed's per-frame
    /// loop. Bit-identical to the vector path.
    pub fn process_scalar(&mut self, buf: &mut AudioBuf) -> f32 {
        let channels = buf.channels();
        let frames = buf.frames();
        let mut last_gain = 1.0;
        for i in 0..frames {
            let mut sq = 0.0f32;
            for ch in 0..channels {
                let s = buf.sample(ch, i);
                sq += s * s;
            }
            sq /= channels as f32;
            let gain = self.gain_step(sq);
            last_gain = gain;
            for ch in 0..channels {
                let s = buf.sample(ch, i);
                buf.set_sample(ch, i, s * gain);
            }
        }
        last_gain
    }

    /// Advance the RMS envelope by one frame mean-square and return the
    /// frame gain.
    #[inline]
    fn gain_step(&mut self, sq: f32) -> f32 {
        self.envelope = self.coeff * self.envelope + (1.0 - self.coeff) * sq;
        let rms = self.envelope.sqrt();
        if rms > self.threshold {
            // Gain reduction toward threshold + (rms-threshold)/ratio.
            let target = self.threshold + (rms - self.threshold) / self.ratio;
            target / rms
        } else {
            1.0
        }
    }

    fn process_wide(&mut self, buf: &mut AudioBuf) -> f32 {
        let mut sqs = [0.0f32; CHUNK];
        let mut gains = [0.0f32; CHUNK];
        let mut last_gain = 1.0f32;
        for (l, r) in buf.frames_chunks_mut(CHUNK) {
            let m = l.len();
            let stereo = !r.is_empty();
            let n = m & !3;
            // Mean square per frame: dividing by 1 or 2 channels is exact,
            // so the halving multiply below rounds identically to the
            // scalar division.
            let half = F32x4::splat(0.5);
            let mut i = 0;
            while i < n {
                let lv = F32x4::load(&l[i..]);
                let mut sq = F32x4::zero().add(lv.mul(lv));
                if stereo {
                    let rv = F32x4::load(&r[i..]);
                    sq = sq.add(rv.mul(rv)).mul(half);
                }
                sq.store(&mut sqs[i..]);
                i += 4;
            }
            for i in n..m {
                let mut sq = l[i] * l[i];
                if stereo {
                    sq += r[i] * r[i];
                    sq /= 2.0;
                }
                sqs[i] = sq;
            }
            for i in 0..m {
                gains[i] = self.gain_step(sqs[i]);
            }
            if m > 0 {
                last_gain = gains[m - 1];
            }
            for plane in [&mut *l, r] {
                if plane.is_empty() {
                    continue;
                }
                let mut i = 0;
                while i < n {
                    F32x4::load(&plane[i..])
                        .mul(F32x4::load(&gains[i..]))
                        .store(&mut plane[i..]);
                    i += 4;
                }
                for i in n..m {
                    plane[i] *= gains[i];
                }
            }
        }
        last_gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_clip_bounds_and_counts() {
        let clip = HardClip::new(0.5);
        let mut buf = AudioBuf::from_fn(1, 8, |_, i| i as f32 * 0.2 - 0.8);
        let clipped = clip.process(&mut buf);
        assert!(buf.peak() <= 0.5);
        assert!(clipped > 0);
    }

    #[test]
    fn limiter_holds_ceiling_on_loud_input() {
        let mut lim = Limiter::new(0.9, 0.5, 50.0, 44_100);
        for _ in 0..20 {
            let mut buf = AudioBuf::from_fn(2, 128, |_, i| if i % 2 == 0 { 3.0 } else { -3.0 });
            lim.process(&mut buf);
            assert!(buf.peak() <= 0.9 + 1e-5, "peak {}", buf.peak());
        }
    }

    #[test]
    fn limiter_transparent_below_ceiling() {
        let mut lim = Limiter::new(1.0, 0.5, 50.0, 44_100);
        let orig = AudioBuf::from_fn(2, 128, |_, i| 0.25 * ((i as f32) * 0.3).sin());
        let mut buf = orig.clone();
        lim.process(&mut buf);
        for (a, b) in buf.samples().iter().zip(orig.samples()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn limiter_releases_after_transient() {
        let mut lim = Limiter::new(0.5, 0.1, 5.0, 44_100);
        // Loud block, then quiet blocks: gain must recover.
        let mut loud = AudioBuf::from_fn(1, 128, |_, _| 2.0);
        lim.process(&mut loud);
        let mut rms_track = Vec::new();
        for _ in 0..40 {
            let mut quiet = AudioBuf::from_fn(1, 128, |_, i| 0.3 * ((i as f32) * 0.5).sin());
            lim.process(&mut quiet);
            rms_track.push(quiet.rms());
        }
        assert!(
            rms_track.last().unwrap() > &(rms_track.first().unwrap() * 0.99),
            "gain did not recover: {:?}",
            &rms_track[..3]
        );
    }

    #[test]
    fn compressor_reduces_loud_rms() {
        let mut comp = Compressor::new(0.2, 4.0, 5.0, 44_100);
        // settle
        for _ in 0..20 {
            let mut buf = AudioBuf::from_fn(1, 128, |_, i| 0.8 * ((i as f32) * 0.7).sin());
            comp.process(&mut buf);
        }
        let mut buf = AudioBuf::from_fn(1, 128, |_, i| 0.8 * ((i as f32) * 0.7).sin());
        let gain = comp.process(&mut buf);
        assert!(gain < 0.8, "gain {gain}");
        assert!(buf.rms() < 0.5);
    }

    #[test]
    fn compressor_wide_matches_scalar_exactly() {
        for channels in [1usize, 2] {
            let mut wide = Compressor::new(0.15, 4.0, 5.0, 44_100);
            let mut scalar = wide.clone();
            for (block, frames) in [(0u32, 128usize), (1, 41), (2, 128), (3, 3)] {
                let buf = AudioBuf::from_fn(channels, frames, |ch, i| {
                    0.9 * ((block as usize * 97 + ch * 11 + i) as f32 * 0.31).sin()
                });
                let mut a = buf.clone();
                let mut b = buf;
                let ga = wide.process(&mut a);
                let gb = scalar.process_scalar(&mut b);
                assert_eq!(a.samples(), b.samples(), "ch={channels} block={block}");
                assert_eq!(ga, gb);
            }
            assert_eq!(wide.envelope, scalar.envelope);
        }
    }

    #[test]
    fn compressor_transparent_below_threshold() {
        let mut comp = Compressor::new(0.5, 4.0, 5.0, 44_100);
        let orig = AudioBuf::from_fn(1, 256, |_, i| 0.05 * ((i as f32) * 0.2).sin());
        let mut buf = orig.clone();
        let gain = comp.process(&mut buf);
        assert_eq!(gain, 1.0);
        assert_eq!(buf, orig);
    }
}
