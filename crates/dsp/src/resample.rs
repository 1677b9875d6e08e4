//! Variable-rate resampling for deck pitch/scratch playback.
//!
//! When the DJ nudges or scratches a deck, the track is read at a non-unit
//! rate; this reader produces output frames by interpolating the source at a
//! fractional position advancing by `rate` per output frame.

/// Cubic (Catmull-Rom) interpolation over 4 neighbouring samples.
#[inline]
fn catmull_rom(p0: f32, p1: f32, p2: f32, p3: f32, t: f32) -> f32 {
    let t2 = t * t;
    let t3 = t2 * t;
    0.5 * ((2.0 * p1)
        + (-p0 + p2) * t
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3)
}

/// A fractional-position reader over a mono sample slice.
#[derive(Debug, Clone)]
pub struct VarRateReader {
    pos: f64,
}

impl VarRateReader {
    /// Reader starting at sample position `pos`.
    pub fn new(pos: f64) -> Self {
        VarRateReader { pos }
    }

    /// Current fractional source position.
    pub fn position(&self) -> f64 {
        self.pos
    }

    /// Seek to an absolute source position.
    pub fn seek(&mut self, pos: f64) {
        self.pos = pos;
    }

    /// Read `out.len()` frames from `src` advancing `rate` source frames per
    /// output frame (negative rates play backwards). Positions outside the
    /// source read as silence. Returns the new position.
    pub fn read(&mut self, src: &[f32], rate: f64, out: &mut [f32]) -> f64 {
        let n = src.len() as isize;
        let sample_at = |i: isize| -> f32 {
            if i < 0 || i >= n {
                0.0
            } else {
                src[i as usize]
            }
        };
        for o in out.iter_mut() {
            let base = self.pos.floor();
            let t = (self.pos - base) as f32;
            let i = base as isize;
            *o = catmull_rom(
                sample_at(i - 1),
                sample_at(i),
                sample_at(i + 1),
                sample_at(i + 2),
                t,
            );
            self.pos += rate;
        }
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rate_reproduces_source() {
        let src: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut r = VarRateReader::new(1.0);
        let mut out = vec![0.0; 32];
        r.read(&src, 1.0, &mut out);
        for (k, &o) in out.iter().enumerate() {
            assert!(
                (o - src[k + 1]).abs() < 1e-4,
                "frame {k}: {o} vs {}",
                src[k + 1]
            );
        }
    }

    #[test]
    fn catmull_rom_hits_control_points() {
        assert_eq!(catmull_rom(0.0, 1.0, 2.0, 3.0, 0.0), 1.0);
        assert_eq!(catmull_rom(0.0, 1.0, 2.0, 3.0, 1.0), 2.0);
    }

    #[test]
    fn catmull_rom_linear_data_is_linear() {
        let v = catmull_rom(0.0, 1.0, 2.0, 3.0, 0.5);
        assert!((v - 1.5).abs() < 1e-6);
    }

    #[test]
    fn double_rate_skips_samples() {
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut r = VarRateReader::new(4.0);
        let mut out = vec![0.0; 8];
        r.read(&src, 2.0, &mut out);
        for (k, &o) in out.iter().enumerate() {
            assert!((o - (4.0 + 2.0 * k as f32)).abs() < 1e-3);
        }
    }

    #[test]
    fn negative_rate_plays_backwards() {
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut r = VarRateReader::new(32.0);
        let mut out = vec![0.0; 8];
        r.read(&src, -1.0, &mut out);
        for (k, &o) in out.iter().enumerate() {
            assert!((o - (32.0 - k as f32)).abs() < 1e-3);
        }
    }

    #[test]
    fn out_of_range_is_silent() {
        let src = vec![1.0f32; 16];
        let mut r = VarRateReader::new(1000.0);
        let mut out = vec![9.0; 4];
        r.read(&src, 1.0, &mut out);
        assert!(out.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn position_advances_by_rate_times_frames() {
        let src = vec![0.0f32; 100];
        let mut r = VarRateReader::new(10.0);
        r.read(&src, 0.5, &mut [0.0; 20]);
        assert!((r.position() - 20.0).abs() < 1e-9);
    }
}
