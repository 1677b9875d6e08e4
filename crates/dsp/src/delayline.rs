//! Fractional delay lines, the backbone of the time-based effects
//! (delay/echo, flanger, chorus).

/// A circular mono delay line with linear-interpolated fractional reads.
#[derive(Debug, Clone)]
pub struct DelayLine {
    buf: Vec<f32>,
    write: usize,
}

impl DelayLine {
    /// A delay line holding up to `capacity` samples of history.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "delay line needs capacity");
        DelayLine {
            buf: vec![0.0; capacity],
            write: 0,
        }
    }

    /// Maximum delay in samples.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Push one sample of input.
    #[inline]
    pub fn push(&mut self, x: f32) {
        self.buf[self.write] = x;
        self.write += 1;
        if self.write == self.buf.len() {
            self.write = 0;
        }
    }

    /// Read the sample `delay` samples in the past (integer tap).
    /// `delay` is clamped to the capacity; `delay = 1` reads the most
    /// recently pushed sample.
    #[inline]
    pub fn read(&self, delay: usize) -> f32 {
        let n = self.buf.len();
        let d = delay.clamp(1, n);
        // write < n and 1 <= d <= n, so the sum is below 2n: one
        // compare-and-subtract is the `% n`.
        let idx = self.write + n - d;
        self.buf[if idx >= n { idx - n } else { idx }]
    }

    /// Read a fractional tap with linear interpolation.
    /// `delay` is clamped to `[1, capacity - 1]`.
    ///
    /// Bit for bit [`read_frac_reference`](Self::read_frac_reference): the
    /// clamped delay is at least 1, so the truncating cast is its `floor`
    /// (a `floorf` call on the SSE2 baseline), and converting the integer
    /// back is exact for every tap a buffer can hold.
    #[inline]
    pub fn read_frac(&self, delay: f32) -> f32 {
        let max = (self.buf.len() - 1) as f32;
        let d = delay.clamp(1.0, max);
        let tap = d as usize;
        let frac = d - tap as f32;
        let a = self.read(tap);
        let b = self.read(tap + 1);
        a * (1.0 - frac) + b * frac
    }

    /// The textbook form of [`read_frac`](Self::read_frac): `floor` for the
    /// integer tap, `%` for the ring index.
    pub fn read_frac_reference(&self, delay: f32) -> f32 {
        let n = self.buf.len();
        let tap = |delay: usize| self.buf[(self.write + n - delay.clamp(1, n)) % n];
        let d = delay.clamp(1.0, (n - 1) as f32);
        let d0 = d.floor();
        let frac = d - d0;
        tap(d0 as usize) * (1.0 - frac) + tap(d0 as usize + 1) * frac
    }

    /// Zero the whole history.
    pub fn clear(&mut self) {
        self.buf.fill(0.0);
        self.write = 0;
    }
}

/// A pair of delay lines for stereo processing.
#[derive(Debug, Clone)]
pub struct StereoDelayLine {
    lines: [DelayLine; 2],
}

impl StereoDelayLine {
    /// Stereo delay with `capacity` samples of history per channel.
    pub fn new(capacity: usize) -> Self {
        StereoDelayLine {
            lines: [DelayLine::new(capacity), DelayLine::new(capacity)],
        }
    }

    /// The delay line of `channel` (0 or 1).
    pub fn channel(&mut self, channel: usize) -> &mut DelayLine {
        &mut self.lines[channel]
    }

    /// Immutable access to channel line (for reads).
    pub fn channel_ref(&self, channel: usize) -> &DelayLine {
        &self.lines[channel]
    }

    /// Clear both channels.
    pub fn clear(&mut self) {
        for l in &mut self.lines {
            l.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_by_exact_samples() {
        let mut dl = DelayLine::new(8);
        for i in 0..8 {
            dl.push(i as f32);
        }
        assert_eq!(dl.read(1), 7.0);
        assert_eq!(dl.read(3), 5.0);
        assert_eq!(dl.read(8), 0.0);
    }

    #[test]
    fn wraps_around() {
        let mut dl = DelayLine::new(4);
        for i in 0..10 {
            dl.push(i as f32);
        }
        assert_eq!(dl.read(1), 9.0);
        assert_eq!(dl.read(4), 6.0);
    }

    #[test]
    fn fractional_read_interpolates() {
        let mut dl = DelayLine::new(8);
        for i in 0..8 {
            dl.push(i as f32);
        }
        // Between delay 2 (=6.0) and delay 3 (=5.0).
        let v = dl.read_frac(2.5);
        assert!((v - 5.5).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn read_clamps_delay() {
        let mut dl = DelayLine::new(4);
        dl.push(1.0);
        dl.push(2.0);
        assert_eq!(dl.read(0), dl.read(1));
        assert_eq!(dl.read(100), dl.read(4));
        let f = dl.read_frac(1000.0);
        assert_eq!(f, dl.read(3));
    }

    #[test]
    fn clear_silences() {
        let mut dl = DelayLine::new(4);
        dl.push(5.0);
        dl.clear();
        assert_eq!(dl.read(1), 0.0);
    }

    #[test]
    fn stereo_channels_are_independent() {
        let mut sdl = StereoDelayLine::new(4);
        sdl.channel(0).push(1.0);
        sdl.channel(1).push(2.0);
        assert_eq!(sdl.channel_ref(0).read(1), 1.0);
        assert_eq!(sdl.channel_ref(1).read(1), 2.0);
    }
}
