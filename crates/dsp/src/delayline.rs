//! Fractional delay lines, the backbone of the time-based effects
//! (delay/echo, flanger).
//!
//! Two forms of every access: the per-sample [`push`](DelayLine::push) /
//! [`read`](DelayLine::read) / [`read_frac`](DelayLine::read_frac), and the
//! block entry points the effects run on a whole channel plane
//! ([`modulated_taps`](DelayLine::modulated_taps),
//! [`feedback_block`](DelayLine::feedback_block)), which keep the write
//! index in a local and produce the same bits.

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

    /// Longest fractional delay: `capacity - 1`, so that the tap after it is
    /// still in the line — and never below the shortest, 1.
    fn max_delay(&self) -> f32 {
        (self.buf.len() - 1).max(1) as f32
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
    ///
    /// A one-sample line has no pair of taps to interpolate between: its
    /// upper clamp is 1 as well, and both taps are its one sample.
    #[inline]
    pub fn read_frac(&self, delay: f32) -> f32 {
        let d = delay.clamp(1.0, self.max_delay());
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
        let d = delay.clamp(1.0, self.max_delay());
        let d0 = d.floor();
        let frac = d - d0;
        tap(d0 as usize) * (1.0 - frac) + tap(d0 as usize + 1) * frac
    }

    /// Block form of "[`push`](Self::push) the sample, then
    /// [`read_frac`](Self::read_frac) `TAPS` modulated taps": for frame `i`,
    /// `plane[i]` is pushed, tap `k` is read at `delays[k][i]`, and
    /// `plane[i]` becomes `mix(dry, taps)`. Bit for bit the per-sample calls.
    ///
    /// The delay is clamped as `read_frac` clamps it before the tap is taken
    /// (a NaN delay stays NaN and yields a NaN tap there too), so truncating
    /// it to `i32` is its `floor`, the tap lies in the ring, one
    /// compare-and-add wraps it, and the second tap is the slot before it.
    /// Exact for capacities below 2^31 samples.
    ///
    /// # Panics
    /// Panics if a delay table is shorter than `plane`.
    pub fn modulated_taps<const TAPS: usize>(
        &mut self,
        plane: &mut [f32],
        delays: [&[f32]; TAPS],
        mut mix: impl FnMut(f32, [f32; TAPS]) -> f32,
    ) {
        let delays = delays.map(|table| &table[..plane.len()]);
        let n = self.buf.len();
        let max = self.max_delay();
        let ring = &mut self.buf[..];
        let mut write = self.write;
        for (i, x) in plane.iter_mut().enumerate() {
            let dry = *x;
            ring[write] = dry;
            write += 1;
            if write == n {
                write = 0;
            }
            let taps = delays.map(|table| {
                let d = table[i].clamp(1.0, max);
                let tap = d as i32;
                let frac = d - tap as f32;
                // 0 <= tap <= n (0 only for NaN, n only when n is 1), write < n.
                let near = write as isize - tap as isize;
                let near = if near < 0 { near + n as isize } else { near } as usize;
                let far = if near == 0 { n - 1 } else { near - 1 };
                ring[near] * (1.0 - frac) + ring[far] * frac
            });
            *x = mix(dry, taps);
        }
        self.write = write;
    }

    /// Block form of a feedback delay: for each `x` of `plane`, in order,
    /// `wet = read(delay)` then `push(x + wet * feedback)`; the wet taps are
    /// returned in `wet`. Bit for bit the per-sample calls.
    ///
    /// The ring is walked in straight runs — cut where the read or the write
    /// index wraps, and after `delay` samples, because that is when a run
    /// would start reading what it wrote itself — so a run's taps can be
    /// copied out before its writes begin.
    ///
    /// # Panics
    /// Panics if `wet` is shorter than `plane`.
    pub fn feedback_block(&mut self, plane: &[f32], delay: usize, feedback: f32, wet: &mut [f32]) {
        let wet = &mut wet[..plane.len()];
        let n = self.buf.len();
        let d = delay.clamp(1, n);
        let mut done = 0;
        while done < plane.len() {
            let write = self.write;
            let read = if write >= d { write - d } else { write + n - d };
            let len = (plane.len() - done).min(d).min(n - write).min(n - read);
            let (taps, dry) = (&mut wet[done..done + len], &plane[done..done + len]);
            taps.copy_from_slice(&self.buf[read..read + len]);
            for ((slot, x), tap) in self.buf[write..write + len].iter_mut().zip(dry).zip(&*taps) {
                *slot = x + tap * feedback;
            }
            done += len;
            self.write = if write + len == n { 0 } else { write + len };
        }
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
