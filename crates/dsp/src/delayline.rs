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

    /// Longest fractional delay (see [`max_delay`]).
    fn max_delay(&self) -> f32 {
        max_delay(self.buf.len())
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
    /// [`read_frac`](Self::read_frac) one modulated tap": for frame `i`,
    /// `plane[i]` is pushed, the tap `wet` is read at `delays[i]`, and
    /// `plane[i]` becomes `dry * (1 - mix) + wet * mix` — a flanger's
    /// dry/wet mix. Bit for bit the per-sample calls.
    ///
    /// The delay is clamped as `read_frac` clamps it before the tap is taken
    /// (a NaN delay stays NaN and yields a NaN tap there too), so truncating
    /// it to `i32` is its `floor`, the tap lies in the ring, one
    /// compare-and-add wraps it, and the second tap is the slot before it.
    /// Exact for capacities below 2^31 samples.
    ///
    /// On a CPU with AVX2, each block of eight frames runs in lanes: its
    /// eight samples are pushed first, then each lane takes the scalar
    /// loop's clamp, truncation, `frac` and two wrapped taps (two gathers)
    /// and interpolates and mixes in the scalar order, without FMA. A
    /// block whose delays include a NaN, or whose taps reach back so far
    /// that a slot a later frame of the block overwrote could be read
    /// (within eight samples of the capacity), runs the scalar loop, as do
    /// the frames after the last whole block.
    ///
    /// # Panics
    /// Panics if `delays` is shorter than `plane`.
    pub fn modulated_taps(&mut self, plane: &mut [f32], delays: &[f32], mix: f32) {
        let delays = &delays[..plane.len()];
        let mut taps = Taps {
            ring: &mut self.buf[..],
            write: self.write,
            mix,
        };
        // Frames the lanes took, in whole blocks.
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut whole = 0;
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_fma_available() && taps.lanes_fit() {
            whole = plane.len() / x86::LANES * x86::LANES;
            let blocks = plane[..whole].chunks_exact_mut(x86::LANES);
            for (block, delays) in blocks.zip(delays.chunks_exact(x86::LANES)) {
                // SAFETY: AVX2 presence was just verified at runtime, the
                // line fits the lanes, and the blocks hold `LANES` frames.
                if !unsafe { x86::taps_block(&mut taps, block, delays) } {
                    taps.run(block, delays);
                }
            }
        }
        taps.run(&mut plane[whole..], &delays[whole..]);
        self.write = taps.write;
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

/// [`DelayLine::modulated_taps`]' ring, its write index held in a local,
/// and the dry/wet mix.
struct Taps<'a> {
    ring: &'a mut [f32],
    write: usize,
    mix: f32,
}

/// Longest fractional delay of a `capacity`-sample line: `capacity - 1`,
/// so that the tap after it is still in the line — and never below the
/// shortest, 1.
fn max_delay(capacity: usize) -> f32 {
    (capacity - 1).max(1) as f32
}

impl Taps<'_> {
    /// Whether a block can ever run in lanes: a delay within eight samples
    /// of the capacity is needed for one, and the limit must be exact as an
    /// `f32`.
    #[cfg(target_arch = "x86_64")]
    fn lanes_fit(&self) -> bool {
        (x86::LANES + 1..=1 << 24).contains(&self.ring.len())
    }

    /// The per-frame loop: push, read the tap, mix.
    fn run(&mut self, plane: &mut [f32], delays: &[f32]) {
        let n = self.ring.len();
        let max = max_delay(n);
        let mix = self.mix;
        for (x, &delay) in plane.iter_mut().zip(delays) {
            let dry = *x;
            self.ring[self.write] = dry;
            self.write += 1;
            if self.write == n {
                self.write = 0;
            }
            let d = delay.clamp(1.0, max);
            let tap = d as i32;
            let frac = d - tap as f32;
            // 0 <= tap <= n (0 only for NaN, n only when n is 1), write < n.
            let near = self.write as isize - tap as isize;
            let near = if near < 0 { near + n as isize } else { near } as usize;
            let far = if near == 0 { n - 1 } else { near - 1 };
            let wet = self.ring[near] * (1.0 - frac) + self.ring[far] * frac;
            *x = dry * (1.0 - mix) + wet * mix;
        }
    }
}

/// The AVX2 block of [`DelayLine::modulated_taps`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Taps;
    use core::arch::x86_64::*;

    /// Frames per block: one per lane.
    pub(super) const LANES: usize = 8;

    /// Run `block` (`LANES` frames) in lanes and return `true`, or return
    /// `false` with nothing touched when a delay is NaN or a tap could
    /// read a slot a later frame of the block overwrites.
    ///
    /// # Safety
    /// Requires AVX2, `block.len() == delays.len() == LANES` and
    /// [`Taps::lanes_fit`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn taps_block(
        taps: &mut Taps<'_>,
        block: &mut [f32],
        delays: &[f32],
    ) -> bool {
        let n = taps.ring.len();
        // `delays` and `block` hold `LANES` floats: the caller's contract.
        let raw = _mm256_loadu_ps(delays.as_ptr());
        let one = _mm256_set1_ps(1.0);
        // `clamp(1, max)` of a number (NaN blocks never get here).
        let d = _mm256_min_ps(_mm256_max_ps(raw, one), _mm256_set1_ps(super::max_delay(n)));
        // Frame j's taps read slots `write_j − tap` and the one before;
        // frames j + 1 … 7 overwrite the `7 − j` slots after `write_j − 1`.
        // A tap of at most n − 8 keeps every read clear of them.
        let limit = _mm256_set1_ps((n - LANES) as f32);
        let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(raw, raw);
        let near_enough = _mm256_cmp_ps::<_CMP_LE_OQ>(d, limit);
        if _mm256_movemask_ps(_mm256_and_ps(ordered, near_enough)) != 0xFF {
            return false;
        }
        let dry = _mm256_loadu_ps(block.as_ptr());
        for &x in block.iter() {
            taps.ring[taps.write] = x;
            taps.write += 1;
            if taps.write == n {
                taps.write = 0;
            }
        }
        let nv = _mm256_set1_epi32(n as i32);
        let zero = _mm256_setzero_si256();
        // Write index after frame j's push: the block's end, minus 7 − j,
        // wrapped.
        let end = _mm256_set1_epi32(taps.write as i32);
        let write = _mm256_sub_epi32(end, _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        let write = _mm256_add_epi32(write, _mm256_and_si256(_mm256_cmpgt_epi32(zero, write), nv));
        let tap = _mm256_cvttps_epi32(d);
        let frac = _mm256_sub_ps(d, _mm256_cvtepi32_ps(tap));
        let near = _mm256_sub_epi32(write, tap);
        let near = _mm256_add_epi32(near, _mm256_and_si256(_mm256_cmpgt_epi32(zero, near), nv));
        let far = _mm256_sub_epi32(near, _mm256_set1_epi32(1));
        let far = _mm256_add_epi32(far, _mm256_and_si256(_mm256_cmpgt_epi32(zero, far), nv));
        // SAFETY: `near` and `far` lie in `0..n`, the ring's length.
        let (a, b) = unsafe {
            (
                _mm256_i32gather_ps::<4>(taps.ring.as_ptr(), near),
                _mm256_i32gather_ps::<4>(taps.ring.as_ptr(), far),
            )
        };
        // wet = a·(1 − frac) + b·frac; out = dry·(1 − mix) + wet·mix
        let wet = _mm256_add_ps(
            _mm256_mul_ps(a, _mm256_sub_ps(one, frac)),
            _mm256_mul_ps(b, frac),
        );
        let out = _mm256_add_ps(
            _mm256_mul_ps(dry, _mm256_set1_ps(1.0 - taps.mix)),
            _mm256_mul_ps(wet, _mm256_set1_ps(taps.mix)),
        );
        _mm256_storeu_ps(block.as_mut_ptr(), out);
        true
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
        assert_eq!(sdl.lines[0].read(1), 1.0);
        assert_eq!(sdl.lines[1].read(1), 2.0);
    }
}
