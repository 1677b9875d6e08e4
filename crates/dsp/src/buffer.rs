//! Planar floating-point audio buffers.
//!
//! Samples are stored **deinterleaved** (planar): all of channel 0, then
//! all of channel 1, i.e. `data[ch * frames + i]`. Planar storage is what
//! the vectorized kernels want — each channel is one contiguous run of
//! lanes with no stride math per sample — and interleaving happens only at
//! the WAV/soundcard boundary ([`AudioBuf::extend_interleaved_into`]).
//!
//! A buffer either owns its samples (`Vec<f32>`) or is a *view* into a
//! [`crate::arena::BufferArena`] — one cache-aligned allocation shared by
//! every node output of an executor graph. Views are created once at graph
//! build time, so the audio hot path never touches the allocator.

use crate::simd::F32x4;

/// How a buffer's samples are stored.
enum Storage {
    /// The buffer owns its samples.
    Owned(Vec<f32>),
    /// A fixed-size window into a [`crate::arena::BufferArena`].
    ///
    /// The arena outlives the view (enforced by the arena's only caller,
    /// the executor graph, which owns both and never lets a view escape
    /// its graph's lifetime).
    View { ptr: *mut f32, len: usize },
}

/// A planar audio buffer with 1 or 2 channels of `f32` samples.
///
/// This is the unit of data flowing along the edges of the DJ Star task
/// graph: each node owns one output buffer, reads the output buffers of its
/// predecessors, and the sound card consumes the final one per cycle.
pub struct AudioBuf {
    channels: usize,
    frames: usize,
    storage: Storage,
}

// SAFETY: `Owned` buffers are ordinary `Vec`s. `View` buffers alias only
// their own arena slot (slots never overlap), and access to a node's output
// buffer is serialized by the executor's epoch protocol: exactly one worker
// owns a node per cycle, and readers observe the owner's Release store
// before touching the buffer. Views never outlive the graph that owns the
// arena.
unsafe impl Send for AudioBuf {}
unsafe impl Sync for AudioBuf {}

impl AudioBuf {
    /// A silent buffer with `channels` channels and `frames` frames.
    ///
    /// # Panics
    /// Panics unless `channels` is 1 or 2, the only layouts DJ Star uses.
    pub fn zeroed(channels: usize, frames: usize) -> Self {
        assert!(
            channels == 1 || channels == 2,
            "only mono and stereo buffers are supported"
        );
        AudioBuf {
            channels,
            frames,
            storage: Storage::Owned(vec![0.0; channels * frames]),
        }
    }

    /// A silent stereo buffer of the engine's standard 128 frames.
    pub fn stereo_default() -> Self {
        Self::zeroed(2, crate::BUFFER_FRAMES)
    }

    /// A view over `channels * frames` floats starting at `ptr`.
    ///
    /// # Safety
    /// `ptr` must stay valid (and unaliased by other views) for the view's
    /// whole lifetime; only [`crate::arena::BufferArena`] calls this.
    pub(crate) unsafe fn from_raw_view(ptr: *mut f32, channels: usize, frames: usize) -> Self {
        assert!(
            channels == 1 || channels == 2,
            "only mono and stereo buffers are supported"
        );
        AudioBuf {
            channels,
            frames,
            storage: Storage::View {
                ptr,
                len: channels * frames,
            },
        }
    }

    /// Build a buffer by evaluating `f(channel, frame)`.
    ///
    /// `f` is called in frame-major order — `f(0, 0), f(1, 0), f(0, 1), …`
    /// — the order stateful closures (oscillators, noise sources) have
    /// always observed. Hot code should write channel slices directly via
    /// [`AudioBuf::channel_mut`] instead of paying a closure call per
    /// sample.
    pub fn from_fn(channels: usize, frames: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut buf = Self::zeroed(channels, frames);
        let data = buf.as_mut_slice();
        for i in 0..frames {
            for ch in 0..channels {
                data[ch * frames + i] = f(ch, i);
            }
        }
        buf
    }

    #[inline]
    fn as_slice(&self) -> &[f32] {
        match &self.storage {
            Storage::Owned(v) => v,
            // SAFETY: see the Send/Sync rationale — the arena outlives the
            // view and slots never overlap.
            Storage::View { ptr, len } => unsafe { core::slice::from_raw_parts(*ptr, *len) },
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        match &mut self.storage {
            Storage::Owned(v) => v,
            // SAFETY: as above, plus `&mut self` makes this the only live
            // reference derived from this view.
            Storage::View { ptr, len } => unsafe { core::slice::from_raw_parts_mut(*ptr, *len) },
        }
    }

    /// True when this buffer is an arena view rather than an owner.
    #[inline]
    pub fn is_view(&self) -> bool {
        matches!(self.storage, Storage::View { .. })
    }

    /// Number of channels (1 or 2).
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of frames.
    #[inline]
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// All samples, planar: channel 0's frames, then channel 1's.
    #[inline]
    pub fn samples(&self) -> &[f32] {
        self.as_slice()
    }

    /// Mutable planar samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }

    /// The contiguous samples of one channel.
    #[inline]
    pub fn channel(&self, channel: usize) -> &[f32] {
        let frames = self.frames;
        &self.as_slice()[channel * frames..(channel + 1) * frames]
    }

    /// The mutable contiguous samples of one channel.
    #[inline]
    pub fn channel_mut(&mut self, channel: usize) -> &mut [f32] {
        let frames = self.frames;
        &mut self.as_mut_slice()[channel * frames..(channel + 1) * frames]
    }

    /// Both channel planes at once; mono buffers return an empty right
    /// plane.
    #[inline]
    fn as_planar_slices(&self) -> (&[f32], &[f32]) {
        let frames = self.frames;
        if self.channels == 2 {
            self.as_slice().split_at(frames)
        } else {
            (self.as_slice(), &[])
        }
    }

    /// Both mutable channel planes at once; mono buffers return an empty
    /// right plane.
    #[inline]
    pub fn as_planar_slices_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        let frames = self.frames;
        if self.channels == 2 {
            self.as_mut_slice().split_at_mut(frames)
        } else {
            (self.as_mut_slice(), &mut [])
        }
    }

    /// Iterate frame ranges in chunks of at most `chunk` frames, yielding
    /// the matching slice of each channel plane (the right plane is empty
    /// for mono). Kernels that need per-frame cross-channel state (the
    /// limiter's envelope, the compressor's RMS) use this to stage work
    /// through fixed stack arrays without per-sample `(channel, frame)`
    /// indexing.
    pub fn frames_chunks_mut(
        &mut self,
        chunk: usize,
    ) -> impl Iterator<Item = (&mut [f32], &mut [f32])> {
        assert!(chunk > 0, "chunk must be positive");
        let channels = self.channels;
        let (l, r) = self.as_planar_slices_mut();
        let mut right = r.chunks_mut(chunk);
        l.chunks_mut(chunk).map(move |lc| {
            let rc = if channels == 2 {
                right.next().expect("planes have equal length")
            } else {
                &mut []
            };
            (lc, rc)
        })
    }

    /// Sample of `channel` at `frame`.
    #[inline]
    pub fn sample(&self, channel: usize, frame: usize) -> f32 {
        self.as_slice()[channel * self.frames + frame]
    }

    /// Set the sample of `channel` at `frame`.
    #[inline]
    pub fn set_sample(&mut self, channel: usize, frame: usize, value: f32) {
        let frames = self.frames;
        self.as_mut_slice()[channel * frames + frame] = value;
    }

    /// Zero every sample without reallocating.
    pub fn clear(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Copy the contents of `src`, which must have the same layout.
    ///
    /// # Panics
    /// Panics on layout mismatch; graph wiring guarantees matching layouts.
    pub fn copy_from(&mut self, src: &AudioBuf) {
        assert_eq!(self.channels, src.channels, "channel-count mismatch");
        assert_eq!(self.frames, src.frames, "frame-count mismatch");
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Append this buffer's frames to `sink` in interleaved order
    /// (`L0 R0 L1 R1 …`) — the WAV/soundcard boundary format.
    pub fn extend_interleaved_into(&self, sink: &mut Vec<f32>) {
        match self.channels {
            1 => sink.extend_from_slice(self.as_slice()),
            _ => {
                let (l, r) = self.as_planar_slices();
                sink.reserve(self.frames * 2);
                for (a, b) in l.iter().zip(r) {
                    sink.push(*a);
                    sink.push(*b);
                }
            }
        }
    }

    /// Add `gain * src` into this buffer. When `src` is mono and `self` is
    /// stereo the mono signal is added to both channels; the symmetric
    /// downmix averages left and right.
    pub fn mix_add(&mut self, src: &AudioBuf, gain: f32) {
        assert_eq!(self.frames, src.frames, "frame-count mismatch");
        match (self.channels, src.channels) {
            (a, b) if a == b => {
                for (d, s) in self.as_mut_slice().iter_mut().zip(src.as_slice()) {
                    *d += gain * s;
                }
            }
            (2, 1) => {
                let mono = src.channel(0);
                let (l, r) = self.as_planar_slices_mut();
                for i in 0..mono.len() {
                    let s = gain * mono[i];
                    l[i] += s;
                    r[i] += s;
                }
            }
            (1, 2) => {
                let (sl, sr) = src.as_planar_slices();
                let d = self.channel_mut(0);
                for i in 0..d.len() {
                    let s = 0.5 * (sl[i] + sr[i]);
                    d[i] += gain * s;
                }
            }
            _ => unreachable!("buffers are mono or stereo"),
        }
    }

    /// Multiply every sample by `gain`. A plain loop: the compiler
    /// vectorizes it, and it timed faster than a hand-written 4-lane pass.
    pub fn scale(&mut self, gain: f32) {
        for s in self.as_mut_slice() {
            *s *= gain;
        }
    }

    /// Root-mean-square level over all channels.
    pub fn rms(&self) -> f32 {
        let data = self.as_slice();
        if data.is_empty() {
            return 0.0;
        }
        (sum_squares(data) / data.len() as f32).sqrt()
    }

    /// Largest absolute sample value.
    pub fn peak(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, s| m.max(s.abs()))
    }

    /// Sum of squared samples (signal energy); drives the data-dependent
    /// node cost model, mirroring the paper's observation that node run-time
    /// "additionally depends on the actual audio stream data" (§IV).
    pub fn energy(&self) -> f32 {
        sum_squares(self.as_slice())
    }

    /// True if every sample is finite (no NaN/inf escaped a filter).
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|s| s.is_finite())
    }
}

/// Sum of squares in four lane accumulators, paired by [`F32x4::hsum`],
/// then the `len % 4` tail in order. This reassociated sum is the one
/// form: the cost model seeds `burn` with [`AudioBuf::energy`], so the
/// engine's output depends on these bits.
fn sum_squares(data: &[f32]) -> f32 {
    let mut acc = F32x4::zero();
    let n = data.len() & !3;
    let mut i = 0;
    while i < n {
        let v = F32x4::load(&data[i..]);
        acc = acc.add(v.mul(v));
        i += 4;
    }
    let mut sum = acc.hsum();
    for s in &data[n..] {
        sum += s * s;
    }
    sum
}

impl Clone for AudioBuf {
    /// Cloning always yields an *owned* buffer (views deep-copy).
    fn clone(&self) -> Self {
        AudioBuf {
            channels: self.channels,
            frames: self.frames,
            storage: Storage::Owned(self.as_slice().to_vec()),
        }
    }
}

impl PartialEq for AudioBuf {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels
            && self.frames == other.frames
            && self.as_slice() == other.as_slice()
    }
}

impl core::fmt::Debug for AudioBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AudioBuf")
            .field("channels", &self.channels)
            .field("frames", &self.frames)
            .field("view", &self.is_view())
            .field("data", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_silent() {
        let b = AudioBuf::zeroed(2, 16);
        assert_eq!(b.channels(), 2);
        assert_eq!(b.frames(), 16);
        assert_eq!(b.samples().len(), 32);
        assert_eq!(b.rms(), 0.0);
        assert_eq!(b.peak(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mono and stereo")]
    fn rejects_surround() {
        AudioBuf::zeroed(6, 16);
    }

    #[test]
    fn from_fn_is_planar() {
        let b = AudioBuf::from_fn(2, 3, |ch, i| (ch * 10 + i) as f32);
        assert_eq!(b.samples(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(b.sample(1, 2), 12.0);
        assert_eq!(b.channel(0), &[0.0, 1.0, 2.0]);
        assert_eq!(b.channel(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_fn_calls_in_frame_major_order() {
        // Stateful closures (oscillators, noise) rely on the historical
        // call order f(0,0), f(1,0), f(0,1), ...
        let mut n = 0;
        let b = AudioBuf::from_fn(2, 3, |_, _| {
            n += 1;
            n as f32
        });
        assert_eq!(b.sample(0, 0), 1.0);
        assert_eq!(b.sample(1, 0), 2.0);
        assert_eq!(b.sample(0, 1), 3.0);
        assert_eq!(b.sample(1, 2), 6.0);
    }

    #[test]
    fn planar_slices_and_chunks() {
        let mut b = AudioBuf::from_fn(2, 6, |ch, i| (ch * 100 + i) as f32);
        {
            let (l, r) = b.as_planar_slices();
            assert_eq!(l, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
            assert_eq!(r[0], 100.0);
        }
        let chunks: Vec<(usize, usize)> = b
            .frames_chunks_mut(4)
            .map(|(l, r)| (l.len(), r.len()))
            .collect();
        assert_eq!(chunks, vec![(4, 4), (2, 2)]);
        let mut mono = AudioBuf::zeroed(1, 5);
        let chunks: Vec<(usize, usize)> = mono
            .frames_chunks_mut(4)
            .map(|(l, r)| (l.len(), r.len()))
            .collect();
        assert_eq!(chunks, vec![(4, 0), (1, 0)]);
    }

    #[test]
    fn interleave_at_the_boundary() {
        let b = AudioBuf::from_fn(2, 3, |ch, i| (ch * 10 + i) as f32);
        let mut sink = Vec::new();
        b.extend_interleaved_into(&mut sink);
        assert_eq!(sink, vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        let mono = AudioBuf::from_fn(1, 2, |_, i| i as f32);
        sink.clear();
        mono.extend_interleaved_into(&mut sink);
        assert_eq!(sink, vec![0.0, 1.0]);
    }

    #[test]
    fn mix_add_same_layout() {
        let mut a = AudioBuf::from_fn(2, 2, |_, _| 1.0);
        let b = AudioBuf::from_fn(2, 2, |_, _| 2.0);
        a.mix_add(&b, 0.5);
        assert!(a.samples().iter().all(|&s| (s - 2.0).abs() < 1e-6));
    }

    #[test]
    fn mix_add_mono_into_stereo() {
        let mut st = AudioBuf::zeroed(2, 2);
        let mono = AudioBuf::from_fn(1, 2, |_, i| i as f32 + 1.0);
        st.mix_add(&mono, 1.0);
        assert_eq!(st.sample(0, 0), 1.0);
        assert_eq!(st.sample(1, 0), 1.0);
        assert_eq!(st.sample(0, 1), 2.0);
    }

    #[test]
    fn mix_add_stereo_into_mono_averages() {
        let mut mono = AudioBuf::zeroed(1, 1);
        let mut st = AudioBuf::zeroed(2, 1);
        st.set_sample(0, 0, 1.0);
        st.set_sample(1, 0, 3.0);
        mono.mix_add(&st, 1.0);
        assert_eq!(mono.sample(0, 0), 2.0);
    }

    #[test]
    fn reductions_agree_with_scalar() {
        // `energy` against a scalar model of its order: lane k sums every
        // fourth square from k, lanes pair as (0 + 2) + (1 + 3), then the
        // tail. Mono lengths 0..=9 cover every tail; 37 stereo frames are
        // 74 samples.
        for (channels, frames) in (0..=9).map(|f| (1, f)).chain([(2, 37)]) {
            let b = AudioBuf::from_fn(channels, frames, |ch, i| {
                ((ch * 37 + i) as f32 * 0.7).sin() * 3.1
            });
            let data = b.samples();
            let len = data.len();
            let n = len & !3;
            let mut lanes = [0.0f32; 4];
            for (i, s) in data[..n].iter().enumerate() {
                lanes[i % 4] += s * s;
            }
            let mut sum = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
            for s in &data[n..] {
                sum += s * s;
            }
            assert_eq!(b.energy().to_bits(), sum.to_bits(), "len {len}");
            let rms = if len == 0 {
                0.0
            } else {
                (sum / len as f32).sqrt()
            };
            assert_eq!(b.rms().to_bits(), rms.to_bits(), "len {len}");
        }
    }

    #[test]
    fn rms_and_peak_of_known_signal() {
        let b = AudioBuf::from_fn(1, 4, |_, i| if i % 2 == 0 { 1.0 } else { -1.0 });
        assert!((b.rms() - 1.0).abs() < 1e-6);
        assert_eq!(b.peak(), 1.0);
        assert!((b.energy() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn copy_and_clear() {
        let src = AudioBuf::from_fn(2, 4, |_, i| i as f32);
        let mut dst = AudioBuf::zeroed(2, 4);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.clear();
        assert_eq!(dst.peak(), 0.0);
    }

    #[test]
    fn finite_detects_nan() {
        let mut b = AudioBuf::zeroed(1, 2);
        assert!(b.is_finite());
        b.set_sample(0, 1, f32::NAN);
        assert!(!b.is_finite());
    }

    #[test]
    fn clone_of_view_is_owned() {
        let arena = crate::arena::BufferArena::new(&[(2, 8)]);
        // SAFETY: arena outlives the view within this test.
        let mut v = unsafe { arena.view(0) };
        assert!(v.is_view());
        v.set_sample(1, 3, 0.5);
        let c = v.clone();
        assert!(!c.is_view());
        assert_eq!(c, v);
    }
}
