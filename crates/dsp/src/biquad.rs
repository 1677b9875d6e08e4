//! RBJ ("Audio EQ Cookbook") biquad filters and cascades.
//!
//! These are the workhorse of the channel strips and sample-preprocess (SP)
//! filter nodes in the DJ Star graph. Coefficients follow Robert
//! Bristow-Johnson's cookbook formulas; the state uses transposed direct
//! form II, which is well-behaved in `f32`.
//!
//! A cascade ([`process_chain`]) runs as a *wavefront* on a CPU with AVX2:
//! lane `2s + c` of an 8-lane vector holds section `s`, channel `c`, and at
//! step `t` section `s` filters frame `t − s`, so four sections advance per
//! vector operation. Section `s`'s input is the vector section `s − 1`
//! produced one step earlier, moved up one section; frame `t` enters
//! lanes 0–1. Five to eight sections ride two vectors in the same loop;
//! a chunk of one or two sections takes the fused pass below.
//! During the `n − 1` steps that fill the pipeline and the `n − 1` that
//! drain it, a lane whose frame lies outside the buffer keeps its state
//! (a masked blend), so every lane performs exactly the per-sample
//! recurrence of its section and channel, in order. The lanes hold
//! independent recurrences, never a reassociated sum: each lane operation
//! is the IEEE-754 single operation the scalar expression performs (no
//! FMA, no reordering), so the output is bit-identical to the
//! per-section reference [`process_chain_scalar`]. Without AVX2 the
//! cascade is [`process_chain_fused`]: one pass with both channels of a
//! frame in one [`F32x4`] and the sections in series. A single section
//! ([`Biquad::process`]) is the per-sample loop: a fused pass measured no
//! faster on one section (EXPERIMENTS.md E37).
//!
//! A deck's four LR4 crossover bands, when one caller holds all four, run
//! as one split tree ([`process_crossover_tree`], EXPERIMENTS.md E40): the
//! highpass prefix the bands share is filtered once, and the tree's six
//! depths ride three vectors side by side, under the same masked fill and
//! drain and the same no-FMA rule, bit for bit the four chains.

use crate::buffer::AudioBuf;
use crate::simd::F32x4;

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
        self.tick_buffer(buf);
    }

    /// The per-sample `tick` loop over a buffer, untimed.
    fn tick_buffer(&mut self, buf: &mut AudioBuf) {
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

/// Most sections per buffer pass; longer chains run in chunks.
const MAX_FUSED: usize = 8;

/// Fewest sections the wavefront takes. One or two sections leave at
/// least half its lanes idle: the recurrence bounds both forms alike, and
/// the fused pass skips the fill and drain (EXPERIMENTS.md E39).
const MIN_WAVEFRONT: usize = 3;

/// Filter `buf` through every section of `chain` in series, up to
/// `MAX_FUSED` sections per pass over the buffer.
pub fn process_chain(chain: &mut [Biquad], buf: &mut AudioBuf) {
    let _t = crate::kprof::timer(crate::kprof::Family::Biquad);
    chain_dispatch(chain, buf);
}

/// [`process_chain`] without the kernel-family timer, for callers (the EQ)
/// that account the time to their own family.
pub(crate) fn chain_dispatch(chain: &mut [Biquad], buf: &mut AudioBuf) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_fma_available() {
        for chunk in chain.chunks_mut(MAX_FUSED) {
            if chunk.len() < MIN_WAVEFRONT {
                process_chunk_wide(chunk, buf);
            } else {
                let (l, r) = buf.as_planar_slices_mut();
                // SAFETY: AVX2 presence was just verified at runtime.
                unsafe { x86::wavefront(chunk, l, r) };
            }
        }
        return;
    }
    process_chain_fused(chain, buf);
}

/// Scalar reference for [`process_chain`]: one per-sample buffer pass per
/// section.
pub fn process_chain_scalar(chain: &mut [Biquad], buf: &mut AudioBuf) {
    for section in chain {
        section.tick_buffer(buf);
    }
}

/// The cascade on a CPU without AVX2, and the wavefront's timing twin in
/// `dsp_kernels`: one fused pass per `MAX_FUSED` sections.
pub fn process_chain_fused(chain: &mut [Biquad], buf: &mut AudioBuf) {
    for chunk in chain.chunks_mut(MAX_FUSED) {
        process_chunk_wide(chunk, buf);
    }
}

/// Sections in the LR4 split tree's four branches: band `k` leaves the
/// tree after section `2k + 1` (the last band after the last section).
const TREE_SHAPE: [usize; 4] = [2, 4, 6, 6];

/// A deck's four LR4 crossover bands in one pass: `bands[k]` filters `src`
/// into `outs[k]`, bit for bit what copying `src` into each output and
/// running [`process_chain_scalar`] on it produces, states included.
///
/// The branches of an LR4 split tree share their highpass prefixes —
/// sections 0–1 of bands 1–3, sections 2–3 of bands 2–3 — so the tree runs
/// 12 sections where four chains run 18, and runs them side by side: AVX2
/// vector `v` holds tree depths `2v` (lanes 0–3) and `2v + 1` (lanes 4–7),
/// and at each depth lanes 0–1 hold the section of the band that leaves
/// the tree there, lanes 2–3 the highpass that continues. A shared
/// section's state is written back into every chain that holds it.
///
/// Sharing is exact only while the shared sections are bit-equal in every
/// chain that holds them (coefficients and state), which they are when the
/// chains were designed alike and have always filtered the same input.
/// Returns `false` and touches nothing when they are not, when the chains
/// are not 2, 4, 6 and 6 sections long, when the buffers are not all
/// stereo of one length, or when the CPU lacks AVX2; the caller then runs
/// each band's own [`process_chain`].
pub fn process_crossover_tree(
    bands: [&mut [Biquad]; 4],
    src: &AudioBuf,
    outs: [&mut AudioBuf; 4],
) -> bool {
    let _t = crate::kprof::timer(crate::kprof::Family::Biquad);
    let frames = src.frames();
    let stereo = |b: &AudioBuf| b.channels() == 2 && b.frames() == frames;
    let shaped = bands.iter().zip(TREE_SHAPE).all(|(b, n)| b.len() == n);
    if !shaped || !stereo(src) || !outs.iter().all(|o| stereo(o)) || !shared_prefixes_equal(&bands)
    {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_fma_available() {
        let planes = outs.map(|o| o.as_planar_slices_mut());
        // SAFETY: AVX2 presence was just verified at runtime.
        unsafe { x86::crossover_tree(bands, (src.channel(0), src.channel(1)), planes) };
        return true;
    }
    false
}

/// Whether every section the LR4 tree shares is bit-equal, coefficients
/// and state, in each band that holds it: section `d` of bands
/// `d / 2 + 1 ..= 3`.
fn shared_prefixes_equal(bands: &[&mut [Biquad]; 4]) -> bool {
    let bits = |s: &Biquad| {
        let c = s.coeffs;
        [
            c.b0, c.b1, c.b2, c.a1, c.a2, s.z1[0], s.z1[1], s.z2[0], s.z2[1],
        ]
        .map(f32::to_bits)
    };
    (0..TREE_SHAPE[3]).all(|d| {
        let holders = &bands[d / 2 + 1..];
        holders.iter().all(|b| bits(&b[d]) == bits(&holders[0][d]))
    })
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

/// The AVX2 wavefront cascade.
///
/// # Safety
/// Every `unsafe fn` here requires a CPU with AVX2: the caller checks
/// [`crate::simd::avx2_fma_available`] first. Vector loads and stores
/// touch only stack arrays of eight lanes; the planes are indexed as
/// slices.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Biquad;
    use crate::simd::wave::{frame, live_lanes, pair, rotate_up};
    use core::arch::x86_64::*;

    /// Sections per vector: lane `2s + c` holds section `s`, channel `c`.
    const PER_VEC: usize = 4;

    /// One wavefront pass of `chain` (1–8 sections) over the planes `l`
    /// and `r` in place. `r` is empty for a mono buffer: its lanes then
    /// filter zeros and the right-channel state is left as it was.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wavefront(chain: &mut [Biquad], l: &mut [f32], r: &mut [f32]) {
        if chain.is_empty() || l.is_empty() {
            return;
        }
        if chain.len() <= PER_VEC {
            Skew::<1>::load(chain)
                .run(chain.len(), l, r)
                .store(chain, !r.is_empty());
        } else {
            Skew::<2>::load(chain)
                .run(chain.len(), l, r)
                .store(chain, !r.is_empty());
        }
    }

    /// Coefficients, state and last outputs of up to `4 · V` sections, by
    /// lane; lanes past the chain hold zeros and are never read back.
    struct Skew<const V: usize> {
        b0: [__m256; V],
        b1: [__m256; V],
        b2: [__m256; V],
        a1: [__m256; V],
        a2: [__m256; V],
        z1: [__m256; V],
        z2: [__m256; V],
        y: [__m256; V],
        /// Each lane's section index.
        section: [__m256i; V],
    }

    impl<const V: usize> Skew<V> {
        #[target_feature(enable = "avx2")]
        unsafe fn load(chain: &[Biquad]) -> Self {
            // b0, b1, b2, a1, a2, z1, z2 by vector and lane.
            let mut rows = [[[0.0f32; 8]; V]; 7];
            for (s, sec) in chain.iter().enumerate() {
                let c = sec.coeffs;
                for ch in 0..2 {
                    let vals = [c.b0, c.b1, c.b2, c.a1, c.a2, sec.z1[ch], sec.z2[ch]];
                    for (row, v) in rows.iter_mut().zip(vals) {
                        row[s / PER_VEC][2 * (s % PER_VEC) + ch] = v;
                    }
                }
            }
            let vec = |row: &[[f32; 8]; V]| -> [__m256; V] {
                core::array::from_fn(|v| _mm256_loadu_ps(row[v].as_ptr()))
            };
            let pairs = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
            Skew {
                b0: vec(&rows[0]),
                b1: vec(&rows[1]),
                b2: vec(&rows[2]),
                a1: vec(&rows[3]),
                a2: vec(&rows[4]),
                z1: vec(&rows[5]),
                z2: vec(&rows[6]),
                y: [_mm256_setzero_ps(); V],
                section: core::array::from_fn(|v| {
                    _mm256_add_epi32(pairs, _mm256_set1_epi32((PER_VEC * v) as i32))
                }),
            }
        }

        /// Write the lanes' state back to `chain` (channel 1 only for a
        /// stereo pass).
        #[target_feature(enable = "avx2")]
        unsafe fn store(&self, chain: &mut [Biquad], stereo: bool) {
            let mut z1 = [[0.0f32; 8]; V];
            let mut z2 = [[0.0f32; 8]; V];
            for v in 0..V {
                _mm256_storeu_ps(z1[v].as_mut_ptr(), self.z1[v]);
                _mm256_storeu_ps(z2[v].as_mut_ptr(), self.z2[v]);
            }
            for (s, sec) in chain.iter_mut().enumerate() {
                for ch in 0..1 + stereo as usize {
                    let (v, lane) = (s / PER_VEC, 2 * (s % PER_VEC) + ch);
                    sec.z1[ch] = z1[v][lane];
                    sec.z2[ch] = z2[v][lane];
                }
            }
        }

        /// Run `n` sections over `frames = l.len()` frames: `n − 1` masked
        /// steps fill the pipeline, the steady steps need no mask, and
        /// `n − 1` masked steps drain it. The last section's lanes write
        /// frame `t − n + 1` at step `t`, after frame `t` was read.
        #[target_feature(enable = "avx2")]
        unsafe fn run(mut self, n: usize, l: &mut [f32], r: &mut [f32]) -> Self {
            let frames = l.len();
            // The last section sits in the last vector (1–4 sections ride
            // one vector, 5–8 two).
            let last = 2 * ((n - 1) % PER_VEC);
            for t in 0..n - 1 {
                let x = if t < frames {
                    frame(l, r, t)
                } else {
                    _mm256_setzero_ps()
                };
                self.step::<true>(t, frames, x);
            }
            for t in n - 1..frames {
                self.step::<false>(t, frames, frame(l, r, t));
                emit(self.y[V - 1], last, l, r, t + 1 - n);
            }
            for t in frames.max(n - 1)..frames + n - 1 {
                self.step::<true>(t, frames, _mm256_setzero_ps());
                emit(self.y[V - 1], last, l, r, t + 1 - n);
            }
            self
        }

        /// Step `t`: every section takes the output its predecessor made
        /// at step `t − 1` (section 0 takes `fresh`, frame `t`) and runs
        /// `tick`'s three statements. With `MASKED`, a lane whose frame
        /// `t − s` lies outside `0..frames` keeps its state.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn step<const MASKED: bool>(&mut self, t: usize, frames: usize, fresh: __m256) {
            // Lanes 6–7 of each vector move to lanes 0–1 of the next.
            let mut carry = fresh;
            for v in 0..V {
                let moved = rotate_up(self.y[v]);
                let x = _mm256_blend_ps::<0b11>(moved, carry);
                carry = moved;
                // y = b0·x + z1
                let y = _mm256_add_ps(_mm256_mul_ps(self.b0[v], x), self.z1[v]);
                // z1 = (b1·x − a1·y) + z2
                let z1 = _mm256_add_ps(
                    _mm256_sub_ps(_mm256_mul_ps(self.b1[v], x), _mm256_mul_ps(self.a1[v], y)),
                    self.z2[v],
                );
                // z2 = b2·x − a2·y
                let z2 = _mm256_sub_ps(_mm256_mul_ps(self.b2[v], x), _mm256_mul_ps(self.a2[v], y));
                if MASKED {
                    let live = live_lanes(self.section[v], t, frames);
                    self.z1[v] = _mm256_blendv_ps(self.z1[v], z1, live);
                    self.z2[v] = _mm256_blendv_ps(self.z2[v], z2, live);
                } else {
                    self.z1[v] = z1;
                    self.z2[v] = z2;
                }
                self.y[v] = y;
            }
        }
    }

    /// Vectors of the crossover tree: two depths each.
    const TREE_VECS: usize = 3;

    /// Left and right output planes of one band.
    pub(super) type Planes<'a> = (&'a mut [f32], &'a mut [f32]);

    /// The LR4 split tree of [`super::process_crossover_tree`] over the
    /// stereo planes `src` into `outs` (all of one length; the shape and
    /// the shared prefixes were checked).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn crossover_tree(
        mut bands: [&mut [Biquad]; 4],
        src: (&[f32], &[f32]),
        mut outs: [Planes<'_>; 4],
    ) {
        let mut tree = Tree::load(&bands);
        let (l, r) = src;
        let frames = l.len();
        let fresh = |t: usize| _mm256_setr_ps(l[t], r[t], l[t], r[t], 0.0, 0.0, 0.0, 0.0);
        let zero = _mm256_setzero_ps();
        for t in 0..TREE_LAG {
            tree.step::<true>(t, frames, if t < frames { fresh(t) } else { zero });
            tree.emit_live(&mut outs, t, frames);
        }
        for t in TREE_LAG..frames {
            tree.step::<false>(t, frames, fresh(t));
            tree.emit(&mut outs, t);
        }
        for t in frames.max(TREE_LAG)..frames + TREE_LAG {
            tree.step::<true>(t, frames, zero);
            tree.emit_live(&mut outs, t, frames);
        }
        tree.store(&mut bands);
    }

    /// Steps a frame takes from the tree's root to its deepest depth.
    const TREE_LAG: usize = 2 * TREE_VECS - 1;

    /// Steps from the root to where band `k` leaves the tree: the odd
    /// depth `2k + 1`, the last band beside the one before it.
    const BAND_LAG: [usize; 4] = [1, 3, 5, 5];

    /// Coefficients, state and last outputs of the tree's 12 sections by
    /// depth and lane (see [`super::process_crossover_tree`]).
    struct Tree {
        b0: [__m256; TREE_VECS],
        b1: [__m256; TREE_VECS],
        b2: [__m256; TREE_VECS],
        a1: [__m256; TREE_VECS],
        a2: [__m256; TREE_VECS],
        z1: [__m256; TREE_VECS],
        z2: [__m256; TREE_VECS],
        y: [__m256; TREE_VECS],
        /// Each lane's depth.
        depth: [__m256i; TREE_VECS],
    }

    /// The section of `bands` at tree depth `d`, lanes `2 · side` and
    /// `2 · side + 1` of its half: side 0 is the band leaving the tree at
    /// depth `d`'s vector, side 1 the highpass continuing past it.
    fn tree_section(bands: &[&mut [Biquad]; 4], d: usize, side: usize) -> Biquad {
        bands[d / 2 + side][d].clone()
    }

    impl Tree {
        #[target_feature(enable = "avx2")]
        unsafe fn load(bands: &[&mut [Biquad]; 4]) -> Self {
            // b0, b1, b2, a1, a2, z1, z2 by vector and lane.
            let mut rows = [[[0.0f32; 8]; TREE_VECS]; 7];
            for d in 0..2 * TREE_VECS {
                for side in 0..2 {
                    let sec = tree_section(bands, d, side);
                    let c = sec.coeffs;
                    for ch in 0..2 {
                        let vals = [c.b0, c.b1, c.b2, c.a1, c.a2, sec.z1[ch], sec.z2[ch]];
                        for (row, v) in rows.iter_mut().zip(vals) {
                            row[d / 2][4 * (d % 2) + 2 * side + ch] = v;
                        }
                    }
                }
            }
            let vec = |row: &[[f32; 8]; TREE_VECS]| -> [__m256; TREE_VECS] {
                core::array::from_fn(|v| _mm256_loadu_ps(row[v].as_ptr()))
            };
            let halves = _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
            Tree {
                b0: vec(&rows[0]),
                b1: vec(&rows[1]),
                b2: vec(&rows[2]),
                a1: vec(&rows[3]),
                a2: vec(&rows[4]),
                z1: vec(&rows[5]),
                z2: vec(&rows[6]),
                y: [_mm256_setzero_ps(); TREE_VECS],
                depth: core::array::from_fn(|v| {
                    _mm256_add_epi32(halves, _mm256_set1_epi32(2 * v as i32))
                }),
            }
        }

        /// Write the lanes' state back: a leaving section into its band, a
        /// continuing one into every band that holds it.
        #[target_feature(enable = "avx2")]
        unsafe fn store(&self, bands: &mut [&mut [Biquad]; 4]) {
            let mut z1 = [[0.0f32; 8]; TREE_VECS];
            let mut z2 = [[0.0f32; 8]; TREE_VECS];
            for v in 0..TREE_VECS {
                _mm256_storeu_ps(z1[v].as_mut_ptr(), self.z1[v]);
                _mm256_storeu_ps(z2[v].as_mut_ptr(), self.z2[v]);
            }
            for d in 0..2 * TREE_VECS {
                for side in 0..2 {
                    let lane = 4 * (d % 2) + 2 * side;
                    let holders = if side == 0 {
                        d / 2..d / 2 + 1
                    } else {
                        d / 2 + 1..4
                    };
                    for band in &mut bands[holders] {
                        let sec = &mut band[d];
                        sec.z1 = [z1[d / 2][lane], z1[d / 2][lane + 1]];
                        sec.z2 = [z2[d / 2][lane], z2[d / 2][lane + 1]];
                    }
                }
            }
        }

        /// Step `t`: depth `2v` takes the fresh frame (`v = 0`) or the
        /// continuing highpass of depth `2v − 1` from step `t − 1`, in
        /// both sides; depth `2v + 1` takes depth `2v`'s lanes from step
        /// `t − 1`. One permute moves both: lanes 6–7 to 0–1 and 2–3 (for
        /// the next vector), lanes 0–3 to 4–7 (for this one). Then
        /// `tick`'s three statements; with `MASKED`, a lane whose frame
        /// `t − depth` lies outside `0..frames` keeps its state.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn step<const MASKED: bool>(&mut self, t: usize, frames: usize, fresh: __m256) {
            let up = _mm256_setr_epi32(6, 7, 6, 7, 0, 1, 2, 3);
            let mut carry = fresh;
            for v in 0..TREE_VECS {
                let moved = _mm256_permutevar8x32_ps(self.y[v], up);
                let x = _mm256_blend_ps::<0b1111>(moved, carry);
                carry = moved;
                // y = b0·x + z1
                let y = _mm256_add_ps(_mm256_mul_ps(self.b0[v], x), self.z1[v]);
                // z1 = (b1·x − a1·y) + z2
                let z1 = _mm256_add_ps(
                    _mm256_sub_ps(_mm256_mul_ps(self.b1[v], x), _mm256_mul_ps(self.a1[v], y)),
                    self.z2[v],
                );
                // z2 = b2·x − a2·y
                let z2 = _mm256_sub_ps(_mm256_mul_ps(self.b2[v], x), _mm256_mul_ps(self.a2[v], y));
                if MASKED {
                    let live = live_lanes(self.depth[v], t, frames);
                    self.z1[v] = _mm256_blendv_ps(self.z1[v], z1, live);
                    self.z2[v] = _mm256_blendv_ps(self.z2[v], z2, live);
                } else {
                    self.z1[v] = z1;
                    self.z2[v] = z2;
                }
                self.y[v] = y;
            }
        }

        /// After step `t`, band `k`'s frame `t − BAND_LAG[k]` sits in the
        /// upper half of vector `min(k, 2)`: lanes 4–5, the last band
        /// lanes 6–7.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn band(&self, k: usize) -> (f32, f32) {
            let upper = _mm256_extractf128_ps::<1>(self.y[k.min(TREE_VECS - 1)]);
            let two = if k == 3 {
                _mm_movehl_ps(upper, upper)
            } else {
                upper
            };
            (_mm_cvtss_f32(two), _mm_cvtss_f32(_mm_movehdup_ps(two)))
        }

        /// Every band's frame of step `t` (all lie inside the buffer).
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn emit(&self, outs: &mut [Planes<'_>; 4], t: usize) {
            for (k, (l, r)) in outs.iter_mut().enumerate() {
                let (left, right) = self.band(k);
                l[t - BAND_LAG[k]] = left;
                r[t - BAND_LAG[k]] = right;
            }
        }

        /// The bands' frames of step `t` that lie inside `0..frames`.
        #[target_feature(enable = "avx2")]
        unsafe fn emit_live(&self, outs: &mut [Planes<'_>; 4], t: usize, frames: usize) {
            for (k, (l, r)) in outs.iter_mut().enumerate() {
                let Some(f) = t.checked_sub(BAND_LAG[k]).filter(|&f| f < frames) else {
                    continue;
                };
                let (left, right) = self.band(k);
                l[f] = left;
                r[f] = right;
            }
        }
    }

    /// Write lanes `last` and `last + 1` of `y` to frame `f` of the planes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn emit(y: __m256, last: usize, l: &mut [f32], r: &mut [f32], f: usize) {
        let (left, right) = pair(y, last);
        l[f] = left;
        if !r.is_empty() {
            r[f] = right;
        }
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
        // A one-section chain through the fused pass against the
        // per-sample loop `Biquad::process` runs.
        use crate::osc::NoiseSource;
        let mut noise = NoiseSource::new(5);
        let mut wide = Biquad::design(FilterKind::Lowpass, 900.0, 0.9, 44_100);
        let mut scalar = wide.clone();
        for _ in 0..8 {
            let buf = AudioBuf::from_fn(2, 61, |_, _| noise.next_sample());
            let mut a = buf.clone();
            let mut b = buf.clone();
            process_chain(core::slice::from_mut(&mut wide), &mut a);
            scalar.process(&mut b);
            assert_eq!(a.samples(), b.samples());
            assert_eq!(wide.state(), scalar.state());
        }
    }

    #[test]
    fn mono_buffers_leave_right_channel_state_untouched() {
        let mut filt = Biquad::design(FilterKind::Lowpass, 500.0, 0.7, 44_100);
        // Charge the right-channel state via a stereo buffer.
        let mut st = AudioBuf::from_fn(2, 32, |_, _| 1.0);
        filt.process(&mut st);
        let before = filt.clone();
        // Both paths: the fused pass carries lane 1 as zeros for mono.
        let mut mono = AudioBuf::from_fn(1, 32, |_, _| 0.25);
        filt.process(&mut mono);
        process_chain(core::slice::from_mut(&mut filt), &mut mono);
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
