//! WSOLA time stretching (tempo change with pitch preservation).
//!
//! DJ Star's graph preprocessing spends most of its time "time stretching"
//! (§III-B: 33 % of the APC). This is a waveform-similarity overlap-add
//! (WSOLA) implementation: output is synthesized from Hann-crossfaded input
//! segments, each chosen within a small search window to maximize
//! cross-correlation with the previously emitted tail, which avoids the
//! phase discontinuities of naive overlap-add.
//!
//! Hot-path notes: the crossfade gains are precomputed once (same formula,
//! same values as computing them inline); the in-range crossfade is an
//! element-wise loop over slices, which the compiler vectorizes, so it
//! needs no explicit 4-lane form. The correlation search keeps each
//! offset's sums strictly serial — reassociating them could flip the
//! argmax and cascade into a different (still valid, but not
//! bit-identical) output — and on a CPU with AVX2 runs the offsets side by
//! side, one per lane, each lane its offset's serial sums.

/// Synthesis frame length (samples).
const FRAME: usize = 512;
/// Synthesis hop: half-frame overlap-add.
const HOP: usize = FRAME / 2;
/// Half-width of the similarity search window (samples).
const SEARCH: usize = 64;

/// A pull-based mono WSOLA time stretcher over an externally owned source.
#[derive(Debug, Clone)]
pub struct TimeStretcher {
    /// Fractional input read position (start of the next natural segment).
    in_pos: f64,
    /// Second half of the last synthesized frame, used as the overlap
    /// reference and crossfade partner for the next frame.
    prev_tail: Vec<f32>,
    /// Synthesized-but-not-yet-consumed output samples.
    ready: Vec<f32>,
    /// Read cursor into `ready`.
    ready_read: usize,
    /// True until the first frame primes `prev_tail`.
    priming: bool,
    /// Precomputed raised-cosine fade-in gains for one hop.
    fade_in: Vec<f32>,
    /// `1.0 - fade_in[i]`, precomputed.
    fade_out: Vec<f32>,
}

impl Default for TimeStretcher {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeStretcher {
    /// A stretcher positioned at the start of the source.
    pub fn new() -> Self {
        let fade_in: Vec<f32> = (0..HOP)
            .map(|i| {
                let t = i as f32 / HOP as f32;
                // Hann-like raised-cosine crossfade (equal gain at midpoint).
                0.5 - 0.5 * (core::f32::consts::PI * (1.0 - t)).cos()
            })
            .collect();
        let fade_out: Vec<f32> = fade_in.iter().map(|&f| 1.0 - f).collect();
        TimeStretcher {
            in_pos: 0.0,
            prev_tail: vec![0.0; HOP],
            ready: Vec::with_capacity(2 * FRAME),
            ready_read: 0,
            priming: true,
            fade_in,
            fade_out,
        }
    }

    /// Current input position in source samples.
    pub fn position(&self) -> f64 {
        self.in_pos
    }

    /// Jump to an absolute source position, discarding synthesis state
    /// (used when the DJ seeks or scratches).
    pub fn seek(&mut self, pos: f64) {
        self.in_pos = pos.max(0.0);
        self.prev_tail.fill(0.0);
        self.ready.clear();
        self.ready_read = 0;
        self.priming = true;
    }

    /// Fill `out` with stretched audio from `src` at the given `tempo`
    /// (1.0 = original speed, 2.0 = double speed / half duration, pitch
    /// preserved). Positions beyond the source read as silence.
    pub fn process(&mut self, src: &[f32], tempo: f32, out: &mut [f32]) {
        let _t = crate::kprof::timer(crate::kprof::Family::Stretch);
        let tempo = tempo.clamp(0.25, 4.0) as f64;
        let mut written = 0;
        while written < out.len() {
            // Drain buffered output first.
            while self.ready_read < self.ready.len() && written < out.len() {
                out[written] = self.ready[self.ready_read];
                self.ready_read += 1;
                written += 1;
            }
            if written == out.len() {
                break;
            }
            self.ready.clear();
            self.ready_read = 0;
            self.synthesize_frame(src, tempo);
        }
    }

    /// Sample of `src` at index `i`, silence outside.
    #[inline]
    fn sample(src: &[f32], i: isize) -> f32 {
        if i < 0 || i as usize >= src.len() {
            0.0
        } else {
            src[i as usize]
        }
    }

    /// Synthesize one hop (HOP samples) into `self.ready`.
    fn synthesize_frame(&mut self, src: &[f32], tempo: f64) {
        let natural = self.in_pos.round() as isize;
        let offset = if self.priming {
            0
        } else {
            self.best_offset(src, natural)
        };
        let start = natural + offset;

        // When the whole frame lies inside `src`, use slices (no per-sample
        // bounds logic); edges fall back to per-sample reads. Both evaluate
        // the identical formula.
        let in_range =
            start >= 0 && start as usize <= src.len() && src.len() - start as usize >= FRAME;

        if self.priming {
            // First frame: emit its first half verbatim, remember the tail.
            if in_range {
                let s = start as usize;
                self.ready.extend_from_slice(&src[s..s + HOP]);
            } else {
                for i in 0..HOP {
                    self.ready.push(Self::sample(src, start + i as isize));
                }
            }
            self.priming = false;
        } else if in_range {
            // Crossfade prev_tail (fading out) with the new segment (fading
            // in), element-wise over slices so the loop vectorizes.
            let s = start as usize;
            let seg = &src[s..s + HOP];
            let base = self.ready.len();
            self.ready.resize(base + HOP, 0.0);
            let fades = self.fade_out.iter().zip(&self.fade_in);
            for ((out, (tail, new)), (fo, fi)) in self.ready[base..]
                .iter_mut()
                .zip(self.prev_tail.iter().zip(seg))
                .zip(fades)
            {
                *out = tail * fo + new * fi;
            }
        } else {
            for i in 0..HOP {
                let new = Self::sample(src, start + i as isize);
                self.ready
                    .push(self.prev_tail[i] * self.fade_out[i] + new * self.fade_in[i]);
            }
        }
        // Remember the second half of this frame for the next crossfade.
        if in_range {
            let s = start as usize;
            self.prev_tail.copy_from_slice(&src[s + HOP..s + FRAME]);
        } else {
            for i in 0..HOP {
                self.prev_tail[i] = Self::sample(src, start + (HOP + i) as isize);
            }
        }
        self.in_pos += HOP as f64 * tempo;
    }

    /// Find the offset in `[-SEARCH, SEARCH]` (step 4) whose segment best
    /// matches the previous tail (maximum normalized cross-correlation):
    /// the search the stretcher runs. Bit for bit
    /// [`best_offset_serial`](Self::best_offset_serial): on a CPU with
    /// AVX2, a search window inside `src` runs with one offset per lane.
    pub fn best_offset(&self, src: &[f32], natural: isize) -> isize {
        #[cfg(target_arch = "x86_64")]
        if search_in_range(src, natural) && crate::simd::avx2_fma_available() {
            let lo = natural as usize - SEARCH;
            let window = &src[lo..lo + 2 * SEARCH + HOP];
            // SAFETY: AVX2 presence was just verified at runtime.
            return best_of(unsafe { x86::sums(window, &self.prev_tail) });
        }
        self.best_offset_serial(src, natural)
    }

    /// The serial search, one offset after another: the out-of-range path
    /// of [`best_offset`](Self::best_offset), and its test and bench twin.
    pub fn best_offset_serial(&self, src: &[f32], natural: isize) -> isize {
        best_of(self.serial_sums(src, natural))
    }

    /// Each grid offset's sums, one offset after another. Each offset's
    /// sums stay strictly serial and in order: reassociating them (e.g.
    /// 4-lane partial sums) can flip the argmax between near-tied
    /// candidates and cascade into a different output. The in-range path
    /// only removes the per-sample bounds branch.
    fn serial_sums(&self, src: &[f32], natural: isize) -> Sums {
        let in_range = search_in_range(src, natural);
        let mut sums = ([0.0f32; OFFSETS], [0.0f32; OFFSETS]);
        for j in 0..OFFSETS {
            let d = 4 * j as isize - SEARCH as isize; // coarse search grid
            let mut corr = 0.0f32;
            let mut energy = 1e-9f32;
            // Correlate on a decimated grid: every 2nd sample is plenty for
            // alignment and halves the dominant cost of the stretcher.
            if in_range {
                let seg = &src[(natural + d) as usize..];
                let mut i = 0;
                while i < HOP {
                    let s = seg[i];
                    corr += s * self.prev_tail[i];
                    energy += s * s;
                    i += 2;
                }
            } else {
                let mut i = 0;
                while i < HOP {
                    let s = Self::sample(src, natural + d + i as isize);
                    corr += s * self.prev_tail[i];
                    energy += s * s;
                    i += 2;
                }
            }
            (sums.0[j], sums.1[j]) = (corr, energy);
        }
        sums
    }
}

/// Offsets on the search grid: `-SEARCH, -SEARCH + 4, …, SEARCH`.
const OFFSETS: usize = SEARCH / 2 + 1;

/// Each grid offset's `(corr, energy)` sums, in grid order.
type Sums = ([f32; OFFSETS], [f32; OFFSETS]);

/// The grid offset with the highest normalized correlation
/// `corr / √energy`, scanned in grid order with a strict `>`: of exactly
/// tied offsets, the first wins.
fn best_of((corr, energy): Sums) -> isize {
    let mut best_off = 0isize;
    let mut best_score = f32::NEG_INFINITY;
    for (j, (&corr, &energy)) in corr.iter().zip(&energy).enumerate() {
        let score = corr / energy.sqrt();
        if score > best_score {
            best_score = score;
            best_off = 4 * j as isize - SEARCH as isize;
        }
    }
    best_off
}

/// True when every offset's segment lies inside `src`:
/// `natural − SEARCH ≥ 0` and `natural + SEARCH + HOP ≤ src.len()`.
fn search_in_range(src: &[f32], natural: isize) -> bool {
    natural - (SEARCH as isize) >= 0 && natural + (SEARCH + HOP) as isize <= src.len() as isize
}

/// The search with one offset per lane.
///
/// # Safety
/// Every `unsafe fn` here requires a CPU with AVX2: the caller checks
/// [`crate::simd::avx2_fma_available`] first.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Sums, HOP, OFFSETS, SEARCH};
    use core::arch::x86_64::*;

    /// Vectors of eight offsets covering the grid.
    const GROUPS: usize = OFFSETS.div_ceil(8);
    /// Entries of each decimated copy of the window.
    const QUADS: usize = (2 * SEARCH + HOP) / 4;

    /// The serial sums of every grid offset over
    /// `window = src[natural − SEARCH .. natural + SEARCH + HOP]`.
    /// Lane `j` of vector `g` holds offset `d = 4(8g + j) − SEARCH` and
    /// accumulates `corr += s·tail[i]`, `energy += s·s` from `1e-9` for
    /// `i = 0, 2, …, HOP − 2`, in that order: the serial sums, one per lane,
    /// never a reassociated one.
    ///
    /// Offset `d` reads `window[4(8g + j) + i]`. For `i = 4k` that is
    /// `quad[0][8g + j + k]` with `quad[0][m] = window[4m]`, for
    /// `i = 4k + 2` it is `quad[1][8g + j + k]` with
    /// `quad[1][m] = window[4m + 2]`: eight offsets read eight
    /// consecutive entries, one load. The highest sample read is
    /// `window[4 · 95 + 2]`, `src[natural + 318]`, below
    /// `natural + SEARCH + HOP ≤ src.len()` (the caller's
    /// `search_in_range`). The lanes past the grid read the zero padding
    /// and are never scanned.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sums(window: &[f32], tail: &[f32]) -> Sums {
        assert!(window.len() == 2 * SEARCH + HOP && tail.len() == HOP);
        let mut quad = [[0.0f32; 8 * GROUPS + HOP / 4]; 2];
        for m in 0..QUADS {
            quad[0][m] = window[4 * m];
            quad[1][m] = window[4 * m + 2];
        }
        let mut corr = [_mm256_setzero_ps(); GROUPS];
        let mut energy = [_mm256_set1_ps(1e-9); GROUPS];
        for k in 0..HOP / 4 {
            for (h, quad) in quad.iter().enumerate() {
                let t = _mm256_set1_ps(tail[4 * k + 2 * h]);
                for g in 0..GROUPS {
                    let s = _mm256_loadu_ps(quad[8 * g + k..8 * g + k + 8].as_ptr());
                    corr[g] = _mm256_add_ps(corr[g], _mm256_mul_ps(s, t));
                    energy[g] = _mm256_add_ps(energy[g], _mm256_mul_ps(s, s));
                }
            }
        }
        let (mut c, mut e) = ([0.0f32; 8 * GROUPS], [0.0f32; 8 * GROUPS]);
        for g in 0..GROUPS {
            _mm256_storeu_ps(c[8 * g..].as_mut_ptr(), corr[g]);
            _mm256_storeu_ps(e[8 * g..].as_mut_ptr(), energy[g]);
        }
        let mut sums = ([0.0f32; OFFSETS], [0.0f32; OFFSETS]);
        sums.0.copy_from_slice(&c[..OFFSETS]);
        sums.1.copy_from_slice(&e[..OFFSETS]);
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    /// A stretcher past priming whose overlap reference is `tail`.
    fn with_tail(tail: &[f32]) -> TimeStretcher {
        let mut st = TimeStretcher::new();
        st.prev_tail.copy_from_slice(tail);
        st.priming = false;
        st
    }

    fn noise(rng: &mut SmallRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.f32() * 2.0 - 1.0).collect()
    }

    #[test]
    fn search_equals_serial_search_on_random_signals() {
        let mut rng = SmallRng::seed_from_u64(0x5EA7);
        for round in 0..300 {
            let len = 2 * SEARCH + HOP + rng.below(600);
            let src = noise(&mut rng, len);
            // Half the rounds match the tail to a segment, so the argmax
            // lies inside the grid rather than at a noise peak.
            let last = (len - SEARCH - HOP) as isize;
            let natural = SEARCH as isize + rng.below(last as usize - SEARCH + 1) as isize;
            let tail = if round % 2 == 0 {
                noise(&mut rng, HOP)
            } else {
                let at = (natural + 4 * rng.below(33) as isize - SEARCH as isize) as usize;
                src[at..at + HOP]
                    .iter()
                    .map(|s| s + 0.3 * (rng.f32() - 0.5))
                    .collect()
            };
            let st = with_tail(&tail);
            // The exact in-range boundary at both ends, a point between,
            // and points outside it (the serial branch on both sides).
            for natural in [
                SEARCH as isize,
                last,
                natural,
                SEARCH as isize - 1,
                last + 1,
                -7,
            ] {
                assert_eq!(
                    st.best_offset(&src, natural),
                    st.best_offset_serial(&src, natural),
                    "len {len}, natural {natural}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_sums_equal_serial_sums_to_the_bit() {
        // Every offset's two sums, not only the argmax they pick: a sum
        // rounded differently shows here even where no tie is near.
        if !crate::simd::avx2_fma_available() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(0x5095);
        for _ in 0..100 {
            let len = 2 * SEARCH + HOP + rng.below(300);
            let src = noise(&mut rng, len);
            let st = with_tail(&noise(&mut rng, HOP));
            let natural = SEARCH + rng.below(len - 2 * SEARCH - HOP + 1);
            let window = &src[natural - SEARCH..natural + SEARCH + HOP];
            // SAFETY: AVX2 presence was just checked.
            let lanes = unsafe { x86::sums(window, &st.prev_tail) };
            let serial = st.serial_sums(&src, natural as isize);
            for (l, s) in [(lanes.0, serial.0), (lanes.1, serial.1)] {
                assert_eq!(
                    l.map(f32::to_bits),
                    s.map(f32::to_bits),
                    "natural {natural}"
                );
            }
        }
    }

    #[test]
    fn search_window_boundary_is_in_range() {
        // `natural = SEARCH` and `natural + SEARCH + HOP = len`: the window
        // is the whole source, and the lanes read up to its last even
        // sample but one.
        let mut rng = SmallRng::seed_from_u64(0xB0);
        let len = 2 * SEARCH + HOP;
        let src = noise(&mut rng, len);
        assert!(search_in_range(&src, SEARCH as isize));
        assert!(!search_in_range(&src[..len - 1], SEARCH as isize));
        assert!(!search_in_range(&src, SEARCH as isize - 1));
        let st = with_tail(&src[len - HOP..]);
        assert_eq!(
            st.best_offset(&src, SEARCH as isize),
            st.best_offset_serial(&src, SEARCH as isize)
        );
        assert_eq!(st.best_offset(&src, SEARCH as isize), SEARCH as isize);
    }

    #[test]
    fn exact_ties_pick_the_first_offset() {
        // A period of 8: offsets `d` and `d + 8` read the same samples, so
        // their scores tie to the bit and both forms must keep the first
        // (`-SEARCH` or `-SEARCH + 4`, the first of each residue class).
        let mut rng = SmallRng::seed_from_u64(0x717E);
        for _ in 0..50 {
            let period = noise(&mut rng, 8);
            let src: Vec<f32> = (0..1_024).map(|i| period[i % 8]).collect();
            let st = with_tail(&noise(&mut rng, HOP));
            let natural = 300;
            let got = st.best_offset(&src, natural);
            assert_eq!(got, st.best_offset_serial(&src, natural));
            assert!(
                got == -(SEARCH as isize) || got == 4 - SEARCH as isize,
                "{got}"
            );
        }
    }

    fn sine(n: usize, freq: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (core::f32::consts::TAU * freq * i as f32 / 44_100.0).sin())
            .collect()
    }

    #[test]
    fn unit_tempo_preserves_duration_and_pitch() {
        let src = sine(44_100, 440.0);
        let mut st = TimeStretcher::new();
        let mut out = vec![0.0f32; 8192];
        st.process(&src, 1.0, &mut out);
        // Count zero crossings as a pitch proxy (440 Hz -> ~163 crossings in
        // 8192 samples).
        let crossings = out.windows(2).filter(|w| w[0] <= 0.0 && w[1] > 0.0).count();
        let expected = (440.0 * 8192.0 / 44_100.0) as isize;
        assert!(
            (crossings as isize - expected).abs() <= 4,
            "crossings {crossings}, expected ~{expected}"
        );
    }

    #[test]
    fn double_tempo_consumes_twice_the_input() {
        let src = sine(88_200, 220.0);
        let mut st = TimeStretcher::new();
        let mut out = vec![0.0f32; 4096];
        st.process(&src, 2.0, &mut out);
        // in_pos advanced ~2x the output length (+/- one frame of slack).
        let consumed = st.position();
        assert!(
            (consumed - 8192.0).abs() < FRAME as f64 * 2.0,
            "consumed {consumed}"
        );
    }

    #[test]
    fn pitch_preserved_at_faster_tempo() {
        let src = sine(88_200, 440.0);
        let mut st = TimeStretcher::new();
        let mut out = vec![0.0f32; 16_384];
        st.process(&src, 1.5, &mut out);
        let crossings = out[2048..14_336]
            .windows(2)
            .filter(|w| w[0] <= 0.0 && w[1] > 0.0)
            .count();
        let expected = (440.0 * 12_288.0 / 44_100.0) as isize; // same pitch!
        assert!(
            (crossings as isize - expected).abs() <= 8,
            "crossings {crossings}, expected ~{expected}"
        );
    }

    #[test]
    fn output_amplitude_stays_bounded() {
        let src = sine(44_100, 523.0);
        let mut st = TimeStretcher::new();
        for tempo in [0.5f32, 0.9, 1.0, 1.3, 2.0] {
            st.seek(0.0);
            let mut out = vec![0.0f32; 8192];
            st.process(&src, tempo, &mut out);
            let peak = out.iter().fold(0.0f32, |m, s| m.max(s.abs()));
            assert!(peak <= 1.3, "tempo {tempo}: peak {peak}");
            assert!(peak > 0.5, "tempo {tempo}: peak {peak} (lost signal)");
        }
    }

    #[test]
    fn beyond_source_is_silence() {
        let src = sine(1024, 440.0);
        let mut st = TimeStretcher::new();
        st.seek(100_000.0);
        let mut out = vec![9.0f32; 512];
        st.process(&src, 1.0, &mut out);
        assert!(out.iter().all(|&s| s.abs() < 1e-6));
    }

    #[test]
    fn seek_resets_state() {
        let src = sine(44_100, 440.0);
        let mut st = TimeStretcher::new();
        let mut out1 = vec![0.0f32; 1024];
        st.process(&src, 1.0, &mut out1);
        st.seek(0.0);
        let mut out2 = vec![0.0f32; 1024];
        st.process(&src, 1.0, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn partial_reads_equal_one_big_read() {
        let src = sine(44_100, 330.0);
        let mut a = TimeStretcher::new();
        let mut big = vec![0.0f32; 2048];
        a.process(&src, 1.2, &mut big);

        let mut b = TimeStretcher::new();
        let mut parts = vec![0.0f32; 2048];
        for chunk in parts.chunks_mut(128) {
            b.process(&src, 1.2, chunk);
        }
        assert_eq!(big, parts);
    }
}
