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
//! needs no explicit 4-lane form; the correlation search keeps its
//! strictly serial accumulation order — reassociating it could flip the
//! argmax and cascade into a different (still valid, but not
//! bit-identical) output — and instead gains a bounds-check-free fast path.

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

    /// Find the offset in `[-SEARCH, SEARCH]` whose segment best matches the
    /// previous tail (maximum normalized cross-correlation).
    fn best_offset(&self, src: &[f32], natural: isize) -> isize {
        // The accumulation below stays strictly serial and in order:
        // reassociating it (e.g. 4-lane partial sums) can flip the argmax
        // between near-tied candidates and cascade into a different output.
        // The fast path only removes the per-sample bounds branch.
        let in_range = natural - (SEARCH as isize) >= 0
            && natural + (SEARCH + HOP) as isize <= src.len() as isize;
        let mut best_off = 0isize;
        let mut best_score = f32::NEG_INFINITY;
        let mut d = -(SEARCH as isize);
        while d <= SEARCH as isize {
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
            let score = corr / energy.sqrt();
            if score > best_score {
                best_score = score;
                best_off = d;
            }
            d += 4; // coarse search grid
        }
        best_off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
