//! Synthetic club-track generation.
//!
//! Tracks are mono PCM at 44.1 kHz, assembled from a kick drum (exponentially
//! decaying sine), off-beat hats (filtered noise bursts), a sawtooth bass
//! line and a sine lead. The arrangement alternates every four bars between
//! *loud* (all layers) and *quiet* (bass + lead at reduced level) sections:
//! this is the engine of the bimodal node-cost distribution (Fig. 9),
//! because the effect nodes' data-dependent cost follows signal energy.

use djstar_dsp::rng::SmallRng;
use djstar_dsp::vmath::sin_block;
use djstar_dsp::SAMPLE_RATE;
use std::sync::Arc;

/// Stylistic presets for the synthesizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackStyle {
    /// Four-on-the-floor with heavy kick and bass.
    House,
    /// Sparser kick pattern, more noise/hats.
    Breakbeat,
    /// Sustained pads, little percussion (lowest energy variance).
    Ambient,
}

/// A mono PCM track. Cloning shares the sample buffer.
#[derive(Debug, Clone)]
pub struct Track {
    /// `Arc<Vec<_>>`, not `Arc<[_]>`: converting a filled `Vec` into an
    /// `Arc` slice copies it, and that transient second buffer is what a
    /// load's peak RSS would then measure.
    samples: Arc<Vec<f32>>,
    sample_rate: u32,
    bpm: f32,
}

impl Track {
    /// The PCM samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Whether `a` and `b` are clones of one synthesis (same allocation).
    pub fn ptr_eq(a: &Track, b: &Track) -> bool {
        Arc::ptr_eq(&a.samples, &b.samples)
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Tempo in beats per minute.
    pub fn bpm(&self) -> f32 {
        self.bpm
    }
}

/// Samples per beat at `bpm`, clamped to [64 samples, 60 s] so that a
/// non-finite, non-positive or absurd tempo (the cast saturates: NaN and
/// negatives to 0, +inf to `usize::MAX`) still yields a bar length that can
/// be divided by and multiplied by 16.
fn beat_len(bpm: f32) -> usize {
    ((60.0 / bpm * SAMPLE_RATE as f32) as usize).clamp(64, 60 * SAMPLE_RATE as usize)
}

/// Samples in a track of `seconds`, clamped to [0, one hour] so that a
/// non-finite or negative length (the cast saturates: NaN and negatives to
/// 0, +inf to `usize::MAX`, a capacity overflow in `vec!`) still yields a
/// track that can be allocated.
fn track_len(seconds: f32) -> usize {
    ((seconds * SAMPLE_RATE as f32) as usize).min(3_600 * SAMPLE_RATE as usize)
}

/// What `seed` and `style` decide about a track, shared by both renderers.
struct Voicing {
    root_hz: f32,
    bass_notes: [f32; 8],
    lead_notes: [f32; 16],
    kick_every: usize,
    hat_level: f32,
    pad_level: f32,
}

impl Voicing {
    fn new(seed: u64, style: TrackStyle) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Minor-pentatonic-ish root offsets for the bass line.
        let scale = [0, 3, 5, 7, 10];
        let root_hz = 55.0 * 2f32.powf(rng.below(5) as f32 / 12.0);
        let mut note = |base: f32| base * 2f32.powf(scale[rng.below(scale.len())] as f32 / 12.0);
        let bass_notes = std::array::from_fn(|_| note(root_hz));
        let lead_notes = std::array::from_fn(|_| note(root_hz * 4.0));
        let (kick_every, hat_level, pad_level) = match style {
            TrackStyle::House => (1, 0.25, 0.0),
            TrackStyle::Breakbeat => (2, 0.4, 0.0),
            TrackStyle::Ambient => (4, 0.05, 0.3),
        };
        Voicing {
            root_hz,
            bass_notes,
            lead_notes,
            kick_every,
            hat_level,
            pad_level,
        }
    }
}

/// The hat's noise source: xorshift32 in `[-1, 1]`, drawn once per hat sample.
struct Noise(u32);

impl Noise {
    fn new(seed: u64) -> Self {
        Noise(seed as u32 | 1)
    }

    fn next(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 17;
        self.0 ^= self.0 << 5;
        (self.0 as f32 / u32::MAX as f32) * 2.0 - 1.0
    }
}

/// Kick at `in_beat` samples into its beat: 55 Hz decaying sine with a
/// downward pitch sweep.
fn kick_at(in_beat: usize) -> f32 {
    let tt = in_beat as f32 / SAMPLE_RATE as f32;
    let pitch = 55.0 + 140.0 * (-tt * 40.0).exp();
    0.9 * (-tt * 18.0).exp() * (core::f32::consts::TAU * pitch * tt).sin()
}

/// Hat envelope (level included) `hat_pos` samples into the off-beat burst.
fn hat_env_at(hat_level: f32, hat_pos: usize) -> f32 {
    let tt = hat_pos as f32 / SAMPLE_RATE as f32;
    hat_level * (-tt * 200.0).exp()
}

/// `ph.fract()` for 0 ≤ ph < 2³¹, without the library `truncf` call that
/// `f32::fract` makes per sample: the `i32` cast truncates exactly in that
/// range (from 2²³ on, `ph` is an integer and the result `+0.0`, as
/// `fract`'s).
fn fract_nonneg(ph: f32) -> f32 {
    ph - (ph as i32 as f32)
}

/// Samples per vector pass of [`synth_track`]: the scratch buffers' length.
const PASS: usize = 512;

/// Synthesize a deterministic track.
///
/// `seed` selects note material; `bpm` the tempo; `seconds` the length.
///
/// Bit for bit the samples of [`synth_track_reference`], produced run by
/// run: a bar falls into sixteen runs (sixteenth notes) inside which beat,
/// bass note and lead note are constant, so the per-sample index arithmetic
/// is paid once per run, and the kick and the hat envelope — functions of
/// the position in the beat only — are tabulated once per track. Each run,
/// cut where the hat burst starts and ends, is rendered in vector passes of
/// up to 512 samples: the sample times, the lead (and pad) sines in one
/// [`sin_block`] each, the hat noise drawn in the reference's order, then
/// one straight loop that adds the voices in the reference's order. An
/// absent kick or hat adds `+0.0`, which changes no partial sum (none is
/// `-0.0`). Every floating-point expression keeps the reference's operand
/// order.
pub fn synth_track(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Track {
    use core::f32::consts::TAU;
    let sr = SAMPLE_RATE as f32;
    let n = track_len(seconds);
    let mut samples = vec![0.0f32; n];
    let v = Voicing::new(seed, style);
    let mut noise = Noise::new(seed);

    let beat_len = beat_len(bpm);
    let bar_len = beat_len * 4;
    // The hat burst covers in-beat positions `[hat_start, hat_start + hat_len)`.
    let hat_start = beat_len - beat_len / 2;
    let hat_len = beat_len / 8;
    let kick: Vec<f32> = (0..beat_len.min(n)).map(kick_at).collect();
    let hat_env: Vec<f32> = (0..hat_len.min(n))
        .map(|p| hat_env_at(v.hat_level, p))
        .collect();
    let w_pad = TAU * v.root_hz * 2.0;
    let pad = v.pad_level > 0.0;

    let zeros = [0.0f32; PASS];
    let (mut ts, mut lead, mut pads, mut hats) =
        ([0.0f32; PASS], [0.0; PASS], [0.0; PASS], [0.0; PASS]);
    // Run `j` of a bar starts at in-bar sample ceil(j * bar_len / 16).
    let run_start = |j: usize| (j * bar_len).div_ceil(16);
    'bars: for bar in 0usize.. {
        // Loud / quiet alternation every 4 bars.
        let loud = (bar / 4).is_multiple_of(2);
        let section_gain = if loud { 1.0 } else { 0.35 };
        let bass_gain = 0.35 * section_gain;
        let lead_gain = 0.18 * section_gain;
        for j in 0..16 {
            let first = bar * bar_len + run_start(j);
            if first >= n {
                break 'bars;
            }
            let beat = j / 4;
            let f_bass = v.bass_notes[(j / 2 + bar * 8) % v.bass_notes.len()];
            let w_lead = TAU * v.lead_notes[(j + bar * 16) % v.lead_notes.len()];
            let kick_on = loud && beat.is_multiple_of(v.kick_every);
            // The run in in-beat coordinates, cut where the hat burst
            // starts and ends; only the middle piece carries the hat.
            let lo = run_start(j) - beat * beat_len;
            let hi = lo + (run_start(j + 1) - run_start(j)).min(n - first);
            let cuts = [
                lo,
                hat_start.clamp(lo, hi),
                (hat_start + hat_len).clamp(lo, hi),
                hi,
            ];
            for (piece, w) in cuts.windows(2).enumerate() {
                let hat_on = loud && piece == 1;
                for from in (w[0]..w[1]).step_by(PASS) {
                    let len = (w[1] - from).min(PASS);
                    let i0 = first + (from - lo);
                    let (ts, lead, pads, hats) = (
                        &mut ts[..len],
                        &mut lead[..len],
                        &mut pads[..len],
                        &mut hats[..len],
                    );
                    // `i0 + k` < one hour of samples < 2³¹: the i32 cast is
                    // exact, and converts like the reference's usize cast.
                    for (k, t) in ts.iter_mut().enumerate() {
                        *t = (i0 + k) as i32 as f32 / sr;
                    }
                    for (a, &t) in lead.iter_mut().zip(&*ts) {
                        *a = w_lead * t;
                    }
                    sin_block(lead);
                    if pad {
                        for (a, &t) in pads.iter_mut().zip(&*ts) {
                            *a = w_pad * t;
                        }
                        sin_block(pads);
                    }
                    let kick = if kick_on {
                        &kick[from..from + len]
                    } else {
                        &zeros[..len]
                    };
                    if hat_on {
                        let env = &hat_env[from - hat_start..from - hat_start + len];
                        for (h, &e) in hats.iter_mut().zip(env) {
                            *h = e * noise.next();
                        }
                    } else {
                        hats.fill(0.0);
                    }
                    let out = &mut samples[i0..i0 + len];
                    for k in 0..len {
                        let mut s = 0.0f32;
                        s += kick[k];
                        s += hats[k];
                        // Bass: saw following the note sequence, eighth notes.
                        let saw = 2.0 * fract_nonneg(ts[k] * f_bass) - 1.0;
                        s += bass_gain * saw;
                        // Lead: sine arpeggio, sixteenth notes.
                        s += lead_gain * lead[k];
                        // Ambient pad.
                        if pad {
                            s += v.pad_level * pads[k] * 0.5;
                        }
                        out[k] = (s * 0.8).clamp(-1.0, 1.0);
                    }
                }
            }
        }
    }
    Track {
        samples: Arc::new(samples),
        sample_rate: SAMPLE_RATE,
        bpm,
    }
}

/// The per-sample definition of a track: every position derived from the
/// sample index by division and remainder, every voice evaluated in place.
/// Test and bench oracle for [`synth_track`]; nothing at run time calls it.
pub fn synth_track_reference(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Track {
    let sr = SAMPLE_RATE;
    let n = track_len(seconds);
    let mut samples = vec![0.0f32; n];
    let Voicing {
        root_hz,
        bass_notes,
        lead_notes,
        kick_every,
        hat_level,
        pad_level,
    } = Voicing::new(seed, style);
    let mut noise = Noise::new(seed);

    let beat_len = beat_len(bpm);
    let bar_len = beat_len * 4;

    for (i, out) in samples.iter_mut().enumerate() {
        let t = i as f32 / sr as f32;
        let bar = i / bar_len;
        let in_bar = i % bar_len;
        let beat = in_bar / beat_len;
        let in_beat = in_bar % beat_len;
        // Loud / quiet alternation every 4 bars.
        let loud = (bar / 4).is_multiple_of(2);
        let section_gain = if loud { 1.0 } else { 0.35 };

        let mut s = 0.0f32;
        if beat.is_multiple_of(kick_every) && loud {
            s += kick_at(in_beat);
        }
        // Hat: noise burst on the off-beat.
        let off = in_bar + beat_len / 2;
        let hat_pos = off % beat_len;
        if hat_pos < beat_len / 8 && loud {
            s += hat_env_at(hat_level, hat_pos) * noise.next();
        }
        // Bass: saw following the note sequence, eighth notes.
        let eighth = (in_bar * 8 / bar_len + bar * 8) % bass_notes.len();
        let f_bass = bass_notes[eighth];
        let saw = 2.0 * ((t * f_bass).fract()) - 1.0;
        s += 0.35 * section_gain * saw;
        // Lead: sine arpeggio, sixteenth notes.
        let sixteenth = (in_bar * 16 / bar_len + bar * 16) % lead_notes.len();
        s += 0.18 * section_gain * (core::f32::consts::TAU * lead_notes[sixteenth] * t).sin();
        // Ambient pad.
        if pad_level > 0.0 {
            s += pad_level * (core::f32::consts::TAU * root_hz * 2.0 * t).sin() * 0.5;
        }
        *out = (s * 0.8).clamp(-1.0, 1.0);
    }
    Track {
        samples: Arc::new(samples),
        sample_rate: sr,
        bpm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RMS level of `samples`.
    fn rms(samples: &[f32]) -> f32 {
        (samples.iter().map(|s| s * s).sum::<f32>() / samples.len() as f32).sqrt()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = synth_track(7, 128.0, 2.0, TrackStyle::House);
        let b = synth_track(7, 128.0, 2.0, TrackStyle::House);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_track(1, 128.0, 1.0, TrackStyle::House);
        let b = synth_track(2, 128.0, 1.0, TrackStyle::House);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn length_and_bounds() {
        let t = synth_track(3, 120.0, 1.5, TrackStyle::Breakbeat);
        assert_eq!(t.samples().len(), (1.5 * 44_100.0) as usize);
        assert!(t.samples().iter().all(|s| s.abs() <= 1.0 && s.is_finite()));
    }

    #[test]
    fn loud_and_quiet_sections_alternate() {
        // 128 bpm, bar = 60/128*4 s ≈ 1.875 s; sections switch every 4 bars
        // = 7.5 s. Synthesize 16 s and compare the first section's RMS with
        // the second's.
        let t = synth_track(5, 128.0, 16.0, TrackStyle::House);
        let sr = t.sample_rate() as usize;
        let loud_rms = rms(&t.samples()[sr..2 * sr]); // second 1-2 (loud section)
        let quiet_rms = rms(&t.samples()[8 * sr..9 * sr]); // second 8-9 (quiet section)
        assert!(
            loud_rms > quiet_rms * 1.5,
            "loud {loud_rms} vs quiet {quiet_rms}"
        );
    }

    #[test]
    fn house_is_louder_than_ambient() {
        let h = synth_track(9, 125.0, 4.0, TrackStyle::House);
        let a = synth_track(9, 125.0, 4.0, TrackStyle::Ambient);
        assert!(rms(h.samples()) > rms(a.samples()));
    }

    fn bits(t: &Track) -> Vec<u32> {
        t.samples().iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn fast_path_equals_reference_bit_for_bit() {
        let styles = [
            TrackStyle::House,
            TrackStyle::Breakbeat,
            TrackStyle::Ambient,
        ];
        // The four `paper_default` decks, plus two tempi whose beat lengths
        // (27 194 and 25 689 samples) put run boundaries off the /4, /8 and
        // /16 grid; the second is odd, so the hat burst starts mid-sample-pair.
        let decks = [
            (11, 126.0),
            (22, 132.0),
            (33, 124.0),
            (44, 128.0),
            (5, 97.3),
            (6, 103.0),
        ];
        assert_eq!(beat_len(103.0) % 2, 1);
        // 0 s, shorter than a beat, ending mid-beat, ending mid-bar, and
        // long enough to cross a loud -> quiet -> loud section change.
        let lengths = [0.0, 0.2, 0.7, 3.1, 17.0];
        for style in styles {
            for (seed, bpm) in decks {
                for secs in lengths {
                    let fast = synth_track(seed, bpm, secs, style);
                    let reference = synth_track_reference(seed, bpm, secs, style);
                    assert_eq!(fast.samples().len(), (secs * 44_100.0) as usize);
                    assert!(
                        bits(&fast) == bits(&reference),
                        "{style:?} seed {seed} bpm {bpm} secs {secs}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_decks_equal_reference_at_full_length() {
        // The four `paper_default` decks at the 30 s every set loads: the
        // lead and pad arguments reach ~10^5 rad, far into `sin_block`'s
        // large-argument path.
        for (seed, bpm, style) in [
            (11, 126.0, TrackStyle::House),
            (22, 132.0, TrackStyle::Breakbeat),
            (33, 124.0, TrackStyle::House),
            (44, 128.0, TrackStyle::Ambient),
        ] {
            let fast = synth_track(seed, bpm, 30.0, style);
            let reference = synth_track_reference(seed, bpm, 30.0, style);
            assert!(bits(&fast) == bits(&reference), "{style:?} seed {seed}");
        }
    }

    #[test]
    fn exact_trunc_fract_equals_fract_up_to_2_pow_31() {
        let below_one = 1.0 - f32::EPSILON / 2.0;
        for ph in [
            0.0,
            0.5,
            below_one,
            1.0,
            8_388_607.5, // the last half below 2^23
            8_388_608.0, // 2^23: every f32 from here on is an integer
            16_777_216.0,
            2_147_483_520.0, // 2^31 - 128, the largest f32 below 2^31
        ] {
            assert_eq!(fract_nonneg(ph).to_bits(), ph.fract().to_bits(), "{ph}");
        }
    }

    #[test]
    fn degenerate_bpm_is_clamped_not_a_panic() {
        for bpm in [0.0, -120.0, f32::NAN, f32::INFINITY, 1e-30, 1e30] {
            let len = beat_len(bpm);
            assert!((64..=60 * 44_100).contains(&len), "bpm {bpm}: {len}");
            let fast = synth_track(3, bpm, 0.5, TrackStyle::House);
            let reference = synth_track_reference(3, bpm, 0.5, TrackStyle::House);
            assert_eq!(bits(&fast), bits(&reference), "bpm {bpm}");
            assert!(fast.samples().iter().all(|s| s.is_finite()));
        }
        // A valid tempo is untouched by the clamp.
        assert_eq!(beat_len(126.0), 21_000);

        // Likewise the length. None: an empty track from both renderers.
        for seconds in [0.0, -1.0, f32::NAN, f32::NEG_INFINITY, 1e-30] {
            assert_eq!(track_len(seconds), 0, "seconds {seconds}");
            let fast = synth_track(3, 126.0, seconds, TrackStyle::House);
            let reference = synth_track_reference(3, 126.0, seconds, TrackStyle::House);
            assert!(fast.samples().is_empty() && reference.samples().is_empty());
        }
        // Too long: one hour (`usize::MAX` samples overflowed `vec!`).
        for seconds in [f32::INFINITY, 1e30, 3_600.5] {
            assert_eq!(track_len(seconds), 3_600 * 44_100, "seconds {seconds}");
        }
        assert_eq!(track_len(30.0), 30 * 44_100);
    }

    #[test]
    fn clones_share_the_samples() {
        let a = synth_track(1, 120.0, 0.5, TrackStyle::House);
        let b = a.clone();
        assert!(Track::ptr_eq(&a, &b));
        assert!(!Track::ptr_eq(
            &a,
            &synth_track(1, 120.0, 0.5, TrackStyle::House)
        ));
    }
}
