//! Deck playback: track players with time-stretching (the GP phase).
//!
//! §III-B: graph preprocessing — "time stretching, phase alignment, buffer
//! overhead" — consumes 33 % of the APC. Each active deck pulls one buffer
//! of audio from its track through a WSOLA time stretcher at the tempo the
//! timecode decoder reports, and a beat-phase estimate is maintained for
//! the bookkeeping nodes.

use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::resample::VarRateReader;
use djstar_dsp::stretch::TimeStretcher;
use djstar_workload::track::Track;

/// How the deck is currently rendering audio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayMode {
    /// WSOLA time stretch: tempo changes, pitch preserved (master tempo).
    Stretch,
    /// Vinyl emulation: pitch follows speed; supports reverse and scratch
    /// speeds outside the stretcher's range.
    Vinyl,
}

/// A playing deck: a track, a stretcher, a vinyl-mode reader and beat
/// bookkeeping.
pub struct TrackPlayer {
    track: Track,
    stretcher: TimeStretcher,
    vinyl: VarRateReader,
    mode: PlayMode,
    /// Current tempo factor actually applied (smoothed toward the target).
    tempo: f32,
    /// Mono scratch buffer reused every cycle.
    mono: Vec<f32>,
    /// Beat phase in `[0, 1)` (0 = on the beat).
    beat_phase: f32,
    /// Active loop region `[start, end)` in source samples, if any.
    loop_region: Option<(f64, f64)>,
}

impl TrackPlayer {
    /// A player at the start of `track`.
    pub fn new(track: Track) -> Self {
        TrackPlayer {
            track,
            stretcher: TimeStretcher::new(),
            vinyl: VarRateReader::new(0.0),
            mode: PlayMode::Stretch,
            tempo: 1.0,
            mono: Vec::new(),
            beat_phase: 0.0,
            loop_region: None,
        }
    }

    /// Engage a loop over `[start, end)` source samples (a beat-loop in DJ
    /// terms). Ill-formed or out-of-range regions are clamped; regions
    /// shorter than 32 samples are rejected.
    pub fn set_loop(&mut self, start: f64, end: f64) -> bool {
        let len = self.track.samples().len() as f64;
        let start = start.clamp(0.0, len);
        let end = end.clamp(0.0, len);
        if end - start < 32.0 {
            return false;
        }
        self.loop_region = Some((start, end));
        true
    }

    /// Disengage the loop.
    pub fn clear_loop(&mut self) {
        self.loop_region = None;
    }

    /// The active loop region, if any.
    pub fn loop_region(&self) -> Option<(f64, f64)> {
        self.loop_region
    }

    /// Current play mode.
    pub fn mode(&self) -> PlayMode {
        self.mode
    }

    /// The loaded track.
    pub fn track(&self) -> &Track {
        &self.track
    }

    /// Current (smoothed) tempo factor.
    pub fn tempo(&self) -> f32 {
        self.tempo
    }

    /// Current playback position in source samples.
    pub fn position(&self) -> f64 {
        match self.mode {
            PlayMode::Stretch => self.stretcher.position(),
            PlayMode::Vinyl => self.vinyl.position(),
        }
    }

    /// Seek to an absolute source sample.
    pub fn seek(&mut self, pos: f64) {
        self.stretcher.seek(pos);
        self.vinyl.seek(pos.max(0.0));
    }

    /// Pull one buffer with full DVS semantics: speeds within the
    /// stretcher's useful range play time-stretched (pitch preserved);
    /// reverse, near-stopped and scratch speeds switch to vinyl emulation
    /// (pitch follows the platter). Mode switches hand the playback
    /// position over seamlessly.
    pub fn pull_dvs(&mut self, speed: f32, out: &mut AudioBuf) {
        let stretchable = (0.25..=4.0).contains(&speed);
        match (self.mode, stretchable) {
            (PlayMode::Stretch, true) => self.pull(speed, out),
            (PlayMode::Stretch, false) => {
                self.vinyl.seek(self.stretcher.position().max(0.0));
                self.mode = PlayMode::Vinyl;
                self.pull_vinyl(speed, out);
            }
            (PlayMode::Vinyl, false) => self.pull_vinyl(speed, out),
            (PlayMode::Vinyl, true) => {
                self.stretcher.seek(self.vinyl.position().max(0.0));
                self.mode = PlayMode::Stretch;
                self.tempo = speed; // avoid slewing from a stale tempo
                self.pull(speed, out);
            }
        }
    }

    /// Pull one buffer in vinyl emulation at the signed `speed` (negative
    /// plays backwards, pitch follows speed). Wraps at the track ends.
    pub fn pull_vinyl(&mut self, speed: f32, out: &mut AudioBuf) {
        let frames = out.frames();
        self.mono.resize(frames, 0.0);
        let len = self.track.samples().len() as f64;
        // Wrap position into the loop region (if engaged) or the track.
        let pos = self.vinyl.position();
        if let Some((start, end)) = self.loop_region {
            if pos >= end {
                self.vinyl.seek(start);
            } else if pos < start {
                self.vinyl.seek(end - 1.0);
            }
        } else if pos >= len {
            self.vinyl.seek(0.0);
        } else if pos < 0.0 {
            self.vinyl.seek(len - 1.0);
        }
        self.vinyl
            .read(self.track.samples(), speed as f64, &mut self.mono);
        // Normalize the position back into the track after the read too, so
        // a single backwards pull from 0 lands at the end rather than at a
        // negative offset.
        let p = self.vinyl.position();
        if p < 0.0 || p >= len {
            self.vinyl.seek(p.rem_euclid(len.max(1.0)));
        }
        let (l, r) = out.as_planar_slices_mut();
        l.copy_from_slice(&self.mono);
        if !r.is_empty() {
            r.copy_from_slice(&self.mono);
        }
        let beats_per_buffer =
            self.track.bpm() * speed / 60.0 * frames as f32 / self.track.sample_rate() as f32;
        self.beat_phase = (self.beat_phase + beats_per_buffer).rem_euclid(1.0);
    }

    /// Pull one buffer at `target_tempo` (from the timecode decoder) into
    /// the stereo `out` buffer. Loops the track at its end. The tempo is
    /// slewed (max 5 % change per cycle) like DJ Star's pitch smoothing.
    pub fn pull(&mut self, target_tempo: f32, out: &mut AudioBuf) {
        let target = target_tempo.clamp(0.25, 4.0);
        let max_step = 0.05 * self.tempo.max(0.25);
        self.tempo += (target - self.tempo).clamp(-max_step, max_step);

        let frames = out.frames();
        self.mono.resize(frames, 0.0);
        let len = self.track.samples().len() as f64;
        match self.loop_region {
            // Beat-loop: jump back to the loop start once the position
            // passes the loop end (buffer-granular, like DJ Star's own
            // loops which quantize to the processing cycle).
            Some((start, end)) => {
                if self.stretcher.position() >= end {
                    self.stretcher.seek(start);
                }
            }
            // No loop: wrap the stretcher near the end of the track.
            None => {
                if self.stretcher.position() + (frames as f64 * self.tempo as f64) * 4.0 >= len {
                    self.stretcher.seek(0.0);
                }
            }
        }
        self.stretcher
            .process(self.track.samples(), self.tempo, &mut self.mono);
        let (l, r) = out.as_planar_slices_mut();
        l.copy_from_slice(&self.mono);
        if !r.is_empty() {
            r.copy_from_slice(&self.mono);
        }
        // Advance the beat phase: beats advance at bpm * tempo.
        let beats_per_buffer =
            self.track.bpm() * self.tempo / 60.0 * frames as f32 / self.track.sample_rate() as f32;
        self.beat_phase = (self.beat_phase + beats_per_buffer).fract();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djstar_workload::track::{synth_track, TrackStyle};

    /// Phase alignment (part of GP): the fractional beat offset of this deck
    /// relative to `other`, in `(-0.5, 0.5]` beats. DJ Star shows this to
    /// the DJ for beatmatching.
    trait PhaseOffset {
        fn phase_offset_to(&self, other: &TrackPlayer) -> f32;
    }

    impl PhaseOffset for TrackPlayer {
        fn phase_offset_to(&self, other: &TrackPlayer) -> f32 {
            let mut d = self.beat_phase - other.beat_phase;
            if d > 0.5 {
                d -= 1.0;
            }
            if d <= -0.5 {
                d += 1.0;
            }
            d
        }
    }

    fn player() -> TrackPlayer {
        TrackPlayer::new(synth_track(3, 128.0, 4.0, TrackStyle::House))
    }

    #[test]
    fn pull_produces_audio() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        // Let the stretcher fill its pipeline.
        for _ in 0..16 {
            p.pull(1.0, &mut out);
        }
        assert!(out.is_finite());
        assert!(out.rms() > 0.01, "rms {}", out.rms());
        // Stereo channels carry the same mono source.
        for i in 0..128 {
            assert_eq!(out.sample(0, i), out.sample(1, i));
        }
    }

    #[test]
    fn tempo_slews_toward_target() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        p.pull(1.5, &mut out);
        let t1 = p.tempo();
        assert!(t1 < 1.5 && t1 > 1.0);
        for _ in 0..100 {
            p.pull(1.5, &mut out);
        }
        assert!((p.tempo() - 1.5).abs() < 0.01);
    }

    #[test]
    fn position_advances_and_loops() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        p.pull(1.0, &mut out);
        let pos1 = p.position();
        p.pull(1.0, &mut out);
        assert!(p.position() >= pos1);
        // Drive past the end: position must wrap to near zero eventually.
        let len = p.track().samples().len() as f64;
        let mut wrapped = false;
        for _ in 0..3000 {
            p.pull(2.0, &mut out);
            if p.position() < len / 2.0 {
                wrapped = true;
            }
        }
        assert!(wrapped, "never looped");
    }

    #[test]
    fn beat_phase_stays_normalized() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..500 {
            p.pull(1.0, &mut out);
            assert!((0.0..1.0).contains(&p.beat_phase));
        }
    }

    #[test]
    fn phase_offset_is_antisymmetric_and_wrapped() {
        let mut a = player();
        let mut b = player();
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..37 {
            a.pull(1.0, &mut out);
        }
        for _ in 0..11 {
            b.pull(1.1, &mut out);
        }
        let ab = a.phase_offset_to(&b);
        let ba = b.phase_offset_to(&a);
        assert!(ab.abs() <= 0.5);
        assert!((ab + ba).abs() < 1e-5 || (ab + ba).abs() > 0.999);
    }

    #[test]
    fn loop_keeps_position_inside_region() {
        let mut p = player();
        let sr = 44_100.0f64;
        assert!(p.set_loop(sr, sr * 1.5)); // a half-second loop at 1 s
        p.seek(sr);
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..400 {
            p.pull(1.0, &mut out);
            let pos = p.position();
            assert!(
                pos >= sr - 1.0 && pos <= sr * 1.5 + 4096.0,
                "position {pos} escaped the loop"
            );
        }
        // ~400 cycles x 128 samples = 51k samples played: without the loop
        // the position would be ~1.16 s beyond; with it we stayed inside.
        p.clear_loop();
        assert!(p.loop_region().is_none());
    }

    #[test]
    fn loop_applies_in_vinyl_mode_too() {
        let mut p = player();
        let sr = 44_100.0f64;
        assert!(p.set_loop(sr, sr + 8_192.0));
        p.seek(sr);
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..200 {
            p.pull_vinyl(1.7, &mut out);
            let pos = p.position();
            assert!(pos >= sr - 1.0 && pos < sr + 8_192.0 + 256.0, "pos {pos}");
        }
        // Reverse inside the loop wraps to the loop end.
        for _ in 0..200 {
            p.pull_vinyl(-1.0, &mut out);
            let pos = p.position();
            assert!(pos >= sr - 256.0 && pos < sr + 8_192.0 + 256.0, "pos {pos}");
        }
    }

    #[test]
    fn degenerate_loops_rejected() {
        let mut p = player();
        assert!(!p.set_loop(1000.0, 1010.0)); // < 32 samples
        assert!(!p.set_loop(5000.0, 4000.0)); // inverted
        assert!(p.loop_region().is_none());
        assert!(p.set_loop(0.0, f64::MAX)); // clamped to track length
        let (s, e) = p.loop_region().unwrap();
        assert_eq!(s, 0.0);
        assert_eq!(e, p.track().samples().len() as f64);
    }

    #[test]
    fn vinyl_mode_plays_backwards() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        // Play forward a while, then scratch backwards.
        for _ in 0..50 {
            p.pull_dvs(1.0, &mut out);
        }
        assert_eq!(p.mode(), PlayMode::Stretch);
        let pos_before = p.position();
        for _ in 0..10 {
            p.pull_dvs(-1.0, &mut out);
        }
        assert_eq!(p.mode(), PlayMode::Vinyl);
        assert!(p.position() < pos_before, "position must move backwards");
        assert!(out.is_finite());
    }

    #[test]
    fn dvs_switches_back_to_stretch() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..20 {
            p.pull_dvs(1.0, &mut out);
        }
        for _ in 0..10 {
            p.pull_dvs(-2.0, &mut out);
        }
        assert_eq!(p.mode(), PlayMode::Vinyl);
        let pos = p.position();
        for _ in 0..10 {
            p.pull_dvs(1.0, &mut out);
        }
        assert_eq!(p.mode(), PlayMode::Stretch);
        // Handover was seamless: position continued from the vinyl spot.
        assert!(
            (p.position() - pos).abs() < 44_100.0 * 0.2,
            "position jumped"
        );
    }

    #[test]
    fn vinyl_near_stop_is_quiet_and_finite() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..20 {
            p.pull_dvs(1.0, &mut out);
        }
        for _ in 0..20 {
            p.pull_dvs(0.05, &mut out); // below stretch range: vinyl crawl
            assert!(out.is_finite());
        }
        assert_eq!(p.mode(), PlayMode::Vinyl);
    }

    #[test]
    fn vinyl_wraps_at_track_ends() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        p.pull_dvs(-1.0, &mut out); // immediately backwards from 0
        let len = p.track().samples().len() as f64;
        assert!(p.position() > 0.0 && p.position() <= len);
    }

    #[test]
    fn seek_rewinds() {
        let mut p = player();
        let mut out = AudioBuf::zeroed(2, 128);
        for _ in 0..50 {
            p.pull(1.0, &mut out);
        }
        p.seek(0.0);
        assert_eq!(p.position(), 0.0);
    }
}
