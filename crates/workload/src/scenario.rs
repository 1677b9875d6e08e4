//! DJ performance scenarios: deck, mixer and effect configurations.

use crate::netspec::NetSpec;
use crate::profile::WorkProfile;
use crate::track::{synth_track, Track, TrackStyle};
use std::sync::{Arc, Mutex};

/// Configuration of one deck.
#[derive(Debug, Clone, Copy)]
pub struct DeckConfig {
    /// Whether the deck is playing.
    pub active: bool,
    /// Playback tempo factor (1.0 = original; time-stretched, not pitched).
    pub tempo: f32,
    /// Channel fader gain.
    pub gain: f32,
    /// 3-band EQ gains in dB (low, mid, high).
    pub eq_db: [f32; 3],
    /// Channel filter knob position in `[-1, 1]`.
    pub filter_pos: f32,
    /// Which of the four FX slots are enabled.
    pub fx_enabled: [bool; 4],
    /// Relative compute weight of this deck's effect chain. The paper's
    /// deck chains are visibly imbalanced (Fig. 11: the large effect blocks
    /// differ per deck), which is what limits the 4-thread speedup to 2.40;
    /// unequal weights reproduce that imbalance.
    pub fx_weight: f32,
    /// Seed of this deck's synthesized track.
    pub track_seed: u64,
    /// Track tempo in BPM.
    pub bpm: f32,
    /// Track style.
    pub style: TrackStyle,
}

impl DeckConfig {
    /// An active deck with everything engaged (the paper's benchmark uses
    /// all 67 nodes, i.e. all effects on).
    pub fn full(track_seed: u64, bpm: f32) -> Self {
        DeckConfig {
            active: true,
            tempo: 1.0,
            gain: 0.8,
            eq_db: [0.0, 0.0, 0.0],
            filter_pos: 0.0,
            fx_enabled: [true; 4],
            fx_weight: 1.0,
            track_seed,
            bpm,
            style: TrackStyle::House,
        }
    }

    /// An inactive deck.
    pub fn idle() -> Self {
        DeckConfig {
            active: false,
            tempo: 1.0,
            gain: 0.0,
            eq_db: [0.0; 3],
            filter_pos: 0.0,
            fx_enabled: [false; 4],
            fx_weight: 1.0,
            track_seed: 0,
            bpm: 120.0,
            style: TrackStyle::House,
        }
    }
}

/// Everything that decides a deck's track.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TrackKey {
    seed: u64,
    bpm_bits: u32,
    secs_bits: u32,
    style: TrackStyle,
}

/// The tracks one scenario has loaded: per deck, the last track asked for
/// and what it was synthesized from. The handle is shared by a scenario and
/// its clones and by nothing else — there is no process-wide cache, so two
/// scenarios constructed independently each pay for their own set.
#[derive(Clone, Default)]
struct TrackLibrary(Arc<Mutex<[Option<Loaded>; 4]>>);

type Loaded = (TrackKey, Track);

impl std::fmt::Debug for TrackLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let loaded = self.0.lock().map_or(0, |s| s.iter().flatten().count());
        write!(f, "TrackLibrary({loaded} loaded)")
    }
}

/// A complete performance scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The four decks.
    pub decks: [DeckConfig; 4],
    /// Crossfader position in `[0, 1]`.
    pub crossfader: f32,
    /// Master output gain.
    pub master_gain: f32,
    /// Node cost model.
    pub work: WorkProfile,
    /// Length of the synthesized tracks in seconds.
    pub track_secs: f32,
    /// Network scenario (remote decks + broadcast); disabled by default.
    pub net: NetSpec,
    /// Tracks already synthesized for this scenario or a clone of it.
    library: TrackLibrary,
}

impl Scenario {
    /// The paper's evaluation setup: four active decks with different
    /// tracks, all effects engaged, paper-scale node costs.
    pub fn paper_default() -> Self {
        Scenario {
            decks: [
                DeckConfig {
                    tempo: 1.02,
                    fx_weight: 1.55,
                    ..DeckConfig::full(11, 126.0)
                },
                DeckConfig {
                    tempo: 0.98,
                    fx_weight: 1.0,
                    style: TrackStyle::Breakbeat,
                    ..DeckConfig::full(22, 132.0)
                },
                DeckConfig {
                    eq_db: [-6.0, 0.0, 3.0],
                    fx_weight: 0.75,
                    ..DeckConfig::full(33, 124.0)
                },
                DeckConfig {
                    filter_pos: -0.3,
                    fx_weight: 0.55,
                    style: TrackStyle::Ambient,
                    ..DeckConfig::full(44, 128.0)
                },
            ],
            crossfader: 0.5,
            master_gain: 0.9,
            work: WorkProfile::paper_scale(),
            track_secs: 30.0,
            net: NetSpec::default(),
            library: TrackLibrary::default(),
        }
    }

    /// Deck `d`'s track, synthesized on first request and shared from then
    /// on with every clone of this scenario (an engine, a venue session,
    /// a calibration round): loading a set
    /// synthesizes each deck once. A deck whose seed, tempo, style or length
    /// has been edited since gets a fresh track, which replaces the old one.
    pub fn track(&self, d: usize) -> Track {
        let cfg = &self.decks[d];
        let key = TrackKey {
            seed: cfg.track_seed,
            bpm_bits: cfg.bpm.to_bits(),
            secs_bits: self.track_secs.to_bits(),
            style: cfg.style,
        };
        let mut slots = self
            .library
            .0
            .lock()
            .expect("synthesis is total (tempo clamped), so no holder of the lock panics");
        match &slots[d] {
            Some((k, track)) if *k == key => track.clone(),
            _ => {
                let track = synth_track(cfg.track_seed, cfg.bpm, self.track_secs, cfg.style);
                slots[d] = Some((key, track.clone()));
                track
            }
        }
    }

    /// Same structure but tiny node costs and short tracks, for tests.
    pub fn light_test() -> Self {
        let mut s = Self::paper_default();
        s.work = WorkProfile::light();
        s.track_secs = 2.0;
        s
    }

    /// A two-deck mix (decks C/D idle) — used by the thread-scaling and
    /// ablation studies.
    pub fn two_deck_mix() -> Self {
        let mut s = Self::paper_default();
        s.decks[2] = DeckConfig::idle();
        s.decks[3] = DeckConfig::idle();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_four_full_decks() {
        let s = Scenario::paper_default();
        assert!(s.decks.iter().all(|d| d.active));
        assert!(s.decks.iter().all(|d| d.fx_enabled.iter().all(|&e| e)));
        // Different tracks per deck, as in the paper.
        let seeds: std::collections::HashSet<u64> = s.decks.iter().map(|d| d.track_seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn clones_share_tracks_and_independent_scenarios_do_not() {
        let s = Scenario::light_test();
        let first = s.track(1);
        assert!(Track::ptr_eq(&first, &s.track(1)));
        assert!(Track::ptr_eq(&first, &s.clone().track(1)));
        // A clone made before the first request shares what is loaded later.
        let early = s.clone();
        assert!(Track::ptr_eq(&s.track(2), &early.track(2)));
        // Equal configuration, separate construction: separate load.
        let other = Scenario::light_test();
        assert!(!Track::ptr_eq(&first, &other.track(1)));
        assert_eq!(first.samples(), other.track(1).samples());
    }

    #[test]
    fn editing_a_deck_after_a_clone_yields_the_new_track() {
        let s = Scenario::light_test();
        let old = s.track(0);
        let mut seed = s.clone();
        seed.decks[0].track_seed += 1;
        assert_ne!(seed.track(0).samples(), old.samples());
        let mut bpm = s.clone();
        bpm.decks[0].bpm = 140.0;
        assert_eq!(bpm.track(0).bpm(), 140.0);
        let mut secs = s.clone();
        secs.track_secs = 1.0;
        assert_eq!(secs.track(0).samples().len(), 44_100);
        let mut style = s.clone();
        style.decks[0].style = TrackStyle::Ambient;
        assert_ne!(style.track(0).samples(), old.samples());
        // The original still gets its own track back, bit for bit, and
        // other decks were never disturbed.
        assert_eq!(s.track(0).samples(), old.samples());
        assert!(Track::ptr_eq(&s.track(1), &style.track(1)));
    }

    #[test]
    fn two_deck_mix_has_two_active() {
        let s = Scenario::two_deck_mix();
        assert_eq!(s.decks.iter().filter(|d| d.active).count(), 2);
    }

    #[test]
    fn light_test_is_cheap() {
        let s = Scenario::light_test();
        assert!(s.work.fx_iters < 1000);
        assert!(s.track_secs <= 2.0);
    }
}
