//! Workload substrate: synthetic audio tracks, performance scenarios and
//! the calibratable node cost model.
//!
//! The paper evaluates DJ Star "on realistic input data (four decks with
//! different audio tracks)" (§VIII) with "67 different filters and audio
//! effects that imitate a typical use case for a DJ performance". We cannot
//! ship copyrighted music, so [`track`] synthesizes club-style tracks (kick,
//! hats, bass, lead, with alternating loud/quiet sections — the loudness
//! alternation is what produces the bimodal execution-time histograms of
//! Fig. 9), [`scenario`] describes deck/mixer configurations, and
//! [`profile`] holds the per-node-class compute weights that calibrate our
//! graph's run-time distribution to the paper's.

pub mod netspec;
pub mod profile;
pub mod scenario;
pub mod switches;
pub mod track;

pub use netspec::NetSpec;
pub use profile::WorkProfile;
pub use scenario::{DeckConfig, Scenario};
pub use switches::{shape_walk, SwitchAction, SwitchEvent, SwitchScript};
pub use track::{synth_track, Track, TrackStyle};
