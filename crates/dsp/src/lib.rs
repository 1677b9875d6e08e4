//! Audio DSP substrate for the DJ Star reproduction.
//!
//! The paper's application ("DJ Star") processes 128-sample stereo buffers at
//! 44.1 kHz through per-deck effect chains, channel strips (filter + EQ), a
//! mixer and a master section (§II, Fig. 3). The original effects are
//! proprietary; this crate provides real, from-scratch DSP with equivalent
//! cost characteristics: RBJ biquad filters, a 3-band EQ, the four audio
//! effects of the deck chains, dynamics (limiter/clipper/compressor),
//! metering, a WSOLA time stretcher and a resampler.
//!
//! All processors operate in place on [`AudioBuf`] and implement the
//! [`Effect`] trait so the task-graph nodes in `djstar-engine` can hold them
//! uniformly.

pub mod arena;
pub mod biquad;
pub mod buffer;
pub mod db;
pub mod delayline;
pub mod dynamics;
pub mod effects;
pub mod eq;
pub mod fft;
pub mod kprof;
pub mod meter;
pub mod mix;
pub mod osc;
pub mod resample;
pub mod rng;
pub mod simd;
pub mod stretch;
pub mod wav;
pub mod work;

pub use arena::BufferArena;
pub use buffer::AudioBuf;
pub use effects::Effect;

/// The sample rate DJ Star runs at (§III-A).
pub const SAMPLE_RATE: u32 = 44_100;

/// The standard buffer size of DJ Star: 128 samples, requested by the sound
/// card at 344.53 Hz, i.e. every 2.9 ms (§III-A).
pub const BUFFER_FRAMES: usize = 128;
