//! Audio effects: the FX1–FX4 slots of each DJ Star deck (Fig. 3).
//!
//! The paper notes the original effect algorithms are proprietary and
//! "strictly sequential" (§V); these replacements are real sequential DSP
//! with comparable structure: per-sample state machines over 128-frame
//! buffers. The set is exactly what the engine's deck chains load
//! (`graphbuild::DECK_FX` in `djstar-engine`, which tests the match).

mod delay;
mod flanger;
mod overdrive;
mod phaser;

pub use delay::EchoDelay;
pub use flanger::Flanger;
pub use overdrive::Overdrive;
pub use phaser::Phaser;

use crate::buffer::AudioBuf;
use crate::osc::Oscillator;

/// Frames per modulation table: the LFO-swept effects tabulate their
/// modulation (delay, allpass coefficient) for this many frames on the
/// stack, then run each channel plane against the table; longer buffers go
/// through in chunks of this size.
pub(crate) const MOD_BLOCK: usize = crate::BUFFER_FRAMES;

/// Fill `table` with the next `table.len()` steps of `lfo`, mapped to
/// `offset + scale * lfo`.
fn modulation_table(lfo: &mut Oscillator, table: &mut [f32], offset: f32, scale: f32) {
    lfo.fill(table);
    for m in table {
        *m = offset + scale * *m;
    }
}

/// A stateful in-place audio effect.
pub trait Effect: Send {
    /// Process `buf` in place.
    fn process(&mut self, buf: &mut AudioBuf);

    /// Clear internal state (delay lines, LFO phases, filter memory).
    fn reset(&mut self);

    /// Short human-readable name.
    fn name(&self) -> &'static str;
}

/// Identifier for constructing each of the built-in effects uniformly;
/// the workload crate uses this to assemble deck effect chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectKind {
    EchoDelay,
    Flanger,
    Phaser,
    Overdrive,
}

impl EffectKind {
    /// All built-in effect kinds.
    pub const ALL: [EffectKind; 4] = [
        EffectKind::EchoDelay,
        EffectKind::Flanger,
        EffectKind::Phaser,
        EffectKind::Overdrive,
    ];

    /// Construct a boxed instance with default parameters at `sample_rate`.
    pub fn build(self, sample_rate: u32) -> Box<dyn Effect> {
        match self {
            EffectKind::EchoDelay => Box::new(EchoDelay::new(sample_rate, 0.25, 0.45, 0.5)),
            EffectKind::Flanger => Box::new(Flanger::new(sample_rate, 0.4, 0.7, 0.5)),
            EffectKind::Phaser => Box::new(Phaser::new(sample_rate, 0.3, 4, 0.6)),
            EffectKind::Overdrive => Box::new(Overdrive::new(3.0, 0.7)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::NoiseSource;

    fn noisy_buf(seed: u32) -> AudioBuf {
        let mut n = NoiseSource::new(seed);
        AudioBuf::from_fn(2, 128, |_, _| n.next_sample() * 0.5)
    }

    /// Every effect must keep output finite and bounded on hot noise input,
    /// and must be deterministic after reset.
    #[test]
    fn all_effects_bounded_finite_and_deterministic() {
        for kind in EffectKind::ALL {
            let mut fx = kind.build(44_100);
            let mut first = Vec::new();
            for block in 0..50 {
                let mut buf = noisy_buf(block + 1);
                fx.process(&mut buf);
                assert!(buf.is_finite(), "{:?} produced non-finite output", kind);
                assert!(
                    buf.peak() < 10.0,
                    "{:?} exploded: peak {}",
                    kind,
                    buf.peak()
                );
                if block == 0 {
                    first = buf.samples().to_vec();
                }
            }
            fx.reset();
            let mut buf = noisy_buf(1);
            fx.process(&mut buf);
            assert_eq!(
                buf.samples(),
                &first[..],
                "{:?} not deterministic after reset",
                kind
            );
        }
    }

    /// Every effect must actually change the signal (no accidental bypass).
    #[test]
    fn all_effects_alter_signal() {
        for kind in EffectKind::ALL {
            let mut fx = kind.build(44_100);
            // Feed a few blocks so delay-based effects have history.
            for block in 0..4 {
                let mut buf = noisy_buf(block + 10);
                fx.process(&mut buf);
            }
            let orig = noisy_buf(99);
            let mut buf = orig.clone();
            fx.process(&mut buf);
            let diff: f32 = buf
                .samples()
                .iter()
                .zip(orig.samples())
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(
                diff > 1e-3,
                "{:?} appears to be a bypass (diff {diff})",
                kind
            );
        }
    }

    /// Silence in, silence (or decaying tail) out - no effect may generate
    /// energy from nothing indefinitely.
    #[test]
    fn effects_decay_on_silence() {
        for kind in EffectKind::ALL {
            let mut fx = kind.build(44_100);
            for block in 0..4 {
                let mut buf = noisy_buf(block + 20);
                fx.process(&mut buf);
            }
            // Feed 100 blocks of silence; the tail must decay.
            let mut last_rms = f32::INFINITY;
            for _ in 0..100 {
                let mut buf = AudioBuf::zeroed(2, 128);
                fx.process(&mut buf);
                last_rms = buf.rms();
            }
            assert!(
                last_rms < 0.05,
                "{:?} still ringing after silence: rms {last_rms}",
                kind
            );
        }
    }
}
