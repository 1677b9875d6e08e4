//! Timecode vinyl simulation: control-signal generation and decoding.
//!
//! DJs control DJ Star with real turntables spinning *timecode vinyl*: a
//! record carrying a control tone instead of music. The software decodes
//! the tone to recover platter speed and direction and steers playback
//! accordingly. "16 % [of the APC] is used for the timecode decoder which
//! interprets external control signals" (§III-B).
//!
//! We have no turntable hardware, so [`TimecodeGenerator`] synthesizes the
//! signal a platter at a given speed would produce — a 1 kHz quadrature
//! carrier (right channel 90° behind the left when spinning forward, 90°
//! ahead in reverse; frequency and amplitude scale with speed) — and
//! [`TimecodeDecoder`] recovers speed (zero-crossing rate), direction
//! (quadrature cross product) and position (integration) from buffers of
//! samples, exactly the per-cycle work the real decoder performs.
//!
//! Simplification vs. commercial DVS: real timecode additionally embeds an
//! absolute-position bitstream; we track position by dead reckoning only
//! (documented in DESIGN.md). The per-cycle compute shape — a few passes of
//! signal analysis per deck — is preserved.

use core::f32::consts::TAU;

use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::osc::advance_phase;
use djstar_dsp::vmath::sin_block;

/// Carrier frequency at speed 1.0 (Hz).
const CARRIER_HZ: f32 = 1_000.0;

/// Synthesizes the control signal of a virtual turntable.
#[derive(Debug, Clone)]
pub struct TimecodeGenerator {
    phase: f32,
    sample_rate: f32,
}

impl TimecodeGenerator {
    /// A generator for the given sample rate.
    pub fn new(sample_rate: u32) -> Self {
        TimecodeGenerator {
            phase: 0.0,
            sample_rate: sample_rate as f32,
        }
    }

    /// Fill `out` (stereo) with the control signal of a platter spinning at
    /// `speed` (1.0 = nominal forward, negative = reverse, 0 = stopped).
    pub fn generate(&mut self, speed: f32, out: &mut AudioBuf) {
        assert_eq!(out.channels(), 2, "timecode is a stereo signal");
        let amp = speed.abs().clamp(0.0, 2.0).sqrt().min(1.0);
        let dphi = CARRIER_HZ * speed / self.sample_rate;
        // Right channel lags 90° going forward, leads in reverse (because
        // the phase increment is negative, the same -90° offset flips its
        // temporal meaning — exactly like a physical quadrature pickup).
        let quad_off = -0.25f32;
        let (left, right) = out.as_planar_slices_mut();
        // Per sample: `sin(TAU * phase) * amp` and `sin(TAU * (phase +
        // quad_off)) * amp`. The arguments of both planes first, then one
        // `sin_block` per plane, then the gain: the same operations per
        // sample as one libm `sinf` each.
        for (l, r) in left.iter_mut().zip(right.iter_mut()) {
            *l = TAU * self.phase;
            *r = TAU * (self.phase + quad_off);
            self.phase = advance_phase(self.phase, dphi);
        }
        for plane in [left, right] {
            sin_block(plane);
            for s in plane {
                *s *= amp;
            }
        }
    }
}

/// Output of one decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimecodeReading {
    /// Estimated platter speed (signed; 1.0 = nominal forward).
    pub speed: f32,
    /// Estimated signal amplitude (0 when the needle is lifted).
    pub amplitude: f32,
    /// Dead-reckoned position in carrier cycles since start.
    pub position: f64,
}

/// Decodes platter speed, direction and position from control-signal
/// buffers.
///
/// Analysis runs over a 512-sample sliding window spanning several buffers:
/// at slow platter speeds (carrier below ~350 Hz) a single 128-sample
/// buffer holds less than one carrier period, so buffer-local
/// zero-crossing counting would lose lock — exactly why hardware DVS
/// decoders track phase across callback boundaries.
#[derive(Debug, Clone)]
pub struct TimecodeDecoder {
    sample_rate: f32,
    position: f64,
    last_speed: f32,
    /// The last (at most) `WINDOW` samples of each channel, oldest first:
    /// flat, so the analysis reads them as slices.
    window_l: Vec<f32>,
    window_r: Vec<f32>,
}

/// Amplitude below which the signal is treated as silence (needle up).
const SILENCE_FLOOR: f32 = 1e-3;

/// Sliding analysis window (samples): 512 tracks speeds down to ~0.2.
const WINDOW: usize = 512;

/// Slide `window` (capacity `WINDOW`) over `incoming`: afterwards it holds
/// the last `WINDOW` samples seen, oldest first. Never grows the
/// allocation — the decode path runs inside the real-time APC every cycle.
fn slide(window: &mut Vec<f32>, incoming: &[f32]) {
    let incoming = &incoming[incoming.len().saturating_sub(WINDOW)..];
    let drop = (window.len() + incoming.len()).saturating_sub(WINDOW);
    window.copy_within(drop.., 0);
    window.truncate(window.len() - drop);
    window.extend_from_slice(incoming);
}

impl TimecodeDecoder {
    /// A decoder for the given sample rate.
    pub fn new(sample_rate: u32) -> Self {
        TimecodeDecoder {
            sample_rate: sample_rate as f32,
            position: 0.0,
            last_speed: 0.0,
            window_l: Vec::with_capacity(WINDOW),
            window_r: Vec::with_capacity(WINDOW),
        }
    }

    /// Decode one buffer of control signal.
    pub fn decode(&mut self, buf: &AudioBuf) -> TimecodeReading {
        assert_eq!(buf.channels(), 2, "timecode is a stereo signal");
        let frames = buf.frames();
        slide(&mut self.window_l, buf.channel(0));
        slide(&mut self.window_r, buf.channel(1));
        let amplitude = buf.peak();
        if amplitude < SILENCE_FLOOR {
            self.last_speed = 0.0;
            return TimecodeReading {
                speed: 0.0,
                amplitude,
                position: self.position,
            };
        }
        let (l, r) = (&self.window_l[..], &self.window_r[..]);
        // |speed| from the zero-crossing rate of the left channel over the
        // window, refined by linear interpolation of the crossing instants.
        let mut crossings = 0u32;
        let mut first_cross = None;
        let mut last_cross = None;
        for i in 1..l.len() {
            let (a, b) = (l[i - 1], l[i]);
            if a <= 0.0 && b > 0.0 {
                let frac = if (b - a).abs() > 1e-12 {
                    -a / (b - a)
                } else {
                    0.0
                };
                let t = (i - 1) as f32 + frac;
                if first_cross.is_none() {
                    first_cross = Some(t);
                }
                last_cross = Some(t);
                crossings += 1;
            }
        }
        let freq = match (first_cross, last_cross) {
            (Some(f0), Some(f1)) if crossings >= 2 && f1 > f0 => {
                (crossings - 1) as f32 / (f1 - f0) * self.sample_rate
            }
            _ => {
                // Under half a carrier period even in the window: the
                // platter is nearly stopped; decay the previous estimate.
                CARRIER_HZ * self.last_speed.abs() * 0.9
            }
        };
        // Direction from the quadrature cross product
        // L[i]·R[i+1] − L[i+1]·R[i]: positive when R lags L (forward).
        let mut cross = 0.0f32;
        for i in 0..l.len() - 1 {
            cross += l[i] * r[i + 1] - l[i + 1] * r[i];
        }
        let dir = if cross >= 0.0 { 1.0 } else { -1.0 };
        let speed = dir * freq / CARRIER_HZ;
        self.last_speed = speed;
        // Dead-reckon the position in carrier cycles over this buffer.
        self.position += (freq * dir / self.sample_rate) as f64 * frames as f64;
        TimecodeReading {
            speed,
            amplitude,
            position: self.position,
        }
    }

    /// Current dead-reckoned position (carrier cycles).
    pub fn position(&self) -> f64 {
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_steady(speed: f32, buffers: usize) -> TimecodeReading {
        let mut gen = TimecodeGenerator::new(44_100);
        let mut dec = TimecodeDecoder::new(44_100);
        let mut buf = AudioBuf::zeroed(2, 128);
        let mut last = TimecodeReading {
            speed: 0.0,
            amplitude: 0.0,
            position: 0.0,
        };
        for _ in 0..buffers {
            gen.generate(speed, &mut buf);
            last = dec.decode(&buf);
        }
        last
    }

    #[test]
    fn generate_equals_its_per_sample_form_over_400_blocks() {
        // The per-sample carrier: one libm `sinf` per plane and sample.
        let mut gen = TimecodeGenerator::new(44_100);
        let mut phase = 0.0f32;
        let mut buf = AudioBuf::zeroed(2, 128);
        for block in 0..400 {
            // Forward, reverse, stopped, past the amplitude clamp, and a
            // scratch fast enough to alias.
            let speed = [1.0, 1.02, -0.97, 0.0, 2.5, -31.0, 0.013][block % 7];
            gen.generate(speed, &mut buf);
            let amp = speed.abs().clamp(0.0, 2.0).sqrt().min(1.0);
            let dphi = CARRIER_HZ * speed / 44_100.0;
            for i in 0..128 {
                let l = (TAU * phase).sin() * amp;
                let r = (TAU * (phase - 0.25)).sin() * amp;
                phase = advance_phase(phase, dphi);
                assert_eq!(
                    buf.sample(0, i).to_bits(),
                    l.to_bits(),
                    "block {block} left {i}"
                );
                assert_eq!(
                    buf.sample(1, i).to_bits(),
                    r.to_bits(),
                    "block {block} right {i}"
                );
            }
        }
    }

    #[test]
    fn nominal_forward_speed_decoded() {
        let r = decode_steady(1.0, 20);
        assert!((r.speed - 1.0).abs() < 0.05, "speed {}", r.speed);
        assert!(r.amplitude > 0.5);
    }

    #[test]
    fn reverse_direction_decoded() {
        let r = decode_steady(-1.0, 20);
        assert!((r.speed + 1.0).abs() < 0.05, "speed {}", r.speed);
    }

    #[test]
    fn pitched_up_and_down_speeds() {
        for target in [0.5f32, 0.92, 1.08, 1.5] {
            let r = decode_steady(target, 30);
            assert!(
                (r.speed - target).abs() < 0.08 * target.max(1.0),
                "target {target}, decoded {}",
                r.speed
            );
        }
    }

    #[test]
    fn silence_reads_as_stopped() {
        let mut dec = TimecodeDecoder::new(44_100);
        let buf = AudioBuf::zeroed(2, 128);
        let r = dec.decode(&buf);
        assert_eq!(r.speed, 0.0);
        assert_eq!(r.amplitude, 0.0);
    }

    #[test]
    fn position_advances_forward_and_backward() {
        let fwd = decode_steady(1.0, 40);
        assert!(fwd.position > 0.0);
        let rev = decode_steady(-1.0, 40);
        assert!(rev.position < 0.0);
        // ~40 buffers * 128 samples at 1 kHz carrier / 44100 ≈ 116 cycles.
        assert!(
            (fwd.position - 116.0).abs() < 10.0,
            "position {}",
            fwd.position
        );
    }

    #[test]
    fn speed_changes_are_tracked() {
        let mut gen = TimecodeGenerator::new(44_100);
        let mut dec = TimecodeDecoder::new(44_100);
        let mut buf = AudioBuf::zeroed(2, 128);
        for _ in 0..10 {
            gen.generate(1.0, &mut buf);
            dec.decode(&buf);
        }
        // DJ pushes the platter faster.
        let mut last = 0.0;
        for _ in 0..10 {
            gen.generate(1.3, &mut buf);
            last = dec.decode(&buf).speed;
        }
        assert!((last - 1.3).abs() < 0.1, "speed {last}");
    }

    /// The seed's decoder, kept as the oracle for the flat windows: two
    /// `VecDeque`s popped and pushed once per sample, made contiguous for
    /// the analysis.
    struct DequeDecoder {
        position: f64,
        last_speed: f32,
        window_l: std::collections::VecDeque<f32>,
        window_r: std::collections::VecDeque<f32>,
    }

    impl DequeDecoder {
        fn decode(&mut self, buf: &AudioBuf) -> TimecodeReading {
            let sample_rate = 44_100.0f32;
            let frames = buf.frames();
            for i in 0..frames {
                if self.window_l.len() == WINDOW {
                    self.window_l.pop_front();
                    self.window_r.pop_front();
                }
                self.window_l.push_back(buf.sample(0, i));
                self.window_r.push_back(buf.sample(1, i));
            }
            let amplitude = buf.peak();
            if amplitude < SILENCE_FLOOR {
                self.last_speed = 0.0;
                return TimecodeReading {
                    speed: 0.0,
                    amplitude,
                    position: self.position,
                };
            }
            let l: &[f32] = self.window_l.make_contiguous();
            let r: &[f32] = self.window_r.make_contiguous();
            let mut crossings = 0u32;
            let mut first_cross = None;
            let mut last_cross = None;
            for i in 1..l.len() {
                let (a, b) = (l[i - 1], l[i]);
                if a <= 0.0 && b > 0.0 {
                    let frac = if (b - a).abs() > 1e-12 {
                        -a / (b - a)
                    } else {
                        0.0
                    };
                    let t = (i - 1) as f32 + frac;
                    if first_cross.is_none() {
                        first_cross = Some(t);
                    }
                    last_cross = Some(t);
                    crossings += 1;
                }
            }
            let freq = match (first_cross, last_cross) {
                (Some(f0), Some(f1)) if crossings >= 2 && f1 > f0 => {
                    (crossings - 1) as f32 / (f1 - f0) * sample_rate
                }
                _ => CARRIER_HZ * self.last_speed.abs() * 0.9,
            };
            let mut cross = 0.0f32;
            for i in 0..l.len() - 1 {
                cross += l[i] * r[i + 1] - l[i + 1] * r[i];
            }
            let dir = if cross >= 0.0 { 1.0 } else { -1.0 };
            let speed = dir * freq / CARRIER_HZ;
            self.last_speed = speed;
            self.position += (freq * dir / sample_rate) as f64 * frames as f64;
            TimecodeReading {
                speed,
                amplitude,
                position: self.position,
            }
        }
    }

    #[test]
    fn flat_window_decodes_bit_equal_to_the_deque_form() {
        // Buffer lengths that fill the window in uneven steps, overfill it
        // in one call (> WINDOW) and leave it untouched (0).
        for frames in [128usize, 1, 100, 511, 512, 700, 0] {
            let mut gen = TimecodeGenerator::new(44_100);
            let mut flat = TimecodeDecoder::new(44_100);
            let mut deque = DequeDecoder {
                position: 0.0,
                last_speed: 0.0,
                window_l: std::collections::VecDeque::with_capacity(WINDOW),
                window_r: std::collections::VecDeque::with_capacity(WINDOW),
            };
            let mut buf = AudioBuf::zeroed(2, frames);
            for block in 0..400 {
                // A platter that speeds up, reverses, crawls and stops.
                let speed = match block / 50 {
                    0 => 1.0,
                    1 => 1.0 + (block - 50) as f32 * 0.01,
                    2 => -0.8,
                    3 => 0.05,
                    4 => 0.0,
                    _ => 0.3 + (block % 7) as f32 * 0.2,
                };
                gen.generate(speed, &mut buf);
                let (got, want) = (flat.decode(&buf), deque.decode(&buf));
                assert_eq!(
                    (
                        got.speed.to_bits(),
                        got.amplitude.to_bits(),
                        got.position.to_bits()
                    ),
                    (
                        want.speed.to_bits(),
                        want.amplitude.to_bits(),
                        want.position.to_bits()
                    ),
                    "{frames} frames, block {block}"
                );
            }
            assert_eq!(flat.window_l.capacity(), WINDOW, "the window never regrows");
            assert_eq!(flat.window_r.capacity(), WINDOW);
        }
    }

    #[test]
    fn generator_output_is_quadrature() {
        let mut gen = TimecodeGenerator::new(44_100);
        let mut buf = AudioBuf::zeroed(2, 4096);
        gen.generate(1.0, &mut buf);
        // L and R should be ~uncorrelated at lag 0 (90° apart) and strongly
        // correlated at the quarter-period lag (~11 samples).
        let corr0: f32 = (0..4096).map(|i| buf.sample(0, i) * buf.sample(1, i)).sum();
        let lag = (44_100.0f32 / CARRIER_HZ / 4.0).round() as usize;
        let corr_lag: f32 = (0..4096 - lag)
            .map(|i| buf.sample(0, i) * buf.sample(1, i + lag))
            .sum();
        assert!(
            corr0.abs() < corr_lag.abs() * 0.2,
            "corr0 {corr0}, corr_lag {corr_lag}"
        );
    }
}
