//! Decibel/linear conversions and the crossfade law.

/// Convert a gain in decibels to a linear amplitude factor.
#[inline]
pub fn db_to_gain(db: f32) -> f32 {
    10f32.powf(db / 20.0)
}

/// Convert a linear amplitude factor to decibels. Zero or negative input
/// saturates to -120 dB, the engine's silence floor.
#[inline]
pub fn gain_to_db(gain: f32) -> f32 {
    if gain <= 0.0 {
        -120.0
    } else {
        (20.0 * gain.log10()).max(-120.0)
    }
}

/// Equal-power crossfade between two sources. `x` ranges 0 (all `a`) to 1
/// (all `b`); returns `(gain_a, gain_b)`. This is the law of the DJ mixer's
/// crossfader.
#[inline]
pub fn crossfade_gains(x: f32) -> (f32, f32) {
    let x = x.clamp(0.0, 1.0);
    let theta = x * core::f32::consts::FRAC_PI_2;
    (theta.cos(), theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for db in [-60.0f32, -6.0, 0.0, 6.0, 12.0] {
            let back = gain_to_db(db_to_gain(db));
            assert!((back - db).abs() < 1e-3, "{db} -> {back}");
        }
    }

    #[test]
    fn zero_db_is_unity() {
        assert!((db_to_gain(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn silence_floor() {
        assert_eq!(gain_to_db(0.0), -120.0);
        assert_eq!(gain_to_db(-1.0), -120.0);
    }

    #[test]
    fn crossfade_endpoints() {
        let (a, b) = crossfade_gains(0.0);
        assert!((a - 1.0).abs() < 1e-6 && b.abs() < 1e-6);
        let (a, b) = crossfade_gains(1.0);
        assert!(a.abs() < 1e-6 && (b - 1.0).abs() < 1e-6);
        let (a, b) = crossfade_gains(0.5);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn crossfade_clamps() {
        assert_eq!(crossfade_gains(2.0), crossfade_gains(1.0));
        assert_eq!(crossfade_gains(-1.0), crossfade_gains(0.0));
    }
}
