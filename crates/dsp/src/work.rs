//! Calibratable compute kernel for the node cost model.
//!
//! The paper's effect nodes take tens of microseconds on 128-sample buffers
//! because the proprietary algorithms are heavy (§IV: effect nodes are "the
//! most expensive nodes in terms of run-time consumption"). Our replacement
//! effects are real DSP but lighter, so each graph node additionally runs
//! this kernel for a number of iterations set by the workload's
//! `WorkProfile` — scaled by the buffer's signal energy, reproducing the
//! paper's data-dependent run-times ("the run-time additionally depends on
//! the actual audio stream data").
//!
//! The kernel is a chaotic floating-point recurrence: it cannot be
//! constant-folded, auto-vectorizes poorly on purpose (loop-carried
//! dependency) and returns a value the caller must consume, so the optimizer
//! cannot remove it.

/// Run `iters` iterations of the calibration kernel seeded by `seed`.
///
/// Returns a value derived from every iteration; callers must feed it into
/// something observable (the engine adds `result * 1e-20` to one sample)
/// so the work cannot be optimized away.
#[inline(never)]
pub fn burn(iters: u32, seed: f32) -> f32 {
    let mut x = seed.abs().fract() * 0.5 + 0.25;
    let mut acc = 0.0f32;
    for i in 0..iters {
        // Logistic-map-like recurrence with an extra transcendental every
        // 16th iteration to roughly match filter-kernel instruction mixes.
        x = 3.999 * x * (1.0 - x);
        if i % 16 == 0 {
            acc += (x * core::f32::consts::PI).sin();
        } else {
            acc += x;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_is_deterministic() {
        assert_eq!(burn(1000, 0.5), burn(1000, 0.5));
    }

    #[test]
    fn burn_depends_on_seed_and_iters() {
        assert_ne!(burn(1000, 0.5), burn(1000, 0.25));
        assert_ne!(burn(1000, 0.5), burn(1001, 0.5));
    }

    #[test]
    fn burn_zero_iters_is_zero_work() {
        assert_eq!(burn(0, 0.9), 0.0);
    }

    #[test]
    fn burn_output_finite() {
        for i in [1u32, 10, 100, 10_000] {
            assert!(burn(i, 0.123).is_finite());
        }
    }
}
