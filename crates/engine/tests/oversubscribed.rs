//! Lanes that share one CPU must not spin against each other. With the
//! driver and the pool worker confined to a single CPU, a lane waiting on
//! the other can make progress only by giving the CPU up: a wait that
//! spins for a fixed count of polls before it yields turns every
//! cross-lane hand-off into that many polls of dead time. The waits are
//! budgeted in time instead (`djstar_core::exec`'s spin phase), so a
//! two-lane engine of any strategy squeezed onto one CPU runs within a
//! small factor of the one-lane engine doing the same work.
//!
//! Linux only (the CPU mask is set with `sched_setaffinity(2)`, as the
//! benchmark's `affinity` module does); skipped on a one-CPU host or
//! where the call is refused.

use djstar_core::exec::Strategy;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_workload::scenario::Scenario;
use std::time::{Duration, Instant};

/// Cycles per timed run: a fresh engine's first 50, learning window and
/// PLAN's re-plan commit included — what a warm-up runs.
const CYCLES: usize = 50;

/// Confine the calling thread (and every thread it spawns afterwards) to
/// CPU 0. False where the call is refused.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1;
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`,
    // which points at a live u64 of exactly that size; pid 0 is the calling
    // thread. The call has no other memory effects.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

/// Wall time of the first `CYCLES` cycles of a fresh light engine, the
/// fastest of three builds.
fn run(strategy: Strategy, threads: usize) -> Duration {
    (0..3)
        .map(|_| {
            let mut engine =
                AudioEngine::with_aux(Scenario::light_test(), strategy, threads, AuxWork::light());
            let t0 = Instant::now();
            engine.warmup(CYCLES);
            t0.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn two_lanes_on_one_cpu_run_within_three_times_one_lane() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        eprintln!("skipped: a one-CPU host cannot separate the case");
        return;
    }
    if !pin_to_one_cpu() {
        eprintln!("skipped: sched_setaffinity refused");
        return;
    }
    let seq = run(Strategy::Sequential, 1);
    let multi_lane = Strategy::ALL
        .into_iter()
        .filter(|&s| s != Strategy::Sequential);
    for strategy in multi_lane {
        let two = run(strategy, 2);
        eprintln!("{strategy:?} x 2 on one CPU: {two:?}, SEQ x 1: {seq:?}");
        assert!(
            two <= seq * 3,
            "{strategy:?} x 2 on one CPU took {two:?}, more than 3 x SEQ x 1's {seq:?}"
        );
    }
}
