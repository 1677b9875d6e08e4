//! Thread placement for the run: the driver on CPU 0, the engines' worker
//! threads on the CPUs after it, one per lane, and one keep-awake thread on
//! the next CPU if the workload leaves one idle. Measurement hygiene, not an
//! optimisation, found by probing this 2-vCPU guest:
//!
//! - unpinned, the guest scheduler can leave a worker on the driver's CPU
//!   for a second at a time, which halves the speed of both;
//! - while the second vCPU idles, a single-threaded workload drifts between
//!   a fast (x0.8), a normal and a slow (x1.2-1.4) regime that each last
//!   seconds; with the second vCPU kept busy it stays in the normal one.
//!
//! The keep-awake thread never shares a CPU with a worker: sharing one, even
//! at nice 19, put a 4 ms tail on `light_plan`. So workers are confined to
//! CPUs `1..lanes` and the spinner sits on CPU `lanes`, on any host size.
//! One spinner only: that is all this guest could try, and a spinner per
//! idle CPU would burn a large host for nothing known.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// The CPU the driver (this benchmark's main thread) runs on.
const DRIVER_CPU: usize = 0;

#[cfg(target_os = "linux")]
fn set_mask(mask: u64) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`,
    // which points at a live u64 of exactly that size; pid 0 is the calling
    // thread. The call has no other memory effects.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_mask: u64) -> bool {
    false
}

/// CPUs this process may use, counted once before anything is pinned
/// (`available_parallelism` reads the calling thread's own mask).
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(63)))
}

/// Pin the calling thread to the driver CPU. Returns false (and changes
/// nothing) on a single-CPU host or where the call is refused.
pub fn pin_driver() -> bool {
    cpus() > 1 && set_mask(1 << DRIVER_CPU)
}

/// Run `build` — which constructs engines of `lanes` threads and so spawns
/// their `lanes - 1` workers — with the calling thread confined to CPUs
/// `1..lanes` (as many of them as the host has), then return to the driver
/// CPU. Spawned threads inherit the mask in force at spawn time and keep it.
pub fn spawn_workers_off_driver<T>(lanes: usize, build: impl FnOnce() -> T) -> T {
    let top = lanes.min(cpus());
    if top < 2 {
        return build();
    }
    // CPUs 0..top without the driver's (`cpus()` keeps `top` below 64).
    let moved = set_mask(((1u64 << top) - 1) & !(1 << DRIVER_CPU));
    let built = build();
    if moved {
        set_mask(1 << DRIVER_CPU);
    }
    built
}

/// A spinning thread on the first CPU a workload's lanes do not occupy;
/// stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    /// A spinner on CPU `lanes` (lane 0 is the driver's CPU, the workers
    /// take `1..lanes`). None on a host where the lanes use every CPU.
    pub fn for_lanes(lanes: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu = lanes.max(1);
        let thread = (cpu < cpus()).then(|| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                set_mask(1 << cpu);
                // Relaxed: the flag publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        });
        KeepAwake { stop, thread }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            // A spinner cannot panic; nothing to report from a destructor.
            let _ = t.join();
        }
    }
}
