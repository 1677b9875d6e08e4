//! Proof that the venue's multi-session hot path allocates nothing.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after
//! warm-up, full batched venue cycles — the one batch (every session's
//! graph, deck fronts and VC included, staged, dispatched, driver lane-0
//! parts, per-session collection and phase timing) and deadline
//! accounting — must not allocate: in-flight state lives
//! in the session records made at admission, the pool entry table is
//! reused, and the engines' own phases were already allocation-free solo.
//!
//! Own integration binary for the same reason as `net_alloc.rs`: a
//! global allocator is process-wide and sibling tests would pollute the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use djstar_core::exec::Strategy;
use djstar_engine::apc::AuxWork;
use djstar_engine::degrade::GovernorConfig;
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;
use std::time::Duration;

fn spec(strategy: Strategy, threads: usize, networked: bool) -> SessionSpec {
    let mut scenario = Scenario::light_test();
    if networked {
        scenario.net = NetSpec::bursty(0xA110C);
    }
    SessionSpec {
        scenario,
        strategy,
        threads,
        aux: AuxWork::light(),
    }
}

/// Deepen on the first conceal, straight to the ceiling, and never
/// restore: one retarget through the engine's network governor.
const DEEPEN_ONCE: GovernorConfig = GovernorConfig {
    window: 1,
    shed_misses: 1,
    restore_clean: usize::MAX,
    restore_tolerance: 0,
    min_dwell: 0,
};

#[test]
fn steady_state_venue_cycles_do_not_allocate() {
    let mut venue = VenueServer::new(3, Duration::from_secs(1), 0.0);
    // A mixed batch: pooled stealer, pooled busy-waiter, a blueprint
    // replayer, inline sequential, one of them networked — every dispatch
    // flavor the venue hot path has, in its one batch.
    let networked = venue
        .admit_bounded(spec(Strategy::Steal, 3, true), 1)
        .expect("admit steal");
    venue
        .admit_bounded(spec(Strategy::Busy, 2, false), 1)
        .expect("admit busy");
    venue
        .admit_bounded(spec(Strategy::Planned, 2, false), 1)
        .expect("admit planned");
    venue
        .admit_bounded(spec(Strategy::Sequential, 1, false), 1)
        .expect("admit sequential");
    venue.run_cycles(30);
    // Deepen the networked session's buffers to the ceiling through its
    // engine on the first conceal; they then step one rung per cycle
    // inside the counted window.
    venue
        .engine_mut(networked)
        .unwrap()
        .enable_net_degradation(DEEPEN_ONCE, 16);
    let deepened = (0..200).any(|_| {
        venue.run_cycle();
        let engine = venue.engine_mut(networked).unwrap();
        engine.observe_network().is_some()
    });
    assert!(deepened, "the trace never concealed");
    let changes = venue
        .engine_mut(networked)
        .unwrap()
        .net_stats()
        .depth_changes;
    // Count allocations across a 50-cycle window. A genuine hot-path
    // allocation repeats every window, so re-measuring once filters the
    // rare one-shot lazy initialization std performs without weakening
    // the per-cycle claim.
    let mut measure = || {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        venue.run_cycles(50);
        ALLOCATIONS.load(Ordering::SeqCst) - before
    };
    let mut allocs = measure();
    if allocs > 0 {
        allocs = measure();
    }
    assert_eq!(allocs, 0, "venue cycles allocated {allocs} times");
    let after = venue
        .engine_mut(networked)
        .unwrap()
        .net_stats()
        .depth_changes;
    assert!(after > changes, "no depth transition inside the window");
}
