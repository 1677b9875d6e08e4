//! Proof that a mode storm served from a warm blueprint cache neither
//! allocates nor frees anything on the audio thread, under every strategy
//! (a PLAN commit swaps in a blueprint bound at staging), and that a cached
//! mode is as small as a plan ought to be.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! measured window per switch is exactly what runs on (or blocks) the
//! audio path: the warm `stage_edits` hit (a take-once `swap_remove`
//! from the cache, the missing parts moved out of the bin), the
//! cycle-boundary commit (name-keyed carry-over resolves through the
//! index built at staging time; the replaced generation is parked, not
//! dropped), and the following audio cycles — each one graph cycle,
//! whose deck fronts and VC the swap carries over like any node. The
//! neighborhood
//! precompile — the background stager's job, never the audio thread's —
//! runs between windows; it builds, restocks and frees at will.
//!
//! Own integration binary for the same reason as `net_alloc.rs`: a
//! global allocator is process-wide and sibling tests would pollute the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The counters are process-wide: the tests of this binary take turns.
static TURN: Mutex<()> = Mutex::new(());

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use djstar_core::exec::Strategy;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::reconfig::{stage_topology, GraphEdit};
use djstar_engine::{hollow_graph, BlueprintCache, GraphShape, NodeCostModel, NodeKey};
use djstar_workload::scenario::Scenario;

const SWITCHES: usize = 10;
const CYCLES_PER_SWITCH: usize = 10;

/// One warm storm pass: per switch, precompile the neighborhood
/// (uncounted, between windows), then measure the hit + commit + cycles
/// window. Returns the allocations and the frees observed inside the
/// windows.
fn warm_storm(engine: &mut AudioEngine) -> (u64, u64) {
    let mut hot = (0u64, 0u64);
    for i in 0..SWITCHES {
        // Background-stager stand-in: refill the one-edit neighborhood of
        // the current shape so the next switch is a guaranteed warm hit.
        engine.precompile_neighborhood();
        let edit = if i % 2 == 0 {
            GraphEdit::InsertFxSlot(2)
        } else {
            GraphEdit::RemoveFxSlot(2)
        };
        let before = (
            ALLOCATIONS.load(Ordering::SeqCst),
            FREES.load(Ordering::SeqCst),
        );
        let staged = engine.stage_edits(&[edit]).expect("warm stage");
        engine.commit(staged).expect("commit");
        for _ in 0..CYCLES_PER_SWITCH {
            engine.run_apc();
        }
        hot.0 += ALLOCATIONS.load(Ordering::SeqCst) - before.0;
        hot.1 += FREES.load(Ordering::SeqCst) - before.1;
    }
    hot
}

#[test]
fn warm_cache_storm_does_not_allocate_on_the_audio_thread() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Every strategy: SEQ on its one lane, the others on two, and PLAN —
    // the one whose commit swaps a blueprint too — also on three.
    for strategy in Strategy::ALL {
        let lanes: &[usize] = match strategy {
            Strategy::Sequential => &[1],
            Strategy::Planned => &[2, 3],
            _ => &[2],
        };
        for &threads in lanes {
            warm_storm_case(strategy, threads);
        }
    }
}

fn warm_storm_case(strategy: Strategy, threads: usize) {
    let tag = format!("{} x {threads}", strategy.label());
    let mut engine =
        AudioEngine::with_aux(Scenario::light_test(), strategy, threads, AuxWork::light());
    // Inside the learning window (cycles 5 ..= 16) the lanes fold node
    // times into the node histograms: cycles 6 ..= 10, or 11 ..= 15 if
    // std's one-shot lazy initialization landed in the first, allocate
    // nothing. Cycle 16 closes the window and may allocate; every window
    // below starts after it.
    engine.warmup(5);
    let learning = |engine: &mut AudioEngine| {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        engine.warmup(5);
        ALLOCATIONS.load(Ordering::SeqCst) - before
    };
    let mut allocs = learning(&mut engine);
    if allocs > 0 {
        allocs = learning(&mut engine);
    }
    assert_eq!(allocs, 0, "{tag}: learning cycles allocated {allocs} times");
    engine.warmup(20);
    // Pre-grow the engine's commit ledger past what two measured passes
    // will push (33 commits doubles its capacity to 64; PLAN's re-plan at
    // cycle 16 adds one), so a `Vec` growth never lands inside a window.
    // (The first of these commits also gives the retired-generation list
    // its capacity.)
    for i in 0..33 {
        let edit = if i % 2 == 0 {
            GraphEdit::InsertFxSlot(3)
        } else {
            GraphEdit::RemoveFxSlot(3)
        };
        let staged = engine.stage_edits(&[edit]).expect("cold stage");
        engine.commit(staged).expect("cold commit");
        engine.run_apc();
    }
    engine.enable_mode_cache(16);
    // Measure one storm; a genuine hot-path allocation repeats every
    // pass, so re-measuring once filters the rare one-shot lazy
    // initialization std performs without weakening the claim.
    let mut hot = warm_storm(&mut engine);
    if hot != (0, 0) {
        hot = warm_storm(&mut engine);
    }
    assert_eq!(
        hot,
        (0, 0),
        "{tag}: warm storm (allocated, freed) {hot:?} times inside the audio windows"
    );
    // The zero-alloc claim is about the *hit* path — prove the storm
    // really was served from cache, not from fresh compiles.
    let stats = engine.mode_cache().expect("cache armed").stats();
    assert!(
        stats.hits >= SWITCHES as u64,
        "{tag}: storm was not served from cache: {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "{tag}: a warm storm must never miss: {stats:?}"
    );
    // FXC5 came out of the bin every other switch; no hit had to build.
    assert_eq!(stats.parts_built_on_hit, 0, "{tag}: {stats:?}");
    // The last commit's generation waits for the next control-plane call.
    assert_eq!(engine.mode_stats().retired_pending, 1, "{tag}");
    engine.precompile_neighborhood();
    assert_eq!(engine.mode_stats().retired_pending, 0, "{tag}");
}

#[test]
fn a_cached_mode_weighs_what_a_plan_weighs() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // 32 distinct paper-scale shapes (deck A's and deck B's chain lengths),
    // staged for PLAN so each entry carries a blueprint too.
    let scenario = Scenario::light_test();
    let costs = NodeCostModel::uniform(1_000);
    let mut cache = BlueprintCache::new(32);
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    for i in 0..32 {
        let mut shape = GraphShape::paper_default();
        shape.fx_slots[0] = 1 + i % 8;
        shape.fx_slots[1] = 1 + 2 * (i / 8);
        let frames = djstar_dsp::BUFFER_FRAMES;
        let staged = stage_topology(
            &scenario,
            &shape,
            Strategy::Planned,
            2,
            frames,
            &costs,
            None,
        );
        cache.insert(staged.expect("stages"));
    }
    let per_entry = (LIVE_BYTES.load(Ordering::SeqCst) - before) / 32;
    assert_eq!(cache.len(), 32);
    assert!(
        per_entry <= 150 * 1024,
        "a cached hollow generation holds {per_entry} B (440 KiB when it owned its processors)"
    );
    // The stats' own estimate counts buffers and cells only.
    let stats = cache.stats();
    assert!(stats.entry_bytes / 32 <= per_entry as u64, "{stats:?}");
    assert!(stats.entry_bytes / 32 >= 32 * 1024, "{stats:?}");

    // The bin stocks what those 32 modes lack against the running paper
    // graph — the slots past the fourth of decks A and B — once per name.
    let (running, _) = hollow_graph(&scenario, &GraphShape::paper_default());
    cache.restock(&scenario, running.topology());
    let mut names: Vec<String> = cache.bin().keys().map(NodeKey::name).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["FXA5", "FXA6", "FXA7", "FXA8", "FXB5", "FXB6", "FXB7"]
    );
    assert_eq!(cache.stats().parts_in_bin, 7);
}
