//! Proof that the telemetry hot path allocates nothing.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after
//! warm-up, running telemetry-enabled cycles on every strategy — also
//! with the flight recorder, the executors' one span capture, armed —
//! must not allocate on the *driver* thread or any worker: the ring, the
//! span rings and all counter storage are preallocated, and recording
//! only overwrites slots in place. The graph's sources are a sibling
//! group, so the SEQ rows run a batched cycle: its staging is on the
//! stack.
//!
//! This lives in its own integration test binary because a global
//! allocator is process-wide; the single test keeps the count
//! interpretable (the default test harness is multi-threaded, so any
//! sibling test's allocations would pollute the window).

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

use djstar_core::exec::{PoolExecutor, StagedGeneration, Strategy};
use djstar_core::faults::FaultPlan;
use djstar_core::flight::FlightConfig;
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, FnProcessor, Processor, Sibling};
use djstar_dsp::AudioBuf;

/// A source that fills its output with its level, alone or for its whole
/// sibling group in one batch call.
struct Level(f32);

impl Processor for Level {
    fn process(&mut self, _: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>) {
        out.samples_mut().fill(self.0);
    }

    fn process_batch(
        &mut self,
        out: &mut AudioBuf,
        siblings: &mut [Sibling<'_>],
        inputs: &[&AudioBuf],
        ctx: &CycleCtx<'_>,
    ) -> bool {
        self.process(inputs, out, ctx);
        for s in siblings {
            s.processor.process(inputs, s.output, ctx);
        }
        true
    }
}

/// A diamond-ish graph with enough nodes to exercise waiting paths; its
/// four sources are a sibling group, which SEQ runs as one batch.
fn graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let mut layer: Vec<NodeId> = Vec::new();
    let mut prev: Vec<NodeId> = Vec::new();
    for depth in 0..6 {
        layer.clear();
        for i in 0..4usize {
            let preds: Vec<NodeId> = if depth == 0 {
                vec![]
            } else if i == 0 {
                prev.clone()
            } else {
                vec![prev[i]]
            };
            let processor: Box<dyn Processor> = if depth == 0 {
                Box::new(Level(1.0 + i as f32))
            } else {
                Box::new(FnProcessor(
                    |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                        let base = inp.iter().map(|b| b.sample(0, 0)).sum::<f32>();
                        out.samples_mut().fill(base + 1.0);
                    },
                ))
            };
            layer.push(b.add(format!("d{depth}n{i}"), Section::deck(i), processor, &preds));
        }
        if depth == 0 {
            b.group(&layer);
        }
        prev = layer.clone();
    }
    b.build().unwrap()
}

#[test]
fn telemetry_cycles_do_not_allocate() {
    const FRAMES: usize = 8;
    const THREADS: usize = 3;
    for strategy in Strategy::ALL {
        let label = strategy.label();
        let staged = StagedGeneration::round_robin(graph(), FRAMES, THREADS);
        let mut exec = PoolExecutor::new(strategy, staged, THREADS).expect("a filled generation");
        exec.set_telemetry(true);
        let mut cycles_run = 0u64;
        // Warm up: first telemetry-on cycles may lazily settle thread
        // stacks, parker state, etc.
        for _ in 0..20 {
            exec.run_cycle(&[], &[]);
            cycles_run += 1;
        }
        // Count allocations across a 50-cycle window. A genuine hot-path
        // allocation repeats every window, so re-measuring once filters
        // the rare one-shot lazy initialization std performs under
        // memory pressure without weakening the per-cycle claim.
        let measure = |exec: &mut PoolExecutor, cycles_run: &mut u64| -> u64 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..50 {
                exec.run_cycle(&[], &[]);
                *cycles_run += 1;
            }
            ALLOCATIONS.load(Ordering::SeqCst) - before
        };
        let mut allocs = measure(&mut exec, &mut cycles_run);
        if allocs > 0 {
            allocs = measure(&mut exec, &mut cycles_run);
        }
        assert_eq!(
            allocs, 0,
            "{label}: telemetry-on cycles allocated {allocs} times"
        );
        // The planar buffer arena shares the hot path: every node's
        // output is a view into one per-graph allocation made at build
        // time, so cycles interleaved with output reads into preallocated
        // sinks (both matching and mismatching layouts, which take the
        // copy and the clear + mix_add paths) must also allocate nothing.
        let mut stereo_sink = AudioBuf::zeroed(2, FRAMES);
        let mut mono_sink = AudioBuf::zeroed(1, FRAMES);
        let measure_reads = |exec: &mut PoolExecutor,
                             cycles_run: &mut u64,
                             stereo: &mut AudioBuf,
                             mono: &mut AudioBuf|
         -> u64 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..50 {
                exec.run_cycle(&[], &[]);
                *cycles_run += 1;
                exec.read_output(NodeId(23), stereo);
                exec.read_output(NodeId(0), mono);
            }
            ALLOCATIONS.load(Ordering::SeqCst) - before
        };
        let mut allocs =
            measure_reads(&mut exec, &mut cycles_run, &mut stereo_sink, &mut mono_sink);
        if allocs > 0 {
            allocs = measure_reads(&mut exec, &mut cycles_run, &mut stereo_sink, &mut mono_sink);
        }
        assert_eq!(
            allocs, 0,
            "{label}: arena output reads allocated {allocs} times"
        );
        assert!(
            stereo_sink.samples().iter().any(|&s| s != 0.0),
            "{label}: arena read produced silence"
        );
        // Fault injection shares the hot path: cycles with a firing storm
        // plan and with an enabled-but-idle quiet plan must also allocate
        // nothing — the plan is plain `Copy` data and every draw is
        // stateless arithmetic.
        let storm = FaultPlan {
            seed: 0xA110C,
            spike_rate: 0.1,
            spike_iters: 40,
            stall_lanes: 4,
            stall_rate: 0.25,
            stall_iters: 60,
            pressure_period: 8,
            pressure_len: 3,
            pressure_iters: 20,
        };
        for (phase, plan) in [("storm", storm), ("quiet", FaultPlan::quiet(7))] {
            exec.set_faults(Some(plan));
            exec.run_cycle(&[], &[]);
            cycles_run += 1;
            let mut allocs = measure(&mut exec, &mut cycles_run);
            if allocs > 0 {
                allocs = measure(&mut exec, &mut cycles_run);
            }
            assert_eq!(
                allocs, 0,
                "{label}/{phase}: faulted cycles allocated {allocs} times"
            );
        }
        exec.set_faults(None);
        // Cost learning shares the hot path: every node's time goes into
        // its preallocated histogram, on the lane that ran it.
        exec.set_learning(true);
        let mut allocs = measure(&mut exec, &mut cycles_run);
        if allocs > 0 {
            allocs = measure(&mut exec, &mut cycles_run);
        }
        assert_eq!(
            allocs, 0,
            "{label}: learning cycles allocated {allocs} times"
        );
        exec.set_learning(false);
        let learned = exec.learned_quantiles(0.5);
        assert!(
            learned.iter().all(Option::is_some),
            "{label}: a node learned nothing: {learned:?}"
        );
        // The flight recorder shares the hot path: with a deliberately
        // tiny window the span lanes *wrap* during the measured cycles,
        // so both the record and the overwrite-oldest path must run
        // allocation-free.
        exec.set_flight_recorder(Some(FlightConfig {
            spans_per_worker: 256,
            cycles: 16,
            session: 0,
        }));
        exec.run_cycle(&[], &[]);
        cycles_run += 1;
        let mut allocs = measure(&mut exec, &mut cycles_run);
        if allocs > 0 {
            allocs = measure(&mut exec, &mut cycles_run);
        }
        assert_eq!(
            allocs, 0,
            "{label}: recorder-on cycles allocated {allocs} times"
        );
        let window = exec.take_flight_window().expect("recorder installed");
        assert!(!window.is_empty(), "{label}: recorder captured nothing");
        assert!(
            window.dropped_spans > 0,
            "{label}: the tiny ring never wrapped, the overwrite path went untested"
        );
        exec.set_flight_recorder(None);
        // The ring still has every record (nothing was traded for the
        // zero-alloc property).
        let ring = exec.take_telemetry().unwrap();
        assert_eq!(ring.len(), cycles_run as usize, "{label}");
    }
}
