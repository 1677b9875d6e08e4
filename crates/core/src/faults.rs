//! Seeded fault injection for the executors.
//!
//! The paper's Table 1 numbers assume a quiet machine. A real DJ rig sees
//! CPU contention, cache-cold cycles and pathological node spikes; to test
//! how the schedulers (and the engine's degradation policy) behave under
//! such conditions *deterministically*, this module injects three fault
//! classes into the node-execution path of every executor:
//!
//! * **node duration spikes** — a per-`(cycle, node)` Bernoulli draw adds
//!   `spike_iters` calibration-kernel iterations to that node's execution,
//! * **worker stalls** — a per-`(cycle, lane)` draw over a *fixed* number
//!   of virtual lanes charges `stall_iters` to the worker `lane % threads`
//!   at the start of its cycle part, modeling preemption of one OS thread,
//! * **pressure episodes** — a deterministic square wave
//!   (`pressure_period`/`pressure_len`) adds `pressure_iters` to *every*
//!   node while high, modeling sustained external CPU load.
//!
//! Every decision is a pure function of `(seed, cycle, node-or-lane)`
//! hashed through SplitMix64 ([`SmallRng`]) — no state, no allocation, no
//! new dependencies. Two consequences the tests rely on:
//!
//! 1. **strategy independence** — which worker executes a node never
//!    changes what is injected into it, and the lane→worker folding keeps
//!    stall *totals* identical across thread counts, so all six strategies
//!    under the same plan see identical fault schedules; and
//! 2. **audio transparency** — injected work is pure [`burn`] fed into
//!    [`std::hint::black_box`]; it never touches an audio buffer, so
//!    faulted runs stay bit-exact with fault-free runs by construction.
//!
//! Injection sites record `FaultInjected`-class telemetry into the
//! executing worker's [`CycleCounters`] (`fault_spikes`, `fault_stalls`,
//! …), which the driver drains into the telemetry ring like every other
//! counter. A `None` plan is never consulted: the hook in each executor is
//! a single `Option` test per cycle part, so the disabled path stays
//! zero-cost and allocation-free.

use crate::telemetry::CycleCounters;
use djstar_dsp::rng::SmallRng;
use djstar_dsp::work::burn;

/// Domain-separation salts so the three fault classes draw from
/// independent streams of the same seed.
const SALT_SPIKE: u64 = 0x5350_494B_4553; // "SPIKES"
const SALT_STALL: u64 = 0x5354_414C_4C53; // "STALLS"

/// A seeded, immutable fault-injection plan.
///
/// All fields are plain data so harnesses can describe scenarios without
/// depending on executor internals; [`FaultPlan::quiet`] is the zero-rate
/// plan used to measure the cost of the hook itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every Bernoulli draw.
    pub seed: u64,
    /// Probability a given node spikes in a given cycle.
    pub spike_rate: f64,
    /// Kernel iterations a spike adds to the node's execution.
    pub spike_iters: u32,
    /// Virtual stall lanes. Fixed in the plan (not the thread count) so
    /// the stall schedule is identical for every executor configuration;
    /// lane `l` is absorbed by worker `l % threads`.
    pub stall_lanes: u32,
    /// Probability a given lane stalls in a given cycle.
    pub stall_rate: f64,
    /// Kernel iterations one stall costs its worker.
    pub stall_iters: u32,
    /// Cycle period of the pressure square wave (`0` disables pressure).
    pub pressure_period: u64,
    /// Leading cycles of each period under pressure.
    pub pressure_len: u64,
    /// Kernel iterations pressure adds to every node while high.
    pub pressure_iters: u32,
}

impl FaultPlan {
    /// A plan that never injects anything: the hook runs, the draws all
    /// miss. Used to measure the overhead of the enabled-but-idle path.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_rate: 0.0,
            spike_iters: 0,
            stall_lanes: 0,
            stall_rate: 0.0,
            stall_iters: 0,
            pressure_period: 0,
            pressure_len: 0,
            pressure_iters: 0,
        }
    }

    /// The calibrated fault storm of E14: occasional node spikes, a few
    /// preempted lanes, and a sustained pressure wave that is high for
    /// half of each period — long enough that a degradation governor with
    /// a multi-cycle window must engage, with quiet stretches long enough
    /// for it to restore. The `*_iters` fields carry placeholder weights;
    /// callers rescale them against the measured kernel cost and deadline
    /// headroom (see [`FaultPlan::with_iters`]).
    pub fn storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_rate: 0.02,
            spike_iters: 1,
            stall_lanes: 4,
            stall_rate: 0.1,
            stall_iters: 1,
            pressure_period: 400,
            pressure_len: 200,
            pressure_iters: 1,
        }
    }

    /// The same plan with calibrated iteration weights.
    pub fn with_iters(self, spike: u32, stall: u32, pressure: u32) -> Self {
        FaultPlan {
            spike_iters: spike,
            stall_iters: stall,
            pressure_iters: pressure,
            ..self
        }
    }

    /// True when no draw can ever fire.
    pub fn is_quiet(&self) -> bool {
        (self.spike_rate <= 0.0 || self.spike_iters == 0)
            && (self.stall_lanes == 0 || self.stall_rate <= 0.0 || self.stall_iters == 0)
            && (self.pressure_period == 0 || self.pressure_len == 0 || self.pressure_iters == 0)
    }

    /// One stateless SplitMix64 draw for `(salt, a, b)`, mapped to `[0,1)`.
    #[inline]
    fn draw(&self, salt: u64, a: u64, b: u64) -> f64 {
        // Distinct odd multipliers keep (a, b) pairs from colliding under
        // xor; the SplitMix64 output mix does the rest.
        let key = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E6D_62D0_6F6A_9A9B))
            .wrapping_add(a.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(b.wrapping_mul(0xA076_1D64_78BD_642F));
        let h = SmallRng::seed_from_u64(key).next_u64();
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Kernel iterations the spike draw adds to `node` in `cycle`.
    #[inline]
    pub fn spike_iters_for(&self, cycle: u64, node: u32) -> u32 {
        if self.spike_iters == 0 || self.spike_rate <= 0.0 {
            return 0;
        }
        if self.draw(SALT_SPIKE, cycle, node as u64) < self.spike_rate {
            self.spike_iters
        } else {
            0
        }
    }

    /// True while the pressure square wave is high in `cycle`.
    #[inline]
    pub fn pressure_active(&self, cycle: u64) -> bool {
        self.pressure_period != 0
            && self.pressure_iters != 0
            && cycle % self.pressure_period < self.pressure_len
    }

    /// Kernel iterations pressure adds to every node in `cycle`.
    #[inline]
    pub fn pressure_iters_for(&self, cycle: u64) -> u32 {
        if self.pressure_active(cycle) {
            self.pressure_iters
        } else {
            0
        }
    }

    /// Kernel iterations the stall draw charges `lane` in `cycle`.
    #[inline]
    pub fn stall_iters_for(&self, cycle: u64, lane: u32) -> u32 {
        if lane >= self.stall_lanes || self.stall_iters == 0 || self.stall_rate <= 0.0 {
            return 0;
        }
        if self.draw(SALT_STALL, cycle, lane as u64) < self.stall_rate {
            self.stall_iters
        } else {
            0
        }
    }

    /// Burn the faults scheduled for `node` in `cycle` and record them
    /// into `counters`. Called by whichever worker owns the node this
    /// cycle, inside its timed execution window, so a spike shows up as a
    /// longer `exec_ns` — exactly what a slow node looks like.
    ///
    /// The injected work never touches audio buffers, so output remains
    /// bit-exact with a fault-free run.
    ///
    /// Returns the kernel iterations burned (0 when nothing fired), so
    /// flight-recording executors can split the injected interval into a
    /// `Fault` span without re-deriving the draw.
    #[inline]
    pub fn inject_node(&self, cycle: u64, node: u32, counters: &CycleCounters) -> u64 {
        let spike = self.spike_iters_for(cycle, node);
        let pressure = self.pressure_iters_for(cycle);
        if spike == 0 && pressure == 0 {
            return 0;
        }
        // Seed varies per (cycle, node) so the kernel cannot be hoisted.
        let seed = 0.25 + 0.5 * ((cycle as u32 ^ node) % 127) as f32 / 127.0;
        std::hint::black_box(burn(spike + pressure, seed));
        if spike > 0 {
            counters.add_fault_spike(spike as u64);
        }
        if pressure > 0 {
            counters.add_fault_pressure(pressure as u64);
        }
        (spike + pressure) as u64
    }

    /// Burn worker `me`'s share of the cycle's stall lanes (lane `l` maps
    /// to worker `l % threads`) and record them. Called once per worker at
    /// the start of its cycle part. Folding fixed lanes onto however many
    /// real workers exist keeps the per-cycle stall *total* — and hence
    /// the telemetry event counts — identical across strategies and
    /// thread counts (a sequential run absorbs every lane on its only
    /// worker).
    ///
    /// Returns the total kernel iterations burned on this worker (0 when
    /// no lane fired), for the same flight-recording purpose as
    /// [`inject_node`](Self::inject_node).
    #[inline]
    pub fn inject_stalls(
        &self,
        cycle: u64,
        me: usize,
        threads: usize,
        counters: &CycleCounters,
    ) -> u64 {
        if self.stall_lanes == 0 || self.stall_iters == 0 || self.stall_rate <= 0.0 {
            return 0;
        }
        let mut burned = 0u64;
        let mut lane = me as u32;
        while lane < self.stall_lanes {
            let iters = self.stall_iters_for(cycle, lane);
            if iters > 0 {
                let seed = 0.25 + 0.5 * ((cycle as u32 ^ lane) % 113) as f32 / 113.0;
                std::hint::black_box(burn(iters, seed));
                counters.add_fault_stall(iters as u64);
                burned += iters as u64;
            }
            lane += threads as u32;
        }
        burned
    }

    /// Total kernel iterations the plan injects into `cycle` across all
    /// nodes and lanes of a `nodes`-node graph. Pure arithmetic over the
    /// schedule — the simulator and the tests use it as the ground truth
    /// the executors' telemetry must match.
    pub fn cycle_injection_iters(&self, cycle: u64, nodes: usize) -> u64 {
        let mut total = 0u64;
        for node in 0..nodes as u32 {
            total += self.spike_iters_for(cycle, node) as u64;
            total += self.pressure_iters_for(cycle) as u64;
        }
        for lane in 0..self.stall_lanes {
            total += self.stall_iters_for(cycle, lane) as u64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 0xE14,
            spike_rate: 0.05,
            spike_iters: 700,
            stall_lanes: 6,
            stall_rate: 0.2,
            stall_iters: 900,
            pressure_period: 40,
            pressure_len: 15,
            pressure_iters: 300,
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = storm();
        let b = storm();
        for cycle in 0..500u64 {
            for node in 0..67u32 {
                assert_eq!(
                    a.spike_iters_for(cycle, node),
                    b.spike_iters_for(cycle, node)
                );
            }
            for lane in 0..6u32 {
                assert_eq!(
                    a.stall_iters_for(cycle, lane),
                    b.stall_iters_for(cycle, lane)
                );
            }
            assert_eq!(a.pressure_iters_for(cycle), b.pressure_iters_for(cycle));
        }
        let other = FaultPlan { seed: 1, ..storm() };
        let same: usize = (0..500u64)
            .map(|c| {
                (0..67u32)
                    .filter(|&n| a.spike_iters_for(c, n) == other.spike_iters_for(c, n))
                    .count()
            })
            .sum();
        assert!(same < 500 * 67, "different seeds must differ somewhere");
    }

    #[test]
    fn spike_rate_is_roughly_honored() {
        let plan = storm();
        let hits: usize = (0..2_000u64)
            .map(|c| {
                (0..67u32)
                    .filter(|&n| plan.spike_iters_for(c, n) > 0)
                    .count()
            })
            .sum();
        let rate = hits as f64 / (2_000.0 * 67.0);
        assert!((rate - 0.05).abs() < 0.01, "observed spike rate {rate}");
    }

    #[test]
    fn stall_totals_are_thread_count_invariant() {
        // Summing each worker's folded lanes must reproduce the per-lane
        // schedule no matter how many workers share it.
        let plan = storm();
        for cycle in 0..200u64 {
            let per_lane: u64 = (0..plan.stall_lanes)
                .map(|l| plan.stall_iters_for(cycle, l) as u64)
                .sum();
            for threads in 1..=8usize {
                let folded: u64 = (0..threads)
                    .map(|me| {
                        let mut sum = 0u64;
                        let mut lane = me as u32;
                        while lane < plan.stall_lanes {
                            sum += plan.stall_iters_for(cycle, lane) as u64;
                            lane += threads as u32;
                        }
                        sum
                    })
                    .sum();
                assert_eq!(folded, per_lane, "cycle {cycle}, {threads} threads");
            }
        }
    }

    #[test]
    fn pressure_wave_follows_period_and_len() {
        let plan = storm();
        for cycle in 0..200u64 {
            assert_eq!(
                plan.pressure_active(cycle),
                cycle % 40 < 15,
                "cycle {cycle}"
            );
        }
        assert!(!FaultPlan::quiet(9).pressure_active(0));
    }

    #[test]
    fn quiet_plan_never_fires_and_records_nothing() {
        let plan = FaultPlan::quiet(123);
        assert!(plan.is_quiet());
        assert!(!storm().is_quiet());
        let counters = CycleCounters::default();
        for cycle in 0..100u64 {
            assert_eq!(plan.cycle_injection_iters(cycle, 67), 0);
            for node in 0..67u32 {
                plan.inject_node(cycle, node, &counters);
            }
            plan.inject_stalls(cycle, 0, 1, &counters);
        }
        let mut snap = crate::telemetry::CounterSnapshot::default();
        counters.drain_into(&mut snap);
        assert_eq!(snap.fault_spikes, 0);
        assert_eq!(snap.fault_spike_iters, 0);
        assert_eq!(snap.fault_stalls, 0);
        assert_eq!(snap.fault_stall_iters, 0);
        assert_eq!(snap.fault_pressure_iters, 0);
    }

    #[test]
    fn injection_helpers_record_the_scheduled_totals() {
        let plan = storm();
        let counters = CycleCounters::default();
        let cycles = 120u64;
        let nodes = 31u32;
        let mut expect = 0u64;
        for cycle in 0..cycles {
            for node in 0..nodes {
                plan.inject_node(cycle, node, &counters);
            }
            // Split the lanes over three simulated workers.
            for me in 0..3 {
                plan.inject_stalls(cycle, me, 3, &counters);
            }
            expect += plan.cycle_injection_iters(cycle, nodes as usize);
        }
        let mut snap = crate::telemetry::CounterSnapshot::default();
        counters.drain_into(&mut snap);
        assert!(snap.fault_spikes > 0);
        assert!(snap.fault_stalls > 0);
        assert_eq!(
            snap.fault_spike_iters + snap.fault_stall_iters + snap.fault_pressure_iters,
            expect
        );
    }

    #[test]
    fn quiet_is_quiet_and_storm_is_not() {
        assert!(FaultPlan::quiet(7).is_quiet());
        assert!(!FaultPlan::storm(7).with_iters(10, 10, 10).is_quiet());
        // A storm with zeroed weights degenerates to quiet.
        assert!(FaultPlan::storm(7).with_iters(0, 0, 0).is_quiet());
    }

    #[test]
    fn presets_are_pure_functions_of_the_seed() {
        assert_eq!(FaultPlan::storm(3), FaultPlan::storm(3));
        assert_ne!(FaultPlan::storm(3).seed, FaultPlan::storm(4).seed);
    }

    #[test]
    fn with_iters_only_touches_the_weights() {
        let base = FaultPlan::storm(11);
        let scaled = base.with_iters(100, 200, 300);
        assert_eq!(scaled.spike_iters, 100);
        assert_eq!(scaled.stall_iters, 200);
        assert_eq!(scaled.pressure_iters, 300);
        assert_eq!(scaled.seed, base.seed);
        assert_eq!(scaled.spike_rate, base.spike_rate);
        assert_eq!(scaled.pressure_period, base.pressure_period);
    }
}
