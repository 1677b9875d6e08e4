//! Network-scenario presets: the workload half of the networked-decks
//! experiment (E17).
//!
//! A [`NetSpec`] is plain data describing a seeded packet-fault scenario
//! for remote deck streams and the broadcast downlink — loss, jitter,
//! reordering, duplication, jitter bursts and listener stalls — without
//! depending on executor internals (the engine converts a spec into
//! `djstar-core`'s `NetFaultPlan`). Every preset is a pure function of its
//! seed, so a scenario names a replayable network trace, not a dice roll.

/// A seeded network scenario, engine-agnostic plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSpec {
    /// Seed for every per-packet draw.
    pub seed: u64,
    /// Which decks stream over the network instead of playing locally.
    pub remote_decks: [bool; 4],
    /// Simulated broadcast listeners fed from the master bus (0 = none).
    pub listeners: u32,
    /// Minimum transit delay of every packet, in cycles.
    pub base_delay: u32,
    /// Max extra delay cycles under quiet conditions (uniform draw).
    pub jitter: u32,
    /// Probability a packet is lost outright.
    pub loss_rate: f64,
    /// Probability a packet is duplicated.
    pub dup_rate: f64,
    /// Cycles the duplicate trails the original by.
    pub dup_delay: u32,
    /// Probability a packet is held back behind its successors.
    pub reorder_rate: f64,
    /// Extra delay a reordered packet picks up.
    pub reorder_extra: u32,
    /// Cycle period of the jitter-burst square wave (`0` disables bursts).
    pub burst_period: u64,
    /// Leading cycles of each period under burst jitter.
    pub burst_len: u64,
    /// Extra max jitter while a burst is high.
    pub burst_jitter: u32,
    /// Probability a broadcast listener's drain stalls in a given cycle.
    pub listener_stall_rate: f64,
    /// Smallest jitter-buffer playout depth (cycles of added latency):
    /// the buffers' clamp and the floor of the engine's network governor.
    pub min_depth: u32,
    /// Largest jitter-buffer playout depth: the buffers' clamp and the
    /// governor's ceiling.
    pub max_depth: u32,
    /// Initial playout depth.
    pub start_depth: u32,
}

impl Default for NetSpec {
    /// No networking at all: every deck is local, no listeners.
    fn default() -> Self {
        NetSpec {
            seed: 0,
            remote_decks: [false; 4],
            listeners: 0,
            base_delay: 0,
            jitter: 0,
            loss_rate: 0.0,
            dup_rate: 0.0,
            dup_delay: 1,
            reorder_rate: 0.0,
            reorder_extra: 0,
            burst_period: 0,
            burst_len: 0,
            burst_jitter: 0,
            listener_stall_rate: 0.0,
            min_depth: 1,
            max_depth: 12,
            start_depth: 1,
        }
    }
}

impl NetSpec {
    /// Decks A and B remote over a clean network, a handful of listeners:
    /// measures the cost of the reception machinery itself.
    pub fn clean(seed: u64) -> Self {
        NetSpec {
            seed,
            remote_decks: [true, true, false, false],
            listeners: 4,
            ..Default::default()
        }
    }

    /// Steady random loss and mild jitter — the baseline degraded link.
    pub fn lossy(seed: u64) -> Self {
        NetSpec {
            seed,
            remote_decks: [true, true, false, false],
            listeners: 4,
            base_delay: 1,
            jitter: 2,
            loss_rate: 0.02,
            dup_rate: 0.01,
            reorder_rate: 0.02,
            reorder_extra: 3,
            listener_stall_rate: 0.05,
            start_depth: 2,
            ..Default::default()
        }
    }

    /// Bursty jitter on top of a lossy link: long quiet stretches with
    /// periodic delay storms. This is the scenario where the engine's
    /// network governor wins — a fixed buffer must either ride deep
    /// forever (latency) or conceal through every burst (dropouts).
    pub fn bursty(seed: u64) -> Self {
        NetSpec {
            burst_period: 256,
            burst_len: 64,
            burst_jitter: 8,
            ..Self::lossy(seed)
        }
    }

    /// True when no draw can ever perturb a packet or listener.
    pub fn is_quiet(&self) -> bool {
        self.jitter == 0
            && self.loss_rate <= 0.0
            && self.dup_rate <= 0.0
            && (self.reorder_rate <= 0.0 || self.reorder_extra == 0)
            && (self.burst_period == 0 || self.burst_len == 0 || self.burst_jitter == 0)
            && self.listener_stall_rate <= 0.0
    }

    /// True when the spec adds no network machinery to the graph at all.
    pub fn is_disabled(&self) -> bool {
        self.remote_decks.iter().all(|&r| !r) && self.listeners == 0
    }

    /// The same scenario pinned to a fixed playout depth — the
    /// fixed-depth arms of the E17 latency/dropout sweep.
    pub fn with_fixed_depth(self, depth: u32) -> Self {
        NetSpec {
            min_depth: depth,
            max_depth: depth,
            start_depth: depth,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_quiet() {
        let s = NetSpec::default();
        assert!(s.is_disabled());
        assert!(s.is_quiet());
    }

    #[test]
    fn clean_is_enabled_but_quiet() {
        let s = NetSpec::clean(9);
        assert!(!s.is_disabled());
        assert!(s.is_quiet());
        assert_eq!(s.listeners, 4);
    }

    #[test]
    fn presets_are_pure_functions_of_the_seed() {
        assert_eq!(NetSpec::bursty(3), NetSpec::bursty(3));
        assert_ne!(NetSpec::bursty(3).seed, NetSpec::bursty(4).seed);
        assert!(!NetSpec::lossy(3).is_quiet());
    }

    #[test]
    fn depth_helpers_pin_and_widen() {
        let fixed = NetSpec::bursty(1).with_fixed_depth(6);
        assert_eq!(
            (fixed.min_depth, fixed.max_depth, fixed.start_depth),
            (6, 6, 6)
        );
        // Only the depth fields move.
        assert_eq!(
            fixed,
            NetSpec {
                min_depth: 6,
                max_depth: 6,
                start_depth: 6,
                ..NetSpec::bursty(1)
            }
        );
    }
}
