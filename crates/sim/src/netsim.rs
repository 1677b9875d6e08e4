//! Simulated network mirror: the unavoidable-dropout floor.
//!
//! `djstar_core::net::NetFaultPlan` draws are pure functions of
//! `(seed, cycle, stream)`, so the simulator can replay a trace
//! clairvoyantly — it knows every packet's fate the moment it is sent.
//! [`lost_packets`] counts the packets no copy of which ever arrives: no
//! buffer at any depth recovers them, so this is the floor every
//! strategy's concealment count is gated against.

use djstar_core::net::NetFaultPlan;

/// Packets of `stream` sent in `0..cycles` that are outright lost — no
/// copy arrives at any depth. The unavoidable-dropout lower bound.
pub fn lost_packets(plan: &NetFaultPlan, stream: u32, cycles: u64) -> usize {
    (0..cycles).filter(|&c| plan.lost(c, stream)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_deterministic_and_per_stream() {
        assert_eq!(lost_packets(&NetFaultPlan::quiet(9), 0, 500), 0);
        let plan = NetFaultPlan {
            loss_rate: 0.05,
            ..NetFaultPlan::quiet(0xE17)
        };
        let floor = lost_packets(&plan, 2, 2000);
        assert!(floor > 0, "5% loss over 2000 cycles must lose packets");
        assert_eq!(floor, lost_packets(&plan, 2, 2000));
        // Streams draw independently; two agreeing exactly would be a
        // seed bug.
        assert_ne!(floor, lost_packets(&plan, 3, 2000));
    }
}
