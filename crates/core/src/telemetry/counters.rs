//! Per-worker cycle counters: padded atomics recorded on the hot path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One worker's scheduling counters for the current cycle.
///
/// Padded to two cache lines so adjacent workers' counters never share a
/// line (the whole point is that recording must not perturb the schedule
/// being measured). All updates are `Relaxed`: the counters carry no
/// synchronization of their own — the executors' cycle-completion barriers
/// order every update before the driver's drain.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CycleCounters {
    /// Dependency-poll iterations while busy-waiting (BUSY, HYBRID).
    spin_iters: AtomicU64,
    /// Nanoseconds spent busy-waiting.
    busy_wait_ns: AtomicU64,
    /// `park()` calls while waiting for dependencies (SLEEP, HYBRID, WS).
    park_count: AtomicU64,
    /// Wake-ups this worker issued to parked peers.
    unpark_count: AtomicU64,
    /// Nanoseconds spent in park-based waits (register → ready).
    park_wait_ns: AtomicU64,
    /// Steal sweeps attempted (WS).
    steal_attempts: AtomicU64,
    /// Steal sweeps that yielded a node.
    steal_hits: AtomicU64,
    /// Steal sweeps that found every victim empty.
    steal_misses: AtomicU64,
    /// High-water mark of this worker's ready deque (WS).
    deque_high_water: AtomicU64,
    /// Nodes this worker executed.
    nodes_executed: AtomicU64,
    /// Nanoseconds spent executing nodes.
    exec_ns: AtomicU64,
    /// Injected node-duration spikes (`FaultInjected` events).
    fault_spikes: AtomicU64,
    /// Kernel iterations injected by spikes.
    fault_spike_iters: AtomicU64,
    /// Injected worker stalls (`FaultInjected` events).
    fault_stalls: AtomicU64,
    /// Kernel iterations injected by stalls.
    fault_stall_iters: AtomicU64,
    /// Kernel iterations injected by pressure episodes.
    fault_pressure_iters: AtomicU64,
    /// Remote-stream packets the trace lost outright.
    net_packets_lost: AtomicU64,
    /// Packets that arrived behind the playout head (too late to play).
    net_packets_late: AtomicU64,
    /// Duplicate packet arrivals discarded by the jitter buffer.
    net_packets_dup: AtomicU64,
    /// Frames concealed at playout (the audible dropout count).
    net_frames_concealed: AtomicU64,
    /// Jitter-buffer depth changes applied (latency/dropout trades).
    net_depth_changes: AtomicU64,
    /// Nanoseconds spent receiving packets into the jitter buffer.
    net_wait_ns: AtomicU64,
    /// Nanoseconds spent synthesizing concealment frames.
    net_conceal_ns: AtomicU64,
    /// Broadcast packets dropped by per-listener backpressure.
    broadcast_drops: AtomicU64,
}

impl CycleCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a busy-wait: `iters` polls over `ns` nanoseconds.
    #[inline]
    pub fn add_spin(&self, iters: u64, ns: u64) {
        self.spin_iters.fetch_add(iters, Relaxed);
        self.busy_wait_ns.fetch_add(ns, Relaxed);
    }

    /// Record a park-based wait: `parks` actual `park()` calls (0 when the
    /// dependency arrived between registration and parking) over `ns`
    /// nanoseconds of waiting.
    #[inline]
    pub fn add_park(&self, parks: u64, ns: u64) {
        self.park_count.fetch_add(parks, Relaxed);
        self.park_wait_ns.fetch_add(ns, Relaxed);
    }

    /// Record one wake-up issued to a parked peer.
    #[inline]
    pub fn add_unpark(&self) {
        self.unpark_count.fetch_add(1, Relaxed);
    }

    /// Record one steal sweep and its outcome.
    #[inline]
    pub fn add_steal(&self, hit: bool) {
        self.steal_attempts.fetch_add(1, Relaxed);
        if hit {
            self.steal_hits.fetch_add(1, Relaxed);
        } else {
            self.steal_misses.fetch_add(1, Relaxed);
        }
    }

    /// Record the current ready-deque depth (keeps the maximum).
    #[inline]
    pub fn note_deque_depth(&self, depth: u64) {
        self.deque_high_water.fetch_max(depth, Relaxed);
    }

    /// Record one node execution taking `ns` nanoseconds.
    #[inline]
    pub fn add_exec(&self, ns: u64) {
        self.nodes_executed.fetch_add(1, Relaxed);
        self.exec_ns.fetch_add(ns, Relaxed);
    }

    /// Record one injected node-duration spike of `iters` kernel
    /// iterations (recorded by the worker that executed the node).
    #[inline]
    pub fn add_fault_spike(&self, iters: u64) {
        self.fault_spikes.fetch_add(1, Relaxed);
        self.fault_spike_iters.fetch_add(iters, Relaxed);
    }

    /// Record one injected worker stall of `iters` kernel iterations.
    #[inline]
    pub fn add_fault_stall(&self, iters: u64) {
        self.fault_stalls.fetch_add(1, Relaxed);
        self.fault_stall_iters.fetch_add(iters, Relaxed);
    }

    /// Record `iters` kernel iterations of injected pressure load.
    #[inline]
    pub fn add_fault_pressure(&self, iters: u64) {
        self.fault_pressure_iters.fetch_add(iters, Relaxed);
    }

    /// Record one cycle of jitter-buffer reception telemetry: packet
    /// events observed by the pushes plus the playout outcome. Called by
    /// the worker that executed the net source node, inside its timed
    /// execution window.
    #[inline]
    pub fn add_net_cycle(
        &self,
        lost: u64,
        late: u64,
        dup: u64,
        concealed: u64,
        depth_changes: u64,
    ) {
        if lost > 0 {
            self.net_packets_lost.fetch_add(lost, Relaxed);
        }
        if late > 0 {
            self.net_packets_late.fetch_add(late, Relaxed);
        }
        if dup > 0 {
            self.net_packets_dup.fetch_add(dup, Relaxed);
        }
        if concealed > 0 {
            self.net_frames_concealed.fetch_add(concealed, Relaxed);
        }
        if depth_changes > 0 {
            self.net_depth_changes.fetch_add(depth_changes, Relaxed);
        }
    }

    /// Record nanoseconds spent in packet reception (NetWait time).
    #[inline]
    pub fn add_net_wait_ns(&self, ns: u64) {
        self.net_wait_ns.fetch_add(ns, Relaxed);
    }

    /// Record nanoseconds spent synthesizing concealment (Conceal time).
    #[inline]
    pub fn add_net_conceal_ns(&self, ns: u64) {
        self.net_conceal_ns.fetch_add(ns, Relaxed);
    }

    /// Record broadcast packets dropped by listener backpressure.
    #[inline]
    pub fn add_broadcast_drops(&self, drops: u64) {
        self.broadcast_drops.fetch_add(drops, Relaxed);
    }

    /// Snapshot of the (wait, conceal) nanosecond counters without
    /// draining, `Relaxed`. Executors diff this around a node execution to
    /// carve `NetWait`/`Conceal` spans out of the Exec interval.
    #[inline]
    pub fn net_ns(&self) -> (u64, u64) {
        (
            self.net_wait_ns.load(Relaxed),
            self.net_conceal_ns.load(Relaxed),
        )
    }

    /// Move the current values into `out` and reset every counter to zero.
    /// Driver only, after the cycle-completion barrier.
    pub fn drain_into(&self, out: &mut CounterSnapshot) {
        out.spin_iters = self.spin_iters.swap(0, Relaxed);
        out.busy_wait_ns = self.busy_wait_ns.swap(0, Relaxed);
        out.park_count = self.park_count.swap(0, Relaxed);
        out.unpark_count = self.unpark_count.swap(0, Relaxed);
        out.park_wait_ns = self.park_wait_ns.swap(0, Relaxed);
        out.steal_attempts = self.steal_attempts.swap(0, Relaxed);
        out.steal_hits = self.steal_hits.swap(0, Relaxed);
        out.steal_misses = self.steal_misses.swap(0, Relaxed);
        out.deque_high_water = self.deque_high_water.swap(0, Relaxed);
        out.nodes_executed = self.nodes_executed.swap(0, Relaxed);
        out.exec_ns = self.exec_ns.swap(0, Relaxed);
        out.fault_spikes = self.fault_spikes.swap(0, Relaxed);
        out.fault_spike_iters = self.fault_spike_iters.swap(0, Relaxed);
        out.fault_stalls = self.fault_stalls.swap(0, Relaxed);
        out.fault_stall_iters = self.fault_stall_iters.swap(0, Relaxed);
        out.fault_pressure_iters = self.fault_pressure_iters.swap(0, Relaxed);
        out.net_packets_lost = self.net_packets_lost.swap(0, Relaxed);
        out.net_packets_late = self.net_packets_late.swap(0, Relaxed);
        out.net_packets_dup = self.net_packets_dup.swap(0, Relaxed);
        out.net_frames_concealed = self.net_frames_concealed.swap(0, Relaxed);
        out.net_depth_changes = self.net_depth_changes.swap(0, Relaxed);
        out.net_wait_ns = self.net_wait_ns.swap(0, Relaxed);
        out.net_conceal_ns = self.net_conceal_ns.swap(0, Relaxed);
        out.broadcast_drops = self.broadcast_drops.swap(0, Relaxed);
    }
}

/// A plain-value snapshot of one worker's counters for one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub spin_iters: u64,
    pub busy_wait_ns: u64,
    pub park_count: u64,
    pub unpark_count: u64,
    pub park_wait_ns: u64,
    pub steal_attempts: u64,
    pub steal_hits: u64,
    pub steal_misses: u64,
    pub deque_high_water: u64,
    pub nodes_executed: u64,
    pub exec_ns: u64,
    pub fault_spikes: u64,
    pub fault_spike_iters: u64,
    pub fault_stalls: u64,
    pub fault_stall_iters: u64,
    pub fault_pressure_iters: u64,
    pub net_packets_lost: u64,
    pub net_packets_late: u64,
    pub net_packets_dup: u64,
    pub net_frames_concealed: u64,
    pub net_depth_changes: u64,
    pub net_wait_ns: u64,
    pub net_conceal_ns: u64,
    pub broadcast_drops: u64,
}

impl CounterSnapshot {
    /// Total time spent waiting (busy or parked), in nanoseconds.
    pub fn wait_ns(&self) -> u64 {
        self.busy_wait_ns + self.park_wait_ns
    }

    /// Total `FaultInjected` events (spikes + stalls) this snapshot saw.
    pub fn fault_events(&self) -> u64 {
        self.fault_spikes + self.fault_stalls
    }

    /// Total kernel iterations injected by any fault class.
    pub fn fault_iters(&self) -> u64 {
        self.fault_spike_iters + self.fault_stall_iters + self.fault_pressure_iters
    }

    /// Total network packet-fault events (lost + late + duplicated).
    pub fn net_packet_events(&self) -> u64 {
        self.net_packets_lost + self.net_packets_late + self.net_packets_dup
    }

    /// Accumulate `other` into `self` (sums everywhere; the deque
    /// high-water mark takes the maximum).
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.spin_iters += other.spin_iters;
        self.busy_wait_ns += other.busy_wait_ns;
        self.park_count += other.park_count;
        self.unpark_count += other.unpark_count;
        self.park_wait_ns += other.park_wait_ns;
        self.steal_attempts += other.steal_attempts;
        self.steal_hits += other.steal_hits;
        self.steal_misses += other.steal_misses;
        self.deque_high_water = self.deque_high_water.max(other.deque_high_water);
        self.nodes_executed += other.nodes_executed;
        self.exec_ns += other.exec_ns;
        self.fault_spikes += other.fault_spikes;
        self.fault_spike_iters += other.fault_spike_iters;
        self.fault_stalls += other.fault_stalls;
        self.fault_stall_iters += other.fault_stall_iters;
        self.fault_pressure_iters += other.fault_pressure_iters;
        self.net_packets_lost += other.net_packets_lost;
        self.net_packets_late += other.net_packets_late;
        self.net_packets_dup += other.net_packets_dup;
        self.net_frames_concealed += other.net_frames_concealed;
        self.net_depth_changes += other.net_depth_changes;
        self.net_wait_ns += other.net_wait_ns;
        self.net_conceal_ns += other.net_conceal_ns;
        self.broadcast_drops += other.broadcast_drops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_drain_to_zero() {
        let c = CycleCounters::new();
        c.add_spin(10, 500);
        c.add_spin(5, 100);
        c.add_park(2, 3_000);
        c.add_unpark();
        c.add_steal(true);
        c.add_steal(false);
        c.add_steal(true);
        c.note_deque_depth(3);
        c.note_deque_depth(7);
        c.note_deque_depth(5);
        c.add_exec(1_000);
        c.add_exec(2_000);
        c.add_fault_spike(700);
        c.add_fault_spike(700);
        c.add_fault_stall(900);
        c.add_fault_pressure(300);
        c.add_net_cycle(4, 3, 2, 5, 1);
        c.add_net_wait_ns(250);
        c.add_net_conceal_ns(750);
        c.add_broadcast_drops(6);
        assert_eq!(c.net_ns(), (250, 750));

        let mut s = CounterSnapshot::default();
        c.drain_into(&mut s);
        assert_eq!(s.spin_iters, 15);
        assert_eq!(s.busy_wait_ns, 600);
        assert_eq!(s.park_count, 2);
        assert_eq!(s.unpark_count, 1);
        assert_eq!(s.park_wait_ns, 3_000);
        assert_eq!(s.steal_attempts, 3);
        assert_eq!(s.steal_hits, 2);
        assert_eq!(s.steal_misses, 1);
        assert_eq!(s.deque_high_water, 7);
        assert_eq!(s.nodes_executed, 2);
        assert_eq!(s.exec_ns, 3_000);
        assert_eq!(s.wait_ns(), 3_600);
        assert_eq!(s.fault_spikes, 2);
        assert_eq!(s.fault_spike_iters, 1_400);
        assert_eq!(s.fault_stalls, 1);
        assert_eq!(s.fault_stall_iters, 900);
        assert_eq!(s.fault_pressure_iters, 300);
        assert_eq!(s.fault_events(), 3);
        assert_eq!(s.fault_iters(), 2_600);
        assert_eq!(s.net_packets_lost, 4);
        assert_eq!(s.net_packets_late, 3);
        assert_eq!(s.net_packets_dup, 2);
        assert_eq!(s.net_frames_concealed, 5);
        assert_eq!(s.net_depth_changes, 1);
        assert_eq!(s.net_wait_ns, 250);
        assert_eq!(s.net_conceal_ns, 750);
        assert_eq!(s.broadcast_drops, 6);
        assert_eq!(s.net_packet_events(), 9);

        let mut again = CounterSnapshot::default();
        c.drain_into(&mut again);
        assert_eq!(
            again,
            CounterSnapshot::default(),
            "drain must reset every counter"
        );
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = CounterSnapshot {
            spin_iters: 1,
            deque_high_water: 4,
            exec_ns: 10,
            nodes_executed: 1,
            ..Default::default()
        };
        let b = CounterSnapshot {
            spin_iters: 2,
            deque_high_water: 3,
            exec_ns: 20,
            nodes_executed: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.spin_iters, 3);
        assert_eq!(a.deque_high_water, 4);
        assert_eq!(a.exec_ns, 30);
        assert_eq!(a.nodes_executed, 3);
    }

    #[test]
    fn counters_are_cache_line_padded() {
        assert!(std::mem::align_of::<CycleCounters>() >= 128);
    }
}
