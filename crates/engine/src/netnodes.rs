//! Network nodes of the DJ Star graph: remote deck receivers and the
//! broadcast sink.
//!
//! [`NetDeckSource`] replaces a deck's local audio feed with a simulated
//! remote stream: a seeded [`NetFaultPlan`] decides — purely per
//! `(seed, cycle, stream)` — which packets arrive this cycle, and a
//! [`JitterBuffer`] reorders, de-duplicates and conceals. Because
//! the trace is stateless and the executors guarantee exactly-once node
//! execution, the played audio is bit-identical for a fixed seed across
//! every strategy and thread count.
//!
//! [`BroadcastSink`] models streaming the master bus to `N` listeners with
//! per-listener backpressure: a stalled listener's queue grows and frames
//! past the queue bound are dropped (and counted).
//!
//! Both nodes record into `CycleCtx::counters` when the engine armed
//! telemetry; with counters absent they take no timestamps at all.

use std::time::Instant;

use djstar_core::net::{
    fill_remote_frame, Arrival, JitterBuffer, JitterConfig, NetFaultPlan, NetStats, PopOutcome,
    MAX_ARRIVALS,
};
use djstar_core::processor::{CycleCtx, Processor};
use djstar_dsp::buffer::AudioBuf;
use djstar_workload::profile::{NodeClass, WorkProfile};

use crate::nodes::{sum_inputs, CostModel};
use djstar_workload::netspec::NetSpec;

/// Convert the workload's engine-agnostic [`NetSpec`] into the core's
/// packet-trace plan.
pub fn net_plan_from_spec(spec: &NetSpec) -> NetFaultPlan {
    NetFaultPlan {
        seed: spec.seed,
        base_delay: spec.base_delay,
        jitter: spec.jitter,
        loss_rate: spec.loss_rate,
        dup_rate: spec.dup_rate,
        dup_delay: spec.dup_delay,
        reorder_rate: spec.reorder_rate,
        reorder_extra: spec.reorder_extra,
        burst_period: spec.burst_period,
        burst_len: spec.burst_len,
        burst_jitter: spec.burst_jitter,
        listener_stall_rate: spec.listener_stall_rate,
    }
}

/// The jitter-buffer configuration a [`NetSpec`] asks for; `start_depth`
/// can be overridden (the network governor rebuilds shapes with an
/// explicit per-deck depth).
pub fn jitter_config_from_spec(spec: &NetSpec, start_depth: Option<u32>) -> JitterConfig {
    JitterConfig {
        min_depth: spec.min_depth,
        max_depth: spec.max_depth,
        start_depth: start_depth
            .unwrap_or(spec.start_depth)
            .clamp(spec.min_depth, spec.max_depth),
        ..JitterConfig::default()
    }
}

/// Decorrelates the synthesized content of different streams sharing one
/// trace seed.
const STREAM_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// NetSrc: receives one remote deck's packet stream through a jitter
/// buffer (a source node; its output feeds the deck's SP filterbank).
pub struct NetDeckSource {
    stream: u32,
    plan: NetFaultPlan,
    buf: JitterBuffer,
    stream_seed: u64,
    /// Stats snapshot at the end of the previous cycle (for counter deltas).
    last: NetStats,
    cost: CostModel,
}

impl NetDeckSource {
    /// The receiver of deck `deck`'s remote stream under `plan`.
    pub fn new(
        deck: usize,
        plan: NetFaultPlan,
        cfg: JitterConfig,
        profile: WorkProfile,
        seed: u32,
    ) -> Self {
        NetDeckSource {
            stream: deck as u32,
            plan,
            buf: JitterBuffer::for_plan(2, djstar_dsp::BUFFER_FRAMES, &plan, cfg),
            stream_seed: plan
                .seed
                .wrapping_add((deck as u64 + 1).wrapping_mul(STREAM_SEED_MIX)),
            last: NetStats::default(),
            cost: CostModel::new(NodeClass::SpFilter, profile, seed),
        }
    }

    /// Lifetime reception statistics of the jitter buffer.
    pub fn net_stats(&self) -> NetStats {
        self.buf.stats()
    }

    /// Current playout depth (cycles of added latency).
    pub fn depth(&self) -> u32 {
        self.buf.depth()
    }

    /// Depth the buffer is converging to.
    pub fn target_depth(&self) -> u32 {
        self.buf.target_depth()
    }

    /// Retarget the playout depth (the network governor's actuator);
    /// the buffer applies at most one bounded step per cycle.
    pub fn set_target_depth(&mut self, depth: u32) {
        self.buf.set_target_depth(depth);
    }
}

impl Processor for NetDeckSource {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn process(&mut self, _inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        let cycle = ctx.epoch;
        let timed = ctx.counters.is_some();

        // -- Receive: drain this cycle's arrivals into the ring. ----------
        let t_recv = timed.then(Instant::now);
        if self.plan.lost(cycle, self.stream) {
            self.buf.note_lost();
        }
        let mut arr = [Arrival { seq: 0, dup: false }; MAX_ARRIVALS];
        let n = self.plan.arrivals(cycle, self.stream, &mut arr);
        let seed = self.stream_seed;
        for a in &arr[..n] {
            self.buf
                .push_with(a.seq, |slot| fill_remote_frame(seed, a.seq, slot));
        }
        if let (Some(c), Some(t0)) = (ctx.counters, t_recv) {
            c.add_net_wait_ns(t0.elapsed().as_nanos() as u64);
        }

        // -- Play: pop the frame due this cycle (or conceal). -------------
        let t_pop = timed.then(Instant::now);
        let outcome = self.buf.pop(cycle, output);
        if let (Some(c), Some(t0)) = (ctx.counters, t_pop) {
            if matches!(outcome, PopOutcome::Concealed | PopOutcome::Held) {
                c.add_net_conceal_ns(t0.elapsed().as_nanos() as u64);
            }
        }

        // -- Account: per-cycle counter deltas. ---------------------------
        if let Some(c) = ctx.counters {
            let s = self.buf.stats();
            c.add_net_cycle(
                s.lost - self.last.lost,
                s.late - self.last.late,
                s.duplicated - self.last.duplicated,
                s.concealed - self.last.concealed,
                s.depth_changes - self.last.depth_changes,
            );
            self.last = s;
        }

        self.cost.apply(output);
    }
}

/// Plain-value delivery statistics of one [`BroadcastSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BroadcastStats {
    /// Encoded frames dropped past a stalled listener's queue bound.
    pub dropped: u64,
    /// Listener-cycles spent stalled.
    pub stalled_cycles: u64,
    /// Deepest per-listener queue observed.
    pub max_queue: u32,
}

/// BroadcastSink: encodes the master bus for `N` simulated listeners.
///
/// Each cycle enqueues one encoded frame per listener; an unstalled
/// listener drains up to two frames (so it catches up after a stall), a
/// stalled one drains none. Queues past [`BroadcastSink::QUEUE_CAP`] drop
/// the overflow — the per-listener backpressure account.
pub struct BroadcastSink {
    plan: NetFaultPlan,
    queues: Vec<u32>,
    stats: BroadcastStats,
    /// Drops snapshot at the end of the previous cycle.
    last_dropped: u64,
    cost: CostModel,
}

impl BroadcastSink {
    /// Frames a listener may queue before the encoder drops.
    pub const QUEUE_CAP: u32 = 8;

    /// A sink feeding `listeners` simulated downlinks under `plan`.
    pub fn new(listeners: u32, plan: NetFaultPlan, profile: WorkProfile, seed: u32) -> Self {
        BroadcastSink {
            plan,
            queues: vec![0; listeners as usize],
            stats: BroadcastStats::default(),
            last_dropped: 0,
            cost: CostModel::new(NodeClass::MasterChain, profile, seed),
        }
    }

    /// Listener count.
    pub fn listeners(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Lifetime delivery statistics.
    pub fn broadcast_stats(&self) -> BroadcastStats {
        self.stats
    }
}

impl Processor for BroadcastSink {
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn process(&mut self, inputs: &[&AudioBuf], output: &mut AudioBuf, ctx: &CycleCtx<'_>) {
        // "Encode": the master bus passes through unchanged; the cost model
        // below charges the encoder's compute.
        sum_inputs(inputs, output);

        let cycle = ctx.epoch;
        for (l, q) in self.queues.iter_mut().enumerate() {
            *q += 1; // this cycle's encoded frame
            if self.plan.listener_stalled(cycle, l as u32) {
                self.stats.stalled_cycles += 1;
            } else {
                *q = q.saturating_sub(2); // drain, catching up post-stall
            }
            if *q > Self::QUEUE_CAP {
                self.stats.dropped += (*q - Self::QUEUE_CAP) as u64;
                *q = Self::QUEUE_CAP;
            }
            if *q > self.stats.max_queue {
                self.stats.max_queue = *q;
            }
        }

        if let Some(c) = ctx.counters {
            c.add_broadcast_drops(self.stats.dropped - self.last_dropped);
            self.last_dropped = self.stats.dropped;
        }

        self.cost.apply(output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light() -> WorkProfile {
        WorkProfile::light()
    }

    fn ctx(epoch: u64) -> CycleCtx<'static> {
        CycleCtx {
            epoch,
            external_audio: &[],
            controls: &[],
            counters: None,
        }
    }

    #[test]
    fn net_source_plays_the_stream_after_preroll() {
        let plan = NetFaultPlan::quiet(7);
        let mut node = NetDeckSource::new(0, plan, JitterConfig::fixed(2), light(), 1);
        let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
        for c in 0..40u64 {
            node.process(&[], &mut out, &ctx(c));
        }
        assert!(out.rms() > 0.01, "remote stream should be audible");
        let s = node.net_stats();
        assert_eq!(s.concealed, 0, "quiet network must not conceal");
        assert!(s.received > 30);
    }

    #[test]
    fn net_source_is_deterministic_per_seed() {
        let mut plan = NetFaultPlan::quiet(42);
        plan.jitter = 3;
        plan.loss_rate = 0.05;
        let run = || {
            let mut node = NetDeckSource::new(1, plan, JitterConfig::fixed(4), light(), 1);
            let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
            let mut sig = Vec::new();
            for c in 0..200u64 {
                node.process(&[], &mut out, &ctx(c));
                sig.extend_from_slice(out.samples());
            }
            sig
        };
        assert_eq!(run(), run(), "same seed must be bit-identical");
    }

    #[test]
    fn governor_can_retune_depth_through_the_node() {
        let plan = NetFaultPlan::quiet(3);
        let cfg = JitterConfig {
            min_depth: 1,
            max_depth: 8,
            ..JitterConfig::default()
        };
        let mut node = NetDeckSource::new(0, plan, cfg, light(), 1);
        let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
        for c in 0..10u64 {
            node.process(&[], &mut out, &ctx(c));
        }
        node.set_target_depth(5);
        assert_eq!(node.target_depth(), 5);
        for c in 10..40u64 {
            node.process(&[], &mut out, &ctx(c));
        }
        assert_eq!(node.depth(), 5, "bounded steps must reach the target");
    }

    #[test]
    fn broadcast_sink_counts_drops_under_stall() {
        let mut plan = NetFaultPlan::quiet(11);
        plan.listener_stall_rate = 0.9;
        let mut node = BroadcastSink::new(4, plan, light(), 2);
        let master = AudioBuf::from_fn(2, 64, |_, i| ((i as f32) * 0.11).sin() * 0.4);
        let mut out = AudioBuf::zeroed(2, 64);
        for c in 0..400u64 {
            node.process(&[&master], &mut out, &ctx(c));
        }
        let s = node.broadcast_stats();
        assert!(s.stalled_cycles > 1000, "stalls: {}", s.stalled_cycles);
        assert!(s.dropped > 100, "drops: {}", s.dropped);
        assert!(s.max_queue == BroadcastSink::QUEUE_CAP);
        // Audio passes through untouched (modulo the cost residue).
        assert!((out.rms() - master.rms()).abs() < 1e-4);
    }

    #[test]
    fn broadcast_sink_clean_network_never_drops() {
        let plan = NetFaultPlan::quiet(11);
        let mut node = BroadcastSink::new(8, plan, light(), 2);
        let master = AudioBuf::zeroed(2, 64);
        let mut out = AudioBuf::zeroed(2, 64);
        for c in 0..400u64 {
            node.process(&[&master], &mut out, &ctx(c));
        }
        let s = node.broadcast_stats();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.stalled_cycles, 0);
        assert!(s.max_queue <= 1);
    }
}
