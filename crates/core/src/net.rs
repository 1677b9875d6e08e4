//! Networked deck sources: seeded packet-fault traces and the jitter
//! buffer.
//!
//! The paper's engine assumes every deck's samples are already in local
//! memory. A venue-scale rig streams remote decks over a lossy network and
//! broadcasts the master bus back out — so this module opens that workload
//! axis *deterministically*: no sockets, no wall clocks, just a seeded
//! packet trace that is a pure function of `(seed, cycle, stream)`, the
//! same SplitMix64 idiom as [`crate::faults`].
//!
//! * [`NetFaultPlan`] — per-`(cycle, stream)` draws decide whether the
//!   packet sent that cycle is **lost**, how many cycles of **jitter**
//!   delay it picks up (with square-wave **jitter bursts**), whether it is
//!   **duplicated**, and whether it is **reordered** (held back behind its
//!   successors). Arrivals at a cycle are recovered by a bounded backward
//!   scan, so reception needs no queue and no allocation.
//! * [`JitterBuffer`] — a preallocated seq-indexed ring that re-orders and
//!   de-duplicates arrivals, conceals late/lost frames (hold-last with an
//!   exponential fade), and moves its playout depth toward whatever target
//!   it is given (the engine's network governor decides the target). Depth
//!   changes are mode transitions with a bounded cost: deepening holds one
//!   frame, shallowing skips one.
//!
//! Both halves are lock-free and allocation-free after construction:
//! the executors' exactly-once node ownership means a consuming node runs
//! on one worker per cycle, and every decision derives from the seed and
//! the cycle number — so a fixed trace seed produces byte-identical audio
//! on every strategy at every thread count.

use djstar_dsp::rng::SmallRng;
use djstar_dsp::AudioBuf;

/// Domain-separation salts: each draw class is an independent stream of
/// the same seed.
const SALT_LOSS: u64 = 0x4C4F_5353; // "LOSS"
const SALT_JIT: u64 = 0x4A49_5454; // "JITT"
const SALT_DUP: u64 = 0x4455_5053; // "DUPS"
const SALT_REORD: u64 = 0x524F_5244; // "RORD"
const SALT_LISTEN: u64 = 0x4C49_5354; // "LIST"

/// Hard bound on any single packet's delay in cycles; keeps the backward
/// arrival scan (and the jitter buffer's capacity) small and constant.
pub const MAX_DELAY: u32 = 48;

/// Upper bound on arrivals in one cycle for one stream: every send cycle
/// in the delay horizon could land here, once as a primary and once as a
/// duplicate.
pub const MAX_ARRIVALS: usize = 2 * (MAX_DELAY as usize + 1);

/// One packet arrival produced by [`NetFaultPlan::arrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Frame sequence number (== the cycle the packet was sent).
    pub seq: u64,
    /// True when this is the duplicate copy of an already-sent packet.
    pub dup: bool,
}

/// A seeded, immutable network-fault trace.
///
/// The model is cycle-synchronous: stream `s` sends exactly one packet per
/// cycle, carrying the frame with `seq == cycle`. Every per-packet
/// decision is a stateless SplitMix64 draw over `(seed, cycle, stream)`:
///
/// * **loss** — the packet never arrives (and neither does any duplicate);
/// * **jitter** — a uniform extra delay in `0..=jitter` cycles, widened to
///   `0..=jitter + burst_jitter` while the burst square wave
///   (`burst_period`/`burst_len`) is high;
/// * **reorder** — the packet is additionally held back `reorder_extra`
///   cycles, guaranteeing it arrives behind packets sent after it;
/// * **duplication** — a second copy arrives `dup_delay` cycles after the
///   first.
///
/// All fields are plain data so harnesses can describe scenarios without
/// touching executor internals; [`NetFaultPlan::quiet`] is the clean
/// network used to measure the cost of the machinery itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for every draw.
    pub seed: u64,
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
    /// Probability a broadcast listener's drain stalls in a given cycle
    /// (per-listener backpressure; see the engine's `BroadcastSink`).
    pub listener_stall_rate: f64,
}

impl NetFaultPlan {
    /// A clean network: every packet arrives after `base_delay` exactly,
    /// nothing is lost, duplicated or reordered. Used to measure the
    /// overhead of the reception path itself.
    pub fn quiet(seed: u64) -> Self {
        NetFaultPlan {
            seed,
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
        }
    }

    /// True when no draw can ever perturb a packet.
    pub fn is_quiet(&self) -> bool {
        self.jitter == 0
            && self.loss_rate <= 0.0
            && self.dup_rate <= 0.0
            && (self.reorder_rate <= 0.0 || self.reorder_extra == 0)
            && (self.burst_period == 0 || self.burst_len == 0 || self.burst_jitter == 0)
            && self.listener_stall_rate <= 0.0
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

    /// True while the jitter-burst square wave is high in `cycle`.
    #[inline]
    fn burst_active(&self, cycle: u64) -> bool {
        self.burst_period != 0
            && self.burst_jitter != 0
            && cycle % self.burst_period < self.burst_len
    }

    /// True when the packet stream `stream` sends in `cycle` is lost (no
    /// copy of it ever arrives).
    #[inline]
    pub fn lost(&self, cycle: u64, stream: u32) -> bool {
        self.loss_rate > 0.0 && self.draw(SALT_LOSS, cycle, stream as u64) < self.loss_rate
    }

    /// Transit delay (in cycles) of the packet `stream` sends in `cycle`,
    /// or `None` when it is lost. Pure per-`(seed, cycle, stream)`; the
    /// result is clamped so it never exceeds [`MAX_DELAY`].
    #[inline]
    fn delay_of(&self, cycle: u64, stream: u32) -> Option<u32> {
        if self.lost(cycle, stream) {
            return None;
        }
        let mut delay = self.base_delay;
        let span = self.jitter
            + if self.burst_active(cycle) {
                self.burst_jitter
            } else {
                0
            };
        if span > 0 {
            delay += (self.draw(SALT_JIT, cycle, stream as u64) * (span + 1) as f64) as u32;
        }
        if self.reorder_rate > 0.0
            && self.reorder_extra > 0
            && self.draw(SALT_REORD, cycle, stream as u64) < self.reorder_rate
        {
            delay += self.reorder_extra;
        }
        Some(delay.min(MAX_DELAY))
    }

    /// Arrival delay of the duplicate copy, when one exists.
    #[inline]
    pub fn dup_delay_of(&self, cycle: u64, stream: u32) -> Option<u32> {
        if self.dup_rate <= 0.0 || self.draw(SALT_DUP, cycle, stream as u64) >= self.dup_rate {
            return None;
        }
        self.delay_of(cycle, stream)
            .map(|d| (d + self.dup_delay.max(1)).min(MAX_DELAY))
    }

    /// Upper bound (inclusive) on any packet's delay under this plan.
    #[inline]
    fn max_delay(&self) -> u32 {
        let jitter_top = self.base_delay + self.jitter + self.burst_jitter + self.reorder_extra;
        (jitter_top + self.dup_delay.max(1)).min(MAX_DELAY)
    }

    /// Collect every arrival for `(cycle, stream)` into `out`, oldest seq
    /// first; returns the count. A bounded backward scan over the delay
    /// horizon: the packet sent at `cycle - d` arrives now iff its drawn
    /// delay equals `d`. Zero-allocation and independent of which worker
    /// (or strategy) runs the consuming node.
    pub fn arrivals(&self, cycle: u64, stream: u32, out: &mut [Arrival; MAX_ARRIVALS]) -> usize {
        let mut n = 0;
        let horizon = self.max_delay();
        // Oldest candidate first: d descends from the horizon to 0.
        let mut d = if cycle < horizon as u64 {
            cycle as u32
        } else {
            horizon
        };
        loop {
            let send = cycle - d as u64;
            if self.delay_of(send, stream) == Some(d) {
                out[n] = Arrival {
                    seq: send,
                    dup: false,
                };
                n += 1;
            }
            if self.dup_delay_of(send, stream) == Some(d) {
                out[n] = Arrival {
                    seq: send,
                    dup: true,
                };
                n += 1;
            }
            if d == 0 {
                break;
            }
            d -= 1;
        }
        n
    }

    /// True when broadcast listener `listener` cannot drain in `cycle`
    /// (its downlink stalled); the backpressure draw of `BroadcastSink`.
    #[inline]
    pub fn listener_stalled(&self, cycle: u64, listener: u32) -> bool {
        self.listener_stall_rate > 0.0
            && self.draw(SALT_LISTEN, cycle, listener as u64) < self.listener_stall_rate
    }
}

/// Deterministically synthesize the remote stream's frame `seq` into
/// `out`: a per-stream dual tone whose phase is a closed-form function of
/// `seq`, so frames are independent (a skip after a depth change resumes
/// the exact stream content) and any two receivers of the same stream
/// produce bit-identical audio.
pub fn fill_remote_frame(stream_seed: u64, seq: u64, out: &mut AudioBuf) {
    let frames = out.frames() as u64;
    let sr = djstar_dsp::SAMPLE_RATE as f64;
    let f0 = 110.0 + (stream_seed % 7) as f64 * 55.0;
    let f1 = f0 * 1.498; // detuned fifth keeps the signal non-periodic
    let w0 = core::f64::consts::TAU * f0 / sr;
    let w1 = core::f64::consts::TAU * f1 / sr;
    let base = seq * frames;
    let channels = out.channels();
    for ch in 0..channels {
        let chp = ch as f64 * 0.7;
        for i in 0..frames as usize {
            let n = (base + i as u64) as f64;
            // Reduce the phase in f64 before the sin so large seqs keep
            // full precision.
            let p0 = (w0 * n) % core::f64::consts::TAU;
            let p1 = (w1 * n + chp) % core::f64::consts::TAU;
            let s = 0.35 * p0.sin() + 0.18 * p1.sin();
            out.set_sample(ch, i, s as f32);
        }
    }
}

/// Depth range and concealment parameters of a [`JitterBuffer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// Smallest playout depth the buffer will run at (cycles of latency).
    pub min_depth: u32,
    /// Largest playout depth.
    pub max_depth: u32,
    /// Initial playout depth (clamped into `[min_depth, max_depth]`).
    pub start_depth: u32,
    /// Per-consecutive-conceal gain applied to the held frame.
    pub fade: f32,
}

impl Default for JitterConfig {
    fn default() -> Self {
        JitterConfig {
            min_depth: 1,
            max_depth: 12,
            start_depth: 1,
            fade: 0.7,
        }
    }
}

impl JitterConfig {
    /// A fixed-depth configuration.
    pub fn fixed(depth: u32) -> Self {
        JitterConfig {
            min_depth: depth,
            max_depth: depth,
            start_depth: depth,
            ..Default::default()
        }
    }
}

/// Plain-value reception statistics of one [`JitterBuffer`]. Monotonic
/// over the buffer's lifetime; harnesses diff successive reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames accepted into the ring.
    pub received: u64,
    /// Packets the trace lost outright (observed at send horizon).
    pub lost: u64,
    /// Arrivals too late to play (their slot already popped).
    pub late: u64,
    /// Duplicate arrivals discarded.
    pub duplicated: u64,
    /// Frames concealed at pop time (the dropout count).
    pub concealed: u64,
    /// Depth changes applied (each holds or skips exactly one frame).
    pub depth_changes: u64,
    /// Frames skipped by shallowing transitions.
    pub skipped: u64,
}

/// Outcome of accepting one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Frame stored (the closure filled the slot).
    Stored,
    /// Arrival was behind the playout head; dropped and counted late.
    Late,
    /// Slot already held this seq; dropped and counted duplicated.
    Duplicate,
}

/// Outcome of one playout pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopOutcome {
    /// The expected frame was present and played.
    Played,
    /// The frame was missing; the previous frame was held (faded).
    Concealed,
    /// Initial buffering: nothing has played yet, output is silence.
    Preroll,
    /// A deepening transition held the last frame for one cycle.
    Held,
}

/// One ring slot: a preallocated frame plus the seq it currently holds.
struct Slot {
    seq: u64,
    valid: bool,
    frame: AudioBuf,
}

/// The lock-free, zero-alloc jitter buffer.
///
/// Single-owner by construction: exactly one graph node owns the buffer
/// and the executors guarantee exactly-once node execution per cycle, so
/// no interior synchronization is needed — "lock-free" the way the rest of
/// the hot path is: no locks, no waits, no allocation after construction.
///
/// The ring is seq-indexed (`seq % capacity`), which re-orders and
/// de-duplicates arrivals for free: a push lands in its slot regardless of
/// arrival order, and a second copy of a seq is detected by slot
/// inspection.
pub struct JitterBuffer {
    slots: Vec<Slot>,
    cfg: JitterConfig,
    depth: u32,
    target_depth: u32,
    /// Next seq to play; meaningful once `started`.
    next_play: u64,
    started: bool,
    /// First cycle at which a frame may play (start + initial depth).
    preroll_until: u64,
    /// True once a real frame has played (preroll over).
    warmed: bool,
    last: AudioBuf,
    conceal_gain: f32,
    stats: NetStats,
}

impl JitterBuffer {
    /// A buffer of `capacity` preallocated `channels`×`frames` slots.
    /// Capacity must exceed `cfg.max_depth` plus the trace's maximum
    /// delay so an in-horizon arrival can never collide with an unplayed
    /// slot.
    pub fn new(channels: usize, frames: usize, capacity: usize, cfg: JitterConfig) -> Self {
        let capacity = capacity.max(cfg.max_depth as usize + 2);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: 0,
                valid: false,
                frame: AudioBuf::zeroed(channels, frames),
            })
            .collect();
        let depth = cfg.start_depth.clamp(cfg.min_depth, cfg.max_depth);
        JitterBuffer {
            slots,
            cfg,
            depth,
            target_depth: depth,
            next_play: 0,
            started: false,
            preroll_until: 0,
            warmed: false,
            last: AudioBuf::zeroed(channels, frames),
            conceal_gain: 1.0,
            stats: NetStats::default(),
        }
    }

    /// Sized for `plan`: capacity covers the depth range plus the plan's
    /// delay horizon.
    pub fn for_plan(
        channels: usize,
        frames: usize,
        plan: &NetFaultPlan,
        cfg: JitterConfig,
    ) -> Self {
        let cap = cfg.max_depth as usize + plan.max_delay() as usize + 2;
        Self::new(channels, frames, cap, cfg)
    }

    /// Current playout depth (cycles of added latency).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The depth the buffer is transitioning toward.
    pub fn target_depth(&self) -> u32 {
        self.target_depth
    }

    /// Reception statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Order a depth change (the engine's latency/dropout governor).
    /// Clamped into the configured bounds; applied one step per pop with
    /// the usual bounded transition cost.
    pub fn set_target_depth(&mut self, depth: u32) {
        self.target_depth = depth.clamp(self.cfg.min_depth, self.cfg.max_depth);
    }

    /// Record a packet the trace lost outright (reception observes this
    /// at the send horizon; see `NetFaultPlan::lost`).
    pub fn note_lost(&mut self) {
        self.stats.lost += 1;
    }

    /// Accept the arrival of frame `seq`; `fill` synthesizes/decodes the
    /// payload directly into the preallocated slot (no copy, no alloc).
    pub fn push_with(&mut self, seq: u64, fill: impl FnOnce(&mut AudioBuf)) -> PushOutcome {
        if self.started && seq < self.next_play {
            self.stats.late += 1;
            return PushOutcome::Late;
        }
        let cap = self.slots.len() as u64;
        if self.started && seq >= self.next_play + cap {
            // Beyond the ring horizon (cannot happen under a plan the
            // buffer was sized for); drop rather than corrupt.
            self.stats.late += 1;
            return PushOutcome::Late;
        }
        let slot = &mut self.slots[(seq % cap) as usize];
        if slot.valid && slot.seq == seq {
            self.stats.duplicated += 1;
            return PushOutcome::Duplicate;
        }
        slot.seq = seq;
        slot.valid = true;
        fill(&mut slot.frame);
        self.stats.received += 1;
        PushOutcome::Stored
    }

    /// Play one frame for `cycle` into `out`, advancing the playout head.
    /// Call after pushing the cycle's arrivals. Handles preroll, depth
    /// transitions (one bounded step per cycle) and concealment.
    pub fn pop(&mut self, cycle: u64, out: &mut AudioBuf) -> PopOutcome {
        if !self.started {
            self.started = true;
            // The stream's first reachable frame is `cycle` (seq == send
            // cycle); bank `depth` cycles of arrivals before playing it,
            // which establishes the invariant `cycle - next_play == depth`.
            self.next_play = cycle;
            self.preroll_until = cycle + self.depth as u64;
        }
        if cycle < self.preroll_until {
            out.clear();
            return PopOutcome::Preroll;
        }
        // One bounded transition step per cycle toward the target depth.
        if self.depth != self.target_depth {
            if self.depth < self.target_depth {
                // Deepen: hold one frame, let the buffer fill one deeper.
                self.depth += 1;
                self.stats.depth_changes += 1;
                self.emit_hold(out);
                return PopOutcome::Held;
            }
            // Shallow: skip one frame to shed one cycle of latency.
            self.depth -= 1;
            self.stats.depth_changes += 1;
            self.stats.skipped += 1;
            self.invalidate(self.next_play);
            self.next_play += 1;
        }
        let seq = self.next_play;
        let cap = self.slots.len() as u64;
        let slot = &mut self.slots[(seq % cap) as usize];
        let outcome = if slot.valid && slot.seq == seq {
            out.copy_from(&slot.frame);
            self.last.copy_from(&slot.frame);
            slot.valid = false;
            self.conceal_gain = 1.0;
            self.warmed = true;
            PopOutcome::Played
        } else if self.warmed {
            // Hold-last concealment with an exponential fade.
            self.conceal_gain *= self.cfg.fade;
            out.copy_from(&self.last);
            out.scale(self.conceal_gain);
            self.stats.concealed += 1;
            PopOutcome::Concealed
        } else {
            out.clear();
            PopOutcome::Preroll
        };
        self.next_play += 1;
        outcome
    }

    fn invalidate(&mut self, seq: u64) {
        let cap = self.slots.len() as u64;
        let slot = &mut self.slots[(seq % cap) as usize];
        if slot.valid && slot.seq == seq {
            slot.valid = false;
        }
    }

    fn emit_hold(&mut self, out: &mut AudioBuf) {
        if self.warmed {
            out.copy_from(&self.last);
        } else {
            out.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stormy() -> NetFaultPlan {
        NetFaultPlan {
            seed: 0xE17,
            base_delay: 0,
            jitter: 2,
            loss_rate: 0.02,
            dup_rate: 0.05,
            dup_delay: 2,
            reorder_rate: 0.1,
            reorder_extra: 3,
            burst_period: 50,
            burst_len: 12,
            burst_jitter: 6,
            listener_stall_rate: 0.1,
        }
    }

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        let a = stormy();
        let b = stormy();
        for cycle in 0..400u64 {
            for stream in 0..4u32 {
                assert_eq!(a.delay_of(cycle, stream), b.delay_of(cycle, stream));
                assert_eq!(a.dup_delay_of(cycle, stream), b.dup_delay_of(cycle, stream));
            }
        }
        let other = NetFaultPlan {
            seed: 1,
            ..stormy()
        };
        let same = (0..400u64)
            .filter(|&c| a.delay_of(c, 0) == other.delay_of(c, 0))
            .count();
        assert!(same < 400, "different seeds must differ somewhere");
    }

    #[test]
    fn every_sent_packet_arrives_exactly_once_or_is_lost() {
        // Over a long horizon, collecting arrivals per cycle must
        // reproduce each sent seq exactly once (plus tagged duplicates),
        // and never invent or drop one.
        let plan = stormy();
        let cycles = 600u64;
        let horizon = plan.max_delay() as u64;
        let mut primaries = vec![0u32; cycles as usize];
        let mut dups = vec![0u32; cycles as usize];
        let mut buf = [Arrival { seq: 0, dup: false }; MAX_ARRIVALS];
        for c in 0..cycles + horizon {
            let n = plan.arrivals(c, 2, &mut buf);
            for a in &buf[..n] {
                assert!(a.seq <= c, "arrival from the future");
                assert!(c - a.seq <= horizon, "arrival beyond the horizon");
                if (a.seq as usize) < primaries.len() {
                    if a.dup {
                        dups[a.seq as usize] += 1;
                    } else {
                        primaries[a.seq as usize] += 1;
                    }
                }
            }
        }
        let mut lost = 0u64;
        for c in 0..cycles {
            let want = u32::from(plan.delay_of(c, 2).is_some());
            assert_eq!(primaries[c as usize], want, "seq {c} primary count");
            let want_dup = u32::from(plan.dup_delay_of(c, 2).is_some());
            assert_eq!(dups[c as usize], want_dup, "seq {c} dup count");
            if want == 0 {
                lost += 1;
                assert_eq!(want_dup, 0, "a lost packet cannot be duplicated");
            }
        }
        assert!(lost > 0, "the storm should lose something in 600 cycles");
    }

    #[test]
    fn quiet_plan_delivers_everything_on_time() {
        let plan = NetFaultPlan::quiet(7);
        assert!(plan.is_quiet());
        assert!(!stormy().is_quiet());
        for c in 0..200u64 {
            assert_eq!(plan.delay_of(c, 0), Some(0));
            assert_eq!(plan.dup_delay_of(c, 0), None);
            assert!(!plan.listener_stalled(c, 3) || plan.listener_stall_rate > 0.0);
        }
    }

    #[test]
    fn burst_wave_follows_period_and_len() {
        let plan = stormy();
        for c in 0..200u64 {
            assert_eq!(plan.burst_active(c), c % 50 < 12, "cycle {c}");
        }
    }

    /// Drive a buffer against a plan for `cycles`, returning (played,
    /// concealed, out-of-order violations).
    fn drive(plan: &NetFaultPlan, cfg: JitterConfig, cycles: u64) -> (u64, u64, NetStats) {
        let mut jb = JitterBuffer::for_plan(2, 16, plan, cfg);
        let mut out = AudioBuf::zeroed(2, 16);
        let mut buf = [Arrival { seq: 0, dup: false }; MAX_ARRIVALS];
        let mut played = 0u64;
        let mut concealed = 0u64;
        for c in 0..cycles {
            let n = plan.arrivals(c, 0, &mut buf);
            for a in &buf[..n] {
                let seq = a.seq;
                jb.push_with(seq, |f| fill_remote_frame(42, seq, f));
            }
            if plan.lost(c, 0) {
                jb.note_lost();
            }
            match jb.pop(c, &mut out) {
                PopOutcome::Played => played += 1,
                PopOutcome::Concealed => concealed += 1,
                _ => {}
            }
        }
        (played, concealed, jb.stats())
    }

    #[test]
    fn clean_network_plays_every_frame_after_preroll() {
        let plan = NetFaultPlan::quiet(1);
        let (played, concealed, stats) = drive(&plan, JitterConfig::fixed(1), 300);
        assert_eq!(concealed, 0);
        assert_eq!(stats.concealed, 0);
        assert_eq!(stats.late, 0);
        assert_eq!(stats.duplicated, 0);
        // One preroll cycle at depth 1.
        assert_eq!(played, 299);
    }

    #[test]
    fn played_frames_are_bit_exact_and_in_order() {
        let plan = stormy();
        let mut jb = JitterBuffer::for_plan(2, 16, &plan, JitterConfig::fixed(4));
        let mut out = AudioBuf::zeroed(2, 16);
        let mut expect = AudioBuf::zeroed(2, 16);
        let mut buf = [Arrival { seq: 0, dup: false }; MAX_ARRIVALS];
        let mut last_played: Option<u64> = None;
        for c in 0..500u64 {
            let n = plan.arrivals(c, 1, &mut buf);
            for a in &buf[..n] {
                let seq = a.seq;
                jb.push_with(seq, |f| fill_remote_frame(9, seq, f));
            }
            if jb.pop(c, &mut out) == PopOutcome::Played {
                let seq = c - 4; // fixed depth, no transitions
                fill_remote_frame(9, seq, &mut expect);
                assert_eq!(out, expect, "cycle {c}");
                if let Some(prev) = last_played {
                    assert!(seq > prev, "out-of-order playout");
                }
                last_played = Some(seq);
            }
        }
        assert!(last_played.is_some());
    }

    #[test]
    fn deeper_fixed_buffers_conceal_less() {
        let plan = stormy();
        let (_, c1, _) = drive(&plan, JitterConfig::fixed(1), 800);
        let (_, c8, _) = drive(&plan, JitterConfig::fixed(8), 800);
        assert!(
            c8 < c1,
            "depth 8 must conceal less than depth 1 ({c8} vs {c1})"
        );
    }

    #[test]
    fn governor_ordered_depth_changes_apply_one_step_per_cycle() {
        let plan = NetFaultPlan::quiet(5);
        let cfg = JitterConfig {
            min_depth: 1,
            max_depth: 10,
            start_depth: 2,
            ..JitterConfig::default()
        };
        let mut jb = JitterBuffer::for_plan(2, 8, &plan, cfg);
        let mut out = AudioBuf::zeroed(2, 8);
        let mut buf = [Arrival { seq: 0, dup: false }; MAX_ARRIVALS];
        for c in 0..20u64 {
            let n = plan.arrivals(c, 0, &mut buf);
            for a in &buf[..n] {
                let seq = a.seq;
                jb.push_with(seq, |f| fill_remote_frame(1, seq, f));
            }
            jb.pop(c, &mut out);
        }
        assert_eq!(jb.depth(), 2);
        jb.set_target_depth(5);
        let mut held = 0;
        for c in 20..40u64 {
            let n = plan.arrivals(c, 0, &mut buf);
            for a in &buf[..n] {
                let seq = a.seq;
                jb.push_with(seq, |f| fill_remote_frame(1, seq, f));
            }
            if jb.pop(c, &mut out) == PopOutcome::Held {
                held += 1;
            }
        }
        assert_eq!(jb.depth(), 5);
        assert_eq!(held, 3, "deepening 2→5 holds exactly 3 frames");
        assert_eq!(jb.stats().depth_changes, 3);
        jb.set_target_depth(4);
        for c in 40..44u64 {
            let n = plan.arrivals(c, 0, &mut buf);
            for a in &buf[..n] {
                let seq = a.seq;
                jb.push_with(seq, |f| fill_remote_frame(1, seq, f));
            }
            jb.pop(c, &mut out);
        }
        assert_eq!(jb.depth(), 4);
        assert_eq!(jb.stats().skipped, 1, "shallowing 5→4 skips one frame");
    }

    #[test]
    fn duplicates_and_late_arrivals_are_counted_not_played() {
        let plan = NetFaultPlan::quiet(2);
        let mut jb = JitterBuffer::for_plan(2, 8, &plan, JitterConfig::fixed(1));
        let mut out = AudioBuf::zeroed(2, 8);
        assert_eq!(
            jb.push_with(0, |f| fill_remote_frame(0, 0, f)),
            PushOutcome::Stored
        );
        assert_eq!(
            jb.push_with(0, |f| fill_remote_frame(0, 0, f)),
            PushOutcome::Duplicate
        );
        jb.pop(0, &mut out); // preroll; head at seq 0 afterwards? depth 1 → head = 0, popped
        jb.pop(1, &mut out);
        assert_eq!(
            jb.push_with(0, |f| fill_remote_frame(0, 0, f)),
            PushOutcome::Late
        );
        let s = jb.stats();
        assert_eq!(s.duplicated, 1);
        assert_eq!(s.late, 1);
    }

    #[test]
    fn concealment_fades_the_held_frame() {
        let plan = NetFaultPlan::quiet(3);
        let mut jb = JitterBuffer::for_plan(1, 4, &plan, JitterConfig::fixed(0));
        let mut out = AudioBuf::zeroed(1, 4);
        // Depth 0 clamps to min_depth 0 via fixed(0): play seq c at cycle c.
        jb.push_with(0, |f| {
            for i in 0..4 {
                f.set_sample(0, i, 1.0);
            }
        });
        assert_eq!(jb.pop(0, &mut out), PopOutcome::Played);
        assert_eq!(jb.pop(1, &mut out), PopOutcome::Concealed);
        let fade = JitterConfig::default().fade;
        assert!((out.sample(0, 0) - fade).abs() < 1e-6);
        assert_eq!(jb.pop(2, &mut out), PopOutcome::Concealed);
        assert!((out.sample(0, 0) - fade * fade).abs() < 1e-6);
    }
}
