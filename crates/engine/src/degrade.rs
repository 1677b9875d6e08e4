//! Graceful degradation: the one governor behind both of the engine's
//! trades (E14, E17).
//!
//! A real DJ set must keep producing audio when something cannot keep
//! up — a glitch is worse than a temporarily thinner mix, and a dropout is
//! worse than a little more latency. The engine makes two such trades:
//!
//! * the **deadline axis** trades *quality* (FX slots, aux-phase work) for
//!   deadline headroom, fed by each cycle's deadline verdict;
//! * the **network axis** trades *latency* (jitter-buffer playout depth)
//!   for fewer concealed frames, fed by each cycle's conceal count.
//!
//! Both are one [`Governor`]: a rung on a ladder `[floor, ceiling]` that
//! moves by `step`, under one hysteresis state machine. The deadline axis
//! is the fixed two-rung ladder full (0) → shed (1)
//! ([`Governor::deadline`]); the network axis climbs the scenario's depth
//! range ([`Governor::depth`]). This module decides *when* to move; the
//! mechanics (dropping FX slots, retargeting the carried jitter buffers,
//! both through the generation-swap path) live in
//! [`AudioEngine::observe_deadline`](crate::apc::AudioEngine::observe_deadline)
//! and [`AudioEngine::observe_network`](crate::apc::AudioEngine::observe_network).
//!
//! # State machine
//!
//! The evidence is a per-cycle miss count (deadline misses, or frames
//! that missed their playout slot). Hysteresis on both edges:
//!
//! * [`GovernorAction::Shed`] (one step up, clamped to the ceiling) when
//!   at least [`shed_misses`](GovernorConfig::shed_misses) misses fell in
//!   the last [`window`](GovernorConfig::window) cycles — a *sustained*
//!   signal, so an isolated hiccup never sheds.
//! * [`GovernorAction::Restore`] (one step down, clamped to the floor)
//!   after a full [`restore_clean`](GovernorConfig::restore_clean)-cycle
//!   observation chunk above the floor with at most
//!   [`restore_tolerance`](GovernorConfig::restore_tolerance) misses. The
//!   tolerance matters on real hosts: a shared machine sprinkles ~1 %
//!   random stall misses over any run, and a strict zero-miss-streak
//!   condition would block restoration forever. A chunk that exceeds the
//!   tolerance simply starts a fresh chunk, so sustained pressure holds
//!   the rung while sparse noise cannot. A multi-rung ladder therefore
//!   climbs in `step` jumps and descends one step per clean chunk.
//!
//! Oscillation is impossible by construction, not by tuning:
//!
//! 1. Any transition arms a dwell timer; no further transition is
//!    considered for [`min_dwell`](GovernorConfig::min_dwell) cycles.
//! 2. Every transition clears the miss window and the restore chunk, so
//!    the evidence for the *next* transition must accumulate entirely
//!    after the current one — pre-transition misses can never justify a
//!    re-shed after a restore.
//!
//! Together these bound the transition rate at one per `min_dwell`
//! cycles and force each transition to be justified by fresh evidence.

/// Hysteresis thresholds of one governor axis. Cycle counts, not wall
/// time — the engine observes one piece of evidence per audio cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Sliding window (in cycles) over which misses are counted.
    pub window: usize,
    /// Misses within the window that trigger a shed.
    pub shed_misses: usize,
    /// Length (in cycles) of the observation chunk one restore step needs.
    pub restore_clean: usize,
    /// Misses a restore chunk may contain and still count as clean
    /// (absorbs host-noise misses; sustained pressure always exceeds it).
    pub restore_tolerance: usize,
    /// Minimum cycles between two transitions (both directions).
    pub min_dwell: u64,
}

impl GovernorConfig {
    /// Deadline-axis defaults, sized for the 2.9 ms cycle: react to
    /// sustained overload within ~1/8 s, restore after ~1/4 s of
    /// near-clean running, and never transition more than ~5×/s.
    pub const DEADLINE: GovernorConfig = GovernorConfig {
        window: 32,
        shed_misses: 4,
        restore_clean: 96,
        restore_tolerance: 4,
        min_dwell: 64,
    };

    /// Network-axis defaults: react to a dropout burst within ~1/10 s,
    /// recover one step of latency per ~3/4 s of clean reception, and
    /// never retune more than ~5×/s.
    pub const NETWORK: GovernorConfig = GovernorConfig {
        window: 32,
        shed_misses: 2,
        restore_clean: 256,
        restore_tolerance: 0,
        min_dwell: 64,
    };
}

/// A transition the governor wants the engine to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Climb one step: shed FX quality, or deepen the jitter buffers.
    Shed,
    /// Descend one step: restore full quality, or win back latency.
    Restore,
}

/// A committed transition, for telemetry and the E14/E17 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorEvent {
    /// Engine cycle at which the transition was committed.
    pub cycle: u64,
    /// Which way it went.
    pub action: GovernorAction,
    /// The rung it landed on (deadline: 0 full, 1 shed; network: the
    /// playout depth).
    pub rung: u32,
}

/// The hysteresis ladder. Allocation-free after construction except for
/// the event log (one small push per committed transition, amortized by a
/// reserved capacity — transitions are rare by design).
#[derive(Debug)]
pub struct Governor {
    cfg: GovernorConfig,
    floor: u32,
    ceiling: u32,
    step: u32,
    rung: u32,
    /// Ring of the last `cfg.window` per-cycle miss counts.
    ring: Vec<u32>,
    head: usize,
    filled: usize,
    misses_in_window: u64,
    /// Cycles observed in the current restore chunk.
    chunk_cycles: usize,
    /// Misses observed in the current restore chunk.
    chunk_misses: u64,
    last_transition: Option<u64>,
    events: Vec<GovernorEvent>,
}

impl Governor {
    /// The deadline axis: full (rung 0) or shed (rung 1), starting at
    /// `rung` (clamped).
    pub fn deadline(cfg: GovernorConfig, rung: u32) -> Self {
        Self::new(cfg, 0, 1, 1, rung)
    }

    /// The network axis: playout depths `[min_depth, max_depth]` in
    /// `step`-cycle jumps, starting at `start` (clamped). A depth ladder
    /// starts at 1 and is at least one rung tall; `step` is at least 1.
    pub fn depth(
        cfg: GovernorConfig,
        min_depth: u32,
        max_depth: u32,
        step: u32,
        start: u32,
    ) -> Self {
        let floor = min_depth.max(1);
        Self::new(cfg, floor, max_depth.max(floor), step.max(1), start)
    }

    /// Degenerate configs are clamped into sanity (`window ≥ 1`,
    /// `1 ≤ shed_misses ≤ window`, `restore_clean ≥ 1`,
    /// `restore_tolerance < restore_clean`) rather than rejected — a
    /// governor must never panic mid-set.
    fn new(cfg: GovernorConfig, floor: u32, ceiling: u32, step: u32, start: u32) -> Self {
        let window = cfg.window.max(1);
        let restore_clean = cfg.restore_clean.max(1);
        let cfg = GovernorConfig {
            window,
            shed_misses: cfg.shed_misses.clamp(1, window),
            restore_clean,
            restore_tolerance: cfg.restore_tolerance.min(restore_clean - 1),
            min_dwell: cfg.min_dwell,
        };
        Governor {
            cfg,
            floor,
            ceiling,
            step,
            rung: start.clamp(floor, ceiling),
            ring: vec![0; window],
            head: 0,
            filled: 0,
            misses_in_window: 0,
            chunk_cycles: 0,
            chunk_misses: 0,
            last_transition: None,
            events: Vec::with_capacity(64),
        }
    }

    /// The rung the governor currently holds.
    pub fn rung(&self) -> u32 {
        self.rung
    }

    /// Committed transitions, oldest first.
    pub fn events(&self) -> &[GovernorEvent] {
        &self.events
    }

    /// The rung `action` moves to from the current one.
    pub fn rung_after(&self, action: GovernorAction) -> u32 {
        match action {
            GovernorAction::Shed => (self.rung + self.step).min(self.ceiling),
            GovernorAction::Restore => self.rung.saturating_sub(self.step).max(self.floor),
        }
    }

    /// Record one cycle's evidence: how many misses it saw. Pure
    /// bookkeeping; pair with [`pending`](Self::pending) /
    /// [`transition`](Self::transition), or use [`step`](Self::step) to do
    /// all three.
    pub fn record(&mut self, misses: u32) {
        if self.filled == self.cfg.window {
            self.misses_in_window -= u64::from(self.ring[self.head]);
        } else {
            self.filled += 1;
        }
        self.ring[self.head] = misses;
        self.misses_in_window += u64::from(misses);
        self.head = (self.head + 1) % self.cfg.window;
        if self.rung > self.floor {
            self.chunk_cycles += 1;
            self.chunk_misses += u64::from(misses);
            // A chunk that blew its tolerance can never justify a
            // restore; start observing afresh.
            if self.chunk_cycles >= self.cfg.restore_clean
                && self.chunk_misses > self.cfg.restore_tolerance as u64
            {
                self.chunk_cycles = 0;
                self.chunk_misses = 0;
            }
        }
    }

    /// The transition the evidence currently justifies at `cycle`, if
    /// any. Read-only: the engine performs the (fallible) topology swap
    /// first and only then commits via [`transition`](Self::transition),
    /// so a failed swap is retried next cycle with no state torn.
    pub fn pending(&self, cycle: u64) -> Option<GovernorAction> {
        if let Some(t) = self.last_transition {
            if cycle.saturating_sub(t) < self.cfg.min_dwell {
                return None;
            }
        }
        if self.rung < self.ceiling && self.misses_in_window >= self.cfg.shed_misses as u64 {
            Some(GovernorAction::Shed)
        } else if self.rung > self.floor
            && self.chunk_cycles >= self.cfg.restore_clean
            && self.chunk_misses <= self.cfg.restore_tolerance as u64
        {
            Some(GovernorAction::Restore)
        } else {
            None
        }
    }

    /// Commit a transition at `cycle`: move the rung, log the event, arm
    /// the dwell timer, and clear both evidence accumulators so the next
    /// transition needs entirely fresh evidence. Returns the new rung.
    pub fn transition(&mut self, cycle: u64, action: GovernorAction) -> u32 {
        self.rung = self.rung_after(action);
        self.last_transition = Some(cycle);
        self.ring.fill(0);
        self.head = 0;
        self.filled = 0;
        self.misses_in_window = 0;
        self.chunk_cycles = 0;
        self.chunk_misses = 0;
        self.events.push(GovernorEvent {
            cycle,
            action,
            rung: self.rung,
        });
        self.rung
    }

    /// Record + decide + commit in one call, for hosts without a
    /// fallible actuation step between decision and commitment.
    pub fn step(&mut self, cycle: u64, misses: u32) -> Option<GovernorAction> {
        self.record(misses);
        let action = self.pending(cycle)?;
        self.transition(cycle, action);
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GovernorAction::{Restore, Shed};

    fn cfg() -> GovernorConfig {
        GovernorConfig {
            window: 8,
            shed_misses: 4,
            restore_clean: 6,
            restore_tolerance: 1,
            min_dwell: 10,
        }
    }

    fn full(cfg: GovernorConfig) -> Governor {
        Governor::deadline(cfg, 0)
    }

    /// Drive a deadline governor with a closure `cycle -> missed`.
    fn drive(
        g: &mut Governor,
        cycles: std::ops::Range<u64>,
        missed: impl Fn(u64) -> bool,
    ) -> Vec<GovernorEvent> {
        let before = g.events().len();
        for c in cycles {
            g.step(c, u32::from(missed(c)));
        }
        g.events()[before..].to_vec()
    }

    fn is_degraded(g: &Governor) -> bool {
        g.rung() == 1
    }

    #[test]
    fn clean_input_never_transitions() {
        let mut p = full(cfg());
        let ev = drive(&mut p, 0..10_000, |_| false);
        assert!(ev.is_empty());
        assert!(!is_degraded(&p));
    }

    #[test]
    fn isolated_misses_below_threshold_never_shed() {
        let mut p = full(cfg());
        // 3 misses per 8-cycle window, threshold is 4.
        let ev = drive(&mut p, 0..10_000, |c| c % 8 < 3);
        assert!(ev.is_empty());
    }

    #[test]
    fn sustained_misses_shed_and_clean_air_restores() {
        let mut p = full(cfg());
        let ev = drive(&mut p, 0..100, |c| c < 50);
        assert_eq!(ev.len(), 2, "one shed, one restore: {ev:?}");
        assert_eq!(ev[0].action, Shed);
        assert_eq!(ev[1].action, Restore);
        // Shed as soon as the evidence allows: cycle shed_misses - 1.
        assert_eq!(ev[0].cycle, 3);
        // Pressure clears at 50 mid-chunk; that chunk resets at 51 (too
        // many misses), and the first clean chunk [52, 57] restores.
        assert_eq!(ev[1].cycle, 57);
        assert!(!is_degraded(&p));
    }

    #[test]
    fn restore_is_always_attempted_once_pressure_clears() {
        // Whatever miss pattern preceded it, a long-enough clean stretch
        // always restores.
        for storm_len in [10u64, 137, 1000] {
            let mut p = full(cfg());
            drive(&mut p, 0..storm_len, |c| c % 3 != 2); // 2/3 miss rate
            assert!(is_degraded(&p), "storm_len={storm_len}");
            let ev = drive(&mut p, storm_len..storm_len + 200, |_| false);
            assert_eq!(ev.len(), 1, "storm_len={storm_len}");
            assert_eq!(ev[0].action, Restore);
            assert!(!is_degraded(&p));
        }
    }

    #[test]
    fn transitions_alternate_and_respect_dwell() {
        // Adversarial input engineered to oscillate as fast as possible:
        // miss whenever running at full quality, clean whenever degraded.
        let mut p = full(cfg());
        let mut events = Vec::new();
        let mut degraded = false;
        for c in 0..100_000u64 {
            if let Some(a) = p.step(c, u32::from(!degraded)) {
                degraded = a == Shed;
                events.push((c, a));
            }
        }
        assert!(events.len() > 2, "adversary should force transitions");
        for pair in events.windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "must alternate");
            assert!(
                pair[1].0 - pair[0].0 >= cfg().min_dwell,
                "dwell violated: {pair:?}"
            );
        }
    }

    #[test]
    fn shed_restore_shed_within_dwell_is_impossible_by_construction() {
        // Strongest oscillation bound: even if every cycle between them
        // missed, a re-shed needs (a) the dwell to expire and (b)
        // shed_misses fresh misses after the restore cleared the window.
        let c = cfg();
        let mut p = full(c);
        drive(&mut p, 0..10, |_| true);
        assert!(is_degraded(&p));
        // Clean air long enough to restore (the first chunk absorbs the
        // storm's tail and resets; the next clean chunk restores).
        let ev = drive(&mut p, 10..30, |_| false);
        assert_eq!(ev.len(), 1);
        let restore_cycle = ev[0].cycle;
        // All-miss input again: the earliest legal re-shed is bounded
        // below by BOTH restore_cycle + min_dwell and restore_cycle +
        // shed_misses (window was cleared).
        let ev = drive(&mut p, 30..200, |_| true);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].action, Shed);
        assert!(ev[0].cycle >= restore_cycle + c.min_dwell);
        assert!(ev[0].cycle as i64 - 30 >= c.shed_misses as i64 - 1);
    }

    #[test]
    fn failed_actuation_is_retried_without_state_loss() {
        // The engine path: record + pending, but skip transition (e.g. a
        // staging failure). The decision must persist to the next cycle.
        let mut p = full(cfg());
        for _ in 0..4 {
            p.record(1);
        }
        assert_eq!(p.pending(3), Some(Shed));
        // Not committed; next cycle the verdict stands.
        p.record(1);
        assert_eq!(p.pending(4), Some(Shed));
        p.transition(4, Shed);
        assert!(is_degraded(&p));
        assert_eq!(p.events().len(), 1);
    }

    #[test]
    fn sparse_noise_misses_do_not_block_restore() {
        // The failure mode a strict clean-streak condition has on real
        // hosts: ~2 % random stall misses while degraded must not pin
        // the engine in degraded mode forever.
        let mut p = full(GovernorConfig {
            window: 8,
            shed_misses: 4,
            restore_clean: 100,
            restore_tolerance: 3,
            min_dwell: 10,
        });
        drive(&mut p, 0..10, |_| true);
        assert!(is_degraded(&p));
        let ev = drive(&mut p, 10..400, |c| c % 50 == 0);
        assert_eq!(ev.len(), 1, "sparse noise blocked the restore: {ev:?}");
        assert_eq!(ev[0].action, Restore);
        assert!(!is_degraded(&p));
    }

    #[test]
    fn sustained_pressure_exceeds_the_tolerance_and_blocks_restore() {
        let mut p = full(GovernorConfig {
            window: 8,
            shed_misses: 4,
            restore_clean: 20,
            restore_tolerance: 3,
            min_dwell: 10,
        });
        // Shed, then keep missing every third cycle (a 33 % miss rate is
        // pressure, not noise): every chunk blows its tolerance.
        drive(&mut p, 0..10, |_| true);
        let ev = drive(&mut p, 10..2_000, |c| c % 3 == 0);
        assert!(ev.is_empty(), "pressure must hold the shed: {ev:?}");
        assert!(is_degraded(&p));
    }

    fn net_cfg() -> GovernorConfig {
        GovernorConfig {
            window: 8,
            shed_misses: 2,
            restore_clean: 12,
            restore_tolerance: 0,
            min_dwell: 10,
        }
    }

    /// The depth ladder of the network unit tests: depths 1..=9, step 2.
    fn net(start: u32) -> Governor {
        Governor::depth(net_cfg(), 1, 9, 2, start)
    }

    #[test]
    fn clean_reception_never_retunes() {
        let mut p = net(1);
        for c in 0..10_000u64 {
            assert!(p.step(c, 0).is_none());
        }
        assert_eq!(p.rung(), 1);
    }

    #[test]
    fn dropout_bursts_climb_the_ladder_and_clean_air_descends_it() {
        let mut p = net(1);
        // A dropout storm: one conceal per cycle for 40 cycles.
        for c in 0..40u64 {
            p.step(c, 1);
        }
        assert_eq!(p.rung(), 9, "storm should drive to max depth");
        let climbs = p.events().len();
        assert!(climbs >= 3, "ladder climbs in steps: {:?}", p.events());
        for pair in p.events().windows(2) {
            assert!(pair[1].cycle - pair[0].cycle >= net_cfg().min_dwell);
        }
        // Clean air: chunked restore walks back down one step at a time.
        for c in 40..2_000u64 {
            p.step(c, 0);
        }
        assert_eq!(p.rung(), 1, "clean air must recover the latency");
        let descents = &p.events()[climbs..];
        assert!(descents.len() >= 4, "one step per chunk: {descents:?}");
        for e in descents {
            assert_eq!(e.action, Restore);
        }
        for pair in descents.windows(2) {
            assert!(
                pair[1].cycle - pair[0].cycle >= net_cfg().restore_clean as u64,
                "chunked restore: {pair:?}"
            );
        }
    }

    #[test]
    fn sustained_dropouts_hold_the_depth() {
        let mut p = net(1);
        for c in 0..100u64 {
            p.step(c, 1);
        }
        assert_eq!(p.rung(), 9);
        let before = p.events().len();
        // Keep concealing every 8th cycle: every restore chunk is dirty.
        for c in 100..5_000u64 {
            p.step(c, u32::from(c % 8 == 0));
        }
        assert_eq!(p.rung(), 9, "pressure must hold the depth");
        assert_eq!(p.events().len(), before);
    }

    #[test]
    fn net_transitions_respect_dwell_under_adversarial_input() {
        // Conceal exactly when shallow, play clean when deep — the
        // fastest oscillation an adversary can force.
        let mut p = net(1);
        for c in 0..50_000u64 {
            let conceals = u32::from(p.rung() <= 3);
            p.step(c, conceals);
        }
        assert!(p.events().len() > 2);
        for pair in p.events().windows(2) {
            assert!(
                pair[1].cycle - pair[0].cycle >= net_cfg().min_dwell,
                "dwell violated: {pair:?}"
            );
        }
    }

    #[test]
    fn failed_net_actuation_is_retried_without_state_loss() {
        let mut p = net(1);
        p.record(1);
        p.record(1);
        let a = p.pending(1).expect("two conceals reach the watermark");
        assert_eq!((a, p.rung_after(a)), (Shed, 3));
        // Not committed (staging failed); the verdict stands next cycle.
        p.record(0);
        assert_eq!(p.pending(2), Some(Shed));
        assert_eq!(p.rung_after(Shed), 3);
        p.transition(2, a);
        assert_eq!(p.rung(), 3);
    }

    const ZERO: GovernorConfig = GovernorConfig {
        window: 0,
        shed_misses: 0,
        restore_clean: 0,
        restore_tolerance: 0,
        min_dwell: 0,
    };

    #[test]
    fn net_degenerate_configs_are_clamped_not_fatal() {
        let p = Governor::depth(ZERO, 0, 0, 0, 0);
        let c = p.cfg;
        assert_eq!(c.window, 1);
        assert_eq!(c.shed_misses, 1);
        assert_eq!(c.restore_clean, 1);
        assert_eq!(p.step, 1);
        assert_eq!(p.floor, 1);
        assert!(p.ceiling >= p.floor);
        assert_eq!(p.rung(), 1);
    }

    #[test]
    fn degenerate_configs_are_clamped_not_fatal() {
        let p = full(GovernorConfig {
            restore_tolerance: 9,
            ..ZERO
        });
        let c = p.cfg;
        assert_eq!(c.window, 1);
        assert_eq!(c.shed_misses, 1);
        assert_eq!(c.restore_clean, 1);
        // Tolerance may never reach the chunk length, or a chunk of pure
        // misses would read as clean.
        assert_eq!(c.restore_tolerance, 0);
    }

    // ---- Golden logs: the governor is both pre-merge policies ----

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    const GOLDEN_STREAMS: u64 = 64;
    const GOLDEN_CYCLES: usize = 3_000;

    /// One seeded evidence stream of `(misses, commit)` per cycle: phases
    /// of 16..400 cycles, each with its own miss rate (0, 1, 8, 21, 48 or
    /// 64 in 64); a missing cycle counts `1..=max_misses`; one pending
    /// transition in eight is left uncommitted (a failed actuation).
    fn evidence_stream(seed: u64, max_misses: u32) -> Vec<(u32, bool)> {
        const RATES: [u64; 6] = [0, 1, 8, 21, 48, 64];
        let mut s = seed;
        let mut out = Vec::with_capacity(GOLDEN_CYCLES);
        while out.len() < GOLDEN_CYCLES {
            let len = 16 + splitmix(&mut s) % 384;
            let rate = RATES[(splitmix(&mut s) % 6) as usize];
            for _ in 0..len {
                let missed = splitmix(&mut s) % 64 < rate;
                let misses = if missed {
                    1 + (splitmix(&mut s) % u64::from(max_misses)) as u32
                } else {
                    0
                };
                out.push((misses, !splitmix(&mut s).is_multiple_of(8)));
            }
        }
        out.truncate(GOLDEN_CYCLES);
        out
    }

    fn fnv(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// FNV-1a of the `(cycle, rung)` event logs of 64 seeded streams,
    /// driven the engine's way (record, pending, then a commit that may
    /// fail), and the total event count.
    fn golden(max_misses: u32, mut build: impl FnMut(u64) -> Governor) -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut total = 0;
        for stream in 0..GOLDEN_STREAMS {
            let mut g = build(stream);
            for (c, &(misses, commit)) in evidence_stream(stream, max_misses).iter().enumerate() {
                let c = c as u64;
                g.record(misses);
                match g.pending(c) {
                    Some(a) if commit => {
                        g.transition(c, a);
                    }
                    _ => {}
                }
            }
            fnv(&mut h, stream);
            fnv(&mut h, g.events().len() as u64);
            for e in g.events() {
                fnv(&mut h, e.cycle);
                fnv(&mut h, u64::from(e.rung));
            }
            total += g.events().len();
        }
        (h, total)
    }

    fn hysteresis(w: usize, m: usize, r: usize, t: usize, d: u64) -> GovernorConfig {
        GovernorConfig {
            window: w,
            shed_misses: m,
            restore_clean: r,
            restore_tolerance: t,
            min_dwell: d,
        }
    }

    /// Hashes recorded from the separate deadline and network policies
    /// this type replaced, on every config the repository used with them:
    /// the defaults, the unit tests above, the engine tests and
    /// `net_differential.rs`'s governor.
    #[test]
    fn golden_logs_match_the_pre_merge_policies() {
        let deadline = [
            ("default", GovernorConfig::DEADLINE, 0x98e0_b002_8c49_4cb6),
            ("unit", cfg(), 0x9bd7_8208_0adf_ae1d),
            (
                "sparse",
                hysteresis(8, 4, 100, 3, 10),
                0x90cf_fa13_83c4_59d2,
            ),
            (
                "sustained",
                hysteresis(8, 4, 20, 3, 10),
                0xc818_27ca_27b3_c21e,
            ),
            (
                "degenerate",
                hysteresis(0, 0, 0, 9, 0),
                0x8e9b_21c8_d91a_693b,
            ),
            ("engine", hysteresis(8, 4, 16, 0, 4), 0x40ce_6cbb_f1f8_e44f),
        ];
        for (name, cfg, want) in deadline {
            let (h, events) = golden(1, |_| full(cfg));
            assert!(events > 0, "deadline {name}: no transitions");
            assert_eq!(h, want, "deadline {name}: {h:#018x}");
        }
        // (config, min depth, max depth, step); odd streams start on a
        // random depth in 0..=max+2 to exercise the start clamp.
        let network = [
            (
                "default",
                GovernorConfig::NETWORK,
                1,
                12,
                2,
                0x6cca_a4b8_9727_e229,
            ),
            ("unit", net_cfg(), 1, 9, 2, 0xb647_e671_28db_8956),
            ("degenerate", ZERO, 0, 0, 0, 0xe4da_7b70_f43d_4325),
            (
                "differential",
                hysteresis(8, 1, 48, 0, 2),
                1,
                12,
                4,
                0x48fd_93d0_7901_5c51,
            ),
            (
                "engine",
                hysteresis(8, 2, 512, 0, 6),
                1,
                8,
                2,
                0x7932_5381_7ec8_83aa,
            ),
        ];
        for (name, cfg, min, max, step, want) in network {
            let (h, _) = golden(3, |stream| {
                let mut s = !stream;
                let start = if stream.is_multiple_of(2) {
                    min
                } else {
                    (splitmix(&mut s) % (u64::from(max) + 3)) as u32
                };
                Governor::depth(cfg, min, max, step, start)
            });
            assert_eq!(h, want, "network {name}: {h:#018x}");
        }
    }
}
