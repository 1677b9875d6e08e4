//! Deterministic topology-switch scripts: the workload half of the live
//! reconfiguration experiment (E13).
//!
//! A script is a list of cycle-stamped topology actions — deck loads and
//! ejects, FX-slot inserts and removals — that a bench harness replays
//! against a running engine. The generator tracks the shape it has
//! produced so far, so every emitted action is valid when applied in
//! order; and it never touches decks A/B, which keep playing throughout
//! (a DJ's working decks are never the ones being swapped).

use djstar_dsp::rng::SmallRng;

/// One topology action, engine-agnostic (the bench harness maps these to
/// the engine's `GraphEdit`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchAction {
    /// Load deck `d`.
    LoadDeck(usize),
    /// Eject deck `d`.
    UnloadDeck(usize),
    /// Append an FX slot to deck `d`'s chain.
    InsertFxSlot(usize),
    /// Remove the last FX slot of deck `d`'s chain.
    RemoveFxSlot(usize),
}

/// A topology action scheduled at an engine cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Cycle (0-based) immediately before which the switch is applied.
    pub at_cycle: usize,
    /// What to change.
    pub action: SwitchAction,
}

/// A replayable topology-switch script, sorted by cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchScript {
    events: Vec<SwitchEvent>,
}

impl SwitchScript {
    /// The scheduled switches, in cycle order.
    pub fn events(&self) -> &[SwitchEvent] {
        &self.events
    }

    /// Number of switches in the script.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Cycle of the last switch (0 when empty).
    pub fn last_cycle(&self) -> usize {
        self.events.last().map(|e| e.at_cycle).unwrap_or(0)
    }
}

/// Bounds the generator keeps FX chains inside (matching the engine's
/// 1..=8 slot range without depending on it).
const MIN_FX: usize = 1;
const MAX_FX: usize = 8;

/// The action that undoes `action` (same deck, opposite direction).
fn inverse(action: SwitchAction) -> SwitchAction {
    match action {
        SwitchAction::LoadDeck(d) => SwitchAction::UnloadDeck(d),
        SwitchAction::UnloadDeck(d) => SwitchAction::LoadDeck(d),
        SwitchAction::InsertFxSlot(d) => SwitchAction::RemoveFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => SwitchAction::InsertFxSlot(d),
    }
}

/// Generate a revisit-biased mode walk: `switches` valid topology actions,
/// one every `period_cycles` cycles starting at `period_cycles`, produced
/// by a seeded RNG so every run of a given `(switches, period_cycles,
/// seed)` triple replays the identical script. Every other step (on
/// average) *undoes* the previous action, so the walk oscillates between a
/// handful of recurring shapes instead of drifting — the workload of a
/// performer flipping between set modes, and the access pattern a
/// per-shape blueprint cache exists for (E19).
///
/// Decks A and B (0, 1) are never loaded or ejected — they are the
/// playing decks; the walk churns decks C/D and FX chains on all four
/// decks. Actions are validated against the shape the script itself has
/// built up (starting from the paper default: all decks loaded, four FX
/// slots each), so replaying them in order never produces an invalid
/// edit.
pub fn shape_walk(switches: usize, period_cycles: usize, seed: u64) -> SwitchScript {
    let mut rng = SmallRng::seed_from_u64(seed);
    let period = period_cycles.max(1);
    let mut loaded = [true; 4];
    let mut fx = [4usize; 4];
    let mut events: Vec<SwitchEvent> = Vec::with_capacity(switches);
    let mut last: Option<SwitchAction> = None;
    for i in 0..switches {
        let at_cycle = (i + 1) * period;
        // Half the time, revisit the shape we just left.
        let revisit = last.map(inverse).filter(|_| rng.below(2) == 0);
        let action = match revisit {
            Some(back) => back,
            None => {
                let mut candidates: Vec<SwitchAction> = Vec::with_capacity(12);
                for (d, &is_loaded) in loaded.iter().enumerate().skip(2) {
                    candidates.push(if is_loaded {
                        SwitchAction::UnloadDeck(d)
                    } else {
                        SwitchAction::LoadDeck(d)
                    });
                }
                for d in 0..4 {
                    if !loaded[d] {
                        continue;
                    }
                    if fx[d] < MAX_FX {
                        candidates.push(SwitchAction::InsertFxSlot(d));
                    }
                    if fx[d] > MIN_FX {
                        candidates.push(SwitchAction::RemoveFxSlot(d));
                    }
                }
                candidates[rng.below(candidates.len())]
            }
        };
        match action {
            SwitchAction::LoadDeck(d) => loaded[d] = true,
            SwitchAction::UnloadDeck(d) => loaded[d] = false,
            SwitchAction::InsertFxSlot(d) => fx[d] += 1,
            SwitchAction::RemoveFxSlot(d) => fx[d] -= 1,
        }
        last = Some(action);
        events.push(SwitchEvent { at_cycle, action });
    }
    SwitchScript { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_walk_is_deterministic_valid_and_revisits() {
        assert_eq!(shape_walk(200, 5, 9), shape_walk(200, 5, 9));
        assert_ne!(
            shape_walk(200, 5, 9).events(),
            shape_walk(200, 5, 10).events()
        );
        let script = shape_walk(300, 5, 42);
        let mut loaded = [true; 4];
        let mut fx = [4usize; 4];
        // Shapes as (loaded, fx) snapshots after each step; revisits are
        // steps landing on a shape seen before.
        let mut seen: Vec<([bool; 4], [usize; 4])> = vec![(loaded, fx)];
        let mut revisits = 0usize;
        let mut last_cycle = 0;
        for e in script.events() {
            assert!(e.at_cycle > last_cycle, "switches must be spaced out");
            last_cycle = e.at_cycle;
            match e.action {
                SwitchAction::LoadDeck(d) => {
                    assert!(d >= 2 && !loaded[d]);
                    loaded[d] = true;
                }
                SwitchAction::UnloadDeck(d) => {
                    assert!(d >= 2 && loaded[d]);
                    loaded[d] = false;
                }
                SwitchAction::InsertFxSlot(d) => {
                    assert!(loaded[d] && fx[d] < MAX_FX);
                    fx[d] += 1;
                }
                SwitchAction::RemoveFxSlot(d) => {
                    assert!(loaded[d] && fx[d] > MIN_FX);
                    fx[d] -= 1;
                }
            }
            if seen.contains(&(loaded, fx)) {
                revisits += 1;
            } else {
                seen.push((loaded, fx));
            }
        }
        assert_eq!(script.last_cycle(), 1500);
        // The undo bias makes revisits the norm, not the exception.
        assert!(
            revisits >= script.len() / 3,
            "only {revisits}/{} steps revisited a known shape",
            script.len()
        );
    }

    #[test]
    fn shape_walk_exercises_every_action_kind() {
        let script = shape_walk(200, 3, 1);
        let mut kinds = [false; 4];
        for e in script.events() {
            match e.action {
                SwitchAction::LoadDeck(_) => kinds[0] = true,
                SwitchAction::UnloadDeck(_) => kinds[1] = true,
                SwitchAction::InsertFxSlot(_) => kinds[2] = true,
                SwitchAction::RemoveFxSlot(_) => kinds[3] = true,
            }
        }
        assert_eq!(kinds, [true; 4], "a 200-switch walk must mix all kinds");
    }
}
