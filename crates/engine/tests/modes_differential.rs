//! Differential battery for the mode-aware blueprint cache (the test
//! counterpart of E19): replaying one seeded shape walk, an engine that
//! serves every switch from a warm [`BlueprintCache`] must stay
//! bit-identical to an engine compiling every blueprint fresh — across
//! all six strategies and 1/2/4 worker threads — and a cache that only
//! ever misses must be indistinguishable from having no cache at all.
//!
//! The two engines run in lockstep: each switch is staged on both, the
//! staged shapes (and, for PLAN, the compiled blueprints) are compared
//! before either commits, and every cycle's master output is folded
//! into per-engine FNV checksums that must agree at the end.

use djstar_core::exec::Strategy;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::reconfig::GraphEdit;
use djstar_engine::NodeCostModel;
use djstar_workload::scenario::Scenario;
use djstar_workload::{shape_walk, SwitchAction};

const SWITCHES: usize = 12;
const PERIOD: usize = 6;
const SEED: u64 = 0x00D1_FF19;

fn edit_for(action: SwitchAction) -> GraphEdit {
    match action {
        SwitchAction::LoadDeck(d) => GraphEdit::LoadDeck(d),
        SwitchAction::UnloadDeck(d) => GraphEdit::UnloadDeck(d),
        SwitchAction::InsertFxSlot(d) => GraphEdit::InsertFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => GraphEdit::RemoveFxSlot(d),
    }
}

fn fold_checksum(mut acc: u64, buf: &AudioBuf) -> u64 {
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

fn engine(strategy: Strategy, threads: usize) -> AudioEngine {
    AudioEngine::with_aux(Scenario::light_test(), strategy, threads, AuxWork::light())
}

/// Replay the walk on a cached and a fresh engine in lockstep and return
/// `(cached_checksum, fresh_checksum, hits, misses)`. `precompile`
/// selects the warm protocol (neighborhood precompiled before the storm
/// and after every commit) versus the always-miss protocol.
fn lockstep(strategy: Strategy, threads: usize, precompile: bool) -> (u64, u64, u64, u64) {
    let script = shape_walk(SWITCHES, PERIOD, SEED);
    let mut cached = engine(strategy, threads);
    let mut fresh = engine(strategy, threads);
    cached.warmup(10);
    fresh.warmup(10);
    // Staged blueprints are priced by each engine's own PLAN probe, and
    // two probes never measure the same nanoseconds: give both sides one
    // model, so equal blueprints mean an equal compile.
    fresh.recalibrate_admission(cached.costs().clone());
    cached.enable_mode_cache(32);
    if precompile {
        cached.precompile_neighborhood();
    }
    let total = script.last_cycle() + PERIOD;
    let mut acc_c = 0xcbf2_9ce4_8422_2325u64;
    let mut acc_f = acc_c;
    let mut next = 0usize;
    for cycle in 0..total {
        while next < script.len() && script.events()[next].at_cycle == cycle {
            let edit = edit_for(script.events()[next].action);
            let staged_c = cached.stage_edits(&[edit]).expect("cached stage");
            let staged_f = fresh.stage_edits(&[edit]).expect("fresh stage");
            assert_eq!(
                staged_c.shape(),
                staged_f.shape(),
                "{strategy:?}/{threads}: staged shapes diverged at cycle {cycle}"
            );
            if strategy == Strategy::Planned {
                assert_eq!(
                    staged_c.blueprint(),
                    staged_f.blueprint(),
                    "{strategy:?}/{threads}: cached blueprint differs from a \
                     fresh compile at cycle {cycle}"
                );
            }
            cached.commit(staged_c).expect("cached commit");
            fresh.commit(staged_f).expect("fresh commit");
            if precompile {
                cached.precompile_neighborhood();
            }
            next += 1;
        }
        cached.run_apc();
        fresh.run_apc();
        acc_c = fold_checksum(acc_c, &cached.output());
        acc_f = fold_checksum(acc_f, &fresh.output());
    }
    // Every staging compiled: no switch was refused for its blueprint.
    assert_eq!((cached.stage_failures(), fresh.stage_failures()), (0, 0));
    let stats = cached.mode_cache().expect("cache enabled").stats();
    (acc_c, acc_f, stats.hits, stats.misses)
}

#[test]
fn warm_cache_is_bit_exact_across_strategies_and_threads() {
    for strategy in Strategy::ALL {
        let threads: &[usize] = if strategy == Strategy::Sequential {
            &[1]
        } else {
            &[1, 2, 4]
        };
        for &t in threads {
            let (acc_c, acc_f, hits, misses) = lockstep(strategy, t, true);
            assert_eq!(
                acc_c, acc_f,
                "{strategy:?}/{t}: warm-cache audio diverged from fresh compiles"
            );
            // Every switch moves one edit from the precompiled
            // neighborhood, so the warm protocol never misses.
            assert_eq!(
                (hits, misses),
                (SWITCHES as u64, 0),
                "{strategy:?}/{t}: warm protocol should hit on every switch"
            );
        }
    }
}

#[test]
fn long_walk_keeps_latent_shape_fields_straight() {
    // A 100-switch walk revisits canonically-equal shapes that disagree
    // on latent don't-care fields (the FX count of an unloaded deck).
    // The per-switch shape assertions inside `lockstep` catch any hit
    // that resurrects a donor's latent fields — the bug class that only
    // appears once the walk unloads a deck, reshapes elsewhere, and
    // reloads it (first seen around switch 46 of this seed).
    let script = shape_walk(100, 3, SEED);
    let mut cached = engine(Strategy::Busy, 2);
    let mut fresh = engine(Strategy::Busy, 2);
    cached.warmup(10);
    fresh.warmup(10);
    cached.enable_mode_cache(32);
    cached.precompile_neighborhood();
    let mut acc_c = 0xcbf2_9ce4_8422_2325u64;
    let mut acc_f = acc_c;
    let mut next = 0usize;
    for cycle in 0..script.last_cycle() + 3 {
        while next < script.len() && script.events()[next].at_cycle == cycle {
            let edit = edit_for(script.events()[next].action);
            let staged_c = cached.stage_edits(&[edit]).expect("cached stage");
            let staged_f = fresh.stage_edits(&[edit]).expect("fresh stage");
            assert_eq!(
                staged_c.shape(),
                staged_f.shape(),
                "latent shape fields diverged at switch {next}"
            );
            cached.commit(staged_c).expect("cached commit");
            fresh.commit(staged_f).expect("fresh commit");
            cached.precompile_neighborhood();
            next += 1;
        }
        cached.run_apc();
        fresh.run_apc();
        acc_c = fold_checksum(acc_c, &cached.output());
        acc_f = fold_checksum(acc_f, &fresh.output());
    }
    assert_eq!(acc_c, acc_f, "long-walk audio diverged");
    assert_eq!(cached.mode_cache().unwrap().stats().misses, 0);
}

#[test]
fn cold_cache_misses_are_identical_to_no_cache() {
    // Cache armed but never precompiled: every take is a miss and the
    // engine falls through to a fresh compile — the audio (and the
    // staged shapes checked inside `lockstep`) must be unchanged.
    let (acc_c, acc_f, hits, misses) = lockstep(Strategy::Busy, 2, false);
    assert_eq!(acc_c, acc_f, "miss path diverged from the uncached engine");
    assert_eq!(hits, 0, "nothing was precompiled, so nothing may hit");
    assert_eq!(misses, SWITCHES as u64, "every switch should miss");
}

#[test]
fn recalibration_invalidates_midwalk_without_audible_effect() {
    // Swap the admission cost model halfway through the walk: the cache
    // epoch bumps, precompiled generations for the old calibration are
    // voided, and the audio must still match the fresh engine exactly.
    let script = shape_walk(SWITCHES, PERIOD, SEED);
    let mut cached = engine(Strategy::Steal, 2);
    let mut fresh = engine(Strategy::Steal, 2);
    cached.warmup(10);
    fresh.warmup(10);
    cached.enable_mode_cache(32);
    cached.precompile_neighborhood();
    let total = script.last_cycle() + PERIOD;
    let mut acc_c = 0xcbf2_9ce4_8422_2325u64;
    let mut acc_f = acc_c;
    let mut next = 0usize;
    let mut epoch_before = 0;
    let mut epoch_after = 0;
    for cycle in 0..total {
        while next < script.len() && script.events()[next].at_cycle == cycle {
            if next == SWITCHES / 2 {
                epoch_before = cached.mode_cache().unwrap().epoch();
                cached.recalibrate_admission(NodeCostModel::uniform(1_000));
                epoch_after = cached.mode_cache().unwrap().epoch();
                assert!(cached.mode_cache().unwrap().is_empty());
            }
            let edit = edit_for(script.events()[next].action);
            let staged_c = cached.stage_edits(&[edit]).expect("cached stage");
            let staged_f = fresh.stage_edits(&[edit]).expect("fresh stage");
            assert_eq!(staged_c.shape(), staged_f.shape());
            cached.commit(staged_c).expect("cached commit");
            fresh.commit(staged_f).expect("fresh commit");
            cached.precompile_neighborhood();
            next += 1;
        }
        cached.run_apc();
        fresh.run_apc();
        acc_c = fold_checksum(acc_c, &cached.output());
        acc_f = fold_checksum(acc_f, &fresh.output());
    }
    assert!(
        epoch_after > epoch_before,
        "recalibration must bump the epoch"
    );
    assert_eq!(acc_c, acc_f, "post-invalidation audio diverged");
    let stats = cached.mode_cache().unwrap().stats();
    assert!(stats.invalidations >= 1);
    assert!(
        stats.hits + stats.misses == SWITCHES as u64,
        "every switch takes exactly one cache lookup"
    );
}

#[test]
fn a_reloaded_deck_starts_from_parts_that_never_ran() {
    // Eject deck C mid-set and load it again. The cached engine serves the
    // reload from its cache and the deck's thirteen processors from the
    // parts bin; the fresh engine builds them on the spot. If the bin (or
    // a recycled retired generation) ever handed out a processor that had
    // processed audio, deck C's delay lines would still be ringing.
    let mut cached = engine(Strategy::Busy, 2);
    let mut fresh = engine(Strategy::Busy, 2);
    cached.enable_mode_cache(32);
    let mut both = |edit: Option<GraphEdit>, cycles: usize, compare_deck: bool| {
        if let Some(edit) = edit {
            cached.precompile_neighborhood();
            for e in [&mut cached, &mut fresh] {
                let staged = e.stage_edits(&[edit]).expect("stage");
                e.commit(staged).expect("commit");
            }
        }
        for cycle in 0..cycles {
            cached.run_apc();
            fresh.run_apc();
            assert_eq!(cached.output().samples(), fresh.output().samples());
            if !compare_deck {
                continue;
            }
            let deck = cached.node_map().deck(2).expect("deck C loaded").clone();
            let nodes = deck.sp.iter().chain(&deck.fx).chain([&deck.channel]);
            for &node in nodes {
                let (mut a, mut b) = (AudioBuf::stereo_default(), AudioBuf::stereo_default());
                cached.executor_mut().read_output(node, &mut a);
                fresh.executor_mut().read_output(node, &mut b);
                assert_eq!(a.samples(), b.samples(), "node {node} at cycle {cycle}");
            }
        }
    };
    both(None, 30, true);
    both(Some(GraphEdit::UnloadDeck(2)), 20, false);
    both(Some(GraphEdit::LoadDeck(2)), 40, true);
    let stats = cached.mode_cache().expect("cache enabled").stats();
    assert_eq!((stats.hits, stats.misses), (2, 0), "{stats:?}");
    assert_eq!(stats.parts_built_on_hit, 0, "the bin stocked every part");
}
