//! Live-reconfiguration integration tests: every strategy adopts staged
//! topology generations glitch-free, audio stays bit-identical across
//! strategies under the same edit script, and the event middleware's
//! topology requests round-trip into graph edits.

use djstar_core::exec::Strategy;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::events::{ControlEvent, EventQueue};
use djstar_engine::reconfig::GraphEdit;
use djstar_engine::{GraphShape, APC_NODES};
use djstar_workload::scenario::Scenario;

fn light_engine(strategy: Strategy, threads: usize) -> AudioEngine {
    AudioEngine::with_aux(Scenario::light_test(), strategy, threads, AuxWork::light())
}

/// The edit script every test below replays: eject deck D, deepen deck A's
/// FX chain, bring deck D back, trim deck A again.
const SCRIPT: [(usize, &[GraphEdit]); 4] = [
    (10, &[GraphEdit::UnloadDeck(3)]),
    (
        20,
        &[GraphEdit::InsertFxSlot(0), GraphEdit::InsertFxSlot(0)],
    ),
    (30, &[GraphEdit::LoadDeck(3)]),
    (40, &[GraphEdit::RemoveFxSlot(0)]),
];

fn run_script(engine: &mut AudioEngine, cycles: usize) -> Vec<Vec<f32>> {
    let mut outputs = Vec::new();
    let mut script = SCRIPT.iter().peekable();
    for cycle in 0..cycles {
        if let Some(&&(at, edits)) = script.peek() {
            if cycle == at {
                engine.reconfigure(edits).expect("script edit applies");
                script.next();
            }
        }
        engine.run_apc();
        outputs.push(engine.output().samples().to_vec());
    }
    outputs
}

#[test]
fn all_strategies_swap_generations_without_diverging() {
    let mut reference = light_engine(Strategy::Sequential, 1);
    let want = run_script(&mut reference, 50);
    assert_eq!(reference.executor_mut().generation(), 4);
    for strategy in [
        Strategy::Busy,
        Strategy::Sleep,
        Strategy::Steal,
        Strategy::Hybrid,
        Strategy::Planned,
    ] {
        let mut engine = light_engine(strategy, 3);
        let got = run_script(&mut engine, 50);
        for (cycle, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                w, g,
                "{strategy:?} diverged from sequential at cycle {cycle}"
            );
        }
        // PLAN also commits its one re-plan, when the learning window
        // closes after cycle 16.
        let replans = u64::from(strategy == Strategy::Planned);
        assert_eq!(engine.executor_mut().generation(), 4 + replans);
    }
}

#[test]
fn reconfigure_updates_shape_and_node_map() {
    let mut engine = light_engine(Strategy::Steal, 2);
    engine.warmup(5);
    assert_eq!(engine.shape().node_count(), 67 + APC_NODES);
    engine.reconfigure(&[GraphEdit::UnloadDeck(2)]).unwrap();
    assert!(!engine.shape().deck_loaded[2]);
    assert_eq!(engine.shape().node_count(), 67 - 13 + APC_NODES);
    assert!(engine.node_map().deck(2).is_none());
    assert!(engine.node_map().deck(0).is_some());
    engine
        .reconfigure(&[GraphEdit::LoadDeck(2), GraphEdit::InsertFxSlot(2)])
        .unwrap();
    assert_eq!(engine.shape().fx_slots[2], 5);
    assert_eq!(engine.shape().node_count(), 67 + 1 + APC_NODES);
    assert!(engine.node_map().fx(2, 4).is_some());
    engine.warmup(5);
    assert!(engine.output().is_finite());
}

#[test]
fn staging_runs_off_the_audio_thread() {
    use djstar_engine::reconfig::{apply_edit, stage_topology};
    use djstar_engine::{hollow_graph, PartsBin};
    let mut engine = light_engine(Strategy::Busy, 2);
    engine.warmup(10);
    // Stage on another thread while the "audio thread" keeps cycling:
    // staging needs only copies of the scenario, shape and cost model,
    // and the resulting StagedTopology is Send, so a real host builds it
    // on a worker and hands it back for the cycle-boundary commit. The
    // worker knows which graph runs from its shape alone, so it can also
    // make the parts that graph cannot hand over (FXB5 and the rewired
    // mixer and cue bus here).
    let scenario = engine.scenario().clone();
    let running = *engine.shape();
    let strategy = engine.strategy();
    let threads = engine.threads();
    let costs = engine.costs().clone();
    let stager = std::thread::spawn(move || {
        let mut shape = running;
        apply_edit(&mut shape, GraphEdit::UnloadDeck(3)).unwrap();
        apply_edit(&mut shape, GraphEdit::InsertFxSlot(1)).unwrap();
        let frames = djstar_dsp::BUFFER_FRAMES;
        stage_topology(&scenario, &shape, strategy, threads, frames, &costs).map(|mut staged| {
            let (running, _) = hollow_graph(&scenario, &running);
            let built = staged.fill(&scenario, running.topology(), &mut PartsBin::default());
            assert_eq!(built, 3);
            staged
        })
    });
    engine.warmup(5); // audio keeps flowing while the stager works
    let staged = stager.join().expect("staging thread").expect("staging");
    assert_eq!(staged.node_count(), 67 - 13 + 1 + APC_NODES);
    let generation = engine.commit(staged).expect("commit");
    assert_eq!(generation, 1);
    engine.warmup(10);
    assert!(engine.output().is_finite());
    assert_eq!(engine.shape().fx_slots[1], 5);
}

#[test]
fn an_unfilled_generation_is_refused_whole() {
    use djstar_core::exec::SwapError;
    use djstar_engine::reconfig::{apply_edit, stage_topology};
    let mut engine = light_engine(Strategy::Busy, 2);
    let mut twin = light_engine(Strategy::Busy, 2);
    engine.warmup(10);
    twin.warmup(10);
    let before = (*engine.shape(), engine.generation());
    // Staged hollow and never filled: FXB5 has no processor and the
    // running graph has no FXB5 to carry one over from.
    let mut shape = *engine.shape();
    apply_edit(&mut shape, GraphEdit::InsertFxSlot(1)).unwrap();
    let frames = djstar_dsp::BUFFER_FRAMES;
    let staged = stage_topology(
        engine.scenario(),
        &shape,
        Strategy::Busy,
        2,
        frames,
        engine.costs(),
    )
    .expect("stages");
    let refused = engine.commit(staged);
    assert_eq!(
        refused,
        Err(SwapError::MissingPart {
            name: "FXB5".into()
        })
    );
    assert_eq!((*engine.shape(), engine.generation()), before);
    assert!(engine.node_map().fx(1, 4).is_none());
    assert!(engine.commit_cycles().is_empty());
    for _ in 0..10 {
        engine.run_apc();
        twin.run_apc();
        assert_eq!(engine.output().samples(), twin.output().samples());
    }
}

#[test]
fn carried_deck_state_survives_a_swap() {
    // A playing deck's audible output must continue seamlessly across an
    // unrelated topology edit: compare against an engine that never swaps.
    let mut plain = light_engine(Strategy::Sequential, 1);
    let mut swapped = light_engine(Strategy::Sequential, 1);
    plain.warmup(25);
    swapped.warmup(25);
    // Deck D carries no audible responsibility for deck A's channel.
    swapped.reconfigure(&[GraphEdit::UnloadDeck(3)]).unwrap();
    for _ in 0..10 {
        plain.run_apc();
        swapped.run_apc();
        let a = plain.node_map().channel(0).unwrap();
        let b = swapped.node_map().channel(0).unwrap();
        let mut buf_a = djstar_dsp::buffer::AudioBuf::stereo_default();
        let mut buf_b = djstar_dsp::buffer::AudioBuf::stereo_default();
        plain.executor_mut().read_output(a, &mut buf_a);
        swapped.executor_mut().read_output(b, &mut buf_b);
        assert_eq!(
            buf_a.samples(),
            buf_b.samples(),
            "deck A's channel changed because deck D was ejected"
        );
    }
}

#[test]
fn resize_threads_rebuilds_the_executor() {
    let mut engine = light_engine(Strategy::Sleep, 2);
    engine.warmup(5);
    engine.reconfigure(&[GraphEdit::ResizeThreads(4)]).unwrap();
    assert_eq!(engine.threads(), 4);
    // A rebuild starts a fresh executor: generation restarts at zero.
    assert_eq!(engine.executor_mut().generation(), 0);
    engine.warmup(10);
    assert!(engine.output().is_finite());
    // Shape edits in the same script still land.
    engine
        .reconfigure(&[GraphEdit::UnloadDeck(1), GraphEdit::ResizeThreads(2)])
        .unwrap();
    assert_eq!(engine.threads(), 2);
    assert!(!engine.shape().deck_loaded[1]);
    engine.warmup(5);
    assert!(engine.output().is_finite());
}

#[test]
fn invalid_edits_leave_the_engine_untouched() {
    let mut engine = light_engine(Strategy::Busy, 2);
    engine.warmup(5);
    let before_nodes = engine.shape().node_count();
    assert!(engine.reconfigure(&[GraphEdit::LoadDeck(0)]).is_err());
    assert!(engine.reconfigure(&[GraphEdit::LoadDeck(9)]).is_err());
    assert!(engine
        .reconfigure(&[GraphEdit::UnloadDeck(3), GraphEdit::InsertFxSlot(3)])
        .is_err());
    assert_eq!(engine.shape().node_count(), before_nodes);
    assert!(
        engine.shape().deck_loaded[3],
        "failed script partially applied"
    );
    assert_eq!(engine.executor_mut().generation(), 0);
    engine.warmup(5);
    assert!(engine.output().is_finite());
}

#[test]
fn topology_events_become_pending_edits() {
    let mut engine = light_engine(Strategy::Sequential, 1);
    let mut q = EventQueue::standard();
    q.push(0, ControlEvent::DeckLoadState(3, false));
    q.push(0, ControlEvent::FxChain(0, 6));
    // Duplicate requests are already satisfied by the pending queue:
    // valid no-ops that must not double-stage edits.
    q.push(0, ControlEvent::DeckLoadState(3, false));
    q.push(0, ControlEvent::FxChain(0, 6));
    engine.apply_events(&mut q);
    let edits = engine.take_pending_edits();
    assert_eq!(
        edits,
        vec![
            GraphEdit::UnloadDeck(3),
            GraphEdit::InsertFxSlot(0),
            GraphEdit::InsertFxSlot(0),
        ]
    );
    assert_eq!(engine.dropped_events(), 0);
    engine.reconfigure(&edits).unwrap();
    assert!(!engine.shape().deck_loaded[3]);
    assert_eq!(engine.shape().fx_slots[0], 6);
    assert_eq!(engine.take_pending_edits(), vec![]);
}

#[test]
fn out_of_range_events_are_counted_not_swallowed() {
    let mut engine = light_engine(Strategy::Sequential, 1);
    engine.reconfigure(&[GraphEdit::UnloadDeck(2)]).unwrap();
    let mut q = EventQueue::standard();
    q.push(0, ControlEvent::DeckGain(7, 0.5)); // no such deck
    q.push(0, ControlEvent::DeckEq(2, [1.0, 0.0, -1.0])); // deck unloaded
    q.push(0, ControlEvent::FxToggle(0, 4, true)); // slot beyond chain
    q.push(0, ControlEvent::FxChain(2, 3)); // resize of unloaded deck
    q.push(0, ControlEvent::Crossfader(0.25)); // valid, must still apply
    engine.apply_events(&mut q);
    assert_eq!(engine.dropped_events(), 4);
    assert!(engine.take_pending_edits().is_empty());
    engine.warmup(5);
    assert!(engine.output().is_finite());
}

#[test]
fn fx_toggle_state_survives_unrelated_swaps() {
    // Disable deck A's FX via events, swap deck D out, and verify the
    // toggle is still in force (the carried EffectNode kept its flag).
    let mut toggled = light_engine(Strategy::Sequential, 1);
    let mut control = light_engine(Strategy::Sequential, 1);
    let mut q = EventQueue::standard();
    for slot in 0..4 {
        q.push(0, ControlEvent::FxToggle(0, slot, false));
    }
    toggled.apply_events(&mut q);
    toggled.reconfigure(&[GraphEdit::UnloadDeck(3)]).unwrap();
    control.reconfigure(&[GraphEdit::UnloadDeck(3)]).unwrap();
    toggled.warmup(40);
    control.warmup(40);
    assert_ne!(
        toggled.output().samples(),
        control.output().samples(),
        "FX toggle was lost across the generation swap"
    );
}

#[test]
fn shaped_construction_matches_reconfigured_shape() {
    // Building at a shape and reconfiguring into it agree on topology.
    let mut shape = GraphShape::paper_default();
    shape.deck_loaded[2] = false;
    shape.fx_slots[1] = 6;
    let direct = AudioEngine::with_shape(
        Scenario::light_test(),
        shape,
        Strategy::Busy,
        2,
        AuxWork::light(),
    );
    let mut edited = light_engine(Strategy::Busy, 2);
    edited
        .reconfigure(&[
            GraphEdit::UnloadDeck(2),
            GraphEdit::InsertFxSlot(1),
            GraphEdit::InsertFxSlot(1),
        ])
        .unwrap();
    assert_eq!(direct.shape(), edited.shape());
    assert_eq!(direct.shape().node_count(), 67 - 13 + 2 + APC_NODES);
}

#[test]
fn deadline_governor_sheds_and_restores_through_the_engine() {
    use djstar_engine::degrade::{GovernorAction, GovernorConfig};
    let mut engine = light_engine(Strategy::Busy, 2);
    engine.warmup(5);
    let full = *engine.shape();
    assert!(full.fx_slots.iter().all(|&n| n > 1), "nothing to shed");
    let cfg = GovernorConfig {
        window: 8,
        shed_misses: 4,
        restore_clean: 16,
        restore_tolerance: 0,
        min_dwell: 4,
    };
    engine.enable_degradation(cfg);
    // Scripted verdicts, two overload episodes: sustained misses, then
    // clean air. A shed may only commit inside a miss phase and a
    // restore only inside a clean one.
    let script = [(true, 12), (false, 30), (true, 12), (false, 30)];
    let mut actions = Vec::new();
    for (missed, cycles) in script {
        for _ in 0..cycles {
            engine.run_apc();
            assert!(engine.output().is_finite());
            let Some(outcome) = engine.observe_deadline(missed) else {
                continue;
            };
            match outcome.action {
                GovernorAction::Shed => {
                    assert!(missed, "shed during clean air");
                    assert!(engine.is_degraded());
                    for d in 0..4 {
                        assert_eq!(engine.shape().fx_slots[d], 1, "deck {d} chain not trimmed");
                    }
                }
                GovernorAction::Restore => {
                    assert!(!missed, "restore under sustained misses");
                    assert!(!engine.is_degraded());
                    assert_eq!(*engine.shape(), full, "restore lost the saved shape");
                }
            }
            assert_eq!(engine.generation(), outcome.generation);
            actions.push(outcome.action);
        }
    }
    use GovernorAction::{Restore, Shed};
    assert_eq!(actions, [Shed, Restore, Shed, Restore]);
    let events = engine.degrade_events();
    assert_eq!(events.iter().map(|e| e.action).collect::<Vec<_>>(), actions);
    for pair in events.windows(2) {
        assert!(pair[1].cycle >= pair[0].cycle + cfg.min_dwell);
    }
    assert_eq!(*engine.shape(), full);
}
