//! Differential determinism of the deck fronts: whatever lanes the four
//! per-deck TP → GP nodes land on, the deck audio they hand the graph —
//! and hence the output packets — must be bit-identical to a SEQ × 1
//! twin, which runs the same graph inline on the driver.
//!
//! The script exercises everything that reaches into the front nodes from
//! outside: `Nudge` events (state owned by a front node, written by the
//! event middleware between cycles), a deck unload/load walk through
//! `stage_edits`/`commit` (the fronts are carried across every generation
//! swap), a thread-resize rebuild (the fronts move into a fresh graph),
//! and the venue's batch. `cycle_golden` pins the same packets to
//! checksums that do not depend on the twin.

use djstar_core::exec::Strategy;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::events::{ControlEvent, EventQueue};
use djstar_engine::reconfig::GraphEdit;
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_engine::APC_NODES;
use djstar_workload::scenario::{DeckConfig, Scenario};
use std::time::{Duration, Instant};

const CYCLES: u64 = 160;

/// Three playing decks and an idle one (whose task only clears its buffer).
fn scenario() -> Scenario {
    let mut s = Scenario::light_test();
    s.decks[3] = DeckConfig::idle();
    s
}

fn fold(mut acc: u64, buf: &AudioBuf) -> u64 {
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Checksums of one cycle: the four fronts' deck audio, then the output
/// packet.
fn cycle_sums(engine: &mut AudioEngine) -> (u64, u64) {
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let fronts = engine.node_map().apc.expect("engine graph").fronts;
    let mut buf = AudioBuf::stereo_default();
    let mut decks = seed;
    for front in fronts {
        engine.executor_mut().read_output(front, &mut buf);
        decks = fold(decks, &buf);
    }
    (decks, fold(seed, &engine.output()))
}

/// The scripted control input of cycle `c`, applied before it runs.
fn drive(engine: &mut AudioEngine, queue: &mut EventQueue, c: u64) {
    match c {
        20 => queue.push(c, ControlEvent::Nudge(0, 0.3)),
        21 => queue.push(c, ControlEvent::Nudge(1, -0.2)),
        90 => queue.push(c, ControlEvent::Nudge(2, 0.5)),
        _ => {}
    }
    engine.apply_events(queue);
    let edit = match c {
        40 => Some(GraphEdit::UnloadDeck(2)),
        70 => Some(GraphEdit::UnloadDeck(0)),
        100 => Some(GraphEdit::LoadDeck(2)),
        130 => Some(GraphEdit::LoadDeck(0)),
        _ => None,
    };
    if let Some(edit) = edit {
        let staged = engine.stage_edits(&[edit]).expect("stage");
        engine.commit(staged).expect("commit");
    }
}

fn run(strategy: Strategy, threads: usize) -> Vec<(u64, u64)> {
    let mut engine = AudioEngine::with_aux(scenario(), strategy, threads, AuxWork::light());
    let mut queue = EventQueue::standard();
    (0..CYCLES)
        .map(|c| {
            drive(&mut engine, &mut queue, c);
            let t = engine.run_apc();
            assert!(t.tp > Duration::ZERO && t.gp > Duration::ZERO);
            cycle_sums(&mut engine)
        })
        .collect()
}

#[test]
fn deck_buffers_and_packets_match_the_seq_twin_on_every_strategy_and_width() {
    let want = run(Strategy::Sequential, 1);
    // The script must bite, or equality is vacuous: a nudge bends the deck
    // audio away from an un-nudged run within a few cycles.
    let mut plain = AudioEngine::with_aux(scenario(), Strategy::Sequential, 1, AuxWork::light());
    let unscripted: Vec<u64> = (0..30)
        .map(|_| {
            plain.run_apc();
            cycle_sums(&mut plain).0
        })
        .collect();
    assert_eq!(
        unscripted[..20],
        want.iter().map(|s| s.0).collect::<Vec<_>>()[..20]
    );
    assert_ne!(
        unscripted[29], want[29].0,
        "nudge never reached a deck task"
    );

    for strategy in Strategy::ALL {
        let widths: &[usize] = if strategy == Strategy::Sequential {
            &[1]
        } else {
            &[1, 2, 4]
        };
        for &threads in widths {
            let got = run(strategy, threads);
            for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.0, w.0, "{strategy:?}/{threads} cycle {c}: deck buffers");
                assert_eq!(g.1, w.1, "{strategy:?}/{threads} cycle {c}: output packet");
            }
        }
    }
}

#[test]
fn one_session_and_one_dispatch_per_cycle() {
    for (strategy, threads) in [
        (Strategy::Busy, 2),
        (Strategy::Planned, 2),
        (Strategy::Steal, 3),
        (Strategy::Sequential, 4),
    ] {
        let mut engine = AudioEngine::with_aux(scenario(), strategy, threads, AuxWork::light());
        // threads − 1 OS workers serve the one session (SEQ: a one-lane
        // pool, whose only lane is the driver's); nothing else spawns.
        let lanes = if strategy == Strategy::Sequential {
            1
        } else {
            threads
        };
        assert_eq!(engine.pool().threads(), lanes);
        assert_eq!(engine.pool().sessions(), 1, "{strategy:?}");
        for _ in 0..5 {
            let before = engine.pool().batches();
            engine.run_apc();
            assert_eq!(engine.pool().batches(), before + 1, "{strategy:?}");
        }
    }
    // A venue period is one batch for every session together.
    let spec = |strategy| SessionSpec {
        scenario: scenario(),
        strategy,
        threads: 2,
        aux: AuxWork::light(),
    };
    let mut venue = VenueServer::new(2, Duration::from_secs(1), 0.0);
    venue.admit_bounded(spec(Strategy::Busy), 1).unwrap();
    venue.admit_bounded(spec(Strategy::Planned), 1).unwrap();
    assert_eq!(venue.pool().sessions(), 2);
    for _ in 0..5 {
        let before = venue.pool().batches();
        venue.run_cycle();
        assert_eq!(venue.pool().batches(), before + 1);
    }
}

#[test]
fn telemetry_still_describes_the_graph_only() {
    let mut engine = AudioEngine::with_aux(scenario(), Strategy::Busy, 2, AuxWork::light());
    // TP, GP and VC nodes run in the same cycle but are not graph work.
    let nodes = (engine.executor_mut().topology().len() - APC_NODES) as u64;
    engine.set_telemetry(true);
    engine.warmup(10);
    let ring = engine.take_telemetry().expect("telemetry ring");
    assert_eq!(ring.iter().count(), 10, "one record per APC");
    for record in ring.iter() {
        assert_eq!(record.totals().nodes_executed, nodes);
    }
}

#[test]
fn thread_resize_moves_the_deck_tasks_without_a_glitch() {
    let mut twin = AudioEngine::with_aux(scenario(), Strategy::Sequential, 1, AuxWork::light());
    let mut engine = AudioEngine::with_aux(scenario(), Strategy::Busy, 2, AuxWork::light());
    let mut queue = EventQueue::standard();
    queue.push(0, ControlEvent::Nudge(1, 0.4));
    engine.apply_events(&mut queue);
    queue.push(0, ControlEvent::Nudge(1, 0.4));
    twin.apply_events(&mut queue);
    for c in 0..60 {
        if c == 25 {
            // Mid-decay of the nudge: playback position, decoder window
            // and jog state must all move into the rebuilt session.
            engine
                .reconfigure(&[GraphEdit::ResizeThreads(4)])
                .expect("resize");
            assert_eq!(engine.threads(), 4);
            assert_eq!(engine.pool().threads(), 4);
            assert_eq!(engine.pool().sessions(), 1);
        }
        engine.run_apc();
        twin.run_apc();
        // Graph-node state restarts on a rebuild, the deck audio does not.
        assert_eq!(
            cycle_sums(&mut engine).0,
            cycle_sums(&mut twin).0,
            "cycle {c}: deck buffers diverged"
        );
    }
}

#[test]
fn venue_batch_is_bit_exact_and_its_phase_shares_fit_the_window() {
    let spec = |strategy, threads| SessionSpec {
        scenario: scenario(),
        strategy,
        threads,
        aux: AuxWork::light(),
    };
    let mut venue = VenueServer::new(3, Duration::from_secs(1), 0.0);
    let ids = [
        venue.admit_bounded(spec(Strategy::Busy, 3), 1).unwrap(),
        venue.admit_bounded(spec(Strategy::Planned, 2), 1).unwrap(),
        venue
            .admit_bounded(spec(Strategy::Sequential, 1), 1)
            .unwrap(),
    ];
    let mut twin = AudioEngine::with_aux(scenario(), Strategy::Sequential, 1, AuxWork::light());
    for cycle in 0..40 {
        let t0 = Instant::now();
        let batch = venue.run_cycle();
        let wall = t0.elapsed();
        twin.run_apc();
        let want = cycle_sums(&mut twin);
        let mut phases = Duration::ZERO;
        for id in ids {
            let t = venue.last_timing(id).unwrap();
            assert!(t.tp > Duration::ZERO && t.gp > Duration::ZERO && t.vc > Duration::ZERO);
            phases += t.tp + t.gp + t.vc;
            let got = cycle_sums(venue.engine_mut(id).unwrap());
            assert_eq!(got, want, "session {id} cycle {cycle}");
        }
        // Lane shares of one batch: together they cannot exceed it.
        assert!(
            phases <= batch && batch <= wall,
            "{phases:?} {batch:?} {wall:?}"
        );
    }
}
