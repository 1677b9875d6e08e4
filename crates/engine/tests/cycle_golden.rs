//! Packets and the beat clock pinned to checksums, not only to a twin.
//!
//! The differential tests compare strategies against a SEQ × 1 twin of the
//! same code, so a change that rewrites the twin too would pass them. These
//! two FNV-1a checksums were captured when TP, GP and VC still ran outside
//! the task graph (a front session on the pool, then the graph, then a
//! serial VC on the driver). Every strategy and width must still produce
//! them: 300 cycles of output packets and of the beat clock after each
//! cycle, under the script of `front_differential` — platter nudges, a deck
//! unload/load walk through `stage_edits` / `commit` — plus a thread-resize
//! rebuild at cycle 180.

use djstar_core::exec::Strategy;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::events::{ControlEvent, EventQueue};
use djstar_engine::reconfig::GraphEdit;
use djstar_workload::scenario::{DeckConfig, Scenario};

const CYCLES: u64 = 300;

/// FNV-1a over every output packet's sample bits, cycle after cycle.
const PACKETS: u64 = 0x0628_77d3_1fea_7bcd;
/// FNV-1a over the beat clock's bits after every cycle.
const BEAT_CLOCK: u64 = 0x44fe_dce4_e62d_6595;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

fn fold(acc: u64, buf: &AudioBuf) -> u64 {
    buf.samples()
        .iter()
        .fold(acc, |a, s| fnv(a, u64::from(s.to_bits())))
}

/// Three playing decks and an idle one.
fn scenario() -> Scenario {
    let mut s = Scenario::light_test();
    s.decks[3] = DeckConfig::idle();
    s
}

/// The scripted control input of cycle `c`, applied before it runs.
fn drive(engine: &mut AudioEngine, queue: &mut EventQueue, c: u64) {
    match c {
        20 => queue.push(c, ControlEvent::Nudge(0, 0.3)),
        21 => queue.push(c, ControlEvent::Nudge(1, -0.2)),
        90 => queue.push(c, ControlEvent::Nudge(2, 0.5)),
        170 => queue.push(c, ControlEvent::Nudge(1, 0.4)),
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
    if c == 180 {
        // Mid-decay of the cycle-170 nudge.
        let lanes = engine.threads() % 4 + 1;
        engine
            .reconfigure(&[GraphEdit::ResizeThreads(lanes)])
            .expect("resize");
    }
}

/// (packets, beat clock) checksums of one scripted run.
fn run(strategy: Strategy, threads: usize) -> (u64, u64) {
    let mut engine = AudioEngine::with_aux(scenario(), strategy, threads, AuxWork::light());
    let mut queue = EventQueue::standard();
    let (mut packets, mut beats) = (FNV_OFFSET, FNV_OFFSET);
    for c in 0..CYCLES {
        drive(&mut engine, &mut queue, c);
        engine.run_apc();
        packets = fold(packets, &engine.output());
        beats = fnv(beats, engine.beat_clock().to_bits());
    }
    (packets, beats)
}

#[test]
fn packets_and_beat_clock_match_the_pinned_checksums() {
    let want = (PACKETS, BEAT_CLOCK);
    for strategy in Strategy::ALL {
        let widths: &[usize] = if strategy == Strategy::Sequential {
            &[1]
        } else {
            &[1, 2, 4]
        };
        for &threads in widths {
            let got = run(strategy, threads);
            assert_eq!(
                got, want,
                "{strategy:?} × {threads}: (packets, beat clock) = ({:#x}, {:#x})",
                got.0, got.1
            );
        }
    }
}
