//! SEQ's sibling batches against their unbatched twin. SEQ × 1 walks the
//! depth queue in runs and computes a deck's four SP bands as one shared
//! crossover tree; BUSY × 1 walks the same queue one node at a time, every
//! band its own chain. The two must agree bit for bit on every SP band
//! and every output packet: over hundreds of cycles, across generation
//! swaps, on a remote deck, and after one band's shared state is pushed
//! apart from its siblings' (the batch then declines and the bands run
//! alone).

use djstar_core::exec::Strategy;
use djstar_core::processor::CycleCtx;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::reconfig::GraphEdit;
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;

const CYCLES: u64 = 240;

/// The light scenario with deck A streamed over the network.
fn scenario() -> Scenario {
    let mut s = Scenario::light_test();
    s.net = NetSpec::bursty(0x5B1B);
    s.net.remote_decks = [true, false, false, false];
    s
}

fn fold(mut acc: u64, buf: &AudioBuf) -> u64 {
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// One cycle's checksums: every loaded SP band's output, then the packet.
fn cycle_sums(engine: &mut AudioEngine) -> (u64, u64) {
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let bands: Vec<_> = engine
        .node_map()
        .decks
        .iter()
        .flatten()
        .flat_map(|d| d.sp)
        .collect();
    let mut buf = AudioBuf::stereo_default();
    let mut sp = seed;
    for band in bands {
        engine.executor_mut().read_output(band, &mut buf);
        sp = fold(sp, &buf);
    }
    (sp, fold(seed, &engine.output()))
}

/// Run `strategy` × 1 for [`CYCLES`] cycles, unloading deck C at cycle 60
/// and loading it back at 130 (two generation swaps; the reloaded bands
/// start from fresh parts). With `nudge_at`, band 3 of deck B alone
/// filters one extra buffer before that cycle, so its shared highpass
/// prefix no longer equals its siblings'.
fn run(strategy: Strategy, nudge_at: Option<u64>) -> Vec<(u64, u64)> {
    let mut engine = AudioEngine::with_aux(scenario(), strategy, 1, AuxWork::light());
    assert!(engine.node_map().net_src[0].is_some(), "deck A is remote");
    (0..CYCLES)
        .map(|c| {
            let edit = match c {
                60 => Some(GraphEdit::UnloadDeck(2)),
                130 => Some(GraphEdit::LoadDeck(2)),
                _ => None,
            };
            if let Some(edit) = edit {
                let staged = engine.stage_edits(&[edit]).expect("stage");
                engine.commit(staged).expect("commit");
            }
            if nudge_at == Some(c) {
                let band = engine.node_map().decks[1].as_ref().expect("deck B").sp[2];
                let src = AudioBuf::from_fn(2, djstar_dsp::BUFFER_FRAMES, |_, i| i as f32 * 1e-3);
                let mut out = AudioBuf::stereo_default();
                let node = engine.executor_mut().node_processor(band);
                node.process(&[&src], &mut out, &CycleCtx::bare(0));
            }
            engine.run_apc();
            cycle_sums(&mut engine)
        })
        .collect()
}

#[test]
fn seq_batches_equal_busy_one_lane_bit_for_bit() {
    let batched = run(Strategy::Sequential, None);
    let alone = run(Strategy::Busy, None);
    for (c, (b, a)) in batched.iter().zip(&alone).enumerate() {
        assert_eq!(b.0, a.0, "SP bands differ at cycle {c}");
        assert_eq!(b.1, a.1, "packet differs at cycle {c}");
    }
    // The bands carry signal: equality is not two silences.
    assert!(batched.windows(2).any(|w| w[0].0 != w[1].0));
}

#[test]
fn a_band_pushed_apart_declines_the_batch_and_still_matches() {
    let nudged = run(Strategy::Sequential, Some(40));
    let alone = run(Strategy::Busy, Some(40));
    let plain = run(Strategy::Busy, None);
    assert_ne!(nudged[45], plain[45], "the nudge never reached the band");
    for (c, (n, a)) in nudged.iter().zip(&alone).enumerate() {
        assert_eq!(n, a, "cycle {c} differs from the per-node run");
    }
}
