//! Audio-path integration: WAV recording round trip, vinyl scratching,
//! loops and the event middleware driving a full engine.

use djstar_core::exec::Strategy;
use djstar_dsp::wav::{append_buffer, read_wav, write_wav};
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::deck::{PlayMode, TrackPlayer};
use djstar_engine::events::{ControlEvent, EventQueue};
use djstar_workload::scenario::Scenario;
use djstar_workload::track::{synth_track, TrackStyle};

fn light_engine() -> AudioEngine {
    AudioEngine::with_aux(Scenario::light_test(), Strategy::Busy, 2, AuxWork::light())
}

#[test]
fn record_bus_round_trips_through_wav() {
    let mut engine = light_engine();
    engine.warmup(30);
    let record_node = engine.node_map().record;
    let mut pcm = Vec::new();
    let mut buf = AudioBuf::stereo_default();
    for _ in 0..100 {
        engine.run_apc();
        engine.executor_mut().read_output(record_node, &mut buf);
        append_buffer(&mut pcm, &buf);
    }
    let mut bytes = Vec::new();
    write_wav(&mut bytes, &pcm, 2, djstar_dsp::SAMPLE_RATE).unwrap();
    let decoded = read_wav(&bytes[..]).unwrap();
    assert_eq!(decoded.frames(), 100 * djstar_dsp::BUFFER_FRAMES);
    assert_eq!(decoded.sample_rate, djstar_dsp::SAMPLE_RATE);
    let peak = decoded.samples.iter().fold(0.0f32, |m, s| m.max(s.abs()));
    assert!(peak <= 0.96, "record limiter ceiling violated: {peak}");
    assert!(peak > 0.001, "silent recording");
}

#[test]
fn scratch_session_produces_finite_audio() {
    // A DJ scratch: forward, hard brake, backspin, release.
    let mut player = TrackPlayer::new(synth_track(9, 128.0, 4.0, TrackStyle::House));
    let mut out = AudioBuf::stereo_default();
    let script: Vec<(f32, usize)> = vec![
        (1.0, 80),  // play
        (0.1, 20),  // brake (vinyl crawl)
        (-2.5, 30), // backspin
        (0.0, 10),  // stopped
        (1.0, 80),  // release
    ];
    for (speed, cycles) in script {
        for _ in 0..cycles {
            player.pull_dvs(speed, &mut out);
            assert!(out.is_finite());
            assert!(out.peak() <= 1.2);
        }
    }
    assert_eq!(player.mode(), PlayMode::Stretch, "released back to stretch");
}

#[test]
fn loop_roll_survives_full_engine_cycles() {
    // Engage a beat loop on a raw player while an engine runs — the loop
    // API is deck-level; verify combined use stays stable.
    let mut engine = light_engine();
    engine.warmup(20);
    let mut player = TrackPlayer::new(synth_track(3, 126.0, 4.0, TrackStyle::Breakbeat));
    let sr = 44_100.0;
    assert!(player.set_loop(sr, sr + 11_025.0)); // quarter-second loop
    player.seek(sr);
    let mut out = AudioBuf::stereo_default();
    for _ in 0..600 {
        engine.run_apc();
        player.pull(1.0, &mut out);
        let pos = player.position();
        assert!(
            pos >= sr - 1.0 && pos < sr + 11_025.0 + 4_096.0,
            "pos {pos}"
        );
    }
}

#[test]
fn sync_two_engine_decks_by_events() {
    // Steer the decks' crossfade, EQ and tempo nudge through the event
    // queue: a smoke test of the event plumbing end to end.
    let mut engine = light_engine();
    let mut queue = EventQueue::standard();
    for c in 0..200u64 {
        queue.push(c, ControlEvent::Crossfader((c as f32 / 200.0).min(1.0)));
        if c % 10 == 0 {
            queue.push(c, ControlEvent::DeckEq(1, [-3.0, 0.0, 2.0]));
            queue.push(c, ControlEvent::Nudge(0, 0.02));
        }
        engine.apply_events(&mut queue);
        engine.run_apc();
        assert!(engine.output().is_finite());
    }
    assert_eq!(queue.dropped(), 0);
}

#[test]
fn sp_filterbank_reconstructs_deck_signal() {
    // With all effects disabled, FX1's band sum must carry essentially the
    // full deck spectrum: the channel output should have comparable energy
    // to the raw deck input (LR crossover reconstruction, within EQ and
    // fader effects).
    let mut scenario = Scenario::light_test();
    for d in &mut scenario.decks {
        d.fx_enabled = [false; 4];
        d.eq_db = [0.0; 3];
        d.filter_pos = 0.0;
        d.gain = 1.0;
    }
    let mut engine = AudioEngine::with_aux(scenario, Strategy::Sequential, 1, AuxWork::light());
    engine.warmup(60);
    // Compare deck A's external input RMS with channel A's output RMS over
    // a stretch of cycles.
    let channel = engine.node_map().channel(0).unwrap();
    let mut in_rms = 0.0f64;
    let mut out_rms = 0.0f64;
    let mut ch_buf = AudioBuf::stereo_default();
    for _ in 0..120 {
        engine.run_apc();
        engine.executor_mut().read_output(channel, &mut ch_buf);
        out_rms += ch_buf.rms() as f64;
        // The deck input isn't directly exposed; use SP band sum ≈ input.
        let mut sum = AudioBuf::stereo_default();
        let mut band = AudioBuf::stereo_default();
        let sp_nodes = engine.node_map().deck(0).unwrap().sp;
        for node in sp_nodes {
            engine.executor_mut().read_output(node, &mut band);
            sum.mix_add(&band, 1.0);
        }
        in_rms += sum.rms() as f64;
    }
    let ratio = out_rms / in_rms.max(1e-9);
    assert!(
        (0.5..=2.0).contains(&ratio),
        "channel/bank-energy ratio {ratio}"
    );
}
