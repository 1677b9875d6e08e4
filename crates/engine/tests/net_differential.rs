//! Differential determinism on the networked graph: one fixed trace
//! seed must produce bit-identical audio and identical packet
//! accounting across all six strategies and 1/2/4 worker threads. The
//! network model is cycle-synchronous (arrivals are a pure function of
//! `(seed, cycle, stream)`), so nothing about scheduling — work
//! stealing, sleep wakeups, plan order — may leak into the signal.
//!
//! The same determinism makes the latency/dropout trade of the network
//! governor an exact test: a fixed-depth sweep and the adaptive governor
//! replay one bursty trace, and their dropout counts are reproducible.

use djstar_core::exec::Strategy;
use djstar_core::net::NetStats;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::degrade::GovernorConfig;
use djstar_engine::netnodes::net_plan_from_spec;
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;

const CYCLES: usize = 120;

fn with_net(net: NetSpec) -> Scenario {
    let mut s = Scenario::light_test();
    s.net = net;
    s
}

fn net_scenario() -> Scenario {
    let mut net = NetSpec::bursty(0xD1FF);
    net.start_depth = 3;
    with_net(net)
}

fn fold_checksum(mut acc: u64, buf: &AudioBuf) -> u64 {
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Run one engine for [`CYCLES`] cycles and fold every cycle's master
/// output into an FNV checksum (not just the final frame — a transient
/// divergence that later reconverges must still be caught).
fn run(strategy: Strategy, threads: usize) -> (u64, NetStats) {
    let mut engine = AudioEngine::with_aux(net_scenario(), strategy, threads, AuxWork::light());
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..CYCLES {
        engine.run_apc();
        acc = fold_checksum(acc, &engine.output());
    }
    (acc, engine.net_stats())
}

#[test]
fn fixed_trace_seed_is_bit_exact_across_strategies_and_threads() {
    let (want_sum, want_stats) = run(Strategy::Sequential, 1);
    assert!(want_stats.received > 0, "trace delivered nothing");
    assert!(
        want_stats.concealed > 0,
        "trace never bit: the determinism claim would be vacuous"
    );
    for strategy in Strategy::ALL {
        let threads: &[usize] = if strategy == Strategy::Sequential {
            &[1]
        } else {
            &[1, 2, 4]
        };
        for &t in threads {
            let (sum, stats) = run(strategy, t);
            assert_eq!(
                sum, want_sum,
                "{strategy:?}/{t} audio diverged from the sequential reference"
            );
            assert_eq!(
                stats, want_stats,
                "{strategy:?}/{t} packet accounting diverged"
            );
        }
    }
}

/// Measured cycles of each trade run, after [`TRADE_WARMUP`]: enough for
/// the sweep trace's jitter bursts to bite every shallow fixed depth.
const TRADE_CYCLES: usize = 1_200;
const TRADE_WARMUP: usize = 50;

/// Calm background jitter punctuated by heavy jitter bursts, one remote
/// deck: the regime where no fixed depth wins (shallow drops the bursts,
/// deep pays latency all night), and where every dropout maps onto the
/// oracle's single stream.
fn bursty_trace() -> NetSpec {
    NetSpec {
        seed: 0xE17,
        remote_decks: [true, false, false, false],
        listeners: 0,
        base_delay: 0,
        jitter: 1,
        loss_rate: 0.001,
        dup_rate: 0.0,
        dup_delay: 1,
        reorder_rate: 0.005,
        reorder_extra: 2,
        burst_period: 768,
        burst_len: 96,
        burst_jitter: 9,
        listener_stall_rate: 0.0,
        min_depth: 1,
        max_depth: 12,
        start_depth: 1,
    }
}

/// Deepen on the first concealed slot in a short window (a burst
/// announces itself at once), four depth cycles at a time; give latency
/// back one rung per clean stretch so the median depth stays at the floor
/// between bursts. The ladder is the trace's own depth range.
fn governor() -> (GovernorConfig, u32) {
    let cfg = GovernorConfig {
        window: 8,
        shed_misses: 1,
        restore_clean: 48,
        restore_tolerance: 0,
        min_dwell: 2,
    };
    (cfg, 4)
}

struct TradeRun {
    /// Concealed play slots over the measured cycles.
    dropouts: u64,
    /// Median jitter-buffer depth (= median added latency, cycles).
    median_depth: u32,
    /// Depth transitions the governor committed.
    transitions: usize,
    checksum: u64,
    stats: NetStats,
}

/// Replay `net` on SEQ x 1, with the network governor armed when `cfg`
/// is given (every depth change then commits through the staged
/// generation-swap path).
fn run_trade(net: NetSpec, cfg: Option<(GovernorConfig, u32)>) -> TradeRun {
    let mut engine =
        AudioEngine::with_aux(with_net(net), Strategy::Sequential, 1, AuxWork::light());
    engine.warmup(TRADE_WARMUP);
    if let Some((cfg, depth_step)) = cfg {
        engine.enable_net_degradation(cfg, depth_step);
    }
    let before = engine.net_stats().concealed;
    let mut depths = Vec::with_capacity(TRADE_CYCLES);
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..TRADE_CYCLES {
        engine.run_apc();
        engine.observe_network();
        acc = fold_checksum(acc, &engine.output());
        depths.push(engine.net_depths()[0]);
    }
    depths.sort_unstable();
    let stats = engine.net_stats();
    TradeRun {
        dropouts: stats.concealed - before,
        median_depth: depths[depths.len() / 2],
        transitions: engine.net_degrade_events().len(),
        checksum: acc,
        stats,
    }
}

#[test]
fn adaptive_depth_beats_every_fixed_depth_at_equal_latency() {
    let net = bursty_trace();
    // Seven independent replays of one trace: run them side by side.
    let (fixed, [adaptive, again]) = std::thread::scope(|s| {
        let fixed = [1u32, 2, 4, 8, 12]
            .map(|d| s.spawn(move || (d, run_trade(net.with_fixed_depth(d), None).dropouts)));
        let adaptive = [(); 2].map(|()| s.spawn(move || run_trade(net, Some(governor()))));
        (
            fixed.map(|h| h.join().expect("fixed-depth run")),
            adaptive.map(|h| h.join().expect("adaptive run")),
        )
    });

    // The fair competitor: the best fixed depth whose latency does not
    // exceed the adaptive run's median.
    let (best_depth, best_dropouts) = fixed
        .iter()
        .copied()
        .filter(|&(d, _)| d <= adaptive.median_depth)
        .min_by_key(|&(_, dropouts)| dropouts)
        .expect("the sweep starts at the ladder floor");
    assert!(
        best_dropouts >= (TRADE_CYCLES / 20) as u64,
        "trace never bit depth {best_depth} ({best_dropouts} dropouts): the cut would be vacuous"
    );
    assert!(
        adaptive.dropouts * 5 <= best_dropouts,
        "adaptive {} dropouts at median depth {} vs fixed depth {best_depth} {best_dropouts}: less than a 5x cut",
        adaptive.dropouts,
        adaptive.median_depth
    );
    assert!(adaptive.transitions >= 1, "the governor never moved");

    // No run beats the clairvoyant oracle: outright-lost packets conceal
    // at any depth.
    let plan = net_plan_from_spec(&net);
    let end = (TRADE_WARMUP + TRADE_CYCLES) as u64;
    let unavoidable = (djstar_sim::lost_packets(&plan, 0, end)
        - djstar_sim::lost_packets(&plan, 0, TRADE_WARMUP as u64)) as u64;
    for &(d, dropouts) in &fixed {
        assert!(dropouts >= unavoidable, "depth {d} beat the oracle floor");
    }
    assert!(
        adaptive.dropouts >= unavoidable,
        "adaptive beat the oracle floor"
    );

    // The governed run is itself a pure function of the trace.
    assert_eq!(again.checksum, adaptive.checksum, "adaptive audio diverged");
    assert_eq!(
        again.stats, adaptive.stats,
        "adaptive packet accounting diverged"
    );
}
