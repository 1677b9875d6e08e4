//! Session isolation on the shared venue pool: a fault storm plus a
//! lossy network in session A must leave co-hosted session B **bit-exact**
//! with its clean-venue run — same per-cycle audio checksum, same packet
//! accounting, same deadline-miss count. The sessions share every pool
//! lane, so this is the differential proof that venue multiplexing leaks
//! no scheduling, fault or network state across session boundaries.

use djstar_core::exec::Strategy;
use djstar_dsp::AudioBuf;
use djstar_engine::apc::AuxWork;
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_workload::faults::FaultSpec;
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;

const CYCLES: usize = 120;
const LANES: usize = 3;

fn victim_spec() -> SessionSpec {
    // B is itself networked (deterministic bursty trace) so the check
    // covers packet accounting, not just DSP state.
    let mut net = NetSpec::bursty(0xB0B);
    net.adapt = false;
    net.start_depth = 3;
    let mut scenario = Scenario::light_test();
    scenario.net = net;
    SessionSpec {
        scenario,
        strategy: Strategy::Steal,
        threads: LANES,
        aux: AuxWork::light(),
    }
}

fn aggressor_spec(lossy: bool) -> SessionSpec {
    let mut scenario = Scenario::light_test();
    if lossy {
        scenario.net = NetSpec::lossy(0xA77A);
    }
    SessionSpec {
        scenario,
        strategy: Strategy::Busy,
        threads: LANES,
        aux: AuxWork::light(),
    }
}

fn fold_checksum(mut acc: u64, buf: &AudioBuf) -> u64 {
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Run a two-session venue for [`CYCLES`] cycles and return the victim's
/// (per-cycle audio checksum, packet stats, miss count). `hostile` turns
/// the aggressor's network lossy and arms a fault storm on its executor.
fn run_victim_beside(hostile: bool) -> (u64, djstar_core::net::NetStats, u64) {
    // A deliberately tight-ish deadline would make miss counts depend on
    // host noise; a generous one keeps the differential deterministic
    // while still exercising the per-session accounting path.
    let mut venue = VenueServer::new(LANES, std::time::Duration::from_secs(1), 0.0);
    let a = venue
        .admit_bounded(aggressor_spec(hostile), 1)
        .expect("admit aggressor");
    let b = venue.admit_bounded(victim_spec(), 1).expect("admit victim");
    if hostile {
        let storm = FaultSpec::storm(0xFEED).with_iters(40_000, 20_000, 60_000);
        venue.engine_mut(a).unwrap().set_faults(Some(&storm));
    }
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..CYCLES {
        venue.run_cycle();
        acc = fold_checksum(acc, &venue.engine_mut(b).unwrap().output());
    }
    if hostile {
        // The storm must actually bite or the isolation claim is vacuous:
        // the aggressor's lossy trace has to have concealed packets.
        let a_stats = venue.engine_mut(a).unwrap().net_stats();
        assert!(a_stats.received > 0, "aggressor trace delivered nothing");
        assert!(a_stats.concealed > 0, "aggressor network never dropped");
    }
    let stats = venue.engine_mut(b).unwrap().net_stats();
    let misses = venue.misses(b).expect("victim counters");
    (acc, stats, misses)
}

#[test]
fn fault_storm_and_lossy_net_in_one_session_leave_the_other_bit_exact() {
    let (clean_sum, clean_stats, clean_misses) = run_victim_beside(false);
    assert!(clean_stats.received > 0, "victim trace delivered nothing");
    let (storm_sum, storm_stats, storm_misses) = run_victim_beside(true);
    assert_eq!(
        storm_sum, clean_sum,
        "victim audio diverged beside a faulted session"
    );
    assert_eq!(
        storm_stats, clean_stats,
        "victim packet accounting diverged beside a faulted session"
    );
    assert_eq!(
        storm_misses, clean_misses,
        "victim miss count changed beside a faulted session"
    );
}

/// Run [`CYCLES`] cycles of a venue whose two admitted sessions declare
/// `2 × 400 ms` against a 1 s deadline, optionally offering a third
/// (300 ms) that the budget cannot take. Returns both sessions' per-cycle
/// audio checksums.
fn run_admitted_pair(offer_refused: bool) -> (u64, u64) {
    const BOUND_NS: u64 = 400_000_000;
    let mut venue = VenueServer::new(LANES, std::time::Duration::from_secs(1), 0.0);
    let a = venue
        .admit_bounded(aggressor_spec(false), BOUND_NS)
        .expect("admit first session");
    let b = venue
        .admit_bounded(victim_spec(), BOUND_NS)
        .expect("admit second session");
    if offer_refused {
        let (sessions, load) = (venue.session_count(), venue.load_ns());
        let refused = venue
            .admit_bounded(aggressor_spec(true), 300_000_000)
            .expect_err("the third session overflows the budget");
        // The verdict is the simulator's admission oracle.
        assert!(!djstar_sim::admissible(
            &[BOUND_NS, BOUND_NS, 300_000_000],
            venue.deadline_ns(),
            venue.margin()
        ));
        assert_eq!(
            (refused.bound_ns, refused.load_ns, refused.budget_ns),
            (300_000_000, load, venue.budget_ns())
        );
        assert_eq!(venue.rejections(), 1);
        assert_eq!(venue.session_count(), sessions);
        assert_eq!(venue.load_ns(), load);
        assert_eq!(venue.session_ids(), [a, b]);
    }
    let (mut sum_a, mut sum_b) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..CYCLES {
        venue.run_cycle();
        sum_a = fold_checksum(sum_a, &venue.engine_mut(a).unwrap().output());
        sum_b = fold_checksum(sum_b, &venue.engine_mut(b).unwrap().output());
    }
    (sum_a, sum_b)
}

#[test]
fn a_refused_session_leaves_the_admitted_ones_untouched() {
    assert_eq!(
        run_admitted_pair(true),
        run_admitted_pair(false),
        "a refusal changed an admitted session's audio"
    );
}
