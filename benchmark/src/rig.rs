//! The five workloads and the rig that drives one of them a period at a time.
//!
//! Everything here goes through public functions of the crates under test:
//! `AudioEngine::{run_apc, output, stage_edits, commit}`,
//! `VenueServer::{admit, run_cycle}`. Work is a fixed iteration count per
//! node (`WorkProfile`) and per phase (`AuxWork`) — `AudioEngine::calibrate`
//! is never called, so a faster kernel shows as a faster cycle.

use crate::affinity::spawn_workers_off_driver;
use djstar_core::exec::Strategy;
use djstar_dsp::buffer::AudioBuf;
use djstar_engine::apc::{ApcTiming, AudioEngine, AuxWork};
use djstar_engine::reconfig::GraphEdit;
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_workload::profile::WorkProfile;
use djstar_workload::scenario::{DeckConfig, Scenario};
use djstar_workload::switches::{shape_walk, SwitchAction, SwitchScript};
use std::time::{Duration, Instant};

/// The sound-card period every cycle has to fit: 128 frames at 44.1 kHz.
pub const DEADLINE_NS: u64 = 2_902_494;

/// Warm-up cycles charged to set-up (fills stretcher pipelines, settles
/// meters, faults in the arenas).
pub const WARMUP_CYCLES: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBusy,
    DspSeq,
    LightPlan,
    ModewalkPlan,
    VenuePair,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperBusy,
        Workload::DspSeq,
        Workload::LightPlan,
        Workload::ModewalkPlan,
        Workload::VenuePair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBusy => "paper_busy",
            Workload::DspSeq => "dsp_seq",
            Workload::LightPlan => "light_plan",
            Workload::ModewalkPlan => "modewalk_plan",
            Workload::VenuePair => "venue_pair",
        }
    }

    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperBusy => {
                "paper-scale 67-node graph, BUSY x 2 threads: the paper's cell; engine-phase and \
                 executor changes show, real-DSP kernel changes do not (90 % of node time is burn)"
            }
            Workload::DspSeq => {
                "same decks with light burn, SEQ x 1: a cycle of almost pure real DSP and zero \
                 scheduling; kernel and arena changes show at full size, executor changes not at all"
            }
            Workload::LightPlan => {
                "same light DSP on PLAN x 2 threads: microsecond nodes make the cross-thread \
                 handshake and dispatch the dominant layer, separable from dsp_seq by equal DSP"
            }
            Workload::ModewalkPlan => {
                "paper scale, PLAN x 2 with the mode cache, one topology switch every 50 cycles: \
                 control-plane writes beside audio-path reads (stage, commit, carry-over, cache)"
            }
            Workload::VenuePair => {
                "two admitted two-deck sessions (BUSY and PLAN) per period on one shared pool: \
                 stage/dispatch/quiesce and per-session accounting that a solo engine never runs"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cycles per measured round in a run of `RUN_SECONDS` (`passes::ROUNDS`
    /// rounds; the run length scales this linearly): in all the issue's
    /// counts times 0.6 (venue: 0.75, to keep ten samples beyond each
    /// round's p99). A constant, identical on every commit: it is never
    /// derived from a measured time.
    pub fn round_cycles(self) -> usize {
        match self {
            Workload::PaperBusy | Workload::ModewalkPlan | Workload::VenuePair => 1_000,
            Workload::DspSeq | Workload::LightPlan => 8_000,
        }
    }

    /// Threads the workload's graphs run on (driver included).
    pub fn lanes(self) -> usize {
        match self {
            Workload::DspSeq => 1,
            _ => 2,
        }
    }

    /// True for the one workload whose rounds switch topology.
    pub fn switches(self) -> bool {
        self == Workload::ModewalkPlan
    }
}

/// Cycles between two topology switches of `modewalk_plan`.
const WALK_PERIOD: usize = 50;

/// Cycles between two switches of its cache-off twin, which exists only to
/// time cold stages: enough for the new generation to run a few periods.
pub const COLD_PERIOD: usize = 4;

/// Switches scripted per rig: more than a 60-second run reaches.
const WALK_SWITCHES: usize = 2_000;

/// Seed of the `shape_walk` every run of `modewalk_plan` replays — E19's.
/// Not drawn from `--seed`: a random walk spends a seed-dependent share of
/// its cycles in shapes of different node counts, and ten seeds of the same
/// commit then spread 15 % on `cycle_p50_us` (853 to 1 060 us), 35 % on
/// `cycle_p99_us` and 5.5 % on `peak_rss_mib` (README, "Noise").
const WALK_SEED: u64 = 0xE19;

/// Which variant of a workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as it is measured.
    Bench,
    /// Every strategy replaced by SEQ x 1 and no mode cache: the reference
    /// the correctness pass compares against.
    SeqTwin,
    /// `modewalk_plan` without its mode cache, switching every
    /// `COLD_PERIOD` cycles: every stage compiles from scratch.
    NoCache,
}

/// The paper's four-deck scenario with track seeds drawn from `seed`.
/// Tempo, style and gains stay fixed: the loud/quiet arrangement that makes
/// node cost bimodal depends on them, not on the seed.
pub fn scenario(seed: u64, work: WorkProfile) -> Scenario {
    let mut s = Scenario::paper_default();
    for d in &mut s.decks {
        d.track_seed = seed.wrapping_mul(1_000).wrapping_add(d.track_seed);
    }
    s.work = work;
    s
}

struct SessionCfg {
    scenario: Scenario,
    strategy: Strategy,
    threads: usize,
    aux: AuxWork,
}

/// The engine configurations of a workload. `twin` replaces every strategy
/// by SEQ x 1 — the reference the correctness pass compares against.
fn configs(workload: Workload, seed: u64, twin: bool) -> Vec<SessionCfg> {
    let paper = || scenario(seed, WorkProfile::paper_scale());
    let light = || scenario(seed, WorkProfile::light());
    // `Scenario::two_deck_mix` with seeded tracks: decks C and D idle.
    let two_deck = |mut s: Scenario| {
        s.decks[2] = DeckConfig::idle();
        s.decks[3] = DeckConfig::idle();
        s
    };
    let cfg = |scenario, strategy, threads, aux| SessionCfg {
        scenario,
        strategy: if twin { Strategy::Sequential } else { strategy },
        threads: if twin { 1 } else { threads },
        aux,
    };
    match workload {
        Workload::PaperBusy => vec![cfg(paper(), Strategy::Busy, 2, AuxWork::paper_scale())],
        Workload::DspSeq => vec![cfg(light(), Strategy::Sequential, 1, AuxWork::light())],
        Workload::LightPlan => vec![cfg(light(), Strategy::Planned, 2, AuxWork::light())],
        Workload::ModewalkPlan => {
            vec![cfg(paper(), Strategy::Planned, 2, AuxWork::paper_scale())]
        }
        Workload::VenuePair => {
            let aux = AuxWork::paper_scale().scaled(0.5);
            vec![
                cfg(two_deck(paper()), Strategy::Busy, 2, aux),
                cfg(
                    two_deck(scenario(seed + 1, WorkProfile::paper_scale())),
                    Strategy::Planned,
                    2,
                    aux,
                ),
            ]
        }
    }
}

fn to_edit(action: SwitchAction) -> GraphEdit {
    match action {
        SwitchAction::LoadDeck(d) => GraphEdit::LoadDeck(d),
        SwitchAction::UnloadDeck(d) => GraphEdit::UnloadDeck(d),
        SwitchAction::InsertFxSlot(d) => GraphEdit::InsertFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => GraphEdit::RemoveFxSlot(d),
    }
}

/// Wall times of one topology switch: edit requested to new topology live.
#[derive(Debug, Clone, Copy)]
pub struct SwitchSample {
    pub stage_ns: u64,
    pub commit_ns: u64,
}

/// What one driver period cost.
pub struct Step {
    /// Start of the timed window (after any switch).
    pub start: Instant,
    /// The end-to-end sample: solo `run_apc()` + `output()`, venue
    /// `run_cycle()`, plus the commit half of a switch on switch cycles.
    pub wall_ns: u64,
    /// Phase timings the engine reports, summed over sessions.
    pub timing: ApcTiming,
    /// The graph window: solo the executor's own wall time; venue the part
    /// of the batch the sessions' TP/GP/VC do not cover (sessions' graph
    /// timers overlap on the pool, so they cannot be summed).
    pub graph_ns: u64,
    /// `output()` wall time inside `wall_ns` (0 for the venue).
    pub output_ns: u64,
    /// `run_apc()` wall time measured around the call (venue: `run_cycle()`).
    /// What the engine's four phase timers leave of it is the call's self
    /// time: executor entry and exit (prepare, dispatch, collect).
    pub apc_ns: u64,
    pub switch: Option<SwitchSample>,
    /// Failed operations this period: non-finite packets, `Err` from
    /// `stage_edits`/`commit`.
    pub failed: u64,
}

enum Driver {
    Solo(Box<AudioEngine>),
    Venue { server: VenueServer, ids: Vec<u32> },
}

/// One workload instance: its engine(s), its switch script and the packets
/// of the last period.
pub struct Rig {
    driver: Driver,
    /// `shape_walk` of `WALK_SEED` for `modewalk_plan`, empty otherwise.
    script: SwitchScript,
    /// Index of the next event of `script`.
    next_switch: usize,
    cycle: usize,
    /// Final output packet of every session after the last `step`.
    pub packets: Vec<AudioBuf>,
    /// Sessions that could not be admitted at all while building (0 or the
    /// workload is broken).
    pub build_failed: u64,
    /// Control operations attempted while building (admissions).
    pub build_ops: u64,
    /// Wall time of the `admit` calls and of the initial
    /// `precompile_neighborhood` inside the build (0 where there is none).
    pub admit_ns: u64,
    /// Sessions `admit` turned away on its measured bound (a slow or
    /// pre-empted probe); they run all the same, see `build_here`.
    pub admit_refusals: u64,
    pub precompile_ns: u64,
}

impl Rig {
    /// Construct the workload (track synthesis, graph build, PLAN compile,
    /// admission probe, cache precompile) and run the warm-up cycles. This
    /// whole function is what `setup_s` times.
    pub fn build(workload: Workload, seed: u64, mode: Mode) -> Rig {
        // A rig without worker threads (SEQ twin, one-lane workload) is
        // built where it runs; the next CPU may hold the keep-awake thread.
        if mode == Mode::SeqTwin {
            Self::build_here(workload, seed, mode)
        } else {
            spawn_workers_off_driver(workload.lanes(), || Self::build_here(workload, seed, mode))
        }
    }

    fn build_here(workload: Workload, seed: u64, mode: Mode) -> Rig {
        let twin = mode == Mode::SeqTwin;
        let mut cfgs = configs(workload, seed, twin);
        let (mut build_failed, mut build_ops) = (0, 0);
        let (mut admit_ns, mut admit_refusals, mut precompile_ns) = (0, 0, 0);
        let driver = if workload == Workload::VenuePair {
            let lanes = if twin { 1 } else { workload.lanes() };
            let mut server = VenueServer::new(lanes, Duration::from_nanos(DEADLINE_NS), 0.1);
            let mut ids = Vec::new();
            for c in cfgs {
                let spec = SessionSpec {
                    scenario: c.scenario,
                    strategy: c.strategy,
                    threads: c.threads,
                    aux: c.aux,
                };
                // The twin is a reference, not an operation under test: it
                // skips the probe and cannot be refused.
                let admitted = if twin {
                    server.admit_bounded(spec, 0)
                } else {
                    build_ops += 1;
                    let retry = spec.clone();
                    let t0 = Instant::now();
                    let admitted = server.admit(spec);
                    admit_ns += t0.elapsed().as_nanos() as u64;
                    // `admit` times 12 probe cycles on this host, so one
                    // pre-emption of some 15 ms among them doubles the bound
                    // and the session is turned away: the verdict of a
                    // measuring admission test, not a wrong output. The
                    // refusal is counted (`engine.admit_refusals`) and the
                    // session admitted at the budget that is left, so every
                    // run drives the same two sessions.
                    admitted.or_else(|r| {
                        admit_refusals += 1;
                        eprintln!(
                            "admission refused (counted, session admitted at the remaining budget): \
                             bound {} ns + load {} ns > budget {} ns",
                            r.bound_ns, r.load_ns, r.budget_ns
                        );
                        server.admit_bounded(retry, r.budget_ns.saturating_sub(r.load_ns))
                    })
                };
                match admitted {
                    Ok(id) => ids.push(id),
                    Err(_) => build_failed += 1,
                }
            }
            server.run_cycles(WARMUP_CYCLES);
            Driver::Venue { server, ids }
        } else {
            let c = cfgs.remove(0);
            let mut engine = AudioEngine::with_aux(c.scenario, c.strategy, c.threads, c.aux);
            engine.warmup(WARMUP_CYCLES);
            if workload.switches() && mode == Mode::Bench {
                engine.enable_mode_cache(32);
                let t0 = Instant::now();
                engine.precompile_neighborhood();
                precompile_ns = t0.elapsed().as_nanos() as u64;
            }
            Driver::Solo(Box::new(engine))
        };
        let sessions = match &driver {
            Driver::Solo(_) => 1,
            Driver::Venue { ids, .. } => ids.len(),
        };
        let period = if mode == Mode::NoCache {
            COLD_PERIOD
        } else {
            WALK_PERIOD
        };
        let switches = if workload.switches() {
            WALK_SWITCHES
        } else {
            0
        };
        Rig {
            driver,
            script: shape_walk(switches, period, WALK_SEED),
            next_switch: 0,
            cycle: 0,
            packets: (0..sessions)
                .map(|_| AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES))
                .collect(),
            build_failed,
            build_ops,
            admit_ns,
            admit_refusals,
            precompile_ns,
        }
    }

    /// The sessions of `workload`, each as an engine of its own — what the
    /// venue's batch is compared against.
    pub fn solo_engines(workload: Workload, seed: u64) -> Vec<AudioEngine> {
        configs(workload, seed, false)
            .into_iter()
            .map(|c| {
                let mut engine = spawn_workers_off_driver(c.threads, || {
                    AudioEngine::with_aux(c.scenario, c.strategy, c.threads, c.aux)
                });
                engine.warmup(WARMUP_CYCLES);
                engine
            })
            .collect()
    }

    /// Every engine of the rig, for arming telemetry.
    pub fn for_each_engine(&mut self, mut f: impl FnMut(&mut AudioEngine)) {
        match &mut self.driver {
            Driver::Solo(e) => f(e),
            Driver::Venue { server, ids } => {
                for id in ids.iter() {
                    if let Some(e) = server.engine_mut(*id) {
                        f(e);
                    }
                }
            }
        }
    }

    /// Summed admission bound of the venue's sessions (0 for a solo rig).
    pub fn venue_bound_ns(&self) -> u64 {
        match &self.driver {
            Driver::Solo(_) => 0,
            Driver::Venue { server, .. } => server.load_ns(),
        }
    }

    /// Hits and misses of the solo engine's mode cache so far.
    pub fn cache_hits_misses(&self) -> (u64, u64) {
        match &self.driver {
            Driver::Solo(e) => e.mode_cache().map_or((0, 0), |c| {
                let s = c.stats();
                (s.hits, s.misses)
            }),
            Driver::Venue { .. } => (0, 0),
        }
    }

    /// Run one driver period, preceded by a topology switch when the script
    /// has one due.
    pub fn step(&mut self) -> Step {
        let mut failed = 0;
        let mut switch = None;
        let due = self
            .script
            .events()
            .get(self.next_switch)
            .filter(|e| e.at_cycle == self.cycle)
            .copied();
        if let (Some(event), Driver::Solo(engine)) = (due, &mut self.driver) {
            self.next_switch += 1;
            let t0 = Instant::now();
            match engine.stage_edits(&[to_edit(event.action)]) {
                Ok(staged) => {
                    let t1 = Instant::now();
                    match engine.commit(staged) {
                        Ok(_) => {
                            let t2 = Instant::now();
                            switch = Some(SwitchSample {
                                stage_ns: (t1 - t0).as_nanos() as u64,
                                commit_ns: (t2 - t1).as_nanos() as u64,
                            });
                            // Stand-in for a background stager: refill the
                            // cache around the new shape, uncharged. A no-op
                            // on an engine without a mode cache.
                            engine.precompile_neighborhood();
                        }
                        Err(e) => {
                            failed += 1;
                            eprintln!("cycle {}: commit failed: {e:?}", self.cycle);
                        }
                    }
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("cycle {}: stage_edits failed: {e:?}", self.cycle);
                }
            }
        }
        self.cycle += 1;
        let commit_ns = switch.map_or(0, |s| s.commit_ns);

        let start = Instant::now();
        let (timing, graph_ns, output_ns, wall_ns, apc_ns) = match &mut self.driver {
            Driver::Solo(engine) => {
                let timing = engine.run_apc();
                let t1 = Instant::now();
                self.packets[0] = engine.output();
                let end = Instant::now();
                (
                    timing,
                    timing.graph.as_nanos() as u64,
                    (end - t1).as_nanos() as u64,
                    (end - start).as_nanos() as u64,
                    (t1 - start).as_nanos() as u64,
                )
            }
            Driver::Venue { server, ids } => {
                server.run_cycle();
                let wall_ns = start.elapsed().as_nanos() as u64;
                let mut sum = ApcTiming::default();
                for id in ids.iter() {
                    let t = server.last_timing(*id).unwrap_or_default();
                    sum.tp += t.tp;
                    sum.gp += t.gp;
                    sum.vc += t.vc;
                }
                let aux_ns = (sum.tp + sum.gp + sum.vc).as_nanos() as u64;
                let graph_ns = wall_ns.saturating_sub(aux_ns);
                sum.graph = Duration::from_nanos(graph_ns);
                // Packets are fetched outside the timed window.
                for (packet, id) in self.packets.iter_mut().zip(ids.iter()) {
                    if let Some(e) = server.engine_mut(*id) {
                        *packet = e.output();
                    }
                }
                (sum, graph_ns, 0, wall_ns, wall_ns)
            }
        };
        let non_finite = self.packets.iter().filter(|p| !p.is_finite()).count() as u64;
        if non_finite > 0 {
            failed += non_finite;
            eprintln!(
                "cycle {}: {non_finite} packet(s) with a non-finite sample",
                self.cycle
            );
        }
        Step {
            start,
            wall_ns: wall_ns + commit_ns,
            timing,
            graph_ns,
            output_ns,
            apc_ns,
            switch,
            failed,
        }
    }

    /// FNV-1a over the raw bits of every session's last packet: bit-exact
    /// audio in, equal checksum out.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for packet in &self.packets {
            for &s in packet.samples() {
                acc = (acc ^ u64::from(s.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        acc
    }
}
