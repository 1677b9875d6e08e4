//! The audio processing cycle (APC) driver.
//!
//! §VI: `T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)` — timecode processing,
//! graph preprocessing, task-graph execution and various calculations. The
//! paper measures the non-graph phases at ~0.8 ms combined, leaving
//! `T(Graph) ≤ 2.1 ms` inside the 2.9 ms sound-card budget.
//!
//! [`AudioEngine`] owns the control surface and one session on a
//! [`VenuePool`]: one task graph per cycle, whose nodes are the paper's
//! graph plus TP, GP and VC (four deck fronts and a VC node, see
//! [`crate::front`]). Each [`run_apc`](AudioEngine::run_apc) is one pool
//! dispatch, and returns the four phase timings: TP, GP and VC are their
//! nodes' task time as a share of the session's lanes, the graph is the
//! rest of the cycle's window.

use crate::degrade::{Governor, GovernorAction, GovernorConfig, GovernorEvent};
use crate::front::{DeckFront, VariousCalc};
use crate::graphbuild::{build_shaped_graph, ApcNodes, GraphShape, NodeMap};
use crate::modes::{
    reachable_edits, AdmissionControl, BlueprintCache, ModeCacheStats, NodeCostModel, PartsBin,
};
use crate::netnodes::{BroadcastSink, BroadcastStats, NetDeckSource};
use crate::nodes::controls;
use crate::reconfig::{
    apply_edit, stage_topology, EditError, GraphEdit, ReconfigError, StagedTopology,
};
use djstar_core::exec::{
    PoolExecutor, RetiredGeneration, StagedGeneration, Strategy, SwapError, VenuePool,
};
use djstar_core::faults::FaultPlan;
use djstar_core::flight::{FlightConfig, FlightWindow};
use djstar_core::graph::NodeId;
use djstar_core::net::NetStats;
use djstar_core::trace::ScheduleTrace;
use djstar_dsp::buffer::AudioBuf;
use djstar_sim::Schedule;
use djstar_workload::scenario::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compute weights of the non-graph APC phases, calibratable like the node
/// cost model. Defaults approximate the paper's ~0.8 ms combined TP+GP+VC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuxWork {
    /// Extra `burn` iterations per deck during timecode processing.
    pub tp_iters: u32,
    /// Extra `burn` iterations per active deck during graph preprocessing.
    pub gp_iters: u32,
    /// Extra `burn` iterations for the various-calculations phase.
    pub vc_iters: u32,
}

impl AuxWork {
    /// Paper-scale weights: tuned so TP ≈ 0.26 ms, GP ≈ 0.53 ms and
    /// VC ≈ 0.15 ms on the reference host — a compromise between the §VI
    /// total (TP+GP+VC ≈ 0.8 ms) and the §III within-APC shares, which are
    /// mutually inconsistent in the paper (see EXPERIMENTS.md).
    pub fn paper_scale() -> Self {
        AuxWork {
            tp_iters: 16_000,
            gp_iters: 32_000,
            vc_iters: 40_000,
        }
    }

    /// Near-zero weights for tests.
    pub fn light() -> Self {
        AuxWork {
            tp_iters: 50,
            gp_iters: 100,
            vc_iters: 50,
        }
    }

    /// Scale all weights by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |v: u32| ((v as f64 * factor).round() as u32).max(1);
        AuxWork {
            tp_iters: s(self.tp_iters),
            gp_iters: s(self.gp_iters),
            vc_iters: s(self.vc_iters),
        }
    }
}

/// Timing breakdown of one APC. The four phases sum to the cycle's
/// window: `tp`, `gp` and `vc` are their nodes' task time divided by the
/// session's lanes, and `graph` is the rest of the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApcTiming {
    /// Timecode processing.
    pub tp: Duration,
    /// Graph preprocessing (time stretch, buffers).
    pub gp: Duration,
    /// Task-graph execution.
    pub graph: Duration,
    /// Various calculations.
    pub vc: Duration,
}

impl ApcTiming {
    /// Total APC duration.
    pub fn total(&self) -> Duration {
        self.tp + self.gp + self.graph + self.vc
    }
}

/// The DJ Star engine: control surface and the executor of its one task
/// graph, whose APC-phase nodes hold the decks' players, timecode state,
/// master tempo and beat clock.
pub struct AudioEngine {
    scenario: Scenario,
    executor: PoolExecutor,
    map: NodeMap,
    shape: GraphShape,
    /// Control events dropped for referring to decks/slots that do not
    /// exist in the current shape (see [`apply_events`](Self::apply_events)).
    dropped_events: u64,
    /// Topology edits requested through the event middleware, waiting for
    /// the host to stage and commit them.
    pending_edits: Vec<GraphEdit>,
    /// Mode-aware blueprint cache; `None` until
    /// [`enable_mode_cache`](Self::enable_mode_cache). When armed,
    /// [`stage_edits`](Self::stage_edits) serves warm shapes without
    /// building anything.
    modes: Option<BlueprintCache>,
    /// Schedulability admission; `None` until
    /// [`enable_admission`](Self::enable_admission). When armed, staging
    /// rejects shapes the list-schedule bound proves unschedulable.
    admission: Option<AdmissionControl>,
    /// Stagings whose PLAN blueprint failed to compile — surfaced as
    /// [`ReconfigError::Blueprint`] and counted here for telemetry.
    stage_failures: u64,
    /// What a node costs — the engine's one model: the static
    /// [`NodeCostModel::prior`] at construction, replaced by the per-node
    /// p50s the engine learns over its cycles `LEARN_AFTER + 1 ..=
    /// LEARN_AFTER + LEARN_CYCLES`, or by
    /// [`recalibrate_admission`](Self::recalibrate_admission). Staged
    /// blueprints and the admission check both price shapes with it.
    costs: NodeCostModel,
    /// The running graph's bound under `costs` on this engine's lanes,
    /// when the staging it committed list-scheduled it (PLAN or
    /// admission); `None` when no such schedule exists or `costs` or the
    /// lanes changed since.
    running_makespan: Option<u64>,
    /// Generations (and their landmark maps) that commits replaced or
    /// refused, kept so the audio thread frees nothing at a switch; dropped
    /// at the next control-plane call.
    retired: Vec<(RetiredGeneration, NodeMap)>,
    aux: AuxWork,
    ctrl: Vec<f32>,
    cycle: u64,
    /// Installed fault plan, kept so a thread-resize rebuild can
    /// reinstall it on the fresh executor.
    faults: Option<FaultPlan>,
    /// Installed flight-recorder config, kept (like `faults`) so a
    /// thread-resize rebuild can re-arm the recorder on the fresh
    /// executor. The recorded window itself does not survive a rebuild.
    flight_cfg: Option<FlightConfig>,
    /// Engine cycles at which a generation swap committed (reconfig or
    /// degradation), so miss forensics can cross-reference overruns with
    /// commit activity.
    commit_cycles: Vec<u64>,
    /// Deadline-axis governor; `None` until
    /// [`enable_degradation`](Self::enable_degradation).
    degrade: Option<Governor>,
    /// FX chain lengths saved at shed time, restored on
    /// [`GovernorAction::Restore`].
    saved_fx: [usize; 4],
    /// Aux weights saved at shed time.
    saved_aux: Option<AuxWork>,
    /// Network-axis (latency/dropout) governor; `None` until
    /// [`enable_net_degradation`](Self::enable_net_degradation).
    net_degrade: Option<Governor>,
    /// Total concealed frames already reported to the network governor.
    net_conceals_seen: u64,
    /// The worker pool the engine's session is registered on: the
    /// caller's for an engine built through [`on_pool`](Self::on_pool),
    /// otherwise a private one of exactly this engine's lanes.
    pool: Arc<VenuePool>,
    /// `pool` is private: a thread resize replaces it with one of the new
    /// size. A shared pool is kept, and must have the lanes asked for.
    private_pool: bool,
    /// Venue session id tagged into telemetry and flight exports
    /// (0 = single-session).
    session: u32,
}

/// What [`AudioEngine::observe_deadline`] or
/// [`AudioEngine::observe_network`] did when it committed a governor
/// transition: the action and the rung it landed on, the executor
/// generation after the swap, and the cost of the two reconfiguration
/// halves (the commit half is what could blow a deadline).
#[derive(Debug, Clone, Copy)]
pub struct GovernorOutcome {
    /// Which way the engine moved.
    pub action: GovernorAction,
    /// The governor's new rung (deadline: 0 full, 1 shed; network: the
    /// playout depth).
    pub rung: u32,
    /// Executor generation after the swap.
    pub generation: u64,
    /// Wall time of the staging half (graph build, off the audio path).
    pub stage_ns: u64,
    /// Wall time of the cycle-boundary commit half.
    pub commit_ns: u64,
}

/// Cycles an engine runs before it learns node costs: stretcher pipelines
/// fill and caches warm first.
const LEARN_AFTER: u64 = 4;

/// Cycles whose node times the learning window records; the engine prices
/// each node at their p50 when the window closes.
const LEARN_CYCLES: u64 = 12;

/// The APC-phase node `node` of `exec` as its concrete processor.
fn apc_node<T: 'static>(exec: &mut PoolExecutor, node: NodeId) -> &mut T {
    exec.node_processor(node)
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<T>())
        .expect("an APC node holds its phase's processor")
}

/// The APC-phase nodes of an engine graph.
fn apc_nodes(map: &NodeMap) -> ApcNodes {
    map.apc.expect("an engine graph carries the APC nodes")
}

impl AudioEngine {
    /// Build an engine running `scenario` with the given strategy and
    /// thread count, and paper-scale auxiliary work.
    pub fn new(scenario: Scenario, strategy: Strategy, threads: usize) -> Self {
        Self::with_aux(scenario, strategy, threads, AuxWork::paper_scale())
    }

    /// Build an engine with explicit auxiliary-phase weights (tests use
    /// [`AuxWork::light`]) and the paper's fixed shape — extended with the
    /// network machinery the scenario's [`NetSpec`](djstar_workload::NetSpec)
    /// asks for (a disabled spec reproduces the 67-node graph exactly).
    pub fn with_aux(scenario: Scenario, strategy: Strategy, threads: usize, aux: AuxWork) -> Self {
        let shape = GraphShape::for_net(&scenario.net);
        Self::with_shape(scenario, shape, strategy, threads, aux)
    }

    /// Build an engine around an arbitrary [`GraphShape`] — the seed of the
    /// live-reconfiguration protocol (further shapes arrive via
    /// [`reconfigure`](Self::reconfigure)). The engine gets a private pool
    /// of exactly its own lanes: `threads − 1` OS threads, none for SEQ.
    pub fn with_shape(
        scenario: Scenario,
        shape: GraphShape,
        strategy: Strategy,
        threads: usize,
        aux: AuxWork,
    ) -> Self {
        Self::with_shape_on(scenario, shape, strategy, threads, aux, None, None)
    }

    /// Build an engine whose session registers on an existing shared
    /// [`VenuePool`] instead of a private one — the venue-server
    /// constructor. `threads` is this session's lane count and must not
    /// exceed the pool's. Sequential engines accept a pool too (they
    /// simply never stage work on it), so a venue can host mixed-strategy
    /// sessions uniformly. `priced`: the cost model and schedule the venue
    /// admitted the session with, which the engine starts on.
    pub(crate) fn on_pool(
        scenario: Scenario,
        strategy: Strategy,
        threads: usize,
        aux: AuxWork,
        pool: &Arc<VenuePool>,
        priced: Option<(NodeCostModel, Schedule)>,
    ) -> Self {
        let shape = GraphShape::for_net(&scenario.net);
        Self::with_shape_on(scenario, shape, strategy, threads, aux, Some(pool), priced)
    }

    /// A pool of exactly the lanes a solo engine uses.
    fn private_pool(strategy: Strategy, threads: usize) -> Arc<VenuePool> {
        Arc::new(VenuePool::new(strategy.lanes(threads)))
    }

    fn with_shape_on(
        scenario: Scenario,
        shape: GraphShape,
        strategy: Strategy,
        threads: usize,
        aux: AuxWork,
        pool: Option<&Arc<VenuePool>>,
        priced: Option<(NodeCostModel, Schedule)>,
    ) -> Self {
        let private_pool = pool.is_none();
        let pool = pool.map_or_else(|| Self::private_pool(strategy, threads), Arc::clone);
        // The first PLAN blueprint is list-scheduled under the prior; the
        // learning window replaces both.
        let (costs, schedule) = priced.unzip();
        let costs = costs.unwrap_or_else(|| NodeCostModel::prior(&scenario, &shape, aux));
        let (executor, map) = Self::build_executor(
            &scenario, &shape, strategy, threads, &pool, &costs, schedule,
        );
        let mut ctrl = vec![0.0f32; controls::COUNT];
        ctrl[controls::CROSSFADER] = scenario.crossfader;
        ctrl[controls::MASTER_GAIN] = scenario.master_gain;
        for d in 0..4 {
            ctrl[controls::deck_gain(d)] = scenario.decks[d].gain;
        }
        let mut engine = AudioEngine {
            executor,
            map,
            shape,
            dropped_events: 0,
            pending_edits: Vec::new(),
            modes: None,
            admission: None,
            stage_failures: 0,
            costs,
            running_makespan: None,
            retired: Vec::new(),
            aux,
            ctrl,
            cycle: 0,
            faults: None,
            flight_cfg: None,
            commit_cycles: Vec::new(),
            degrade: None,
            saved_fx: [0; 4],
            saved_aux: None,
            net_degrade: None,
            net_conceals_seen: 0,
            pool,
            private_pool,
            session: 0,
            scenario,
        };
        engine.set_aux(aux);
        engine
    }

    /// Build the graph executor and its landmark map for a scenario +
    /// shape on `pool`; PLAN replays `schedule`, or the graph's
    /// [`schedule`](NodeCostModel::schedule) under `costs` on `threads`
    /// lanes. Shared by the constructors and the thread-resize rebuild
    /// path.
    fn build_executor(
        scenario: &Scenario,
        shape: &GraphShape,
        strategy: Strategy,
        threads: usize,
        pool: &Arc<VenuePool>,
        costs: &NodeCostModel,
        schedule: Option<Schedule>,
    ) -> (PoolExecutor, NodeMap) {
        let (graph, map) = build_shaped_graph(scenario, shape);
        let frames = djstar_dsp::BUFFER_FRAMES;
        let staged = if strategy == Strategy::Planned {
            let lanes = schedule
                .unwrap_or_else(|| costs.schedule(graph.topology(), &map.keys, threads))
                .lanes();
            StagedGeneration::with_plan(graph, frames, &lanes)
                .unwrap_or_else(|e| panic!("lanes do not bind to this graph: {e}"))
        } else {
            StagedGeneration::new(graph, frames)
        };
        let executor = PoolExecutor::with_pool(strategy, staged, threads, pool)
            .expect("a whole graph, planned for these lanes");
        (executor, map)
    }

    /// The scheduling strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.executor.strategy()
    }

    /// Worker threads of the executor.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Landmark node ids of the graph.
    pub fn node_map(&self) -> &NodeMap {
        &self.map
    }

    /// The executor's current topology generation.
    pub fn generation(&self) -> u64 {
        self.executor.generation()
    }

    /// The currently committed graph shape.
    pub fn shape(&self) -> &GraphShape {
        &self.shape
    }

    /// Control events dropped so far for referring to decks or FX slots
    /// missing from the current shape.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Take the topology edits requested via the event middleware
    /// ([`ControlEvent::DeckLoadState`](crate::events::ControlEvent) and
    /// friends). The host thread feeds them to
    /// [`stage_edits`](Self::stage_edits)/[`commit`](Self::commit) — or
    /// [`reconfigure`](Self::reconfigure) when staging inline is fine.
    pub fn take_pending_edits(&mut self) -> Vec<GraphEdit> {
        std::mem::take(&mut self.pending_edits)
    }

    /// Stage a new topology generation for the current shape plus `edits`.
    /// This is the expensive half of a reconfiguration — graph build,
    /// buffer allocation, PLAN blueprint compilation, and a processor for
    /// every node the running graph has no counterpart for. To stage on
    /// another thread while cycles keep running, copy the scenario, shape
    /// and [`costs`](Self::costs), call [`stage_topology`] and
    /// [`StagedTopology::fill`] there (the result is `Send`); the
    /// cycle-boundary half is [`commit`](Self::commit) either way.
    ///
    /// With [`enable_admission`](Self::enable_admission) armed, a shape
    /// whose bound does not fit is rejected
    /// ([`ReconfigError::Unschedulable`]) before any processor is built. With
    /// [`enable_mode_cache`](Self::enable_mode_cache) armed, an admitted
    /// shape whose generation was precompiled is served straight from the
    /// cache and its missing parts from the bin — a take-once hit that
    /// allocates nothing.
    ///
    /// [`GraphEdit::ResizeThreads`] is rejected here
    /// ([`EditError::ResizeNeedsRebuild`]); it only makes sense through
    /// [`reconfigure`](Self::reconfigure).
    pub fn stage_edits(&mut self, edits: &[GraphEdit]) -> Result<StagedTopology, ReconfigError> {
        let mut shape = self.shape;
        for &e in edits {
            apply_edit(&mut shape, e)?;
        }
        self.stage_shape(&shape)
    }

    /// Hollow generation (cache hit, else built and admitted here) → fill
    /// what the running graph cannot hand over, in that order. The shared
    /// tail of [`stage_edits`](Self::stage_edits) and
    /// [`reconfigure`](Self::reconfigure). A cached generation needs no
    /// admission check: with admission armed, only admitted shapes are
    /// cached.
    fn stage_shape(&mut self, shape: &GraphShape) -> Result<StagedTopology, ReconfigError> {
        self.retired.clear();
        let hit = self.modes.as_mut().and_then(|c| c.take(shape));
        let was_hit = hit.is_some();
        let mut staged = match hit {
            Some(hit) => hit,
            None => self.stage_hollow(shape)?,
        };
        let mut no_bin = PartsBin::default();
        let bin = self.modes.as_mut().map_or(&mut no_bin, |c| &mut c.bin);
        let built = staged.fill(&self.scenario, self.executor.topology(), bin);
        if let (true, Some(cache)) = (was_hit, self.modes.as_mut()) {
            cache.stats.parts_built_on_hit += built as u64;
        }
        Ok(staged)
    }

    /// [`stage_topology`] for this engine, admission included, blueprint
    /// failures counted.
    fn stage_hollow(&mut self, shape: &GraphShape) -> Result<StagedTopology, ReconfigError> {
        let (strategy, threads) = (self.strategy(), self.threads());
        let frames = djstar_dsp::BUFFER_FRAMES;
        let (costs, adm) = (&self.costs, self.admission.as_mut());
        let staged = stage_topology(&self.scenario, shape, strategy, threads, frames, costs, adm);
        if let Err(ReconfigError::Blueprint(_)) = staged {
            self.stage_failures += 1;
        }
        staged
    }

    /// Arm the mode-aware blueprint cache with room for `capacity` staged
    /// generations. Fill it with
    /// [`precompile_neighborhood`](Self::precompile_neighborhood).
    pub fn enable_mode_cache(&mut self, capacity: usize) {
        self.modes = Some(BlueprintCache::new(capacity));
    }

    /// The blueprint cache, when armed.
    pub fn mode_cache(&self) -> Option<&BlueprintCache> {
        self.modes.as_ref()
    }

    /// The cache's counters and footprint (zeros when unarmed) with the
    /// engine's own `retired_pending` filled in.
    pub fn mode_stats(&self) -> ModeCacheStats {
        ModeCacheStats {
            retired_pending: self.retired.len() as u64,
            ..self.modes.as_ref().map(|c| c.stats()).unwrap_or_default()
        }
    }

    /// Arm schedulability admission: every subsequent staging first proves
    /// the target shape's bound — under [`costs`](Self::costs) on
    /// [`threads`](Self::threads) lanes — fits the margined deadline, or is
    /// rejected typed. Empties the mode cache, whose generations were
    /// staged without that proof.
    pub fn enable_admission(&mut self, ctrl: AdmissionControl) {
        self.admission = Some(ctrl);
        self.reprice();
    }

    /// The node cost model staged blueprints are list-scheduled under and
    /// the admission check prices shapes with.
    pub fn costs(&self) -> &NodeCostModel {
        &self.costs
    }

    /// Disarm admission; staging accepts every valid shape again.
    pub fn disable_admission(&mut self) {
        self.admission = None;
    }

    /// Swap in a recalibrated [`NodeCostModel`], which prices every
    /// blueprint staged and every shape admitted from here on (until the
    /// learning window closes, if it is still open: then the learned
    /// costs replace it).
    pub fn recalibrate_admission(&mut self, costs: NodeCostModel) {
        self.costs = costs;
        self.reprice();
    }

    /// The cost model or the lane count changed: void every cached
    /// blueprint and admission bound. A blueprint scheduled under stale
    /// inputs must never be committed.
    fn reprice(&mut self) {
        self.running_makespan = None;
        if let Some(cache) = self.modes.as_mut() {
            cache.invalidate();
        }
        if let Some(adm) = self.admission.as_mut() {
            adm.forget_bounds();
        }
    }

    /// Stage every admissible shape one [`GraphEdit`] away from the
    /// current one into the blueprint cache (shapes already cached are
    /// skipped). This is the eager half of mode-aware scheduling: run it
    /// off the audio path — after a commit, between cycles — and the next
    /// mode switch is a warm hit. Returns how many fresh generations were
    /// staged. No-op `0` when the cache is unarmed.
    ///
    /// Also the engine's housekeeping call: it frees the generations
    /// earlier commits retired, and restocks the parts bin against the
    /// graph now running so the next hit finds every part it needs.
    pub fn precompile_neighborhood(&mut self) -> usize {
        self.retired.clear();
        if self.modes.is_none() {
            return 0;
        }
        let base = self.shape;
        let mut staged_new = 0;
        for edit in reachable_edits(&base) {
            let mut target = base;
            if apply_edit(&mut target, edit).is_err() {
                continue;
            }
            let Some(cache) = self.modes.as_mut() else {
                break;
            };
            // Already staged: refresh its LRU stamp instead of
            // recompiling, so a still-reachable neighbor is never the
            // eviction victim of this pass's fresh inserts. Staging
            // admits first: what admission rejects is never precompiled.
            if cache.touch(&target) {
                continue;
            }
            if let Ok(staged) = self.stage_hollow(&target) {
                if let Some(cache) = self.modes.as_mut() {
                    cache.insert(staged);
                    staged_new += 1;
                }
            }
        }
        if let Some(cache) = self.modes.as_mut().filter(|c| !c.stocked) {
            cache.restock(&self.scenario, self.executor.topology());
        }
        staged_new
    }

    /// Stagings whose PLAN blueprint failed to compile (each surfaced as
    /// a typed [`ReconfigError::Blueprint`]). Nonzero means a mode switch
    /// was refused at staging.
    pub fn stage_failures(&self) -> u64 {
        self.stage_failures
    }

    /// Commit a staged generation: the executor adopts the new graph at
    /// the next cycle boundary (name-keyed state carry-over, no worker
    /// teardown) and the engine's shape and landmark map swap with it.
    /// Returns the new generation number. On error — a
    /// [`SwapError::MissingPart`] for a generation that was never
    /// [`fill`](StagedTopology::fill)ed against the running graph — nothing
    /// changes. Frees nothing either way: the generation that comes back
    /// (replaced or refused) waits, with its map, for the next
    /// [`stage_edits`](Self::stage_edits) or
    /// [`precompile_neighborhood`](Self::precompile_neighborhood).
    pub fn commit(&mut self, staged: StagedTopology) -> Result<u64, SwapError> {
        let (shape, mut map) = (staged.shape, staged.map);
        let makespan_ns = staged.makespan_ns;
        let (verdict, retired) = self.executor.adopt_generation(staged.staged);
        if verdict.is_ok() {
            self.shape = shape;
            self.running_makespan = makespan_ns;
            std::mem::swap(&mut self.map, &mut map);
            self.commit_cycles.push(self.cycle);
            if let Some(cache) = self.modes.as_mut() {
                cache.stocked = false;
            }
        }
        self.retired.push((retired, map));
        verdict
    }

    /// Stage and commit `edits` in one call. Topology edits ride the
    /// glitch-free swap path. If the script contains
    /// [`GraphEdit::ResizeThreads`], the executor is instead **rebuilt**
    /// with the final shape and new worker count — the one reconfiguration
    /// that resets graph-node state (the TP, GP and VC nodes — deck
    /// playback, timecode, nudge, master tempo, beat clock — move into the
    /// rebuilt graph and survive either way). A private pool is replaced by
    /// one of the new size; an engine on a shared pool re-registers on it,
    /// and a resize past that pool's lanes is refused
    /// ([`EditError::PoolTooSmall`]) with the engine unchanged. Returns the
    /// executor's generation after the change (a rebuild starts over at
    /// generation 0).
    pub fn reconfigure(&mut self, edits: &[GraphEdit]) -> Result<u64, ReconfigError> {
        let mut shape = self.shape;
        let mut resize: Option<usize> = None;
        for &e in edits {
            match e {
                GraphEdit::ResizeThreads(n) => {
                    if !(1..=64).contains(&n) {
                        return Err(EditError::BadThreadCount(n).into());
                    }
                    resize = Some(n);
                }
                _ => apply_edit(&mut shape, e)?,
            }
        }
        if let Some(threads) = resize {
            let strategy = self.strategy();
            let lanes = strategy.lanes(threads);
            if self.private_pool {
                self.pool = Self::private_pool(strategy, threads);
            } else if lanes > self.pool.threads() {
                let have = self.pool.threads();
                return Err(EditError::PoolTooSmall { want: lanes, have }.into());
            }
            // Node costs do not depend on the lane count: the engine's
            // model prices the rebuilt generation too.
            let (scenario, pool, costs) = (&self.scenario, &self.pool, &self.costs);
            let (mut executor, map) =
                Self::build_executor(scenario, &shape, strategy, threads, pool, costs, None);
            let (old, new) = (apc_nodes(&self.map), apc_nodes(&map));
            for d in 0..4 {
                std::mem::swap(
                    apc_node::<DeckFront>(&mut self.executor, old.fronts[d]),
                    apc_node::<DeckFront>(&mut executor, new.fronts[d]),
                );
            }
            std::mem::swap(
                apc_node::<VariousCalc>(&mut self.executor, old.vc),
                apc_node::<VariousCalc>(&mut executor, new.vc),
            );
            self.executor = executor;
            self.executor.set_session(self.session);
            self.executor.set_faults(self.faults);
            self.executor.set_flight_recorder(self.flight_cfg);
            self.executor.set_learning(self.learning());
            self.map = map;
            self.shape = shape;
            self.commit_cycles.push(self.cycle);
            // Lane counts are baked into every cached blueprint and
            // admission bound.
            self.reprice();
            return Ok(self.executor.generation());
        }
        let staged = self.stage_shape(&shape)?;
        self.commit(staged).map_err(ReconfigError::Swap)
    }

    /// The underlying executor (for knob turning, output reads).
    pub fn executor_mut(&mut self) -> &mut PoolExecutor {
        &mut self.executor
    }

    /// Enable or disable executor telemetry (per-worker cycle counters
    /// drained into a ring after each [`run_apc`](Self::run_apc)).
    pub fn set_telemetry(&mut self, on: bool) {
        self.executor.set_telemetry(on);
    }

    /// Take the telemetry ring collected since telemetry was enabled (or
    /// last taken); recording continues into a fresh ring.
    pub fn take_telemetry(&mut self) -> Option<djstar_core::telemetry::TelemetryRing> {
        self.executor.take_telemetry()
    }

    /// Install (or clear, with `None`) the flight recorder on the
    /// executor. Like the fault plan, the config survives generation
    /// swaps and thread-resize rebuilds until cleared — though a rebuild
    /// discards any spans recorded on the torn-down executor.
    pub fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        // The executor tags the windows it captures with its session id,
        // so venue forensics can blame the offending session.
        self.flight_cfg = cfg;
        self.executor.set_flight_recorder(cfg);
    }

    /// Drain the flight-recorder window captured since the recorder was
    /// installed (or last drained); recording continues into empty lanes.
    pub fn take_flight_window(&mut self) -> Option<FlightWindow> {
        self.executor.take_flight_window()
    }

    /// Engine cycles at which a generation swap committed (degradation
    /// shed/restore or explicit reconfiguration). Miss forensics uses
    /// this to mark overruns that coincided with a commit.
    pub fn commit_cycles(&self) -> &[u64] {
        &self.commit_cycles
    }

    /// Install (or clear, with `None`) a fault-injection plan on the
    /// executor. Takes effect at the next cycle's epoch publication; the
    /// plan survives generation swaps and thread-resize rebuilds until
    /// cleared. Fault work burns CPU inside the executor's timed windows
    /// but never touches audio buffers, so faulted runs stay bit-exact
    /// with fault-free ones.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
        self.executor.set_faults(plan);
    }

    /// The fault plan currently installed, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// Arm the deadline-axis governor. Once armed, the host reports each
    /// cycle's deadline verdict through
    /// [`observe_deadline`](Self::observe_deadline) and the engine sheds
    /// or restores quality through the glitch-free generation-swap path.
    ///
    /// The governor starts on the engine's current rung: re-arming while
    /// shed keeps the saved full-quality state as the restore target.
    pub fn enable_degradation(&mut self, cfg: GovernorConfig) {
        let rung = self.degrade.as_ref().map_or(0, Governor::rung);
        self.degrade = Some(Governor::deadline(cfg, rung));
    }

    /// Currently running in degraded (shed) mode?
    pub fn is_degraded(&self) -> bool {
        self.degrade.as_ref().is_some_and(|g| g.rung() > 0)
    }

    /// Committed shed/restore transitions since the governor was armed
    /// (empty when it never was).
    pub fn degrade_events(&self) -> &[GovernorEvent] {
        self.degrade.as_ref().map_or(&[], |g| g.events())
    }

    /// Report the just-finished cycle's deadline verdict to the
    /// deadline-axis governor and actuate any transition it orders.
    ///
    /// * **Shed**: save the FX chain lengths and aux weights, then in a
    ///   single staged generation trim every loaded deck's FX chain to
    ///   one slot and halve the auxiliary-phase work — the "bypass
    ///   non-critical effects, drop preprocessing quality" move of a
    ///   production engine under duress.
    /// * **Restore**: re-insert the saved FX slots (clamped to the decks
    ///   still loaded) and restore the saved aux weights.
    ///
    /// Both directions reuse the [`stage_edits`](Self::stage_edits) /
    /// [`commit`](Self::commit) machinery, so node state carries over and
    /// the audio stream never glitches. If staging or the swap fails the
    /// governor is left uncommitted and simply retries next cycle.
    ///
    /// Returns the committed transition, if one happened. No-op `None`
    /// when the governor is unarmed.
    pub fn observe_deadline(&mut self, missed: bool) -> Option<GovernorOutcome> {
        let governor = self.degrade.as_mut()?;
        governor.record(u32::from(missed));
        let action = governor.pending(self.cycle)?;
        let mut edits = Vec::new();
        match action {
            GovernorAction::Shed => {
                self.saved_fx = self.shape.fx_slots;
                for d in 0..4 {
                    if self.shape.deck_loaded[d] {
                        for _ in 1..self.shape.fx_slots[d] {
                            edits.push(GraphEdit::RemoveFxSlot(d));
                        }
                    }
                }
            }
            GovernorAction::Restore => {
                for d in 0..4 {
                    if self.shape.deck_loaded[d] {
                        let want = self.saved_fx[d].clamp(1, GraphShape::MAX_FX_SLOTS);
                        for _ in self.shape.fx_slots[d]..want {
                            edits.push(GraphEdit::InsertFxSlot(d));
                        }
                    }
                }
            }
        }
        let outcome = self.commit_transition(|e| &mut e.degrade, action, &edits)?;
        match action {
            GovernorAction::Shed => {
                self.saved_aux = Some(self.aux);
                self.set_aux(self.aux.scaled(0.5));
            }
            GovernorAction::Restore => {
                if let Some(aux) = self.saved_aux.take() {
                    self.set_aux(aux);
                }
            }
        }
        Some(outcome)
    }

    /// The tail both governor axes share: stage and commit `edits` as one
    /// generation, then commit `action` on the governor `axis` selects.
    /// `None`, with the governor untouched, when staging or the swap fails.
    fn commit_transition(
        &mut self,
        axis: fn(&mut Self) -> &mut Option<Governor>,
        action: GovernorAction,
        edits: &[GraphEdit],
    ) -> Option<GovernorOutcome> {
        let t0 = Instant::now();
        let staged = self.stage_edits(edits).ok()?;
        let stage_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let generation = self.commit(staged).ok()?;
        let commit_ns = t1.elapsed().as_nanos() as u64;
        let cycle = self.cycle;
        let rung = axis(self).as_mut()?.transition(cycle, action);
        Some(GovernorOutcome {
            action,
            rung,
            generation,
            stage_ns,
            commit_ns,
        })
    }

    /// Change the non-graph phase weights, here and in the APC nodes.
    fn set_aux(&mut self, aux: AuxWork) {
        self.aux = aux;
        for d in 0..4 {
            self.front_mut(d).set_aux(aux);
        }
        let vc = apc_nodes(&self.map).vc;
        apc_node::<VariousCalc>(&mut self.executor, vc).set_aux(aux);
    }

    /// Deck `d`'s front node (TP + GP).
    pub(crate) fn front_mut(&mut self, d: usize) -> &mut DeckFront {
        let node = apc_nodes(&self.map).fronts[d];
        apc_node(&mut self.executor, node)
    }

    /// Arm the network-axis (latency/dropout) governor. Once armed, the
    /// host calls [`observe_network`](Self::observe_network) each cycle
    /// and the engine trades jitter-buffer depth (latency) against
    /// dropout rate, actuating every depth change through the same
    /// glitch-free generation-swap path as quality degradation.
    ///
    /// The ladder is the scenario's [`NetSpec`](djstar_workload::NetSpec)
    /// depth range — the clamp the jitter buffers apply — climbed in
    /// `depth_step` jumps. The starting rung is the deepest depth any
    /// remote deck currently runs at (so arming mid-flight never yanks an
    /// established buffer), falling back to the floor on a fully local
    /// graph.
    pub fn enable_net_degradation(&mut self, cfg: GovernorConfig, depth_step: u32) {
        let (min, max) = (self.scenario.net.min_depth, self.scenario.net.max_depth);
        let start = (0..4)
            .filter_map(|d| self.net_deck_source(d).map(|s| s.target_depth()))
            .max()
            .unwrap_or(min);
        self.net_conceals_seen = self.net_stats().concealed;
        self.net_degrade = Some(Governor::depth(cfg, min, max, depth_step, start));
    }

    /// Committed depth transitions since the network governor was armed.
    pub fn net_degrade_events(&self) -> &[GovernorEvent] {
        self.net_degrade.as_ref().map_or(&[], |g| g.events())
    }

    /// The depth rung the network governor is currently targeting
    /// (`None` when unarmed).
    pub fn net_target_depth(&self) -> Option<u32> {
        self.net_degrade.as_ref().map(Governor::rung)
    }

    /// Jitter-buffer statistics summed over every remote deck (all zeros
    /// on a fully local graph).
    pub fn net_stats(&mut self) -> NetStats {
        let mut total = NetStats::default();
        for d in 0..4 {
            if let Some(src) = self.net_deck_source(d) {
                let s = src.net_stats();
                total.received += s.received;
                total.lost += s.lost;
                total.late += s.late;
                total.duplicated += s.duplicated;
                total.concealed += s.concealed;
                total.depth_changes += s.depth_changes;
                total.skipped += s.skipped;
            }
        }
        total
    }

    /// Current jitter-buffer depth per deck (0 for local decks).
    pub fn net_depths(&mut self) -> [u32; 4] {
        let mut out = [0u32; 4];
        for (d, slot) in out.iter_mut().enumerate() {
            if let Some(src) = self.net_deck_source(d) {
                *slot = src.depth();
            }
        }
        out
    }

    /// Broadcast-sink statistics, when the graph carries one.
    pub fn broadcast_stats(&mut self) -> Option<BroadcastStats> {
        let node = self.map.broadcast?;
        self.executor
            .node_processor(node)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<BroadcastSink>())
            .map(|s| s.broadcast_stats())
    }

    /// Borrow deck `d`'s network receiver, if that deck is remote.
    fn net_deck_source(&mut self, d: usize) -> Option<&mut NetDeckSource> {
        let node = *self.map.net_src.get(d)?;
        self.executor
            .node_processor(node?)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<NetDeckSource>())
    }

    /// Feed the just-finished cycle's concealment evidence to the network
    /// governor and actuate any depth transition it orders.
    ///
    /// * **Shed**: dropouts concentrated in the observation window — buy
    ///   reliability with latency by climbing the depth ladder.
    /// * **Restore**: a full clean restore chunk — give one rung of
    ///   latency back.
    ///
    /// The transition rides [`stage_edits`](Self::stage_edits) /
    /// [`commit`](Self::commit) ([`GraphEdit::SetNetDepth`] per remote
    /// deck), so the `NetSrc` nodes — whose names carry no depth — are
    /// carried across the swap with their buffered audio intact; the new
    /// target is then applied to the carried buffers in place. If staging
    /// or the swap fails the governor is left uncommitted and retries next
    /// cycle. No-op `None` when unarmed or no deck is remote.
    pub fn observe_network(&mut self) -> Option<GovernorOutcome> {
        self.net_degrade.as_ref()?;
        let concealed = self.net_stats().concealed;
        let delta = concealed.saturating_sub(self.net_conceals_seen);
        self.net_conceals_seen = concealed;
        let governor = self.net_degrade.as_mut()?;
        governor.record(delta.min(u32::MAX as u64) as u32);
        let action = governor.pending(self.cycle)?;
        let depth = governor.rung_after(action);
        let edits: Vec<GraphEdit> = (0..4)
            .filter(|&d| self.shape.remote_decks[d])
            .map(|d| GraphEdit::SetNetDepth(d, depth))
            .collect();
        if edits.is_empty() {
            return None;
        }
        let outcome = self.commit_transition(|e| &mut e.net_degrade, action, &edits)?;
        for d in 0..4 {
            if let Some(src) = self.net_deck_source(d) {
                src.set_target_depth(depth);
            }
        }
        Some(outcome)
    }

    /// Cycles run so far.
    pub fn cycles_run(&self) -> u64 {
        self.cycle
    }

    /// Live crossfader control.
    pub fn set_crossfader(&mut self, x: f32) {
        self.ctrl[controls::CROSSFADER] = x.clamp(0.0, 1.0);
    }

    /// Live channel-fader control of deck `d`.
    pub fn set_deck_gain(&mut self, d: usize, gain: f32) {
        self.ctrl[controls::deck_gain(d)] = gain.max(0.0);
    }

    /// Drain the event-middleware queue and apply every control event
    /// (Fig. 2's Event Middleware layer: the GUI and USB controllers never
    /// touch the core directly). Call once per cycle, before
    /// [`run_apc`](Self::run_apc).
    ///
    /// Events addressing decks or FX slots that do not exist in the
    /// current shape are **not** silently swallowed: they are counted in
    /// [`dropped_events`](Self::dropped_events) (and logged in debug
    /// builds) so a misbehaving controller mapping is visible in
    /// telemetry. Topology requests (`DeckLoadState`, `FxChain`) are
    /// translated into [`GraphEdit`]s and parked in
    /// [`take_pending_edits`](Self::take_pending_edits) for the host to
    /// stage off the audio thread.
    pub fn apply_events(&mut self, queue: &mut crate::events::EventQueue) {
        for qe in queue.drain_coalesced() {
            if !self.apply_one(qe.event) {
                self.dropped_events += 1;
                #[cfg(debug_assertions)]
                eprintln!("djstar: dropped out-of-range control event {:?}", qe.event);
            }
        }
    }

    /// The shape that committing every pending edit would produce.
    fn pending_shape(&self) -> GraphShape {
        let mut shape = self.shape;
        for &e in &self.pending_edits {
            // Pending edits were validated against this very sequence when
            // they were queued, so they always apply.
            let _ = apply_edit(&mut shape, e);
        }
        shape
    }

    /// Apply a single control event; `false` means the event referred to a
    /// deck or slot missing from the current shape and was dropped.
    fn apply_one(&mut self, event: crate::events::ControlEvent) -> bool {
        use crate::events::ControlEvent::*;
        use crate::nodes::{ChannelNode, EffectNode};
        match event {
            Crossfader(x) => self.set_crossfader(x),
            MasterGain(g) => self.ctrl[controls::MASTER_GAIN] = g.clamp(0.0, 2.0),
            // Engine-level deck controls exist whether or not the deck's
            // graph section is loaded; only the index must be in range.
            DeckGain(d, g) => {
                if d >= 4 {
                    return false;
                }
                self.set_deck_gain(d, g);
            }
            Nudge(d, delta) => {
                if d >= 4 {
                    return false;
                }
                self.front_mut(d).nudge(delta);
            }
            // Graph-node controls need the node to exist in this shape.
            DeckEq(d, eq) => {
                let Some(node) = self.map.channel(d) else {
                    return false;
                };
                if let Some(ch) = self
                    .executor
                    .node_processor(node)
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<ChannelNode>())
                {
                    ch.set_eq(eq[0], eq[1], eq[2]);
                }
            }
            DeckFilter(d, pos) => {
                let Some(node) = self.map.channel(d) else {
                    return false;
                };
                if let Some(ch) = self
                    .executor
                    .node_processor(node)
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<ChannelNode>())
                {
                    ch.set_filter(pos);
                }
            }
            FxToggle(d, slot, on) => {
                let Some(node) = self.map.fx(d, slot) else {
                    return false;
                };
                if let Some(fx) = self
                    .executor
                    .node_processor(node)
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<EffectNode>())
                {
                    fx.set_enabled(on);
                }
            }
            // Topology requests become pending graph edits, diffed against
            // the shape the pending queue will produce so repeated
            // requests never double-stage an edit.
            DeckLoadState(d, load) => {
                if d >= 4 {
                    return false;
                }
                // Already satisfied by the pending queue: a valid no-op.
                if self.pending_shape().deck_loaded[d] == load {
                    return true;
                }
                self.pending_edits.push(if load {
                    GraphEdit::LoadDeck(d)
                } else {
                    GraphEdit::UnloadDeck(d)
                });
            }
            FxChain(d, slots) => {
                let pending = self.pending_shape();
                if d >= 4
                    || !pending.deck_loaded[d]
                    || !(1..=GraphShape::MAX_FX_SLOTS).contains(&slots)
                {
                    return false;
                }
                let cur = pending.fx_slots[d];
                for _ in cur..slots {
                    self.pending_edits.push(GraphEdit::InsertFxSlot(d));
                }
                for _ in slots..cur {
                    self.pending_edits.push(GraphEdit::RemoveFxSlot(d));
                }
            }
        }
        true
    }

    /// Tag this engine (and everything it records — telemetry rings,
    /// flight windows) with a venue session id. Re-applied automatically
    /// across thread-resize rebuilds. Takes effect for telemetry rings
    /// and flight recorders installed after the call.
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
        self.executor.set_session(session);
        if self.flight_cfg.is_some() {
            self.executor.set_flight_recorder(self.flight_cfg);
        }
    }

    /// The venue session id this engine was tagged with (0 = solo).
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The worker pool this engine's session is registered on. For a
    /// venue session it is the venue's shared pool; otherwise it is
    /// private to this engine — `threads()` lanes, replaced on a thread
    /// resize, its workers joined when the engine drops.
    pub fn pool(&self) -> &Arc<VenuePool> {
        &self.pool
    }

    /// Beats elapsed at the master tempo, as of the last cycle's VC.
    pub fn beat_clock(&mut self) -> f64 {
        let vc = apc_nodes(&self.map).vc;
        apc_node::<VariousCalc>(&mut self.executor, vc).beat_clock()
    }

    /// Venue cycle, step 1: *stage* this session's APC on the shared pool
    /// without dispatching it. The venue server stages every session,
    /// issues one [`VenuePool::dispatch`], drives lane 0 via
    /// [`VenuePool::run_driver_parts`], then collects each session with
    /// [`venue_finish`](Self::venue_finish). Returns the staged epoch to
    /// collect with.
    pub fn venue_stage(&mut self) -> u64 {
        self.next_cycle();
        self.executor.venue_stage(&[], &self.ctrl)
    }

    /// Venue cycle, step 2: collect the staged APC and return its phase
    /// timings.
    pub fn venue_finish(&mut self, epoch: u64) -> ApcTiming {
        let result = self.executor.venue_collect(epoch);
        self.finish_cycle(result.duration)
    }

    /// Run one full APC — one pool dispatch — and return the phase
    /// timings.
    pub fn run_apc(&mut self) -> ApcTiming {
        self.next_cycle();
        let result = self.executor.run_cycle(&[], &self.ctrl);
        self.finish_cycle(result.duration)
    }

    fn next_cycle(&mut self) {
        self.cycle += 1;
        self.ctrl[controls::CYCLE] = self.cycle as f32;
        if self.cycle == LEARN_AFTER + 1 {
            self.executor.set_learning(true);
        }
    }

    /// Between cycles: the learning window is open, armed and not yet
    /// closed.
    fn learning(&self) -> bool {
        (LEARN_AFTER + 1..LEARN_AFTER + LEARN_CYCLES).contains(&self.cycle)
    }

    /// The cycle just finished closed the learning window: the engine now
    /// prices nodes at what it measured.
    pub(crate) fn learned_now(&self) -> bool {
        self.cycle == LEARN_AFTER + LEARN_CYCLES
    }

    /// The running graph's admission bound under [`costs`](Self::costs):
    /// the makespan its committed staging recorded (a PLAN engine's
    /// learning re-plan records one), else one list schedule of it.
    pub(crate) fn bound_ns(&self) -> u64 {
        self.running_makespan.unwrap_or_else(|| {
            let topo = self.executor.topology();
            self.costs
                .schedule(topo, &self.map.keys, self.threads())
                .makespan_ns()
        })
    }

    /// Close the learning window: price every node at the p50 of its
    /// recorded times (a node without a sample keeps its price), void what
    /// was priced before, and — PLAN — re-plan the running schedule
    /// under the learned costs through one stage → commit at this cycle
    /// boundary.
    fn learn_costs(&mut self) {
        self.executor.set_learning(false);
        let p50s = self.executor.learned_quantiles(0.5);
        let learned = self
            .map
            .keys
            .iter()
            .zip(p50s)
            .map(|(&key, p50)| (key, p50.unwrap_or_else(|| self.costs.cost(key))));
        self.costs = NodeCostModel::from_costs(learned);
        self.reprice();
        if self.strategy() == Strategy::Planned {
            let shape = self.shape;
            // The running shape always compiles; every node carries over.
            if let Ok(mut staged) = self.stage_hollow(&shape) {
                staged.fill(
                    &self.scenario,
                    self.executor.topology(),
                    &mut PartsBin::default(),
                );
                let _ = self.commit(staged);
            }
        }
    }

    /// Split the `window` a cycle occupied into its four phases: TP, GP
    /// and VC are their nodes' own task time divided by the session's
    /// lanes, the graph is the rest. Carries VC's beat clock into the
    /// controls the next cycle's graph reads.
    fn finish_cycle(&mut self, window: Duration) -> ApcTiming {
        let apc = apc_nodes(&self.map);
        let (mut tp, mut gp) = (0, 0);
        for node in apc.fronts {
            let (t, g) = apc_node::<DeckFront>(&mut self.executor, node).work_ns();
            tp += t;
            gp += g;
        }
        let vc_node = apc_node::<VariousCalc>(&mut self.executor, apc.vc);
        let vc = vc_node.work_ns();
        self.ctrl[controls::BEAT_CLOCK] = vc_node.beat_clock() as f32;
        let lanes = self.threads() as u64;
        let share = |ns: u64| Duration::from_nanos(ns / lanes);
        let (tp, gp, vc) = (share(tp), share(gp), share(vc));
        if self.learned_now() {
            self.learn_costs();
        }
        ApcTiming {
            tp,
            gp,
            graph: window.saturating_sub(tp + gp + vc),
            vc,
        }
    }

    /// Run one APC and fold its graph cycle out of the flight recorder
    /// into a [`ScheduleTrace`] (Fig. 11's measured gantt). Takes the
    /// recorder's window, so everything captured before is consumed.
    ///
    /// # Panics
    /// Panics if no flight recorder is installed, or if the window lost
    /// spans to the overwrite-oldest policy (the trace would be partial).
    pub fn run_apc_traced(&mut self) -> ScheduleTrace {
        self.run_apc();
        self.fold_last_cycle()
    }

    /// Take the flight window and fold the cycle just run out of it.
    fn fold_last_cycle(&mut self) -> ScheduleTrace {
        let window = self
            .take_flight_window()
            .expect("run_apc_traced needs an installed flight recorder");
        assert_eq!(
            window.dropped_spans, 0,
            "flight window overflowed: a traced cycle lost spans"
        );
        let cycle = window.cycles.last().expect("the cycle was stamped").cycle;
        ScheduleTrace::of_cycle(&window, cycle).expect("a window holds its own stamp")
    }

    /// Copy the final output packet (the `AudioOut1` node's buffer).
    pub fn output(&mut self) -> AudioBuf {
        let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);
        let node = self.map.audio_out;
        self.executor.read_output(node, &mut out);
        out
    }

    /// Run `n` warm-up cycles (fills stretcher pipelines, settles meters).
    pub fn warmup(&mut self, n: usize) {
        for _ in 0..n {
            self.run_apc();
        }
    }

    /// Run `cycles` APCs and return each graph execution time (the series
    /// behind Table I and Figs. 9/10).
    pub fn graph_times(&mut self, cycles: usize) -> Vec<Duration> {
        (0..cycles).map(|_| self.run_apc().graph).collect()
    }

    /// Run `cycles` traced APCs ([`run_apc_traced`](Self::run_apc_traced))
    /// and collect per-node execution-duration samples (ns), indexed by
    /// node id — the empirical input for the schedule simulator. Sample
    /// `k` of every node is from the `k`-th cycle.
    ///
    /// The samples are a fold over flight spans. With no recorder
    /// installed, a default-sized one is installed for the call and
    /// removed afterwards. If the caller installed one
    /// ([`set_flight_recorder`](Self::set_flight_recorder)), the call
    /// measures through it: whatever it captured before is discarded, each
    /// cycle's window is consumed, and it stays installed.
    ///
    /// # Panics
    /// Panics if a cycle's window lost spans, rather than return a
    /// sample set with a node sample silently missing.
    pub fn measured_node_durations(&mut self, cycles: usize) -> Vec<Vec<u64>> {
        let n = self.executor.topology().len();
        let mut samples = vec![Vec::with_capacity(cycles); n];
        let borrowed = self.flight_cfg.is_some();
        if borrowed {
            self.take_flight_window();
        } else {
            self.set_flight_recorder(Some(FlightConfig::default()));
        }
        for _ in 0..cycles {
            self.run_apc();
            for e in self.fold_last_cycle().executions() {
                samples[e.node as usize].push(e.duration_ns());
            }
        }
        if !borrowed {
            self.set_flight_recorder(None);
        }
        samples
    }

    /// Calibrate a scenario's work profile so the *sequential* graph time
    /// approaches `target`: measures, rescales, and returns the adjusted
    /// scenario. Multiplicative updates converge in one or two rounds when
    /// the burn kernels dominate (release builds at paper scale); the
    /// six-round budget also handles regimes where a fixed DSP floor makes
    /// each step smaller (e.g. debug builds).
    pub fn calibrate(mut scenario: Scenario, target: Duration, probe_cycles: usize) -> Scenario {
        for _ in 0..6 {
            let mut engine =
                AudioEngine::with_aux(scenario.clone(), Strategy::Sequential, 1, AuxWork::light());
            engine.warmup(probe_cycles / 4 + 1);
            let mut times = engine.graph_times(probe_cycles);
            // Median, not mean: on shared hosts individual probes absorb
            // scheduler stalls that would bias the calibration upward.
            times.sort();
            let median_ns = times[times.len() / 2].as_nanos() as f64;
            let factor = target.as_nanos() as f64 / median_ns.max(1.0);
            // Damp extreme corrections; the burn kernel is linear enough
            // that one mild step converges.
            let factor = factor.clamp(0.02, 50.0);
            scenario.work = scenario.work.scaled(factor);
            if (factor - 1.0).abs() < 0.05 {
                break;
            }
        }
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use djstar_core::graph::Section;
    use djstar_workload::scenario::Scenario;

    fn light_engine(strategy: Strategy, threads: usize) -> AudioEngine {
        AudioEngine::with_aux(Scenario::light_test(), strategy, threads, AuxWork::light())
    }

    #[test]
    fn sequential_engine_produces_audio() {
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(20);
        let out = e.output();
        assert!(out.is_finite());
        assert!(out.rms() > 1e-4, "rms {}", out.rms());
        assert!(out.peak() <= 1.0 + 1e-5);
    }

    #[test]
    fn all_strategies_produce_identical_audio() {
        let mut reference = light_engine(Strategy::Sequential, 1);
        reference.warmup(30);
        let want = reference.output();
        for strategy in [
            Strategy::Busy,
            Strategy::Sleep,
            Strategy::Steal,
            Strategy::Hybrid,
            Strategy::Planned,
        ] {
            let mut e = light_engine(strategy, 3);
            e.warmup(30);
            let got = e.output();
            assert_eq!(
                want.samples(),
                got.samples(),
                "{strategy:?} diverged from sequential"
            );
        }
    }

    /// The allocation behind deck `d`'s loaded track.
    fn deck_track(e: &mut AudioEngine, d: usize) -> djstar_workload::Track {
        let player = e.front_mut(d).player();
        player.expect("active deck").track().clone()
    }

    #[test]
    fn a_scenario_loads_each_track_once_for_engine_and_admitted_session() {
        use crate::venue::{SessionSpec, VenueServer};
        use djstar_workload::Track;
        let s = Scenario::light_test();
        // A PLAN engine and a session the venue admitted, each run past
        // its learning window (and the PLAN engine past its re-plan
        // commit). Pricing builds no engine of its own: the prior is a
        // walk of the graph, the learned costs come from the engine's own
        // lanes. Tracks loaded anywhere else would be in the shared
        // library, not the engine's.
        let mut engine = AudioEngine::with_aux(s.clone(), Strategy::Planned, 2, AuxWork::light());
        engine.warmup(20);
        assert_eq!(engine.commit_cycles(), &[16], "one re-plan commit");
        let mut server = VenueServer::new(2, Duration::from_millis(500), 0.1);
        let id = server
            .admit(SessionSpec {
                scenario: s.clone(),
                strategy: Strategy::Planned,
                threads: 2,
                aux: AuxWork::light(),
            })
            .expect("a light session fits a 500 ms period");
        server.run_cycles(20);
        // Equal configuration, constructed on its own: its own load.
        let mut stranger = light_engine(Strategy::Sequential, 1);
        for d in 0..4 {
            let loaded = s.track(d);
            assert!(Track::ptr_eq(&loaded, &deck_track(&mut engine, d)));
            let admitted = server.engine_mut(id).expect("admitted above");
            assert!(Track::ptr_eq(&loaded, &deck_track(admitted, d)));
            let other = deck_track(&mut stranger, d);
            assert!(!Track::ptr_eq(&loaded, &other));
            assert_eq!(loaded.samples(), other.samples());
        }
        // An edit after the clone reaches the next engine built from it.
        let mut edited = s.clone();
        edited.decks[0].track_seed += 1;
        edited.decks[1].bpm = 140.0;
        edited.track_secs = 1.0;
        let mut e = AudioEngine::with_aux(edited, Strategy::Sequential, 1, AuxWork::light());
        assert_ne!(deck_track(&mut e, 0).samples(), s.track(0).samples());
        assert_eq!(deck_track(&mut e, 1).bpm(), 140.0);
        assert_eq!(deck_track(&mut e, 2).samples().len(), 44_100);
    }

    #[test]
    fn a_resize_keeps_the_engine_cost_model_for_staging_and_admission() {
        let mut e = light_engine(Strategy::Planned, 2);
        let costs = NodeCostModel::uniform(1_000);
        e.recalibrate_admission(costs.clone());
        let mut target = *e.shape();
        target.fx_slots[0] += 1;
        let edit = [GraphEdit::InsertFxSlot(0)];
        let (graph, map) = crate::graphbuild::hollow_graph(e.scenario(), &target);
        let bound = |lanes| {
            costs
                .schedule(graph.topology(), &map.keys, lanes)
                .makespan_ns()
        };
        let (one_lane, two_lanes) = (bound(1), bound(2));
        assert!(two_lanes < one_lane);
        // A budget 1 ns under the one-lane bound: the two-lane engine fits.
        e.enable_admission(AdmissionControl::new(one_lane - 1, 0.0));
        assert!(e.stage_edits(&edit).is_ok());

        e.reconfigure(&[GraphEdit::ResizeThreads(1)])
            .expect("resize");
        assert_eq!(e.threads(), 1);
        assert!(
            e.map.keys.iter().all(|&key| e.costs().cost(key) == 1_000),
            "a resize must not re-price the engine's model"
        );
        // Admission prices the shape from that same model on one lane now.
        match e.stage_edits(&edit) {
            Err(ReconfigError::Unschedulable(u)) => {
                assert_eq!((u.bound_ns, u.budget_ns), (one_lane, one_lane - 1));
            }
            other => panic!("a 1 ns-tight budget must reject, got {:?}", other.err()),
        }
    }

    #[test]
    fn apc_timing_has_all_phases() {
        let mut e = light_engine(Strategy::Sequential, 1);
        let t = e.run_apc();
        assert!(t.tp.as_nanos() > 0);
        assert!(t.gp.as_nanos() > 0);
        assert!(t.graph.as_nanos() > 0);
        assert!(t.vc.as_nanos() > 0);
        assert_eq!(t.total(), t.tp + t.gp + t.graph + t.vc);
    }

    #[test]
    fn graph_times_returns_requested_count() {
        let mut e = light_engine(Strategy::Busy, 2);
        e.warmup(5);
        let times = e.graph_times(25);
        assert_eq!(times.len(), 25);
        assert!(times.iter().all(|d| d.as_nanos() > 0));
    }

    #[test]
    fn measured_durations_cover_all_nodes() {
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(3);
        let samples = e.measured_node_durations(10);
        // The paper's 67 nodes and the APC's five.
        assert_eq!(samples.len(), 67 + crate::graphbuild::APC_NODES);
        assert!(samples.iter().all(|s| s.len() == 10));
    }

    #[test]
    fn measured_durations_fold_to_telemetry_exec_ns_exactly() {
        // Remote decks book net wait and concealment every cycle, so their
        // nodes' spans are carved into NetWait / Conceal / Exec pieces;
        // the fold must merge them back to the interval telemetry timed.
        let mut e = AudioEngine::with_aux(
            net_scenario(djstar_workload::NetSpec::bursty(5)),
            Strategy::Busy,
            2,
            AuxWork::light(),
        );
        e.warmup(5);
        e.set_telemetry(true);
        let _ = e.take_telemetry();
        let cycles = 24;
        let samples = e.measured_node_durations(cycles);
        assert!(e.take_flight_window().is_none(), "own recorder removed");
        let ring = e.take_telemetry().expect("telemetry on");
        let records: Vec<_> = ring.iter().collect();
        assert_eq!(records.len(), cycles);
        // TP, GP and VC nodes are recorded, but not booked as graph exec.
        let topo = e.executor.topology();
        let graph_nodes: Vec<&Vec<u64>> = (0..topo.len())
            .filter(|&n| topo.section(djstar_core::graph::NodeId(n as u32)) != Section::Apc)
            .map(|n| &samples[n])
            .collect();
        assert_eq!(
            graph_nodes.len() + crate::graphbuild::APC_NODES,
            samples.len()
        );
        let mut net_ns = 0;
        for (k, rec) in records.iter().enumerate() {
            let t = rec.totals();
            let folded: u64 = graph_nodes.iter().map(|s| s[k]).sum();
            assert_eq!(folded, t.exec_ns, "cycle {k}: fold vs exec_ns");
            net_ns += t.net_wait_ns + t.net_conceal_ns;
        }
        assert!(net_ns > 0, "no span was carved: nothing checked");

        // Through a caller's recorder: same samples shape, still installed.
        e.set_flight_recorder(Some(FlightConfig::default()));
        let samples = e.measured_node_durations(3);
        assert!(samples.iter().all(|s| s.len() == 3));
        assert!(e.take_flight_window().is_some(), "caller's recorder kept");
    }

    #[test]
    fn crossfader_control_changes_output() {
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(40);
        e.set_crossfader(0.0); // full deck A
        e.warmup(10);
        let a_side = e.output().rms();
        e.set_crossfader(1.0); // full deck B
        e.warmup(10);
        let b_side = e.output().rms();
        // Both produce audio, but they are different mixes.
        assert!(a_side > 1e-4 && b_side > 1e-4);
        e.set_crossfader(0.0);
        e.warmup(10);
        let back = e.output();
        assert!(back.rms() > 1e-4);
    }

    #[test]
    fn deck_fader_mutes_channel() {
        let mut e = light_engine(Strategy::Sequential, 1);
        for d in 0..4 {
            e.set_deck_gain(d, 0.0);
        }
        e.warmup(60); // long enough for the sampler one-shot to decay
        let out = e.output();
        // All faders down: only the (clock-triggered) sampler contributes,
        // and between one-shots the mix is silent or near-silent.
        assert!(out.rms() < 0.2, "rms {}", out.rms());
    }

    #[test]
    fn event_middleware_applies_controls() {
        use crate::events::{ControlEvent, EventQueue};
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(30);
        let mut q = EventQueue::standard();
        // Slam every fader shut via events only.
        q.push(0, ControlEvent::Crossfader(0.5));
        for d in 0..4 {
            q.push(0, ControlEvent::DeckGain(d, 0.0));
        }
        e.apply_events(&mut q);
        assert!(q.is_empty());
        e.warmup(60);
        assert!(e.output().rms() < 0.2, "faders via events had no effect");
    }

    #[test]
    fn fx_toggle_event_changes_audio() {
        use crate::events::{ControlEvent, EventQueue};
        let mut a = light_engine(Strategy::Sequential, 1);
        let mut b = light_engine(Strategy::Sequential, 1);
        let mut q = EventQueue::standard();
        for slot in 0..4 {
            for d in 0..4 {
                q.push(0, ControlEvent::FxToggle(d, slot, false));
            }
        }
        b.apply_events(&mut q);
        a.warmup(40);
        b.warmup(40);
        let with_fx = a.output();
        let without_fx = b.output();
        assert_ne!(
            with_fx.samples(),
            without_fx.samples(),
            "disabling all effects must change the mix"
        );
        assert!(without_fx.is_finite());
    }

    #[test]
    fn nudge_event_shifts_decoded_tempo() {
        use crate::events::{ControlEvent, EventQueue};
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(20);
        let baseline = e.front_mut(0).decoded_speed();
        let mut q = EventQueue::standard();
        q.push(0, ControlEvent::Nudge(0, 0.3));
        e.apply_events(&mut q);
        // The decoder's sliding window needs a couple of buffers to reflect
        // a sudden platter acceleration (like a real stylus reading).
        e.run_apc();
        e.run_apc();
        let nudged = e.front_mut(0).decoded_speed();
        assert!(
            nudged > baseline * 1.06,
            "nudge had no effect: {baseline} -> {nudged}"
        );
        // The nudge decays back.
        e.warmup(80);
        let settled = e.front_mut(0).decoded_speed();
        assert!(
            (settled - baseline).abs() < 0.08,
            "nudge did not decay: {settled}"
        );
    }

    #[test]
    fn calibration_moves_toward_target() {
        // The target is set relative to the *measured* light-profile time:
        // in debug builds the raw DSP floor is orders of magnitude slower
        // than in release, so an absolute microsecond target would be
        // unreachable. Calibration must scale the burn budgets so the
        // graph lands near 3x the floor; tolerances are wide because the
        // test harness runs suites concurrently on a possibly single-core
        // box.
        let uncalibrated = {
            let mut e = AudioEngine::with_aux(
                Scenario::light_test(),
                Strategy::Sequential,
                1,
                AuxWork::light(),
            );
            e.warmup(5);
            let t = e.graph_times(20);
            t.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / 20.0
        };
        let target = Duration::from_nanos((uncalibrated * 3.0) as u64);
        let calibrated = AudioEngine::calibrate(Scenario::light_test(), target, 30);
        let mut e = AudioEngine::with_aux(calibrated, Strategy::Sequential, 1, AuxWork::light());
        e.warmup(5);
        let times = e.graph_times(20);
        let mean_ns: f64 =
            times.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / times.len() as f64;
        assert!(
            mean_ns > uncalibrated * 1.3 && mean_ns < uncalibrated * 10.0,
            "calibration missed: floor {uncalibrated} ns, target {target:?}, got {mean_ns} ns"
        );
    }

    /// Sum of fault events recorded in `cycles` telemetry cycles.
    fn fault_events_in(e: &mut AudioEngine, cycles: usize) -> u64 {
        e.set_telemetry(true);
        e.warmup(cycles);
        let ring = e.take_telemetry().expect("telemetry ring");
        e.set_telemetry(false);
        ring.iter().map(|r| r.totals().fault_events()).sum()
    }

    #[test]
    fn storm_faults_fire_and_leave_audio_bit_exact() {
        let mut clean = light_engine(Strategy::Busy, 2);
        let mut faulted = light_engine(Strategy::Busy, 2);
        faulted.set_faults(Some(FaultPlan::storm(0xE14).with_iters(40, 40, 20)));
        assert!(fault_events_in(&mut faulted, 40) > 0, "storm never fired");
        clean.warmup(40);
        assert_eq!(
            clean.output().samples(),
            faulted.output().samples(),
            "fault injection must not touch the audio path"
        );
    }

    #[test]
    fn quiet_fault_plan_is_inert() {
        let mut e = light_engine(Strategy::Sleep, 2);
        e.set_faults(Some(FaultPlan::quiet(9)));
        assert_eq!(fault_events_in(&mut e, 30), 0);
        e.set_faults(None);
        assert_eq!(e.fault_plan(), None);
    }

    #[test]
    fn faults_survive_thread_resize_rebuild() {
        let mut e = light_engine(Strategy::Busy, 2);
        e.set_faults(Some(FaultPlan::storm(0xE14).with_iters(40, 40, 20)));
        e.reconfigure(&[GraphEdit::ResizeThreads(3)]).unwrap();
        assert_eq!(e.threads(), 3);
        assert!(
            fault_events_in(&mut e, 40) > 0,
            "rebuild dropped the fault plan"
        );
    }

    #[test]
    fn flight_recorder_survives_thread_resize_rebuild() {
        use djstar_core::flight::FlightConfig;
        let mut e = light_engine(Strategy::Busy, 2);
        e.set_flight_recorder(Some(FlightConfig::default()));
        e.warmup(5);
        let first = e.take_flight_window().expect("recorder installed");
        assert!(!first.is_empty(), "no spans before the rebuild");
        e.reconfigure(&[GraphEdit::ResizeThreads(3)]).unwrap();
        assert_eq!(e.commit_cycles(), &[5], "rebuild must log its cycle");
        e.warmup(5);
        let second = e
            .take_flight_window()
            .expect("rebuild dropped the recorder");
        assert!(!second.is_empty(), "no spans after the rebuild");
        e.set_flight_recorder(None);
        e.warmup(2);
        assert!(e.take_flight_window().is_none());
    }

    #[test]
    fn flight_window_carries_cycle_stamps() {
        use djstar_core::flight::FlightConfig;
        let mut e = light_engine(Strategy::Steal, 2);
        e.set_flight_recorder(Some(FlightConfig::default()));
        e.warmup(6);
        let w = e.take_flight_window().expect("recorder installed");
        assert!(w.cycles.len() >= 6, "stamps: {}", w.cycles.len());
        let last = w.cycles.last().unwrap();
        assert!(w.stamp_for(last.cycle).is_some());
        assert!(!w.spans_in(last.cycle).is_empty());
    }

    #[test]
    fn degradation_sheds_then_restores_through_the_swap_path() {
        let mut e = light_engine(Strategy::Busy, 2);
        e.warmup(10);
        e.enable_degradation(GovernorConfig {
            window: 8,
            shed_misses: 4,
            restore_clean: 6,
            restore_tolerance: 1,
            min_dwell: 10,
        });
        let full_shape = *e.shape();

        // Sustained misses: the governor must shed exactly once.
        let mut shed = None;
        for _ in 0..20 {
            e.run_apc();
            if let Some(o) = e.observe_deadline(true) {
                assert!(shed.replace(o).is_none(), "double shed");
            }
        }
        let shed = shed.expect("sustained misses must shed");
        assert_eq!(shed.action, GovernorAction::Shed);
        assert!(e.is_degraded());
        for d in 0..4 {
            assert_eq!(e.shape().fx_slots[d], 1, "deck {d} FX chain not shed");
        }
        assert!(e.output().is_finite());

        // Pressure clears: the governor must restore the saved shape.
        let mut restored = None;
        for _ in 0..40 {
            e.run_apc();
            if let Some(o) = e.observe_deadline(false) {
                assert!(restored.replace(o).is_none(), "double restore");
            }
        }
        let restored = restored.expect("clean air must restore");
        assert_eq!(restored.action, GovernorAction::Restore);
        assert!(!e.is_degraded());
        assert_eq!(*e.shape(), full_shape, "restore must rebuild full quality");
        assert!(restored.generation > shed.generation);
        let events = e.degrade_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].action, GovernorAction::Shed);
        assert_eq!(events[1].action, GovernorAction::Restore);
        assert!(e.output().is_finite());
        assert!(e.output().rms() > 1e-4, "audio died across shed/restore");
    }

    #[test]
    fn degradation_unarmed_is_a_no_op() {
        let mut e = light_engine(Strategy::Sequential, 1);
        e.warmup(5);
        for _ in 0..50 {
            e.run_apc();
            assert!(e.observe_deadline(true).is_none());
        }
        assert!(!e.is_degraded());
        assert!(e.degrade_events().is_empty());
    }

    fn net_scenario(net: djstar_workload::NetSpec) -> Scenario {
        let mut s = Scenario::light_test();
        s.net = net;
        s
    }

    #[test]
    fn networked_engine_produces_audio_and_counts_packets() {
        let mut e = AudioEngine::with_aux(
            net_scenario(djstar_workload::NetSpec::lossy(7)),
            Strategy::Sequential,
            1,
            AuxWork::light(),
        );
        assert!(e.node_map().net_src[0].is_some(), "deck A should be remote");
        assert!(
            e.node_map().broadcast.is_some(),
            "lossy preset carries listeners"
        );
        e.warmup(60);
        let out = e.output();
        assert!(out.is_finite());
        assert!(out.rms() > 1e-4, "rms {}", out.rms());
        let stats = e.net_stats();
        assert!(stats.received > 60, "receivers saw no packets: {stats:?}");
        assert!(
            stats.lost + stats.late > 0,
            "lossy trace produced no faults: {stats:?}"
        );
        let depths = e.net_depths();
        assert!(depths[0] >= 1 && depths[2] == 0, "depths {depths:?}");
        assert!(e.broadcast_stats().is_some());
    }

    #[test]
    fn networked_strategies_produce_identical_audio() {
        let scenario = net_scenario(djstar_workload::NetSpec::lossy(11));
        let mut reference =
            AudioEngine::with_aux(scenario.clone(), Strategy::Sequential, 1, AuxWork::light());
        reference.warmup(40);
        let want = reference.output();
        assert!(want.rms() > 1e-4);
        for strategy in [
            Strategy::Busy,
            Strategy::Sleep,
            Strategy::Steal,
            Strategy::Hybrid,
            Strategy::Planned,
        ] {
            let mut e = AudioEngine::with_aux(scenario.clone(), strategy, 3, AuxWork::light());
            e.warmup(40);
            assert_eq!(
                want.samples(),
                e.output().samples(),
                "{strategy:?} diverged from sequential on the networked graph"
            );
        }
    }

    #[test]
    fn net_governor_deepens_through_the_swap_path() {
        // Shallow buffer under heavy jitter: conceals pile up fast, so the
        // governor must climb the depth ladder via staged generation swaps.
        let mut net = djstar_workload::NetSpec::lossy(3);
        net.jitter = 6;
        net.start_depth = 1;
        net.max_depth = 8;
        let mut e = AudioEngine::with_aux(net_scenario(net), Strategy::Busy, 2, AuxWork::light());
        e.warmup(10);
        let gen0 = e.generation();
        e.enable_net_degradation(
            GovernorConfig {
                window: 8,
                shed_misses: 2,
                restore_clean: 512,
                restore_tolerance: 0,
                min_dwell: 6,
            },
            2,
        );
        assert_eq!(e.net_target_depth(), Some(1), "start at the node's depth");
        let mut outcomes = Vec::new();
        for _ in 0..200 {
            e.run_apc();
            if let Some(o) = e.observe_network() {
                outcomes.push(o);
            }
        }
        assert!(
            !outcomes.is_empty(),
            "heavy jitter on a depth-1 buffer must force a deepen"
        );
        let first = outcomes[0];
        assert_eq!(first.action, GovernorAction::Shed);
        assert!(
            first.generation > gen0,
            "retune must ride a generation swap"
        );
        let target = e.net_target_depth().unwrap();
        assert!(target > 1);
        // Shape, carried node and governor all agree on the new rung.
        assert_eq!(e.shape().net_depth[0], target);
        assert_eq!(e.net_depths()[0], target);
        let events = e.net_degrade_events();
        assert_eq!(events.len(), outcomes.len());
        // The carried jitter buffer kept its history across every swap.
        assert!(e.net_stats().received > 150, "state lost across swaps");
        assert!(e.output().is_finite());
        assert!(e.output().rms() > 1e-4, "audio died across depth retunes");
    }

    #[test]
    fn net_governor_is_quiet_on_a_clean_network() {
        let mut e = AudioEngine::with_aux(
            net_scenario(djstar_workload::NetSpec::clean(5)),
            Strategy::Sequential,
            1,
            AuxWork::light(),
        );
        e.warmup(10);
        e.enable_net_degradation(GovernorConfig::NETWORK, 2);
        for _ in 0..100 {
            e.run_apc();
            assert!(
                e.observe_network().is_none(),
                "clean reception must never retune"
            );
        }
        assert!(e.net_degrade_events().is_empty());
        let stats = e.net_stats();
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.concealed, 0);
        let bc = e.broadcast_stats().expect("clean preset has listeners");
        assert_eq!(bc.dropped, 0, "clean network must not drop broadcast");
    }

    #[test]
    fn net_governor_unarmed_is_a_no_op() {
        let mut e = AudioEngine::with_aux(
            net_scenario(djstar_workload::NetSpec::bursty(5)),
            Strategy::Sequential,
            1,
            AuxWork::light(),
        );
        for _ in 0..50 {
            e.run_apc();
            assert!(e.observe_network().is_none());
        }
        assert!(e.net_degrade_events().is_empty());
        assert_eq!(e.net_target_depth(), None);
    }

    #[test]
    fn rearming_the_deadline_governor_while_shed_keeps_full_quality() {
        let cfg = GovernorConfig {
            window: 8,
            shed_misses: 4,
            restore_clean: 16,
            restore_tolerance: 0,
            min_dwell: 4,
        };
        let mut e = light_engine(Strategy::Busy, 2);
        e.warmup(5);
        let (full, full_aux) = (*e.shape(), e.aux);
        e.enable_degradation(cfg);
        let drive = |e: &mut AudioEngine, missed: bool, cycles: usize| {
            for _ in 0..cycles {
                e.run_apc();
                e.observe_deadline(missed);
            }
        };
        drive(&mut e, true, 12);
        assert!(e.is_degraded());
        // Re-arm while shed: the next transition must be the restore to
        // the state saved before the first shed.
        e.enable_degradation(cfg);
        drive(&mut e, true, 12);
        drive(&mut e, false, 80);
        assert!(!e.is_degraded());
        assert_eq!(
            e.shape().fx_slots,
            full.fx_slots,
            "re-arming lost the full FX chains"
        );
        assert_eq!(e.aux, full_aux, "re-arming lost the full aux weights");
    }
}
