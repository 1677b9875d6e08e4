//! Graph execution runtime: per-node atomic dependency state and the one
//! executor, [`PoolExecutor`], that every strategy runs on.
//!
//! The paper's §V strategies share one queue and one graph and differ only
//! in *how a thread waits for a dependency*. The code says the same: a
//! [`PoolExecutor`] owns the session state, the pool membership and all
//! instrumentation, and a wait *policy*, a value chosen from the
//! [`Strategy`] when the session is built, supplies the lane loop —
//!
//! | policy | labels | a lane waits by | hooks |
//! |---|---|---|---|
//! | `Seq` | SEQ | not at all: one lane walks the whole queue | — |
//! | `Spin` / `Replay` | BUSY / PLAN | a `Backoff` wait on `done_epoch` (round-robin slots / blueprint slots) | `adopt` (PLAN: check the lane count + swap the blueprint, bound at staging) |
//! | `Park { spin }` | SLEEP, HYBRID | parking on `pending` — HYBRID after `Backoff`'s spin phase | — |
//! | `Steal` | WS | popping, stealing, then parking in the idle set | `seed`, `settle`, `adopt` |
//!
//! An executor is built from a strategy, a [`StagedGeneration`], a lane
//! count and a pool ([`PoolExecutor::new`] for a private one,
//! [`PoolExecutor::with_pool`] for a shared one), and takes its first
//! generation the way it adopts every later one.
//! `Backoff` is the one poll loop: every wait above that polls, the
//! driver's done barrier, WS `settle` and the pool's batch wait and
//! quiesce run through it. A PLAN schedule reaches core as per-lane node
//! orders and is bound to a graph once, where the two meet:
//! [`StagedGeneration::with_plan`] calls [`ScheduleBlueprint::bind`].
//!
//! # The epoch protocol
//!
//! Every cycle has an *epoch* (a monotonically increasing `u64`). A node is
//! "done for epoch E" when its `done_epoch` atomic equals `E`. The protocol:
//!
//! 1. Between cycles, only the driver thread touches node state. It resets
//!    pending-dependency counters, writes the external inputs, picks the
//!    next epoch from its own counter, then publishes the cycle with the
//!    pool epoch's `Release` store (and wakes workers; see [`pool`]).
//! 2. A worker acquires the pool epoch (`Acquire` load), which makes every
//!    driver write of step 1 visible — the session epoch it then reads
//!    from its pool entry included.
//! 3. The executing worker of a node reads each predecessor's output only
//!    after observing `done_epoch == E` with `Acquire`; the predecessor's
//!    executor stored it with `Release` after writing the output. This
//!    happens-before edge makes the output buffer read safe.
//! 4. Exactly one worker executes each node per cycle (*exactly-once
//!    ownership*): BUSY/SLEEP assign nodes statically round-robin; WS
//!    transfers ownership through deque `pop`/`steal` uniqueness, with a
//!    node entering a deque exactly once (when its pending counter hits
//!    zero, which `fetch_sub` reports to exactly one caller).
//! 5. The driver returns from `run_cycle` only after the done-counter
//!    reaches the node count with `Acquire`, so after `run_cycle` all node
//!    state is again owned by the driver (workers increment the counter
//!    with `Release` as their final access of the cycle).
//!
//! # Generation swaps
//!
//! Topology is *generational*: a [`StagedGeneration`] (a fully built
//! [`ExecGraph`], plus for PLAN a [`ScheduleBlueprint`] bound to it) is
//! prepared away from the audio thread, then adopted between cycles through
//! [`PoolExecutor::adopt_generation`]. The swap is driver-only (`&mut
//! self` plus a pool quiesce proves no cycle is in flight; pool workers sit
//! in the batch wait loop, touching only pool atomics) and becomes visible to the
//! workers through the very next epoch `Release` store — the same edge that
//! already publishes the external inputs, so no extra synchronization and
//! no worker teardown. The epoch counter continues monotonically across the
//! swap, which makes the fresh cells' `done_epoch == 0` unable to alias any
//! live epoch; runtime state (processor boxes and output buffers) of nodes
//! that survive the swap is carried over by node name, so DSP state and the
//! last rendered audio persist and the handover is glitch-free. A staged
//! generation may be *hollow* — its surviving nodes hold a
//! [`vacant`](crate::processor::vacant) placeholder for the carry-over to
//! fill — and the adopt hands the generation it replaced back to the
//! caller as a [`RetiredGeneration`] instead of freeing it on the audio
//! thread.

mod busy;
mod executor;
mod learn;
mod planned;
pub mod pool;
mod sequential;
mod sleeping;
mod stealing;

pub use executor::PoolExecutor;
pub use planned::{round_robin_lanes, BlueprintError, PlannedNode, ScheduleBlueprint};
pub use pool::VenuePool;
pub use stealing::seed_target;

use crate::faults::FaultPlan;
use crate::flight::{CycleStamp, FlightRecorder};
use crate::graph::{GraphTopology, NodeId, TaskGraph, MAX_GROUP};
use crate::pad::CachePadded;
use crate::processor::{CycleCtx, Processor, Sibling};
use crate::telemetry::CycleCounters;
use djstar_dsp::AudioBuf;
use learn::CostCell;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum number of predecessors a node may have (the DJ Star mixer has 5).
const MAX_INPUTS: usize = 16;

/// The scheduling strategies of the paper (§V) plus the sequential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Original single-threaded queue execution.
    Sequential,
    /// Busy-waiting: round-robin static assignment, spin on dependencies.
    Busy,
    /// Thread-sleeping: round-robin static assignment, park on dependencies,
    /// predecessors wake the registered executor.
    Sleep,
    /// Work-stealing: per-thread deques of ready nodes.
    Steal,
    /// Extension (not in the paper): spin for a bounded budget, then park.
    Hybrid,
    /// Extension: execute a static schedule (per-lane node orders,
    /// typically `djstar-sim`'s resource-constrained list schedule, bound
    /// to the graph as a [`ScheduleBlueprint`]) with zero runtime queue
    /// management.
    Planned,
}

impl Strategy {
    /// The strategy's name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sequential => "SEQ",
            Strategy::Busy => "BUSY",
            Strategy::Sleep => "SLEEP",
            Strategy::Steal => "WS",
            Strategy::Hybrid => "HYBRID",
            Strategy::Planned => "PLAN",
        }
    }

    /// Every strategy, in the order the tables list them.
    pub const ALL: [Strategy; 6] = [
        Strategy::Sequential,
        Strategy::Busy,
        Strategy::Sleep,
        Strategy::Steal,
        Strategy::Hybrid,
        Strategy::Planned,
    ];

    /// Lanes a session of this strategy runs on when asked for `lanes`:
    /// SEQ runs everything on the driver, whatever `lanes` says.
    pub fn lanes(self, lanes: usize) -> usize {
        if self == Strategy::Sequential {
            1
        } else {
            lanes
        }
    }
}

/// A fully prepared topology generation, buildable off the audio thread:
/// the first one an executor is built with, or one handed to a running
/// executor through [`PoolExecutor::adopt_generation`].
///
/// The expensive work — graph construction, buffer allocation and (for
/// PLAN) binding the schedule's lanes to the graph — happens in [`StagedGeneration::new`] /
/// [`StagedGeneration::with_plan`], which any thread may call. The adopt
/// itself is then a pointer-sized swap plus a name-keyed state carry-over.
pub struct StagedGeneration {
    exec: ExecGraph,
    plan: Option<ScheduleBlueprint>,
}

impl StagedGeneration {
    /// Stage `graph` with `frames`-frame output buffers.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        StagedGeneration {
            exec: ExecGraph::new(graph, frames),
            plan: None,
        }
    }

    /// Stage `graph` together with a PLAN schedule: `lanes` (lane `w`'s
    /// node ids, in execution order) are bound here to `graph`'s own edges
    /// — the one binding a staged plan gets, and core's one call of
    /// [`ScheduleBlueprint::bind`] — so building a PLAN executor or
    /// adopting the generation only checks the lane count. Other
    /// strategies ignore the blueprint; PLAN refuses a generation staged
    /// without one ([`SwapError::NoPlan`]).
    pub fn with_plan(
        graph: TaskGraph,
        frames: usize,
        lanes: &[Vec<u32>],
    ) -> Result<Self, BlueprintError> {
        let topo = graph.topology();
        let plan = ScheduleBlueprint::bind(lanes, topo.len(), |n| topo.preds(NodeId(n)))?;
        Ok(StagedGeneration {
            exec: ExecGraph::new(graph, frames),
            plan: Some(plan),
        })
    }

    /// Stage `graph` with the round-robin plan on `lanes` lanes
    /// ([`round_robin_lanes`]: BUSY's placement), which binds to every
    /// graph — a generation every strategy runs, PLAN on `lanes` lanes.
    pub fn round_robin(graph: TaskGraph, frames: usize, lanes: usize) -> Self {
        let plan = round_robin_lanes(graph.topology(), lanes);
        Self::with_plan(graph, frames, &plan).expect("a depth-queue round-robin always binds")
    }

    /// The staged topology.
    pub fn topology(&self) -> &GraphTopology {
        self.exec.topology()
    }

    /// Number of nodes in the staged generation.
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// True when the staged graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// Whether a PLAN blueprint was staged alongside the graph.
    pub fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// The staged PLAN blueprint, when one was bound alongside the
    /// graph. Lets differential tests compare cached generations against
    /// freshly staged ones slot by slot.
    pub fn plan(&self) -> Option<&ScheduleBlueprint> {
        self.plan.as_ref()
    }

    /// The processor slot of `node`: how a stager installs a real
    /// processor where the graph was built with a
    /// [`vacant`](crate::processor::vacant) one. The replacement must
    /// declare the same `output_channels` (the node's buffer is already
    /// laid out).
    pub fn part_mut(&mut self, node: NodeId) -> &mut Box<dyn Processor> {
        &mut self.exec.runtimes[node.idx()].0.get_mut().processor
    }

    /// Bytes of the buffers and per-node cells this generation owns
    /// (topology, blueprint and processors not counted).
    pub fn heap_bytes(&self) -> usize {
        self.exec.arena.capacity_floats() * std::mem::size_of::<f32>()
            + self.exec.len()
                * (std::mem::size_of::<NodeCell>() + std::mem::size_of::<RuntimeCell>())
    }

    pub(crate) fn into_parts(self) -> (ExecGraph, Option<ScheduleBlueprint>) {
        (self.exec, self.plan)
    }
}

/// What [`PoolExecutor::adopt_generation`] returns: the new generation
/// number or the refusal, and the generation to drop elsewhere.
pub type Adoption = (Result<u64, SwapError>, RetiredGeneration);

/// A generation an executor no longer runs: the one an adopt replaced, or
/// a staged one it refused. It exists only to be dropped — by whoever
/// receives it, away from the audio thread. Processors of nodes that did
/// not survive the swap die with it; it is never adopted again.
#[allow(dead_code)] // held only to be dropped
pub struct RetiredGeneration {
    exec: ExecGraph,
    /// The refused staged blueprint or, for PLAN, the one the swap
    /// replaced.
    plan: Option<ScheduleBlueprint>,
}

/// Why an executor refused to adopt a staged generation. The running
/// generation is left untouched on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// PLAN: the generation was staged without a blueprint
    /// ([`StagedGeneration::new`] instead of
    /// [`StagedGeneration::with_plan`]).
    NoPlan,
    /// PLAN: the staged blueprint was bound for a different worker count
    /// than the executor runs.
    ThreadMismatch {
        /// Workers the executor runs.
        expected: usize,
        /// Workers the blueprint was bound for.
        got: usize,
    },
    /// A staged node holds a [`vacant`](crate::processor::vacant)
    /// placeholder and the running generation has no node of that name and
    /// channel count to carry a processor over from.
    MissingPart {
        /// Name of the unfilled node.
        name: String,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::NoPlan => write!(f, "generation staged without a blueprint"),
            SwapError::ThreadMismatch { expected, got } => {
                write!(
                    f,
                    "blueprint bound for {got} workers, executor has {expected}"
                )
            }
            SwapError::MissingPart { name } => {
                write!(
                    f,
                    "staged node {name} is vacant and nothing runs to fill it"
                )
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Result of one graph cycle.
#[derive(Debug, Clone, Copy)]
pub struct CycleResult {
    /// Wall-clock graph execution time (what Table I reports).
    pub duration: Duration,
}

/// Runtime payload of a node (behind the `UnsafeCell`).
struct NodeRuntime {
    processor: Box<dyn Processor>,
    output: AudioBuf,
}

/// Cold half of a node's runtime cell: the processor and output buffer,
/// touched only by the node's executor (and predecessor readers after the
/// `Acquire` of `done_epoch`).
struct RuntimeCell(UnsafeCell<NodeRuntime>);

// SAFETY: access is governed by the epoch protocol documented at module
// level (exactly-once ownership per cycle, publication via `done_epoch`).
unsafe impl Sync for RuntimeCell {}

/// Hot half of a node's runtime cell: the atomics every waiter and
/// completer hammers. One cache line per node, so a `done_epoch` store for
/// node *i* never invalidates the line a spinner is polling for node *i+1*
/// (the adjacent-node false sharing the packed layout suffered from).
#[repr(align(64))]
pub(crate) struct NodeCell {
    /// Unmet-dependency counter for the current epoch (SLEEP and WS).
    pub(crate) pending: AtomicU32,
    /// Epoch this node last completed.
    pub(crate) done_epoch: AtomicU64,
    /// SLEEP: registered executor worker index + 1 (0 = none).
    pub(crate) waiter: AtomicUsize,
}

/// A value written only by the driver between cycles and read by workers
/// after acquiring the epoch.
pub(crate) struct DriverCell<T>(UnsafeCell<T>);

// SAFETY: the epoch protocol (driver writes happen-before the Release epoch
// store; workers read after the Acquire epoch load; workers' reads complete
// before their Release done-count increment, which the driver Acquires).
unsafe impl<T: Send> Sync for DriverCell<T> {}

impl<T> DriverCell<T> {
    pub(crate) fn new(v: T) -> Self {
        DriverCell(UnsafeCell::new(v))
    }

    /// Driver-only write between cycles.
    ///
    /// # Safety
    /// No cycle may be in flight and only the driver may call this.
    pub(crate) unsafe fn set(&self, v: T) {
        *self.0.get() = v;
    }

    /// Driver-only in-place mutation between cycles.
    ///
    /// # Safety
    /// No cycle may be in flight and only the driver may call this.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self) -> &mut T {
        &mut *self.0.get()
    }

    /// Read during a cycle (after acquiring the epoch) or by the driver.
    ///
    /// # Safety
    /// Caller must hold the epoch-acquire happens-before edge described in
    /// the module docs (or be the driver between cycles).
    pub(crate) unsafe fn get(&self) -> &T {
        &*self.0.get()
    }
}

/// External per-cycle inputs, copied in by the driver.
#[derive(Default)]
pub(crate) struct ExternalInputs {
    pub audio: Vec<AudioBuf>,
    pub controls: Vec<f32>,
}

/// The executable form of a [`TaskGraph`]: topology plus runtime cells.
///
/// The per-node state is split hot/cold: `cells` holds the scheduling
/// atomics (one cache line per node), `runtimes` the processor and output
/// buffer. Spinners only ever touch `cells`, so completing a neighboring
/// node never steals their line.
pub struct ExecGraph {
    topo: Arc<GraphTopology>,
    cells: Box<[NodeCell]>,
    runtimes: Box<[RuntimeCell]>,
    /// One cache-aligned allocation backing every node's output buffer
    /// (each node's `output` is a view into a distinct, cache-line-rounded
    /// slot). Allocated once at build time; never touched directly during
    /// a cycle — all access goes through the node output views under the
    /// epoch protocol. Kept alive here for exactly as long as the views.
    #[allow(dead_code)]
    arena: djstar_dsp::BufferArena,
    /// Placeholder for initializing input reference arrays.
    empty: AudioBuf,
}

impl ExecGraph {
    /// Build the runtime graph; every node gets an output buffer of
    /// `frames` frames with the processor's channel count.
    ///
    /// # Panics
    /// Panics if any node has more than `MAX_INPUTS` (16) predecessors.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        let (topo, processors) = graph.into_parts();
        for n in 0..topo.len() {
            assert!(
                topo.preds(NodeId(n as u32)).len() <= MAX_INPUTS,
                "node {n} has more than {MAX_INPUTS} predecessors"
            );
        }
        // One arena slot per node output, all in a single cache-aligned
        // allocation (planar slabs, cache-line-rounded so neighboring nodes
        // never share a line).
        let specs: Vec<(usize, usize)> = (0..topo.len())
            .map(|n| (topo.channels(NodeId(n as u32)), frames))
            .collect();
        let arena = djstar_dsp::BufferArena::new(&specs);
        let runtimes: Box<[RuntimeCell]> = processors
            .into_iter()
            .enumerate()
            .map(|(n, processor)| {
                // SAFETY: slot `n` is a distinct arena region; the view is
                // owned by exactly this node's runtime cell, whose access is
                // governed by the epoch protocol, and the arena lives in the
                // same `ExecGraph` as the view.
                let output = unsafe { arena.view(n) };
                RuntimeCell(UnsafeCell::new(NodeRuntime { processor, output }))
            })
            .collect();
        let cells: Box<[NodeCell]> = (0..runtimes.len())
            .map(|_| NodeCell {
                pending: AtomicU32::new(0),
                done_epoch: AtomicU64::new(0),
                waiter: AtomicUsize::new(0),
            })
            .collect();
        ExecGraph {
            topo: Arc::new(topo),
            cells,
            runtimes,
            arena,
            empty: AudioBuf::zeroed(1, 1),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &GraphTopology {
        &self.topo
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the graph has no nodes (never, for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub(crate) fn cell(&self, node: usize) -> &NodeCell {
        &self.cells[node]
    }

    /// Wait until `node` is done for `epoch` (BUSY and PLAN dependency
    /// wait) through a [`Backoff`] whose yield phase `shares_cpu` decides
    /// — from the first poll when the caller already knows it is `shared`.
    /// Returns the number of polls — 0 iff no waiting occurred.
    #[inline]
    pub(crate) fn spin_until_done(
        &self,
        node: usize,
        epoch: u64,
        shared: bool,
        shares_cpu: impl Fn() -> bool,
    ) -> u64 {
        let cell = &self.cells[node];
        if cell.done_epoch.load(Ordering::Acquire) == epoch {
            return 0;
        }
        let mut backoff = if shared {
            Backoff::yielding()
        } else {
            Backoff::new()
        };
        while cell.done_epoch.load(Ordering::Acquire) != epoch {
            backoff.snooze(&shares_cpu);
        }
        backoff.polls()
    }

    /// Run `node`'s processor for `ctx.epoch` WITHOUT publishing its
    /// completion; [`publish`](Self::publish) must follow. The two halves
    /// exist so an instrumented caller can take the node's end timestamp
    /// between them: stamped after the publishing store, a pre-empted
    /// worker would let a successor's recorded start precede this node's
    /// recorded end.
    ///
    /// # Safety
    /// Caller must be the exclusive executor of `node` this epoch, and every
    /// predecessor must already be done for `epoch` (observed with
    /// `Acquire`).
    pub(crate) unsafe fn process(&self, node: usize, ctx: &CycleCtx<'_>) {
        let preds = self.topo.preds(NodeId(node as u32));
        let mut inputs: [&AudioBuf; MAX_INPUTS] = [&self.empty; MAX_INPUTS];
        for (k, &p) in preds.iter().enumerate() {
            // SAFETY: predecessor is done for this epoch; its executor
            // released the output before the done_epoch store we acquired.
            inputs[k] = &(*self.runtimes[p as usize].0.get()).output;
        }
        // SAFETY: exclusive ownership of `node` this epoch.
        let rt = &mut *self.runtimes[node].0.get();
        rt.processor
            .process(&inputs[..preds.len()], &mut rt.output, ctx);
    }

    /// Run the sibling group `members` for `ctx.epoch` WITHOUT publishing
    /// any of them: one [`Processor::process_batch`] call on the first
    /// member, with the others' processors and outputs staged on the
    /// stack, or — when it declines — each member's
    /// [`process`](Self::process) in order. Allocates nothing.
    ///
    /// # Safety
    /// As [`process`](Self::process), for every member; `members` is a
    /// group the graph's builder checked (distinct nodes, one predecessor
    /// list, at most [`MAX_GROUP`]).
    pub(crate) unsafe fn process_batch(&self, members: &[u32], ctx: &CycleCtx<'_>) {
        let Some((&lead, rest)) = members.split_first() else {
            return;
        };
        debug_assert!(members.len() <= MAX_GROUP);
        let preds = self.topo.preds(NodeId(lead));
        let mut inputs: [&AudioBuf; MAX_INPUTS] = [&self.empty; MAX_INPUTS];
        for (k, &p) in preds.iter().enumerate() {
            // SAFETY: as in `process`; every member shares these
            // predecessors.
            inputs[k] = &(*self.runtimes[p as usize].0.get()).output;
        }
        let mut staged = [const { MaybeUninit::<Sibling<'_>>::uninit() }; MAX_GROUP];
        for (slot, &m) in staged.iter_mut().zip(rest) {
            // SAFETY: exclusive ownership of every member this epoch, and
            // the members are distinct nodes, so no two references alias.
            let rt = &mut *self.runtimes[m as usize].0.get();
            slot.write(Sibling {
                processor: &mut *rt.processor,
                output: &mut rt.output,
            });
        }
        // SAFETY: the first `rest.len()` slots were just written, and a
        // `Sibling` is two references: nothing to drop.
        let siblings =
            std::slice::from_raw_parts_mut(staged.as_mut_ptr().cast::<Sibling<'_>>(), rest.len());
        // SAFETY: exclusive ownership of the lead member this epoch.
        let rt = &mut *self.runtimes[lead as usize].0.get();
        let inputs = &inputs[..preds.len()];
        if !rt
            .processor
            .process_batch(&mut rt.output, siblings, inputs, ctx)
        {
            for &m in members {
                // SAFETY: the caller's contract; the batch's references
                // are dead.
                self.process(m as usize, ctx);
            }
        }
    }

    /// Publish `node` as done for `epoch` (`Release`: the output written
    /// by [`process`](Self::process) becomes visible to whoever acquires
    /// it).
    #[inline]
    pub(crate) fn publish(&self, node: usize, epoch: u64) {
        self.cells[node].done_epoch.store(epoch, Ordering::Release);
    }

    /// Execute `node` for `ctx.epoch` and publish its completion.
    ///
    /// # Safety
    /// As [`process`](Self::process).
    #[inline]
    pub(crate) unsafe fn execute(&self, node: usize, ctx: &CycleCtx<'_>) {
        self.process(node, ctx);
        self.publish(node, ctx.epoch);
    }

    /// Reset pending counters for a new cycle. Driver only, between cycles.
    pub(crate) fn reset_pending(&self) {
        for n in 0..self.cells.len() {
            let preds = self.topo.preds(NodeId(n as u32)).len() as u32;
            self.cells[n].pending.store(preds, Ordering::Relaxed);
            self.cells[n].waiter.store(0, Ordering::Relaxed);
        }
    }

    /// Refuse a graph a node of which is still
    /// [`vacant`](crate::processor::vacant): what an adopt does when the
    /// running generation has no node to carry a processor over from.
    fn check_filled(&mut self) -> Result<(), SwapError> {
        let vacant = |rt: &mut RuntimeCell| rt.0.get_mut().processor.is_vacant();
        match self.runtimes.iter_mut().position(vacant) {
            Some(n) => Err(SwapError::MissingPart {
                name: self.topo.name(NodeId(n as u32)).to_string(),
            }),
            None => Ok(()),
        }
    }

    /// The node of `old` that node `n` of this graph continues.
    fn survivor_in(&self, n: usize, old: &ExecGraph) -> Option<usize> {
        let id = NodeId(n as u32);
        let survivor = old
            .topo
            .survivor(self.topo.name(id), self.topo.channels(id));
        survivor.map(NodeId::idx)
    }

    /// Carry runtime state over from `old` for every node that survives a
    /// topology swap. Nodes are matched by their unique name; a surviving
    /// node keeps its processor box (filters, delay lines, knob settings)
    /// and its last rendered output, so reads between the swap and the next
    /// cycle still see valid audio; `old` is left holding what this graph
    /// held there (a [`vacant`](crate::processor::vacant), for a hollow
    /// generation). Fails when a vacant node has no survivor to take a
    /// processor from, with every processor back where it was. Returns the
    /// number of carried nodes. Driver only, between cycles (`&mut` on both
    /// graphs proves it); allocates only on the error path.
    fn carry_over_from(&mut self, old: &mut ExecGraph) -> Result<usize, SwapError> {
        let mut carried = 0;
        for n in 0..self.runtimes.len() {
            let Some(o) = self.survivor_in(n, old) else {
                if self.runtimes[n].0.get_mut().processor.is_vacant() {
                    // Swapping is its own inverse: undo, newest first.
                    for m in (0..n).rev() {
                        if let Some(o) = self.survivor_in(m, old) {
                            let back = &mut old.runtimes[o].0.get_mut().processor;
                            std::mem::swap(&mut self.runtimes[m].0.get_mut().processor, back);
                        }
                    }
                    let name = self.topo.name(NodeId(n as u32)).to_string();
                    return Err(SwapError::MissingPart { name });
                }
                continue;
            };
            let new_rt = self.runtimes[n].0.get_mut();
            let old_rt = old.runtimes[o].0.get_mut();
            std::mem::swap(&mut new_rt.processor, &mut old_rt.processor);
            if new_rt.output.frames() == old_rt.output.frames() {
                // Copy, never swap: both outputs are views into their own
                // generation's arena, and the old arena dies with the old
                // graph — a swapped-in view would dangle.
                new_rt.output.copy_from(&old_rt.output);
            }
            carried += 1;
        }
        Ok(carried)
    }

    /// Copy a node's output through the `UnsafeCell` without `&mut self`.
    ///
    /// # Safety
    /// Only the driver may call this, with no cycle in flight (the threaded
    /// executors enforce it by requiring `&mut` on themselves).
    pub(crate) unsafe fn read_output_unsync(&self, node: NodeId, dst: &mut AudioBuf) {
        let rt = &*self.runtimes[node.idx()].0.get();
        if rt.output.channels() == dst.channels() && rt.output.frames() == dst.frames() {
            dst.copy_from(&rt.output);
        } else {
            dst.clear();
            dst.mix_add(&rt.output, 1.0);
        }
    }

    /// Mutable processor access through the `UnsafeCell` without `&mut self`.
    ///
    /// # Safety
    /// Same contract as [`read_output_unsync`](Self::read_output_unsync);
    /// additionally the caller must not create overlapping references to the
    /// same node.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn node_processor_unsync(&self, node: NodeId) -> &mut dyn Processor {
        (*self.runtimes[node.idx()].0.get()).processor.as_mut()
    }
}

/// One session's state, shared between the driver and the pool workers
/// running its lanes. Everything here is strategy-independent; what a
/// strategy adds (deques, a blueprint) lives in its policy.
pub(crate) struct Shared {
    /// The current topology generation's runtime graph. Replaced only by
    /// the driver between cycles ([`Shared::adopt_exec`]); workers read it
    /// after the epoch-acquire edge, exactly like `external` below.
    exec: DriverCell<ExecGraph>,
    /// Number of generation swaps performed (driver-read telemetry).
    pub generation: AtomicU64,
    /// Nodes completed this cycle; workers increment with `Release`. The
    /// single most contended atomic of the queue-based policies — it gets
    /// its own cache line.
    pub done_count: CachePadded<AtomicU32>,
    /// Lane count, including the driver (lane 0).
    pub threads: usize,
    /// Whether to record telemetry counters this cycle.
    pub telemetry: AtomicBool,
    /// Whether to fold node execution times into `costs` this cycle.
    pub learning: AtomicBool,
    /// The CPU each lane started its part of the current cycle on
    /// ([`UNKNOWN_CPU`] before its first), written by that lane.
    pub lane_cpus: Box<[AtomicU32]>,
    /// One execution-time histogram per node of the graph the session was
    /// built with, preallocated.
    costs: Box<[CostCell]>,
    /// The installed flight recorder, if any (one plain load per cycle per
    /// lane when off). Written only by the driver between cycles
    /// ([`PoolExecutor::set_flight_recorder`] takes `&mut`), lanes
    /// written by their owning workers during a cycle — the contract
    /// documented in [`crate::flight`].
    pub recorder: DriverCell<Option<FlightRecorder>>,
    /// Per-worker telemetry counters, recorded `Relaxed` on the hot path
    /// and drained by the driver between cycles.
    pub counters: Box<[CycleCounters]>,
    /// The installed fault-injection plan, if any. Written only by the
    /// driver between cycles ([`PoolExecutor::set_faults`] takes `&mut`),
    /// read by workers after the epoch-acquire edge — the same contract as
    /// `exec` and `external`.
    pub faults: DriverCell<Option<FaultPlan>>,
    /// External inputs for the current cycle.
    pub external: DriverCell<ExternalInputs>,
    /// Instant of the current cycle's start (the recorder's cycle stamp).
    pub cycle_start: DriverCell<Instant>,
    /// Thread handles by lane; slot 0 is refreshed by the driver each
    /// cycle (the driver runs lane 0), the rest are the pool workers
    /// serving those lanes.
    pub handles: DriverCell<Vec<std::thread::Thread>>,
}

impl Shared {
    /// Session state for `exec` with one lane per handle.
    pub(crate) fn new(exec: ExecGraph, handles: Vec<std::thread::Thread>) -> Self {
        let threads = handles.len();
        let costs = (0..exec.len()).map(|_| CostCell::new()).collect();
        Shared {
            exec: DriverCell::new(exec),
            generation: AtomicU64::new(0),
            done_count: CachePadded::new(AtomicU32::new(0)),
            threads,
            telemetry: AtomicBool::new(false),
            learning: AtomicBool::new(false),
            lane_cpus: (0..threads).map(|_| AtomicU32::new(UNKNOWN_CPU)).collect(),
            costs,
            recorder: DriverCell::new(None),
            counters: (0..threads).map(|_| CycleCounters::new()).collect(),
            faults: DriverCell::new(None),
            external: DriverCell::new(ExternalInputs::default()),
            cycle_start: DriverCell::new(Instant::now()),
            handles: DriverCell::new(handles),
        }
    }

    /// The current generation's runtime graph.
    ///
    /// Only two access contexts exist in this module, and both satisfy the
    /// [`DriverCell`] contract: the driver between cycles (the only writer),
    /// and workers holding the epoch-acquire edge of the cycle the graph
    /// was published for. Hence a safe accessor.
    #[inline]
    pub(crate) fn graph(&self) -> &ExecGraph {
        // SAFETY: see above; swaps are driver-only between cycles and
        // published by the next epoch Release store.
        unsafe { self.exec.get() }
    }

    /// Swap in a staged generation's graph, carrying over runtime state of
    /// surviving nodes. Returns the new generation number with the graph
    /// that was running; on `Err` (a vacant node nothing can fill) the
    /// running graph is untouched and the refused one comes back. `plan`,
    /// the staged blueprint, is retired with either.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight (the pool must be quiesced, so
    /// workers sit in the batch wait loop touching only pool atomics).
    pub(crate) unsafe fn adopt_exec(
        &self,
        mut exec: ExecGraph,
        plan: Option<ScheduleBlueprint>,
    ) -> Adoption {
        let running = self.exec.get_mut();
        let verdict = exec.carry_over_from(running).map(|_| {
            std::mem::swap(running, &mut exec);
            // Publication rides the next epoch Release store; the counter
            // is driver-read bookkeeping only. The epoch keeps counting
            // across the swap, so nothing in the fresh graph can claim to
            // be done for a past or future cycle.
            self.generation.fetch_add(1, Ordering::Relaxed) + 1
        });
        (verdict, RetiredGeneration { exec, plan })
    }

    /// Driver-side: stamp a finished cycle's bounds into the recorder, if
    /// one is installed. Call after the cycle-completion barrier, before
    /// the next `prepare_cycle`.
    pub(crate) fn stamp_cycle(&self, cycle: u64, end: Instant) {
        // SAFETY: driver between cycles (the only writer of the cell).
        if let Some(rec) = unsafe { self.recorder.get() }.as_ref() {
            let start = unsafe { *self.cycle_start.get() };
            let stamp = CycleStamp {
                cycle,
                start_ns: rec.now_ns(start),
                end_ns: rec.now_ns(end),
            };
            // SAFETY: driver-only between cycles.
            unsafe { rec.stamp(stamp) };
        }
    }

    /// Driver-side, first half of starting a cycle: reset the graph's
    /// per-cycle state and copy the external inputs in. Nothing is
    /// published yet — the policy's `seed` hook runs next, then
    /// [`start_cycle`](Self::start_cycle).
    ///
    /// # Safety
    /// Must only be called by the driver with no cycle in flight.
    pub(crate) unsafe fn prepare_cycle(&self, external_audio: &[AudioBuf], controls: &[f32]) {
        self.graph().reset_pending();
        self.done_count.store(0, Ordering::Relaxed);
        let ext = self.external.get_mut();
        // Reuse allocations where layouts match.
        if ext.audio.len() == external_audio.len()
            && ext
                .audio
                .iter()
                .zip(external_audio)
                .all(|(a, b)| a.channels() == b.channels() && a.frames() == b.frames())
        {
            for (dst, src) in ext.audio.iter_mut().zip(external_audio) {
                dst.copy_from(src);
            }
        } else {
            ext.audio = external_audio.to_vec();
        }
        ext.controls.clear();
        ext.controls.extend_from_slice(controls);
    }

    /// Driver-side, second half: start the cycle clock WITHOUT waking any
    /// workers. Lane execution is driven by the venue pool: a single
    /// batch-level wakeup ([`pool::VenuePool::dispatch`]) covers every
    /// staged session, and its pool epoch's Release/Acquire edge publishes
    /// this cycle — its epoch included, which workers read from their pool
    /// entry.
    ///
    /// # Safety
    /// As [`prepare_cycle`](Self::prepare_cycle), which must have run.
    pub(crate) unsafe fn start_cycle(&self) {
        self.handles.get_mut()[0] = std::thread::current();
        self.cycle_start.set(Instant::now());
    }

    /// Driver-side: wait until all nodes finished.
    pub(crate) fn wait_cycle_done(&self) {
        let n = self.graph().len() as u32;
        Backoff::wait_until(|| self.done_count.load(Ordering::Acquire) == n);
    }

    /// Fold `ns` into `node`'s cost histogram (a node past the
    /// histograms the session was built with goes unrecorded).
    ///
    /// # Safety
    /// The caller is the exclusive executor of `node` this epoch.
    #[inline]
    pub(crate) unsafe fn learn(&self, node: u32, ns: u64) {
        if let Some(cell) = self.costs.get(node as usize) {
            cell.record(ns);
        }
    }

    /// Clear every cost histogram.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight.
    pub(crate) unsafe fn clear_costs(&self) {
        for cell in self.costs.iter() {
            cell.get_mut().clear();
        }
    }

    /// The `q`-quantile of every node's cost histogram, in node order.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight.
    pub(crate) unsafe fn cost_quantiles(&self, q: f64) -> Vec<Option<u64>> {
        (0..self.graph().len())
            .map(|n| self.costs.get(n).and_then(|c| c.get_mut().quantile(q)))
            .collect()
    }

    /// Record completion of one node; returns `true` when it was the last.
    #[inline]
    pub(crate) fn node_finished(&self) -> bool {
        let prev = self.done_count.fetch_add(1, Ordering::Release) + 1;
        prev == self.graph().len() as u32
    }
}

/// How long a lane spins on a wait before it starts yielding its CPU.
/// Most waits of a lane on a CPU of its own end within it, so such lanes
/// seldom pay a yield; where lanes share a CPU, the lane that must produce
/// what is waited for gets the CPU after this long. A budget counted in
/// polls cannot promise either: its length in time is the host's `pause`
/// latency times the count. HYBRID parks after it.
pub const SPIN_PHASE: Duration = Duration::from_micros(10);

/// Polls between two clock reads of the spin phase.
const POLLS_PER_CLOCK_READ: u64 = 64;

/// The executors' one poll loop: spin until [`SPIN_PHASE`] has passed
/// (the clock is read every [`POLLS_PER_CLOCK_READ`] polls), then yield on
/// every poll — if the caller's `shares_cpu` says the CPU is shared with
/// what it waits for; otherwise spin another phase and ask again. A yield
/// hands the CPU to any runnable thread, not only to the one waited for:
/// beside an unrelated busy process it costs a time slice of several
/// milliseconds, where spinning costs only the spin. A waiter that parks
/// instead of yielding (HYBRID) runs only the spin phase, through
/// [`spin`](Self::spin). A waiter that already knows it shares its CPU
/// skips the spin phase: [`yielding`](Self::yielding).
pub(crate) struct Backoff {
    polls: u64,
    yields: u64,
    /// In the spin phase: `snooze` spins, and asks `shares_cpu` when the
    /// phase has passed.
    spinning: bool,
    since: Instant,
}

impl Backoff {
    /// Start the spin phase now.
    #[inline]
    pub(crate) fn new() -> Self {
        Backoff {
            polls: 1,
            yields: 0,
            spinning: true,
            since: Instant::now(),
        }
    }

    /// Start in the yield phase: every poll yields, and nothing is asked.
    #[inline]
    pub(crate) fn yielding() -> Self {
        Backoff {
            spinning: false,
            ..Backoff::new()
        }
    }

    /// Wait until `done` holds, yielding after the spin phase: a driver
    /// waiting for lanes that may share its CPU.
    pub(crate) fn wait_until(done: impl Fn() -> bool) {
        if done() {
            return;
        }
        let mut backoff = Backoff::new();
        while !done() {
            backoff.snooze(|| true);
        }
    }

    /// Spin out one failed poll of the spin phase; `false` (and no wait)
    /// once the phase has passed.
    #[inline]
    pub(crate) fn spin(&mut self) -> bool {
        self.polls += 1;
        let phase_over =
            self.polls.is_multiple_of(POLLS_PER_CLOCK_READ) && self.since.elapsed() >= SPIN_PHASE;
        if !phase_over {
            core::hint::spin_loop();
        }
        !phase_over
    }

    /// Wait out one failed poll.
    #[inline]
    pub(crate) fn snooze(&mut self, shares_cpu: impl FnOnce() -> bool) {
        if self.spinning {
            if self.spin() {
                return;
            }
            if !shares_cpu() {
                self.since = Instant::now();
                return core::hint::spin_loop();
            }
            self.spinning = false;
        } else {
            self.polls += 1;
        }
        self.yields += 1;
        std::thread::yield_now();
    }

    /// Polls so far, the first included.
    pub(crate) fn polls(&self) -> u64 {
        self.polls
    }

    /// Polls of the yield phase so far.
    pub(crate) fn yields(&self) -> u64 {
        self.yields
    }
}

/// [`current_cpu`]'s answer where the platform gives none.
pub(crate) const UNKNOWN_CPU: u32 = u32::MAX;

/// The CPU the calling thread runs on, or [`UNKNOWN_CPU`].
#[cfg(target_os = "linux")]
pub(crate) fn current_cpu() -> u32 {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: `sched_getcpu(3)` takes no arguments and writes no memory.
    u32::try_from(unsafe { sched_getcpu() }).unwrap_or(UNKNOWN_CPU)
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn current_cpu() -> u32 {
    UNKNOWN_CPU
}

/// Graphs and checks shared by the executor test suites.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::flight::FlightConfig;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::FnProcessor;
    use crate::trace::ScheduleTrace;

    /// A `strategy` executor of `lanes` lanes over `graph` with 8-frame
    /// buffers on a private pool; PLAN replays the round-robin lanes.
    pub(crate) fn build(strategy: Strategy, graph: TaskGraph, lanes: usize) -> PoolExecutor {
        let staged = StagedGeneration::round_robin(graph, 8, lanes);
        PoolExecutor::new(strategy, staged, lanes).expect("a filled round-robin generation")
    }

    /// Install a default-sized flight recorder on `ex`.
    pub(crate) fn record(ex: &mut PoolExecutor) {
        ex.set_flight_recorder(Some(FlightConfig::default()));
    }

    /// Run one cycle of `ex`, whose flight recorder must be installed, and
    /// fold it into its schedule trace.
    pub(crate) fn traced_cycle(ex: &mut PoolExecutor) -> ScheduleTrace {
        ex.run_cycle(&[], &[]);
        let window = ex.take_flight_window().expect("recorder installed");
        let cycle = window.cycles.last().expect("cycle stamped").cycle;
        ScheduleTrace::of_cycle(&window, cycle).expect("stamp in its window")
    }

    /// n0 fills 1.0, n1 fills 2.0, n2 sums its inputs, n3 copies n2.
    pub(crate) fn diamond_sum_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let n0 = b.add(
            "one",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(1.0);
                },
            )),
            &[],
        );
        let n1 = b.add(
            "two",
            Section::DeckB,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(2.0);
                },
            )),
            &[],
        );
        let n2 = b.add(
            "sum",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.clear();
                    for i in inp {
                        out.mix_add(i, 1.0);
                    }
                },
            )),
            &[n0, n1],
        );
        b.add(
            "copy",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.copy_from(inp[0]);
                },
            )),
            &[n2],
        );
        b.build().unwrap()
    }

    /// `width` sources (filling `(i+1) * f(epoch)`), one doubler per source,
    /// and a sink summing all doublers. Sink value:
    /// `2 * f(epoch) * width*(width+1)/2`.
    pub(crate) fn fan_graph(width: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut doublers = Vec::new();
        for i in 0..width {
            let src = b.add(
                format!("src{i}"),
                Section::deck(i % 4),
                Box::new(FnProcessor(
                    move |_: &[&AudioBuf], out: &mut AudioBuf, ctx: &CycleCtx<'_>| {
                        let f = (ctx.epoch % 7 + 1) as f32;
                        out.samples_mut().fill((i as f32 + 1.0) * f);
                    },
                )),
                &[],
            );
            doublers.push(b.add(
                format!("dbl{i}"),
                Section::deck(i % 4),
                Box::new(FnProcessor(
                    |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                        out.copy_from(inp[0]);
                        out.scale(2.0);
                    },
                )),
                &[src],
            ));
        }
        // Fan into intermediate sums of at most 4 inputs to respect
        // MAX_INPUTS, then a final sink.
        let mut layer = doublers;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for chunk in layer.chunks(4) {
                next.push(b.add(
                    "sum",
                    Section::Master,
                    Box::new(FnProcessor(
                        |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                            out.clear();
                            for i in inp {
                                out.mix_add(i, 1.0);
                            }
                        },
                    )),
                    chunk,
                ));
            }
            layer = next;
        }
        b.build().unwrap()
    }

    /// Run a candidate executor against the sequential baseline on the same
    /// graph for 50 cycles and require identical sink output each cycle.
    pub(crate) fn run_and_check(make: impl FnOnce(TaskGraph) -> PoolExecutor, label: &str) {
        let frames = 8;
        let mut seq = build(Strategy::Sequential, fan_graph(13), 1);
        let mut cand = make(fan_graph(13));
        assert_eq!(seq.topology().len(), cand.topology().len());
        let sink = NodeId((seq.topology().len() - 1) as u32);
        for cycle in 0..50 {
            seq.run_cycle(&[], &[]);
            cand.run_cycle(&[], &[]);
            let mut a = AudioBuf::zeroed(2, frames);
            let mut b = AudioBuf::zeroed(2, frames);
            seq.read_output(sink, &mut a);
            cand.read_output(sink, &mut b);
            assert_eq!(a, b, "{label}: cycle {cycle} diverged");
            // Known closed form for the fan graph.
            let f = ((cycle + 1) % 7 + 1) as f32;
            let expect = 2.0 * f * (13.0 * 14.0 / 2.0);
            assert_eq!(a.sample(0, 0), expect, "{label}: wrong value cycle {cycle}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::{FnProcessor, Passthrough};

    #[test]
    fn exec_graph_executes_in_queue_order() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add(
            "src",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(2.0);
                },
            )),
            &[],
        );
        let _ = b.add(
            "sink",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.copy_from(inp[0]);
                    out.scale(3.0);
                },
            )),
            &[a],
        );
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 8);
        let ctx = CycleCtx::bare(1);
        for &n in exec.topology().queue().to_vec().iter() {
            unsafe { exec.execute(n as usize, &ctx) };
        }
        let mut out = AudioBuf::zeroed(2, 8);
        unsafe { exec.read_output_unsync(NodeId(1), &mut out) };
        assert!(out.samples().iter().all(|&s| s == 6.0));
    }

    #[test]
    fn done_epoch_tracks_epochs() {
        let mut b = TaskGraphBuilder::new();
        b.add("a", Section::DeckA, Box::new(Passthrough), &[]);
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 4);
        let done = || exec.cells[0].done_epoch.load(Ordering::Acquire);
        assert_ne!(done(), 1);
        unsafe { exec.execute(0, &CycleCtx::bare(1)) };
        assert_eq!(done(), 1);
        assert_eq!(exec.spin_until_done(0, 1, false, || true), 0); // already done: no wait
    }

    #[test]
    fn backoff_spins_by_the_clock_then_shares_cpu_alone_decides() {
        let asked = std::cell::Cell::new(0);
        let ask = |answer: bool| {
            asked.set(asked.get() + 1);
            answer
        };
        // The spin phase ends by the clock: the first question comes after
        // SPIN_PHASE, with nothing yielded.
        let t0 = Instant::now();
        let mut backoff = Backoff::new();
        while asked.get() == 0 {
            backoff.snooze(|| ask(false));
        }
        assert!(t0.elapsed() >= SPIN_PHASE);
        assert_eq!(backoff.yields(), 0);
        // "Not shared": spin another whole phase, then ask again.
        while asked.get() == 1 {
            backoff.snooze(|| ask(false));
        }
        assert!(t0.elapsed() >= 2 * SPIN_PHASE);
        assert_eq!(backoff.yields(), 0);
        // "Shared": yield, and on every later poll, without asking again.
        while backoff.yields() == 0 {
            backoff.snooze(|| ask(true));
        }
        for n in 2..=5 {
            backoff.snooze(|| unreachable!("the yield phase asks nothing"));
            assert_eq!(backoff.yields(), n);
        }
        assert_eq!(asked.get(), 3);
        // A waiter that knows its CPU is shared yields from its first poll.
        let mut backoff = Backoff::yielding();
        backoff.snooze(|| unreachable!("a yielding backoff asks nothing"));
        assert_eq!((backoff.polls(), backoff.yields()), (2, 1));
        // A parking waiter runs the spin phase alone: `spin` says when the
        // clock has ended it, and never yields.
        let t0 = Instant::now();
        let mut backoff = Backoff::new();
        while backoff.spin() {}
        assert!(t0.elapsed() >= SPIN_PHASE);
        assert_eq!(backoff.yields(), 0);
    }

    #[test]
    fn reset_pending_restores_counts() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, Box::new(Passthrough), &[]);
        let x = b.add("b", Section::DeckA, Box::new(Passthrough), &[a]);
        b.add("c", Section::DeckA, Box::new(Passthrough), &[a, x]);
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 4);
        exec.reset_pending();
        assert_eq!(exec.cell(0).pending.load(Ordering::Relaxed), 0);
        assert_eq!(exec.cell(1).pending.load(Ordering::Relaxed), 1);
        assert_eq!(exec.cell(2).pending.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "predecessors")]
    fn too_many_preds_rejected() {
        let mut b = TaskGraphBuilder::new();
        let mut preds = Vec::new();
        for i in 0..(MAX_INPUTS + 1) {
            preds.push(b.add(format!("s{i}"), Section::DeckA, Box::new(Passthrough), &[]));
        }
        b.add("sink", Section::Master, Box::new(Passthrough), &preds);
        let g = b.build().unwrap();
        ExecGraph::new(g, 4);
    }

    #[test]
    fn external_inputs_reach_processors() {
        let mut b = TaskGraphBuilder::new();
        b.add(
            "reader",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, ctx: &CycleCtx<'_>| {
                    out.copy_from(&ctx.external_audio[0]);
                    out.scale(ctx.controls[0]);
                },
            )),
            &[],
        );
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 4);
        let ext = AudioBuf::from_fn(2, 4, |_, _| 1.0);
        let ctx = CycleCtx {
            epoch: 1,
            external_audio: std::slice::from_ref(&ext),
            controls: &[0.5],
            counters: None,
        };
        unsafe { exec.execute(0, &ctx) };
        let mut out = AudioBuf::zeroed(2, 4);
        unsafe { exec.read_output_unsync(NodeId(0), &mut out) };
        assert!(out.samples().iter().all(|&s| s == 0.5));
    }
}
