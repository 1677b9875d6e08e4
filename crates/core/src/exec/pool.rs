//! Shared worker pool multiplexing many independent APC graphs per cycle.
//!
//! Before this module, every threaded executor privately owned `threads-1`
//! OS threads: N concurrent sessions cost N×threads and fight the OS
//! scheduler — exactly the oversubscription §V of the paper warns against.
//! A [`VenuePool`] owns the threads once; every executor is a session on a
//! pool (a solo executor is the one session of a private pool, SEQ a
//! one-lane session), and the pool runs lanes without knowing strategies.
//!
//! # The batch protocol
//!
//! The pool runs a batch epoch on top of each session's cycle epoch:
//!
//! 1. The driver *stages* each session: `Shared::prepare_cycle` resets the
//!    session graph and copies externals, the executor takes the next
//!    session epoch from its own driver-owned counter, then
//!    `VenuePool::stage` marks the session's `PoolEntry` for the next batch
//!    with that epoch (plain driver writes; nothing is published yet).
//! 2. One [`VenuePool::dispatch`] bumps the pool epoch (`Release`) and
//!    unparks every pool worker. The pool epoch `Acquire` in the worker
//!    loop publishes *all* staged-session driver writes at once.
//! 3. Worker `w` walks the entry table in order and runs lane `w` of every
//!    session staged for this batch (skipping sessions whose configured
//!    lane count is ≤ `w`) through the session's wait policy. The
//!    driver does the same for lane 0 (directly, or via
//!    [`VenuePool::run_driver_parts`]).
//! 4. Per session, cycle completion is the session's own business: the
//!    driver waits for its done-counter (and, for WS, its cycle exit
//!    barrier).
//! 5. [`VenuePool::quiesce`] waits until every worker has finished walking
//!    the entry table (`exited == workers`). Only after that may the
//!    driver mutate the entry table (register/unregister), reseed WS
//!    deques, or swap a session's topology — everything between batches is
//!    again plain single-threaded data.
//!
//! Deadlock freedom: driver and workers traverse staged sessions in the
//! same entry order, and within a session each policy's own argument
//! applies. All park/wake sites tolerate spurious wakeups, so
//! cross-session unparks (one OS thread serves the same lane of every
//! session) are benign.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use super::executor::Session;
use super::{Backoff, DriverCell};
use crate::pad::CachePadded;

/// One registered session in the pool's entry table. Plain (non-atomic)
/// fields: mutated only between batches, when [`VenuePool::quiesce`] has
/// proven every worker is parked outside the table.
struct PoolEntry {
    id: u64,
    session: Arc<Session>,
    /// Pool epoch this session is staged for (a worker runs the entry only
    /// when this equals the batch it woke for).
    batch_epoch: u64,
    /// The session epoch the executor staged for that batch (its
    /// driver-owned counter), published by the pool epoch `Release`.
    session_epoch: u64,
}

/// State shared between the driver and the pool's worker threads.
struct PoolCore {
    /// Batch epoch. Bumped with `Release` by `dispatch`; the worker-side
    /// `Acquire` publishes every staged session's driver writes.
    epoch: CachePadded<AtomicU64>,
    /// Workers that finished walking the entry table for the current batch.
    exited: CachePadded<AtomicU32>,
    shutdown: AtomicBool,
    /// The entry table. Driver-only between batches; workers hold a shared
    /// reference only while a batch is in flight.
    entries: DriverCell<Vec<PoolEntry>>,
    /// Spawned workers (lanes `1..threads`), i.e. `threads - 1`.
    workers: u32,
}

// SAFETY: `entries` is governed by the batch protocol documented at module
// level — workers read it only between the pool-epoch `Acquire` and their
// `exited` `Release`; the driver mutates it only after `quiesce`.
unsafe impl Sync for PoolCore {}

fn worker_loop(core: &PoolCore, me: usize) {
    let mut seen = 0u64;
    while let Some(pe) = wait_for_batch(core, seen) {
        seen = pe;
        // SAFETY: the pool-epoch Acquire in `wait_for_batch` publishes the
        // driver's entry-table and per-session writes; the driver will not
        // touch the table again before our `exited` Release below.
        let entries = unsafe { core.entries.get() };
        for e in entries.iter() {
            if e.batch_epoch == pe && me < e.session.lanes() {
                // SAFETY: lane `me` of this session's staged cycle is ours
                // alone; the epoch edge is held (see above).
                unsafe { e.session.run_lane(me, e.session_epoch) };
            }
        }
        core.exited.fetch_add(1, Ordering::Release);
    }
}

/// Yielding polls a worker makes between its spin phase and parking.
const YIELDS_BEFORE_PARK: u64 = 512;

/// Worker-side: wait until the pool epoch exceeds `seen` — spin for
/// [`SPIN_PHASE`](super::SPIN_PHASE), yield [`YIELDS_BEFORE_PARK`] times,
/// then park. Returns the new epoch, or `None` on shutdown.
fn wait_for_batch(core: &PoolCore, seen: u64) -> Option<u64> {
    let mut backoff = Backoff::new();
    loop {
        let e = core.epoch.load(Ordering::Acquire);
        if e > seen {
            return Some(e);
        }
        if core.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if backoff.yields() < YIELDS_BEFORE_PARK {
            // The driver that stages the next batch may share this CPU.
            backoff.snooze(|| true);
        } else {
            std::thread::park();
        }
    }
}

/// A persistent shared worker pool that multiplexes many independent APC
/// graphs per cycle. Owns `threads - 1` OS threads (the driver supplies
/// lane 0); sessions of any strategy register onto it and are dispatched
/// in batches. See the module docs for the batch protocol.
pub struct VenuePool {
    core: Arc<PoolCore>,
    threads: usize,
    /// Park handles of the spawned workers: `handles[w - 1]` is lane `w`.
    handles: Vec<std::thread::Thread>,
    joiners: Vec<JoinHandle<()>>,
    /// Driver-side: a dispatched batch has not been quiesced yet.
    in_flight: AtomicBool,
    next_id: AtomicU64,
}

impl VenuePool {
    /// Create a pool with `threads` lanes total (lane 0 is the driver;
    /// `threads - 1` OS threads are spawned).
    pub fn new(threads: usize) -> Self {
        assert!(
            (1..=64).contains(&threads),
            "thread count {threads} out of range"
        );
        let core = Arc::new(PoolCore {
            epoch: CachePadded::new(AtomicU64::new(0)),
            exited: CachePadded::new(AtomicU32::new(0)),
            shutdown: AtomicBool::new(false),
            entries: DriverCell::new(Vec::new()),
            workers: (threads - 1) as u32,
        });
        let mut handles = Vec::with_capacity(threads - 1);
        let mut joiners = Vec::with_capacity(threads - 1);
        for me in 1..threads {
            let c = Arc::clone(&core);
            let j = std::thread::Builder::new()
                .name(format!("venue-worker-{me}"))
                .spawn(move || worker_loop(&c, me))
                .expect("spawn venue worker");
            handles.push(j.thread().clone());
            joiners.push(j);
        }
        VenuePool {
            core,
            threads,
            handles,
            joiners,
            in_flight: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        }
    }

    /// Total lanes (driver + spawned workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Batches dispatched so far: the pool epoch, which every
    /// [`dispatch`](Self::dispatch) advances by one.
    pub fn batches(&self) -> u64 {
        self.core.epoch.load(Ordering::Relaxed)
    }

    /// Number of registered sessions.
    pub fn sessions(&self) -> usize {
        self.quiesce();
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get() }.len()
    }

    /// The park-handle vector a session `Shared` needs: slot 0 is a
    /// placeholder for the driver (refreshed by `prepare_cycle` each
    /// cycle), slots `1..threads` are the pool workers serving those lanes.
    pub(crate) fn session_handles(&self, threads: usize) -> Vec<std::thread::Thread> {
        assert!(
            threads <= self.threads,
            "session wants {threads} lanes, pool has {}",
            self.threads
        );
        let mut v = Vec::with_capacity(threads);
        v.push(std::thread::current());
        v.extend(self.handles[..threads - 1].iter().cloned());
        v
    }

    /// Register a session whose lanes were sized by
    /// [`session_handles`](Self::session_handles). Driver-only; waits for
    /// any in-flight batch.
    pub(crate) fn register(self: &Arc<Self>, session: Arc<Session>) -> PoolBinding {
        debug_assert!(session.lanes() <= self.threads);
        self.quiesce();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get_mut() }.push(PoolEntry {
            id,
            session,
            batch_epoch: 0,
            session_epoch: 0,
        });
        PoolBinding {
            pool: Arc::clone(self),
            session: id,
        }
    }

    fn unregister(&self, session: u64) {
        self.quiesce();
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get_mut() }.retain(|e| e.id != session);
    }

    /// Stage `session`'s prepared cycle `session_epoch` for the next batch.
    /// Driver-only; the previous batch must have been quiesced (the
    /// executors' `venue_stage` does this).
    fn stage(&self, session: u64, session_epoch: u64) {
        debug_assert!(!self.in_flight.load(Ordering::Relaxed));
        let next = self.core.epoch.load(Ordering::Relaxed) + 1;
        // SAFETY: no batch in flight — the table is driver-owned.
        let entries = unsafe { self.core.entries.get_mut() };
        let e = entries
            .iter_mut()
            .find(|e| e.id == session)
            .expect("staged session is registered");
        e.batch_epoch = next;
        e.session_epoch = session_epoch;
    }

    /// Publish the staged batch: bump the pool epoch (`Release`) and wake
    /// every pool worker. The driver must then run its lane-0 share of
    /// every staged session (directly or via
    /// [`run_driver_parts`](Self::run_driver_parts)) before collecting.
    pub fn dispatch(&self) {
        self.core.exited.store(0, Ordering::Relaxed);
        let next = self.core.epoch.load(Ordering::Relaxed) + 1;
        self.core.epoch.store(next, Ordering::Release);
        self.in_flight.store(true, Ordering::Relaxed);
        for h in &self.handles {
            h.unpark();
        }
    }

    /// Run the driver's (lane 0) share of every session staged for the
    /// current batch, in entry order — the same order the workers use.
    pub fn run_driver_parts(&self) {
        let pe = self.core.epoch.load(Ordering::Relaxed);
        // SAFETY: the driver published this batch itself; the table is not
        // mutated while the batch is in flight.
        let entries = unsafe { self.core.entries.get() };
        for e in entries.iter() {
            if e.batch_epoch == pe {
                // SAFETY: lane 0 belongs to the driver; we published the
                // session epoch in `stage`.
                unsafe { e.session.run_lane(0, e.session_epoch) };
            }
        }
    }

    /// Driver-side: wait until every pool worker finished walking the
    /// entry table for the last dispatched batch. After this the table and
    /// all session state are plain driver-owned data again (safe to
    /// register/unregister sessions, reseed WS deques, swap topologies).
    /// No-op when no batch is in flight.
    pub fn quiesce(&self) {
        if !self.in_flight.swap(false, Ordering::Relaxed) {
            return;
        }
        Backoff::wait_until(|| self.core.exited.load(Ordering::Acquire) == self.core.workers);
    }
}

impl Drop for VenuePool {
    fn drop(&mut self) {
        self.quiesce();
        self.core.shutdown.store(true, Ordering::Release);
        for h in &self.handles {
            h.unpark();
        }
        for j in self.joiners.drain(..) {
            let _ = j.join();
        }
    }
}

/// An executor's membership in a pool: keeps the pool alive and
/// unregisters the session on drop.
pub(crate) struct PoolBinding {
    pool: Arc<VenuePool>,
    /// This session's id in the pool's entry table.
    session: u64,
}

impl PoolBinding {
    pub(crate) fn pool(&self) -> &Arc<VenuePool> {
        &self.pool
    }

    /// Stage this session's prepared cycle for the pool's next batch.
    pub(crate) fn stage(&self, session_epoch: u64) {
        self.pool.stage(self.session, session_epoch);
    }
}

impl Drop for PoolBinding {
    fn drop(&mut self) {
        self.pool.unregister(self.session);
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{diamond_sum_graph, fan_graph};
    use super::super::{PoolExecutor, StagedGeneration, Strategy};
    use super::*;
    use crate::graph::TaskGraph;

    const FRAMES: usize = 64;

    /// A `strategy` session of `lanes` lanes over `graph` on `pool`.
    fn on(
        strategy: Strategy,
        graph: TaskGraph,
        lanes: usize,
        pool: &Arc<VenuePool>,
    ) -> PoolExecutor {
        let staged = StagedGeneration::new(graph, FRAMES);
        PoolExecutor::with_pool(strategy, staged, lanes, pool).expect("a filled generation")
    }

    #[test]
    fn two_sessions_share_one_pool() {
        let pool = Arc::new(VenuePool::new(3));
        // Three sessions of three policies — SEQ is staged and run by
        // `run_driver_parts` like any other one-lane session.
        let graphs = [diamond_sum_graph, || fan_graph(7), || fan_graph(5)];
        let mut sessions = vec![
            on(Strategy::Busy, graphs[0](), 3, &pool),
            on(Strategy::Steal, graphs[1](), 2, &pool),
            on(Strategy::Sequential, graphs[2](), 1, &pool),
        ];
        assert_eq!(pool.sessions(), 3);

        // Each session's solo twin, on its own private pool.
        let mut twins: Vec<_> = graphs
            .iter()
            .map(|g| PoolExecutor::new(Strategy::Sequential, StagedGeneration::new(g(), FRAMES), 1))
            .map(|twin| twin.expect("a filled generation"))
            .collect();
        let mut buf = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        let mut want = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        for _ in 0..50 {
            // Batched: stage all, one dispatch, driver parts, collect.
            let epochs: Vec<u64> = sessions
                .iter_mut()
                .map(|s| s.venue_stage(&[], &[]))
                .collect();
            pool.dispatch();
            pool.run_driver_parts();
            for (s, e) in sessions.iter_mut().zip(epochs) {
                s.venue_collect(e);
            }
            pool.quiesce();

            for (s, twin) in sessions.iter_mut().zip(&mut twins) {
                twin.run_cycle(&[], &[]);
                let last = crate::graph::NodeId(s.topology().len() as u32 - 1);
                s.read_output(last, &mut buf);
                twin.read_output(last, &mut want);
                assert_eq!(buf.samples(), want.samples(), "{:?}", s.strategy());
            }
        }
        for left in (0..3).rev() {
            sessions.pop();
            assert_eq!(pool.sessions(), left);
        }
    }

    #[test]
    fn register_unregister_midstream() {
        let pool = Arc::new(VenuePool::new(2));
        let mut a = on(Strategy::Busy, fan_graph(5), 2, &pool);
        for _ in 0..10 {
            a.run_cycle(&[], &[]);
        }
        {
            let mut b = on(Strategy::Busy, fan_graph(9), 2, &pool);
            for _ in 0..10 {
                let ea = a.venue_stage(&[], &[]);
                let eb = b.venue_stage(&[], &[]);
                pool.dispatch();
                pool.run_driver_parts();
                a.venue_collect(ea);
                b.venue_collect(eb);
                pool.quiesce();
            }
        }
        assert_eq!(pool.sessions(), 1);
        for _ in 0..10 {
            a.run_cycle(&[], &[]);
        }
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn oversized_session_rejected() {
        let pool = Arc::new(VenuePool::new(2));
        let _ = on(Strategy::Busy, fan_graph(5), 4, &pool);
    }
}
