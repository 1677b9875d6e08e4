//! Parking and waking idle work-stealing workers.
//!
//! §V-C/§VI: with work-stealing, "sleeping in fact only occurs when there
//! are solely nodes available with unfinished dependencies". When a worker
//! finds its own deque empty and nothing to steal, it registers in an
//! [`IdleSet`] and parks; a worker that releases new ready nodes wakes one
//! registered sleeper to come and steal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::Thread;

/// A set of parked workers, at most 64, tracked in a bitmask.
///
/// The protocol is the standard "register, re-check, park" pattern:
///
/// 1. The idle worker sets its bit, re-checks for work, and only then parks.
/// 2. A producer publishes work *before* calling [`wake_one`](IdleSet::wake_one);
///    if it clears a bit it unparks that worker, which re-checks and finds
///    the work.
///
/// A worker may be unparked spuriously (e.g. by the cycle-start broadcast);
/// callers must always re-check their condition in a loop.
#[derive(Debug)]
pub struct IdleSet {
    bits: AtomicU64,
    threads: Vec<Thread>,
}

impl IdleSet {
    /// An idle set over the given worker thread handles (index = worker id).
    ///
    /// # Panics
    /// Panics if more than 64 workers are supplied.
    pub fn new(threads: Vec<Thread>) -> Self {
        assert!(threads.len() <= 64, "IdleSet supports at most 64 workers");
        IdleSet {
            bits: AtomicU64::new(0),
            threads,
        }
    }

    /// Register `worker` as idle. Call *before* the final work re-check.
    pub fn register(&self, worker: usize) {
        self.bits.fetch_or(1 << worker, Ordering::SeqCst);
    }

    /// Deregister `worker` (after waking or finding work).
    pub fn deregister(&self, worker: usize) {
        self.bits.fetch_and(!(1u64 << worker), Ordering::SeqCst);
    }

    /// Wake one registered idle worker, if any. Returns the woken worker.
    pub fn wake_one(&self) -> Option<usize> {
        loop {
            let bits = self.bits.load(Ordering::SeqCst);
            if bits == 0 {
                return None;
            }
            let w = bits.trailing_zeros() as usize;
            if self
                .bits
                .compare_exchange(bits, bits & !(1 << w), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.threads[w].unpark();
                return Some(w);
            }
        }
    }

    /// Wake every registered idle worker (cycle end / shutdown broadcast).
    pub fn wake_all(&self) {
        let bits = self.bits.swap(0, Ordering::SeqCst);
        for w in 0..self.threads.len() {
            if bits & (1 << w) != 0 {
                self.threads[w].unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn register_and_wake_one() {
        let set = IdleSet::new(vec![std::thread::current(); 3]);
        set.register(1);
        assert_eq!(set.bits.load(Ordering::SeqCst), 0b10);
        assert_eq!(set.wake_one(), Some(1));
        assert_eq!(set.bits.load(Ordering::SeqCst), 0);
        assert_eq!(set.wake_one(), None);
    }

    #[test]
    fn wake_one_picks_lowest_index() {
        let set = IdleSet::new(vec![std::thread::current(); 4]);
        set.register(3);
        set.register(1);
        assert_eq!(set.wake_one(), Some(1));
        assert_eq!(set.wake_one(), Some(3));
    }

    #[test]
    fn deregister_removes() {
        let set = IdleSet::new(vec![std::thread::current(); 2]);
        set.register(0);
        set.deregister(0);
        assert_eq!(set.wake_one(), None);
    }

    #[test]
    fn wake_all_clears() {
        let set = IdleSet::new(vec![std::thread::current(); 4]);
        for w in 0..4 {
            set.register(w);
        }
        set.wake_all();
        assert_eq!(set.bits.load(Ordering::SeqCst), 0);
    }

    /// A worker that parks via the protocol is actually woken by a producer.
    #[test]
    fn parked_worker_is_woken() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let work_ready = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Thread>();
        let ready2 = Arc::clone(&work_ready);
        let handle = std::thread::spawn(move || {
            tx.send(std::thread::current()).unwrap();
            // Worker side: wait until someone wakes us AND work is ready.
            while !ready2.load(Ordering::SeqCst) {
                std::thread::park_timeout(Duration::from_millis(50));
            }
        });
        let worker_thread = rx.recv().unwrap();
        let set = IdleSet::new(vec![worker_thread]);
        set.register(0);
        // Producer: publish work, then wake.
        work_ready.store(true, Ordering::SeqCst);
        assert_eq!(set.wake_one(), Some(0));
        handle.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_workers_rejected() {
        IdleSet::new(vec![std::thread::current(); 65]);
    }
}
