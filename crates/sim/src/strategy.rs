//! Virtual-time replicas of the executors (Fig. 12 methodology, extended
//! to every strategy).
//!
//! The paper validates its BUSY implementation by re-implementing the
//! strategy *inside* the simulator and comparing simulated against measured
//! schedules (§VI, Fig. 12). This module does the same with one replay for
//! every static strategy and an event simulation for WS, mirroring the
//! executors' policy table (`djstar_core::exec`):
//!
//! | strategy | lanes walk | a lane waits by |
//! |---|---|---|
//! | BUSY | queue position k on lane k mod T, checking every predecessor | `Wait::Spin` |
//! | SLEEP, HYBRID | the same slots | `Wait::Park` (spin budget 0 / the given one) |
//! | PLAN | the blueprint's slots and cross-lane waits (`planned`) | `Wait::Spin` |
//! | WS | deques: seed by section, pop LIFO, steal FIFO | — |
//!
//! All constants come from an [`OverheadModel`]. The evaluation host has
//! two vCPUs, too few to show the paper's four-core columns, so these
//! replicas (fed with per-node durations measured on the real engine)
//! regenerate the parallel results beyond two threads.

use crate::model::{DurationModel, Schedule, ScheduleEntry, SimGraph};
use djstar_core::exec::seed_target;

/// The three parallel strategies of §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimStrategy {
    /// Busy-waiting (§V-A).
    Busy,
    /// Thread-sleeping (§V-B).
    Sleep,
    /// Work-stealing (§V-C).
    Steal,
}

impl SimStrategy {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            SimStrategy::Busy => "BUSY",
            SimStrategy::Sleep => "SLEEP",
            SimStrategy::Steal => "WS",
        }
    }

    /// All strategies.
    pub const ALL: [SimStrategy; 3] = [SimStrategy::Busy, SimStrategy::Sleep, SimStrategy::Steal];
}

/// Scheduling-overhead constants (ns). Defaults are typical Linux/x86-64
/// values; the `overheads` bench measures host-specific ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Fixed cost of advancing to / dispatching the next node.
    pub dispatch_ns: u64,
    /// Cost of checking one predecessor's completion flag.
    pub dep_check_ns: u64,
    /// Busy-wait polling granularity: a spinning thread notices a
    /// completed dependency within this quantum.
    pub spin_poll_ns: u64,
    /// Park → unpark → running latency (the cost SLEEP pays per sleep and
    /// WS pays per idle period).
    pub wake_ns: u64,
    /// Registering as a node's waiter before sleeping.
    pub sleep_register_ns: u64,
    /// One deque push or pop.
    pub queue_op_ns: u64,
    /// One steal attempt on a victim deque.
    pub steal_ns: u64,
}

impl OverheadModel {
    /// Typical host constants (Linux, recent x86-64).
    pub fn default_host() -> Self {
        OverheadModel {
            dispatch_ns: 80,
            dep_check_ns: 25,
            spin_poll_ns: 40,
            wake_ns: 9_000,
            sleep_register_ns: 150,
            queue_op_ns: 45,
            steal_ns: 220,
        }
    }

    /// A zero-overhead model (ideal machine; useful to compare against the
    /// list scheduler's bound).
    pub fn zero() -> Self {
        OverheadModel {
            dispatch_ns: 0,
            dep_check_ns: 0,
            spin_poll_ns: 0,
            wake_ns: 0,
            sleep_register_ns: 0,
            queue_op_ns: 0,
            steal_ns: 0,
        }
    }
}

/// How a lane of the static replay waits for a check that has not
/// finished: the simulator's copy of the executors' wait policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// BUSY and PLAN: poll, noticing completion within one poll quantum.
    Spin,
    /// SLEEP (budget 0) and HYBRID: spin up to `spin_budget_ns`, then
    /// register, park and pay the wake latency. Parking lanes other than
    /// the driver's are woken for every cycle, and every lane notifies
    /// each successor of a node it finishes (a parked waiter may sit
    /// behind any dependency).
    Park { spin_budget_ns: u64 },
}

/// One lane slot: a node and the predecessors the lane checks before
/// running it.
pub(crate) type Slot<'a> = (u32, &'a [u32]);

/// Simulate one cycle of `strategy` on `threads` virtual cores.
pub fn simulate_strategy(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    threads: usize,
    strategy: SimStrategy,
    overhead: &OverheadModel,
) -> Schedule {
    assert!(threads >= 1, "need at least one thread");
    let wait = match strategy {
        SimStrategy::Busy => Wait::Spin,
        SimStrategy::Sleep => Wait::Park { spin_budget_ns: 0 },
        SimStrategy::Steal => return simulate_ws(graph, durations, cycle, threads, overhead),
    };
    let lanes = round_robin(graph, threads);
    walk_lanes(graph, durations, cycle, &lanes, wait, overhead)
}

/// Simulate the hybrid spin-then-park extension strategy: BUSY's slots; a
/// blocked lane spins for up to `spin_budget_ns` of virtual time and parks
/// only for longer waits.
pub fn simulate_hybrid(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    threads: usize,
    overhead: &OverheadModel,
    spin_budget_ns: u64,
) -> Schedule {
    assert!(threads >= 1, "need at least one thread");
    let lanes = round_robin(graph, threads);
    let wait = Wait::Park { spin_budget_ns };
    walk_lanes(graph, durations, cycle, &lanes, wait, overhead)
}

/// Makespans of `cycles` consecutive simulated cycles (the series behind
/// Table I and the histograms).
pub fn simulate_makespans(
    graph: &SimGraph,
    durations: &DurationModel,
    threads: usize,
    strategy: SimStrategy,
    overhead: &OverheadModel,
    cycles: usize,
) -> Vec<u64> {
    (0..cycles)
        .map(|c| simulate_strategy(graph, durations, c, threads, strategy, overhead).makespan_ns())
        .collect()
}

/// BUSY's slots, as `Spin::run_lane` walks them: queue position `k` on
/// lane `k mod threads`, checking every predecessor.
fn round_robin(graph: &SimGraph, threads: usize) -> Vec<Vec<Slot<'_>>> {
    let mut lanes = vec![Vec::new(); threads];
    for (k, &node) in graph.queue().iter().enumerate() {
        lanes[k % threads].push((node, graph.preds(node)));
    }
    lanes
}

/// The static replay: each lane walks its slots in order. A node starts
/// once its lane reaches it (dispatch plus one dependency check per
/// listed check) and every check has finished, plus what `wait` charges a
/// lane that arrived early.
pub(crate) fn walk_lanes(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    lanes: &[Vec<Slot<'_>>],
    wait: Wait,
    overhead: &OverheadModel,
) -> Schedule {
    const UNFINISHED: u64 = u64::MAX;
    let n = graph.len();
    assert_eq!(
        lanes.iter().map(Vec::len).sum::<usize>(),
        n,
        "slots must cover the graph"
    );
    let park = matches!(wait, Wait::Park { .. });
    let mut end = vec![UNFINISHED; n];
    let mut next = vec![0usize; lanes.len()];
    // Parking lanes must first be woken for the new cycle; spinning lanes
    // wait at the barrier and start at once.
    let mut clock: Vec<u64> = (0..lanes.len())
        .map(|w| if park && w != 0 { overhead.wake_ns } else { 0 })
        .collect();
    let mut entries = Vec::with_capacity(n);
    while entries.len() < n {
        let mut progressed = false;
        for (w, slots) in lanes.iter().enumerate() {
            while let Some(&(node, checks)) = slots.get(next[w]) {
                // A check no lane has simulated yet blocks this lane until
                // a later sweep.
                if checks.iter().any(|&p| end[p as usize] == UNFINISHED) {
                    break;
                }
                let avail =
                    clock[w] + overhead.dispatch_ns + overhead.dep_check_ns * checks.len() as u64;
                let ready = checks.iter().map(|&p| end[p as usize]).max().unwrap_or(0);
                let start = match wait {
                    _ if ready <= avail => avail,
                    Wait::Park { spin_budget_ns } if ready - avail > spin_budget_ns => {
                        ready + overhead.sleep_register_ns + overhead.wake_ns
                    }
                    _ => ready + overhead.spin_poll_ns,
                };
                let fin = start + durations.duration(node, cycle);
                end[node as usize] = fin;
                let notify = (overhead.dep_check_ns + overhead.sleep_register_ns / 4)
                    * graph.succs(node).len() as u64;
                clock[w] = if park { fin + notify } else { fin };
                entries.push(ScheduleEntry {
                    node,
                    proc: w as u32,
                    start_ns: start,
                    end_ns: fin,
                });
                next[w] += 1;
                progressed = true;
            }
        }
        assert!(progressed, "lane walk deadlocked");
    }
    entries.sort_by_key(|e| (e.start_ns, e.proc));
    Schedule {
        entries,
        procs: lanes.len() as u32,
    }
}

/// A deque entry: the node plus the virtual time it became visible.
#[derive(Debug, Clone, Copy)]
struct WsEntry {
    node: u32,
    avail: u64,
}

/// Event-driven work-stealing simulation: sources seeded to their
/// section's lane (`djstar_core::exec::seed_target`), owners pop newest
/// first, thieves take the oldest.
fn simulate_ws(
    graph: &SimGraph,
    durations: &DurationModel,
    cycle: usize,
    threads: usize,
    overhead: &OverheadModel,
) -> Schedule {
    let n = graph.len();
    let mut pending: Vec<usize> = (0..n as u32).map(|i| graph.preds(i).len()).collect();
    // Latest finish time among a node's already-simulated predecessors.
    // Threads are simulated in min-clock order, so a predecessor handled
    // *earlier in sequence* can still finish *later in wall-clock* than the
    // one whose decrement releases the node; the entry must not become
    // visible before every predecessor's completion.
    let mut ready_floor: Vec<u64> = vec![0; n];
    let mut deques: Vec<Vec<WsEntry>> = vec![Vec::new(); threads]; // back = newest
                                                                   // The master seeds the source nodes before the workers wake.
    let seed_cost = overhead.queue_op_ns * graph.sources().len() as u64;
    for &src in graph.sources() {
        deques[seed_target(graph.section(src), threads)].push(WsEntry {
            node: src,
            avail: 0,
        });
    }
    let mut thread_time: Vec<u64> = (0..threads)
        .map(|t| if t == 0 { seed_cost } else { overhead.wake_ns })
        .collect();
    let mut entries: Vec<ScheduleEntry> = Vec::with_capacity(n);
    let mut done = 0usize;

    while done < n {
        // Act as the thread with the smallest clock.
        let t = (0..threads)
            .min_by_key(|&t| thread_time[t])
            .expect("at least one thread");
        let now = thread_time[t];

        // 1. Local pop: newest visible entry (LIFO).
        let pos = deques[t].iter().rposition(|e| e.avail <= now);
        let local = pos.map(|i| deques[t].remove(i));
        let (node, start) = if let Some(e) = local {
            (e.node, now + overhead.queue_op_ns + overhead.dispatch_ns)
        } else {
            // 2. Steal sweep: oldest visible entry of the first non-empty
            //    victim, paying one steal attempt per scanned victim.
            let mut found = None;
            for (j, off) in (1..threads).enumerate() {
                let v = (t + off) % threads;
                if let Some(i) = deques[v].iter().position(|e| e.avail <= now) {
                    found = Some((deques[v].remove(i), (j + 1) as u64));
                    break;
                }
            }
            match found {
                Some((e, attempts)) => (
                    e.node,
                    now + attempts * overhead.steal_ns + overhead.dispatch_ns,
                ),
                None => {
                    // 3. Nothing visible: advance to the next instant work
                    //    can appear (a future entry or another thread's next
                    //    action), parking if the wait is long. Only threads
                    //    with a *strictly later* clock matter: a thread tied
                    //    at `now` is idle too (our steal sweep just proved
                    //    no deque holds work visible at `now`), and counting
                    //    it would make tied idle threads ping-pong forward
                    //    one nanosecond at a time.
                    let next_entry = deques
                        .iter()
                        .flat_map(|d| d.iter())
                        .map(|e| e.avail)
                        .filter(|&a| a > now)
                        .min();
                    let next_thread = (0..threads)
                        .filter(|&u| u != t)
                        .map(|u| thread_time[u])
                        .filter(|&x| x > now)
                        .min();
                    let target = match (next_entry, next_thread) {
                        (Some(a), Some(b)) => a.min(b),
                        (Some(a), None) => a,
                        (None, Some(b)) => b,
                        (None, None) => {
                            debug_assert!(done == n, "stuck with work outstanding");
                            break;
                        }
                    };
                    // "Sleeping in fact only occurs when there are solely
                    // nodes available with unfinished dependencies": a long
                    // gap means the worker parked and pays the wake latency.
                    let woke = if target.saturating_sub(now) > overhead.wake_ns / 2 {
                        overhead.wake_ns
                    } else {
                        0
                    };
                    thread_time[t] = target.max(now + 1) + woke;
                    continue;
                }
            }
        };

        let fin = start + durations.duration(node, cycle);
        entries.push(ScheduleEntry {
            node,
            proc: t as u32,
            start_ns: start,
            end_ns: fin,
        });
        done += 1;
        let mut clock = fin;
        for &s in graph.succs(node) {
            ready_floor[s as usize] = ready_floor[s as usize].max(fin);
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                clock += overhead.queue_op_ns;
                deques[t].push(WsEntry {
                    node: s,
                    avail: clock.max(ready_floor[s as usize] + overhead.queue_op_ns),
                });
            }
        }
        thread_time[t] = clock;
    }
    Schedule {
        entries,
        procs: threads as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;

    fn diamond() -> SimGraph {
        SimGraph::synthetic(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    /// A DJ-Star-shaped synthetic graph: `w` parallel chains of length `l`
    /// from independent sources into one sink.
    fn chains(w: usize, l: usize) -> SimGraph {
        let mut preds: Vec<Vec<u32>> = Vec::new();
        for c in 0..w {
            for k in 0..l {
                if k == 0 {
                    preds.push(vec![]);
                } else {
                    preds.push(vec![(c * l + k - 1) as u32]);
                }
            }
        }
        let sink_preds: Vec<u32> = (0..w).map(|c| ((c + 1) * l - 1) as u32).collect();
        preds.push(sink_preds);
        SimGraph::synthetic(preds)
    }

    #[test]
    fn all_strategies_produce_valid_schedules() {
        let g = chains(4, 5);
        let d = DurationModel::Constant((0..g.len() as u64).map(|i| 500 + i * 37).collect());
        for strat in SimStrategy::ALL {
            for threads in [1, 2, 3, 4] {
                let s =
                    simulate_strategy(&g, &d, 0, threads, strat, &OverheadModel::default_host());
                assert!(s.is_valid(&g), "{strat:?} t={threads}");
                assert!(s.max_concurrency() <= threads as u32);
            }
        }
    }

    #[test]
    fn zero_overhead_busy_matches_round_robin_bound() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10, 20, 5, 8]);
        // 2 threads, queue [0,1,2,3]: t0 gets {0,2}, t1 gets {1,3}.
        // t0: 0 @0-10, 2 @10-15. t1: 1 waits for 0 → 10-30; 3 waits → 30-38.
        let s = simulate_strategy(&g, &d, 0, 2, SimStrategy::Busy, &OverheadModel::zero());
        assert_eq!(s.makespan_ns(), 38);
        assert!(s.is_valid(&g));
    }

    #[test]
    fn sleep_is_never_faster_than_busy_with_same_inputs() {
        let g = chains(4, 6);
        let d = DurationModel::Constant(
            (0..g.len() as u64)
                .map(|i| 1_000 + (i * 311) % 5_000)
                .collect(),
        );
        let oh = OverheadModel::default_host();
        for threads in [2, 3, 4] {
            let busy = simulate_strategy(&g, &d, 0, threads, SimStrategy::Busy, &oh).makespan_ns();
            let sleep =
                simulate_strategy(&g, &d, 0, threads, SimStrategy::Sleep, &oh).makespan_ns();
            assert!(sleep >= busy, "t={threads}: sleep {sleep} < busy {busy}");
        }
    }

    #[test]
    fn strategies_never_beat_the_list_scheduler_bound() {
        let g = chains(4, 5);
        let d = DurationModel::Constant(
            (0..g.len() as u64)
                .map(|i| 2_000 + (i * 173) % 9_000)
                .collect(),
        );
        for threads in [1, 2, 4] {
            let bound = list_schedule(&g, &d, 0, threads as u32).makespan_ns();
            for strat in SimStrategy::ALL {
                let m = simulate_strategy(&g, &d, 0, threads, strat, &OverheadModel::zero())
                    .makespan_ns();
                // Zero-overhead strategies are at best as good as the list
                // scheduler (which is work-conserving with full knowledge).
                assert!(m + 1 >= bound, "{strat:?} t={threads}: {m} < bound {bound}");
            }
        }
    }

    #[test]
    fn more_threads_help_on_balanced_chains() {
        let g = chains(4, 8);
        let d = DurationModel::Constant(vec![10_000; g.len()]);
        let oh = OverheadModel::default_host();
        for strat in SimStrategy::ALL {
            let m1 = simulate_strategy(&g, &d, 0, 1, strat, &oh).makespan_ns();
            let m4 = simulate_strategy(&g, &d, 0, 4, strat, &oh).makespan_ns();
            let speedup = m1 as f64 / m4 as f64;
            assert!(
                speedup > 2.0,
                "{strat:?}: speedup {speedup:.2} (m1={m1}, m4={m4})"
            );
        }
    }

    #[test]
    fn sleep_pays_wake_latency_on_dependencies() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10_000, 10_000, 100, 100]);
        let mut oh = OverheadModel::zero();
        oh.wake_ns = 5_000;
        oh.sleep_register_ns = 100;
        let busy = simulate_strategy(&g, &d, 0, 2, SimStrategy::Busy, &oh).makespan_ns();
        let sleep = simulate_strategy(&g, &d, 0, 2, SimStrategy::Sleep, &oh).makespan_ns();
        // SLEEP pays the initial worker wake plus per-dependency wakes.
        assert!(sleep > busy + 5_000, "busy {busy}, sleep {sleep}");
    }

    #[test]
    fn ws_executes_every_node_exactly_once() {
        let g = chains(3, 4);
        let d = DurationModel::Constant(vec![1_000; g.len()]);
        let s = simulate_strategy(
            &g,
            &d,
            0,
            4,
            SimStrategy::Steal,
            &OverheadModel::default_host(),
        );
        assert!(s.is_valid(&g));
        let mut nodes: Vec<u32> = s.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..g.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn ws_single_thread_runs_serially() {
        let g = diamond();
        let d = DurationModel::Constant(vec![10, 20, 5, 8]);
        let s = simulate_strategy(&g, &d, 0, 1, SimStrategy::Steal, &OverheadModel::zero());
        assert!(s.is_valid(&g));
        assert_eq!(s.max_concurrency(), 1);
        assert_eq!(s.makespan_ns(), 43);
    }

    #[test]
    fn hybrid_brackets_busy_and_sleep() {
        let g = chains(4, 6);
        let d = DurationModel::Constant(
            (0..g.len() as u64)
                .map(|i| 1_000 + (i * 509) % 8_000)
                .collect(),
        );
        let oh = OverheadModel::default_host();
        let busy = simulate_strategy(&g, &d, 0, 4, SimStrategy::Busy, &oh).makespan_ns();
        let sleep = simulate_strategy(&g, &d, 0, 4, SimStrategy::Sleep, &oh).makespan_ns();
        // Infinite budget ≈ BUSY except for the notify duty and the initial
        // worker wake; zero budget ≈ SLEEP.
        let inf = simulate_hybrid(&g, &d, 0, 4, &oh, u64::MAX).makespan_ns();
        let zero = simulate_hybrid(&g, &d, 0, 4, &oh, 0).makespan_ns();
        assert!(inf >= busy, "inf-budget hybrid {inf} < busy {busy}");
        assert!(
            zero >= sleep.min(inf),
            "zero-budget hybrid {zero} implausible"
        );
        assert!(inf <= sleep, "inf-budget hybrid {inf} > sleep {sleep}");
        // A mid budget lands between the extremes.
        let mid = simulate_hybrid(&g, &d, 0, 4, &oh, 5_000).makespan_ns();
        assert!(
            mid >= inf && mid <= zero.max(sleep),
            "mid {mid}, inf {inf}, zero {zero}"
        );
        // And all are valid schedules.
        assert!(simulate_hybrid(&g, &d, 0, 4, &oh, 5_000).is_valid(&g));
    }

    #[test]
    fn makespans_vary_with_empirical_durations() {
        let g = diamond();
        let d =
            DurationModel::Empirical(vec![vec![10, 100], vec![20, 200], vec![5, 50], vec![8, 80]]);
        let ms = simulate_makespans(&g, &d, 2, SimStrategy::Busy, &OverheadModel::zero(), 4);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0], ms[2]);
        assert_eq!(ms[1], ms[3]);
        assert!(ms[1] > ms[0]);
    }
}
