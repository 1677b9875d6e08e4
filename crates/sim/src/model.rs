//! The simulation model: graph structure, duration sources and schedules.

use djstar_core::graph::{GraphTopology, NodeId, Section};

/// A self-contained copy of the graph structure used by the simulators
/// (decoupled from `djstar-core` executors so schedules can be simulated
/// for arbitrary synthetic graphs too). It holds no names: node `n` is
/// named by the [`GraphTopology`] it was captured from.
#[derive(Debug, Clone)]
pub struct SimGraph {
    sections: Vec<Section>,
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    queue: Vec<u32>,
    sources: Vec<u32>,
}

impl SimGraph {
    /// Capture the structure of a validated core topology.
    pub fn from_topology(topo: &GraphTopology) -> Self {
        let n = topo.len();
        SimGraph {
            sections: (0..n).map(|i| topo.section(NodeId(i as u32))).collect(),
            preds: (0..n)
                .map(|i| topo.preds(NodeId(i as u32)).to_vec())
                .collect(),
            succs: (0..n)
                .map(|i| topo.succs(NodeId(i as u32)).to_vec())
                .collect(),
            queue: topo.queue().to_vec(),
            sources: topo.sources().to_vec(),
        }
    }

    /// Build a synthetic graph directly (tests, ablations). `preds[i]` are
    /// the predecessors of node `i`; the queue is computed by depth.
    pub fn synthetic(preds: Vec<Vec<u32>>) -> Self {
        let n = preds.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p as usize].push(i as u32);
            }
        }
        // Depth by repeated relaxation (small graphs only).
        let mut depth = vec![0u32; n];
        for _ in 0..n {
            for i in 0..n {
                for &p in &preds[i] {
                    depth[i] = depth[i].max(depth[p as usize] + 1);
                }
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).collect();
        queue.sort_by_key(|&i| depth[i as usize]);
        let sources = queue
            .iter()
            .copied()
            .filter(|&i| preds[i as usize].is_empty())
            .collect();
        SimGraph {
            sections: vec![Section::Master; n],
            preds,
            succs,
            queue,
            sources,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Node section.
    pub fn section(&self, n: u32) -> Section {
        self.sections[n as usize]
    }

    /// Predecessors.
    pub fn preds(&self, n: u32) -> &[u32] {
        &self.preds[n as usize]
    }

    /// Successors.
    pub fn succs(&self, n: u32) -> &[u32] {
        &self.succs[n as usize]
    }

    /// The depth-sorted queue.
    pub fn queue(&self) -> &[u32] {
        &self.queue
    }

    /// Source nodes.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

/// Per-node execution durations driving a simulation.
#[derive(Debug, Clone)]
pub enum DurationModel {
    /// Every node has a fixed duration (ns).
    Constant(Vec<u64>),
    /// Per-node sample vectors (ns); simulated cycle `c` uses sample
    /// `c % len` of every node, preserving the within-cycle correlation of
    /// the loud/quiet sections (all nodes of a loud cycle are slow
    /// together — the property behind the bimodal histograms of Fig. 9).
    Empirical(Vec<Vec<u64>>),
}

impl DurationModel {
    /// Duration of `node` in simulated cycle `cycle`.
    pub fn duration(&self, node: u32, cycle: usize) -> u64 {
        match self {
            DurationModel::Constant(v) => v[node as usize],
            DurationModel::Empirical(samples) => {
                let s = &samples[node as usize];
                if s.is_empty() {
                    0
                } else {
                    s[cycle % s.len()]
                }
            }
        }
    }

    /// Mean duration of `node` (ns).
    pub fn mean(&self, node: u32) -> f64 {
        match self {
            DurationModel::Constant(v) => v[node as usize] as f64,
            DurationModel::Empirical(samples) => {
                let s = &samples[node as usize];
                if s.is_empty() {
                    0.0
                } else {
                    s.iter().sum::<u64>() as f64 / s.len() as f64
                }
            }
        }
    }

    /// Collapse to the per-node means (what the paper's §IV simulation
    /// uses: "we measured the average vertex computation time").
    pub fn means(&self, nodes: usize) -> DurationModel {
        DurationModel::Constant(
            (0..nodes as u32)
                .map(|n| self.mean(n).round() as u64)
                .collect(),
        )
    }

    /// Number of distinct cycles available (1 for constant models).
    pub fn cycles(&self) -> usize {
        match self {
            DurationModel::Constant(_) => 1,
            DurationModel::Empirical(samples) => {
                samples.iter().map(|s| s.len()).max().unwrap_or(1).max(1)
            }
        }
    }
}

/// One node's placement in a simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Node id.
    pub node: u32,
    /// Processor / thread index.
    pub proc: u32,
    /// Start time (ns).
    pub start_ns: u64,
    /// End time (ns).
    pub end_ns: u64,
}

/// A complete simulated schedule of one cycle.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// All placements.
    pub entries: Vec<ScheduleEntry>,
    /// Number of processors used.
    pub procs: u32,
}

impl Schedule {
    /// Makespan: latest end time (ns).
    pub fn makespan_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.end_ns).max().unwrap_or(0)
    }

    /// Entries of one processor, sorted by start.
    pub fn proc_timeline(&self, proc: u32) -> Vec<ScheduleEntry> {
        let mut v: Vec<ScheduleEntry> = self
            .entries
            .iter()
            .copied()
            .filter(|e| e.proc == proc)
            .collect();
        v.sort_by_key(|e| e.start_ns);
        v
    }

    /// The schedule's lanes: processor `p`'s nodes in start order — the
    /// form in which a static schedule reaches the PLAN executor.
    pub fn lanes(&self) -> Vec<Vec<u32>> {
        (0..self.procs)
            .map(|p| self.proc_timeline(p).iter().map(|e| e.node).collect())
            .collect()
    }

    /// Validates the schedule against `graph`: every node exactly once, no
    /// overlap on a processor, no node before its predecessors.
    pub fn is_valid(&self, graph: &SimGraph) -> bool {
        if self.entries.len() != graph.len() {
            return false;
        }
        let mut end_of = vec![None; graph.len()];
        for e in &self.entries {
            let Some(slot) = end_of.get_mut(e.node as usize) else {
                return false;
            };
            if slot.is_some() || e.end_ns < e.start_ns {
                return false;
            }
            *slot = Some(e.end_ns);
        }
        for e in &self.entries {
            for &p in graph.preds(e.node) {
                match end_of[p as usize] {
                    Some(pend) if pend <= e.start_ns => {}
                    _ => return false,
                }
            }
        }
        for proc in 0..self.procs {
            let tl = self.proc_timeline(proc);
            for w in tl.windows(2) {
                if w[1].start_ns < w[0].end_ns {
                    return false;
                }
            }
        }
        true
    }

    /// Concurrency profile: `(time, running)` points sampled at every
    /// start/end event, suitable for the Fig. 4 analysis.
    pub fn concurrency_profile(&self) -> Vec<(u64, u32)> {
        let mut events: Vec<(u64, i32)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            events.push((e.start_ns, 1));
            events.push((e.end_ns, -1));
        }
        events.sort();
        let mut profile = Vec::new();
        let mut running = 0i32;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                running += events[i].1;
                i += 1;
            }
            profile.push((t, running.max(0) as u32));
        }
        profile
    }

    /// Maximum concurrency reached.
    pub fn max_concurrency(&self) -> u32 {
        self.concurrency_profile()
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// diamond: 0 → {1, 2} → 3
    pub(crate) fn diamond() -> SimGraph {
        SimGraph::synthetic(vec![vec![], vec![0], vec![0], vec![1, 2]])
    }

    #[test]
    fn synthetic_structure() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), &[0]);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.queue(), &[0, 1, 2, 3]);
    }

    #[test]
    fn constant_durations() {
        let m = DurationModel::Constant(vec![10, 20, 30]);
        assert_eq!(m.duration(1, 99), 20);
        assert_eq!(m.mean(2), 30.0);
        assert_eq!(m.cycles(), 1);
    }

    #[test]
    fn empirical_durations_cycle_round_robin() {
        let m = DurationModel::Empirical(vec![vec![10, 20], vec![5, 7]]);
        assert_eq!(m.duration(0, 0), 10);
        assert_eq!(m.duration(0, 1), 20);
        assert_eq!(m.duration(0, 2), 10);
        assert_eq!(m.mean(1), 6.0);
        assert_eq!(m.cycles(), 2);
        let means = m.means(2);
        assert_eq!(means.duration(0, 5), 15);
    }

    #[test]
    fn schedule_validation() {
        let g = diamond();
        let ok = Schedule {
            procs: 2,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 10,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 0,
                    start_ns: 10,
                    end_ns: 20,
                },
                ScheduleEntry {
                    node: 2,
                    proc: 1,
                    start_ns: 10,
                    end_ns: 25,
                },
                ScheduleEntry {
                    node: 3,
                    proc: 0,
                    start_ns: 25,
                    end_ns: 30,
                },
            ],
        };
        assert!(ok.is_valid(&g));
        assert_eq!(ok.makespan_ns(), 30);
        assert_eq!(ok.max_concurrency(), 2);

        let mut bad = ok.clone();
        bad.entries[3].start_ns = 20; // before pred 2 ends
        assert!(!bad.is_valid(&g));

        let mut overlap = ok.clone();
        overlap.entries[1].proc = 1;
        overlap.entries[1].start_ns = 5; // overlaps node 0? different proc - overlaps pred though
        assert!(!overlap.is_valid(&g));
    }

    #[test]
    fn concurrency_profile_counts() {
        let s = Schedule {
            procs: 2,
            entries: vec![
                ScheduleEntry {
                    node: 0,
                    proc: 0,
                    start_ns: 0,
                    end_ns: 10,
                },
                ScheduleEntry {
                    node: 1,
                    proc: 1,
                    start_ns: 5,
                    end_ns: 15,
                },
            ],
        };
        let p = s.concurrency_profile();
        assert_eq!(p, vec![(0, 1), (5, 2), (10, 1), (15, 0)]);
    }
}
