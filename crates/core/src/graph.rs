//! The static task graph: nodes, dependency edges and the depth-sorted
//! execution queue.
//!
//! DJ Star implements its audio processing cycle as a task graph whose
//! "nodes represent different audio computations and the edges describe the
//! data flow" (§IV). The production implementation keeps the graph in "a
//! simple queue. Nodes are inserted according to their depth in the
//! dependency graph … column by column and from left to right" — so nodes
//! within one column (equal depth) never depend on each other and the queue
//! order is a valid sequential execution order. This module reproduces that
//! representation and validates its invariants.

use crate::processor::Processor;
use std::collections::VecDeque;
use std::fmt;

/// Index of a node in its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The section of the DJ Star workbench a node belongs to (Fig. 3).
///
/// The work-stealing strategy seeds "nodes from the same section to the same
/// thread" to exploit data locality (§V-C), so the section is part of the
/// core graph model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    DeckA,
    DeckB,
    DeckC,
    DeckD,
    Master,
    /// The APC's phases outside Fig. 3 (timecode processing, graph
    /// preprocessing, various calculations) when they run as nodes of the
    /// graph. Executors inject no faults into them and book none of their
    /// time as graph execution in telemetry; the flight recorder records
    /// them like any node.
    Apc,
}

impl Section {
    /// All sections in deck order, master, then the APC phases.
    pub const ALL: [Section; 6] = [
        Section::DeckA,
        Section::DeckB,
        Section::DeckC,
        Section::DeckD,
        Section::Master,
        Section::Apc,
    ];

    /// Deck index 0–3, or `None` for the master section and the APC
    /// phases.
    pub fn deck_index(self) -> Option<usize> {
        match self {
            Section::DeckA => Some(0),
            Section::DeckB => Some(1),
            Section::DeckC => Some(2),
            Section::DeckD => Some(3),
            Section::Master | Section::Apc => None,
        }
    }

    /// The deck section with the given index (0–3).
    pub fn deck(i: usize) -> Section {
        match i {
            0 => Section::DeckA,
            1 => Section::DeckB,
            2 => Section::DeckC,
            3 => Section::DeckD,
            _ => panic!("deck index {i} out of range"),
        }
    }
}

/// Which precomputed topological order the queue-based executors walk.
///
/// DJ Star's production queue sorts by *depth* (distance from the sources).
/// "Longer Is Shorter" (He et al.) argues for prioritizing nodes on long
/// dependency chains instead: sort by *critical-path length* (the longest
/// chain from the node down to a sink), descending. Both orders are valid
/// topological orders — for any edge `p → n`, `cp_len(p) > cp_len(n)` and
/// `depth(p) < depth(n)` — so executors can switch between them freely and
/// both stay benchmarkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// The paper's queue order: ascending depth, insertion order within a
    /// column. This is the production DJ Star behavior.
    #[default]
    Depth,
    /// Descending critical-path length (longest path to a sink, counted in
    /// nodes), insertion order within a tie. Nodes that gate the most
    /// downstream work run first.
    CriticalPath,
    /// "Longer Is Shorter" path shaping (He et al.): descending
    /// critical-path length like [`Priority::CriticalPath`], but ties are
    /// broken by the longest *total* path through the node
    /// (`depth + cp_len`, descending) instead of insertion order. Nodes
    /// sitting on long end-to-end chains are serialized first, which
    /// lengthens the nominal priority list but shortens the parallel
    /// response time on skewed graphs. Still a valid topological order:
    /// edges strictly decrease `cp_len`, so ties never carry edges.
    LongerIsShorter,
    /// Global fixed-priority: one static, structure-derived priority per
    /// node (ascending depth, then descending `cp_len`, then descending
    /// out-degree), mirroring global fixed-priority DAG response-time
    /// analysis where every vertex carries a single system-wide priority.
    /// Ascending depth is the strictly monotone primary key, so the order
    /// stays topologically valid.
    GlobalFixed,
}

impl Priority {
    /// Every queue policy, in sweep order.
    pub const ALL: [Priority; 4] = [
        Priority::Depth,
        Priority::CriticalPath,
        Priority::LongerIsShorter,
        Priority::GlobalFixed,
    ];

    /// Short label for reports and benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Depth => "depth",
            Priority::CriticalPath => "critical-path",
            Priority::LongerIsShorter => "longer-is-shorter",
            Priority::GlobalFixed => "global-fixed",
        }
    }
}

/// Errors detected while building a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A predecessor id referenced a node that does not exist.
    UnknownPredecessor { node: u32, pred: u32 },
    /// The dependency relation contains a cycle.
    Cyclic,
    /// The same predecessor was listed twice for one node.
    DuplicateEdge { node: u32, pred: u32 },
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownPredecessor { node, pred } => {
                write!(f, "node {node} references unknown predecessor {pred}")
            }
            GraphError::Cyclic => write!(f, "dependency graph contains a cycle"),
            GraphError::DuplicateEdge { node, pred } => {
                write!(f, "node {node} lists predecessor {pred} twice")
            }
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Immutable structural data of a validated graph, shared by executors and
/// the schedule simulator.
#[derive(Debug)]
pub struct GraphTopology {
    names: Vec<String>,
    /// Node index by name (the last node of a name when names repeat),
    /// built once at construction so a generation swap resolves surviving
    /// nodes without allocating on the audio thread.
    name_index: std::collections::HashMap<String, u32>,
    /// Output channel count of each node, as its processor declared it.
    channels: Vec<u8>,
    sections: Vec<Section>,
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    depth: Vec<u32>,
    /// Critical-path length of each node: longest chain (in nodes, including
    /// the node itself) from the node down to any sink.
    cp_len: Vec<u32>,
    /// Node ids in DJ Star queue order: sorted by depth, insertion order
    /// within equal depth ("column by column, left to right").
    queue: Vec<u32>,
    /// Node ids sorted by descending critical-path length (stable, so
    /// insertion order breaks ties). Also a valid topological order.
    cp_queue: Vec<u32>,
    /// "Longer Is Shorter" order: descending `cp_len`, ties by descending
    /// total path through the node (`depth + cp_len`). Topologically valid
    /// for the same reason as `cp_queue`.
    lis_queue: Vec<u32>,
    /// Global fixed-priority order: ascending depth, ties by descending
    /// `cp_len`, then descending out-degree. Topologically valid because
    /// depth strictly increases along edges.
    gfp_queue: Vec<u32>,
    /// Per-node successor lists re-sorted by ascending critical-path length.
    /// The work-stealing executor pushes released successors in this order so
    /// its LIFO deque pops the longest-path successor first.
    succs_by_cp: Vec<Vec<u32>>,
    /// Nodes with no predecessors, in queue order.
    sources: Vec<u32>,
}

impl GraphTopology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the graph has no nodes (never, for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.idx()]
    }

    /// The node a generation swap would carry state over from into a node
    /// called `name` with `channels` outputs: same name, same layout.
    pub fn survivor(&self, name: &str, channels: usize) -> Option<NodeId> {
        let n = NodeId(*self.name_index.get(name)?);
        (self.channels(n) == channels).then_some(n)
    }

    /// Output channel count of a node.
    pub fn channels(&self, n: NodeId) -> usize {
        self.channels[n.idx()] as usize
    }

    /// Section of a node.
    pub fn section(&self, n: NodeId) -> Section {
        self.sections[n.idx()]
    }

    /// Predecessors of a node.
    pub fn preds(&self, n: NodeId) -> &[u32] {
        &self.preds[n.idx()]
    }

    /// Successors of a node.
    pub fn succs(&self, n: NodeId) -> &[u32] {
        &self.succs[n.idx()]
    }

    /// Depth of a node: 0 for sources, else 1 + max depth of predecessors.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.idx()]
    }

    /// Critical-path length of a node: the longest dependency chain (counted
    /// in nodes, including `n` itself) from `n` down to any sink. 1 for
    /// sinks.
    pub fn cp_len(&self, n: NodeId) -> u32 {
        self.cp_len[n.idx()]
    }

    /// The DJ Star execution queue (a valid topological order).
    pub fn queue(&self) -> &[u32] {
        &self.queue
    }

    /// Node ids by descending critical-path length (also a valid topological
    /// order: for any edge `p → n`, `cp_len(p) ≥ cp_len(n) + 1`, so ties
    /// never carry edges).
    pub fn cp_queue(&self) -> &[u32] {
        &self.cp_queue
    }

    /// The execution order selected by `priority`.
    pub fn order(&self, priority: Priority) -> &[u32] {
        match priority {
            Priority::Depth => &self.queue,
            Priority::CriticalPath => &self.cp_queue,
            Priority::LongerIsShorter => &self.lis_queue,
            Priority::GlobalFixed => &self.gfp_queue,
        }
    }

    /// Successors of `n` sorted by ascending critical-path length. Pushing
    /// released successors in this order makes a LIFO deque pop the
    /// longest-path successor first.
    pub fn succs_by_cp(&self, n: NodeId) -> &[u32] {
        &self.succs_by_cp[n.idx()]
    }

    /// The successor iteration order selected by `priority`: graph order for
    /// [`Priority::Depth`] and [`Priority::GlobalFixed`] (a single static
    /// rank needs no per-release reshuffle), ascending critical-path length
    /// for the path-shaping policies so a LIFO pop takes the longest path
    /// first.
    pub fn succ_order(&self, n: NodeId, priority: Priority) -> &[u32] {
        match priority {
            Priority::Depth | Priority::GlobalFixed => &self.succs[n.idx()],
            Priority::CriticalPath | Priority::LongerIsShorter => &self.succs_by_cp[n.idx()],
        }
    }

    /// Source nodes (no dependencies), in queue order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Length of the critical path in *node count* (not time): the longest
    /// chain of dependencies, i.e. `max depth + 1`.
    pub fn critical_path_len(&self) -> usize {
        self.depth
            .iter()
            .copied()
            .max()
            .map_or(0, |d| d as usize + 1)
    }

    /// Verify that `order` is a permutation of all nodes consistent with the
    /// dependencies (every node after all its predecessors). Test helper for
    /// schedules and traces.
    pub fn is_valid_execution_order(&self, order: &[u32]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.len()];
        for (i, &n) in order.iter().enumerate() {
            let Some(slot) = pos.get_mut(n as usize) else {
                return false;
            };
            if *slot != usize::MAX {
                return false; // duplicate
            }
            *slot = i;
        }
        for n in 0..self.len() {
            for &p in &self.preds[n] {
                if pos[p as usize] >= pos[n] {
                    return false;
                }
            }
        }
        true
    }

    /// Render the graph in Graphviz DOT format (node names, one cluster per
    /// section).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph djstar {\n  rankdir=LR;\n");
        for (si, sec) in Section::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  subgraph cluster_{si} {{\n    label=\"{sec:?}\";\n"
            ));
            for n in 0..self.len() {
                if self.sections[n] == *sec {
                    out.push_str(&format!("    n{} [label=\"{}\"];\n", n, self.names[n]));
                }
            }
            out.push_str("  }\n");
        }
        for n in 0..self.len() {
            for &p in &self.preds[n] {
                out.push_str(&format!("  n{p} -> n{n};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// A validated task graph: topology plus one processor per node.
pub struct TaskGraph {
    topo: GraphTopology,
    processors: Vec<Box<dyn Processor>>,
}

impl TaskGraph {
    /// The structural data.
    pub fn topology(&self) -> &GraphTopology {
        &self.topo
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// True when the graph has no nodes (never, for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }

    /// Decompose into topology and processors (used by `ExecGraph`).
    pub(crate) fn into_parts(self) -> (GraphTopology, Vec<Box<dyn Processor>>) {
        (self.topo, self.processors)
    }
}

impl fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskGraph")
            .field("nodes", &self.topo.len())
            .finish()
    }
}

struct BuildNode {
    name: String,
    section: Section,
    processor: Box<dyn Processor>,
    preds: Vec<u32>,
}

/// Builder for [`TaskGraph`]: add nodes with their predecessors, then
/// [`build`](TaskGraphBuilder::build) validates and computes depths, the
/// queue order and successor lists.
#[derive(Default)]
pub struct TaskGraphBuilder {
    nodes: Vec<BuildNode>,
}

impl TaskGraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes were added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node computing `processor`, depending on `preds`.
    /// Returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        section: Section,
        processor: Box<dyn Processor>,
        preds: &[NodeId],
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(BuildNode {
            name: name.into(),
            section,
            processor,
            preds: preds.iter().map(|p| p.0).collect(),
        });
        id
    }

    /// Validate and produce the graph.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        // Edge validation.
        for (i, node) in self.nodes.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for &p in &node.preds {
                if p as usize >= n {
                    return Err(GraphError::UnknownPredecessor {
                        node: i as u32,
                        pred: p,
                    });
                }
                if !seen.insert(p) {
                    return Err(GraphError::DuplicateEdge {
                        node: i as u32,
                        pred: p,
                    });
                }
            }
        }
        // Kahn topological sort to detect cycles and compute depth.
        let mut indegree: Vec<u32> = self.nodes.iter().map(|nd| nd.preds.len() as u32).collect();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &p in &node.preds {
                succs[p as usize].push(i as u32);
            }
        }
        let mut depth = vec![0u32; n];
        let mut ready: VecDeque<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut visited = 0usize;
        while let Some(v) = ready.pop_front() {
            visited += 1;
            for &s in &succs[v as usize] {
                depth[s as usize] = depth[s as usize].max(depth[v as usize] + 1);
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    ready.push_back(s);
                }
            }
        }
        if visited != n {
            return Err(GraphError::Cyclic);
        }
        // DJ Star queue: stable sort by depth keeps insertion order within a
        // column ("column by column and from left to right").
        let mut queue: Vec<u32> = (0..n as u32).collect();
        queue.sort_by_key(|&i| depth[i as usize]);
        let sources: Vec<u32> = queue
            .iter()
            .copied()
            .filter(|&i| self.nodes[i as usize].preds.is_empty())
            .collect();
        // Critical-path length: walk the queue backwards so every successor
        // is finalized before its predecessors are visited.
        let mut cp_len = vec![1u32; n];
        for &v in queue.iter().rev() {
            for &s in &succs[v as usize] {
                cp_len[v as usize] = cp_len[v as usize].max(cp_len[s as usize] + 1);
            }
        }
        let mut cp_queue: Vec<u32> = (0..n as u32).collect();
        cp_queue.sort_by_key(|&i| std::cmp::Reverse(cp_len[i as usize]));
        // "Longer Is Shorter": same strictly monotone primary key as
        // cp_queue, but ties prefer the node on the longest end-to-end path
        // (depth + cp_len counts the node once per term, which is fine for
        // ranking).
        let mut lis_queue: Vec<u32> = (0..n as u32).collect();
        lis_queue.sort_by_key(|&i| {
            let i = i as usize;
            (
                std::cmp::Reverse(cp_len[i]),
                std::cmp::Reverse(depth[i] + cp_len[i]),
            )
        });
        // Global fixed-priority: one static rank per node. Ascending depth
        // keeps it a topological order; within a column the node gating the
        // longest tail (then the most successors) outranks its peers.
        let mut gfp_queue: Vec<u32> = (0..n as u32).collect();
        gfp_queue.sort_by_key(|&i| {
            let i = i as usize;
            (
                depth[i],
                std::cmp::Reverse(cp_len[i]),
                std::cmp::Reverse(succs[i].len()),
            )
        });
        let succs_by_cp: Vec<Vec<u32>> = succs
            .iter()
            .map(|ss| {
                let mut ss = ss.clone();
                ss.sort_by_key(|&s| cp_len[s as usize]);
                ss
            })
            .collect();

        let mut names = Vec::with_capacity(n);
        let mut sections = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        let mut processors = Vec::with_capacity(n);
        let mut name_index = std::collections::HashMap::with_capacity(n);
        let mut channels = Vec::with_capacity(n);
        for (i, node) in self.nodes.into_iter().enumerate() {
            name_index.insert(node.name.clone(), i as u32);
            channels.push(node.processor.output_channels() as u8);
            names.push(node.name);
            sections.push(node.section);
            preds.push(node.preds);
            processors.push(node.processor);
        }
        Ok(TaskGraph {
            topo: GraphTopology {
                names,
                name_index,
                channels,
                sections,
                preds,
                succs,
                depth,
                cp_len,
                queue,
                cp_queue,
                lis_queue,
                gfp_queue,
                succs_by_cp,
                sources,
            },
            processors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Passthrough;

    fn pt() -> Box<dyn Processor> {
        Box::new(Passthrough)
    }

    /// a -> b -> d, a -> c -> d  (diamond)
    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, pt(), &[]);
        let x = b.add("b", Section::DeckA, pt(), &[a]);
        let y = b.add("c", Section::DeckB, pt(), &[a]);
        b.add("d", Section::Master, pt(), &[x, y]);
        b.build().unwrap()
    }

    #[test]
    fn diamond_depths_and_queue() {
        let g = diamond();
        let t = g.topology();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(1)), 1);
        assert_eq!(t.depth(NodeId(2)), 1);
        assert_eq!(t.depth(NodeId(3)), 2);
        assert_eq!(t.queue(), &[0, 1, 2, 3]);
        assert_eq!(t.sources(), &[0]);
        assert_eq!(t.critical_path_len(), 3);
    }

    #[test]
    fn successors_computed() {
        let g = diamond();
        let t = g.topology();
        assert_eq!(t.succs(NodeId(0)), &[1, 2]);
        assert_eq!(t.succs(NodeId(1)), &[3]);
        assert_eq!(t.succs(NodeId(3)), &[] as &[u32]);
    }

    #[test]
    fn queue_is_valid_execution_order() {
        let g = diamond();
        let t = g.topology();
        assert!(t.is_valid_execution_order(t.queue()));
    }

    #[test]
    fn invalid_orders_rejected() {
        let g = diamond();
        let t = g.topology();
        assert!(!t.is_valid_execution_order(&[3, 1, 2, 0])); // sink first
        assert!(!t.is_valid_execution_order(&[0, 1, 2])); // missing node
        assert!(!t.is_valid_execution_order(&[0, 1, 1, 3])); // duplicate
        assert!(!t.is_valid_execution_order(&[0, 1, 2, 9])); // unknown id
    }

    #[test]
    fn cycle_detected() {
        // Build a 2-cycle by forward-referencing: a depends on b, b on a.
        let mut b = TaskGraphBuilder::new();
        let _a = b.add("a", Section::DeckA, pt(), &[NodeId(1)]);
        let _b = b.add("b", Section::DeckA, pt(), &[NodeId(0)]);
        assert_eq!(b.build().err(), Some(GraphError::Cyclic));
    }

    #[test]
    fn unknown_pred_detected() {
        let mut b = TaskGraphBuilder::new();
        b.add("a", Section::DeckA, pt(), &[NodeId(5)]);
        assert_eq!(
            b.build().err(),
            Some(GraphError::UnknownPredecessor { node: 0, pred: 5 })
        );
    }

    #[test]
    fn duplicate_edge_detected() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, pt(), &[]);
        b.add("b", Section::DeckA, pt(), &[a, a]);
        assert_eq!(
            b.build().err(),
            Some(GraphError::DuplicateEdge { node: 1, pred: 0 })
        );
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            TaskGraphBuilder::new().build().err(),
            Some(GraphError::Empty)
        );
    }

    #[test]
    fn same_depth_nodes_never_depend_on_each_other() {
        // This is the "column property" the paper's queue relies on; it holds
        // by construction of depth. Verify on a random-ish DAG.
        let mut b = TaskGraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..30u32 {
            let preds: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|p: &NodeId| (i + p.0).is_multiple_of(7))
                .collect();
            ids.push(b.add(format!("n{i}"), Section::Master, pt(), &preds));
        }
        let g = b.build().unwrap();
        let t = g.topology();
        for n in 0..t.len() {
            for &p in t.preds(NodeId(n as u32)) {
                assert!(t.depth(NodeId(p)) < t.depth(NodeId(n as u32)));
            }
        }
    }

    #[test]
    fn dot_export_mentions_all_nodes() {
        let g = diamond();
        let dot = g.topology().to_dot();
        for name in ["\"a\"", "\"b\"", "\"c\"", "\"d\""] {
            assert!(dot.contains(name), "missing {name} in {dot}");
        }
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n3"));
    }

    #[test]
    fn critical_path_lengths_on_diamond() {
        let g = diamond();
        let t = g.topology();
        assert_eq!(t.cp_len(NodeId(0)), 3);
        assert_eq!(t.cp_len(NodeId(1)), 2);
        assert_eq!(t.cp_len(NodeId(2)), 2);
        assert_eq!(t.cp_len(NodeId(3)), 1);
        assert_eq!(t.cp_queue(), &[0, 1, 2, 3]);
        assert_eq!(t.order(Priority::Depth), t.queue());
        assert_eq!(t.order(Priority::CriticalPath), t.cp_queue());
    }

    #[test]
    fn cp_queue_is_valid_execution_order() {
        // Random-ish DAG: cp order must respect every edge even when it
        // disagrees with the depth order.
        let mut b = TaskGraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..40u32 {
            let preds: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|p: &NodeId| (i * 3 + p.0).is_multiple_of(5))
                .collect();
            ids.push(b.add(format!("n{i}"), Section::Master, pt(), &preds));
        }
        let g = b.build().unwrap();
        let t = g.topology();
        assert!(t.is_valid_execution_order(t.cp_queue()));
        // Edges strictly decrease cp_len, so equal-cp nodes never depend on
        // each other (the property that makes the stable sort safe).
        for n in 0..t.len() {
            let id = NodeId(n as u32);
            for &p in t.preds(id) {
                assert!(t.cp_len(NodeId(p)) > t.cp_len(id));
            }
        }
    }

    #[test]
    fn all_priority_orders_are_valid_execution_orders() {
        // Random-ish DAG: every precomputed policy order must respect every
        // edge, including the two DAG-literature policies.
        let mut b = TaskGraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..60u32 {
            let preds: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|p: &NodeId| (i * 5 + p.0 * 2).is_multiple_of(7))
                .collect();
            ids.push(b.add(format!("n{i}"), Section::Master, pt(), &preds));
        }
        let g = b.build().unwrap();
        let t = g.topology();
        for pr in Priority::ALL {
            assert!(
                t.is_valid_execution_order(t.order(pr)),
                "{} order violates dependencies",
                pr.label()
            );
        }
    }

    #[test]
    fn longer_is_shorter_ties_prefer_long_total_paths() {
        // Two nodes with equal cp_len (2): node 1 sits on a depth-1 chain
        // (total path 3), node 2 is a source (total path 2). LIS must rank
        // the deeper chain first; plain CP keeps insertion order.
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, pt(), &[]);
        let x = b.add("x", Section::DeckA, pt(), &[a]); // depth 1, cp 2
        let y = b.add("y", Section::DeckB, pt(), &[]); // depth 0, cp 2
        b.add("xs", Section::Master, pt(), &[x]);
        b.add("ys", Section::Master, pt(), &[y]);
        let g = b.build().unwrap();
        let t = g.topology();
        assert_eq!(t.cp_len(x), t.cp_len(y));
        let lis = t.order(Priority::LongerIsShorter);
        let px = lis.iter().position(|&n| n == x.0).unwrap();
        let py = lis.iter().position(|&n| n == y.0).unwrap();
        assert!(
            px < py,
            "LIS must rank the longer total path first: {lis:?}"
        );
        assert!(t.is_valid_execution_order(lis));
    }

    #[test]
    fn global_fixed_ranks_within_columns() {
        // Same depth column: the node with the longer tail outranks its
        // peer regardless of insertion order.
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, pt(), &[]);
        let short = b.add("short", Section::DeckA, pt(), &[a]); // cp 1
        let long = b.add("long", Section::DeckB, pt(), &[a]); // cp 2
        b.add("tail", Section::Master, pt(), &[long]);
        let g = b.build().unwrap();
        let t = g.topology();
        let gfp = t.order(Priority::GlobalFixed);
        let ps = gfp.iter().position(|&n| n == short.0).unwrap();
        let pl = gfp.iter().position(|&n| n == long.0).unwrap();
        assert!(pl < ps, "GFP must rank the longer tail first: {gfp:?}");
        assert!(t.is_valid_execution_order(gfp));
    }

    #[test]
    fn succs_by_cp_sorted_ascending() {
        // chain 0 -> 1 -> 3 and edge 0 -> 2 (sink): succ 2 (cp 1) must come
        // before succ 1 (cp 2) so a LIFO pop takes the long path first.
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, pt(), &[]);
        let x = b.add("b", Section::DeckA, pt(), &[a]);
        b.add("c", Section::DeckB, pt(), &[a]);
        b.add("d", Section::Master, pt(), &[x]);
        let g = b.build().unwrap();
        let t = g.topology();
        assert_eq!(t.succs(NodeId(0)), &[1, 2]);
        assert_eq!(t.succs_by_cp(NodeId(0)), &[2, 1]);
        assert_eq!(t.succ_order(NodeId(0), Priority::Depth), &[1, 2]);
        assert_eq!(t.succ_order(NodeId(0), Priority::CriticalPath), &[2, 1]);
    }

    #[test]
    fn section_deck_round_trip() {
        for i in 0..4 {
            assert_eq!(Section::deck(i).deck_index(), Some(i));
        }
        assert_eq!(Section::Master.deck_index(), None);
    }
}
