//! A generation staged hollow and filled part by part *is* the graph
//! `build_shaped_graph` builds: same nodes, same edges, same buffer
//! layouts, and — with every processor made by `build_part` — the same
//! audio out of every node, bit for bit, cycle after cycle.
//!
//! The full side runs on a sequential executor. The hollow side is adopted
//! by a two-thread BUSY executor that was running an unrelated one-node
//! graph, so nothing is carried over and every processor that runs came
//! from `build_part`. On each side the deck fronts play the scenario's
//! tracks into the graph, which is what makes the 200 cycles non-trivial
//! (delay lines ring, meters settle, the jitter buffer of a remote deck
//! conceals).

use djstar_core::exec::{PoolExecutor, StagedGeneration, Strategy};
use djstar_core::graph::{NodeId, Section, TaskGraphBuilder};
use djstar_core::processor::Passthrough;
use djstar_dsp::{AudioBuf, BUFFER_FRAMES};
use djstar_engine::nodes::controls;
use djstar_engine::{build_part, build_shaped_graph, hollow_graph, GraphShape, NodeKey, NodeKind};
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;

const CYCLES: usize = 200;

/// `paper_default` and three shapes a mode walk reaches.
fn cases() -> Vec<(&'static str, Scenario, GraphShape)> {
    let local = Scenario::light_test();
    let mut chain8 = GraphShape::paper_default();
    chain8.fx_slots[0] = GraphShape::MAX_FX_SLOTS;
    let mut two_decks = GraphShape::paper_default();
    two_decks.deck_loaded = [true, true, false, false];
    let mut networked = Scenario::light_test();
    networked.net = NetSpec::lossy(5);
    let remote = GraphShape::for_net(&networked.net);
    assert!(remote.remote_decks.contains(&true) && remote.listeners > 0);
    vec![
        ("paper_default", local.clone(), GraphShape::paper_default()),
        ("8-slot chain", local.clone(), chain8),
        ("two decks", local, two_decks),
        ("remote deck", networked, remote),
    ]
}

/// A BUSY × 2 executor running `shape`'s graph built hollow, every node
/// filled by `build_part`.
fn hollow_executor(scenario: &Scenario, shape: &GraphShape) -> PoolExecutor {
    let mut seed = TaskGraphBuilder::new();
    seed.add("nobody", Section::Master, Box::new(Passthrough), &[]);
    let seed = StagedGeneration::new(seed.build().unwrap(), BUFFER_FRAMES);
    let mut exec = PoolExecutor::new(Strategy::Busy, seed, 2).expect("a filled generation");
    let (graph, map) = hollow_graph(scenario, shape);
    let mut staged = StagedGeneration::new(graph, BUFFER_FRAMES);
    for n in (0..staged.len() as u32).map(NodeId) {
        assert!(staged.part_mut(n).is_vacant());
        let key = map.keys[n.0 as usize];
        *staged.part_mut(n) = build_part(scenario, shape, key).expect("node of this shape");
    }
    let (verdict, _retired) = exec.adopt_generation(staged);
    assert_eq!(verdict, Ok(1));
    exec
}

#[test]
fn hollow_plus_parts_is_the_full_graph_bit_for_bit() {
    for (label, scenario, shape) in cases() {
        let (full_graph, full_map) = build_shaped_graph(&scenario, &shape);
        let (hollow, hollow_map) = hollow_graph(&scenario, &shape);
        let (tf, th) = (full_graph.topology(), hollow.topology());
        let nodes = tf.len() as u32;
        assert_eq!(nodes as usize, shape.node_count(), "{label}");
        assert_eq!(th.len(), tf.len(), "{label}");
        for n in (0..nodes).map(NodeId) {
            assert_eq!(th.name(n), tf.name(n), "{label}");
            assert_eq!(th.section(n), tf.section(n), "{label} {}", tf.name(n));
            assert_eq!(th.preds(n), tf.preds(n), "{label} {}", tf.name(n));
            assert_eq!(th.channels(n), tf.channels(n), "{label} {}", tf.name(n));
        }
        assert_eq!(hollow_map.audio_out, full_map.audio_out, "{label}");
        let fx_e1 = NodeKey {
            kind: NodeKind::FX,
            deck: Some(4),
            slot: 1,
        };
        assert!(build_part(&scenario, &shape, fx_e1).is_none());

        let full = StagedGeneration::new(full_graph, BUFFER_FRAMES);
        let mut full = PoolExecutor::new(Strategy::Sequential, full, 1).expect("a full graph");
        let mut filled = hollow_executor(&scenario, &shape);
        let mut ctrl = vec![1.0f32; controls::COUNT];
        ctrl[controls::CROSSFADER] = 0.5;
        let (mut a, mut b) = (AudioBuf::stereo_default(), AudioBuf::stereo_default());
        for cycle in 0..CYCLES {
            ctrl[controls::BEAT_CLOCK] = cycle as f32 * 0.0058;
            ctrl[controls::CYCLE] = (cycle + 1) as f32;
            full.run_cycle(&[], &ctrl);
            filled.run_cycle(&[], &ctrl);
            for n in (0..nodes).map(NodeId) {
                full.read_output(n, &mut a);
                filled.read_output(n, &mut b);
                let same = a
                    .samples()
                    .iter()
                    .zip(b.samples())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{label}: {} diverged at cycle {cycle}", th.name(n));
            }
        }
        full.read_output(full_map.audio_out, &mut a);
        assert!(a.rms() > 1e-4, "{label}: the packets compared were silence");
    }
}
