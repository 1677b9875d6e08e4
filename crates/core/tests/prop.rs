//! Property-style tests for the task graph, the deque and the executors on
//! randomly generated DAGs. DAGs are generated from a seeded
//! [`SmallRng`] so every run checks the same cases (the workspace builds
//! offline, without proptest).

use djstar_core::deque::{Steal, WorkDeque};
use djstar_core::exec::{
    BlueprintError, BusyExecutor, GraphExecutor, HybridExecutor, PlannedExecutor,
    ScheduleBlueprint, SequentialExecutor, SleepExecutor, StagedGeneration, StealExecutor,
    Strategy, SwapError,
};
use djstar_core::flight::FlightConfig;
use djstar_core::graph::{NodeId, Section, TaskGraph, TaskGraphBuilder};
use djstar_core::processor::{CycleCtx, FnProcessor};
use djstar_core::trace::ScheduleTrace;
use djstar_dsp::rng::SmallRng;
use djstar_dsp::AudioBuf;

/// Run one cycle of `ex`, whose flight recorder must be installed, and
/// fold it into its schedule trace.
fn traced_cycle(ex: &mut dyn GraphExecutor) -> ScheduleTrace {
    ex.run_cycle(&[], &[]);
    let window = ex.take_flight_window().expect("recorder installed");
    let cycle = window.cycles.last().expect("cycle stamped").cycle;
    ScheduleTrace::of_cycle(&window, cycle).expect("stamp in its window")
}

/// Random DAG description: for node i, a set of predecessors drawn from the
/// earlier nodes (at most 8, matching MAX_INPUTS).
fn random_dag(rng: &mut SmallRng, max_nodes: usize) -> Vec<Vec<u32>> {
    let n = 1 + rng.below(max_nodes - 1);
    (0..n)
        .map(|i| {
            let mut ps: Vec<u32> = (0..i as u32).filter(|_| rng.chance(0.3)).collect();
            ps.truncate(8);
            ps
        })
        .collect()
}

/// Build a graph whose node i writes `i + 1 + max(pred values)` so the sink
/// values are schedule-independent but dependency-sensitive.
fn build_graph(preds: &[Vec<u32>]) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    for (i, ps) in preds.iter().enumerate() {
        let pred_ids: Vec<NodeId> = ps.iter().map(|&p| NodeId(p)).collect();
        let val = (i + 1) as f32;
        b.add(
            format!("n{i}"),
            Section::deck(i % 4),
            Box::new(FnProcessor(
                move |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    let base = inp.iter().map(|b| b.sample(0, 0)).fold(0.0f32, f32::max);
                    out.samples_mut().fill(base + val);
                },
            )),
            &pred_ids,
        );
    }
    b.build().expect("forward edges only: always a DAG")
}

/// Expected node values of the arithmetic above, computed directly.
fn expected_values(preds: &[Vec<u32>]) -> Vec<f32> {
    let mut vals = vec![0.0f32; preds.len()];
    for i in 0..preds.len() {
        let base = preds[i]
            .iter()
            .map(|&p| vals[p as usize])
            .fold(0.0f32, f32::max);
        vals[i] = base + (i + 1) as f32;
    }
    vals
}

/// A PLAN blueprint that is not the depth round-robin: nodes sorted by
/// descending longest path to a sink (counted in nodes, ties by index) and
/// dealt round-robin onto `threads` workers. Edges strictly shorten that
/// path, so the order is topological and every worker's list replays; the
/// cross-worker waits differ from the ones the depth queue produces.
fn longest_path_blueprint(g: &TaskGraph, threads: usize) -> ScheduleBlueprint {
    let topo = g.topology();
    let mut tail = vec![1u32; topo.len()];
    for &v in topo.queue().iter().rev() {
        for &s in topo.succs(NodeId(v)) {
            tail[v as usize] = tail[v as usize].max(tail[s as usize] + 1);
        }
    }
    let mut order: Vec<u32> = (0..topo.len() as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(tail[v as usize]));
    let mut assignments: Vec<Vec<(u32, u64)>> = vec![Vec::new(); threads];
    for (k, &v) in order.iter().enumerate() {
        assignments[k % threads].push((v, k as u64));
    }
    ScheduleBlueprint::from_assignments(topo, &assignments)
        .expect("a round-robin deal of a topological order replays")
}

#[test]
fn random_dags_build_with_valid_queues() {
    let mut rng = SmallRng::seed_from_u64(0x9A6);
    for _ in 0..24 {
        let preds = random_dag(&mut rng, 24);
        let g = build_graph(&preds);
        let t = g.topology();
        assert!(t.is_valid_execution_order(t.queue()));
        // Depth is consistent: every edge increases depth.
        for n in 0..t.len() as u32 {
            for &p in t.preds(NodeId(n)) {
                assert!(t.depth(NodeId(p)) < t.depth(NodeId(n)));
            }
        }
        // Sources are exactly the nodes without predecessors.
        let src_count = (0..t.len() as u32)
            .filter(|&n| t.preds(NodeId(n)).is_empty())
            .count();
        assert_eq!(t.sources().len(), src_count);
    }
}

#[test]
fn all_executors_compute_correct_values_on_random_dags() {
    let mut rng = SmallRng::seed_from_u64(0xE8EC);
    for case in 0..24 {
        let preds = random_dag(&mut rng, 20);
        let threads = 1 + rng.below(4);
        let want = expected_values(&preds);
        let sink = preds.len() - 1;
        let frames = 4;
        let planned = {
            let g = build_graph(&preds);
            let bp = ScheduleBlueprint::round_robin(g.topology(), threads);
            PlannedExecutor::new(g, frames, bp)
        };
        let mut executors: Vec<Box<dyn GraphExecutor>> = vec![
            Box::new(SequentialExecutor::new(build_graph(&preds), frames)),
            Box::new(BusyExecutor::new(build_graph(&preds), threads, frames)),
            Box::new(SleepExecutor::new(build_graph(&preds), threads, frames)),
            Box::new(StealExecutor::new(build_graph(&preds), threads, frames)),
            Box::new(planned),
        ];
        for ex in &mut executors {
            for _ in 0..3 {
                ex.run_cycle(&[], &[]);
            }
            let mut out = AudioBuf::zeroed(2, frames);
            ex.read_output(NodeId(sink as u32), &mut out);
            assert!(
                (out.sample(0, 0) - want[sink]).abs() < 1e-4,
                "case {case} {:?}: got {}, want {}",
                ex.strategy(),
                out.sample(0, 0),
                want[sink]
            );
        }
    }
}

#[test]
fn traces_on_random_dags_respect_dependencies() {
    let mut rng = SmallRng::seed_from_u64(0x7A8);
    for _ in 0..16 {
        let preds = random_dag(&mut rng, 16);
        let threads = 2 + rng.below(3);
        let mut ex = StealExecutor::new(build_graph(&preds), threads, 4);
        ex.set_flight_recorder(Some(FlightConfig::default()));
        for _ in 0..5 {
            let trace = traced_cycle(&mut ex);
            assert_eq!(trace.executions().len(), preds.len());
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        }
    }
}

#[test]
fn planned_executor_runs_every_node_exactly_once_on_random_dags() {
    let mut rng = SmallRng::seed_from_u64(0x91A7);
    for case in 0..16 {
        let preds = random_dag(&mut rng, 20);
        let threads = 1 + rng.below(8);
        let longest_path = rng.chance(0.5);
        let g = build_graph(&preds);
        let bp = if longest_path {
            longest_path_blueprint(&g, threads)
        } else {
            ScheduleBlueprint::round_robin(g.topology(), threads)
        };
        let mut ex = PlannedExecutor::new(g, 4, bp);
        ex.set_flight_recorder(Some(FlightConfig::default()));
        for _ in 0..5 {
            let trace = traced_cycle(&mut ex);
            // Exactly once: the execution count matches the node count and
            // no node appears twice.
            let mut nodes: Vec<u32> = trace.executions().iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            assert_eq!(
                nodes,
                (0..preds.len() as u32).collect::<Vec<_>>(),
                "case {case} t={threads} longest_path={longest_path}"
            );
            // Every dependency edge is respected in wall-clock order.
            let topo = ex.topology();
            assert!(
                trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()),
                "case {case} t={threads} longest_path={longest_path}"
            );
        }
    }
}

#[test]
fn planned_executor_computes_correct_values_on_random_dags() {
    let mut rng = SmallRng::seed_from_u64(0xB1DE);
    for case in 0..16 {
        let preds = random_dag(&mut rng, 20);
        let threads = 1 + rng.below(8);
        let want = expected_values(&preds);
        let sink = preds.len() - 1;
        let g = build_graph(&preds);
        let bp = longest_path_blueprint(&g, threads);
        let mut ex = PlannedExecutor::new(g, 4, bp);
        for _ in 0..3 {
            ex.run_cycle(&[], &[]);
        }
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(NodeId(sink as u32), &mut out);
        assert!(
            (out.sample(0, 0) - want[sink]).abs() < 1e-4,
            "case {case} t={threads}: got {}, want {}",
            out.sample(0, 0),
            want[sink]
        );
    }
}

/// Build a fresh executor of `strategy` over `graph` with `threads`
/// workers. Sequential ignores `threads`; Planned gets a round-robin
/// blueprint (the swap path exercises the `plan: None` fallback).
fn make_executor(
    strategy: Strategy,
    graph: TaskGraph,
    threads: usize,
    frames: usize,
) -> Box<dyn GraphExecutor> {
    match strategy {
        Strategy::Sequential => Box::new(SequentialExecutor::new(graph, frames)),
        Strategy::Busy => Box::new(BusyExecutor::new(graph, threads, frames)),
        Strategy::Sleep => Box::new(SleepExecutor::new(graph, threads, frames)),
        Strategy::Steal => Box::new(StealExecutor::new(graph, threads, frames)),
        Strategy::Hybrid => Box::new(HybridExecutor::new(graph, threads, frames, 2000)),
        Strategy::Planned => {
            let bp = ScheduleBlueprint::round_robin(graph.topology(), threads);
            Box::new(PlannedExecutor::new(graph, frames, bp))
        }
    }
}

/// Run `cycles` recorded cycles and check exactly-once execution,
/// dependency safety and the schedule-independent sink value against
/// `preds`.
fn check_cycles(ex: &mut dyn GraphExecutor, preds: &[Vec<u32>], cycles: usize, tag: &str) {
    let want = expected_values(preds);
    let sink = preds.len() - 1;
    ex.set_flight_recorder(Some(FlightConfig::default()));
    for c in 0..cycles {
        let trace = traced_cycle(ex);
        let mut nodes: Vec<u32> = trace.executions().iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        assert_eq!(
            nodes,
            (0..preds.len() as u32).collect::<Vec<_>>(),
            "{tag} cycle {c}: not exactly-once"
        );
        let topo = ex.topology();
        assert!(
            trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()),
            "{tag} cycle {c}: dependency violated"
        );
    }
    ex.set_flight_recorder(None);
    let mut out = AudioBuf::zeroed(2, 4);
    ex.read_output(NodeId(sink as u32), &mut out);
    assert!(
        (out.sample(0, 0) - want[sink]).abs() < 1e-4,
        "{tag}: got {}, want {}",
        out.sample(0, 0),
        want[sink]
    );
}

#[test]
fn generation_swaps_preserve_exactly_once_and_dep_safety() {
    // All six strategies x 1..=8 threads; each executor lives through two
    // topology swaps (A -> B -> C) with correctness checked before and
    // after every swap.
    let mut rng = SmallRng::seed_from_u64(0x5A0B);
    for strategy in Strategy::ALL {
        for threads in 1..=8usize {
            let a = random_dag(&mut rng, 20);
            let b = random_dag(&mut rng, 20);
            let c = random_dag(&mut rng, 20);
            let tag = format!("{strategy:?} t={threads}");
            let mut ex = make_executor(strategy, build_graph(&a), threads, 4);
            assert_eq!(ex.generation(), 0, "{tag}");
            check_cycles(ex.as_mut(), &a, 3, &format!("{tag} gen0"));
            for (gen, preds) in [(1u64, &b), (2, &c)] {
                let graph = build_graph(preds);
                let staged = if strategy == Strategy::Planned {
                    let bp = ScheduleBlueprint::round_robin(graph.topology(), threads);
                    StagedGeneration::with_plan(graph, 4, bp).expect("round-robin fits")
                } else {
                    StagedGeneration::new(graph, 4)
                };
                let got = ex.adopt_generation(staged).0.expect("swap must succeed");
                assert_eq!(got, gen, "{tag}");
                assert_eq!(ex.generation(), gen, "{tag}");
                assert_eq!(ex.topology().len(), preds.len(), "{tag}");
                check_cycles(ex.as_mut(), preds, 3, &format!("{tag} gen{gen}"));
            }
        }
    }
}

#[test]
fn planned_swap_accepts_staged_blueprint_and_rejects_misfits() {
    let mut rng = SmallRng::seed_from_u64(0x5B1);
    let a = random_dag(&mut rng, 16);
    let b = random_dag(&mut rng, 16);
    let threads = 3;
    let g_a = build_graph(&a);
    let bp_a = ScheduleBlueprint::round_robin(g_a.topology(), threads);
    let mut ex = PlannedExecutor::new(g_a, 4, bp_a);
    check_cycles(&mut ex, &a, 2, "planned pre-swap");

    // A staged generation carrying a freshly compiled blueprint.
    let g_b = build_graph(&b);
    let bp_b = longest_path_blueprint(&g_b, threads);
    let staged = StagedGeneration::with_plan(g_b, 4, bp_b).unwrap();
    assert!(staged.has_plan());
    assert_eq!(ex.adopt_generation(staged).0.unwrap(), 1);
    check_cycles(&mut ex, &b, 2, "planned post-swap");

    // Wrong worker count: rejected, running generation untouched.
    let bad_plan = {
        let g = build_graph(&a);
        ScheduleBlueprint::round_robin(g.topology(), threads + 1)
    };
    let staged = StagedGeneration::with_plan(build_graph(&a), 4, bad_plan).unwrap();
    match ex.adopt_generation(staged).0 {
        Err(SwapError::ThreadMismatch { expected, got }) => {
            assert_eq!((expected, got), (threads, threads + 1));
        }
        other => panic!("expected ThreadMismatch, got {other:?}"),
    }
    assert_eq!(ex.generation(), 1);
    check_cycles(&mut ex, &b, 2, "planned after rejected swap");

    // Blueprint for a different node set: refused by the recompile at
    // staging, so nothing reaches the executor.
    let stale = ex.blueprint().clone();
    let bigger: Vec<Vec<u32>> = (0..b.len() + 4).map(|_| Vec::new()).collect();
    match StagedGeneration::with_plan(build_graph(&bigger), 4, stale) {
        Err(BlueprintError::Incomplete { .. }) => {}
        Err(other) => panic!("expected Incomplete, got {other:?}"),
        Ok(_) => panic!("a blueprint for another node set must not stage"),
    }
    assert_eq!(ex.generation(), 1);
    check_cycles(&mut ex, &b, 2, "planned after second rejected swap");

    // A planless generation: refused, running generation untouched.
    let staged = StagedGeneration::new(build_graph(&a), 4);
    assert_eq!(ex.adopt_generation(staged).0, Err(SwapError::NoPlan));
    assert_eq!(ex.generation(), 1);
    check_cycles(&mut ex, &b, 2, "planned after planless swap");
}

/// A graph holding a stateful counter node named "acc" (its output value
/// increments every cycle) surrounded by `extra` stateless nodes so the
/// two generations differ in shape.
fn counter_graph(extra: usize, prefix: &str) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let mut count = 0.0f32;
    let acc = b.add(
        "acc".to_string(),
        Section::Master,
        Box::new(FnProcessor(
            move |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                count += 1.0;
                out.samples_mut().fill(count);
            },
        )),
        &[],
    );
    for i in 0..extra {
        b.add(
            format!("{prefix}{i}"),
            Section::deck(i % 4),
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut()
                        .fill(inp.first().map(|b| b.sample(0, 0)).unwrap_or(0.0));
                },
            )),
            &[acc],
        );
    }
    b.build().unwrap()
}

fn node_named(ex: &dyn GraphExecutor, name: &str) -> NodeId {
    let topo = ex.topology();
    (0..topo.len() as u32)
        .map(NodeId)
        .find(|&n| topo.name(n) == name)
        .expect("node present")
}

#[test]
fn swap_carries_processor_state_by_name() {
    // Both the sequential path (executor-owned graph) and the shared path
    // (adopt_exec) must keep the stateful "acc" processor running across
    // a swap to a differently shaped graph.
    let execs: Vec<Box<dyn GraphExecutor>> = vec![
        Box::new(SequentialExecutor::new(counter_graph(2, "a"), 4)),
        Box::new(BusyExecutor::new(counter_graph(2, "a"), 2, 4)),
    ];
    for mut ex in execs {
        let tag = format!("{:?}", ex.strategy());
        for _ in 0..5 {
            ex.run_cycle(&[], &[]);
        }
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(node_named(ex.as_ref(), "acc"), &mut out);
        assert_eq!(out.sample(0, 0), 5.0, "{tag} pre-swap");

        ex.adopt_generation(StagedGeneration::new(counter_graph(5, "b"), 4))
            .0
            .unwrap();
        for _ in 0..3 {
            ex.run_cycle(&[], &[]);
        }
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(node_named(ex.as_ref(), "acc"), &mut out);
        // 5 pre-swap cycles + 3 post-swap cycles: the counter kept its
        // state through the handover.
        assert_eq!(out.sample(0, 0), 8.0, "{tag} post-swap");
        // The swapped-in stateless node computes from the carried value.
        let mut tap = AudioBuf::zeroed(2, 4);
        ex.read_output(node_named(ex.as_ref(), "b0"), &mut tap);
        assert_eq!(tap.sample(0, 0), 8.0, "{tag} successor");
    }
}

#[test]
fn hollow_swap_takes_survivors_and_refuses_orphans() {
    use djstar_core::processor::vacant;
    // A generation whose nodes are `Vacant` placeholders: "acc" survives
    // (same name, stereo like the running one), so the swap carries the
    // running counter in; "b0" gets a real processor installed beforehand.
    let hollow = |acc_channels: usize| {
        let mut b = TaskGraphBuilder::new();
        let acc = b.add("acc", Section::Master, vacant(acc_channels), &[]);
        b.add("b0", Section::DeckA, vacant(2), &[acc]);
        StagedGeneration::new(b.build().unwrap(), 4)
    };
    let tap = || -> Box<dyn djstar_core::processor::Processor> {
        Box::new(FnProcessor(
            |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                out.samples_mut().fill(inp[0].sample(0, 0));
            },
        ))
    };
    let execs: Vec<Box<dyn GraphExecutor>> = vec![
        Box::new(SequentialExecutor::new(counter_graph(2, "a"), 4)),
        Box::new(BusyExecutor::new(counter_graph(2, "a"), 2, 4)),
    ];
    for mut ex in execs {
        let tag = format!("{:?}", ex.strategy());
        for _ in 0..5 {
            ex.run_cycle(&[], &[]);
        }
        // "b0" left vacant and nothing called "b0" runs: typed refusal,
        // and the running generation keeps counting as if nothing happened.
        let (verdict, _refused) = ex.adopt_generation(hollow(2));
        assert_eq!(
            verdict,
            Err(SwapError::MissingPart { name: "b0".into() }),
            "{tag}"
        );
        // A survivor of the wrong layout does not count as one.
        let mut mono = hollow(1);
        *mono.part_mut(NodeId(1)) = tap();
        let (verdict, _refused) = ex.adopt_generation(mono);
        assert_eq!(
            verdict,
            Err(SwapError::MissingPart { name: "acc".into() }),
            "{tag}"
        );
        assert_eq!(ex.generation(), 0, "{tag}");
        assert_eq!(ex.topology().len(), 3, "{tag}");
        ex.run_cycle(&[], &[]);

        let mut filled = hollow(2);
        *filled.part_mut(NodeId(1)) = tap();
        let (verdict, _retired) = ex.adopt_generation(filled);
        assert_eq!(verdict, Ok(1), "{tag}");
        ex.run_cycle(&[], &[]);
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(node_named(ex.as_ref(), "b0"), &mut out);
        // 6 cycles before the swap, 1 after: the carried counter reads 7.
        assert_eq!(out.sample(0, 0), 7.0, "{tag}");
    }
}

#[test]
fn swap_to_larger_graph_grows_steal_deques() {
    // The staged graph has more nodes than the original deque capacity;
    // adopt must rebuild the deques before the first post-swap cycle.
    let small: Vec<Vec<u32>> = (0..3).map(|_| Vec::new()).collect();
    let big: Vec<Vec<u32>> = (0..120)
        .map(|i| {
            if i == 0 {
                Vec::new()
            } else {
                vec![i as u32 - 1]
            }
        })
        .collect();
    let mut ex = StealExecutor::new(build_graph(&small), 4, 4);
    check_cycles(&mut ex, &small, 2, "steal small");
    ex.adopt_generation(StagedGeneration::new(build_graph(&big), 4))
        .0
        .unwrap();
    check_cycles(&mut ex, &big, 3, "steal big");
}

#[test]
fn deque_matches_sequential_model() {
    // Single-threaded model check: (push?, from_top?) operations against
    // a VecDeque reference. Owner pops bottom (back), thief steals top
    // (front).
    let mut rng = SmallRng::seed_from_u64(0xDE0E);
    for _ in 0..32 {
        let deque = WorkDeque::new(256);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut counter = 0u32;
        for _ in 0..200 {
            let push = rng.chance(0.5);
            let from_top = rng.chance(0.5);
            if push {
                counter += 1;
                if deque.push(counter).is_ok() {
                    model.push_back(counter);
                }
            } else if from_top {
                let got = match deque.steal() {
                    Steal::Success(v) => Some(v),
                    _ => None,
                };
                assert_eq!(got, model.pop_front());
            } else {
                assert_eq!(deque.pop(), model.pop_back());
            }
            assert_eq!(deque.len(), model.len());
        }
    }
}
