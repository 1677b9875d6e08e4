//! Admission–oracle agreement: every accept/reject `stage_edits` makes
//! with schedulability admission armed must agree with the simulator's
//! [`djstar_sim::admissible`] verdict computed independently from the
//! same cost model — over a generated shape family, at a mixed-verdict
//! pivot budget, and on boundary shapes whose list-schedule bound
//! straddles the budget by exactly one nanosecond.
//!
//! A uniform cost model keeps every bound a pure function of the shape,
//! so the battery is fully deterministic across hosts. The engines run on
//! [`THREADS`] lanes: admission bounds a shape on the engine's own lanes.

use djstar_core::exec::Strategy;
use djstar_core::flight::FlightConfig;
use djstar_core::graph::NodeId;
use djstar_core::trace::ScheduleTrace;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::modes::{AdmissionControl, NodeCostModel};
use djstar_engine::reconfig::{apply_edit, GraphEdit, ReconfigError};
use djstar_engine::{build_shaped_graph, GraphShape};
use djstar_workload::scenario::Scenario;
use djstar_workload::{shape_walk, SwitchAction};

const THREADS: usize = 4;
const COST_NS: u64 = 1_000;

fn to_edit(action: SwitchAction) -> GraphEdit {
    match action {
        SwitchAction::LoadDeck(d) => GraphEdit::LoadDeck(d),
        SwitchAction::UnloadDeck(d) => GraphEdit::UnloadDeck(d),
        SwitchAction::InsertFxSlot(d) => GraphEdit::InsertFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => GraphEdit::RemoveFxSlot(d),
    }
}

/// Distinct shapes visited by a 40-step walk, plus hand-picked extremes
/// the walk cannot reach (remote deck, saturated FX).
fn shape_family() -> Vec<GraphShape> {
    let mut family = vec![GraphShape::paper_default()];
    let mut cur = GraphShape::paper_default();
    for e in shape_walk(40, 1, 0xADA1).events() {
        apply_edit(&mut cur, to_edit(e.action)).expect("walk edits are valid");
        if !family.contains(&cur) {
            family.push(cur);
        }
    }
    let mut heavy = GraphShape::paper_default();
    heavy.fx_slots = [GraphShape::MAX_FX_SLOTS; 4];
    let mut remote = GraphShape::paper_default();
    remote.remote_decks[2] = true;
    remote.net_depth[2] = 4;
    for extra in [heavy, remote] {
        if !family.contains(&extra) {
            family.push(extra);
        }
    }
    family
}

/// The edit script that morphs `from` into `to`, validated step by step.
fn edits_to(from: &GraphShape, to: &GraphShape) -> Vec<GraphEdit> {
    let mut cur = *from;
    let mut edits = Vec::new();
    let push = |cur: &mut GraphShape, edits: &mut Vec<GraphEdit>, e: GraphEdit| {
        apply_edit(cur, e).expect("shape diffs only produce valid edits");
        edits.push(e);
    };
    for d in 0..4 {
        if cur.deck_loaded[d] && cur.remote_decks[d] && (!to.deck_loaded[d] || !to.remote_decks[d])
        {
            push(&mut cur, &mut edits, GraphEdit::DisconnectRemoteDeck(d));
        }
        match (cur.deck_loaded[d], to.deck_loaded[d]) {
            (true, false) => {
                push(&mut cur, &mut edits, GraphEdit::UnloadDeck(d));
                continue;
            }
            (false, true) => push(&mut cur, &mut edits, GraphEdit::LoadDeck(d)),
            _ => {}
        }
        if !to.deck_loaded[d] {
            continue;
        }
        while cur.fx_slots[d] < to.fx_slots[d] {
            push(&mut cur, &mut edits, GraphEdit::InsertFxSlot(d));
        }
        while cur.fx_slots[d] > to.fx_slots[d] {
            push(&mut cur, &mut edits, GraphEdit::RemoveFxSlot(d));
        }
        if !cur.remote_decks[d] && to.remote_decks[d] {
            push(&mut cur, &mut edits, GraphEdit::ConnectRemoteDeck(d));
        }
        if to.remote_decks[d] && to.net_depth[d] > 0 && cur.net_depth[d] != to.net_depth[d] {
            push(
                &mut cur,
                &mut edits,
                GraphEdit::SetNetDepth(d, to.net_depth[d]),
            );
        }
    }
    edits
}

/// Oracle bound: the same sim primitives, invoked without going through
/// [`AdmissionControl`] (the PR 9 venue-oracle pattern).
fn oracle_bound_ns(scenario: &Scenario, shape: &GraphShape, costs: &NodeCostModel) -> u64 {
    let (graph, _) = build_shaped_graph(scenario, shape);
    let topo = graph.topology();
    let sim = djstar_sim::SimGraph::from_topology(topo);
    let durations = djstar_sim::DurationModel::Constant(costs.durations_for(topo));
    djstar_sim::session_bound_ns(&sim, &durations, THREADS as u32, 0)
}

/// A `THREADS`-lane engine on `scenario`.
fn engine_on(scenario: &Scenario) -> AudioEngine {
    let engine = AudioEngine::with_aux(scenario.clone(), Strategy::Busy, THREADS, AuxWork::light());
    assert_eq!(engine.threads(), THREADS);
    engine
}

/// Engine verdict for one `(deadline, margin, target)` trial: price the
/// engine with `costs`, arm admission, stage the diff script, drop the
/// staged generation (accept) without committing. Returns the full
/// staging result so callers can inspect the typed rejection.
fn engine_verdict(
    engine: &mut AudioEngine,
    costs: &NodeCostModel,
    deadline_ns: u64,
    margin: f64,
    target: &GraphShape,
) -> Result<(), ReconfigError> {
    engine.recalibrate_admission(costs.clone());
    engine.enable_admission(AdmissionControl::new(deadline_ns, margin));
    let edits = edits_to(engine.shape(), target);
    let verdict = engine.stage_edits(&edits).map(drop);
    engine.disable_admission();
    verdict
}

#[test]
fn stage_edits_agrees_with_sim_oracle_over_shape_family() {
    let scenario = Scenario::light_test();
    let costs = NodeCostModel::uniform(COST_NS);
    let mut engine = engine_on(&scenario);
    let family = shape_family();
    assert!(family.len() >= 8, "walk produced too few distinct shapes");

    let bounds: Vec<u64> = family
        .iter()
        .map(|s| oracle_bound_ns(&scenario, s, &costs))
        .collect();
    // Pivot budget at the median bound, zero margin: roughly half the
    // family must be accepted and half rejected, so agreement cannot be
    // proven vacuously by an always-accept or always-reject controller.
    let mut sorted = bounds.clone();
    sorted.sort_unstable();
    let pivot = sorted[sorted.len() / 2];

    let (mut accepts, mut rejects) = (0usize, 0usize);
    let start_shape = *engine.shape();
    for (shape, &bound) in family.iter().zip(&bounds) {
        let oracle = djstar_sim::admissible(&[bound], pivot, 0.0);
        match engine_verdict(&mut engine, &costs, pivot, 0.0, shape) {
            Ok(()) => {
                assert!(
                    oracle,
                    "engine accepted a shape the oracle rejects (bound {bound})"
                );
                accepts += 1;
            }
            Err(ReconfigError::Unschedulable(u)) => {
                assert!(
                    !oracle,
                    "engine rejected a shape the oracle admits (bound {bound})"
                );
                assert_eq!(u.bound_ns, bound, "rejection must carry the oracle's bound");
                assert_eq!(u.load_ns, 0, "a mode switch brings no load");
                assert_eq!(
                    u.budget_ns, pivot,
                    "zero-margin budget is the deadline itself"
                );
                rejects += 1;
            }
            Err(e) => panic!("admission produced a non-admission error: {e}"),
        }
        assert_eq!(
            engine.shape(),
            &start_shape,
            "a dropped or rejected staging must never move the live shape"
        );
    }
    assert!(
        accepts >= 1 && rejects >= 1,
        "pivot sweep was vacuous: {accepts} accepts, {rejects} rejects"
    );
}

#[test]
fn boundary_budgets_flip_the_verdict_by_one_nanosecond() {
    let scenario = Scenario::light_test();
    let costs = NodeCostModel::uniform(COST_NS);
    let mut engine = engine_on(&scenario);
    for shape in shape_family().into_iter().take(4) {
        let bound = oracle_bound_ns(&scenario, &shape, &costs);
        // Budget exactly at the bound: schedulable by definition.
        assert!(djstar_sim::admissible(&[bound], bound, 0.0));
        assert!(
            engine_verdict(&mut engine, &costs, bound, 0.0, &shape).is_ok(),
            "bound {bound}: engine must accept a budget equal to the bound"
        );
        // One nanosecond under: provably unschedulable, and the typed
        // rejection must say by exactly how much.
        assert!(!djstar_sim::admissible(&[bound], bound - 1, 0.0));
        match engine_verdict(&mut engine, &costs, bound - 1, 0.0, &shape) {
            Err(ReconfigError::Unschedulable(u)) => {
                assert_eq!((u.bound_ns, u.budget_ns), (bound, bound - 1));
                assert_eq!(u.node_count, shape.node_count());
            }
            other => panic!(
                "budget {}: expected Unschedulable, got {other:?}",
                bound - 1
            ),
        }
    }
}

#[test]
fn margin_shrinks_the_budget_like_the_oracle_says() {
    // With a 10% margin the budget is 90% of the deadline; a bound that
    // fits the deadline but not the margined budget must be rejected by
    // both the engine and the oracle.
    let scenario = Scenario::light_test();
    let costs = NodeCostModel::uniform(COST_NS);
    let mut engine = engine_on(&scenario);
    let shape = GraphShape::paper_default();
    let bound = oracle_bound_ns(&scenario, &shape, &costs);
    // Deadline chosen so bound <= deadline but bound > 0.9 * deadline.
    let deadline = bound + bound / 20;
    assert!(djstar_sim::admissible(&[bound], deadline, 0.0));
    assert!(!djstar_sim::admissible(&[bound], deadline, 0.1));
    assert!(engine_verdict(&mut engine, &costs, deadline, 0.0, &shape).is_ok());
    match engine_verdict(&mut engine, &costs, deadline, 0.1, &shape) {
        Err(ReconfigError::Unschedulable(u)) => {
            assert_eq!(u.budget_ns, djstar_sim::cycle_budget_ns(deadline, 0.1));
        }
        other => panic!("margined trial should reject, got {other:?}"),
    }
}

#[test]
fn the_learned_model_prices_each_node_at_the_p50_of_its_window() {
    // An engine learns its node costs in place: cycles 5 ..= 16 fold every
    // node's execution time into its histogram, and the model it prices
    // with afterwards holds each node's p50. The flight recorder sees the
    // same intervals, so on every shape of the family (names unique) each
    // node must be priced at the nearest-rank median of its recorded
    // window, within the histogram's half-bucket error (1/32), floor 1 ns
    // included. PLAN × 2 on the first shape: its re-plan commit after
    // cycle 16 must leave the learned model in place.
    let scenario = Scenario::light_test();
    for (k, shape) in shape_family().into_iter().enumerate() {
        let (strategy, threads) = match k {
            0 => (Strategy::Planned, 2),
            _ => (Strategy::Sequential, 1),
        };
        let mut engine =
            AudioEngine::with_shape(scenario.clone(), shape, strategy, threads, AuxWork::light());
        engine.set_flight_recorder(Some(FlightConfig::default()));
        engine.warmup(16);
        let window = engine.take_flight_window().expect("recorder installed");
        assert_eq!(window.dropped_spans, 0);
        let topo = engine.executor_mut().topology();
        let names: Vec<String> = (0..topo.len())
            .map(|i| topo.name(NodeId(i as u32)).to_string())
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "node names must be unique");
        let mut samples = vec![Vec::new(); names.len()];
        for cycle in 5..=16 {
            let trace = ScheduleTrace::of_cycle(&window, cycle).expect("cycle in window");
            for e in trace.executions() {
                samples[e.node as usize].push(e.duration_ns());
            }
        }
        for (n, mut s) in samples.into_iter().enumerate() {
            let learned = engine.costs().cost(&names[n]);
            assert_eq!(s.len(), 12, "{}: one sample per window cycle", names[n]);
            s.sort_unstable();
            let p50 = s[5].max(1);
            assert!(
                learned.abs_diff(p50) * 32 <= p50.max(32),
                "shape {k} {}: learned {learned} ns, window p50 {p50} ns",
                names[n]
            );
        }
        if strategy == Strategy::Planned {
            assert_eq!(engine.commit_cycles(), &[16], "one re-plan commit");
        }
    }
}
