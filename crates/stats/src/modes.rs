//! Report plumbing for E19 (`fig_modes`): mode-aware scheduling — warm
//! blueprint-cache switches vs cold staging, and the schedulability
//! admission sweep against the simulator oracle.
//!
//! The experiment runs every strategy through the same switch storm
//! twice: **cold** (no cache — every switch stages its generation from
//! scratch, PR 4's baseline behaviour) and **warm** (the one-edit
//! neighborhood is precompiled off the audio path, so every switch is a
//! take-once cache hit). The headline claim is the stage-latency ratio:
//! a warm switch must be materially (≥ [`ModesReport::min_speedup`]×)
//! faster at the median than a cold one, while staying bit-exact with
//! the cold run and adding no misses beyond host noise.
//!
//! The **admission sweep** walks a family of target shapes — including
//! boundary shapes whose list-schedule bound straddles the margined
//! budget by ±1 ns — and requires the engine's accept/reject verdict to
//! agree with the simulator's [`djstar_sim::admissible`] oracle on every
//! single trial, with both outcomes represented (a sweep that only ever
//! accepts proves nothing).

use crate::json::Json;
use crate::summary::Summary;

/// One strategy's cold-vs-warm switch-storm comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyModes {
    /// Strategy label ("SEQ", "BUSY", …).
    pub strategy: String,
    /// Stage latency (ns) of each cold (cache-less) switch.
    pub cold_stage_ns: Vec<u64>,
    /// Stage latency (ns) of each warm (cache-hit) switch.
    pub warm_stage_ns: Vec<u64>,
    /// Deadline misses over the cold storm run.
    pub cold_misses: u64,
    /// Deadline misses over the warm storm run (same cycle count).
    pub warm_misses: u64,
    /// Folded FNV checksum of every cycle's audio over the cold run.
    pub cold_checksum: u64,
    /// Folded FNV checksum of every cycle's audio over the warm run.
    pub warm_checksum: u64,
    /// Cache hits observed during the warm run.
    pub cache_hits: u64,
    /// Cache misses observed during the warm run.
    pub cache_misses: u64,
    /// Switches committed in each run.
    pub swaps: u64,
    /// Warm-run cycles that met the deadline before the commit cost was
    /// charged and missed after (commit cost material) — same causal
    /// metric as E13.
    pub commit_blown: u64,
    /// Bytes of buffers and node cells held by the cached (hollow)
    /// generations at the end of the warm run.
    pub entry_bytes: u64,
    /// Never-run processors waiting in the parts bin at the end.
    pub parts_in_bin: u64,
    /// Processors a cache hit had to construct because the bin lacked
    /// them — nonzero means a warm switch allocated.
    pub parts_built_on_hit: u64,
    /// Replaced generations still waiting to be freed at the end.
    pub retired_pending: u64,
}

impl StrategyModes {
    fn percentile(samples: &[u64], q: f64) -> f64 {
        let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        Summary::percentile(&as_f64, q).unwrap_or(0.0)
    }

    /// p50 of cold staging time (ns).
    pub fn cold_stage_p50_ns(&self) -> f64 {
        Self::percentile(&self.cold_stage_ns, 50.0)
    }

    /// p99 of cold staging time (ns).
    pub fn cold_stage_p99_ns(&self) -> f64 {
        Self::percentile(&self.cold_stage_ns, 99.0)
    }

    /// p50 of warm staging time (ns).
    pub fn warm_stage_p50_ns(&self) -> f64 {
        Self::percentile(&self.warm_stage_ns, 50.0)
    }

    /// p99 of warm staging time (ns).
    pub fn warm_stage_p99_ns(&self) -> f64 {
        Self::percentile(&self.warm_stage_ns, 99.0)
    }

    /// Median stage-latency ratio, cold over warm — the headline speedup
    /// of serving a switch from the blueprint cache.
    pub fn stage_speedup(&self) -> f64 {
        let warm = self.warm_stage_p50_ns();
        if warm <= 0.0 {
            return 0.0;
        }
        self.cold_stage_p50_ns() / warm
    }

    /// Cached and cold execution produced bit-identical audio.
    pub fn bit_exact(&self) -> bool {
        self.cold_checksum == self.warm_checksum
    }

    /// Every warm switch hit the cache (no fallback to cold staging).
    pub fn all_from_cache(&self) -> bool {
        self.cache_misses == 0 && self.cache_hits >= self.swaps
    }

    /// Misses the warm run added over the cold baseline (saturating, as
    /// in E13 — independent runs wobble both ways).
    pub fn added_misses(&self) -> u64 {
        self.warm_misses.saturating_sub(self.cold_misses)
    }

    /// Host-noise allowance for the warm-vs-cold miss difference, same
    /// construction as E13's storm-vs-static allowance.
    pub fn noise_allowance(&self, switches: usize) -> u64 {
        ((switches / 2) as u64)
            .max((self.cold_misses + self.warm_misses) / 4)
            .max(2)
    }

    fn to_json(&self, switches: usize) -> Json {
        Json::object([
            ("strategy", Json::from(self.strategy.clone())),
            (
                "cold_stage_ns",
                Json::object([
                    ("p50", Json::from(self.cold_stage_p50_ns())),
                    ("p99", Json::from(self.cold_stage_p99_ns())),
                ]),
            ),
            (
                "warm_stage_ns",
                Json::object([
                    ("p50", Json::from(self.warm_stage_p50_ns())),
                    ("p99", Json::from(self.warm_stage_p99_ns())),
                ]),
            ),
            ("stage_speedup", Json::Float(self.stage_speedup())),
            ("cold_misses", Json::from(self.cold_misses)),
            ("warm_misses", Json::from(self.warm_misses)),
            ("added_misses", Json::from(self.added_misses())),
            (
                "noise_allowance",
                Json::from(self.noise_allowance(switches)),
            ),
            ("bit_exact", Json::from(self.bit_exact())),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("swaps", Json::from(self.swaps)),
            ("commit_blown_deadlines", Json::from(self.commit_blown)),
            ("entry_bytes", Json::from(self.entry_bytes)),
            ("parts_in_bin", Json::from(self.parts_in_bin)),
            ("parts_built_on_hit", Json::from(self.parts_built_on_hit)),
            ("retired_pending", Json::from(self.retired_pending)),
        ])
    }
}

/// One shape of the admission sweep: the engine's verdict next to the
/// simulator oracle's.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeAdmissionTrial {
    /// Human label of the target shape ("decks=4 fx=8/8/8/8", …).
    pub label: String,
    /// List-schedule bound of the shape (ns).
    pub bound_ns: u64,
    /// Margined cycle budget it was admitted against (ns).
    pub budget_ns: u64,
    /// Did the engine's `stage_edits` admission accept it?
    pub accepted: bool,
    /// Does the simulator's `admissible` oracle accept it?
    pub oracle_admits: bool,
}

impl ModeAdmissionTrial {
    /// Engine and oracle agree on this shape.
    pub fn agrees(&self) -> bool {
        self.accepted == self.oracle_admits
    }

    /// The bound sits within ±1 ns of the budget — the deliberately
    /// constructed boundary cases.
    pub fn is_boundary(&self) -> bool {
        self.bound_ns.abs_diff(self.budget_ns) <= 1
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("label", Json::from(self.label.clone())),
            ("bound_ns", Json::from(self.bound_ns)),
            ("budget_ns", Json::from(self.budget_ns)),
            ("accepted", Json::from(self.accepted)),
            ("oracle_admits", Json::from(self.oracle_admits)),
            ("agrees", Json::from(self.agrees())),
            ("boundary", Json::from(self.is_boundary())),
        ])
    }
}

/// Aggregated E19 results: per-strategy cache storms plus the admission
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ModesReport {
    /// Worker threads of the parallel strategies.
    pub threads: usize,
    /// Measured cycles per storm run.
    pub cycles: usize,
    /// Switches in each storm.
    pub switches: usize,
    /// Sound-card deadline (ns).
    pub deadline_ns: u64,
    /// The stage-speedup acceptance floor (5.0 for the full-scale gate).
    pub min_speedup: f64,
    /// Per-strategy cold-vs-warm storms.
    pub strategies: Vec<StrategyModes>,
    /// The admission sweep, one trial per target shape.
    pub admission: Vec<ModeAdmissionTrial>,
}

impl ModesReport {
    /// Acceptance: every strategy's median warm switch beats its median
    /// cold switch by at least [`min_speedup`](Self::min_speedup)×.
    pub fn cache_speedup_ok(&self) -> bool {
        self.strategies
            .iter()
            .all(|s| s.stage_speedup() >= self.min_speedup)
    }

    /// Acceptance: warm and cold runs produced bit-identical audio for
    /// every strategy.
    pub fn bit_exact(&self) -> bool {
        self.strategies.iter().all(|s| s.bit_exact())
    }

    /// Acceptance: every warm switch was served from the cache.
    pub fn all_from_cache(&self) -> bool {
        self.strategies.iter().all(|s| s.all_from_cache())
    }

    /// Acceptance: the warm storm added no misses beyond host noise.
    pub fn warm_within_noise(&self) -> bool {
        self.strategies
            .iter()
            .all(|s| s.added_misses() <= s.noise_allowance(self.switches))
    }

    /// Acceptance: no warm-run cycle missed *because of* a commit.
    pub fn no_commit_blown(&self) -> bool {
        self.strategies.iter().all(|s| s.commit_blown == 0)
    }

    /// Acceptance: every strategy committed every scheduled switch in
    /// both runs.
    pub fn all_swaps_committed(&self) -> bool {
        self.strategies
            .iter()
            .all(|s| s.swaps == self.switches as u64)
    }

    /// Acceptance: engine admission and the sim oracle agree on every
    /// swept shape — including the ±1 ns boundary shapes.
    pub fn admission_agrees(&self) -> bool {
        self.admission.iter().all(|t| t.agrees())
    }

    /// Acceptance: the sweep exercised both verdicts (at least one
    /// accept, one reject and one boundary shape) — agreement over an
    /// all-accept sweep would be vacuous.
    pub fn admission_non_vacuous(&self) -> bool {
        self.admission.iter().any(|t| t.accepted)
            && self.admission.iter().any(|t| !t.accepted)
            && self.admission.iter().any(|t| t.is_boundary())
    }

    /// The `BENCH_modes.json` tree.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("bench", Json::from("modes")),
            ("threads", Json::from(self.threads)),
            ("cycles", Json::from(self.cycles)),
            ("switches", Json::from(self.switches)),
            ("deadline_ns", Json::from(self.deadline_ns)),
            ("min_speedup", Json::Float(self.min_speedup)),
            (
                "strategies",
                Json::Array(
                    self.strategies
                        .iter()
                        .map(|s| s.to_json(self.switches))
                        .collect(),
                ),
            ),
            (
                "admission",
                Json::Array(self.admission.iter().map(|t| t.to_json()).collect()),
            ),
            (
                "checks",
                Json::object([
                    ("cache_speedup_ok", Json::from(self.cache_speedup_ok())),
                    ("bit_exact", Json::from(self.bit_exact())),
                    ("all_from_cache", Json::from(self.all_from_cache())),
                    ("warm_within_noise", Json::from(self.warm_within_noise())),
                    ("no_commit_blown", Json::from(self.no_commit_blown())),
                    (
                        "all_swaps_committed",
                        Json::from(self.all_swaps_committed()),
                    ),
                    ("admission_agrees", Json::from(self.admission_agrees())),
                    (
                        "admission_non_vacuous",
                        Json::from(self.admission_non_vacuous()),
                    ),
                ]),
            ),
        ])
    }

    /// Human-readable summary table for the binary's stdout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} switches over {} cycles, {} threads, deadline {:.1} ms, speedup floor {:.0}x\n",
            self.switches,
            self.cycles,
            self.threads,
            self.deadline_ns as f64 / 1e6,
            self.min_speedup,
        ));
        out.push_str(
            "strategy  cold p50/p99 (us)  warm p50/p99 (us)  speedup  hits  miss  exact  added\n",
        );
        for s in &self.strategies {
            out.push_str(&format!(
                "{:<8} {:>8.1} /{:>8.1} {:>8.1} /{:>8.1} {:>8.1}x {:>5} {:>5} {:>6} {:>6}\n",
                s.strategy,
                s.cold_stage_p50_ns() / 1e3,
                s.cold_stage_p99_ns() / 1e3,
                s.warm_stage_p50_ns() / 1e3,
                s.warm_stage_p99_ns() / 1e3,
                s.stage_speedup(),
                s.cache_hits,
                s.cache_misses,
                s.bit_exact(),
                s.added_misses(),
            ));
        }
        out.push_str("strategy  cached KiB  bin parts  built on hit  retired pending\n");
        for s in &self.strategies {
            out.push_str(&format!(
                "{:<8} {:>11.1} {:>10} {:>13} {:>16}\n",
                s.strategy,
                s.entry_bytes as f64 / 1024.0,
                s.parts_in_bin,
                s.parts_built_on_hit,
                s.retired_pending,
            ));
        }
        let agreed = self.admission.iter().filter(|t| t.agrees()).count();
        let accepted = self.admission.iter().filter(|t| t.accepted).count();
        let boundary = self.admission.iter().filter(|t| t.is_boundary()).count();
        out.push_str(&format!(
            "admission: {} shapes, {} accepted, {} boundary, {}/{} agree with sim oracle\n",
            self.admission.len(),
            accepted,
            boundary,
            agreed,
            self.admission.len(),
        ));
        out.push_str(&format!(
            "checks: cache-speedup-ok={} bit-exact={} all-from-cache={} warm-within-noise={} no-commit-blown={} all-swaps-committed={} admission-agrees={} admission-non-vacuous={}\n",
            self.cache_speedup_ok(),
            self.bit_exact(),
            self.all_from_cache(),
            self.warm_within_noise(),
            self.no_commit_blown(),
            self.all_swaps_committed(),
            self.admission_agrees(),
            self.admission_non_vacuous(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strat(label: &str) -> StrategyModes {
        StrategyModes {
            strategy: label.to_string(),
            cold_stage_ns: vec![900_000, 1_000_000, 1_100_000],
            warm_stage_ns: vec![90_000, 100_000, 110_000],
            cold_misses: 1,
            warm_misses: 1,
            cold_checksum: 0xabcd,
            warm_checksum: 0xabcd,
            cache_hits: 3,
            cache_misses: 0,
            swaps: 3,
            commit_blown: 0,
            entry_bytes: 2_000_000,
            parts_in_bin: 16,
            parts_built_on_hit: 0,
            retired_pending: 1,
        }
    }

    fn trial(label: &str, bound: u64, budget: u64) -> ModeAdmissionTrial {
        ModeAdmissionTrial {
            label: label.to_string(),
            bound_ns: bound,
            budget_ns: budget,
            accepted: bound <= budget,
            oracle_admits: bound <= budget,
        }
    }

    fn report() -> ModesReport {
        ModesReport {
            threads: 3,
            cycles: 1_000,
            switches: 3,
            deadline_ns: 2_900_000,
            min_speedup: 5.0,
            strategies: vec![strat("SEQ"), strat("WS")],
            admission: vec![
                trial("paper", 1_000, 2_000),
                trial("boundary-in", 2_000, 2_000),
                trial("boundary-out", 2_001, 2_000),
                trial("overload", 9_000, 2_000),
            ],
        }
    }

    #[test]
    fn speedup_is_the_p50_ratio() {
        let s = strat("SEQ");
        assert!((s.stage_speedup() - 10.0).abs() < 0.5);
        let empty = StrategyModes {
            warm_stage_ns: vec![],
            ..s
        };
        assert_eq!(empty.stage_speedup(), 0.0);
    }

    #[test]
    fn checks_pass_and_fail() {
        let good = report();
        assert!(good.cache_speedup_ok());
        assert!(good.bit_exact());
        assert!(good.all_from_cache());
        assert!(good.warm_within_noise());
        assert!(good.no_commit_blown());
        assert!(good.all_swaps_committed());

        let mut slow = report();
        slow.strategies[0].warm_stage_ns = slow.strategies[0].cold_stage_ns.clone();
        assert!(!slow.cache_speedup_ok());

        let mut diverged = report();
        diverged.strategies[1].warm_checksum ^= 1;
        assert!(!diverged.bit_exact());

        let mut cold_path = report();
        cold_path.strategies[0].cache_misses = 1;
        assert!(!cold_path.all_from_cache());

        let mut missed = report();
        missed.strategies[0].swaps = 2;
        assert!(!missed.all_swaps_committed());
        missed.strategies[0].commit_blown = 1;
        assert!(!missed.no_commit_blown());
    }

    #[test]
    fn admission_gates_need_agreement_and_both_verdicts() {
        let good = report();
        assert!(good.admission_agrees());
        assert!(good.admission_non_vacuous());

        let mut disagree = report();
        disagree.admission[1].accepted = false; // oracle still admits
        assert!(!disagree.admission_agrees());

        let mut vacuous = report();
        vacuous.admission.retain(|t| t.accepted);
        assert!(vacuous.admission_agrees());
        assert!(!vacuous.admission_non_vacuous());
    }

    #[test]
    fn boundary_trials_straddle_the_budget() {
        let r = report();
        assert!(!r.admission[0].is_boundary());
        assert!(r.admission[1].is_boundary() && r.admission[1].accepted);
        assert!(r.admission[2].is_boundary() && !r.admission[2].accepted);
    }

    #[test]
    fn json_has_all_sections() {
        let j = report().to_json().render();
        assert!(j.starts_with("{\"bench\":\"modes\""));
        assert!(j.contains("\"strategies\":["));
        assert!(j.contains("\"stage_speedup\":"));
        assert!(j.contains("\"entry_bytes\":2000000"));
        assert!(j.contains("\"parts_built_on_hit\":0"));
        assert!(j.contains("\"admission\":["));
        assert!(j.contains("\"cache_speedup_ok\":true"));
        assert!(j.contains("\"bit_exact\":true"));
        assert!(j.contains("\"admission_agrees\":true"));
        assert!(j.contains("\"admission_non_vacuous\":true"));
        let text = report().render();
        assert!(text.contains("SEQ"));
        assert!(text.contains("agree with sim oracle"));
        assert!(text.contains("built on hit"));
        assert!(text.contains("cache-speedup-ok=true"));
    }
}
