#!/bin/sh
# Regenerate every table and figure of the paper (DESIGN.md §4).
# Results land in results/<binary>.txt; telemetry-enabled runs additionally
# leave results/telemetry_*.jsonl, telemetry_report writes the
# aggregated BENCH_telemetry.json baseline at the repo root,
# fig4_plan_executor writes the BENCH_plan.json comparison,
# fig_reconfig writes BENCH_reconfig.json (E13), fig_faults writes
# BENCH_faults.json (E14), fig_flightrec writes BENCH_flightrec.json
# (E15), fig_dsp_simd writes BENCH_dsp.json (E16), fig_net writes
# BENCH_net.json (E17), fig_venue writes BENCH_venue.json (E18), and
# fig_modes writes BENCH_modes.json (E19).
# Takes a few minutes at full scale; override DJSTAR_CYCLES /
# DJSTAR_MEASURE_CYCLES / DJSTAR_TELEMETRY_CYCLES /
# DJSTAR_RECONFIG_CYCLES / DJSTAR_FAULT_CYCLES / DJSTAR_FLIGHTREC_CYCLES /
# DJSTAR_DSP_CYCLES / DJSTAR_NET_CYCLES / DJSTAR_VENUE_CYCLES /
# DJSTAR_MODES_CYCLES to trade fidelity for time.
#
# Usage: ./run_experiments.sh [--check]
#   --check   run the lint/test gate (scripts/check.sh) first
set -eu
if [ "${1:-}" = "--check" ]; then
  sh scripts/check.sh
fi
cargo build --release -p djstar-bench --bins
mkdir -p results
for bin in hotspot_analysis fig4_optimal_schedule fig4_plan_executor \
           table1_response_times fig9_histograms fig11_schedules \
           fig12_busy_sim deadline_misses thread_scaling ablations \
           telemetry_report fig_reconfig fig_faults fig_flightrec \
           fig_dsp_simd fig_net fig_venue fig_modes; do
  if [ ! -x "./target/release/$bin" ]; then
    echo "error: bench binary '$bin' not found or not executable at" \
         "./target/release/$bin — did the release build fail?" >&2
    exit 1
  fi
  echo "=== $bin ==="
  ./target/release/$bin | tee "results/$bin.txt"
done
