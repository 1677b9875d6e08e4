#!/bin/sh
# Regenerate every table and figure of the paper (DESIGN.md §4, E1-E10)
# plus the ablations. Results land in results/<binary>.txt; the binaries
# that capture real-engine telemetry additionally leave
# results/telemetry_*.jsonl next to their figures.
# Takes a few minutes at full scale; override DJSTAR_CYCLES /
# DJSTAR_MEASURE_CYCLES to trade fidelity for time.
# Performance claims are measured with benchmark/ instead (README.md).
# A binary that fails stops the script with a nonzero status.
#
# Usage: ./run_experiments.sh [--check]
#   --check   run the lint/test gate (scripts/check.sh) first
set -eu
if [ "${1:-}" = "--check" ]; then
  sh scripts/check.sh
fi
cargo build --release -p djstar-bench --bins
mkdir -p results
failed=$(mktemp)
trap 'rm -f "$failed"' EXIT
for bin in hotspot_analysis fig4_optimal_schedule table1_response_times \
           fig9_histograms fig11_schedules fig12_busy_sim deadline_misses \
           thread_scaling ablations; do
  if [ ! -x "./target/release/$bin" ]; then
    echo "error: bench binary '$bin' not found or not executable at" \
         "./target/release/$bin — did the release build fail?" >&2
    exit 1
  fi
  echo "=== $bin ==="
  # A pipeline's status is its last command's (tee's), so the binary's
  # own failure is carried out through a status file.
  rm -f "$failed"
  { "./target/release/$bin" || echo $? > "$failed"; } | tee "results/$bin.txt"
  if [ -e "$failed" ]; then
    echo "error: '$bin' exited with status $(cat "$failed")" >&2
    exit 1
  fi
done
