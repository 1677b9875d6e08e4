#!/bin/sh
# fmt + clippy -D warnings + tests for the benchmark package. The root
# scripts/check.sh cannot see this package (it is its own workspace).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
