#!/bin/sh
# Lint and test gate: formatting, clippy and rustdoc with warnings as
# errors (rustdoc catches links to renamed or deleted items), tests.
# Run standalone or via `./run_experiments.sh --check`.
set -e
echo "== cargo fmt --check =="
cargo fmt --all -- --check
echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
echo "== cargo test =="
cargo test -q
echo "check.sh: all gates passed"
