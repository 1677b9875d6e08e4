#!/bin/sh
# Lint and test gate: formatting, clippy and rustdoc with warnings as
# errors (rustdoc catches links to renamed or deleted items), the
# callerless-public-item guard, tests, and the exhaustive proof that the
# dsp crate's vector tanhf/sinf equal the host libm on all 2^32 inputs
# (release, about two minutes on two cores).
# Run standalone or via `./run_experiments.sh --check`.
set -e
echo "== cargo fmt --check =="
cargo fmt --all -- --check
echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
echo "== callerless public items (scripts/callerless.sh) =="
sh scripts/callerless.sh
echo "== cargo test =="
cargo test -q
echo "== vmath == libm on every f32 (release, #[ignore]d tests) =="
cargo test --release -p djstar-dsp -- --ignored
echo "check.sh: all gates passed"
