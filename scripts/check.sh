#!/bin/sh
# Lint and test gate: formatting, clippy and rustdoc with warnings as
# errors (rustdoc catches links to renamed or deleted items), the
# callerless-public-item guard, the one-poll-loop guard (outside
# `impl Backoff`, no non-test code of djstar-core spins or yields), tests,
# and the exhaustive proof that the dsp crate's vector tanhf/sinf equal
# the host libm on all 2^32 inputs (release, about two minutes on two
# cores).
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
echo "== one poll loop: spin_loop()/yield_now() only in impl Backoff =="
# Each file up to its first #[cfg(test)], comments and `impl Backoff`'s
# body skipped.
loops=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '
        /#\[cfg\(test\)\]/ { exit }
        /^impl Backoff \{/ { inb = 1 }
        inb { if (/^\}/) inb = 0; next }
        /^[[:space:]]*\/\// { next }
        /spin_loop\(\)|yield_now\(\)/ { print "  " f ":" FNR ":" $0 }
    ' "$f"
done)
if [ -n "$loops" ]; then
    echo "a wait loop outside Backoff (route it through exec::Backoff):"
    echo "$loops"
    exit 1
fi
echo "== cargo test =="
cargo test -q
echo "== vmath == libm on every f32 (release, #[ignore]d tests) =="
cargo test --release -p djstar-dsp -- --ignored
echo "check.sh: all gates passed"
