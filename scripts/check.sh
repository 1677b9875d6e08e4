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
echo "== callerless public functions in crates/engine =="
# A `pub fn` of the engine that no other source file names is dead API,
# unless scripts/callerless-allowlist.txt names it with a reason.
allow=scripts/callerless-allowlist.txt
bad=""
callers() { grep -rlw --include='*.rs' "$1" crates tests examples benchmark/src | grep -vx "$2"; }
for f in crates/engine/src/*.rs; do
    for name in $(sed -n 's/^ *pub fn \([a-z0-9_]*\).*/\1/p' "$f" | sort -u); do
        callers "$name" "$f" >/dev/null && continue
        grep -qE "^$name[[:space:]]+[^[:space:]]" "$allow" && continue
        bad="$bad $f:$name"
    done
done
for name in $(sed -n 's/^\([a-z0-9_][a-z0-9_]*\)[[:space:]].*/\1/p' "$allow"); do
    f=$(grep -lE "^ *pub fn $name\b" crates/engine/src/*.rs | head -n 1)
    if [ -z "$f" ] || callers "$name" "$f" >/dev/null; then
        bad="$bad stale-allowlist-entry:$name"
    fi
done
if [ -n "$bad" ]; then
    echo "callerless public functions (call, narrow, delete or allowlist them):$bad"
    exit 1
fi
echo "== cargo test =="
cargo test -q
echo "check.sh: all gates passed"
