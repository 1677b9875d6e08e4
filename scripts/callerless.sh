#!/bin/sh
# Callerless public items: a `pub fn` (also `const`/`unsafe`), `pub const`,
# `pub static`, `pub struct`, `pub enum`, `pub type` or `pub trait` in any
# crate's src/ that no other source file names is dead API, unless
# scripts/callerless-allowlist.txt names it with a reason. A type other
# files use only through a value (a return type, a field) is not named
# there: narrow it, or allowlist it saying whose value it is.
# A `pub use` re-export or a comment is not a caller. An allowlist entry
# that has gained a caller or no longer exists fails too.
# Run from the repository root: `sh scripts/callerless.sh`.
set -e
allow=scripts/callerless-allowlist.txt
corpus=$(mktemp -d)
trap 'rm -rf "$corpus"' EXIT

# Every source file, stripped of comment lines and `pub use` statements
# (multi-line ones included), mirrored under $corpus.
find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | while read -r f; do
    mkdir -p "$corpus/$(dirname "$f")"
    awk '
        inuse { if (index($0, ";")) inuse = 0; next }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*pub(\([a-z:]+\))? use / { if (!index($0, ";")) inuse = 1; next }
        { print }
    ' "$f" >"$corpus/$f"
done

flagged=""
bad=""
for f in $(find crates/*/src -name '*.rs' | sort); do
    names=$(sed -n \
        -e 's/^ *pub \(const \|unsafe \|const unsafe \)\{0,1\}fn \([A-Za-z0-9_]*\).*/\2/p' \
        -e 's/^ *pub \(const\|static\) \([A-Za-z0-9_]*\) *:.*/\2/p' \
        -e 's/^ *pub \(struct\|enum\|type\|trait\) \([A-Za-z0-9_]*\).*/\2/p' "$f" | sort -u)
    for name in $names; do
        grep -rlw "$name" "$corpus" | grep -qvx "$corpus/$f" && continue
        flagged="$flagged $name"
        grep -qE "^$name[[:space:]]+[^[:space:]]" "$allow" && continue
        bad="$bad $f:$name"
    done
done
for name in $(sed -n 's/^\([A-Za-z0-9_][A-Za-z0-9_]*\)[[:space:]].*/\1/p' "$allow"); do
    case " $flagged " in
    *" $name "*) ;;
    *) bad="$bad stale-allowlist-entry:$name" ;;
    esac
done
if [ -n "$bad" ]; then
    echo "callerless public items (call, narrow, delete or allowlist them):"
    for b in $bad; do echo "  $b"; done
    exit 1
fi
echo "callerless: every public item has a caller or an allowlist reason"
