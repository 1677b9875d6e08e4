#!/bin/sh
# Callerless public items: a `pub fn` (also `const`/`unsafe`), `pub const`,
# `pub static`, `pub struct`, `pub enum`, `pub type` or `pub trait` in any
# crate's src/ that no other source file names is dead API, unless
# scripts/callerless-allowlist.txt names it with a reason.
# A type other files use only through a value counts as called when an
# item of its own crate that is called names it: a `pub fn` signature, a
# `pub type` alias or a `pub` field of a `pub struct` (followed to a fixed
# point, so a field type of a called return type is called too).
# A `pub use` re-export or a comment is not a caller, and neither is a
# file that declares an item of the same name itself (a `const LANES` of
# its own), unless it names the item through a path (`simd::LANES`) or a
# `use`. An allowlist entry that has gained a caller or no longer exists
# fails too.
# Run from the repository root: `sh scripts/callerless.sh`.
set -e
allow=scripts/callerless-allowlist.txt
corpus=$(mktemp -d)
trap 'rm -rf "$corpus"' EXIT

# Every source file, stripped of comment lines and `pub use` statements
# (multi-line ones included), mirrored under $corpus/src.
find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | while read -r f; do
    mkdir -p "$corpus/src/$(dirname "$f")"
    awk '
        inuse { if (index($0, ";")) inuse = 0; next }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*pub(\([a-z:]+\))? use / { if (!index($0, ";")) inuse = 1; next }
        { print }
    ' "$f" >"$corpus/src/$f"
done

# Whether file $1, which declares an item named $2 itself, names another
# item $2 through a path or a `use` statement (multi-line ones included).
via_path_or_use() {
    grep -qE "::$2([^A-Za-z0-9_]|\$)" "$1" && return 0
    awk -v name="$2" '
        /^[[:space:]]*use / { inuse = 1; text = "" }
        inuse {
            text = text " " $0
            if (!index($0, ";")) next
            inuse = 0
            if (match(text, "(^|[^A-Za-z0-9_])" name "([^A-Za-z0-9_]|$)")) found = 1
        }
        END { exit !found }
    ' "$1"
}

# awk rules both readers below start with: a `#[cfg(test)]` module ends
# what is read of a file, and a `#[cfg(test)]` item — its attributes, its
# signature and its body, up to the `;` or the `}` that closes it — is
# skipped.
cfg_test='
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z:]+\))? )?mod / { exit }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tested = 1; next }
    tested && /^[[:space:]]*(#\[|\/\/)/ { next }
    tested && /^[[:space:]]*(pub(\([a-z:]+\))? )?mod / { exit }
    tested { tested = 0; skip = 1; depth = 0; opened = 0 }
    skip {
        if (index($0, "{")) opened = 1
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (opened ? depth <= 0 : index($0, ";")) skip = 0
        next
    }
'

# The public items of file $1, one `kind name` line each (kind fn or
# type).
items_of() {
    awk "$cfg_test"'
        function ident(s) { sub(/[^A-Za-z0-9_].*/, "", s); return s }
        /^ *pub (const |unsafe |const unsafe )?fn [A-Za-z0-9_]/ {
            sub(/^ *pub (const |unsafe |const unsafe )?fn /, ""); print "fn " ident($0); next
        }
        /^ *pub (const|static) [A-Za-z0-9_]* *:/ {
            sub(/^ *pub (const|static) /, ""); print "fn " ident($0); next
        }
        /^ *pub (struct|enum|type|trait) [A-Za-z0-9_]/ {
            sub(/^ *pub (struct|enum|type|trait) /, ""); print "type " ident($0)
        }
    ' "$1" | sort -u
}

# The places file $2 of crate $1 names a type, one `crate owner text` line
# each: a `pub fn` signature up to its body, a `pub type` alias'
# right-hand side, a `pub struct`'s `pub` field.
places_of() {
    awk -v crate="$1" "$cfg_test"'
        function ident(s) { sub(/[^A-Za-z0-9_].*/, "", s); return s }
        /^[[:space:]]*\/\// { next }
        sig { text = text " " $0; if ($0 ~ /[{;]/) { print crate "\t" owner "\t" text; sig = 0 } next }
        /^ *pub (const |unsafe |const unsafe )?fn [A-Za-z0-9_]/ {
            owner = $0; sub(/^ *pub (const |unsafe |const unsafe )?fn /, "", owner); owner = ident(owner)
            text = $0
            if ($0 ~ /[{;]/) print crate "\t" owner "\t" text; else sig = 1
            next
        }
        /^ *pub type [A-Za-z0-9_]/ {
            owner = $0; sub(/^ *pub type /, "", owner); owner = ident(owner)
            text = $0; sub(/^[^=]*=/, "", text)
            print crate "\t" owner "\t" text
            next
        }
        /^ *pub struct [A-Za-z0-9_]+.*\{ *$/ { st = $0; sub(/^ *pub struct /, "", st); st = ident(st); next }
        /struct .*\{ *$/ { st = ""; next }
        /^\}/ { st = ""; next }
        st != "" && /^ *pub [a-z_][a-z0-9_]* *:/ { print crate "\t" st "\t" $0 }
    ' "$2"
}

# The readers on a fixture: an item behind `#[cfg(test)]` is skipped, the
# `pub fn` after it is read, signature and all, and the `#[cfg(test)]`
# module ends the file.
cat >"$corpus/fixture.rs" <<'FIXTURE'
#[cfg(test)]
#[allow(dead_code)]
pub fn only_in_tests(x: Hidden) -> Hidden {
    x
}

pub fn read_after(
    x: Shown,
) -> Shown {
    x
}

#[cfg(test)]
mod tests {
    pub fn in_test_module() {}
}
FIXTURE
fixture_items=$(items_of "$corpus/fixture.rs")
fixture_places=$(places_of fixture "$corpus/fixture.rs")
if [ "$fixture_items" != "fn read_after" ] ||
    ! echo "$fixture_places" | grep -q "read_after.*x: Shown, ) -> Shown {" ||
    echo "$fixture_places" | grep -q Hidden; then
    echo "callerless.sh misreads #[cfg(test)]: items '$fixture_items', places '$fixture_places'"
    exit 1
fi

# One line per public item: crate, name, kind (fn or type), whether another
# file names it (1) or not (0), file. And one line per place an item names
# a type. Test modules and `#[cfg(test)]` items are not read.
for f in $(find crates/*/src -name '*.rs' | sort); do
    crate=${f%%/src/*}
    items_of "$f" | while read -r kind name; do
            named=0
            own="(^|[^A-Za-z0-9_])(fn|const|static|struct|enum|type|trait|mod)[[:space:]]+$name([^A-Za-z0-9_]|\$)"
            for g in $(grep -rlw "$name" "$corpus/src" | grep -vx "$corpus/src/$f"); do
                if grep -qE "$own" "$g" && ! via_path_or_use "$g" "$name"; then
                    continue
                fi
                named=1
                break
            done
            printf '%s\t%s\t%s\t%s\t%s\n' "$crate" "$name" "$kind" "$named" "$f"
        done >>"$corpus/items"
    places_of "$crate" "$f" >>"$corpus/places"
done

# Called: named by another file, or a type a called item of its crate
# names. Print every public item that is not called.
flagged=$(awk -F '\t' '
    function names(text, name) {
        return match(text, "(^|[^A-Za-z0-9_])" name "([^A-Za-z0-9_]|$)")
    }
    FILENAME == ARGV[1] {
        n++; crate[n] = $1; name[n] = $2; kind[n] = $3; file[n] = $5
        if ($4) called[$1 SUBSEP $2] = 1
        next
    }
    { p++; pcrate[p] = $1; powner[p] = $2; ptext[p] = $3 }
    END {
        do {
            grew = 0
            for (i = 1; i <= n; i++) {
                key = crate[i] SUBSEP name[i]
                if (kind[i] != "type" || key in called) continue
                for (j = 1; j <= p; j++) {
                    if (pcrate[j] != crate[i] || powner[j] == name[i]) continue
                    if (!((pcrate[j] SUBSEP powner[j]) in called)) continue
                    if (names(ptext[j], name[i])) { called[key] = 1; grew = 1; break }
                }
            }
        } while (grew)
        for (i = 1; i <= n; i++)
            if (!((crate[i] SUBSEP name[i]) in called)) print file[i] ":" name[i]
    }
' "$corpus/items" "$corpus/places" | tr '\n' ' ')

bad=""
for item in $flagged; do
    grep -qE "^${item#*:}[[:space:]]+[^[:space:]]" "$allow" && continue
    bad="$bad $item"
done
for name in $(sed -n 's/^\([A-Za-z0-9_][A-Za-z0-9_]*\)[[:space:]].*/\1/p' "$allow"); do
    case " $flagged " in
    *":$name "*) ;;
    *) bad="$bad stale-allowlist-entry:$name" ;;
    esac
done
if [ -n "$bad" ]; then
    echo "callerless public items (call, narrow, delete or allowlist them):"
    for b in $bad; do echo "  $b"; done
    exit 1
fi
echo "callerless: every public item has a caller or an allowlist reason"
