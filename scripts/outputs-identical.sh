#!/usr/bin/env bash
# outputs-identical: checks that a change leaves every command-line
# output byte-identical to a base revision.
#
#   bash scripts/outputs-identical.sh BASE-REV [CHANGE-REV]
#   bash scripts/outputs-identical.sh -manifest
#
# BASE-REV is exported with `git archive` into a temporary directory and
# built there. The change side is the working tree, uncommitted changes
# included, or CHANGE-REV exported the same way. Each side builds
# iotables, iobench, iosim, iotrace and every program under examples/
# from its own sources and writes, into a directory of its own:
#
#   iotables -j 1, iotables -j 2 and iotables -j 2 -summary, and the
#   per-artifact files of iotables -j 2 -out DIR (one DIR/<id>.txt each);
#   iobench -sweep ID for every sweep id its iobench lists;
#   iosim -advise -trace for the seven canonical runs (escat ethylene
#   A, B and C, escat co C, prism A, B and C): the printed report and
#   the SDDF trace file;
#   every iotrace subcommand on the prism C and escat ethylene C traces
#   (cdf and timeline also with -op write and -op seek; regions with
#   -file prism/checkpoint and escat/quad.0);
#   the output of each program under examples/.
#
# The script then compares the two directories with `diff -r` and exits
# nonzero on any difference, printing the first lines of the diff. A
# refactor that must not move a single output byte (every golden digest
# stays put, and so does every table) passes this check.
#
# With -manifest the script builds and runs the working tree only and
# prints one line per output instead: its sha256, its size in bytes and
# its name relative to the output directory, sorted by name. That list
# is checked in as testdata/outputs.sha256, and `make outputs-manifest`
# compares a fresh one against it; a change that means to move an
# output rewrites the file with this mode.
#
# Run it from the repository root. It needs no network: both sides build
# with the module proxy off. Both sides together take a few minutes on
# two cores.
set -euo pipefail

usage() {
    sed -n '5,6p' "$0" | sed 's/^# *//' >&2
    exit 2
}
[ $# -eq 1 ] || [ $# -eq 2 ] || usage
manifest=
if [ "$1" = -manifest ]; then
    [ $# -eq 1 ] || usage
    manifest=1
fi
root=$(pwd)
[ -f "$root/scripts/outputs-identical.sh" ] || { echo "outputs-identical: run from the repository root" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/outputs-identical.XXXXXX")
cleanup() {
    chmod -R u+w "$tmp" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
# export REV DIR checks out REV's files into DIR.
export_rev() {
    mkdir -p "$2"
    git archive "$1" | tar -x -C "$2"
}

# outputs SIDE SRC builds SRC's commands and writes their outputs under
# $tmp/out/SIDE.
outputs() {
    local side=$1 src=$2 bin=$tmp/bin/$1 out=$tmp/out/$1 ids id r app dataset version t file c sub flags ex
    mkdir -p "$bin/examples" "$out"
    echo "outputs-identical: building and running $side" >&2
    (cd "$src" && GOPROXY=off go build -o "$bin/" ./cmd/iotables ./cmd/iobench ./cmd/iosim ./cmd/iotrace &&
        GOPROXY=off go build -o "$bin/examples/" ./examples/...)
    "$bin/iotables" -j 1 >"$out/iotables-j1.txt"
    "$bin/iotables" -j 2 >"$out/iotables-j2.txt"
    "$bin/iotables" -j 2 -summary >"$out/iotables-summary.txt"
    "$bin/iotables" -j 2 -out "$out/iotables-out" >/dev/null
    ids=$("$bin/iobench" -h 2>&1 | sed -n 's/.*sweep dimension: \(.*\) (default.*/\1/p' | tr -d ,)
    [ -n "$ids" ] || { echo "outputs-identical: $side iobench lists no sweep ids" >&2; exit 1; }
    for id in $ids; do
        "$bin/iobench" -sweep "$id" >"$out/iobench-$id.txt"
    done
    # iosim prints the trace path it wrote, so every side writes its
    # traces under the same relative names.
    for r in "escat ethylene A" "escat ethylene B" "escat ethylene C" "escat co C" \
        "prism - A" "prism - B" "prism - C"; do
        read -r app dataset version <<<"$r"
        [ "$dataset" = - ] && dataset=
        (cd "$out" && "$bin/iosim" -app "$app" -dataset "$dataset" -version "$version" \
            -advise -trace "iosim-$app-$dataset$version.sddf" >"iosim-$app-$dataset$version.txt")
    done
    for r in "prism-C prism/checkpoint" "escat-ethyleneC escat/quad.0"; do
        read -r t file <<<"$r"
        for c in summary cdf "cdf -op write" timeline "timeline -op seek" windows \
            "regions -file $file" taxonomy advise replay csv; do
            read -r sub flags <<<"$c"
            # shellcheck disable=SC2086 # flags splits into words
            "$bin/iotrace" "$sub" "$out/iosim-$t.sddf" $flags >"$out/iotrace-$t-${c//[ \/]/_}.txt"
        done
    done
    for ex in "$bin"/examples/*; do
        "$ex" >"$out/example-${ex##*/}.txt"
    done
}

if [ -n "$manifest" ]; then
    outputs change "$root"
    cd "$tmp/out/change"
    find . -type f | sed 's|^\./||' | LC_ALL=C sort | while IFS= read -r f; do
        printf '%s %s %s\n' "$(sha256sum <"$f" | cut -d' ' -f1)" "$(wc -c <"$f" | tr -d ' ')" "$f"
    done
    exit 0
fi

rev=$(git rev-parse --short "$1^{commit}")
export_rev "$rev" "$tmp/src/base"
change=$root
if [ $# -eq 2 ]; then
    change=$tmp/src/change
    export_rev "$(git rev-parse --short "$2^{commit}")" "$change"
fi
outputs base "$tmp/src/base"
outputs change "$change"

if diff -r "$tmp/out/base" "$tmp/out/change" >"$tmp/diff"; then
    echo "outputs-identical: $(find "$tmp/out/base" -type f | wc -l) outputs byte-identical to $rev" >&2
else
    head -n 100 "$tmp/diff"
    echo "outputs-identical: outputs differ from $rev" >&2
    exit 1
fi
