#!/usr/bin/env bash
# bench-pairs: compares the working tree against a base revision on the
# repository benchmark (bench/run.sh), in pairs run back to back.
#
#   bash scripts/bench-pairs.sh [-n PAIRS] [-s FIRST_SEED] [-w "WORKLOAD ..."] [-o FILE] BASE-REV [CHANGE-REV]
#
# BASE-REV is exported with `git archive` into a temporary directory and
# built there. The change side is the working tree, uncommitted changes
# included, built in place, or CHANGE-REV exported the same way. Each
# side builds and runs under its own .bench_build. For
# each workload the script runs PAIRS pairs (default 10) in ABBA order:
# odd pairs run the base first, even pairs the change. Pair i runs both
# sides on seed FIRST_SEED+i-1 (default first seed 1000), so every pair
# has a fresh seed that its two sides share. Each run appends one tagged
# line to FILE (default .bench_build/pairs-<rev>.jsonl):
#
#   {"workload":"paper-suite","pair":3,"seed":1002,"side":"base","result":{...}}
#
# where result is the last line of standard output of bench/run.sh,
# run at its defaults but for the workload and seed. Each run's
# standard error (build output, timing lines) goes to FILE.err. Fold the
# lines with
#
#   go run ./cmd/benchjson -pairs FILE      # add -md for a Markdown table
#
# Run it from the repository root, one campaign at a time, on an
# otherwise idle host. It needs no network: bench/run.sh builds each side
# from its own sources with the module proxy off.
set -euo pipefail

pairs=10
first=1000
workloads="simulate-cold tier-sweep result-cache paper-suite"
out=""
usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}
while getopts "n:s:w:o:" opt; do
    case $opt in
    n) pairs=$OPTARG ;;
    s) first=$OPTARG ;;
    w) workloads=$OPTARG ;;
    o) out=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || [ $# -eq 2 ] || usage
rev=$(git rev-parse --short "$1^{commit}")

root=$(pwd)
[ -f "$root/bench/run.sh" ] || { echo "bench-pairs: run from the repository root" >&2; exit 2; }
out=${out:-$root/.bench_build/pairs-$rev.jsonl}
mkdir -p "$(dirname "$out")"
: >"$out"
: >"$out.err"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
cleanup() {
    chmod -R u+w "$tmp" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
# export REV DIR checks out REV's files into DIR.
export_rev() {
    mkdir -p "$2"
    git archive "$1" | tar -x -C "$2"
    [ -f "$2/bench/run.sh" ] || { echo "bench-pairs: $1 has no bench/run.sh" >&2; exit 2; }
}
base=$tmp/base
export_rev "$rev" "$base"
change=$root
if [ $# -eq 2 ]; then
    change=$tmp/change
    export_rev "$(git rev-parse --short "$2^{commit}")" "$change"
fi

# run SIDE DIR WORKLOAD PAIR SEED appends one tagged result line.
run() {
    local side=$1 dir=$2 workload=$3 pair=$4 seed=$5 result
    echo "### $workload pair $pair seed $seed: $side" >>"$out.err"
    result=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" \
        2>>"$out.err" | tail -1)
    printf '{"workload":"%s","pair":%d,"seed":%d,"side":"%s","result":%s}\n' \
        "$workload" "$pair" "$seed" "$side" "$result" >>"$out"
}

for workload in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((first + i - 1))
        if ((i % 2)); then
            run base "$base" "$workload" "$i" "$seed"
            run change "$change" "$workload" "$i" "$seed"
        else
            run change "$change" "$workload" "$i" "$seed"
            run base "$base" "$workload" "$i" "$seed"
        fi
    done
done
echo "bench-pairs: wrote $out; fold it with: go run ./cmd/benchjson -pairs $out" >&2
