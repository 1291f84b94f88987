#!/usr/bin/env bash
# docs-verify: extract every ```sh code fence from README.md,
# docs/ADVISOR.md, docs/SERVICE.md, and docs/TIERS.md and execute the
# commands in order, so the documented quickstarts cannot rot. Commands run from the
# repository root in one shell (later commands may read files earlier
# ones wrote, e.g. the iosim -trace / iotrace advise pair); the first
# failure fails the run. Long-running foreground examples (like the
# iosimd daemon quickstart) use ```bash fences, which are documentation
# only.
set -euo pipefail
cd "$(dirname "$0")/.."

# README's `make bench-json` fence writes BENCH_<today>.json at the root.
# Snapshots are committed by hand, and bench-diff takes the newest one
# as its baseline, so any BENCH_*.json this run creates is removed on
# exit and the tree stays as it was.
before=$(ls BENCH_*.json 2>/dev/null || true)
tmp=$(mktemp)
cleanup() {
    rm -f "$tmp"
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        grep -qxF "$f" <<<"$before" || rm -f "$f"
    done
}
trap cleanup EXIT

{
    echo 'set -euo pipefail'
    for doc in README.md docs/ADVISOR.md docs/SERVICE.md docs/TIERS.md; do
        echo "echo \"### commands from $doc\""
        awk '/^```sh$/ { f = 1; next } /^```$/ { f = 0 } f' "$doc"
    done
} >"$tmp"

bash "$tmp"
echo "docs-verify: all documented commands ran cleanly"
