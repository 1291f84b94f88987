#!/usr/bin/env bash
# service-smoke: build iosimd, boot it on an ephemeral port, and walk
# the daemon's contract end to end — health, a real simulate of the
# smallest canonical run (pinned to its golden trace digest), the
# content-addressed cache hit on the identical re-request, a batched
# sweep whose repeated grid dedups entirely against the cache, a
# degraded (fault-injected) run pinned to its own golden digest with a
# structured 400 on a malformed faults block and on a client-flap series
# that overflows the virtual clock, a log-tier run pinned to
# the log-on golden digest with the log stats block in the response,
# an advise run cached and replayed under its advise/ address, and a
# kill-and-restart proving the spill directory warm-starts the index.
# The daemon is killed on exit either way.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/iosimd" ./cmd/iosimd

# boot LOGFILE ARGS... — start a daemon, wait for the bind line, and
# set $pid / $base from the advertised ephemeral address.
boot() {
    local log=$1
    shift
    "$work/iosimd" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$log" && break
        kill -0 "$pid" 2>/dev/null || { echo "service-smoke: daemon died at boot"; cat "$log"; exit 1; }
        sleep 0.1
    done
    local addr
    addr=$(sed -n 's/^iosimd: listening on //p' "$log" | head -1)
    [ -n "$addr" ] || { echo "service-smoke: daemon never bound"; cat "$log"; exit 1; }
    base="http://$addr"
}

boot "$work/out.log" -spill "$work/spill"
echo "service-smoke: daemon at $base"

# 1. Health.
[ "$(curl -fsS "$base/healthz")" = ok ]

# 2. Simulate prism/C — a fresh run, bit-identical to the golden digest.
req='{"app":"prism","version":"C"}'
first=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/simulate")
echo "$first" | grep -q '"cached":false'
echo "$first" | grep -q '"digest":"0xbc010fbf3debceec"'

# 3. The identical re-request is served from the content-addressed cache.
second=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/simulate")
echo "$second" | grep -q '"cached":true'
#    shards is accepted and ignored: the same run at shards 4 is the
#    same cached result under the same hash.
hash=$(echo "$second" | sed -n 's/.*"hash":"\([0-9a-f]*\)".*/\1/p')
[ -n "$hash" ]
sharded=$(curl -fsS -X POST -H 'Content-Type: application/json' -d '{"app":"prism","version":"C","shards":4}' "$base/v1/simulate")
echo "$sharded" | grep -q '"cached":true'
echo "$sharded" | grep -q "\"hash\":\"$hash\""

# 4. The metrics scrape counted both hits and all three requests.
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^iosimd_cache_hits_total 2$'
echo "$metrics" | grep -q '^iosimd_requests_total{endpoint="simulate",code="200"} 3$'

# 5. Sweep a 2-point grid. The prism/C point is already cached from
#    step 2, so one point must dedup against the result cache while
#    prism/A runs fresh; the NDJSON stream is plan-first, done-last.
sweep_req='{"app":"prism","versions":["A","C"]}'
sweep1=$(curl -fsSN -X POST -H 'Content-Type: application/json' -d "$sweep_req" "$base/v1/sweep")
echo "$sweep1" | head -1 | grep -q '"plan":true'
echo "$sweep1" | head -1 | grep -q '"points":2'
echo "$sweep1" | grep -q '"dedup":"cache"'
echo "$sweep1" | tail -1 | grep -q '"done":true'

# 6. The identical grid replayed: every point is a dedup hit, zero
#    engine runs — the summary and the dedup counter both say so.
sweep2=$(curl -fsSN -X POST -H 'Content-Type: application/json' -d "$sweep_req" "$base/v1/sweep")
echo "$sweep2" | tail -1 | grep -q '"dedup_cache":2'
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^iosimd_sweep_dedup_total{source="cache"} 3$'

# 7. Degraded run: the same prism/C with a failed disk is a distinct
#    fresh run with its own pinned golden digest — fault plans are part
#    of the content address, and the fault-runs counter ticks.
fault_req='{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}'
degraded=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$fault_req" "$base/v1/simulate")
echo "$degraded" | grep -q '"cached":false'
echo "$degraded" | grep -q '"digest":"0x9ce1a397b722477e"'
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^iosimd_fault_runs_total 1$'

# 8. A malformed faults block is a structured 400: stable error code,
#    offending field named.
bad_fault='{"app":"prism","version":"C","faults":[{"kind":"disk-melt"}]}'
code=$(curl -sS -o "$work/err.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$bad_fault" "$base/v1/simulate")
[ "$code" = 400 ]
grep -q '"code":"invalid_request"' "$work/err.json"
grep -q '"field":"faults"' "$work/err.json"
grep -q 'unknown kind' "$work/err.json"
#    A client-flap series whose last flap overflows the virtual clock is
#    a 400 on the same field, and the daemon keeps serving.
flap_overflow='{"app":"escat","version":"C","tiers":{"client":{}},"faults":[{"kind":"client-flap","node":1,"at_ms":1,"period_ms":4000000000000,"count":4}]}'
code=$(curl -sS -o "$work/err.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$flap_overflow" "$base/v1/simulate")
[ "$code" = 400 ]
grep -q '"field":"faults"' "$work/err.json"
[ "$(curl -fsS "$base/healthz")" = ok ]

# 9. The third cache tier over HTTP: prism/C with the log tier at its
#    defaults is a distinct fresh run pinned to the log-on golden
#    digest, and the response carries the log stats block (the drain
#    finished, so every append drained).
log_req='{"app":"prism","version":"C","tiers":{"log":{}}}'
logged=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$log_req" "$base/v1/simulate")
echo "$logged" | grep -q '"cached":false'
echo "$logged" | grep -q '"digest":"0x162463d0c4c76706"'
echo "$logged" | grep -q '"log":{'
echo "$logged" | grep -q '"Appends":4403'

# 10. Advise prism/C: a fresh advisor run under the advise/ namespace,
#    the identical re-request served from the cache, and the artifact
#    replayed by its two-segment address.
advised=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/advise")
echo "$advised" | grep -q '"cached":false'
adv_hash=$(echo "$advised" | sed -n 's/.*"hash":"\(advise\/[0-9a-f]*\)".*/\1/p')
[ -n "$adv_hash" ]
readvised=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/advise")
echo "$readvised" | grep -q '"cached":true'
replayed=$(curl -fsS "$base/v1/results/$adv_hash")
echo "$replayed" | grep -q "\"hash\":\"$adv_hash\""
echo "$replayed" | grep -q '"cached":true'

# 11. Warm restart: kill the daemon, boot a fresh one on the same spill
#    directory, and the old run is answered from disk without touching
#    the engine. The five artifacts are prism/C, prism/A, the degraded
#    and log-tier runs, and the prism/C advice; /metrics shows them from
#    boot, before any request reads one back.
kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
boot "$work/out2.log" -spill "$work/spill"
echo "service-smoke: restarted at $base"
grep -q '^iosimd: warm start: 5 result artifacts indexed' "$work/out2.log"
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^iosimd_cache_spilled_entries 5$'
echo "$metrics" | grep -q '^iosimd_cache_spill_hits_total 0$'
warm=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/simulate")
echo "$warm" | grep -q '"cached":true'
echo "$warm" | grep -q '"digest":"0xbc010fbf3debceec"'
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^iosimd_cache_spill_hits_total 1$'

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "service-smoke: OK"
