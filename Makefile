# paragonio — reproduction of Smirni et al., HPDC 1996.
GO ?= go

.PHONY: all build test test-short vet vet-race fmt bench bench-smoke bench-json bench-diff bench-module tables experiments docs-verify service-smoke fuzz-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent pieces: the parallel suite runner (distinct
# runs simulate on their own kernels at once) with every golden digest,
# the kernel's process handoff, the cache tiers (the lease-coherence
# property test and the event-stream goldens), pfs and the fault plane,
# the iobench ladder runner's worker pool, and the iosimd daemon
# (fair-share admission, sweep fan-out, flight coalescing, warm-start
# cache).
vet-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/cache/ ./internal/pfs/ ./internal/faults/ ./internal/iobench/ ./internal/server/ ./internal/pablo/

fmt:
	gofmt -l .

# One regeneration of every paper artifact benchmark and ablation.
bench:
	$(GO) test -run NONE -bench=. -benchmem -benchtime=1x .

# Single-iteration pass over every benchmark — a fast compile-and-run
# sanity check that the benchmark harness itself still works.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable perf trajectory: run the kernel/PFS/suite benchmarks
# once and emit BENCH_<date>.json (ns/op, allocs/op, custom metrics,
# suite wall clock). Compare files across commits to track the trend.
bench-json:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x ./... | tee bench.out
	$(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json < bench.out
	@rm -f bench.out

# Compare a fresh single-iteration benchmark pass against the newest
# committed BENCH_<date>.json. Exits nonzero past the regression
# threshold; -benchtime=1x samples are noisy, so CI gates with a
# generous -threshold 1.0 -floor 100000 (fail only when a ≥100µs
# benchmark doubles; µs-scale 1x samples are timer noise).
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/benchjson -o bench-new.json
	$(GO) run ./cmd/benchjson -diff $$(ls BENCH_*.json | sort | tail -1) bench-new.json
	@rm -f bench-new.json

# Vet, build and test the repository benchmark (bench/, a Go module of
# its own, so neither `go vet ./...` nor `go test ./...` at the root ever
# sees it): its input generators, profile fold, and a tiny-size run of
# every workload against this checkout's simulator APIs. About 5 s.
bench-module:
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...

# Regenerate the paper's tables and figures to stdout (and artifacts/).
tables:
	$(GO) run ./cmd/iotables -out artifacts

experiments:
	$(GO) run ./cmd/iotables -summary

# Run every shell command documented in README.md, docs/ADVISOR.md,
# docs/SERVICE.md, and docs/TIERS.md code fences, so the quickstarts
# cannot rot.
docs-verify:
	bash scripts/docs-verify.sh

# Build the iosimd daemon, boot it on an ephemeral port, and walk the
# service contract end to end: health, simulate (pinned to the golden
# digest), cache-hit re-request, batched sweep (repeated grid dedups
# fully), fault-injected and log-tier runs (pinned to their own golden
# digests), kill-and-restart warm start, metrics scrape.
service-smoke:
	bash scripts/service-smoke.sh

# Fuzz each decoder/validator target beyond its seed corpus (go test
# ./... only replays the seeds): the SDDF text reader and the daemon's
# request decoding + validation for 20 s each, then the cache-tier and
# log-tier validators and the fault plan's Validate/String round trip for
# 10 s each. A crasher is written under the package's testdata/fuzz/ and
# fails the target.
fuzz-smoke:
	$(GO) test ./internal/pablo/ -run='^$$' -fuzz='^FuzzReadTrace$$' -fuzztime=20s
	$(GO) test ./internal/server/ -run='^$$' -fuzz='^FuzzSimulateRequest$$' -fuzztime=20s
	$(GO) test ./internal/cache/ -run='^$$' -fuzz='^FuzzTiersValidate$$' -fuzztime=10s
	$(GO) test ./internal/cache/ -run='^$$' -fuzz='^FuzzLogConfigValidate$$' -fuzztime=10s
	$(GO) test ./internal/faults/ -run='^$$' -fuzz='^FuzzPlanRoundTrip$$' -fuzztime=10s

clean:
	rm -rf artifacts
