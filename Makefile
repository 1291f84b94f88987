# paragonio — reproduction of Smirni et al., HPDC 1996.
GO ?= go

.PHONY: all build test test-short vet vet-race vet-race-clientcache vet-race-scaled vet-race-faults vet-race-logtier fmt bench bench-smoke bench-json bench-diff bench-module tables experiments docs-verify service-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent pieces: the sharded kernel (the randomized
# sharded-vs-oracle property test and the sharded golden digests both
# live in these packages), the parallel suite runner, the kernel
# primitives they drive, the iobench ladder runner's worker pool, and
# the iosimd daemon (fair-share admission, sweep fan-out, flight
# coalescing, warm-start cache).
vet-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/iobench/ ./internal/server/

# Race-check the client cache tier: the lease-coherence property test
# (randomized sharing schedules against the version oracle), the
# client-tier unit tests, and the client-on golden digests at
# 1/4/16 shards.
vet-race-clientcache:
	$(GO) vet ./...
	$(GO) test -race ./internal/cache/ ./internal/pfs/
	$(GO) test -race -run 'ClientCache|ClientVariants' ./internal/experiments/

# Race-check the fault plane: the per-kind degraded golden digests at
# 1/4/16 shards, the empty-plan healthy-equivalence property, and the
# pfs fault-injection behavior tests — faults arm events across the
# sharded kernel's lanes, so they run under the race detector.
vet-race-faults:
	$(GO) vet ./...
	$(GO) test -race ./internal/faults/
	$(GO) test -race -run Fault ./internal/pfs/ ./internal/experiments/ ./internal/server/

# Race-check the log tier: the crash-replay property test (randomized
# writer/drain/crash schedules against the observer-built consistent-cut
# oracle), the log-tier unit tests, and the log-on healthy + degraded
# golden digests at 1/4/16 shards.
vet-race-logtier:
	$(GO) vet ./...
	$(GO) test -race ./internal/cache/
	$(GO) test -race -run 'LogTier|LogVariants' ./internal/experiments/

# Race-check the window protocol on a scaled machine: a 32x32 mesh with
# 64 I/O lanes — four times the paper topology — at auto/wide/narrow
# shard settings must stay bit-identical under the race detector.
vet-race-scaled:
	$(GO) vet ./...
	$(GO) test -race -run TestScaledMeshShardedDigest .

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

# Build and test the repository benchmark (bench/, a Go module of its
# own, so `go test ./...` at the root never compiles it): its input
# generators, profile fold, and a tiny-size run of every workload against
# this checkout's simulator APIs. About 5 s.
bench-module:
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

clean:
	rm -rf artifacts
