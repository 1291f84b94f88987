package experiments

import (
	"strings"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/report"
)

// The clientcache experiment extends the evolutionary what-if line one
// machine generation further: a lease-coherent client cache on every
// compute node (cache.ClientTier), alone and stacked on the I/O-node
// buffer cache of the cachewhatif study. Two workloads probe the two
// sides of the tier: ESCAT's carbon-monoxide problem re-reads its
// staged quadrature data on every one of its eight energy sweeps —
// M_RECORD hands each node the same records each pass, so the re-reads
// are node-local reuse a client cache can capture if its capacity and
// lease TTL cover the inter-sweep compute; and PRISM C mixes the
// restart read with checkpoint writes, where with both block tiers on
// the client tier and the I/O-node read-ahead interact on the same
// blocks.
// Client-off variants reuse the canonical golden-digest runs.

// clientVariants returns the sweep. The lease TTL is a real axis: the
// 500 ms default expires long before the next energy sweep returns to
// the same records, so the first row isolates what expiry costs; the
// 10-minute rows isolate capacity; the last row stacks the I/O-node
// cache under the best client configuration.
func clientVariants() []variant {
	client := func(mb int64, ttl time.Duration) *cache.ClientConfig {
		return &cache.ClientConfig{CapacityBytes: mb << 20, LeaseTTL: ttl}
	}
	const long = 10 * time.Minute
	return []variant{
		{id: "off", label: "no cache (paper PFS)"},
		{id: "cttl", label: "client 8 MB, 500 ms lease", tiers: cache.Tiers{Client: client(8, 0)}},
		{id: "c1", label: "client 1 MB, 10 min lease", tiers: cache.Tiers{Client: client(1, long)}},
		{id: "c8", label: "client 8 MB, 10 min lease", tiers: cache.Tiers{Client: client(8, long)}},
		{id: "both", label: "client 8 MB + ion wb+ra 32 MB", tiers: cache.Tiers{
			Client: client(8, long),
			IONode: &cache.Config{CapacityBytes: 32 << 20, WriteBehind: true, ReadAhead: 4},
		}},
	}
}

// clientCache runs the client-tier sweep over both workloads and
// renders the comparison.
func clientCache(s *Suite) (*Artifact, error) {
	tables, err := s.ladder(clientVariants(), coC, prismC)
	if err != nil {
		return nil, err
	}
	co, pr := tables[0], tables[1]

	// Carbon monoxide restarts from staged data, so its writes are the
	// phase-four result files, not quadrature staging.
	var b strings.Builder
	report.Columns(&b, "ESCAT C (carbon monoxide, 8 energy sweeps) reload re-reads under client caching", co,
		rungCols(clientCols, secsCol("quad_read_s", quadRead), secsCol("out_write_s", outWrite)))
	b.WriteString("\n")
	report.Columns(&b, "PRISM C checkpoint/restart under client caching", pr,
		rungCols(clientCols, secsCol("rst_read_s", restartRead), secsCol("chk_write_s", checkpointWrite)))

	art := &Artifact{ID: "clientcache", Text: b.String()}
	base, best := ends(co)
	pair(art, "co.quad_read_s", inSecs(quadRead), base, best)
	pair(art, "co.io_s", inSecs(ioTime), base, best)
	base, best = ends(pr)
	pair(art, "prism.rst_read_s", inSecs(restartRead), base, best)
	pair(art, "prism.chk_write_s", inSecs(checkpointWrite), base, best)
	pair(art, "prism.io_s", inSecs(ioTime), base, best)
	art.Notes = "Not a paper artifact: the second what-if machine generation. " +
		"The 'baseline' column is the tiers-off machine (the real PFS); " +
		"'measured' is the client tier stacked on the I/O-node cache. " +
		"The client tier serves re-reads node-locally under read leases; " +
		"writes keep sharers coherent by recalling their leases at mesh " +
		"round-trip cost (recall_wait_s), and stale_av counts recalled " +
		"blocks still resident at the holder — reads a lease-less client " +
		"cache would have served stale. The lease TTL is a real axis: at " +
		"the 500 ms default every carbon-monoxide lease dies in the " +
		"minutes of compute between energy sweeps (the expired column), " +
		"so all eight reload passes miss; a 10-minute TTL at 8 MB/node " +
		"captures exactly the seven re-read sweeps (87.5% hits), while " +
		"1 MB/node thrashes at 0% — the ~3 MB per-node reload working " +
		"set sits between the two capacities. Both paper workloads " +
		"partition their files across nodes (the access-pattern fact the " +
		"paper itself reports), so recall traffic is near nil here; the " +
		"protocol's coherence cost is exercised by the randomized sharing " +
		"schedules of the coherence property tests instead. The block tiers " +
		"interact rather than add: on PRISM the stack wins twice (the " +
		"client tier absorbs the restart re-reads, write-behind absorbs " +
		"the checkpoint), but on carbon monoxide stacking is worse than " +
		"the client tier alone — the client tier strips the reuse out of " +
		"the miss stream the I/O-node cache sees, leaving read-ahead to " +
		"prefetch records nobody re-requests."
	return art, nil
}
