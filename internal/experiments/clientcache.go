package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/pablo"
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

// clientRow is the measured shape of one (workload, variant) cell.
type clientRow struct {
	variant    variant
	exec       time.Duration
	io         time.Duration
	target     time.Duration // headline op time (quad reload / restart read)
	aux        time.Duration // secondary op time (quad staging / checkpoint writes)
	hitPct     float64       // client-tier hit ratio
	recalls    uint64
	staleAv    uint64
	expired    uint64
	recallWait time.Duration
	ionHitPct  float64 // I/O-node tier hit ratio ("both" rows)
}

func clientRowStrings(r clientRow) []string {
	cols := []string{r.variant.label, secs(r.exec), secs(r.io), secs(r.target), secs(r.aux)}
	if r.variant.tiers.Client != nil {
		cols = append(cols,
			fmt.Sprintf("%.1f", r.hitPct),
			fmt.Sprintf("%d", r.recalls),
			fmt.Sprintf("%d", r.staleAv),
			fmt.Sprintf("%d", r.expired),
			secs(r.recallWait))
	} else {
		cols = append(cols, "-", "-", "-", "-", "-")
	}
	if r.variant.tiers.IONode != nil {
		cols = append(cols, fmt.Sprintf("%.1f", r.ionHitPct))
	} else {
		cols = append(cols, "-")
	}
	return cols
}

// clientCache runs the client-tier sweep over both workloads and
// renders the comparison.
func clientCache(s *Suite) (*Artifact, error) {
	variants := clientVariants()

	measure := func(res *RunSummary, v variant,
		target, aux func(file string) bool) clientRow {
		cs := res.Client
		return clientRow{
			variant:    v,
			exec:       res.Exec,
			io:         res.IO,
			target:     fileOpTime(res, pablo.OpRead, target),
			aux:        fileOpTime(res, pablo.OpWrite, aux),
			hitPct:     100 * cs.HitRatio(),
			recalls:    cs.Recalls,
			staleAv:    cs.StaleAverted,
			expired:    cs.LeaseExpired,
			recallWait: cs.RecallWait,
			ionHitPct:  100 * res.Cache.HitRatio(),
		}
	}
	quad := func(f string) bool {
		return strings.HasPrefix(f, escat.QuadFile(0)[:len("escat/quad.")])
	}
	// Carbon monoxide restarts from staged data, so its writes are the
	// phase-four result files, not quadrature staging.
	out := func(f string) bool {
		return strings.HasPrefix(f, escat.OutFile(0)[:len("escat/out.")])
	}

	coRows := make([]clientRow, 0, len(variants))
	prismRows := make([]clientRow, 0, len(variants))
	for _, v := range variants {
		res, err := s.underTiers(coC, v.tiers)
		if err != nil {
			return nil, err
		}
		coRows = append(coRows, measure(res, v, quad, out))

		res, err = s.underTiers(prismC, v.tiers)
		if err != nil {
			return nil, err
		}
		prismRows = append(prismRows, measure(res, v,
			func(f string) bool { return f == prism.RestartFile },
			func(f string) bool { return f == prism.CheckpointFile }))
	}

	var b strings.Builder
	table := func(title, targetCol, auxCol string, src []clientRow) {
		rows := make([][]string, 0, len(src))
		for _, r := range src {
			rows = append(rows, clientRowStrings(r))
		}
		report.Table(&b, title,
			[]string{"variant", "exec_s", "io_s", targetCol, auxCol,
				"c_hit_%", "recalls", "stale_av", "expired", "recall_wait_s",
				"ion_hit_%"}, rows)
	}
	table("ESCAT C (carbon monoxide, 8 energy sweeps) reload re-reads under client caching",
		"quad_read_s", "out_write_s", coRows)
	b.WriteString("\n")
	table("PRISM C checkpoint/restart under client caching",
		"rst_read_s", "chk_write_s", prismRows)

	coBase, coBest := coRows[0], coRows[len(coRows)-1]
	prBase, prBest := prismRows[0], prismRows[len(prismRows)-1]
	paper := map[string]float64{
		"co.quad_read_s":    coBase.target.Seconds(),
		"co.io_s":           coBase.io.Seconds(),
		"prism.rst_read_s":  prBase.target.Seconds(),
		"prism.chk_write_s": prBase.aux.Seconds(),
		"prism.io_s":        prBase.io.Seconds(),
	}
	measured := map[string]float64{
		"co.quad_read_s":    coBest.target.Seconds(),
		"co.io_s":           coBest.io.Seconds(),
		"prism.rst_read_s":  prBest.target.Seconds(),
		"prism.chk_write_s": prBest.aux.Seconds(),
		"prism.io_s":        prBest.io.Seconds(),
	}
	return &Artifact{
		ID:       "clientcache",
		Title:    "What-if: client cache tier with lease coherence",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: the second what-if machine generation. " +
			"The 'paper' column is the tiers-off baseline (the real PFS); " +
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
			"prefetch records nobody re-requests.",
	}, nil
}
