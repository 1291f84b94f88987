package experiments

import (
	"strings"

	"paragonio/internal/cache"
	"paragonio/internal/report"
)

// The cachewhatif experiment is the repository's first forward-looking
// ("evolutionary view") study: it reruns the workloads whose tuning
// history the paper documents — PRISM's checkpoint/restart and ESCAT's
// quadrature staging (both ethylene and the 256-node carbon-monoxide
// problem), all in their final version-C form — on a machine Intel never
// shipped: the same Paragon with a buffer cache on every I/O node
// (internal/cache). Cache off reuses the canonical golden-digest runs;
// each cached variant is a fresh deterministic run.

// cacheVariants returns the sweep: no cache, write-behind at two cache
// sizes, and write-behind plus read-ahead at the same sizes. Carbon
// monoxide (256 nodes, 13 collision channels) is the suite's largest
// working set, where cache-size sensitivity and forced-flush stalls
// have room to appear.
func cacheVariants() []variant {
	wb := func(mb int64, ra int) cache.Tiers {
		return cache.Tiers{IONode: &cache.Config{CapacityBytes: mb << 20, WriteBehind: true, ReadAhead: ra}}
	}
	return []variant{
		{id: "off", label: "no cache (paper PFS)"},
		{id: "wb1", label: "write-behind, 1 MB/node", tiers: wb(1, 0)},
		{id: "wb32", label: "write-behind, 32 MB/node", tiers: wb(32, 0)},
		{id: "wbra1", label: "wb + read-ahead 4, 1 MB/node", tiers: wb(1, 4)},
		{id: "wbra32", label: "wb + read-ahead 4, 32 MB/node", tiers: wb(32, 4)},
	}
}

// cacheWhatIf runs the what-if sweep and renders both workloads' shapes.
func cacheWhatIf(s *Suite) (*Artifact, error) {
	variants := cacheVariants()
	pr, err := s.ladder(variants, prismC)
	if err != nil {
		return nil, err
	}
	eth, err := s.ladder(variants, ethC)
	if err != nil {
		return nil, err
	}
	co, err := s.ladder(variants, coC)
	if err != nil {
		return nil, err
	}

	// The ESCAT headline op differs per problem: ethylene's tuning story
	// is the staging writes; carbon monoxide restarts from staged data,
	// so its I/O is dominated by the quadrature reload reads.
	var b strings.Builder
	report.Columns(&b, "PRISM C checkpoint/restart under I/O-node caching", pr[0],
		rungCols(ionodeCols, secsCol("chk_write_s", checkpointWrite), secsCol("rst_read_s", restartRead)))
	b.WriteString("\n")
	report.Columns(&b, "ESCAT C (ethylene) staging under I/O-node caching", eth[0],
		rungCols(ionodeCols, secsCol("quad_write_s", quadWrite)))
	b.WriteString("\n")
	report.Columns(&b, "ESCAT C (carbon monoxide, 256 nodes) reload under I/O-node caching", co[0],
		rungCols(ionodeCols, secsCol("quad_read_s", quadRead)))

	art := &Artifact{ID: "cachewhatif", Text: b.String()}
	base, best := ends(pr[0])
	pair(art, "prism.chk_write_s", inSecs(checkpointWrite), base, best)
	pair(art, "prism.io_s", inSecs(ioTime), base, best)
	base, best = ends(eth[0])
	pair(art, "eth.quad_write_s", inSecs(quadWrite), base, best)
	pair(art, "eth.io_s", inSecs(ioTime), base, best)
	base, best = ends(co[0])
	pair(art, "co.quad_read_s", inSecs(quadRead), base, best)
	pair(art, "co.io_s", inSecs(ioTime), base, best)
	art.Notes = "Not a paper artifact: a what-if study on the paper's workloads. " +
		"The 'baseline' column is the cache-off machine (the real PFS); " +
		"'measured' is write-behind + read-ahead at 32 MB/node. " +
		"Write-behind acknowledges checkpoint and staging writes at " +
		"memory-copy cost and overlaps the disk writes with compute; " +
		"the dirty-queue and stall columns show where that stops being free. " +
		"The carbon-monoxide run (256 nodes, 13 channels) is the suite's " +
		"largest working set and an honest negative result: its restart-" +
		"staged reload streams each quadrature file once, so there is no " +
		"reuse for the cache to exploit, and read-ahead at 1 MB/node " +
		"thrashes (misfetches evict blocks before use) while 32 MB/node " +
		"recovers accuracy but still loses to no cache. Cache-size " +
		"sensitivity appears exactly where the working set outgrows the " +
		"cache; forced-flush stalls do not, because the workload is " +
		"read-dominated."
	return art, nil
}
