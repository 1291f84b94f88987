package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/pablo"
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

// cacheRow is the measured shape of one (workload, variant) cell.
type cacheRow struct {
	variant  variant
	exec     time.Duration
	io       time.Duration
	target   time.Duration // the workload's headline operation time
	aux      time.Duration // secondary operation time (PRISM restart reads)
	hitPct   float64
	maxDirty int
	stalls   uint64
	raAcc    float64
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// cacheWhatIf runs the what-if sweep and renders both workloads' shapes.
func cacheWhatIf(s *Suite) (*Artifact, error) {
	variants := cacheVariants()

	prismRows := make([]cacheRow, 0, len(variants))
	for _, v := range variants {
		res, err := s.underTiers(prismC, v.tiers)
		if err != nil {
			return nil, err
		}
		ct := res.Cache
		prismRows = append(prismRows, cacheRow{
			variant: v,
			exec:    res.Exec,
			io:      res.IO,
			target: fileOpTime(res, pablo.OpWrite, func(f string) bool {
				return f == prism.CheckpointFile
			}),
			aux:      restartReadTime(res),
			hitPct:   100 * ct.HitRatio(),
			maxDirty: ct.MaxDirty,
			stalls:   ct.ForcedFlushStalls,
			raAcc:    100 * ct.ReadAheadAccuracy(),
		})
	}

	// The ESCAT headline op differs per problem: ethylene's tuning story
	// is the staging writes; carbon monoxide restarts from staged data,
	// so its I/O is dominated by the quadrature reload reads.
	escatRows := func(op pablo.Op, a apps.Run) ([]cacheRow, error) {
		rows := make([]cacheRow, 0, len(variants))
		for _, v := range variants {
			res, err := s.underTiers(a, v.tiers)
			if err != nil {
				return nil, err
			}
			ct := res.Cache
			rows = append(rows, cacheRow{
				variant:  v,
				exec:     res.Exec,
				io:       res.IO,
				target:   quadTime(res, op),
				hitPct:   100 * ct.HitRatio(),
				maxDirty: ct.MaxDirty,
				stalls:   ct.ForcedFlushStalls,
				raAcc:    100 * ct.ReadAheadAccuracy(),
			})
		}
		return rows, nil
	}
	ethRows, err := escatRows(pablo.OpWrite, ethC)
	if err != nil {
		return nil, err
	}
	coRows, err := escatRows(pablo.OpRead, coC)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	rows := make([][]string, 0, len(prismRows))
	for _, r := range prismRows {
		rows = append(rows, []string{
			r.variant.label, secs(r.exec), secs(r.io), secs(r.target), secs(r.aux),
			fmt.Sprintf("%.1f", r.hitPct), fmt.Sprintf("%d", r.maxDirty),
			fmt.Sprintf("%d", r.stalls), fmt.Sprintf("%.1f", r.raAcc),
		})
	}
	report.Table(&b, "PRISM C checkpoint/restart under I/O-node caching",
		[]string{"variant", "exec_s", "io_s", "chk_write_s", "rst_read_s",
			"hit_%", "max_dirty", "stalls", "ra_acc_%"}, rows)
	b.WriteString("\n")

	escatTable := func(title, targetCol string, src []cacheRow) {
		rows = rows[:0]
		for _, r := range src {
			rows = append(rows, []string{
				r.variant.label, secs(r.exec), secs(r.io), secs(r.target),
				fmt.Sprintf("%.1f", r.hitPct), fmt.Sprintf("%d", r.maxDirty),
				fmt.Sprintf("%d", r.stalls), fmt.Sprintf("%.1f", r.raAcc),
			})
		}
		report.Table(&b, title,
			[]string{"variant", "exec_s", "io_s", targetCol,
				"hit_%", "max_dirty", "stalls", "ra_acc_%"}, rows)
	}
	escatTable("ESCAT C (ethylene) staging under I/O-node caching", "quad_write_s", ethRows)
	b.WriteString("\n")
	escatTable("ESCAT C (carbon monoxide, 256 nodes) reload under I/O-node caching", "quad_read_s", coRows)

	base, best := prismRows[0], prismRows[len(prismRows)-1]
	ethBase, ethBest := ethRows[0], ethRows[len(ethRows)-1]
	coBase, coBest := coRows[0], coRows[len(coRows)-1]
	paper := map[string]float64{
		"prism.chk_write_s": base.target.Seconds(),
		"prism.io_s":        base.io.Seconds(),
		"eth.quad_write_s":  ethBase.target.Seconds(),
		"eth.io_s":          ethBase.io.Seconds(),
		"co.quad_read_s":    coBase.target.Seconds(),
		"co.io_s":           coBase.io.Seconds(),
	}
	measured := map[string]float64{
		"prism.chk_write_s": best.target.Seconds(),
		"prism.io_s":        best.io.Seconds(),
		"eth.quad_write_s":  ethBest.target.Seconds(),
		"eth.io_s":          ethBest.io.Seconds(),
		"co.quad_read_s":    coBest.target.Seconds(),
		"co.io_s":           coBest.io.Seconds(),
	}
	return &Artifact{
		ID:       "cachewhatif",
		Title:    "What-if: I/O-node buffer cache (write-behind / read-ahead)",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: a what-if study on the paper's workloads. " +
			"The 'paper' column is the cache-off baseline (the real PFS); " +
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
			"read-dominated.",
	}, nil
}
