package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
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

// cacheVariant is one point of the what-if sweep.
type cacheVariant struct {
	id    string
	label string
	cfg   *cache.Config
}

// cacheVariants returns the sweep: no cache, write-behind at two cache
// sizes, and write-behind plus read-ahead at the same sizes.
func cacheVariants() []cacheVariant {
	wb := func(mb int64, ra int) *cache.Config {
		return &cache.Config{CapacityBytes: mb << 20, WriteBehind: true, ReadAhead: ra}
	}
	return []cacheVariant{
		{id: "off", label: "no cache (paper PFS)", cfg: nil},
		{id: "wb1", label: "write-behind, 1 MB/node", cfg: wb(1, 0)},
		{id: "wb32", label: "write-behind, 32 MB/node", cfg: wb(32, 0)},
		{id: "wbra1", label: "wb + read-ahead 4, 1 MB/node", cfg: wb(1, 4)},
		{id: "wbra32", label: "wb + read-ahead 4, 32 MB/node", cfg: wb(32, 4)},
	}
}

// cachedCfg is the suite configuration (seed, shards) plus one cache
// variant — cached runs honor the -shards knob like every other run.
func (s *Suite) cachedCfg(v cacheVariant) core.Config {
	cfg := s.cfg()
	cfg.Tiers.IONode = v.cfg
	return cfg
}

// PrismCached returns the summary of the PRISM version C run under a
// cache variant. The cache-off variant summarizes the canonical
// "prism/C" trace run.
func (s *Suite) PrismCached(v cacheVariant) (*RunSummary, error) {
	if v.cfg == nil {
		return summaryOf(s.prism("C"))
	}
	return s.measure("cache/prism/"+v.id, s.cachedCfg(v), runPrism(prism.VersionC()))
}

// EthyleneCached returns the summary of the ESCAT ethylene version C run
// under a cache variant. The cache-off variant summarizes the canonical
// "eth/C" trace run.
func (s *Suite) EthyleneCached(v cacheVariant) (*RunSummary, error) {
	if v.cfg == nil {
		return summaryOf(s.ethylene("C"))
	}
	return s.measure("cache/eth/"+v.id, s.cachedCfg(v), runEthylene(escat.VersionC()))
}

// CarbonMonoxideCached returns the summary of the ESCAT carbon-monoxide
// version C run under a cache variant — the suite's largest working set
// (256 nodes, 13 collision channels), where cache-size sensitivity and
// forced-flush stalls have room to appear. The cache-off variant
// summarizes the canonical "co/C" trace run.
func (s *Suite) CarbonMonoxideCached(v cacheVariant) (*RunSummary, error) {
	if v.cfg == nil {
		return summaryOf(s.carbonMonoxide())
	}
	return s.measure("cache/co/"+v.id, s.cachedCfg(v), runCarbonMonoxide)
}

// cacheRow is the measured shape of one (workload, variant) cell.
type cacheRow struct {
	variant  cacheVariant
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
		res, err := s.PrismCached(v)
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
	escatRows := func(op pablo.Op, fetch func(cacheVariant) (*RunSummary, error)) ([]cacheRow, error) {
		rows := make([]cacheRow, 0, len(variants))
		for _, v := range variants {
			res, err := fetch(v)
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
	ethRows, err := escatRows(pablo.OpWrite, s.EthyleneCached)
	if err != nil {
		return nil, err
	}
	coRows, err := escatRows(pablo.OpRead, s.CarbonMonoxideCached)
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
