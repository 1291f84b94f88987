package experiments

import (
	"fmt"
	"strings"

	"paragonio/internal/cache"
	"paragonio/internal/iobench"
	"paragonio/internal/pablo"
)

// The logtier experiment races the third tier — the per-compute-node
// log-structured write buffer (cache.LogTier) — against the server-side
// write-behind cache on the two checkpoint-shaped workloads of the
// faults study, then pins the tier's honest limit at application scale:
// a log absorbs writes at host-memory speed but cannot serve reads, so
// ESCAT's quadrature read-back and PRISM's restart read run at no-cache
// speed under the log alone. The log-tier application runs double as
// the advisor experiment's extra oracle rungs, so the closed loop is
// scored against a search space that includes the new tier.

// logOnTiers is the canonical log-tier-only configuration: every knob
// at its default (8 MB capacity, 1 MB segments, 50 ms drain deadline).
// The golden-digest tests run the paper workloads under it.
func logOnTiers() cache.Tiers {
	return cache.Tiers{Log: &cache.LogConfig{}}
}

// logTierVariants returns the sweep: the log tier alone (writes at
// memory speed, reads at disk speed), and the log stacked on the 32 MB
// write-behind block cache — the pairing the advisor emits for
// read-back workloads, where drained blocks stay resident. The kernel
// ladder of the same study (iobench's "logtier" sweep) stacks the log on
// a 2 MB deadline-flushed cache instead; see the iobench registry.
func logTierVariants() []variant {
	return []variant{
		{id: "log", label: "log tier alone", tiers: logOnTiers()},
		{id: "logwb32", label: "log + write-behind 32 MB", tiers: cache.Tiers{
			Log:    &cache.LogConfig{},
			IONode: &cache.Config{CapacityBytes: 32 << 20, WriteBehind: true},
		}},
	}
}

// logTierExp runs both checkpoint-shaped ladders and the application-
// level read-back race, and renders the comparison.
func logTierExp(s *Suite) (*Artifact, error) {
	var b strings.Builder
	chkRes, err := kernelLadder(&b, "logtier",
		"PRISM-shaped checkpoint (4 x 8 MB bursts, 4 I/O nodes) down the log-tier ladder",
		faultsPrismWorkload(s))
	if err != nil {
		return nil, err
	}
	b.WriteString("\n")
	stgRes, err := kernelLadder(&b, "logtier",
		"ESCAT-shaped staging writes (8 nodes interleaving, 4 I/O nodes) down the log-tier ladder",
		faultsEscatWorkload(s))
	if err != nil {
		return nil, err
	}

	type ladder struct{ off, wb, log, logion *iobench.Result }
	rungs := func(rs []*iobench.Result) (ladder, error) {
		r, err := iobench.FindRungs(rs, "no-cache", "write-behind", "log-tier", "log+ion")
		if err != nil {
			return ladder{}, err
		}
		return ladder{r[0], r[1], r[2], r[3]}, nil
	}
	chk, err := rungs(chkRes)
	if err != nil {
		return nil, err
	}
	stg, err := rungs(stgRes)
	if err != nil {
		return nil, err
	}

	// The application-level read-back race: the same runs feed the
	// advisor experiment's oracle pool through the suite cache.
	wb32 := tiersOf(cacheVariants(), "wb32")
	logOnly := tiersOf(logTierVariants(), "log")
	ethLog, err := s.underTiers(ethC, logOnly)
	if err != nil {
		return nil, err
	}
	ethWB, err := s.underTiers(ethC, wb32)
	if err != nil {
		return nil, err
	}
	prismLog, err := s.underTiers(prismC, logOnly)
	if err != nil {
		return nil, err
	}
	prismWB, err := s.underTiers(prismC, wb32)
	if err != nil {
		return nil, err
	}
	ethLogRd := quadTime(ethLog, pablo.OpRead)
	ethWBRd := quadTime(ethWB, pablo.OpRead)
	ethLogWr := quadTime(ethLog, pablo.OpWrite)
	prismLogRd := restartReadTime(prismLog)
	prismWBRd := restartReadTime(prismWB)

	b.WriteString("\n")
	fmt.Fprintf(&b, "Read-back at application scale (a log absorbs writes, it cannot serve reads):\n")
	fmt.Fprintf(&b, "  ESCAT eth C quad writes: %s s under the log alone (write-behind 32 MB: %s s)\n",
		secs(ethLogWr), secs(quadTime(ethWB, pablo.OpWrite)))
	fmt.Fprintf(&b, "  ESCAT eth C quad reads:  %s s under the log alone vs %s s under write-behind 32 MB\n",
		secs(ethLogRd), secs(ethWBRd))
	fmt.Fprintf(&b, "  PRISM C restart read:    %s s under the log alone vs %s s under write-behind 32 MB\n",
		secs(prismLogRd), secs(prismWBRd))

	// 'paper' holds the no-cache machine (the only one the paper
	// measured); 'measured' the log-tier ladder. The read-back keys
	// carry the honest negative: 'paper' is the write-behind time the
	// log fails to match, 'measured' the log-alone time.
	paper := map[string]float64{
		"chk.wall_s":        chk.off.Wall.Seconds(),
		"chk.wall_wb_s":     chk.off.Wall.Seconds(),
		"chk.wall_logion_s": chk.off.Wall.Seconds(),
		"stg.wall_s":        stg.off.Wall.Seconds(),
		"stg.wall_wb_s":     stg.off.Wall.Seconds(),
		"stg.wall_logion_s": stg.off.Wall.Seconds(),
		"chk.appends":       0,
		"chk.bp_stalls":     0,
		"eth.quad_read_s":   ethWBRd.Seconds(),
		"prism.rst_read_s":  prismWBRd.Seconds(),
	}
	measured := map[string]float64{
		"chk.wall_s":        chk.log.Wall.Seconds(),
		"chk.wall_wb_s":     chk.wb.Wall.Seconds(),
		"chk.wall_logion_s": chk.logion.Wall.Seconds(),
		"stg.wall_s":        stg.log.Wall.Seconds(),
		"stg.wall_wb_s":     stg.wb.Wall.Seconds(),
		"stg.wall_logion_s": stg.logion.Wall.Seconds(),
		"chk.appends":       float64(chk.log.Log.Appends),
		"chk.bp_stalls":     float64(chk.log.Log.AppendStalls),
		"eth.quad_read_s":   ethLogRd.Seconds(),
		"prism.rst_read_s":  prismLogRd.Seconds(),
	}
	return &Artifact{
		ID:       "logtier",
		Title:    "Log tier study: host-side burst buffer vs server write-behind",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: the ROADMAP host-side logging study " +
			"(the burst-buffer lineage the paper's checkpoint sections " +
			"anticipate). 'paper' is the no-cache machine; 'measured' the " +
			"log-tier rungs. On both checkpoint-shaped ladders the log " +
			"beats server-side write-behind outright — appends commit at " +
			"host-memory speed before any mesh hop, and the sequential " +
			"drain overlaps compute — and stacking the block cache under " +
			"the drain buys the write-only bursts nothing (the log+ion " +
			"rung pays the drain's extra cache copy). The honest negatives " +
			"carry the design rule: a log absorbs writes, it cannot serve " +
			"reads. ESCAT ethylene's quadrature read-back under the log " +
			"alone runs at no-cache speed — every read barrier waits for " +
			"the drain, then the read goes to disk anyway — and PRISM's " +
			"restart read is bit-for-bit the no-cache time. Pairing the " +
			"log with write-behind recovers both (drained records land in " +
			"the block cache and the read-back stays resident), which is " +
			"exactly the pairing the advisor emits: cache-log-tier for " +
			"write-dominated traces, avoid-log-tier when read-back would " +
			"stall on the drain with no block cache to catch it.",
	}, nil
}
