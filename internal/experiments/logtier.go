package experiments

import (
	"fmt"
	"strings"

	"paragonio/internal/cache"
	"paragonio/internal/iobench"
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
// at its default (8 MB capacity, 8-record drain batches, 50 ms drain
// deadline).
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

	b.WriteString("\n")
	fmt.Fprintf(&b, "Read-back at application scale (a log absorbs writes, it cannot serve reads):\n")
	fmt.Fprintf(&b, "  ESCAT eth C quad writes: %s s under the log alone (write-behind 32 MB: %s s)\n",
		secs(quadWrite(ethLog)), secs(quadWrite(ethWB)))
	fmt.Fprintf(&b, "  ESCAT eth C quad reads:  %s s under the log alone vs %s s under write-behind 32 MB\n",
		secs(quadRead(ethLog)), secs(quadRead(ethWB)))
	fmt.Fprintf(&b, "  PRISM C restart read:    %s s under the log alone vs %s s under write-behind 32 MB\n",
		secs(restartRead(prismLog)), secs(restartRead(prismWB)))

	// The read-back keys carry the honest negative: their baseline is
	// the write-behind time the log fails to match.
	art := &Artifact{ID: "logtier", Text: b.String()}
	pair(art, "chk.wall_s", wall, chk.off, chk.log)
	pair(art, "chk.wall_wb_s", wall, chk.off, chk.wb)
	pair(art, "chk.wall_logion_s", wall, chk.off, chk.logion)
	pair(art, "stg.wall_s", wall, stg.off, stg.log)
	pair(art, "stg.wall_wb_s", wall, stg.off, stg.wb)
	pair(art, "stg.wall_logion_s", wall, stg.off, stg.logion)
	pair(art, "chk.appends",
		func(r *iobench.Result) float64 { return float64(r.Log.Appends) }, chk.off, chk.log)
	pair(art, "chk.bp_stalls",
		func(r *iobench.Result) float64 { return float64(r.Log.AppendStalls) }, chk.off, chk.log)
	pair(art, "eth.quad_read_s", inSecs(quadRead), ethWB, ethLog)
	pair(art, "prism.rst_read_s", inSecs(restartRead), prismWB, prismLog)
	art.Notes = "Not a paper artifact: the ROADMAP host-side logging study " +
		"(the burst-buffer lineage the paper's checkpoint sections " +
		"anticipate). 'baseline' is the no-cache machine; 'measured' the " +
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
		"stall on the drain with no block cache to catch it."
	return art, nil
}
