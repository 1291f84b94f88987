package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/iobench"
	"paragonio/internal/pfs"
)

// The flushpolicy experiment is the ROADMAP flush-policy study: it pits
// the I/O-node cache's two write-behind flush policies — the legacy
// high-water + idle policy and the deadline policy (cache.Config.
// FlushDeadline) — against a bursty checkpoint writer, the workload
// ParaLog-style deadline flushing is argued for. The cache is held at
// 2 MB so every 4 MB checkpoint burst overruns it: the flush policy,
// not the capacity, then decides how many burst writes stall behind a
// synchronous eviction of a dirty victim (ForcedFlushStalls) and how
// many flusher passes the disk absorbs between bursts.

// flushWorkload is the bursty checkpoint writer all ladder rungs share:
// node zero dumps 8 MB in 64 KB records every cycle, with seconds of
// computation between bursts for the flusher to hide work in. Only two
// I/O nodes serve the stripe, so each one's 2 MB cache absorbs a 4 MB
// slice per burst — a guaranteed overrun that forces the flush policy
// to decide which writes stall behind a dirty eviction.
func flushWorkload(s *Suite) iobench.Params {
	return iobench.Params{
		Kernel:  iobench.Checkpoint,
		Mode:    pfs.MAsync,
		Nodes:   8,
		Request: 64 << 10,
		Volume:  64 << 20,
		Cycles:  8,
		Compute: 2 * time.Second,
		IONodes: 2,
		Seed:    s.Seed,
		Shards:  s.Shards,
	}
}

// kernelLadder runs the iobench sweep registered as id on base and
// renders its table under title into b.
func kernelLadder(b *strings.Builder, id, title string, base iobench.Params) ([]*iobench.Result, error) {
	sw, ok := iobench.LookupSweep(id)
	if !ok {
		return nil, fmt.Errorf("experiments: no iobench sweep %q", id)
	}
	results, err := sw.Run(base)
	if err != nil {
		return nil, err
	}
	return results, iobench.WriteTable(b, title, results, sw.Columns)
}

// flushPolicy runs the ladder and renders the comparison.
func flushPolicy(s *Suite) (*Artifact, error) {
	var b strings.Builder
	results, err := kernelLadder(&b, "flush",
		"Checkpoint bursts (8 x 8 MB striped over two 2 MB write-behind caches) by flush policy",
		flushWorkload(s))
	if err != nil {
		return nil, err
	}

	// Headline comparison: the lazy shape (small batch, 75% watermark) is
	// where the two policies separate — the idle policy lets the dirty
	// queue reach the watermark and stalls burst writes behind dirty
	// evictions, while the deadline policy's age-based passes drain the
	// queue before the next burst lands.
	rungs, err := iobench.FindRungs(results, "hw-idle b=4 hw=75%", "deadline=1s b=4 hw=75%")
	if err != nil {
		return nil, err
	}
	hw, dl := rungs[0], rungs[1]

	// Shared keys: 'paper' is the legacy high-water + idle policy,
	// 'measured' the deadline policy, both at the lazy b=4 hw=75% shape.
	paper := map[string]float64{
		"stalls":           float64(hw.Cache.ForcedFlushStalls),
		"flushes":          float64(hw.Cache.Flushes),
		"deadline_flushes": float64(hw.Cache.DeadlineFlushes),
		"wall_s":           hw.Wall.Seconds(),
	}
	measured := map[string]float64{
		"stalls":           float64(dl.Cache.ForcedFlushStalls),
		"flushes":          float64(dl.Cache.Flushes),
		"deadline_flushes": float64(dl.Cache.DeadlineFlushes),
		"wall_s":           dl.Wall.Seconds(),
	}
	return &Artifact{
		ID:       "flushpolicy",
		Title:    "Flush-policy study: high-water + idle vs deadline write-behind",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: the ROADMAP flush-policy study. " +
			"'paper' holds the legacy high-water + idle policy at the lazy " +
			"shape (batch 4, 75% watermark); 'measured' holds the deadline " +
			"policy at a 1 s deadline and the same shape. Forced-flush " +
			"stalls count burst writes that had to write a dirty victim " +
			"synchronously because no clean frame was left; flusher passes " +
			"count disk-side background work. The lazy idle policy rides " +
			"the dirty queue to the watermark, fills the cache mid-burst, " +
			"and stalls writes behind dirty evictions; the deadline policy " +
			"at the same shape flushes by age, drains between bursts, and " +
			"takes zero stalls — at the cost of more flusher passes and a " +
			"slightly longer wall clock. At the eager 25% watermark the " +
			"policies converge (no stalls either way), so the deadline only " +
			"pays off when the watermark alone is too lazy to protect the " +
			"burst.",
	}, nil
}
