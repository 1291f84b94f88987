package experiments

import (
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// RunSummary is what the Suite keeps of a measured run: the run-level
// quantities the what-if studies and Figure 1 read, and Pablo's file
// lifetime summary reduced to per-file operation counts and durations.
// It holds no events. Every duration is an int64 sum, exact in any
// order, so an artifact computed from a summary is byte-identical to one
// computed by walking the trace.
type RunSummary struct {
	Version string        // the build's version id (Figure 1's row label)
	Exec    time.Duration // virtual execution time
	// IO is the summed duration of every event (Trace.TotalIOTime),
	// including the events with no file.
	IO time.Duration
	// Files holds each file's per-operation counts, durations and bytes:
	// the OpStats of its pablo.FileLifetimes entry.
	Files  map[string]pablo.OpStats
	Cache  cache.Stats // the I/O-node tier's totals (Result.CacheTotals)
	Client cache.ClientStats
	Log    cache.LogStats
	Events int    // trace length
	Digest uint64 // trace digest
}

// newRunSummary is the one constructor of a RunSummary: the run-level
// quantities come from res, and every event total from tally, the run's
// events folded as it executed (measured runs) or afterwards from its
// kept trace (a tiers-off rung's canonical run).
func newRunSummary(res *core.Result, tally *pablo.Tally) *RunSummary {
	return &RunSummary{
		Version: res.Version,
		Exec:    res.Exec,
		IO:      tally.TotalIOTime(),
		Files:   tally.Files(),
		Cache:   res.CacheTotals(),
		Client:  res.Client,
		Log:     res.Log,
		Events:  tally.Len(),
		Digest:  tally.Digest(),
	}
}

// fileOpTime sums the duration of op on the files selected by pred.
func fileOpTime(sum *RunSummary, op pablo.Op, pred func(file string) bool) time.Duration {
	var d time.Duration
	for file, st := range sum.Files {
		if pred(file) {
			d += st.Duration[op]
		}
	}
	return d
}
