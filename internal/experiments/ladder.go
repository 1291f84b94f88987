package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps"
	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/iobench"
	"paragonio/internal/pablo"
	"paragonio/internal/report"
)

// rung is one row of an application-scale ladder table: a variant and
// the workload's run under its tiers.
type rung struct {
	variant
	*RunSummary
}

// ladder runs each of runs under every variant — for each variant in
// turn, the runs in argument order — and returns one table of rungs per
// run.
func (s *Suite) ladder(variants []variant, runs ...apps.Run) ([][]rung, error) {
	tables := make([][]rung, len(runs))
	for _, v := range variants {
		for i, r := range runs {
			res, err := s.underTiers(r, v.tiers)
			if err != nil {
				return nil, err
			}
			tables[i] = append(tables[i], rung{v, res})
		}
	}
	return tables, nil
}

// ends returns the summaries of a ladder table's first rung (the
// tiers-off baseline) and last rung (the study's compared machine).
func ends(table []rung) (base, last *RunSummary) {
	return table[0].RunSummary, table[len(table)-1].RunSummary
}

// The headline operations of the application-scale studies: each is
// the summed time of one operation on one workload's files.

func checkpointWrite(r *RunSummary) time.Duration {
	return fileOpTime(r, pablo.OpWrite, func(f string) bool { return f == prism.CheckpointFile })
}

func restartRead(r *RunSummary) time.Duration {
	return fileOpTime(r, pablo.OpRead, func(f string) bool { return f == prism.RestartFile })
}

func quadRead(r *RunSummary) time.Duration { return fileOpTime(r, pablo.OpRead, isQuadFile) }

func quadWrite(r *RunSummary) time.Duration { return fileOpTime(r, pablo.OpWrite, isQuadFile) }

func isQuadFile(f string) bool { return strings.HasPrefix(f, escat.QuadFile(0)[:len("escat/quad.")]) }

// outWrite is the time of ESCAT's phase-four result-file writes.
func outWrite(r *RunSummary) time.Duration {
	return fileOpTime(r, pablo.OpWrite, func(f string) bool {
		return strings.HasPrefix(f, escat.OutFile(0)[:len("escat/out.")])
	})
}

func ioTime(r *RunSummary) time.Duration { return r.IO }

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

func percent(frac float64) string { return fmt.Sprintf("%.1f", 100*frac) }

// secsCol is a table column of seconds measured on each rung's run.
func secsCol(head string, f func(*RunSummary) time.Duration) report.Column[rung] {
	return report.Column[rung]{Head: head, Cell: func(r rung) string { return secs(f(r.RunSummary)) }}
}

// rungCols is the column list of an application-scale table: the
// variant, exec and io columns every table shares, the table's headline
// operations, then the counters of the tier it studies.
func rungCols(counters []report.Column[rung], ops ...report.Column[rung]) []report.Column[rung] {
	cols := []report.Column[rung]{
		{Head: "variant", Cell: func(r rung) string { return r.label }},
		secsCol("exec_s", func(r *RunSummary) time.Duration { return r.Exec }),
		secsCol("io_s", ioTime),
	}
	return append(append(cols, ops...), counters...)
}

// ionodeCols are the I/O-node tier's counters.
var ionodeCols = []report.Column[rung]{
	{Head: "hit_%", Cell: func(r rung) string { return percent(r.Cache.HitRatio()) }},
	{Head: "max_dirty", Cell: func(r rung) string { return fmt.Sprintf("%d", r.Cache.MaxDirty) }},
	{Head: "stalls", Cell: func(r rung) string { return fmt.Sprintf("%d", r.Cache.ForcedFlushStalls) }},
	{Head: "ra_acc_%", Cell: func(r rung) string { return percent(r.Cache.ReadAheadAccuracy()) }},
}

// clientCol is a client-tier counter; rungs without a client tier show
// "-".
func clientCol(head string, f func(cache.ClientStats) string) report.Column[rung] {
	return report.Column[rung]{Head: head, Cell: func(r rung) string {
		if r.tiers.Client == nil {
			return "-"
		}
		return f(r.Client)
	}}
}

// clientCols are the client tier's counters, then the I/O-node hit
// ratio of the rungs that stack both tiers.
var clientCols = []report.Column[rung]{
	clientCol("c_hit_%", func(c cache.ClientStats) string { return percent(c.HitRatio()) }),
	clientCol("recalls", func(c cache.ClientStats) string { return fmt.Sprintf("%d", c.Recalls) }),
	clientCol("stale_av", func(c cache.ClientStats) string { return fmt.Sprintf("%d", c.StaleAverted) }),
	clientCol("expired", func(c cache.ClientStats) string { return fmt.Sprintf("%d", c.LeaseExpired) }),
	clientCol("recall_wait_s", func(c cache.ClientStats) string { return secs(c.RecallWait) }),
	{Head: "ion_hit_%", Cell: func(r rung) string {
		if r.tiers.IONode == nil {
			return "-"
		}
		return percent(r.Cache.HitRatio())
	}},
}

// pair records key on both sides of a what-if comparison: f of the
// baseline in a.Baseline, f of the compared run in a.Measured. It is
// the one writer of Baseline.
func pair[T any](a *Artifact, key string, f func(T) float64, base, run T) {
	if a.Baseline == nil {
		a.Baseline, a.Measured = map[string]float64{}, map[string]float64{}
	}
	a.Baseline[key] = f(base)
	a.Measured[key] = f(run)
}

// inSecs reads a duration measured on a run in seconds.
func inSecs(f func(*RunSummary) time.Duration) func(*RunSummary) float64 {
	return func(r *RunSummary) float64 { return f(r).Seconds() }
}

// wall is a kernel-scale rung's virtual completion time in seconds.
func wall(r *iobench.Result) float64 { return r.Wall.Seconds() }
