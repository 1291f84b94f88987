// Package analysis turns Pablo traces into the quantities the paper
// reports: request-size CDFs paired with data-volume CDFs (Figures 2 and
// 7), temporal size/duration series (Figures 3, 4, 5, 8, 9), aggregate
// per-operation I/O time shares (Tables 2 and 5), and percent-of-
// execution-time attributions (Table 3). TimelineSeries and CDFSeries
// turn the timelines and CDF curves into the series report.Plot draws.
package analysis

import (
	"sort"
	"time"

	"paragonio/internal/pablo"
	"paragonio/internal/report"
	"paragonio/internal/stats"
)

// SizeCDF pairs the two curves of the paper's CDF figures: the fraction
// of operations of size <= x, and the fraction of transferred data moved
// by operations of size <= x.
type SizeCDF struct {
	Ops  stats.CDF // fraction of requests
	Data stats.CDF // fraction of bytes
}

// SizeCDFOf builds the CDF pair for one operation type (reads or writes).
// Zero-byte operations (EOF reads) are excluded, as Pablo's size
// distributions were over actual transfers.
func SizeCDFOf(t *pablo.Trace, op pablo.Op) SizeCDF {
	var sizes []float64
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Op == op && ev.Size > 0 {
			sizes = append(sizes, float64(ev.Size))
		}
	}
	return SizeCDF{
		Ops:  stats.NewCDF(sizes),
		Data: stats.NewWeightedCDF(sizes, sizes),
	}
}

// FracOpsBelow returns the fraction of operations with size <= s.
func (c SizeCDF) FracOpsBelow(s int64) float64 { return c.Ops.At(float64(s)) }

// FracDataBelow returns the fraction of data moved by operations with
// size <= s.
func (c SizeCDF) FracDataBelow(s int64) float64 { return c.Data.At(float64(s)) }

// TimelinePoint is one mark of a scatter timeline: the event's start
// time and a value (size in bytes, or duration in seconds).
type TimelinePoint struct {
	T    time.Duration
	V    float64
	Node int
}

// SizeTimeline returns (start time, request size) points for one
// operation type — the paper's "read/write size vs execution time"
// scatter plots. Zero-size events are skipped.
func SizeTimeline(t *pablo.Trace, op pablo.Op) []TimelinePoint {
	var out []TimelinePoint
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Op == op && ev.Size > 0 {
			out = append(out, TimelinePoint{T: ev.Start, V: float64(ev.Size), Node: int(ev.Node)})
		}
	}
	return out
}

// DurationTimeline returns (start time, duration in seconds) points for
// one operation type — the paper's "seek duration vs execution time"
// plots.
func DurationTimeline(t *pablo.Trace, op pablo.Op) []TimelinePoint {
	var out []TimelinePoint
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Op == op {
			out = append(out, TimelinePoint{T: ev.Start, V: ev.Duration.Seconds(), Node: int(ev.Node)})
		}
	}
	return out
}

// TimelineSeries converts timeline points to a scatter series with
// execution time in seconds on x.
func TimelineSeries(name string, glyph rune, pts []TimelinePoint) report.Series {
	out := report.Series{Name: name, Glyph: glyph, Points: make([]report.Point, len(pts))}
	for i, p := range pts {
		out.Points[i] = report.Point{X: p.T.Seconds(), Y: p.V}
	}
	return out
}

// CDFSeries converts one curve of a SizeCDF (its Ops or its Data) to a
// step-line series.
func CDFSeries(name string, glyph rune, c stats.CDF) report.Series {
	pts := c.Points()
	out := report.Series{Name: name, Glyph: glyph, Line: true, Points: make([]report.Point, len(pts))}
	for i, p := range pts {
		out.Points[i] = report.Point{X: p.X, Y: p.F}
	}
	return out
}

// OpShare is one row of an aggregate table: an operation type's share of
// some time base.
type OpShare struct {
	Op      pablo.Op
	Percent float64
	Count   int
	Total   time.Duration
}

// IOTimeShares computes each operation type's percentage of total I/O
// time (the paper's Tables 2 and 5). Rows appear in the paper's order;
// operation types with no occurrences are included with zero share so
// tables align across versions.
func IOTimeShares(t *pablo.Trace) []OpShare {
	agg := pablo.AggregateByOp(t)
	total := agg.TotalDuration()
	out := make([]OpShare, 0, len(pablo.Ops()))
	for _, op := range pablo.Ops() {
		share := OpShare{Op: op, Count: agg.Count[op], Total: agg.Duration[op]}
		if total > 0 {
			share.Percent = 100 * float64(agg.Duration[op]) / float64(total)
		}
		out = append(out, share)
	}
	return out
}

// ExecTimeShares computes each operation type's percentage of total
// execution time (the paper's Table 3), plus an "All I/O" row encoded as
// the returned total. exec must be positive.
func ExecTimeShares(t *pablo.Trace, exec time.Duration) (rows []OpShare, allIO float64) {
	if exec <= 0 {
		panic("analysis: non-positive execution time")
	}
	agg := pablo.AggregateByOp(t)
	for _, op := range pablo.Ops() {
		rows = append(rows, OpShare{
			Op:      op,
			Count:   agg.Count[op],
			Total:   agg.Duration[op],
			Percent: 100 * float64(agg.Duration[op]) / float64(exec),
		})
	}
	return rows, 100 * float64(agg.TotalDuration()) / float64(exec)
}

// PhaseWindow is a named interval of a run, used to slice traces by
// application phase.
type PhaseWindow struct {
	Name       string
	Start, End time.Duration
}

// PhaseStats sums the events starting within [Start, End) of the given
// window — AggregateByOp(SliceByPhase(t, w)) without copying the events.
func PhaseStats(t *pablo.Trace, w PhaseWindow) pablo.OpStats {
	var s pablo.OpStats
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Start >= w.Start && ev.Start < w.End {
			s.Add(*ev)
		}
	}
	return s
}

// SliceByPhase returns the sub-trace of events starting within [Start,
// End) of the given window. It copies every event in the window: to sum
// a phase use PhaseStats. It stays because the benchmark's traced replay
// (bench/replay.go) calls it.
func SliceByPhase(t *pablo.Trace, w PhaseWindow) *pablo.Trace {
	return t.Filter(func(ev pablo.Event) bool {
		return ev.Start >= w.Start && ev.Start < w.End
	})
}

// RequestSizes returns the sorted distinct request sizes of an operation
// type, with per-size counts — handy for checking populations like "all
// write requests are of the same size".
func RequestSizes(t *pablo.Trace, op pablo.Op) map[int64]int {
	out := make(map[int64]int)
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Op == op && ev.Size > 0 {
			out[ev.Size]++
		}
	}
	return out
}

// Burstiness computes the coefficient of variation of inter-arrival
// times for one operation type — Miller & Katz's "bursty" criterion.
// Fewer than three events yield 0.
func Burstiness(t *pablo.Trace, op pablo.Op) float64 {
	var starts []float64
	evs := t.Events()
	for i := range evs {
		if ev := &evs[i]; ev.Op == op {
			starts = append(starts, ev.Start.Seconds())
		}
	}
	if len(starts) < 3 {
		return 0
	}
	sort.Float64s(starts)
	gaps := make([]float64, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		gaps[i-1] = starts[i] - starts[i-1]
	}
	return stats.CV(gaps)
}
