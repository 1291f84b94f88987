package pablo

import (
	"fmt"
	"sort"
	"time"
)

// OpStats accumulates per-operation counts and durations.
type OpStats struct {
	Count    [numOps]int
	Duration [numOps]time.Duration
	// Bytes moved by reads and writes.
	BytesRead    int64
	BytesWritten int64
}

// Add folds one event into the stats.
func (s *OpStats) Add(ev Event) {
	if ev.Op >= numOps {
		return
	}
	s.Count[ev.Op]++
	s.Duration[ev.Op] += ev.Duration
	switch ev.Op {
	case OpRead:
		s.BytesRead += ev.Size
	case OpWrite:
		s.BytesWritten += ev.Size
	}
}

// TotalCount returns the number of operations across all types.
func (s *OpStats) TotalCount() int {
	var n int
	for _, c := range s.Count {
		n += c
	}
	return n
}

// TotalDuration returns the summed duration across all operation types.
func (s *OpStats) TotalDuration() time.Duration {
	var d time.Duration
	for _, v := range s.Duration {
		d += v
	}
	return d
}

// Percent returns each operation's share of total duration, in percent,
// indexed by Op. A zero total yields all zeros.
func (s *OpStats) Percent() [numOps]float64 {
	var out [numOps]float64
	total := s.TotalDuration()
	if total == 0 {
		return out
	}
	for i, d := range s.Duration {
		out[i] = 100 * float64(d) / float64(total)
	}
	return out
}

// LifetimeSummary is Pablo's "file lifetime" statistical summary: the
// number and total duration of each operation type on one file, the bytes
// accessed, and the total time the file was open.
type LifetimeSummary struct {
	File string
	OpStats
	FirstOpen time.Duration // start of the first open/gopen
	LastClose time.Duration // end of the last close (0 if never closed)
	OpenTime  time.Duration // summed per-node open->close intervals
}

// FileLifetimes computes a lifetime summary per file. Open intervals are
// accumulated per (node, file): each open/gopen on a node begins an
// interval ended by that node's next close.
func FileLifetimes(t *Trace) map[string]*LifetimeSummary {
	out := make(map[string]*LifetimeSummary)
	type key struct {
		node int32
		file string
	}
	openAt := make(map[key]time.Duration)
	get := func(file string) *LifetimeSummary {
		s := out[file]
		if s == nil {
			s = &LifetimeSummary{File: file, FirstOpen: -1}
			out[file] = s
		}
		return s
	}
	for _, ev := range t.Events() {
		if ev.File == "" {
			continue
		}
		s := get(ev.File)
		s.Add(ev)
		switch ev.Op {
		case OpOpen, OpGopen:
			if s.FirstOpen < 0 || ev.Start < s.FirstOpen {
				s.FirstOpen = ev.Start
			}
			openAt[key{ev.Node, ev.File}] = ev.End()
		case OpClose:
			if at, ok := openAt[key{ev.Node, ev.File}]; ok {
				s.OpenTime += ev.End() - at
				delete(openAt, key{ev.Node, ev.File})
			}
			if ev.End() > s.LastClose {
				s.LastClose = ev.End()
			}
		}
	}
	for _, s := range out {
		if s.FirstOpen < 0 {
			s.FirstOpen = 0
		}
	}
	return out
}

// WindowSummary is Pablo's "time window" summary: per-operation activity
// within [Start, End).
type WindowSummary struct {
	Start, End time.Duration
	OpStats
}

// maxSummaryRows caps the summaries one TimeWindows or FileRegions call
// builds (about 11 MB of them): both the width and the trace come from
// outside the program.
const maxSummaryRows = 1 << 16

// summaryRows returns extent/width+1, the summaries that cover extent
// (which is non-negative, counted in units of width), or an error naming
// the smallest width that stays under maxSummaryRows.
func summaryRows(extent, width uint64, what string, unit func(uint64) string) (int, error) {
	if n := extent / width; n < maxSummaryRows {
		return int(n) + 1, nil
	}
	return 0, fmt.Errorf("pablo: %s of width %s would need more than %d summaries; the smallest width that fits is %s",
		what, unit(width), maxSummaryRows, unit(extent/maxSummaryRows+1))
}

// TimeWindows partitions the trace's span into windows of the given width
// and summarizes each. Events are assigned to the window containing their
// start time. Width must be positive. Empty traces yield nil. A width
// that would need more than maxSummaryRows windows is an error.
func TimeWindows(t *Trace, width time.Duration) ([]WindowSummary, error) {
	if width <= 0 {
		panic("pablo: non-positive window width")
	}
	if t.Len() == 0 {
		return nil, nil
	}
	start, end := t.Span()
	// Offsets from start are taken unsigned: a corrupt trace's span may
	// not fit an int64.
	n, err := summaryRows(uint64(max(end, start)-start), uint64(width), "windows",
		func(w uint64) string { return time.Duration(w).String() })
	if err != nil {
		return nil, err
	}
	out := make([]WindowSummary, n)
	for i := range out {
		out[i].Start = start + time.Duration(i)*width
		out[i].End = out[i].Start + width
	}
	for _, ev := range t.Events() {
		i := min(uint64(ev.Start-start)/uint64(width), uint64(n-1))
		out[i].Add(ev)
	}
	return out, nil
}

// RegionSummary is Pablo's "file region" summary: activity against one
// byte range [Lo, Hi) of a file — the spatial analog of a time window.
type RegionSummary struct {
	File   string
	Lo, Hi int64
	OpStats
}

// FileRegions partitions the accessed extent of one file into regions of
// the given byte width and summarizes read/write/seek activity against
// each. Events are assigned by their starting offset (a corrupt negative
// offset counts in the first region). Width must be positive. Files
// never accessed yield nil. A width that would need more
// than maxSummaryRows regions is an error.
func FileRegions(t *Trace, file string, width int64) ([]RegionSummary, error) {
	if width <= 0 {
		panic("pablo: non-positive region width")
	}
	var hi int64 = -1
	evs := t.ByFile(file)
	for _, ev := range evs {
		switch ev.Op {
		case OpRead, OpWrite, OpSeek:
			if end := ev.Offset + ev.Size; end > hi {
				hi = end
			}
			if ev.Offset > hi {
				hi = ev.Offset
			}
		}
	}
	if hi < 0 {
		return nil, nil
	}
	n, err := summaryRows(uint64(hi), uint64(width), "regions",
		func(w uint64) string { return fmt.Sprintf("%d B", w) })
	if err != nil {
		return nil, err
	}
	out := make([]RegionSummary, n)
	for i := range out {
		out[i] = RegionSummary{File: file, Lo: int64(i) * width, Hi: int64(i+1) * width}
	}
	for _, ev := range evs {
		switch ev.Op {
		case OpRead, OpWrite, OpSeek:
			out[min(max(ev.Offset/width, 0), int64(n-1))].Add(ev)
		}
	}
	return out, nil
}

// AggregateByOp folds the whole trace into a single OpStats — the input
// to the paper's aggregate I/O performance tables.
func AggregateByOp(t *Trace) OpStats {
	var s OpStats
	for _, ev := range t.Events() {
		s.Add(ev)
	}
	return s
}

// NodesActive returns the sorted list of node ids that issued at least
// one event in the trace.
func NodesActive(t *Trace) []int {
	seen := make(map[int]bool)
	for _, ev := range t.Events() {
		seen[int(ev.Node)] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
