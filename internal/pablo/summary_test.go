package pablo

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// buildLifecycleTrace: node 0 opens f at t=0 (10ms), reads 100B (20ms) at
// t=1s, closes at t=2s (5ms); node 1 opens f at t=0.5s, writes, never
// closes.
func buildLifecycleTrace() *Trace {
	tr := NewTrace()
	tr.Record(ev(0, OpOpen, "f", 0, 0, 0, 10*time.Millisecond))
	tr.Record(ev(1, OpOpen, "f", 0, 0, 500*time.Millisecond, 10*time.Millisecond))
	tr.Record(ev(0, OpRead, "f", 0, 100, time.Second, 20*time.Millisecond))
	tr.Record(ev(1, OpWrite, "f", 100, 60, 1500*time.Millisecond, 30*time.Millisecond))
	tr.Record(ev(0, OpClose, "f", 0, 0, 2*time.Second, 5*time.Millisecond))
	return tr
}

func TestFileLifetimes(t *testing.T) {
	ls := FileLifetimes(buildLifecycleTrace())
	s, ok := ls["f"]
	if !ok {
		t.Fatal("no summary for f")
	}
	if s.Count[OpOpen] != 2 || s.Count[OpRead] != 1 || s.Count[OpWrite] != 1 || s.Count[OpClose] != 1 {
		t.Fatalf("counts = %v", s.Count)
	}
	if s.BytesRead != 100 || s.BytesWritten != 60 {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.FirstOpen != 0 {
		t.Fatalf("FirstOpen = %v", s.FirstOpen)
	}
	if s.LastClose != 2*time.Second+5*time.Millisecond {
		t.Fatalf("LastClose = %v", s.LastClose)
	}
	// Node 0's open interval: open end (10ms) -> close end (2.005s).
	if want := 2*time.Second + 5*time.Millisecond - 10*time.Millisecond; s.OpenTime != want {
		t.Fatalf("OpenTime = %v, want %v", s.OpenTime, want)
	}
}

func TestFileLifetimesMultipleFiles(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpRead, "a", 0, 1, 0, time.Millisecond))
	tr.Record(ev(0, OpRead, "b", 0, 2, 0, time.Millisecond))
	ls := FileLifetimes(tr)
	if len(ls) != 2 {
		t.Fatalf("got %d summaries", len(ls))
	}
	if ls["a"].BytesRead != 1 || ls["b"].BytesRead != 2 {
		t.Fatalf("per-file attribution wrong: %+v", ls)
	}
}

func TestTimeWindows(t *testing.T) {
	tr := NewTrace()
	// Events at t = 0s, 1.5s, 2.2s, 9.9s
	tr.Record(ev(0, OpRead, "f", 0, 10, 0, time.Millisecond))
	tr.Record(ev(0, OpRead, "f", 0, 20, 1500*time.Millisecond, time.Millisecond))
	tr.Record(ev(0, OpWrite, "f", 0, 30, 2200*time.Millisecond, time.Millisecond))
	tr.Record(ev(0, OpRead, "f", 0, 40, 9900*time.Millisecond, time.Millisecond))
	ws, err := TimeWindows(tr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 10 {
		t.Fatalf("got %d windows, want 10", len(ws))
	}
	if ws[0].Count[OpRead] != 1 || ws[1].Count[OpRead] != 1 || ws[2].Count[OpWrite] != 1 {
		t.Fatalf("window assignment wrong: %+v", ws[:3])
	}
	if ws[9].BytesRead != 40 {
		t.Fatalf("last window BytesRead = %d", ws[9].BytesRead)
	}
	for i := 3; i < 9; i++ {
		if ws[i].TotalCount() != 0 {
			t.Fatalf("window %d not empty", i)
		}
	}
}

func TestTimeWindowsConservation(t *testing.T) {
	tr := buildLifecycleTrace()
	for _, width := range []time.Duration{100 * time.Millisecond, time.Second, 10 * time.Second} {
		ws, err := TimeWindows(tr, width)
		if err != nil {
			t.Fatal(err)
		}
		var total OpStats
		for _, w := range ws {
			for op := range w.Count {
				total.Count[op] += w.Count[op]
				total.Duration[op] += w.Duration[op]
			}
			total.BytesRead += w.BytesRead
			total.BytesWritten += w.BytesWritten
		}
		whole := AggregateByOp(tr)
		if total != whole {
			t.Fatalf("width %v: windows sum %+v != aggregate %+v", width, total, whole)
		}
	}
}

func TestTimeWindowsEmptyTrace(t *testing.T) {
	if ws, err := TimeWindows(NewTrace(), time.Second); ws != nil || err != nil {
		t.Fatalf("windows of empty trace = %v, %v", ws, err)
	}
}

func TestTimeWindowsBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for width 0")
		}
	}()
	TimeWindows(NewTrace(), 0)
}

func TestFileRegions(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpWrite, "f", 0, 100, 0, time.Millisecond))
	tr.Record(ev(0, OpWrite, "f", 1000, 100, 0, time.Millisecond))
	tr.Record(ev(0, OpRead, "f", 2500, 100, 0, time.Millisecond))
	tr.Record(ev(0, OpOpen, "f", 0, 0, 0, time.Millisecond)) // non-spatial: ignored
	rs, err := FileRegions(tr, "f", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d regions, want 3", len(rs))
	}
	if rs[0].Count[OpWrite] != 1 || rs[1].Count[OpWrite] != 1 || rs[2].Count[OpRead] != 1 {
		t.Fatalf("region assignment: %+v", rs)
	}
	if rs[0].Lo != 0 || rs[0].Hi != 1000 || rs[2].Lo != 2000 {
		t.Fatalf("region bounds: %+v", rs)
	}
}

func TestFileRegionsUnknownFile(t *testing.T) {
	tr := buildLifecycleTrace()
	if rs, err := FileRegions(tr, "nope", 100); rs != nil || err != nil {
		t.Fatalf("regions for unknown file = %v, %v", rs, err)
	}
}

func TestFileRegionsConservation(t *testing.T) {
	tr := NewTrace()
	offs := []int64{0, 64, 128, 4096, 65536, 65537, 1 << 20}
	for i, off := range offs {
		op := OpRead
		if i%2 == 1 {
			op = OpWrite
		}
		tr.Record(ev(i, op, "f", off, 64, 0, time.Millisecond))
	}
	for _, width := range []int64{64, 1000, 1 << 16, 1 << 21} {
		rs, err := FileRegions(tr, "f", width)
		if err != nil {
			t.Fatal(err)
		}
		var reads, writes int
		for _, r := range rs {
			reads += r.Count[OpRead]
			writes += r.Count[OpWrite]
		}
		if reads != 4 || writes != 3 {
			t.Fatalf("width %d: reads/writes = %d/%d", width, reads, writes)
		}
	}
}

// TestTimeWindowsRowCap: a width that would need more than
// maxSummaryRows windows is an error naming the smallest width that
// fits, and that width works.
func TestTimeWindowsRowCap(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpRead, "f", 0, 10, 0, time.Millisecond))
	tr.Record(ev(0, OpRead, "f", 0, 10, 2*time.Hour, time.Millisecond))
	_, err := TimeWindows(tr, time.Nanosecond)
	fit := (2*time.Hour+time.Millisecond)/maxSummaryRows + 1
	if err == nil || !strings.Contains(err.Error(), "smallest width that fits is "+fit.String()) {
		t.Fatalf("1ns windows over two hours: err = %v, want one naming %v", err, fit)
	}
	ws, err := TimeWindows(tr, fit)
	if err != nil || len(ws) != maxSummaryRows {
		t.Fatalf("%v windows: %d windows, err %v; want %d", fit, len(ws), err, maxSummaryRows)
	}
	if _, err := TimeWindows(tr, fit-1); err == nil {
		t.Fatalf("%v windows accepted", fit-1)
	}
	// A corrupt trace with one event at 2^62 ns fails at the default
	// 10 s width instead of allocating.
	tr.Record(ev(0, OpRead, "f", 0, 10, 1<<62, 0))
	if _, err := TimeWindows(tr, 10*time.Second); err == nil {
		t.Fatal("2^62 ns span accepted at 10 s windows")
	}
}

// TestFileRegionsRowCap: as for windows, an extent that would need more
// than maxSummaryRows regions is an error naming the smallest width.
func TestFileRegionsRowCap(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpSeek, "f", 1<<60, 0, 0, time.Millisecond))
	_, err := FileRegions(tr, "f", 1)
	fit := int64(1<<60)/maxSummaryRows + 1
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("smallest width that fits is %d B", fit)) {
		t.Fatalf("1-byte regions up to 1<<60: err = %v, want one naming %d B", err, fit)
	}
	rs, err := FileRegions(tr, "f", fit)
	if err != nil || len(rs) != maxSummaryRows || rs[len(rs)-1].Count[OpSeek] != 1 {
		t.Fatalf("%d-byte regions: %d regions, err %v", fit, len(rs), err)
	}
}
