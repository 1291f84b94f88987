package analysis

import (
	"math"
	"testing"
	"time"

	"paragonio/internal/pablo"
)

func mkEv(op pablo.Op, size int64, start, dur time.Duration) pablo.Event {
	return pablo.Event{Node: 0, Op: op, File: "f", Size: size, Start: start, Duration: dur}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSizeCDFOf(t *testing.T) {
	tr := pablo.NewTrace()
	// 97 small reads of 1KB, 3 big reads of 128KB (paper's version A shape).
	for i := 0; i < 97; i++ {
		tr.Record(mkEv(pablo.OpRead, 1024, 0, time.Millisecond))
	}
	for i := 0; i < 3; i++ {
		tr.Record(mkEv(pablo.OpRead, 131072, 0, time.Millisecond))
	}
	tr.Record(mkEv(pablo.OpRead, 0, 0, time.Millisecond)) // EOF read excluded
	c := SizeCDFOf(tr, pablo.OpRead)
	if got := c.FracOpsBelow(2048); !near(got, 0.97) {
		t.Fatalf("FracOpsBelow(2K) = %g", got)
	}
	dataSmall := float64(97*1024) / float64(97*1024+3*131072)
	if got := c.FracDataBelow(2048); !near(got, dataSmall) {
		t.Fatalf("FracDataBelow(2K) = %g, want %g", got, dataSmall)
	}
	if got := c.FracDataBelow(131072); got != 1 {
		t.Fatalf("FracDataBelow(max) = %g", got)
	}
}

func TestSizeCDFEmptyOp(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpWrite, 100, 0, time.Millisecond))
	c := SizeCDFOf(tr, pablo.OpRead)
	if !c.Ops.Empty() || !c.Data.Empty() {
		t.Fatal("CDF of absent op should be empty")
	}
}

func TestSizeTimeline(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpRead, 100, time.Second, time.Millisecond))
	tr.Record(mkEv(pablo.OpRead, 0, 2*time.Second, time.Millisecond)) // skipped
	tr.Record(mkEv(pablo.OpRead, 300, 3*time.Second, time.Millisecond))
	pts := SizeTimeline(tr, pablo.OpRead)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].T != time.Second || pts[0].V != 100 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[1].T != 3*time.Second || pts[1].V != 300 {
		t.Fatalf("pts[1] = %+v", pts[1])
	}
}

func TestDurationTimeline(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpSeek, 0, time.Second, 8*time.Second))
	pts := DurationTimeline(tr, pablo.OpSeek)
	if len(pts) != 1 || !near(pts[0].V, 8) {
		t.Fatalf("pts = %+v", pts)
	}
}

func TestIOTimeShares(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpOpen, 0, 0, 54*time.Second))
	tr.Record(mkEv(pablo.OpRead, 100, 0, 43*time.Second))
	tr.Record(mkEv(pablo.OpSeek, 0, 0, time.Second))
	tr.Record(mkEv(pablo.OpWrite, 10, 0, time.Second))
	tr.Record(mkEv(pablo.OpClose, 0, 0, time.Second))
	rows := IOTimeShares(tr)
	byOp := map[pablo.Op]OpShare{}
	var sum float64
	for _, r := range rows {
		byOp[r.Op] = r
		sum += r.Percent
	}
	if !near(sum, 100) {
		t.Fatalf("shares sum to %g", sum)
	}
	if !near(byOp[pablo.OpOpen].Percent, 54) || !near(byOp[pablo.OpRead].Percent, 43) {
		t.Fatalf("shares: open=%g read=%g", byOp[pablo.OpOpen].Percent, byOp[pablo.OpRead].Percent)
	}
	if byOp[pablo.OpGopen].Percent != 0 || byOp[pablo.OpGopen].Count != 0 {
		t.Fatalf("gopen row should be zero: %+v", byOp[pablo.OpGopen])
	}
	if len(rows) != len(pablo.Ops()) {
		t.Fatalf("rows = %d, want one per op", len(rows))
	}
}

func TestIOTimeSharesEmptyTrace(t *testing.T) {
	rows := IOTimeShares(pablo.NewTrace())
	for _, r := range rows {
		if r.Percent != 0 {
			t.Fatalf("empty trace row %+v", r)
		}
	}
}

func TestExecTimeShares(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpRead, 10, 0, 2*time.Second))
	tr.Record(mkEv(pablo.OpWrite, 10, 0, time.Second))
	rows, all := ExecTimeShares(tr, 100*time.Second)
	byOp := map[pablo.Op]OpShare{}
	for _, r := range rows {
		byOp[r.Op] = r
	}
	if !near(byOp[pablo.OpRead].Percent, 2) || !near(byOp[pablo.OpWrite].Percent, 1) {
		t.Fatalf("rows: %+v", byOp)
	}
	if !near(all, 3) {
		t.Fatalf("allIO = %g", all)
	}
}

func TestExecTimeSharesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExecTimeShares(pablo.NewTrace(), 0)
}

func TestSliceByPhase(t *testing.T) {
	tr := pablo.NewTrace()
	for i := 0; i < 10; i++ {
		tr.Record(mkEv(pablo.OpRead, 10, time.Duration(i)*time.Second, time.Millisecond))
	}
	w := PhaseWindow{Name: "mid", Start: 3 * time.Second, End: 6 * time.Second}
	sub := SliceByPhase(tr, w)
	if sub.Len() != 3 {
		t.Fatalf("phase slice has %d events", sub.Len())
	}
	for _, ev := range sub.Events() {
		if ev.Start < w.Start || ev.Start >= w.End {
			t.Fatalf("event at %v outside window", ev.Start)
		}
	}
}

// TestPhaseStats checks the window is [Start, End) by start time and that
// the sums match aggregating the copied slice.
func TestPhaseStats(t *testing.T) {
	tr := pablo.NewTrace()
	for i := 0; i < 10; i++ {
		op := pablo.OpRead
		if i%2 == 1 {
			op = pablo.OpWrite
		}
		tr.Record(mkEv(op, int64(10*i), time.Duration(i)*time.Second, time.Duration(i)*time.Millisecond))
	}
	w := PhaseWindow{Name: "mid", Start: 3 * time.Second, End: 6 * time.Second}
	got := PhaseStats(tr, w)
	if n := got.TotalCount(); n != 3 {
		t.Fatalf("phase has %d events, want 3", n)
	}
	if got.BytesRead != 40 || got.BytesWritten != 30+50 {
		t.Fatalf("bytes read/written = %d/%d", got.BytesRead, got.BytesWritten)
	}
	if want := pablo.AggregateByOp(SliceByPhase(tr, w)); got != want {
		t.Fatalf("PhaseStats = %+v, sliced aggregate %+v", got, want)
	}
}

func TestRequestSizes(t *testing.T) {
	tr := pablo.NewTrace()
	tr.Record(mkEv(pablo.OpWrite, 100, 0, 0))
	tr.Record(mkEv(pablo.OpWrite, 100, 0, 0))
	tr.Record(mkEv(pablo.OpWrite, 300, 0, 0))
	sizes := RequestSizes(tr, pablo.OpWrite)
	if len(sizes) != 2 || sizes[100] != 2 || sizes[300] != 1 {
		t.Fatalf("RequestSizes = %v", sizes)
	}
}

func TestBurstiness(t *testing.T) {
	regular := pablo.NewTrace()
	for i := 0; i < 20; i++ {
		regular.Record(mkEv(pablo.OpWrite, 10, time.Duration(i)*time.Second, 0))
	}
	bursty := pablo.NewTrace()
	// Five checkpoints of 4 back-to-back writes, far apart.
	for cp := 0; cp < 5; cp++ {
		base := time.Duration(cp) * 100 * time.Second
		for j := 0; j < 4; j++ {
			bursty.Record(mkEv(pablo.OpWrite, 10, base+time.Duration(j)*time.Millisecond, 0))
		}
	}
	if b, r := Burstiness(bursty, pablo.OpWrite), Burstiness(regular, pablo.OpWrite); b <= r {
		t.Fatalf("bursty CV %g <= regular CV %g", b, r)
	}
	if got := Burstiness(pablo.NewTrace(), pablo.OpWrite); got != 0 {
		t.Fatalf("empty burstiness = %g", got)
	}
}
