package pablo

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

func ev(node int, op Op, file string, off, size int64, start, dur time.Duration) Event {
	return Event{Node: int32(node), Op: op, File: file, Offset: off, Size: size,
		Start: start, Duration: dur, Mode: ModeUnix}
}

// TestEventLayout pins the compact event: 56 bytes, with File still a
// string (an interned id would make the event pointer-free, which
// DESIGN.md §5 explains is not wanted).
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 56 {
		t.Errorf("sizeof(Event) = %d, want 56", got)
	}
	f, ok := reflect.TypeOf(Event{}).FieldByName("File")
	if !ok || f.Type.Kind() != reflect.String {
		t.Errorf("Event.File is %v, want a string", f.Type)
	}
	if eventBytes != 56 {
		t.Errorf("eventBytes = %d, want 56", eventBytes)
	}
}

func TestModeStrings(t *testing.T) {
	if s := NoMode.String(); s != "" {
		t.Errorf("NoMode.String() = %q, want empty", s)
	}
	for m := ModeUnix; m <= ModeAsync; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode(""); err == nil {
		t.Error(`ParseMode("") accepted`)
	}
	if s := Mode(ModeAsync + 1).String(); s != "mode(7)" {
		t.Errorf("out-of-range mode prints %q", s)
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	for _, op := range Ops() {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Fatalf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Fatal("ParseOp accepted bogus name")
	}
	if s := Op(99).String(); s != "op(99)" {
		t.Fatalf("out-of-range String = %q", s)
	}
}

func TestTraceRecordAndAccessors(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpOpen, "a", 0, 0, 0, time.Millisecond))
	tr.Record(ev(1, OpRead, "a", 0, 100, time.Second, time.Millisecond))
	tr.Record(ev(0, OpWrite, "b", 50, 200, 2*time.Second, time.Millisecond))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Filter(func(ev Event) bool { return ev.Op == OpRead }).Events(); len(got) != 1 || got[0].Size != 100 {
		t.Fatalf("Filter(read) = %v", got)
	}
	if got := tr.ByFile("b"); len(got) != 1 || got[0].Op != OpWrite {
		t.Fatalf("ByFile(b) = %v", got)
	}
	files := tr.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("Files = %v", files)
	}
}

func TestTraceFilter(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 10; i++ {
		tr.Record(ev(i%2, OpRead, "f", 0, int64(i), 0, 0))
	}
	odd := tr.Filter(func(e Event) bool { return e.Size%2 == 1 })
	if odd.Len() != 5 {
		t.Fatalf("filtered Len = %d, want 5", odd.Len())
	}
	for _, e := range odd.Events() {
		if e.Size%2 != 1 {
			t.Fatalf("filter let through %v", e)
		}
	}
}

func TestSpanAndTotalIOTime(t *testing.T) {
	tr := NewTrace()
	if s, e := tr.Span(); s != 0 || e != 0 {
		t.Fatalf("empty Span = %v,%v", s, e)
	}
	tr.Record(ev(0, OpRead, "f", 0, 1, 5*time.Second, 2*time.Second))
	tr.Record(ev(1, OpRead, "f", 0, 1, time.Second, time.Second))
	s, e := tr.Span()
	if s != time.Second || e != 7*time.Second {
		t.Fatalf("Span = %v,%v, want 1s,7s", s, e)
	}
	if got := tr.TotalIOTime(); got != 3*time.Second {
		t.Fatalf("TotalIOTime = %v, want 3s", got)
	}
}

func TestNodesActive(t *testing.T) {
	tr := NewTrace()
	for _, n := range []int{5, 1, 5, 3} {
		tr.Record(ev(n, OpRead, "f", 0, 1, 0, 0))
	}
	got := NodesActive(tr)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("NodesActive = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesActive = %v, want %v", got, want)
		}
	}
}

func TestOpStatsAddAndPercent(t *testing.T) {
	var s OpStats
	s.Add(ev(0, OpRead, "f", 0, 100, 0, 3*time.Second))
	s.Add(ev(0, OpWrite, "f", 0, 50, 0, time.Second))
	if s.BytesRead != 100 || s.BytesWritten != 50 {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.TotalCount() != 2 {
		t.Fatalf("TotalCount = %d", s.TotalCount())
	}
	if s.TotalDuration() != 4*time.Second {
		t.Fatalf("TotalDuration = %v", s.TotalDuration())
	}
	pct := s.Percent()
	if pct[OpRead] != 75 || pct[OpWrite] != 25 {
		t.Fatalf("Percent = %v", pct)
	}
}

func TestOpStatsPercentZeroTotal(t *testing.T) {
	var s OpStats
	for _, p := range s.Percent() {
		if p != 0 {
			t.Fatal("Percent of empty stats must be zero")
		}
	}
}

func TestAggregateByOp(t *testing.T) {
	tr := NewTrace()
	tr.Record(ev(0, OpOpen, "f", 0, 0, 0, 4*time.Second))
	tr.Record(ev(1, OpRead, "f", 0, 10, 0, 6*time.Second))
	s := AggregateByOp(tr)
	pct := s.Percent()
	if pct[OpOpen] != 40 || pct[OpRead] != 60 {
		t.Fatalf("Percent = %v", pct)
	}
}
