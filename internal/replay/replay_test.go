package replay

import (
	"testing"
	"time"

	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// captureSmall runs a reduced PRISM and returns its trace.
func captureSmall(t *testing.T) *pablo.Trace {
	t.Helper()
	d := prism.TestProblem()
	d.Nodes = 8
	d.Steps = 20
	d.CheckpointEvery = 10
	d.ParamReads = 10
	d.HeaderConsults = 6
	d.ConnTextReads = 12
	d.StepCompute = 300 * time.Millisecond
	d.SetupCompute = time.Second
	d.PostCompute = time.Second
	res, err := prism.Run(d, prism.VersionC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(pablo.NewTrace(), Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpOpen, File: "f"})
	if _, err := Replay(tr, Config{}); err == nil {
		t.Fatal("trace without data ops accepted")
	}
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpRead, File: "f", Size: 10})
	if _, err := Replay(tr, Config{Platform: core.Config{Nodes: 5}}); err == nil {
		t.Fatal("explicit node count accepted")
	}
}

func TestReplayConservesRequests(t *testing.T) {
	tr := captureSmall(t)
	out, err := Replay(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var origReads, origWrites int
	for _, ev := range tr.Events() {
		if ev.Size <= 0 {
			continue
		}
		switch ev.Op {
		case pablo.OpRead:
			origReads++
		case pablo.OpWrite:
			origWrites++
		}
	}
	if out.Reads != origReads || out.Writes != origWrites {
		t.Fatalf("replayed %d/%d, original %d/%d", out.Reads, out.Writes, origReads, origWrites)
	}
	// Replay's own trace carries the same payload volume.
	var origBytes, newBytes int64
	for _, ev := range tr.Events() {
		if ev.Op == pablo.OpRead || ev.Op == pablo.OpWrite {
			origBytes += ev.Size
		}
	}
	for _, ev := range out.Result.Trace.Events() {
		if ev.Op == pablo.OpRead || ev.Op == pablo.OpWrite {
			newBytes += ev.Size
		}
	}
	if origBytes != newBytes {
		t.Fatalf("payload changed: %d -> %d bytes", origBytes, newBytes)
	}
}

func TestReplayPreserveGapsStretchesSpan(t *testing.T) {
	tr := captureSmall(t)
	tight, err := Replay(tr, Config{PreserveGaps: false})
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := Replay(tr, Config{PreserveGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	// Node zero's checkpoint traffic keeps even the tight replay busy,
	// so the stretch factor is modest but must be clearly present.
	if gapped.ReplaySpan <= tight.ReplaySpan*13/10 {
		t.Fatalf("gap preservation did not stretch the replay: %v vs %v",
			gapped.ReplaySpan, tight.ReplaySpan)
	}
	// With gaps preserved, the replay span should be in the original
	// run's ballpark (same think time, different I/O).
	if gapped.ReplaySpan > gapped.OriginalSpan*2 {
		t.Fatalf("gapped span %v far exceeds original %v", gapped.ReplaySpan, gapped.OriginalSpan)
	}
}

func TestReplayMoreIONodesServesFaster(t *testing.T) {
	tr := captureSmall(t)
	few, err := Replay(tr, Config{Platform: core.Config{IONodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Replay(tr, Config{Platform: core.Config{IONodes: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if many.ReplayDataTime >= few.ReplayDataTime {
		t.Fatalf("16 I/O nodes (%v) not faster than 2 (%v)",
			many.ReplayDataTime, few.ReplayDataTime)
	}
	if many.Speedup() <= 0 || few.Speedup() <= 0 {
		t.Fatal("degenerate speedups")
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr := captureSmall(t)
	a, err := Replay(tr, Config{PreserveGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tr, Config{PreserveGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.ReplaySpan != b.ReplaySpan || a.ReplayDataTime != b.ReplayDataTime {
		t.Fatalf("non-deterministic replay: %+v vs %+v", a, b)
	}
}

func TestReplayHandwrittenTrace(t *testing.T) {
	// A two-node hand-written trace: node 0 writes 1 MB, node 1 reads it
	// later. Checks offsets survive and think time is honored.
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpWrite, File: "f", Offset: 0,
		Size: 1 << 20, Start: 0, Duration: time.Second, Mode: pablo.ModeAsync})
	tr.Record(pablo.Event{Node: 1, Op: pablo.OpRead, File: "f", Offset: 1 << 19,
		Size: 1 << 19, Start: 10 * time.Second, Duration: time.Second, Mode: pablo.ModeAsync})
	out, err := Replay(tr, Config{PreserveGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reads != 1 || out.Writes != 1 {
		t.Fatalf("ops = %d/%d", out.Reads, out.Writes)
	}
	// Node 1's read starts at >= 10 s (its think time).
	var readStart time.Duration
	for _, ev := range out.Result.Trace.Events() {
		if ev.Op == pablo.OpRead && ev.Size > 0 {
			readStart = ev.Start
			if ev.Offset != 1<<19 {
				t.Fatalf("read offset = %d", ev.Offset)
			}
		}
	}
	if readStart < 10*time.Second {
		t.Fatalf("think time not honored: read at %v", readStart)
	}
}
