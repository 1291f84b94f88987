package pablo

import (
	"bytes"
	"io"
	"testing"
	"time"

	"paragonio/internal/sddf"
)

func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Record(Event{Node: 0, Op: OpOpen, File: "escat/input.0",
		Duration: 500 * time.Millisecond, Mode: "M_UNIX"})
	for i := 0; i < 100; i++ {
		tr.Record(Event{Node: i % 16, Op: OpRead, File: "escat/input.0",
			Offset: int64(i) * 622, Size: 622,
			Start: time.Duration(i) * 3 * time.Millisecond, Duration: 3 * time.Millisecond,
			Mode: "M_UNIX"})
	}
	tr.Record(Event{Node: 3, Op: OpWrite, File: "escat/quad.0",
		Offset: 131072, Size: 2720, Start: time.Minute, Duration: 20 * time.Millisecond,
		Mode: "M_ASYNC"})
	tr.Record(Event{Node: 5, Op: OpClose, File: "", Start: 2 * time.Minute,
		Duration: 6 * time.Millisecond})
	return tr
}

func TestSDDFBridgeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	w := sddf.NewWriter(&buf)
	if err := WriteSDDF(w, tr); err != nil {
		t.Fatal(err)
	}
	got, others, err := ReadSDDF(sddf.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(others) != 0 {
		t.Fatalf("unexpected foreign records: %d", len(others))
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
	for i, want := range tr.Events() {
		if got.Events()[i] != want {
			t.Fatalf("event %d: %+v != %+v", i, got.Events()[i], want)
		}
	}
}

func TestSDDFBridgeInterleavedForeignRecords(t *testing.T) {
	// The generic-consumer property: a stream mixing io-events with a
	// record type this package has never seen still parses, with the
	// foreign records handed back intact.
	var buf bytes.Buffer
	w := sddf.NewWriter(&buf)
	evDesc := EventDescriptor()
	utilDesc := &sddf.Descriptor{Tag: 7, Name: "utilization",
		Fields: []sddf.Field{{Name: "t", Type: sddf.Double}, {Name: "queue", Type: sddf.Int}}}

	ev := Event{Node: 2, Op: OpRead, File: "f", Offset: 10, Size: 20,
		Start: time.Second, Duration: time.Millisecond, Mode: "M_UNIX"}
	rec, err := EventRecord(evDesc, ev)
	if err != nil {
		t.Fatal(err)
	}
	util, err := sddf.NewRecord(utilDesc, 1.5, int64(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []sddf.Record{util, rec, util} {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, others, err := ReadSDDF(sddf.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events()[0] != ev {
		t.Fatalf("trace = %+v", tr.Events())
	}
	if len(others) != 2 {
		t.Fatalf("foreign records = %d, want 2", len(others))
	}
	if q, ok := others[0].Int("queue"); !ok || q != 12 {
		t.Fatalf("foreign record content lost: %+v", others[0])
	}
}

func TestEventFromRecordRejectsWrongType(t *testing.T) {
	d := &sddf.Descriptor{Tag: 9, Name: "not-io",
		Fields: []sddf.Field{{Name: "x", Type: sddf.Int}}}
	rec, err := sddf.NewRecord(d, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EventFromRecord(rec); err == nil {
		t.Fatal("wrong record type accepted")
	}
}

// TestAppendEventZeroAlloc pins the trace-export hot path: encoding one
// event through the builder bridge performs zero heap allocations (the
// buffered writer's flushes are the only steady-state cost left).
func TestAppendEventZeroAlloc(t *testing.T) {
	w := sddf.NewWriter(io.Discard)
	desc := EventDescriptor()
	ev := Event{Node: 5, Op: OpWrite, File: "prism/ckpt.3", Offset: 1 << 20,
		Size: 64 << 10, Start: time.Second, Duration: 3 * time.Millisecond,
		Mode: "M_ASYNC"}
	if err := AppendEvent(w, desc, &ev); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := AppendEvent(w, desc, &ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendEvent allocates %.1f times per event, want 0", allocs)
	}
}

// TestAppendEventMatchesEventRecord pins that the builder bridge and the
// boxed bridge emit byte-identical streams.
func TestAppendEventMatchesEventRecord(t *testing.T) {
	tr := sampleTrace()
	var boxed, built bytes.Buffer
	bw := sddf.NewWriter(&boxed)
	desc := EventDescriptor()
	for _, ev := range tr.Events() {
		rec, err := EventRecord(desc, ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := WriteSDDF(sddf.NewWriter(&built), tr); err != nil {
		t.Fatal(err)
	}
	if boxed.String() != built.String() {
		t.Fatalf("builder stream differs from boxed stream:\n%s\nvs\n%s",
			built.String(), boxed.String())
	}
}
