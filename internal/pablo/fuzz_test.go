package pablo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"paragonio/internal/sddf"
)

// FuzzReadTrace hardens the text codec against malformed input: any
// byte stream must either parse into a trace that re-serializes cleanly
// or return an error — never panic.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	tr := NewTrace()
	tr.Record(Event{Node: 1, Op: OpRead, File: "a b", Offset: 3, Size: 4,
		Start: time.Second, Duration: time.Millisecond, Mode: "M_UNIX"})
	if err := WriteTrace(&seed, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add(codecMagic + "\n" + codecHeader + "\n")
	f.Add(codecMagic + "\n" + codecHeader + "\nIOEVT 0 read \"f\" 0 0 0 0 -\n")
	f.Add(codecMagic + "\n" + codecHeader + "\nIOEVT x y z\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round-trip changed length: %d -> %d", got.Len(), again.Len())
		}
	})
}

// FuzzReadSDDF does the same for the generic self-describing stream
// iotrace also reads: any input either fails to parse or yields io-events
// that re-serialize through WriteSDDF and re-parse to the same length.
func FuzzReadSDDF(f *testing.F) {
	tr := NewTrace()
	tr.Record(Event{Node: 1, Op: OpWrite, File: "a \"b\"", Offset: 100, Size: 200,
		Start: time.Second, Duration: time.Millisecond, Mode: "M_ASYNC"})
	var events bytes.Buffer
	if err := WriteSDDF(sddf.NewWriter(&events), tr); err != nil {
		f.Fatal(err)
	}
	f.Add(events.String())

	var mixed bytes.Buffer
	w := sddf.NewWriter(&mixed)
	desc := CacheSampleDescriptor()
	rec, err := CacheSampleRecord(desc, CacheSample{T: time.Second, IONode: 2, Hits: 5, Dirty: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Write(rec); err != nil {
		f.Fatal(err)
	}
	if err := WriteSDDF(w, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(mixed.String())

	f.Add("")
	f.Add("#SDDF-G v1\n")
	f.Add("#SDDF-G v1\nR 9 1 2 3\n")
	f.Fuzz(func(t *testing.T, input string) {
		got, _, err := ReadSDDF(sddf.NewReader(strings.NewReader(input)))
		// WriteSDDF of an empty trace emits no stream, not even the magic
		// line, so there is nothing to round-trip.
		if err != nil || got.Len() == 0 {
			return
		}
		var buf bytes.Buffer
		if err := WriteSDDF(sddf.NewWriter(&buf), got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, _, err := ReadSDDF(sddf.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round-trip changed length: %d -> %d", got.Len(), again.Len())
		}
	})
}
